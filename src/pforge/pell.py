"""Norm equations u**2 - D'*v**2 = T in real quadratic orders.

Continued-fraction fundamental units, base-solution classes, the unit
congruent to 1 modulo 2a that preserves solution congruences, and the
resulting infinite solution streams.  This is the machinery that turns
one integer point on D*y**2 = f(x) (f quadratic) into infinitely many.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple

from .errors import CapacityError, ContractError
from .numtheory import integer_sqrt, is_perfect_square, squarefree_decompose

DEFAULT_MAX_PERIOD = 10**7
DEFAULT_MAX_BRUTE_SCAN = 10**7


@dataclass(frozen=True)
class QuadraticInteger:
    """a + b*sqrt(dprime) with integer a, b and dprime a positive non-square."""

    a: int
    b: int
    dprime: int

    def norm(self) -> int:
        return self.a * self.a - self.dprime * self.b * self.b

    def conjugate(self) -> QuadraticInteger:
        return QuadraticInteger(self.a, -self.b, self.dprime)

    def __neg__(self) -> QuadraticInteger:
        return QuadraticInteger(-self.a, -self.b, self.dprime)

    def __mul__(self, other: QuadraticInteger) -> QuadraticInteger:
        if self.dprime != other.dprime:
            raise ValueError("mixed radicands")
        return QuadraticInteger(
            self.a * other.a + self.dprime * self.b * other.b,
            self.a * other.b + self.b * other.a,
            self.dprime,
        )

    def __pow__(self, e: int) -> QuadraticInteger:
        if e < 0:
            raise ValueError("negative power of a quadratic integer")
        result = QuadraticInteger(1, 0, self.dprime)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def inverse_unit(self) -> QuadraticInteger:
        """Inverse, valid only for norm-one elements."""
        if self.norm() != 1:
            raise ValueError("inverse_unit requires norm 1")
        return self.conjugate()

    def pair(self) -> tuple[int, int]:
        return self.a, self.b


def _require_nonsquare(dprime: int) -> None:
    if dprime < 2:
        raise ValueError(f"radicand must be >= 2, got {dprime}")
    if is_perfect_square(dprime):
        raise ValueError(f"radicand {dprime} is a perfect square")


@dataclass(frozen=True)
class CFExpansion:
    """Periodic continued fraction of sqrt(dprime): [a0; overline(a1..aL)]."""

    dprime: int
    a0: int
    periodic: tuple[int, ...]

    @property
    def period(self) -> int:
        return len(self.periodic)

    def partial_quotient(self, i: int) -> int:
        if i == 0:
            return self.a0
        return self.periodic[(i - 1) % self.period]

    def convergents(self) -> Iterator[tuple[int, int]]:
        """Yield (p_i, q_i) for i = 0, 1, 2, ..."""
        p_prev, q_prev = 1, 0
        p, q = self.a0, 1
        for i in itertools.count(1):
            yield p, q
            a = self.partial_quotient(i)
            p, p_prev = a * p + p_prev, p
            q, q_prev = a * q + q_prev, q


@lru_cache(maxsize=16)
def continued_fraction_sqrt(dprime: int, max_period: int = DEFAULT_MAX_PERIOD) -> CFExpansion:
    """Expand sqrt(dprime) with period detection.

    Raises CapacityError when the period exceeds max_period.
    """
    _require_nonsquare(dprime)
    a0 = math.isqrt(dprime)
    quotients = []
    m, d, a = 0, 1, a0
    while True:
        m = d * a - m
        d = (dprime - m * m) // d
        a = (a0 + m) // d
        quotients.append(a)
        if d == 1:
            return CFExpansion(dprime, a0, tuple(quotients))
        if len(quotients) >= max_period:
            raise CapacityError(
                f"continued fraction of sqrt({dprime}) has period > {max_period}"
            )


def _convergent_values(cf: CFExpansion) -> Iterator[tuple[int, int, int]]:
    """Yield (p_i, q_i, p_i**2 - dprime * q_i**2) using the classical
    identity with the expansion's d-sequence, avoiding big squarings."""
    dprime, a0 = cf.dprime, cf.a0
    m, d = 0, 1
    a = a0
    p_prev, q_prev = 1, 0
    p, q = a0, 1
    for i in itertools.count(0):
        m = d * a - m
        d = (dprime - m * m) // d
        yield p, q, (d if i % 2 else -d)
        a = (a0 + m) // d
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q


class FundamentalUnit(NamedTuple):
    """cf_unit: the continued-fraction fundamental solution (norm +-1);
    norm_one: the least norm-one unit > 1 (cf_unit or its square)."""

    cf_unit: QuadraticInteger
    norm_one: QuadraticInteger


@lru_cache(maxsize=16)
def fundamental_unit(dprime: int, max_period: int = DEFAULT_MAX_PERIOD) -> FundamentalUnit:
    """Fundamental unit of Z[sqrt(dprime)] from the continued fraction."""
    cf = continued_fraction_sqrt(dprime, max_period)
    p, q = 1, 0
    for i, (pc, qc) in zip(range(cf.period), cf.convergents()):
        p, q = pc, qc
    unit = QuadraticInteger(p, q, dprime)
    nrm = unit.norm()
    if nrm == 1:
        return FundamentalUnit(unit, unit)
    assert nrm == -1
    return FundamentalUnit(unit, unit * unit)


def same_class(z1: QuadraticInteger, z2: QuadraticInteger, t_value: int) -> bool:
    """Whether two norm-T solutions differ by a norm-one unit (sign folded):
    z2 * conj(z1) must be divisible by T componentwise."""
    if z1.dprime != z2.dprime:
        raise ValueError("mixed radicands")
    t = abs(t_value)
    prod = z2 * z1.conjugate()
    return prod.a % t == 0 and prod.b % t == 0


def _class_key(z: QuadraticInteger) -> tuple[int, int]:
    return abs(z.b), abs(z.a)


def _normalize_sign(z: QuadraticInteger) -> QuadraticInteger:
    if z.b < 0 or (z.b == 0 and z.a < 0):
        return -z
    return z


def canonical_representative(z: QuadraticInteger, norm_one: QuadraticInteger) -> QuadraticInteger:
    """Walk z by unit multiples to the class element minimizing (|v|, |u|),
    sign-normalized to v >= 0 (u > 0 when v = 0)."""
    inv = norm_one.inverse_unit()
    best = z
    while True:
        for cand in (best * norm_one, best * inv):
            if _class_key(cand) < _class_key(best):
                best = cand
                break
        else:
            break
    return _normalize_sign(best)


def base_solutions(
    dprime: int,
    t_value: int,
    max_period: int = DEFAULT_MAX_PERIOD,
    max_brute_scan: int = DEFAULT_MAX_BRUTE_SCAN,
) -> list[QuadraticInteger]:
    """One canonical representative per class of u**2 - dprime*v**2 = t_value.

    |T| < sqrt(dprime): primitive solutions come from convergents of
    sqrt(dprime) scanned over two periods, plus the g-scaled sub-problems
    T/g**2 for every g with g**2 | T (imprimitive classes).  Otherwise a
    bounded scan up to the classical fundamental-solution bound
    |v| <= sqrt(|T| (alpha0 + 1) / (2 dprime)).  Empty list: no solution.
    """
    _require_nonsquare(dprime)
    if t_value == 0:
        raise ValueError("T must be nonzero")

    candidates: list[QuadraticInteger] = []
    if t_value > 0:
        root, exact = integer_sqrt(t_value)
        if exact:
            candidates.append(QuadraticInteger(root, 0, dprime))
    else:
        quot, rem = divmod(-t_value, dprime)
        if rem == 0:
            root, exact = integer_sqrt(quot)
            if exact:
                candidates.append(QuadraticInteger(0, root, dprime))

    unit = fundamental_unit(dprime, max_period).norm_one

    if t_value * t_value < dprime:
        cf = continued_fraction_sqrt(dprime, max_period)
        scan = 2 * cf.period
        divisors = [g for g in range(1, integer_sqrt(abs(t_value))[0] + 1) if t_value % (g * g) == 0]
        targets = {t_value // (g * g): g for g in divisors}
        for i, (p, q, value) in zip(range(scan), _convergent_values(cf)):
            if value in targets:
                g = targets[value]
                candidates.append(QuadraticInteger(g * p, g * q, dprime))
                candidates.append(QuadraticInteger(g * p, -g * q, dprime))
    else:
        alpha0 = unit.a
        bound = 1 + math.isqrt(abs(t_value) * (alpha0 + 1) // (2 * dprime)) + 1
        if bound > max_brute_scan:
            raise CapacityError(
                f"fundamental-solution scan bound {bound} exceeds cap {max_brute_scan} "
                f"(dprime={dprime}, T={t_value})"
            )
        for v in range(bound + 1):
            usq = t_value + dprime * v * v
            if usq < 0:
                continue
            u, exact = integer_sqrt(usq)
            if exact:
                candidates.append(QuadraticInteger(u, v, dprime))
                if u:
                    candidates.append(QuadraticInteger(-u, v, dprime))

    reps: list[QuadraticInteger] = []
    for cand in candidates:
        assert cand.norm() == t_value
        if not any(same_class(cand, r, t_value) for r in reps):
            reps.append(canonical_representative(cand, unit))
    reps.sort(key=lambda z: (_class_key(z), z.a))
    return reps


class CongruenceUnit(NamedTuple):
    unit: QuadraticInteger
    exponent: int


def congruence_unit(
    a: int, dprime: int, max_period: int = DEFAULT_MAX_PERIOD
) -> CongruenceUnit:
    """The least power (alpha1, beta1) of the fundamental norm-one unit with
    alpha1 = 1 and beta1 = 0 mod 2a; the exponent is the order of the unit's
    image in (Z/2aZ)[x]/(x**2 - dprime), which is below 4*a**2."""
    if a < 1:
        raise ValueError(f"a must be >= 1, got {a}")
    unit = fundamental_unit(dprime, max_period).norm_one
    modulus = 2 * a
    wa, wb = unit.a % modulus, unit.b % modulus
    m = 1
    while not (wa == 1 % modulus and wb == 0):
        wa, wb = (
            (wa * unit.a + dprime * wb * unit.b) % modulus,
            (wa * unit.b + wb * unit.a) % modulus,
        )
        m += 1
        if m > 4 * a * a:
            raise CapacityError(
                f"unit order in R* not found below 4a^2 = {4 * a * a}"
            )
    return CongruenceUnit(unit**m, m)


@dataclass(frozen=True)
class PellProblem:
    """The norm equation with its congruence constraints: solutions (u, v)
    with u**2 - dprime*v**2 = t_value, u = residue_u mod modulus_u and
    v = residue_v mod modulus_v."""

    dprime: int
    t_value: int
    modulus_u: int = 1
    residue_u: int = 0
    modulus_v: int = 1
    residue_v: int = 0

    def __post_init__(self):
        _require_nonsquare(self.dprime)
        if self.t_value == 0:
            raise ValueError("T must be nonzero")
        if self.modulus_u < 1 or self.modulus_v < 1:
            raise ValueError("moduli must be positive")
        object.__setattr__(self, "residue_u", self.residue_u % self.modulus_u)
        object.__setattr__(self, "residue_v", self.residue_v % self.modulus_v)

    def satisfied_by(self, u: int, v: int) -> bool:
        return (
            u * u - self.dprime * v * v == self.t_value
            and u % self.modulus_u == self.residue_u
            and v % self.modulus_v == self.residue_v
        )


class QuadraticReduction(NamedTuple):
    """D*y**2 = a*x**2 + b*x + c rewritten as a constrained norm equation
    via u = 2a*x + b, v = 2r*y, where a*D = dprime * r**2."""

    problem: PellProblem
    a: int
    b: int
    r: int

    def to_xy(self, u: int, v: int) -> tuple[int, int]:
        x, xr = divmod(u - self.b, 2 * self.a)
        y, yr = divmod(v, 2 * self.r)
        if xr or yr:
            raise ValueError(f"({u}, {v}) does not satisfy the congruences")
        return x, y


def reduce_quadratic(a: int, b: int, c: int, d_value: int) -> QuadraticReduction:
    """Set up the norm equation for D*y**2 = a*x**2 + b*x + c.

    Requires a > 0, b**2 - 4ac nonzero, and a*D not a perfect square.
    """
    if a <= 0:
        raise ValueError(f"leading coefficient must be positive, got {a}")
    if d_value <= 0:
        raise ValueError(f"D must be positive, got {d_value}")
    t_value = b * b - 4 * a * c
    if t_value == 0:
        raise ValueError("degenerate quadratic: b^2 - 4ac = 0")
    ad = a * d_value
    if is_perfect_square(ad):
        raise ValueError(f"a*D = {ad} is a perfect square; no real quadratic order")
    dprime, r, complete = squarefree_decompose(ad)
    if not complete:
        raise ValueError(f"could not verify the square-free part of a*D = {ad}")
    problem = PellProblem(
        dprime=dprime,
        t_value=t_value,
        modulus_u=2 * a,
        residue_u=b,
        modulus_v=2 * r,
        residue_v=0,
    )
    return QuadraticReduction(problem, a, b, r)


def _check_stream_contract(
    problem: PellProblem, base: QuadraticInteger, unit: QuadraticInteger
) -> None:
    if base.norm() != problem.t_value:
        raise ContractError(
            f"base {base.pair()} has norm {base.norm()}, problem wants {problem.t_value}"
        )
    if base.a % problem.modulus_u != problem.residue_u:
        raise ContractError(
            f"base u = {base.a} is not {problem.residue_u} mod {problem.modulus_u}"
        )
    if base.b % problem.modulus_v != problem.residue_v:
        raise ContractError(
            f"base v = {base.b} is not {problem.residue_v} mod {problem.modulus_v}"
        )
    if unit.norm() != 1:
        raise ContractError(f"step unit {unit.pair()} must have norm 1")
    if unit.a % problem.modulus_u != 1 % problem.modulus_u or unit.b % problem.modulus_u != 0:
        raise ContractError(
            f"step unit {unit.pair()} is not congruent to 1 mod {problem.modulus_u}"
        )


def solutions(
    problem: PellProblem,
    base: QuadraticInteger,
    unit: QuadraticInteger,
    count: int,
) -> list[tuple[int, int]]:
    """The first `count` constrained solutions base * unit**n, n >= 0.

    The congruences are preserved by construction; each output is checked
    anyway, and |u| must not decrease (pass a canonical base).
    """
    if count < 1:
        raise ValueError("count must be positive")
    _check_stream_contract(problem, base, unit)
    out: list[tuple[int, int]] = []
    z = base
    prev_abs_u = None
    for _ in range(count):
        u, v = z.pair()
        if not problem.satisfied_by(u, v):
            raise ContractError(f"stream element {(u, v)} violates the problem constraints")
        if prev_abs_u is not None and abs(u) < prev_abs_u:
            raise ContractError("stream |u| decreased; base is not canonical")
        prev_abs_u = abs(u)
        out.append((u, v))
        z = z * unit
    return out


def _class_walk(
    rep: QuadraticInteger,
    unit: QuadraticInteger,
    v_limit: int | None,
    u_bit_limit: int | None,
    max_steps: int,
) -> Iterator[QuadraticInteger]:
    """Elements of rep's class ordered by |u|, walking both unit directions
    from the canonical representative; stops at any configured limit."""
    inv = unit.inverse_unit()
    heads = [rep, rep * inv]
    steps = [unit, inv]
    emitted = 0

    def exhausted(z: QuadraticInteger) -> bool:
        if v_limit is not None and abs(z.b) > v_limit:
            return True
        if u_bit_limit is not None and abs(z.a).bit_length() > u_bit_limit:
            return True
        return False

    while emitted < max_steps:
        alive = [i for i in (0, 1) if not exhausted(heads[i])]
        if not alive:
            return
        i = min(alive, key=lambda j: abs(heads[j].a))
        yield heads[i]
        emitted += 1
        heads[i] = heads[i] * steps[i]


def enumerate_solutions(
    dprime: int,
    t_value: int,
    v_limit: int | None = None,
    u_bit_limit: int | None = None,
    max_steps_per_class: int = 64,
    max_period: int = DEFAULT_MAX_PERIOD,
    reps: list[QuadraticInteger] | None = None,
) -> list[QuadraticInteger]:
    """All solutions of u**2 - dprime*v**2 = t_value within the limits,
    one per (|u|, |v|) pair, merged across classes in |u| order.

    Sign variants (+-u, +-v) are folded; consumers re-expand as needed.
    Pass precomputed base-solution reps to skip the class search.
    """
    if reps is None:
        reps = base_solutions(dprime, t_value, max_period)
    if not reps:
        return []
    unit = fundamental_unit(dprime, max_period).norm_one
    walks = [
        _class_walk(rep, unit, v_limit, u_bit_limit, max_steps_per_class) for rep in reps
    ]
    merged = heapq.merge(*walks, key=lambda z: abs(z.a))
    out: list[QuadraticInteger] = []
    seen: set[tuple[int, int]] = set()
    for z in merged:
        key = (abs(z.a), abs(z.b))
        if key not in seen:
            seen.add(key)
            out.append(z)
    return out
