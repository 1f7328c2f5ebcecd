"""Norm equations u**2 - D'*v**2 = T in real quadratic orders.

One continued-fraction walk, `_pqa`, gives the period and fundamental unit
of sqrt(D'), the Lagrange-Matthews-Mollin base-solution classes of any T,
and, for T**2 < D', every solution directly (Lagrange); both solution walks
run on plain ints and build a `QuadraticInteger` only for each solution
returned.  On top sit the unit congruent to 1 modulo 2a that preserves
solution congruences and the reduction of D*y**2 = f(x) (f quadratic) to
a constrained norm equation, for any D > 0 once the leading coefficient a
factors: it factors only a, and its radicand D' need not be square-free.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterator, NamedTuple

from .errors import CapacityError, ContractError
from .numtheory import divisors, is_perfect_square, sqrt_mod, squarefree_decompose

DEFAULT_MAX_PERIOD = 10**7


class QuadraticInteger:
    """a + b*sqrt(dprime) with integer a, b and dprime a positive non-square.
    Immutable and hashable; not a tuple, so * and ** stay arithmetic."""

    __slots__ = ("a", "b", "dprime")

    def __init__(self, a: int, b: int, dprime: int):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "dprime", dprime)

    def __setattr__(self, name: str, value=None):
        raise AttributeError(f"QuadraticInteger is immutable: cannot set or delete {name!r}")
    __delattr__ = __setattr__

    def __eq__(self, other):
        return isinstance(other, QuadraticInteger) and self.__reduce__() == other.__reduce__()

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.dprime))

    def __repr__(self) -> str:
        return f"QuadraticInteger(a={self.a!r}, b={self.b!r}, dprime={self.dprime!r})"

    def __reduce__(self):
        return QuadraticInteger, (self.a, self.b, self.dprime)

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


class CFExpansion(NamedTuple):
    """Periodic continued fraction of sqrt(dprime): [a0; overline(a1..aL)],
    and unit = (G_{L-1}, B_{L-1}), the convergent that ends the period."""

    dprime: int
    a0: int
    periodic: tuple[int, ...]
    unit: tuple[int, int]

    @property
    def period(self) -> int:
        return len(self.periodic)


def _pqa(p0: int, q0: int, dprime: int) -> Iterator[tuple[int, int, int, int, int]]:
    """The continued fraction of (p0 + sqrt(dprime)) / q0 (PQa), for q0 != 0
    dividing dprime - p0**2: yields (a_i, P_i, Q_i, G_{i-1}, B_{i-1}) for
    i = 0, 1, 2, ... with G_{i-1}**2 - dprime * B_{i-1}**2 = (-1)**i * Q_i * q0.
    From (0, 1), G/B are the convergents of sqrt(dprime)."""
    root = math.isqrt(dprime)
    p, q = p0, q0
    g_prev, g = -p0, q0
    b_prev, b = 1, 0
    while True:
        # floor((p + sqrt(dprime)) / q), exact because sqrt(dprime) is irrational
        a = (p + root) // q if q > 0 else (p + root + 1) // q
        yield a, p, q, g, b
        g_prev, g = g, a * g + g_prev
        b_prev, b = b, a * b + b_prev
        p = a * q - p
        q = (dprime - p * p) // q


@lru_cache(maxsize=16)
def continued_fraction_sqrt(dprime: int, max_period: int = DEFAULT_MAX_PERIOD) -> CFExpansion:
    """Expand sqrt(dprime); the period ends at the first Q_i = 1, i >= 1.

    Raises CapacityError when the period exceeds max_period.
    """
    _require_nonsquare(dprime)
    walk = _pqa(0, 1, dprime)
    a0 = next(walk)[0]
    quotients = []
    for a, _, q, g, b in walk:
        quotients.append(a)
        if q == 1:
            return CFExpansion(dprime, a0, tuple(quotients), (g, b))
        if len(quotients) >= max_period:
            raise CapacityError(
                f"continued fraction of sqrt({dprime}) has period > {max_period}"
            )


class FundamentalUnit(NamedTuple):
    """cf_unit: the continued-fraction fundamental solution (norm +-1);
    norm_one: the least norm-one unit > 1 (cf_unit or its square)."""

    cf_unit: QuadraticInteger
    norm_one: QuadraticInteger


@lru_cache(maxsize=16)
def fundamental_unit(dprime: int) -> FundamentalUnit:
    """Fundamental unit of Z[sqrt(dprime)]: the convergent that ends the
    first period of the continued fraction."""
    unit = QuadraticInteger(*continued_fraction_sqrt(dprime).unit, dprime)
    if unit.norm() == 1:
        return FundamentalUnit(unit, unit)
    return FundamentalUnit(unit, unit * unit)


def _class_key(z: QuadraticInteger) -> tuple[int, int]:
    return abs(z.b), abs(z.a)


def _normalize_sign(z: QuadraticInteger) -> QuadraticInteger:
    if z.b < 0 or (z.b == 0 and z.a < 0):
        return -z
    return z


def canonical_representative(z: QuadraticInteger, norm_one: QuadraticInteger) -> QuadraticInteger:
    """Walk z by unit multiples to the class element minimizing (|v|, |u|),
    sign-normalized to v >= 0 (u > 0 when v = 0); when (u, v) and (-u, v)
    both lie in the class, the one with u > 0."""
    inv = norm_one.inverse_unit()

    def key(w: QuadraticInteger) -> tuple[int, int, bool]:
        return (*_class_key(w), w.a < 0)

    best = _normalize_sign(z)
    while True:
        for cand in (best * norm_one, best * inv):
            cand = _normalize_sign(cand)
            if key(cand) < key(best):
                best = cand
                break
        else:
            return best


@lru_cache(maxsize=16)
def _square_divisors(t_value: int) -> tuple[int, ...]:
    """Every f >= 1 with f**2 | t_value; a search factors its T once."""
    return tuple(f for f in divisors(abs(t_value)) if t_value % (f * f) == 0)


def _lmm_solution(
    dprime: int, z: int, m: int, cf_unit: QuadraticInteger
) -> QuadraticInteger | None:
    """The solution class of u**2 - dprime*v**2 = m that belongs to the root
    z of dprime mod |m| (Lagrange-Matthews-Mollin), or None: walk
    (z + sqrt(dprime)) / |m| to its first Q_i = +-1, i >= 1; a repeated
    (P, Q) closes the period without one."""
    seen = set()
    for i, (_, p, q, g, b) in enumerate(_pqa(z, abs(m), dprime)):
        if i and abs(q) == 1:
            solution = QuadraticInteger(g, b, dprime)
            if (-1) ** i * q * abs(m) == m:
                return solution
            # norm -m: a norm -1 unit carries it to norm m, else no solution
            return solution * cf_unit if cf_unit.norm() == -1 else None
        if (p, q) in seen:
            return None
        seen.add((p, q))


def base_solutions(dprime: int, t_value: int) -> list[QuadraticInteger]:
    """One canonical representative per class of u**2 - dprime*v**2 = t_value,
    by Lagrange-Matthews-Mollin: for each f with f**2 | T and each root z of
    dprime mod |m|, m = T / f**2, one PQa walk (_lmm_solution) decides
    whether z carries a class of primitive solutions of norm m; f times it
    is a class of T, and distinct (f, z) give distinct classes.  Empty
    list: no solution.  Raises ValueError when T does not factor completely.
    """
    _require_nonsquare(dprime)
    if t_value == 0:
        raise ValueError("T must be nonzero")
    unit = fundamental_unit(dprime)
    reps: list[QuadraticInteger] = []
    for f in _square_divisors(t_value):
        m = t_value // (f * f)
        for z in sqrt_mod(dprime, abs(m)):
            solution = _lmm_solution(dprime, z, m, unit.cf_unit)
            if solution is None:
                continue
            cand = QuadraticInteger(f * solution.a, f * solution.b, dprime)
            reps.append(canonical_representative(cand, unit.norm_one))
    reps.sort(key=lambda z: (_class_key(z), z.a))
    return reps


class CongruenceUnit(NamedTuple):
    unit: QuadraticInteger
    exponent: int


def congruence_unit(a: int, dprime: int) -> CongruenceUnit:
    """The least power (alpha1, beta1) of the fundamental norm-one unit with
    alpha1 = 1 and beta1 = 0 mod 2a; the exponent is the order of the unit's
    image in (Z/2aZ)[x]/(x**2 - dprime), which is below 4*a**2."""
    if a < 1:
        raise ValueError(f"a must be >= 1, got {a}")
    unit = fundamental_unit(dprime).norm_one
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


class _PellFields(NamedTuple):
    dprime: int
    t_value: int
    modulus_u: int = 1
    residue_u: int = 0
    modulus_v: int = 1
    residue_v: int = 0


class PellProblem(_PellFields):
    """The norm equation with its congruence constraints: solutions (u, v)
    with u**2 - dprime*v**2 = t_value, u = residue_u mod modulus_u and
    v = residue_v mod modulus_v.  The residues are stored reduced."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        _require_nonsquare(self.dprime)
        if self.t_value == 0:
            raise ValueError("T must be nonzero")
        if self.modulus_u < 1 or self.modulus_v < 1:
            raise ValueError("moduli must be positive")
        mu, mv = self.modulus_u, self.modulus_v
        return self._replace(residue_u=self.residue_u % mu, residue_v=self.residue_v % mv)

    def satisfied_by(self, u: int, v: int) -> bool:
        # the congruences first: a rejected pair skips the two big products
        return (
            u % self.modulus_u == self.residue_u
            and v % self.modulus_v == self.residue_v
            and u * u - self.dprime * v * v == self.t_value
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
    Only a is factored, a = s * r**2: with g = gcd(s, D) the radicand is
    (s/g)(D/g) and the square root r*g, so once a factors, a*D = dprime *
    r**2 for any D.  The norm-equation layer needs dprime only to be a
    non-square, which a*D not a square makes it; it is square-free when D
    is.  Raises ValueError when a does not factor.
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
    s, r, complete = squarefree_decompose(a)
    if not complete:
        raise ValueError(f"could not factor the leading coefficient a = {a}")
    g = math.gcd(s, d_value)
    dprime, r = (s // g) * (d_value // g), r * g
    problem = PellProblem(
        dprime=dprime,
        t_value=t_value,
        modulus_u=2 * a,
        residue_u=b,
        modulus_v=2 * r,
        residue_v=0,
    )
    return QuadraticReduction(problem, a, b, r)


def solutions(
    problem: PellProblem,
    base: QuadraticInteger,
    unit: QuadraticInteger,
    count: int,
) -> list[tuple[int, int]]:
    """The first `count` constrained solutions base * unit**n, n >= 0.

    The unit must have norm 1 and be congruent to 1 mod modulus_u; each
    element, the base first, must satisfy the problem, and |u| must not
    decrease (pass a canonical base).
    """
    if count < 1:
        raise ValueError("count must be positive")
    if unit.norm() != 1:
        raise ContractError(f"step unit {unit.pair()} must have norm 1")
    if unit.a % problem.modulus_u != 1 % problem.modulus_u or unit.b % problem.modulus_u != 0:
        raise ContractError(
            f"step unit {unit.pair()} is not congruent to 1 mod {problem.modulus_u}"
        )
    out: list[tuple[int, int]] = []
    z = base
    for _ in range(count):
        u, v = z.pair()
        if not problem.satisfied_by(u, v):
            raise ContractError(f"stream element {(u, v)} violates the problem constraints")
        if out and abs(u) < abs(out[-1][0]):
            raise ContractError(f"stream |u| decreased at {(u, v)}; base is not canonical")
        out.append((u, v))
        z = z * unit
    return out


def enumerate_solutions(
    dprime: int,
    t_value: int,
    v_limit: int | None = None,
    u_bit_limit: int | None = None,
    max_steps_per_class: int | None = None,
) -> list[QuadraticInteger]:
    """All solutions of u**2 - dprime*v**2 = t_value with |v| <= v_limit
    and |u| < 2**u_bit_limit, one per (|u|, |v|) pair, in |u| order; at
    least one of the two limits is required.

    When t_value**2 < dprime, every solution with gcd(u, v) = g is g times
    a convergent of sqrt(dprime) of norm t_value / g**2 (Lagrange), so one
    walk of the convergents, up to the first outside the limits, finds them
    all; the walk is one loop on ints (the PQa recurrence of _pqa, inlined),
    and only a convergent whose Q is some |T / g**2| is looked at further.
    Otherwise each base-solution class is walked up from its canonical
    rep by the norm-one unit, at most max_steps_per_class elements per class
    when given; |u| grows along the walk, and the elements below the rep
    are, up to sign, the conjugates of those above the rep of the conjugate
    class, which base_solutions also returns.  Sign variants (+-u, +-v) are
    folded; consumers re-expand as needed.
    """
    _require_nonsquare(dprime)
    if t_value == 0:
        raise ValueError("T must be nonzero")
    if v_limit is None and u_bit_limit is None:
        raise ValueError("enumerate_solutions needs v_limit or u_bit_limit")

    # |u| < u_cap and |v| <= v_cap, math.inf standing for a missing limit; a
    # negative u_bit_limit admits no u (|u|.bit_length() <= it never holds)
    if u_bit_limit is None:
        u_cap = math.inf
    else:
        u_cap = 1 << u_bit_limit if u_bit_limit >= 0 else 0
    v_cap = math.inf if v_limit is None else v_limit

    def within(u: int, v: int) -> bool:
        return abs(u) < u_cap and abs(v) <= v_cap

    found: dict[tuple[int, int], tuple[int, int]] = {}
    if t_value * t_value < dprime:
        scales = {t_value // (g * g): g for g in _square_divisors(t_value)}
        norms = set(map(abs, scales))
        root = math.isqrt(dprime)
        # _pqa(0, 1, dprime) on locals: the convergent (cu, cv) = (G_{i-1},
        # B_{i-1}) has norm sign * q, sign = (-1)**i, and q = Q_i > 0
        p, q, sign = 0, 1, 1
        cu_prev, cu, cv_prev, cv = 0, 1, 1, 0
        while cu < u_cap and cv <= v_cap:
            if q in norms and (g := scales.get(sign * q)) is not None:
                u, v = g * cu, g * cv
                if u < u_cap and v <= v_cap:
                    found[u, v] = (u, v)
            a = (p + root) // q
            cu_prev, cu = cu, a * cu + cu_prev
            cv_prev, cv = cv, a * cv + cv_prev
            p = a * q - p
            q = (dprime - p * p) // q
            sign = -sign
    else:
        ua, ub = fundamental_unit(dprime).norm_one.pair()
        for rep in base_solutions(dprime, t_value):
            u, v = rep.pair()
            steps = itertools.count() if max_steps_per_class is None else range(max_steps_per_class)
            for _ in steps:
                if not within(u, v):
                    break
                found.setdefault((abs(u), abs(v)), (u, v))
                u, v = u * ua + dprime * v * ub, u * ub + v * ua
    # |u| and the norm fix |v|, so the keys sort in |u| order with no ties
    return [QuadraticInteger(u, v, dprime) for _, (u, v) in sorted(found.items())]
