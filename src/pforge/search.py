"""Parameter discovery: the k=10 discriminant-driven search, the BN direct
scan, MNT searches through the norm-equation solver, and recovery of x0
from a published field size."""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterator

from .curve import CurveRecord, RecordStatus
from .errors import CapacityError
from .families import (
    FamilyDescriptor,
    family_by_name,
    filter_discriminant_k10,
    instantiate,
)
from .intpoly import IntPoly
from .numtheory import squarefree_decompose
from .pell import base_solutions, enumerate_solutions, reduce_quadratic

K10_RESIDUES = (43, 67)  # admissible D mod 120


@dataclass(frozen=True)
class SearchConfig:
    family: str
    d_min: int = 0
    d_max: int = -1
    x_min: int = 0
    x_max: int = -1
    q_bits_min: int = 1
    q_bits_max: int = 10**6
    max_u_bits: int = 128
    max_solutions_per_d: int = 64
    max_records: int = 10**6
    seed: int = 0

    def __post_init__(self):
        if self.max_u_bits < 16:
            raise ValueError("max_u_bits must be at least 16")
        if self.q_bits_min > self.q_bits_max or self.q_bits_min < 1:
            raise ValueError("invalid q-bits range")
        if self.max_records < 1 or self.max_solutions_per_d < 1:
            raise ValueError("record and solution caps must be positive")

    def q_bits_ok(self, q: int) -> bool:
        return self.q_bits_min <= q.bit_length() <= self.q_bits_max


def _progress(message: str) -> None:
    print(message, file=sys.stderr)


def _k10_x_from_u(u: int) -> int | None:
    """Invert u = +-(15x + 5): u = 5 mod 15 gives x = (u-5)/15, and
    u = -5 = 10 mod 15 gives x = (-u-5)/15."""
    r = u % 15
    if r == 5:
        return (u - 5) // 15
    if r == 10:
        return (-u - 5) // 15
    return None


def search_k10(config: SearchConfig) -> Iterator[CurveRecord]:
    """The k=10 algorithm: for each admissible D, solve
    u**2 - 15D v**2 = -20 and harvest x from u = +-5 mod 15.

    Emission is deterministic: D ascending, then |u| ascending; norm
    equation capacity problems skip the offending D."""
    family = family_by_name(config.family)
    if family.name != "freeman10":
        raise ValueError("search_k10 requires the freeman10 family")
    emitted = 0
    for d_value in _k10_discriminants(config.d_min, config.d_max):
        decision = filter_discriminant_k10(d_value)
        if not decision.accepted:
            continue
        dprime = 15 * d_value
        try:
            reps = base_solutions(dprime, -20)
            elements = enumerate_solutions(
                dprime,
                -20,
                u_bit_limit=config.max_u_bits,
                max_steps_per_class=config.max_solutions_per_d,
                reps=reps,
            )
        except CapacityError as exc:
            _progress(f"D={d_value}, skipped: {exc}")
            continue
        seen_x: set[int] = set()
        candidates = 0
        classes = len(reps)
        for z in elements:
            x = _k10_x_from_u(z.a)
            if x is None or x in seen_x:
                continue
            seen_x.add(x)
            record = instantiate(family, x, d_value)
            if record.status is not RecordStatus.PRIME_OK:
                continue
            if not config.q_bits_ok(record.q):
                continue
            candidates += 1
            yield record
            emitted += 1
            if emitted >= config.max_records:
                _progress(f"D={d_value}, classes={classes}, candidates={candidates}")
                return
        _progress(f"D={d_value}, classes={classes}, candidates={candidates}")


def _k10_discriminants(d_min: int, d_max: int) -> Iterator[int]:
    """Ascending D in [d_min, d_max] with D mod 120 in the two admissible
    residue classes; strides by 120 instead of testing every integer."""
    if d_max < d_min:
        return
    base = d_min - d_min % 120
    for block in range(base, d_max + 1, 120):
        for residue in sorted(K10_RESIDUES):
            d_value = block + residue
            if d_min <= d_value <= d_max:
                yield d_value


def _signed_range(x_min: int, x_max: int) -> Iterator[int]:
    """Ascending union of [x_min, x_max] and its mirror [-x_max, -x_min]."""
    if x_max < x_min:
        return
    lo_a, hi_a = -x_max, -x_min
    lo_b, hi_b = x_min, x_max
    if hi_a >= lo_b - 1:  # overlapping or adjacent intervals
        yield from range(min(lo_a, lo_b), max(hi_a, hi_b) + 1)
    else:
        yield from range(lo_a, hi_a + 1)
        yield from range(lo_b, hi_b + 1)


def search_bn12(config: SearchConfig) -> Iterator[CurveRecord]:
    """Direct scan over x (both signs) for the k=12 family; the CM equation
    3y**2 = f(x) holds identically with y = 6x**2 + 4x + 1."""
    family = family_by_name(config.family)
    if family.name != "bn12":
        raise ValueError("search_bn12 requires the bn12 family")
    emitted = 0
    for x in _signed_range(config.x_min, config.x_max):
        record = instantiate(family, x, 3)
        if record.status is not RecordStatus.PRIME_OK:
            continue
        if not config.q_bits_ok(record.q):
            continue
        yield record
        emitted += 1
        if emitted >= config.max_records:
            return


def search_mnt(
    config: SearchConfig, family: FamilyDescriptor, d_value: int
) -> Iterator[CurveRecord]:
    """Solve D y**2 = f(x) for a quadratic-f family branch through the
    norm-equation reduction, and instantiate every admissible x."""
    if family.f.degree != 2:
        raise ValueError(f"family {family.name} does not have quadratic f")
    squarefree, square, complete = squarefree_decompose(d_value)
    if not complete or square != 1:
        raise ValueError(f"D = {d_value} is not verifiably square-free")
    a = family.f.coefficient(2)
    b = family.f.coefficient(1)
    c = family.f.coefficient(0)
    reduction = reduce_quadratic(a, b, c, d_value)
    problem = reduction.problem
    try:
        reps = base_solutions(problem.dprime, problem.t_value)
        elements = enumerate_solutions(
            problem.dprime,
            problem.t_value,
            u_bit_limit=config.max_u_bits,
            max_steps_per_class=config.max_solutions_per_d,
            reps=reps,
        )
    except CapacityError as exc:
        _progress(f"D={d_value}, skipped: {exc}")
        return
    classes = len(reps)
    emitted = 0
    seen_x: set[int] = set()
    candidates = 0
    for z in elements:
        if abs(z.b) % problem.modulus_v != problem.residue_v:
            continue
        for u in (z.a, -z.a):
            if u % problem.modulus_u != problem.residue_u:
                continue
            x, _ = reduction.to_xy(u, abs(z.b))
            if x in seen_x:
                continue
            seen_x.add(x)
            record = instantiate(family, x, d_value)
            if record.status is not RecordStatus.PRIME_OK:
                continue
            if not config.q_bits_ok(record.q):
                continue
            candidates += 1
            yield record
            emitted += 1
            if emitted >= config.max_records:
                _progress(f"D={d_value}, classes={classes}, candidates={candidates}")
                return
    _progress(f"D={d_value}, classes={classes}, candidates={candidates}")


def _search_monotone_tail(eval_at, lo: int, target: int) -> int | None:
    """Integer m >= lo with eval_at(m) = target, where eval_at is strictly
    monotone on [lo, infinity); doubling bracket plus bisection."""
    v0, v1 = eval_at(lo), eval_at(lo + 1)
    if v0 == target:
        return lo
    increasing = v1 > v0
    if (v0 > target) if increasing else (v0 < target):
        return None
    span = 1
    prev = lo
    while True:
        hi = lo + span
        vh = eval_at(hi)
        if (vh >= target) if increasing else (vh <= target):
            break
        prev = hi
        span *= 2
    a, b = prev, hi
    while a <= b:
        mid = (a + b) // 2
        val = eval_at(mid)
        if val == target:
            return mid
        if (val < target) == increasing:
            a = mid + 1
        else:
            b = mid - 1
    return None


def recover_x_from_q(family: FamilyDescriptor, q_value: int) -> int | None:
    """The integer x0 with q(x0) = q_value, if any: scan the turning-point
    region, then bisect the two monotone tails."""
    qp = family.q
    if qp.leading_coefficient <= 0:
        raise ValueError("q polynomial must have positive leading coefficient")
    dq = qp.derivative()
    if dq.is_zero:
        return None
    # Cauchy bound: all real turning points lie within |x| <= turn
    turn = 1 + max(abs(c) for c in dq.coeffs) // abs(dq.leading_coefficient) + 1
    for x in range(-turn, turn + 1):
        if qp.evaluate(x) == q_value:
            return x
    hit = _search_monotone_tail(qp.evaluate, turn, q_value)
    if hit is not None:
        return hit
    hit = _search_monotone_tail(lambda s: qp.evaluate(-s), turn, q_value)
    return -hit if hit is not None else None


def run_search(config: SearchConfig, mnt_d: int | None = None) -> list[CurveRecord]:
    """Dispatch a search to its family driver and materialize the stream."""
    if config.family == "freeman10":
        return list(search_k10(config))
    if config.family == "bn12":
        return list(search_bn12(config))
    family = family_by_name(config.family)
    if mnt_d is None:
        out: list[CurveRecord] = []
        for d_value in range(max(config.d_min, 1), config.d_max + 1):
            squarefree, square, complete = squarefree_decompose(d_value)
            if not complete or square != 1:
                continue
            try:
                out.extend(search_mnt(config, family, d_value))
            except ValueError:
                continue
            if len(out) >= config.max_records:
                return out[: config.max_records]
        return out
    return list(search_mnt(config, family, mnt_d))
