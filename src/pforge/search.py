"""Parameter discovery: one search pipeline over any catalog family, and
recovery of x0 from a published field size.

A family with a fixed D (f = 4q - t**2 a square times a linear factor) is
searched by scanning x, sieved by the primes below SIEVE_LIMIT; any other
family with quadratic f goes through the norm equation of D y**2 = f(x), for
every square-free D in its admissible residue classes that no sieve prime
rules out.  Those D come from the same sieve, which strikes the D outside
the classes, the multiples of p**2 for the primes p up to isqrt(d_max) (at
most DEFAULT_FACTOR_BOUND), so no D is factored below about 10**12, and
the multiples of each p at which the curve's T = b**2 - 4ac is a
non-residue, where D y**2 = f(x) has no point.  Both feed the same stage:
the q-bits range, instantiate, the record cap."""

from __future__ import annotations

import math
import os
import sys
from itertools import compress
from typing import Iterable, Iterator, NamedTuple

from .curve import CurveRecord, RecordStatus
from .errors import CapacityError
from .families import (
    SIEVE_LIMIT, FamilyDescriptor, d_classes, family_by_name, instantiate, sieve_table,
)
from .intpoly import IntPoly, integer_preimages
from .numtheory import DEFAULT_FACTOR_BOUND, _primes_below, squarefree_decompose
from .pell import enumerate_solutions, reduce_quadratic


class _SearchFields(NamedTuple):
    family: str
    d_min: int = 0
    d_max: int = -1
    x_min: int = 0
    x_max: int = -1
    q_bits_min: int = 1
    q_bits_max: int = 10**6
    max_u_bits: int = 128
    max_records: int = 10**6


class SearchConfig(_SearchFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.max_u_bits < 16:
            raise ValueError("max_u_bits must be at least 16")
        if self.q_bits_min > self.q_bits_max or self.q_bits_min < 1:
            raise ValueError("invalid q-bits range")
        if self.max_records < 1:
            raise ValueError("the record cap must be positive")
        return self

    def q_bits_ok(self, q: int) -> bool:
        return self.q_bits_min <= q.bit_length() <= self.q_bits_max


# D or x sieved at a time: a search over a huge range holds one block in memory
SIEVE_BLOCK = 1 << 16


def _progress(message: str) -> None:
    # one write per line: print makes two, and lines from parallel parts
    # would interleave between them
    sys.stderr.write(message + "\n")


def _abs_bounds(x_min: int, x_max: int) -> tuple[int, int]:
    """(lo, hi) with {x : lo <= |x| <= hi} the union of [x_min, x_max]
    and its mirror [-x_max, -x_min]; requires x_min <= x_max."""
    lo = 0 if x_min <= 0 <= x_max else min(abs(x_min), abs(x_max))
    return lo, max(abs(x_min), abs(x_max))


def _signed_range(x_min: int, x_max: int) -> list[range]:
    """Ascending union of [x_min, x_max] and its mirror [-x_max, -x_min], as
    at most two runs of consecutive x."""
    if x_max < x_min:
        return []
    lo, hi = _abs_bounds(x_min, x_max)
    return [range(-hi, -lo + 1), range(max(lo, 1), hi + 1)]


def _split_range(lo: int, hi: int, parts: int) -> list[tuple[int, int]]:
    total = hi - lo + 1
    if total <= 0 or parts <= 1:
        return [(lo, hi)]
    chunk = max(1, (total + parts - 1) // parts)
    return [(start, min(start + chunk - 1, hi)) for start in range(lo, hi + 1, chunk)]


def _split_search(config: SearchConfig, parts: int) -> list[SearchConfig]:
    """At most `parts` disjoint sub-searches whose records together are the
    config's: D chunks, or for a fixed-D family chunks of |x|."""
    if family_by_name(config.family).fixed_d is None:
        chunks = _split_range(config.d_min, config.d_max, parts)
        return [config._replace(d_min=lo, d_max=hi) for lo, hi in chunks]
    if config.x_max < config.x_min:
        return [config]
    chunks = _split_range(*_abs_bounds(config.x_min, config.x_max), parts)
    return [config._replace(x_min=lo, x_max=hi) for lo, hi in chunks]


def _sieve(lo: int, hi: int, strikes: list[tuple[int, int]]) -> Iterator[int]:
    """The n in [lo, hi), ascending, in none of the progressions
    n = residue (mod step) of `strikes`, sieved SIEVE_BLOCK n at a time."""
    for start in range(lo, hi, SIEVE_BLOCK):
        stop = min(start + SIEVE_BLOCK, hi)
        keep = bytearray(b"\x01") * (stop - start)
        for step, residue in strikes:
            first = (residue - start) % step
            keep[first::step] = bytes(len(range(first, stop - start, step)))
        yield from compress(range(start, stop), keep)


def _discriminants(family: FamilyDescriptor, d_min: int, d_max: int) -> Iterator[int]:
    """Ascending square-free D in [d_min, d_max] in the family's admissible
    residue classes (d_classes) that are not locally insoluble at a sieve
    prime, read off lazily through _sieve.  Square-free only so that each
    curve comes once: a point on D m**2 y**2 = f(x) is one on D y**2 = f(x)
    at the same x.

    The sieve strikes the residues mod the modulus outside the classes and,
    below (height + 1)**2 with height = min(isqrt(d_max),
    DEFAULT_FACTOR_BOUND), the multiples of p**2 for every prime p up to
    the height, which decides square-freeness exactly there.  A D from
    there up (only past about 10**12) is factored by squarefree_decompose
    instead, and skipped with a stderr line when that cannot settle it.

    With f = a x**2 + b x + c (quadratic in every family without a fixed
    D) and T = b**2 - 4ac, the sieve also strikes, wherever D lies, the
    multiples of every such p with p not dividing 2aT and T a non-residue
    mod p: 4aD y**2 = (2ax + b)**2 - T, so a point would make T a square
    mod p.  A D struck so is never factored
    and prints nothing.  For the catalog's families the classes make the
    Jacobi symbol of T over the primes of D not dividing 2aT +1, so while
    the height is isqrt(d_max), a D with one such prime past it has another
    below it; only above 10**12 can a D with two of them be walked."""
    modulus, residues = d_classes(family)
    height = min(math.isqrt(max(d_max, 0)), DEFAULT_FACTOR_BOUND)
    certified = (height + 1) ** 2
    # the size factorize rounds to, so the two share _primes_below's cache
    limit = min(1 << height.bit_length(), DEFAULT_FACTOR_BOUND + 1)
    primes = [p for p in _primes_below(limit) if p <= height]
    a, b, c = (family.f.coefficient(i) for i in (2, 1, 0))
    t_value = b * b - 4 * a * c
    strikes = [(modulus, r) for r in range(modulus) if r not in residues] + [
        # Euler's criterion: T is a non-residue mod p
        (p, 0) for p in primes
        if (2 * a * t_value) % p and pow(t_value, (p - 1) // 2, p) == p - 1
    ]
    lo = max(d_min, 1)
    yield from _sieve(lo, min(certified, d_max + 1), strikes + [(p * p, 0) for p in primes])
    for d_value in _sieve(max(lo, certified), d_max + 1, strikes):
        _, square, complete = squarefree_decompose(d_value)
        if not complete:
            _progress(f"D={d_value}, skipped: square-freeness could not be verified")
        elif square == 1:
            yield d_value


def quadratic_points(f: IntPoly, d_value: int, u_bits: int) -> list[tuple[int, int]]:
    """Integer points (x, y), y >= 0, on D y**2 = f(x) for quadratic f.

    reduce_quadratic gives u**2 - D' v**2 = T with u = 2ax + b, v = 2ry,
    for any D > 0 once a factors.  The middle coefficient b of f = 4q - t**2 is even, so
    every admissible (u, v) is even: the points come from
    (u/2)**2 - D' (v/2)**2 = T/4, in order of |u/2| < 2**u_bits, the only
    bound.  Raises ValueError when D gives no real quadratic order or a
    does not factor.
    CapacityError can come only from the class walk (T**2/16 >= D'),
    through fundamental_unit, when the continued fraction of sqrt(D')
    passes its period cap; the convergent walk has no cap."""
    if f.degree != 2 or f.coefficient(1) % 2:
        raise ValueError(f"f = {f} is not quadratic with an even middle coefficient")
    reduction = reduce_quadratic(f.coefficient(2), f.coefficient(1), f.coefficient(0), d_value)
    problem = reduction.problem
    halves = enumerate_solutions(problem.dprime, problem.t_value // 4, u_bit_limit=u_bits)
    points = []
    for z in halves:
        v = 2 * abs(z.b)
        for u in dict.fromkeys((2 * z.a, -2 * z.a)):
            if problem.satisfied_by(u, v):
                points.append(reduction.to_xy(u, v))
    return points


def _sieved(family: FamilyDescriptor, runs: list[range]) -> Iterator[int]:
    """The x of the runs, ascending, through _sieve: each run is cut at
    +-bound of sieve_table, and the x past the bound lose the residues mod
    each prime below SIEVE_LIMIT at which it divides q(x) n(x); the x within
    it are all kept.  When the walk ends, at its end or at the record cap,
    stderr gets the number of x walked and of those the sieve dropped."""
    bound, table = sieve_table(family)
    strikes = [(p, r) for p, residues in table for r in residues]
    walked = reached = kept = 0
    try:
        for run in runs:
            cuts = [min(max(cut, run.start), run.stop) for cut in (-bound, bound + 1)]
            pieces = zip([run.start, *cuts], [*cuts, run.stop], (strikes, [], strikes))
            for lo, hi, piece_strikes in pieces:
                for x in _sieve(lo, hi, piece_strikes):
                    kept, reached = kept + 1, walked + x + 1 - lo
                    yield x
                walked = reached = walked + hi - lo
    finally:
        _progress(
            f"D={family.fixed_d}, x values={reached}, sieved={reached - kept} "
            f"(q(x) or n(x) has a prime factor below {SIEVE_LIMIT})"
        )


def _candidates(
    family: FamilyDescriptor, config: SearchConfig
) -> Iterator[tuple[int, Iterable[int]]]:
    """(D, candidate x values ascending), D ascending: one pair for a
    fixed-D family, its x range sieved, else one per D, each D reported on
    stderr."""
    if family.fixed_d is not None:
        yield family.fixed_d, _sieved(family, _signed_range(config.x_min, config.x_max))
        return
    for d_value in _discriminants(family, config.d_min, config.d_max):
        try:
            points = quadratic_points(family.f, d_value, config.max_u_bits)
        except (ValueError, CapacityError) as exc:
            _progress(f"D={d_value}, skipped: {exc}")
            continue
        _progress(f"D={d_value}, candidates={len(points)}")
        yield d_value, sorted(x for x, _ in points)


def recover_x_from_q(family: FamilyDescriptor, q_value: int) -> int | None:
    """The least integer x0 with q(x0) = q_value, if any."""
    qp = family.q
    if qp.leading_coefficient <= 0:
        raise ValueError("q polynomial must have positive leading coefficient")
    return min(integer_preimages(qp, q_value), default=None) if qp.degree > 0 else None


def run_search(config: SearchConfig, workers: int = 1) -> list[CurveRecord]:
    """The first max_records PRIME_OK records of the family within the
    config's ranges in (D, x0) order, for any `workers`: what `pforge search`
    prints.  workers > 1 splits the ranges into at most that many parts, on
    at most one process per CPU; each part stops at the cap, keeping a prefix."""
    parts = _split_search(config, workers)
    if len(parts) > 1:
        import concurrent.futures  # here: loading it is a sizeable share of start-up
        # a pool that forks starts all of its processes at the first submit
        pool_size = min(len(parts), os.cpu_count() or 1)
        with concurrent.futures.ProcessPoolExecutor(max_workers=pool_size) as pool:
            records = [record for batch in pool.map(run_search, parts) for record in batch]
        return sorted(records, key=lambda r: (r.d, r.x0))[: config.max_records]
    family = family_by_name(config.family)
    records = []
    for d_value, xs in _candidates(family, config):
        for x in xs:
            if not config.q_bits_ok(family.q.evaluate(x)):
                continue
            record = instantiate(family, x, d_value)
            if record.status is RecordStatus.PRIME_OK:
                records.append(record)
                if len(records) >= config.max_records:
                    return records
    return records
