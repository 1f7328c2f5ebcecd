"""Arbitrary-precision integer utilities: modular arithmetic, primality,
quadratic residues, integer roots, bounded factorization and divisors.

Primality is probabilistic but conservative, and runs in three stages,
cheapest first (the Baillie-Wagstaff ordering; Crandall-Pomerance, Prime
Numbers, section 3):

1. trial division by every prime below 1000, done as one gcd with their
   product (a table lookup below 1000), then the perfect-square check;
2. the first Miller-Rabin round;
3. the other 39 rounds, then one strong Lucas test.

The 40 Miller-Rabin bases are drawn in a fixed order from a generator
seeded with the input.  `first_composite` runs several values through the
stages in lockstep, so a value that fails a cheap stage spares the full
test of the others.  A process proves each prime once: a value that has
passed every stage is remembered (the last PROVEN_PRIMES_MAXSIZE of them)
and not tested again.  Composites are never remembered.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterator
from functools import lru_cache
from typing import NamedTuple

MILLER_RABIN_ROUNDS = 40
TRIAL_DIVISION_LIMIT = 1000
DEFAULT_FACTOR_BOUND = 10**6
PROVEN_PRIMES_MAXSIZE = 512

# Mixed into the per-input witness seed so results are reproducible run to run.
_WITNESS_SEED = 0x5E3D_9A17

# Values from TRIAL_DIVISION_LIMIT up that passed every primality stage,
# oldest first (a dict keeps insertion order), at most PROVEN_PRIMES_MAXSIZE.
_proven_primes: dict[int, None] = {}


@lru_cache(maxsize=8)
def _primes_below(limit: int) -> tuple[int, ...]:
    if limit <= 2:
        return ()
    sieve = bytearray([1]) * limit
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return tuple(i for i in range(limit) if sieve[i])


def _miller_rabin_witness(m: int, base: int) -> bool:
    """True when `base` witnesses the compositeness of odd m > 2."""
    d = m - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(base, d, m)
    if x == 1 or x == m - 1:
        return False
    for _ in range(s - 1):
        x = x * x % m
        if x == m - 1:
            return False
    return True


def _lucas_uv(n: int, p_par: int, q_par: int, k: int) -> tuple[int, int, int]:
    """Lucas sequence values (U_k, V_k, Q^k) mod n via binary doubling."""
    u, v = 1, p_par
    qk = q_par % n
    d = p_par * p_par - 4 * q_par
    for bit in bin(k)[3:]:
        u, v = u * v % n, (v * v - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            u, v = u * p_par + v, v * p_par + u * d
            if u % 2:
                u += n
            if v % 2:
                v += n
            u = u // 2 % n
            v = v // 2 % n
            qk = qk * q_par % n
    return u, v, qk


def _strong_lucas_probable_prime(m: int) -> bool:
    """Strong Lucas test with Selfridge parameters; m odd, > 2, not a square."""
    d = 5
    while True:
        j = jacobi_symbol(d, m)
        if j == 0:
            return abs(d) == m
        if j == -1:
            break
        d = -(d + 2) if d > 0 else -(d - 2)
    p_par, q_par = 1, (1 - d) // 4

    k = m + 1
    s = 0
    while k % 2 == 0:
        k //= 2
        s += 1
    u, v, qk = _lucas_uv(m, p_par, q_par, k)
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        u, v = u * v % m, (v * v - 2 * qk) % m
        qk = qk * qk % m
        if v == 0:
            return True
    return False


@lru_cache(maxsize=1)
def _primorial() -> int:
    """The product of the primes below TRIAL_DIVISION_LIMIT."""
    return math.prod(_primes_below(TRIAL_DIVISION_LIMIT))


def _primality_stages(m: int) -> Iterator[bool]:
    """Yield, stage by stage, whether m passes; callers stop at the first
    False.  m is a probable prime when every value is True (a prime below
    TRIAL_DIVISION_LIMIT is decided by the first stage)."""
    if m < TRIAL_DIVISION_LIMIT:
        yield m in _primes_below(TRIAL_DIVISION_LIMIT)
        return
    yield math.gcd(m, _primorial()) == 1 and not integer_sqrt(m)[1]
    rng = random.Random(_WITNESS_SEED ^ (m % (1 << 64)))
    yield not _miller_rabin_witness(m, rng.randrange(2, m - 1))
    for _ in range(MILLER_RABIN_ROUNDS - 1):
        if _miller_rabin_witness(m, rng.randrange(2, m - 1)):
            yield False
            return
    if not _strong_lucas_probable_prime(m):
        yield False
        return
    # Every stage passed: remember m, dropping the oldest beyond the bound.
    _proven_primes[m] = None
    if len(_proven_primes) > PROVEN_PRIMES_MAXSIZE:
        del _proven_primes[next(iter(_proven_primes))]
    yield True


def is_probable_prime(m: int) -> bool:
    """Probabilistic primality: trial division, then 40 Miller-Rabin rounds,
    then a strong Lucas test, in the stages of the module docstring.

    The Miller-Rabin bases are drawn from a generator seeded with the
    input, so a verdict is the same on every run.
    """
    return first_composite(m) is None


def first_composite(*values: int) -> int | None:
    """Index of the first value shown composite, or None when every value
    is a probable prime.

    The values go through the primality stages in lockstep: stage s runs
    on each undecided value, in order, before stage s + 1 runs on any, and
    the first failure ends the test.  The index is that of the value that
    fails the earliest stage, the lowest index among those failing it.  A
    value proven prime before is left out: it fails no stage, so leaving
    it out cannot change the index.
    """
    pending = [
        (index, _primality_stages(m))
        for index, m in enumerate(values)
        if m not in _proven_primes
    ]
    while pending:
        undecided = []
        for index, stages in pending:
            passed = next(stages, None)
            if passed is False:
                return index
            if passed:
                undecided.append((index, stages))
        pending = undecided
    return None


def jacobi_symbol(a: int, m: int) -> int:
    """Jacobi symbol (a|m) for odd positive m."""
    if m <= 0 or m % 2 == 0:
        raise ValueError(f"Jacobi symbol needs odd positive modulus, got {m}")
    a %= m
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if m % 8 in (3, 5):
                result = -result
        a, m = m, a
        if a % 4 == 3 and m % 4 == 3:
            result = -result
        a %= m
    return result if m == 1 else 0


def integer_sqrt(m: int) -> tuple[int, bool]:
    """(floor(sqrt(m)), whether m is a perfect square)."""
    if m < 0:
        raise ValueError(f"integer_sqrt of negative value {m}")
    root = math.isqrt(m)
    return root, root * root == m


def is_perfect_square(m: int) -> bool:
    return m >= 0 and integer_sqrt(m)[1]


def integer_nth_root(m: int, e: int) -> tuple[int, bool]:
    """(floor(m ** (1/e)), exactness) for m >= 0, e >= 1."""
    if m < 0 or e < 1:
        raise ValueError("integer_nth_root needs m >= 0 and e >= 1")
    if m < 2 or e == 1:
        return m, True
    # Newton's method on integers from 2**ceil(bits / e) >= the root: the
    # iterates fall monotonically and stop at the floor.
    root = 1 << -(-m.bit_length() // e)
    while True:
        step = ((e - 1) * root + m // root ** (e - 1)) // e
        if step >= root:
            return root, root**e == m
        root = step


def sqrt_mod_prime(a: int, p: int) -> int | None:
    """A square root of a mod prime p (Tonelli-Shanks), or None for a
    non-residue.  Caller guarantees p prime; composite p is undefined."""
    a %= p
    if a == 0:
        return 0
    if p == 2:
        return a
    if jacobi_symbol(a, p) == -1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)

    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while jacobi_symbol(z, p) != -1:
        z += 1
    c = pow(z, q, p)
    x = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    m = s
    while t != 1:
        i, e = 0, t
        while e != 1:
            e = e * e % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        x = x * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return x


def sqrt_mod(a: int, m: int) -> list[int]:
    """Every z in [0, m) with z**2 = a mod m, ascending: the roots modulo
    each prime p | m from sqrt_mod_prime, lifted one power of p at a time,
    combined by CRT.  Raises ValueError when m does not factor completely."""
    fac = factorize(m)
    if not fac.complete:
        raise ValueError(f"could not factor the modulus {m}")
    roots, modulus = [0], 1
    for p, e in fac.factors:
        root = sqrt_mod_prime(a, p)
        local, pk = ([] if root is None else sorted({root, -root % p})), p
        for _ in range(e - 1):
            lifted = []
            for r in local:
                if p != 2 and r % p:
                    # Hensel: 2r is a unit mod p, so r lifts uniquely
                    lifted.append((r - (r * r - a) * pow(2 * r, -1, pk * p)) % (pk * p))
                elif (r * r - a) % (pk * p) == 0:
                    # p | 2r: (r + j p^k)^2 = r^2 mod p^(k+1) for every j
                    lifted.extend(r + j * pk for j in range(p))
            local, pk = lifted, pk * p
        inv = pow(modulus, -1, pk)
        roots = [r + modulus * ((s - r) * inv % pk) for r in roots for s in local]
        modulus *= pk
    return sorted(roots)


class NaturalFactorization(NamedTuple):
    """Partial factorization: product of prime**exp terms times an
    unfactored cofactor (1 when the factorization is complete)."""

    factors: list[tuple[int, int]] = []  # shared by default-built values: read only
    cofactor: int = 1

    @property
    def complete(self) -> bool:
        return self.cofactor == 1

    def value(self) -> int:
        out = self.cofactor
        for p, e in self.factors:
            out *= p**e
        return out


def factorize(m: int, bound: int = DEFAULT_FACTOR_BOUND) -> NaturalFactorization:
    """Trial division by primes up to `bound` (a bound below 2 acts as 2),
    then prime / perfect-power recognition on the remaining cofactor.  No
    general-purpose factoring."""
    if m < 1:
        raise ValueError(f"factorize needs m >= 1, got {m}")
    bound = max(bound, 2)
    factors: list[tuple[int, int]] = []
    rest = m
    # Trial division stops once p * p > rest, so primes above isqrt(m) are
    # never tried and the sieve need not reach them.  Rounding its size up
    # to a power of two keeps _primes_below's cache to a few sizes.
    size = min(bound, math.isqrt(m)) + 1
    for p in _primes_below(min(1 << (size - 1).bit_length(), bound + 1)):
        if p * p > rest:
            break
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            factors.append((p, e))
    if rest > 1:
        if rest < bound * bound or is_probable_prime(rest):
            # below bound^2 a cofactor surviving trial division is prime
            factors.append((rest, 1))
            rest = 1
        else:
            # Every prime up to bound is divided out, so a root r of rest
            # exceeds 2**low, and r**e = rest < 2**bits needs low * e < bits.
            low = bound.bit_length() - 1
            for e in range((rest.bit_length() - 1) // low, 1, -1):
                root, exact = integer_nth_root(rest, e)
                if exact and is_probable_prime(root):
                    factors.append((root, e))
                    rest = 1
                    break
    return NaturalFactorization(factors=factors, cofactor=rest)


def divisors(m: int) -> list[int]:
    """Every positive divisor of m >= 1, ascending.  Raises ValueError when
    m does not factor completely."""
    fac = factorize(m)
    if not fac.complete:
        raise ValueError(f"could not factor {m}")
    out = [1]
    for p, e in fac.factors:
        out = [d * p**i for d in out for i in range(e + 1)]
    return sorted(out)


def squarefree_decompose(m: int, bound: int = DEFAULT_FACTOR_BOUND) -> tuple[int, int, bool]:
    """Write m = squarefree_part * square_part**2 over the factored portion.

    Returns (squarefree_part, square_part, complete).  When complete is
    False an unfactored cofactor remains and square-freeness of m is
    unknown; callers must not assume it.
    """
    fac = factorize(m, bound)
    squarefree, square = 1, 1
    for p, e in fac.factors:
        square *= p ** (e // 2)
        if e % 2:
            squarefree *= p
    return squarefree, square, fac.complete


def euler_phi(k: int) -> int:
    if k < 1:
        raise ValueError(f"euler_phi needs k >= 1, got {k}")
    fac = factorize(k)
    if not fac.complete:
        raise ValueError(f"could not fully factor {k}")
    out = 1
    for p, e in fac.factors:
        out *= (p - 1) * p ** (e - 1)
    return out
