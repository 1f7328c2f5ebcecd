import functools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pforge.numtheory import (
    NaturalFactorization,
    euler_phi,
    factorize,
    integer_nth_root,
    integer_sqrt,
    is_probable_prime,
    jacobi_symbol,
    sqrt_mod,
    sqrt_mod_prime,
    squarefree_decompose,
)

from conftest import EXAMPLE_149


def sieve(limit):
    flags = bytearray([1]) * limit
    flags[0:2] = b"\x00\x00"
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return flags


PRIME_FLAGS = sieve(10**5)
SMALL_PRIMES = [p for p in range(2, 1000) if PRIME_FLAGS[p]]


class TestPrimality:
    def test_agrees_with_trial_division_to_1e5(self):
        for m in range(2, 10**5):
            assert is_probable_prime(m) == bool(PRIME_FLAGS[m]), m

    def test_published_149_bit_prime(self):
        assert is_probable_prime(EXAMPLE_149.q)
        assert is_probable_prime(EXAMPLE_149.n)

    def test_one_is_not_prime(self):
        assert not is_probable_prime(1)
        assert not is_probable_prime(0)
        assert not is_probable_prime(-7)

    def test_carmichael_561(self):
        # 561 = 3 * 11 * 17, the smallest Carmichael number
        assert any(561 % p == 0 for p in (3, 11, 17))
        assert not is_probable_prime(561)

    def test_large_carmichael_style_composites(self):
        # strong pseudoprime candidates must still be rejected
        for m in (3215031751, 3474749660383, 341550071728321):
            assert not is_probable_prime(m)

    def test_perfect_square_rejected(self):
        p = 10**9 + 7
        assert not is_probable_prime(p * p)


class TestJacobi:
    def test_unit_is_residue(self):
        assert jacobi_symbol(1, 3) == 1

    def test_product_of_legendre(self):
        # (2|15) = (2|3)(2|5) via Euler's criterion
        legendre_3 = pow(2, 1, 3)
        legendre_5 = pow(2, 2, 5)
        assert legendre_3 == 2  # = -1 mod 3
        assert legendre_5 == 4  # = -1 mod 5
        assert jacobi_symbol(2, 15) == 1

    def test_non_residue_mod_5(self):
        assert jacobi_symbol(3, 5) == -1

    def test_rejects_even_modulus(self):
        with pytest.raises(ValueError):
            jacobi_symbol(3, 4)
        with pytest.raises(ValueError):
            jacobi_symbol(3, -5)

    def test_matches_euler_criterion_for_primes(self):
        for p in SMALL_PRIMES:
            if p == 2:
                continue
            for a in range(p):
                e = pow(a, (p - 1) // 2, p)
                expected = -1 if e == p - 1 else e
                assert jacobi_symbol(a, p) == expected


class TestIntegerSqrt:
    @pytest.mark.parametrize(
        "m,expected",
        [(0, (0, True)), (15, (3, False)), (28, (5, False)), (49, (7, True))],
    )
    def test_examples(self, m, expected):
        assert integer_sqrt(m) == expected

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            integer_sqrt(-1)

    @given(st.integers(min_value=0, max_value=10**30))
    def test_floor_property(self, m):
        root, exact = integer_sqrt(m)
        assert root * root <= m < (root + 1) * (root + 1)
        assert exact == (root * root == m)

    def test_nth_root(self):
        assert integer_nth_root(8, 3) == (2, True)
        assert integer_nth_root(80, 3) == (4, False)
        assert integer_nth_root(1, 5) == (1, True)


class TestSqrtModPrime:
    def test_zero(self):
        assert sqrt_mod_prime(0, 7) == 0

    def test_residue_mod_7(self):
        r = sqrt_mod_prime(2, 7)
        assert r in (3, 4)
        assert r * r % 7 == 2

    def test_non_residue_mod_7(self):
        assert sqrt_mod_prime(3, 7) is None

    def test_all_small_primes(self):
        for p in SMALL_PRIMES:
            residues = {x * x % p for x in range(p)}
            for a in range(p):
                r = sqrt_mod_prime(a, p)
                if a in residues:
                    assert r is not None and r * r % p == a
                else:
                    assert r is None

    def test_tonelli_shanks_branch_large(self):
        # p = 1 mod 8 exercises the full algorithm
        p = 2**150 + 385  # prime, p % 8 == 1
        assert is_probable_prime(p)
        for a in (2, 3, 12345):
            r = sqrt_mod_prime(a * a % p, p)
            assert r is not None and r * r % p == a * a % p


class TestSqrtMod:
    @pytest.mark.parametrize("a", [*range(13), -1, -20, 645, 669, 24999045])
    def test_every_modulus_against_scan(self, a):
        """Every root modulo every m <= 2000, against a scan over [0, m):
        covers prime powers of 2, odd primes dividing a (all-or-none lifts)
        and the CRT over several primes."""
        for m in range(1, 2001):
            z = np.arange(m, dtype=np.int64)
            expected = np.flatnonzero((z * z - a) % m == 0).tolist()
            assert sqrt_mod(a, m) == expected, (a, m)

    def test_large_prime_power(self):
        roots = sqrt_mod(2, 17**7)
        assert len(roots) == 2 and all((z * z - 2) % 17**7 == 0 for z in roots)

    def test_modulus_checked(self):
        with pytest.raises(ValueError):
            sqrt_mod(1, 0)
        with pytest.raises(ValueError):
            sqrt_mod(1, (10**6 + 3) * (10**6 + 33))  # does not factor completely


@functools.lru_cache(maxsize=None)
def primes_up_to(bound):
    flags = sieve(max(bound + 1, 3))
    return [p for p in range(len(flags)) if flags[p]]


def reference_factorize(m, bound):
    """factorize with trial division by every prime up to the bound."""
    factors, rest = [], m
    for p in primes_up_to(bound):
        if p * p > rest:
            break
        e = 0
        while rest % p == 0:
            rest //= p
            e += 1
        if e:
            factors.append((p, e))
    if rest > 1:
        if rest < bound * bound or is_probable_prime(rest):
            factors.append((rest, 1))
            rest = 1
        else:
            for e in range(rest.bit_length(), 1, -1):
                root, exact = integer_nth_root(rest, e)
                if exact and is_probable_prime(root):
                    factors.append((root, e))
                    rest = 1
                    break
    return NaturalFactorization(factors=factors, cofactor=rest)


def _primes_near(center, radius=60):
    flags = sieve(center + radius + 1)
    return [p for p in range(center - radius, center + radius + 1) if flags[p]]


class TestFactorizeMatchesFullSieve:
    """factorize sizes its sieve to the input; the result must not change."""

    @pytest.mark.parametrize("bound", [1, 100, 10**6])
    def test_small_m(self, bound):
        for m in range(1, 10**4 + 1):
            assert factorize(m, bound) == reference_factorize(m, bound), m

    def test_prime_squares_and_products_near_bound(self):
        primes = _primes_near(10**6)
        cases = [p * p for p in primes] + [p * r for p in primes for r in primes if p < r]
        for m in cases:
            assert factorize(m) == reference_factorize(m, 10**6), m

    @pytest.mark.parametrize("bound", [2, 100, 1000, 10**6])
    def test_around_bound_squared(self, bound):
        for m in range(bound * bound - 3, bound * bound + 4):
            assert factorize(m, bound) == reference_factorize(m, bound), m

    def test_random_64_bit(self):
        rng = random.Random(2006)
        for _ in range(200):
            m = rng.randrange(1, 2**64)
            assert factorize(m) == reference_factorize(m, 10**6), m


class TestFactorization:
    def test_squarefree_decompose_examples(self):
        assert squarefree_decompose(12, 100) == (3, 2, True)
        assert squarefree_decompose(15 * 43, 10**4) == (645, 1, True)
        assert squarefree_decompose(1, 10) == (1, 1, True)

    def test_incomplete_flagged(self):
        p1, p2 = 1000003, 1000033
        sf, sq, complete = squarefree_decompose(p1 * p2 * 4, bound=100)
        assert not complete
        assert sf == 1 and sq == 2  # only the factored part is reflected

    def test_prime_cofactor_recognized(self):
        big = 2**127 - 1  # Mersenne prime
        fac = factorize(4 * big, bound=100)
        assert fac.complete
        assert (big, 1) in fac.factors

    def test_perfect_power_cofactor(self):
        p = 1000003
        fac = factorize(p * p, bound=100)
        assert fac.complete and fac.factors == [(p, 2)]

    @given(st.integers(min_value=1, max_value=10**12), st.integers(min_value=2, max_value=10**4))
    @settings(max_examples=150)
    def test_factorize_invariants(self, m, bound):
        fac = factorize(m, bound)
        assert fac.value() == m
        for p, e in fac.factors:
            assert e >= 1 and is_probable_prime(p)
        if not fac.complete:
            # the unfactored cofactor has no prime factor below the bound
            for p in SMALL_PRIMES:
                if p > bound:
                    break
                assert fac.cofactor % p != 0

    @given(st.integers(min_value=1, max_value=10**9), st.integers(min_value=2, max_value=500))
    @settings(max_examples=200)
    def test_reassembly(self, m, bound):
        sf, sq, complete = squarefree_decompose(m, bound)
        assert m % (sf * sq * sq) == 0
        undetected = m // (sf * sq * sq)
        if complete:
            assert undetected == 1
            for p in range(2, 1000):
                assert sf % (p * p) != 0

    def test_euler_phi(self):
        assert euler_phi(1) == 1
        assert euler_phi(10) == 4
        assert euler_phi(12) == 4
        for k in range(1, 200):
            brute = sum(1 for i in range(1, k + 1) if math.gcd(i, k) == 1)
            assert euler_phi(k) == brute
