import functools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pforge import numtheory
from pforge.numtheory import (
    NaturalFactorization,
    divisors,
    euler_phi,
    factorize,
    first_composite,
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


# Strong pseudoprimes to base 2, Carmichael numbers, and a Chernick
# Carmichael number 13537 * 27073 * 40609, with no factor below the trial
# division table, that is a strong pseudoprime to base 2, so only the third
# primality stage shows it composite.
STRONG_PSEUDOPRIMES_BASE_2 = (2047, 3277, 4033, 3215031751)
CARMICHAEL = (561, 41041, 825265, 321197185)
PASSES_FIRST_ROUND = 13537 * 27073 * 40609


def _strong_probable_prime_to_base(m, base):
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(base, d, m)
    return x == 1 or any(pow(x, 1 << r, m) == m - 1 for r in range(s))


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


@pytest.fixture
def memo():
    saved = dict(numtheory._proven_primes)
    numtheory._proven_primes.clear()
    yield numtheory._proven_primes
    numtheory._proven_primes.clear()
    numtheory._proven_primes.update(saved)


class TestStagedPrimality:
    """The staged test against sympy.isprime, and the lockstep first_composite."""

    def test_agrees_with_sympy_below_2e5(self, sympy):
        for m in range(-3, 2 * 10**5):
            assert is_probable_prime(m) == sympy.isprime(m), m

    def test_agrees_with_sympy_on_256_bit(self, sympy):
        rng = random.Random(256)
        values = [rng.getrandbits(256) for _ in range(100)]
        values += [sympy.nextprime(rng.getrandbits(256)) for _ in range(100)]
        for m in values:
            assert is_probable_prime(m) == sympy.isprime(m), m

    def test_test_data_are_pseudoprimes(self):
        for m in STRONG_PSEUDOPRIMES_BASE_2:
            assert _strong_probable_prime_to_base(m, 2), m
        for m in (*CARMICHAEL, PASSES_FIRST_ROUND):
            assert all(pow(a, m - 1, m) == 1 for a in (2, 3, 5, 7, 11, 13) if math.gcd(a, m) == 1)

    @pytest.mark.parametrize(
        "m",
        [
            *STRONG_PSEUDOPRIMES_BASE_2, *CARMICHAEL, PASSES_FIRST_ROUND,
            *range(990, 1011), *range(4080, 4112),
        ],
    )
    def test_agrees_with_sympy_on_pseudoprimes_and_the_table_edge(self, sympy, m):
        assert is_probable_prime(m) == sympy.isprime(m)

    def test_agrees_with_sympy_on_products_of_two_primes(self, sympy):
        primes = [p for p in range(1000, 1400) if PRIME_FLAGS[p]]
        rng = random.Random(2)
        primes += [sympy.nextprime(rng.getrandbits(bits)) for bits in (20, 32, 64, 128, 128)]
        for i, p in enumerate(primes):
            for r in primes[i:]:
                assert not is_probable_prime(p * r), (p, r)

    def test_first_composite_is_none_exactly_when_all_prime(self, sympy):
        rng = random.Random(13)
        pool = [
            -5, 0, 1, 2, 3, 997, 1009, 1000 * 1009, 1009 * 1013, 1009**2, 561,
            PASSES_FIRST_ROUND, *STRONG_PSEUDOPRIMES_BASE_2, 2**127 - 1, 2**127 + 1,
            sympy.nextprime(2**254), 2**254 + 1,
        ]
        for _ in range(400):
            values = [rng.choice(pool) for _ in range(rng.randrange(4))]
            index = first_composite(*values)
            if index is None:
                assert all(sympy.isprime(m) for m in values), values
            else:
                assert not sympy.isprime(values[index]), (values, index)

    def test_first_composite_runs_the_stages_in_lockstep(self):
        """The value that fails the earliest stage is named, whatever its
        position: trial division before the Miller-Rabin round to base 2,
        and that round before the other 39 and the Lucas test."""
        small_factor, semiprime = 1000 * 4099, 8647 * 8663
        assert first_composite(PASSES_FIRST_ROUND, small_factor) == 1
        assert first_composite(PASSES_FIRST_ROUND, semiprime) == 1
        assert first_composite(semiprime, small_factor) == 1
        assert first_composite(small_factor, semiprime) == 0
        assert first_composite(semiprime, PASSES_FIRST_ROUND) == 0
        assert first_composite(2**127 - 1, PASSES_FIRST_ROUND) == 1
        assert first_composite(2**127 - 1, 4099, 2, small_factor) == 3
        assert first_composite(2**127 - 1, 4099) is None
        assert first_composite() is None


class TestStageOrder:
    """Trial division below TRIAL_DIVISION_LIMIT, then the Miller-Rabin
    round to base 2, then the seeded rounds and the Lucas test."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """The arguments of every call the stages make to the generator,
        the Miller-Rabin round, the Lucas test and pow."""
        calls = {}
        for owner, name in (
            (numtheory.random, "Random"),
            (numtheory, "_miller_rabin_witness"),
            (numtheory, "_strong_lucas_probable_prime"),
            (numtheory, "pow"),
        ):
            def counting(*args, log=calls.setdefault(name, []), call=getattr(owner, name, pow)):
                log.append(args)
                return call(*args)

            monkeypatch.setattr(owner, name, counting, raising=False)
        return calls

    def test_a_composite_failing_base_2_builds_no_generator(self, memo, calls):
        m = 8647 * 8663
        assert first_composite(m) == 0
        assert calls["_miller_rabin_witness"] == [(m, 2)] and not calls["Random"]
        assert first_composite(PASSES_FIRST_ROUND) == 0
        assert calls["_miller_rabin_witness"][1] == (PASSES_FIRST_ROUND, 2)
        assert len(calls["Random"]) == 1 and not calls["_strong_lucas_probable_prime"]

    def test_a_prime_gets_40_rounds_base_2_first_then_the_lucas_test(self, memo, calls):
        primes = (4099, 2**127 - 1, EXAMPLE_149.q)
        for p in primes:
            assert is_probable_prime(p)
        rounds = calls["_miller_rabin_witness"]
        assert numtheory.MILLER_RABIN_ROUNDS == 40 and len(rounds) == 3 * 40
        for i, p in enumerate(primes):
            assert rounds[40 * i] == (p, 2)
            assert all(m == p and 1 < a < p - 1 for m, a in rounds[40 * i : 40 * (i + 1)])
        assert calls["_strong_lucas_probable_prime"] == [(p,) for p in primes]
        assert len(calls["Random"]) == 3 and len(calls["pow"]) >= 3 * 40

    def test_trial_division_catches_products_of_primes_below_the_limit(self, memo, calls):
        primes = [p for p in range(1000, 4096) if PRIME_FLAGS[p]]
        for i, p in enumerate(primes):
            for r in primes[i:]:
                assert first_composite(p * r) == 0, (p, r)
        assert not any(calls.values()) and not memo


class TestProvenPrimeMemo:
    """first_composite remembers the values it proved prime, and only those."""

    @pytest.fixture(scope="class")
    def pool(self, sympy):
        rng = random.Random(17)
        primes = [4099, 2**127 - 1, *(sympy.nextprime(rng.getrandbits(b)) for b in (64, 160, 254))]
        composites = [
            0, 1, 1000 * 4099, 4099**2, 8647 * 8663, PASSES_FIRST_ROUND,
            *STRONG_PSEUDOPRIMES_BASE_2, *CARMICHAEL, 2**127 + 1, primes[-1] * primes[-2],
        ]
        return primes + composites

    def test_cold_and_warm_memo_give_the_same_index(self, sympy, memo, pool):
        rng = random.Random(5)
        for _ in range(300):
            values = [rng.choice(pool) for _ in range(rng.randrange(5))]
            memo.clear()
            cold = first_composite(*values)
            warm = first_composite(*values)
            for m in pool:
                is_probable_prime(m)
            assert first_composite(*values) == warm == cold, values
            if cold is None:
                assert all(sympy.isprime(m) for m in values), values
            else:
                assert not sympy.isprime(values[cold]), (values, cold)

    def test_only_primes_enter(self, sympy, memo, pool):
        # PASSES_FIRST_ROUND passes trial division and the Miller-Rabin
        # round to base 2, so only the full test keeps it out.
        assert first_composite(PASSES_FIRST_ROUND) == 0
        assert first_composite(2**127 - 1, PASSES_FIRST_ROUND) == 1
        assert PASSES_FIRST_ROUND not in memo and 2**127 - 1 in memo
        for m in pool:
            is_probable_prime(m)
        for m in range(-3, 8192):
            is_probable_prime(m)
        assert memo and all(sympy.isprime(m) for m in memo)
        assert all(m in memo for m in pool if sympy.isprime(m))

    def test_a_value_failing_the_lucas_test_stays_out(self, memo, monkeypatch):
        # No known composite passes 40 Miller-Rabin rounds and fails the
        # Lucas test, so a failing Lucas test is forced on a prime.
        monkeypatch.setattr(numtheory, "_strong_lucas_probable_prime", lambda m: False)
        assert first_composite(4099, 2**127 - 1) == 0
        assert not memo

    def test_a_proven_prime_is_not_tested_again(self, memo, monkeypatch):
        p = 2**127 - 1
        assert is_probable_prime(p)
        rounds = []
        witness = numtheory._miller_rabin_witness
        monkeypatch.setattr(
            numtheory, "_miller_rabin_witness", lambda m, a: rounds.append(m) or witness(m, a)
        )
        assert first_composite(p, p, PASSES_FIRST_ROUND) == 2
        assert p not in rounds and PASSES_FIRST_ROUND in rounds

    def test_memo_keeps_the_latest_values_within_its_bound(self, memo):
        size = numtheory.PROVEN_PRIMES_MAXSIZE
        primes = [p for p in range(4096, 20000) if PRIME_FLAGS[p]][: size + 50]
        for p in primes:
            assert first_composite(p, p) is None
            assert len(memo) <= size
        assert list(memo) == primes[-size:]


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

    def test_nth_root_around_exact_powers(self):
        """Floor and exactness at r**e - 1, r**e and r**e + 1, for r far
        beyond a float's precision and range, and against a scan for every
        m < 3000."""
        rng = random.Random(700)
        for _ in range(300):
            r = rng.randrange(2, 2**rng.randrange(2, 701))
            e = rng.randrange(2, 9)
            assert integer_nth_root(r**e - 1, e) == (r - 1, False), (r, e)
            assert integer_nth_root(r**e, e) == (r, True), (r, e)
            assert integer_nth_root(r**e + 1, e) == (r, False), (r, e)
        for m in range(3000):
            for e in range(2, 13):
                root = next(r for r in range(m + 1) if (r + 1) ** e > m)
                assert integer_nth_root(m, e) == (root, root**e == m), (m, e)


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
    """factorize with trial division by every prime up to the bound; a
    bound below 2 acts as 2, as in factorize."""
    bound = max(bound, 2)
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

    @pytest.mark.parametrize("bound", [-5, 0, 1, 2, 3, 4, 100, 1024, 10**4])
    def test_perfect_powers_and_near_powers(self, bound):
        """The perfect-power check starts at the largest exponent a root
        above the bound allows; the reference tries every exponent."""
        rng = random.Random(bound)
        for _ in range(15):
            p = max(bound, 2) + rng.randrange(1, 1 << rng.choice((2, 8, 24)))
            while not is_probable_prime(p):
                p += 1
            e = rng.randrange(2, 24)
            for m in (p**e, p**e - 1, p**e + 1, 2 * p**e, (p * (p + 2)) ** e):
                assert factorize(m, bound) == reference_factorize(m, bound), (m, bound)


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

    @pytest.mark.parametrize("bound", [-5, 0, 1])
    def test_bound_below_two_acts_as_two(self, bound):
        assert factorize(9, bound) == NaturalFactorization(factors=[(3, 2)], cofactor=1)
        assert factorize(15, bound) == NaturalFactorization(factors=[], cofactor=15)
        assert factorize(21, bound) == NaturalFactorization(factors=[], cofactor=21)
        assert squarefree_decompose(9, bound) == (1, 3, True)
        assert squarefree_decompose(15, bound) == (1, 1, False)

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

    def test_divisors_match_brute_force(self):
        for m in range(1, 2001):
            assert divisors(m) == [d for d in range(1, m + 1) if m % d == 0], m

    def test_divisors_of_an_unfactorable_value_raise(self):
        # both primes are above the trial-division bound
        with pytest.raises(ValueError, match="could not factor"):
            divisors(1000003 * 1000033)
