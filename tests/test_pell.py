import math
import random
from decimal import ROUND_FLOOR, Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pforge import pell
from pforge.errors import CapacityError, ContractError
from pforge.numtheory import squarefree_decompose
from pforge.pell import (
    PellProblem,
    QuadraticInteger,
    _pqa,
    _square_divisors,
    base_solutions,
    canonical_representative,
    congruence_unit,
    continued_fraction_sqrt,
    enumerate_solutions,
    fundamental_unit,
    reduce_quadratic,
    solutions,
)

from conftest import EXAMPLE_149


def same_class(z1: QuadraticInteger, z2: QuadraticInteger, t_value: int) -> bool:
    """Whether two norm-T solutions differ by a norm-one unit (sign folded):
    z2 * conj(z1) must be divisible by T componentwise."""
    if z1.dprime != z2.dprime:
        raise ValueError("mixed radicands")
    t = abs(t_value)
    prod = z2 * z1.conjugate()
    return prod.a % t == 0 and prod.b % t == 0


def brute_solutions(dprime, t_value, v_max):
    """Exhaustive (u >= 0, v >= 0) solution scan."""
    out = set()
    for v in range(v_max + 1):
        usq = t_value + dprime * v * v
        if usq < 0:
            continue
        u = math.isqrt(usq)
        if u * u == usq:
            out.add((u, v))
    return out


def brute_norm_one_unit(dprime, beta_max):
    for beta in range(1, beta_max + 1):
        asq = dprime * beta * beta + 1
        alpha = math.isqrt(asq)
        if alpha * alpha == asq:
            return alpha, beta
    return None


class TestQuadraticInteger:
    @given(
        st.integers(min_value=-(10**6), max_value=10**6),
        st.integers(min_value=-(10**6), max_value=10**6),
        st.integers(min_value=-(10**6), max_value=10**6),
        st.integers(min_value=-(10**6), max_value=10**6),
        st.sampled_from([2, 3, 5, 7, 645, 24999045]),
    )
    @settings(max_examples=300)
    def test_norm_multiplicative(self, a1, b1, a2, b2, dprime):
        z1 = QuadraticInteger(a1, b1, dprime)
        z2 = QuadraticInteger(a2, b2, dprime)
        assert (z1 * z2).norm() == z1.norm() * z2.norm()

    def test_mul_associative(self):
        z1, z2, z3 = (QuadraticInteger(a, b, 7) for a, b in ((2, 3), (-1, 4), (5, -2)))
        assert (z1 * z2) * z3 == z1 * (z2 * z3)

    def test_pow_matches_repeated_mul(self):
        z = QuadraticInteger(3, 2, 2)
        acc = QuadraticInteger(1, 0, 2)
        for e in range(8):
            assert z**e == acc
            acc = acc * z

    def test_inverse_unit(self):
        z = QuadraticInteger(3, 2, 2)
        assert z * z.inverse_unit() == QuadraticInteger(1, 0, 2)
        with pytest.raises(ValueError):
            QuadraticInteger(2, 1, 2).inverse_unit()


class TestContinuedFraction:
    def test_sqrt_2(self):
        cf = continued_fraction_sqrt(2)
        assert cf.a0 == 1 and cf.periodic == (2,)

    def test_sqrt_3(self):
        cf = continued_fraction_sqrt(3)
        assert cf.a0 == 1 and cf.periodic == (1, 2)

    def test_square_rejected(self):
        with pytest.raises(ValueError):
            continued_fraction_sqrt(4)

    def test_period_cap(self):
        with pytest.raises(CapacityError):
            continued_fraction_sqrt(3, max_period=1)


class TestPQa:
    def test_partial_quotients_and_norm_identity(self):
        """a_i = floor((P_i + sqrt(D')) / Q_i) against a 60-digit square
        root, and G_{i-1}**2 - D' B_{i-1}**2 = (-1)**i Q_i Q_0, from starts
        with Q_0 of both signs; the walks meet negative Q_i."""
        negative_q = 0
        with localcontext() as ctx:
            ctx.prec = 60
            for dprime in (2, 3, 13, 129, 645, 669, 1000020):
                root = Decimal(dprime).sqrt()
                for q0 in (-20, -7, -2, 1, 3, 8, 20, 384):
                    for p0 in range(-abs(q0), abs(q0) + 1):
                        if (dprime - p0 * p0) % q0:
                            continue
                        for i, (a, p, q, g, b) in zip(range(40), _pqa(p0, q0, dprime)):
                            exact = ((p + root) / q).to_integral_value(rounding=ROUND_FLOOR)
                            assert a == int(exact), (dprime, p0, q0, i)
                            assert g * g - dprime * b * b == (-1) ** i * q * q0
                            negative_q += q < 0
        assert negative_q >= 50


class TestFundamentalUnit:
    @pytest.mark.parametrize("dprime,expected", [(2, (3, 2)), (3, (2, 1)), (5, (9, 4))])
    def test_examples(self, dprime, expected):
        assert fundamental_unit(dprime).norm_one.pair() == expected

    def test_cf_unit_norm(self):
        fu = fundamental_unit(2)
        assert fu.cf_unit.pair() == (1, 1) and fu.cf_unit.norm() == -1

    def test_brute_force_agreement_small(self):
        for dprime in range(2, 300):
            if math.isqrt(dprime) ** 2 == dprime:
                continue
            brute = brute_norm_one_unit(dprime, 10**5)
            if brute is None:
                continue
            assert fundamental_unit(dprime).norm_one.pair() == brute, dprime


class TestBaseSolutions:
    def test_645_minus_20(self):
        reps = base_solutions(645, -20)
        assert reps
        for z in reps:
            assert z.norm() == -20
        pairs = {(abs(z.a), abs(z.b)) for z in reps}
        assert (25, 1) in pairs

    def test_unit_class_for_t_one(self):
        reps = base_solutions(2, 1)
        assert len(reps) == 1
        assert reps[0].pair() == (1, 0)
        # the class contains (3, 2)
        assert same_class(QuadraticInteger(3, 2, 2), reps[0], 1)

    def test_no_solution_gives_empty(self):
        # u^2 - 3 v^2 = -1 has no solution (norm of fundamental unit is +1)
        assert base_solutions(3, -1) == []

    def test_example_149_class_is_found(self):
        dprime = 15 * EXAMPLE_149.d
        x0 = 66980436970
        u0, v0 = 15 * x0 + 5, 200945149
        assert u0 * u0 - dprime * v0 * v0 == -20
        reps = base_solutions(dprime, -20)
        assert any(same_class(QuadraticInteger(u0, v0, dprime), rep, -20) for rep in reps)

    def test_ambiguous_class_takes_positive_u(self):
        # (24, 8) and (-24, 8) lie in one class of u^2 - 3v^2 = 384
        assert same_class(QuadraticInteger(24, 8, 3), QuadraticInteger(-24, 8, 3), 384)
        assert [z.pair() for z in base_solutions(3, 384)] == [(24, 8)]

    def test_zero_t_rejected(self):
        with pytest.raises(ValueError):
            base_solutions(5, 0)

    def test_square_divisors_match_brute_force(self):
        for t_value in range(-300, 301):
            if t_value:
                want = [f for f in range(1, 18) if t_value % (f * f) == 0]
                assert sorted(_square_divisors(t_value)) == want, t_value

    def test_large_t_brute_force_branch(self):
        # |T| >= sqrt(D'), classical bounded scan; cross-check exhaustively
        reps = base_solutions(129, 384)
        got = {(abs(z.a), abs(z.b)) for z in enumerate_solutions(129, 384, v_limit=500)}
        assert got == brute_solutions(129, 384, 500)
        assert reps


class TestCongruenceUnit:
    def test_a_equals_one(self):
        cu = congruence_unit(1, 2)
        assert cu.unit.pair() == (3, 2) and cu.exponent == 1

    def test_freeman_modulus(self):
        cu = congruence_unit(15, 645)
        assert cu.unit.norm() == 1
        assert cu.unit.a % 30 == 1 and cu.unit.b % 30 == 0
        assert cu.exponent < 4 * 15 * 15

    def test_identity_when_unit_already_congruent(self):
        # for dprime = 3 the unit (2, 1): mod 2 it is (0, 1), order divides 4*1
        cu = congruence_unit(1, 3)
        assert cu.unit.a % 2 == 1 and cu.unit.b % 2 == 0
        assert cu.unit.norm() == 1

    @pytest.mark.parametrize("a,dprime", [(3, 7), (6, 10), (15, 645), (12, 129), (30, 499)])
    def test_properties(self, a, dprime):
        cu = congruence_unit(a, dprime)
        assert cu.unit.norm() == 1
        assert cu.unit.a % (2 * a) == 1
        assert cu.unit.b % (2 * a) == 0
        assert 1 <= cu.exponent < 4 * a * a
        # exponent really is the order: smaller powers are not congruent
        base = fundamental_unit(dprime).norm_one
        for m in range(1, cu.exponent):
            z = base**m
            assert not (z.a % (2 * a) == 1 and z.b % (2 * a) == 0)


class TestSolutions:
    def make_problem(self):
        # D y^2 = 15x^2 + 10x + 3 with D = 43 -> u = 30x + 10, v = 2y, T = -80
        reduction = reduce_quadratic(15, 10, 3, 43)
        return reduction

    def test_base_returned_first(self):
        red = self.make_problem()
        base = QuadraticInteger(-50, 2, red.problem.dprime)  # x = -2, y = 1
        unit = congruence_unit(15, red.problem.dprime).unit
        sols = solutions(red.problem, base, unit, 1)
        assert sols == [(-50, 2)]

    def test_successive_norms_and_congruences(self):
        red = self.make_problem()
        base = QuadraticInteger(-50, 2, red.problem.dprime)
        unit = congruence_unit(15, red.problem.dprime).unit
        sols = solutions(red.problem, base, unit, 4)
        prev = None
        for u, v in sols:
            assert u * u - red.problem.dprime * v * v == red.problem.t_value
            assert u % 30 == 10 and v % 2 == 0
            x, y = red.to_xy(u, v)
            assert 43 * y * y == 15 * x * x + 10 * x + 3
            if prev is not None:
                assert abs(u) > prev
            prev = abs(u)

    def test_contract_violations_named(self):
        """Each violation is a ContractError naming the unit or the stream
        element at fault; the base is the stream's element 0."""
        problem = self.make_problem().problem
        dprime = problem.dprime
        unit = congruence_unit(15, dprime).unit
        good_base = QuadraticInteger(-50, 2, dprime)
        cases = [
            # norm 100, not -80
            ((problem, QuadraticInteger(10, 0, dprime), unit, 1),
             r"stream element \(10, 0\) violates"),
            # norm -80, but u = 20 mod 30
            ((problem, QuadraticInteger(50, 2, dprime), unit, 1),
             r"stream element \(50, 2\) violates"),
            # no solution of norm -80 has v odd: ask for v = 0 mod 4 instead
            ((PellProblem(dprime, -80, 30, 10, 4, 0), good_base, unit, 1),
             r"stream element \(-50, 2\) violates"),
            ((PellProblem(2, 1), QuadraticInteger(1, 0, 2), QuadraticInteger(1, 1, 2), 1),
             r"step unit \(1, 1\) must have norm 1"),
            # the least norm-one unit of Z[sqrt(645)] is 11 mod 30
            ((problem, good_base, fundamental_unit(dprime).norm_one, 1),
             r"step unit \(1024001, 40320\) is not congruent to 1 mod 30"),
            # one unit step below the canonical base: |u| falls at element 1
            ((problem, good_base * unit.inverse_unit(), unit, 2),
             r"stream \|u\| decreased at \(-50, 2\)"),
        ]
        for args, message in cases:
            with pytest.raises(ContractError, match=message):
                solutions(*args)


class TestEnumeration:
    @pytest.mark.parametrize("dprime", [2, 13, 61, 409, 661, 1021])
    @pytest.mark.parametrize("t_value", [1, -1, -20, 4, -4])
    def test_oracle_equality(self, dprime, t_value):
        got = {
            (abs(z.a), abs(z.b))
            for z in enumerate_solutions(dprime, t_value, v_limit=10**4, max_steps_per_class=10**6)
        }
        assert got == brute_solutions(dprime, t_value, 10**4)

    def test_sorted_by_abs_u(self):
        out = enumerate_solutions(645, -20, v_limit=10**6, max_steps_per_class=50)
        abs_u = [abs(z.a) for z in out]
        assert abs_u == sorted(abs_u)

    def test_canonical_representative_minimizes(self):
        unit = fundamental_unit(2).norm_one
        deep = QuadraticInteger(3, 2, 2) ** 5  # far along the unit orbit
        rep = canonical_representative(deep, unit)
        assert rep.pair() == (1, 0)


# D' > 10**6 built as u**2 - T so that each T has a solution of about 10 bits
LAGRANGE_DPRIMES = [
    2, 3, 13, 61, 409, 645, 1021, 4219,
    1000020, 1002006, 1004000, 1006010, 1008015, 15 * EXAMPLE_149.d,
]


def scan_solutions(dprime, t_values, bits):
    """{T: every (u >= 0, v >= 0) with u**2 - dprime*v**2 = T, u < 2**bits}:
    |u - v sqrt(dprime)| = |T| / (u + v sqrt(dprime)), so a float64 pass
    over every v in range keeps each v within (max |T| + 1) / (v
    sqrt(dprime)) of an integer, and those v are checked exactly."""
    v = np.arange(1, math.isqrt((1 << 2 * bits) // dprime) + 2, dtype=np.float64)
    s = v * math.sqrt(dprime)
    slack = max(abs(t) for t in t_values) + 1
    near = np.flatnonzero(np.abs(s - np.rint(s)) <= slack / s + 1e-5) + 1
    out = {t_value: set() for t_value in t_values}
    for vi in [0, *near.tolist()]:
        for t_value in t_values:
            usq = dprime * vi * vi + t_value
            u = math.isqrt(max(usq, 0))
            if u * u == usq and u.bit_length() <= bits:
                out[t_value].add((u, vi))
    return out


class TestLagrangeEnumeration:
    @pytest.mark.parametrize("bits", [16, 24, 32])
    def test_against_exhaustive_scan(self, bits):
        """T**2 < D': every solution read off the convergent walk, and only
        those, against a scan of every v below the u-bits bound."""
        checked = 0
        for dprime in LAGRANGE_DPRIMES:
            if (1 << bits) > 5 * 10**6 * math.isqrt(dprime):
                continue  # more than 5 * 10**6 values of v to scan
            t_values = [t for t in (1, -1, 4, -5, -20) if t * t < dprime]
            expected = scan_solutions(dprime, t_values, bits)
            for t_value in t_values:
                got = [
                    (abs(z.a), abs(z.b))
                    for z in enumerate_solutions(dprime, t_value, u_bit_limit=bits)
                ]
                assert [u for u, _ in got] == sorted(u for u, _ in got)
                assert len(set(got)) == len(got)
                assert set(got) == expected[t_value], (dprime, t_value)
                checked += 1
        assert checked >= 20

    def test_limit_required(self):
        with pytest.raises(ValueError):
            enumerate_solutions(645, -20)


def _reference_convergent_walk(dprime, t_value, v_limit=None, u_bit_limit=None):
    """enumerate_solutions' T**2 < D' branch as it was written on _pqa: a
    generator walk, a limit closure per step and the sign as (-1)**i."""

    def within(u, v):
        return (v_limit is None or abs(v) <= v_limit) and (
            u_bit_limit is None or abs(u).bit_length() <= u_bit_limit
        )

    scales = {t_value // (g * g): g for g in _square_divisors(t_value)}
    found = {}
    for i, (_, _, q, p, b) in enumerate(_pqa(0, 1, dprime)):
        if not within(p, b):
            break
        g = scales.get((-1) ** i * q)
        if g is not None and within(u := g * p, v := g * b):
            found.setdefault((abs(u), abs(v)), (u, v))
    return [pair for _, pair in sorted(found.items())]


def _walk(dprime, t_value, **limits):
    return [z.pair() for z in enumerate_solutions(dprime, t_value, **limits)]


class TestConvergentLoop:
    """The T**2 < D' branch of enumerate_solutions, one loop on ints, against
    the _pqa walk it replaced and against the exhaustive scans."""

    LIMITS = [
        {"v_limit": 0}, {"u_bit_limit": 0}, {"u_bit_limit": 1}, {"u_bit_limit": -1},
        {"v_limit": 0, "u_bit_limit": 1}, {"v_limit": 1}, {"u_bit_limit": 2},
        {"u_bit_limit": 64}, {"v_limit": 10**6}, {"v_limit": 10**5, "u_bit_limit": 40},
        {"v_limit": 10**9, "u_bit_limit": 20},
    ]

    def test_random_inputs_match_the_pqa_walk(self):
        rng = random.Random(20261020)
        checked = 0
        while checked < 1500:
            dprime = rng.randrange(2, 10**8 if rng.random() < 0.7 else 10**4)
            t_value = rng.choice([1, -1, -20, 96, 384, -4, rng.randrange(-2000, 2000) or 3])
            if t_value * t_value >= dprime or math.isqrt(dprime) ** 2 == dprime:
                continue
            limits = rng.choice(self.LIMITS)
            want = _reference_convergent_walk(dprime, t_value, **limits)
            assert _walk(dprime, t_value, **limits) == want, (dprime, t_value, limits)
            checked += 1

    @pytest.mark.parametrize("limits", LIMITS)
    @pytest.mark.parametrize("t_value", [1, -1, -20, 96, 384])
    def test_limits_match_the_pqa_walk(self, t_value, limits):
        for dprime in LAGRANGE_DPRIMES:
            if t_value * t_value < dprime:
                want = _reference_convergent_walk(dprime, t_value, **limits)
                assert _walk(dprime, t_value, **limits) == want, dprime

    def test_smallest_limits(self):
        # (1, 0) is the only solution of norm 1 with v = 0; none has u < 2**0
        assert _walk(1021, 1, v_limit=0) == [(1, 0)]
        assert _walk(1021, 1, u_bit_limit=1) == [(1, 0)]
        assert _walk(1021, 1, u_bit_limit=0) == []
        assert _walk(1021, -1, v_limit=0) == []
        assert _walk(1021, 96, v_limit=0) == []

    @pytest.mark.parametrize("t_value", [1, -1, -20, 96, 384])
    def test_both_limits_against_exhaustive_scan(self, t_value):
        checked = 0
        for dprime in LAGRANGE_DPRIMES:
            if t_value * t_value >= dprime:
                continue
            for v_limit in (0, 1, 7, 10**3):
                want = {
                    (u, v) for u, v in brute_solutions(dprime, t_value, v_limit)
                    if u.bit_length() <= 30
                }
                got = _walk(dprime, t_value, v_limit=v_limit, u_bit_limit=30)
                assert set(got) == want and len(got) == len(want), (dprime, v_limit)
                checked += 1
            got = _walk(dprime, t_value, u_bit_limit=24)
            assert set(got) == scan_solutions(dprime, [t_value], 24)[t_value], dprime
        assert checked >= 20

    def test_t_is_factored_once(self, monkeypatch):
        calls = []

        def counting_divisors(m):
            calls.append(m)
            return pell_divisors(m)

        pell_divisors = pell.divisors
        monkeypatch.setattr(pell, "divisors", counting_divisors)
        _square_divisors.cache_clear()
        for dprime in (1000020, 1002006, 1004000, 1006010):
            enumerate_solutions(dprime, 384, u_bit_limit=64)
            base_solutions(dprime, 384)
        assert calls == [384]


# non-square D' <= 150 with the T of CLASS_T for which T**2 >= D'
CLASS_T = (4, -20, 384)
CLASS_CASES = [
    (dprime, [t for t in CLASS_T if t * t >= dprime])
    for dprime in range(2, 151)
    if math.isqrt(dprime) ** 2 != dprime
]


class TestClassEnumeration:
    """T**2 >= D': each base-solution class walked by the norm-one unit."""

    def test_against_exhaustive_scan(self):
        checked = 0
        for dprime, t_values in CLASS_CASES:
            expected = scan_solutions(dprime, t_values, 20)
            for t_value in t_values:
                got = [
                    (abs(z.a), abs(z.b))
                    for z in enumerate_solutions(dprime, t_value, u_bit_limit=20)
                ]
                assert [u for u, _ in got] == sorted(u for u, _ in got)
                assert len(set(got)) == len(got)
                assert set(got) == expected[t_value], (dprime, t_value)
                checked += 1
        assert checked >= 250

    def test_one_step_per_class_gives_the_reps(self):
        for dprime, t_values in CLASS_CASES:
            for t_value in t_values:
                want = {
                    (abs(z.a), abs(z.b))
                    for z in base_solutions(dprime, t_value)
                    if abs(z.a).bit_length() <= 20
                }
                got = enumerate_solutions(dprime, t_value, u_bit_limit=20, max_steps_per_class=1)
                assert {(abs(z.a), abs(z.b)) for z in got} == want, (dprime, t_value)


class TestBaseSolutionsOracle:
    # sympy 1.14's diop_DN takes about 45 ms per call for these T on a 2-vCPU
    # Xeon host, so they run on a fixed sample of D'; T in (-8, 12, 1, -1)
    # runs on every D' <= 1000
    SLOW_T = (-32, -20, 45, 96, 384)
    SAMPLE = [*range(2, 1001, 53), 109, 181, 241, 277, 313, 669, 991, 997]

    @pytest.mark.parametrize("t_value", [-32, -8, 12, 45, 96, 384, -20, 1, -1])
    def test_against_diop_dn(self, t_value):
        """Each class base_solutions returns holds exactly one of diop_DN's
        fundamental solutions, and there are as many classes as those."""
        pytest.importorskip("sympy")
        from sympy.solvers.diophantine.diophantine import diop_DN

        dprimes = self.SAMPLE if t_value in self.SLOW_T else range(2, 1001)
        for dprime in dprimes:
            if math.isqrt(dprime) ** 2 == dprime:
                continue
            reps = base_solutions(dprime, t_value)
            assert all(r.norm() == t_value for r in reps)
            expected = diop_DN(dprime, t_value)
            for x, y in expected:
                z = QuadraticInteger(x, y, dprime)
                assert sum(same_class(z, r, t_value) for r in reps) == 1, (dprime, t_value, (x, y))
            assert len(reps) == len(expected), (dprime, t_value)


def _factored_reduction(a, b, c, d_value):
    """reduce_quadratic as it was when it factored a*D: D' the square-free
    part of a*D and r its square root."""
    dprime, r, complete = squarefree_decompose(a * d_value)
    assert complete
    problem = PellProblem(dprime, b * b - 4 * a * c, 2 * a, b, 2 * r, 0)
    return pell.QuadraticReduction(problem, a, b, r)


class TestReduction:
    def test_freeman_d43(self):
        red = reduce_quadratic(15, 10, 3, 43)
        assert red.problem.dprime == 645
        assert red.problem.t_value == -80
        assert red.problem.modulus_u == 30 and red.problem.residue_u == 10
        assert red.problem.modulus_v == 2 and red.problem.residue_v == 0
        assert red.r == 1

    def test_square_ad_rejected(self):
        with pytest.raises(ValueError):
            reduce_quadratic(3, 0, -1, 3)  # aD = 9

    def test_nonsquarefree_ad_extracts_r(self):
        # a = 12, D = 3 -> aD = 36 is square; use D = 6 -> aD = 72 = 2 * 36
        red = reduce_quadratic(12, 0, -5, 6)
        assert red.problem.dprime == 2 and red.r == 6

    def test_reduction_factors_only_a(self, monkeypatch):
        """a = s r**2 and g = gcd(s, D) give D' and r for any D, factoring
        only a: a*D = D' r**2 with D' a non-square, and for square-free D
        the reduction equals the one that factors a*D."""
        rng = random.Random(34)
        cases = [(12, 6), (15, 43), (15, 15), (12, 3 * 5 * 7), (75, 10), (98, 14),
                 (15, 172), (12, 8), (15, 60), (75, 12), (98, 28), (2, 2 * 1000003**2)]
        while len(cases) < 400:
            d_value = rng.randrange(1, 10**7)
            if len(cases) % 2:
                d_value *= rng.choice([2, 3, 6, 7, 10, 1000003]) ** 2
            a = rng.choice([1, 2, 12, 15, 18, 50, 72, 98, rng.randrange(1, 500)])
            cases.append((a, d_value))
        factored = []

        def decompose(m, *args):
            factored.append(m)
            return squarefree_decompose(m, *args)

        monkeypatch.setattr(pell, "squarefree_decompose", decompose)
        squarefree = 0
        for a, d_value in cases:
            factored.clear()
            if math.isqrt(a * d_value) ** 2 == a * d_value:
                with pytest.raises(ValueError):
                    reduce_quadratic(a, 2, -5, d_value)
                continue
            red = reduce_quadratic(a, 2, -5, d_value)
            assert factored == [a], (a, d_value)
            dprime = red.problem.dprime
            assert a * d_value == dprime * red.r**2 and math.isqrt(dprime) ** 2 != dprime
            _, square, complete = squarefree_decompose(d_value)
            if complete and square == 1:
                assert red == _factored_reduction(a, 2, -5, d_value), (a, d_value)
                squarefree += 1
        assert 100 < squarefree < 300
        # an a past trial division would leave s and r without its cofactor,
        # so that a*D = D' r**2 fails; it is refused for any D
        a = 1000003 * 1000033
        for d_value in (10, 43 * 4, a * (25 * a + 24)):
            with pytest.raises(ValueError, match="could not factor"):
                reduce_quadratic(a, 4, 4, d_value)

    def test_to_xy_roundtrip(self):
        red = reduce_quadratic(15, 10, 3, 43)
        x, y = red.to_xy(-50, 2)
        assert (x, y) == (-2, 1)
        with pytest.raises(ValueError):
            red.to_xy(-49, 2)

    def test_problem_validation(self):
        with pytest.raises(ValueError):
            PellProblem(dprime=4, t_value=1)
        with pytest.raises(ValueError):
            PellProblem(dprime=5, t_value=0)
        problem = PellProblem(dprime=5, t_value=4, modulus_u=3, residue_u=5)
        assert problem.residue_u == 2  # reduced into range
