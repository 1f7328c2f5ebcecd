"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line with its elapsed time.  Budgets are asserted as stated."""

import math
import random
import time

import numpy as np
import pytest

from pforge.curve import (
    OrderCheck,
    RecordStatus,
    add_points,
    embedding_degree,
    is_exact_embedding_degree,
    scalar_multiply,
    verify_group_order,
)
from pforge.families import (
    FamilyClassification,
    Verdict,
    analyze_feasibility,
    builtin_catalog,
    family_by_name,
)
from pforge.intpoly import IntPoly, cyclotomic, divides, parse_poly
from pforge.numtheory import is_probable_prime, squarefree_decompose
from pforge.pell import (
    QuadraticInteger,
    congruence_unit,
    enumerate_solutions,
    fundamental_unit,
    reduce_quadratic,
    solutions,
)
from pforge.search import SearchConfig, recover_x_from_q, run_search

from conftest import EXAMPLE_149, EXAMPLE_196


class _Criterion:
    def __init__(self, number, description, budget_seconds):
        self.number = number
        self.description = description
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number}: {verdict} ({elapsed:.2f}s) - {self.description}")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget: {elapsed:.2f}s"
            )
        return False


def _end_to_end(example, number):
    with _Criterion(number, f"{example.bits}-bit example end-to-end verification", 5.0):
        family = family_by_name("freeman10")
        x0 = recover_x_from_q(family, example.q)
        assert x0 is not None and family.q.evaluate(x0) == example.q
        assert family.n.evaluate(x0) == example.n
        assert is_probable_prime(example.q) and is_probable_prime(example.n)
        assert example.q.bit_length() == example.bits
        assert example.n.bit_length() == example.bits
        t = example.q + 1 - example.n
        assert family.t.evaluate(x0) == t
        f_value = 4 * example.q - t * t
        quotient, remainder = divmod(f_value, example.d)
        assert remainder == 0
        y = math.isqrt(quotient)
        assert y * y == quotient
        assert embedding_degree(example.q, example.n, 12) == 10
        assert pow(example.q, 10, example.n) == 1
        for d in (1, 2, 5):
            assert pow(example.q, d, example.n) != 1
        curve = (example.q, example.a % example.q, example.b % example.q)
        check = verify_group_order(curve, example.n, trials=5, rng=random.Random(0))
        assert check is OrderCheck.VERIFIED


def test_criterion_1_example_149():
    _end_to_end(EXAMPLE_149, 1)


def test_criterion_2_example_196():
    _end_to_end(EXAMPLE_196, 2)


def test_criterion_3_freeman_identities():
    with _Criterion(3, "k=10 family polynomial identities", 1.0):
        t = parse_poly("10x^2+5x+3")
        n = parse_poly("25x^4+25x^3+15x^2+5x+1")
        q = parse_poly("25x^4+25x^3+25x^2+10x+3")
        f = parse_poly("15x^2+10x+3")
        assert 4 * q - t * t == f
        assert 4 * n - (t - 2) ** 2 == f
        result = divides(n, cyclotomic(10).compose(t - 1))
        assert result.divides and result.content == 1
        assert result.quotient.degree == 4
        assert result.quotient * n == cyclotomic(10).compose(t - 1)


def test_criterion_4_bn_identities():
    with _Criterion(4, "k=12 family identities", 1.0):
        t = parse_poly("6x^2+1")
        n = parse_poly("36x^4+36x^3+18x^2+6x+1")
        assert 4 * n - (t - 2) ** 2 == 3 * parse_poly("6x^2+4x+1") ** 2
        n_neg = n.compose(IntPoly.from_coeffs([0, -1]))
        assert cyclotomic(12).compose(t - 1) == n * n_neg


def test_criterion_5_mnt_table():
    with _Criterion(5, "MNT table consistency (six branches)", 1.0):
        branches = [f for f in builtin_catalog() if f.name.startswith("mnt")]
        assert len(branches) == 6
        for family in branches:
            assert family.n == family.q + 1 - family.t
            assert divides(family.n, cyclotomic(family.k).compose(family.t - 1)).divides


def test_criterion_6_discriminant_congruence():
    # Admissible k=10 CM discriminants are square-free and coprime to 15.
    # The lone x in range where a prime q(x) admits no such D is x = 0
    # (q = 3, f = 3 = 3*1^2), and the test pins that exclusion exactly.
    with _Criterion(6, "ground-truth D = 43 or 67 mod 120 over |x| <= 10^4", 60.0):
        q_poly = parse_poly("25x^4+25x^3+25x^2+10x+3")
        primes_seen = 0
        no_admissible_d = []
        for x in range(-(10**4), 10**4 + 1):
            if not is_probable_prime(q_poly.evaluate(x)):
                continue
            primes_seen += 1
            f_value = 15 * x * x + 10 * x + 3
            d_value, _, complete = squarefree_decompose(f_value)
            assert complete
            if math.gcd(d_value, 15) != 1:
                no_admissible_d.append((x, d_value))
                continue
            assert d_value % 120 in (43, 67), (x, d_value)
        assert primes_seen > 100
        assert no_admissible_d == [(0, 3)]


def _np_square_mask(values):
    roots = np.rint(np.sqrt(values.astype(np.float64))).astype(np.int64)
    return roots * roots == values, roots


def test_criterion_7_pell_oracle_equivalence():
    with _Criterion(7, "norm-equation solver vs exhaustive oracle, D' <= 2000", 120.0):
        beta = np.arange(1, 10**5 + 1, dtype=np.int64)
        v_grid = np.arange(0, 10**4 + 1, dtype=np.int64)
        units_checked = 0
        sets_checked = 0
        for dprime in range(2, 2001):
            if math.isqrt(dprime) ** 2 == dprime:
                continue
            unit_values = dprime * beta * beta + 1
            mask, roots = _np_square_mask(unit_values)
            hits = np.flatnonzero(mask)
            if hits.size:
                idx = hits[0]
                expected_unit = (int(roots[idx]), int(beta[idx]))
                assert fundamental_unit(dprime).norm_one.pair() == expected_unit, dprime
                units_checked += 1
            for t_value in (1, -1, -20):
                if t_value * t_value >= dprime:
                    continue
                u_squared = dprime * v_grid * v_grid + t_value
                valid = u_squared >= 0
                mask, roots = _np_square_mask(np.where(valid, u_squared, 0))
                mask &= valid
                expected = {
                    (int(roots[i]), int(v_grid[i])) for i in np.flatnonzero(mask)
                }
                got = {
                    (abs(z.a), abs(z.b))
                    for z in enumerate_solutions(
                        dprime, t_value, v_limit=10**4, max_steps_per_class=10**6
                    )
                }
                assert got == expected, (dprime, t_value)
                sets_checked += 1
        # 1078 of the 1956 non-squares below 2000 have a fundamental unit
        # reachable by the beta <= 10^5 scan; the rest are skipped exactly
        # as the brute-force oracle fails to terminate for them
        assert units_checked > 1000
        assert sets_checked > 4000


def test_criterion_8_congruence_unit_properties():
    with _Criterion(8, "congruence-preserving units on 50 sampled problems", 60.0):
        rng = random.Random(20260809)
        accepted = 0
        while accepted < 50:
            dprime = rng.randrange(2, 501)
            if math.isqrt(dprime) ** 2 == dprime:
                continue
            sf, sq, complete = squarefree_decompose(dprime)
            if not complete or sq != 1:
                continue
            a = rng.randrange(1, 31)
            a_sf, a_sq, _ = squarefree_decompose(a)
            if a_sq != 1 or math.gcd(a, dprime) != 1:
                continue
            b = rng.randrange(0, 21)
            x0 = rng.randrange(1, 11)
            d_value = a * dprime  # squarefree by construction
            c = d_value - a * x0 * x0 - b * x0  # forces (x0, y0=1) onto the conic
            if b * b - 4 * a * c == 0:
                continue
            reduction = reduce_quadratic(a, b, c, d_value)
            problem = reduction.problem
            assert problem.dprime == dprime and reduction.r == a

            unit, exponent = congruence_unit(a, dprime)
            assert unit.norm() == 1
            assert unit.a % (2 * a) == 1
            assert unit.b % (2 * a) == 0
            assert exponent < 4 * a * a

            base = QuadraticInteger(2 * a * x0 + b, 2 * a, dprime)
            assert base.norm() == problem.t_value
            for u, v in solutions(problem, base, unit, 3):
                x, y = reduction.to_xy(u, v)
                assert d_value * y * y == a * x * x + b * x + c
            accepted += 1


def test_criterion_9_feasibility_analyzer():
    with _Criterion(9, "degree/balance/leading-coefficient analyzer", 1.0):
        report = analyze_feasibility(
            parse_poly("10x^2+5x+3"), parse_poly("25x^4+25x^3+15x^2+5x+1"), 10
        )
        assert report.degree_check      # 4 = phi(10) divides deg n = 4
        assert report.balance_check     # deg t = 2 = deg n / 2
        assert report.leading_coeff_check  # 10^2 / 4 = 25
        assert report.verdict is Verdict.UNKNOWN_NEEDS_SOLUTION

        t = parse_poly("x+2")
        n = cyclotomic(10).compose(t - 1).primitive_part()
        linear_report = analyze_feasibility(t, n, 10)
        assert linear_report.f_classification is FamilyClassification.INFEASIBLE_SIEGEL
        assert linear_report.verdict is Verdict.NO_FAMILY


def _naive_points(q, a, b):
    pts = [None]
    for x in range(q):
        for y in range(q):
            if (y * y - (x**3 + a * x + b)) % q == 0:
                pts.append((x, y))
    return pts


def _naive_add(p1, p2, q, a):
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    x1, y1 = p1
    x2, y2 = p2
    if x1 == x2 and (y1 + y2) % q == 0:
        return None
    if p1 == p2:
        num, den = 3 * x1 * x1 + a, 2 * y1
    else:
        num, den = y2 - y1, x2 - x1
    lam = num * pow(den, -1, q) % q
    x3 = (lam * lam - x1 - x2) % q
    return (x3, (lam * (x1 - x3) - y1) % q)


def test_criterion_10_curve_arithmetic_oracle():
    with _Criterion(10, "group law and embedding degree vs brute force", 30.0):
        for q, a, b in ((5, 2, 1), (7, 2, 3), (11, 3, 7), (13, 1, 6)):
            curve = (q, a, b)
            pts = _naive_points(q, a, b)
            for p1 in pts:
                for p2 in pts:
                    assert add_points(p1, p2, curve) == _naive_add(p1, p2, q, a)
            for point in pts:
                acc = None
                for m in range(len(pts) + 1):
                    assert scalar_multiply(point, m, curve) == acc
                    acc = _naive_add(acc, point, q, a)

        primes = [p for p in range(2, 1000) if all(p % d for d in range(2, math.isqrt(p) + 1))]
        pairs = 0
        for n in primes:
            if n < 3:
                continue
            for q in primes:
                if q == n:
                    continue
                order = 1
                acc = q % n
                while acc != 1:
                    acc = acc * q % n
                    order += 1
                assert embedding_degree(q, n, order) == order, (q, n)
                assert is_exact_embedding_degree(q, n, order)
                pairs += 1
        assert pairs > 25000


def test_criterion_11_search_reproduction_and_fallback():
    with _Criterion(11, "Example-1 search reproduction (stretch) + CM fallback", 60.0):
        family = family_by_name("freeman10")
        x0 = recover_x_from_q(family, EXAMPLE_149.q)

        # mandatory fallback: u0 = 15 x0 + 5 solves u^2 - 15 D v^2 = -20
        u0 = 15 * x0 + 5
        numerator = u0 * u0 + 20
        assert numerator % (15 * EXAMPLE_149.d) == 0
        v_squared = numerator // (15 * EXAMPLE_149.d)
        v = math.isqrt(v_squared)
        assert v * v == v_squared

        # stretch, non-blocking contract-wise; reproduction is asserted in
        # the search unit tests and reported here
        config = SearchConfig(
            family="freeman10",
            d_min=EXAMPLE_149.d,
            d_max=EXAMPLE_149.d,
            q_bits_min=148,
            q_bits_max=150,
        )
        records = run_search(config)
        reproduced = any(
            r.q == EXAMPLE_149.q and r.n == EXAMPLE_149.n and r.status is RecordStatus.PRIME_OK
            for r in records
        )
        print(f"  stretch: Example 1 {'reproduced' if reproduced else 'not reproduced'} "
              f"within default caps")
