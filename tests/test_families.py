import math
import random

import pytest

from pforge import families
from pforge.curve import RecordStatus, verify_record
from pforge.families import (
    _catalog,
    FamilyClassification,
    Verdict,
    analyze_feasibility,
    builtin_catalog,
    compute_f,
    d_classes,
    family_by_name,
    filter_discriminant_k10,
    instantiate,
    is_irreducible_over_q,
    verify_family,
)
from pforge.intpoly import IntPoly, cyclotomic, divides, parse_poly, poly_gcd
from pforge.numtheory import euler_phi, is_probable_prime, squarefree_decompose

from conftest import EXAMPLE_149


_UNFACTORABLE = (10**19 + 51) * (10**19 + 33)

CATALOG_NAMES = ["mnt3+", "mnt3-", "mnt4a", "mnt4b", "mnt6+", "mnt6-", "freeman10", "bn12"]


class TestCatalog:
    def test_names(self):
        assert [f.name for f in builtin_catalog()] == CATALOG_NAMES

    def test_mnt6_plus_row(self):
        fam = family_by_name("mnt6+")
        assert fam.q == parse_poly("4x^2+1")
        assert fam.n == parse_poly("4x^2-2x+1")
        assert fam.t == parse_poly("1+2x")

    def test_freeman_row(self):
        fam = family_by_name("freeman10")
        assert fam.n == parse_poly("25x^4+25x^3+15x^2+5x+1")
        assert fam.f == parse_poly("15x^2+10x+3")
        assert fam.classification is FamilyClassification.QUADRATIC_SQUAREFREE

    def test_bn_row(self):
        fam = family_by_name("bn12")
        # the q consistent with n = q + 1 - t (the 12x^2 variant seen in
        # print is a typo: it fails condition 1 and the f identity)
        assert fam.q == parse_poly("36x^4+36x^3+24x^2+6x+1")
        assert fam.q == fam.n + fam.t - 1
        assert fam.fixed_d == 3
        assert fam.classification is FamilyClassification.LINEAR_TIMES_SQUARE

    def test_all_satisfy_condition_1(self):
        for fam in builtin_catalog():
            assert fam.n == fam.q + 1 - fam.t, fam.name

    def test_all_divide_cyclotomic(self):
        for fam in builtin_catalog():
            target = cyclotomic(fam.k).compose(fam.t - 1)
            assert divides(fam.n, target).divides, fam.name

    def test_f_identities(self):
        for fam in builtin_catalog():
            f = compute_f(fam.t, fam.q)
            assert f == fam.f
            assert f == 4 * fam.n - (fam.t - 2) ** 2, fam.name

    def test_degree_multiple_of_totient(self):
        for fam in builtin_catalog():
            assert fam.n.degree % euler_phi(fam.k) == 0, fam.name

    def test_entries_pass_verify_family(self):
        for entry in builtin_catalog():
            assert verify_family(entry.t, entry.n, entry.q, entry.k, entry.name) == entry

    def test_not_verified_at_run_time(self, monkeypatch):
        expected = builtin_catalog()

        def refuse(poly):
            raise AssertionError("the catalog must not be re-verified at run time")

        monkeypatch.setattr(families, "is_irreducible_over_q", refuse)
        _catalog.cache_clear()
        try:
            assert builtin_catalog() == expected
        finally:
            _catalog.cache_clear()

    def test_unknown_family_raises(self):
        with pytest.raises(KeyError):
            family_by_name("bls24")


class TestVerifyFamily:
    def test_freeman_triple(self):
        desc = verify_family(
            parse_poly("10x^2+5x+3"),
            parse_poly("25x^4+25x^3+15x^2+5x+1"),
            parse_poly("25x^4+25x^3+25x^2+10x+3"),
            10,
        )
        assert not isinstance(desc, list)
        assert desc.classification is FamilyClassification.QUADRATIC_SQUAREFREE
        assert desc.f == parse_poly("15x^2+10x+3")

    def test_bn_triple(self):
        desc = verify_family(
            parse_poly("6x^2+1"),
            parse_poly("36x^4+36x^3+18x^2+6x+1"),
            parse_poly("36x^4+36x^3+24x^2+6x+1"),
            12,
        )
        assert not isinstance(desc, list)
        assert desc.classification is FamilyClassification.LINEAR_TIMES_SQUARE
        assert desc.fixed_d == 3

    def test_perturbed_q_violates_condition_1(self):
        fam = family_by_name("freeman10")
        violations = verify_family(fam.t, fam.n, fam.q + 1, 10)
        assert isinstance(violations, list)
        assert any("condition 1" in v for v in violations)

    def test_reducible_n_flagged(self):
        # t = x + 1, k = 4: Phi_4(x) = x^2 + 1 = n; make n reducible instead
        violations = verify_family(
            parse_poly("x+1"), parse_poly("x^2-1"), parse_poly("x^2+x-1"), 4
        )
        assert isinstance(violations, list)
        assert any("condition 2" in v and "n(x)" in v for v in violations)

    def test_wrong_cyclotomic_divisor(self):
        violations = verify_family(
            parse_poly("x+1"), parse_poly("x^2+2"), parse_poly("x^2+x+2"), 4
        )
        assert isinstance(violations, list)
        assert any("condition 3" in v for v in violations)


class TestIrreducibility:
    @pytest.mark.parametrize(
        "text",
        ["x^2+1", "x^2+x+1", "25x^4+25x^3+15x^2+5x+1", "36x^4+36x^3+18x^2+6x+1", "x^3-2", "12x^2-1"],
    )
    def test_irreducible(self, text):
        assert is_irreducible_over_q(parse_poly(text)) is True

    @pytest.mark.parametrize(
        "text",
        ["x^2-1", "x^2", "x^3+x", "(x^2+x+1)(x^2+2)", "(x^2+1)^2", "6x^2+5x+1", "x^4+4"],
    )
    def test_reducible(self, text):
        assert is_irreducible_over_q(parse_poly(text)) is False

    def test_constants_not_irreducible(self):
        assert is_irreducible_over_q(IntPoly.constant(7)) is False

    def test_rational_root_with_denominator(self):
        # (2x - 1)(x^2 + x + 1): root 1/2 needs the denominator search
        assert is_irreducible_over_q(parse_poly("(2x-1)(x^2+x+1)")) is False

    # _UNFACTORABLE = (10**19 + 51)(10**19 + 33) has no prime factor below
    # the trial-division bound: these are decided without factoring p(0)
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("x^3+1000000x+3", True),
            (f"x^3+x+{_UNFACTORABLE}", True),
            (f"(x-{_UNFACTORABLE})(x^3+x+1)", False),
            (f"(7x-{_UNFACTORABLE})(x^2+1)", False),
        ],
    )
    def test_decided_without_factoring(self, text, expected):
        assert is_irreducible_over_q(parse_poly(text)) is expected

    def test_agrees_with_sympy(self):
        """Random primitive polynomials of degree 1-5, half of them products
        of two random factors so that reducible ones, with roots p/q for
        q > 1 among them, are common."""
        sympy = pytest.importorskip("sympy")
        rng = random.Random(20)

        def random_poly(degree):
            low = [rng.randint(-6, 6) for _ in range(degree)]
            return IntPoly.from_coeffs(low + [rng.choice([-1, 1]) * rng.randint(1, 6)])

        x = sympy.Symbol("x")
        for _ in range(400):
            degree = rng.randint(1, 5)
            if degree > 1 and rng.random() < 0.5:
                split = rng.randint(1, degree - 1)
                p = random_poly(split) * random_poly(degree - split)
            else:
                p = random_poly(degree)
            p = p.primitive_part()
            want = sympy.Poly(list(reversed(p.coeffs)), x).is_irreducible
            assert is_irreducible_over_q(p) is want, p


class TestAnalyzer:
    def test_freeman_passes_all_checks(self):
        rep = analyze_feasibility(
            parse_poly("10x^2+5x+3"), parse_poly("25x^4+25x^3+15x^2+5x+1"), 10
        )
        assert rep.degree_check and rep.balance_check and rep.leading_coeff_check
        assert rep.f_classification is FamilyClassification.QUADRATIC_SQUAREFREE
        assert rep.verdict is Verdict.UNKNOWN_NEEDS_SOLUTION

    def test_bn_is_family_by_square(self):
        rep = analyze_feasibility(
            parse_poly("6x^2+1"), parse_poly("36x^4+36x^3+18x^2+6x+1"), 12
        )
        assert rep.verdict is Verdict.FAMILY_BY_PROP_SQUARE

    def test_linear_t_k10_is_no_family(self):
        t = parse_poly("x+2")
        n = cyclotomic(10).compose(t - 1).primitive_part()
        # independent hand expansion: 4 Phi_10(x+1) - x^2
        f_expected = parse_poly("4x^4+12x^3+15x^2+8x+4")
        rep = analyze_feasibility(t, n, 10)
        assert compute_f(t, n + t - 1) == f_expected
        assert poly_gcd(f_expected, f_expected.derivative()).degree == 0  # squarefree
        assert rep.f_classification is FamilyClassification.INFEASIBLE_SIEGEL
        assert rep.verdict is Verdict.NO_FAMILY

    def test_square_times_quadratic_flagged(self):
        # synthetic f = (x+1)^2 (2x^2+3): not a real family, classification only
        from pforge.families import classify_f

        f = parse_poly("(x+1)^2(2x^2+3)")
        classification, g, h, content = classify_f(f)
        assert classification is FamilyClassification.SQUARE_TIMES_QUADRATIC
        assert g == parse_poly("x+1") and h == parse_poly("2x^2+3")

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_prop_square_verdict_matches_fixed_d(self, name):
        """The verdict is FAMILY_BY_PROP_SQUARE exactly when verify_family
        gives the family a fixed D: on the catalog row and on the row under
        x -> -x and x -> -x - 1, which keep the family conditions (larger
        shifts grow the coefficients that the quartics' factor search walks)."""
        fam = family_by_name(name)
        for a, b in [(1, 0), (-1, 0), (-1, -1)]:
            sub = IntPoly.from_coeffs([b, a])
            t, n = fam.t.compose(sub), fam.n.compose(sub)
            desc = verify_family(t, n, n + t - 1, fam.k)
            assert not isinstance(desc, list), (a, b, desc)
            verdict = analyze_feasibility(t, n, fam.k).verdict
            assert (verdict is Verdict.FAMILY_BY_PROP_SQUARE) == (desc.fixed_d is not None)
            assert (desc.fixed_d is not None) == (name == "bn12")

    def test_prop_square_verdict_on_random_square_forms(self):
        """t = 2s and q = s^2 + (Ax + D) g^2 make f = 4 (Ax + D) g^2, with
        small coefficients, so the constant factors.  Such candidates seldom
        meet the family conditions, so the verdict is compared with
        _describe, the descriptor verify_family returns when they hold."""
        rng = random.Random(30)

        def poly(degree, bound):
            return IntPoly.from_coeffs(
                [rng.randint(-bound, bound) for _ in range(degree)] + [rng.randint(1, bound)]
            )

        verdicts = set()
        for _ in range(300):
            s, g = poly(rng.randint(1, 3), 9), poly(rng.randint(0, 2), 9)
            linear = IntPoly.from_coeffs([rng.randint(-10**4, 10**4), rng.choice([0, 0, 1, -3])])
            if linear.is_zero:
                continue
            t, q = 2 * s, s * s + linear * g * g
            n = q + 1 - t
            if n.is_zero:
                continue
            k = rng.randint(1, 12)
            report = analyze_feasibility(t, n, k)
            desc = families._describe(t, n, q, k, "random")
            assert report.f_classification is desc.classification
            assert (report.verdict is Verdict.FAMILY_BY_PROP_SQUARE) == (
                desc.fixed_d is not None
            ), (t, n)
            verdicts.add(report.verdict)
        assert {Verdict.FAMILY_BY_PROP_SQUARE, Verdict.UNKNOWN_NEEDS_SOLUTION} <= verdicts

    def test_mnt_branch_analysis(self):
        fam = family_by_name("mnt6+")
        rep = analyze_feasibility(fam.t, fam.n, 6)
        assert rep.degree_check
        assert rep.f_classification is FamilyClassification.QUADRATIC_SQUAREFREE
        assert rep.verdict is Verdict.UNKNOWN_NEEDS_SOLUTION


# The derived D classes of every norm-equation row, and how many x with
# |x| <= 10^4 give q(x), n(x) prime (PRIME_OK without a D).
_D_CLASSES = {
    "mnt3+": ((24, (19,)), 816),
    "mnt3-": ((24, (19,)), 816),
    "mnt4a": ((24, (3, 11, 19)), 232),
    "mnt4b": ((24, (3, 11, 19)), 232),
    "mnt6+": ((24, (3, 11, 19)), 385),
    "mnt6-": ((24, (3, 11, 19)), 385),
    "freeman10": ((120, (43, 67)), 47),
}


class TestDClasses:
    def test_every_norm_equation_row_is_pinned(self):
        assert sorted(f.name for f in builtin_catalog() if f.fixed_d is None) == sorted(_D_CLASSES)

    @pytest.mark.parametrize("name", sorted(_D_CLASSES))
    def test_pinned(self, name):
        assert d_classes(family_by_name(name)) == _D_CLASSES[name][0]

    @pytest.mark.parametrize("name", sorted(_D_CLASSES))
    def test_hold_the_d_of_every_small_record(self, name):
        """Brute force: at each |x| <= 10^4 with q(x), n(x) prime, the
        square-free part of f(x), the D of the point, lies in the classes."""
        family = family_by_name(name)
        modulus, residues = d_classes(family)
        records = 0
        for x in range(-10**4, 10**4 + 1):
            if instantiate(family, x).status is RecordStatus.PRIME_OK:
                d_value, _, complete = squarefree_decompose(family.f.evaluate(x))
                assert complete and d_value % modulus in residues, (x, d_value)
                records += 1
        assert records == _D_CLASSES[name][1]


class TestDiscriminantFilter:
    @pytest.mark.parametrize("d_value", [43, 67, 163, 1666603, 579003643])
    def test_accepted(self, d_value):
        assert filter_discriminant_k10(d_value).accepted

    def test_congruence_reject(self):
        decision = filter_discriminant_k10(44)
        assert not decision.accepted and "mod 120" in decision.reason

    def test_square_factor_reject(self):
        # 3283 = 7^2 * 67 = 43 mod 120, survives the congruence sieve
        assert 3283 % 120 == 43 and 3283 == 49 * 67
        decision = filter_discriminant_k10(3283)
        assert not decision.accepted and "square-free" in decision.reason

    def test_nonpositive_reject(self):
        assert not filter_discriminant_k10(0).accepted

    def test_congruence_classes_imply_coprimality(self):
        for residue in (43, 67):
            assert math.gcd(residue, 15) == 1


class TestInstantiate:
    def test_freeman_small_curve(self):
        fam = family_by_name("freeman10")
        record = instantiate(fam, -2, 43)
        assert record.status is RecordStatus.PRIME_OK
        assert (record.q, record.n, record.t) == (283, 251, 33)
        assert record.n == record.q + 1 - record.t
        assert record.t * record.t <= 4 * record.q  # Hasse

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_search_and_verify_agree(self, name):
        """instantiate (every search candidate) and verify_record give the
        same whole record, reason text included, for any x and D."""
        fam = family_by_name(name)
        d_values = [fam.fixed_d] if fam.fixed_d is not None else [43, 44, 1666603]
        statuses = set()
        for d_value in d_values:
            for x0 in range(-60, 61):
                record = instantiate(fam, x0, d_value)
                pending = record._replace(status=RecordStatus.PENDING, reason=None)
                assert verify_record(pending) == record, (x0, d_value)
                statuses.add(record.status)
        assert statuses == {RecordStatus.PRIME_OK, RecordStatus.REJECTED}

    def test_freeman_x0_zero_rejected(self):
        fam = family_by_name("freeman10")
        record = instantiate(fam, 0)
        assert record.status is RecordStatus.REJECTED
        assert "n(0)" in record.reason

    def test_bn_cm_equation_automatic(self):
        fam = family_by_name("bn12")
        for x0 in (-5, -1, 1, 7, 100):
            f_v = 4 * fam.q.evaluate(x0) - fam.t.evaluate(x0) ** 2
            y = 6 * x0 * x0 + 4 * x0 + 1
            assert f_v == 3 * y * y
            record = instantiate(fam, x0)  # fixed_d = 3 applied automatically
            assert record.d == 3
            if record.status is RecordStatus.PRIME_OK:
                assert is_probable_prime(record.q) and is_probable_prime(record.n)

    def test_wrong_d_rejected_not_raised(self):
        fam = family_by_name("freeman10")
        record = instantiate(fam, -2, 44)  # f(-2) = 43, not divisible by 44
        assert record.status is RecordStatus.REJECTED
        assert "CM equation" in record.reason

    def test_published_example_values(self):
        fam = family_by_name("freeman10")
        record = instantiate(fam, 66980436970, EXAMPLE_149.d)
        assert record.status is RecordStatus.PRIME_OK
        assert record.q == EXAMPLE_149.q and record.n == EXAMPLE_149.n
