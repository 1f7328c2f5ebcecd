import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pforge.intpoly import (
    IntPoly,
    PolyParseError,
    classify_square_part,
    cyclotomic,
    divides,
    exact_div,
    parse_poly,
    poly_gcd,
    pseudo_divmod,
    squarefree_factorization,
)

small_polys = st.lists(st.integers(min_value=-50, max_value=50), min_size=0, max_size=6).map(
    IntPoly.from_coeffs
)
nonzero_polys = small_polys.filter(lambda p: not p.is_zero)


class TestParsing:
    @pytest.mark.parametrize(
        "text,coeffs",
        [
            ("10x^2+5x+3", (3, 5, 10)),
            ("0", ()),
            ("(x+1)^2", (1, 2, 1)),
            ("25x^4+25x^3+15x^2+5x+1", (1, 5, 15, 25, 25)),
            ("x", (0, 1)),
            ("-x", (0, -1)),
            ("3*(6x^2+4x+1)^2", (3, 24, 84, 144, 108)),
            ("3(6x^2+4x+1)^2", (3, 24, 84, 144, 108)),
            ("x^2 - 2x + 1", (1, -2, 1)),
            ("−x + 5", (5, -1)),  # unicode minus
            ("2^3", (8,)),
            ("7", (7,)),
            ("x - x", ()),
        ],
    )
    def test_examples(self, text, coeffs):
        assert parse_poly(text).coeffs == coeffs

    @pytest.mark.parametrize("bad", ["10x^", "x^-1", "x +", "(x+1", "x)", "y+1", "3..5", ""])
    def test_errors_carry_position(self, bad):
        with pytest.raises(PolyParseError) as err:
            parse_poly(bad)
        assert err.value.position >= 0

    def test_exponent_cap(self):
        with pytest.raises(PolyParseError):
            parse_poly("x^100000")

    @pytest.mark.parametrize("opening, shallow", [("(", "x"), ("x(", "x^21")])
    def test_deep_nesting_is_a_parse_error(self, opening, shallow):
        assert parse_poly(opening * 20 + "x" + ")" * 20) == parse_poly(shallow)
        with pytest.raises(PolyParseError, match="nested too deeply"):
            parse_poly(opening * 1000 + "x" + ")" * 1000)

    @given(small_polys)
    def test_format_parse_round_trip(self, p):
        assert parse_poly(str(p)) == p

    def test_canonical_format(self):
        assert str(parse_poly("3 + 5x + 10x^2")) == "10x^2+5x+3"
        assert str(IntPoly.zero()) == "0"
        assert str(parse_poly("x^2-1")) == "x^2-1"
        assert str(parse_poly("-x^3+x")) == "-x^3+x"


class TestArithmetic:
    def test_evaluate_constant_term(self):
        q = parse_poly("25x^4+25x^3+25x^2+10x+3")
        assert q.evaluate(0) == 3

    def test_evaluate_zero_poly(self):
        assert IntPoly.zero().evaluate(7) == 0

    def test_evaluate_freeman_f_at_one(self):
        assert parse_poly("15x^2+10x+3").evaluate(1) == 28

    def test_compose_square_of_linear(self):
        assert parse_poly("x^2").compose(parse_poly("x+1")) == parse_poly("x^2+2x+1")

    def test_compose_identity(self):
        p = parse_poly("7x^3-2x+5")
        assert p.compose(IntPoly.x()) == p

    def test_compose_degree(self):
        outer, inner = parse_poly("x^4-x^3+x^2-x+1"), parse_poly("10x^2+5x+2")
        assert outer.compose(inner).degree == 8

    @given(small_polys, small_polys, st.integers(min_value=-100, max_value=100))
    @settings(max_examples=200)
    def test_compose_evaluate_commute(self, outer, inner, x0):
        assert outer.compose(inner).evaluate(x0) == outer.evaluate(inner.evaluate(x0))

    @given(small_polys, small_polys)
    def test_mul_degree_and_commutativity(self, p, q):
        assert p * q == q * p
        if not p.is_zero and not q.is_zero:
            assert (p * q).degree == p.degree + q.degree


@lru_cache(maxsize=None)
def cyclotomic_oracle(k):
    """Independent route: raw-list division of x^k - 1 by recursively built
    proper-divisor cyclotomics."""

    def list_div(num, den):
        num = num[:]
        out = [0] * (len(num) - len(den) + 1)
        while len(num) >= len(den) and any(num):
            c, r = divmod(num[-1], den[-1])
            assert r == 0
            out[len(num) - len(den)] = c
            for i, b in enumerate(den):
                num[len(num) - len(den) + i] -= c * b
            while num and num[-1] == 0:
                num.pop()
        assert not any(num)
        return out

    if k == 1:
        return [-1, 1]
    poly = [-1] + [0] * (k - 1) + [1]
    for d in range(1, k):
        if k % d == 0:
            poly = list_div(poly, cyclotomic_oracle(d))
    return poly


class TestCyclotomic:
    def test_first(self):
        assert cyclotomic(1) == parse_poly("x-1")
        assert cyclotomic(2) == parse_poly("x+1")

    def test_phi_10(self):
        assert cyclotomic(10).coeffs == tuple(cyclotomic_oracle(10)) == (1, -1, 1, -1, 1)

    def test_phi_12(self):
        assert cyclotomic(12).coeffs == tuple(cyclotomic_oracle(12)) == (1, 0, -1, 0, 1)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            cyclotomic(0)

    def test_product_identity_to_100(self):
        for k in range(1, 101):
            product = IntPoly.constant(1)
            for d in range(1, k + 1):
                if k % d == 0:
                    product = product * cyclotomic(d)
            expected = IntPoly.from_coeffs([-1] + [0] * (k - 1) + [1])
            assert product == expected, k

    def test_matches_oracle_to_400(self):
        for k in range(1, 401):
            assert cyclotomic(k).coeffs == tuple(cyclotomic_oracle(k)), k

    def test_degree_is_totient(self):
        from pforge.numtheory import euler_phi

        for k in range(1, 60):
            assert cyclotomic(k).degree == euler_phi(k)


class TestDivision:
    def test_simple_quotient(self):
        result = divides(parse_poly("x-1"), parse_poly("x^2-1"))
        assert result.divides and result.quotient == parse_poly("x+1")
        assert result.content == 1

    def test_freeman_cofactor(self):
        t = parse_poly("10x^2+5x+3")
        n = parse_poly("25x^4+25x^3+15x^2+5x+1")
        target = cyclotomic(10).compose(t - 1)
        result = divides(n, target)
        assert result.divides
        assert result.quotient.degree == 4
        assert result.quotient * n == target

    def test_non_divisor(self):
        result = divides(parse_poly("x+1"), parse_poly("x^2+1"))
        assert result == (None, False, Fraction(1))

    def test_rational_quotient_reported(self):
        result = divides(parse_poly("3x"), parse_poly("x^2"))
        assert result.divides
        assert result.quotient == parse_poly("x")
        assert result.content == Fraction(1, 3)

    def test_constant_cofactor_mnt3(self):
        # Phi_3(t-1) = 3 n(x) for t = 6x - 1
        t = parse_poly("6x-1")
        n = parse_poly("12x^2-6x+1")
        target = cyclotomic(3).compose(t - 1)
        result = divides(n, target)
        assert result.divides and result.quotient == IntPoly.constant(3)

    def test_zero_divisor_rejected(self):
        with pytest.raises(ValueError):
            divides(IntPoly.zero(), parse_poly("x"))

    @given(nonzero_polys, small_polys)
    @settings(max_examples=200)
    def test_pseudo_divmod_invariant(self, d, p):
        quo, rem, mult = pseudo_divmod(p, d)
        assert p * mult == d * quo + rem
        assert rem.is_zero or rem.degree < d.degree
        lam = abs(d.leading_coefficient)
        while lam > 1 and mult % lam == 0:
            mult //= lam
        assert abs(mult) == 1  # a power of lc(d)

    @given(nonzero_polys, small_polys)
    @settings(max_examples=200)
    def test_no_scaling_on_exact_division(self, d, c):
        """L stays 1 when d divides p in Z[x], and whenever d is monic."""
        assert pseudo_divmod(d * c, d) == (c, IntPoly.zero(), 1)
        monic = d + IntPoly.from_coeffs([0] * (d.degree + 1) + [1])
        assert pseudo_divmod(c, monic)[2] == 1

    def test_against_sympy_over_q(self):
        """quo/L and rem/L are the quotient and remainder over Q."""
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")

        def as_fractions(poly):
            cs = [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]
            while cs and cs[-1] == 0:
                cs.pop()
            return cs

        def as_sympy(poly):
            return sympy.Poly(list(reversed(poly.coeffs)) or [0], x, domain=sympy.QQ)

        rng = random.Random(2006)
        for trial in range(400):
            low = [rng.randint(-6, 6) for _ in range(rng.randint(0, 4))]
            d = IntPoly.from_coeffs(low + [rng.choice((-4, -3, -1, 1, 2, 5))])
            c = IntPoly.from_coeffs([rng.randint(-6, 6) for _ in range(rng.randint(0, 5))])
            p = d * c if trial % 2 else c
            sym_quo, sym_rem = sympy.div(as_sympy(p), as_sympy(d), domain=sympy.QQ)
            quo_q, rem_q = as_fractions(sym_quo), as_fractions(sym_rem)

            quo, rem, mult = pseudo_divmod(p, d)
            assert [Fraction(v, mult) for v in quo.coeffs] == quo_q, (p, d)
            assert [Fraction(v, mult) for v in rem.coeffs] == rem_q, (p, d)

            result = divides(d, p)
            assert result.divides == (not rem_q), (p, d)
            if result.divides:
                assert [result.content * v for v in result.quotient.coeffs] == quo_q, (p, d)
            integral = not rem_q and all(v.denominator == 1 for v in quo_q)
            if integral:
                assert exact_div(p, d).coeffs == tuple(quo_q), (p, d)
            else:
                with pytest.raises(ValueError):
                    exact_div(p, d)

    @given(nonzero_polys, nonzero_polys)
    @settings(max_examples=200)
    def test_divides_of_product(self, d, c):
        result = divides(d, d * c)
        assert result.divides
        # reassemble p = d * content * quotient
        recovered = d * result.quotient
        if result.content != 1:
            num, den = result.content.numerator, result.content.denominator
            recovered = IntPoly.from_coeffs([x * num // den for x in recovered.coeffs])
        assert recovered == d * c

    @given(nonzero_polys, small_polys, st.integers(min_value=-50, max_value=50))
    @settings(max_examples=200)
    def test_divisibility_pointwise(self, d, p, x0):
        # pointwise divisibility needs the quotient to be integral
        result = divides(d, p)
        if result.divides and result.content == 1 and d.evaluate(x0) != 0:
            assert p.evaluate(x0) % d.evaluate(x0) == 0


class TestSquarePart:
    def test_bn_square_form(self):
        f = parse_poly("108x^4+144x^3+84x^2+24x+3")
        g, h, content = classify_square_part(f)
        assert g == parse_poly("6x^2+4x+1")
        assert h == IntPoly.constant(1)
        assert content == 3

    def test_freeman_squarefree(self):
        f = parse_poly("15x^2+10x+3")
        g, h, content = classify_square_part(f)
        assert (g, h, content) == (IntPoly.constant(1), f, 1)

    def test_x_squared(self):
        g, h, content = classify_square_part(parse_poly("x^2"))
        assert (g, h, content) == (parse_poly("x"), IntPoly.constant(1), 1)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            classify_square_part(IntPoly.zero())

    @given(nonzero_polys)
    @settings(max_examples=300)
    def test_reassembly_and_squarefree(self, f):
        g, h, content = classify_square_part(f)
        assert content * (g * g * h) == f
        assert content > 0
        if h.degree >= 1:
            assert poly_gcd(h, h.derivative()).degree == 0

    @given(nonzero_polys, nonzero_polys)
    @settings(max_examples=200)
    def test_planted_square(self, g, h):
        f = g * g * h
        got_g, got_h, content = classify_square_part(f)
        assert content * (got_g * got_g * got_h) == f
        # the planted square must be absorbed: got_g is a multiple of the
        # squarefree radical of g
        if g.degree >= 1:
            radical = IntPoly.constant(1)
            for factor, _ in squarefree_factorization(g.primitive_part()):
                radical = radical * factor
            assert divides(radical, got_g).divides

    def test_gcd_basics(self):
        a = parse_poly("x^2-1") * parse_poly("x+2")
        b = parse_poly("x^2-1") * parse_poly("x+3")
        assert poly_gcd(a, b) == parse_poly("x^2-1")

    def test_exact_div(self):
        assert exact_div(parse_poly("x^2-1"), parse_poly("x-1")) == parse_poly("x+1")
        with pytest.raises(ValueError):
            exact_div(parse_poly("x^2+1"), parse_poly("x+1"))
        with pytest.raises(ValueError):  # the quotient x/3 is not in Z[x]
            exact_div(parse_poly("x^2"), parse_poly("3x"))
