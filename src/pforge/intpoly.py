"""Exact univariate polynomial arithmetic over the integers.

Dense representation, constant term first.  Everything the rest of the
package needs lives here: parsing/formatting of the canonical text form,
evaluation, composition, cyclotomic polynomials, divisibility over the
rationals, the square-part decomposition f = content * g**2 * h, and the
integer solutions of p(x) = value by bisection.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from fractions import Fraction

MAX_CYCLOTOMIC_INDEX = 10**4
MAX_PARSE_EXPONENT = 512


class PolyParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class IntPoly:
    """Integer-coefficient polynomial; coeffs[i] is the coefficient of x**i.

    Trailing zeros are stripped, so the zero polynomial has empty coeffs
    and every nonzero polynomial has a nonzero leading coefficient.
    Immutable and hashable; not a tuple, so + and * stay polynomial.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]):
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name: str, value=None):
        raise AttributeError(f"IntPoly is immutable: cannot set or delete {name!r}")
    __delattr__ = __setattr__

    def __eq__(self, other):
        return self.coeffs == other.coeffs if isinstance(other, IntPoly) else NotImplemented

    def __hash__(self) -> int:
        return hash((self.coeffs,))

    def __reduce__(self):
        return IntPoly, (self.coeffs,)

    @staticmethod
    def from_coeffs(coeffs) -> IntPoly:
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        return IntPoly(tuple(int(c) for c in cs))

    @staticmethod
    def zero() -> IntPoly:
        return IntPoly(())

    @staticmethod
    def constant(c: int) -> IntPoly:
        return IntPoly.from_coeffs([c])

    @staticmethod
    def x() -> IntPoly:
        return IntPoly((0, 1))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading_coefficient(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def coefficient(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    @property
    def content(self) -> int:
        """gcd of the coefficients (0 for the zero polynomial)."""
        return math.gcd(*self.coeffs) if self.coeffs else 0

    def primitive_part(self) -> IntPoly:
        """self divided by its content, sign-normalized to positive lead."""
        if self.is_zero:
            return self
        c = self.content
        if self.leading_coefficient < 0:
            c = -c
        return IntPoly(tuple(x // c for x in self.coeffs))

    def __add__(self, other: IntPoly | int) -> IntPoly:
        if isinstance(other, int):
            other = IntPoly.constant(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPoly.from_coeffs(
            [self.coefficient(i) + other.coefficient(i) for i in range(n)]
        )

    __radd__ = __add__

    def __neg__(self) -> IntPoly:
        return IntPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: IntPoly | int) -> IntPoly:
        if isinstance(other, int):
            other = IntPoly.constant(other)
        return self + (-other)

    def __rsub__(self, other: int) -> IntPoly:
        return (-self) + other

    def __mul__(self, other: IntPoly | int) -> IntPoly:
        if isinstance(other, int):
            return IntPoly.from_coeffs([c * other for c in self.coeffs])
        if self.is_zero or other.is_zero:
            return IntPoly.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(tuple(out))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> IntPoly:
        if e < 0:
            raise ValueError("negative polynomial power")
        result = IntPoly.constant(1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def evaluate(self, x0: int) -> int:
        """Exact value at an integer point (Horner)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x0 + c
        return acc

    def compose(self, inner: IntPoly) -> IntPoly:
        """self(inner(x)), exactly."""
        acc = IntPoly.zero()
        for c in reversed(self.coeffs):
            acc = acc * inner + c
        return acc

    def derivative(self) -> IntPoly:
        return IntPoly.from_coeffs([i * c for i, c in enumerate(self.coeffs)][1:])

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                var = "x" if i == 1 else f"x^{i}"
                body = var if mag == 1 else f"{mag}{var}"
            parts.append(sign + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"IntPoly({self})"


def parse_poly(text: str) -> IntPoly:
    """Parse the canonical polynomial grammar.

    Signed integer monomials in one variable x, operators + - * ^ and
    parentheses; juxtaposition multiplies (10x^2); whitespace ignored;
    the unicode minus sign is accepted.
    """
    src = text.replace("−", "-")
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < len(src) and src[pos].isspace():
            pos += 1

    def peek() -> str:
        skip_ws()
        return src[pos] if pos < len(src) else ""

    def parse_int() -> int:
        nonlocal pos
        skip_ws()
        start = pos
        while pos < len(src) and src[pos].isdigit():
            pos += 1
        if pos == start:
            raise PolyParseError("expected an integer", start)
        return int(src[start:pos])

    def parse_atom() -> IntPoly:
        nonlocal pos
        ch = peek()
        if ch.isdigit():
            return IntPoly.constant(parse_int())
        if ch == "x":
            pos += 1
            return IntPoly.x()
        if ch == "(":
            pos += 1
            inner = parse_expr()
            if peek() != ")":
                raise PolyParseError("expected ')'", pos)
            pos += 1
            return inner
        raise PolyParseError(f"unexpected {ch!r}" if ch else "unexpected end of input", pos)

    def parse_power() -> IntPoly:
        nonlocal pos
        base = parse_atom()
        if peek() == "^":
            pos += 1
            at = pos
            if peek() in ("+", "-"):
                raise PolyParseError("exponent must be a non-negative integer", pos)
            e = parse_int()
            if e > MAX_PARSE_EXPONENT:
                raise PolyParseError(f"exponent {e} exceeds cap {MAX_PARSE_EXPONENT}", at)
            base = base**e
        return base

    def parse_unary() -> IntPoly:
        nonlocal pos
        sign = 1
        while peek() in ("+", "-"):
            if src[pos] == "-":
                sign = -sign
            pos += 1
        p = parse_power()
        return p if sign > 0 else -p

    def parse_term() -> IntPoly:
        nonlocal pos
        acc = parse_unary()
        while True:
            ch = peek()
            if ch == "*":
                pos += 1
                acc = acc * parse_unary()
            elif ch.isdigit() or ch == "x" or ch == "(":
                acc = acc * parse_power()
            else:
                return acc

    def parse_expr() -> IntPoly:
        nonlocal pos
        acc = parse_term()
        while peek() in ("+", "-"):
            negative = src[pos] == "-"
            pos += 1
            t = parse_term()
            acc = acc - t if negative else acc + t
        return acc

    try:
        result = parse_expr()
    except RecursionError:
        raise PolyParseError("parentheses nested too deeply", pos) from None
    if peek():
        raise PolyParseError(f"unexpected {src[pos]!r}", pos)
    return result


def pseudo_divmod(p: IntPoly, d: IntPoly) -> tuple[IntPoly, IntPoly, int]:
    """Fraction-free long division: returns (quo, rem, L) with
    L*p = d*quo + rem and deg rem < deg d, where L is a power of lc(d).

    rem, quo and L are scaled by lc(d) only on a step whose leading
    coefficient lc(d) does not divide, so L is 1 whenever d divides p in
    Z[x], and in particular whenever d is monic."""
    if d.is_zero:
        raise ValueError("pseudo-division by the zero polynomial")
    rem, dc, lam, mult = list(p.coeffs), d.coeffs, d.leading_coefficient, 1
    quo = [0] * max(len(rem) - len(dc) + 1, 0)
    for k in range(len(quo) - 1, -1, -1):
        lead = rem[k + len(dc) - 1]
        c, r = divmod(lead, lam)
        if r:
            rem = [x * lam for x in rem]
            quo = [x * lam for x in quo]
            mult *= lam
            c = lead
        quo[k] = c
        if c:
            for i, b in enumerate(dc):
                rem[k + i] -= c * b
    return IntPoly.from_coeffs(quo), IntPoly.from_coeffs(rem), mult


def exact_div(p: IntPoly, d: IntPoly) -> IntPoly:
    """p / d when d divides p in Z[x]; ValueError otherwise."""
    quo, rem, mult = pseudo_divmod(p, d)
    if not rem.is_zero or mult != 1:
        raise ValueError(f"{p} is not divisible by {d} in Z[x]")
    return quo


class DivisionResult(NamedTuple):
    quotient: IntPoly | None
    divides: bool
    content: Fraction


def divides(d: IntPoly, p: IntPoly) -> DivisionResult:
    """Test whether d divides p over the rationals.

    On success with an integer quotient c, returns (c, True, 1).  With a
    rational quotient, returns the primitive integer form together with
    the rational content, so p = d * content * quotient.
    """
    from fractions import Fraction
    quo, rem, lam = pseudo_divmod(p, d)
    if not rem.is_zero:
        return DivisionResult(None, False, Fraction(1))
    if lam == 1:
        return DivisionResult(quo, True, Fraction(1))
    content = Fraction(quo.content if quo.leading_coefficient > 0 else -quo.content, lam)
    return DivisionResult(quo.primitive_part(), True, content)


@lru_cache(maxsize=None)
def cyclotomic(k: int) -> IntPoly:
    """The k-th cyclotomic polynomial, by exact division of x**k - 1 by
    the cyclotomic polynomials of the proper divisors of k."""
    if k < 1:
        raise ValueError(f"cyclotomic index must be >= 1, got {k}")
    if k > MAX_CYCLOTOMIC_INDEX:
        raise ValueError(f"cyclotomic index {k} exceeds cap {MAX_CYCLOTOMIC_INDEX}")
    poly = IntPoly.from_coeffs([-1] + [0] * (k - 1) + [1])
    for d in range(1, k):
        if k % d == 0:
            poly = exact_div(poly, cyclotomic(d))
    return poly


def poly_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive gcd in Z[x] via a primitive pseudo-remainder sequence."""
    a, b = a.primitive_part(), b.primitive_part()
    if a.degree < b.degree:
        a, b = b, a
    while not b.is_zero:
        _, rem, _ = pseudo_divmod(a, b)
        a, b = b, rem.primitive_part()
    return a


def squarefree_factorization(p: IntPoly) -> list[tuple[IntPoly, int]]:
    """Yun's algorithm on a primitive polynomial: p = prod a_i ** i with
    the a_i squarefree, pairwise coprime, primitive."""
    if p.is_zero:
        raise ValueError("squarefree factorization of zero")
    if p.degree < 1:
        return []
    g = poly_gcd(p, p.derivative())
    if g.degree == 0:
        return [(p, 1)]
    out = []
    c = exact_div(p, g)
    d = exact_div(p.derivative(), g) - c.derivative()
    i = 1
    while c.degree > 0:
        a = poly_gcd(c, d)
        if a.degree > 0:
            out.append((a, i))
        c_next = exact_div(c, a)
        d = exact_div(d, a) - c_next.derivative()
        c = c_next
        i += 1
    return out


def classify_square_part(f: IntPoly) -> tuple[IntPoly, IntPoly, int]:
    """Write f = content * g**2 * h with h primitive squarefree, g primitive,
    content a positive integer (any sign lives in h)."""
    if f.is_zero:
        raise ValueError("cannot decompose the zero polynomial")
    content = f.content
    sign = -1 if f.leading_coefficient < 0 else 1
    prim = f.primitive_part()
    g = IntPoly.constant(1)
    h = IntPoly.constant(1)
    for a, mult in squarefree_factorization(prim):
        if mult // 2:
            g = g * a ** (mult // 2)
        if mult % 2:
            h = h * a
    return g, h * sign, content


def _floors(p: IntPoly, value: int) -> list[int]:
    """Ascending integers, some extra, holding floor(r) for every real r with
    p(r) = value (deg p >= 1).  From the linear derivative of p up, each one
    divided by its content: a level's floors, its cuts, hold the next level's
    roots in [c, c + 1) and bound runs [c + 1, c'] where it is strictly
    monotone, bisected once each within its Cauchy bound, beyond which no
    floor is kept."""
    chain = [(p, value)]
    while chain[-1][0].degree > 1:
        chain.append((chain[-1][0].derivative().primitive_part(), 0))
    cuts: list[int] = []
    for q, target in reversed(chain):
        *low, top = (q.coeffs[0] - target, *q.coeffs[1:])
        bound = 2 + max(map(abs, low)) // abs(top)
        floors = set(cuts)
        for lo, hi in zip([-bound] + [c + 1 for c in cuts], cuts + [bound]):
            lo, hi = max(lo, -bound), min(hi, bound)
            sign = 1 if q.evaluate(hi) >= q.evaluate(lo) else -1
            while lo < hi:
                mid = (lo + hi + 1) // 2
                if sign * (q.evaluate(mid) - target) <= 0:
                    lo = mid
                else:
                    hi = mid - 1
            floors.add(lo)
        cuts = sorted(x for x in floors if -bound <= x <= bound)
    return cuts


def integer_preimages(p: IntPoly, value: int) -> list[int]:
    """Every integer x with p(x) = value, ascending, for p of degree >= 1."""
    return [x for x in _floors(p, value) if p.evaluate(x) == value]
