"""Polynomial curve families: the built-in catalog (MNT k=3/4/6, the k=10
family, BN k=12), the family-condition verifier and its irreducibility
test (a rational root by integer root isolation, then from degree 4 a capped
quadratic-factor search, the one part that can answer None), f = 4q - t**2
classification, the feasibility analyzer, the admissible D classes of a
family, its small-prime sieve table, and the k=10 discriminant filter."""

from __future__ import annotations

import enum
import math
from functools import lru_cache
from typing import NamedTuple

from .curve import CurveRecord, verify_record
from .intpoly import (
    IntPoly, classify_square_part, cyclotomic, divides, integer_preimages, parse_poly,
)
from .numtheory import _primes_below, divisors, euler_phi, factorize, squarefree_decompose

FACTOR_SEARCH_CAP = 10**6
# search.py drops a fixed-D x at which q(x) or n(x) has a prime factor below this
SIEVE_LIMIT = 100


class FamilyClassification(enum.Enum):
    QUADRATIC_SQUAREFREE = "QUADRATIC_SQUAREFREE"
    LINEAR_TIMES_SQUARE = "LINEAR_TIMES_SQUARE"
    SQUARE_TIMES_QUADRATIC = "SQUARE_TIMES_QUADRATIC"
    INFEASIBLE_SIEGEL = "INFEASIBLE_SIEGEL"


class Verdict(enum.Enum):
    FAMILY_BY_THM2 = "FAMILY_BY_THM2"
    FAMILY_BY_PROP_SQUARE = "FAMILY_BY_PROP_SQUARE"
    NO_FAMILY = "NO_FAMILY"
    UNKNOWN_NEEDS_SOLUTION = "UNKNOWN_NEEDS_SOLUTION"


class FamilyDescriptor(NamedTuple):
    name: str
    k: int
    t: IntPoly
    n: IntPoly
    q: IntPoly
    f: IntPoly
    classification: FamilyClassification
    fixed_d: int | None = None


class FeasibilityReport(NamedTuple):
    degree_check: bool
    balance_check: bool
    leading_coeff_check: bool
    f_classification: FamilyClassification
    verdict: Verdict


class FilterDecision(NamedTuple):
    accepted: bool
    reason: str | None


def compute_f(t: IntPoly, q: IntPoly) -> IntPoly:
    """f = 4q - t**2; identically equal to 4n - (t-2)**2 when n = q+1-t."""
    return 4 * q - t * t


def _has_rational_root(p: IntPoly) -> bool:
    """Whether p, of degree >= 1, has a rational root: r is one exactly when
    lc * r is an integer root of the monic lc**(d-1) * p(y / lc)."""
    lc, d = p.leading_coefficient, p.degree
    monic = IntPoly(tuple(c * lc ** (d - 1 - i) for i, c in enumerate(p.coeffs[:-1])) + (1,))
    return bool(integer_preimages(monic, 0))


def _quadratic_factor_exists(p: IntPoly) -> bool | None:
    """Search for a degree-2 factor of a primitive polynomial by bounded
    coefficient enumeration (Mignotte-style bound on the middle term);
    None when lc or p(0) does not factor or the search passes its cap."""
    try:
        lead_divs, const_divs = divisors(p.leading_coefficient), divisors(abs(p.coefficient(0)))
    except ValueError:
        return None
    norm2 = math.isqrt(sum(c * c for c in p.coeffs)) + 1
    v_bound = 2 * norm2
    if len(lead_divs) * len(const_divs) * (2 * v_bound + 1) > FACTOR_SEARCH_CAP:
        return None
    for u in lead_divs:
        for w_abs in const_divs:
            for w in (w_abs, -w_abs):
                for v in range(-v_bound, v_bound + 1):
                    g = IntPoly.from_coeffs([w, v, u])
                    if divides(g, p).divides:
                        return True
    return False


def is_irreducible_over_q(p: IntPoly) -> bool | None:
    """Irreducibility over the rationals: a rational root, found by integer
    root isolation, means reducible, and none means irreducible up to degree
    3.  From degree 4 a capped quadratic-factor search follows, complete to
    degree 5; only it answers None, undecided: when lc or p(0) does not
    factor, past its cap, or when it finds no factor at degree >= 6."""
    prim = p.primitive_part()
    if prim.degree < 2:
        return prim.degree == 1
    if _has_rational_root(prim):
        return False
    if prim.degree <= 3:
        return True
    quad = _quadratic_factor_exists(prim)
    if quad:
        return False
    return True if quad is False and prim.degree <= 5 else None


def classify_f(f: IntPoly) -> tuple[FamilyClassification, IntPoly, IntPoly, int]:
    """(classification, g, h, content) with f = content * g**2 * h."""
    g, h, content = classify_square_part(f)
    if g.degree < 1:
        # f squarefree up to its integer content
        if h.degree >= 3:
            return FamilyClassification.INFEASIBLE_SIEGEL, g, h, content
        if h.degree == 2:
            return FamilyClassification.QUADRATIC_SQUAREFREE, g, h, content
        return FamilyClassification.LINEAR_TIMES_SQUARE, g, h, content
    if h.degree <= 1:
        return FamilyClassification.LINEAR_TIMES_SQUARE, g, h, content
    if h.degree == 2:
        return FamilyClassification.SQUARE_TIMES_QUADRATIC, g, h, content
    return FamilyClassification.INFEASIBLE_SIEGEL, g, h, content


def _classify_family(
    t: IntPoly, q: IntPoly
) -> tuple[IntPoly, FamilyClassification, int | None]:
    """(f, classification, d_const): f = 4q - t**2 and its classification;
    d_const is the constant D when f = (Ax + D) g**2 with D > 0, the form
    whose parametric solutions fix D, else None."""
    f = compute_f(t, q)
    if f.is_zero:
        raise ValueError("degenerate candidate: 4q - t^2 = 0")
    classification, _, h, content = classify_f(f)
    square_form = classification is FamilyClassification.LINEAR_TIMES_SQUARE
    d_const = content * h.coefficient(0)
    return f, classification, d_const if square_form and d_const > 0 else None


def _describe(t: IntPoly, n: IntPoly, q: IntPoly, k: int, name: str) -> FamilyDescriptor:
    """The descriptor of a family whose conditions hold: f, its
    classification and, for the square form, the fixed D."""
    f, classification, d_const = _classify_family(t, q)
    fixed_d = None
    if d_const is not None:
        squarefree, _, complete = squarefree_decompose(d_const)
        fixed_d = squarefree if complete else None
    return FamilyDescriptor(
        name=name, k=k, t=t, n=n, q=q, f=f, classification=classification, fixed_d=fixed_d,
    )


def verify_family(
    t: IntPoly, n: IntPoly, q: IntPoly, k: int, name: str = "custom"
) -> FamilyDescriptor | list[str]:
    """Check the family conditions: n = q + 1 - t, irreducibility of n and
    q, and n | Phi_k(t - 1) over Q.  Returns the descriptor, or the list
    of violated conditions.  Existence of infinitely many CM solutions is
    not decided here; it is reported through f's classification."""
    if k < 1:
        raise ValueError(f"embedding degree must be positive, got {k}")
    if t.is_zero or n.is_zero or q.is_zero:
        raise ValueError("family polynomials must be nonzero")
    violations = []
    if n != q + 1 - t:
        violations.append("condition 1: n(x) != q(x) + 1 - t(x)")
    for label, poly in (("n(x)", n), ("q(x)", q)):
        irr = is_irreducible_over_q(poly)
        if irr is False:
            violations.append(f"condition 2: {label} is reducible")
        elif irr is None:
            violations.append(f"condition 2: irreducibility of {label} undecided")
    target = cyclotomic(k).compose(t - 1)
    if not divides(n, target).divides:
        violations.append("condition 3: n(x) does not divide Phi_k(t(x) - 1)")
    if violations:
        return violations
    return _describe(t, n, q, k, name)


_CATALOG_SPEC = [
    ("mnt3+", 3, "-1+6x", "12x^2-6x+1", "12x^2-1"),
    ("mnt3-", 3, "-1-6x", "12x^2+6x+1", "12x^2-1"),
    ("mnt4a", 4, "-x", "x^2+2x+2", "x^2+x+1"),
    ("mnt4b", 4, "x+1", "x^2+1", "x^2+x+1"),
    ("mnt6+", 6, "1+2x", "4x^2-2x+1", "4x^2+1"),
    ("mnt6-", 6, "1-2x", "4x^2+2x+1", "4x^2+1"),
    ("freeman10", 10, "10x^2+5x+3", "25x^4+25x^3+15x^2+5x+1", "25x^4+25x^3+25x^2+10x+3"),
    ("bn12", 12, "6x^2+1", "36x^4+36x^3+18x^2+6x+1", "36x^4+36x^3+24x^2+6x+1"),
]


@lru_cache(maxsize=1)
def _catalog() -> tuple[FamilyDescriptor, ...]:
    return tuple(
        _describe(parse_poly(t_text), parse_poly(n_text), parse_poly(q_text), k, name)
        for name, k, t_text, n_text, q_text in _CATALOG_SPEC
    )


def builtin_catalog() -> list[FamilyDescriptor]:
    """All built-in families.  The entries are static data, not verified
    at run time; tests/test_families.py checks that verify_family accepts
    each one and returns the same descriptor."""
    return list(_catalog())


def family_by_name(name: str) -> FamilyDescriptor:
    for desc in _catalog():
        if desc.name == name:
            return desc
    known = ", ".join(d.name for d in _catalog())
    raise KeyError(f"unknown family {name!r} (known: {known})")


def analyze_feasibility(t: IntPoly, n: IntPoly, k: int) -> FeasibilityReport:
    """Structural feasibility of a candidate (t, n) for embedding degree k:
    degree multiplicity, the half-degree balance, the leading-coefficient
    relation, and the classification-driven verdict."""
    if n.is_zero:
        raise ValueError("n(x) must be nonzero")
    q = n + t - 1
    phi = euler_phi(k)
    degree_check = n.degree >= 1 and n.degree % phi == 0
    balance_check = 2 * t.degree == n.degree and n.degree == q.degree
    lead_t = t.leading_coefficient
    leading_coeff_check = (
        lead_t * lead_t % 4 == 0
        and n.leading_coefficient == lead_t * lead_t // 4
        and q.leading_coefficient == lead_t * lead_t // 4
    )
    _, classification, d_const = _classify_family(t, q)
    if classification is FamilyClassification.INFEASIBLE_SIEGEL:
        verdict = Verdict.NO_FAMILY
    elif d_const is not None:
        verdict = Verdict.FAMILY_BY_PROP_SQUARE
    else:
        verdict = Verdict.UNKNOWN_NEEDS_SOLUTION
    return FeasibilityReport(
        degree_check=degree_check,
        balance_check=balance_check,
        leading_coeff_check=leading_coeff_check,
        f_classification=classification,
        verdict=verdict,
    )


def _divisor_residues(family: FamilyDescriptor, p: int, m: int) -> set[int]:
    """The x mod m, for a prime p dividing m, at which p divides q(x) n(x)."""
    return {x for x in range(m) if family.q.evaluate(x) * family.n.evaluate(x) % p == 0}


@lru_cache(maxsize=None)
def d_classes(family: FamilyDescriptor) -> tuple[int, tuple[int, ...]]:
    """(modulus, residues) holding the D of every point of D y**2 = f(x), f
    quadratic, with q(x), n(x) prime: at each p | 2 lc(f) disc(f) lc(q), by
    brute force mod m (8 for p = 2, else p), the D for which some x, y solve
    it with p not dividing q(x) n(x).  The primes combine by CRT."""
    f = family.f
    a, b, c = f.coefficient(2), f.coefficient(1), f.coefficient(0)
    local = {}
    for p, _ in factorize(abs(2 * a * (b * b - 4 * a * c) * family.q.leading_coefficient)).factors:
        m = 8 if p == 2 else p
        struck = _divisor_residues(family, p, m)
        values = {f.evaluate(x) % m for x in range(m) if x not in struck}
        local[m] = {d for d in range(m) if values & {d * y * y % m for y in range(m)}}
    modulus = math.prod(local)
    return modulus, tuple(r for r in range(modulus) if all(r % m in ok for m, ok in local.items()))


@lru_cache(maxsize=None)
def sieve_table(family: FamilyDescriptor) -> tuple[int, tuple[tuple[int, tuple[int, ...]], ...]]:
    """(bound, ((p, residues), ...)): for each prime p < SIEVE_LIMIT, the x
    mod p at which p divides q(x) n(x), and a bound past which |q(x)| and
    |n(x)| are at least SIEVE_LIMIT.  Such an x with x mod p among the
    residues has q(x) or n(x) a multiple of p other than +-p, so not prime.
    The bound is Cauchy's root bound of q - c and n - c, |c| < SIEVE_LIMIT."""
    bound = max(
        1 + max([*map(abs, poly.coeffs[1:-1]), abs(poly.coefficient(0)) + SIEVE_LIMIT - 1])
        // abs(poly.leading_coefficient)
        for poly in (family.q, family.n)
    )
    struck = {p: sorted(_divisor_residues(family, p, p)) for p in _primes_below(SIEVE_LIMIT)}
    return bound, tuple((p, tuple(residues)) for p, residues in struck.items() if residues)


def filter_discriminant_k10(d_value: int) -> FilterDecision:
    """Cheap k=10 discriminant sieve: D in freeman10's derived classes
    (43 or 67 mod 120, all coprime to 15, so 15D is square-free when D
    is) and D square-free; unverifiable square-freeness rejects."""
    if d_value < 1:
        return FilterDecision(False, "D must be positive")
    modulus, residues = d_classes(family_by_name("freeman10"))
    if d_value % modulus not in residues:
        allowed = " or ".join(map(str, residues))
        return FilterDecision(False, f"D mod {modulus} = {d_value % modulus}, not {allowed}")
    _, square, complete = squarefree_decompose(d_value)
    if not complete:
        return FilterDecision(False, "square-freeness of D could not be verified")
    if square != 1:
        return FilterDecision(False, "D is not square-free")
    return FilterDecision(True, None)


def instantiate(
    family: FamilyDescriptor, x0: int, d_value: int | None = None
) -> CurveRecord:
    """Evaluate the family at x0 (D defaults to the family's fixed D) and
    return verify_record's verdict on the record: PRIME_OK, or REJECTED
    naming the first failed check.  The embedding degree must be exactly
    k: at a small x0, n can divide q**d - 1 for a proper divisor d of k.
    n is taken as q + 1 - t, which the family conditions make n(x0)."""
    if d_value is None:
        d_value = family.fixed_d
    q, t = family.q.evaluate(x0), family.t.evaluate(x0)
    return verify_record(CurveRecord(k=family.k, q=q, n=q + 1 - t, t=t, d=d_value, x0=x0))
