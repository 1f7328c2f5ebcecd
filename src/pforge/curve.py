"""Short-Weierstrass arithmetic over prime fields and curve-record
verification: primality, Hasse, ordinarity, the CM equation
D*y**2 = 4q - t**2, exact embedding degree, and group-order confirmation
from one point.  One group law: additions and scalar multiplication run
on Jacobian formulas, with one inversion per sum or product."""

from __future__ import annotations

import enum
import math
import random
from typing import NamedTuple

from .errors import CapacityError, ContractError
from .numtheory import factorize, first_composite, integer_sqrt, sqrt_mod_prime

# Affine point: (x, y) with 0 <= x, y < q, or None for the point at infinity.
Point = tuple[int, int] | None
INFINITY: Point = None

Curve = tuple[int, int, int]  # (q, A, B), coefficients taken mod q

RANDOM_POINT_MAX_DRAWS = 10**4


class RecordStatus(str, enum.Enum):
    PENDING = "PENDING"
    PRIME_OK = "PRIME_OK"
    CURVE_VERIFIED = "CURVE_VERIFIED"
    REJECTED = "REJECTED"


class OrderCheck(enum.Enum):
    VERIFIED = "VERIFIED"
    REFUTED = "REFUTED"


class CurveRecord(NamedTuple):
    """Concrete curve parameters.  a and b keep the sign they were supplied
    with (published parameter sets often use A = -3); arithmetic reduces
    them mod q."""

    k: int
    q: int
    n: int
    t: int
    d: int | None = None
    x0: int | None = None
    a: int | None = None
    b: int | None = None
    status: RecordStatus = RecordStatus.PENDING
    reason: str | None = None

    def rejected(self, reason: str) -> CurveRecord:
        return self._replace(status=RecordStatus.REJECTED, reason=reason)

    def with_status(self, status: RecordStatus) -> CurveRecord:
        return self._replace(status=status, reason=None)


def is_nonsingular(curve: Curve) -> bool:
    q, a, b = curve
    return (4 * a * a * a + 27 * b * b) % q != 0


def is_on_curve(point: Point, curve: Curve) -> bool:
    if point is None:
        return True
    q, a, b = curve
    x, y = point
    return (y * y - (x * x * x + a * x + b)) % q == 0


# Jacobian point: (X, Y, Z) stands for the affine (X/Z**2, Y/Z**3); Z = 0
# is the point at infinity.  Formulas: Bernstein-Lange, Explicit-Formulas
# Database, g1p/auto-shortw-jacobian (dbl-1998-cmo-2 for general a,
# madd-2004-hmv); Cohen et al., Handbook of Elliptic and Hyperelliptic Curve
# Cryptography (2005), section 13.2.1.
JacobianPoint = tuple[int, int, int]


def _jacobian_double(x1: int, y1: int, z1: int, a: int, q: int) -> JacobianPoint:
    # Z3 = 2*Y1*Z1 is 0 for infinity (Z1 = 0) and for points of order 2
    # (Y1 = 0), so both need no branch.
    yy = y1 * y1 % q
    zz = z1 * z1 % q
    s = 4 * x1 * yy % q
    m = (3 * x1 * x1 + a * zz * zz) % q
    x3 = (m * m - 2 * s) % q
    y3 = (m * (s - x3) - 8 * yy * yy) % q
    return x3, y3, 2 * y1 * z1 % q


def _jacobian_add_affine(
    x1: int, y1: int, z1: int, x2: int, y2: int, a: int, q: int
) -> JacobianPoint:
    """(X1, Y1, Z1) + (x2, y2) for an affine (x2, y2) != infinity."""
    if z1 == 0:
        return x2, y2, 1
    z1z1 = z1 * z1 % q
    h = (x2 * z1z1 - x1) % q
    r = (y2 * z1 * z1z1 - y1) % q
    if h == 0:
        # same x: the summands are equal (r = 0) or opposite
        return _jacobian_double(x2, y2, 1, a, q) if r == 0 else (1, 1, 0)
    hh = h * h % q
    hhh = h * hh % q
    v = x1 * hh % q
    x3 = (r * r - hhh - 2 * v) % q
    y3 = (r * (v - x3) - y1 * hhh) % q
    return x3, y3, z1 * h % q


def _to_affine(point: JacobianPoint, q: int) -> Point:
    x, y, z = point
    if z == 0:
        return INFINITY
    zinv = pow(z, -1, q)
    zinv2 = zinv * zinv % q
    return (x * zinv2 % q, y * zinv2 * zinv % q)


def add_points(p1: Point, p2: Point, curve: Curve) -> Point:
    """P1 + P2 by the mixed Jacobian + affine addition that scalar_multiply
    runs, with P1 lifted to Z = 1, and one inversion back to affine."""
    if not is_on_curve(p1, curve) or not is_on_curve(p2, curve):
        raise ContractError("point not on curve")
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    q, a, _ = curve
    return _to_affine(_jacobian_add_affine(*p1, 1, *p2, a, q), q)


def scalar_multiply(point: Point, m: int, curve: Curve) -> Point:
    """[m]P by left-to-right double-and-add in Jacobian coordinates, one
    inversion: the ladder adds the affine P to a Jacobian accumulator and
    inverts Z once at the end.  [0]P is the point at infinity."""
    if m < 0:
        raise ValueError("scalar must be non-negative")
    if not is_on_curve(point, curve):
        raise ContractError(f"point {point} not on curve")
    if point is None or m == 0:
        return INFINITY
    q, a, _ = curve
    x, y = point
    acc = (x, y, 1)
    for bit in bin(m)[3:]:
        acc = _jacobian_double(*acc, a, q)
        if bit == "1":
            acc = _jacobian_add_affine(*acc, x, y, a, q)
    return _to_affine(acc, q)


def random_point(curve: Curve, rng: random.Random) -> Point:
    """Uniform-x affine point: sample x, solve for y, retry non-residues."""
    q, a, b = curve
    for _ in range(RANDOM_POINT_MAX_DRAWS):
        x = rng.randrange(q)
        rhs = (x * x * x + a * x + b) % q
        y = sqrt_mod_prime(rhs, q)
        if y is None:
            continue
        if y and rng.getrandbits(1):
            y = q - y
        return (x, y)
    raise CapacityError(f"no curve point found in {RANDOM_POINT_MAX_DRAWS} draws")


def verify_group_order(
    curve: Curve, n: int, trials: int = 1, rng: random.Random | None = None
) -> OrderCheck:
    """#E = n for prime n in the Hasse interval of q with 16q < n**2,
    decided by one point, with no chance in the verdict.

    An affine P is not infinity, so [n]P = infinity with n prime makes P
    of order n and n | #E.  The Hasse window [q + 1 - 2 sqrt(q),
    q + 1 + 2 sqrt(q)] is 4 sqrt(q) < n wide, so it holds one multiple of
    n, and #E = n.  Hence [n]P = infinity holds for every affine P when
    #E = n and for none when #E != n: the verdict does not depend on which
    point is drawn.  `trials` points are checked, drawn from `rng`
    (seeded with 0 when omitted).
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    q = curve[0]
    t = q + 1 - n
    if t * t > 4 * q:
        raise ContractError(f"n = {n} lies outside the Hasse interval of q = {q}")
    if 16 * q >= n * n:
        raise ContractError(f"Hasse window wider than n: 4*sqrt(q) >= {n}")
    if rng is None:
        rng = random.Random(0)
    for _ in range(trials):
        if scalar_multiply(random_point(curve, rng), n, curve) is not INFINITY:
            return OrderCheck.REFUTED
    return OrderCheck.VERIFIED


def embedding_degree(q: int, n: int, k_max: int) -> int | None:
    """Smallest k <= k_max with q**k = 1 mod n, or None when it exceeds
    k_max; exact-k claims go through is_exact_embedding_degree."""
    if n < 2 or q % n == 0:
        raise ValueError(f"embedding degree undefined: n = {n} divides q = {q}")
    qpow = q % n
    acc = qpow
    for k in range(1, k_max + 1):
        if acc == 1:
            return k
        acc = acc * qpow % n
    return None


def is_exact_embedding_degree(q: int, n: int, k: int) -> bool:
    """q**k = 1 mod n and q**(k/p) != 1 mod n for every prime p | k, so the
    order of q mod n is exactly k.  Raises ValueError when k does not
    factor completely."""
    if k < 1:
        raise ValueError(f"embedding degree must be at least 1, got k = {k}")
    if n < 2 or q % n == 0:
        raise ValueError(f"embedding degree undefined: n = {n} divides q = {q}")
    if pow(q, k, n) != 1:
        return False
    fac = factorize(k)
    if not fac.complete:
        raise ValueError(f"could not factor the embedding degree k = {k}")
    return all(pow(q, k // p, n) != 1 for p, _ in fac.factors)


def verify_record(record: CurveRecord) -> CurveRecord:
    """Run every verifiable check and return the record with final status.

    Reaches CURVE_VERIFIED when curve coefficients are present and the
    group order confirms; PRIME_OK when all coefficient-free checks pass.
    This is the only PRIME_OK gate: search candidates come through it via
    families.instantiate.  q and n are tested for primality in lockstep
    (numtheory.first_composite), and the rejection names whichever is shown
    composite first: the composite one when only one is, either when both
    are.  It reads q(x0) / n(x0) when the record carries x0.
    """
    q, n, t = record.q, record.n, record.t
    if n != q + 1 - t:
        return record.rejected(f"n != q + 1 - t (t = {t})")
    composite = first_composite(q, n)
    if composite is not None:
        at_x0 = "" if record.x0 is None else f"({record.x0})"
        return record.rejected(f"{'qn'[composite]}{at_x0} is not prime")
    if q == n:
        return record.rejected("degenerate: q == n")
    f = 4 * q - t * t
    if f <= 0:
        return record.rejected("Hasse bound violated")
    if math.gcd(t, q) != 1:
        return record.rejected("curve not ordinary: gcd(t, q) > 1")
    if record.d is not None:
        quot, rem = divmod(f, record.d)
        if rem != 0:
            return record.rejected(f"CM equation: {record.d} does not divide 4q - t^2")
        _, exact = integer_sqrt(quot)
        if not exact:
            return record.rejected("CM equation: (4q - t^2) / D is not a square")
    if not is_exact_embedding_degree(q, n, record.k):
        return record.rejected(f"embedding degree is not exactly {record.k}")
    if record.a is None or record.b is None:
        return record.with_status(RecordStatus.PRIME_OK)
    curve = (q, record.a % q, record.b % q)
    if not is_nonsingular(curve):
        return record.rejected("singular curve: 4A^3 + 27B^2 = 0 mod q")
    try:
        check = verify_group_order(curve, n)
    except ContractError as exc:
        # f > 0 was checked above, so the failed precondition is 16q < n**2
        return record.rejected(f"group order check: {exc}")
    if check is OrderCheck.REFUTED:
        return record.rejected(f"group order check: {check.value}")
    return record.with_status(RecordStatus.CURVE_VERIFIED)
