import math
import random

import pytest

from pforge.curve import (
    INFINITY,
    CurveRecord,
    OrderCheck,
    RecordStatus,
    add_points,
    embedding_degree,
    is_exact_embedding_degree,
    is_on_curve,
    random_point,
    scalar_multiply,
    verify_group_order,
    verify_record,
)
from pforge.errors import CapacityError, ContractError

from conftest import EXAMPLE_149, EXAMPLE_196


def is_small_prime(m):
    return m > 1 and all(m % d for d in range(2, math.isqrt(m) + 1))


def naive_points(q, a, b):
    """Exhaustive affine point enumeration plus infinity."""
    pts = [None]
    for x in range(q):
        for y in range(q):
            if (y * y - (x**3 + a * x + b)) % q == 0:
                pts.append((x, y))
    return pts


def naive_add(p1, p2, q, a):
    """Textbook chord-and-tangent formulas, written independently."""
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


SMALL_CURVES = [(5, 2, 1), (7, 2, 3), (11, 3, 7), (13, 1, 6)]


class TestGroupLaw:
    @pytest.mark.parametrize("q,a,b", SMALL_CURVES)
    def test_addition_matches_naive_table(self, q, a, b):
        pts = naive_points(q, a, b)
        for p1 in pts:
            for p2 in pts:
                assert add_points(p1, p2, (q, a, b)) == naive_add(p1, p2, q, a)

    @pytest.mark.parametrize("q,a,b", SMALL_CURVES)
    def test_group_axioms(self, q, a, b):
        pts = naive_points(q, a, b)
        curve = (q, a, b)
        for p1 in pts:
            assert add_points(p1, INFINITY, curve) == p1  # identity
            inverse = None if p1 is None else (p1[0], -p1[1] % q)
            assert add_points(p1, inverse, curve) is INFINITY
            for p2 in pts:
                s = add_points(p1, p2, curve)
                assert s in pts  # closure
                assert s == add_points(p2, p1, curve)  # commutativity
        for p1 in pts[:5]:
            for p2 in pts[:5]:
                for p3 in pts[:5]:
                    left = add_points(add_points(p1, p2, curve), p3, curve)
                    right = add_points(p1, add_points(p2, p3, curve), curve)
                    assert left == right  # associativity (sampled)

    @pytest.mark.parametrize("q,a,b", SMALL_CURVES)
    def test_scalar_multiply_matches_repeated_addition(self, q, a, b):
        pts = naive_points(q, a, b)
        curve = (q, a, b)
        order = len(pts)
        for point in pts:
            acc = None
            for m in range(3 * order + 2):
                assert scalar_multiply(point, m, curve) == acc
                acc = naive_add(acc, point, q, a)

    @pytest.mark.parametrize("ex", [EXAMPLE_149, EXAMPLE_196], ids=["149bit", "196bit"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_large_curve_matches_naive_double_and_add(self, ex, seed):
        q, a = ex.q, ex.a % ex.q
        curve = (q, a, ex.b % q)
        point = random_point(curve, random.Random(seed))

        def naive_multiply(m):
            acc, addend = None, point
            while m:
                if m & 1:
                    acc = naive_add(acc, addend, q, a)
                addend = naive_add(addend, addend, q, a)
                m >>= 1
            return acc

        rng = random.Random(f"scalars:{seed}")
        scalars = [1, 2, 3, ex.n - 1, ex.n + 1] + [rng.randrange(q) for _ in range(10)]
        for m in scalars:
            assert scalar_multiply(point, m, curve) == naive_multiply(m), m
        assert scalar_multiply(point, ex.n, curve) is INFINITY
        assert scalar_multiply(point, ex.n - 1, curve) == (point[0], -point[1] % q)

    def test_zero_scalar(self):
        assert scalar_multiply((2, 1), 0, (7, 2, 3)) is INFINITY

    def test_off_curve_point_rejected(self):
        with pytest.raises(ContractError):
            scalar_multiply((1, 1), 2, (7, 2, 3))

    def test_lagrange_on_every_small_curve(self):
        for q, a, b in SMALL_CURVES:
            pts = naive_points(q, a, b)
            n = len(pts)
            for point in pts:
                assert scalar_multiply(point, n, (q, a, b)) is INFINITY


class TestRandomPoint:
    def test_on_curve_postcondition(self):
        rng = random.Random(1)
        curve = (13, 1, 6)
        for _ in range(50):
            point = random_point(curve, rng)
            assert is_on_curve(point, curve)

    def test_output_in_brute_force_set(self):
        pts = set(naive_points(7, 2, 3)) - {None}
        rng = random.Random(2)
        for _ in range(30):
            assert random_point((7, 2, 3), rng) in pts

    def test_capacity_error_on_pathological_rng(self):
        class ConstantRng:
            def randrange(self, _):
                return 0  # rhs = 3, a non-residue mod 7

            def getrandbits(self, _):
                return 0

        with pytest.raises(CapacityError):
            random_point((7, 2, 3), ConstantRng())


class TestGroupOrder:
    def test_published_curve_verified(self, published_curve):
        ex = published_curve
        curve = (ex.q, ex.a % ex.q, ex.b % ex.q)
        assert verify_group_order(curve, ex.n, trials=5, rng=random.Random(0)) is OrderCheck.VERIFIED

    def test_wrong_order_refuted(self):
        q = 10007
        pts_needed = None
        # order of y^2 = x^3 + 3x + 7 over F_10007 found by a scalar probe
        curve = (q, 3, 7)
        # Hasse window contains many primes; pick one and expect REFUTED
        # unless it happens to be the order (then the test would be vacuous,
        # so probe two different primes)
        refuted = 0
        for candidate in (10007 + 1 - 53, 10007 + 1 + 59):
            try:
                if verify_group_order(curve, candidate, trials=5, rng=random.Random(3)) is OrderCheck.REFUTED:
                    refuted += 1
            except ContractError:
                pass
        assert refuted >= 1

    def test_hasse_precondition_named(self):
        with pytest.raises(ContractError, match="Hasse"):
            verify_group_order((10007, 3, 7), 7, trials=1)

    def test_width_precondition(self):
        # n prime, inside Hasse, but 4 sqrt(q) >= n
        with pytest.raises(ContractError, match="Hasse window"):
            verify_group_order((13, 1, 6), 11, trials=1)

    def test_trial_count_below_one_rejected(self):
        ex = EXAMPLE_149
        with pytest.raises(ValueError, match="trials"):
            verify_group_order((ex.q, ex.a % ex.q, ex.b % ex.q), ex.n, trials=0)

    def test_one_point_decides_order_brute_force(self):
        """For prime n in the Hasse interval with 16q < n**2, [n]P is
        infinity for every affine P when #E = n and for none otherwise, so
        one point of any choice decides #E = n.  #E is counted by brute
        force on sampled curves over small prime fields."""
        rng = random.Random(10)
        pairs = matches = 0
        for q in (37, 41, 43, 47, 53, 59, 61, 67):
            root = math.isqrt(4 * q)
            primes = [
                n for n in range(q + 1 - root, q + 2 + root)
                if (n - q - 1) ** 2 <= 4 * q and 16 * q < n * n and is_small_prime(n)
            ]
            for _ in range(20):
                a, b = rng.randrange(q), rng.randrange(q)
                if (4 * a**3 + 27 * b * b) % q == 0:
                    continue
                points = naive_points(q, a, b)
                affine = points[1:]
                for n in primes:
                    killed = {scalar_multiply(p, n, (q, a, b)) is INFINITY for p in affine}
                    assert killed == {len(points) == n}, (q, a, b, n)
                    pairs += 1
                    matches += len(points) == n
        assert pairs > 1000 and matches > 10


class TestEmbeddingDegree:
    def test_small_examples(self):
        assert embedding_degree(7, 3, 12) == 1
        assert embedding_degree(5, 3, 12) == 2

    def test_exceeds_cap(self):
        # order of 2 mod 11 is 10
        assert embedding_degree(2, 11, 5) is None
        assert embedding_degree(2, 11, 10) == 10

    def test_published_exact_ten(self, published_curve):
        ex = published_curve
        assert embedding_degree(ex.q, ex.n, 12) == 10
        assert is_exact_embedding_degree(ex.q, ex.n, 10)
        for d in (1, 2, 5):
            assert pow(ex.q, d, ex.n) != 1

    def test_divides_rejected(self):
        with pytest.raises(ValueError):
            embedding_degree(14, 7, 5)

    @pytest.mark.parametrize("k", [0, -10])
    def test_exact_degree_below_one_rejected(self, k):
        with pytest.raises(ValueError, match="at least 1"):
            is_exact_embedding_degree(EXAMPLE_149.q, EXAMPLE_149.n, k)

    def test_matches_multiplicative_order_sample(self):
        primes = [p for p in range(3, 200) if all(p % d for d in range(2, p))]
        for n in primes:
            for q in primes:
                if q == n:
                    continue
                order = 1
                acc = q % n
                while acc != 1:
                    acc = acc * q % n
                    order += 1
                assert embedding_degree(q, n, order) == order
                assert is_exact_embedding_degree(q, n, order)

    def test_exact_degree_matches_divisor_scan(self):
        primes = [p for p in range(3, 60) if all(p % d for d in range(2, p))]
        for n in primes:
            for q in primes:
                if q == n:
                    continue
                for k in range(1, 61):
                    expected = pow(q, k, n) == 1 and all(
                        pow(q, d, n) != 1 for d in range(1, k) if k % d == 0
                    )
                    assert is_exact_embedding_degree(q, n, k) is expected, (q, n, k)

    def test_unfactorable_degree_rejected(self):
        # 2 has order 10 mod 11, so 2**k = 1 mod 11; k's cofactor
        # 1000003 * 1000033 is past the trial-division bound
        with pytest.raises(ValueError, match="could not factor"):
            is_exact_embedding_degree(2, 11, 10 * 1000003 * 1000033)


class TestVerifyRecord:
    def make_record(self, ex, **overrides):
        values = dict(
            k=10, q=ex.q, n=ex.n, t=ex.q + 1 - ex.n, d=ex.d, a=ex.a, b=ex.b
        )
        values.update(overrides)
        return CurveRecord(**values)

    def test_settling_a_record_keeps_every_other_field(self):
        # every field but status and reason gets a value apart from its default
        values = {
            name: 2 + i
            for i, name in enumerate(CurveRecord._fields)
            if name not in ("status", "reason")
        }
        record = CurveRecord(**values, status=RecordStatus.REJECTED, reason="stale")
        assert record.rejected("why") == record._replace(
            status=RecordStatus.REJECTED, reason="why"
        )
        for status in RecordStatus:
            assert record.with_status(status) == record._replace(status=status, reason=None)

    def test_published_full_record(self, published_curve):
        record = verify_record(self.make_record(published_curve))
        assert record.status is RecordStatus.CURVE_VERIFIED

    def test_without_coefficients_stops_at_prime_ok(self, published_curve):
        record = verify_record(self.make_record(published_curve, a=None, b=None))
        assert record.status is RecordStatus.PRIME_OK

    def test_wrong_discriminant_rejected(self):
        record = verify_record(self.make_record(EXAMPLE_149, d=EXAMPLE_149.d + 1))
        assert record.status is RecordStatus.REJECTED
        assert "CM equation" in record.reason

    def test_perturbed_b_rejected(self):
        record = verify_record(self.make_record(EXAMPLE_149, b=EXAMPLE_149.b + 1))
        assert record.status is RecordStatus.REJECTED
        assert "group order" in record.reason

    def test_perturbed_n_rejected(self):
        ex = EXAMPLE_149
        record = verify_record(
            CurveRecord(k=10, q=ex.q, n=ex.n + 2, t=ex.q + 1 - ex.n - 2, d=ex.d)
        )
        assert record.status is RecordStatus.REJECTED

    def test_small_mnt6_record_prime_ok(self):
        # q = 5, n = 7, t = -1: the D = 19 MNT6 curve; k exactly 6
        record = verify_record(CurveRecord(k=6, q=5, n=7, t=-1, d=19))
        assert record.status is RecordStatus.PRIME_OK

    def test_ordinarity_check(self):
        # supersingular-style: t = 0 mod q
        record = verify_record(CurveRecord(k=2, q=7, n=8, t=0))
        assert record.status is RecordStatus.REJECTED  # n = 8 not prime anyway
        record = verify_record(CurveRecord(k=4, q=3, n=3, t=1))
        assert record.status is RecordStatus.REJECTED

    @pytest.mark.parametrize(
        "fields, reason",
        [
            (dict(k=2, q=5, n=3, t=5), "n != q + 1 - t (t = 5)"),
            (dict(k=2, q=9, n=7, t=3), "q is not prime"),
            (dict(k=2, q=9, n=7, t=3, x0=4), "q(4) is not prime"),
            (dict(k=2, q=7, n=9, t=-1), "n is not prime"),
            (dict(k=2, q=7, n=9, t=-1, x0=-3), "n(-3) is not prime"),
            (dict(k=1, q=5, n=5, t=1), "degenerate: q == n"),
            (dict(k=1, q=5, n=13, t=-7), "Hasse bound violated"),
            (dict(k=2, q=2, n=3, t=0), "curve not ordinary: gcd(t, q) > 1"),
            (dict(k=2, q=5, n=3, t=3, d=3), "CM equation: 3 does not divide 4q - t^2"),
            (dict(k=4, q=7, n=5, t=3, d=1), "CM equation: (4q - t^2) / D is not a square"),
            (dict(k=4, q=5, n=3, t=3, d=11), "embedding degree is not exactly 4"),
        ],
        ids=[
            "relation", "q-composite", "q-composite-at-x0", "n-composite", "n-composite-at-x0",
            "degenerate", "hasse", "ordinary", "cm-divides", "cm-square", "exact-degree",
        ],
    )
    def test_each_check_names_its_failure(self, fields, reason):
        """Each record fails exactly one check, so dropping any check from
        verify_record changes its verdict."""
        assert verify_record(CurveRecord(**fields)).reason == reason

    def test_both_composite_names_the_first_shown_composite(self):
        """q and n are tested in lockstep: q = 8647 * 17293 * 25939 survives
        trial division, n = 1000 * 1009 fails it, so n is named although q
        is composite too."""
        q, n = 8647 * 17293 * 25939, 1000 * 1009
        for x0, named in ((None, "n"), (7, "n(7)")):
            record = verify_record(CurveRecord(k=2, q=q, n=n, t=q + 1 - n, x0=x0))
            assert record.status is RecordStatus.REJECTED
            assert record.reason == f"{named} is not prime"
        record = verify_record(CurveRecord(k=2, q=n, n=q, t=n + 1 - q))
        assert record.reason == "q is not prime"
