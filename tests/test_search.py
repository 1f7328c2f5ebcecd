import functools
import math
import random
import time
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pforge import search
from pforge.curve import CurveRecord, RecordStatus, verify_record
from pforge.families import (
    SIEVE_LIMIT, builtin_catalog, d_classes, family_by_name, filter_discriminant_k10,
    instantiate, sieve_table,
)
from pforge.intpoly import IntPoly, _floors, integer_preimages
from pforge.numtheory import factorize, jacobi_symbol, squarefree_decompose
from pforge.pell import enumerate_solutions, reduce_quadratic
from pforge.search import (
    SearchConfig,
    _discriminants,
    _sieve_block,
    _signed_range,
    quadratic_points,
    recover_x_from_q,
    run_search,
)

from conftest import EXAMPLE_149, EXAMPLE_196


class TestRecoverX:
    def test_published_curves(self):
        fam = family_by_name("freeman10")
        assert recover_x_from_q(fam, EXAMPLE_149.q) == 66980436970
        assert recover_x_from_q(fam, EXAMPLE_196.q) == 222343908210460

    def test_constant_term(self):
        fam = family_by_name("freeman10")
        assert recover_x_from_q(fam, 3) == 0

    def test_between_values(self):
        fam = family_by_name("freeman10")
        assert recover_x_from_q(fam, 4) is None

    def test_negative_branch(self):
        fam = family_by_name("freeman10")
        assert recover_x_from_q(fam, 283) == -2
        deep = fam.q.evaluate(-12345678901)
        assert recover_x_from_q(fam, deep) == -12345678901

    def test_right_tail(self):
        fam = family_by_name("bn12")
        value = fam.q.evaluate(98765432109)
        assert recover_x_from_q(fam, value) == 98765432109

    def test_every_family_round_trips(self):
        from pforge.families import builtin_catalog

        for fam in builtin_catalog():
            for x0 in (-1000, -3, 0, 5, 1000):
                value = fam.q.evaluate(x0)
                recovered = recover_x_from_q(fam, value)
                assert fam.q.evaluate(recovered) == value


class TestRecoverXBruteForce:
    """recover_x_from_q against a scan of every integer |x| <= 2000.  With
    coefficients in [-9, 9], lc(q) >= 1 and |x0| <= 61, every x outside
    the scan has |q(x)| > 0.99 * 2000**deg > 6 * 61**deg >= |q(x0)|, so the
    scan finds every preimage of the values tried."""

    def test_random_polynomials(self):
        rng = random.Random(10)
        for _ in range(150):
            degree = rng.randint(1, 6)
            low = [rng.randint(-9, 9) for _ in range(degree)]
            qp = IntPoly.from_coeffs(low + [rng.randint(1, 5)])
            fam = SimpleNamespace(q=qp)
            preimages = {}
            for x in range(-2000, 2001):
                preimages.setdefault(qp.evaluate(x), set()).add(x)
            # x0 inside the turning region and out on both tails, and the
            # values strictly between the images of x0 and x0 + 1
            for x0 in [rng.randint(-60, 60) for _ in range(4)] + [-60, -13, 13, 60]:
                a, b = sorted((qp.evaluate(x0), qp.evaluate(x0 + 1)))
                for value in {qp.evaluate(x0), a + 1, (a + b) // 2, b - 1}:
                    want = sorted(preimages.get(value, ()))
                    assert integer_preimages(qp, value) == want, (qp, value)
                    got = recover_x_from_q(fam, value)
                    assert got == (want[0] if want else None), (qp, value, got)

    def test_turning_points_between_neighbouring_integers(self):
        """q' has two roots between a pair of neighbouring integers c and
        c + 1, around a root of q'', so the monotone runs of q must be cut at
        c even where no sign change of q' shows at the integers."""
        for coeffs, x0 in (
            ([-5, 1152, -2184, 0, 1029], 0),
            ([1, 0, 14580, 1620, -4860, 972], 2),
            ([-1, 54000, 0, -54500, 0, 7500], 0),
        ):
            qp = IntPoly.from_coeffs(coeffs)
            value = qp.evaluate(x0)
            # every real root of q - value lies within |x| < 40 (Cauchy)
            want = [x for x in range(-40, 41) if qp.evaluate(x) == value]
            assert integer_preimages(qp, value) == want, (qp, value)
            assert recover_x_from_q(SimpleNamespace(q=qp), value) == want[0]

    def test_turning_point_floor_at_minus_the_cauchy_bound(self):
        """q' = 6(2x^2 + 3x - 3) has a root at -2.19, whose floor -3 is minus
        the Cauchy bound 2 + 3 // 2 of 2x^2 + 3x - 3; without that cut the
        run below -1 holds q's local maximum and bisection misses x = -2."""
        qp = IntPoly.from_coeffs([0, -18, 9, 4])
        for value in range(-60, 80):
            want = [x for x in range(-40, 41) if qp.evaluate(x) == value]
            assert integer_preimages(qp, value) == want, value

    def test_sparse_high_degree_keeps_few_floors(self):
        """Every level of the derivative chain keeps only floors within its
        own Cauchy bound, here |x| <= 3, rather than one more per level."""
        x = IntPoly.x()
        for qp in (x**300 + x**299 + 1, x**512 + 2, x**300 - x**299 - 2):
            for value in (0, qp.evaluate(-1)):
                floors = _floors(qp, value)
                assert set(floors) <= set(range(-3, 4)), (qp, floors)
                want = [x0 for x0 in floors if qp.evaluate(x0) == value]
                assert integer_preimages(qp, value) == want

    def test_large_coefficients_take_bisections_not_a_scan(self):
        """Bisection, not a scan of the region where q' may vanish: the work
        grows with the bit size of the coefficients, not their size."""
        qp = IntPoly.from_coeffs([1, 10**6, 1])
        fam = SimpleNamespace(q=qp)
        start = time.perf_counter()
        for x0 in (-(10**6) - 7, -500000, -3, 0, 7, 10**15):
            assert integer_preimages(qp, qp.evaluate(x0)) == sorted({x0, -(10**6) - x0})
            assert recover_x_from_q(fam, qp.evaluate(x0)) == min(x0, -(10**6) - x0)
        assert recover_x_from_q(fam, qp.evaluate(-500000) - 1) is None
        assert time.perf_counter() - start < 0.1


def _xs(x_min, x_max):
    return [x for run in _signed_range(x_min, x_max) for x in run]


class TestSignedRange:
    def test_overlapping(self):
        assert _xs(0, 2) == [-2, -1, 0, 1, 2]

    def test_disjoint(self):
        assert _xs(3, 5) == [-5, -4, -3, 3, 4, 5]

    def test_empty(self):
        assert _xs(5, 3) == []

    def test_adjacent(self):
        assert _xs(1, 4) == [-4, -3, -2, -1, 1, 2, 3, 4]

    def test_negative_bounds(self):
        assert _xs(-5, -3) == [-5, -4, -3, 3, 4, 5]

    def test_matches_definition(self):
        for x_min in range(-8, 9):
            for x_max in range(x_min - 1, 9):
                expected = [x for x in range(-9, 10) if x_min <= x <= x_max or x_min <= -x <= x_max]
                assert _xs(x_min, x_max) == expected, (x_min, x_max)
                assert len(_signed_range(x_min, x_max)) <= 2


class TestSearchK10:
    def test_pinned_to_example_149(self):
        config = SearchConfig(
            family="freeman10", d_min=EXAMPLE_149.d, d_max=EXAMPLE_149.d,
            q_bits_min=148, q_bits_max=150,
        )
        records = run_search(config)
        assert len(records) == 1
        record = records[0]
        assert record.q == EXAMPLE_149.q
        assert record.n == EXAMPLE_149.n
        assert record.x0 == 66980436970
        assert record.status is RecordStatus.PRIME_OK

    def test_finds_example_196(self):
        config = SearchConfig(
            family="freeman10", d_min=EXAMPLE_196.d, d_max=EXAMPLE_196.d, max_u_bits=256
        )
        assert any(
            r.q == EXAMPLE_196.q and r.n == EXAMPLE_196.n and r.status is RecordStatus.PRIME_OK
            for r in run_search(config)
        )

    def test_rejected_congruence_class_is_empty(self):
        config = SearchConfig(family="freeman10", d_min=44, d_max=44)
        assert run_search(config) == []

    def test_small_range_finds_d43(self):
        config = SearchConfig(family="freeman10", d_min=1, d_max=200, q_bits_max=64)
        records = run_search(config)
        assert any(r.d == 43 and r.x0 == -2 for r in records)

    def test_deterministic(self):
        config = SearchConfig(family="freeman10", d_min=1, d_max=2000, q_bits_max=80)
        first = [(r.d, r.x0) for r in run_search(config)]
        second = [(r.d, r.x0) for r in run_search(config)]
        assert first == second

    def test_emitted_discriminants_satisfy_congruence_sieve(self):
        config = SearchConfig(family="freeman10", d_min=1, d_max=5000, q_bits_max=96)
        for record in run_search(config):
            assert record.d % 120 in (43, 67)
            # CM data is complete for a construction run
            f_v = 4 * record.q - record.t * record.t
            assert f_v % record.d == 0
            assert math.isqrt(f_v // record.d) ** 2 == f_v // record.d

    def test_emitted_records_verify(self):
        config = SearchConfig(family="freeman10", d_min=1, d_max=3000, q_bits_max=96)
        for record in run_search(config):
            assert verify_record(record).status is RecordStatus.PRIME_OK

    def test_max_records_cap(self):
        config = SearchConfig(
            family="freeman10", d_min=1, d_max=5000, q_bits_max=96, max_records=1
        )
        assert len(run_search(config)) == 1

    def test_discriminant_stream_equals_filter(self):
        family = family_by_name("freeman10")
        stream = list(_discriminants(family, 1, 10**5))
        accepted = [
            d for d in range(1, 10**5 + 1)
            if filter_discriminant_k10(d).accepted
            and not _locally_insoluble(family, _primes_of(d))
        ]
        assert stream == accepted
        assert len(stream) == 978


def _locally_insoluble(family, primes):
    """Whether the primes of D include an odd p, p not dividing 2aT, at
    which T = b**2 - 4ac is a non-residue: then (2ax + b)**2 = T (mod p)
    for every point of D y**2 = f(x), so none exists."""
    a, b, c = (family.f.coefficient(i) for i in (2, 1, 0))
    t_value = b * b - 4 * a * c
    return any(
        p % 2 and (2 * a * t_value) % p and jacobi_symbol(t_value, p) == -1 for p in primes
    )


def _primes_of(d_value):
    return [p for p, _ in factorize(d_value).factors]


@functools.lru_cache(maxsize=None)
def _square_free_parts(a, b, c):
    """{D: its primes} for D the square-free part of f(x) = a x**2 + b x + c
    over |x| <= 10**4 with f(x) > 0.  The range is symmetric, so f(x) and
    f(-x) (b and -b) give the same D."""
    parts = {}
    for x in range(-10**4, 10**4 + 1):
        value = a * x * x + b * x + c
        if value > 0:
            fac = factorize(value)
            assert fac.complete
            odd = [p for p, e in fac.factors if e % 2]
            parts[math.prod(odd)] = odd
    return parts


def _reference_discriminants(family, d_min, d_max):
    """_discriminants as it was before the D sieve: stride over the residue
    classes, drop the locally insoluble D and factor every other D by
    squarefree_decompose."""
    modulus, residues = d_classes(family)
    lo = max(d_min, 1)
    for block in range(lo - lo % modulus, d_max + 1, modulus):
        for residue in residues:
            d_value = block + residue
            if not lo <= d_value <= d_max or _locally_insoluble(family, _primes_of(d_value)):
                continue
            _, square, complete = squarefree_decompose(d_value)
            if not complete:
                search._progress(f"D={d_value}, skipped: square-freeness could not be verified")
            elif square == 1:
                yield d_value


NORM_EQUATION_FAMILIES = [family for family in builtin_catalog() if family.fixed_d is None]
# the sieve height is min(isqrt(d_max), 10**6): square-freeness below
# (10**6 + 1)**2 is read off the sieve, and from there up factored per D
SIEVE_TOP = (10**6 + 1) ** 2


class TestDiscriminantSieve:
    """_discriminants (a sieve over SIEVE_BLOCK D at a time that strikes
    the multiples of p**2 and of the primes at which T is a non-residue)
    against the per-D factorization filter it replaced: same D, same
    order, same stderr."""

    def _assert_same(self, capsys, family, d_min, d_max):
        want = list(_reference_discriminants(family, d_min, d_max))
        want_err = capsys.readouterr().err
        assert list(_discriminants(family, d_min, d_max)) == want, (family.name, d_min, d_max)
        assert capsys.readouterr().err == want_err
        return want

    @pytest.mark.parametrize("family", NORM_EQUATION_FAMILIES, ids=lambda family: family.name)
    def test_random_windows_up_to_10_12(self, family, capsys):
        rng = random.Random(family.name)
        total = 0
        for _ in range(6):
            d_min = int(10 ** rng.uniform(0, 12))
            total += len(self._assert_same(capsys, family, d_min, d_min + rng.randrange(1200)))
        assert total

    @pytest.mark.parametrize(
        "d_min,d_max",
        [
            (SIEVE_TOP - 600, SIEVE_TOP + 600),
            (SIEVE_TOP - 1, SIEVE_TOP),
            (SIEVE_TOP, SIEVE_TOP + 300),
            # 3 * 1000003**2 in mnt6+'s class 3 mod 24: a square factor above
            # the trial-division bound, found only by squarefree_decompose
            (3 * 1000003**2 - 300, 3 * 1000003**2 + 300),
            (10**12 - 700, 10**12 - 1),
        ],
    )
    @pytest.mark.parametrize("name", ["mnt6+", "freeman10"])
    def test_windows_at_the_sieve_height(self, name, d_min, d_max, capsys):
        self._assert_same(capsys, family_by_name(name), d_min, d_max)

    @pytest.mark.parametrize("block", [1, 7, 120, 1000, 1 << 16])
    def test_windows_across_block_boundaries(self, block, monkeypatch, capsys):
        monkeypatch.setattr(search, "SIEVE_BLOCK", block)
        for name in ("mnt3+", "mnt4a", "freeman10"):
            family = family_by_name(name)
            self._assert_same(capsys, family, 1, 3000)
            self._assert_same(capsys, family, 65536 - 500, 65536 + 500)
            span = min(2 * block, 500)
            self._assert_same(capsys, family, SIEVE_TOP - span - 5, SIEVE_TOP + span)

    @pytest.mark.parametrize(
        "d_min,d_max", [(-50, 100), (-10, 0), (0, 0), (100, 50), (43, 43), (44, 44), (1, 1)]
    )
    def test_empty_negative_and_single_windows(self, d_min, d_max, capsys):
        for family in NORM_EQUATION_FAMILIES:
            self._assert_same(capsys, family, d_min, d_max)

    def test_search_below_the_height_factors_neither_d_nor_a_d(self, monkeypatch):
        from pforge import pell

        factored = []

        def decompose(m, *args):
            factored.append(m)
            return squarefree_decompose(m, *args)

        monkeypatch.setattr(search, "squarefree_decompose", decompose)
        monkeypatch.setattr(pell, "squarefree_decompose", decompose)
        config = SearchConfig(family="freeman10", d_min=1, d_max=20000, q_bits_max=96)
        assert run_search(config)
        assert factored and set(factored) == {15}  # a = 15 only

    def test_unverifiable_d_is_skipped_with_its_line(self, capsys):
        d_value = 1000003 * 1000033
        assert list(_discriminants(family_by_name("mnt6+"), d_value, d_value)) == []
        assert capsys.readouterr().err == (
            f"D={d_value}, skipped: square-freeness could not be verified\n"
        )

    @pytest.mark.parametrize("family", NORM_EQUATION_FAMILIES, ids=lambda family: family.name)
    def test_every_point_keeps_its_d(self, family):
        """D y**2 = f(x) for D the square-free part of f(x): whenever that D
        lies in the classes, no prime of it is locally insoluble, so every
        sieve keeps it.  Every D up to 2 * 10**6 is checked in one window,
        and a single-D window and a 2,000-wide one around D are checked for
        the smallest D and a sample of the rest (one call at D ~ 10**9
        takes several ms, and |x| <= 10**4 gives ~10**4 D per family)."""
        modulus, residues = d_classes(family)
        a, b, c = (family.f.coefficient(i) for i in (2, 1, 0))
        parts = _square_free_parts(a, abs(b), c)
        point_ds = [d for d in parts if d % modulus in residues]
        assert not any(_locally_insoluble(family, parts[d]) for d in point_ds)
        point_ds.sort()
        small = [d for d in point_ds if d <= 2 * 10**6]
        assert set(small) <= set(_discriminants(family, 1, 2 * 10**6))
        for d_value in point_ds[:40] + random.Random(family.name).sample(point_ds, 10):
            assert list(_discriminants(family, d_value, d_value)) == [d_value]
            assert d_value in _discriminants(family, d_value - 1000, d_value + 999)

    def test_k10_scan_window_walks_169_d(self):
        """The benchmark's k10-scan window for seed 1: 314 square-free D in
        the classes, of which the strike leaves 169 to the norm equation,
        and the published 149-bit curve among its records."""
        family = family_by_name("freeman10")
        assert len(list(_discriminants(family, 1657250, 1677249))) == 169
        config = SearchConfig(family="freeman10", d_min=1657250, d_max=1677249, max_u_bits=256)
        assert any(
            (r.d, r.x0, r.q) == (EXAMPLE_149.d, 66980436970, EXAMPLE_149.q)
            for r in run_search(config)
        )


class TestSearchBN12:
    def test_range_zero_two(self):
        config = SearchConfig(family="bn12", x_min=0, x_max=2)
        got = [(r.x0, r.q, r.n) for r in run_search(config)]
        # frozen oracle: q(x), n(x) both prime at x = -2, -1, 1 only
        assert got == [(-2, 373, 349), (-1, 19, 13), (1, 103, 97)]

    def test_empty_range(self):
        config = SearchConfig(family="bn12", x_min=5, x_max=4)
        assert run_search(config) == []

    def test_cm_identity_on_every_emission(self):
        config = SearchConfig(family="bn12", x_min=0, x_max=50)
        for record in run_search(config):
            y = 6 * record.x0**2 + 4 * record.x0 + 1
            assert 4 * record.q - record.t**2 == 3 * y * y
            assert record.d == 3

    def test_emitted_records_verify_at_k12(self):
        config = SearchConfig(family="bn12", x_min=0, x_max=30)
        records = run_search(config)
        assert records
        for record in records:
            assert verify_record(record).status is RecordStatus.PRIME_OK

    def test_q_bits_filter(self):
        config = SearchConfig(family="bn12", x_min=0, x_max=3000, q_bits_min=30, q_bits_max=40)
        for record in run_search(config):
            assert 30 <= record.q.bit_length() <= 40


_SIEVE_PRIMES = [p for p in range(2, SIEVE_LIMIT) if all(p % d for d in range(2, p))]


def _unsieved(name, x_min, x_max):
    """The oracle: every x of the signed range through verify_record, with
    q, n and t each evaluated from the family, keeping PRIME_OK."""
    fam = family_by_name(name)
    records = (
        verify_record(CurveRecord(
            k=fam.k, q=fam.q.evaluate(x), n=fam.n.evaluate(x), t=fam.t.evaluate(x),
            d=fam.fixed_d, x0=x,
        ))
        for x in _xs(x_min, x_max)
    )
    return [r for r in records if r.status is RecordStatus.PRIME_OK]


class TestSieve:
    def test_bn12_equals_unsieved_search(self, capsys):
        records = run_search(SearchConfig("bn12", x_min=-1000, x_max=1000))
        assert len(records) == 61
        assert records == _unsieved("bn12", -1000, 1000)
        assert capsys.readouterr().err == (
            "D=3, x values=2001, sieved=1537 (q(x) or n(x) has a prime factor below 100)\n"
        )

    def test_blocks_of_any_size_give_the_same_walk(self, monkeypatch, capsys):
        config = SearchConfig("bn12", x_min=-300, x_max=300)
        whole = run_search(config)
        err = capsys.readouterr().err
        for block in (1, 7, 64):
            monkeypatch.setattr(search, "SIEVE_BLOCK", block)
            assert run_search(config) == whole
            assert capsys.readouterr().err == err
        assert whole == _unsieved("bn12", -300, 300)

    @settings(max_examples=8, deadline=None)
    @given(offset=st.integers(-(2**64), 2**64), width=st.integers(1, 4000))
    @example(offset=-5, width=11)
    @example(offset=2**62, width=4000)
    @example(offset=-(2**64), width=4000)
    def test_random_windows_equal_unsieved_search(self, offset, width):
        x_max = offset + width - 1
        assert run_search(SearchConfig("bn12", x_min=offset, x_max=x_max)) == _unsieved(
            "bn12", offset, x_max
        )

    @pytest.mark.parametrize("family", builtin_catalog(), ids=lambda f: f.name)
    def test_dropped_x_has_a_composite_value(self, family):
        """Each x the sieve drops has q(x) or n(x) divisible by a prime below
        SIEVE_LIMIT while at least SIEVE_LIMIT in absolute value; each x it
        keeps past the bound has no such prime factor."""
        bound, _ = sieve_table(family)
        for lo in (-2000, 2**64 - 1000):
            keep = _sieve_block(family, lo, lo + 2000)
            for x, kept in zip(range(lo, lo + 2000), keep):
                values = (family.q.evaluate(x), family.n.evaluate(x))
                struck = [v for v in values for p in _SIEVE_PRIMES if v % p == 0]
                if kept:
                    assert abs(x) <= bound or not struck, x
                else:
                    assert any(abs(v) >= SIEVE_LIMIT for v in struck), x

    @pytest.mark.parametrize("family", builtin_catalog(), ids=lambda f: f.name)
    def test_values_pass_the_limit_beyond_the_bound(self, family):
        bound, _ = sieve_table(family)
        for x in [*range(-bound - 2000, -bound), *range(bound + 1, bound + 2001)]:
            assert abs(family.q.evaluate(x)) >= SIEVE_LIMIT
            assert abs(family.n.evaluate(x)) >= SIEVE_LIMIT

    def test_small_prime_values_stay(self):
        # q(-1) = 19, n(-1) = 13 and n(1) = 97 are prime: |x| <= 3 is not sieved
        bound, table = sieve_table(family_by_name("bn12"))
        assert bound == 3
        residues = dict(table)
        # the residues of x = -1 and x = 1: only the bound keeps them
        assert 12 in residues[13] and 18 in residues[19] and 1 in residues[97]
        assert list(_sieve_block(family_by_name("bn12"), -3, 4)) == [1] * 7

    def test_capped_search_over_a_huge_range_stops_at_its_first_record(self, capsys):
        start = time.perf_counter()
        records = run_search(SearchConfig("bn12", x_min=10**15, x_max=10**18, max_records=1))
        assert time.perf_counter() - start < 2
        x0 = records[0].x0
        # the walk starts at -10**18: no record lies before x0
        assert [r.x0 for r in _unsieved("bn12", -x0, 10**18) if r.x0 <= x0] == [x0]
        walked = x0 + 10**18 + 1
        assert capsys.readouterr().err.startswith(f"D=3, x values={walked}, sieved=")

    def test_q_bits_range_is_checked_before_primality(self):
        config = SearchConfig(
            "freeman10", d_min=EXAMPLE_149.d, d_max=EXAMPLE_149.d, max_u_bits=4096,
            q_bits_min=100, q_bits_max=200,
        )
        start = time.perf_counter()
        records = run_search(config)
        assert time.perf_counter() - start < 1
        assert [(r.q, r.n) for r in records] == [(EXAMPLE_149.q, EXAMPLE_149.n)]

    _Q_BITS_CASES = {
        "mnt6+": SearchConfig("mnt6+", d_min=1, d_max=2000, max_u_bits=256),
        "freeman10": SearchConfig("freeman10", d_min=EXAMPLE_149.d, d_max=EXAMPLE_149.d,
                                  max_u_bits=512),
        "bn12": SearchConfig("bn12", x_min=-3000, x_max=3000),
    }
    _uncapped = {}

    @settings(max_examples=30, deadline=None)
    @given(
        name=st.sampled_from(sorted(_Q_BITS_CASES)), lo=st.integers(1, 160),
        span=st.integers(0, 60), cap=st.integers(1, 200),
    )
    def test_early_q_bits_check_keeps_the_late_checks_records(self, name, lo, span, cap):
        """The q-bits range, tested before instantiate, keeps the records
        that filtering the uncapped output by q-bits and then capping keeps."""
        config = self._Q_BITS_CASES[name]
        if name not in self._uncapped:
            self._uncapped[name] = run_search(config)
        narrowed = config._replace(q_bits_min=lo, q_bits_max=lo + span, max_records=cap)
        expected = [r for r in self._uncapped[name] if narrowed.q_bits_ok(r.q)][:cap]
        assert run_search(narrowed) == expected


def _reference_quadratic_points(f, d_value, u_bits):
    """quadratic_points with the filter it had before it called
    PellProblem.satisfied_by: v and each sign of u compared with the
    residues directly."""
    red = reduce_quadratic(f.coefficient(2), f.coefficient(1), f.coefficient(0), d_value)
    problem = red.problem
    points = []
    for z in enumerate_solutions(problem.dprime, problem.t_value // 4, u_bit_limit=u_bits):
        v = 2 * abs(z.b)
        if v % problem.modulus_v != problem.residue_v:
            continue
        for u in dict.fromkeys((2 * z.a, -2 * z.a)):
            if u % problem.modulus_u == problem.residue_u:
                points.append(red.to_xy(u, v))
    return points


class TestSearchMNT:
    def test_mnt6_d19(self):
        config = SearchConfig(family="mnt6+", d_min=19, d_max=19)
        records = run_search(config)
        assert any((r.x0, r.q, r.n) == (-1, 5, 7) for r in records)

    def test_no_solution_gives_empty_stream(self):
        config = SearchConfig(family="mnt6+", d_min=5, d_max=5)
        # D = 5: f = 12x^2 - 4x + 3, norm equation turns out unsolvable
        records = run_search(config)
        for record in records:
            assert record.status is RecordStatus.PRIME_OK  # stream may be empty

    def test_exhaustive_cross_check(self):
        """Every (x, y) on D y^2 = f(x) from a direct scan must be reachable
        from the solver stream."""
        for name in ("mnt6+", "mnt3-"):
            fam = family_by_name(name)
            a = fam.f.coefficient(2)
            b = fam.f.coefficient(1)
            c = fam.f.coefficient(0)
            for d_value in (11, 19, 23, 29):
                scan = set()
                for x in range(-10**4, 10**4 + 1):
                    f_v = a * x * x + b * x + c
                    if f_v <= 0 or f_v % d_value:
                        continue
                    y = math.isqrt(f_v // d_value)
                    if y * y == f_v // d_value:
                        scan.add((x, y))
                try:
                    red = reduce_quadratic(a, b, c, d_value)
                except ValueError:
                    assert not scan
                    continue
                got = set()
                for z in enumerate_solutions(
                    red.problem.dprime, red.problem.t_value,
                    u_bit_limit=40, max_steps_per_class=4096,
                ):
                    if abs(z.b) % red.problem.modulus_v:
                        continue
                    for u in (z.a, -z.a):
                        if u % red.problem.modulus_u == red.problem.residue_u:
                            x, y = red.to_xy(u, abs(z.b))
                            if abs(x) <= 10**4:
                                got.add((x, abs(y)))
                assert scan <= got, (name, d_value, scan - got)

    @pytest.mark.parametrize(
        "name, d_values",
        [("mnt6+", (11, 19, 23, 29, 99, 171)), ("mnt3-", (11, 19, 23, 29, 1075)),
         ("mnt4a", (11, 19, 35, 8, 18, 68)), ("freeman10", (43, 67, 163, 28, 63, 172))],
    )
    def test_quadratic_points_cover_exhaustive_scan(self, name, d_values):
        """quadratic_points solves the halved norm equation; every point
        of D y^2 = f(x) with |x| <= 10^4 from a direct scan must be among
        its points, and every point it returns must lie on the curve.  The
        D past the first few are not square-free (172 = 4 * 43), and each
        has scan points."""
        f = family_by_name(name).f
        for d_value in d_values:
            scan = set()
            for x in range(-10**4, 10**4 + 1):
                f_v = f.evaluate(x)
                if f_v > 0 and f_v % d_value == 0:
                    y = math.isqrt(f_v // d_value)
                    if y * y == f_v // d_value:
                        scan.add((x, y))
            points = quadratic_points(f, d_value, u_bits=40)
            assert all(d_value * y * y == f.evaluate(x) and y >= 0 for x, y in points)
            assert len(set(points)) == len(points)
            assert scan <= set(points), (name, d_value, scan - set(points))

    @pytest.mark.parametrize(
        "name", ["mnt3+", "mnt3-", "mnt4a", "mnt4b", "mnt6+", "mnt6-", "freeman10"]
    )
    def test_quadratic_points_match_reference_filter(self, name):
        """Same points, in the same order, as the direct residue filter, on
        random square-free D below 10^6: a third drawn from all D, a third
        from the family's D classes, and a third as the square-free part of
        f(x) at a random x, which puts a point on D y^2 = f(x)."""
        family = family_by_name(name)
        modulus, residues = d_classes(family)
        rng = random.Random(name)
        found = 0
        for i in range(60):
            d_value = rng.randrange(1, 10**6)
            if i % 3 == 1:
                d_value += rng.choice(residues) - d_value % modulus
            elif i % 3 == 2:
                d_value = squarefree_decompose(max(family.f.evaluate(rng.randint(-50, 50)), 1))[0]
            if not 1 <= d_value < 10**6 or squarefree_decompose(d_value)[1] != 1:
                continue
            try:
                want = _reference_quadratic_points(family.f, d_value, 64)
            except ValueError:
                with pytest.raises(ValueError):
                    quadratic_points(family.f, d_value, 64)
                continue
            assert quadratic_points(family.f, d_value, 64) == want, d_value
            found += len(want)
        assert found

    def test_rejects_nonsquarefree_d(self):
        # D = 12 = 3 * 2^2 is not a square-free discriminant: never visited
        assert run_search(SearchConfig(family="mnt6+", d_min=12, d_max=12)) == []

    def test_square_ad_rejected_with_reason(self, capsys):
        # a = 12 for mnt6+ (f = 12x^2 - 4x + 3); D = 3 makes aD = 36 square
        assert run_search(SearchConfig(family="mnt6+", d_min=3, d_max=3)) == []
        err = capsys.readouterr().err
        assert err.startswith("D=3, skipped:") and "perfect square" in err
        # mnt3+: f = 12x^2 + 12x - 5 = 1 (mod 3), so 3 divides no D of a
        # point: D = 3 lies outside the classes and is never visited
        assert run_search(SearchConfig(family="mnt3+", d_min=3, d_max=3)) == []
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("name", ["mnt3+", "mnt3-", "mnt4a", "mnt4b", "mnt6+", "mnt6-"])
    def test_d_classes_drop_no_record(self, name, monkeypatch):
        config = SearchConfig(family=name, d_min=1, d_max=1500)
        derived = run_search(config)
        monkeypatch.setattr(search, "d_classes", lambda family: (1, (0,)))
        assert derived and run_search(config) == derived


class TestRunSearch:
    def test_dispatch_k10(self):
        config = SearchConfig(family="freeman10", d_min=43, d_max=43, q_bits_max=64)
        records = run_search(config)
        assert [r.d for r in records] == [43]

    def test_dispatch_bn(self):
        config = SearchConfig(family="bn12", x_min=0, x_max=2)
        assert len(run_search(config)) == 3

    def test_dispatch_mnt_range(self):
        config = SearchConfig(family="mnt6+", d_min=19, d_max=19)
        records = run_search(config)
        assert any(r.x0 == -1 for r in records)

    def test_mnt_records_have_exact_embedding_degree(self):
        # at D = 11, x0 = 1 gives q = 5, n = 3 with embedding degree 2, not 6
        records = run_search(SearchConfig(family="mnt6+", d_min=11, d_max=11))
        assert records and all(r.x0 != 1 for r in records)
        for record in records:
            assert verify_record(record).status is RecordStatus.PRIME_OK

    def test_cap_keeps_the_first_record_in_d_x0_order(self):
        # D = 11 holds x0 = -6 and x0 = -2; the norm equation finds -2 first
        config = SearchConfig("mnt4b", d_min=1, d_max=40, max_u_bits=256, max_records=1)
        assert run_search(config)[0].x0 == -6

    @pytest.mark.parametrize(
        "config",
        [
            SearchConfig(family="freeman10", d_min=1, d_max=3000, q_bits_max=64),
            SearchConfig(family="mnt6+", d_min=1000036000099, d_max=1000036000099),
            SearchConfig(family="bn12", x_min=0, x_max=2),
        ],
        ids=["candidates", "skipped", "sieved"],
    )
    def test_each_stderr_line_is_one_write(self, config, monkeypatch):
        """Parallel parts share stderr, so a line written in two calls can
        be split by another part's line."""
        writes = []
        monkeypatch.setattr(search.sys, "stderr", SimpleNamespace(write=writes.append))
        run_search(config)
        assert writes
        assert all(text.count("\n") == 1 and text.endswith("\n") for text in writes)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(family="freeman10", max_u_bits=8)
        with pytest.raises(ValueError):
            SearchConfig(family="freeman10", q_bits_min=10, q_bits_max=5)
        with pytest.raises(ValueError):
            SearchConfig(family="freeman10", max_records=0)
