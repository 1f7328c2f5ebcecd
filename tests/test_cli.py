import concurrent.futures
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pforge

from pforge import cli
from pforge.cli import (
    EXIT_EMPTY,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    main,
    parse_record_line,
    serialize_record,
)
from pforge.curve import CurveRecord, RecordStatus
from pforge.families import d_classes

from conftest import EXAMPLE_149, EXAMPLE_196


@pytest.fixture
def in_process_pool(monkeypatch):
    """A process pool that maps in-process, so nothing is forked; the list
    it returns collects the pool size of every pool started."""
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    return sizes


def _records_without_provenance(path) -> list[dict]:
    rows = []
    for line in path.read_text().splitlines():
        data = json.loads(line)
        data.pop("provenance", None)
        rows.append(data)
    return rows


class TestSerialization:
    def test_round_trip_exact_at_200_bits(self):
        record = CurveRecord(
            k=10,
            q=EXAMPLE_149.q,
            n=EXAMPLE_149.n,
            t=EXAMPLE_149.q + 1 - EXAMPLE_149.n,
            d=EXAMPLE_149.d,
            x0=66980436970,
            a=-3,
            b=EXAMPLE_149.b,
            status=RecordStatus.CURVE_VERIFIED,
        )
        assert parse_record_line(serialize_record(record)).record == record

    def test_round_trip_preserves_rejection_reason(self):
        record = CurveRecord(
            k=10, q=11, n=7, t=5, status=RecordStatus.REJECTED, reason="q is not prime"
        )
        parsed = parse_record_line(serialize_record(record)).record
        assert parsed.status is RecordStatus.REJECTED
        assert parsed.reason == "q is not prime"

    def test_integers_travel_as_strings(self):
        record = CurveRecord(k=10, q=2**200 + 235, n=3, t=2**200 + 233)
        data = json.loads(serialize_record(record))
        assert data["q"] == str(2**200 + 235)
        assert isinstance(data["k"], str)

    def test_optional_fields_omitted(self):
        record = CurveRecord(k=12, q=103, n=97, t=7)
        data = json.loads(serialize_record(record))
        assert "a" not in data and "x0" not in data

    def test_signed_coefficient_preserved(self):
        record = CurveRecord(k=10, q=101, n=97, t=5, a=-3, b=4)
        data = json.loads(serialize_record(record))
        assert data["a"] == "-3"
        assert parse_record_line(serialize_record(record)).record.a == -3


class TestSearchCommand:
    def test_emits_records_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "records.jsonl"
        code = main(
            [
                "search", "--family", "bn12", "--x-min", "0", "--x-max", "2",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        envelope = parse_record_line(lines[0])
        assert envelope.schema_version == "1"
        assert envelope.provenance["tool_version"]
        assert envelope.provenance["config_digest"].startswith("sha256:")

    def test_zero_records_exit_three(self, tmp_path):
        out = tmp_path / "empty.jsonl"
        code = main(
            ["search", "--family", "freeman10", "--d-min", "44", "--d-max", "44",
             "--out", str(out)]
        )
        assert code == EXIT_EMPTY
        assert out.read_text() == ""

    def test_bad_family_exit_two(self):
        assert main(["search", "--family", "nosuch"]) == EXIT_USAGE

    def test_inverted_bits_range_exit_two(self, capsys):
        code = main(
            ["search", "--family", "bn12", "--x-min", "0", "--x-max", "2",
             "--q-bits", "9..6"]
        )
        assert code == EXIT_USAGE

    def test_search_output_verifies(self, tmp_path):
        out = tmp_path / "bn.jsonl"
        assert main(["search", "--family", "bn12", "--x-min", "0", "--x-max", "20",
                     "--out", str(out)]) == EXIT_OK
        assert main(["verify", "--in", str(out)]) == EXIT_OK

    def test_bn12_sieved_search_reports_the_sieve(self, tmp_path, capsys):
        out = tmp_path / "bn.jsonl"
        argv = ["search", "--family", "bn12", "--x-min", "-1000", "--x-max", "1000"]
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        assert len(out.read_text().splitlines()) == 61
        assert capsys.readouterr().err == (
            "D=3, x values=2001, sieved=1537 (q(x) or n(x) has a prime factor below 100)\n"
        )

    def test_workers_merge_deterministically(self, tmp_path):
        args = ["search", "--family", "freeman10", "--d-min", "1", "--d-max", "3000",
                "--q-bits", "1..96"]
        out1, out2 = tmp_path / "w1.jsonl", tmp_path / "w2.jsonl"
        assert main(args + ["--workers", "1", "--out", str(out1)]) == EXIT_OK
        assert main(args + ["--workers", "3", "--out", str(out2)]) == EXIT_OK
        assert _records_without_provenance(out1) == _records_without_provenance(out2)

    @pytest.mark.parametrize(
        "family_args",
        [
            ["--family", "mnt6+", "--d-min", "1", "--d-max", "120"],
            ["--family", "bn12", "--x-min", "-20", "--x-max", "20"],
            ["--family", "bn12", "--x-min", "-60", "--x-max", "-7"],
            ["--family", "bn12", "--x-min", "3", "--x-max", "400", "--q-bits", "1..40"],
            ["--family", "bn12", "--x-min", str(2**62), "--x-max", str(2**62 + 2999)],
        ],
        ids=["mnt6+", "bn12-both-signs", "bn12-negative", "bn12-positive", "bn12-at-2^62"],
    )
    def test_workers_merge_deterministically_per_family(self, tmp_path, family_args):
        outputs = []
        for workers in ("1", "2", "3"):
            out = tmp_path / f"w{workers}.jsonl"
            assert main(["search", *family_args, "--workers", workers, "--out", str(out)]) == EXIT_OK
            outputs.append(_records_without_provenance(out))
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    @pytest.mark.parametrize(
        "family_args, cpus, pool_size",
        [
            (["--family", "mnt6+", "--d-min", "1", "--d-max", "2"], 64, 2),
            (["--family", "mnt6+", "--d-min", "1", "--d-max", "120"], 3, 3),
            (["--family", "bn12", "--x-min", "0", "--x-max", "40"], None, 1),
        ],
        ids=["two-d-values", "capped-by-cpus", "cpu-count-unknown"],
    )
    def test_pool_size_is_bounded_by_work_and_cpus(
        self, tmp_path, monkeypatch, in_process_pool, family_args, cpus, pool_size
    ):
        """--workers 64 starts no more processes than there are chunks of
        work or CPUs."""
        monkeypatch.setattr("pforge.search.os.cpu_count", lambda: cpus)
        out_one, out_many = tmp_path / "one.jsonl", tmp_path / "many.jsonl"
        assert main(["search", *family_args, "--out", str(out_one)]) in (EXIT_OK, EXIT_EMPTY)
        assert not in_process_pool
        code = main(["search", *family_args, "--workers", "64", "--out", str(out_many)])
        assert code in (EXIT_OK, EXIT_EMPTY)
        assert in_process_pool == [pool_size]
        assert _records_without_provenance(out_many) == _records_without_provenance(out_one)

    @pytest.mark.parametrize(
        "family_args, caps",
        [
            (["--family", "mnt3+", "--d-min", "1", "--d-max", "7800"], (1, 2, 3, 23, 24, 25)),
            (["--family", "mnt4b", "--d-min", "1", "--d-max", "40"], (1,)),
        ],
        ids=["mnt3+", "mnt4b"],
    )
    def test_max_records_prints_a_prefix_for_any_workers(
        self, tmp_path, in_process_pool, family_args, caps
    ):
        """--max-records N prints the first N records of the uncapped
        output, for --workers 1, 2 and 3."""
        out = tmp_path / "out.jsonl"

        def search(*extra):
            argv = ["search", *family_args, "--max-u-bits", "256", *extra, "--out", str(out)]
            assert main(argv) == EXIT_OK
            return _records_without_provenance(out)

        uncapped = search()
        for cap in caps:
            for workers in ("1", "2", "3"):
                capped = search("--max-records", str(cap), "--workers", workers)
                assert capped == uncapped[:cap], (cap, workers)

    def test_pinned_search_reproduces_published_record(self, tmp_path):
        out = tmp_path / "pinned.jsonl"
        code = main(
            ["search", "--family", "freeman10",
             "--d-min", str(EXAMPLE_149.d), "--d-max", str(EXAMPLE_149.d),
             "--q-bits", "148..150", "--out", str(out)]
        )
        assert code == EXIT_OK
        records = [parse_record_line(line).record for line in out.read_text().splitlines()]
        assert len(records) == 1
        assert records[0].q == EXAMPLE_149.q and records[0].n == EXAMPLE_149.n

    def test_record_missing_field_rejected(self, tmp_path, capsys):
        path = tmp_path / "incomplete.jsonl"
        path.write_text('{"k": "10", "q": "11"}\n')
        assert main(["verify", "--in", str(path)]) == EXIT_USAGE
        assert "line 1" in capsys.readouterr().err

    def test_verify_recomputes_stale_status(self, tmp_path, capsys):
        # a record stamped REJECTED whose parameters are actually fine
        path = tmp_path / "stale.jsonl"
        record = CurveRecord(
            k=10, q=EXAMPLE_149.q, n=EXAMPLE_149.n, t=EXAMPLE_149.q + 1 - EXAMPLE_149.n,
            d=EXAMPLE_149.d, status=RecordStatus.REJECTED, reason="stale",
        )
        path.write_text(serialize_record(record) + "\n")
        assert main(["verify", "--in", str(path)]) == EXIT_OK
        data = json.loads(capsys.readouterr().out.strip())
        assert data["status"] == "PRIME_OK"

    def test_sorted_by_d_then_x(self, tmp_path):
        out = tmp_path / "sorted.jsonl"
        main(["search", "--family", "freeman10", "--d-min", "1", "--d-max", "5000",
              "--q-bits", "1..96", "--out", str(out)])
        keys = []
        for line in out.read_text().splitlines():
            data = json.loads(line)
            keys.append((int(data["d"]), int(data["x0"])))
        assert keys == sorted(keys)


class TestVerifyCommand:
    def inline_args(self, ex, **extra):
        args = [
            "verify", "--q", str(ex.q), "--n", str(ex.n), "--k", "10",
            "--d", str(ex.d), "--a", str(ex.a), "--b", str(ex.b),
        ]
        for key, value in extra.items():
            args += [f"--{key}", str(value)]
        return args

    def test_inline_example_verified(self, capsys):
        assert main(self.inline_args(EXAMPLE_149)) == EXIT_OK
        data = json.loads(capsys.readouterr().out.strip())
        assert data["status"] == "CURVE_VERIFIED"

    def test_family_recovery(self, capsys):
        assert main(self.inline_args(EXAMPLE_149, family="freeman10")) == EXIT_OK
        data = json.loads(capsys.readouterr().out.strip())
        assert data["x0"] == "66980436970"

    @pytest.mark.parametrize("family", ["mnt6+", "mnt4a"])
    def test_family_recovery_picks_the_preimage_where_n_matches(self, family, capsys):
        """These families' q takes each value at two x (q(x) = q(-x) for
        mnt6+), with different n: a record from either x verifies."""
        fam = pforge.family_by_name(family)
        for x0 in (-2, 2, -5, 5, -45, 45):
            q, n = fam.q.evaluate(x0), fam.n.evaluate(x0)
            args = ["verify", "--q", str(q), "--n", str(n), "--k", str(fam.k), "--family", family]
            main(args)
            data = json.loads(capsys.readouterr().out.strip())
            assert data["x0"] == str(x0)
            assert not data["status"].startswith("REJECTED(n(x0) does not match")

    @pytest.mark.parametrize(
        "extra, status",
        [
            (["--n", "13", "--x", "5"], "REJECTED(recovered x0 = 2 differs from supplied 5)"),
            (["--n", "11"], "REJECTED(n(x0) does not match n at x0 = -2)"),
            (["--n", "13", "--t", "4"], "REJECTED(t(x0) does not match t at x0 = 2)"),
        ],
        ids=["x0-differs", "n-differs", "t-differs"],
    )
    def test_family_inconsistency_exit_four(self, capsys, extra, status):
        # mnt6+ has q(2) = q(-2) = 17, n(2) = 13, t(2) = 5, n(-2) = 21
        argv = ["verify", "--q", "17", "--k", "6", "--family", "mnt6+", *extra]
        assert main(argv) == EXIT_VERIFY_FAILED
        assert json.loads(capsys.readouterr().out)["status"] == status

    def test_perturbed_b_exit_four(self, capsys):
        bad = self.inline_args(EXAMPLE_149)
        bad[bad.index("--b") + 1] = str(EXAMPLE_149.b + 1)
        assert main(bad) == EXIT_VERIFY_FAILED
        data = json.loads(capsys.readouterr().out.strip())
        assert data["status"].startswith("REJECTED")

    def test_twins_verified_together_match_one_process_per_line(self, tmp_path):
        """A curve and its quadratic twist share q and n, so verifying them in
        one process proves each prime once; the lines must not change."""
        records = []
        for ex in (EXAMPLE_149, EXAMPLE_196):
            q = ex.q
            c = next(c for c in range(2, q) if pow(c, (q - 1) // 2, q) == q - 1)
            for a, b in ((ex.a, ex.b), (ex.a * c * c % q, ex.b * c**3 % q)):
                records.append(CurveRecord(k=10, q=q, n=ex.n, t=q + 1 - ex.n, d=ex.d, a=a, b=b))
        path = tmp_path / "twins.jsonl"

        def verify(batch):
            # one path for every run, so the provenance digests agree
            path.write_text("".join(serialize_record(r) + "\n" for r in batch))
            result = _run_cli(["verify", "--in", str(path)], timeout=60)
            rows = [json.loads(line) for line in result.stdout.splitlines()]
            for row in rows:
                del row["provenance"]["timestamp"]
            return result.returncode, rows

        together = verify(records)
        alone = [verify([record]) for record in records]
        assert together == (EXIT_VERIFY_FAILED, [row for _, rows in alone for row in rows])
        assert [code for code, _ in alone] == [EXIT_OK, EXIT_VERIFY_FAILED] * 2
        statuses = ["CURVE_VERIFIED", "REJECTED(group order check: REFUTED)"]
        assert [row["status"] for row in together[1]] == statuses * 2

    def test_missing_t_derived(self, capsys):
        # drop a and b: verification stops at PRIME_OK
        args = ["verify", "--q", str(EXAMPLE_149.q), "--n", str(EXAMPLE_149.n),
                "--k", "10", "--d", str(EXAMPLE_149.d)]
        assert main(args) == EXIT_OK
        data = json.loads(capsys.readouterr().out.strip())
        assert data["status"] == "PRIME_OK"
        assert int(data["t"]) == EXAMPLE_149.q + 1 - EXAMPLE_149.n

    def test_unparseable_file_line_numbered(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"k": "10", "q": "11"}\nnot json\n')
        assert main(["verify", "--in", str(path)]) == EXIT_USAGE
        assert "line" in capsys.readouterr().err

    def test_inline_and_file_exclusive(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text("")
        assert main(["verify", "--in", str(path), "--q", "5"]) == EXIT_USAGE

    def test_missing_required_inline(self):
        assert main(["verify", "--q", "11"]) == EXIT_USAGE


class TestAnalyzeCommand:
    def test_freeman(self, capsys):
        code = main(["analyze", "--t", "10x^2+5x+3", "--n", "25x^4+25x^3+15x^2+5x+1",
                     "--k", "10"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "QUADRATIC_SQUAREFREE" in out
        assert "UNKNOWN_NEEDS_SOLUTION" in out
        assert out.count("PASS") == 3

    def test_freeman_with_witness(self, capsys):
        code = main(["analyze", "--t", "10x^2+5x+3", "--n", "25x^4+25x^3+15x^2+5x+1",
                     "--k", "10", "--d", "43"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "witness for D = 43" in out
        assert "FAMILY_BY_THM2" in out

    def test_freeman_no_witness_at_square_ad(self, capsys):
        # a D = 15 * 15 is a square: D = 15 gives no real quadratic order
        code = main(["analyze", "--t", "10x^2+5x+3", "--n", "25x^4+25x^3+15x^2+5x+1",
                     "--k", "10", "--d", "15"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "no witness found for D = 15 within the search caps" in out
        assert "verdict: UNKNOWN_NEEDS_SOLUTION" in out

    def test_freeman_witness_at_d_with_large_square_part(self, capsys):
        # D = f(x) at x = 34282878382330795715058, and 1000003**2 * 1000081**2
        # divides it: a*D has square prime factors past trial division, and
        # the reduction, which factors only a = 15, still finds the point
        x = 34282878382330795715058
        d_value = 15 * x * x + 10 * x + 3
        assert d_value % (1000003 * 1000081) ** 2 == 0
        code = main(["analyze", "--t", "10x^2+5x+3", "--n", "25x^4+25x^3+15x^2+5x+1",
                     "--k", "10", "--d", str(d_value)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert f"witness for D = {d_value}: x = {x}, y = 1" in out
        assert "verdict: FAMILY_BY_THM2" in out

    def test_no_witness_when_a_does_not_factor(self, capsys):
        # f = a x^2 + 4x + 4 with a = 1000003 * 1000033 past trial division,
        # and D = a f(5): the norm equation of a*f(x) = D y^2 has the pair
        # u = 10a + 4, v = 2, but f(5) != D, so no point may be reported
        a = 1000003 * 1000033
        d_value = a * (25 * a + 24)
        code = main(["analyze", "--t", "x", "--n", f"{(a + 1) // 4}x^2+2",
                     "--k", "10", "--d", str(d_value)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert f"f(x) = 4q - t^2 = {a}x^2+4x+4" in out
        assert f"no witness found for D = {d_value} within the search caps" in out
        assert "FAMILY_BY_THM2" not in out

    def test_bn(self, capsys):
        code = main(["analyze", "--t", "6x^2+1", "--n", "36x^4+36x^3+18x^2+6x+1",
                     "--k", "12"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "FAMILY_BY_PROP_SQUARE" in out

    def test_linear_t_no_family(self, capsys):
        code = main(["analyze", "--t", "x+2", "--n", "x^4+3x^3+4x^2+2x+1", "--k", "10"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "NO_FAMILY" in out

    def test_parse_error_exit_two(self, capsys):
        assert main(["analyze", "--t", "10x^^2", "--n", "x", "--k", "10"]) == EXIT_USAGE
        assert "position" in capsys.readouterr().err

    @pytest.mark.parametrize("opening", ["(", "x("])
    def test_deep_nesting_exit_two(self, capsys, opening):
        text = opening * 1000 + "x" + ")" * 1000
        assert main(["analyze", "--t", text, "--n", "x^2+1", "--k", "4"]) == EXIT_USAGE
        assert "nested too deeply" in capsys.readouterr().err

    def test_moderate_nesting_exits_with_a_contract_code(self):
        # whether 200 levels parse depends on the interpreter's recursion
        # limit; either way the run must not end in a traceback
        text = "(" * 200 + "x" + ")" * 200
        code = main(["analyze", "--t", text, "--n", "x^2+1", "--k", "4"])
        assert code in (EXIT_OK, EXIT_USAGE)

    def test_degree_above_the_recursion_limit(self, capsys):
        # n = x^1024 + 2: its rational-root test isolates roots through
        # 1,023 derivatives
        assert main(["analyze", "--t", "x", "--n", "x^512x^512+2", "--k", "4"]) == EXIT_OK
        assert "verdict: NO_FAMILY" in capsys.readouterr().out

    def test_inconsistent_q_exit_two(self, capsys):
        code = main(["analyze", "--t", "x+1", "--n", "x^2+1", "--q", "x^2+7", "--k", "4"])
        assert code == EXIT_USAGE
        assert "n = q + 1 - t" in capsys.readouterr().err


class TestPellCommand:
    def test_fundamental_unit(self, capsys):
        assert main(["pell", "--fundamental-unit", "--dprime", "2"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "3 + 2 sqrt(2)" in out

    def test_solutions_listing(self, capsys):
        assert main(["pell", "--dprime", "645", "--t", "-20", "--count", "5"]) == EXIT_OK
        out = capsys.readouterr().out
        sols = [line for line in out.splitlines() if line.startswith("u = ")]
        assert len(sols) == 5
        for line in sols:
            u = int(line.split("u = ")[1].split(",")[0])
            v = int(line.split("v = ")[1])
            assert u * u - 645 * v * v == -20

    def test_constrained_solutions(self, capsys):
        assert main(["pell", "--dprime", "645", "--t", "-20", "--count", "3",
                     "--mod-u", "15,5"]) == EXIT_OK
        out = capsys.readouterr().out
        for line in out.splitlines():
            if line.startswith("u = "):
                u = int(line.split("u = ")[1].split(",")[0])
                assert u % 15 == 5

    def test_square_dprime_exit_two(self):
        assert main(["pell", "--dprime", "4", "--t", "1"]) == EXIT_USAGE

    def test_no_solutions_exit_three(self):
        assert main(["pell", "--dprime", "3", "--t", "-1"]) == EXIT_EMPTY

    def test_missing_t_exits_before_the_unit(self):
        # the continued fraction of this sqrt(D') takes hours to walk, so the
        # usage error must come before the fundamental unit
        proc = _run_cli(["pell", "--dprime", "1000000000000000000000000000057"], timeout=10)
        assert proc.returncode == EXIT_USAGE, proc.stderr
        assert "--t is required" in proc.stderr


def _run_cli(argv: list[str], timeout: float) -> subprocess.CompletedProcess:
    src = os.path.dirname(os.path.dirname(pforge.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", "pforge.cli", *argv],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


_SMALL = st.integers(min_value=-3, max_value=40).map(str)
_PRIMES = st.sampled_from(["2", "3", "5", "7", "11", "13", "17", "19", "23", "29", "31", "37"])
# A 216-bit product of two primes, and a 725-digit product of three
# Mersenne primes (too large for a float): composites with no small factor
# whose perfect-power check takes integer roots far beyond float precision.
_SEMIPRIME_216 = 71143958422034120340969479516828379562010131878055893267417205447
_MERSENNE_PRODUCT = (2**607 - 1) * (2**521 - 1) * (2**1279 - 1)
# Large values for flags and fields that name a number, not a range or a
# size: two primes, a product of three primes above 10**6 that
# factorize's trial division cannot split, and the two composites above.
_WIDE = st.sampled_from(
    [10**24 + 7, 2**127 - 1, 999999999989 * 1000003 * 1000033, _SEMIPRIME_216, _MERSENNE_PRODUCT]
).map(str)
_FAMILIES = st.sampled_from(
    ["freeman10", "mnt3+", "mnt3-", "mnt4a", "mnt4b", "mnt6+", "mnt6-", "bn12", "nosuch"]
)
_POLYS = st.sampled_from(
    ["x", "x+1", "2x+1", "-6x-1", "x^2+1", "6x^2+1", "10x^2+5x+3", "25x^4+25x^3+15x^2+5x+1",
     "0", "1", "(x", "x^", "(" * 300 + "x" + ")" * 300]
)
# Each subcommand's flags with the values drawn for them; None marks a switch.
_FLAGS = {
    "search": {
        "--family": _FAMILIES, "--d-min": _SMALL, "--d-max": _SMALL, "--x-min": _SMALL,
        "--x-max": _SMALL, "--q-bits": st.sampled_from(["1..64", "8..16", "5..3", "0..4", "x"]),
        "--max-u-bits": st.sampled_from(["-1", "0", "15", "16", "40"]), "--max-records": _SMALL,
    },
    "verify": {
        "--q": _PRIMES | _SMALL | _WIDE, "--n": _PRIMES | _SMALL | _WIDE,
        "--k": _SMALL | _WIDE, "--t": _SMALL,
        "--d": _SMALL, "--x": _SMALL, "--a": _SMALL, "--b": _SMALL, "--family": _FAMILIES,
    },
    "analyze": {"--t": _POLYS, "--n": _POLYS, "--q": _POLYS, "--k": _SMALL | _WIDE, "--d": _SMALL},
    "pell": {
        "--dprime": _SMALL, "--t": _SMALL | _WIDE, "--count": st.sampled_from(["-3", "0", "1", "5"]),
        "--mod-u": st.sampled_from(["3,1", "0,1", "2,x"]), "--mod-v": st.sampled_from(["2,0", "-1,0"]),
        "--max-u-bits": st.sampled_from(["-1", "0", "16", "64"]), "--fundamental-unit": None,
    },
    "families": {},
}
_FIELD_VALUES = (
    _SMALL | _PRIMES | st.integers(min_value=-3, max_value=40)
    | st.sampled_from([None, True, 1.5, [1], "x", "", "PRIME_OK", "REJECTED(x)", "bogus"])
)
_RECORD_LINES = st.lists(
    st.lists(
        st.sampled_from(["k", "q", "n", "t", "d", "x0", "a", "b", "status"]), unique=True
    ).flatmap(
        lambda names: st.fixed_dictionaries(
            {name: _FIELD_VALUES | _WIDE if name in ("k", "q", "n") else _FIELD_VALUES
             for name in names}
        )
    ).map(json.dumps)
    | st.sampled_from(["[1]", "{", "null", ""]),
    max_size=3,
)


_REQUIRED = {
    "search": ["--family"], "verify": ["--q", "--n", "--k"], "analyze": ["--t", "--n", "--k"],
    "pell": ["--dprime", "--t"], "families": [],
}


@st.composite
def _cli_inputs(draw):
    """(argv, record lines or None): a subcommand, mostly with the flags it
    needs, some of its other flags, with small values or, for a flag that
    names a number rather than a range or a size, a large one, and now and
    then a stray token.  For verify, half the time record lines to pass through
    --in, with only the flags that apply to records."""
    command = draw(st.sampled_from(sorted(_FLAGS)))
    flags = _FLAGS[command]
    required = _REQUIRED[command] if draw(st.integers(0, 9)) else []
    lines = None
    if command == "verify" and draw(st.booleans()):
        lines = draw(_RECORD_LINES)
        flags = {"--family": flags["--family"]}
        required = []
    optional = sorted(set(flags) - set(required))
    chosen = required + (draw(st.lists(st.sampled_from(optional), unique=True)) if optional else [])
    argv = [command]
    for flag in chosen:
        argv.append(flag)
        if flags[flag] is not None:
            argv.append(draw(flags[flag]))
    if not draw(st.integers(0, 9)):
        argv.append(draw(st.sampled_from(["--bogus", "7", "--q", "--in"])))
    return argv, lines


class TestExitCodeContract:
    @pytest.mark.parametrize(
        "argv, record_line, code",
        [
            (["verify", "--family", "nosuch", "--q", "5", "--n", "3", "--k", "6"], None, EXIT_USAGE),
            (["analyze", "--t", "x", "--n", "x^2+1", "--k", "0"], None, EXIT_USAGE),
            (["verify", "--in"], "[1]", EXIT_USAGE),
            (["verify", "--q", "3", "--n", "5", "--k", "4", "--a", "1", "--b", "1"], None,
             EXIT_VERIFY_FAILED),
            (["verify", "--in"], '{"k": [1], "q": "5", "n": "3"}', EXIT_USAGE),
            (["verify", "--in"], '{"k": "6", "q": "5", "n": "3", "status": 5}', EXIT_USAGE),
            (["verify", "--in"], '{"k": 1e400, "q": "5", "n": "3"}', EXIT_USAGE),
            (["verify", "--in"], '{"k": "6", "q": "5", "n": "3", "t": null}', EXIT_USAGE),
            (["verify", "--in"], '{"k": "0", "q": "5", "n": "3"}', EXIT_USAGE),
            (["verify", "--q", str(EXAMPLE_149.q), "--n", str(EXAMPLE_149.n), "--k", "0"], None,
             EXIT_USAGE),
            (["verify", "--q", str(EXAMPLE_149.q), "--n", str(EXAMPLE_149.n), "--k", "-10"], None,
             EXIT_USAGE),
            (["verify", "--q", "5", "--n", "3", "--k", "2", "--d", "0"], None, EXIT_USAGE),
            (["verify", "--q", "5", "--n", "3", "--k", "2", "--d", "-11"], None, EXIT_USAGE),
            (["verify", "--in"], '{"k": "2", "q": "5", "n": "3", "d": "0"}', EXIT_USAGE),
            (["analyze", "--t", "x", "--n", "x^2+1", "--k", "4", "--d", "0"], None, EXIT_USAGE),
            (["analyze", "--t", "x", "--n", "x^2+1", "--k", "4", "--d", "-3"], None, EXIT_USAGE),
            (["pell", "--dprime", "5", "--t", "4", "--count", "0"], None, EXIT_USAGE),
            (["pell", "--dprime", "5", "--t", "4", "--count", "-3"], None, EXIT_USAGE),
            (["pell", "--dprime", "645"], None, EXIT_USAGE),
            (["search", "--family", "bn12", "--x-min", "1", "--x-max", "3",
              "--out", "/nonexistent/x.jsonl"], None, EXIT_USAGE),
            (["verify", "--q", "5", "--n", "3", "--k", "2", "--out", "/nonexistent/y.jsonl"],
             None, EXIT_USAGE),
            (["search", "--family", "bn12", "--x-max", "3", "--workers", "0"], None, EXIT_USAGE),
            (["search", "--family", "bn12", "--x-max", "3", "--workers", "-2"], None, EXIT_USAGE),
            (["analyze", "--t", "x", "--n", "x^2+1", "--k", str(10**24 + 7)], None, EXIT_USAGE),
            (["analyze", "--t", "x", "--n", "x^2+1", "--k", str(_SEMIPRIME_216)], None,
             EXIT_USAGE),
            # 1000003 * 1000033 = 19 (mod 24) lies in mnt6+'s D classes, and
            # trial division up to 10^6 cannot split it
            (["search", "--family", "mnt6+", "--d-min", str(1000003 * 1000033),
              "--d-max", str(1000003 * 1000033)], None, EXIT_EMPTY),
            (["pell", "--dprime", "7", "--t", str(_SEMIPRIME_216)], None, EXIT_USAGE),
            (["analyze", "--t", "x", "--n", "x^2+1", "--k", str(_MERSENNE_PRODUCT)], None,
             EXIT_USAGE),
        ],
        ids=[
            "unknown-family", "k-zero", "non-object-record", "order-check-precondition",
            "record-k-list", "record-status-int", "record-k-float-overflow", "record-t-null",
            "record-k-zero", "inline-k-zero", "inline-k-negative",
            "inline-d-zero", "inline-d-negative", "record-d-zero",
            "analyze-d-zero", "analyze-d-negative",
            "pell-count-zero", "pell-count-negative", "pell-t-missing", "search-out-missing-dir",
            "verify-out-missing-dir", "workers-zero", "workers-negative", "analyze-huge-k",
            "analyze-semiprime-k", "search-semiprime-d", "pell-semiprime-t",
            "analyze-float-overflow-k",
        ],
    )
    def test_bad_input_exits_without_traceback(self, tmp_path, argv, record_line, code):
        if record_line is not None:
            path = tmp_path / "records.jsonl"
            path.write_text(record_line + "\n")
            argv = argv + [str(path)]
        proc = _run_cli(argv, timeout=60)
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        if code == EXIT_USAGE:
            # a search reports its progress (D=... lines) before its output fails
            *progress, last = proc.stderr.splitlines()
            assert last.startswith("error:") and all(line.startswith("D=") for line in progress)
        elif code == EXIT_EMPTY:
            assert "skipped: square-freeness could not be verified" in proc.stderr
        else:
            status = json.loads(proc.stdout)["status"]
            assert status.startswith("REJECTED(group order check: ")

    @given(case=_cli_inputs())
    @example(case=(["verify", "--q", "5", "--n", "3", "--k", "2", "--d", "0"], None))
    @example(case=(["verify"], ['{"k": "2", "q": "5", "n": "3", "d": "0"}']))
    @example(case=(["analyze", "--t", "(" * 300 + "x" + ")" * 300, "--n", "x", "--k", "4"], None))
    @settings(max_examples=300, deadline=None)
    def test_any_input_exits_with_a_contract_code(self, case):
        """Argv drawn from the CLI's own vocabulary, with small values, and
        JSON record lines for verify --in: main returns 0, 2, 3 or 4 and
        never raises."""
        argv, lines = case
        stderr = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            if lines is not None:
                path = os.path.join(tmp, "records.jsonl")
                with open(path, "w") as fh:
                    fh.writelines(line + "\n" for line in lines)
                argv = [argv[0], "--in", path, *argv[1:]]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                code = main(argv)
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_EMPTY, EXIT_VERIFY_FAILED), (argv, lines)
        assert "Traceback" not in stderr.getvalue()

    def test_large_embedding_degree_decided_from_prime_factors(self):
        # q**(k/3) = 1 mod n, so the degree is below k; a scan over every
        # d < k would not finish
        k = 999999998940
        proc = _run_cli(
            ["verify", "--q", "1000000000039", "--n", "999999998941", "--k", str(k)], timeout=10
        )
        assert proc.returncode == EXIT_VERIFY_FAILED, proc.stderr
        status = json.loads(proc.stdout)["status"]
        assert status == f"REJECTED(embedding degree is not exactly {k})"


class TestUsage:
    def test_no_command(self):
        assert main([]) == EXIT_USAGE

    def test_families_listing(self, capsys):
        assert main(["families"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "freeman10" in out and "bn12" in out
        assert "D = 43, 67 mod 120" in out and "fixed D = 3" in out

    def test_d_classes_not_derived_by_analyze(self, capsys):
        """analyze runs verify_family on user input, whose disc(f) may hold
        a large prime; only the search derives the D classes."""
        d_classes.cache_clear()
        argv = ["analyze", "--t", "10x^2+5x+3", "--n", "25x^4+25x^3+15x^2+5x+1", "--k", "10"]
        assert main(argv + ["--d", "43"]) == EXIT_OK
        assert d_classes.cache_info().misses == 0


def test_start_up_loads_only_what_every_run_needs():
    """Importing the CLI and building the catalog loads none of the modules
    that only some commands use (the process pool, fractions, datetime),
    nor dataclasses and the inspect/ast machinery it brings."""
    extras = ("dataclasses", "inspect", "concurrent.futures", "fractions", "datetime")
    code = (
        "import sys; before = set(sys.modules); import pforge.cli; "
        "pforge.cli.builtin_catalog(); "
        f"print(sorted(set(sys.modules) - before & {set(extras)!r}))"
    )
    src = os.path.dirname(os.path.dirname(pforge.__file__))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    assert out.stdout.strip() == "[]"


def test_value_types_reject_field_assignment():
    from pforge.intpoly import IntPoly
    from pforge.search import SearchConfig

    for value, name in (
        (CurveRecord(k=10, q=11, n=7, t=5), "q"),
        (IntPoly((1, 2)), "coeffs"),
        (SearchConfig("bn12"), "x_max"),
    ):
        with pytest.raises(AttributeError):
            setattr(value, name, 3)
        with pytest.raises(AttributeError):
            delattr(value, name)
