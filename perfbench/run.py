"""pforge benchmark: cold CLI invocations on four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads: k10-scan, mnt-scan, bn-scan,
verify-curves (see workloads.py for what each stresses and why).  The
inputs come from --seed only.  Every invocation is a fresh interpreter
running the real CLI (`pforge.cli.main`) on the checkout's `src/`, so the
caches and the family catalog start cold as they do for a user; the loop
repeats it for about S seconds and reports medians with the sample count.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json:
wall_s (process start to exit), setup_s (`import pforge` plus the first
`builtin_catalog()`), items_per_s (input items per second after set-up)
and peak_rss_mb.  The three timings are scaled to a reference machine
speed, measured by a fixed loop beside each invocation (see
CALIBRATION_REF_S); the unscaled medians are printed too.

--trace 1 alternates untraced and traced invocations and reports the
per-layer metrics: calls, inclusive and self time of the wrapped pforge
functions, the search funnel counts (which must repeat exactly between
traced invocations), records, fail_frac, the tracing overhead (traced
minus untraced wall_s, unscaled) and the line count of src/.

Outputs are checked after timing: exit codes, the published 149-bit record
in k10-scan, re-verification of every scan record to PRIME_OK, the planted
verify-curves statuses, and identical records from every invocation.  The
records' sha256 (provenance timestamp removed) is compared with the one
stored in baseline.json for the seed.  The last stdout line is one JSON
object; the exit code is 1 when a check fails and 2 when the checkout has
no pforge sources.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
CHILD_TIMEOUT_S = 150
CPUS = sorted(os.sched_getaffinity(0))
MIN_UNTRACED = 3
MIN_TRACED = 2
# The shared host changes speed by up to ~30% for seconds to minutes at a
# time, which moves every timing of an invocation alike (set-up included).
# A fixed loop timed on the invocation's CPU just before and just after it
# measures that speed.  The gated timings are divided by the loop's time as
# a multiple of CALIBRATION_REF_S (set-up, which follows the first loop at
# once, by that loop's; the others by the mean of both), so they read as on
# a machine where the loop takes CALIBRATION_REF_S.
CALIBRATION_LOOPS = 1_000_000
CALIBRATION_REF_S = 0.1  # about the loop's time on the baseline's 2-vCPU Xeon host

sys.path.insert(0, HERE)
from tracing import aggregate  # noqa: E402
from workloads import WORKLOADS, Plan, check_output, make_plan  # noqa: E402


def spin(loops: int) -> float:
    """Seconds a fixed pure-Python loop of `loops` steps takes right now."""
    start = time.perf_counter()
    total = 0
    for i in range(loops):
        total += i * i % 7
    return time.perf_counter() - start


def calibrate(cpu: int) -> float:
    """Seconds the calibration loop takes on `cpu` right now."""
    os.sched_setaffinity(0, {cpu})
    try:
        return spin(CALIBRATION_LOOPS)
    finally:
        os.sched_setaffinity(0, CPUS)


def fastest_cpu() -> int:
    """The CPU on which a short fixed loop runs fastest right now.  On a
    shared host one CPU is often slowed by a neighbour for seconds at a
    time; starting each invocation on the faster one steadies the timings."""
    speeds = []
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        speeds.append((min(spin(50_000) for _ in range(3)), cpu))
    os.sched_setaffinity(0, CPUS)
    return min(speeds)[1]


class Invocation:
    """One finished CLI process."""

    def __init__(self, plan: Plan, workdir: str, tag: str, traced: bool, cpu: int):
        timing_path = os.path.join(workdir, f"{tag}.timing.json")
        out_path = os.path.join(workdir, f"{tag}.out")
        err_path = os.path.join(workdir, f"{tag}.err")
        self.spans_path = os.path.join(workdir, f"{tag}.spans.json") if traced else None
        cmd = [sys.executable, os.path.join(HERE, "child.py"), timing_path]
        if traced:
            cmd += ["--trace", self.spans_path]
        cmd += ["--", *plan.cli_args]
        before = calibrate(cpu)
        with open(out_path, "w") as out, open(err_path, "w") as err:
            os.sched_setaffinity(0, {cpu})  # inherited by the child
            try:
                start = time.perf_counter()
                proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT)
            finally:
                os.sched_setaffinity(0, CPUS)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            self.wall_s = time.perf_counter() - start
        # The machine's slowness (1 at reference speed) as set-up starts,
        # and on average around the invocation.
        self.setup_slowness = before / CALIBRATION_REF_S
        self.slowness = (before + calibrate(cpu)) / 2 / CALIBRATION_REF_S
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024
        with open(out_path) as fh:
            self.lines = [line for line in fh.read().splitlines() if line.strip()]
        with open(err_path) as fh:
            self.stderr_tail = fh.read()[-2000:]
        try:
            with open(timing_path) as fh:
                timing = json.load(fh)
        except (OSError, ValueError):
            timing = {}
        self.setup_s = timing.get("setup_s", float("nan"))
        self.work_s = timing.get("work_s", float("nan"))
        self.pforge_file = timing.get("pforge_file", "")
        self.digest = records_digest(self.lines)


def records_digest(lines: list[str]) -> str:
    """sha256 over the emitted records with the provenance timestamp removed."""
    digest = hashlib.sha256()
    for line in lines:
        record = json.loads(line)
        record.get("provenance", {}).pop("timestamp", None)
        digest.update(json.dumps(record, sort_keys=True).encode() + b"\n")
    return digest.hexdigest()


def measure(plan: Plan, workdir: str, seconds: float, trace: bool):
    """Invocations for about `seconds`: untraced only, or alternating
    untraced and traced (at least MIN_TRACED traced) when tracing."""
    untraced: list[Invocation] = []
    traced: list[Invocation] = []
    deadline = time.perf_counter() + seconds
    while True:
        use_trace = trace and len(traced) < len(untraced)
        batch = traced if use_trace else untraced
        tag = f"run{len(untraced) + len(traced)}"
        batch.append(Invocation(plan, workdir, tag, use_trace, fastest_cpu()))
        enough = len(untraced) >= (1 if trace else MIN_UNTRACED)
        enough = enough and (not trace or len(traced) >= MIN_TRACED)
        next_s = max(inv.wall_s for inv in (untraced[-1:] + traced[-1:]))
        if enough and time.perf_counter() + next_s > deadline:
            return untraced, traced


def check(plan: Plan, invocations: list[Invocation]) -> tuple[list[str], int, int]:
    """(problems, failed invocations, wrongly answered items)."""
    problems: list[str] = []
    failed = 0
    first = invocations[0]
    for inv in invocations:
        bad = []
        if inv.code != plan.expected_code:
            bad.append(f"exit code {inv.code}, expected {plan.expected_code}: {inv.stderr_tail}")
        if inv.digest != first.digest:
            bad.append("records differ from the first invocation's")
        if not inv.pforge_file.startswith(SRC + os.sep):
            bad.append(f"pforge imported from {inv.pforge_file!r}, not from {SRC}")
        failed += bool(bad)
        problems += bad
    output_problems, wrong = check_output(plan, first.lines)
    return problems + output_problems, failed, wrong


def load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def units_of(kind: str) -> dict[str, str]:
    """Metric name -> unit, for the `end_to_end` or `per_layer` list."""
    return {m["name"]: m["unit"] for m in load_json(os.path.join(ROOT, "BENCHMARK.json"))[kind]}


def src_lines() -> int:
    total = 0
    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True):
        with open(path) as fh:
            total += sum(1 for _ in fh)
    return total


def end_to_end(plan: Plan, runs: list[Invocation]) -> dict[str, list[float]]:
    """Per-invocation samples of each end-to-end metric, timings scaled to
    the reference machine speed."""
    return {
        "wall_s": [r.wall_s / r.slowness for r in runs],
        "setup_s": [r.setup_s / r.setup_slowness for r in runs],
        "items_per_s": [plan.items * r.slowness / r.work_s for r in runs],
        "peak_rss_mb": [r.peak_rss_mb for r in runs],
    }


def records_count(plan: Plan, lines: list[str]) -> int:
    """Records emitted by a scan; CURVE_VERIFIED records for verify."""
    if plan.expected_statuses:
        return sum(json.loads(line).get("status") == "CURVE_VERIFIED" for line in lines)
    return len(lines)


def per_layer(plan, untraced, traced, wrong, problems) -> dict[str, float]:
    """Per-layer metrics: medians of times over the traced invocations;
    counts, which must be identical in every traced invocation, once."""
    dumps = []
    for inv in traced:
        with open(inv.spans_path) as fh:
            dumps.append(json.load(fh))
    layers = [aggregate(dump) for dump in dumps]
    timed = {name for name in layers[0] if name.endswith((".s", ".self_s"))}
    for other in layers[1:]:
        for name in set(layers[0]) | set(other):
            if name not in timed and layers[0].get(name) != other.get(name):
                problems.append(f"count {name} differs between traced runs: "
                                f"{layers[0].get(name)} vs {other.get(name)}")
    figures = {name: (median(layer.get(name, 0.0) for layer in layers) if name in timed
                      else value) for name, value in layers[0].items()}
    records = records_count(plan, traced[0].lines)
    figures.update({
        "trace.overhead_s": median(t.wall_s for t in traced) - median(u.wall_s for u in untraced),
        "records": records,
        "fail_frac": (figures.get("search.d_skipped_cap", 0) + wrong) / plan.items,
        "search.d_in_range": plan.d_in_range,
        "search.records": 0 if plan.expected_statuses else records,
        "src_lines": src_lines(),
    })
    wrapped = set(dumps[0]["names"])
    out = {}
    for name in units_of("per_layer"):
        if name in figures:
            out[name] = figures[name]
        elif name.rsplit(".", 1)[0] in wrapped:
            out[name] = 0  # a wrapped function this workload never calls
        else:
            raise KeyError(f"per-layer metric {name} is not measured")
    return out


def report(name: str, value, unit: str, note: str = "") -> None:
    print(f"  {name:<44} {value!s:>22} {unit:<6} {note}")


def run(args) -> int:
    workdir = os.path.join(WORK, args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    sys.path.insert(0, SRC)
    try:
        plan = make_plan(args.workload, args.seed, workdir)
        # Compile the sources once so no timed invocation pays for it.
        subprocess.run([sys.executable, "-c", "import pforge.cli"], cwd=ROOT, check=True,
                       env=dict(os.environ, PYTHONPATH=SRC))
        untraced, traced = measure(plan, workdir, args.seconds, bool(args.trace))
        problems, failed, wrong = check(plan, untraced + traced)
        if failed:
            for problem in problems:
                print(f"CHECK FAILED: {problem}", file=sys.stderr)
            return 1
        print(f"workload {args.workload}, seed {args.seed}: pforge {' '.join(plan.cli_args)}")
        print(f"  {len(untraced)} untraced and {len(traced)} traced invocations; "
              f"{plan.items} items each")
        samples = end_to_end(plan, untraced)
        e2e = {name: median(values) for name, values in samples.items()}
        units = units_of("end_to_end")
        for name, values in samples.items():
            report(name, f"{e2e[name]:.6g}", units[name],
                   f"median of {len(values)} (min {min(values):.4g}, max {max(values):.4g})")
        print(f"  unscaled medians: wall_s {median(r.wall_s for r in untraced):.6g} s, "
              f"setup_s {median(r.setup_s for r in untraced):.6g} s, items_per_s "
              f"{median(plan.items / r.work_s for r in untraced):.6g} 1/s; machine slowness "
              f"{median(r.slowness for r in untraced):.4g}")
        digest = untraced[0].digest
        stored = load_json(os.path.join(HERE, "baseline.json"))["workloads"].get(
            args.workload, {}).get("digests", {}).get(str(args.seed))
        same = "no baseline for this seed" if stored is None else (
            "same as baseline" if stored == digest else "DIFFERS from baseline")
        print(f"  records_sha256 {digest} ({same})")
        if args.trace:
            metrics = per_layer(plan, untraced, traced, wrong, problems)
            units = units_of("per_layer")
            for name, value in metrics.items():
                report(name, f"{value:.6g}" if isinstance(value, float) else value, units[name])
        else:
            metrics = e2e
            report("records", records_count(plan, untraced[0].lines), "count")
            if plan.expected_statuses:
                report("fail_frac", wrong / plan.items, "ratio")
            else:
                report("fail_frac", "(--trace 1)", "ratio", "cap skips are counted by tracing")
        for problem in problems:
            print(f"CHECK FAILED: {problem}")
        correct = not problems
        print(json.dumps({
            "correct": correct,
            "attempted": len(untraced) + len(traced),
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()},
        }))
        return 0 if correct else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "pforge", "__init__.py")):
        print(f"error: no pforge sources under {SRC}; run from a pforge checkout",
              file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
