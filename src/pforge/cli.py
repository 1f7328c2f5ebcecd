"""Command-line surface: search / verify / analyze / pell subcommands,
JSON-lines record persistence, and the exit-code contract
(0 success, 2 usage or parse error, 3 empty result, 4 verification failure).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from typing import NamedTuple

from . import __version__
from .curve import CurveRecord, RecordStatus, verify_record
from .errors import CapacityError, ContractError
from .families import (
    Verdict,
    analyze_feasibility,
    builtin_catalog,
    compute_f,
    d_classes,
    family_by_name,
    verify_family,
)
from .intpoly import IntPoly, integer_preimages, parse_poly
from .pell import PellProblem, base_solutions, enumerate_solutions, fundamental_unit
from .search import SearchConfig, quadratic_points, run_search

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_EMPTY = 3
EXIT_VERIFY_FAILED = 4


class RecordEnvelope(NamedTuple):
    """One serialized record plus provenance; integers travel as decimal
    strings so the format does not depend on any numeric width."""

    schema_version: str
    record: CurveRecord
    provenance: dict


def _status_text(record: CurveRecord) -> str:
    if record.status is RecordStatus.REJECTED and record.reason:
        return f"REJECTED({record.reason})"
    return record.status.value


def _parse_status(text: str) -> tuple[RecordStatus, str | None]:
    if text.startswith("REJECTED"):
        reason = text[len("REJECTED") :].strip("()") or None
        return RecordStatus.REJECTED, reason
    return RecordStatus(text), None


def serialize_record(record: CurveRecord, provenance: dict | None = None) -> str:
    fields: dict = {"schema_version": SCHEMA_VERSION, "k": str(record.k)}
    for name in ("d", "x0", "q", "n", "t", "a", "b"):
        value = getattr(record, name)
        if value is not None:
            fields[name] = str(value)
    fields["status"] = _status_text(record)
    if provenance is not None:
        fields["provenance"] = provenance
    return json.dumps(fields)


def _int_field(data: dict, name: str) -> int:
    value = data[name]
    # bool is an int subclass, but JSON true/false is no integer
    if isinstance(value, str) or (isinstance(value, int) and not isinstance(value, bool)):
        return int(value)
    raise ValueError(
        f"field {name!r} must be an integer or a decimal string, got {type(value).__name__}"
    )


def _at_least_one(name: str, value: int | None) -> int | None:
    if value is not None and value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")
    return value


def _record_from_fields(data: dict) -> CurveRecord:
    """A PENDING record from named integer fields; t defaults to q + 1 - n."""
    for required in ("k", "q", "n"):
        if required not in data:
            raise ValueError(f"record is missing the {required!r} field")

    def grab(name: str) -> int | None:
        return _int_field(data, name) if name in data else None

    q, n = _int_field(data, "q"), _int_field(data, "n")
    return CurveRecord(
        k=_at_least_one("embedding degree k", _int_field(data, "k")),
        q=q,
        n=n,
        t=grab("t") if "t" in data else q + 1 - n,
        d=_at_least_one("discriminant D", grab("d")),
        x0=grab("x0"),
        a=grab("a"),
        b=grab("b"),
    )


def parse_record_line(line: str) -> RecordEnvelope:
    data = json.loads(line)
    if not isinstance(data, dict):
        raise ValueError(f"record must be a JSON object, got {type(data).__name__}")
    status_text = data.get("status", "PENDING")
    if not isinstance(status_text, str):
        raise ValueError(f"field 'status' must be a string, got {type(status_text).__name__}")
    status, reason = _parse_status(status_text)
    return RecordEnvelope(
        schema_version=data.get("schema_version", SCHEMA_VERSION),
        record=_record_from_fields(data)._replace(status=status, reason=reason),
        provenance=data.get("provenance", {}),
    )


def _provenance(args: argparse.Namespace) -> dict:
    flags = {k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None}
    digest = hashlib.sha256(json.dumps(flags, sort_keys=True, default=str).encode()).hexdigest()
    return {
        "tool_version": __version__,
        "config_digest": f"sha256:{digest[:16]}",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime()),
    }


def _q_bits_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected MIN..MAX, got {text!r}")
    try:
        lo_i, hi_i = int(lo), int(hi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if lo_i < 1 or hi_i < lo_i:
        raise argparse.ArgumentTypeError(f"inverted or empty bits range {text!r}")
    return lo_i, hi_i


def _modulus_pair(text: str) -> tuple[int, int]:
    try:
        mod, res = (int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected MOD,RESIDUE: {exc}") from None
    if mod < 1:
        raise argparse.ArgumentTypeError("modulus must be positive")
    return mod, res


def _emit(lines: list[str], out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.writelines(line + "\n" for line in lines)
    else:
        for line in lines:
            print(line)


# --- search ---------------------------------------------------------------


def cmd_search(args: argparse.Namespace) -> int:
    q_lo, q_hi = args.q_bits
    config = SearchConfig(
        family=args.family,
        d_min=args.d_min,
        d_max=args.d_max,
        x_min=args.x_min,
        x_max=args.x_max,
        q_bits_min=q_lo,
        q_bits_max=q_hi,
        max_u_bits=args.max_u_bits,
        max_records=args.max_records,
    )
    records = run_search(config, _at_least_one("--workers", args.workers))
    provenance = _provenance(args)
    _emit([serialize_record(r, provenance) for r in records], args.out)
    return EXIT_OK if records else EXIT_EMPTY


# --- verify ---------------------------------------------------------------


def _inline_record(args: argparse.Namespace) -> CurveRecord:
    flags = {"x0" if name == "x" else name: getattr(args, name) for name in "kqntdxab"}
    return _record_from_fields({name: value for name, value in flags.items() if value is not None})


def _family_consistency(record: CurveRecord, family_name: str) -> CurveRecord:
    """Recover x0, the least x with q(x) = q where n(x) = n, and check n, t."""
    family = family_by_name(family_name)
    preimages = integer_preimages(family.q, record.q)
    if not preimages:
        return record.rejected(f"no integer x0 with q(x0) = q for family {family_name}")
    x0 = next((x for x in preimages if family.n.evaluate(x) == record.n), preimages[0])
    if record.x0 is not None and record.x0 != x0:
        return record.rejected(f"recovered x0 = {x0} differs from supplied {record.x0}")
    if family.n.evaluate(x0) != record.n:
        return record.rejected(f"n(x0) does not match n at x0 = {x0}")
    if family.t.evaluate(x0) != record.t:
        return record.rejected(f"t(x0) does not match t at x0 = {x0}")
    return record._replace(x0=x0)


def cmd_verify(args: argparse.Namespace) -> int:
    if args.in_path and args.q is not None:
        raise ValueError("--in and inline values are mutually exclusive")
    records: list[CurveRecord] = []
    if args.in_path:
        with open(args.in_path) as fh:
            for lineno, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    records.append(parse_record_line(line).record)
                except (ValueError, KeyError) as exc:
                    print(f"error: line {lineno}: {exc}", file=sys.stderr)
                    return EXIT_USAGE
    else:
        if args.q is None or args.n is None or args.k is None:
            raise ValueError("inline verification needs --q, --n and --k")
        records.append(_inline_record(args))
    if not records:
        return EXIT_EMPTY

    lines = []
    any_rejected = False
    provenance = _provenance(args)
    for record in records:
        # verification is recomputed from scratch; incoming status is advisory
        record = record.with_status(RecordStatus.PENDING)
        if args.family:
            record = _family_consistency(record, args.family)
        if record.status is not RecordStatus.REJECTED:
            record = verify_record(record)
        any_rejected = any_rejected or record.status is RecordStatus.REJECTED
        lines.append(serialize_record(record, provenance))
    _emit(lines, args.out)
    return EXIT_VERIFY_FAILED if any_rejected else EXIT_OK


# --- analyze ---------------------------------------------------------------


def _check_mark(flag: bool) -> str:
    return "PASS" if flag else "FAIL"


def cmd_analyze(args: argparse.Namespace) -> int:
    _at_least_one("discriminant D", args.d)
    t = parse_poly(args.t)
    n = parse_poly(args.n)
    q = parse_poly(args.q) if args.q else n + t - 1
    if n != q + 1 - t:
        raise ValueError("polynomials violate n = q + 1 - t")

    report = analyze_feasibility(t, n, args.k)
    outcome = verify_family(t, n, q, args.k)
    f = compute_f(t, q)
    print(f"t(x) = {t}")
    print(f"n(x) = {n}")
    print(f"q(x) = {q}")
    print(f"f(x) = 4q - t^2 = {f}")
    print(f"degree check (deg n divisible by phi(k)): {_check_mark(report.degree_check)}")
    print(f"balance check (2 deg t = deg n = deg q): {_check_mark(report.balance_check)}")
    print(
        "leading-coefficient check (lc n = lc q = lc(t)^2 / 4): "
        f"{_check_mark(report.leading_coeff_check)}"
    )
    if isinstance(outcome, list):
        for violation in outcome:
            print(f"family condition violated: {violation}")
    print(f"classification: {report.f_classification.value}")
    verdict = report.verdict
    if verdict is Verdict.UNKNOWN_NEEDS_SOLUTION and args.d is not None and f.degree == 2:
        witness = _find_witness(f, args.d)
        if witness is not None:
            x, y = witness
            print(f"witness for D = {args.d}: x = {x}, y = {y}")
            verdict = Verdict.FAMILY_BY_THM2
        else:
            print(f"no witness found for D = {args.d} within the search caps")
    print(f"verdict: {verdict.value}")
    return EXIT_OK


def _find_witness(f: IntPoly, d_value: int) -> tuple[int, int] | None:
    """A single integer point on D y^2 = f(x) through the norm-equation
    reduction, or None."""
    try:
        points = quadratic_points(f, d_value, u_bits=255)
    except (ValueError, CapacityError):
        return None
    return points[0] if points else None


# --- pell -----------------------------------------------------------------


def cmd_pell(args: argparse.Namespace) -> int:
    _at_least_one("--count", args.count)
    # before the unit, whose continued fraction can take hours to walk
    if args.t is None and not args.fundamental_unit:
        raise ValueError("--t is required unless --fundamental-unit is given")
    unit = fundamental_unit(args.dprime)
    cf_a, cf_b = unit.cf_unit.pair()
    one_a, one_b = unit.norm_one.pair()
    print(f"fundamental unit: {cf_a} + {cf_b} sqrt({args.dprime}) (norm {unit.cf_unit.norm()})")
    print(f"least norm-one unit: {one_a} + {one_b} sqrt({args.dprime})")
    if args.fundamental_unit:
        return EXIT_OK

    mod_u, res_u = args.mod_u if args.mod_u else (1, 0)
    mod_v, res_v = args.mod_v if args.mod_v else (1, 0)
    problem = PellProblem(args.dprime, args.t, mod_u, res_u, mod_v, res_v)
    reps = base_solutions(args.dprime, args.t)
    elements = enumerate_solutions(args.dprime, args.t, u_bit_limit=args.max_u_bits)
    for rep in reps:
        print(f"solution class: u = {rep.a}, v = {rep.b}")
    constrained = []
    for z in elements:
        for u, v in {(z.a, z.b), (z.a, -z.b), (-z.a, z.b), (-z.a, -z.b)}:
            if problem.satisfied_by(u, v):
                constrained.append((u, v))
    constrained = sorted(set(constrained), key=lambda uv: (abs(uv[0]), uv[0] < 0, uv[1] < 0))
    if not constrained:
        print("no constrained solutions found within the search caps")
        return EXIT_EMPTY
    for u, v in constrained[: args.count]:
        print(f"u = {u}, v = {v}")
    return EXIT_OK


# --- catalog (convenience) --------------------------------------------------


def cmd_families(_args: argparse.Namespace) -> int:
    for family in builtin_catalog():
        d_text = f"fixed D = {family.fixed_d}"
        if not family.fixed_d:
            modulus, residues = d_classes(family)
            d_text = f"D = {', '.join(map(str, residues))} mod {modulus}"
        print(f"{family.name}: k = {family.k}, t = {family.t}, n = {family.n}, q = {family.q}, {d_text}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pforge",
        description="Construct and verify prime-order pairing-friendly curve parameters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("search", help="search a family for prime parameter sets")
    sp.add_argument("--family", required=True)
    sp.add_argument("--d-min", type=int, default=0)
    sp.add_argument("--d-max", type=int, default=-1)
    sp.add_argument("--x-min", type=int, default=0)
    sp.add_argument("--x-max", type=int, default=-1)
    sp.add_argument("--q-bits", type=_q_bits_range, default=(1, 10**6), metavar="MIN..MAX")
    sp.add_argument("--max-u-bits", type=int, default=128)
    sp.add_argument("--max-records", type=int, default=10**6)
    sp.add_argument("--out", default=None)
    sp.add_argument("--workers", type=int, default=1)
    sp.set_defaults(func=cmd_search)

    vp = sub.add_parser("verify", help="verify records or inline parameters")
    vp.add_argument("--in", dest="in_path", default=None)
    vp.add_argument("--q", type=int, default=None)
    vp.add_argument("--n", type=int, default=None)
    vp.add_argument("--k", type=int, default=None)
    vp.add_argument("--t", type=int, default=None)
    vp.add_argument("--d", type=int, default=None)
    vp.add_argument("--x", type=int, default=None)
    vp.add_argument("--a", type=int, default=None)
    vp.add_argument("--b", type=int, default=None)
    vp.add_argument("--family", default=None)
    vp.add_argument("--out", default=None)
    vp.set_defaults(func=cmd_verify)

    ap = sub.add_parser("analyze", help="feasibility analysis of a candidate family")
    ap.add_argument("--t", required=True, metavar="POLY")
    ap.add_argument("--n", required=True, metavar="POLY")
    ap.add_argument("--q", default=None, metavar="POLY")
    ap.add_argument("--k", type=int, required=True)
    ap.add_argument("--d", type=int, default=None)
    ap.set_defaults(func=cmd_analyze)

    pp = sub.add_parser("pell", help="norm-equation queries")
    pp.add_argument("--dprime", type=int, required=True)
    pp.add_argument("--t", type=int, default=None)
    pp.add_argument("--count", type=int, default=5)
    pp.add_argument("--mod-u", type=_modulus_pair, default=None, metavar="MOD,RES")
    pp.add_argument("--mod-v", type=_modulus_pair, default=None, metavar="MOD,RES")
    pp.add_argument("--max-u-bits", type=int, default=512)
    pp.add_argument("--fundamental-unit", action="store_true")
    pp.set_defaults(func=cmd_pell)

    fp = sub.add_parser("families", help="list the built-in family catalog")
    fp.set_defaults(func=cmd_families)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (ValueError, KeyError, ContractError, CapacityError, OSError) as exc:
        # invalid input found below the argument parser: an unknown family,
        # an out-of-domain value, a violated precondition, a resource cap,
        # a file that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
