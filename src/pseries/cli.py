"""Command-line front end: ring info, verification suites, intertwining
matrices and principal-series counts."""

import argparse
import csv
import io
import json
import math
import sys

from .chars import principal_series_count
from .groups import SizeGuardError
from .rings import RingSpecError, parse_ring_spec
from .verify import Verifier, VerifyAlarm

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_GUARD = 3

DEFAULT_COST = 10 ** 8


def _add_common(p, with_n=True):
    p.add_argument("--ring", required=True, metavar="SPEC",
                   help="ring spec such as Z/4, GF(3,2) or Z/2xZ/9")
    if with_n:
        p.add_argument("-n", type=int, required=True, help="matrix size n")
    else:
        p.add_argument("-n", type=int, default=1, help=argparse.SUPPRESS)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--seed", type=int, default=0,
                   help="PRNG seed recorded in the report")
    p.add_argument("--max-group", type=int, default=None, metavar="M",
                   help="largest group order to tabulate (default 10000)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pseries",
        description="principal series of GL_n over finite commutative rings")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ring-info", help="factor a ring spec and show its sizes")
    _add_common(p, with_n=False)

    p = sub.add_parser("verify", help="run the verification suite")
    _add_common(p)
    p.add_argument("--only", default=None, metavar="IDS",
                   help="comma-separated check ids to run (e.g. thm1,prop3.2)")
    p.add_argument("--skip", default=None, metavar="IDS",
                   help="comma-separated check ids to skip")

    p = sub.add_parser("intertwine",
                       help="intertwining-dimension matrix, formula and oracle")
    _add_common(p)

    p = sub.add_parser("count", help="count principal series representations")
    _add_common(p)
    return ap


def _max_cost(args) -> int:
    if args.max_group is None:
        return DEFAULT_COST
    return args.max_group ** 2


def _split(ids):
    if not ids:
        return None
    return [s.strip() for s in ids.split(",") if s.strip()]


def _emit(payload, fmt, csv_rows):
    """payload: JSON-ready dict; csv_rows: (header, rows) for csv output."""
    if fmt == "json":
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    header, rows = csv_rows
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    for row in rows:
        w.writerow(row)
    return buf.getvalue()


def cmd_ring_info(args) -> int:
    ring = parse_ring_spec(args.ring)
    factors = []
    for loc in ring.locals:
        factors.append({
            "factor": loc.spec_str,
            "size": loc.size,
            "units": len(loc.units),
            "exponent": math.lcm(*(loc.unit_order(u) for u in loc.units)),
            "residue": loc.residue_ring.spec_str,
        })
    payload = {
        "ring": ring.canonical_str,
        "seed": args.seed,
        "factors": factors,
        "size": ring.size,
        "units": len(ring.units()),
        "exponent": ring.unit_exponent(),
    }
    if args.format == "text":
        lines = [f"ring: {payload['ring']}"]
        for f in factors:
            lines.append(f"  {f['factor']}: size {f['size']}, units {f['units']},"
                         f" exponent {f['exponent']}, residue field {f['residue']}")
        lines.append(f"|R| = {payload['size']}, |R^x| = {payload['units']},"
                     f" exponent e = {payload['exponent']}")
        print("\n".join(lines))
    else:
        header = ["factor", "size", "units", "exponent", "residue"]
        rows = [[f[h] for h in header] for f in factors]
        print(_emit(payload, args.format, (header, rows)), end="")
    return EXIT_PASS


def cmd_verify(args) -> int:
    ring = parse_ring_spec(args.ring)
    v = Verifier(ring, args.n, args.seed, _max_cost(args))
    report = v.run_checks(only=_split(args.only), skip=_split(args.skip))
    if args.format == "json":
        print(report.to_json(), end="")
    elif args.format == "csv":
        print(report.to_csv(), end="")
    else:
        print(report.to_text(), end="")
    return EXIT_PASS if report.all_passed else EXIT_FAIL


def cmd_intertwine(args) -> int:
    ring = parse_ring_spec(args.ring)
    v = Verifier(ring, args.n, args.seed, _max_cost(args))
    keys = [c.key() for c in v.chars]
    formula, oracle = v.intertwining_matrices()
    agree = formula == oracle
    payload = {
        "ring": ring.canonical_str,
        "n": args.n,
        "seed": args.seed,
        "chars": keys,
        "formula": formula,
        "oracle": oracle,
        "agree": agree,
    }
    if args.format == "text":
        lines = [f"ring: {payload['ring']}   n={args.n}   seed={args.seed}",
                 "characters:"]
        for i, k in enumerate(keys):
            lines.append(f"  [{i}] {k}")
        lines.append("dim Hom(pind chi, pind sigma), rows chi / columns sigma:")
        for i, row in enumerate(formula):
            lines.append(f"  [{i}] " + " ".join(f"{x:2d}" for x in row))
        lines.append("oracle agrees with formula" if agree
                     else "MISMATCH between oracle and formula")
        print("\n".join(lines))
    else:
        header = ["chi", "sigma", "formula", "oracle"]
        rows = [[keys[i], keys[j], formula[i][j], oracle[i][j]]
                for i in range(len(keys)) for j in range(len(keys))]
        print(_emit(payload, args.format, (header, rows)), end="")
    return EXIT_PASS if agree else EXIT_FAIL


def cmd_count(args) -> int:
    ring = parse_ring_spec(args.ring)
    formula = principal_series_count(ring, args.n)
    pipeline = None
    guard = None
    try:
        v = Verifier(ring, args.n, args.seed, _max_cost(args))
        pipeline, _ = v.count_principal_series()
    except SizeGuardError as ex:
        guard = str(ex)
    match = pipeline is None or pipeline == formula
    payload = {
        "ring": ring.canonical_str,
        "n": args.n,
        "seed": args.seed,
        "formula": formula,
        "pipeline": pipeline,
        "match": None if pipeline is None else match,
        "guard": guard,
    }
    if args.format == "text":
        lines = [f"ring: {payload['ring']}   n={args.n}   seed={args.seed}",
                 f"formula count: {formula}"]
        if pipeline is None:
            lines.append(f"pipeline count: skipped ({guard})")
        else:
            lines.append(f"pipeline count: {pipeline}")
            lines.append("counts agree" if match else "COUNT MISMATCH")
        print("\n".join(lines))
    else:
        header = ["ring", "n", "formula", "pipeline", "match"]
        rows = [[payload["ring"], args.n, formula,
                 "" if pipeline is None else pipeline,
                 "" if pipeline is None else match]]
        print(_emit(payload, args.format, (header, rows)), end="")
    return EXIT_PASS if match else EXIT_FAIL


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if getattr(args, "n", 1) < 1:
        ap.error("n must be at least 1")
    if args.max_group is not None and args.max_group < 1:
        ap.error("--max-group must be at least 1")
    handler = {"ring-info": cmd_ring_info, "verify": cmd_verify,
               "intertwine": cmd_intertwine, "count": cmd_count}[args.command]
    try:
        return handler(args)
    except RingSpecError as ex:
        print(f"pseries: ring spec error: {ex}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as ex:
        print(f"pseries: {ex}", file=sys.stderr)
        return EXIT_USAGE
    except SizeGuardError as ex:
        print(f"pseries: size guard: {ex}", file=sys.stderr)
        return EXIT_GUARD
    except VerifyAlarm as ex:
        print(f"pseries: verification alarm: {ex}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
