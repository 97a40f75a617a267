"""Command-line front end: verification runs, count tables, bijection demos.

Exit codes: 0 when every requested check passes, 1 when any verification
fails, 2 on usage errors. Beyond argparse and the flag checks (--order and
--n-max against MAX_ORDER, a table's --k against 64, which flags a stat or
bijection takes), the library rejects every input: main maps its
UnknownIdentityError and BadParamsError (a value out of range or of the
wrong type, a weight or bound past its ceiling) to exit 2 in one place.

Output is deterministic: identical invocations produce byte-identical
bytes. Wall-clock timings are therefore reported as 0 unless --timings is
given. Ranges are closed intervals written a..b; a bare integer means a
single value. Note that a leading minus sign requires the = form
(--m=-4..4) so the shell token is not mistaken for an option.

verify passes its flags through to identities.run_default_suite, which
owns the form selection: --order alone runs series forms, --n-max alone
enumerative and inequality forms, both flags (or neither) every registered
form, and rejects a range flag that names no parameter of a selected
identity and a bound that selects no form of any. The command itself
checks only the flag bounds.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Sequence

from . import bijections
from . import identities
from . import overpartitions as op

__all__ = ["main"]

_RANGE_RE = re.compile(r"^(-?\d+)(?:\.\.(-?\d+))?$")

_CSV_HEADER = (
    "id,params,range,status,mismatchIndex,mismatchLhs,mismatchRhs,"
    "elapsedMs,anchor,detail"
)


def _range_arg(text: str) -> tuple[int, int]:
    m = _RANGE_RE.match(text)
    if m is None:
        raise argparse.ArgumentTypeError(
            f"expected an integer or a..b range, got {text!r}"
        )
    lo = int(m.group(1))
    hi = int(m.group(2)) if m.group(2) is not None else lo
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return (lo, hi)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oplab",
        description="Exact checks for overpartition counts and q-series "
        "identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="print the registered identity ids")
    p_list.add_argument("--format", choices=("text", "json"), default="text")

    p_verify = sub.add_parser("verify", help="verify registered identities")
    sel = p_verify.add_mutually_exclusive_group(required=True)
    sel.add_argument("--id", help="identity id to verify")
    sel.add_argument("--all", action="store_true", help="verify every id")
    p_verify.add_argument("--k", type=_range_arg, metavar="A..B")
    p_verify.add_argument("--m", type=_range_arg, metavar="A..B")
    p_verify.add_argument("--ell", type=_range_arg, metavar="A..B")
    p_verify.add_argument("--j", type=_range_arg, metavar="A..B")
    p_verify.add_argument("--order", type=int, help="series truncation order")
    p_verify.add_argument(
        "--n-max", dest="n_max", type=int, help="largest weight checked"
    )
    p_verify.add_argument("--format", choices=("json", "csv"), default="json")
    p_verify.add_argument(
        "--timings",
        action="store_true",
        help="report wall-clock elapsedMs instead of 0",
    )

    p_table = sub.add_parser("table", help="print count tables")
    p_table.add_argument(
        "--stat",
        required=True,
        choices=("pbar", "op21", "mbar", "nbar", "mk"),
    )
    p_table.add_argument("--k", type=_range_arg, metavar="A..B")
    p_table.add_argument("--n-max", dest="n_max", type=int, default=25)
    p_table.add_argument("--format", choices=("json", "csv"), default="json")

    p_bij = sub.add_parser("bijection", help="run the constructive maps")
    p_bij.add_argument(
        "--which", required=True, choices=("section3", "lemma41")
    )
    p_bij.add_argument("--n", type=int, required=True)
    p_bij.add_argument("--j", type=int, help="staircase size (lemma41 only)")
    p_bij.add_argument(
        "--check",
        action="store_true",
        help="exit nonzero unless the full check passes",
    )
    p_bij.add_argument(
        "--trace",
        action="store_true",
        help="include one trace per mapped object",
    )
    return parser


def _usage_error(message: str) -> int:
    print(f"oplab: error: {message}", file=sys.stderr)
    return 2


def _emit_json(payload: object) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _reports_csv(
    reports: Sequence[identities.VerificationReport], timings: bool
) -> str:
    """One row per JSON record, its mismatch triple flattened."""
    lines = [_CSV_HEADER]
    for r in reports:
        rec = r.to_jsonable(include_timing=timings)
        fields = [
            rec["id"],
            ";".join(f"{k}={v}" for k, v in rec["params"].items()),
            rec["range"],
            rec["status"],
            *rec.get("firstMismatch", ("", "", "")),
            rec["elapsedMs"],
            rec["anchor"],
            rec.get("detail", ""),
        ]
        fields = [str(f) for f in fields]
        for f in fields:
            # the report schema is comma-free by construction
            if "," in f:
                raise ValueError(f"comma in csv field {f!r}")
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


def _cmd_list(args: argparse.Namespace) -> int:
    ids = [d.id for d in identities.list_identities()]
    if args.format == "json":
        _emit_json(ids)
    else:
        for ident in ids:
            print(ident)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    overrides = {
        name: value
        for name in ("k", "m", "ell", "j")
        if (value := getattr(args, name)) is not None
    }
    reports = identities.run_default_suite(
        None if args.all else [args.id],
        order=args.order,
        n_max=args.n_max,
        overrides=overrides,
    )
    if args.format == "csv":
        sys.stdout.write(_reports_csv(reports, args.timings))
    else:
        _emit_json([r.to_jsonable(include_timing=args.timings) for r in reports])
    return 0 if all(r.passed for r in reports) else 1


_STAT_FN = {
    "op21": op.op21,
    "mbar": op.mbar,
    "nbar": op.nbar,
    "mk": op.mk_stat,
}


def _cmd_table(args: argparse.Namespace) -> int:
    if not 1 <= args.n_max <= identities.MAX_ORDER:
        return _usage_error(
            f"--n-max must be within 1..{identities.MAX_ORDER}"
        )
    if args.stat == "pbar":
        if args.k is not None:
            return _usage_error("--k does not apply to stat pbar")
        rows = [(n, op.pbar(n)) for n in range(1, args.n_max + 1)]
        header = "n,value"
        json_rows = [{"n": n, "value": v} for n, v in rows]
    else:
        if args.k is None:
            return _usage_error(f"stat {args.stat} requires --k")
        k_lo, k_hi = args.k
        # every row is built before any is printed: bound them first
        if k_hi > identities._K_MAX:
            return _usage_error(
                f"--k must end at or below {identities._K_MAX}, got {k_hi}"
            )
        # past the shape ceiling, fail before any weight is counted
        op._check_weight(args.n_max, 1, "--n-max")
        fn = _STAT_FN[args.stat]
        rows = [
            (n, k, fn(n, k))
            for n in range(1, args.n_max + 1)
            for k in range(k_lo, k_hi + 1)
        ]
        header = "n,k,value"
        json_rows = [{"n": n, "k": k, "value": v} for n, k, v in rows]
    if args.format == "csv":
        lines = [header] + [",".join(str(x) for x in row) for row in rows]
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        _emit_json(json_rows)
    return 0


def _trace(source: op.Overpartition, image: op.Overpartition, case: str) -> dict:
    """The --trace record of one mapped object; the weight change is
    measured, not taken from the map."""
    return {
        "input": source.to_jsonable(),
        "output": image.to_jsonable(),
        "case": case,
        "weightDelta": image.weight - source.weight,
    }


def _section3_payload(n: int, trace: bool) -> dict:
    summary = bijections.check_weight_down(n)
    payload = {
        "which": "section3",
        "n": n,
        "aCount": summary["a_count"],
        "bCount": summary["b_count"],
        "cCount": summary["c_count"],
        "mappedPairs": summary["images_in_b"],
        "distinctImages": summary["distinct_images"],
        "roundTripOk": summary["round_trip_ok"],
        "weightsOk": summary["weights_ok"],
        "witnessOk": summary["witness_ok"],
        "pbarHalf": summary["pbar_half"],
        "ok": summary["ok"],
    }
    if trace:
        payload["traces"] = [
            _trace(pi, bijections.map_a_to_b(pi),
                   "t=1" if pi.smallest().value == 1 else "t>=2")
            for pi in op.enumerate_overpartitions(n)
            if bijections.in_a(pi)
        ]
    return payload


def _lemma41_payload(n: int, j: int, trace: bool) -> dict:
    summary = bijections.check_staircase(n, j)
    payload = {
        "which": "lemma41",
        "n": n,
        "j": j,
        "sourceCount": summary["source_count"],
        "targetCount": summary["target_count"],
        "matched": summary["matched"],
        "roundTripOk": summary["round_trip_ok"],
        "ok": summary["ok"],
    }
    if trace:
        payload["traces"] = [
            _trace(mu, bijections.staircase_insert(mu, j), "insert")
            for mu in op.enumerate_overpartitions(n - j * j)
        ]
    return payload


def _cmd_bijection(args: argparse.Namespace) -> int:
    if args.which == "section3":
        if args.j is not None:
            return _usage_error("--j applies only to lemma41")
        payload = _section3_payload(args.n, args.trace)
    else:
        j = 1 if args.j is None else args.j
        payload = _lemma41_payload(args.n, j, args.trace)
    _emit_json(payload)
    if args.check and not payload["ok"]:
        return 1
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage error, 0 on --help
        code = exc.code
        return code if isinstance(code, int) else 2
    handlers = {
        "list": _cmd_list,
        "verify": _cmd_verify,
        "table": _cmd_table,
        "bijection": _cmd_bijection,
    }
    try:
        return handlers[args.command](args)
    except (identities.UnknownIdentityError, op.BadParamsError) as exc:
        return _usage_error(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
