"""Command-line front end: verification runs, count tables, bijection demos.

Exit codes: 0 when every requested check passes, 1 when any verification
or bijection check fails, 2 on usage errors. Beyond argparse and the table
flag checks (--n-max against its stat's ceiling, --k against 64, which
flags a stat or bijection takes), the library rejects every input: main
maps its UnknownIdentityError and BadParamsError (a value out of range or
of the wrong type, a weight or bound past its ceiling) to exit 2 in one
place.

Output is deterministic: identical invocations produce byte-identical
bytes. Wall-clock timings are therefore reported as 0 unless --timings is
given. Ranges are closed intervals written a..b; a bare integer means a
single value. Note that a leading minus sign requires the = form
(--m=-4..4) so the shell token is not mistaken for an option.

verify passes its flags through to identities.run_default_suite, which
owns the form selection: --order alone runs series forms, --n-max alone
enumerative and inequality forms, both flags (or neither) every registered
form, and rejects a range flag that names no parameter of a selected
identity and a bound that selects no form of any. The range flags are the
registry's parameter names.

The bijection payload is the check's own record (check_weight_down or
check_staircase) after "which", each key camelCased, with images_in_b
renamed to mappedPairs.
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

# every parameter name of the registry, in order of first appearance
_PARAMS = tuple(dict.fromkeys(
    name for desc in identities.list_identities() for name, _, _ in desc.schema
))

_STAT_FN = {
    "op21": op.op21,
    "mbar": op.mbar,
    "nbar": op.nbar,
    "mk": op.mk_stat,
}


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
    for name in _PARAMS:
        p_verify.add_argument(f"--{name}", type=_range_arg, metavar="A..B")
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
    p_table.add_argument("--stat", required=True, choices=("pbar", *_STAT_FN))
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
        "--trace",
        action="store_true",
        help="include one trace per mapped object",
    )
    return parser


def _usage_error(message: str) -> int:
    print(f"oplab: error: {message}", file=sys.stderr)
    return 2


def _emit(rows: object, fmt: str = "json") -> None:
    """rows as JSON, or as CSV under the first row's keys."""
    if fmt == "json":
        sys.stdout.write(json.dumps(rows, indent=2) + "\n")
        return
    lines = [",".join(rows[0])]
    for row in rows:
        fields = [str(v) for v in row.values()]
        for f in fields:
            # every row is comma-free by construction
            if "," in f:
                raise ValueError(f"comma in csv field {f!r}")
        lines.append(",".join(fields))
    sys.stdout.write("\n".join(lines) + "\n")


def _cmd_list(args: argparse.Namespace) -> int:
    ids = [d.id for d in identities.list_identities()]
    if args.format == "json":
        _emit(ids)
    else:
        for ident in ids:
            print(ident)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    overrides = {
        name: value
        for name in _PARAMS
        if (value := getattr(args, name)) is not None
    }
    reports = identities.run_default_suite(
        None if args.all else [args.id],
        order=args.order,
        n_max=args.n_max,
        overrides=overrides,
    )
    records = [r.to_jsonable(include_timing=args.timings) for r in reports]
    if args.format == "csv":
        records = [_csv_row(rec) for rec in records]
    _emit(records, args.format)
    return 0 if all(r.passed for r in reports) else 1


def _csv_row(rec: dict) -> dict:
    """A JSON record as CSV columns: params joined by ";", the mismatch
    triple and detail always present."""
    index, lhs, rhs = rec.get("firstMismatch", ("", "", ""))
    return {
        "id": rec["id"],
        "params": ";".join(f"{k}={v}" for k, v in rec["params"].items()),
        "range": rec["range"],
        "status": rec["status"],
        "mismatchIndex": index,
        "mismatchLhs": lhs,
        "mismatchRhs": rhs,
        "elapsedMs": rec["elapsedMs"],
        "anchor": rec["anchor"],
        "detail": rec.get("detail", ""),
    }


def _cmd_table(args: argparse.Namespace) -> int:
    # every row is built before any is printed: bound them first
    ceiling = identities.MAX_ORDER if args.stat == "pbar" else op.SHAPE_CEILING
    if not 1 <= args.n_max <= ceiling:
        return _usage_error(
            f"--n-max must be within 1..{ceiling}, got {args.n_max}"
        )
    weights = range(1, args.n_max + 1)
    if args.stat == "pbar":
        if args.k is not None:
            return _usage_error("--k does not apply to stat pbar")
        rows = [{"n": n, "value": op.pbar(n)} for n in weights]
    else:
        if args.k is None:
            return _usage_error(f"stat {args.stat} requires --k")
        k_lo, k_hi = args.k
        if k_hi > identities._K_MAX:
            return _usage_error(
                f"--k must end at or below {identities._K_MAX}, got {k_hi}"
            )
        fn = _STAT_FN[args.stat]
        rows = [
            {"n": n, "k": k, "value": fn(n, k)}
            for n in weights
            for k in range(k_lo, k_hi + 1)
        ]
    _emit(rows, args.format)
    return 0


def _camel(key: str) -> str:
    head, *rest = key.split("_")
    return head + "".join(word.capitalize() for word in rest)


def _trace(source: op.Overpartition, image: op.Overpartition, case: str) -> dict:
    """The --trace record of one mapped object; the weight change is
    measured, not taken from the map."""
    return {
        "input": source.to_jsonable(),
        "output": image.to_jsonable(),
        "case": case,
        "weightDelta": image.weight - source.weight,
    }


def _cmd_bijection(args: argparse.Namespace) -> int:
    n = args.n
    if args.which == "section3":
        if args.j is not None:
            return _usage_error("--j applies only to lemma41")
        record = bijections.check_weight_down(n)
    else:
        j = 1 if args.j is None else args.j
        record = bijections.check_staircase(n, j)
    payload = {"which": args.which}
    for key, value in record.items():
        payload["mappedPairs" if key == "images_in_b" else _camel(key)] = value
    if args.trace and args.which == "section3":
        payload["traces"] = [
            _trace(pi, bijections.map_a_to_b(pi),
                   "t=1" if pi[-1].value == 1 else "t>=2")
            for pi in map(op.Overpartition, op._class_a(n))
        ]
    elif args.trace:
        payload["traces"] = [
            _trace(mu, bijections.staircase_insert(mu, j), "insert")
            for mu in map(op.Overpartition, op._overpartitions(n - j * j))
        ]
    _emit(payload)
    return 0 if payload["ok"] else 1


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
