"""The golden manifest: every `oplab` invocation whose output bytes are pinned.

    python3 tools/goldens.py            # check every row
    python3 tools/goldens.py --write    # record the stdout hashes and stderr

tests/goldens.json holds one row per line. A row is an argv of `oplab`,
the exit code it returns, the sha256 of its stdout, its exact stderr and a
tier: Tier-1 checks the `t1` rows (tests/test_goldens.py), CI every row.
Each row runs in this process through oplab.cli.main. An exception that
escapes main fails its row as an exit of "TypeName: message", reported
like any other difference.

Without flags every row is run and the script exits 1 at the first row
that differs, printing its argv and each field that differs with the
recorded and the actual value. --write runs every row and rewrites the
stdout hash and stderr of each row that differs, printing those rows. It
never adds or drops a row and never changes an exit: when a row's exit
differs from the recorded one, it prints that row, writes nothing and
exits 1, so a changed verdict is always a hand edit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import shlex
import sys
from os.path import abspath, dirname, join

ROOT = dirname(dirname(abspath(__file__)))
MANIFEST = join(ROOT, "tests", "goldens.json")
sys.path.insert(0, join(ROOT, "src"))

from oplab import cli  # noqa: E402

OUTPUTS = ("exit", "stderr", "stdout_sha256")
KEYS = ("argv", "tier", *OUTPUTS)


def load(path: str = MANIFEST) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def render(rows: list[dict]) -> str:
    """One row per line with its keys in KEYS order, so rewriting an
    unchanged manifest gives the same bytes."""
    lines = [json.dumps({k: row[k] for k in KEYS}, ensure_ascii=False)
             for row in rows]
    return "[\n" + ",\n".join(lines) + "\n]\n"


def run(argv: list[str]) -> dict:
    """The exit, stderr and stdout hash of `oplab argv`, run in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except (Exception, SystemExit) as exc:
            code = f"{type(exc).__name__}: {exc}"
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    return {"exit": code, "stderr": err.getvalue(), "stdout_sha256": digest}


def differences(row: dict, got: dict) -> list[str]:
    """One line per field of `got` that differs from the row."""
    return [f"  {field}: expected {row[field]!r}, got {got[field]!r}"
            for field in OUTPUTS if got[field] != row[field]]


def main(argv: list[str] | None = None, path: str = MANIFEST) -> int:
    parser = argparse.ArgumentParser(
        description="Check every row of the golden manifest, or record "
        "the outputs of the rows that differ.")
    parser.add_argument("--write", action="store_true",
                        help="rewrite the stdout hash and stderr of each "
                        "row that differs; never an exit")
    args = parser.parse_args(argv)
    rows = load(path)
    changed = 0
    for row in rows:
        got = run(row["argv"])
        lines = differences(row, got)
        if not lines:
            continue
        print(f"oplab {shlex.join(row['argv'])}", *lines, sep="\n")
        if not args.write:
            return 1
        if got["exit"] != row["exit"]:
            print("the exit differs: nothing written; edit it by hand")
            return 1
        row.update(got)
        changed += 1
    if changed:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(render(rows))
    print(f"{len(rows)} rows checked, {changed} rewritten")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
