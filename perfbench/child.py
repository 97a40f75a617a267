"""One workload pass in a fresh interpreter.

    python3 perfbench/child.py MODE WORKLOAD SEED OUT

MODE is `run` (one untraced pass) or `trace` (one pass with spans). The
result goes to OUT as JSON: the monotonic time at which `import oplab`
returned, the pass's wall time, one record per check and, when traced,
the spans. A check that
raises is recorded with its error and the pass goes on.
"""

import sys
import time
from os.path import abspath, dirname, join

SRC = join(dirname(dirname(abspath(__file__))), "src")
sys.path.insert(0, SRC)

import oplab.cli  # noqa: E402  set-up ends when this returns, as for `oplab`

IMPORTED = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
from time import perf_counter  # noqa: E402

from spans import Recorder  # noqa: E402
from workloads import plan  # noqa: E402


def call(function: str, args: tuple):
    """Issue one check through the public name, looked up now."""
    module, name = function.split(".")
    fn = getattr(getattr(oplab, module), name)
    if function == "cli.main":
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = fn(*args)
        return {"exit": code, "stdout": out.getvalue()}
    result = fn(*args)
    if function == "identities.verify_series":
        return result.to_jsonable(include_timing=False)
    return result


def run_checks(checks) -> tuple[float, list]:
    """Closed loop: each check is issued after the previous one returned."""
    records = []
    start = perf_counter()
    for key, function, args in checks:
        try:
            records.append([key, call(function, args)])
        except Exception as exc:  # counted as a failed check, not fatal
            records.append([key, {"error": f"{type(exc).__name__}: {exc}"}])
    return perf_counter() - start, records


def main(argv: list[str]) -> int:
    mode, workload, seed, out = argv
    if dirname(abspath(oplab.__file__)) != join(SRC, "oplab"):
        print(f"oplab imported from {oplab.__file__}, not {SRC}",
              file=sys.stderr)
        return 3
    checks = plan(workload, int(seed))
    recorder = Recorder()
    if mode == "trace":
        recorder.install(oplab)
    wall_s, records = run_checks(checks)
    result = {"imported": IMPORTED, "wall_s": wall_s, "records": records,
              "spans": recorder.spans}
    with open(out, "w") as f:
        json.dump(result, f, separators=(",", ":"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
