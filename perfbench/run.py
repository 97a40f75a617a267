"""oplab benchmark: one workload, cold processes, closed loop.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 30 --trace 0

Every pass runs in a fresh interpreter (perfbench/child.py), because each
`oplab` invocation pays the fill of the package's caches. With --trace 0,
passes repeat while the next one is expected to end within --seconds, at
least two, and the last line reports the end-to-end metrics. With
--trace 1 a traced pass runs between two untraced ones, and the last line
reports the per-layer metrics. A pass beyond the first is optional: it is
started only if it is expected to end within the run's budget of BUDGET_S
seconds, and dropped if it does not, so a slower program still reports
its numbers; only a first pass (or a traced one) that outlasts the budget
fails the run. Every check is compared with its record in
perfbench/golden.json; a check that differs, or raises, counts as failed.
A summary, the seed and the environment are printed before the last line
and written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from itertools import zip_longest
from os.path import abspath, dirname, isdir, join
from statistics import mean, median

from spans import PER_LAYER, layer_metrics
from workloads import WORKLOADS

HERE = dirname(abspath(__file__))
ROOT = dirname(HERE)
OUT = join(HERE, "out")
MIN_PASSES = 2
# a run must end within 180 s; this leaves room to start and to report
BUDGET_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
)


class ChildFailed(RuntimeError):
    pass


class Overrun(ChildFailed):
    """A pass was killed because it outlasted the run's budget."""


def run_child(mode: str, workload: str, seed: int, deadline: float) -> dict:
    """Start one workload process, wait for it and read its result.

    Adds `setup_s` (parent's start of the process until `import oplab`
    returned, on the shared monotonic clock) and `peak_rss_mb` (the child's
    own peak RSS, from its rusage).
    """
    out = join(OUT, f"{mode}-{workload}-seed{seed}.json")
    cmd = [sys.executable, "-E", join(HERE, "child.py"), mode, workload,
           str(seed), out]
    pid = 0
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL)
    try:
        while True:
            pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                raise Overrun(f"{mode} process outlasted the run's budget")
            time.sleep(0.01)
    finally:
        if not pid:
            proc.kill()
            _, status, _ = os.wait4(proc.pid, 0)
        # reaped here, so Popen must not wait for it again
        proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise ChildFailed(f"{mode} process exited with {code}")
    with open(out) as f:
        result = json.load(f)
    if mode != "trace":  # a traced pass leaves its spans behind
        os.remove(out)
    result["setup_s"] = result["imported"] - started
    result["peak_rss_mb"] = rusage.ru_maxrss / 1024
    return result


def count_failed(workload: str, records: list, golden: dict) -> tuple[int, int]:
    """(attempted, failed) for one pass, against the golden records."""
    expected = golden[workload]
    if workload == "suite":
        (_, got), = records
        try:
            reports = json.loads(got["stdout"])
        except (KeyError, ValueError):
            reports = []
        pairs = list(zip_longest(reports, expected["reports"]))
        if got.get("exit") != expected["exit"]:
            return len(pairs), len(pairs)
        return len(pairs), sum(1 for a, b in pairs if a != b)
    return len(records), sum(
        1 for key, got in records if expected.get(key, KeyError) != got
    )


def environment() -> dict:
    """Where the numbers come from, so runs on different machines are
    never compared."""
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in f
                 if line.startswith("model name")), None)
    except OSError:
        pass
    commit = dirty = None
    if isdir(join(ROOT, ".git")):
        git = ["git", "-C", ROOT]
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=dirname(ROOT))
        try:
            commit = subprocess.run(
                git + ["rev-parse", "HEAD"], capture_output=True, text=True,
                env=env, timeout=30).stdout.strip() or None
            dirty = bool(subprocess.run(
                git + ["status", "--porcelain"], capture_output=True,
                text=True, env=env, timeout=30).stdout.strip())
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
        "dirty": dirty,
    }


def optional_pass(mode: str, workload: str, seed: int, deadline: float,
                  expected_s: float) -> dict | None:
    """A pass the result can do without: not started unless it is expected
    to end before the deadline, and dropped if it does not."""
    if time.monotonic() + expected_s > deadline:
        return None
    try:
        return run_child(mode, workload, seed, deadline)
    except Overrun:
        return None


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    with open(join(HERE, "golden.json")) as f:
        golden = json.load(f)
    deadline = time.monotonic() + BUDGET_S
    start = time.monotonic()
    passes = [run_child("run", workload, seed, deadline)]
    if trace:
        # the traced pass sits between two untraced ones, so that a drift
        # in host speed over the run cancels out of trace.overhead_s
        traced = run_child("trace", workload, seed, deadline)
        after = optional_pass("run", workload, seed, deadline,
                              passes[0]["wall_s"])
        passes += [after] if after else []
    else:
        while True:
            elapsed = time.monotonic() - start
            per_pass = elapsed / len(passes)
            if len(passes) >= MIN_PASSES and elapsed + per_pass > seconds:
                break
            p = optional_pass("run", workload, seed, deadline, per_pass)
            if p is None:
                break
            passes.append(p)
    records = [p["records"] for p in passes]
    if trace:
        records.append(traced["records"])
    attempted = failed = 0
    for r in records:
        a, f = count_failed(workload, r, golden)
        attempted, failed = attempted + a, failed + f
    walls = [p["wall_s"] for p in passes]
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "environment": environment(),
        "passes": len(passes),
        "walls_s": walls,
        "setups_s": [p["setup_s"] for p in passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
    }
    if trace:
        layers = layer_metrics(traced["spans"])
        if workload == "suite":
            layers["cli.output_bytes"] = len(
                traced["records"][0][1].get("stdout", "").encode())
        overhead = traced["wall_s"] - mean(walls)
        layers["trace.overhead_s"] = overhead
        layers["trace.overhead_pct"] = 100 * overhead / mean(walls)
        result["traced_wall_s"] = traced["wall_s"]
        metrics = {name: (layers[name], unit) for name, unit in PER_LAYER}
    else:
        values = {
            "setup_s": median(result["setups_s"]),
            "wall_s": median(walls),
            "peak_rss_mb": median(result["peak_rss_mb"]),
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    result.update(attempted=attempted, failed=failed,
                  fail_ratio=failed / attempted)
    result["metrics"] = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in metrics.items()
    }
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    os.makedirs(OUT, exist_ok=True)
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(join(OUT, name), "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    print(f"workload {result['workload']} seed {result['seed']} "
          f"passes {result['passes']}")
    print("environment " + json.dumps(result["environment"]))
    print(f"fail_ratio {result['fail_ratio']} "
          f"({result['failed']} of {result['attempted']} checks)")
    for metric, v in result["metrics"].items():
        print(f"{metric} {v['value']} {v['unit']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
