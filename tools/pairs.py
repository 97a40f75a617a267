"""Alternating cold benchmark pairs: a parent revision against the working tree.

    python3 tools/pairs.py --parent HEAD

REV is exported with `git archive` into a temporary directory, so nothing
in .git changes. The command, the run length and the workloads are those
of BENCHMARK.json, as in perfbench/spread.py. Every workload gets PAIRS
pairs; each pair runs the command with `--trace 0` once in the export and
once in the working tree, each in its own processes and one after the
other, the parent first in odd pairs and the tree first in even ones;
pair i uses seed i. A run's result is the last line it prints, a JSON
object.

The pairs go to BENCH_<short sha of REV>.json at the root of the working
tree, written once, after the last pair. Per workload and end-to-end
metric of BENCHMARK.json it holds the median and quartiles of each side,
the tree's wins and losses (pairs in which it is strictly better or
worse, by the metric's `better`), the median of the per-pair tree / parent
ratios, and a verdict: "better" or "worse" when there are PAIRS pairs, at
least 9 in 10 of them go that way and the medians differ by more than the
parent's quartile spread, otherwise "unresolved". A gain is not "better"
when the tree failed more checks than the parent. Every process is waited
for, so none outlives the script, and SIGTERM ends the script as an exit
would, so the export is removed then too.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import signal
import subprocess
import sys
import tarfile
import tempfile
from os.path import abspath, dirname, join
from statistics import median, quantiles

ROOT = dirname(dirname(abspath(__file__)))
PAIRS = 10


def order(pair: int) -> tuple[str, str]:
    """Which side runs first in pair number `pair` (counted from 1)."""
    return ("parent", "tree") if pair % 2 else ("tree", "parent")


def quartiles(values: list[float]) -> tuple[float, float]:
    """The lower and upper quartiles, interpolated over the sorted values
    with both ends included (statistics.quantiles, "inclusive")."""
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(parent: list[float], tree: list[float], better: str,
              failed: tuple[int, int]) -> dict:
    """One metric over paired runs: parent[i] and tree[i] are pair i, and
    `failed` is the number of failed checks over all runs of each side."""
    if len(parent) != len(tree) or not parent:
        raise ValueError("need one parent and one tree value per pair")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1 if better == "lower" else -1
    n = len(parent)
    wins = sum(sign * (t - p) < 0 for p, t in zip(parent, tree))
    losses = sum(sign * (t - p) > 0 for p, t in zip(parent, tree))
    sides = {}
    for name, values in (("parent", parent), ("tree", tree)):
        q1, q3 = quartiles(values)
        sides[name] = {"median": median(values), "q1": q1, "q3": q3}
    gain = sign * (sides["parent"]["median"] - sides["tree"]["median"])
    spread = sides["parent"]["q3"] - sides["parent"]["q1"]
    verdict = "unresolved"
    if n >= PAIRS:
        if 10 * wins >= 9 * n and gain > spread and failed[1] <= failed[0]:
            verdict = "better"
        elif 10 * losses >= 9 * n and -gain > spread:
            verdict = "worse"
    return {
        "better": better,
        **sides,
        "wins": wins,
        "losses": losses,
        "pairs": n,
        "median_ratio": median(t / p for p, t in zip(parent, tree)),
        "verdict": verdict,
    }


def git(*args: str) -> bytes:
    return subprocess.run(
        ["git", "-C", ROOT, *args], check=True, capture_output=True
    ).stdout


def export(rev: str, into: str) -> None:
    """Unpack `git archive rev` into the directory `into`."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(into, filter="data")
        else:
            tar.extractall(into)


def run_once(bench: dict, tree: str, workload: str, seed: int) -> dict:
    """One cold benchmark run in the checkout `tree`; its last JSON line."""
    proc = subprocess.run(
        bench["command"] + ["--workload", workload, "--seed", str(seed),
                            "--seconds", str(bench["run_seconds"]),
                            "--trace", "0"],
        cwd=tree, capture_output=True, text=True, stdin=subprocess.DEVNULL,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"benchmark run in {tree} exited {proc.returncode}: "
            f"{proc.stderr.strip()[-500:]}"
        )
    return json.loads(lines[-1])


def measure(bench: dict, trees: dict, workload: str) -> dict:
    """PAIRS alternating pairs of one workload, summarized per metric."""
    runs = []
    for pair in range(1, PAIRS + 1):
        first, second = order(pair)
        got = {side: run_once(bench, trees[side], workload, pair)
               for side in (first, second)}
        runs.append({
            "pair": pair, "seed": pair, "first": first,
            **{side: {"failed": r["failed"], "attempted": r["attempted"],
                      **{k: v["value"] for k, v in r["metrics"].items()}}
               for side, r in got.items()},
        })
        print(f"{workload} pair {pair}: " + ", ".join(
            f"{side} wall_s {runs[-1][side]['wall_s']:.3f}"
            for side in ("parent", "tree")), file=sys.stderr)
    failed = {side: sum(r[side]["failed"] for r in runs)
              for side in ("parent", "tree")}
    return {
        "failed": failed,
        "metrics": {
            m["name"]: {"unit": m["unit"], **summarize(
                [r["parent"][m["name"]] for r in runs],
                [r["tree"][m["name"]] for r in runs], m["better"],
                (failed["parent"], failed["tree"]))}
            for m in bench["end_to_end"]
        },
        "runs": runs,
    }


def exit_on_sigterm(signum: int, frame) -> None:
    """Turn SIGTERM into SystemExit, so `with` blocks clean up: the
    export's temporary directory is removed and the running benchmark
    process is killed and waited for."""
    raise SystemExit(128 + signum)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="git revision")
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, exit_on_sigterm)
    sha = git("rev-parse", "--verify", f"{args.parent}^{{commit}}").decode().strip()
    short = git("rev-parse", "--short", sha).decode().strip()
    with open(join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    with tempfile.TemporaryDirectory() as tmp:
        export(sha, tmp)
        trees = {"parent": tmp, "tree": ROOT}
        workloads = {w["name"]: measure(bench, trees, w["name"])
                     for w in bench["workloads"]}

    out = join(ROOT, f"BENCH_{short}.json")
    report = {
        "parent": sha,
        "pairs": PAIRS,
        "seconds": bench["run_seconds"],
        "host": {"python": platform.python_version(),
                 "nproc": len(os.sched_getaffinity(0))},
        "workloads": workloads,
    }
    with open(out, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
        f.write("\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
