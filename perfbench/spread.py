"""Run every workload over seeds 1..10 and print each end-to-end metric's
median and spread (distance between first and third quartile, as a share
of the median), with the bound from BENCHMARK.json. A spread is `ok`
below a third of its bound; the exit code is 1 if any is not.

    python3 perfbench/spread.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from os.path import abspath, dirname, join
from statistics import median, quantiles

ROOT = dirname(dirname(abspath(__file__)))
SEEDS = range(1, 11)


def main() -> int:
    with open(join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    steady = True
    for workload in (w["name"] for w in bench["workloads"]):
        values: dict[str, list[float]] = {}
        for seed in SEEDS:
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                 text=True, check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed")
                steady = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for metric in bench["end_to_end"]:
            vals = values[metric["name"]]
            q1, _, q3 = quantiles(vals, n=4)
            spread = (q3 - q1) / median(vals)
            ok = spread < metric["bound"] / 3
            steady &= ok
            print(f"{workload:18} {metric['name']:12} median "
                  f"{median(vals):.4f} spread {spread:.4f} bound "
                  f"{metric['bound']} {'ok' if ok else 'WIDE'}")
        sys.stdout.flush()
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
