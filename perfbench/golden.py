"""Write golden.json: the expected record of every check of every workload.

    python3 perfbench/golden.py

Run it only when a change is meant to alter a verdict or a report; the
benchmark counts every check that differs from its golden record as
failed. Refuses to write a record whose verdict is not a pass.
"""

import json
import sys
from os.path import dirname, join

from child import run_checks
from workloads import WORKLOADS, plan

GOLDEN = join(dirname(__file__), "golden.json")


def main() -> int:
    golden = {}
    for workload in WORKLOADS:
        _, records = run_checks(plan(workload, 0))
        if workload == "suite":
            (_, got), = records
            reports = json.loads(got["stdout"])
            golden[workload] = {"exit": got["exit"], "reports": reports}
            verdicts = [got["exit"] == 0] + [r["status"] == "pass" for r in reports]
        else:
            golden[workload] = dict(sorted(records))
            verdicts = [
                r.get("status") == "pass" if workload == "series-high-order"
                else r.get("ok") is True
                for _, r in records
            ]
        if not all(verdicts):
            print(f"{workload}: a check does not pass; golden not written",
                  file=sys.stderr)
            return 1
    with open(GOLDEN, "w") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
