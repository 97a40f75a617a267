"""Self-test of the benchmark at reduced size; takes a few seconds.

    python3 perfbench/selftest.py

Checks that a wrong verdict and an exception inside a check are counted
as failed checks rather than passing or stopping the pass, that the
traced run reports every per-layer metric without changing a verdict, and
that BENCHMARK.json names the metrics this code reports.
"""

import functools
import json
import sys
from os.path import join

from child import call, oplab, run_checks
from run import END_TO_END, ROOT, count_failed
from spans import PER_LAYER, Recorder, layer_metrics
from workloads import WORKLOADS, plan

SMALL = [
    ("gauss order=40", "identities.verify_series", ("gauss", {}, 40)),
    ("weight_down n=5", "bijections.check_weight_down", (5,)),
    ("staircase n=5 j=2", "bijections.check_staircase", (5, 2)),
]
CLI_ARGS = (["verify", "--id", "thm-1-3", "--k", "1", "--n-max", "8"],)


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise SystemExit(f"selftest failed: {what}")


def main() -> int:
    _, good = run_checks(SMALL)
    golden = {"small": dict(good)}
    expect(count_failed("small", good, golden) == (3, 0),
           "unchanged checks pass")

    verify = oplab.identities.verify_series
    oplab.identities.verify_series = functools.partial(verify, perturb=(7, 1))
    try:
        _, perturbed = run_checks(SMALL[:1])
    finally:
        oplab.identities.verify_series = verify
    expect(perturbed[0][1]["status"] == "fail", "perturbation bites")
    expect(count_failed("small", perturbed, golden) == (1, 1),
           "a wrong verdict counts as failed")

    raising = ("staircase n=5 j=3", "bijections.check_staircase", (5, 3))
    golden["small"][raising[0]] = {"ok": True}
    _, records = run_checks([SMALL[0], raising, SMALL[1]])
    expect(len(records) == 3 and "error" in records[1][1],
           "an exception is recorded and the pass goes on")
    expect(count_failed("small", records, golden) == (3, 1),
           "an exception counts as failed")

    cli = call("cli.main", CLI_ARGS)
    suite = {"suite": {"exit": 0, "reports": json.loads(cli["stdout"])}}
    expect(count_failed("suite", [["cli", cli]], suite) == (1, 0),
           "suite output matches its golden record")
    wrong = json.dumps([dict(suite["suite"]["reports"][0], status="fail")])
    expect(count_failed("suite", [["cli", dict(cli, stdout=wrong)]], suite)
           == (1, 1), "a changed suite report counts as failed")
    expect(count_failed("suite", [["cli", dict(cli, exit=1)]], suite)
           == (1, 1), "a wrong exit code fails the suite")

    sizes = {w: len(plan(w, 0)) for w in WORKLOADS}
    expect(sizes == {"suite": 1, "series-high-order": 10, "bijections": 94},
           f"workload sizes {sizes}")
    expect(sorted(plan("bijections", 1)) == sorted(plan("bijections", 2))
           and plan("bijections", 1) != plan("bijections", 2),
           "the seed permutes the checks and keeps the set")

    recorder = Recorder()
    recorder.install(oplab)
    # a new order misses the series caches the untraced checks filled
    _, traced = run_checks(
        SMALL + [("gauss order=41", "identities.verify_series",
                  ("gauss", {}, 41))])
    expect(traced[:3] == good and traced[3][1]["status"] == "pass",
           "tracing changes no verdict")
    expect(call("cli.main", CLI_ARGS) == cli, "tracing changes no output")
    layers = layer_metrics(recorder.spans)
    expect(set(layers) == {name for name, _ in PER_LAYER},
           "every per-layer metric is reported")
    for name in ("series.times_factor.calls", "identities.gauss.lhs_s",
                 "identities.enum.rhs_s", "overpartitions.mbar.calls",
                 "bijections.enumerate_s", "cli.self_s",
                 "overpartitions.objects_scanned"):
        expect(layers[name] > 0, f"{name} is measured")

    with open(join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for section, metrics in (("end_to_end", END_TO_END),
                             ("per_layer", PER_LAYER)):
        declared = [(m["name"], m["unit"]) for m in bench[section]]
        expect(declared == list(metrics), f"BENCHMARK.json {section}")
    expect([w["name"] for w in bench["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json workloads")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
