"""tools/pairs.py: the statistics of a paired benchmark, on synthetic
numbers, and its clean-up when it is stopped (no benchmark runs here)."""

import importlib.util
import os
import signal
import subprocess
import sys

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "pairs.py")
_SPEC = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)


def test_parent_runs_first_in_odd_pairs():
    assert [pairs.order(i) for i in (1, 2, 3, 10)] == [
        ("parent", "tree"), ("tree", "parent"),
        ("parent", "tree"), ("tree", "parent"),
    ]


def test_summary_of_a_lower_is_better_metric():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    tree = [0.5, 1.0, 1.5, 2.0, 6.0]
    s = pairs.summarize(parent, tree, "lower", (0, 0))
    assert s["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert s["tree"] == {"median": 1.5, "q1": 1.0, "q3": 2.0}
    # the last pair is a loss; ratios 0.5 x 4 and 1.2
    assert (s["wins"], s["losses"], s["pairs"]) == (4, 1, 5)
    assert s["median_ratio"] == 0.5
    # 5 pairs are fewer than 10, 4 wins of 5 are fewer than 9 in 10, and the
    # median fell by 1.5, less than the parent's spread of 2
    assert s["verdict"] == "unresolved"


def test_summary_of_a_higher_is_better_metric_and_ties():
    parent = [10.0, 10.0, 10.0, 10.0]
    tree = [20.0, 10.0, 30.0, 5.0]
    s = pairs.summarize(parent, tree, "higher", (0, 0))
    # a tie is neither a win nor a loss
    assert (s["wins"], s["losses"], s["pairs"]) == (2, 1, 4)
    assert s["parent"] == {"median": 10.0, "q1": 10.0, "q3": 10.0}
    assert s["tree"]["median"] == 15.0
    assert s["median_ratio"] == 1.5
    assert s["verdict"] == "unresolved"
    assert pairs.summarize(parent, tree, "lower", (0, 0))["wins"] == 1


def test_verdict_needs_nine_in_ten_and_a_move_past_the_parent_spread():
    parent = [1.0 + 0.01 * i for i in range(10)]  # spread 0.045
    faster = [p - 0.2 for p in parent]
    assert pairs.summarize(parent, faster, "lower", (0, 0))["verdict"] == "better"
    assert pairs.summarize(faster, parent, "lower", (0, 0))["verdict"] == "worse"
    # nine wins in ten still count, eight do not
    nine = faster[:9] + [parent[9] + 1]
    assert pairs.summarize(parent, nine, "lower", (0, 0))["verdict"] == "better"
    eight = faster[:8] + [p + 1 for p in parent[8:]]
    assert pairs.summarize(parent, eight, "lower", (0, 0))["verdict"] == "unresolved"
    # ten small wins that stay inside the parent's spread do not count
    slightly = [p - 0.001 for p in parent]
    assert pairs.summarize(parent, slightly, "lower", (0, 0))["verdict"] == "unresolved"


def test_a_gain_with_more_failed_checks_is_not_better():
    parent = [1.0 + 0.01 * i for i in range(10)]
    faster = [p - 0.2 for p in parent]
    assert pairs.summarize(parent, faster, "lower", (1, 1))["verdict"] == "better"
    s = pairs.summarize(parent, faster, "lower", (0, 1))
    assert (s["wins"], s["verdict"]) == (10, "unresolved")
    # fewer failures on the tree do not block a gain
    assert pairs.summarize(parent, faster, "lower", (2, 0))["verdict"] == "better"


def test_fewer_than_ten_pairs_resolve_nothing():
    assert pairs.PAIRS == 10
    s = pairs.summarize([2.0], [1.0], "lower", (0, 0))
    assert s["parent"] == {"median": 2.0, "q1": 2.0, "q3": 2.0}
    assert (s["wins"], s["median_ratio"]) == (1, 0.5)
    assert s["verdict"] == "unresolved"
    parent = [1.0 + 0.01 * i for i in range(9)]
    faster = [p - 0.2 for p in parent]
    s = pairs.summarize(parent, faster, "lower", (0, 0))
    assert (s["wins"], s["pairs"], s["verdict"]) == (9, 9, "unresolved")
    assert pairs.summarize(faster, parent, "lower", (0, 0))["verdict"] == "unresolved"


def test_bad_input():
    with pytest.raises(ValueError):
        pairs.summarize([1.0, 2.0], [1.0], "lower", (0, 0))
    with pytest.raises(ValueError):
        pairs.summarize([], [], "lower", (0, 0))
    with pytest.raises(ValueError):
        pairs.summarize([1.0], [1.0], "faster", (0, 0))


_STOPPED_RUN = """
import os, signal, sys
from importlib.util import module_from_spec, spec_from_file_location
spec = spec_from_file_location("pairs", {path!r})
pairs = module_from_spec(spec)
spec.loader.exec_module(pairs)
pairs.git = lambda *args: b"abc1234\\n"
def export(rev, into):  # a stand-in for the parent's tree
    open(os.path.join(into, "BENCHMARK.json"), "w").close()
pairs.export = export
# stopped as `kill` would stop it, before any benchmark run starts
pairs.measure = lambda *args: os.kill(os.getpid(), signal.SIGTERM)
sys.argv = ["pairs.py", "--parent", "HEAD"]
sys.exit(pairs.main())
"""


def test_sigterm_removes_the_export(tmp_path):
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    proc = subprocess.run(
        [sys.executable, "-c", _STOPPED_RUN.format(path=os.path.abspath(_PATH))],
        env={**os.environ, "TMPDIR": str(tmpdir)}, cwd=tmp_path,
        capture_output=True, text=True, timeout=60,
    )
    assert list(tmpdir.iterdir()) == []
    assert proc.returncode == 128 + signal.SIGTERM, proc.stderr
