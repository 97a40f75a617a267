"""tools/goldens.py: the `t1` rows of tests/goldens.json, the manifest's
own rules, and the tool's check and --write on small manifests; and the
package functions those rows reach."""

import importlib.util
import os
import shlex

import pytest

from oplab import cli
from oplab import overpartitions as op

from _reference import REACH, REASONS, hooked, package_caches, package_functions

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "goldens.py")
_SPEC = importlib.util.spec_from_file_location("goldens", _PATH)
goldens = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(goldens)

ROWS = goldens.load()
T1 = [row for row in ROWS if row["tier"] == "t1"]


@pytest.fixture(scope="module")
def t1_run():
    """({argv: outputs} of every t1 row, the names of the package functions
    the rows call), from one run of the rows under the call hook, with the
    caches and the shape-table fill as empty as in a fresh process."""
    outputs, reached = {}, set()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(op, "_TABLES", [])
        m.setattr(op, "_FILL", op._fill())
        for cache in package_caches():
            cache.cache_clear()
        with hooked(lambda name, params, frame: reached.add(name)):
            for row in T1:
                outputs[tuple(row["argv"])] = goldens.run(row["argv"])
    return outputs, reached


@pytest.mark.parametrize("row", T1, ids=lambda row: shlex.join(row["argv"]))
def test_t1_row(row, t1_run):
    assert goldens.differences(row, t1_run[0][tuple(row["argv"])]) == []


def test_every_function_the_rows_miss_has_a_reason(t1_run):
    # the product's reach is the API: a function that no row calls is
    # listed with why it stays, and one that a row calls is not listed
    missed = set(package_functions().values()) - t1_run[1]
    assert sorted(missed - set(REACH)) == []
    assert sorted(set(REACH) - missed) == []
    assert set(REACH.values()) <= set(REASONS)


def test_manifest_rows_are_well_formed():
    argvs = [tuple(row["argv"]) for row in ROWS]
    assert len(argvs) == len(set(argvs)), "duplicate argv"
    for row in ROWS:
        assert row["tier"] in ("t1", "ci"), row
        assert "--timings" not in row["argv"], row
        assert row["exit"] in (0, 1, 2), row
        # argparse's usage text differs across Python versions, so a
        # rejected row's stderr is one line of oplab's own
        if row["exit"] == 2:
            assert row["stderr"].startswith("oplab: error: "), row
            assert row["stderr"].count("\n") == 1, row
        else:
            assert row["stderr"] == "", row
    # the checked-in file is in the form --write writes
    assert goldens.render(ROWS) == _read(goldens.MANIFEST)


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _manifest(tmp_path, *rows):
    path = str(tmp_path / "goldens.json")
    listed = {"argv": ["list"], "tier": "t1", **goldens.run(["list"])}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(goldens.render([listed, *rows]))
    return path, _read(path)


def test_write_rewrites_outputs_and_keeps_the_rows(tmp_path, capsys):
    stale = {"argv": ["list", "--format", "json"], "tier": "ci", "exit": 0,
             "stderr": "", "stdout_sha256": "0" * 64}
    path, before = _manifest(tmp_path, stale)
    assert goldens.main([], path) == 1
    assert "stdout_sha256: expected '000" in capsys.readouterr().out
    assert goldens.main(["--write"], path) == 0
    assert "oplab list --format json\n" in capsys.readouterr().out
    fresh = goldens.run(stale["argv"])["stdout_sha256"]
    after = _read(path)
    assert after == before.replace("0" * 64, fresh)
    assert goldens.main(["--write"], path) == 0 and _read(path) == after


def test_write_never_changes_an_exit(tmp_path, capsys):
    wrong = {"argv": ["verify", "--id", "nope"], "tier": "t1", "exit": 0,
             "stderr": "", "stdout_sha256": "0" * 64}
    path, before = _manifest(tmp_path, wrong)
    assert goldens.main(["--write"], path) == 1
    assert "exit: expected 0, got 2" in capsys.readouterr().out
    assert _read(path) == before


def test_an_escaping_exception_fails_its_row(tmp_path, capsys, monkeypatch):
    def boom(args):
        raise ValueError("boom")

    path, _ = _manifest(tmp_path)
    monkeypatch.setattr(cli, "_cmd_list", boom)
    assert goldens.main([], path) == 1
    assert "exit: expected 0, got 'ValueError: boom'" in capsys.readouterr().out
