"""tools/goldens.py: the `t1` rows of tests/goldens.json, the manifest's
own rules, and the tool's check and --write on small manifests."""

import importlib.util
import os
import shlex

import pytest

from oplab import cli

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "goldens.py")
_SPEC = importlib.util.spec_from_file_location("goldens", _PATH)
goldens = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(goldens)

ROWS = goldens.load()


@pytest.mark.parametrize("row", [r for r in ROWS if r["tier"] == "t1"],
                         ids=lambda row: shlex.join(row["argv"]))
def test_t1_row(row):
    assert goldens.differences(row, goldens.run(row["argv"])) == []


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
