"""Command line: subcommand behavior, formats, exit codes, determinism.

All but one test run in-process through cli.main so exit codes and
captured stdout/stderr are asserted directly. The exact bytes of fixed
invocations, the rejections oplab words itself included, are rows of
tests/goldens.json (tests/test_goldens.py); the tests here check what a
row cannot: outputs against the library, argparse's own rejections,
patched builders, an environment variable the CLI must not read, and one
real process, `python -m oplab`, where an escaping exception would show
its traceback.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import oplab
from oplab import bijections, cli, identities
from oplab import overpartitions as op

from _reference import record_tables


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_single_id_one_record(capsys):
    # an explicit --order selects just the series form
    code, out, _ = run(capsys, "verify", "--id", "gauss", "--order", "50")
    assert code == 0
    records = json.loads(out)
    assert len(records) == 1
    rec = records[0]
    assert rec["id"] == "gauss"
    assert rec["status"] == "pass"
    assert rec["range"] == "order=50"
    assert rec["elapsedMs"] == 0
    assert "anchor" in rec and "firstMismatch" not in rec


def test_verify_all_with_restricted_grid(capsys):
    # shared k override applies to every id that takes k; ids without k
    # still run their defaults, so keep the heavy ones fast
    code, out, _ = run(
        capsys,
        "verify", "--all", "--k", "1", "--m", "1", "--ell", "1",
        "--j", "1", "--order", "30", "--n-max", "8",
    )
    assert code == 0
    records = json.loads(out)
    assert all(r["status"] == "pass" for r in records)
    ids = {r["id"] for r in records}
    assert ids == {d.id for d in identities.list_identities()}


def test_verify_output_is_deterministic(capsys):
    args = ("verify", "--id", "sec5-main", "--k", "1..2", "--order", "60")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert (code1, out1) == (code2, out2)


def test_verify_timings_flag_changes_only_elapsed(capsys):
    argv = ("verify", "--id", "euler-odd-distinct", "--order", "40")
    [plain] = json.loads(run(capsys, *argv)[1])
    [timed] = json.loads(run(capsys, *argv, "--timings")[1])
    assert timed.pop("elapsedMs") >= 0 and plain.pop("elapsedMs") == 0
    assert timed == plain


def test_verify_failure_exits_one(capsys, monkeypatch):
    # register a deliberately false statement to drive the failure path
    bogus = identities.IdentityDescriptor(
        id="bogus-fail",
        statement="always wrong",
        default_n_max=5,
        enum_lhs=lambda p, n: [(1,)] * n,
        enum_rhs=lambda p, n: [(0,)] * n,
    )
    monkeypatch.setitem(identities._REGISTRY, "bogus-fail", bogus)
    code, out, _ = run(capsys, "verify", "--id", "bogus-fail", "--format", "csv")
    assert code == 1
    row = out.splitlines()[1].split(",")
    assert row[3] == "fail"
    assert row[4:7] == ["1", "1", "0"]  # mismatch triple flattened


def test_verify_csv_row_matches_json_record(capsys, monkeypatch):
    # a failing two-display check fills every optional field of the record
    bogus = identities.IdentityDescriptor(
        id="bogus-display",
        statement="always wrong",
        default_n_max=3,
        enum_lhs=lambda p, n: [(0, 1)] * n,
        enum_rhs=lambda p, n: [(0, 0)] * n,
    )
    monkeypatch.setitem(identities._REGISTRY, "bogus-display", bogus)
    _, out, _ = run(capsys, "verify", "--id", "bogus-display")
    rec = json.loads(out)[0]
    _, out, _ = run(capsys, "verify", "--id", "bogus-display", "--format", "csv")
    assert out.splitlines()[1].split(",") == [
        "bogus-display", "", "n=1..3", "fail", "1", "1", "0", "0",
        "always wrong", "display 2 of 2",
    ]
    assert rec["firstMismatch"] == [1, 1, 0]
    assert rec["detail"] == "display 2 of 2"


def test_verify_usage_errors(capsys):
    # argparse's own rejections; oplab's are rows of tests/goldens.json
    code, _, _ = run(capsys, "verify", "--id", "gauss", "--order", "banana")
    assert code == 2  # argparse rejects the int
    code, _, _ = run(capsys, "verify", "--id", "gauss", "--k", "3..1")
    assert code == 2  # empty range
    code, _, _ = run(capsys, "verify")
    assert code == 2  # neither --id nor --all


def test_table_json(capsys):
    code, out, _ = run(capsys, "table", "--stat", "mbar", "--k", "1",
                       "--n-max", "4")
    assert code == 0
    rows = json.loads(out)
    assert rows[-1] == {"n": 4, "k": 1, "value": op.mbar(4, 1)}
    code, out, _ = run(capsys, "table", "--stat", "pbar", "--n-max", "3")
    assert json.loads(out) == [
        {"n": 1, "value": 2},
        {"n": 2, "value": 4},
        {"n": 3, "value": 8},
    ]


def test_table_usage_errors(capsys, monkeypatch):
    code, _, _ = run(capsys, "table", "--stat", "mystery", "--n-max", "4")
    assert code == 2
    # every row is built before any is printed, so a wide k range is
    # refused before the first one
    tables = record_tables(monkeypatch)
    code, out, err = run(capsys, "table", "--stat", "op21",
                         "--k", "0..1000000000", "--n-max", "25")
    assert (code, out) == (2, "") and "--k must end at or below 64" in err
    assert tables == []
    code, out, _ = run(capsys, "table", "--stat", "nbar", "--k", "64",
                       "--n-max", "2", "--format", "csv")
    assert code == 0 and out.splitlines()[-1] == f"2,64,{op.nbar(2, 64)}"


def test_table_respects_enumeration_cap(capsys, monkeypatch):
    # a weight past the shape ceiling fails before any weight is counted
    tables = record_tables(monkeypatch)
    code, out, err = run(capsys, "table", "--stat", "mbar", "--k", "1",
                         "--n-max", str(op.SHAPE_CEILING + 1))
    assert (code, out) == (2, "") and "--n-max must be within 1..50" in err
    assert tables == []
    # the shape counts reach past the object ceiling
    code, out, _ = run(capsys, "table", "--stat", "op21", "--k", "1",
                       "--n-max", "31", "--format", "csv")
    assert code == 0 and out.splitlines()[-1] == f"31,1,{op.op21(31, 1)}"


@pytest.mark.parametrize("cap", ["abc", "-1"])
@pytest.mark.parametrize("argv, code", [
    (["verify", "--id", "thm-2-2", "--n-max", "5"], 0),
    (["verify", "--id", "thm-2-2", "--n-max", "51"], 2),
    (["table", "--stat", "mbar", "--k", "1", "--n-max", "51"], 2),
    (["bijection", "--which", "section3", "--n", "31"], 2),
], ids=["verify-pass", "verify", "table", "bijection"])
def test_retired_cap_variable_is_ignored(capsys, monkeypatch, argv, code,
                                         cap):
    # the retired OPLAB_ENUM_CAP, even malformed, is not read: a weight past
    # its fixed ceiling is the one usage error, whose stderr, naming that
    # ceiling, is a row of tests/goldens.json
    expected = run(capsys, *argv)
    monkeypatch.setenv("OPLAB_ENUM_CAP", cap)
    assert run(capsys, *argv) == expected
    assert expected[0] == code


def test_bijection_lemma41(capsys):
    code, out, _ = run(capsys, "bijection", "--which", "lemma41", "--n", "10",
                       "--j", "2", "--trace")
    assert code == 0
    payload = json.loads(out)
    assert payload["sourceCount"] == op.pbar(6)
    assert payload["matched"] is True and payload["ok"] is True
    assert len(payload["traces"]) == op.pbar(6)
    assert all(t["case"] == "insert" for t in payload["traces"])
    assert all(t["weightDelta"] == 4 for t in payload["traces"])
    # j defaults to 1
    code, out, _ = run(capsys, "bijection", "--which", "lemma41", "--n", "5")
    assert code == 0 and json.loads(out)["j"] == 1
    # source weight 24 is enumerated; the target weight 40 is shape-counted
    code, out, _ = run(capsys, "bijection", "--which", "lemma41", "--n", "40",
                       "--j", "4")
    assert code == 0 and json.loads(out)["sourceCount"] == op.pbar(24)


@pytest.mark.parametrize("argv, record, keys", [
    (("section3", "--n", "9"), lambda: bijections.check_weight_down(9),
     ["n", "aCount", "bCount", "cCount", "mappedPairs", "distinctImages",
      "roundTripOk", "weightsOk", "witnessOk", "pbarHalf", "ok"]),
    (("lemma41", "--n", "9", "--j", "2"),
     lambda: bijections.check_staircase(9, 2),
     ["n", "j", "sourceCount", "targetCount", "matched", "roundTripOk",
      "ok"]),
], ids=["section3", "lemma41"])
def test_bijection_payload_is_the_check_record(capsys, argv, record, keys):
    # the record's keys in its own order, camelCased, after "which"
    code, out, _ = run(capsys, "bijection", "--which", *argv, "--trace")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["which"] + keys + ["traces"]
    assert payload["which"] == argv[0]
    assert [payload[k] for k in keys] == list(record().values())


def test_section3_trace_inputs_are_class_a(capsys):
    for n in range(1, 17):
        code, out, _ = run(capsys, "bijection", "--which", "section3",
                           "--n", str(n), "--trace")
        assert code == 0
        want = [pi.to_jsonable() for pi in op.enumerate_overpartitions(n)
                if bijections.in_a(pi)]
        assert [t["input"] for t in json.loads(out)["traces"]] == want, n


def test_lemma41_trace_inputs_are_the_source_weight(capsys):
    for j in range(1, 4):
        for n in range(j * j, j * j + 9):
            code, out, _ = run(capsys, "bijection", "--which", "lemma41",
                               "--n", str(n), "--j", str(j), "--trace")
            assert code == 0
            want = [mu.to_jsonable()
                    for mu in op.enumerate_overpartitions(n - j * j)]
            got = [t["input"] for t in json.loads(out)["traces"]]
            assert got == want, (n, j)


def test_bijection_usage_errors(capsys):
    # the exit code follows the record's ok; there is no --check option
    code, out, err = run(capsys, "bijection", "--which", "section3", "--n", "4",
                         "--check")
    assert (code, out) == (2, "") and "--check" in err


_REAL_A_TO_B_PARTS = bijections._a_to_b_parts


def _into_complement(pi):
    # below weight 4 the complement class is empty and has no witness
    weight = sum(p.value for p in pi)
    if weight < 4:
        return _REAL_A_TO_B_PARTS(pi)
    return tuple(bijections.c_witness(weight))


# the checks map each walked tuple through the forward map's core
@pytest.mark.parametrize("name, mutant, argv", [
    ("_a_to_b_parts", _into_complement,
     ("verify", "--id", "sec3-bijection", "--n-max", "8")),
    ("_a_to_b_parts", _into_complement,
     ("bijection", "--which", "section3", "--n", "8")),
    ("_insert_stairs", lambda mu, j: mu,
     ("bijection", "--which", "lemma41", "--n", "6", "--j", "1")),
], ids=["verify-section3", "bijection-section3", "bijection-lemma41"])
def test_a_faulty_map_is_a_failed_check(capsys, monkeypatch, name, mutant, argv):
    # a map whose images leave the target fails the check (exit 1); it is
    # not a rejected invocation (exit 2)
    monkeypatch.setattr(bijections, name, mutant)
    code, out, err = run(capsys, *argv)
    assert code == 1 and err == ""
    if argv[0] == "verify":
        assert json.loads(out)[0]["status"] == "fail"
    else:
        assert json.loads(out)["ok"] is False


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    capsys.readouterr()
    assert cli.main(["verify", "--help"]) == 0
    capsys.readouterr()


def test_console_entry_matches_main():
    # the [project.scripts] line of pyproject.toml, read as text (3.10 has
    # no tomllib), names cli.main
    pyproject = os.path.join(os.path.dirname(__file__), os.pardir,
                             "pyproject.toml")
    with open(pyproject, encoding="utf-8") as fh:
        scripts = fh.read().split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert scripts.strip() == 'oplab = "oplab.cli:main"'
    module, name = scripts.split('"')[1].split(":")
    assert getattr(importlib.import_module(module), name) is cli.main


def test_python_dash_m_oplab_runs_the_cli():
    # the one test that starts the CLI as a process: a library rejection
    # must leave main as exit 2 and one line, not as a traceback
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(oplab.__file__))

    def oplab_run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "oplab", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )

    proc = oplab_run("list")
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == [
        d.id for d in identities.list_identities()
    ]
    proc = oplab_run("verify", "--id", "gauss", "--order", "2001")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1


# the public surface, written out so that every export is a visible decision
PUBLIC_NAMES = {
    "__version__",
    # series
    "TruncatedSeries", "zero", "one", "monomial", "pentagonal_series",
    "theta_partial", "gauss_theta",
    # overpartitions
    "Part", "Overpartition", "BadParamsError", "OBJECT_CEILING",
    "SHAPE_CEILING", "enumerate_overpartitions", "pbar", "overline_mex",
    "op_class_counts", "op21", "mbar", "nbar", "mk_stat",
    # bijections
    "in_a", "in_b", "map_a_to_b", "map_b_to_a", "c_witness",
    "staircase_insert", "staircase_remove", "check_weight_down",
    "check_staircase",
    # identities
    "IdentityDescriptor", "VerificationReport", "UnknownIdentityError",
    "MAX_ORDER", "list_identities", "get_identity", "expand_grid",
    "verify_series", "verify_enumerative", "verify_inequality",
    "verify_identity", "run_default_suite",
}


def test_package_exports_are_the_modules_exports():
    from oplab import bijections, overpartitions, series
    modules = (series, overpartitions, bijections, identities)
    union = set().union(*(m.__all__ for m in modules))
    assert set(oplab.__all__) - {"__version__"} == union
    assert all(hasattr(oplab, name) for name in oplab.__all__)
    assert len(oplab.__all__) == len(set(oplab.__all__))
    assert set(oplab.__all__) == PUBLIC_NAMES


def test_readme_library_use_runs():
    # the python block under "## Library use" is executed as written
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
