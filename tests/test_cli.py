"""Command line: subcommand behavior, formats, exit codes, determinism.

Everything runs in-process through cli.main so exit codes and captured
stdout/stderr are asserted directly.
"""

import hashlib
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


def test_list_plain(capsys):
    code, out, _ = run(capsys, "list")
    assert code == 0
    assert out.splitlines() == [d.id for d in identities.list_identities()]


def test_list_json(capsys):
    code, out, _ = run(capsys, "list", "--format", "json")
    assert code == 0
    assert json.loads(out) == [d.id for d in identities.list_identities()]


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


def test_verify_n_max_selects_counting_forms(capsys):
    code, out, _ = run(capsys, "verify", "--id", "gauss", "--n-max", "10")
    assert code == 0
    records = json.loads(out)
    assert [r["range"] for r in records] == ["n=1..10"]


def test_verify_no_bounds_runs_all_forms(capsys):
    code, out, _ = run(capsys, "verify", "--id", "cor-2-9", "--k", "1")
    assert code == 0
    # deterministic merge order sorts the range strings too
    assert [r["range"] for r in json.loads(out)] == ["n=1..25", "order=100"]


def test_verify_mismatched_form_exits_2(capsys):
    # thm-2-2 has no series form and pentagonal-am no counting form, so a
    # run with only the other bound would check nothing; it is rejected
    for argv, message in [
        (("--id", "thm-2-2", "--order", "50"), "thm-2-2: no series form"),
        (("--id", "pentagonal-am", "--n-max", "5"),
         "pentagonal-am: no enumerative or inequality form"),
    ]:
        for fmt in ("json", "csv"):
            code, out, err = run(capsys, "verify", *argv, "--format", fmt)
            assert code == 2 and out == "", argv
            assert err.strip().splitlines() == [f"oplab: error: {message}"]


def test_verify_range_expansion_csv(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--id", "li-truncation", "--k", "1..3",
        "--order", "40", "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("id,params,range,status,")
    assert len(lines) == 4
    assert [ln.split(",")[1] for ln in lines[1:]] == ["k=1", "k=2", "k=3"]
    assert all(",pass," in ln for ln in lines[1:])


def test_verify_negative_range_needs_equals_form(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--id", "ineq-m-k", "--m=-2..-1", "--k", "2",
        "--n-max", "20",
    )
    assert code == 0
    records = json.loads(out)
    assert [r["params"] for r in records] == [
        {"k": 2, "m": -2},
        {"k": 2, "m": -1},
    ]


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
    _, out, _ = run(
        capsys, "verify", "--id", "euler-odd-distinct", "--order", "40",
        "--timings",
    )
    rec = json.loads(out)[0]
    assert rec["elapsedMs"] >= 0  # real timing, usually > 0


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
    code, _, err = run(capsys, "verify", "--id", "nope")
    assert code == 2 and "unknown identity" in err
    code, _, err = run(capsys, "verify", "--id", "gauss", "--k", "1")
    assert code == 2 and "does not take" in err
    code, _, err = run(capsys, "verify", "--id", "li-truncation", "--k", "0..2")
    assert code == 2
    code, _, err = run(capsys, "verify", "--id", "gauss", "--order", "9999")
    assert code == 2
    code, _, _ = run(capsys, "verify", "--id", "gauss", "--order", "banana")
    assert code == 2  # argparse rejects the int
    code, _, _ = run(capsys, "verify", "--id", "gauss", "--k", "3..1")
    assert code == 2  # empty range
    code, _, _ = run(capsys, "verify")
    assert code == 2  # neither --id nor --all


def test_verify_override_leaving_no_parameter_set(capsys):
    # thm-2-4 requires m <= k, so --m 5 --k 3 selects nothing to check
    code, out, err = run(capsys, "verify", "--id", "thm-2-4", "--m", "5",
                         "--k", "3")
    assert code == 2 and out == ""
    assert "thm-2-4" in err and "no parameter set" in err
    code, out, _ = run(capsys, "verify", "--id", "thm-2-4", "--m", "3",
                       "--k", "3", "--n-max", "5")
    assert code == 0 and len(json.loads(out)) == 1


def test_table_pbar_csv_frozen(capsys):
    code, out, _ = run(capsys, "table", "--stat", "pbar", "--n-max", "4",
                       "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["n,value", "1,2", "2,4", "3,8", "4,14"]


def test_table_op21_csv_frozen(capsys):
    code, out, _ = run(capsys, "table", "--stat", "op21", "--k", "2",
                       "--n-max", "4", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,k,value"
    assert lines[-1] == "4,2,1"


def test_table_k_range_is_n_major(capsys):
    code, out, _ = run(capsys, "table", "--stat", "op21", "--k", "0..1",
                       "--n-max", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1:] == ["1,0,1", "1,1,1", "2,0,2", "2,1,2"]


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
    code, _, err = run(capsys, "table", "--stat", "op21", "--n-max", "4")
    assert code == 2 and "requires --k" in err
    code, _, err = run(capsys, "table", "--stat", "pbar", "--k", "1")
    assert code == 2 and "does not apply" in err
    code, _, err = run(capsys, "table", "--stat", "nbar", "--k", "0..2")
    assert code == 2 and "k >= 1" in err
    code, _, _ = run(capsys, "table", "--stat", "mystery", "--n-max", "4")
    assert code == 2
    code, _, err = run(capsys, "table", "--stat", "pbar", "--n-max", "0")
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


def test_retired_cap_variable_is_ignored(capsys, monkeypatch):
    argv = ("verify", "--id", "thm-2-2", "--n-max", "5")
    expected = run(capsys, *argv)
    monkeypatch.setenv("OPLAB_ENUM_CAP", "abc")
    assert run(capsys, *argv) == expected
    assert expected[0] == 0


@pytest.mark.parametrize("cap", ["abc", "-1"])
@pytest.mark.parametrize(
    "argv, ceiling",
    [
        (["verify", "--id", "thm-2-2", "--n-max", "51"], 50),
        (["table", "--stat", "mbar", "--k", "1", "--n-max", "51"], 50),
        (["bijection", "--which", "section3", "--n", "31"], 30),
    ],
    ids=["verify", "table", "bijection"],
)
def test_malformed_enumeration_cap_is_a_usage_error(argv, ceiling, cap):
    # the retired OPLAB_ENUM_CAP, even malformed, is not read: the one usage
    # error is the weight past its fixed ceiling, and the message names that
    # ceiling, not the variable; run as a real process so an escaping
    # exception would show its traceback
    env = dict(os.environ, OPLAB_ENUM_CAP=cap)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(oplab.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "oplab.cli", *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1 and str(ceiling) in proc.stderr
    assert "OPLAB_ENUM_CAP" not in proc.stderr


_TOO_FAR = str(identities.MAX_ORDER + 1)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--id", "thm-2-2", "--n-max", _TOO_FAR],
        ["verify", "--id", "ineq-xyz", "--n-max", _TOO_FAR],
        ["verify", "--all", "--n-max", _TOO_FAR],
        ["verify", "--id", "gauss", "--order", _TOO_FAR],
        ["verify", "--id", "gauss", "--n-max", "0"],
        ["table", "--stat", "pbar", "--n-max", _TOO_FAR],
        ["table", "--stat", "mbar", "--k", "1", "--n-max", _TOO_FAR],
        ["table", "--stat", "pbar", "--n-max", "0"],
    ],
    ids=["verify-enum", "verify-ineq", "verify-all", "verify-order",
         "verify-zero", "table-pbar", "table-mbar", "table-zero"],
)
def test_bounds_past_max_order_are_usage_errors(argv):
    # run as a real process so an escaping exception would show its traceback
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(oplab.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "oplab.cli", *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1
    flag = "--n-max" if "--n-max" in argv else "--order"
    if argv[0] == "verify":
        # verify leaves the range check to the library, which names the bound
        bound = "n_max" if flag == "--n-max" else "order"
        assert f"{bound} must be within" in proc.stderr
        assert f"got {argv[-1]}" in proc.stderr
    else:
        assert f"{flag} must be within" in proc.stderr


def test_bijection_section3_check(capsys):
    code, out, _ = run(capsys, "bijection", "--which", "section3", "--n", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["which"] == "section3"
    assert payload["aCount"] == 7 and payload["mappedPairs"] == 7
    assert payload["cCount"] == 1 and payload["witnessOk"] is True
    assert payload["ok"] is True


def test_bijection_section3_trace(capsys):
    code, out, _ = run(capsys, "bijection", "--which", "section3", "--n", "3",
                       "--trace")
    assert code == 0
    payload = json.loads(out)
    traces = payload["traces"]
    assert len(traces) == payload["aCount"] == 4
    assert {t["case"] for t in traces} == {"t=1", "t>=2"}
    assert all(t["weightDelta"] == -1 for t in traces)


def test_trace_jsonable_shape(capsys):
    code, out, _ = run(capsys, "bijection", "--which", "section3", "--n", "4",
                       "--trace")
    assert code == 0
    # the record of (2, 2), mapped to (2, 1bar)
    blob = next(t for t in json.loads(out)["traces"]
                if t["input"] == [[2, False], [2, False]])
    assert set(blob) == {"input", "output", "case", "weightDelta"}
    assert blob["input"] == [[2, False], [2, False]]
    assert blob["output"] == [[2, False], [1, True]]
    assert blob["case"] == "t>=2"
    assert blob["weightDelta"] == -1


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
    code, _, err = run(capsys, "bijection", "--which", "section3", "--n", "4",
                       "--j", "1")
    assert code == 2 and "lemma41" in err
    code, _, err = run(capsys, "bijection", "--which", "lemma41", "--n", "3",
                       "--j", "2")
    assert code == 2  # j^2 > n
    code, _, _ = run(capsys, "bijection", "--which", "lemma41", "--n", "0")
    assert code == 2
    code, _, err = run(capsys, "bijection", "--which", "section3", "--n", "31")
    assert code == 2 and "ceiling 30" in err
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
    # pyproject wires oplab = oplab.cli:main
    from oplab.cli import main
    assert callable(main)


def test_python_dash_m_oplab_runs_the_cli():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(oplab.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "oplab", "list"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == [
        d.id for d in identities.list_identities()
    ]


# the public surface, written out so that every export is a visible decision
PUBLIC_NAMES = {
    "__version__",
    # series
    "TruncatedSeries", "zero", "one", "monomial", "qproduct",
    "pentagonal_series", "theta_partial", "gauss_theta",
    # overpartitions
    "Part", "Overpartition", "BadParamsError",
    "EnumerationCapError", "OBJECT_CEILING", "SHAPE_CEILING",
    "enumerate_overpartitions", "pbar", "overline_mex", "op_class_counts",
    "op21", "mbar", "nbar", "mk_stat",
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


# sha256 of stdout per invocation; any change to a verdict, a mismatch, a
# record field, a count or the formatting shows up here, and the bijection
# traces list every source object, so they pin the enumeration order too
GOLDEN_SHA256 = {
    ("list",):
        "22a2a0eaf9ece94177db4de9c646a89bafdf739c980069856d4d1a8141c80dc1",
    ("list", "--format", "json"):
        "830ad347f064134ba4daafb1fbea3e49179b3771ea231692a06724aa6e2d2daa",
    ("verify", "--all", "--format", "json"):
        "9bd92fa77371b8315bc43b2dae74cd2430879f0f05d8ec03139746d162175583",
    ("verify", "--all", "--format", "csv"):
        "9e32c679cd94f8ce828d1be98366f9d98c46b1b4441bb7f8ddca5a671766f251",
    ("verify", "--id", "li-truncation", "--k", "1..3", "--order", "40",
     "--format", "csv"):
        "364774cff8c50196ed5a29a7e657b24fee082e68ecd9a09ba468c05f414f1d5c",
    ("verify", "--id", "thm-2-4", "--m", "1..3", "--k", "3", "--n-max", "12",
     "--format", "csv"):
        "d436d7725fcd9949d3c8e0ec453b3080d15e9551e7d23b17f46ce67fba4cf257",
    ("verify", "--id", "ineq-m-k", "--m=-2..-1", "--k", "2", "--n-max", "20",
     "--format", "csv"):
        "88209535b5b901060873c2cd40b520db49c6329c17048df9897d6126f1cd6b28",
    ("table", "--stat", "pbar", "--n-max", "30", "--format", "json"):
        "1f9c76d750e3434bd66fd2311ffdd40c01298a4644a641337a7f2ec3c2704ea3",
    ("table", "--stat", "pbar", "--n-max", "30", "--format", "csv"):
        "b3d4be7a820ce10262fa206589a3fb6db74ba5c110accd3ecaef102813ed752d",
    ("table", "--stat", "op21", "--k", "0..3", "--n-max", "20", "--format",
     "json"):
        "6858d2cc2d81e01e59e2497aa066f22b837e494d9171b186194adc51e77e4636",
    ("table", "--stat", "op21", "--k", "0..3", "--n-max", "20", "--format",
     "csv"):
        "5b9b94d3e2308750c82324ad9f3aac63e639455f456c7f646fb6a91bfdb1fbe3",
    ("table", "--stat", "mbar", "--k", "0..3", "--n-max", "20", "--format",
     "json"):
        "a9418ae3250074dea5b083dc36dd65aa054f1fb5e7df23022b4e496506ef3ec8",
    ("table", "--stat", "mbar", "--k", "0..3", "--n-max", "20", "--format",
     "csv"):
        "3ca683b8ff9a606d7e61b8061f76de4e971606b5bc2e2dd80ab65559a2ca756d",
    ("table", "--stat", "nbar", "--k", "1..3", "--n-max", "20", "--format",
     "json"):
        "9175ab49600e941a9e716494fe1b0ba4a7cbbb73b2362c94fe04ced6c050f0fb",
    ("table", "--stat", "nbar", "--k", "1..3", "--n-max", "20", "--format",
     "csv"):
        "4d97101e40df674e1e5d08bbc6f728cb39507a7061ad2236f1088c8590cf9c0b",
    ("table", "--stat", "mk", "--k", "1..3", "--n-max", "20", "--format",
     "json"):
        "23fc851108f69ed8b0efcb9375494eb8b04b8ff7a4eb06ed10acfe51870c139e",
    ("table", "--stat", "mk", "--k", "1..3", "--n-max", "20", "--format",
     "csv"):
        "af6d691b02bf00ca54af57dec78f1d4ba1f9a9d35cb81ed61aae4b5c66cfc7fc",
    ("bijection", "--which", "section3", "--n", "12"):
        "8c9039a92f4a2346ccb6b65a496909d3e735411854404bfe22957ce90459b4a2",
    ("bijection", "--which", "lemma41", "--n", "12", "--j", "2"):
        "dc7a3692ffefd3c64a99887f9313eed7278a520f20b96d437de833d396299a90",
    ("bijection", "--which", "section3", "--n", "12", "--trace"):
        "60863e23dc6e5345a1529d2defad6602e47ae7d92da97d4a3ad8524a9a83f205",
    ("bijection", "--which", "lemma41", "--n", "12", "--j", "2", "--trace"):
        "38d49b61ae55ac6a48a22f802b03b18ef547f8b493804b95811b244549c60dca",
    ("bijection", "--which", "section3", "--n", "9", "--trace"):
        "8ecdc79325a3d92537a1730d9dafbd1f3f2286fa440cf6abcc1d89a1081e1b3a",
    ("bijection", "--which", "lemma41", "--n", "9", "--j", "2", "--trace"):
        "333cb8aab55fc23e882ccc9a1814ab5a1b15b4729234fff44758f19c0e3f9ede",
}


@pytest.mark.parametrize("argv", list(GOLDEN_SHA256), ids=" ".join)
def test_output_is_golden(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHA256[argv]
