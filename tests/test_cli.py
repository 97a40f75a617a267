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
from oplab import cli, identities
from oplab import overpartitions as op


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


def test_verify_mismatched_form_yields_empty_list(capsys):
    # thm-2-2 has no series form, so an --order-only run has nothing to do
    code, out, _ = run(capsys, "verify", "--id", "thm-2-2", "--order", "50")
    assert code == 0
    assert json.loads(out) == []


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
        oracle="none",
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
        oracle="none",
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


def test_table_usage_errors(capsys):
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


def test_table_respects_enumeration_cap(capsys, monkeypatch):
    monkeypatch.setenv(op.ENUMERATION_CAP_ENV, "5")
    code, _, err = run(capsys, "table", "--stat", "op21", "--k", "1",
                       "--n-max", "6", "--format", "csv")
    assert code == 2 and "cap" in err
    code, out, _ = run(capsys, "table", "--stat", "op21", "--k", "1",
                       "--n-max", "5", "--format", "csv")
    assert code == 0 and out.splitlines()[-1] == f"5,1,{op.op21(5, 1)}"


@pytest.mark.parametrize("cap", ["abc", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--id", "thm-2-2", "--n-max", "5"],
        ["table", "--stat", "mbar", "--k", "1", "--n-max", "5"],
        ["bijection", "--which", "section3", "--n", "4"],
    ],
    ids=["verify", "table", "bijection"],
)
def test_malformed_enumeration_cap_is_a_usage_error(argv, cap):
    # run as a real process so an escaping exception would show its traceback
    env = dict(os.environ, **{op.ENUMERATION_CAP_ENV: cap})
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(oplab.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "oplab.cli", *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1 and op.ENUMERATION_CAP_ENV in proc.stderr


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
    assert f"{flag} must be within" in proc.stderr


def test_bijection_section3_check(capsys):
    code, out, _ = run(capsys, "bijection", "--which", "section3", "--n", "4",
                       "--check")
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


def test_bijection_lemma41(capsys):
    code, out, _ = run(capsys, "bijection", "--which", "lemma41", "--n", "10",
                       "--j", "2", "--check", "--trace")
    assert code == 0
    payload = json.loads(out)
    assert payload["sourceCount"] == op.pbar(6)
    assert payload["matched"] is True and payload["ok"] is True
    assert len(payload["traces"]) == op.pbar(6)
    assert all(t["case"] == "insert" for t in payload["traces"])
    # j defaults to 1
    code, out, _ = run(capsys, "bijection", "--which", "lemma41", "--n", "5")
    assert code == 0 and json.loads(out)["j"] == 1


def test_bijection_usage_errors(capsys):
    code, _, err = run(capsys, "bijection", "--which", "section3", "--n", "4",
                       "--j", "1")
    assert code == 2 and "lemma41" in err
    code, _, err = run(capsys, "bijection", "--which", "lemma41", "--n", "3",
                       "--j", "2")
    assert code == 2  # j^2 > n
    code, _, _ = run(capsys, "bijection", "--which", "lemma41", "--n", "0")
    assert code == 2
    code, _, err = run(capsys, "bijection", "--which", "section3", "--n", "40")
    assert code == 2 and "cap" in err


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


def test_package_exports_are_the_modules_exports():
    from oplab import bijections, overpartitions, series
    modules = (series, overpartitions, bijections, identities)
    union = set().union(*(m.__all__ for m in modules))
    assert set(oplab.__all__) - {"__version__"} == union
    assert all(hasattr(oplab, name) for name in oplab.__all__)


# sha256 of `oplab verify --all` stdout; any change to a verdict, a
# mismatch, a record field or the formatting shows up here
GOLDEN_SHA256 = {
    "json": "9bd92fa77371b8315bc43b2dae74cd2430879f0f05d8ec03139746d162175583",
    "csv": "9e32c679cd94f8ce828d1be98366f9d98c46b1b4441bb7f8ddca5a671766f251",
}


@pytest.mark.parametrize("fmt", sorted(GOLDEN_SHA256))
def test_verify_all_output_is_golden(capsys, fmt):
    code, out, err = run(capsys, "verify", "--all", "--format", fmt)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHA256[fmt]


# sha256 of `oplab bijection ... --trace` stdout; the traces list every
# source object, so this pins the enumeration order as well
GOLDEN_TRACE_SHA256 = {
    ("--which", "section3", "--n", "12"):
        "60863e23dc6e5345a1529d2defad6602e47ae7d92da97d4a3ad8524a9a83f205",
    ("--which", "lemma41", "--n", "12", "--j", "2"):
        "38d49b61ae55ac6a48a22f802b03b18ef547f8b493804b95811b244549c60dca",
}


@pytest.mark.parametrize("args", sorted(GOLDEN_TRACE_SHA256), ids=" ".join)
def test_bijection_trace_output_is_golden(capsys, args):
    code, out, err = run(capsys, "bijection", *args, "--trace")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_TRACE_SHA256[args]
