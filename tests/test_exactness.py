"""Exactness guard: the package computes with ints only.

Every coefficient, count and comparison in oplab is an exact integer, so
the source has no true division, no float() call and no float literal,
apart from the allow-listed timing below. math.inf, the open bound of
series._checked_int, is a name, not a literal, and is allowed.
"""

import ast
import pathlib

import oplab

SRC = pathlib.Path(oplab.__file__).parent

# (file, enclosing function, literal) -> why the float is there. The other
# timing-only float, round() of elapsedMs in VerificationReport.to_jsonable,
# has no float literal of its own.
FLOAT_LITERALS = {
    ("identities.py", "_verify", 1000.0):
        "perf_counter seconds to the report's wall-clock milliseconds; "
        "no verdict reads it",
}


def _inexact_nodes(path):
    """(kind, function, detail) for each inexact construct in one module."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
            node.op, ast.Div
        ):
            found.append(("true division", func, node.lineno))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        ):
            found.append(("float() call", func, node.lineno))
        elif isinstance(node, ast.Constant) and isinstance(
            node.value, (float, complex)
        ):
            found.append(("float literal", func, node.value))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_source_has_no_inexact_arithmetic():
    found = [
        (path.name, func, detail, kind)
        for path in sorted(SRC.glob("*.py"))
        for kind, func, detail in _inexact_nodes(path)
    ]
    # the allow-list is exact too: an entry whose literal is gone fails
    allowed = [(*key, "float literal") for key in FLOAT_LITERALS]
    assert sorted(found, key=repr) == sorted(allowed, key=repr)


def test_guard_sees_each_construct(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def f(a, b):\n"
        "    a /= b\n"
        "    return a / b + float(b) + 0.5\n",
        encoding="utf-8",
    )
    kinds = sorted(kind for kind, _, _ in _inexact_nodes(probe))
    assert kinds == [
        "float literal", "float() call", "true division", "true division",
    ]
