"""CI's inline `python -c` steps (.github/workflows/tests.yml): each one
parses, and every name it imports, and every attribute it reads of a module
it imports, exists with src and tests on the path, so a rename breaks
Tier-1 and not only CI."""

import ast
import importlib
import os
import re
import types

import pytest

_WORKFLOW = os.path.join(os.path.dirname(__file__), os.pardir, ".github",
                         "workflows", "tests.yml")
# a double-quoted `python -c` argument, and the escapes bash undoes in it
_SNIPPET = re.compile(r'python3? -c "((?:[^"\\]|\\.)*)"')
_ESCAPE = re.compile(r'\\([$`"\\\n])')

with open(_WORKFLOW, encoding="utf-8") as _fh:
    _TEXT = _fh.read()
SNIPPETS = [_ESCAPE.sub(r"\1", m.group(1)) for m in _SNIPPET.finditer(_TEXT)]


def test_every_snippet_is_read():
    # a step written another way would otherwise go unchecked
    assert len(SNIPPETS) == len(re.findall(r"python3? -c ", _TEXT)) > 0


@pytest.mark.parametrize("snippet", SNIPPETS,
                         ids=[f"snippet-{i}" for i in range(len(SNIPPETS))])
def test_every_name_a_snippet_imports_exists(snippet):
    tree = ast.parse(snippet)
    modules = {}  # the name a module is bound to in the snippet
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                module = importlib.import_module(alias.name)
                modules[alias.asname or alias.name] = module
        elif isinstance(node, ast.ImportFrom):
            source = importlib.import_module(node.module)
            for alias in node.names:
                if not hasattr(source, alias.name):
                    missing.append(f"{node.module}.{alias.name}")
                elif isinstance(getattr(source, alias.name), types.ModuleType):
                    modules[alias.asname or alias.name] = getattr(source, alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules
                and not hasattr(modules[node.value.id], node.attr)):
            missing.append(f"{node.value.id}.{node.attr}")
    assert missing == []
