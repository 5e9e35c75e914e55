"""Static checks on the package source, in place of a linter."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "sdstab"
# __init__.py imports names to re-export them, so it is not scanned
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by an import statement anywhere in source and never read there."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_flags_unused_and_keeps_used():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import Dict, Optional\n"
        "def f(x: Optional[int]) -> None:\n"
        "    from math import sqrt, tau\n"
        "    return np.sqrt(sqrt(x))\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "Dict"), (6, "tau")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def json_dumps_allowing_nan(source: str) -> list:
    """Lines of json.dump / json.dumps calls in source that do not pass allow_nan=False."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("dump", "dumps") and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "json"):
            strict = any(k.arg == "allow_nan" and isinstance(k.value, ast.Constant)
                         and k.value.value is False for k in node.keywords)
            if not strict:
                lines.append(node.lineno)
    return sorted(lines)


def test_scan_flags_json_that_may_hold_nan():
    source = (
        "import json\n"
        "json.dumps({}, indent=2)\n"
        "json.dump({}, fh, allow_nan=False)\n"
        "json.dumps({}, allow_nan=True)\n"
        "json.dumps({}, indent=2, allow_nan=False)\n"
        "text = json.dumps([1.0])\n"
    )
    assert json_dumps_allowing_nan(source) == [2, 4, 6]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_json_written_without_nan(path):
    # NaN and Infinity are not JSON: a report holding one is refused by strict parsers
    assert json_dumps_allowing_nan(path.read_text(encoding="utf-8")) == []
