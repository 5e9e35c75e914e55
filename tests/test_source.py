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


def einsum_calls(source: str) -> list:
    """Lines of source that read an attribute named einsum or import that name."""
    return sorted(n.lineno for n in ast.walk(ast.parse(source))
                  if (isinstance(n, ast.Attribute) and n.attr == "einsum")
                  or (isinstance(n, ast.ImportFrom) and any(a.name == "einsum" for a in n.names)))


def test_scan_flags_einsum():
    source = (
        "import numpy as np\n"
        "a = np.einsum('pi,pi->p', x, x)\n"
        "b = (x * x).sum(axis=1)\n"
        "f = np.einsum\n"
        "from numpy import einsum as e\n"
    )
    assert einsum_calls(source) == [2, 4, 5]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_einsum(path):
    # the summation order of einsum depends on the number of terms and on the memory
    # layout, while the statistics promise the same bits for any chunking or worker count
    assert einsum_calls(path.read_text(encoding="utf-8")) == []


PERFBENCH = SRC.parents[1] / "perfbench"
# public names that no CLI path or benchmark file reaches, each kept for the reason given
TEST_ONLY_KEPT = {
    "reverify_report": "the README documents it as the way to reproduce a run report from the report alone",
}


def _reads(node) -> set:
    """Names that code under node reads, as Name ids and Attribute attrs; docstrings are not read."""
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def unreached_public_defs(package: list, entries: list, roots=("main",)) -> list:
    """Top-level public def and class names of the package sources that no entry reaches.

    The roots are the given names, every name read by the package's top-level
    statements other than def and class (they run at import) and every name
    the entry sources read.  A reached def or class reaches every name its body
    reads, to a fixed point.  Names are matched without their module, so a
    name defined in two modules is reached when either one is.
    """
    bodies = {}
    todo = set(roots)
    for source in package:
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bodies.setdefault(node.name, []).append(node)
            else:
                todo |= _reads(node)
    for source in entries:
        todo |= _reads(ast.parse(source))
    reached = set()
    while todo:
        name = todo.pop()
        if name in bodies and name not in reached:
            reached.add(name)
            for node in bodies[name]:
                todo |= _reads(node)
    return sorted(n for n in bodies if not n.startswith("_") and n not in reached)


def test_scan_flags_unreached_defs():
    package = [
        '"""Docstrings do not reach: helper, orphan."""\n'
        "LIMIT = _cap()\n"
        "def _cap():\n    return 1\n"
        "def main():\n    return run(Config())\n"
        "def run(cfg):\n    return cfg.width\n"
        "class Config:\n    def width(self):\n        return helper()\n"
        "def helper():\n    return 2\n"
        "def orphan():\n    return 3\n"
        "def _private_orphan():\n    return helper()\n"
        "def bench_only():\n    return 4\n"
        "def cycle_a():\n    return cycle_b()\n"
        "def cycle_b():\n    return cycle_a()\n",
    ]
    entries = ["import pkg\npkg.bench_only()\n"]
    assert unreached_public_defs(package, entries) == ["cycle_a", "cycle_b", "orphan"]


def test_no_test_only_code():
    # the CLI (entry point sdstab.cli:main) and perfbench/ are the callers; tests are not
    package = [p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))]
    entries = [p.read_text(encoding="utf-8") for p in sorted(PERFBENCH.glob("*.py"))]
    assert unreached_public_defs(package, entries) == sorted(TEST_ONLY_KEPT)


def tracer_plan(source: str) -> list:
    """(module, attribute) of each row of the `plan` list in perfbench/tracer.py's install_sdstab.

    The plan's first element names a module through the function's own imports
    (`import sdstab.design as design`, `import scipy.optimize`).
    """
    install = next(n for n in ast.walk(ast.parse(source))
                   if isinstance(n, ast.FunctionDef) and n.name == "install_sdstab")
    modules = {alias.asname or alias.name: alias.name
               for node in ast.walk(install) if isinstance(node, ast.Import) for alias in node.names}
    plan = next(n.value for n in ast.walk(install) if isinstance(n, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "plan" for t in n.targets))
    return [(modules[ast.unparse(row.elts[0])], row.elts[1].value) for row in plan.elts]


def test_tracer_plan_resolves():
    # tracer.wrap calls getattr(owner, attr), so a name the plan lists and a module
    # lacks would crash every traced benchmark run
    import importlib

    plan = tracer_plan((PERFBENCH / "tracer.py").read_text(encoding="utf-8"))
    assert ("sdstab.design", "emulation_bound_two") in plan and ("scipy.optimize", "minimize") in plan
    missing = [(m, a) for m, a in plan if not hasattr(importlib.import_module(m), a)]
    assert missing == []


def philox_builders(source: str) -> list:
    """Name of the top-level function around each call of an attribute named Philox ('' at module level)."""
    out = []
    for node in ast.parse(source).body:
        name = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else ""
        out += [name for n in ast.walk(node) if isinstance(n, ast.Call)
                and isinstance(n.func, ast.Attribute) and n.func.attr == "Philox"]
    return out


BIT_UFUNCS = {"bitwise_and", "bitwise_or", "bitwise_xor", "left_shift", "right_shift", "invert"}


def word_arithmetic(source: str) -> list:
    """Lines of source that build a uint64 scalar, read a numpy bit ufunc, or shift or xor
    anything but two literals."""
    lines = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr == "uint64":
            lines.add(n.lineno)
        elif isinstance(n, ast.Attribute) and n.attr in BIT_UFUNCS:
            lines.add(n.lineno)
        elif isinstance(n, ast.AugAssign) and isinstance(n.op, (ast.LShift, ast.RShift, ast.BitXor)):
            lines.add(n.lineno)
        elif (isinstance(n, ast.BinOp) and isinstance(n.op, (ast.LShift, ast.RShift, ast.BitXor))
              and not (isinstance(n.left, ast.Constant) and isinstance(n.right, ast.Constant))):
            lines.add(n.lineno)
    return sorted(lines)


def test_scan_flags_philox_and_word_arithmetic():
    source = (
        "import numpy as np\n"
        "g = np.random.Philox(key=1)\n"
        "def stream(k):\n    return np.random.Generator(np.random.Philox(key=k))\n"
        "x = np.array([1], dtype=np.uint64) * np.uint64(3)\n"
        "y = np.right_shift(x, 2)\n"
        "x >>= 1\n"
        "z = 3 & 1 | 4\n"
        "w = 1 << 63\n"
        "v = w ^ z\n"
    )
    assert philox_builders(source) == ["", "stream"]
    assert word_arithmetic(source) == [5, 6, 7, 10]


def test_one_keyed_stream_helper():
    # numpy's Philox is built in one helper, which the schedule stream and the noise streams
    # share, and the simulator does no 64-bit word arithmetic of its own
    builders = {p.name: philox_builders(p.read_text(encoding="utf-8")) for p in MODULES}
    assert [(m, f) for m, names in builders.items() for f in names] == [("sim.py", "_stream")]
    tree = ast.parse((SRC / "sim.py").read_text(encoding="utf-8"))
    callers = {n.name for n in tree.body if isinstance(n, ast.FunctionDef) and "_stream" in _reads(n)}
    assert {"_grid_for", "_noise"} <= callers
    assert word_arithmetic((SRC / "sim.py").read_text(encoding="utf-8")) == []


LOOP_FIELDS = {"envelope", "A_bar"}


def loop_field_reads(source: str) -> list:
    """(top-level def or class name, line) of each read of an attribute named envelope or A_bar
    ('' at module level)."""
    out = []
    for node in ast.parse(source).body:
        name = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else ""
        out += [(name, n.lineno) for n in ast.walk(node) if isinstance(n, ast.Attribute)
                and n.attr in LOOP_FIELDS and isinstance(n.ctx, ast.Load)]
    return sorted(out)


def test_scan_flags_loop_field_reads():
    source = (
        "E = model.envelope\n"
        "def rate_loop(model, b):\n    return model.A_bar + b, [model.envelope]\n"
        "def other(model):\n    model.A_bar = 1\n    return model.A + getattr(model, 'A_bar')\n"
        "class Plant:\n    A_bar: int = 0\n    def shift(self):\n        return self.A_bar\n"
    )
    assert loop_field_reads(source) == [("", 1), ("Plant", 10), ("rate_loop", 3), ("rate_loop", 3)]


def test_one_plant_adapter():
    # the planar plant reaches the certificate blocks and the design searches only as the
    # shifted linear Ito loop that lmi.rate_loop and lmi.cross_loop build, and one verifier
    # checks every plant
    readers = {p.name: sorted({f for f, _ in loop_field_reads(p.read_text(encoding="utf-8"))})
               for p in MODULES if p.name != "models.py"}
    assert {m: f for m, f in readers.items() if f} == {"lmi.py": ["cross_loop", "rate_loop"]}
    tree = ast.parse((SRC / "lmi.py").read_text(encoding="utf-8"))
    verifiers = [n.name for n in tree.body if isinstance(n, ast.FunctionDef) and n.name.startswith("verify_")]
    assert verifiers == ["verify_certificate"]


def minimize_uses(source: str) -> list:
    """Lines of source that import scipy.optimize's minimize or read it as scipy.optimize.minimize."""
    return sorted(n.lineno for n in ast.walk(ast.parse(source))
                  if (isinstance(n, ast.ImportFrom) and (n.module or "").startswith("scipy.optimize")
                      and any(a.name == "minimize" for a in n.names))
                  or (isinstance(n, ast.Attribute) and n.attr == "minimize"
                      and ast.unparse(n.value).endswith("optimize")))


def test_scan_flags_scipy_minimize():
    source = (
        "import scipy.optimize\n"
        "from scipy.optimize import minimize\n"
        "from scipy.optimize import differential_evolution\n"
        "res = scipy.optimize.minimize(f, x0)\n"
        "from scipy.optimize._minimize import minimize as m\n"
        "x = design.minimize_gevp\n"
    )
    assert minimize_uses(source) == [2, 4, 5]


def test_no_scipy_minimize():
    # both Nelder-Mead searches run through design._nelder_mead, which scores each step's
    # probe points as one stack
    uses = {p.name: minimize_uses(p.read_text(encoding="utf-8")) for p in MODULES}
    assert {m: lines for m, lines in uses.items() if lines} == {}


def eigvalsh_readers(source: str) -> list:
    """Name of the top-level def around each read or import of a name eigvalsh ('' at module level)."""
    out = []
    for node in ast.parse(source).body:
        name = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else ""
        out += [name for n in ast.walk(node)
                if (isinstance(n, ast.Attribute) and n.attr == "eigvalsh")
                or (isinstance(n, ast.ImportFrom) and any(a.name == "eigvalsh" for a in n.names))]
    return out


def test_scan_flags_eigvalsh():
    source = (
        "import numpy as np\n"
        "from numpy.linalg import eigvalsh\n"
        "def f(m):\n    return np.linalg.eigvalsh(m)[-1]\n"
        "def g(m):\n    return np.linalg.eigh(m)\n"
    )
    assert eigvalsh_readers(source) == ["", "f"]


def test_one_symmetric_eigensolver_entry_point():
    # every symmetric eigenvalue goes through numerics.sym_eigvals, which is eigvalsh bit for bit
    readers = {p.name: eigvalsh_readers(p.read_text(encoding="utf-8")) for p in MODULES}
    assert {m: sorted(set(f)) for m, f in readers.items() if f} == {"numerics.py": ["sym_eigvals"]}
