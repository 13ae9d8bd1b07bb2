"""Static checks on the package sources that need no linter beyond ``ast``."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gaugemech"
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_nodes(fn: ast.AST):
    """Nodes of a function body, not descending into nested functions or classes."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def unused_locals(source: str, filename: str = "<src>") -> list[str]:
    """Plain ``name = ...`` assignments in a function whose name is never read there.

    Reads in nested functions count (closures); ``_``-prefixed, ``global`` and
    ``nonlocal`` names are skipped.
    """
    found = []
    for fn in ast.walk(ast.parse(source, filename)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        reads = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
        declared = {name for n in _own_nodes(fn) if isinstance(n, (ast.Global, ast.Nonlocal)) for name in n.names}
        for node in _own_nodes(fn):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                name = target.id if isinstance(target, ast.Name) else None
                if name and not name.startswith("_") and name not in declared and name not in reads:
                    found.append(f"{filename}:{node.lineno} {fn.name}: {name}")
    return found


def unused_imports(source: str, filename: str = "<src>") -> list[str]:
    """Names bound by an import statement (at any level) that the module never reads.

    A read anywhere in the module counts, as does a string in ``__all__``;
    ``__future__`` imports are skipped.  ``import a.b`` binds ``a``.
    """
    tree = ast.parse(source, filename)
    reads = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    exported = {
        c.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for c in ast.walk(node.value)
        if isinstance(c, ast.Constant) and isinstance(c.value, str)
    }
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in reads and name not in exported:
                found.append(f"{filename}:{node.lineno} {name}")
    return found


def unused_parameters(source: str, filename: str = "<src>") -> list[str]:
    """Parameters of a function that its body never reads.

    Reads in nested functions count (closures); ``self``, ``cls`` and
    ``_``-prefixed names are skipped.
    """
    found = []
    for fn in ast.walk(ast.parse(source, filename)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        reads = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
        args = fn.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs + [a for a in (args.vararg, args.kwarg) if a]:
            if arg.arg not in ("self", "cls") and not arg.arg.startswith("_") and arg.arg not in reads:
                found.append(f"{filename}:{fn.lineno} {fn.name}: {arg.arg}")
    return found


def central_difference_sites(source: str, filename: str = "<src>") -> list[str]:
    """Divisions by ``2 * <name>``: the hand-written central differences that belong in ``fd.py``."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)):
            continue
        den = node.right
        if (isinstance(den, ast.BinOp) and isinstance(den.op, ast.Mult) and isinstance(den.left, ast.Constant)
                and den.left.value == 2 and isinstance(den.right, ast.Name)):
            found.append(f"{filename}:{node.lineno}")
    return found


def per_sample_loops(source: str, filename: str = "<src>") -> list[str]:
    """Loops (``for`` statements and comprehensions) over ``range(samples)`` or ``range(trials)`` in a ``*_suite`` or ``*_check`` function.

    A suite draws its samples through ``bundle.draw_samples`` and evaluates
    each check once over the stacked samples.
    """
    found = []
    for fn in ast.walk(ast.parse(source, filename)):
        if not (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and fn.name.endswith(("_suite", "_check"))):
            continue
        for node in _own_nodes(fn):
            it = getattr(node, "iter", None) if isinstance(node, (ast.For, ast.comprehension)) else None
            if (isinstance(it, ast.Call) and isinstance(it.func, ast.Name) and it.func.id == "range" and len(it.args) == 1
                    and isinstance(it.args[0], ast.Name) and it.args[0].id in ("samples", "trials")):
                found.append((it.lineno, fn.name))
    return [f"{filename}:{line} {name}" for line, name in sorted(found)]


def bool_type_tests(source: str, filename: str = "<src>") -> list[str]:
    """``isinstance`` calls that test for ``bool``, alone or in a tuple of types.

    Telling a JSON boolean from a JSON number is the typing rule of
    ``schema.py``; every other module reads its fields through those readers.
    """
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance" and len(node.args) == 2:
            types = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            if any(isinstance(t, ast.Name) and t.id == "bool" for t in types):
                found.append(node.lineno)
    return [f"{filename}:{line}" for line in sorted(found)]


def test_bool_type_test_detector():
    src = (
        "ok = isinstance(x, bool)\n"
        "n = isinstance(x, (int, float)) and not isinstance(x, bool)\n"
        "f = isinstance(x, (bool, np.bool_))\n"
        "i = isinstance(x, int)\n"
        "m = np.ones(3, dtype=bool)\n"
        "t = type(x) is bool\n"
    )
    assert bool_type_tests(src) == ["<src>:1", "<src>:2", "<src>:3"]


def test_json_typing_only_in_schema():
    found = [hit for path in sorted(SRC.glob("*.py")) if path.name != "schema.py"
             for hit in bool_type_tests(path.read_text(encoding="utf-8"), path.name)]
    assert found == []


def test_per_sample_loop_detector():
    src = (
        "def a_suite(b, samples):\n"
        "    for _ in range(samples):\n"
        "        pass\n"
        "    xs = [draw() for _ in range(samples)]\n"
        "    for i in range(0, samples, 25):\n"
        "        pass\n"
        "def b_check(space, trials):\n"
        "    return sum(f(x) for _ in range(trials))\n"
        "def draw_samples(samples, draw):\n"
        "    for i in range(samples):\n"
        "        pass\n"
        "def c_suite(n):\n"
        "    for _ in range(n):\n"
        "        pass\n"
    )
    assert per_sample_loops(src) == ["<src>:2 a_suite", "<src>:4 a_suite", "<src>:8 b_check"]


def test_no_per_sample_loops_in_suites():
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in per_sample_loops(path.read_text(encoding="utf-8"), path.name)]
    assert found == []


def test_central_difference_detector():
    src = (
        "d = (f(x + h) - f(x - h)) / (2 * h)\n"
        "v = G.log(inv(a) @ b) / (2 * t)\n"
        "half = y / 2\n"
        "ok = y / (2 * 3.0)\n"
        "ok2 = y / (h * 2)\n"
    )
    assert central_difference_sites(src) == ["<src>:1", "<src>:2"]


def test_central_differences_only_in_fd():
    found = [hit for path in sorted(SRC.glob("*.py")) if path.name != "fd.py"
             for hit in central_difference_sites(path.read_text(encoding="utf-8"), path.name)]
    assert found == []


def test_unused_locals_detector():
    src = (
        "def f(a):\n"
        "    dead = a + 1\n"
        "    used = 2\n"
        "    _ignored = 3\n"
        "    x, y = a\n"
        "    def g():\n"
        "        return used\n"
        "    return g\n"
        "def h():\n"
        "    global G\n"
        "    G = 1\n"
    )
    assert unused_locals(src) == ["<src>:2 f: dead"]


def test_no_unused_locals_in_package():
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in unused_locals(path.read_text(encoding="utf-8"), path.name)]
    assert found == []


def test_unused_imports_detector():
    src = (
        "from __future__ import annotations\n"
        "import os\n"
        "import sys as system\n"
        "from a import b, c\n"
        "from . import d\n"
        "import e.f\n"
        "__all__ = ['c']\n"
        "def g() -> None:\n"
        "    from h import i\n"
        "    return os.sep + i\n"
    )
    assert unused_imports(src) == ["<src>:3 system", "<src>:4 b", "<src>:5 d", "<src>:6 e"]


def test_no_unused_imports_in_package():
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in unused_imports(path.read_text(encoding="utf-8"), path.name)]
    assert found == []


def test_unused_parameters_detector():
    src = (
        "def f(a, b, *rest, c=1, _d=2, **kw):\n"
        "    def g(e):\n"
        "        return b\n"
        "    return a + c + len(kw) + g(0)\n"
        "class K:\n"
        "    def m(self, x, y):\n"
        "        return lambda z: x\n"
    )
    assert unused_parameters(src) == ["<src>:1 f: rest", "<src>:2 g: e", "<src>:6 m: y"]


def test_no_unused_parameters_in_package():
    # every runner takes (scenario, basedir, seed, tol_scale, out_dir) from the table in cli.main
    found = [re.sub(r":\d+ ", " ", hit) for path in sorted(SRC.glob("*.py")) for hit in unused_parameters(path.read_text(encoding="utf-8"), path.name)]
    assert [hit for hit in found if hit != "cli.py run_simulate: basedir"] == []
