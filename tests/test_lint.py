"""Static checks on the package sources that need no linter beyond ``ast``."""

import ast
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
