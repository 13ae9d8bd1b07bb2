"""Static checks on the package sources that need no linter beyond ``ast``."""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "gaugemech"
BENCH = SRC.parents[1] / "perfbench"
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
    """Loops (``for`` statements and comprehensions) in a ``*_suite`` or ``*_check`` function whose iterable reads ``samples`` or ``trials``.

    A suite draws each variable once as a block (``BundleSpec.random_points``)
    and evaluates each check once over the stacked samples: no loop over the
    samples (``range(samples)``), nor over slices of them (``range(0, samples, k)``).
    """
    found = []
    for fn in ast.walk(ast.parse(source, filename)):
        if not (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and fn.name.endswith(("_suite", "_check"))):
            continue
        for node in _own_nodes(fn):
            it = getattr(node, "iter", None) if isinstance(node, (ast.For, ast.comprehension)) else None
            if it is not None and any(isinstance(x, ast.Name) and x.id in ("samples", "trials") for x in ast.walk(it)):
                found.append((it.lineno, fn.name))
    return [f"{filename}:{line} {name}" for line, name in sorted(found)]


LOOPS = (ast.For, ast.AsyncFor, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def central_in_loops(source: str, filename: str = "<src>") -> list[str]:
    """Calls of ``fd.central`` (or of a bare ``central``) inside a ``for`` loop or a comprehension, lambdas in it included.

    ``fd.central`` evaluates its function once on the stack of every
    displaced point; a loop of calls would bring back one evaluation per
    direction or per sample.
    """
    found = set()
    for loop in ast.walk(ast.parse(source, filename)):
        if isinstance(loop, LOOPS):
            for node in ast.walk(loop):
                if isinstance(node, ast.Call) and ast.unparse(node.func) in ("fd.central", "central"):
                    found.add(node.lineno)
    return [f"{filename}:{line}" for line in sorted(found)]


def _callee(call: ast.Call) -> str | None:
    """The called name: ``f`` of ``f(...)`` and of ``x.f(...)``."""
    return call.func.id if isinstance(call.func, ast.Name) else getattr(call.func, "attr", None)


def per_sample_draws(source: str, filename: str = "<src>") -> list[str]:
    """Random draws inside a loop, a comprehension or a lambda.

    A random draw is a method call on ``rng`` (``rng.standard_normal(...)``)
    or a call of a ``random_*`` function or method.  A suite that draws each
    variable once as a block, with one leading axis per sample, makes as
    many random calls at any sample count; a draw in a loop, or in a lambda
    that a loop calls, makes one per sample.
    """
    tree = ast.parse(source, filename)
    found = set()
    for scope in ast.walk(tree):
        if isinstance(scope, LOOPS + (ast.While, ast.Lambda)):
            found |= {node.lineno for node in ast.walk(scope) if isinstance(node, ast.Call)
                      and (ast.unparse(node.func).startswith("rng.") or (_callee(node) or "").startswith("random_"))}
    return [f"{filename}:{line}" for line in sorted(found)]


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


def not_implemented_sites(source: str, filename: str = "<src>") -> list[str]:
    """``raise NotImplementedError`` (the class or a call of it) and ``except`` clauses that catch it, alone or in a tuple.

    A suite that catches a missing rule turns its check into a silent skip;
    every check runs for every group, or the suite fails loudly.
    """
    def names(node: ast.AST | None) -> list[ast.AST]:
        node = node.func if isinstance(node, ast.Call) else node
        return node.elts if isinstance(node, ast.Tuple) else [node]

    found = []
    for node in ast.walk(ast.parse(source, filename)):
        named = names(node.exc) if isinstance(node, ast.Raise) else names(node.type) if isinstance(node, ast.ExceptHandler) else []
        if any(isinstance(n, ast.Name) and n.id == "NotImplementedError" for n in named):
            found.append(node.lineno)
    return [f"{filename}:{line}" for line in sorted(found)]


def references(source: str, filename: str = "<src>") -> tuple[set[str], set[str]]:
    """The names a source reads and the attribute names it takes (``f`` and ``x.f``)."""
    tree = ast.parse(source, filename)
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    return names, {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}


def unreferenced_definitions(source: str, names: set[str], attrs: set[str], filename: str = "<src>") -> list[str]:
    """Top-level functions and UPPER_CASE constants that no read name or attribute names, and public methods of top-level classes that no attribute names.

    A method counts only through an attribute (``obj.m``, ``Cls.m``), so a
    local variable that happens to share its name does not keep it.
    """
    found = []
    for node in ast.parse(source, filename).body:
        if isinstance(node, ast.FunctionDef) and node.name not in names and node.name not in attrs:
            found.append(f"{filename}:{node.lineno} {node.name}")
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            found += [f"{filename}:{node.lineno} {t.id}" for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
                      if isinstance(t, ast.Name) and re.fullmatch(r"[A-Z][A-Z0-9_]*", t.id) and t.id not in names and t.id not in attrs]
        elif isinstance(node, ast.ClassDef):
            found += [f"{filename}:{m.lineno} {node.name}.{m.name}" for m in node.body
                      if isinstance(m, ast.FunctionDef) and not m.name.startswith("_") and m.name not in attrs]
    return found


def test_unreferenced_definition_detector():
    src = (
        "def used(): pass\n"
        "def _private_used(): pass\n"
        "def dead(): pass\n"
        "class K:\n"
        "    def called(self): pass\n"
        "    def shadowed(self): pass\n"
        "    def _hidden(self): pass\n"
        "    @staticmethod\n"
        "    def built(): pass\n"
        "READ_HERE = 1\n"
        "READ_ELSEWHERE: float = 2.0\n"
        "DEAD_TOL = 1e-6\n"
        "Alias = int\n"
        "def caller(k):\n"
        "    shadowed = 1\n"
        "    return used() + _private_used() + k.called() + K.built() + shadowed + READ_HERE + mod.READ_ELSEWHERE\n"
        "HANDLERS = [caller]\n"
    )
    assert unreferenced_definitions(src, *references(src)) == ["<src>:3 dead", "<src>:6 K.shadowed", "<src>:12 DEAD_TOL", "<src>:17 HANDLERS"]


def test_every_definition_is_referenced():
    # a function only tests call belongs in the tests; perfbench counts, since it times
    # dynamics.ham_vector_field, which no module of the package calls
    names, attrs = set(), set()
    for path in sorted(SRC.glob("*.py")) + sorted(BENCH.glob("*.py")):
        n, a = references(path.read_text(encoding="utf-8"), path.name)
        names |= n
        attrs |= a
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in unreferenced_definitions(path.read_text(encoding="utf-8"), names, attrs, path.name)]
    assert found == []


def passed_arguments(source: str, filename: str = "<src>") -> set[tuple[str, str | int]]:
    """What each call in a source passes, by callee name (``f(...)`` and ``x.f(...)``).

    ``(name, keyword)`` for a keyword argument, ``(name, i)`` for the i-th
    positional one, and ``(name, "*")`` for a ``*`` or ``**`` splat, which may
    pass anything.
    """
    passed = set()
    for node in ast.walk(ast.parse(source, filename)):
        if not isinstance(node, ast.Call):
            continue
        name = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
        passed |= {(name, i) for i in range(len(node.args))} | {(name, k.arg or "*") for k in node.keywords}
        if any(isinstance(a, ast.Starred) for a in node.args):
            passed.add((name, "*"))
    return passed


def single_valued_parameters(source: str, passed: set[tuple[str, str | int]], filename: str = "<src>") -> list[str]:
    """Parameters with a default that no call in ``passed`` sets, by keyword or by position.

    Such a parameter has one value in use, its default, and belongs in the
    code as a constant.  A call matches a function on its name (a class name
    for ``__init__``); a method's positions start after ``self`` or ``cls``.
    """
    tree = ast.parse(source, filename)
    classes = {id(m): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for m in c.body}
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        cls = classes.get(id(fn))
        name = cls if fn.name == "__init__" else fn.name
        if (name, "*") in passed:
            continue
        shift = cls is not None and not any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
        positional = fn.args.posonlyargs + fn.args.args
        first = len(positional) - len(fn.args.defaults)
        defaulted = [(arg, i - shift) for i, arg in enumerate(positional) if i >= first]
        defaulted += [(arg, None) for arg, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
        qual = f"{cls}.{fn.name}" if cls else fn.name
        found += [f"{filename}:{fn.lineno} {qual}: {arg.arg}" for arg, i in defaulted if (name, arg.arg) not in passed and (name, i) not in passed]
    return found


def test_single_valued_parameter_detector():
    src = (
        "def f(a, b=1, c=2, *, d=3, e=4):\n"
        "    pass\n"
        "def g(x=0, y=0):\n"
        "    pass\n"
        "def h(z=0):\n"
        "    pass\n"
        "class K:\n"
        "    def __init__(self, size=1):\n"
        "        pass\n"
        "    def m(self, u=1, v=2):\n"
        "        pass\n"
        "    @staticmethod\n"
        "    def s(w=1):\n"
        "        pass\n"
        "f(0, 5, d=6)\n"
        "obj.g(*rest)\n"
        "K(2).m(3)\n"
        "K.s(4)\n"
    )
    assert single_valued_parameters(src, passed_arguments(src)) == ["<src>:1 f: c", "<src>:1 f: e", "<src>:5 h: z", "<src>:10 K.m: v"]


def test_no_single_valued_parameters_in_package():
    # a default that no call in the package or perfbench overrides is a constant; tests do not count as callers.
    # jacobi_check's degree stays: test_poisson sets degree=1 to show the FD chain is exact on linear functions
    passed = set().union(*(passed_arguments(path.read_text(encoding="utf-8"), path.name) for path in sorted(SRC.glob("*.py")) + sorted(BENCH.glob("*.py"))))
    found = [re.sub(r":\d+ ", " ", hit) for path in sorted(SRC.glob("*.py")) for hit in single_valued_parameters(path.read_text(encoding="utf-8"), passed, path.name)]
    assert [hit for hit in found if hit != "poisson.py jacobi_check: degree"] == []


def attribute_reads(source: str, filename: str = "<src>") -> set[str]:
    """Attribute names a source reads (``x.f`` in a load, not ``x.f = ...``)."""
    return {n.attr for n in ast.walk(ast.parse(source, filename)) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def unread_dataclass_fields(source: str, reads: set[str], filename: str = "<src>") -> list[str]:
    """Fields of ``@dataclass`` classes that no attribute read in ``reads`` names.

    A field set only by a constructor keyword or an assignment is never read.
    """
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if not any((isinstance(d, ast.Name) and d.id == "dataclass") or (isinstance(d, ast.Attribute) and d.attr == "dataclass") for d in decorators):
            continue
        found += [f"{filename}:{f.lineno} {node.name}.{f.target.id}" for f in node.body
                  if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name) and f.target.id not in reads]
    return found


def test_unread_dataclass_field_detector():
    src = (
        "import dataclasses\n"
        "from dataclasses import dataclass, field\n"
        "@dataclass\n"
        "class A:\n"
        "    read: int\n"
        "    keyword_only: int = 0\n"
        "    _stored: int = field(init=False)\n"
        "    def __post_init__(self):\n"
        "        self._stored = self.read\n"
        "@dataclasses.dataclass(frozen=True)\n"
        "class B:\n"
        "    used: int\n"
        "    unused: int\n"
        "class Plain:\n"
        "    ignored: int\n"
        "a = A(read=1, keyword_only=2)\n"
        "b = B(used=1, unused=2).used\n"
    )
    assert unread_dataclass_fields(src, attribute_reads(src)) == ["<src>:6 A.keyword_only", "<src>:7 A._stored", "<src>:13 B.unused"]


def test_every_dataclass_field_is_read():
    # perfbench counts: its tracer reads PoissonSpace.kind
    reads = set().union(*(attribute_reads(path.read_text(encoding="utf-8"), path.name) for path in sorted(SRC.glob("*.py")) + sorted(BENCH.glob("*.py"))))
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in unread_dataclass_fields(path.read_text(encoding="utf-8"), reads, path.name)]
    assert found == []


def package_names(source: str, filename: str = "<src>") -> list[tuple[str, str, str]]:
    """``(place, module, name)`` for each ``<module>.<name>`` that a source reads off a gaugemech module.

    The modules are the names bound, at any level, by ``import gaugemech``,
    ``import gaugemech.x as y`` and ``from gaugemech import x``; ``module`` is
    the dotted path and ``place`` is ``filename:line``.
    """
    tree = ast.parse(source, filename)
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "gaugemech":
                    modules[alias.asname or "gaugemech"] = alias.name if alias.asname else "gaugemech"
        elif isinstance(node, ast.ImportFrom) and node.module == "gaugemech" and not node.level:
            for alias in node.names:
                modules[alias.asname or alias.name] = f"gaugemech.{alias.name}"
    return [(f"{filename}:{n.lineno}", modules[n.value.id], n.attr) for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id in modules]


def resolves(module: str, name: str) -> bool:
    import importlib

    try:
        return hasattr(importlib.import_module(module), name)
    except ImportError:  # ``from gaugemech import f`` of something that is not a module
        return False


def test_package_name_detector():
    src = (
        "import gaugemech\n"
        "import numpy as np\n"
        "def f():\n"
        "    from gaugemech import cli, poisson as p\n"
        "    import gaugemech.liealg as la\n"
        "    return cli.main, p.gone, la.expm, gaugemech.__version__, np.zeros, cli.main.__name__\n"
    )
    found = package_names(src)
    assert sorted(found) == [("<src>:6", "gaugemech", "__version__"), ("<src>:6", "gaugemech.cli", "main"), ("<src>:6", "gaugemech.cli", "main"),
                             ("<src>:6", "gaugemech.liealg", "expm"), ("<src>:6", "gaugemech.poisson", "gone")]
    assert [name for _, module, name in found if not resolves(module, name)] == ["gone"]


def test_perfbench_names_resolve():
    # perfbench/test_smoke.py is outside tier-1's testpaths, so a package name that perfbench reads
    # (dynamics.ham_vector_field, liealg.logm, cli.BUILTIN_SCENARIOS, ...) must not vanish unseen
    named = [hit for path in sorted(BENCH.glob("*.py")) for hit in package_names(path.read_text(encoding="utf-8"), path.name)]
    assert named
    assert [f"{place} {module}.{name}" for place, module, name in named if not resolves(module, name)] == []


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


def test_not_implemented_detector():
    src = (
        "raise NotImplementedError('no rule')\n"
        "raise NotImplementedError\n"
        "try:\n"
        "    w = transport(g)\n"
        "except NotImplementedError:\n"
        "    w = None\n"
        "except (ValueError, NotImplementedError) as e:\n"
        "    pass\n"
        "except ValueError:\n"
        "    raise\n"
        "raise ValueError('bad input')\n"
        "x = NotImplemented\n"
    )
    assert not_implemented_sites(src) == ["<src>:1", "<src>:2", "<src>:5", "<src>:7"]


def test_no_not_implemented_in_package():
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in not_implemented_sites(path.read_text(encoding="utf-8"), path.name)]
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
        "def draw_rows(samples, draw):\n"
        "    for i in range(samples):\n"
        "        pass\n"
        "def c_suite(n, samples):\n"
        "    for _ in range(n):\n"
        "        pass\n"
        "    for rows in blocks(samples):\n"
        "        pass\n"
        "    ys = [g(x) for x in draws]\n"
    )
    assert per_sample_loops(src) == ["<src>:2 a_suite", "<src>:4 a_suite", "<src>:5 a_suite", "<src>:8 b_check", "<src>:15 c_suite"]


def test_no_per_sample_loops_in_suites():
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in per_sample_loops(path.read_text(encoding="utf-8"), path.name)]
    assert found == []


def test_central_in_loop_detector():
    src = (
        "for d in dirs:\n"
        "    rows.append(fd.central(f, x, [d], h))\n"
        "grads = [fd.central(lambda y: g(y, v), x, eye, h) for v in vs]\n"
        "total = sum(central(f, x, [e], h) for e in eye)\n"
        "for k in range(3):\n"
        "    for j in range(2):\n"
        "        out += fd.central(f, x, eye, h)\n"
        "ok = fd.central(f, x, np.stack([t1, t2]), h)\n"
        "ok2 = [fd.quotient(m, p, h) for m, p in pairs]\n"
        "def once(x):\n"
        "    return fd.central(f, x, eye, h)\n"
    )
    assert central_in_loops(src) == ["<src>:2", "<src>:3", "<src>:4", "<src>:7"]


def test_no_central_in_loops_in_package():
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in central_in_loops(path.read_text(encoding="utf-8"), path.name)]
    assert found == []


def test_per_sample_draw_detector():
    src = (
        "P, Q = draw_rows(n, lambda: (b.random_point(rng), b.random_point(rng)))\n"
        "xs = draw_rows(n, draw)\n"
        "for _ in range(n):\n"
        "    v = rng.standard_normal(3)\n"
        "ys = [random_polynomial(rng, 3) for _ in range(n)]\n"
        "g = G.exp(np.array([G.random_algebra(rng) for _ in range(n)]))\n"
        "draw = lambda: (rng.uniform(0, 1, 2),)\n"
        "while k:\n"
        "    k = rng.integers(3)\n"
        "ok = b.random_points(rng, (3, n))\n"
        "ok2 = rng.standard_normal((2, n, 4))\n"
        "ok3 = [p for p in unstack(ok)]\n"
        "ok4 = [g.random for g in gens]\n"
    )
    assert per_sample_draws(src) == ["<src>:1", "<src>:4", "<src>:5", "<src>:6", "<src>:7", "<src>:9"]


@pytest.mark.parametrize("module", sorted(path.name for path in SRC.glob("*.py")))
def test_no_per_sample_draws(module):
    path = SRC / module
    assert per_sample_draws(path.read_text(encoding="utf-8"), path.name) == []


BUNDLE_KINDS = ("TrivialProduct", "SemidirectTotal")


def bundle_kind_strings(source: str, filename: str = "<src>") -> list[str]:
    """String constants naming a bundle kind outside the places that read or print one.

    Those places are the JSON reader ``bundle_from_json``, a class-level
    ``label = ...`` (a base chart's label, which names its bundles in
    reports) and the scenario documents ``BUILTIN_SCENARIOS``.  Anywhere
    else such a string is a branch on the base chart by name.
    """
    tree = ast.parse(source, filename)
    allowed: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "bundle_from_json":
            allowed |= {id(n) for n in ast.walk(node)}
        elif isinstance(node, ast.ClassDef):
            allowed |= {id(n) for stmt in node.body if isinstance(stmt, ast.Assign) and [ast.unparse(t) for t in stmt.targets] == ["label"]
                        for n in ast.walk(stmt)}
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
        if "BUILTIN_SCENARIOS" in [ast.unparse(t) for t in targets]:
            allowed |= {id(n) for n in ast.walk(node)}
    found = {node.lineno for node in ast.walk(tree) if isinstance(node, ast.Constant) and node.value in BUNDLE_KINDS and id(node) not in allowed}
    return [f"{filename}:{line}" for line in sorted(found)]


def test_bundle_kind_string_detector():
    src = (
        "BUILTIN_SCENARIOS: dict = {'a': {'kind': 'TrivialProduct'}}\n"
        "class BoxBase:\n"
        "    label = 'TrivialProduct'\n"
        "    other = 'SemidirectTotal'\n"
        "def bundle_from_json(doc):\n"
        "    return doc['kind'] == 'SemidirectTotal'\n"
        "def suite(b):\n"
        "    if b.kind == 'TrivialProduct':\n"
        "        return f'{b.kind}[x]' + 'TrivialProductish'\n"
        "OTHER = {'kind': 'SemidirectTotal'}\n"
    )
    assert bundle_kind_strings(src) == ["<src>:4", "<src>:8", "<src>:10"]


def test_bundle_kind_strings_only_in_reader_and_labels():
    # BundleSpec holds one base chart: no module branches on a kind string, and none of the old fields survive
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in bundle_kind_strings(path.read_text(encoding="utf-8"), path.name)]
    assert found == []
    import dataclasses

    from gaugemech import bundle, liealg, semidirect

    assert [f.name for f in dataclasses.fields(bundle.BundleSpec)] == ["group", "connection", "base", "name"]
    box = bundle.BundleSpec(liealg.so3(), bundle.ConnectionData.flat(2, 3), bundle.BoxBase([[-1.0, 1.0], [-1.0, 1.0]]))
    for b in (box, semidirect.total_bundle(semidirect.so3_r3())):
        assert [attr for attr in ("kind", "base_box", "base_group") if hasattr(b, attr)] == []


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


def generated_code_sites(source: str, filename: str = "<src>") -> list[str]:
    """Lines that call the builtin ``exec`` or ``compile``: code generated at run time, which belongs in ``codegen.py``.

    A method of that name, such as ``re.compile``, is not the builtin.
    """
    lines = {node.lineno for node in ast.walk(ast.parse(source, filename))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("exec", "compile")}
    return [f"{filename}:{line}" for line in sorted(lines)]


def test_generated_code_detector():
    src = (
        "exec(compile(source, name, 'exec'), scope)\n"
        "pattern = re.compile('x')\n"
        "code = compile(tree, '<ast>', 'eval')\n"
        "ok = executor.exec(job)\n"
    )
    assert generated_code_sites(src) == ["<src>:1", "<src>:3"]


def test_exec_and_compile_only_in_codegen():
    found = [hit for path in sorted(SRC.glob("*.py")) if path.name != "codegen.py"
             for hit in generated_code_sites(path.read_text(encoding="utf-8"), path.name)]
    assert found == []
    assert generated_code_sites((SRC / "codegen.py").read_text(encoding="utf-8"), "codegen.py")


RANK_FUNCTIONS = ("svd", "matrix_rank", "qr")


def rank_sites(source: str, filename: str = "<src>") -> list[str]:
    """References to ``svd``, ``matrix_rank`` and ``qr`` of a ``linalg`` module, and imports of them: the rank and exactness decisions that belong in ``linalg.py``."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Attribute) and node.attr in RANK_FUNCTIONS and ast.unparse(node.value).split(".")[-1] == "linalg":
            found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg") and any(a.name in RANK_FUNCTIONS for a in node.names):
            found.append(node.lineno)
    return [f"{filename}:{line}" for line in sorted(found)]


def test_rank_site_detector():
    src = (
        "s = np.linalg.svd(a, compute_uv=False)\n"
        "r = numpy.linalg.matrix_rank(a, tol=1e-10)\n"
        "from numpy.linalg import svd\n"
        "f = np.linalg.svd\n"
        "q, _ = np.linalg.qr(a)\n"
        "r = rank_gap(a, 1e-8).rank\n"
        "from .linalg import rank_gap\n"
        "u = obj.svd(a)\n"
    )
    assert rank_sites(src) == ["<src>:1", "<src>:2", "<src>:3", "<src>:4", "<src>:5"]


def test_rank_decided_only_in_linalg():
    found = {path.name: hits for path in sorted(SRC.glob("*.py")) if (hits := rank_sites(path.read_text(encoding="utf-8"), path.name))}
    assert list(found) == ["linalg.py"], found


GENERIC_GROUP_ROUTES = {"logm": {"LieGroupSpec.log"}, "expm": {"LieGroupSpec.exp", "SemidirectSpec.R"}}


def generic_group_routes(source: str, filename: str = "<src>") -> list[str]:
    """Calls of, or references to, ``logm`` and ``expm`` outside the functions that choose between a closed form and the generic route.

    Every other caller takes ``LieGroupSpec.log`` and ``LieGroupSpec.exp``, which pick the closed form
    the group's basis allows; ``SemidirectSpec.R`` exponentiates rho's generators when no closed form
    applies.  Imports and definitions are not references.
    """
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            name = child.id if isinstance(child, ast.Name) else child.attr if isinstance(child, ast.Attribute) else None
            if name in GENERIC_GROUP_ROUTES and isinstance(child.ctx, ast.Load) and scope not in GENERIC_GROUP_ROUTES[name]:
                found.append(f"{filename}:{child.lineno} {scope or '<module>'}: {name}")
            visit(child, scope)

    visit(ast.parse(source, filename), "")
    return sorted(found, key=lambda hit: int(hit.split(":")[1].split()[0]))


def test_generic_group_route_detector():
    src = (
        "from .liealg import expm, logm\n"
        "class LieGroupSpec:\n"
        "    def log(self, g):\n"
        "        return logm(g)\n"
        "    def exp(self, x):\n"
        "        return expm(self.from_coords(x))\n"
        "    def Ad(self, g):\n"
        "        return self.to_coords(logm(g))\n"
        "class SemidirectSpec:\n"
        "    def R(self, l):\n"
        "        return expm(self.K.log(l))\n"
        "    def rho(self, l, u):\n"
        "        return liealg.expm(l) @ u\n"
        "def logm(g):\n"
        "    return g\n"
        "def curve(H, x):\n"
        "    return np.stack(list(map(expm, x)))\n"
    )
    assert generic_group_routes(src) == ["<src>:8 LieGroupSpec.Ad: logm", "<src>:13 SemidirectSpec.rho: expm", "<src>:17 curve: expm"]


def test_logm_and_expm_only_behind_the_closed_forms():
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in generic_group_routes(path.read_text(encoding="utf-8"), path.name)]
    assert found == []


def foreign_private_attributes(source: str, filename: str = "<src>") -> list[str]:
    """Reads and assignments of an attribute named ``_x`` on anything but ``self`` or ``cls``; dunders such as ``__name__`` are not private.

    A private attribute belongs to its own class: another object or module asks through a public name,
    so a decision such as which closed form a group takes has one owner.
    """
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_") and not (node.attr.startswith("__") and node.attr.endswith("__")):
            if not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")):
                found.append((node.lineno, f"{filename}:{node.lineno} {ast.unparse(node)}"))
    return [hit for _, hit in sorted(found)]


def test_foreign_private_attribute_detector():
    src = (
        "class A:\n"
        "    def __init__(self, other):\n"
        "        self._own = other._theirs\n"
        "        self._h = make()\n"
        "        self._h._hook = 1\n"
        "    @classmethod\n"
        "    def build(cls):\n"
        "        return cls._cache, type(cls).__name__, super().__init__\n"
        "x = np._core\n"
    )
    assert foreign_private_attributes(src) == ["<src>:3 other._theirs", "<src>:5 self._h._hook", "<src>:9 np._core"]


def test_no_foreign_private_attributes_in_package():
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in foreign_private_attributes(path.read_text(encoding="utf-8"), path.name)]
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


def unfolded_arithmetic(source: str, filename: str = "<src>") -> list[str]:
    """Spots where generated float code does an exact operation the long way.

    ``a + -b`` is ``a - b``, a factor ``*1.0`` is the other factor, and an
    integer literal (``2*k``) is converted to a float on every use: each is
    one extra operation in the compiled field and RK4 step, with the same bits.
    """
    found = [f"{filename}:{i} ' + -'" for i, line in enumerate(source.splitlines(), start=1) if " + -" in line]
    for node in ast.walk(ast.parse(source, filename)):
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                and any(isinstance(c, ast.Constant) and type(c.value) is float and c.value == 1.0 for c in (node.left, node.right))):
            found.append(f"{filename}:{node.lineno} '*1.0'")
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            found.append(f"{filename}:{node.lineno} integer {node.value}")
    return sorted(found)


def test_unfolded_arithmetic_detector():
    src = (
        "def step(x, h, count):\n"
        "    y = x + -h*x\n"
        "    z = x - h*x + 1.0*y\n"
        "    return x + h*(y + 2*z) + z*1.0 + z*1.05 + -1.0\n"
    )
    assert unfolded_arithmetic(src) == ["<src>:2 ' + -'", "<src>:3 '*1.0'", "<src>:4 ' + -'", "<src>:4 '*1.0'", "<src>:4 integer 2"]


def test_generated_field_and_step_are_folded(monkeypatch):
    # the RK4 step, which holds the field's rows, of every Hamiltonian the package builds: both built-in
    # heavy tops, a top off the symmetry axis, and an so(3) kinetic energy without a gradient (one grad
    # call per stage)
    import numpy as np

    from gaugemech import codegen, liealg, poisson, semidirect
    from gaugemech.cli import BUILTIN_SCENARIOS

    compile_, sources = codegen._compile, {}

    def recording(name, lines, namespace, params):
        sources[f"{len(sources)}:{name}"] = f"def {name}({params}):\n" + "".join(f"    {line}\n" for line in lines)
        return compile_(name, lines, namespace, params)

    monkeypatch.setattr(codegen, "_compile", recording)
    cases = [(cfg["inertia"], cfg["mgl"], cfg["axis"]) for cfg in (BUILTIN_SCENARIOS[n]["simulate"] for n in ("heavy-top-lagrange", "heavy-top-free"))]
    models = [semidirect.heavy_top_model(*case) for case in cases + [([1.0, 2.0, 3.0], 0.7, [0.3, -0.2, 0.9])]]
    pairs = [(m.space, m.hamiltonian) for m in models]
    pairs.append((poisson.lie_poisson(liealg.so3()), poisson.ScalarField(lambda x: 0.5 * np.vecdot(x, x / np.array([1.0, 2.0, 3.0])))))
    for space, hamiltonian in pairs:
        codegen.compile_step(space, hamiltonian)
    assert sum(name.endswith(":step") for name in sources) == len(pairs)
    assert [hit for name, src in sources.items() for hit in unfolded_arithmetic(src, name)] == []
