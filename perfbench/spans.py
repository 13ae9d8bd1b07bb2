"""In-memory spans around the public functions of each gaugemech module.

``Tracer.install`` replaces every public function and every public method of
the layer modules with a wrapper that records one span: name, start, end,
parent span and scenario id. Times are integer nanoseconds, so a span's self
time (its duration minus the durations of its direct children) is exact and
never negative. ``Tracer.uninstall`` puts the originals back.

Span names are ``<module>.<function>``; a method is named after its module,
not its class (``LieGroupSpec.Ad`` is ``liealg.Ad``). ``PoissonSpace.bracket``
and ``PoissonSpace.bivector`` are split by the space kind
(``poisson.bracket.quotient``, ``poisson.bivector.lie_poisson``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("liealg", "bundle", "groupoid", "poisson", "semidirect", "dynamics", "cli", "report")
SPLIT_BY_KIND = {("poisson", "PoissonSpace", "bracket"), ("poisson", "PoissonSpace", "bivector")}
POISSON_KINDS = ("canonical", "lie_poisson", "quotient", "product")


class Tracer:
    def __init__(self) -> None:
        self.labels: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.scenario = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.scenario_id = -1
        self.counters: dict[str, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    def label_id(self, label: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self.labels)
            self.labels.append(label)
        return self._ids[label]

    # -- recording -----------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.scenario.append(self.scenario_id)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self.stack.pop()

    def span(self, label: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span of its own (used for the root span)."""
        idx = self._open(self.label_id(label))
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def _wrap(self, fn, label: str, by_kind: bool = False):
        if by_kind:
            ids = {k: self.label_id(f"{label}.{k}") for k in POISSON_KINDS}

            def traced(space, *args, **kwargs):
                idx = self._open(ids[space.kind])
                try:
                    return fn(space, *args, **kwargs)
                finally:
                    self._close(idx)

        elif label == "dynamics.integrate":
            name_id = self.label_id(label)

            def traced(*args, **kwargs):
                idx = self._open(name_id)
                try:
                    traj = fn(*args, **kwargs)
                    self.counters["dynamics.rk4_steps"] += traj.times.size - 1
                    return traj
                finally:
                    self._close(idx)

        else:
            name_id = self.label_id(label)

            def traced(*args, **kwargs):
                idx = self._open(name_id)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(idx)

        return functools.wraps(fn)(traced)

    # -- patching --------------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap the public functions and methods of every layer module."""
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"gaugemech.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
                    self._patch(mod, attr, wrapped[id(obj)])
                elif inspect.isclass(obj):
                    for meth, raw in list(vars(obj).items()):
                        if meth.startswith("_"):
                            continue
                        by_kind = (layer, obj.__name__, meth) in SPLIT_BY_KIND
                        if inspect.isfunction(raw):
                            self._patch(obj, meth, self._wrap(raw, f"{layer}.{meth}", by_kind))
                        elif isinstance(raw, staticmethod):
                            self._patch(obj, meth, staticmethod(self._wrap(raw.__func__, f"{layer}.{meth}")))
        # names bound by ``from .x import f`` in other modules (e.g. dynamics.expm)
        for name, mod in list(sys.modules.items()):
            if not name.startswith("gaugemech."):
                continue
            for attr, obj in list(vars(mod).items()):
                new = wrapped.get(id(obj))
                if new is not None and getattr(mod, attr) is not new:
                    self._patch(mod, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    # -- analysis ----------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "scenario": np.frombuffer(self.scenario, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, labels=np.array(self.labels), **self.arrays())


def self_times_ns(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Per-span duration minus the summed durations of its direct children."""
    dur = end - start
    child = parent >= 0
    covered = np.zeros(dur.size, dtype=np.int64)
    np.add.at(covered, parent[child], dur[child])
    return dur - covered


def nesting_violations(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> int:
    """Number of spans that are not inside their parent span."""
    child = parent >= 0
    p = parent[child]
    bad = (start[child] < start[p]) | (end[child] > end[p]) | (end[child] < start[child])
    return int(np.count_nonzero(bad)) + int(np.count_nonzero(end[~child] < start[~child]))


def summarize(tracer: Tracer) -> tuple[dict[str, int], dict[str, float]]:
    """Calls and self seconds per span label."""
    a = tracer.arrays()
    self_ns = self_times_ns(a["parent"], a["start_ns"], a["end_ns"])
    n = len(tracer.labels)
    calls = np.bincount(a["name"], minlength=n)
    self_s = np.bincount(a["name"], weights=self_ns, minlength=n) / 1e9
    return (
        {lab: int(calls[i]) for i, lab in enumerate(tracer.labels)},
        {lab: float(self_s[i]) for i, lab in enumerate(tracer.labels)},
    )
