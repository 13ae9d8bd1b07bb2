"""Check/report containers shared by all verification suites, and the CSV body format of the run outputs."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np


def csv_lines(rows: np.ndarray, newline: str) -> str:
    """The rows of a 2-d float array as CSV lines, each value as %.17g, formatted by one % over a row format."""
    row_fmt = ",".join(["%.17g"] * rows.shape[1]) + newline
    return (row_fmt * rows.shape[0]) % tuple(rows.ravel().tolist())


def worst(*resid: float | np.ndarray) -> float:
    """The largest of the residuals (scalars or arrays), 0.0 for none; NaN if any is NaN.

    The running maximum of every suite: ``max(w, nan)`` is ``w``, so Python's
    ``max`` would drop a NaN residual and its check would pass.
    """
    out = 0.0
    for r in resid:
        r = float(np.max(r, initial=0.0)) if isinstance(r, np.ndarray) else float(r)
        if r != r:
            return r
        if r > out:
            out = r
    return out


@dataclass
class Check:
    """A single named residual compared against a tolerance.

    A flag (``SuiteReport.flag``) is a yes/no outcome held as residual 0 or 1
    against tolerance 0.5; unlike a residual's, its tolerance is never scaled.
    """

    name: str
    residual: float
    tol: float
    info: dict[str, Any] = field(default_factory=dict)
    flag: bool = False

    @property
    def passed(self) -> bool:
        return math.isfinite(self.residual) and self.residual <= self.tol

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {
            "name": self.name,
            "residual": _fmt(self.residual),
            "tol": _fmt(self.tol),
            "pass": self.passed,
        }
        if self.info:
            d["info"] = _fmt(self.info)
        return d


@dataclass
class SuiteReport:
    """Aggregate of checks produced by one verification suite."""

    name: str
    checks: list[Check] = field(default_factory=list)
    extras: dict[str, Any] = field(default_factory=dict)

    def add(self, name: str, residual: float, tol: float, **info: Any) -> Check:
        c = Check(name, float(residual), float(tol), dict(info))
        self.checks.append(c)
        return c

    def flag(self, name: str, ok: bool, **info: Any) -> Check:
        """A yes/no check: residual 0.0 when ``ok``, 1.0 otherwise, against 0.5."""
        c = self.add(name, 0.0 if ok else 1.0, 0.5, **info)
        c.flag = True
        return c

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_residual(self) -> float:
        return max((c.residual for c in self.checks), default=0.0)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "suite": self.name,
            "pass": self.passed,
            "max_residual": _fmt(self.max_residual),
            "checks": [c.to_dict() for c in sorted(self.checks, key=lambda c: c.name)],
        }
        for k in sorted(self.extras):
            out[k] = _fmt(self.extras[k])
        return out


def _fmt(value: Any) -> Any:
    """Plain JSON values: NaN and infinities as the strings "nan", "inf" and "-inf", numpy scalars and arrays as
    Python ones; a finite float keeps its value, which ``json`` writes as its shortest round-trip ``repr``."""
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return float(value)  # np.float64 is a float too
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _fmt(v) for k, v in value.items()}
    if isinstance(value, np.floating):
        return _fmt(float(value))
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.ndarray):
        return _fmt(value.tolist())
    return value


def dump_json(obj: Any, path: str | None = None) -> str:
    """Serialize a report dict deterministically: sorted keys, shortest round-trip floats, one compact line.

    Compact separators and no indent keep CPython on its C encoder (``python -m json.tool`` reads the file indented).
    """
    text = json.dumps(_fmt(obj), separators=(",", ":"), sort_keys=True, allow_nan=False)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return text
