"""Check/report containers shared by all verification suites."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np


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
    """A single named residual compared against a tolerance."""

    name: str
    residual: float
    tol: float
    info: dict[str, Any] = field(default_factory=dict)

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
    """Normalize floats to 17-significant-digit values for byte-stable JSON."""
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return float(f"{value:.17g}")
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
    """Serialize a report dict deterministically (sorted keys, stable floats)."""
    text = json.dumps(_fmt(obj), indent=2, sort_keys=True, allow_nan=False)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return text
