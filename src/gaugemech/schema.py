"""Typed readers for the fields of JSON scenario and spec documents.

Every loader reads its fields through these functions, so what a field may
hold is decided here once.  A number is a JSON number (an integer or a
float, never a boolean and never a numeric string) that is finite as a
float; a flag is a JSON boolean; an array is a nested list of numbers of a
declared shape.  A reader returns the value in the type its loader uses, or
raises ConfigError (a ValueError) whose message starts with the field's name
in quotes.  Bounds that depend on other fields, such as an array's shape or
an index's range, are arguments; mathematical invariants stay in the spec
constructors.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np


class ConfigError(ValueError):
    """A scenario or spec document that cannot be read."""


def _is_number(x: Any) -> bool:
    # json reads true and false as bool, a subclass of int
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def number(key: str, raw: Any) -> float:
    """A finite JSON number, as a float."""
    try:
        value = float(raw) if _is_number(raw) else math.nan
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"{key!r} must be a finite number, got {raw!r}")
    return value


def integer(key: str, raw: Any, low: float = 1, high: float = math.inf) -> int:
    """A JSON integer in [low, high); by default a positive integer."""
    if isinstance(raw, bool) or not isinstance(raw, int) or not low <= raw < high:
        bounds = "" if low == -math.inf else f" >= {low}" if high == math.inf else f" in [{low}, {high})"
        raise ConfigError(f"{key!r} must be an integer{bounds}, got {raw!r}")
    return raw


def flag(key: str, raw: Any) -> bool:
    if not isinstance(raw, bool):
        raise ConfigError(f"{key!r} must be true or false, got {raw!r}")
    return raw


def text(key: str, raw: Any) -> str:
    if not isinstance(raw, str):
        raise ConfigError(f"{key!r} must be a string, got {raw!r}")
    return raw


def section(key: str, raw: Any) -> dict:
    """A JSON object."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{key!r} must be an object, got {raw!r}")
    return raw


def items(key: str, raw: Any, low: int = 0, high: float = math.inf) -> list:
    """A JSON list of low to high entries (both inclusive), each left to its caller's reader."""
    if not isinstance(raw, list) or not low <= len(raw) <= high:
        size = f" of {low} entries" if low == high else f" of at least {low} entries" if low else "" if high == math.inf else f" of at most {high} entries"
        raise ConfigError(f"{key!r} must be a list{size}, got {raw!r}")
    return raw


def array(key: str, raw: Any, shape: tuple[int | None, ...]) -> np.ndarray:
    """A nested list of finite JSON numbers of the given shape, as a float array.

    A leading ``None`` in ``shape`` admits any nonzero number of rows.
    """
    if _fits(raw, shape):
        try:
            value = np.array(raw, dtype=float)
        except OverflowError:  # an integer beyond the float range
            value = None
        if value is not None and np.isfinite(value).all():
            return value
    dims = ", ".join("n" if n is None else str(n) for n in shape)
    raise ConfigError(f"{key!r} must be nested lists of finite numbers of shape ({dims}), got {raw!r}")


def _fits(raw: Any, shape: tuple[int | None, ...]) -> bool:
    if not shape:
        return _is_number(raw)
    n = shape[0]
    return isinstance(raw, list) and (len(raw) == n or n is None and len(raw) > 0) and all(_fits(x, shape[1:]) for x in raw)
