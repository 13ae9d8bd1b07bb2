"""Reproducible random streams: one 64-bit seed, per-suite stream labels.

Every randomized suite in the package draws from ``stream(seed, label)``.
The generator is counter-based (Philox), keyed by the seed XOR a hash of
the label, so suites are independent of each other and of evaluation
order, and a fixed (seed, label) pair yields identical samples on every
run and platform.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1


def stream(seed: int, label: str) -> np.random.Generator:
    """Return the named random stream for a 64-bit seed."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    key = (int(seed) ^ int.from_bytes(digest[:8], "little")) & _MASK64
    return np.random.Generator(np.random.Philox(key=key))

