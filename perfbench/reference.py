"""A fixed reference loop that gauges how fast the machine runs right now.

On a machine shared with other tenants the same scenario can take anywhere
from 1.0 to 2.0 s, and such a state lasts from seconds to minutes, longer
than any median inside one run can smooth out. The timed run therefore
brackets every scenario run with this loop and scales the scenario's time by
``NOMINAL_S`` over the mean of the two loop times. The loop does what the
workloads do most (small numpy arrays, einsum, Python calls) and uses numpy
only, so no change to gaugemech can move it.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.010  # about one loop on an unloaded 2-vCPU Xeon VM
_ITERATIONS = 1000
_STRUCTURE = np.zeros((6, 6, 6))
_STRUCTURE[0, 1, 2], _STRUCTURE[1, 0, 2] = 1.0, -1.0


def loop_s() -> float:
    """Seconds for one pass of the reference loop."""
    a = np.arange(6.0)
    t = time.perf_counter()
    for _ in range(_ITERATIONS):
        b = np.einsum("ijk,k->ij", _STRUCTURE, a) @ (0.5 * a)
        if not np.all(np.isfinite(b)):
            raise FloatingPointError("reference loop diverged")
        a = np.concatenate([a[:3], 1.0 + 1e-3 * b[3:]])
    return time.perf_counter() - t


def scale(seconds: float, before: float, after: float) -> float:
    """A time taken between two reference loops, at the nominal speed."""
    return seconds * NOMINAL_S / (0.5 * (before + after))
