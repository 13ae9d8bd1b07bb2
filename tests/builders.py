"""Builders of spec documents and connections for tests, and a counting random generator.

The package reads these documents (``liealg.spec_from_json``,
``semidirect.sd_from_json``) but never writes them; tests build inline specs
from the built-in groups here.
"""

from __future__ import annotations

import numpy as np

from gaugemech.bundle import ConnectionData
from gaugemech.liealg import LieGroupSpec
from gaugemech.semidirect import SemidirectSpec


def spec_to_json(spec: LieGroupSpec) -> dict:
    """The document ``liealg.spec_from_json`` reads back into ``spec``: nonzero structure constants only."""
    entries = []
    for i in range(spec.dim):
        for j in range(spec.dim):
            for k in range(spec.dim):
                c = spec.structure[i, j, k]
                if c != 0.0:
                    entries.append([i, j, k, float(c)])
    return {
        "name": spec.name,
        "dim": spec.dim,
        "embed": spec.embed,
        "basis": [spec.basis[i].reshape(-1).tolist() for i in range(spec.dim)],
        "structure": entries,
    }


def sd_to_json(sd: SemidirectSpec) -> dict:
    """The document ``semidirect.sd_from_json`` reads back into ``sd``, with inline factor groups."""
    return {
        "K": spec_to_json(sd.K),
        "N": spec_to_json(sd.N),
        "rho": [sd.rho_generators[i].tolist() for i in range(sd.K.dim)],
    }


def connection_from_matrix(mat) -> ConnectionData:
    """Constant coefficients: A[k, i] = mat[k, i]."""
    mat = np.asarray(mat, dtype=float)
    n, d = mat.shape
    terms = [[([(float(mat[k, i]), (0,) * d)] if mat[k, i] != 0 else []) for k in range(n)] for i in range(d)]
    return ConnectionData(d, n, terms)


class CountingGenerator:
    """A random generator that records the name of each method called on it."""

    def __init__(self, rng, calls):
        self._rng, self._calls = rng, calls

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self._calls.append(name)
            return method(*args, **kwargs)

        return counted


def counted_streams(monkeypatch, module):
    """Route every stream that ``module`` opens through a CountingGenerator; return the shared list of calls."""
    calls, stream = [], module.stream
    monkeypatch.setattr(module, "stream", lambda seed, label: CountingGenerator(stream(seed, label), calls))
    return calls
