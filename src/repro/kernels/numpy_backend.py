"""The ``numpy`` backend: chunk-vectorized kernels (the fallback default).

Only the ops that decide no edge from another edge's outcome are
vectorized: degree counting, the stateless hashing baselines and the
two Phase-1 merges.  Every pass whose decision for an edge depends on
state that earlier edges changed (both Phase-1 clustering bodies, the
pre-partition pass, the 2PS-L remaining pass and both HDRF passes) is
the ``python`` reference's per-edge loop, inherited unchanged; ``c``
compiles those loops.  The results are bit-exact with the reference,
which ``tests/test_kernels.py`` enforces.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.base import check_clustering_exports
from repro.kernels.python_backend import PythonBackend


class NumpyBackend(PythonBackend):
    """Vectorized kernels for the passes without cross-edge state (see
    the module docstring)."""

    name = "numpy"

    # ------------------------------------------------------------------
    # stateless passes
    # ------------------------------------------------------------------
    def degree_pass(self, stream, n_hint: int | None = None) -> np.ndarray:
        deg = np.zeros(int(n_hint) if n_hint else 0, dtype=np.int64)
        for chunk in stream.chunks():
            if chunk.size == 0:
                continue
            ids = chunk.ravel()
            top = int(ids.max())
            if top >= deg.shape[0]:
                grown = np.zeros(top + 1, dtype=np.int64)
                grown[: deg.shape[0]] = deg
                deg = grown
            # O(chunk), where a per-chunk bincount would add |V| counters.
            np.add.at(deg, ids, 1)
        return deg

    def stateless_pass(self, stream, map_chunk, state, assignments) -> None:
        idx = 0
        for chunk in stream.chunks():
            u = chunk[:, 0]
            v = chunk[:, 1]
            parts = map_chunk(u, v)
            state.scatter_edges(u, v, parts)
            assignments[idx : idx + chunk.shape[0]] = parts
            idx += chunk.shape[0]

    # ------------------------------------------------------------------
    # Phase-1 barrier merges (vectorized twins of the reference)
    # ------------------------------------------------------------------
    def merge_phase1_degrees(self, partials, n_hint=None) -> np.ndarray:
        length = int(n_hint) if n_hint else 0
        for partial in partials:
            length = max(length, int(len(partial)))
        out = np.zeros(length, dtype=np.int64)
        for partial in partials:
            out[: len(partial)] += np.asarray(partial, dtype=np.int64)
        return out

    def merge_phase1_clustering(self, v2c, volumes, worker_states, degrees):
        base = int(len(volumes))
        snapshot = np.asarray(v2c, dtype=np.int64)
        exports = check_clustering_exports(snapshot.shape[0], base, worker_states)
        merged = snapshot.copy()
        claimed = np.zeros(merged.shape[0], dtype=bool)
        offset = base
        for v2c_w, n_ids in exports:
            changed = (v2c_w != snapshot) & ~claimed
            if changed.any():
                vals = v2c_w[changed]
                if offset != base:
                    vals = np.where(vals >= base, vals + (offset - base), vals)
                merged[changed] = vals
                claimed |= changed
            offset += n_ids - base
        assigned = merged >= 0
        # Integer-exact despite the float weights: true degrees and their
        # partial sums stay far below 2**53.
        vol = np.bincount(
            merged[assigned],
            weights=np.asarray(degrees, dtype=np.int64)[assigned],
            minlength=offset,
        ).astype(np.int64)
        return merged, vol
