"""Out-of-core degree computation.

2PS-L needs the *true* vertex degree before clustering (Section III-A.2:
"we compute the degree of each vertex upfront ... in a pass through the edge
set, keeping a counter for each vertex ID").  This is a linear-time pass and
its cost is reported separately in the paper's Figure 5 breakdown.
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import Graph


def compute_degrees(graph: Graph) -> np.ndarray:
    """Degrees of an in-memory graph (delegates to :attr:`Graph.degrees`)."""
    return graph.degrees


def compute_degrees_from_stream(
    stream, n_vertices: int | None = None, backend: str | None = None
) -> np.ndarray:
    """One streaming pass that counts every endpoint occurrence.

    The chunk processing is delegated to a kernel backend
    (:mod:`repro.kernels`): a compiled per-edge loop on the default
    ``c`` backend, per-chunk ``np.add.at`` on the ``python`` reference
    backend.

    Parameters
    ----------
    stream:
        Any edge stream exposing ``chunks()`` (see :mod:`repro.streaming`).
    n_vertices:
        Vertex-count hint.  If omitted, taken from the stream, and if the
        stream does not know either, the array covers every id seen.
    backend:
        Kernel backend name; ``None`` selects the default.

    Returns
    -------
    numpy.ndarray
        ``int64`` degree array of length ``n_vertices`` (or large enough to
        cover every id seen).
    """
    from repro.kernels import get_backend

    if n_vertices is None:
        n_vertices = getattr(stream, "n_vertices", None)
    deg = get_backend(backend).degree_pass(stream, n_vertices)
    if n_vertices and deg.shape[0] > int(n_vertices):
        deg = deg[: int(n_vertices)]
    return deg
