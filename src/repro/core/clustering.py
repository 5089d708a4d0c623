"""Phase 1 of 2PS-L: streaming vertex clustering (paper Algorithm 1).

The algorithm extends Hollocou et al.'s single-pass streaming clustering
with the two novelties of Section III-A.2:

1. **True-degree volumes with an explicit volume cap.**  Vertex degrees are
   computed upfront in a separate linear pass, cluster *volume* is the sum
   of member true degrees, and no migration may push a cluster's volume
   beyond ``volume_cap``.  Bounded volumes are what later lets Phase 2 map
   whole clusters onto partitions without breaking the balance constraint.
2. **Re-streaming.**  The same pass can be repeated over the edge stream,
   refining assignments with the accumulated state (evaluated in the
   paper's Figures 7 and 8).

For ablation, the original Hollocou behaviour is available via
``use_true_degrees=False`` (partial degrees counted on the fly) and
``volume_cap=None`` (unbounded volumes).

The per-edge pass bodies live in the kernel backends
(:mod:`repro.kernels`): the ``python`` backend runs the reference
per-edge loop below, and the default ``c`` backend compiles a bit-exact
twin of it.

Per-edge logic (matching Algorithm 1 line numbers):

- lines 11-15: endpoints without a cluster open a fresh singleton cluster
  whose volume is the vertex's degree;
- line 16: migration is only considered when *both* cluster volumes are
  within the cap;
- lines 17-18: the vertex whose cluster-minus-own-degree volume is smaller
  (``v_s``) is the migration candidate, toward the other endpoint's cluster
  (``v_l``);
- lines 19-22: the migration happens only if it keeps the target volume
  within the cap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.kernels import get_backend
from repro.metrics.runtime import CostCounter


@dataclass
class ClusteringResult:
    """State produced by Phase 1, consumed by Phase 2.

    Attributes
    ----------
    v2c:
        ``int64`` vertex-to-cluster map (-1 for vertices never streamed).
    volumes:
        ``int64`` cluster volumes, indexed by cluster id; entries of emptied
        clusters are 0.
    degrees:
        The degree array used (true degrees, or final partial degrees).
    volume_cap:
        The cap enforced (``None`` when unbounded).
    passes:
        Number of streaming passes performed.
    """

    v2c: np.ndarray
    volumes: np.ndarray
    degrees: np.ndarray
    volume_cap: float | None
    passes: int

    @property
    def n_clusters(self) -> int:
        """Number of allocated cluster ids (including emptied ones)."""
        return int(self.volumes.shape[0])

    @property
    def n_nonempty_clusters(self) -> int:
        """Clusters that still own at least one vertex."""
        used = self.v2c[self.v2c >= 0]
        return int(np.count_nonzero(np.bincount(used)))

    def validate(self) -> None:
        """Check the volume invariant: volume == sum of member degrees.

        Only valid in true-degree mode; raises ``AssertionError`` with a
        diagnostic on violation (used heavily by the property tests).
        """
        recomputed = np.zeros_like(self.volumes)
        mask = self.v2c >= 0
        np.add.at(recomputed, self.v2c[mask], self.degrees[mask])
        if not np.array_equal(recomputed, self.volumes):
            bad = np.where(recomputed != self.volumes)[0][:5]
            raise AssertionError(
                f"cluster volume invariant violated at clusters {bad.tolist()}"
            )


class StreamingClustering:
    """Streaming vertex clustering with bounded volumes and re-streaming.

    Parameters
    ----------
    n_passes:
        Streaming passes (1 = no re-streaming, the paper's recommended
        default; Figures 7-8 sweep 1..8).
    volume_cap:
        Maximum cluster volume.  ``None`` disables the bound (original
        Hollocou behaviour).
    use_true_degrees:
        When True (2PS-L), a degree array must be passed to :meth:`run`.
        When False, partial degrees are counted on the fly (Hollocou).
    backend:
        Kernel backend name (:mod:`repro.kernels`); ``None`` selects the
        default.  Pure performance knob — backends are bit-exact.
    """

    def __init__(
        self,
        n_passes: int = 1,
        volume_cap: float | None = None,
        use_true_degrees: bool = True,
        backend: str | None = None,
    ) -> None:
        if n_passes < 1:
            raise ConfigurationError(f"n_passes must be >= 1, got {n_passes}")
        if volume_cap is not None and not volume_cap > 0:  # NaN too
            raise ConfigurationError(
                f"volume_cap must be positive or None, got {volume_cap}"
            )
        get_backend(backend)  # validate the name eagerly
        self.n_passes = int(n_passes)
        self.volume_cap = volume_cap
        self.use_true_degrees = bool(use_true_degrees)
        self.backend = backend

    # ------------------------------------------------------------------
    def run(
        self,
        stream,
        degrees: np.ndarray | None = None,
        n_vertices: int | None = None,
        cost: CostCounter | None = None,
    ) -> ClusteringResult:
        """Cluster the vertices of ``stream``.

        Parameters
        ----------
        stream:
            Edge stream (re-iterable).
        degrees:
            True degree array; required when ``use_true_degrees``.
        n_vertices:
            Vertex-count override (else from degrees/stream).
        cost:
            Optional cost counter; cluster updates and streamed edges are
            accounted there.
        """
        if self.use_true_degrees:
            if degrees is None:
                raise ConfigurationError(
                    "true-degree clustering requires a degree array "
                    "(run compute_degrees_from_stream first)"
                )
            n = len(degrees)
        else:
            if n_vertices is None:
                n_vertices = getattr(stream, "n_vertices", None)
            if n_vertices is None:
                raise ConfigurationError(
                    "partial-degree clustering requires n_vertices"
                )
            n = int(n_vertices)
            degrees = np.zeros(n, dtype=np.int64)

        kernels = get_backend(self.backend)
        state = kernels.clustering_init(np.asarray(degrees, dtype=np.int64))
        cap = float("inf") if self.volume_cap is None else float(self.volume_cap)

        for _ in range(self.n_passes):
            if self.use_true_degrees:
                kernels.clustering_true_pass(stream, state, cap, cost)
            else:
                kernels.clustering_partial_pass(stream, state, cap, cost)

        v2c, volumes, final_degrees = kernels.clustering_export(state)
        return ClusteringResult(
            v2c=v2c,
            volumes=volumes,
            degrees=final_degrees,
            volume_cap=self.volume_cap,
            passes=self.n_passes,
        )


def default_volume_cap(n_edges: int, k: int, factor: float = 0.5) -> float:
    """The volume cap 2PS-L hands to Phase 1: ``factor * |E| / k``.

    A partition may hold ``alpha * |E| / k`` edges; a fully internal cluster
    of volume ``vol`` holds about ``vol / 2`` edges, so the largest cluster
    that fits one partition has volume about ``2 * |E| / k`` (``factor =
    2``).  In practice substantially smaller caps partition better — many
    medium clusters give the Graham scheduler balancing freedom and stop
    the volume-priority migration from snowballing mixed mega-clusters.
    The library default ``factor = 0.5`` was tuned on both the social and
    web stand-ins (see the ablation bench ``test_bench_ablation.py``).
    """
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    return factor * n_edges / k
