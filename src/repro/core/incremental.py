"""Incremental 2PS-L for dynamic graphs (paper Section VI direction).

The paper notes that "following the approach proposed by Fan et al.,
2PS-L could be transformed into an incremental algorithm to efficiently
handle dynamic graphs with edge insertions and deletions without
recomputing the complete partitioning from scratch."  This module builds
that extension on top of a completed :class:`TwoPhasePartitioner` run:

- **Insertions** reuse the frozen Phase-1 state (vertex clusters, cluster
  volumes, cluster-to-partition map).  A new edge between already-clustered
  vertices goes through exactly the 2PS-L decision procedure
  (pre-partition condition, else two-candidate scoring, hash/least-loaded
  fallback).  A new *vertex* joins the cluster of its first seen neighbor
  (or opens a singleton cluster mapped to the least-loaded partition).
- **Deletions** decrement partition sizes and, when the last edge of a
  vertex on a partition disappears, clear the replication bit — keeping
  the replication factor exact under churn.

The per-update cost is O(1) (two score evaluations at most), so the
incremental partitioner preserves 2PS-L's linearity for the update stream.
Quality degrades gracefully as the clustering ages; callers can monitor
:attr:`IncrementalPartitioner.staleness` and re-run the batch partitioner
when it exceeds a budget.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PartitioningError
from repro.kernels.python_backend import PythonBackend
from repro.metrics.runtime import CostCounter
from repro.partitioning.base import PartitionResult
from repro.partitioning.hashutil import check_hash_seed
from repro.partitioning.state import PackedReplicaMatrix


class IncrementalPartitioner:
    """Maintains a 2PS-L partitioning under edge insertions and deletions.

    Build one with :meth:`from_result` from a
    :class:`~repro.core.partitioner.TwoPhasePartitioner` run configured
    with ``keep_state=True`` (so the result carries typed
    :class:`~repro.partitioning.base.PartitionArtifacts` with the Phase-1
    clustering and cluster-to-partition map), then register the base edges
    with :meth:`attach_edges` to enable deletions.
    """

    def __init__(
        self,
        k: int,
        alpha: float,
        degrees: np.ndarray,
        v2c: np.ndarray,
        volumes: np.ndarray,
        c2p: np.ndarray,
        replicas: np.ndarray,
        sizes: np.ndarray,
        hash_seed: int = 0,
    ) -> None:
        self.k = int(k)
        self.alpha = float(alpha)
        self.degrees = degrees.astype(np.int64).copy()
        self.v2c = v2c.astype(np.int64).copy()
        self.volumes = volumes.astype(np.int64).copy()
        self.c2p = c2p.astype(np.int64).copy()
        # A bit-packed replica matrix stays packed: ``.copy()`` on the
        # wrapper returns a *dense* bool matrix (its documented contract),
        # which would silently blow the state back up to |V| x k bytes —
        # exactly what ``PartitionState(packed=True)`` exists to avoid.
        if isinstance(replicas, PackedReplicaMatrix):
            self.replicas = PackedReplicaMatrix(
                replicas.packed.copy(), replicas.k
            )
        else:
            self.replicas = replicas.copy()
        self.sizes = sizes.astype(np.int64).copy()
        #: per (vertex, partition) incident-edge counts, needed so that
        #: deletions can tell when a replica becomes empty.  Built lazily
        #: by :meth:`attach_edges`.
        self._incidence: dict[tuple[int, int], int] = {}
        self.cost = CostCounter()
        self.updates = 0
        self.hash_seed = check_hash_seed(hash_seed)

    @property
    def total_edges(self) -> int:
        """Current number of edges across all partitions."""
        return int(self.sizes.sum())

    @property
    def capacity(self) -> int:
        """The balance cap, tracking the *current* edge count.

        Recomputed as ``max(floor(alpha * m / k), ceil(m / k))`` so the
        constraint stays both meaningful and feasible as the graph grows
        and shrinks.
        """
        m = self.total_edges
        return max(
            int(np.floor(self.alpha * m / self.k)),
            int(np.ceil(m / self.k)),
        )

    # ------------------------------------------------------------------
    @classmethod
    def from_result(cls, result: PartitionResult) -> "IncrementalPartitioner":
        """Build from a 2PS-L result that carries its clustering state.

        Works with both replica-state representations: a result from a
        ``packed_state=True`` run keeps its
        :class:`~repro.partitioning.state.PackedReplicaMatrix` bit-packed
        here (inserts set bits, deletions clear them, growth extends the
        uint8 bit plane) instead of being densified back to ``|V| x k``
        bools.
        """
        artifacts = result.artifacts
        if (
            artifacts is None
            or artifacts.clustering is None
            or artifacts.c2p is None
        ):
            raise PartitioningError(
                "result does not carry clustering state; partition with "
                "TwoPhasePartitioner(keep_state=True)"
            )
        clustering = artifacts.clustering
        c2p = artifacts.c2p
        inc = cls(
            k=result.k,
            alpha=result.alpha,
            degrees=clustering.degrees,
            v2c=clustering.v2c,
            volumes=clustering.volumes,
            c2p=c2p,
            replicas=result.state.replicas,
            sizes=result.state.sizes,
        )
        return inc

    def attach_edges(self, edges: np.ndarray, assignments: np.ndarray) -> None:
        """Register the base partitioning's edges for deletion support."""
        for (u, v), p in zip(edges.tolist(), np.asarray(assignments).tolist()):
            self._incidence[(u, int(p))] = self._incidence.get((u, int(p)), 0) + 1
            self._incidence[(v, int(p))] = self._incidence.get((v, int(p)), 0) + 1

    # ------------------------------------------------------------------
    def _ensure_vertex(self, v: int, neighbor: int | None) -> None:
        """Grow state for unseen vertices; adopt the neighbor's cluster."""
        if v >= self.v2c.shape[0]:
            grow = v + 1 - self.v2c.shape[0]
            self.v2c = np.concatenate([self.v2c, np.full(grow, -1, dtype=np.int64)])
            self.degrees = np.concatenate(
                [self.degrees, np.zeros(grow, dtype=np.int64)]
            )
            if isinstance(self.replicas, PackedReplicaMatrix):
                # Grow the uint8 bit plane directly; np.vstack on the
                # wrapper would round-trip through a dense |V| x k copy.
                pad = np.zeros(
                    (grow, self.replicas.packed.shape[1]), dtype=np.uint8
                )
                self.replicas = PackedReplicaMatrix(
                    np.vstack([self.replicas.packed, pad]), self.k
                )
            else:
                pad = np.zeros((grow, self.k), dtype=bool)
                self.replicas = np.vstack([self.replicas, pad])
        if self.v2c[v] < 0:
            if (
                neighbor is not None
                and 0 <= neighbor < self.v2c.shape[0]
                and self.v2c[neighbor] >= 0
            ):
                self.v2c[v] = self.v2c[neighbor]
            else:
                # Open a singleton cluster on the least-loaded partition.
                self.v2c[v] = self.volumes.shape[0]
                self.volumes = np.concatenate(
                    [self.volumes, np.zeros(1, dtype=np.int64)]
                )
                self.c2p = np.concatenate(
                    [self.c2p, np.asarray([int(np.argmin(self.sizes))])]
                )

    def _insertion_capacity(self, m_after: int) -> int:
        """Per-partition cap an insert is checked against.

        Feasibility against the post-insert edge count: cap(m+1) * k is
        always >= m+1, so an open partition always exists for consistent
        state.  Factored out so tests (and subclasses modeling external
        admission control) can tighten it and exercise the rejection path.
        """
        return max(
            int(np.floor(self.alpha * m_after / self.k)),
            int(np.ceil(m_after / self.k)),
        )

    def insert(self, u: int, v: int) -> int:
        """Insert edge ``(u, v)``; returns the chosen partition.

        The update is **transactional**: counter mutations (degrees,
        volumes, the updates/cost counters) and state growth for unseen
        vertices are rolled back if the insert is rejected, so a raised
        :class:`PartitioningError` leaves the partitioner bit-identical
        to its pre-call state instead of leaking phantom degree/volume
        increments for an edge that was never assigned.

        Raises
        ------
        PartitioningError
            If ``u``/``v`` are negative, or every partition is at its
            (insertion-adjusted) capacity.
        """
        if u < 0 or v < 0:
            # Checked before any mutation: negative ids would silently
            # index from the array tails and corrupt another vertex.
            raise PartitioningError(
                f"vertex ids must be >= 0, got ({u}, {v})"
            )
        n0 = self.v2c.shape[0]
        c0 = self.volumes.shape[0]
        v2c_u0 = int(self.v2c[u]) if u < n0 else -1
        v2c_v0 = int(self.v2c[v]) if v < n0 else -1
        score_evals0 = self.cost.score_evaluations
        hash_evals0 = self.cost.hash_evaluations
        self._ensure_vertex(u, v if v < self.v2c.shape[0] else None)
        self._ensure_vertex(v, u)
        self.degrees[u] += 1
        self.degrees[v] += 1
        cu = int(self.v2c[u])
        cv = int(self.v2c[v])
        self.volumes[cu] += 1
        self.volumes[cv] += 1
        self.updates += 1
        try:
            capacity = self._insertion_capacity(self.total_edges + 1)
            p1 = int(self.c2p[cu])
            p2 = int(self.c2p[cv])
            if cu == cv or p1 == p2:
                p = p1
            else:
                du = int(self.degrees[u])
                dv = int(self.degrees[v])
                dsum = du + dv
                vol1 = int(self.volumes[cu])
                vol2 = int(self.volumes[cv])
                vsum = vol1 + vol2
                s1 = vol1 / vsum if vsum else 0.0
                if self.replicas[u, p1]:
                    s1 += 2.0 - du / dsum
                if self.replicas[v, p1]:
                    s1 += 2.0 - dv / dsum
                s2 = vol2 / vsum if vsum else 0.0
                if self.replicas[u, p2]:
                    s2 += 2.0 - du / dsum
                if self.replicas[v, p2]:
                    s2 += 2.0 - dv / dsum
                self.cost.score_evaluations += 2
                p = p1 if s1 >= s2 else p2
            if self.sizes[p] >= capacity:
                # 2PS-L's one fallback chain, on live sizes (deletes shrink them)
                p = PythonBackend._fallback_partition(
                    int(u),
                    int(v),
                    self.degrees,
                    self.sizes,
                    capacity,
                    self.k,
                    self.hash_seed,
                    self.cost,
                    lambda: int(np.argmin(self.sizes)),
                )
                if self.sizes[p] >= capacity:
                    raise PartitioningError("all partitions at capacity")
        except PartitioningError:
            self._rollback_insert(
                u, v, cu, cv, n0, c0, v2c_u0, v2c_v0,
                score_evals0, hash_evals0,
            )
            raise
        self.sizes[p] += 1
        self.replicas[u, p] = True
        self.replicas[v, p] = True
        self._incidence[(u, p)] = self._incidence.get((u, p), 0) + 1
        self._incidence[(v, p)] = self._incidence.get((v, p), 0) + 1
        return p

    def _rollback_insert(
        self, u, v, cu, cv, n0, c0, v2c_u0, v2c_v0, score_evals0, hash_evals0
    ) -> None:
        """Undo the speculative mutations of a rejected :meth:`insert`.

        Growth only ever appends (``_ensure_vertex``), so truncating the
        per-vertex arrays back to ``n0`` rows and the per-cluster arrays
        back to ``c0`` entries restores them exactly; pre-existing
        vertices whose cluster was assigned in-place get their saved
        ``v2c`` value back.  Counter decrements run before the
        truncations while the grown indices are still addressable.
        """
        self.degrees[u] -= 1
        self.degrees[v] -= 1
        self.volumes[cu] -= 1
        self.volumes[cv] -= 1
        self.updates -= 1
        self.cost.score_evaluations = score_evals0
        self.cost.hash_evaluations = hash_evals0
        if self.volumes.shape[0] > c0:
            self.volumes = self.volumes[:c0].copy()
            self.c2p = self.c2p[:c0].copy()
        if self.v2c.shape[0] > n0:
            self.v2c = self.v2c[:n0].copy()
            self.degrees = self.degrees[:n0].copy()
            if isinstance(self.replicas, PackedReplicaMatrix):
                self.replicas = PackedReplicaMatrix(
                    self.replicas.packed[:n0].copy(), self.k
                )
            else:
                self.replicas = self.replicas[:n0].copy()
        if u < n0:
            self.v2c[u] = v2c_u0
        if v < n0:
            self.v2c[v] = v2c_v0

    def delete(self, u: int, v: int, p: int) -> None:
        """Delete an edge previously assigned to partition ``p``.

        Raises
        ------
        PartitioningError
            If no such edge is registered on ``p``.
        """
        for x in (u, v):
            count = self._incidence.get((x, p), 0)
            if count <= 0:
                raise PartitioningError(
                    f"vertex {x} has no edges on partition {p}"
                )
            if count == 1:
                del self._incidence[(x, p)]
                self.replicas[x, p] = False
            else:
                self._incidence[(x, p)] = count - 1
        self.sizes[p] -= 1
        self.degrees[u] -= 1
        self.degrees[v] -= 1
        cu = int(self.v2c[u])
        cv = int(self.v2c[v])
        self.volumes[cu] -= 1
        self.volumes[cv] -= 1
        self.updates += 1

    # ------------------------------------------------------------------
    def replication_factor(self) -> float:
        """Exact replication factor of the current dynamic state."""
        counts = self.replicas.sum(axis=1)
        covered = int((counts > 0).sum())
        return float(counts.sum()) / covered if covered else 0.0

    @property
    def staleness(self) -> float:
        """Updates applied per original edge-capacity unit.

        A coarse signal for "the Phase-1 clustering is aging"; callers
        re-run the batch partitioner when this exceeds their budget.
        """
        base_edges = max(int(self.sizes.sum()), 1)
        return self.updates / base_edges
