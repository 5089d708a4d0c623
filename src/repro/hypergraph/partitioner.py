"""2PS-L generalized to hypergraphs.

The lift is direct:

- **Phase 1** clusters vertices by streaming over each hyperedge's member
  list and applying the bounded-volume migration rule to consecutive
  member pairs (a hyperedge of size s contributes s-1 implicit edges) —
  the same O(total pins) complexity as Algorithm 1;
- **Phase 2** maps clusters to partitions with Graham scheduling, then
  assigns each hyperedge by scoring only the partitions of its **two
  heaviest member clusters** (by member count within the hyperedge), a
  constant-size candidate set that preserves the linear run-time; the
  score sums per-member replication affinity plus the cluster-volume term.

The balance cap applies to hyperedge counts per partition, and replication
is counted per (vertex, partition) as in edge partitioning, so the
replication-factor metric is directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.scheduling import graham_schedule
from repro.errors import ConfigurationError, PartitioningError
from repro.hypergraph.model import Hypergraph
from repro.metrics.runtime import CostCounter, PhaseTimer
from repro.partitioning.hashutil import check_hash_seed, splitmix64_int


@dataclass
class HypergraphPartitionResult:
    """Assignment of every hyperedge plus quality metrics."""

    partitioner: str
    k: int
    alpha: float
    assignments: np.ndarray
    replicas: np.ndarray
    sizes: np.ndarray
    timer: PhaseTimer
    cost: CostCounter
    extras: dict = field(default_factory=dict)

    @property
    def replication_factor(self) -> float:
        counts = self.replicas.sum(axis=1)
        covered = int((counts > 0).sum())
        return float(counts.sum()) / covered if covered else 0.0

    @property
    def measured_alpha(self) -> float:
        total = int(self.sizes.sum())
        if not total:
            return 1.0
        return float(self.sizes.max()) * self.k / total


def _validate(hypergraph: Hypergraph, k: int, alpha: float) -> int:
    if k < 2:
        raise PartitioningError(f"k must be >= 2, got {k}")
    if hypergraph.n_hyperedges == 0:
        raise PartitioningError("cannot partition an empty hypergraph")
    if alpha < 1.0:
        raise PartitioningError(f"alpha must be >= 1, got {alpha}")
    h = hypergraph.n_hyperedges
    return max(int(np.floor(alpha * h / k)), int(np.ceil(h / k)))


class TwoPhaseHypergraphPartitioner:
    """2PS-L-H: two-phase streaming hyperedge partitioning.

    Parameters
    ----------
    volume_cap_factor:
        Cluster volume cap as a multiple of ``total_pins / k``.
    hash_seed:
        Fallback hash seed, in ``[0, 2**64)``.
    """

    name = "2PS-L-H"

    def __init__(self, volume_cap_factor: float = 0.5, hash_seed: int = 0) -> None:
        if volume_cap_factor <= 0:
            raise ConfigurationError(
                f"volume_cap_factor must be positive, got {volume_cap_factor}"
            )
        self.volume_cap_factor = float(volume_cap_factor)
        self.hash_seed = check_hash_seed(hash_seed)

    # ------------------------------------------------------------------
    def partition(
        self, hypergraph: Hypergraph, k: int, alpha: float = 1.05
    ) -> HypergraphPartitionResult:
        """Partition the hyperedge set into k balanced parts."""
        capacity = _validate(hypergraph, k, alpha)
        timer = PhaseTimer()
        cost = CostCounter()
        n = hypergraph.n_vertices
        degrees = hypergraph.degrees.tolist()

        # Phase 1: streaming clustering over member co-occurrence.
        with timer.phase("clustering"):
            cap = self.volume_cap_factor * hypergraph.total_pins / k
            v2c: list[int] = [-1] * n
            vol: list[int] = []
            for members in hypergraph:
                mlist = members.tolist()
                # Implicit pair stream: all pairs for small hyperedges,
                # a closed ring for large ones (keeps the pass linear in
                # total pins while giving the clustering enough signal).
                if len(mlist) <= 4:
                    pairs = [
                        (mlist[i], mlist[j])
                        for i in range(len(mlist))
                        for j in range(i + 1, len(mlist))
                    ]
                else:
                    pairs = list(zip(mlist, mlist[1:] + mlist[:1]))
                for u, v in pairs:
                    cu = v2c[u]
                    if cu < 0:
                        cu = len(vol)
                        v2c[u] = cu
                        vol.append(degrees[u])
                    cv = v2c[v]
                    if cv < 0:
                        cv = len(vol)
                        v2c[v] = cv
                        vol.append(degrees[v])
                    if cu == cv:
                        continue
                    vol_u = vol[cu]
                    vol_v = vol[cv]
                    if vol_u <= cap and vol_v <= cap:
                        if vol_u - degrees[u] <= vol_v - degrees[v]:
                            vs, cs, cl, ds = u, cu, cv, degrees[u]
                        else:
                            vs, cs, cl, ds = v, cv, cu, degrees[v]
                        if vol[cl] + ds <= cap:
                            vol[cl] += ds
                            vol[cs] -= ds
                            v2c[vs] = cl
                            cost.cluster_updates += 1
            cost.edges_streamed += hypergraph.total_pins

        with timer.phase("mapping"):
            c2p, _ = graham_schedule(
                np.asarray(vol, dtype=np.int64), k, cost=cost
            )
            c2p_l = c2p.tolist()

        # Phase 2: constant-candidate scoring per hyperedge.
        replicas = np.zeros((n, k), dtype=bool)
        sizes = np.zeros(k, dtype=np.int64)
        assignments = np.empty(hypergraph.n_hyperedges, dtype=np.int32)
        with timer.phase("partitioning"):
            for i, members in enumerate(hypergraph):
                mlist = members.tolist()
                # Two heaviest member clusters (by within-hyperedge count,
                # ties by cluster volume).
                counts: dict[int, int] = {}
                for v in mlist:
                    counts[v2c[v]] = counts.get(v2c[v], 0) + 1
                ranked = sorted(
                    counts.items(), key=lambda kv: (-kv[1], -vol[kv[0]])
                )
                candidates = {c2p_l[c] for c, _ in ranked[:2]}
                best_p = -1
                best_s = -1.0
                for p in candidates:
                    score = 0.0
                    for v in mlist:
                        if replicas[v, p]:
                            score += 1.0
                        if c2p_l[v2c[v]] == p:
                            score += vol[v2c[v]] / (
                                vol[v2c[v]] + 1.0
                            ) / len(mlist)
                    cost.score_evaluations += 1
                    if score > best_s:
                        best_s = score
                        best_p = p
                p = best_p
                if sizes[p] >= capacity:
                    heavy = max(mlist, key=degrees.__getitem__)
                    p = splitmix64_int(heavy, self.hash_seed) % int(k)
                    cost.hash_evaluations += 1
                    if sizes[p] >= capacity:
                        open_mask = sizes < capacity
                        cands = np.where(open_mask)[0]
                        p = int(cands[np.argmin(sizes[cands])])
                sizes[p] += 1
                replicas[mlist, p] = True
                assignments[i] = p
            cost.edges_streamed += hypergraph.total_pins

        return HypergraphPartitionResult(
            partitioner=self.name,
            k=k,
            alpha=alpha,
            assignments=assignments,
            replicas=replicas,
            sizes=sizes,
            timer=timer,
            cost=cost,
            extras={"n_clusters": len(set(c for c in v2c if c >= 0))},
        )
