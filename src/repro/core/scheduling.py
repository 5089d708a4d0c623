"""Phase 2 Step 1: cluster-to-partition mapping via Graham scheduling.

The paper models cluster assignment as Makespan Scheduling on Identical
Machines (MSP-IM): partitions are machines, clusters are jobs, cluster
volumes are job run-times, and the goal is to minimize the largest
cumulative partition volume.  MSP-IM is NP-hard; Graham's *sorted list
scheduling* (longest processing time first) is a 4/3-approximation: sort
jobs by decreasing size, repeatedly give the next job to the least-loaded
machine.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.errors import PartitioningError
from repro.metrics.runtime import CostCounter


def graham_schedule(
    volumes: np.ndarray, k: int, cost: CostCounter | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Map clusters to partitions with sorted list scheduling.

    Parameters
    ----------
    volumes:
        Cluster volumes (job sizes); zero-volume (emptied) clusters are
        mapped to partition 0 without affecting loads.
    k:
        Number of partitions (machines).
    cost:
        Optional counter; heap operations are accounted there.

    Returns
    -------
    (c2p, loads):
        ``c2p[c]`` is the partition of cluster ``c``; ``loads[p]`` is the
        cumulative volume of partition ``p``.

    Complexity: ``O(C log C)`` for the sort plus ``O(C log k)`` for the
    heap, with C = number of clusters (paper Section IV-A).
    """
    volumes = np.asarray(volumes, dtype=np.int64)
    if k < 1:
        raise PartitioningError(f"k must be >= 1, got {k}")
    if volumes.size and volumes.min() < 0:
        raise PartitioningError("cluster volumes must be non-negative")

    c2p = np.zeros(volumes.shape[0], dtype=np.int64)
    loads = np.zeros(k, dtype=np.int64)
    nonzero = np.where(volumes > 0)[0]
    # Decreasing volume; stable tie-break on cluster id for determinism.
    order = nonzero[np.argsort(-volumes[nonzero], kind="stable")]

    heap: list[tuple[int, int]] = [(0, p) for p in range(k)]
    heapq.heapify(heap)
    ops = 0
    for c in order.tolist():
        load, p = heapq.heappop(heap)
        c2p[c] = p
        load += int(volumes[c])
        loads[p] = load
        heapq.heappush(heap, (load, p))
        ops += 2
    if cost is not None:
        cost.heap_operations += ops
    return c2p, loads


def makespan_lower_bound(volumes: np.ndarray, k: int) -> float:
    """A valid lower bound on the optimal makespan.

    ``OPT >= max(sum(volumes) / k, max(volumes))`` — the average-load bound
    and the largest-job bound.  Graham's 4/3 guarantee for sorted list
    scheduling is against ``OPT``, not against this bound, which can sit
    further below: for volumes ``[2, 3, 3, 3]`` on ``k=3`` the optimum is
    5 while the bound is 11/3.  Against the bound, any list schedule
    meets ``makespan <= sum / k + (1 - 1/k) * max``.
    """
    volumes = np.asarray(volumes, dtype=np.float64)
    if volumes.size == 0:
        return 0.0
    return max(float(volumes.sum()) / k, float(volumes.max()))
