"""Phase 2 Step 1: cluster-to-partition mapping via Graham scheduling.

The paper models cluster assignment as Makespan Scheduling on Identical
Machines (MSP-IM): partitions are machines, clusters are jobs, cluster
volumes are job run-times, and the goal is to minimize the largest
cumulative partition volume.  MSP-IM is NP-hard; Graham's *sorted list
scheduling* (longest processing time first) is a 4/3-approximation: sort
jobs by decreasing size, repeatedly give the next job to the least-loaded
machine.

The sort stays here, in numpy; the assignment loop is a kernel-backend
op (``list_schedule``).  The ``python`` reference keeps a ``heapq`` of
``(load, partition)`` pairs; the ``c`` loop keeps its own binary heap
of partitions under the same order.  Partition indices are distinct, so
no two keys are ever equal: every step's minimum is unique, and any
correct heap hands each job the same partition ``heapq`` does, however
its internal layout differs.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PartitioningError
from repro.kernels import get_backend
from repro.metrics.runtime import CostCounter


def graham_schedule(
    volumes: np.ndarray,
    k: int,
    cost: CostCounter | None = None,
    backend: str | None = None,
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
        Optional counter; heap operations are accounted there (two per
        mapped cluster, a pop and a push).
    backend:
        Kernel backend running the assignment loop; ``None`` selects the
        default.  Backends are bit-exact, so this is a performance knob.

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
    nonzero = np.flatnonzero(volumes > 0)
    # Decreasing volume; stable tie-break on cluster id for determinism.
    order = nonzero[np.argsort(-volumes[nonzero], kind="stable")]
    parts, loads = get_backend(backend).list_schedule(volumes[order], int(k))
    c2p[order] = parts
    if cost is not None:
        cost.heap_operations += 2 * int(order.shape[0])
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
