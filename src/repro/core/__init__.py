"""The paper's contribution: the 2PS-L two-phase streaming edge partitioner.

- :mod:`~repro.core.clustering` — Phase 1: streaming vertex clustering
  (Hollocou-style with true-degree volumes, an explicit volume cap, and
  optional re-streaming; paper Algorithm 1).
- :mod:`~repro.core.scheduling` — Phase 2 Step 1: cluster-to-partition
  mapping via Graham's sorted list scheduling (4/3-approximation of
  makespan scheduling on identical machines).
- :mod:`~repro.core.scoring` — the constant-time 2PS-L score over
  exactly two candidate partitions and the HDRF score of the 2PS-HDRF
  variant (formulas; the kernel backends implement them).
- :mod:`~repro.core.partitioner` — the full pipeline (paper Algorithm 2):
  degree pass, clustering pass(es), cluster mapping, pre-partitioning pass,
  remaining-edge scoring pass.

Extensions from the paper's discussion (Section VI):

- :mod:`~repro.core.incremental` — dynamic-graph updates without
  re-partitioning (Fan et al. direction);
- :mod:`~repro.core.parallel` — CuSP-style sharded partitioning with
  stale-state synchronization, executed by a pluggable runner
  (:mod:`~repro.core.runners`: serial reference, single-process
  simulation, or true multi-process socket workers, local or remote).
"""

from repro.core.clustering import ClusteringResult, StreamingClustering
from repro.core.scheduling import graham_schedule, makespan_lower_bound
from repro.core.partitioner import TwoPhasePartitioner
from repro.core.incremental import IncrementalPartitioner
from repro.core.runners import (
    ProcessRunner,
    Runner,
    SerialRunner,
    SimulatedRunner,
    make_runner,
)
from repro.core.distributed import DistributedRunner
from repro.core.parallel import ParallelTwoPhase

__all__ = [
    "StreamingClustering",
    "ClusteringResult",
    "graham_schedule",
    "makespan_lower_bound",
    "TwoPhasePartitioner",
    "IncrementalPartitioner",
    "ParallelTwoPhase",
    "Runner",
    "SerialRunner",
    "SimulatedRunner",
    "ProcessRunner",
    "DistributedRunner",
    "make_runner",
]
