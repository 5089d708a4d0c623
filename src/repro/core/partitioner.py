"""The 2PS-L partitioner: two-phase streaming edge partitioning (Alg. 2).

Pipeline (each step is a separate streaming pass, timed separately so the
Figure 5 breakdown can be reproduced):

1. **Degree pass** — one linear pass counting true vertex degrees.
2. **Clustering pass(es)** — Phase 1 (:mod:`repro.core.clustering`).
3. **Cluster mapping** — Graham sorted list scheduling of cluster volumes
   onto partitions (:mod:`repro.core.scheduling`).  No streaming.
4. **Pre-partitioning pass** — edges whose endpoints share a cluster, or
   whose clusters are mapped to the same partition, go straight to that
   partition (Algorithm 2, lines 16-26).
5. **Remaining pass** — every other edge is scored on exactly **two**
   candidate partitions (the partitions of its endpoints' clusters) with
   the constant-time 2PS-L score (lines 27-44).

Fallback chain when a target partition is at the hard cap: hash on the
higher-degree endpoint, then the least-loaded open partition as a last
resort — both from the paper (line 40-41 and the prose below them).

Setting ``mode="hdrf"`` replaces step 5's two-candidate scoring with the
full HDRF score over all k partitions, which is the paper's **2PS-HDRF**
variant (Section V-D): better replication factor, O(|E| * k) run-time.

The per-pass edge processing is delegated to a pluggable kernel backend
(:mod:`repro.kernels`): ``backend="c"`` (the default where a C compiler
builds it) runs compiled per-edge loops, ``backend="python"`` the
reference kernels — bit-exact with each other.

Every pass streams through a runner session (:mod:`repro.core.runners`):
this sequential partitioner *is* the pipeline, run on the serial
session — one shard, one window per pass, the stream object itself handed
to the kernels — and the sharded
:class:`~repro.core.parallel.ParallelTwoPhase` reruns it on a runner's
sessions.
"""

from __future__ import annotations

import math
from contextlib import ExitStack, closing

import numpy as np

from repro.core.clustering import ClusteringResult, default_volume_cap
from repro.core.runners import RunnerSession, SerialRunner, ShardedJob
from repro.core.scheduling import graham_schedule
from repro.errors import ConfigurationError
from repro.kernels import get_backend
from repro.kernels.base import phase2_inputs
from repro.metrics.memory import measured_state_bytes
from repro.metrics.runtime import CostCounter, PhaseTimer
from repro.partitioning.base import (
    EdgePartitioner,
    PartitionArtifacts,
    PartitionResult,
)
from repro.partitioning.hashutil import check_hash_seed
from repro.partitioning.state import PartitionState


def run_phase1(
    session: RunnerSession,
    *,
    clustering_passes: int,
    volume_cap_factor: float,
    timer: PhaseTimer,
):
    """Degree pass + Phase-1 clustering + cluster mapping.

    Streams through ``session``: the serial one (one window, the stream
    itself) for the sequential pipeline, a runner's sharded one for
    ``ParallelTwoPhase(parallel_phase1=True)``.  Returns ``(n,
    clustering, c2p, loads, syncs)``; ``syncs`` counts the Phase-1
    clustering barriers.
    """
    job = session.job
    stream = job.stream
    m = stream.n_edges

    # Pass 1: true vertex degrees (Figure 5: "Degree").
    with timer.phase("degree"):
        degrees = session.run_degree_pass(stream.n_vertices)
        job.cost.edges_streamed += m
    n = max(EdgePartitioner._resolve_n_vertices(stream, degrees), len(degrees))
    if len(degrees) < n:
        grown = np.zeros(n, dtype=np.int64)
        grown[: len(degrees)] = degrees
        degrees = grown

    # Phase 1: streaming clustering (Figure 5: "Clustering").
    with timer.phase("clustering"):
        cap = default_volume_cap(m, job.k, volume_cap_factor)
        v2c, volumes, syncs = session.run_clustering(
            degrees, cap, clustering_passes
        )
        clustering = ClusteringResult(
            v2c=v2c,
            volumes=volumes,
            degrees=degrees,
            volume_cap=cap,
            passes=clustering_passes,
        )

    # Phase 2 Step 1: map clusters to partitions (no streaming).
    with timer.phase("mapping"):
        c2p, loads = graham_schedule(
            clustering.volumes, job.k, cost=job.cost, backend=job.backend
        )
    return n, clustering, c2p, loads, syncs


class TwoPhasePartitioner(EdgePartitioner):
    """2PS-L (default) or 2PS-HDRF (``mode="hdrf"``).

    Parameters
    ----------
    clustering_passes:
        Streaming clustering passes (1 = the paper's recommended default,
        i.e. no re-streaming; Figures 7-8 sweep this).
    volume_cap_factor:
        Cluster volume cap as a multiple of ``|E| / k``; see
        :func:`repro.core.clustering.default_volume_cap`.
    mode:
        ``"linear"`` for 2PS-L's two-candidate constant-time scoring,
        ``"hdrf"`` for full HDRF scoring over all k partitions (2PS-HDRF).
    hdrf_lambda:
        Balance weight of the HDRF score (paper appendix: 1.1).
    hash_seed:
        Seed of the fallback hash, in ``[0, 2**64)``.
    keep_state:
        When True, the result carries a typed
        :class:`~repro.partitioning.base.PartitionArtifacts` (Phase-1
        clustering + cluster-to-partition map), so an
        :class:`~repro.core.incremental.IncrementalPartitioner` can be
        built from it for dynamic-graph updates.
    backend:
        Kernel backend name (:mod:`repro.kernels`); ``None`` selects the
        default (``"c"``, or ``"python"`` without a C compiler).  Backends
        are bit-exact, so this is a pure performance knob.
    chunk_size:
        Default edges-per-chunk for every streaming pass of a run
        (overridable per call via ``partition(..., chunk_size=...)``);
        ``None`` keeps the stream's own default.
    packed_state:
        When True, the replica matrix is stored bit-packed (``ceil(k/8)``
        bytes per row; the out-of-core memory tier).  A pure storage
        knob — bit-exact with the dense default on every backend.

    This class is the one 2PS-L pipeline: every pass runs through runner
    sessions (:mod:`repro.core.runners`) — Phase 1 in :func:`run_phase1`,
    the cluster mapping through ``graham_schedule`` and both Phase-2
    passes through ``RunnerSession.run_pass``.  Here both phases use the
    serial session; :class:`~repro.core.parallel.ParallelTwoPhase` picks
    sharded ones in :meth:`_open` and adds its extras in :meth:`_extras`.
    """

    def __init__(
        self,
        clustering_passes: int = 1,
        volume_cap_factor: float = 0.5,
        mode: str = "linear",
        hdrf_lambda: float = 1.1,
        hash_seed: int = 0,
        keep_state: bool = False,
        backend: str | None = None,
        chunk_size: int | None = None,
        packed_state: bool = False,
    ) -> None:
        if mode not in ("linear", "hdrf"):
            raise ConfigurationError(
                f"mode must be 'linear' or 'hdrf', got {mode!r}"
            )
        if clustering_passes < 1:
            raise ConfigurationError(
                f"clustering_passes must be >= 1, got {clustering_passes}"
            )
        if volume_cap_factor <= 0:
            raise ConfigurationError(
                f"volume_cap_factor must be positive, got {volume_cap_factor}"
            )
        if not math.isfinite(float(hdrf_lambda)):
            raise ConfigurationError(
                f"hdrf_lambda must be finite, got {hdrf_lambda}"
            )
        if chunk_size is not None and (
            isinstance(chunk_size, str) or chunk_size <= 0
        ):
            raise ConfigurationError(
                f"chunk_size must be a positive int, got {chunk_size!r}"
            )
        get_backend(backend)  # validate the name eagerly
        self.clustering_passes = int(clustering_passes)
        self.volume_cap_factor = float(volume_cap_factor)
        self.mode = mode
        self.hdrf_lambda = float(hdrf_lambda)
        self.hash_seed = check_hash_seed(hash_seed)
        self.keep_state = bool(keep_state)
        self.backend = backend
        self.chunk_size = chunk_size
        self.packed_state = bool(packed_state)
        self.name = "2PS-L" if mode == "linear" else "2PS-HDRF"

    def _open(
        self, job: ShardedJob, stack: ExitStack
    ) -> tuple[RunnerSession, RunnerSession]:
        """The Phase-1 and Phase-2 sessions of one run (the serial
        session for both: one window per pass over the stream itself),
        each pushed on ``stack`` as it opens, so the run closes every
        session it opened on every path."""
        session = stack.enter_context(closing(SerialRunner().open(job)))
        return session, session

    def _extras(
        self, session: RunnerSession, timer: PhaseTimer, syncs: int,
        phase1_syncs: int,
    ) -> dict:
        """Front-end result extras, read before the session closes."""
        return {}

    # ------------------------------------------------------------------
    def _run(self, stream, k: int, alpha: float) -> PartitionResult:
        kernels = get_backend(self.backend)
        timer = PhaseTimer()
        cost = CostCounter()
        m = stream.n_edges
        job = ShardedJob(
            stream=stream,
            # The *resolved* backend name: if an optional backend (``c``
            # without a compiler) fell back to the default, the parent resolves it
            # once and every runner worker receives the concrete name —
            # no per-worker re-detection or repeated fallback warnings.
            backend=kernels.name,
            # A Python int: the hash fallback reduces a Python-int hash
            # modulo k, which a numpy integer cannot hold.
            k=int(k),
            alpha=alpha,
            hash_seed=self.hash_seed,
            hdrf_lambda=self.hdrf_lambda,
            cost=cost,
        )
        with ExitStack() as stack:
            phase1, session = self._open(job, stack)
            n, clustering, c2p, loads, phase1_syncs = run_phase1(
                phase1,
                clustering_passes=self.clustering_passes,
                volume_cap_factor=self.volume_cap_factor,
                timer=timer,
            )
            # Phase 2 reads two per-vertex arrays, derived once per run.
            job.part, job.weights = phase2_inputs(
                clustering.v2c, c2p, clustering.volumes, clustering.degrees, k
            )
            job.state = PartitionState(n, k, m, alpha, packed=self.packed_state)
            job.assignments = np.full(m, -1, dtype=np.int32)
            session.bind_phase2()

            # Phase 2 Step 2: pre-partitioning pass.
            with timer.phase("prepartition"):
                n_pre, syncs_pre = session.run_pass("prepartition")
            # Phase 2 Step 3: score remaining edges.
            with timer.phase("partitioning"):
                _, syncs_rem = session.run_pass(f"remaining_{self.mode}")
            session.finalize()
            worker_bytes = session.transport.extra_state_bytes()
            extras = self._extras(
                session, timer, syncs_pre + syncs_rem, phase1_syncs
            )

        artifacts = (
            PartitionArtifacts(clustering=clustering, c2p=c2p)
            if self.keep_state
            else None
        )
        return PartitionResult(
            partitioner=self.name,
            k=k,
            alpha=alpha,
            n_vertices=n,
            n_edges=m,
            assignments=job.assignments,
            state=job.state,
            timer=timer,
            cost=cost,
            state_bytes=measured_state_bytes(
                job.state, clustering.v2c, clustering.volumes,
                clustering.degrees, c2p, loads, job.part, job.weights,
            )
            + worker_bytes,
            extras={
                "n_clusters": clustering.n_nonempty_clusters,
                "clustering_passes": clustering.passes,
                "volume_cap": clustering.volume_cap,
                "prepartitioned_edges": n_pre,
                "remaining_edges": m - n_pre,
                "mode": self.mode,
                "backend": kernels.name,
                **extras,
            },
            artifacts=artifacts,
        )
