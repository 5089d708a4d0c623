"""CuSP-style parallel streaming partitioning (paper Section VI direction).

The paper observes that "2PS-L could be integrated into the CuSP framework
to speed up the partitioning.  However, parallelization comes with a cost,
as staleness in state synchronization of multiple partitioner instances
can lead to lower partitioning quality."

:class:`ParallelTwoPhase` implements exactly that trade-off.  The edge
stream is split into ``n_workers`` contiguous shards.  Both Phase-2
streaming passes (pre-partitioning and remaining-edge scoring) run per
worker against a *stale* copy of the global replication state that is
re-synchronized only every ``sync_interval`` edges.

Phase 1 can run either shared (the default: degrees, clustering and
mapping execute sequentially, exactly as in the paper's pipeline) or —
with ``parallel_phase1=True`` — sharded through the same runner session:
workers stream disjoint shard windows computing partial degree vectors
and clustering moves, merged at every barrier by the associative Phase-1
merge ops of the kernel layer (``merge_phase1_degrees`` /
``merge_phase1_clustering``; see :mod:`repro.kernels` for the exact fold
semantics).  Like Phase-2 staleness, parallel clustering is a *quality*
knob at ``n_workers > 1`` (each worker clusters against the global
clustering of the last barrier) but a pure execution knob at
``n_workers = 1``, where it stays bit-exact with the sequential
pipeline.

:class:`ParallelTwoPhase` reruns the one 2PS-L pipeline of
:class:`~repro.core.partitioner.TwoPhasePartitioner` on the sessions of
a pluggable **runner** (:mod:`repro.core.runners`): ``"serial"`` and
``"simulated"`` — the default — run every worker in process, and
``"process"`` runs worker 0 in process and the other workers as forked
local worker processes, each over a socketpair, or, given ``host:port``
specs (:class:`~repro.core.runners.ProcessRunner`), every worker in a
worker server.  All drive the one deterministic sync-window schedule through
the same worker handlers.  The runner choice is a pure execution knob;
which results are bit-exact across runners, backends and worker counts,
and why, is stated once, in :mod:`repro.core.runners`.  The simulated
runner's parallel wall-clock in ``extras`` is *modeled* as
``sequential_phase2 / n_workers + syncs * sync_latency``; the process
runner *measures* it.

Note on balance: each worker enforces the cap against its *stale* size
view, so within one sync window the global partition sizes can overshoot
``alpha * |E| / k`` slightly — the same effect a real CuSP deployment
shows.  The measured alpha is reported in the result as usual.
"""

from __future__ import annotations

from contextlib import closing

from repro.core.partitioner import TwoPhasePartitioner
from repro.core.partitioner import graham_schedule, run_phase1  # noqa: F401
from repro.core.runners import Runner, SerialRunner, make_runner
from repro.errors import ConfigurationError


class ParallelTwoPhase(TwoPhasePartitioner):
    """Sharded 2PS-L / 2PS-HDRF with periodic state synchronization.

    Parameters
    ----------
    n_workers:
        Parallel partitioner instances (stream shards).
    sync_interval:
        Edges each worker processes between state synchronizations; larger
        means staler replica/size views and lower quality.
    sync_latency:
        Modeled seconds per synchronization barrier (used by the
        simulated runner's parallel wall-clock estimate in ``extras``).
    runner:
        Execution runner: ``"serial"``, ``"simulated"`` (default),
        ``"process"``, or a :class:`~repro.core.runners.Runner` instance
        (a :class:`~repro.core.runners.ProcessRunner` with ``workers``
        for worker servers at ``host:port``).  A pure execution
        knob — results are bit-identical across runners under the same
        schedule (see :mod:`repro.core.runners`).
    parallel_phase1:
        When True, the degree and clustering passes are sharded through
        the runner session too (partial degree vectors summed; clustering
        windows folded at barriers via the kernel-layer Phase-1 merge
        ops).  Bit-exact with the sequential Phase 1 at ``n_workers=1``;
        a staleness/quality knob beyond that, exactly like Phase 2.  The
        serial runner runs Phase 1 sequentially regardless.
    task_timeout:
        Knob of the process runner: the seconds any worker reply may
        take; ignored by the other runners.

    The remaining parameters are those of
    :class:`~repro.core.partitioner.TwoPhasePartitioner`; with
    ``packed_state`` every worker view is bit-packed too.
    """

    def __init__(
        self,
        n_workers: int = 4,
        sync_interval: int = 1024,
        clustering_passes: int = 1,
        volume_cap_factor: float = 0.5,
        mode: str = "linear",
        hdrf_lambda: float = 1.1,
        sync_latency: float = 0.001,
        hash_seed: int = 0,
        backend: str | None = None,
        chunk_size: int | None = None,
        runner: str | Runner = "simulated",
        parallel_phase1: bool = False,
        task_timeout: float = 600.0,
        packed_state: bool = False,
    ) -> None:
        if n_workers < 1:
            raise ConfigurationError(f"n_workers must be >= 1, got {n_workers}")
        if sync_interval < 1:
            raise ConfigurationError(
                f"sync_interval must be >= 1, got {sync_interval}"
            )
        super().__init__(
            clustering_passes=clustering_passes,
            volume_cap_factor=volume_cap_factor,
            mode=mode,
            hdrf_lambda=hdrf_lambda,
            hash_seed=hash_seed,
            keep_state=False,
            backend=backend,
            chunk_size=chunk_size,
            packed_state=packed_state,
        )
        self.n_workers = int(n_workers)
        self.sync_interval = int(sync_interval)
        self.sync_latency = float(sync_latency)
        self.runner = make_runner(runner, task_timeout=task_timeout)
        self.parallel_phase1 = bool(parallel_phase1)
        self.name = (
            "2PS-L-parallel" if mode == "linear" else "2PS-HDRF-parallel"
        )

    # ------------------------------------------------------------------
    def _open(self, job, stack):
        job.n_workers = self.n_workers
        job.sync_interval = self.sync_interval
        session = stack.enter_context(closing(self.runner.open(job)))
        if self.parallel_phase1:
            return session, session
        return stack.enter_context(closing(SerialRunner().open(job))), session

    def _extras(self, session, timer, syncs, phase1_syncs) -> dict:
        phase2_seconds = timer.totals.get("prepartition", 0.0) + (
            timer.totals.get("partitioning", 0.0)
        )
        wire_stats = session.transport.wire_stats()
        return {
            "n_workers": self.n_workers,
            "sync_interval": self.sync_interval,
            "syncs": syncs,
            "runner": self.runner.kind,
            "parallel_wall_s": self.runner.parallel_wall_seconds(
                phase2_seconds, self.n_workers, syncs, self.sync_latency
            ),
            "measured_wallclock": self.runner.measures_wallclock,
            "parallel_phase1": self.parallel_phase1,
            "phase1_syncs": phase1_syncs,
            # Replica cells the Phase-2 barriers' set-bit logs wrote
            # versus the n * k cells a full re-broadcast would have
            # written, summed over the barriers.
            "barrier_bytes": session.barrier_cells,
            "barrier_bytes_full": session.barrier_full_cells,
            # Process sessions also report actual socket traffic
            # (frame bytes both ways, barrier logs vs what a full
            # state re-broadcast would have shipped).
            **({"wire": wire_stats} if wire_stats else {}),
        }
