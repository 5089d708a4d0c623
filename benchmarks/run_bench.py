"""Kernel-backend + parallel-runner benchmarks -> BENCH_kernels.json
and BENCH_parallel.json.

Runs three kernel-routed pipelines with every registered backend (the
``python`` reference, and ``c`` where it builds) on a synthetic R-MAT
graph (Graph500 generator, >= 1M edges at the default scale), verifies
the backends produce bit-identical partitionings, and records per-phase
wall times and edges/sec so the perf trajectory of the kernel layer is
tracked from PR to PR:

- ``2psl``     — sequential 2PS-L (``TwoPhasePartitioner``)
- ``2pshdrf``  — sequential 2PS-HDRF (``mode="hdrf"``)
- ``parallel`` — sharded ``ParallelTwoPhase`` (kernel-dispatched windows)

It then runs the **parallel wall-clock** section: the sharded path with
``runner="process"`` (worker 0 in this process, its view the global
state, and true forked ``multiprocessing`` workers, each over a
socketpair and holding its own ``PartitionState`` view) against the
sequential python Phase-2 time, into ``BENCH_parallel.json``.

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py [--scale 16] [--k 32] \
        [--out BENCH_kernels.json] [--smoke]

Timing: every section times its runs in interleaved rounds
(:func:`interleaved_rounds`).  A round runs each of the section's runs
once, back to back, in reverse order every other round, and checks every
result bit for bit; so a change in host speed moves both sides of a
round's ratio.  Every ratio gate reads the median of its per-round ratios
(:func:`ratio_gate`) and records them (``round_ratios``) with each side's
median seconds, and every pipeline row records each phase's median.  No
gate or row keeps the fastest of several runs.  Each section runs at
least :data:`MIN_ROUNDS` rounds, smoke included; ``--repeats`` raises it.

Exit status is non-zero unless every gate passes:

- correctness gates: all backends bit-identical per pipeline,
  ``ParallelTwoPhase(n_workers=1)`` bit-exact with sequential 2PS-L, the
  process runner bit-identical with the simulated runner under the same
  sync schedule (assignments, replicas, sizes, cost counters), and no
  socket or worker process left after the process-runner runs;
- parallel wall-clock gate: *measured* Phase-2 speedup of the process
  runner at ``--n-workers`` (default 4) >= 1.8x sequential python.  The
  speedup gate is enforced only when the machine exposes at least
  ``n_workers`` usable CPUs — a 4-way wall-clock speedup cannot exist on
  fewer cores, so constrained hosts record the measurement with the gate
  marked ``skipped`` (the correctness gates above always apply).  This
  and the other wall-clock sections below gate the ``python`` backend,
  the fallback on hosts without a C compiler (its vectorized degree pass
  and Phase-1 merges are the code their gates were defined on), and
  record the same ratios for ``c`` ungated (its sequential side is an
  order of magnitude faster);
- phase-1 wall-clock gate (``phase1_wallclock`` section): *measured*
  Phase-1 (degree + clustering) speedup of the sharded Phase 1
  (``parallel_phase1=True``) through the process runner >= 1.5x at
  ``--n-workers``, with the same CPU-count skip rule, plus the
  bit-exactness gates (``n_workers=1`` == sequential, process ==
  simulated under the same schedule);
- barrier-bytes gate (always enforced): the set-bit log barriers must
  write strictly fewer replica-matrix cells than a full re-broadcast
  (``barrier_bytes`` section);
- received-bytes gate (always enforced): the coordinator of each process
  run, with and without ``parallel_phase1``, receives fewer than 8 wire
  bytes per edge (``received_bytes`` section): two int32 assignments
  per edge, which the Phase-2 results alone shipped before the workers
  kept their assignments;
- socket-worker gates (``socket_workers`` section of
  ``BENCH_parallel.json``): the process runner's barriers must ship
  strictly fewer replica-plane bytes through its forked socket
  workers than a full-state re-broadcast, on dense state (the process
  runs of the rounds) and on bit-packed state (one more run, bit-exact
  with the simulated runner), and leak no socket or worker process (all
  always enforced); the same rounds' measured Phase-2 wall-clock of the
  process runner vs sequential python is also gated at a lower bar that
  is enforced on hosts with >= 2 usable CPUs and recorded-but-skipped
  elsewhere.  The sequential, process and sharded-Phase-1 runs of this
  file, and their ``c`` twins, share one set of rounds;
- out-of-core gates (``BENCH_storage.json``): the graph is generated
  straight to disk (:func:`repro.graph.generators.rmat_edge_file`, never
  holding the edge array in RAM) and partitioned from the file.  The
  bit-packed replica state must shrink peak state bytes >= 6x vs the
  dense bool matrix at the default ``k=32`` (always enforced), packed
  and dense — and prefetching and synchronous file streams, and the
  process runner over both — must stay bit-identical (always enforced),
  the packed run's ``partitioning`` phase may take at most 1.3x the
  dense run's (2.0x at smoke scale; always enforced), and the
  double-buffered prefetching stream must beat the synchronous stream's
  wall-clock.  The prefetch-overlap gate needs a second CPU for the
  reader thread to overlap with compute, so single-CPU hosts
  record-but-skip it, like the parallel wall-clock gates;
- c gates (``c`` section of ``BENCH_kernels.json``): the compiled ``c``
  backend against ``python`` from the rounds the pipeline loop already
  ran — the 2PS-L degree pass, clustering, cluster mapping and total,
  the pre-partition pass (>= 5x, 3x at smoke scale), the 2PS-L
  remaining pass (>= 17.1x, 6x at smoke scale) and the 2PS-HDRF
  remaining pass (>= 65x, 10x at smoke scale) — plus, against
  ``python`` and bit-identical with it, the 2PS-L remaining pass over
  hub-heavy R-MAT and the Phase-2 barrier op (``apply_replica_log``)
  on dense and packed state (``2**scale`` rows, the global state and
  two views, logs that touch 41% of the rows, the traffic of a
  two-worker run).
  The gate **records-but-skips** when ``c`` is unavailable (no working C
  compiler), so compiler-free environments keep an authoritative BENCH
  file without a red gate;
- HDRF-baseline gate (``hdrf_baseline`` section of
  ``BENCH_kernels.json``): the kernel-routed HDRF baseline's ``c_leg``
  must reach >= 45x the per-edge ``python`` reference on the
  partitioning pass of the >= 1M-edge R-MAT (4.5x at smoke scale),
  bit-identical with it, and records-but-skips when ``c`` is
  unavailable — same rule as the c section;
- serving gates (``BENCH_serving.json``): the main run is persisted as a
  :class:`~repro.serving.store.PartitionStore`, reopened memory-mapped,
  and a seeded closed-loop load generator drives the
  :class:`~repro.serving.service.LookupService` (hot-set-skewed vertex
  routing, edge lookups with misses).  Every sampled lookup must be
  bit-exact with the in-memory result and the CRC-32 sweep must pass
  (always enforced); the batched-numpy path must reach >= 10x the
  scalar path's lookups/s (always enforced — a same-host ratio, timed
  inside one closed loop rather than in rounds); and absolute
  lookups/s floors on both paths are enforced only on hosts
  with >= 2 usable CPUs, recorded-but-skipped elsewhere, like the
  parallel wall-clock gates.

The full run also records the ungated ``scale`` section of
``BENCH_kernels.json``: 2PS-L on ``c`` at R-MAT scales 16, 18 and 20, in
memory, on dense and packed state, with edges/s and ns per edge of each
phase, as the per-vertex state outgrows the caches.

``--smoke`` runs the same gates at a reduced scale (65k edges) with
proportionally relaxed speedup thresholds, in as many rounds as the full
run, so CI can check the kernel layer in seconds without the full
1M-edge run.  ``--record-only``
(the nightly trend-tracking mode) records every gate outcome in the
BENCH payloads but only correctness failures affect the exit status.
The ``BENCH_*.json`` / ``BENCH_*_smoke.json`` files at the repo root
are **committed artifacts** — the authoritative per-PR snapshots of
these payloads.  After touching the kernel or runner layers, regenerate
them (full tier plus ``--smoke``) and commit the diff alongside the
code change so the trend line stays truthful.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import tempfile
import time

import numpy as np

from repro.core import ParallelTwoPhase, TwoPhasePartitioner
from repro.core.distributed import (
    live_connections,
    live_worker_processes,
    take_news,
)
from repro.core.runners import merge_sizes
from repro.graph.generators import rmat_edge_file, rmat_graph
from repro.kernels import DEFAULT_BACKEND, available_backends, get_backend
from repro.partitioning.state import PartitionState, _replica_plane
from repro.streaming import FileEdgeStream, InMemoryEdgeStream

#: Measured Phase-2 speedup the process runner must reach at --n-workers
#: (ISSUE 3 acceptance gate).  The smoke threshold only asserts the
#: machinery is not pathologically slow: at 65k edges the per-window
#: compute is too small to amortize worker dispatch.
PARALLEL_GATE = 1.8
PARALLEL_SMOKE_GATE = 0.2

#: Measured Phase-1 (degree + clustering) speedup of the sharded Phase 1
#: through the process runner (ISSUE 4 acceptance gate; enforced only on
#: hosts with >= --n-workers usable CPUs, like the Phase-2 gate).
PHASE1_GATE = 1.5
PHASE1_SMOKE_GATE = 0.15

#: Measured Phase-2 speedup of the process runner, whose workers past
#: worker 0 are forked socket workers, vs sequential python, read
#: from the same rounds as :data:`PARALLEL_GATE` but enforced on hosts
#: with >= 2 usable CPUs (below that the wire round-trips have no spare
#: core to overlap with).  The bar is modest: the section's point is
#: that the wire protocol does not erase the sharded speedup.  The smoke
#: threshold only asserts the machinery is not pathologically slow.
SOCKET_GATE = 1.05
SOCKET_SMOKE_GATE = 0.02

#: Bytes a process run's coordinator may receive per edge (always
#: enforced, at every scale): fewer than two int32 assignments, which
#: the Phase-2 window results alone shipped while every window returned
#: its assignment slice.  Workers keep their shard's assignments and
#: ship each shard once, in one byte per edge while k <= 256.
RECEIVED_BYTES_PER_EDGE = 8.0

#: Speedups of the compiled backend over the python reference, read
#: from the pipeline rows: {config: {phase: threshold}}, ``total``
#: being the whole run.  The degree, clustering and mapping thresholds
#: were set against the numpy backend, since folded into python:
#: python now runs numpy's degree pass, and numpy ran python's
#: clustering and mapping, so they read against python at the same
#: values.  They sit at about 80% of the lowest full-scale reading on
#: a 2-vCPU Xeon host (38x clustering, of two readings; 3.75x on the
#: cluster mapping, of readings of 7.44x, 4.20x and 3.75x: the numpy
#: sort both backends share takes a good part of c's 0.002-0.003 s;
#: 1.25x on the degree pass, of readings of 1.25x, 2.48x and 1.40x,
#: where both sides count into an L2-resident array and c's 4.5-5 ms
#: varied little while numpy's 6.2-11.4 ms did), and no lower than 10x
#: on clustering.  The other rows were gated against python before,
#: each at an equal bar: its threshold against numpy when numpy still
#: batched its own remaining passes, times what numpy then stood
#: against python.  The 2PS-L remaining pass chains two gates: c >=
#: 9.5x numpy (80% of a 12.3x reading) and numpy >= 1.8x python, so
#: 17.1x (smoke: 5.0x and 1.2x, so 6.0x).  2PS-L total chains c >= 10x
#: numpy with the lowest numpy-over-python total of three full runs
#: (2.45x, 2.68x and 2.76x), so 24.5x (smoke: 5x times the lowest of
#: 1.66x, 2.17x and 1.57x, so 7.86x).  The 2PS-HDRF remaining pass
#: chains c >= 13x numpy and numpy >= 5x python, so 65x (smoke: 5x and
#: 2x, so 10x); it read 201x (full) and 166x (smoke) against python.
#: The pre-partition pass keeps the bar of the numpy-vs-python gate it
#: replaces, 5x (smoke 3x), now on c, which read 73.3x (full) and
#: 97.1x (smoke) against python while numpy still vectorized the pass.
#: The smoke thresholds are relaxed: at 65k edges a c pass lasts a few
#: milliseconds, and the mapping of about a thousand clusters well
#: under one, where timer noise weighs more (the degree pass read
#: 1.58x, 1.45x and 1.14x there).  These readings were each phase's
#: best of several runs per side, one side after the other.
C_GATES = {
    "2psl": {
        "degree": 1.0,
        "clustering": 30.0,
        "mapping": 3.0,
        "total": 24.5,
        "prepartition": 5.0,
        "partitioning": 17.1,
    },
    "2pshdrf": {"partitioning": 65.0},
}
C_SMOKE_GATES = {
    "2psl": {
        "degree": 0.9,
        "clustering": 10.0,
        "mapping": 1.5,
        "total": 7.86,
        "prepartition": 3.0,
        "partitioning": 6.0,
    },
    "2pshdrf": {"partitioning": 10.0},
}

#: c-vs-python speedups of the Phase-2 barrier op
#: (``apply_replica_log``) per replica layout, on ``2**scale`` rows at
#: k=32: one two-worker barrier applies worker 1's set-bit log to the
#: global state, which is worker 0's view, and worker 0's to worker 1's
#: view, each barrier on a fresh fixture.  The thresholds
#: are those of the dirty-row merge this op replaced, which were set
#: against the numpy backend (it ran python's merge): the full ones at
#: about 80% of the lowest of three full-scale readings, each the best
#: of several barriers per side (dense 4.30x, 2.95x and 4.55x; packed
#: 5.83x, 7.13x and 5.15x); the smoke ones at about half of two smoke
#: readings (2.6-3.2x).
C_BARRIER_GATES = {"dense": 2.3, "packed": 4.2}
C_BARRIER_SMOKE_GATES = {"dense": 1.5, "packed": 1.5}

#: Barriers one run of the barrier row applies, each on a fresh fixture,
#: its seconds their sum: one barrier lasts well under a millisecond,
#: short enough for host noise to swing one reading.
BARRIER_MERGES = 8

#: Share of rows the barrier row's two logs touch: a traced two-worker
#: run (``sharded-2w``, seed 1) wrote into 40.8% of its rows per
#: barrier.
BARRIER_DIRTY_SHARE = 0.41

#: c-vs-python speedup of the 2PS-L remaining pass on hub-heavy R-MAT,
#: at an equal bar to the c-vs-numpy gate of 2.0x it replaces (which
#: read 28x at full scale): 2.0x times the lowest numpy-over-python
#: reading of the pass, of three runs of the row while numpy still
#: batched its remaining pass (2.09x, 2.64x and 1.87x, so 3.74x; smoke:
#: 1.75x, 1.79x and 1.72x, so 3.45x).
C_HUB_GATE = 3.74
C_HUB_SMOKE_GATE = 3.45

#: c-vs-python speedup of the HDRF baseline pass (its ``c_leg``): the
#: product of the two gates it replaces, numpy >= 3x python and c >= 15x
#: numpy (smoke: 1.5x and 3x, so 4.5x); the pass read 159x (full) and
#: 171x (smoke) against python.
C_HDRF_BASELINE_GATE = 45.0
C_HDRF_BASELINE_SMOKE_GATE = 4.5

#: Peak-state-bytes reduction the bit-packed replica matrix must reach
#: against the dense bool matrix at the default k=32 (ISSUE 7 acceptance
#: gate; always enforced — the ratio is a storage-layout fact, not a
#: wall-clock measurement, so host throughput cannot hide a regression).
STORAGE_REDUCTION_GATE = 6.0

#: Ceiling on the packed/dense ``partitioning`` phase-seconds ratio of the
#: file-stream runs: the serial per-edge loops address the raw storage
#: plane in both layouts, so bit-packing may not slow the remaining pass
#: down (ROADMAP 2(a) gate; always enforced — both runs of a round share
#: the host, back to back).  Smoke scale is looser: its pass lasts a few
#: tens of milliseconds, where timer noise weighs more.
PACKED_PHASE_GATE = 1.3
PACKED_PHASE_SMOKE_GATE = 2.0

#: Wall-clock gain the double-buffered prefetching file stream must show
#: over the synchronous stream (reader thread overlaps decode + I/O with
#: kernel compute).  Needs a second CPU to overlap anything, so the gate
#: records-but-skips on single-CPU hosts.  The smoke threshold only
#: asserts prefetching is not pathologically slow: at 65k edges the
#: per-chunk compute is too small to hide behind.
PREFETCH_GATE = 1.02
PREFETCH_SMOKE_GATE = 0.3

#: Batched-over-scalar throughput ratio the lookup service must reach
#: (ISSUE 9 acceptance gate; always enforced — both paths run on the
#: same host back to back, so the ratio is host-independent).  The
#: vectorized row-gather path beats the per-call python loop by ~two
#: orders of magnitude; 10x leaves generous headroom.
SERVING_BATCH_GATE = 10.0
SERVING_BATCH_SMOKE_GATE = 10.0

#: Absolute lookup-throughput floors (lookups/s) of the closed-loop load
#: generator.  Wall-clock floors are host-dependent, so — like the
#: parallel wall-clock gates — they are enforced only on hosts with
#: >= 2 usable CPUs and record-but-skip elsewhere.  Floors sit ~4x
#: below the measured container numbers, so they catch an
#: order-of-magnitude serving regression without flaking on slow CI.
SERVING_SCALAR_QPS_GATE = 20_000.0
SERVING_SCALAR_QPS_SMOKE_GATE = 10_000.0
SERVING_BATCHED_QPS_GATE = 1_000_000.0
SERVING_BATCHED_QPS_SMOKE_GATE = 400_000.0

#: R-MAT scales of the ungated ``scale`` section (full run only): 2PS-L
#: on ``c`` as the per-vertex state outgrows L2 (scale 16 fits it on a
#: 2 MiB-L2 host).
SCALE_SECTION_SCALES = (16, 18, 20)

#: Fewest interleaved rounds of every timed section, smoke included (a
#: larger ``--repeats`` runs more): each ratio gate reads the median of
#: its per-round ratios, and a median needs three rounds to outvote one
#: slow round.
MIN_ROUNDS = 3

#: Timings a ratio reads as one: the two passes of each phase.
PHASE1 = ("degree", "clustering")
PHASE2 = ("prepartition", "partitioning")

SMOKE_SCALE = 12


def usable_cpus() -> int:
    """CPUs this process may schedule on (affinity-aware)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def same_bits(a, b) -> bool:
    """Whether two runs' results are bit-identical: a partition result's
    assignments, replica bits, partition sizes and cost counters, and any
    other result (a barrier's merged rows and state bytes) by ``==``."""
    if not hasattr(a, "assignments"):
        return a == b
    return (
        np.array_equal(a.assignments, b.assignments)
        and np.array_equal(a.state.replicas, b.state.replicas)
        and np.array_equal(a.state.sizes, b.state.sizes)
        and a.cost == b.cost
    )


def assert_bit_exact(reference, other, label: str) -> None:
    if not same_bits(reference, other):
        raise SystemExit(f"equality gate failed: {label}")


def interleaved_rounds(label: str, runs: dict, rounds: int, expected=None):
    """Run each of ``runs`` once per round: in their given order in even
    rounds and reversed in odd ones, so that no run always goes first.

    ``runs`` maps a name to a zero-argument callable returning ``(result,
    seconds)``, ``seconds`` a dict of named timings.  Every result must
    be bit-identical (:func:`same_bits`) with ``expected[name]`` or,
    where ``expected`` names no result, with the first run's result of
    round one.  Returns each run's round-one result and its ``seconds``
    in round order.
    """
    names = list(runs)
    expected = expected or {}
    results = {}
    times = {name: [] for name in names}
    for r in range(rounds):
        for name in names if r % 2 == 0 else names[::-1]:
            result, seconds = runs[name]()
            reference = expected.get(name, results.get(names[0], result))
            if not same_bits(reference, result):
                raise SystemExit(
                    f"equality gate failed: {label}: {name} in round {r + 1}"
                )
            results.setdefault(name, result)
            times[name].append(seconds)
    return results, times


def partition_run(make, stream, args):
    """A run of :func:`interleaved_rounds`: one ``make().partition()``
    of ``stream``, timed as its wall seconds (``total``) and the seconds
    of each of its phases."""

    def run():
        partitioner = make()
        start = time.perf_counter()
        result = partitioner.partition(stream, args.k, alpha=args.alpha)
        total = time.perf_counter() - start
        return result, {"total": total, **result.timer.totals}

    return run


def round_ratio(times, num: str, den: str, key) -> dict:
    """Run ``num``'s over run ``den``'s seconds of timing ``key`` (a
    name, or a tuple of names summed) in each round of
    :func:`interleaved_rounds`: the median ratio, the per-round ratios
    and each side's median seconds."""
    names = key if isinstance(key, tuple) else (key,)
    num_s, den_s = (
        [sum(t[name] for name in names) for t in times[run]] for run in (num, den)
    )
    ratios = [n / d if d > 0 else 0.0 for n, d in zip(num_s, den_s)]
    return {
        "ratio": round(float(np.median(ratios)), 3),
        "round_ratios": [round(x, 3) for x in ratios],
        "seconds": {
            num: round(float(np.median(num_s)), 6),
            den: round(float(np.median(den_s)), 6),
        },
    }


def ratio_gate(
    label, times, num, den, key, threshold, at_most=False, skip=None
) -> dict:
    """The gate record of :func:`round_ratio`: its median must reach
    ``threshold``, or stay at or below it when ``at_most``.  A ``skip``
    reason records the gate unenforced (``pass: null``).  Prints one
    line."""
    record = round_ratio(times, num, den, key)
    ratio = record["ratio"]
    passed = None if skip else (ratio <= threshold if at_most else ratio >= threshold)
    state = "SKIPPED" if passed is None else ("pass" if passed else "FAIL")
    print(
        f"  {label}: {record['seconds'][num]:.4g}s {num} / "
        f"{record['seconds'][den]:.4g}s {den}, median of "
        f"{len(record['round_ratios'])} round ratios {ratio:.2f}x "
        f"(gate {'<= ' if at_most else ''}{threshold}x: {state})"
    )
    return {
        "threshold": threshold,
        **record,
        "enforced": skip is None,
        "pass": passed,
        "skipped_reason": skip,
    }


def gates_pass(gates) -> bool:
    """Whether none of ``gates`` failed (a skipped gate does not)."""
    return all(gate["pass"] is not False for gate in gates)


def pipeline_row(result, seconds) -> dict:
    """One run's row: the median over the rounds of its total and of
    each phase, as seconds and edges/s."""
    m = result.n_edges
    medians = {
        name: float(np.median([t[name] for t in seconds])) for name in seconds[0]
    }
    total = medians.pop("total")
    return {
        "total_seconds": round(total, 4),
        "total_edges_per_s": round(m / total),
        "phase_seconds": {name: round(s, 6) for name, s in medians.items()},
        "phase_edges_per_s": {
            name: round(m / s) if s > 0 else None for name, s in medians.items()
        },
        "replication_factor": round(result.replication_factor, 4),
        "measured_alpha": round(result.measured_alpha, 4),
    }


def backend_rows(label, make, stream, backends, args, rounds):
    """``make(backend)`` on each of ``backends`` in shared rounds, every
    result bit-identical with the first backend's; returns the results,
    the per-round timings and each backend's :func:`pipeline_row`."""
    results, times = interleaved_rounds(
        label,
        {b: partition_run(lambda b=b: make(b), stream, args) for b in backends},
        rounds,
    )
    return results, times, {b: pipeline_row(results[b], times[b]) for b in backends}


def c_gate_rows(gates):
    """``(config, phase, threshold)`` of every pipeline-row gate of the
    ``c`` section (:data:`C_GATES`)."""
    for name, phases in gates.items():
        for phase, threshold in phases.items():
            yield name, phase, threshold


def c_unavailable() -> str | None:
    """Why the ``c`` backend is unavailable here (``None`` when it is)."""
    from repro.kernels import missing_backends

    if "c" in available_backends():
        return None
    return missing_backends().get("c", "c is not registered")


def skipped_gate(threshold, reason: str) -> dict:
    return {
        "threshold": threshold,
        "ratio": None,
        "enforced": False,
        "pass": None,
        "skipped_reason": f"c unavailable on this host: {reason}",
    }


def barrier_fixture(n: int, k: int, packed: bool, seed: int):
    """The two worker views of one two-worker Phase-2 barrier and their
    windows' set-bit logs, built afresh from ``seed`` on every call.
    Worker 0's view is the global state.

    Both views start from the same random replica bits; each then sets
    one bit in a random share of the rows, chosen so that
    :data:`BARRIER_DIRTY_SHARE` of the rows get a bit from some view,
    and logs each one that was clear in it, as the int64 cells its
    window reply carries.  Returns the views and those logs.
    """
    rng = np.random.default_rng(seed)
    rows, cols = np.nonzero(rng.random((n, k)) < 0.05)
    share = 1.0 - (1.0 - BARRIER_DIRTY_SHARE) ** 0.5
    views, logs = [], []
    for _ in range(2):
        view = PartitionState(n, k, 16 * n, packed=packed)
        view.replicas[rows, cols] = True
        touched = np.flatnonzero(rng.random(n) < share)
        ps = rng.integers(0, k, size=touched.size)
        fresh = ~np.asarray(view.replicas[touched, ps])
        view.replicas[touched, ps] = True
        cells = touched[fresh] * k + ps[fresh]
        views.append(view)
        logs.append(cells.astype(np.int64))
    return views, logs


def barrier_run(backend: str, fixture):
    """A run of :func:`interleaved_rounds`: :data:`BARRIER_MERGES`
    barriers, each the transport's own on a fresh
    ``barrier_fixture(*fixture)``: the sizes merge
    (:func:`~repro.core.runners.merge_sizes`), the global state, worker
    0's view, takes worker 1's log, and worker 1's view takes its news,
    worker 0's log, each with
    :func:`~repro.core.distributed.take_news`, all timed together as
    ``merge``; its result is the last barrier's cell count and both
    views' replica planes after it."""
    kernels = get_backend(backend)

    def run():
        seconds = 0.0
        for _ in range(BARRIER_MERGES):
            views, logs = barrier_fixture(*fixture)
            base = np.zeros_like(views[0].sizes)
            start = time.perf_counter()
            sizes = merge_sizes(base, [view.sizes for view in views])
            take_news(kernels, views[0], {"log": logs[1], "sizes": sizes})
            take_news(kernels, views[1], {"log": logs[0], "sizes": sizes})
            seconds += time.perf_counter() - start
        planes = [_replica_plane(view.replicas)[0].tobytes() for view in views]
        return (sum(len(log) for log in logs), *planes), {"merge": seconds}

    return run


def run_barrier_rows(args, scale: int, smoke: bool, rounds: int):
    """The Phase-2 barrier op, c against python, dense and packed, the
    two backends of each layout in shared rounds, their planes
    byte-identical in every round.  Returns ``(record, gates)``."""
    thresholds = C_BARRIER_SMOKE_GATES if smoke else C_BARRIER_GATES
    n = 1 << scale
    record = {
        "op": "apply_replica_log",
        "barrier": "take_news: the global state (worker 0's view) takes "
        "worker 1's log, worker 1's view worker 0's",
        "n_rows": n,
        "k": args.k,
        "views": 2,
        "touched_share": BARRIER_DIRTY_SHARE,
        "merges_per_run": BARRIER_MERGES,
        "rounds": rounds,
    }
    gates = {}
    for layout, threshold in thresholds.items():
        fixture = (n, args.k, layout == "packed", args.seed)
        results, times = interleaved_rounds(
            f"{layout} barrier, c vs python",
            {b: barrier_run(b, fixture) for b in ("python", "c")},
            rounds,
        )
        cells = int(results["c"][0])
        record[layout] = {"cells_logged": cells}
        gates[f"phase2_barrier.{layout}"] = ratio_gate(
            f"c phase-2 barrier ({layout}, {cells:,} logged cells, {n:,} rows)",
            times,
            "python",
            "c",
            "merge",
            threshold,
        )
    return record, gates


def run_c_section(
    args, scale: int, smoke: bool, times: dict, rounds: int
) -> tuple[dict, bool]:
    """The gated ``c`` section of ``BENCH_kernels.json``.

    Reads the per-round ratios of the pipeline rounds in ``times`` (by
    config) against ``C_GATES``, each ``c`` over ``python``, then times the
    2PS-L remaining pass over hub-heavy R-MAT (skewed quadrant mass: hubs
    recur in nearly every chunk) on python and c, bit-identical, and the
    Phase-2 barrier op (:func:`run_barrier_rows`).  When ``c`` is
    unavailable the section records the reason and every gate is marked
    skipped (``pass: null``), like the CPU-count rule of the wall-clock
    gates.  Returns ``(section, ok)``.
    """
    gates = C_SMOKE_GATES if smoke else C_GATES
    hub_threshold = C_HUB_SMOKE_GATE if smoke else C_HUB_GATE
    section = {
        "benchmark": "compiled c kernels vs python (2PS-L degree, "
        "clustering, mapping and total, the pre-partition pass, the 2PS-L "
        "and 2PS-HDRF remaining passes, the 2PS-L remaining pass on "
        "hub-heavy R-MAT, the Phase-2 barrier op)",
        "hub_heavy_graph": {
            "generator": "rmat-hub-heavy",
            "scale": scale,
            "edge_factor": args.edge_factor,
            "a": 0.7,
            "b": 0.12,
            "c": 0.12,
            "seed": args.seed,
        },
        "k": args.k,
        "alpha": args.alpha,
    }
    reason = c_unavailable()
    if reason is not None:
        # Checked before the graph exists: no point generating a
        # million-edge R-MAT just to record a skipped gate.
        section["available"] = False
        section["reason"] = reason
        section["gates"] = {
            f"{name}.{phase}": skipped_gate(threshold, reason)
            for name, phase, threshold in c_gate_rows(gates)
        }
        section["gates"]["hub_heavy.partitioning"] = skipped_gate(
            hub_threshold, reason
        )
        barrier_gates = C_BARRIER_SMOKE_GATES if smoke else C_BARRIER_GATES
        for layout, threshold in barrier_gates.items():
            section["gates"][f"phase2_barrier.{layout}"] = skipped_gate(
                threshold, reason
            )
        print(f"  c section: SKIPPED (recorded; {reason})")
        return section, True

    section["available"] = True
    section["gates"] = {
        f"{name}.{phase}": ratio_gate(
            f"c {name}.{phase}", times[name], "python", "c", phase, threshold
        )
        for name, phase, threshold in c_gate_rows(gates)
    }
    graph = rmat_graph(
        scale, edge_factor=args.edge_factor, a=0.7, b=0.12, c=0.12, seed=args.seed
    )
    section["hub_heavy_graph"]["n_vertices"] = graph.n_vertices
    section["hub_heavy_graph"]["n_edges"] = graph.n_edges
    _, hub_times, section["hub_heavy_backends"] = backend_rows(
        "c section: c vs python on hub-heavy R-MAT",
        lambda backend: TwoPhasePartitioner(backend=backend),
        InMemoryEdgeStream(graph),
        ("python", "c"),
        args,
        rounds,
    )
    section["bit_exact_with_python"] = True
    section["gates"]["hub_heavy.partitioning"] = ratio_gate(
        "c remaining pass (hub-heavy)",
        hub_times,
        "python",
        "c",
        "partitioning",
        hub_threshold,
    )
    section["phase2_barrier"], barrier_gates = run_barrier_rows(
        args, scale, smoke, rounds
    )
    section["gates"].update(barrier_gates)
    return section, gates_pass(section["gates"].values())


def run_hdrf_baseline_section(
    args, stream, smoke: bool, rounds: int
) -> tuple[dict, bool]:
    """The gated ``hdrf_baseline`` section of ``BENCH_kernels.json``.

    Runs the kernel-routed HDRF baseline (``repro.baselines.HDRF``) on
    the main R-MAT stream with the ``python`` per-edge reference and the
    compiled ``c`` backend in shared rounds.  The ``c_leg`` must be
    bit-identical with the reference (including the simulated cost
    counters) and reach >= ``C_HDRF_BASELINE_GATE``x ``python`` on the
    partitioning pass.  When ``c`` is unavailable the section records
    the reason and a skipped gate without running either leg, like the c
    section.  Returns ``(section, ok)``.
    """
    from repro.baselines import HDRF

    c_threshold = C_HDRF_BASELINE_SMOKE_GATE if smoke else C_HDRF_BASELINE_GATE
    section = {
        "benchmark": "HDRF baseline: compiled c vs the per-edge reference "
        "(kernel-routed)",
        "k": args.k,
        "alpha": args.alpha,
    }
    reason = c_unavailable()
    if reason is not None:
        section["c_leg"] = {
            "available": False,
            "gate": skipped_gate(c_threshold, reason),
        }
        print(f"  hdrf baseline section: SKIPPED (recorded; {reason})")
        return section, True
    _, times, section["backends"] = backend_rows(
        "hdrf_baseline: backend 'c' vs python reference",
        lambda backend: HDRF(backend=backend),
        stream,
        ("python", "c"),
        args,
        rounds,
    )
    gate = ratio_gate(
        "hdrf baseline pass", times, "python", "c", "partitioning", c_threshold
    )
    section["bit_exact_with_python"] = True
    section["c_leg"] = {"available": True, "gate": gate}
    return section, gate["pass"]


def run_scale_section(args, rounds: int) -> dict:
    """The ungated ``scale`` section of ``BENCH_kernels.json`` (full run
    only).

    2PS-L on ``c`` at each of ``SCALE_SECTION_SCALES``, from an
    in-memory stream, dense and packed state in shared rounds,
    bit-identical.  Each row holds each layout's median edges/s and the
    median ns per edge of every phase; ``edges_per_s_ratio`` divides the
    largest scale's edges/s by the smallest's, per layout.  Records the
    reason and nothing else when ``c`` is unavailable.
    """
    section = {
        "benchmark": "2PS-L on c as |V| outgrows the caches (ungated)",
        "generator": "rmat",
        "edge_factor": args.edge_factor,
        "seed": args.seed,
        "k": args.k,
        "alpha": args.alpha,
        "rounds": rounds,
    }
    reason = c_unavailable()
    if reason is not None:
        section["available"] = False
        section["reason"] = reason
        print(f"  scale section: SKIPPED (recorded; {reason})")
        return section
    section["available"] = True
    layouts = ("dense", "packed")
    rows = {}
    for scale in SCALE_SECTION_SCALES:
        graph = rmat_graph(scale, edge_factor=args.edge_factor, seed=args.seed)
        m = graph.n_edges
        _, _, runs = backend_rows(
            f"scale {scale}: packed vs dense",
            lambda layout: TwoPhasePartitioner(
                backend="c", packed_state=layout == "packed"
            ),
            InMemoryEdgeStream(graph),
            layouts,
            args,
            rounds,
        )
        row = {
            "n_vertices": graph.n_vertices,
            "n_edges": m,
            "identical_assignments": True,
        }
        for layout, run in runs.items():
            ns = {
                name: round(s * 1e9 / m, 2)
                for name, s in run["phase_seconds"].items()
            }
            row[layout] = {
                "total_seconds": run["total_seconds"],
                "edges_per_s": run["total_edges_per_s"],
                "phase_ns_per_edge": ns,
            }
            print(
                f"  scale {scale} ({layout}): {run['total_edges_per_s']:,} "
                "edges/s, ns/edge: "
                + ", ".join(f"{name}={v:.1f}" for name, v in ns.items())
            )
        rows[str(scale)] = row
        del graph
    section["rows"] = rows
    low, high = str(SCALE_SECTION_SCALES[0]), str(SCALE_SECTION_SCALES[-1])
    section["edges_per_s_ratio"] = {
        layout: round(
            rows[high][layout]["edges_per_s"] / rows[low][layout]["edges_per_s"],
            3,
        )
        for layout in layouts
    }
    return section


def run_parallel_wallclock(
    stream, graph, args, sequential, smoke: bool, rounds: int, out: str
) -> bool:
    """Measured wall-clock sections of the sharded runners ->
    ``BENCH_parallel.json``.

    One set of interleaved rounds runs sequential 2PS-L and, at
    ``--n-workers``, the process runner (worker 0 in this process, the
    others forked socket workers) with and without
    ``parallel_phase1``, all on ``python``, plus their ``c`` twins when
    ``c`` is available; every speedup pairs two runs of one round.  Each
    sharded run must be bit-identical with the simulated runner at the
    same schedule, and each sequential run with ``sequential`` (the
    2PS-L pipeline's result).  Run once, outside the rounds: the
    simulated runs, the one-worker pins (process runner with and
    without ``parallel_phase1``), each bit-exact with sequential 2PS-L,
    and a process run on bit-packed state, bit-exact with the simulated
    runner.  Afterwards no socket or worker process may be left (all of
    this always enforced).

    Gates, each on the median of its per-round ratios: the Phase-2 and
    Phase-1 speedups of the process runner over sequential python
    (enforced only on hosts with at least ``n_workers`` usable CPUs), and
    the same Phase-2 speedup at the lower :data:`SOCKET_GATE` (enforced
    only on hosts with >= 2 usable CPUs).  The ``c`` twins record the
    same ratios, ungated.  Always enforced: the Phase-2 barriers'
    set-bit logs write strictly fewer replica cells than a full
    re-broadcast, and the process runner's barriers, on dense state and
    on bit-packed state, ship strictly fewer replica-plane bytes to its
    socket workers (each worker's cells of the other workers'
    logs, or the merged plane where that is fewer bytes) than a
    full-state re-broadcast of the plane and the sizes (the recorded
    ``barrier_delta_bytes`` also counts the sizes), and the coordinator
    of each process run receives fewer than
    :data:`RECEIVED_BYTES_PER_EDGE` wire bytes per edge.  Returns True
    when every applicable gate passes.
    """
    cpus = usable_cpus()
    c_reason = c_unavailable()

    def sharded(backend, runner, phase1, n_workers=args.n_workers, packed=False):
        return ParallelTwoPhase(
            n_workers=n_workers,
            sync_interval=args.sync_interval,
            backend=backend,
            runner=runner,
            parallel_phase1=phase1,
            packed_state=packed,
        )

    def partition(partitioner):
        return partitioner.partition(stream, args.k, alpha=args.alpha)

    simulated = {
        phase1: partition(sharded("python", "simulated", phase1))
        for phase1 in (False, True)
    }
    # The process runs of the rounds: name -> parallel_phase1.
    sharded_runs = {"process": False, "process_phase1": True}
    for name, phase1 in sharded_runs.items():
        assert_bit_exact(
            sequential,
            partition(sharded("python", "process", phase1, n_workers=1)),
            f"{name}: process runner at 1 worker vs sequential 2PS-L",
        )
    # The process barriers on bit-packed state, for the wire gate.
    packed_process = partition(sharded("python", "process", False, packed=True))
    assert_bit_exact(
        simulated[False],
        packed_process,
        "process runner on packed state vs the simulated runner",
    )
    runs, expected = {}, {}
    for backend in ("python",) if c_reason else ("python", "c"):
        prefix = "" if backend == "python" else "c "
        runs[prefix + "sequential"] = partition_run(
            lambda backend=backend: TwoPhasePartitioner(backend=backend),
            stream,
            args,
        )
        expected[prefix + "sequential"] = sequential
        for name, phase1 in sharded_runs.items():
            runs[prefix + name] = partition_run(
                lambda b=backend, p=phase1: sharded(b, "process", p), stream, args
            )
            expected[prefix + name] = simulated[phase1]
    results, times = interleaved_rounds(
        f"sharded runners at {args.n_workers} workers", runs, rounds, expected
    )
    if live_connections() or live_worker_processes():
        raise SystemExit("process: leaked wire connections or worker processes")
    print(
        "  process runs are bit-exact with the simulated runner (and with "
        "sequential 2PS-L at 1 worker); no leaks"
    )

    workers_skip = (
        None
        if cpus >= args.n_workers
        else f"{cpus} usable CPU(s) < n_workers={args.n_workers}: "
        "a wall-clock speedup gate is unmeasurable on this host"
    )
    phase2_gate = ratio_gate(
        f"parallel wall-clock (phase 2, {cpus} cpus)",
        times,
        "sequential",
        "process",
        PHASE2,
        PARALLEL_SMOKE_GATE if smoke else PARALLEL_GATE,
        skip=workers_skip,
    )
    phase1_gate = ratio_gate(
        f"phase-1 wall-clock ({cpus} cpus)",
        times,
        "sequential",
        "process_phase1",
        PHASE1,
        PHASE1_SMOKE_GATE if smoke else PHASE1_GATE,
        skip=workers_skip,
    )
    socket_gate = ratio_gate(
        f"socket-worker wall-clock (phase 2, {cpus} cpus)",
        times,
        "sequential",
        "process",
        PHASE2,
        SOCKET_SMOKE_GATE if smoke else SOCKET_GATE,
        skip=None
        if cpus >= 2
        else f"{cpus} usable CPU(s): forked socket workers have "
        "no spare core to run on",
    )

    def c_twin(name, key):
        if c_reason is not None:
            return {"available": False, "reason": c_reason}
        record = round_ratio(times, "c sequential", f"c {name}", key)
        print(
            f"  c sequential / c {name} (recorded, ungated): median of "
            f"{len(record['round_ratios'])} round ratios {record['ratio']:.2f}x"
        )
        return {"available": True, **record, "bit_exact_with_python": True}

    # Barrier-bytes gate (always enforced): the set-bit log barriers
    # must write strictly less than a full replica-matrix re-broadcast.
    # Recorded in the payload either way so a failing run still leaves
    # an authoritative BENCH file.
    process, phase1 = results["process"], results["process_phase1"]
    barrier_bytes = process.extras["barrier_bytes"]
    barrier_bytes_full = process.extras["barrier_bytes_full"]
    barrier_ok = 0 < barrier_bytes < barrier_bytes_full
    print(
        f"  log barriers: {barrier_bytes:,} replica cells written vs "
        f"{barrier_bytes_full:,} full re-broadcast "
        + (
            f"({barrier_bytes_full / barrier_bytes:.1f}x reduction)"
            if barrier_ok
            else "(gate FAILED)"
        )
    )
    wire = {}
    for layout, run in (("dense", process), ("packed", packed_process)):
        stats = run.extras["wire"]
        plane, full = stats["barrier_plane_bytes"], stats["barrier_full_bytes"]
        ok = 0 < plane < full
        print(
            f"  process barriers, {layout}: {stats['barrier_delta_bytes']:,} "
            f"bytes on the wire (logs or planes {plane:,}) vs "
            f"{full:,} full re-broadcast "
            + (f"({full / plane:.2f}x plane reduction)" if ok else "(gate FAILED)")
        )
        wire[layout] = {
            "bytes_sent": stats["bytes_sent"],
            "bytes_received": stats["bytes_received"],
            "barrier_delta_bytes": stats["barrier_delta_bytes"],
            "barrier_plane_bytes": plane,
            "barrier_full_bytes": full,
            "plane_reduction_factor": round(full / plane, 2) if plane else None,
            "gate": {"delta_below_full": ok, "pass": ok},
        }
    wire_ok = all(record["gate"]["pass"] for record in wire.values())
    # Received-bytes gate (always enforced): what the process runs'
    # coordinators received, per edge.
    received = {}
    for name in ("process", "process_phase1"):
        total = results[name].extras["wire"]["bytes_received"]
        per_edge = total / graph.n_edges
        ok = per_edge < RECEIVED_BYTES_PER_EDGE
        print(
            f"  {name}: the coordinator received {total:,} wire bytes, "
            f"{per_edge:.2f} per edge (gate < {RECEIVED_BYTES_PER_EDGE:g})"
            + ("" if ok else " (gate FAILED)")
        )
        received[name] = {
            "bytes_received": total,
            "bytes_per_edge": round(per_edge, 3),
            "gate": {"threshold": RECEIVED_BYTES_PER_EDGE, "pass": ok},
        }
    received_ok = all(record["gate"]["pass"] for record in received.values())

    payload = {
        "benchmark": "measured parallel Phase-2 wall-clock (process runner)",
        "graph": {
            "generator": "rmat",
            "n_vertices": graph.n_vertices,
            "n_edges": graph.n_edges,
        },
        "k": args.k,
        "alpha": args.alpha,
        "smoke": smoke,
        "rounds": rounds,
        "n_workers": args.n_workers,
        "sync_interval": args.sync_interval,
        "usable_cpus": cpus,
        "backend": "python",
        "syncs": process.extras["syncs"],
        "replication_factor": round(process.replication_factor, 4),
        "measured_alpha": round(process.measured_alpha, 4),
        "gate": phase2_gate,
        "c": c_twin("process", PHASE2),
        "barrier_bytes": {
            "delta": barrier_bytes,
            "full_rebroadcast": barrier_bytes_full,
            "reduction_factor": (
                round(barrier_bytes_full / barrier_bytes, 2)
                if barrier_bytes
                else None
            ),
            "gate": {"delta_below_full": barrier_ok, "pass": barrier_ok},
        },
        "received_bytes": {
            "benchmark": "wire bytes the process runner's coordinator "
            "receives per edge",
            **received,
        },
        "phase1_wallclock": {
            "benchmark": "measured parallel Phase-1 wall-clock "
            "(degree + clustering, process runner)",
            "phase1_syncs": phase1.extras["phase1_syncs"],
            "n_clusters": phase1.extras["n_clusters"],
            "replication_factor": round(phase1.replication_factor, 4),
            "gate": phase1_gate,
            "c": c_twin("process_phase1", PHASE1),
            "process_matches_simulated": True,
            "single_worker_matches_sequential": True,
        },
        "socket_workers": {
            "benchmark": "process runner's socket workers (sync-window/"
            "set-bit-log barrier protocol over socketpairs)",
            "n_workers": args.n_workers,
            "syncs": process.extras["syncs"],
            "wire": wire["dense"],
            "wire_packed": wire["packed"],
            "gate": socket_gate,
            "packed_matches_simulated": True,
            "leaked_connections": 0,
            "leaked_worker_processes": 0,
        },
        "process_matches_simulated": True,
        "single_worker_matches_sequential": True,
    }
    # Readings taken outside this bench (a change measured against its
    # parent commit, which this code cannot run) survive a regeneration.
    if os.path.exists(out):
        with open(out) as fh:
            payload["recorded"] = json.load(fh).get("recorded", {})
    with open(out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=False)
        fh.write("\n")
    print(f"  wrote {out}")
    gates = (phase2_gate, phase1_gate, socket_gate)
    return gates_pass(gates) and barrier_ok and wire_ok and received_ok


def run_out_of_core_section(
    args, scale: int, smoke: bool, rounds: int, out: str
) -> bool:
    """The out-of-core tier -> ``BENCH_storage.json``.

    Generates the R-MAT graph straight to a binary edge file in bounded
    memory (``rmat_edge_file`` — the edge array never exists in RAM),
    then partitions from the file:

    - packed-state gate (always enforced): bit-packed replica state
      >= ``STORAGE_REDUCTION_GATE``x smaller than the dense bool state,
      and bit-identical with it;
    - packed-phase gate (always enforced): the packed run's
      ``partitioning`` phase at most ``PACKED_PHASE_GATE``x the dense
      run's;
    - prefetch-overlap gate (skipped below 2 CPUs): the double-buffered
      prefetching stream beats the synchronous stream's wall-clock, and
      stays bit-identical with it;
    - process-runner pins (always enforced): packed state + prefetching
      stream through the process runner matches sequential dense at one
      worker and the simulated runner at ``--n-workers``, leaving no
      socket or worker process.

    The dense, packed and prefetching runs share interleaved rounds, so
    both wall-clock gates read the median of the per-round ratios.  The
    gates measure ``python``; the same ratios of ``c`` are recorded
    ungated (``c`` key), every run bit-identical with python's dense run.

    Returns True when every applicable gate passes.
    """
    cpus = usable_cpus()
    reduction_gate = STORAGE_REDUCTION_GATE
    phase_gate = PACKED_PHASE_SMOKE_GATE if smoke else PACKED_PHASE_GATE
    prefetch_gate = PREFETCH_SMOKE_GATE if smoke else PREFETCH_GATE

    with tempfile.TemporaryDirectory(prefix="bench_ooc_") as tmp:
        path = os.path.join(tmp, "rmat_external.bin")
        n, m = rmat_edge_file(path, scale, edge_factor=args.edge_factor, seed=args.seed)
        file_bytes = os.path.getsize(path)
        print(
            f"  external R-MAT scale {scale}: |V|={n:,} |E|={m:,} "
            f"({file_bytes:,} bytes on disk, never materialized)"
        )
        sync_stream = FileEdgeStream(path, n_vertices=n)
        prefetch_stream = FileEdgeStream(path, n_vertices=n, prefetch=True)

        c_reason = c_unavailable()
        layouts = {
            "dense": (False, sync_stream),
            "packed": (True, sync_stream),
            "prefetch": (True, prefetch_stream),
        }
        results, times = interleaved_rounds(
            "out-of-core (file stream)",
            {
                f"{backend} {layout}": partition_run(
                    lambda b=backend, p=packed: TwoPhasePartitioner(
                        backend=b, packed_state=p
                    ),
                    stream,
                    args,
                )
                for backend in (("python",) if c_reason else ("python", "c"))
                for layout, (packed, stream) in layouts.items()
            },
            rounds,
        )
        dense = results["python dense"]
        dense_bytes = dense.state.nbytes()
        packed_bytes = results["python packed"].state.nbytes()
        reduction = dense_bytes / packed_bytes if packed_bytes else 0.0
        reduction_ok = reduction >= reduction_gate
        print(
            f"  packed replica state: {dense_bytes:,} dense bytes -> "
            f"{packed_bytes:,} packed bytes ({reduction:.2f}x, gate "
            f"{reduction_gate}x: {'pass' if reduction_ok else 'FAIL'})"
        )
        phase = ratio_gate(
            "partitioning phase, packed / dense",
            times,
            "python packed",
            "python dense",
            "partitioning",
            phase_gate,
            at_most=True,
        )
        prefetch = ratio_gate(
            f"prefetching stream, sync / prefetch ({cpus} cpus)",
            times,
            "python packed",
            "python prefetch",
            "total",
            prefetch_gate,
            skip=None
            if cpus >= 2
            else f"{cpus} usable CPU(s): the reader thread has "
            "nothing to overlap with on a single-CPU host",
        )
        if c_reason is None:
            c_record = {
                "available": True,
                "partitioning_phase": round_ratio(
                    times, "c packed", "c dense", "partitioning"
                ),
                "prefetch": round_ratio(times, "c packed", "c prefetch", "total"),
                "bit_exact_with_python": True,
            }
            print(
                "  c (recorded, ungated): packed/dense partitioning "
                f"{c_record['partitioning_phase']['ratio']:.2f}x, "
                f"prefetch {c_record['prefetch']['ratio']:.2f}x"
            )
        else:
            c_record = {"available": False, "reason": c_reason}

        def make_parallel(n_workers, runner):
            return ParallelTwoPhase(
                n_workers=n_workers,
                sync_interval=args.sync_interval,
                backend="python",
                runner=runner,
                packed_state=True,
            )

        single = make_parallel(1, "process").partition(
            prefetch_stream, args.k, alpha=args.alpha
        )
        assert_bit_exact(
            dense,
            single,
            "out-of-core: ProcessRunner(n_workers=1, packed, prefetch) "
            "vs sequential dense",
        )
        simulated = make_parallel(args.n_workers, "simulated").partition(
            sync_stream, args.k, alpha=args.alpha
        )
        process = make_parallel(args.n_workers, "process").partition(
            prefetch_stream, args.k, alpha=args.alpha
        )
        assert_bit_exact(
            simulated,
            process,
            f"out-of-core: ProcessRunner vs SimulatedRunner at "
            f"{args.n_workers} workers (packed, prefetch)",
        )
        if live_connections() or live_worker_processes():
            raise SystemExit("process: leaked wire connections or worker processes")
        print(
            "  packed state + prefetching stream through the process "
            "runner is bit-exact with sequential dense and with the "
            "simulated runner; no leaks"
        )

    payload = {
        "benchmark": "out-of-core tier (packed replica state, "
        "external-memory R-MAT, prefetching file streams)",
        "graph": {
            "generator": "rmat-external",
            "scale": scale,
            "edge_factor": args.edge_factor,
            "seed": args.seed,
            "n_vertices": n,
            "n_edges": m,
            "file_bytes": file_bytes,
        },
        "k": args.k,
        "alpha": args.alpha,
        "smoke": smoke,
        "rounds": rounds,
        "n_workers": args.n_workers,
        "sync_interval": args.sync_interval,
        "usable_cpus": cpus,
        "backend": "python",
        "state_bytes": {
            "dense": dense_bytes,
            "packed": packed_bytes,
            "reduction_factor": round(reduction, 2),
            "gate": {
                "threshold": reduction_gate,
                "reduction": round(reduction, 2),
                "enforced": True,
                "pass": reduction_ok,
                "skipped_reason": None,
            },
        },
        "partitioning_phase": phase,
        "prefetch": prefetch,
        "c": c_record,
        "bit_exact": {
            "packed_vs_dense": True,
            "prefetch_vs_sync": True,
            "process_single_vs_sequential_dense": True,
            "process_vs_simulated": True,
        },
        "leaked_connections": 0,
        "leaked_worker_processes": 0,
    }
    with open(out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=False)
        fh.write("\n")
    print(f"  wrote {out}")
    return reduction_ok and gates_pass((phase, prefetch))


def run_serving_section(
    args, graph, sequential_result, smoke: bool, out: str
) -> bool:
    """The partition-serving tier -> ``BENCH_serving.json``.

    Persists the main R-MAT run as a :class:`PartitionStore`, reopens it
    memory-mapped, and drives a :class:`LookupService` with a **seeded
    closed-loop load generator** (next query issued when the previous
    answer lands): 90% of vertex queries hit a hot set — the skew the
    LRU cache exists for — and 20% of edge queries miss.  Records
    lookups/s plus p50/p99 latency for the scalar path and lookups/s for
    the batched-numpy path.

    Gates:

    - bit-exactness (always enforced): every sampled lookup served off
      the mmap-reopened store equals the answer derived directly from
      the in-memory :class:`PartitionResult` (replica rows, routing,
      edge ownership including misses), and the store's CRC-32 sweep
      passes;
    - batched >= ``SERVING_BATCH_GATE``x scalar lookups/s (always
      enforced: a same-host ratio);
    - absolute QPS floors on both paths, enforced only on hosts with
      >= 2 usable CPUs (recorded-but-skipped elsewhere, like the
      parallel wall-clock gates).

    Returns True when every applicable gate passes.
    """
    from repro.serving import LookupService, PartitionStore

    cpus = usable_cpus()
    batch_gate = SERVING_BATCH_SMOKE_GATE if smoke else SERVING_BATCH_GATE
    scalar_floor = (
        SERVING_SCALAR_QPS_SMOKE_GATE if smoke else SERVING_SCALAR_QPS_GATE
    )
    batched_floor = (
        SERVING_BATCHED_QPS_SMOKE_GATE if smoke else SERVING_BATCHED_QPS_GATE
    )
    n_scalar = 5_000 if smoke else 50_000
    n_batched = 100_000 if smoke else 1_000_000
    batch_size = 4096
    rng = np.random.default_rng(args.seed)

    with tempfile.TemporaryDirectory(prefix="bench_serving_") as tmp:
        path = os.path.join(tmp, "store")
        t0 = time.perf_counter()
        PartitionStore.write(path, sequential_result, graph.edges)
        write_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        store = PartitionStore.open(path)
        open_s = time.perf_counter() - t0
        store.verify()
        svc = LookupService(store, cache_size=4096)

        # -- seeded closed-loop load ----------------------------------
        n = graph.n_vertices
        hot = rng.integers(0, n, size=min(1024, n))
        hot_mask = rng.random(n_scalar) < 0.9
        vertex_queries = np.where(
            hot_mask,
            hot[rng.integers(0, hot.size, size=n_scalar)],
            rng.integers(0, n, size=n_scalar),
        ).astype(np.int64)
        edge_idx = rng.integers(0, graph.n_edges, size=n_scalar)
        edge_queries = graph.edges[edge_idx].astype(np.int64)
        # 20% misses: vertex ids above |V| never carry an edge.
        miss = rng.random(n_scalar) < 0.2
        edge_queries[miss, 0] = n + rng.integers(1, 1000, size=int(miss.sum()))

        latencies = np.empty(n_scalar, dtype=np.float64)
        for i, vid in enumerate(vertex_queries.tolist()):
            t = time.perf_counter_ns()
            svc.vertex_partitions(vid)
            latencies[i] = time.perf_counter_ns() - t
        scalar_s = float(latencies.sum()) * 1e-9
        scalar_qps = n_scalar / scalar_s if scalar_s > 0 else 0.0
        p50_us = float(np.percentile(latencies, 50)) / 1e3
        p99_us = float(np.percentile(latencies, 99)) / 1e3
        cache = svc.cache_info()

        t0 = time.perf_counter()
        for i, (u, v) in enumerate(edge_queries.tolist()):
            svc.edge_partition(u, v)
        edge_scalar_s = time.perf_counter() - t0
        edge_scalar_qps = (
            n_scalar / edge_scalar_s if edge_scalar_s > 0 else 0.0
        )

        # Batched path: same closed loop, one vectorized call per batch.
        batched_ids = np.where(
            rng.random(n_batched) < 0.9,
            hot[rng.integers(0, hot.size, size=n_batched)],
            rng.integers(0, n, size=n_batched),
        ).astype(np.int64)
        t0 = time.perf_counter()
        for start in range(0, n_batched, batch_size):
            svc.vertex_partitions(batched_ids[start : start + batch_size])
        batched_s = time.perf_counter() - t0
        batched_qps = n_batched / batched_s if batched_s > 0 else 0.0

        # -- bit-exactness against the in-memory result ---------------
        dense = np.asarray(sequential_result.state.replicas, dtype=bool)
        sizes = np.asarray(sequential_result.state.sizes, dtype=np.int64)
        sample = vertex_queries[:2048]
        rows = dense[sample]
        load = np.where(rows, sizes[np.newaxis, :], np.inf)
        expect = np.argmin(load, axis=1).astype(np.int64)
        expect[~rows.any(axis=1)] = -1
        got = svc.vertex_partitions(sample)
        got_scalar = np.array(
            [svc.vertex_partitions(int(v)) for v in sample[:256]]
        )
        keys = (
            graph.edges[:, 0].astype(np.uint64) << np.uint64(32)
        ) | graph.edges[:, 1].astype(np.uint64)
        order = np.argsort(keys, kind="stable")
        qk = (
            edge_queries[:, 0].astype(np.uint64) << np.uint64(32)
        ) | edge_queries[:, 1].astype(np.uint64)
        pos = np.searchsorted(keys[order], qk, side="left")
        pos_c = np.minimum(pos, graph.n_edges - 1)
        found = (pos < graph.n_edges) & (keys[order][pos_c] == qk)
        expect_edge = np.full(n_scalar, -1, dtype=np.int64)
        expect_edge[found] = sequential_result.assignments[
            order[pos[found]]
        ]
        got_edge = svc.edge_partition(edge_queries[:, 0], edge_queries[:, 1])
        if not (
            np.array_equal(got, expect)
            and np.array_equal(got_scalar, expect[:256])
            and np.array_equal(got_edge, expect_edge)
        ):
            raise SystemExit(
                "serving: mmap-reopened store diverges from the "
                "in-memory PartitionResult"
            )
        print(
            "  serving store is bit-exact with the in-memory result "
            "(vertex routing scalar+batched, edge ownership incl. "
            "misses); checksums OK"
        )

    batch_speedup = batched_qps / scalar_qps if scalar_qps > 0 else 0.0
    batch_ok = batch_speedup >= batch_gate
    qps_enforced = cpus >= 2
    scalar_ok = scalar_qps >= scalar_floor if qps_enforced else None
    batched_ok = batched_qps >= batched_floor if qps_enforced else None
    skip_reason = (
        None
        if qps_enforced
        else f"{cpus} usable CPU(s): absolute lookup-throughput floors "
        "measure scheduler contention on this host"
    )

    section = {
        "benchmark": "partition-serving lookups (mmap store + "
        "LookupService, seeded closed-loop load)",
        "graph": {
            "generator": "rmat",
            "n_vertices": graph.n_vertices,
            "n_edges": graph.n_edges,
        },
        "k": args.k,
        "alpha": args.alpha,
        "smoke": smoke,
        "seed": args.seed,
        "usable_cpus": cpus,
        "store": {
            "bytes": store.nbytes(),
            "write_seconds": round(write_s, 4),
            "open_seconds": round(open_s, 6),
            "checksums_ok": True,
        },
        "load": {
            "scalar_queries": n_scalar,
            "batched_queries": n_batched,
            "batch_size": batch_size,
            "hot_set": int(hot.size),
            "hot_fraction": 0.9,
            "edge_miss_fraction": 0.2,
        },
        "scalar": {
            "lookups_per_s": round(scalar_qps),
            "p50_us": round(p50_us, 2),
            "p99_us": round(p99_us, 2),
            "cache": cache,
        },
        "edge_scalar": {"lookups_per_s": round(edge_scalar_qps)},
        "batched": {"lookups_per_s": round(batched_qps)},
        "bit_exact_with_result": True,
        "gates": {
            "batched_vs_scalar": {
                "threshold": batch_gate,
                "speedup": round(batch_speedup, 1),
                "enforced": True,
                "pass": batch_ok,
                "skipped_reason": None,
            },
            "scalar_qps_floor": {
                "threshold": scalar_floor,
                "speedup": round(scalar_qps),
                "enforced": qps_enforced,
                "pass": scalar_ok,
                "skipped_reason": skip_reason,
            },
            "batched_qps_floor": {
                "threshold": batched_floor,
                "speedup": round(batched_qps),
                "enforced": qps_enforced,
                "pass": batched_ok,
                "skipped_reason": skip_reason,
            },
        },
    }
    state = "pass" if batch_ok else "FAIL"
    print(
        f"  serving: {scalar_qps:,.0f} scalar lookups/s "
        f"(p50 {p50_us:.1f}us, p99 {p99_us:.1f}us, "
        f"{cache['hits']}/{cache['hits'] + cache['misses']} cache hits) -> "
        f"{batched_qps:,.0f} batched ({batch_speedup:.0f}x, gate "
        f"{batch_gate}x: {state}); edge {edge_scalar_qps:,.0f}/s; "
        f"QPS floors {'enforced' if qps_enforced else 'SKIPPED'} "
        f"({cpus} cpus)"
    )
    payload = {"serving": section}
    with open(out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=False)
        fh.write("\n")
    print(f"  wrote {out}")
    return (
        batch_ok and scalar_ok is not False and batched_ok is not False
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale", type=int, default=16, help="R-MAT scale (2**scale vertices)"
    )
    parser.add_argument(
        "--edge-factor", type=int, default=16, help="edges per vertex"
    )
    parser.add_argument("--k", type=int, default=32)
    parser.add_argument("--alpha", type=float, default=1.05)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--repeats",
        type=int,
        default=MIN_ROUNDS,
        help=f"interleaved rounds of every timed section (at least {MIN_ROUNDS}): "
        "each round runs every run of a section once, and each ratio gate "
        "reads the median of its per-round ratios",
    )
    parser.add_argument("--n-workers", type=int, default=4)
    parser.add_argument("--sync-interval", type=int, default=65536)
    parser.add_argument("--out", default=None)
    parser.add_argument(
        "--parallel-out",
        default=None,
        help="output path of the parallel wall-clock section "
        "(default BENCH_parallel.json, or BENCH_parallel_smoke.json "
        "with --smoke)",
    )
    parser.add_argument(
        "--storage-out",
        default=None,
        help="output path of the out-of-core section "
        "(default BENCH_storage.json, or BENCH_storage_smoke.json "
        "with --smoke)",
    )
    parser.add_argument(
        "--serving-out",
        default=None,
        help="output path of the partition-serving section "
        "(default BENCH_serving.json, or BENCH_serving_smoke.json "
        "with --smoke)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"small-scale gate check (scale {SMOKE_SCALE}, relaxed "
        "speedup thresholds; the same interleaved rounds as the full run, "
        "each ratio gate on the median of its per-round ratios)",
    )
    parser.add_argument(
        "--record-only",
        action="store_true",
        help="record every gate outcome in the BENCH files but exit 0 "
        "even when a *speedup threshold* misses (correctness gates — "
        "cross-backend bit-exactness, runner equality, socket and worker leaks — "
        "still fail hard).  For trend-tracking runs (the nightly "
        "workflow) on hosts whose throughput is not under our control.  "
        "The BENCH_*.json snapshots at the repo root are committed "
        "artifacts: regenerate and commit them after kernel/runner "
        "changes so the recorded trend stays authoritative.",
    )
    args = parser.parse_args(argv)

    rounds = max(args.repeats, MIN_ROUNDS)
    if args.smoke:
        scale = min(args.scale, SMOKE_SCALE)
        out = args.out or "BENCH_kernels_smoke.json"
        parallel_out = args.parallel_out or "BENCH_parallel_smoke.json"
        storage_out = args.storage_out or "BENCH_storage_smoke.json"
        serving_out = args.serving_out or "BENCH_serving_smoke.json"
    else:
        scale = args.scale
        out = args.out or "BENCH_kernels.json"
        parallel_out = args.parallel_out or "BENCH_parallel.json"
        storage_out = args.storage_out or "BENCH_storage.json"
        serving_out = args.serving_out or "BENCH_serving.json"

    graph = rmat_graph(scale, edge_factor=args.edge_factor, seed=args.seed)
    stream = InMemoryEdgeStream(graph)
    print(
        f"R-MAT scale {scale}: |V|={graph.n_vertices:,} "
        f"|E|={graph.n_edges:,}, k={args.k}, alpha={args.alpha}, "
        f"{rounds} rounds" + (" [smoke]" if args.smoke else "")
    )

    configs = {
        "2psl": lambda backend: TwoPhasePartitioner(backend=backend),
        "2pshdrf": lambda backend: TwoPhasePartitioner(mode="hdrf", backend=backend),
        "parallel": lambda backend: ParallelTwoPhase(
            n_workers=args.n_workers,
            sync_interval=args.sync_interval,
            backend=backend,
        ),
    }

    # Cross-backend equality, the kernel contract, is enforced on every
    # run: each backend's result must match python's, round by round.
    payload_configs = {}
    results = {}
    times = {}
    backends = available_backends()
    for name, factory in configs.items():
        results[name], times[name], rows = backend_rows(
            f"{name}: backend vs python", factory, stream, backends, args, rounds
        )
        for backend, row in rows.items():
            print(
                f"  {name:>9}/{backend:<7}: {row['total_seconds']:.2f}s total "
                f"({row['total_edges_per_s']:,} edges/s), phases: "
                + ", ".join(f"{k}={v:.3f}s" for k, v in row["phase_seconds"].items())
            )
        payload_configs[name] = {
            "backends": rows,
            "speedup_vs_python": {
                backend: {
                    key: round_ratio(times[name], "python", backend, key)["ratio"]
                    for key in times[name]["python"][0]
                }
                for backend in backends
                if backend != "python"
            },
        }
    print("  all pipelines produced bit-identical results across backends")

    # Differential gate: the kernel-routed parallel path with one worker
    # must be bit-exact with the sequential pipeline (any sync interval).
    single = ParallelTwoPhase(
        n_workers=1,
        sync_interval=args.sync_interval,
        backend=DEFAULT_BACKEND,
    ).partition(stream, args.k, alpha=args.alpha)
    assert_bit_exact(
        results["2psl"][DEFAULT_BACKEND],
        single,
        "ParallelTwoPhase(n_workers=1) vs sequential 2PS-L",
    )
    print("  parallel(n_workers=1) is bit-exact with sequential 2PS-L")

    c_section, c_ok = run_c_section(args, scale, args.smoke, times, rounds)
    hdrf_section, hdrf_ok = run_hdrf_baseline_section(
        args, stream, args.smoke, rounds
    )
    scale_section = None if args.smoke else run_scale_section(args, rounds)

    payload = {
        "benchmark": "kernel-backend throughput (2PS-L / 2PS-HDRF / parallel)",
        "graph": {
            "generator": "rmat",
            "scale": scale,
            "edge_factor": args.edge_factor,
            "seed": args.seed,
            "n_vertices": graph.n_vertices,
            "n_edges": graph.n_edges,
        },
        "k": args.k,
        "alpha": args.alpha,
        "rounds": rounds,
        "smoke": args.smoke,
        "n_workers": args.n_workers,
        "sync_interval": args.sync_interval,
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        "default_backend": DEFAULT_BACKEND,
        "configs": payload_configs,
        "c": c_section,
        "hdrf_baseline": hdrf_section,
        **({} if scale_section is None else {"scale": scale_section}),
        "identical_assignments": True,
        "parallel_matches_sequential": True,
        "meets_gates": c_ok and hdrf_ok,
    }
    with open(out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=False)
        fh.write("\n")
    print(f"  wrote {out} (meets_gates={c_ok and hdrf_ok})")

    parallel_ok = run_parallel_wallclock(
        stream, graph, args, results["2psl"]["python"], args.smoke, rounds, parallel_out
    )
    storage_ok = run_out_of_core_section(args, scale, args.smoke, rounds, storage_out)
    serving_ok = run_serving_section(
        args,
        graph,
        results["2psl"]["python"],
        args.smoke,
        serving_out,
    )
    if args.record_only:
        # Correctness failures raised SystemExit long before this point;
        # anything left is a speedup-threshold miss, recorded in the
        # BENCH payloads for the trend line.
        return 0
    return (
        0 if c_ok and hdrf_ok and parallel_ok and storage_ok and serving_ok else 1
    )


if __name__ == "__main__":
    raise SystemExit(main())
