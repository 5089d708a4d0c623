"""The compiled ``c`` kernel backend.

Four concerns:

- **Equivalence** — the compiled loops must be bit-exact with the
  ``python`` reference across both scoring modes, the clustering
  passes, the HDRF baseline and the sharded parallel path.  Skipped
  where no compiler built the library.
- **Memory safety** — an index outside the pass state stops the loop
  with a :class:`~repro.errors.StreamError` instead of an out-of-bounds
  access, and no look-ahead reads past a chunk or an array.
- **Look-ahead in the binary** — the loaded library's loops hold the
  prefetch instructions the source asks for.
- **Lifecycle** — with no compiler, a failing compiler (``CC=false``) or
  an unsafe cache, ``c`` is reported missing with a reason,
  :func:`~repro.kernels.get_backend` falls back to ``python`` with a
  one-time ``RuntimeWarning``, ``python`` is the default, and the CLI's
  explicit ``--backend c`` fails with a clear ``error: ...``.  A cache
  hit runs no compiler, and concurrent builds into one cache both load.
"""

from __future__ import annotations

import os
import platform
import re
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

import repro.kernels as kernels
from repro.baselines import HDRF
from repro.cli import main as cli_main
from repro.core import ParallelTwoPhase, TwoPhasePartitioner
from repro.errors import StreamError
from repro.graph.formats import write_binary_edge_list
from repro.graph.generators import chung_lu_graph, rmat_graph
from repro.kernels import available_backends, get_backend, missing_backends
from repro.kernels import c_backend
from repro.kernels.base import TwoPhaseContext, phase2_inputs
from repro.metrics.runtime import CostCounter
from repro.partitioning.state import PartitionState, _replica_plane
from repro.streaming import InMemoryEdgeStream
from tests.conftest import state_bytes

#: The ``src`` directory this package was imported from.
SRC = os.path.dirname(os.path.dirname(os.path.dirname(kernels.__file__)))


@pytest.fixture
def c_registered():
    if "c" not in available_backends():
        pytest.skip(f"c backend unavailable: {missing_backends().get('c')}")
    return "c"


@pytest.fixture
def registry(monkeypatch):
    """Restore the registry, the default and the loaded library after a
    test re-runs detection."""
    snapshot = (
        dict(kernels._REGISTRY),
        dict(kernels._INSTANCES),
        dict(kernels._MISSING),
        set(kernels._FALLBACK_WARNED),
    )
    monkeypatch.setattr(kernels, "DEFAULT_BACKEND", kernels.DEFAULT_BACKEND)
    monkeypatch.setattr(c_backend, "_LIB", c_backend._LIB)
    yield
    for live, saved in zip(
        (
            kernels._REGISTRY,
            kernels._INSTANCES,
            kernels._MISSING,
            kernels._FALLBACK_WARNED,
        ),
        snapshot,
    ):
        live.clear()
        live.update(saved)


def _empty_cache(monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))


def _no_compiler(monkeypatch, tmp_path):
    _empty_cache(monkeypatch, tmp_path)
    monkeypatch.delenv("CC", raising=False)
    monkeypatch.setenv("PATH", str(tmp_path / "empty-bin"))


def _failing_compiler(monkeypatch, tmp_path):
    _empty_cache(monkeypatch, tmp_path)
    monkeypatch.setenv("CC", "false")


@pytest.fixture(
    params=[_no_compiler, _failing_compiler], ids=["no-compiler", "cc-false"]
)
def c_missing(request, registry, monkeypatch, tmp_path):
    """The registry state of a host where the library cannot be built."""
    request.param(monkeypatch, tmp_path)
    kernels._register_optional_backends()


class _CopiedChunks(InMemoryEdgeStream):
    """Every chunk in its own allocation: a read past a chunk's end then
    leaves its buffer, which AddressSanitizer reports, instead of landing
    in the next chunk."""

    def chunks(self, chunk_size=None):
        for chunk in super().chunks(chunk_size):
            yield chunk.copy()


class _RawChunks:
    """The stream surface of a pass, yielding the given chunks with no
    id check (a bare array stream refuses negative ids up front)."""

    def __init__(self, *chunks):
        self._chunks = [np.asarray(c, dtype=np.int64) for c in chunks]

    def chunks(self, chunk_size=None):
        return iter(self._chunks)


def assert_results_identical(reference, other):
    np.testing.assert_array_equal(reference.assignments, other.assignments)
    np.testing.assert_array_equal(reference.state.sizes, other.state.sizes)
    np.testing.assert_array_equal(
        np.asarray(reference.state.replicas), np.asarray(other.state.replicas)
    )
    assert reference.cost == other.cost


class TestCEquivalence:
    """Compiled-loop bit-exactness against the reference backend."""

    @pytest.mark.parametrize("mode", ["linear", "hdrf"])
    @pytest.mark.parametrize("chunk_size", [1, 37, 10**6])
    def test_hub_heavy_rmat_bit_exact(self, c_registered, mode, chunk_size):
        """Hub-heavy R-MAT across degenerate chunk sizes."""
        graph = rmat_graph(8, edge_factor=8, seed=3, a=0.7, b=0.12, c=0.12)
        ref = TwoPhasePartitioner(backend="python", mode=mode).partition(
            graph, 8, chunk_size=chunk_size
        )
        out = TwoPhasePartitioner(backend=c_registered, mode=mode).partition(
            graph, 8, chunk_size=chunk_size
        )
        assert_results_identical(ref, out)

    @pytest.mark.parametrize("alpha", [1.0, 1.5])
    @pytest.mark.parametrize("mode", ["linear", "hdrf"])
    def test_cap_pressure_bit_exact(self, c_registered, mode, alpha):
        """alpha=1.0 keeps the hard cap reachable, driving the compiled
        hash / least-loaded fallback chain (linear) and the -inf cap
        masking (hdrf)."""
        graph = rmat_graph(8, edge_factor=8, seed=7)
        ref = TwoPhasePartitioner(backend="python", mode=mode).partition(
            graph, 5, alpha=alpha, chunk_size=64
        )
        out = TwoPhasePartitioner(backend=c_registered, mode=mode).partition(
            graph, 5, alpha=alpha, chunk_size=64
        )
        assert_results_identical(ref, out)

    @pytest.mark.parametrize("hdrf_lambda", [0.0, 1e-15, 1.1, 15.0, 1e16])
    def test_hdrf_lambda_sweep_bit_exact(self, c_registered, hdrf_lambda):
        graph = rmat_graph(8, edge_factor=8, seed=5)
        ref = TwoPhasePartitioner(
            backend="python", mode="hdrf", hdrf_lambda=hdrf_lambda
        ).partition(graph, 6)
        out = TwoPhasePartitioner(
            backend=c_registered, mode="hdrf", hdrf_lambda=hdrf_lambda
        ).partition(graph, 6)
        assert_results_identical(ref, out)

    @pytest.mark.parametrize("use_true", [True, False])
    def test_clustering_passes_bit_exact(self, c_registered, use_true):
        """Both compiled clustering bodies (Algorithm 1 and the Hollocou
        partial-degree ablation), multi-pass re-streaming included."""
        from repro.core.clustering import StreamingClustering
        from repro.graph.degrees import compute_degrees_from_stream

        graph = chung_lu_graph(80, 320, gamma=2.1, seed=11)
        results = {}
        for name in ("python", c_registered):
            stream = InMemoryEdgeStream(graph)
            stream.default_chunk_size = 13
            degrees = (
                compute_degrees_from_stream(stream, backend=name)
                if use_true
                else None
            )
            results[name] = StreamingClustering(
                n_passes=2,
                volume_cap=graph.n_edges / 2 + 1,
                use_true_degrees=use_true,
                backend=name,
            ).run(stream, degrees=degrees, n_vertices=graph.n_vertices)
        ref, out = results["python"], results[c_registered]
        np.testing.assert_array_equal(ref.v2c, out.v2c)
        np.testing.assert_array_equal(ref.volumes, out.volumes)
        np.testing.assert_array_equal(ref.degrees, out.degrees)

    @pytest.mark.parametrize("n_workers", [1, 3])
    def test_parallel_path_bit_exact(self, c_registered, n_workers):
        """The sharded path (both phases, stale views, barrier merges)
        agrees with the python backend per schedule; n_workers=1 is also
        bit-exact with the sequential pipeline."""
        graph = chung_lu_graph(90, 400, gamma=2.2, seed=17)
        runs = {}
        for name in ("python", c_registered):
            runs[name] = ParallelTwoPhase(
                n_workers=n_workers,
                sync_interval=63,
                backend=name,
                parallel_phase1=True,
            ).partition(graph, 4, chunk_size=61)
        assert_results_identical(runs["python"], runs[c_registered])
        if n_workers == 1:
            seq = TwoPhasePartitioner(backend=c_registered).partition(
                graph, 4, chunk_size=61
            )
            assert_results_identical(seq, runs[c_registered])

    def test_process_runner_bit_exact(self, c_registered):
        """The backend resolves by name inside pool workers, with any
        start method (spawn re-imports and loads the cached library)."""
        graph = chung_lu_graph(60, 240, gamma=2.1, seed=23)
        simulated = ParallelTwoPhase(
            n_workers=2, sync_interval=63, backend=c_registered,
            runner="simulated",
        ).partition(graph, 4)
        process = ParallelTwoPhase(
            n_workers=2, sync_interval=63, backend=c_registered,
            runner="process",
        ).partition(graph, 4)
        assert_results_identical(simulated, process)

    def test_backend_instance_is_picklable(self, c_registered):
        import pickle

        backend = get_backend(c_registered)
        clone = pickle.loads(pickle.dumps(backend))
        assert clone.name == "c"

    @pytest.mark.parametrize("chunk_size", [1, 37, 10**6])
    def test_hdrf_baseline_bit_exact(self, c_registered, chunk_size):
        """The compiled classic-HDRF baseline lands on the per-edge
        reference decisions, cost counters included."""
        graph = rmat_graph(8, edge_factor=8, seed=3, a=0.7, b=0.12, c=0.12)
        ref = HDRF(backend="python").partition(graph, 8, chunk_size=chunk_size)
        out = HDRF(backend=c_registered).partition(
            graph, 8, chunk_size=chunk_size
        )
        assert_results_identical(ref, out)

    @pytest.mark.parametrize("lam", [1e-15, 1.1, 15.0, 1e16])
    def test_hdrf_baseline_lambda_and_cap(self, c_registered, lam):
        graph = rmat_graph(8, edge_factor=8, seed=7)
        ref = HDRF(lam=lam, backend="python").partition(
            graph, 5, alpha=1.0, chunk_size=64
        )
        out = HDRF(lam=lam, backend=c_registered).partition(
            graph, 5, alpha=1.0, chunk_size=64
        )
        assert_results_identical(ref, out)

    @pytest.mark.parametrize("k", [7, 70])
    @pytest.mark.parametrize("lam", [1e-15, 1e16])
    def test_extreme_lambda_bit_exact(self, c_registered, lam, k):
        """Both HDRF loops score all k partitions, as the reference does,
        so they stay exact at vanishing and balance-dominated weights."""
        graph = rmat_graph(8, edge_factor=8, seed=7)
        ref = TwoPhasePartitioner(
            backend="python", mode="hdrf", hdrf_lambda=lam
        ).partition(graph, k)
        out = TwoPhasePartitioner(
            backend=c_registered, mode="hdrf", hdrf_lambda=lam
        ).partition(graph, k)
        assert_results_identical(ref, out)
        ref = HDRF(lam=lam, backend="python").partition(graph, k, alpha=1.0)
        out = HDRF(lam=lam, backend=c_registered).partition(graph, k, alpha=1.0)
        assert_results_identical(ref, out)


class TestCMemorySafety:
    """An index outside the pass state is a typed error, not a crash."""

    @staticmethod
    def _context(n_v2c):
        """A Phase-2 context over 10 vertices whose Phase-1 arrays (and
        so ``part`` and ``weights``) are cut to ``n_v2c`` entries."""
        n, k = 10, 4
        part, weights = phase2_inputs(
            v2c=np.zeros(n_v2c, dtype=np.int64),
            c2p=np.array([0, 1], dtype=np.int64),
            volumes=np.array([5, 5], dtype=np.int64),
            degrees=np.ones(n_v2c, dtype=np.int64),
            k=k,
        )
        return TwoPhaseContext(
            k=k,
            part=part,
            weights=weights,
            state=PartitionState(n, k, 3),
            assignments=np.full(3, -1, dtype=np.int32),
            hash_seed=0,
            cost=CostCounter(),
        )

    @pytest.mark.parametrize(
        "pass_name",
        ["prepartition_pass", "remaining_pass_linear", "remaining_pass_hdrf"],
    )
    def test_short_v2c_raises_stream_error(self, c_registered, pass_name):
        ctx = self._context(n_v2c=5)
        stream = InMemoryEdgeStream(np.array([[0, 1], [2, 3], [4, 8]]))
        with pytest.raises(StreamError, match="edge 2 has vertex id 8"):
            getattr(get_backend(c_registered), pass_name)(stream, ctx)

    def test_partition_beyond_k_raises_stream_error(self, c_registered):
        ctx = self._context(n_v2c=10)
        ctx.part[1] = 9
        stream = InMemoryEdgeStream(np.array([[0, 1]]))
        with pytest.raises(StreamError, match="maps to partition 9"):
            get_backend(c_registered).remaining_pass_linear(stream, ctx)

    #: A ``part`` or ``weights`` the loops cannot read in place.
    BAD_LAYOUTS = {
        "part-int64": ("part", np.zeros(10, dtype=np.int64)),
        "part-short": ("part", np.zeros(9, dtype=np.int32)),
        "part-strided": ("part", np.zeros(20, dtype=np.int32)[::2]),
        "weights-3-columns": ("weights", np.ones((10, 3), dtype=np.int64)),
        "weights-flat": ("weights", np.ones(20, dtype=np.int64)),
        "weights-int32": ("weights", np.ones((10, 2), dtype=np.int32)),
        "weights-float": ("weights", np.ones((10, 2), dtype=np.float64)),
        "weights-fortran": ("weights", np.ones((2, 10), dtype=np.int64).T),
    }

    @pytest.mark.parametrize("layout", sorted(BAD_LAYOUTS))
    @pytest.mark.parametrize(
        "pass_name",
        ["prepartition_pass", "remaining_pass_linear", "remaining_pass_hdrf"],
    )
    def test_phase2_input_layout_is_checked_before_any_write(
        self, c_registered, pass_name, layout
    ):
        """``part`` and ``weights`` are read in place, never copied, so a
        wrong dtype, length or layout is refused before the loop runs."""
        from repro.errors import PartitioningError

        field, value = self.BAD_LAYOUTS[layout]
        ctx = self._context(n_v2c=10)
        setattr(ctx, field, value)
        before = (state_bytes(ctx.state), ctx.assignments.tobytes())
        stream = InMemoryEdgeStream(np.array([[0, 1], [2, 3], [4, 5]]))
        with pytest.raises(PartitioningError, match=f"{field} must be"):
            getattr(get_backend(c_registered), pass_name)(stream, ctx)
        assert (state_bytes(ctx.state), ctx.assignments.tobytes()) == before
        assert ctx.cost == CostCounter()

    def test_short_clustering_state_raises_stream_error(self, c_registered):
        kernels_c = get_backend(c_registered)
        st = kernels_c.clustering_init(np.ones(3, dtype=np.int64))
        stream = InMemoryEdgeStream(np.array([[0, 1], [1, 5]]))
        with pytest.raises(StreamError, match="edge 1 has vertex id 5"):
            kernels_c.clustering_true_pass(stream, st, 10.0, None)

    def test_read_only_output_is_refused(self, c_registered):
        from repro.errors import PartitioningError

        ctx = self._context(n_v2c=10)
        ctx.assignments.flags.writeable = False
        stream = InMemoryEdgeStream(np.array([[0, 1]]))
        with pytest.raises(PartitioningError, match="assignments"):
            get_backend(c_registered).prepartition_pass(stream, ctx)

    # -- the look-ahead: no read past a chunk or an array --------------
    @staticmethod
    def _run_pass(kernels_c, pass_name, stream):
        """Run one look-ahead loop over 10 vertices: the clustering passes
        on fresh state, the Phase-2 passes with vertex x in cluster
        x % 2 on partition x % 2."""
        n, k = 10, 4
        if pass_name.startswith("clustering"):
            st = kernels_c.clustering_init(np.full(n, 4, dtype=np.int64))
            getattr(kernels_c, pass_name)(stream, st, 10.0, None)
            return
        part, weights = phase2_inputs(
            v2c=np.arange(n) % 2,
            c2p=np.array([0, 1]),
            volumes=np.array([20, 20]),
            degrees=np.full(n, 4, dtype=np.int64),
            k=k,
        )
        ctx = TwoPhaseContext(
            k=k,
            part=part,
            weights=weights,
            state=PartitionState(n, k, 100),
            assignments=np.full(stream.n_edges, -1, dtype=np.int32),
            hash_seed=0,
            cost=CostCounter(),
        )
        getattr(kernels_c, pass_name)(stream, ctx)

    LOOK_AHEAD_PASSES = [
        "clustering_true_pass",
        "clustering_partial_pass",
        "remaining_pass_linear",
        "remaining_pass_hdrf",
    ]

    @pytest.mark.parametrize("bad", [8, 12, 16])
    @pytest.mark.parametrize("pass_name", LOOK_AHEAD_PASSES)
    def test_look_ahead_skips_an_id_beyond_the_state(
        self, c_registered, pass_name, bad
    ):
        """Edge ``bad`` (the clustering look-ahead distances 8 and 16, the
        Phase-2 one 12) names vertex 10 of a 10-vertex state: the edges
        before it look ahead to it and must skip it, and the loop reports
        the miss at that edge."""
        edges = np.array([(i % 10, (i + 3) % 10) for i in range(24)])
        edges[bad] = (bad % 10, 10)
        stream = _CopiedChunks(edges)
        with pytest.raises(StreamError, match=f"edge {bad} has vertex id 10"):
            self._run_pass(get_backend(c_registered), pass_name, stream)

    @pytest.mark.parametrize("chunk_size", [1, 3, 7, 11, 15])
    @pytest.mark.parametrize("mode", ["linear", "hdrf"])
    def test_chunks_shorter_than_the_look_ahead(
        self, c_registered, mode, chunk_size
    ):
        """Chunks shorter than either look-ahead distance, each in its own
        allocation, through every pass of the pipeline."""
        graph = rmat_graph(6, edge_factor=4, seed=2)
        runs = []
        for name in ("python", c_registered):
            stream = _CopiedChunks(graph)
            runs.append(
                TwoPhasePartitioner(backend=name, mode=mode).partition(
                    stream, 4, chunk_size=chunk_size
                )
            )
        assert_results_identical(*runs)

    # -- the degree pass: grown, never written past ---------------------
    @pytest.mark.parametrize("at", ["first", "last"])
    def test_degree_pass_grows_at_a_chunk_edge(self, c_registered, at):
        """An id just beyond ``n_hint`` at a chunk's first or last edge:
        the loop stops before writing it, grows the array to the chunk's
        max + 1 and resumes at that edge."""
        edges = np.array([(i % 10, (i + 1) % 10) for i in range(12)])
        edges[4 if at == "first" else 7] = (3, 10)
        stream = _CopiedChunks(edges)
        stream.default_chunk_size = 4
        out = get_backend(c_registered).degree_pass(stream, 10)
        np.testing.assert_array_equal(out, np.bincount(edges.ravel()))

    def test_degree_pass_grows_to_exactly_max_plus_one(self, c_registered):
        edges = np.array([[0, 1], [2, 3], [1, 1_000_000], [3, 2]])
        out = get_backend(c_registered).degree_pass(InMemoryEdgeStream(edges), 4)
        assert out.shape == (1_000_001,)
        np.testing.assert_array_equal(out, np.bincount(edges.ravel()))

    @pytest.mark.parametrize(
        "chunks, edge",
        [(([[0, 1], [2, -1]],), 1), (([[0, 1]], [[-1, 5], [5, 2]]), 1)],
    )
    def test_degree_pass_refuses_a_negative_id(self, c_registered, chunks, edge):
        """A negative id reads as beyond every length to the loop's
        unsigned compare; the wrapper names it instead of growing."""
        with pytest.raises(StreamError, match=f"edge {edge} holds a negative"):
            get_backend(c_registered).degree_pass(_RawChunks(*chunks), 4)

    # -- the Phase-2 barrier op: the plane is checked before any write --
    @staticmethod
    def _barrier_state(packed=False, n=12, k=10):
        """A state with written rows, and a log of bits clear in it."""
        state = PartitionState(n, k, 40, packed=packed)
        state.replicas[np.arange(n), np.arange(n) % k] = True
        return state, [np.array([5, 37, n * k - 1], dtype=np.int64)]

    def _assert_barrier_rejects(self, c_registered, state, logs, match):
        from repro.errors import PartitioningError

        plane = _replica_plane(state.replicas)[0]
        before = plane.tobytes()
        with pytest.raises(PartitioningError, match=match):
            get_backend(c_registered).apply_replica_log(state, logs)
        assert plane.tobytes() == before

    def test_barrier_rejects_plane_of_wrong_shape(self, c_registered):
        state, logs = self._barrier_state()
        state.replicas = np.zeros((12, 11), dtype=bool)
        self._assert_barrier_rejects(
            c_registered, state, logs, "does not hold k=10 columns"
        )

    def test_barrier_rejects_plane_of_other_packing(self, c_registered):
        state, logs = self._barrier_state(packed=True)
        state.replicas.packed = np.zeros((12, 2), dtype=bool)
        self._assert_barrier_rejects(
            c_registered, state, logs, "replica plane must be a writable"
        )
        state, logs = self._barrier_state()
        state.replicas = np.zeros((12, 10), dtype=np.uint8)
        self._assert_barrier_rejects(
            c_registered, state, logs, "replica plane must be a writable"
        )

    @pytest.mark.parametrize("packed", [False, True], ids=["dense", "packed"])
    def test_barrier_rejects_read_only_plane(self, c_registered, packed):
        state, logs = self._barrier_state(packed=packed)
        _replica_plane(state.replicas)[0].flags.writeable = False
        self._assert_barrier_rejects(
            c_registered, state, logs, "replica plane must be a writable"
        )

    def test_barrier_rejects_non_contiguous_plane(self, c_registered):
        state, logs = self._barrier_state()
        wide = np.zeros((12, 20), dtype=bool)
        wide[:, :10] = state.replicas
        state.replicas = wide[:, :10]
        self._assert_barrier_rejects(
            c_registered, state, logs, "replica plane must be a writable"
        )

    def test_list_schedule_rejects_k_below_one(self, c_registered):
        from repro.errors import PartitioningError

        with pytest.raises(PartitioningError, match="k must be >= 1"):
            get_backend(c_registered).list_schedule(
                np.array([3, 2], dtype=np.int64), 0
            )


class TestCLookAhead:
    """GCC deletes a call to a helper whose only effect is a prefetch,
    and then the library holds no prefetch instruction at all.  So the
    loops the source gives a look-ahead are checked in the disassembly
    of the library this process loaded."""

    #: Prefetch mnemonics per machine type.
    MNEMONICS = {"x86_64": r"prefetch\w*", "aarch64": "prfm"}

    @pytest.mark.parametrize(
        "symbol", ["remaining_linear", "remaining_hdrf", "cluster_pass"]
    )
    def test_loop_holds_prefetch_instructions(self, c_registered, symbol):
        objdump = shutil.which("objdump")
        if objdump is None:
            pytest.skip("objdump is not on PATH")
        mnemonic = self.MNEMONICS.get(platform.machine())
        if mnemonic is None:
            pytest.skip(f"no prefetch mnemonic listed for {platform.machine()}")
        command = [objdump, "-d", "--no-show-raw-insn", f"--disassemble={symbol}"]
        proc = subprocess.run(
            [*command, c_backend._LIB._name], capture_output=True, text=True
        )
        if proc.returncode != 0:
            pytest.skip(f"objdump cannot disassemble one symbol: {proc.stderr}")
        assert f"<{symbol}>:" in proc.stdout
        found = re.findall(rf"^\s*[0-9a-f]+:\s+({mnemonic})\s", proc.stdout, re.M)
        assert found, f"{symbol} holds no prefetch instruction"


class TestCLifecycle:
    """Detection, fallback, the default and the library cache."""

    def test_registry_falls_back_with_one_time_warning(self, c_missing):
        assert "c" not in available_backends()
        assert missing_backends()["c"]
        assert kernels.DEFAULT_BACKEND == "python"
        assert get_backend().name == "python"
        with pytest.warns(RuntimeWarning, match="falling back"):
            backend = get_backend("c")
        assert backend.name == "python"
        # One-time: the second resolution is silent.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert get_backend("c").name == "python"

    def test_partitioners_degrade_to_python(self, c_missing):
        graph = rmat_graph(6, edge_factor=4, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = TwoPhasePartitioner(backend="c").partition(graph, 4)
            parallel = ParallelTwoPhase(
                n_workers=2, sync_interval=64, backend="c"
            ).partition(graph, 4)
        assert result.extras["backend"] == "python"
        assert parallel.extras["backend"] == "python"

    def test_cli_backend_c_is_a_clear_error(self, c_missing, tmp_path, capsys):
        graph = rmat_graph(6, edge_factor=4, seed=1)
        path = tmp_path / "edges.bin"
        write_binary_edge_list(graph, str(path))
        rc = cli_main(
            ["partition", "--input", str(path), "--k", "4", "--backend", "c"]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "'c'" in err and "unavailable" in err
        assert "default ('python')" in err
        assert "Traceback" not in err

    def test_redetection_restores_the_backend_when_possible(
        self, c_missing, monkeypatch
    ):
        """With the compiler back, re-detection re-registers ``c``."""
        monkeypatch.undo()
        kernels._register_optional_backends()
        if "c" in available_backends():
            assert kernels.DEFAULT_BACKEND == "c"
        else:
            assert "c" in missing_backends()

    def test_cache_hit_runs_no_subprocess(self, c_registered, monkeypatch):
        def no_subprocess(*args, **kwargs):
            raise AssertionError("a cache hit must not run the compiler")

        monkeypatch.setattr(subprocess, "run", no_subprocess)
        monkeypatch.setattr(c_backend, "_LIB", c_backend._LIB)
        assert c_backend.load() is None

    def test_concurrent_builds_into_one_empty_cache_both_load(
        self, c_registered, tmp_path
    ):
        env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), PYTHONPATH=SRC)
        probe = (
            "import repro.kernels as k; "
            "print(k.DEFAULT_BACKEND, k.missing_backends())"
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", probe], env=env, text=True,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            )
            for _ in range(2)
        ]
        outputs = [proc.communicate(timeout=300) for proc in procs]
        for proc, (out, err) in zip(procs, outputs):
            assert proc.returncode == 0, err
            assert out.strip() == "c {}"
        built = os.listdir(tmp_path / "repro")
        assert len(built) == 1 and built[0].endswith(".so")

    @pytest.mark.parametrize("target", ["directory", "library"])
    def test_writable_cache_is_refused(
        self, c_registered, registry, monkeypatch, tmp_path, target
    ):
        """Another user able to write the cache could inject code."""
        _empty_cache(monkeypatch, tmp_path)
        cache = tmp_path / "cache" / "repro"
        cache.mkdir(parents=True)
        if target == "directory":
            cache.chmod(0o770)
            victim = cache
        else:
            cache.chmod(0o700)
            victim = c_backend.library_path(c_backend._compiler())
            with open(victim, "wb") as fh:
                fh.write(b"not a library")
            os.chmod(victim, 0o664)
        reason = c_backend.load()
        assert reason is not None and f"refusing {victim}" in reason
        kernels._register_optional_backends()
        assert "c" in missing_backends()
        assert kernels.DEFAULT_BACKEND == "python"
