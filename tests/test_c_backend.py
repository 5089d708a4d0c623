"""The compiled ``c`` kernel backend.

Three concerns:

- **Equivalence** — the compiled loops must be bit-exact with the
  ``python`` reference (and therefore with ``numpy``) across both
  scoring modes, the clustering passes, the HDRF baseline and the
  sharded parallel path.  Skipped where no compiler built the library.
- **Memory safety** — an index outside the pass state stops the loop
  with a :class:`~repro.errors.StreamError` instead of an out-of-bounds
  access.
- **Lifecycle** — with no compiler, a failing compiler (``CC=false``) or
  an unsafe cache, ``c`` is reported missing with a reason,
  :func:`~repro.kernels.get_backend` falls back to ``numpy`` with a
  one-time ``RuntimeWarning``, ``numpy`` is the default, and the CLI's
  explicit ``--backend c`` fails with a clear ``error: ...``.  A cache
  hit runs no compiler, and concurrent builds into one cache both load.
"""

from __future__ import annotations

import os
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
from repro.kernels.base import TwoPhaseContext
from repro.metrics.runtime import CostCounter
from repro.partitioning.state import PartitionState
from repro.streaming import InMemoryEdgeStream

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
        """Both HDRF loops score all k partitions, so no balance weight
        falls outside their exact range (numpy's scalar engine hands
        these to the reference)."""
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
        """A Phase-2 context over 10 vertices whose ``v2c`` is cut to
        ``n_v2c`` entries."""
        n, k = 10, 4
        return TwoPhaseContext(
            k=k,
            v2c=np.zeros(n_v2c, dtype=np.int64),
            c2p=np.array([0, 1], dtype=np.int64),
            volumes=np.array([5, 5], dtype=np.int64),
            degrees=np.ones(n, dtype=np.int64),
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

    def test_cluster_id_beyond_c2p_raises_stream_error(self, c_registered):
        ctx = self._context(n_v2c=10)
        ctx.v2c[3] = 7
        stream = InMemoryEdgeStream(np.array([[0, 1], [2, 3]]))
        with pytest.raises(StreamError, match="vertex 3 is in cluster 7"):
            get_backend(c_registered).remaining_pass_linear(stream, ctx)

    def test_partition_beyond_k_raises_stream_error(self, c_registered):
        ctx = self._context(n_v2c=10)
        ctx.v2c[1] = 1
        ctx.c2p[1] = 9
        stream = InMemoryEdgeStream(np.array([[0, 1]]))
        with pytest.raises(StreamError, match="maps to partition 9"):
            get_backend(c_registered).remaining_pass_linear(stream, ctx)

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


class TestCLifecycle:
    """Detection, fallback, the default and the library cache."""

    def test_registry_falls_back_with_one_time_warning(self, c_missing):
        assert "c" not in available_backends()
        assert missing_backends()["c"]
        assert kernels.DEFAULT_BACKEND == "numpy"
        assert get_backend().name == "numpy"
        with pytest.warns(RuntimeWarning, match="falling back"):
            backend = get_backend("c")
        assert backend.name == "numpy"
        # One-time: the second resolution is silent.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert get_backend("c").name == "numpy"

    def test_partitioners_degrade_to_numpy(self, c_missing):
        graph = rmat_graph(6, edge_factor=4, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = TwoPhasePartitioner(backend="c").partition(graph, 4)
            parallel = ParallelTwoPhase(
                n_workers=2, sync_interval=64, backend="c"
            ).partition(graph, 4)
        assert result.extras["backend"] == "numpy"
        assert parallel.extras["backend"] == "numpy"

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
        assert "'numpy'" in err
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
        assert kernels.DEFAULT_BACKEND == "numpy"
