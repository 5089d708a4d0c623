"""Numba kernel-backend tests (ISSUE 5).

Two concerns, both runnable on every host:

- **Equivalence** — the numba backend's compiled serial kernels must be
  bit-exact with the ``python`` reference (and therefore with ``numpy``)
  across both scoring modes, the clustering passes and the sharded
  parallel path.  When numba is installed these tests exercise the real
  jitted dispatchers; when it is not, the same kernels run in their
  documented interpreted mode (plain nopython-style Python), so the
  kernel *logic* stays pinned even on numba-less hosts like the
  numba-free CI legs.
- **Absence behaviour** — with the numba import forced to fail, the
  registry must degrade ``get_backend("numba")`` to the ``numpy``
  backend with a one-time ``RuntimeWarning``, while the CLI's explicit
  ``--backend numba`` must produce a clear
  :class:`~repro.errors.PartitioningError` (rendered as ``error: ...``,
  never a traceback).
"""

from __future__ import annotations

import sys
import warnings

import numpy as np
import pytest

import repro.kernels as kernels
from repro.cli import main as cli_main
from repro.core import ParallelTwoPhase, TwoPhasePartitioner
from repro.graph.formats import write_binary_edge_list
from repro.graph.generators import chung_lu_graph, rmat_graph
from repro.kernels import available_backends, get_backend, missing_backends
from repro.kernels import numba_backend
from repro.kernels.numba_backend import NumbaBackend


def _snapshot_registry():
    return (
        dict(kernels._REGISTRY),
        dict(kernels._INSTANCES),
        dict(kernels._MISSING),
        set(kernels._FALLBACK_WARNED),
    )


def _restore_registry(snapshot) -> None:
    registry, instances, missing, warned = snapshot
    kernels._REGISTRY.clear()
    kernels._REGISTRY.update(registry)
    kernels._INSTANCES.clear()
    kernels._INSTANCES.update(instances)
    kernels._MISSING.clear()
    kernels._MISSING.update(missing)
    kernels._FALLBACK_WARNED.clear()
    kernels._FALLBACK_WARNED.update(warned)


@pytest.fixture
def numba_registered():
    """A resolvable ``numba`` backend on any host.

    The real registration when numba is installed; otherwise the
    interpreted-mode backend is registered for the test's duration (the
    documented testing mode, bit-exact but slow).
    """
    if "numba" in available_backends():
        yield "numba"
        return
    snapshot = _snapshot_registry()
    kernels.register_backend("numba", NumbaBackend)
    try:
        yield "numba"
    finally:
        _restore_registry(snapshot)


@pytest.fixture
def numba_missing(monkeypatch):
    """Force the numba-absent registry state, even where numba exists.

    ``sys.modules["numba"] = None`` makes ``import numba`` raise, the
    memoized detection is reset, and the optional-backend registration
    re-runs — exactly the import-time path of a numba-less host.
    """
    snapshot = _snapshot_registry()
    monkeypatch.setitem(sys.modules, "numba", None)
    monkeypatch.setattr(numba_backend, "_AVAILABLE", None)
    monkeypatch.setattr(numba_backend, "_NUMBA", numba_backend._UNSET)
    monkeypatch.setattr(numba_backend, "_NUMBA_REASON", None)
    kernels._register_optional_backends()
    try:
        yield
    finally:
        _restore_registry(snapshot)


def assert_results_identical(reference, other):
    np.testing.assert_array_equal(reference.assignments, other.assignments)
    np.testing.assert_array_equal(reference.state.sizes, other.state.sizes)
    np.testing.assert_array_equal(
        reference.state.replicas, other.state.replicas
    )
    assert reference.cost == other.cost


class TestNumbaEquivalence:
    """Compiled-kernel bit-exactness against the reference backend."""

    @pytest.mark.parametrize("mode", ["linear", "hdrf"])
    @pytest.mark.parametrize("chunk_size", [1, 37, 10**6])
    def test_hub_heavy_rmat_bit_exact(self, numba_registered, mode, chunk_size):
        """Hub-heavy R-MAT — the serial-dominated stream the compiled
        kernels exist for — across degenerate chunk sizes."""
        graph = rmat_graph(8, edge_factor=8, seed=3, a=0.7, b=0.12, c=0.12)
        ref = TwoPhasePartitioner(backend="python", mode=mode).partition(
            graph, 8, chunk_size=chunk_size
        )
        out = TwoPhasePartitioner(
            backend=numba_registered, mode=mode
        ).partition(graph, 8, chunk_size=chunk_size)
        assert_results_identical(ref, out)

    @pytest.mark.parametrize("alpha", [1.0, 1.5])
    @pytest.mark.parametrize("mode", ["linear", "hdrf"])
    def test_cap_pressure_bit_exact(self, numba_registered, mode, alpha):
        """alpha=1.0 keeps the hard cap reachable, driving the compiled
        hash / least-loaded fallback chain (linear) and the -inf cap
        masking (hdrf)."""
        graph = rmat_graph(8, edge_factor=8, seed=7)
        ref = TwoPhasePartitioner(backend="python", mode=mode).partition(
            graph, 5, alpha=alpha, chunk_size=64
        )
        out = TwoPhasePartitioner(
            backend=numba_registered, mode=mode
        ).partition(graph, 5, alpha=alpha, chunk_size=64)
        assert_results_identical(ref, out)

    @pytest.mark.parametrize("hdrf_lambda", [0.0, 1.1, 15.0])
    def test_hdrf_lambda_sweep_bit_exact(self, numba_registered, hdrf_lambda):
        graph = rmat_graph(8, edge_factor=8, seed=5)
        ref = TwoPhasePartitioner(
            backend="python", mode="hdrf", hdrf_lambda=hdrf_lambda
        ).partition(graph, 6)
        out = TwoPhasePartitioner(
            backend=numba_registered, mode="hdrf", hdrf_lambda=hdrf_lambda
        ).partition(graph, 6)
        assert_results_identical(ref, out)

    @pytest.mark.parametrize("use_true", [True, False])
    def test_clustering_passes_bit_exact(self, numba_registered, use_true):
        """Both compiled clustering bodies (Algorithm 1 and the Hollocou
        partial-degree ablation), multi-pass re-streaming included."""
        from repro.core.clustering import StreamingClustering
        from repro.graph.degrees import compute_degrees_from_stream
        from repro.streaming import InMemoryEdgeStream

        graph = chung_lu_graph(80, 320, gamma=2.1, seed=11)
        results = {}
        for name in ("python", numba_registered):
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
        ref, out = results["python"], results[numba_registered]
        np.testing.assert_array_equal(ref.v2c, out.v2c)
        np.testing.assert_array_equal(ref.volumes, out.volumes)
        np.testing.assert_array_equal(ref.degrees, out.degrees)

    @pytest.mark.parametrize("n_workers", [1, 3])
    def test_parallel_path_bit_exact(self, numba_registered, n_workers):
        """The sharded path (both phases, stale views, barrier merges)
        agrees with the python backend per schedule; n_workers=1 is also
        bit-exact with the sequential pipeline."""
        graph = chung_lu_graph(90, 400, gamma=2.2, seed=17)
        runs = {}
        for name in ("python", numba_registered):
            runs[name] = ParallelTwoPhase(
                n_workers=n_workers,
                sync_interval=63,
                backend=name,
                parallel_phase1=True,
            ).partition(graph, 4, chunk_size=61)
        assert_results_identical(runs["python"], runs[numba_registered])
        if n_workers == 1:
            seq = TwoPhasePartitioner(backend=numba_registered).partition(
                graph, 4, chunk_size=61
            )
            assert_results_identical(seq, runs[numba_registered])

    def test_process_runner_bit_exact(self, numba_registered):
        """The numba backend resolves by name inside pool workers.

        With numba installed any start method works (spawn re-imports
        and re-registers).  Without it, only ``fork`` inherits the
        test-registered interpreted backend — a spawn worker would
        silently fall back to numpy and the assertion would stop
        exercising the numba kernels at all, so the test forces fork
        and skips on hosts that lack it.
        """
        if not numba_backend.numba_available():
            import multiprocessing as mp

            if "fork" not in mp.get_all_start_methods():
                pytest.skip(
                    "interpreted numba backend needs the fork start "
                    "method to reach spawn-less pool workers"
                )
            start_method = "fork"
        else:
            start_method = None
        graph = chung_lu_graph(60, 240, gamma=2.1, seed=23)
        simulated = ParallelTwoPhase(
            n_workers=2, sync_interval=63, backend=numba_registered,
            runner="simulated",
        ).partition(graph, 4)
        process = ParallelTwoPhase(
            n_workers=2, sync_interval=63, backend=numba_registered,
            runner="process", start_method=start_method,
        ).partition(graph, 4)
        assert_results_identical(simulated, process)

    def test_backend_instance_is_picklable(self, numba_registered):
        import pickle

        backend = get_backend(numba_registered)
        clone = pickle.loads(pickle.dumps(backend))
        assert clone.name == "numba"

    @pytest.mark.parametrize("chunk_size", [1, 37, 10**6])
    def test_hdrf_baseline_bit_exact(self, numba_registered, chunk_size):
        """The compiled classic-HDRF baseline twin (ISSUE 8) must land on
        the per-edge reference decisions, cost counters included."""
        from repro.baselines import HDRF

        graph = rmat_graph(8, edge_factor=8, seed=3, a=0.7, b=0.12, c=0.12)
        ref = HDRF(backend="python").partition(
            graph, 8, chunk_size=chunk_size
        )
        out = HDRF(backend=numba_registered).partition(
            graph, 8, chunk_size=chunk_size
        )
        assert_results_identical(ref, out)

    @pytest.mark.parametrize("lam", [1.1, 15.0])
    def test_hdrf_baseline_lambda_and_cap(self, numba_registered, lam):
        from repro.baselines import HDRF

        graph = rmat_graph(8, edge_factor=8, seed=7)
        ref = HDRF(lam=lam, backend="python").partition(
            graph, 5, alpha=1.0, chunk_size=64
        )
        out = HDRF(lam=lam, backend=numba_registered).partition(
            graph, 5, alpha=1.0, chunk_size=64
        )
        assert_results_identical(ref, out)


class TestNumbaAbsence:
    """Registry degradation and CLI failure when numba is missing."""

    def test_registry_falls_back_with_one_time_warning(self, numba_missing):
        assert "numba" not in available_backends()
        assert "numba" in missing_backends()
        with pytest.warns(RuntimeWarning, match="falling back"):
            backend = get_backend("numba")
        assert backend.name == "numpy"
        # One-time: the second resolution is silent.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert get_backend("numba").name == "numpy"

    def test_partitioners_degrade_to_numpy(self, numba_missing):
        graph = rmat_graph(6, edge_factor=4, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = TwoPhasePartitioner(backend="numba").partition(graph, 4)
            parallel = ParallelTwoPhase(
                n_workers=2, sync_interval=64, backend="numba"
            ).partition(graph, 4)
        assert result.extras["backend"] == "numpy"
        assert parallel.extras["backend"] == "numpy"

    def test_cli_backend_numba_is_a_clear_error(
        self, numba_missing, tmp_path, capsys
    ):
        graph = rmat_graph(6, edge_factor=4, seed=1)
        path = tmp_path / "edges.bin"
        write_binary_edge_list(graph, str(path))
        rc = cli_main(
            ["partition", "--input", str(path), "--k", "4",
             "--backend", "numba"]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "numba" in err and "unavailable" in err
        assert "Traceback" not in err

    def test_redetection_restores_the_backend_when_possible(
        self, numba_missing
    ):
        """After the import works again, re-detection re-registers (or
        re-reports missing on hosts that truly lack numba)."""
        sys.modules.pop("numba", None)
        numba_backend._AVAILABLE = None
        numba_backend._NUMBA = numba_backend._UNSET
        numba_backend._NUMBA_REASON = None
        kernels._register_optional_backends()
        if numba_backend.numba_available():
            assert "numba" in available_backends()
        else:
            assert "numba" in missing_backends()
