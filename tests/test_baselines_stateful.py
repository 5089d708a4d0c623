"""Tests for the stateful streaming baselines: HDRF, Greedy, ADWISE."""

import numpy as np
import pytest

from repro.baselines import DBH, HDRF, Adwise, Greedy, RandomHash
from repro.errors import ConfigurationError
from repro.graph.generators import rmat_graph
from repro.kernels import available_backends
from repro.metrics import validate_partition


class TestHDRF:
    def test_valid_partitioning(self, powerlaw_graph):
        result = HDRF().partition(powerlaw_graph, 8)
        validate_partition(powerlaw_graph.edges, result.assignments, 8, alpha=1.05)

    def test_hard_cap_enforced(self, powerlaw_graph):
        result = HDRF().partition(powerlaw_graph, 16)
        assert result.sizes.max() <= result.state.capacity

    def test_beats_random_hashing(self, social_graph):
        hdrf = HDRF().partition(social_graph, 16)
        rand = RandomHash().partition(social_graph, 16)
        assert hdrf.replication_factor < rand.replication_factor

    def test_beats_dbh_on_social(self, social_graph):
        """The paper's stateful-vs-stateless quality gap."""
        hdrf = HDRF().partition(social_graph, 16)
        dbh = DBH().partition(social_graph, 16)
        assert hdrf.replication_factor < dbh.replication_factor

    def test_cost_linear_in_k(self, powerlaw_graph):
        a = HDRF().partition(powerlaw_graph, 4)
        b = HDRF().partition(powerlaw_graph, 32)
        assert b.cost.score_evaluations == 8 * a.cost.score_evaluations

    def test_deterministic(self, social_graph):
        a = HDRF().partition(social_graph, 8)
        b = HDRF().partition(social_graph, 8)
        assert np.array_equal(a.assignments, b.assignments)

    def test_lambda_zero_ignores_balance(self, powerlaw_graph):
        """With lam=0 the balance term vanishes; imbalance grows until the
        hard cap intervenes."""
        loose = HDRF(lam=0.0).partition(powerlaw_graph, 8)
        tight = HDRF(lam=5.0).partition(powerlaw_graph, 8)
        assert tight.measured_alpha <= loose.measured_alpha + 1e-9

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_lambda(self, lam):
        with pytest.raises(ConfigurationError):
            HDRF(lam=lam)

    def test_replicas_match_assignments(self, powerlaw_graph):
        result = HDRF().partition(powerlaw_graph, 8)
        expected = np.zeros_like(result.state.replicas)
        expected[powerlaw_graph.edges[:, 0], result.assignments] = True
        expected[powerlaw_graph.edges[:, 1], result.assignments] = True
        assert np.array_equal(result.state.replicas, expected)

    def test_unknown_backend_fails_at_construction(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            HDRF(backend="no-such-backend")


#: Chunk sizes of the baseline sweep: per-edge, odd, default-like, > |E|.
CHUNK_SIZES = [1, 37, 4096, 10**6]

#: Every non-reference backend is pinned to the ``python`` reference.
NON_REFERENCE = [n for n in available_backends() if n != "python"]


@pytest.mark.parametrize("backend", NON_REFERENCE)
class TestHDRFBackends:
    """Baseline bit-exactness across kernel backends.

    The baseline pass dispatches through the kernel registry, and every
    non-reference backend must land on exactly the per-edge reference
    decisions — assignments, replicas, sizes AND the simulated cost
    counters.  ``c`` runs its compiled argmax over all k partitions.
    k=70 takes partition ids past 64 and a packed replica row past 8
    bytes.  (``tests/test_c_backend.py`` pins the ``c`` loop at extreme
    balance weights too.)
    """

    @staticmethod
    def _identical(a, b):
        np.testing.assert_array_equal(a.assignments, b.assignments)
        np.testing.assert_array_equal(a.state.sizes, b.state.sizes)
        np.testing.assert_array_equal(a.state.replicas, b.state.replicas)
        assert a.cost == b.cost
        assert a.state_bytes == b.state_bytes

    @pytest.mark.parametrize(
        "chunk_size, k",
        [pytest.param(c, 8, id=str(c)) for c in CHUNK_SIZES]
        + [pytest.param(c, 70, id=f"{c}-k70") for c in CHUNK_SIZES],
    )
    def test_matches_python(self, powerlaw_graph, backend, chunk_size, k):
        ref = HDRF(backend="python").partition(
            powerlaw_graph, k, chunk_size=chunk_size
        )
        out = HDRF(backend=backend).partition(
            powerlaw_graph, k, chunk_size=chunk_size
        )
        self._identical(ref, out)

    @pytest.mark.parametrize("lam", [0.0, 1e-15, 1.1, 2.5, 15.0, 1e16])
    def test_lambda_sweep_bit_exact(self, social_graph, backend, lam):
        """Degenerate (0), vanishing (1e-15), paper (1.1), moderate and
        balance-dominated (1e16) weights all stay bit-exact."""
        ref = HDRF(lam=lam, backend="python").partition(social_graph, 6)
        out = HDRF(lam=lam, backend=backend).partition(social_graph, 6)
        self._identical(ref, out)

    def test_cap_pressure_bit_exact(self, powerlaw_graph, backend):
        """alpha=1.0 keeps the hard cap reachable, driving the masked
        argmax."""
        ref = HDRF(backend="python").partition(
            powerlaw_graph, 5, alpha=1.0, chunk_size=64
        )
        out = HDRF(backend=backend).partition(
            powerlaw_graph, 5, alpha=1.0, chunk_size=64
        )
        self._identical(ref, out)

    def test_self_loops_bit_exact(self, backend):
        """Self-loops bump one partial degree twice before scoring (theta
        lands exactly on 1/2)."""
        rng = np.random.default_rng(13)
        edges = rng.integers(0, 200, size=(3000, 2), dtype=np.int64)
        loops = rng.random(3000) < 0.05
        edges[loops, 1] = edges[loops, 0]
        ref = HDRF(backend="python").partition(
            edges, 4, n_vertices=200, chunk_size=101
        )
        out = HDRF(backend=backend).partition(
            edges, 4, n_vertices=200, chunk_size=101
        )
        self._identical(ref, out)


class TestGreedy:
    def test_valid_partitioning(self, powerlaw_graph):
        result = Greedy().partition(powerlaw_graph, 8)
        validate_partition(powerlaw_graph.edges, result.assignments, 8, alpha=1.05)

    def test_colocates_repeated_edge(self):
        from repro.graph import Graph

        # Capacity per partition is floor(1.05 * 8 / 2) = 4, so all four
        # copies of (0, 1) fit on the partition the first copy chose.
        g = Graph([(0, 1)] * 4 + [(2, 3)] * 4)
        result = Greedy().partition(g, 2)
        assert len(set(result.assignments[:4].tolist())) == 1
        assert len(set(result.assignments[4:].tolist())) == 1

    def test_better_than_random(self, social_graph):
        greedy = Greedy().partition(social_graph, 16)
        rand = RandomHash().partition(social_graph, 16)
        assert greedy.replication_factor < rand.replication_factor

    def test_balanced(self, powerlaw_graph):
        result = Greedy().partition(powerlaw_graph, 8)
        assert result.measured_alpha <= 1.05 + 8 / powerlaw_graph.n_edges


class TestAdwise:
    def test_valid_partitioning(self, powerlaw_graph):
        result = Adwise(buffer_size=32).partition(powerlaw_graph, 8)
        validate_partition(powerlaw_graph.edges, result.assignments, 8, alpha=1.05)

    def test_rejects_bad_buffer(self):
        with pytest.raises(ConfigurationError):
            Adwise(buffer_size=0)

    def test_rejects_bad_fraction(self):
        with pytest.raises(ConfigurationError):
            Adwise(assign_fraction=0.0)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_lambda(self, lam):
        with pytest.raises(ConfigurationError):
            Adwise(lam=lam)

    @pytest.mark.parametrize("k", [4, 32])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_buffer_one_degenerates_to_hdrf_like(self, seed, k):
        """With a one-edge buffer ADWISE assigns each edge as it arrives,
        scored by the one HDRF reference, so it gives the HDRF baseline's
        assignments bit for bit."""
        graph = rmat_graph(10, seed=seed)
        result = Adwise(buffer_size=1, assign_fraction=1.0).partition(graph, k)
        validate_partition(graph.edges, result.assignments, k, alpha=1.05)
        hdrf = HDRF().partition(graph, k)
        np.testing.assert_array_equal(result.assignments, hdrf.assignments)

    def test_not_worse_than_random(self, community_graph):
        adwise = Adwise(buffer_size=64).partition(community_graph, 8)
        rand = RandomHash().partition(community_graph, 8)
        assert adwise.replication_factor < rand.replication_factor

    def test_cost_reflects_buffer_rescoring(self, community_graph):
        """ADWISE is the most expensive streaming system (paper Fig. 4)."""
        adwise = Adwise(buffer_size=64, assign_fraction=0.25).partition(
            community_graph, 8
        )
        hdrf = HDRF().partition(community_graph, 8)
        assert adwise.cost.score_evaluations > hdrf.cost.score_evaluations

    def test_extras_record_buffer(self, toy_graph):
        result = Adwise(buffer_size=5).partition(toy_graph, 2)
        assert result.extras["buffer_size"] == 5
