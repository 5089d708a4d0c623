"""Unit tests for the 2PS-L and HDRF scoring rules.

The rules live in the ``python`` reference backend (the formulas are
documented in :mod:`repro.core.scoring`); every other backend is pinned
bit-exact against it by ``tests/test_kernels.py``.  The 2PS-L score is
observed through the decision of a one-edge ``remaining_pass_linear``
on a hand-built context, the HDRF score through
``PythonBackend.hdrf_choose``.
"""

import numpy as np

from repro.core.scoring import HDRF_EPSILON
from repro.kernels.base import TwoPhaseContext, phase2_inputs
from repro.kernels.python_backend import PythonBackend
from repro.metrics.runtime import CostCounter
from repro.partitioning.state import PartitionState
from repro.streaming.stream import InMemoryEdgeStream

#: Edge orientation of ``_choose``: u = vertex 0, v = vertex 1.
U, V = 0, 1


def _choose(du, dv, vol_cu, vol_cv, u_on=(), v_on=(), edge=(U, V)):
    """Partition a one-edge ``remaining_pass_linear`` picks.

    Vertex ``U`` (degree ``du``) sits in cluster 0, mapped to partition
    0; vertex ``V`` (degree ``dv``) in cluster 1, mapped to partition 1.
    ``u_on``/``v_on`` list the partitions each endpoint is already
    replicated on.  The two candidates are therefore partition 0 and 1,
    scored in ``edge`` order (the first endpoint's partition wins ties).
    """
    state = PartitionState(2, 2, 100)
    for p in u_on:
        state.replicas[U, p] = True
    for p in v_on:
        state.replicas[V, p] = True
    part, weights = phase2_inputs(
        v2c=np.array([0, 1]),
        c2p=np.array([0, 1]),
        volumes=np.array([vol_cu, vol_cv]),
        degrees=np.array([du, dv]),
        k=2,
    )
    ctx = TwoPhaseContext(
        k=2,
        part=part,
        weights=weights,
        state=state,
        assignments=np.full(1, -1, dtype=np.int32),
        hash_seed=0,
        cost=CostCounter(),
    )
    stream = InMemoryEdgeStream(np.array([edge], dtype=np.int64))
    PythonBackend().remaining_pass_linear(stream, ctx)
    # The linear-time trick: exactly two candidates are scored.
    assert ctx.cost.score_evaluations == 2
    return int(ctx.assignments[0])


class TestTwoPSLScore:
    def test_zero_when_nothing_matches(self):
        # No replica and no cluster volume: both candidates score 0, so
        # the tie goes to the first endpoint's partition either way.
        assert _choose(3, 5, 0, 0) == 0
        assert _choose(3, 5, 0, 0, edge=(V, U)) == 1

    def test_replication_term_prefers_low_degree_endpoint(self):
        # Equal volumes cancel; g = 2 - d/(du+dv) favours the partition
        # holding the low-degree endpoint: 1.9 against 1.1.
        assert _choose(1, 9, 10, 10, u_on=(1,), v_on=(0,)) == 1
        assert _choose(9, 1, 10, 10, u_on=(1,), v_on=(0,)) == 0

    def test_both_replicated_sums(self):
        # Partition 0: the whole volume term (1.0) + u's replica (1.5)
        # = 2.5; partition 1: both replicas, 1.5 + 1.5 = 3.0.
        assert _choose(5, 5, 10, 0, u_on=(0, 1), v_on=(1,)) == 1

    def test_cluster_volume_term(self):
        # Larger adjacent cluster pulls harder.
        assert _choose(1, 1, 30, 10) == 0
        assert _choose(1, 1, 10, 30) == 1

    def test_full_formula(self):
        # Partition 0: 10/40 + (2 - 2/8) = 2.0; partition 1:
        # 30/40 + (2 - 6/8) = 2.0 — an exact tie, kept by partition 0.
        assert _choose(2, 6, 10, 30, u_on=(0,), v_on=(1,)) == 0
        # One more unit of volume on v's cluster breaks the tie.
        assert _choose(2, 6, 10, 31, u_on=(0,), v_on=(1,)) == 1

    def test_zero_volume_guard(self):
        # vol(c_u) + vol(c_v) == 0 skips the volume term instead of
        # dividing by zero; the replica alone decides.
        assert _choose(1, 1, 0, 0, u_on=(1,)) == 1

    def test_score_bounded(self):
        # The volume terms sum to at most 1 and a replica term exceeds
        # 1, so any replica outweighs the whole volume term.
        assert _choose(1, 1000, 1000, 0, u_on=(1,)) == 1
        assert _choose(1000, 1, 1000, 0, u_on=(1,)) == 1


def _hdrf(u_row, v_row, sizes, theta_u=0.5, lam=1.1, capacity=10**6):
    return PythonBackend.hdrf_choose(
        np.asarray(u_row, dtype=bool),
        np.asarray(v_row, dtype=bool),
        theta_u,
        np.asarray(sizes, dtype=np.float64),
        capacity,
        lam,
        HDRF_EPSILON,
    )


class TestHDRFScores:
    def test_replication_scores_vectorized(self):
        # Both endpoints replicated beats one, over all k partitions.
        assert _hdrf([1, 0, 1], [0, 0, 1], [3, 3, 3], theta_u=0.25) == 2
        # theta_u = 0.25: u's term 1.75 beats v's 1.25.
        assert _hdrf([1, 0, 0], [0, 0, 1], [3, 3, 3], theta_u=0.25) == 0
        assert _hdrf([1, 0, 0], [0, 0, 1], [3, 3, 3], theta_u=0.75) == 2

    def test_balance_scores_prefer_empty(self):
        # The emptiest partition wins when no endpoint is replicated.
        assert _hdrf([0, 0, 0], [0, 0, 0], [10, 0, 5]) == 1

    def test_balance_scores_all_equal(self):
        # Equal sizes zero the balance term: first index, or replication.
        assert _hdrf([0, 0], [0, 0], [3, 3]) == 0
        assert _hdrf([0, 0], [0, 1], [3, 3]) == 1

    def test_full_score_combines(self):
        # Partition 0: replication 1.5; partition 1: balance 1.1.
        assert _hdrf([1, 0], [0, 0], [5, 0], lam=1.1) == 0
        # A balance term of 2.0 overtakes the replica.
        assert _hdrf([1, 0], [0, 0], [5, 0], lam=2.0) == 1

    def test_lambda_scales_balance(self):
        # The emptier partition scores lambda; the replica scores 1.5.
        assert _hdrf([1, 0], [0, 0], [5, 0], lam=1.4) == 0
        assert _hdrf([1, 0], [0, 0], [5, 0], lam=1.6) == 1

    def test_full_partition_is_masked(self):
        # A partition at the hard cap never wins, whatever its score.
        assert _hdrf([1, 0], [1, 0], [5, 0], capacity=5) == 1

