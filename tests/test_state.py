"""Unit tests for PartitionState (replication matrix + balance cap)."""

import numpy as np
import pytest

from repro.errors import BalanceError, PartitioningError
from repro.partitioning import PackedReplicaMatrix, PartitionState


class TestConstruction:
    def test_capacity_formula(self):
        state = PartitionState(10, 4, 100, alpha=1.05)
        assert state.capacity == 26  # floor(1.05 * 25)

    def test_capacity_never_below_feasibility(self):
        # floor(alpha * m / k) < ceil(m / k) must be corrected upward.
        state = PartitionState(10, 3, 10, alpha=1.0)
        assert state.capacity == 4  # ceil(10 / 3)
        assert state.capacity * 3 >= 10

    def test_rejects_k_below_two(self):
        with pytest.raises(PartitioningError):
            PartitionState(10, 1, 100)

    def test_rejects_alpha_below_one(self):
        with pytest.raises(BalanceError):
            PartitionState(10, 2, 100, alpha=0.9)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
    def test_rejects_non_finite_alpha(self, alpha):
        with pytest.raises(BalanceError, match="finite number >= 1"):
            PartitionState(10, 2, 100, alpha=alpha)

    def test_rejects_negative_dims(self):
        with pytest.raises(PartitioningError):
            PartitionState(-1, 2, 100)


class TestAssignment:
    def test_assign_self_loop(self):
        state = PartitionState(4, 2, 10)
        state.scatter_edges([2], [2], [0])
        assert state.replica_counts()[2] == 1


class TestMetrics:
    def test_replication_factor_single_partition_usage(self):
        state = PartitionState(4, 2, 10)
        state.scatter_edges([0, 1], [1, 2], [0, 0])
        # 3 vertices, each on exactly 1 partition.
        assert state.replication_factor() == 1.0

    def test_replication_factor_with_replication(self):
        state = PartitionState(2, 2, 10)
        state.scatter_edges([0, 0], [1, 1], [0, 1])
        assert state.replication_factor() == 2.0

    def test_replication_factor_excludes_uncovered(self):
        state = PartitionState(100, 2, 10)
        state.scatter_edges([0], [1], [0])
        assert state.replication_factor() == 1.0

    def test_replication_factor_empty(self):
        state = PartitionState(10, 2, 10)
        assert state.replication_factor() == 0.0

    def test_vertex_cover_sizes(self):
        state = PartitionState(4, 2, 10)
        state.scatter_edges([0, 1], [1, 2], [0, 1])
        assert state.vertex_cover_sizes().tolist() == [2, 2]

    def test_measured_alpha(self):
        state = PartitionState(8, 2, 4)
        state.scatter_edges([0, 2], [1, 3], [0, 0])
        state.sizes[1] = 2  # balance manually for the metric
        assert state.measured_alpha() == 1.0
        state.sizes[0] = 3
        state.sizes[1] = 1
        assert state.measured_alpha() == 1.5

    def test_nbytes_grows_with_k(self):
        small = PartitionState(100, 4, 10)
        large = PartitionState(100, 64, 10)
        assert large.nbytes() > small.nbytes()


class TestScatterEdges:
    def test_records_bits_and_sizes(self):
        state = PartitionState(6, 3, 12)
        state.scatter_edges([0, 1], [2, 3], [1, 2])
        assert state.sizes.tolist() == [0, 1, 1]
        assert state.replicas[0, 1] and state.replicas[2, 1]
        assert state.replicas[1, 2] and state.replicas[3, 2]

    def test_empty_chunk_is_a_noop(self):
        state = PartitionState(6, 3, 12)
        state.scatter_edges(
            np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.int64)
        )
        assert state.sizes.tolist() == [0, 0, 0]
        assert not state.replicas.any()

    @pytest.mark.parametrize(
        "us, vs, ps",
        [
            ([0, 1], [2], [1, 2]),
            ([0], [2, 3], [1]),
            ([0, 1], [2, 3], [1]),
            ([0, 1], [2, 3], 1),
            (np.zeros((2, 2), np.int64), [2, 3], [1, 2]),
        ],
    )
    def test_mismatched_inputs_raise_clearly(self, us, vs, ps):
        state = PartitionState(6, 3, 12)
        with pytest.raises(PartitioningError, match="scatter_edges"):
            state.scatter_edges(us, vs, ps)
        # and the state is untouched by the rejected call
        assert state.sizes.tolist() == [0, 0, 0]
        assert not state.replicas.any()

    @pytest.mark.parametrize("ps", [[1, 3], [0, -1], [99, 0]])
    def test_out_of_range_partition_rejected_before_mutation(self, ps):
        """Regression (ISSUE 7 satellite): an out-of-range partition id
        used to surface as a raw ``IndexError`` *after* the replica
        bits of the in-range edges had already been scattered."""
        state = PartitionState(6, 3, 12)
        with pytest.raises(PartitioningError, match=r"\[0, 3\)"):
            state.scatter_edges([0, 1], [2, 3], ps)
        # validated up front: nothing was half-applied
        assert state.sizes.tolist() == [0, 0, 0]
        assert not state.replicas.any()


class TestPackedReplicaMatrix:
    """Bit-packed replica rows vs the dense bool matrix (ISSUE 7).

    Property tests: under identical random assignments every metric
    must agree with the dense representation bit for bit, while the
    replica storage shrinks ~8x (the barrier op's packed-vs-dense pins
    live with the op in ``tests/test_kernels.py``).
    """

    @staticmethod
    def _random_pair(seed, n=40, k=11, m=400):
        dense = PartitionState(n, k, m, alpha=1.5)
        packed = PartitionState(n, k, m, alpha=1.5, packed=True)
        rng = np.random.default_rng(seed)
        for _ in range(6):
            c = int(rng.integers(1, 30))
            us = rng.integers(0, n, size=c)
            vs = rng.integers(0, n, size=c)
            ps = rng.integers(0, k, size=c)
            dense.scatter_edges(us, vs, ps)
            packed.scatter_edges(us, vs, ps)
        return dense, packed

    @pytest.mark.parametrize("seed", [0, 1, 5, 9])
    @pytest.mark.parametrize("k", [2, 8, 9, 16, 17, 33])
    def test_metrics_match_dense(self, seed, k):
        dense, packed = self._random_pair(seed, k=k)
        assert isinstance(packed.replicas, PackedReplicaMatrix)
        np.testing.assert_array_equal(
            np.asarray(packed.replicas), dense.replicas
        )
        np.testing.assert_array_equal(
            packed.replica_counts(), dense.replica_counts()
        )
        np.testing.assert_array_equal(
            packed.vertex_cover_sizes(), dense.vertex_cover_sizes()
        )
        assert packed.replication_factor() == dense.replication_factor()
        np.testing.assert_array_equal(packed.sizes, dense.sizes)

    def test_nbytes_shrinks_eightfold_at_k32(self):
        dense = PartitionState(1000, 32, 10)
        packed = PartitionState(1000, 32, 10, packed=True)
        assert packed.replicas.nbytes * 8 == dense.replicas.nbytes
        assert dense.nbytes() / packed.nbytes() > 6.0

    def test_tail_bits_stay_zero_off_byte_boundary(self):
        state = PartitionState(4, 9, 10, packed=True)
        us = np.arange(4)
        state.scatter_edges(us, us[::-1], np.full(4, 8))
        raw = state.replicas.packed
        assert raw.shape == (4, 2)  # 9 bits -> 2 bytes per row
        assert (raw[:, 1] == 1).all()  # partition 8 = bit 0 of byte 1
        assert np.asarray(state.replicas).shape == (4, 9)

    def test_duplicate_bits_in_one_scatter(self):
        # Duplicate (vertex, partition) pairs inside one chunk must all
        # land (the packed write path cannot use buffered fancy |=).
        dense = PartitionState(6, 9, 20)
        packed = PartitionState(6, 9, 20, packed=True)
        us = np.array([0, 0, 0, 2])
        vs = np.array([1, 1, 3, 2])
        ps = np.array([3, 8, 3, 0])
        dense.scatter_edges(us, vs, ps)
        packed.scatter_edges(us, vs, ps)
        np.testing.assert_array_equal(
            np.asarray(packed.replicas), dense.replicas
        )

    def test_assign_and_single_bit_reads(self):
        state = PartitionState(4, 9, 10, packed=True)
        state.scatter_edges([0], [1], [8])
        assert state.replicas[0, 8] and state.replicas[1, 8]
        assert not state.replicas[0, 0]

    def test_scalar_bit_clear_supported(self):
        # The incremental partitioner clears replica bits on deletion.
        state = PartitionState(4, 9, 10, packed=True)
        state.replicas[0, 1] = True
        state.replicas[0, 8] = True
        state.replicas[0, 1] = False
        assert not state.replicas[0, 1]
        assert state.replicas[0, 8]  # neighboring bits untouched

    def test_fancy_bit_clear_writes_rejected(self):
        # Bulk clears stay unsupported: the streaming kernels never
        # clear bits, and a buffered fancy AND would drop duplicates.
        state = PartitionState(4, 9, 10, packed=True)
        with pytest.raises(PartitioningError):
            state.replicas[np.asarray([0, 1]), np.asarray([1, 2])] = False
        with pytest.raises(PartitioningError):
            state.replicas[0, 1] = 1  # only literal booleans
