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

    Property tests: under identical random assignments every metric,
    the dirty-delta barrier and the shared-memory round trip must agree
    with the dense representation bit for bit, while the replica
    storage shrinks ~8x.
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

    @pytest.mark.parametrize("seed", [0, 3, 8])
    def test_dirty_delta_merge_matches_dense(self, seed):
        from repro.partitioning.state import merge_replica_deltas

        n, k, m = 30, 11, 300
        rng = np.random.default_rng(seed)

        def build(packed):
            state = PartitionState(n, k, m, packed=packed)
            views = [
                PartitionState(n, k, m, track_dirty=True, packed=packed)
                for _ in range(3)
            ]
            return state, views

        dense_state, dense_views = build(False)
        packed_state, packed_views = build(True)
        for _ in range(3):
            for dv, pv in zip(dense_views, packed_views):
                c = int(rng.integers(0, 15))
                if not c:
                    continue
                us = rng.integers(0, n, size=c)
                vs = rng.integers(0, n, size=c)
                ps = rng.integers(0, k, size=c)
                for view in (dv, pv):
                    view.scatter_edges(us, vs, ps)
                    view.mark_dirty(us)
                    view.mark_dirty(vs)
            rows_dense = merge_replica_deltas(dense_state, dense_views)
            rows_packed = merge_replica_deltas(packed_state, packed_views)
            assert rows_dense == rows_packed
            np.testing.assert_array_equal(
                np.asarray(packed_state.replicas), dense_state.replicas
            )
            np.testing.assert_array_equal(
                packed_state.sizes, dense_state.sizes
            )
            for dv, pv in zip(dense_views, packed_views):
                np.testing.assert_array_equal(
                    np.asarray(pv.replicas), dv.replicas
                )
                assert not pv.dirty.any()

    def test_shared_packed_round_trip(self):
        creator = PartitionState.from_shared(8, 11, 20, packed=True)
        try:
            attacher = PartitionState.attach(
                creator.shm_name, 8, 11, 20, packed=True
            )
            creator.scatter_edges([0, 1], [2, 3], [8, 10])
            assert attacher.replicas[0, 8] and attacher.replicas[3, 10]
            assert attacher.sizes[8] == 1 and attacher.sizes[10] == 1
            assert PartitionState.shared_nbytes(8, 11, packed=True) < (
                PartitionState.shared_nbytes(8, 11)
            )
            attacher.close()
        finally:
            creator.close()
            creator.unlink()


class TestSharedMemoryState:
    """from_shared / attach lifecycle (see the module docstring contract)."""

    def test_heap_state_lifecycle_is_noop(self):
        state = PartitionState(4, 2, 10)
        assert state.shm_name is None
        state.close()
        state.unlink()  # both no-ops; arrays stay usable
        state.scatter_edges([0], [1], [0])
        assert state.sizes.tolist() == [1, 0]

    def test_attacher_sees_creator_writes(self):
        creator = PartitionState.from_shared(8, 4, 20, alpha=1.2)
        try:
            assert creator.shm_name is not None
            attacher = PartitionState.attach(creator.shm_name, 8, 4, 20, 1.2)
            creator.scatter_edges([0], [1], [2])
            attacher.scatter_edges([3], [4], [1])
            # both mutations visible through both mappings
            assert creator.sizes.tolist() == [0, 1, 1, 0]
            assert attacher.sizes.tolist() == [0, 1, 1, 0]
            assert attacher.replicas[0, 2] and creator.replicas[3, 1]
            assert creator.capacity == attacher.capacity
            attacher.close()
        finally:
            creator.close()
            creator.unlink()

    def test_from_shared_starts_zeroed(self):
        state = PartitionState.from_shared(16, 3, 30)
        try:
            assert not state.replicas.any()
            assert state.sizes.tolist() == [0, 0, 0]
        finally:
            state.close()
            state.unlink()

    def test_attach_unknown_name_raises(self):
        with pytest.raises(PartitioningError, match="no shared"):
            PartitionState.attach("repro-no-such-segment", 4, 2, 10)

    def test_attach_after_unlink_raises(self):
        creator = PartitionState.from_shared(4, 2, 10)
        name = creator.shm_name
        creator.close()
        creator.unlink()
        with pytest.raises(PartitioningError):
            PartitionState.attach(name, 4, 2, 10)

    def test_attach_rejects_undersized_segment(self):
        creator = PartitionState.from_shared(4, 2, 10)
        try:
            with pytest.raises(PartitioningError, match="holds"):
                PartitionState.attach(creator.shm_name, 4096, 64, 10)
        finally:
            creator.close()
            creator.unlink()

    def test_close_and_unlink_are_idempotent(self):
        state = PartitionState.from_shared(4, 2, 10)
        state.close()
        state.close()
        state.unlink()
        state.unlink()

    def test_attacher_never_unlinks(self):
        creator = PartitionState.from_shared(4, 2, 10)
        try:
            attacher = PartitionState.attach(creator.shm_name, 4, 2, 10)
            attacher.close()
            attacher.unlink()  # must be a no-op for non-owners
            again = PartitionState.attach(creator.shm_name, 4, 2, 10)
            again.close()
        finally:
            creator.close()
            creator.unlink()

    def test_shared_nbytes_aligns_sizes(self):
        # replicas bytes rounded up to int64 alignment, then k sizes
        assert PartitionState.shared_nbytes(3, 3) == 16 + 24
        assert PartitionState.shared_nbytes(0, 2) == max(0 + 16, 1)


class TestReplicaDeltaBarriers:
    """Property tests for the dirty-row delta barrier (ISSUE 4 satellite):
    applying accumulated deltas must reconstruct exactly the state a full
    replica-matrix re-broadcast would produce, barrier after barrier."""

    @staticmethod
    def _make_views(global_state, n_workers):
        views = []
        for _ in range(n_workers):
            view = PartitionState(
                global_state.n_vertices,
                global_state.k,
                global_state.n_edges,
                global_state.alpha,
                track_dirty=True,
            )
            view.replicas[:] = global_state.replicas
            view.sizes[:] = global_state.sizes
            views.append(view)
        return views

    @staticmethod
    def _full_merge(global_state, views):
        """The pre-delta reference barrier: full re-broadcast."""
        merged = np.logical_or.reduce(
            [global_state.replicas] + [v.replicas for v in views]
        )
        new_sizes = global_state.sizes + sum(
            v.sizes - global_state.sizes for v in views
        )
        return merged, new_sizes

    def _random_round(self, rng, views, extra_dirty=False):
        """One sync window per view: disjoint random edges, dirty marks."""
        n = views[0].n_vertices
        k = views[0].k
        for view in views:
            m = int(rng.integers(0, 12))
            if m:
                us = rng.integers(0, n, size=m)
                vs = rng.integers(0, n, size=m)
                ps = rng.integers(0, k, size=m)
                view.scatter_edges(us, vs, ps)
                view.mark_dirty(us)
                view.mark_dirty(vs)
            if extra_dirty:
                # A superset mark (rows touched but not written) must
                # never change the outcome.
                view.mark_dirty(rng.integers(0, n, size=3))

    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 99])
    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_accumulated_deltas_reconstruct_full_matrix(
        self, seed, n_workers
    ):
        from repro.partitioning.state import merge_replica_deltas

        rng = np.random.default_rng(seed)
        n, k, m = 40, 5, 400
        state = PartitionState(n, k, m)
        views = self._make_views(state, n_workers)
        for round_no in range(4):
            self._random_round(rng, views, extra_dirty=round_no % 2 == 1)
            expect_replicas, expect_sizes = self._full_merge(state, views)
            rows = merge_replica_deltas(state, views)
            np.testing.assert_array_equal(state.replicas, expect_replicas)
            np.testing.assert_array_equal(state.sizes, expect_sizes)
            assert rows <= n
            for view in views:
                np.testing.assert_array_equal(
                    view.replicas, state.replicas
                )
                np.testing.assert_array_equal(view.sizes, state.sizes)
                assert not view.dirty.any(), "barrier must clear dirt"

    def test_overshoot_sizes_merge_exactly(self):
        """The stale-view overshoot PR 3 fixed: a worker's size view may
        legitimately exceed the hard cap; the delta barrier must carry
        the overshoot through unchanged, like the full merge."""
        from repro.partitioning.state import merge_replica_deltas

        state = PartitionState(6, 2, 8, alpha=1.0)  # capacity 4
        views = self._make_views(state, 2)
        # Worker 0 overshoots partition 0 well past the cap; worker 1
        # writes nothing (its delta is empty).
        us = np.array([0, 1, 2, 3, 4, 5])
        views[0].scatter_edges(us, us, np.zeros(6, dtype=np.int64))
        views[0].mark_dirty(us)
        expect_replicas, expect_sizes = self._full_merge(state, views)
        merge_replica_deltas(state, views)
        np.testing.assert_array_equal(state.replicas, expect_replicas)
        np.testing.assert_array_equal(state.sizes, expect_sizes)
        assert state.sizes[0] == 6 > state.capacity

    def test_clean_barrier_touches_no_rows(self):
        from repro.partitioning.state import merge_replica_deltas

        state = PartitionState(10, 3, 30)
        views = self._make_views(state, 3)
        assert merge_replica_deltas(state, views) == 0

    def test_dirty_bitmap_lifecycle(self):
        state = PartitionState(8, 2, 10, track_dirty=True)
        assert state.dirty is not None and not state.dirty.any()
        state.mark_dirty(np.array([1, 3, 3]))
        assert state.dirty[[1, 3]].all() and state.dirty.sum() == 2
        untracked = PartitionState(8, 2, 10)
        assert untracked.dirty is None
        untracked.mark_dirty(np.array([1]))  # no-op by contract

    def test_shared_segment_round_trips_dirty_bitmap(self):
        creator = PartitionState.from_shared(6, 2, 10, track_dirty=True)
        try:
            attacher = PartitionState.attach(
                creator.shm_name, 6, 2, 10, track_dirty=True
            )
            attacher.mark_dirty(np.array([2, 4]))
            assert creator.dirty[[2, 4]].all()
            assert PartitionState.shared_nbytes(6, 2, True) == (
                PartitionState.shared_nbytes(6, 2) + 6
            )
            attacher.close()
        finally:
            creator.close()
            creator.unlink()


class TestWireDeltaBarriers:
    """The distributed runner's wire barrier (extract -> merge -> refresh)
    must be bit-identical to the shared-memory ``merge_replica_deltas``
    path, barrier after barrier, dense and packed, including a trip of
    every delta through the wire payload encoding."""

    @staticmethod
    def _universe(n, k, m, n_workers, packed):
        state = PartitionState(n, k, m, packed=packed)
        views = [
            PartitionState(n, k, m, track_dirty=True, packed=packed)
            for _ in range(n_workers)
        ]
        return state, views

    @pytest.mark.parametrize("seed", [0, 3, 21])
    @pytest.mark.parametrize("n_workers", [1, 3])
    @pytest.mark.parametrize("packed", [False, True])
    def test_wire_path_matches_shared_memory_merge(
        self, seed, n_workers, packed
    ):
        from repro.core import wire
        from repro.partitioning.state import (
            apply_replica_refresh,
            extract_replica_delta,
            merge_replica_deltas,
            merge_replica_wire_deltas,
        )

        rng = np.random.default_rng(seed)
        n, k, m = 40, 11, 400
        shm_state, shm_views = self._universe(n, k, m, n_workers, packed)
        net_state, net_views = self._universe(n, k, m, n_workers, packed)
        for _ in range(4):
            for sv, nv in zip(shm_views, net_views):
                c = int(rng.integers(0, 12))
                if c:
                    us = rng.integers(0, n, size=c)
                    vs = rng.integers(0, n, size=c)
                    ps = rng.integers(0, k, size=c)
                    for view in (sv, nv):
                        view.scatter_edges(us, vs, ps)
                        view.mark_dirty(us)
                        view.mark_dirty(vs)
            # Shared-memory universe: the in-place barrier.
            merge_replica_deltas(shm_state, shm_views)
            # Wire universe: extract each worker's delta, round-trip it
            # through the payload codec (as MSG_WINDOW_RESULT would),
            # fold coordinator-side, broadcast the refresh.
            deltas = []
            for view in net_views:
                rows, rows_data, sizes = extract_replica_delta(view)
                fields = wire.decode_payload(wire.encode_payload({
                    "rows": rows,
                    "rows_data": np.asarray(rows_data),
                    "sizes": sizes,
                }))
                deltas.append(
                    (fields["rows"], fields["rows_data"], fields["sizes"])
                )
            rows, merged, new_sizes = merge_replica_wire_deltas(
                net_state, deltas
            )
            refresh = wire.decode_payload(wire.encode_payload({
                "rows": rows, "rows_data": merged, "sizes": new_sizes,
            }))
            for view in net_views:
                apply_replica_refresh(
                    view, refresh["rows"], refresh["rows_data"],
                    refresh["sizes"],
                )
            np.testing.assert_array_equal(
                np.asarray(net_state.replicas),
                np.asarray(shm_state.replicas),
            )
            np.testing.assert_array_equal(net_state.sizes, shm_state.sizes)
            for sv, nv in zip(shm_views, net_views):
                np.testing.assert_array_equal(
                    np.asarray(nv.replicas), np.asarray(sv.replicas)
                )
                np.testing.assert_array_equal(nv.sizes, sv.sizes)
                assert not nv.dirty.any(), "refresh must clear dirt"

    def test_extract_requires_dirty_tracking(self):
        from repro.partitioning.state import extract_replica_delta

        with pytest.raises(PartitioningError):
            extract_replica_delta(PartitionState(4, 2, 10))
