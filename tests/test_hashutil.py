"""Unit tests for the deterministic hashing helpers."""

import numpy as np

from repro.partitioning.hashutil import (
    hash_to_partition,
    splitmix64,
    splitmix64_int,
)


class TestSplitmix:
    def test_deterministic(self):
        assert splitmix64(12345) == splitmix64(12345)

    def test_seed_decorrelates(self):
        assert splitmix64(12345, seed=1) != splitmix64(12345, seed=2)

    def test_vectorized_matches_scalar(self):
        values = np.arange(100)
        vector = splitmix64(values)
        for i in range(100):
            assert vector[i] == splitmix64(i)

    def test_spreads_consecutive_inputs(self):
        hashed = splitmix64(np.arange(1000))
        # Consecutive integers should land in different high bits.
        assert np.unique(hashed >> np.uint64(32)).shape[0] > 900


class TestSplitmixInt:
    def test_matches_numpy_splitmix(self):
        """The Python-int twin equals the numpy hash, also modulo k, over
        the uint64 edges and random values, for seeds across the range."""
        rng = np.random.default_rng(9)
        values = [0, 1, 2**31, 2**63, 2**64 - 1] + rng.integers(
            0, 2**64 - 1, size=50, dtype=np.uint64, endpoint=True
        ).tolist()
        for seed in (0, 1, 2**63, 2**64 - 1):
            for x in values:
                expected = splitmix64(x, seed)
                assert splitmix64_int(x, seed) == int(expected)
                for k in (2, 7, 32, 70):
                    assert splitmix64_int(x, seed) % k == int(
                        expected % np.uint64(k)
                    )


class TestHashToPartition:
    def test_range(self):
        parts = hash_to_partition(np.arange(10_000), 7)
        assert parts.min() >= 0
        assert parts.max() < 7

    def test_scalar_returns_int(self):
        p = hash_to_partition(42, 5)
        assert isinstance(p, int)
        assert 0 <= p < 5

    def test_roughly_uniform(self):
        parts = hash_to_partition(np.arange(70_000), 7)
        counts = np.bincount(parts, minlength=7)
        assert counts.min() > 0.9 * 10_000
        assert counts.max() < 1.1 * 10_000

    def test_deterministic_across_calls(self):
        a = hash_to_partition(np.arange(100), 4, seed=3)
        b = hash_to_partition(np.arange(100), 4, seed=3)
        assert np.array_equal(a, b)
