"""Deterministic integer hashing shared by all partitioners.

Python's builtin ``hash`` is randomized per process for str and not stable
across numpy dtypes, so stateless partitioners (DBH, Grid) and the 2PS-L
hash fallback use an explicit splitmix64 finalizer — deterministic, well
mixed, and vectorizable over numpy arrays.  The per-edge fallbacks hash
one vertex at a time through the Python-int twin :func:`splitmix64_int`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)
_C1 = np.uint64(0xBF58476D1CE4E5B9)
_C2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)

#: Python-int copies of the constants above, for :func:`splitmix64_int`
#: (derived, so the twins cannot drift apart).
_MASK64_INT = int(_MASK64)
_C1_INT = int(_C1)
_C2_INT = int(_C2)
_GOLDEN_INT = int(_GOLDEN)


def splitmix64(values, seed: int = 0):
    """SplitMix64 finalizer over an int scalar or numpy array.

    Returns uint64 with the same shape as the input.  The ``seed`` is mixed
    in additively so different partitioners can decorrelate their hashes.
    """
    old = np.seterr(over="ignore")
    try:
        x = (np.asarray(values).astype(np.uint64) + _GOLDEN + np.uint64(seed)) & _MASK64
        x = (x ^ (x >> np.uint64(30))) * _C1 & _MASK64
        x = (x ^ (x >> np.uint64(27))) * _C2 & _MASK64
        x = x ^ (x >> np.uint64(31))
    finally:
        np.seterr(**old)
    return x


def splitmix64_int(value: int, seed: int = 0) -> int:
    """:func:`splitmix64` of one Python int, in Python-int arithmetic.

    Equals ``int(splitmix64(value, seed))`` for any ``seed`` in
    ``[0, 2**64)`` (which :func:`check_hash_seed` enforces; an
    out-of-range seed would wrap here where the numpy version raises),
    at a tenth of the cost of a numpy scalar call.  ``value`` must be a
    Python int: numpy integer scalars overflow in the first addition.
    """
    x = (value + _GOLDEN_INT + seed) & _MASK64_INT
    x = ((x ^ (x >> 30)) * _C1_INT) & _MASK64_INT
    x = ((x ^ (x >> 27)) * _C2_INT) & _MASK64_INT
    return x ^ (x >> 31)


def check_hash_seed(seed) -> int:
    """``seed`` as an int, or :class:`~repro.errors.ConfigurationError`
    when it lies outside the uint64 range ``[0, 2**64)`` the hash adds it
    in."""
    seed = int(seed)
    if not 0 <= seed <= _MASK64_INT:
        raise ConfigurationError(
            f"hash_seed must be in [0, 2**64), got {seed}"
        )
    return seed


def hash_to_partition(values, k: int, seed: int = 0):
    """Map vertex ids to partitions in ``[0, k)`` (scalar or vectorized)."""
    hashed = splitmix64(values, seed)
    result = (hashed % np.uint64(k)).astype(np.int64)
    if np.isscalar(values) or np.ndim(values) == 0:
        return int(result)
    return result
