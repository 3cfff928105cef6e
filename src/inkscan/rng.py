"""Seeded, portable pseudo-random generation.

All randomized behavior in this package (centroid seeding, synthetic
document layout, CSV sampling) draws from SplitMix64 so that results are
reproducible bit-for-bit from a 64-bit seed, independent of Python's own
``random`` module or NumPy's generators.

SplitMix64 (Steele, Lea & Flood 2014; Vigna's public-domain reference):

    state  <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z      <- state
    z      <- ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z      <- ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    output <- z XOR (z >> 31)

The n-th output is therefore mix64(seed + n * 0x9E3779B97F4A7C15), which
makes the stream counter-based: `u64_block` evaluates any window of it with
NumPy uint64 arithmetic and is bit-identical to the scalar class.
"""

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# 53-bit mantissa: (u64 >> 11) * 2^-53 is uniform on [0, 1)
_DOUBLE_SCALE = 2.0 ** -53


def mix64(z: int) -> int:
    """Scalar SplitMix64 finalizer on a 64-bit state."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Sequential SplitMix64 stream for scalar draws."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return mix64(self._state)

    def next_double(self) -> float:
        """Uniform float64 in [0, 1)."""
        return (self.next_u64() >> 11) * _DOUBLE_SCALE

    def below(self, n: int) -> int:
        """Unbiased uniform integer in [0, n), by rejection sampling."""
        if n <= 0:
            raise ValueError("below() needs n >= 1")
        limit = ((1 << 64) // n) * n
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def spawn_seed(self) -> int:
        """Derive a child seed; advancing the parent keeps streams disjoint."""
        return self.next_u64()

    def sample_indices(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n), uniformly (Floyd's algorithm).

        The returned list is in selection order, not sorted.
        """
        if not 0 <= k <= n:
            raise ValueError(f"cannot sample {k} of {n}")
        chosen: set[int] = set()
        order: list[int] = []
        for j in range(n - k, n):
            t = self.below(j + 1)
            if t in chosen:
                t = j
            chosen.add(t)
            order.append(t)
        return order


def u64_block(seed: int, start: int, count: int) -> np.ndarray:
    """Outputs start+1 .. start+count of the SplitMix64 stream for `seed`.

    Vectorized counter evaluation; u64_block(s, 0, n)[i] equals the i-th
    next_u64() of SplitMix64(s).
    """
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z = (np.uint64(seed & _MASK64) + idx * np.uint64(_GOLDEN))
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def normal_block(seed: int, start: int, count: int) -> np.ndarray:
    """`count` standard-normal draws via Box-Muller.

    Consumes stream positions [start, start + 2*count): the first half maps
    to radii, the second to angles. Callers advance `start` by 2*count.
    """
    u = u64_block(seed, start, 2 * count)
    # (0, 1] so the log is finite
    u1 = ((u[:count] >> np.uint64(11)).astype(np.float64) + 1.0) * _DOUBLE_SCALE
    u2 = (u[count:] >> np.uint64(11)).astype(np.float64) * _DOUBLE_SCALE
    return np.sqrt(-2.0 * np.log(u1)) * np.cos((2.0 * math.pi) * u2)
