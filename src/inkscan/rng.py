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
NumPy uint64 arithmetic and is bit-identical to the scalar class. In the
same way `normal_block` evaluates any window of its Box-Muller block, which
lets `synth` draw its noise on one thread per CPU with the same bytes as
on one thread. `polar_block` stops before the float64 cosine, so that
`synth` can take a float32 cosine where a bound proves its bytes hold.
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

        The returned list is in selection order, not sorted. Step j draws
        below(j + 1). When none of the k next outputs falls in `below`'s
        rejection zone, each step takes one output, so all k are evaluated
        in one `u64_block`; otherwise the steps draw one at a time.
        """
        if not 0 <= k <= n:
            raise ValueError(f"cannot sample {k} of {n}")
        if n <= _MASK64:
            u = u64_block(self._state, 0, k)
            m = np.arange(1, k + 1, dtype=np.uint64)
            m += np.uint64(n - k)  # step j draws below(m = j + 1)
            # below(m) rejects u >= 2^64 - (2^64 mod m), and 2^64 mod m = (2^64 - m) mod m
            if not (np.uint64(_MASK64) - u < (-m) % m).any():
                self._state = (self._state + k * _GOLDEN) & _MASK64
                return _floyd(n, k, (u % m).tolist())
        return _floyd(n, k, (self.below(j + 1) for j in range(n - k, n)))


def _floyd(n: int, k: int, draws) -> list[int]:
    """Floyd's walk: step j (n - k <= j < n) takes its draw t in [0, j], or
    j itself when t is already chosen."""
    chosen: set[int] = set()
    order: list[int] = []
    for j, t in zip(range(n - k, n), draws):
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
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z *= np.uint64(_GOLDEN)
    z += np.uint64(seed & _MASK64)
    shifted = np.empty_like(z)
    z ^= np.right_shift(z, np.uint64(30), out=shifted)
    z *= np.uint64(_MIX1)
    z ^= np.right_shift(z, np.uint64(27), out=shifted)
    z *= np.uint64(_MIX2)
    z ^= np.right_shift(z, np.uint64(31), out=shifted)
    return z


def polar_block(seed: int, start: int, count: int,
                lo: int = 0, hi: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Box-Muller (radius, angle) of draws lo:hi (default all) of a block of `count`.

    The block consumes stream positions [start, start + 2*count): draw i
    takes its radius sqrt(-2 ln u1), u1 in (0, 1], from position start+i
    and its angle 2 pi u2, u2 in [0, 1), from start+count+i. Draw i is
    radius[i] * cos(angle[i]) (see `normal_block`).
    """
    hi = count if hi is None else hi
    if not 0 <= lo <= hi <= count:
        raise ValueError(f"window {lo}:{hi} not inside a block of {count}")
    radius = (u64_block(seed, start + lo, hi - lo) >> np.uint64(11)).astype(np.float64)
    angle = (u64_block(seed, start + count + lo, hi - lo) >> np.uint64(11)).astype(np.float64)
    # (0, 1] so the log is finite
    radius += 1.0
    radius *= _DOUBLE_SCALE
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle *= _DOUBLE_SCALE
    angle *= 2.0 * math.pi
    return radius, angle


def normal_block(seed: int, start: int, count: int,
                 lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Draws lo:hi (default all) of a block of `count` standard normals, via Box-Muller.

    Each draw is radius * cos(angle) from `polar_block`, in float64. A
    window computes only its own draws and is bit-equal to the same slice
    of the whole block, so callers may split a block into tiles and draw
    them on any number of threads. Callers advance `start` by 2*count.
    """
    radius, angle = polar_block(seed, start, count, lo, hi)
    np.cos(angle, out=angle)
    radius *= angle
    return radius
