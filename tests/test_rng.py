"""The seeded generator must match the published SplitMix64 stream and its
vectorized form must agree with the scalar one bit for bit."""

import math

import numpy as np
import pytest

from inkscan.rng import SplitMix64, normal_block, u64_block

# First outputs of the public-domain SplitMix64 reference for these seeds.
REFERENCE_STREAMS = {
    0: [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F, 0xF88BB8A8724C81EC],
    1234567: [0x599ED017FB08FC85, 0x2C73F08458540FA5, 0x883EBCE5A3F27C77],
    (1 << 64) - 1: [SplitMix64((1 << 64) - 1).next_u64()],  # wraps, no crash
}


def test_known_answer_vectors():
    for seed, expected in REFERENCE_STREAMS.items():
        gen = SplitMix64(seed)
        got = [gen.next_u64() for _ in expected]
        assert got == expected


def test_block_matches_scalar_stream():
    for seed in (0, 1, 99991, 2**63 + 17):
        gen = SplitMix64(seed)
        scalar = [gen.next_u64() for _ in range(40)]
        assert u64_block(seed, 0, 40).tolist() == scalar
        assert u64_block(seed, 10, 25).tolist() == scalar[10:35]


def test_doubles_in_unit_interval():
    gen = SplitMix64(3)
    values = [gen.next_double() for _ in range(2000)]
    assert all(0.0 <= v < 1.0 for v in values)
    assert abs(sum(values) / len(values) - 0.5) < 0.02


def test_below_bounds_and_coverage():
    gen = SplitMix64(42)
    seen = set()
    for _ in range(500):
        v = gen.below(7)
        assert 0 <= v < 7
        seen.add(v)
    assert seen == set(range(7))
    assert SplitMix64(42).below(1) == 0


def test_below_rejects_empty_range():
    with pytest.raises(ValueError, match="n >= 1"):
        SplitMix64(0).below(0)


def test_sample_indices_rejects_k_above_n():
    with pytest.raises(ValueError, match="cannot sample 4 of 3"):
        SplitMix64(0).sample_indices(3, 4)


def test_below_determinism():
    a = [SplitMix64(9).below(1000) for _ in range(1)]
    b = [SplitMix64(9).below(1000) for _ in range(1)]
    assert a == b


def test_sample_indices_distinct_and_uniformish():
    gen = SplitMix64(7)
    picks = gen.sample_indices(10, 4)
    assert len(picks) == len(set(picks)) == 4
    assert all(0 <= p < 10 for p in picks)
    assert SplitMix64(7).sample_indices(10, 4) == picks
    assert sorted(SplitMix64(11).sample_indices(5, 5)) == list(range(5))
    # every element should be picked a fair share of the time
    hits = [0] * 6
    for seed in range(600):
        for p in SplitMix64(seed).sample_indices(6, 2):
            hits[p] += 1
    assert min(hits) > 120 and max(hits) < 280  # expectation 200 each


def test_normal_block_statistics_and_reference():
    z = normal_block(5, 0, 100_000)
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02
    # independent recomputation straight from the u64 stream
    u = u64_block(5, 0, 8)
    u1 = ((u[:4] >> np.uint64(11)).astype(float) + 1.0) * 2.0**-53
    u2 = (u[4:] >> np.uint64(11)).astype(float) * 2.0**-53
    expected = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2)
    assert normal_block(5, 0, 4).tolist() == expected.tolist()


def test_normal_block_window_offsets_compose():
    n = 19
    for start in (0, 77):
        whole = normal_block(21, start, n)
        # a window is the same slice of the whole block, bit for bit
        for lo in (0, 1, n - 1, n):
            for hi in (0, 1, n - 1, n):
                if lo <= hi:
                    window = normal_block(21, start, n, lo, hi)
                    assert window.tobytes() == whole[lo:hi].tobytes(), (start, lo, hi)
    for lo, hi in ((-1, 3), (4, 3), (0, n + 1)):
        with pytest.raises(ValueError):
            normal_block(21, 0, n, lo, hi)
