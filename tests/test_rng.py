"""The seeded generator must match the published SplitMix64 stream and its
vectorized form must agree with the scalar one bit for bit."""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import avx512_off_env
from inkscan.rng import SplitMix64, normal_block, polar_block, u64_block

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


def scalar_sample_indices(gen, n, k):
    """Floyd's algorithm one `below` draw at a time, the reference for the block path."""
    chosen, order = set(), []
    for j in range(n - k, n):
        t = gen.below(j + 1)
        if t in chosen:
            t = j
        chosen.add(t)
        order.append(t)
    return order


SAMPLE_CASES = [(0, 0), (1, 0), (1, 1), (5, 5), (10, 4), (6, 2), (4097, 4097),
                (39_322, 10_000), (2**32 + 3, 50), (2**64 - 1, 3), (2**64, 2),
                (2**63 + 1, 1), (2**63 + 5, 5), (2**63 + 40, 40), (3 * 2**62, 30)]


@pytest.mark.parametrize("n, k", SAMPLE_CASES)
def test_sample_indices_matches_scalar_draws(n, k):
    """Same indices and the same next state as drawing one `below` at a time,
    whether or not a draw falls in `below`'s rejection zone."""
    for seed in (0, 7, 123_456_789, 2**63 + 17, 2**64 - 1):
        gen, ref = SplitMix64(seed), SplitMix64(seed)
        assert gen.sample_indices(n, k) == scalar_sample_indices(ref, n, k), seed
        assert gen.next_u64() == ref.next_u64(), seed


def test_sample_indices_random_cases_match_scalar_draws():
    pick = SplitMix64(2024)
    for _ in range(300):
        n = 1 + pick.below([50, 10**6, 2**40, 2**64 - 1][pick.below(4)])
        k = pick.below(min(n, 200) + 1)
        seed = pick.next_u64()
        gen, ref = SplitMix64(seed), SplitMix64(seed)
        assert gen.sample_indices(n, k) == scalar_sample_indices(ref, n, k), (n, k, seed)
        assert gen.next_u64() == ref.next_u64(), (n, k, seed)


def test_sample_indices_falls_back_past_two_to_the_63():
    """Just above 2^63, `below` rejects about half its draws: the sample then
    consumes more than k outputs, as the scalar draws do."""
    n, k = 2**63 + 40, 40
    gen = SplitMix64(5)
    gen.sample_indices(n, k)
    ahead = SplitMix64(5)
    for _ in range(k):
        ahead.next_u64()
    assert gen.next_u64() != ahead.next_u64()


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


def test_polar_block_is_normal_blocks_radius_and_angle():
    for lo, hi in ((0, 300), (17, 18), (5, 5)):
        radius, angle = polar_block(9, 40, 300, lo, hi)
        assert (radius * np.cos(angle)).tobytes() == normal_block(9, 40, 300, lo, hi).tobytes()
        assert (radius < 8.58).all() and (angle >= 0).all() and (angle < 2 * math.pi).all()
    with pytest.raises(ValueError):
        polar_block(9, 0, 3, 2, 1)


def stream_angles(count: int, window: int = 1 << 18):
    """Box-Muller angles of one seed's block, a window at a time."""
    for lo in range(0, count, window):
        yield polar_block(77, 0, count, lo, min(lo + window, count))[1]


def check_float32_cos_bound():
    """|cos(float32 a) - cos(a)| <= 2^-21 on Box-Muller angles, a dense grid
    of [0, 2 pi) and its quarter points: half the E = 2^-20 on which synth's
    margin for keeping a float32 cosine's byte is built."""
    grid = np.linspace(0.0, 2 * math.pi, 1 << 20, endpoint=False)
    edges = np.array([0.0, math.pi / 2, math.pi, 3 * math.pi / 2,
                      np.nextafter(2 * math.pi, 0.0)])
    worst = 0.0
    for angle in (*stream_angles(1 << 22), grid, edges):
        c32 = np.cos(angle.astype(np.float32)).astype(np.float64)
        worst = max(worst, float(np.abs(c32 - np.cos(angle)).max()))
    assert worst <= 2.0**-21, worst


def check_gathered_cos_bits():
    """synth recomputes its unsure draws with float64 cos on gathered
    angles, so those must have the bits of cos on the whole window."""
    gen = np.random.default_rng(3)
    for angle in stream_angles(1 << 20, 65_536):
        whole = np.cos(angle)
        for size in (1, 3, 8, 15, 16, 17, 64, 1127, angle.size // 2):
            picked = np.sort(gen.choice(angle.size, size, replace=False))
            assert np.cos(angle[picked]).tobytes() == whole[picked].tobytes(), size


@pytest.mark.parametrize("check", [check_float32_cos_bound, check_gathered_cos_bits])
@pytest.mark.parametrize("dispatch", ["native", "avx512 off"])
def test_cosine_facts_synth_relies_on(check, dispatch):
    """In process, and with NumPy's AVX-512 loops off (float32 cos has
    loops of its own for each target)."""
    if dispatch == "native":
        check()
        return
    code = ("import sys; sys.path.insert(0, %r); import test_rng; test_rng.%s()"
            % (str(Path(__file__).parent), check.__name__))
    result = subprocess.run([sys.executable, "-c", code], env=avx512_off_env(),
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
