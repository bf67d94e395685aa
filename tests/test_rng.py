import numpy as np
import pytest

from ergolab.rng import GAMMA, MASK64, child_seed, mix64, uniform01, uniform01_block


def test_scalar_matches_block():
    for seed in (0, 1, 42, 2**64 - 1):
        block = uniform01_block(seed, 1, 64)
        singles = np.array([uniform01(seed, n) for n in range(1, 65)])
        assert np.array_equal(block, singles)


def test_range_and_determinism():
    u = uniform01_block(12345, 1, 10000)
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    assert np.array_equal(u, uniform01_block(12345, 1, 10000))


def test_rough_uniformity():
    # 10 equal bins over 1e5 draws: counts within 5 sigma of 1e4
    u = uniform01_block(777, 1, 100000)
    counts, _ = np.histogram(u, bins=10, range=(0.0, 1.0))
    sigma = np.sqrt(100000 * 0.1 * 0.9)
    assert np.all(np.abs(counts - 10000) < 5 * sigma)


def test_distinct_seeds_differ():
    a = uniform01_block(1, 1, 1000)
    b = uniform01_block(2, 1, 1000)
    assert not np.array_equal(a, b)


def test_seeds_gamma_apart_share_a_shifted_stream():
    # stream(seed + k * GAMMA, n) = stream(seed, n + k), as the module states
    assert uniform01(0, 5) == uniform01(GAMMA, 4)
    assert np.array_equal(uniform01_block(3 * GAMMA & MASK64, 0, 99), uniform01_block(0, 3, 102))
    # seeds d < 2^20 apart meet at offset k = d / GAMMA mod 2^64, in either direction
    k = np.arange(1, 1 << 20, dtype=np.uint64) * np.uint64(pow(GAMMA, -1, 1 << 64))
    assert int(np.minimum(k, -k).min()) >= 1 << 42


def test_mix64_is_64bit():
    for z in (0, 1, 2**64 - 1, 0xDEADBEEF):
        assert 0 <= mix64(z) < 2**64


def test_child_seeds_distinct_and_stable():
    kids = [child_seed(99, i) for i in range(1000)]
    assert len(set(kids)) == 1000
    assert kids[0] == child_seed(99, 0)
    # children live in a salted namespace, not on the parent's value stream
    assert kids[0] != mix64(99)


@pytest.mark.parametrize("seed", [3, 10**9])
def test_index_independence(seed):
    # drawing an index in isolation equals drawing it inside a larger block
    wide = uniform01_block(seed, 1, 500)
    assert uniform01(seed, 250) == wide[249]
