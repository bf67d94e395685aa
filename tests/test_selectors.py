import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ergolab.selectors as selectors
from ergolab.rng import MASK64, child_seed, gamma_steps, mix_steps, scan_buffers, uniform01, uniform01_block
from ergolab.selectors import (
    DEFAULT_CHUNK,
    _limits,
    _selected,
    _selection_chunks,
    OutOfRangeError,
    SelectorParams,
    count_selected,
    counting_function,
    deviation_statistics,
    generate_realization,
    realization_from_bits,
    select_first,
    sigma_prefix,
    sigma_values,
)


def test_params_validation():
    with pytest.raises(ValueError):
        SelectorParams(a=0.5, seed=1, n_max=10)
    with pytest.raises(ValueError):
        SelectorParams(a=0.0, seed=1, n_max=10)
    with pytest.raises(ValueError):
        SelectorParams(a=-0.1, seed=1, n_max=10)
    with pytest.raises(ValueError):
        SelectorParams(a=0.3, seed=1, n_max=0)
    SelectorParams(a=0.3, seed=1, n_max=1)


def test_first_index_always_selected():
    # sigma_1 = 1, so the 53-bit uniform (< 1 by construction) always passes
    for seed in range(50):
        r = generate_realization(SelectorParams(a=0.3, seed=seed, n_max=10))
        assert r.bits[0]
        assert counting_function(r, 1) == 1


def test_bit_exact_reproducibility():
    p = SelectorParams(a=0.3, seed=123456, n_max=50000)
    r1 = generate_realization(p)
    r2 = generate_realization(p)
    assert np.array_equal(r1.bits, r2.bits)
    assert np.array_equal(r1.ones, r2.ones)


def test_prefix_consistency_exhaustive():
    r = generate_realization(SelectorParams(a=0.25, seed=9, n_max=1000))
    bits = r.bits.astype(np.int64)
    for n in range(1, 1001):
        assert r.S(n) == bits[:n].sum()
    for m in range(1, 1001, 97):
        for n in range(m, 1001, 131):
            assert r.S(n) - r.S(m - 1) == bits[m - 1 : n].sum()


@given(st.integers(1, 300), st.integers(1, 300))
@settings(max_examples=60, deadline=None)
def test_block_counts_match_prefix_difference(m, n):
    if m > n:
        m, n = n, m
    r = generate_realization(SelectorParams(a=0.3, seed=4, n_max=300))
    assert r.S(n) - r.S(m - 1) == int(r.bits[m - 1 : n].sum())


@given(
    st.sampled_from([1 << 10, 1 << 11, 1 << 16]).flatmap(lambda edge: st.integers(edge - 2, edge + 2)),
    st.integers(0, MASK64),
)
@settings(max_examples=15, deadline=None)
def test_prefix_count_is_the_sum_of_the_bits(n_max, seed):
    # n_max across the edges of the streaming walk's chunks
    r = generate_realization(SelectorParams(a=0.3, seed=seed, n_max=n_max))
    sums = np.concatenate([[0], np.cumsum(r.bits)])
    assert [r.S(n) for n in range(n_max + 1)] == sums.tolist()
    assert r.selection_count == sums[-1]


def test_w_prefix_growth_band():
    # W_N / N^(1-a) stays in a fixed band for N >= 2
    a = 0.3
    n = np.arange(2, 200001)
    band = np.cumsum(sigma_values(a, 1, 200000))[1:] / n ** (1 - a)
    assert band.min() > 1.0
    assert band.max() < 1.0 / (1.0 - a) + 0.5


def test_w_prefix_strictly_increasing():
    assert np.all(np.diff(np.concatenate([[0.0], np.cumsum(sigma_values(0.45, 1, 5000))])) > 0)


def test_accessors_reject_indices_outside_the_window():
    # a negative n must not count from the end, nor a too-long y_values fail
    # with a numpy broadcast error
    r = generate_realization(SelectorParams(a=0.3, seed=1, n_max=100))
    assert (r.S(0), r.S(100)) == (0, r.selection_count)
    assert r.y_values(0).shape == (0,) and r.y_values(100, 101).shape == (0,)
    for call in (
        lambda: r.S(-1), lambda: r.S(101),
        lambda: r.y_values(101), lambda: r.y_values(-1), lambda: r.y_values(10, 0),
        lambda: r.y_values(10, 12),
    ):
        with pytest.raises(OutOfRangeError):
            call()


def test_y_sum_bound_exact():
    # sum |Y_n| <= S_N + W_N holds term by term, hence for every prefix
    r = generate_realization(SelectorParams(a=0.35, seed=77, n_max=20000))
    lhs = np.cumsum(np.abs(r.y_values(20000)))
    rhs = np.cumsum(r.bits) + np.cumsum(sigma_values(0.35, 1, 20000))
    assert np.all(lhs <= rhs)


def test_sigma_prefix_values():
    assert sigma_prefix(0.3, 1) == 1.0
    # 4-term direct sum oracle
    expected = 1.0 + 2.0**-0.5 + 3.0**-0.5 + 4.0**-0.5
    assert abs(sigma_prefix(0.5, 4) - expected) < 1e-14
    assert abs(sigma_prefix(0.5, 4) - 2.78445) < 1e-4


def test_sigma_prefix_doubling_ratio():
    # W_{2N} / W_N -> 2^(1-a); integral comparison puts it within 1e-3 at 1e6
    a = 0.3
    ratio = sigma_prefix(a, 2 * 10**6) / sigma_prefix(a, 10**6)
    assert abs(ratio - 2 ** (1 - a)) < 1e-3


def test_sigma_prefix_matches_w_prefix():
    # compensated scalar route vs cumulative array route
    w = np.cumsum(sigma_values(0.4, 1, 30000))
    for n in (1, 17, 4096, 30000):
        assert abs(w[n - 1] - sigma_prefix(0.4, n)) < 1e-10 * max(1.0, w[n - 1])


def test_mean_count_against_binomial_oracle():
    # mean of S_{1e4} over 1e3 fresh seeds within 3 standard errors of W_{1e4},
    # a just below 1/2 (the open-interval endpoint); SE from the exact
    # binomial variance sum sigma_n (1 - sigma_n)
    a = np.nextafter(0.5, 0.0)
    N, trials = 10**4, 10**3
    w = sigma_prefix(a, N)
    assert abs(w - 198.54) < 0.01
    sig = sigma_values(a, 1, N)
    var = float(np.sum(sig * (1.0 - sig)))
    se = math.sqrt(var / trials)
    counts = count_selected(a, [child_seed(321, t) for t in range(trials)], N)
    assert abs(np.mean(counts) - w) < 3 * se


def test_counting_function_synthetic_all_ones():
    p = SelectorParams(a=0.3, seed=0, n_max=64)
    r = realization_from_bits(p, np.ones(64, dtype=bool))
    for n in (1, 2, 33, 64):
        assert counting_function(r, n) == n
    with pytest.raises(OutOfRangeError):
        counting_function(r, 65)


def test_counting_function_monotone():
    r = generate_realization(SelectorParams(a=0.3, seed=8, n_max=10000))
    vals = [counting_function(r, n) for n in range(1, r.selection_count + 1)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_counting_function_asymptotics():
    # a_n ~ ((1-a) n)^(1/(1-a)): the normalized values at n = 1e3 and 1e4
    # agree within 15% per seed (oracle: inverting W_{a_n} ~ n)
    a = 0.3
    for seed in range(20):
        pos = select_first(a, seed, 10**4)
        r3 = pos[10**3 - 1] / (10**3) ** (1 / (1 - a))
        r4 = pos[10**4 - 1] / (10**4) ** (1 / (1 - a))
        assert abs(r3 / r4 - 1.0) < 0.15
        # and both sit near the predicted constant (1-a)^(1/(1-a))
        const = (1 - a) ** (1 / (1 - a))
        assert 0.5 * const < r4 < 2.0 * const


def test_select_first_agrees_with_dense_realization():
    p = SelectorParams(a=0.3, seed=42, n_max=100000)
    r = generate_realization(p)
    pos = select_first(0.3, 42, r.selection_count)
    assert np.array_equal(pos, r.ones)


def test_select_first_rejects_seeds_outside_64_bits():
    # the hash would wrap them onto the seeds below 2^64
    for seed in (-1, 1 << 64):
        with pytest.raises(ValueError, match="64-bit unsigned"):
            select_first(0.3, seed, 10)
    assert select_first(0.3, (1 << 64) - 1, 10).shape == (10,)


def walk_chunks(stop, chunks=None):
    """(lo, length) of the first `chunks` chunks (all, if None) of the
    streaming walk to stop, read off the walk itself."""
    seen, real = [], selectors._selected

    def spy(a, lo, z):
        seen.append((lo, z.shape[0]))
        return real(a, lo, z)

    with mock.patch.object(selectors, "_selected", spy):
        for _ in itertools.islice(_selection_chunks(0.3, 0, stop), chunks):
            pass
    return seen


WALK = walk_chunks(4 * DEFAULT_CHUNK)
# the last index of a chunk: the streaming walk's, then count_selected's
WALK_ENDS = [lo - 1 for lo, _ in WALK[1:]]
COUNT_ENDS = [k * DEFAULT_CHUNK for k in (1, 2, 3)]


@pytest.mark.parametrize("stop", [1, 1000, 1024, 1025, 2049, 2050, 70_000, 3 * DEFAULT_CHUNK + 5, None])
def test_walk_chunks_grow_with_the_index_up_to_default_chunk(stop):
    # the chunk from lo holds min(max(lo, 2^10), DEFAULT_CHUNK) indices, the
    # last one cut at stop; without stop, the first 12 chunks
    chunks = walk_chunks(stop, None if stop else 12)
    last = stop or math.inf
    lo = 1
    for start, m in chunks:
        assert (start, m) == (lo, min(max(lo, 1024), DEFAULT_CHUNK, last - lo + 1))
        lo += m
    assert (lo == stop + 1) if stop else (len(chunks) == 12)


def test_scans_agree_across_chunk_boundaries():
    # a window spanning several chunks of both walks: the dense, streaming
    # and counting scans agree with each other and, at the chunk edges, with
    # the index-at-a-time definition X_n = 1 iff u(seed, n) < n^(-a)
    a, seed = 0.3, 77
    n_max = 3 * DEFAULT_CHUNK + 12345
    r = generate_realization(SelectorParams(a=a, seed=seed, n_max=n_max))
    assert np.array_equal(select_first(a, seed, r.selection_count), r.ones)
    assert count_selected(a, [seed], n_max)[0] == r.selection_count
    ends = [lo - 1 for lo, _ in walk_chunks(n_max)[1:]] + COUNT_ENDS
    edges = [e + d for e in ends for d in (-1, 0, 1)]
    for n in edges + [n_max]:
        assert count_selected(a, [seed], n)[0] == r.S(n)
        assert bool(r.bits[n - 1]) == (uniform01(seed, n) < sigma_values(a, n, n)[0])


def _forbid_hashing(monkeypatch):
    def fail(*args):
        raise AssertionError("hashed before the inputs were checked")
    monkeypatch.setattr("ergolab.selectors.mix_steps", fail)


@pytest.mark.parametrize("a", [0.7, -0.1, 0.5, 0.0, math.nan])
def test_count_selected_rejects_a_outside_the_exponent_range(monkeypatch, a):
    _forbid_hashing(monkeypatch)
    with pytest.raises(ValueError, match=r"exponent a must lie in \(0, 1/2\)"):
        count_selected(a, [1], 10)


@pytest.mark.parametrize("N", [0, -5])
def test_count_selected_rejects_an_empty_window(monkeypatch, N):
    _forbid_hashing(monkeypatch)
    with pytest.raises(ValueError, match="n_max must be >= 1"):
        count_selected(0.3, [1], N)


def test_select_first_rejects_a_count_below_one(monkeypatch):
    _forbid_hashing(monkeypatch)
    with pytest.raises(ValueError, match="n_max must be >= 1"):
        select_first(0.3, 1, 0)


def test_count_selected_agrees_with_dense():
    p = SelectorParams(a=0.35, seed=10, n_max=50000)
    r = generate_realization(p)
    assert count_selected(0.35, [10], 50000)[0] == r.selection_count
    assert count_selected(0.35, [10], 1234)[0] == r.S(1234)


def test_deviation_statistics_basics():
    p = SelectorParams(a=0.3, seed=500, n_max=2000)
    rep = deviation_statistics(p, 2000, trials=200, thresholds=[0.0])
    assert rep.frequencies[0] == 1.0  # |S - W| >= 0 always
    assert rep.envelopes[0] == 1.0
    rep2 = deviation_statistics(p, 2000, trials=200, thresholds=[0.0])
    assert np.array_equal(rep.frequencies, rep2.frequencies)


@pytest.mark.parametrize("c", [0.0, -1000.0, math.inf, math.nan])
def test_deviation_statistics_rejects_bad_chernoff_c(c):
    p = SelectorParams(a=0.3, seed=500, n_max=2000)
    with pytest.raises(ValueError, match="chernoff_c"):
        deviation_statistics(p, 2000, trials=2, chernoff_c=c)


def test_deviation_statistics_tails():
    # at A = 3 sqrt(W) the normal approximation gives ~0.003; at W/2 the
    # Chernoff envelope is astronomically small - no occurrences expected
    p = SelectorParams(a=0.3, seed=1000, n_max=10**4)
    w = sigma_prefix(0.3, 10**4)
    rep = deviation_statistics(
        p, 10**4, trials=2000, thresholds=[3 * math.sqrt(w), 0.5 * w]
    )
    assert rep.frequencies[0] <= 0.01
    assert rep.frequencies[1] == 0.0
    assert rep.envelopes[1] < 1e-10


def test_realization_from_bits_roundtrip():
    p = SelectorParams(a=0.3, seed=3, n_max=500)
    r = generate_realization(p)
    r2 = realization_from_bits(p, r.bits)
    assert np.array_equal(r.bits, r2.bits)
    assert np.array_equal(r.ones, r2.ones)


# -- the exact integer scan against the float scan it replaced ---------------

def float_selection(a, seed, lo, hi):
    """The float scan X_n = 1 iff u(seed, n) < n^(-a), n in lo..hi: the oracle."""
    return uniform01_block(seed, lo, hi) < sigma_values(a, lo, hi)


def exact_window(a, seed, lo, hi):
    """Selected indices in lo..hi from the exact test, with the whole window
    as one chunk (so its one prefilter bound is sigma at lo)."""
    steps = gamma_steps(hi - lo + 1)
    z = mix_steps(seed, lo, steps, np.empty_like(steps), np.empty_like(steps))
    return _selected(a, lo, z)


EXPONENTS = st.floats(0.0, 0.5, exclude_min=True, exclude_max=True)
SEEDS = st.integers(0, MASK64)
DEEP = 2 * 10**8


@given(
    EXPONENTS, SEEDS,
    st.one_of(
        st.integers(1, 64),                                   # sigma near 1, n = 1
        st.integers(1, 4).map(lambda k: k * DEFAULT_CHUNK - 700),  # chunk edges
        st.integers(DEEP - DEFAULT_CHUNK, DEEP + DEFAULT_CHUNK),  # prefilter active
        st.integers(1, 2**40),
    ),
    st.integers(1, 1500),
)
@settings(max_examples=150, deadline=None)
@example(0.3, MASK64, 1, 1)  # n = 1 alone: sigma = 1, threshold 2^53
@example(np.nextafter(0.5, 0.0), 0, DEEP, 2 * DEFAULT_CHUNK)
def test_exact_window_matches_float_oracle(a, seed, lo, length):
    hi = lo + length - 1
    want = np.flatnonzero(float_selection(a, seed, lo, hi)) + lo
    assert np.array_equal(exact_window(a, seed, lo, hi), want)


@given(
    EXPONENTS,
    st.one_of(
        st.sampled_from(WALK),  # the streaming walk's chunks, 1..2^10 first
        st.integers(DEEP - DEFAULT_CHUNK, DEEP + DEFAULT_CHUNK).map(lambda lo: (lo, DEFAULT_CHUNK)),
    ),
    st.one_of(st.none(), st.integers(1, DEFAULT_CHUNK)),  # where a last chunk is cut
)
@settings(max_examples=60, deadline=None)
@example(np.nextafter(0.5, 0.0), WALK[0], None)
@example(np.nextafter(0.5, 0.0), WALK[1], None)
@example(np.nextafter(0.0, 1.0), (DEEP, DEFAULT_CHUNK), None)
def test_prefilter_bound_covers_every_limit_of_its_chunk(a, chunk, cut):
    # each mixer output is the largest that selects its index, so an index
    # drops out exactly where its chunk's bound lies under its limit
    lo, length = chunk[0], min(chunk[1], cut or chunk[1])
    z = _limits(a, np.arange(lo, lo + length, dtype=np.float64))
    assert np.array_equal(_selected(a, lo, z), np.arange(lo, lo + length))


@given(
    EXPONENTS, SEEDS, st.one_of(st.sampled_from(WALK_ENDS), st.sampled_from(COUNT_ENDS)),
    st.integers(1, 2000), st.integers(1, 2000),
)
@settings(max_examples=25, deadline=None)
def test_chunked_scans_match_float_oracle_across_chunk_edges(a, seed, end, before, after):
    # the windows straddle a chunk edge of the streaming walk from index 1
    # or of count_selected's walk
    lo, hi = max(1, end + 1 - before), end + after
    want = float_selection(a, seed, lo, hi)
    r = generate_realization(SelectorParams(a=a, seed=seed, n_max=hi))
    assert np.array_equal(r.bits[lo - 1 :], want)
    assert bool(r.bits[0])  # n = 1: threshold 2^53 passes every hash
    assert count_selected(a, [seed], hi)[0] == r.selection_count
    assert np.array_equal(select_first(a, seed, r.selection_count), r.ones)


@given(
    EXPONENTS,
    st.one_of(st.integers(1, 3 * DEFAULT_CHUNK), st.integers(DEEP, DEEP + 10**6)),
    st.integers(1, 300),
    st.lists(st.sampled_from([-1, 0, 1]), min_size=1, max_size=300),
    st.integers(0, 2047),
)
@settings(max_examples=150, deadline=None)
def test_exact_test_matches_float_oracle_at_the_threshold(a, lo, length, steps, low):
    # mixer outputs placed one hash step below, at and above sigma_n 2^53,
    # where a floor for the ceiling or <= for < would flip the bit
    n = np.arange(lo, lo + length)
    sig = sigma_values(a, lo, lo + length - 1)
    delta = np.resize(np.array(steps), length)
    h = np.clip(np.floor(sig * 2.0**53).astype(np.int64) + delta, 0, 2**53 - 1)
    z = (h.astype(np.uint64) << np.uint64(11)) | np.uint64(low)
    want = n[h * 2.0**-53 < sig]
    assert np.array_equal(_selected(a, lo, z), want)


@pytest.mark.parametrize("N", [1, 777, 10**4, DEFAULT_CHUNK, 3 * DEFAULT_CHUNK + 5])
def test_one_pass_counts_equal_per_seed_counts(N):
    a = 0.3
    seeds = [child_seed(17, t) for t in range(12)] + [0, MASK64]
    # against one streaming scan per seed, the selection generate_realization takes
    got = count_selected(a, np.array(seeds, dtype=np.uint64), N)
    assert got.tolist() == [sum(ones.shape[0] for ones in _selection_chunks(a, seed, N)) for seed in seeds]


@pytest.mark.parametrize("size", [1, 7, 8, 9, 10_000, DEFAULT_CHUNK])
def test_scan_buffers_start_on_cache_lines(size):
    steps, out, tmp = scan_buffers(size)
    for buf in (steps, out, tmp):
        assert buf.shape == (size,) and buf.dtype == np.uint64
        assert buf.ctypes.data % 64 == 0
    assert len({steps.ctypes.data, out.ctypes.data, tmp.ctypes.data}) == 3
    assert np.array_equal(steps, gamma_steps(size))
    plain = gamma_steps(size)
    want = mix_steps(5, 3, plain, np.empty_like(plain), np.empty_like(plain))
    assert np.array_equal(mix_steps(5, 3, steps, out, tmp), want)
