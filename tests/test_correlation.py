import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from ergolab import hardy
from ergolab.correlation import (
    ITermsProfile,
    WeightParams,
    WeightSeries,
    aggregate_i_terms,
    c_sum_check,
    correlation_sum,
    correlation_window,
    has_profile,
    i_terms_profile,
    lag_count,
    profile_envelope,
    summability_statistic,
    vdc_inequality_check,
    weight_series,
)
from ergolab.selectors import (
    DEFAULT_CHUNK,
    OutOfRangeError,
    SelectorParams,
    generate_realization,
    realization_from_bits,
    sigma_values,
)


@pytest.fixture(scope="module")
def p32():
    return hardy.parse_expression("x^(3/2)", epsilon_hint=0.5)


@pytest.fixture(scope="module")
def wparams():
    return WeightParams(a=0.3, delta=0.1, b=0.35, c_exponent=0.8)


def small_pair(seed, n_max, p, wp):
    """A realization and its weight series."""
    r = generate_realization(SelectorParams(a=wp.a, seed=seed, n_max=n_max))
    return r, weight_series(r, hardy.phase_fractions(p, r.selection_count), wp)


def small_series(seed, n_max, p, wp):
    return small_pair(seed, n_max, p, wp)[1]


def synthetic_series(c_values, wp):
    """WeightSeries wrapper around explicit weights, for closed-form cases."""
    return WeightSeries(np.asarray(c_values, dtype=np.complex128), wp)


# ---------------------------------------------------------------------------
# Parameter validation.

def test_weight_params_ranges():
    with pytest.raises(ValueError):
        WeightParams(a=0.3, delta=0.1, b=0.3, c_exponent=0.8)  # b = a
    with pytest.raises(ValueError):
        WeightParams(a=0.3, delta=0.1, b=0.5, c_exponent=0.8)  # b = 1/2
    with pytest.raises(ValueError):
        WeightParams(a=0.3, delta=0.1, b=0.35, c_exponent=0.6)  # c = 2a
    with pytest.raises(ValueError):
        WeightParams(a=0.3, delta=0.6, b=0.35, c_exponent=0.8)


@given(st.floats(1e-9, 0.499), st.floats(0.01, 0.49))
@example(0.3, 0.1)
def test_default_midpoints(a, delta):
    # an omitted b or c is the midpoint of (a, 1/2) or of (2a, 1)
    assert WeightParams(a, delta) == WeightParams(a, delta, 0.5 * (a + 0.5), 0.5 * (2.0 * a + 1.0))


def test_weight_series_requires_matching_a(p32, wparams):
    r = generate_realization(SelectorParams(a=0.25, seed=1, n_max=100))
    with pytest.raises(ValueError):
        weight_series(r, hardy.phase_fractions(p32, r.selection_count), wparams)


def test_weight_series_rejects_short_table(p32, wparams):
    r = generate_realization(SelectorParams(a=0.3, seed=4, n_max=300))
    table = hardy.phase_fractions(p32, r.selection_count + 10)
    w = weight_series(r, table, wparams)  # a longer table is fine
    assert np.array_equal(w.c, small_series(4, 300, p32, wparams).c)
    with pytest.raises(ValueError, match="shorter"):
        weight_series(r, table[: r.selection_count - 1], wparams)
    # S_1 = 0 would index the table at -1
    bits = np.ones(20, dtype=np.uint8)
    bits[0] = 0
    r0 = realization_from_bits(SelectorParams(a=0.3, seed=4, n_max=20), bits)
    with pytest.raises(ValueError, match="X_1"):
        weight_series(r0, table, wparams)


# ---------------------------------------------------------------------------
# Weight sequence definition.

def test_first_weight_vanishes(p32, wparams):
    # sigma_1 = 1 and X_1 = 1, so Y_1 = 0 and c_1 = 0
    w = small_series(3, 500, p32, wparams)
    assert w.c[0] == 0.0


def test_unselected_weight_value(p32, wparams):
    # X_n = 0 forces c_n = -sigma_n e(p(S_n)) with S_n = S_{n-1}
    r, w = small_pair(5, 400, p32, wparams)
    fr = hardy.phase_fractions(p32, r.selection_count)
    phases = hardy.unit_phases(fr)
    for n in range(2, 401):
        if not r.bits[n - 1]:
            assert r.S(n) == r.S(n - 1)
            expected = -(n ** -0.3) * phases[r.S(n) - 1]
            assert abs(w.c[n - 1] - expected) < 1e-15


def test_weight_modulus_is_centered_selector(p32, wparams):
    # |c_n| = |Y_n| in {sigma_n, 1 - sigma_n}; |e(.)| = 1 to a rounding
    r, w = small_pair(7, 1000, p32, wparams)
    y = np.abs(r.y_values(1000))
    assert np.max(np.abs(np.abs(w.c) - y)) < 1e-15


def test_weight_series_against_independent_recomputation(p32, wparams):
    # oracle: rebuild each c_n from scratch with 200-bit mpmath phases
    r, w = small_pair(11, 200, p32, wparams)
    for n in range(1, 201):
        s = r.S(n)
        with mp.workprec(200):
            v = mp.power(s, mp.mpf(3) / 2)
            fr = float(v - mp.floor(v))
        y = float(r.bits[n - 1]) - n ** -0.3
        oracle = y * complex(math.cos(2 * math.pi * fr), math.sin(2 * math.pi * fr))
        assert abs(w.c[n - 1] - oracle) <= 1e-12 * max(1.0, abs(oracle))


@pytest.mark.parametrize("n_max", [1000, 3 * DEFAULT_CHUNK + 5])
def test_weight_series_blocks_equal_one_shot_formula(p32, wparams, n_max):
    # the oracle is the whole-length formula (X - sigma) e(p(S_n)), compared
    # bit for bit; the blocks must not move a byte
    r, w = small_pair(2, n_max, p32, wparams)
    counts = np.cumsum(r.bits)
    z = hardy.unit_phases(hardy.phase_fractions(p32, r.selection_count))
    y = r.bits.astype(np.float64) - sigma_values(wparams.a, 1, n_max)
    assert w.c.tobytes() == (y * z[counts - 1]).tobytes()


# ---------------------------------------------------------------------------
# c-sum growth check.

def test_c_sum_single_point(p32, wparams):
    w = small_series(1, 100, p32, wparams)
    assert c_sum_check(w, [1])[0] == 0.0  # c_1 = 0


def test_c_sum_all_zero(wparams):
    w = synthetic_series(np.zeros(64), wparams)
    assert np.all(c_sum_check(w, [1, 8, 64]) == 0.0)


def test_c_sum_ratio_band(p32, wparams):
    # E|Y_n| = 2 sigma_n (1 - sigma_n): direct summation oracle for the band
    n_max = 1 << 14
    sched = [1 << k for k in range(8, 15)]
    sig = sigma_values(0.3, 1, n_max)
    expected_sum = np.cumsum(2 * sig * (1 - sig))
    for seed in range(5):
        w = small_series(seed, n_max, p32, wparams)
        ratios = c_sum_check(w, sched)
        assert np.all(ratios > 0.5) and np.all(ratios < 3.0)
        spread = ratios.max() / ratios.min()
        assert spread < 4.0
        for i, N in enumerate(sched):
            oracle = expected_sum[N - 1] / N ** 0.7
            assert abs(ratios[i] - oracle) < 0.5


# ---------------------------------------------------------------------------
# Correlation sums.

def test_correlation_sum_empty_range(p32, wparams):
    w = small_series(2, 256, p32, wparams)
    N = 64
    n0 = correlation_window(N, wparams.delta)
    m_min_empty = N - n0 + 1
    assert correlation_sum(w, N, m_min_empty) == 0j
    assert correlation_sum(w, N, m_min_empty + 5) == 0j


def test_correlation_sum_counts_ones():
    # c == 1 telescopes to the plain length of the summation window
    wp = WeightParams(a=0.3, delta=0.2, b=0.35, c_exponent=0.8)
    w = synthetic_series(np.ones(64), wp)
    N, m = 32, 3
    n0 = math.ceil(N ** (1 - wp.delta))
    expected = N - m - n0 + 1
    assert correlation_sum(w, N, m) == pytest.approx(expected)


def test_correlation_sum_brute_force(p32):
    wp = WeightParams(a=0.3, delta=0.2, b=0.35, c_exponent=0.8)
    w = small_series(9, 64, p32, wp)
    N, m = 32, 3
    n0 = math.ceil(N ** (1 - wp.delta))
    brute = sum(w.c[n + m - 1] * np.conj(w.c[n - 1]) for n in range(n0, N - m + 1))
    assert abs(correlation_sum(w, N, m) - brute) < 1e-14


def test_correlation_sum_triangle_bound(p32, wparams):
    w = small_series(4, 512, p32, wparams)
    for N, m in ((256, 1), (512, 7), (512, 30)):
        n0 = correlation_window(N, wparams.delta)
        if n0 > N - m:
            continue
        bound = float(np.sum(np.abs(w.c[n0 + m - 1 : N]) * np.abs(w.c[n0 - 1 : N - m])))
        assert abs(correlation_sum(w, N, m)) <= bound * (1 + 1e-12)


# ---------------------------------------------------------------------------
# Summability statistic.

def test_summability_empty_schedule(p32, wparams):
    w = small_series(2, 64, p32, wparams)
    sums, parts = summability_statistic(w, [])
    assert sums == [] and parts.shape == (0,)


def test_summability_zero_series(wparams):
    w = synthetic_series(np.zeros(128), wparams)
    _, parts = summability_statistic(w, [64, 128])
    assert np.all(parts == 0.0)


def test_summability_partials_nondecreasing(p32, wparams):
    w = small_series(6, 1 << 12, p32, wparams)
    _, parts = summability_statistic(w, [1 << k for k in range(6, 13)])
    assert np.all(np.diff(parts) >= 0.0)


def test_summability_sums_match_correlation_sum(p32, wparams):
    # every reported sum is correlation_sum at its (N, m), bit for bit, over
    # m = 1..floor(N^b); the partials are built from exactly these sums
    w = small_series(6, 1 << 12, p32, wparams)
    sched = [1, 7, 64, 1000, 1 << 12]
    sums, parts = summability_statistic(w, sched)
    assert [len(row) for row in sums] == [math.floor(N ** 0.35) for N in sched]
    total = 0.0
    for N, row, part in zip(sched, sums, parts):
        for m, v in enumerate(row, 1):
            assert v == correlation_sum(w, N, m)
        total += N ** (2 * 0.3 - 1 - 0.35) * math.fsum(abs(v) for v in row)
        assert part == total


# ---------------------------------------------------------------------------
# van der Corput inequality.

def test_vdc_single_vector():
    v = np.array([[1.0 + 2.0j]])
    lhs, rhs = vdc_inequality_check(v, 1)
    assert lhs == pytest.approx(5.0)
    assert rhs == pytest.approx(10.0)  # empty correlation part


def test_vdc_zero_vectors():
    lhs, rhs = vdc_inequality_check(np.zeros((5, 3), dtype=complex), 2)
    assert lhs == 0.0 and rhs == 0.0


def test_vdc_random_instances():
    rng = np.random.default_rng(12)
    for _ in range(300):
        N = int(rng.integers(1, 65))
        d = int(rng.integers(1, 9))
        M = int(rng.integers(1, N + 1))
        V = rng.normal(size=(N, d)) + 1j * rng.normal(size=(N, d))
        lhs, rhs = vdc_inequality_check(V, M)
        assert lhs <= rhs * (1 + 1e-9)


@given(st.integers(1, 24), st.integers(1, 4), st.integers(0, 2**31))
@settings(max_examples=80, deadline=None)
def test_vdc_inequality_property(N, d, seed):
    rng = np.random.default_rng(seed)
    V = rng.normal(size=(N, d)) + 1j * rng.normal(size=(N, d))
    for M in (1, max(1, N // 2), N):
        lhs, rhs = vdc_inequality_check(V, M)
        assert lhs <= rhs * (1 + 1e-9)


def test_vdc_rejects_bad_M():
    V = np.ones((4, 2), dtype=complex)
    with pytest.raises(ValueError):
        vdc_inequality_check(V, 0)
    with pytest.raises(ValueError):
        vdc_inequality_check(V, 5)


# ---------------------------------------------------------------------------
# Three-term profile.

def test_i_terms_empty_window(p32, wparams):
    # m large enough empties every inner range
    w = small_series(3, 4096, p32, wparams)
    N = 64
    prof = i_terms_profile(w, N, m=50)
    assert prof.i1_sq == prof.i2_sq == prof.i3_sq == 0.0


def test_i_terms_requires_length(p32, wparams):
    w = small_series(3, 128, p32, wparams)
    with pytest.raises(OutOfRangeError):
        i_terms_profile(w, 128, 1)


def test_i1_brute_force_exact(p32, wparams):
    # phases cancel in the squared moduli: I1^2 = ((N-m)/R) sum |Y_n Y_{n+m}|^2
    r, w = small_pair(8, 2048, p32, wparams)
    N, m = 64, 2
    prof = i_terms_profile(w, N, m)
    y = r.y_values(w.n_max)
    brute = (N - m) / prof.R * sum(
        (y[n - 1] * y[n + m - 1]) ** 2 for n in range(prof.n0, N - m + 1)
    )
    assert abs(prof.i1_sq - brute) < 1e-12 * max(1.0, brute)


def test_i_terms_brute_force_all_three(p32, wparams):
    w = small_series(15, 2048, p32, wparams)
    N, m = 64, 3
    prof = i_terms_profile(w, N, m)
    c = w.c
    n0, R = prof.n0, prof.R

    def lag_sum(r):
        tot = 0j
        for n in range(n0, N - m - r + 1):
            g_n = c[n - 1] * np.conj(c[n + m - 1])
            g_nr = c[n + r - 1] * np.conj(c[n + r + m - 1])
            tot += g_n * np.conj(g_nr)
        return tot

    fac = (N - m) / R
    i2 = fac * abs(lag_sum(m))
    i3 = fac * math.fsum(abs(lag_sum(r)) for r in range(1, R + 1) if r != m)
    assert abs(prof.i2_sq - i2) < 1e-12 * max(1.0, i2)
    assert abs(prof.i3_sq - i3) < 1e-12 * max(1.0, i3)


def oracle_i_terms_profile(w, N, m):
    """The one-lag profile as it was before the FFT arrays were shared: every
    array fresh, the autocorrelation of a real |G|^2."""
    if m < 1:
        raise ValueError("m must be >= 1")
    R = lag_count(N, w.params.c_exponent)
    if not has_profile(N, w.params.c_exponent):
        raise ValueError(f"R = floor(N^c) = {R} too small; need >= 2")
    if w.n_max < N + m + R:
        raise OutOfRangeError(
            f"realization length {w.n_max} < N + m + R = {N + m + R}"
        )
    n0 = correlation_window(N, w.params.delta)
    factor = (N - m) / R
    L = N - m - n0 + 1
    if L <= 0:
        empty = np.zeros(1, dtype=np.complex128)
        return ITermsProfile(N, m, R, n0, factor, empty, 0.0, 0.0, 0.0)

    c = w.c
    g = c[n0 - 1 : N - m] * np.conj(c[n0 + m - 1 : N])
    max_lag = min(R, L - 1)
    nfft = 1 << int(L + max_lag + 1).bit_length()
    G = np.fft.fft(g, nfft)
    acf = np.fft.ifft(np.abs(G) ** 2)
    inner = np.conj(acf[: max_lag + 1])
    inner.setflags(write=False)

    i1_sq = factor * float(np.sum(np.abs(g) ** 2))
    abs_inner = np.abs(inner)
    i2_sq = factor * float(abs_inner[m]) if m <= max_lag else 0.0
    tail = math.fsum(abs_inner[1:].tolist())
    if m <= max_lag:
        tail -= float(abs_inner[m])
    i3_sq = factor * tail
    return ITermsProfile(N, m, R, n0, factor, inner, i1_sq, i2_sq, i3_sq)


def fft_length(w, N, m):
    """The FFT length i_terms_profile uses at lag m; 0 for an empty window."""
    L = N - m - correlation_window(N, w.params.delta) + 1
    if L <= 0:
        return 0
    return 1 << int(L + min(lag_count(N, w.params.c_exponent), L - 1) + 1).bit_length()


def assert_shared_work_matches_oracle(w, N, lags):
    """Run the lags in order on one list of work arrays, keeping every
    profile; each equals the oracle bit for bit, and none changes later."""
    work = []
    kept, snapshots = [], []
    for m in lags:
        prof = i_terms_profile(w, N, m, work)
        kept.append(prof)
        snapshots.append(prof.inner.tobytes())
        assert not any(np.shares_memory(prof.inner, x) for x in work)
    for m, prof, snap in zip(lags, kept, snapshots):
        want = oracle_i_terms_profile(w, N, m)
        assert (prof.N, prof.m, prof.R, prof.n0, prof.factor) == (
            want.N, want.m, want.R, want.n0, want.factor)
        for got, exp in ((prof.i1_sq, want.i1_sq), (prof.i2_sq, want.i2_sq),
                         (prof.i3_sq, want.i3_sq)):
            assert type(got) is float and got.hex() == exp.hex()
        assert prof.inner.dtype == want.inner.dtype
        assert prof.inner.tobytes() == want.inner.tobytes() == snap


@pytest.mark.parametrize("N", [170, 1 << 15])
def test_i_terms_shared_work_equals_oracle(p32, wparams, N):
    # N = 170: the FFT length falls from 256 to 128 within the lags;
    # N = 2^15: windows of 21,000+ products, where numpy elides the conj
    # temporary; both orders of the lags, so the arrays also grow
    lags = list(range(1, lag_count(N, wparams.b) + 1))
    w = small_series(21, N + lags[-1] + lag_count(N, wparams.c_exponent) + 1, p32, wparams)
    if N == 170:
        assert len({fft_length(w, N, m) for m in lags}) == 2
    assert_shared_work_matches_oracle(w, N, lags)
    assert_shared_work_matches_oracle(w, N, lags[::-1])


def test_i_terms_shared_work_across_an_empty_window(p32, wparams):
    # at N = 64 the window [n0, N - m] is empty from m = 22 on; a lag after
    # the empty ones still reads the arrays the earlier lags left
    w = small_series(3, 4096, p32, wparams)
    lags = list(range(1, 25)) + [1, 23, 2]
    assert fft_length(w, 64, 24) == 0 < fft_length(w, 64, 21)
    assert_shared_work_matches_oracle(w, 64, lags)


@given(st.floats(0.05, 0.45), st.integers(8, 3000), st.integers(0, 2**32))
@settings(max_examples=25, deadline=None)
def test_i_terms_shared_work_equals_oracle_property(p32, a, N, seed):
    wp = WeightParams(a)
    assume(has_profile(N, wp.c_exponent))
    lags = list(range(1, lag_count(N, wp.b) + 1))
    w = small_series(seed, N + lags[-1] + lag_count(N, wp.c_exponent) + 1, p32, wp)
    assert_shared_work_matches_oracle(w, N, lags)


def test_i_terms_envelope_ensemble(p32, wparams):
    # seed-ensemble estimates (expectation inside the modulus, as in the
    # bound being verified) stay under the envelope N^(2-4a);
    # two disjoint 10-seed families must agree on that verdict
    N, n_seeds = 1 << 12, 10
    m_top = int(N ** wparams.b)
    n_need = N + m_top + int(N ** wparams.c_exponent) + 1
    env = profile_envelope(N, wparams.a)

    def family_ratio(base):
        per_m = []
        profiles = {
            seed: small_series(seed, n_need, p32, wparams) for seed in range(base, base + n_seeds)
        }
        for m in range(1, m_top + 1):
            profs = [i_terms_profile(profiles[s], N, m) for s in profiles]
            i1, i2, i3 = aggregate_i_terms(profs)
            per_m.append((i1 + i2 + i3) / env)
        return max(per_m)

    ra = family_ratio(100)
    rb = family_ratio(500)
    assert ra < 1.0 and rb < 1.0
    assert 0.5 < ra / rb < 2.0


def test_independence_recovery_mean_zero():
    # with the phases stripped (p == 0 analogue), the four-fold product over
    # distinct indices has exact expectation zero; the empirical mean over
    # 1000 seeds stays within 3 standard errors of it
    N, m, r_lag = 256, 3, 5
    n0 = 16
    totals = []
    for seed in range(1000):
        real = generate_realization(SelectorParams(a=0.3, seed=seed, n_max=N + m + r_lag + 1))
        y = real.y_values(real.n_max)
        n = np.arange(n0, N + 1)
        totals.append(
            float(np.sum(y[n - 1] * y[n + m - 1] * y[n + r_lag - 1] * y[n + r_lag + m - 1]))
        )
    totals = np.asarray(totals)
    se = totals.std(ddof=1) / math.sqrt(len(totals))
    assert abs(totals.mean()) <= 3 * se


def test_aggregate_requires_matching_windows(p32, wparams):
    w = small_series(3, 4096, p32, wparams)
    p1 = i_terms_profile(w, 64, 2)
    p2 = i_terms_profile(w, 64, 3)
    with pytest.raises(ValueError):
        aggregate_i_terms([p1, p2])
    with pytest.raises(ValueError):
        aggregate_i_terms([])


@pytest.mark.parametrize("m", [1, 5, 10, 11, 21, 22])
def test_aggregate_of_one_profile_is_that_profile(p32, wparams, m):
    # at N = 64 the lags m <= 10 lie inside max_lag = min(R, L - 1), the lags
    # 11..21 past it, and m = 22 leaves an empty window; the ensemble of one
    # realization gives its own three terms bit for bit
    q = i_terms_profile(small_series(3, 4096, p32, wparams), 64, m)
    assert (m < q.inner.shape[0]) == (m <= 10)
    got = aggregate_i_terms([q])
    assert [x.hex() for x in got] == [x.hex() for x in (q.i1_sq, q.i2_sq, q.i3_sq)]
