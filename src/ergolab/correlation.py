"""Weight sequence c_n = Y_n e(p(S_n)) and its correlation criteria.

The centered selectors Y_n = X_n - n^(-a) modulated by e(p(S_n)) form the
weight sequence whose summability criteria drive the convergence argument:
an absolute-sum growth check against N^(1-a), lacunary-weighted
autocorrelation sums, the Hilbert-space van der Corput inequality as an
exact testable inequality, and the three-term decomposition of the
correlation expectation with its N^(2-4a) envelope.

Index conventions: arrays are 0-based with c[(n)-1] = c_n; range endpoints
N^(1-delta), N^b, N^c round conservatively (ceil for lower limits, floor
for upper limits).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import hardy
from .selectors import DEFAULT_CHUNK, OutOfRangeError, Realization


@dataclass(frozen=True)
class WeightParams:
    """Exponent bundle (a, delta, b, c) constrained to the open ranges the
    argument needs: b in (a, 1/2), c in (2a, 1), delta in (0, 1/2).  An
    omitted b or c is the midpoint of its range."""

    a: float
    delta: float = 0.1
    b: Optional[float] = None
    c_exponent: Optional[float] = None

    def __post_init__(self):
        if not 0.0 < self.a < 0.5:
            raise ValueError(f"a must lie in (0, 1/2), got {self.a}")
        # a midpoint lies strictly inside its range whenever some float64 does
        for key, name, lo, hi in (("b", "b", self.a, 0.5), ("c_exponent", "c", 2.0 * self.a, 1.0)):
            if getattr(self, key) is not None:
                continue
            if math.nextafter(lo, hi) >= hi:
                raise ValueError(
                    f"a={self.a} leaves no float64 inside ({lo}, {hi}), the range of {name}"
                )
            object.__setattr__(self, key, 0.5 * (lo + hi))
        if not 0.0 < self.delta < 0.5:
            raise ValueError(f"delta must lie in (0, 1/2), got {self.delta}")
        if not self.a < self.b < 0.5:
            raise ValueError(f"b must lie in ({self.a}, 1/2), got {self.b}")
        if not 2.0 * self.a < self.c_exponent < 1.0:
            raise ValueError(
                f"c must lie in ({2 * self.a}, 1), got {self.c_exponent}"
            )


@dataclass(frozen=True)
class WeightSeries:
    """c_n = Y_n e(p(S_n)) for n <= n_max and its exponents; it keeps no
    reference to the realization, so a caller can free that once c exists."""

    c: np.ndarray
    params: WeightParams

    @property
    def n_max(self) -> int:
        return self.c.shape[0]


def weight_series(
    r: Realization,
    phases: np.ndarray,
    params: WeightParams,
) -> WeightSeries:
    """Build the weight sequence from a realization and a phase table.

    phases is the table frac(p(k)), k = 1, 2, ... (hardy.phase_fractions),
    covering k up to S_{n_max}; the counts S_n repeat, the table does not,
    so the per-n cost is a lookup.  It does not depend on the seed, so one
    table serves every realization.  c is filled in blocks of DEFAULT_CHUNK.
    """
    if params.a != r.params.a:
        raise ValueError(
            f"weight params use a={params.a}, realization has a={r.params.a}"
        )
    counts = np.cumsum(r.bits)
    s_max = int(counts[-1])
    if phases.shape[0] < s_max:
        raise ValueError(f"phase table shorter than S_{{n_max}} = {s_max}")
    z = hardy.unit_phases(phases[:s_max])
    c = np.empty(r.n_max, dtype=np.complex128)
    for lo in range(0, r.n_max, DEFAULT_CHUNK):
        hi = min(lo + DEFAULT_CHUNK, r.n_max)
        np.multiply(r.y_values(hi, lo + 1), z[counts[lo:hi] - 1], out=c[lo:hi])
    c.setflags(write=False)
    return WeightSeries(c, params)


def c_sum_check(w: WeightSeries, schedule: Sequence[int]) -> np.ndarray:
    """sum_{n<=N} |c_n| / N^(1-a) for each N in the schedule."""
    abs_c = np.abs(w.c)
    out = np.empty(len(schedule), dtype=np.float64)
    for i, N in enumerate(schedule):
        if N > w.n_max:
            raise OutOfRangeError(f"N={N} exceeds weight series length {w.n_max}")
        out[i] = np.sum(abs_c[:N]) / N ** (1.0 - w.params.a)
    return out


def correlation_window(N: int, delta: float) -> int:
    """Lower summation limit ceil(N^(1-delta))."""
    return int(math.ceil(N ** (1.0 - delta)))


def lag_count(N: int, e: float) -> int:
    """floor(N^e): the lags at N for exponent e; e = b for the correlation
    sums (m = 1..floor(N^b)), e = c for the profile's third term (R)."""
    return int(math.floor(N ** e))


def has_profile(N: int, c: float) -> bool:
    """The three-term profile at N needs R = floor(N^c) >= 2 lags."""
    return lag_count(N, c) >= 2


def correlation_sum(w: WeightSeries, N: int, m: int) -> complex:
    """sum_{n = ceil(N^(1-delta))}^{N-m} c_{n+m} conj(c_n); 0 on empty range."""
    if m < 1:
        raise ValueError("lag m must be >= 1")
    if N > w.n_max:
        raise OutOfRangeError(f"N={N} exceeds weight series length {w.n_max}")
    n0 = correlation_window(N, w.params.delta)
    if n0 > N - m:
        return 0j
    lo = w.c[n0 - 1 : N - m]
    hi = w.c[n0 + m - 1 : N]
    return complex(np.sum(hi * np.conj(lo)))


def summability_statistic(
    w: WeightSeries, schedule: Sequence[int]
) -> Tuple[List[List[complex]], np.ndarray]:
    """The correlation sums over the schedule and the running partial sums

        N^(2a - 1 - b) * sum_{m <= floor(N^b)} |correlation_sum(N, m)|.

    sums[i][m - 1] is correlation_sum(w, N_i, m) for m = 1..floor(N_i^b).
    Bounded partial sums over lacunary N are the numerical surrogate for
    the summability the criterion demands.
    """
    a, b = w.params.a, w.params.b
    sums: List[List[complex]] = []
    partials = np.empty(len(schedule), dtype=np.float64)
    total = 0.0
    for i, N in enumerate(schedule):
        row = [correlation_sum(w, N, m) for m in range(1, lag_count(N, b) + 1)]
        sums.append(row)
        total += N ** (2.0 * a - 1.0 - b) * math.fsum(abs(v) for v in row)
        partials[i] = total
    return sums, partials


def vdc_inequality_check(vectors, M: int) -> Tuple[float, float]:
    """Both sides of the Hilbert-space van der Corput inequality

        |sum v_n|^2 <= 2 (N/M) sum |v_n|^2
                       + 4 (N/M) sum_{m<=M} |sum_{n<=N-m} <v_{n+m}, v_n>|

    for vectors v_1..v_N (rows) and a cutoff 1 <= M <= N.  Raises
    ArithmeticError if the inequality fails beyond float tolerance - it is
    an unconditional fact, so a violation means a broken implementation.
    """
    V = np.asarray(vectors, dtype=np.complex128)
    if V.ndim == 1:
        V = V[:, None]
    N = V.shape[0]
    if not 1 <= M <= N:
        raise ValueError(f"need 1 <= M <= N={N}, got M={M}")
    lhs = float(np.sum(np.abs(np.sum(V, axis=0)) ** 2))
    total_sq = float(np.sum(np.abs(V) ** 2))
    inners = [
        abs(complex(np.sum(V[m:] * np.conj(V[: N - m])))) for m in range(1, M + 1)
    ]
    rhs = 2.0 * (N / M) * total_sq + 4.0 * (N / M) * math.fsum(inners)
    if lhs > rhs * (1.0 + 1e-9):
        raise ArithmeticError(
            f"van der Corput inequality violated: lhs={lhs}, rhs={rhs}"
        )
    return lhs, rhs


@dataclass(frozen=True)
class ITermsProfile:
    """Single-realization estimates of the three-term correlation bound.

    inner[r] holds A_r = sum_n g_n conj(g_{n+r}) for the window products
    g_n = c_n conj(c_{n+m}), n in [n0, N-m]; then

        i1_sq = ((N-m)/R) A_0            (squared moduli; phases cancel)
        i2_sq = ((N-m)/R) |A_m|          (the aligned lag)
        i3_sq = ((N-m)/R) sum_{r<=R, r!=m} |A_r|

    The reindexing by s = min(r, m), t = max(r, m) leaves these sums
    unchanged (r and m enter symmetrically through {n, n+s, n+t, n+s+t}),
    so A_r is computed in the r-indexed form.
    """

    N: int
    m: int
    R: int
    n0: int
    factor: float
    inner: np.ndarray  # complex, lags 0..min(R, L-1)
    i1_sq: float
    i2_sq: float
    i3_sq: float


def profile_envelope(N: int, a: float) -> float:
    """Target bound N^(2 - 4a) all three terms are measured against."""
    return N ** (2.0 - 4.0 * a)


def _fft_arrays(work: list, nfft: int) -> List[np.ndarray]:
    """The fft output (reused as the ifft output), the complex |G|^2 input
    to ifft and the |g|^2 scratch, nfft entries each: views of the arrays in
    work, made on first use and remade only for a longer FFT."""
    if not work or work[0].shape[0] < nfft:
        work[:] = [np.empty(nfft, dtype=np.complex128) for _ in range(2)] + [np.empty(nfft)]
    return [x[:nfft] for x in work]


def _lag_terms(factor: float, abs_inner: np.ndarray, m: int) -> Tuple[float, float]:
    """(i2_sq, i3_sq) = factor (|A_m|, sum_{r>=1, r!=m} |A_r|) from abs_inner[r]
    = |A_r|; the aligned term is 0 for an m past the last lag."""
    tail = math.fsum(abs_inner[1:].tolist())
    if m >= abs_inner.shape[0]:
        return 0.0, factor * tail
    return factor * float(abs_inner[m]), factor * (tail - float(abs_inner[m]))


def i_terms_profile(
    w: WeightSeries, N: int, m: int, _work: Optional[list] = None
) -> ITermsProfile:
    """Evaluate the three-term decomposition for one realization.

    R = floor(N^c) lags enter the third term; the FFT autocorrelation makes
    the whole profile O(N log N) where the literal triple loop would be
    O(N R).  Matches the naive loops to float tolerance (tested at small N).
    The FFT runs in the arrays of _work, so a caller that passes one list
    for all the lags of a realization allocates them once; the returned
    inner is a fresh array either way.
    """
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
    # A_r for r = 0..max_lag from the zero-padded FFT: ifft(|G|^2)[r] =
    # sum_j g_{j+r} conj(g_j), conjugated to match A_r
    nfft = 1 << int(L + max_lag + 1).bit_length()
    G, power, g_sq = _fft_arrays([] if _work is None else _work, nfft)
    np.fft.fft(g, nfft, out=G)
    np.square(np.abs(G, out=power.real), out=power.real)
    power.imag = 0.0
    # G is dead once |G|^2 is formed, so the ifft writes over it
    inner = np.conj(np.fft.ifft(power, out=G)[: max_lag + 1])
    inner.setflags(write=False)

    g_sq = np.square(np.abs(g, out=g_sq[:L]), out=g_sq[:L])
    i1_sq = factor * float(np.sum(g_sq))
    i2_sq, i3_sq = _lag_terms(factor, np.abs(inner), m)
    return ITermsProfile(N, m, R, n0, factor, inner, i1_sq, i2_sq, i3_sq)


def aggregate_i_terms(profiles: List[ITermsProfile]) -> Tuple[float, float, float]:
    """Seed-ensemble estimates of the three terms.

    The expectation sits inside the absolute value for the correlation
    terms (the whole point of the independence-recovery splitting is that
    the dominant part of A_r has mean zero), so the complex inner sums are
    averaged across realizations before taking moduli; the first term is a
    plain mean of nonnegative values.
    """
    if not profiles:
        raise ValueError("no profiles to aggregate")
    head = profiles[0]
    for q in profiles[1:]:
        if (q.N, q.m, q.R, q.n0) != (head.N, head.m, head.R, head.n0):
            raise ValueError("profiles mix different (N, m, R, n0) windows")
    i1_sq = float(np.mean([q.i1_sq for q in profiles]))
    width = max(q.inner.shape[0] for q in profiles)
    acc = np.zeros(width, dtype=np.complex128)
    for q in profiles:
        acc[: q.inner.shape[0]] += q.inner
    acc /= len(profiles)
    i2_sq, i3_sq = _lag_terms(head.factor, np.abs(acc), head.m)
    return i1_sq, i2_sq, i3_sq
