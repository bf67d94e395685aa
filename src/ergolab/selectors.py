"""Random sparse selection process.

Generates reproducible 0/1 selection sequences where index n is kept with
probability n^(-a), 0 < a < 1/2, together with the prefix statistics the
rest of the package consumes: selection counts S_N, their deterministic
means W_N, the counting function (position of the n-th selected index),
and empirical concentration reports for |S_N - W_N|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .rng import MASK64, _S11, child_seed, mix_steps, scan_buffers

# The longest chunk of a scan, sized to stay inside cache; larger chunks
# thrash and run ~5x slower.  count_selected walks chunks of this length.
DEFAULT_CHUNK = 1 << 16
_TWO53 = 2.0 ** 53
# relative slack of a chunk's prefilter bound over the computed sigma at its first index
_SLACK = 1.0 + 2.0 ** -40


class OutOfRangeError(ValueError):
    """Requested selection rank or index exceeds the materialized window."""


@dataclass(frozen=True)
class SelectorParams:
    """Parameters of the selection process: exponent, seed, window length."""

    a: float
    seed: int
    n_max: int

    def __post_init__(self):
        if not 0.0 < self.a < 0.5:
            raise ValueError(f"exponent a must lie in (0, 1/2), got {self.a}")
        if not 0 <= self.seed <= MASK64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")


@dataclass(frozen=True)
class Realization:
    """One sampled selection sequence: what the hash decided, and no more.

    bits[i] is X_{i+1}; ones holds the selected indices in increasing order
    (1-based).  The prefix counts S_n and the means W_n are computed where
    they are used: W_n depends on a and n alone, not on the draw.
    """

    params: SelectorParams
    bits: np.ndarray
    ones: np.ndarray

    @property
    def n_max(self) -> int:
        return self.params.n_max

    @property
    def selection_count(self) -> int:
        """Total number of selected indices, S_{n_max}."""
        return self.ones.shape[0]

    def _check(self, n: int, m: int = 1) -> None:
        """Raise unless the block m..n (empty for m = n + 1) lies in 1..n_max."""
        if not (1 <= m <= n + 1 and n <= self.n_max):
            raise OutOfRangeError(f"need 1 <= m <= n + 1 and n <= n_max={self.n_max}; got m={m}, n={n}")

    def S(self, n: int) -> int:
        """Prefix count S_n: the selected indices up to n."""
        self._check(n)
        return int(np.searchsorted(self.ones, n, side="right"))

    def y_values(self, n: int, m: int = 1) -> np.ndarray:
        """Centered selectors Y_m..Y_n = X - sigma as float64."""
        self._check(n, m)
        return self.bits[m - 1 : n].astype(np.float64) - sigma_values(self.params.a, m, n)


def _sigma(a: float, n: np.ndarray) -> np.ndarray:
    """n^(-a) = exp(-a ln n) for a float64 array of indices."""
    return np.exp(-a * np.log(n))


def sigma_values(a: float, lo: int, hi: int) -> np.ndarray:
    """Selection probabilities sigma_n = n^(-a) = exp(-a ln n) for n in lo..hi."""
    return _sigma(a, np.arange(lo, hi + 1, dtype=np.float64))


def sigma_prefix(a: float, N: int) -> float:
    """W_N = sum_{n<=N} n^(-a) by compensated direct summation.

    Deterministic and realization-independent; math.fsum keeps the result
    correctly rounded, which the cheaper cumulative-sum route is tested
    against.
    """
    if not 0.0 < a < 1.0:
        raise ValueError(f"exponent a must lie in (0, 1), got {a}")
    if N < 1:
        raise ValueError("N must be >= 1")
    total = 0.0
    for lo in range(1, N + 1, 1 << 20):
        hi = min(lo + (1 << 20) - 1, N)
        total = math.fsum([total] + list(sigma_values(a, lo, hi)))
    return total


def _limits(a: float, n: np.ndarray) -> np.ndarray:
    """Largest mixer output that selects n, per entry of a float64 index
    array: X_n = 1 iff z_n <= ceil(sigma_n 2^53) 2^11 - 1.

    This is the float test u < sigma_n made exact.  The uniform is
    u = h 2^-53 with h = z_n >> 11, and u and sigma_n 2^53 are exact doubles;
    for an integer h, h < t iff h < ceil(t), iff z_n < ceil(t) 2^11.
    sigma_1 = 1 gives ceil(t) 2^11 = 2^64, which wraps to 0, so the limit
    wraps to 2^64 - 1 and n = 1 is always kept, as u < 1 always holds.
    """
    return (np.ceil(_sigma(a, n) * _TWO53).astype(np.uint64) << _S11) - np.uint64(1)


def _selected(a: float, lo: int, z: np.ndarray) -> np.ndarray:
    """Selected indices among lo..lo+len(z)-1 from their mixer outputs z.

    Only candidates under one bound on the whole chunk get their own n^(-a).
    The true n^(-a) falls with n, and the computed one is within a relative
    2^-46 of it: a few ulps of log and exp, scaled by |a ln n| < 23 for
    64-bit n.  So sigma at lo raised by _SLACK bounds every computed sigma_n
    of the chunk, though they may rise by an ulp.
    """
    bound = min(math.ceil(float(_sigma(a, np.float64(lo))) * _SLACK * _TWO53), 1 << 53)
    cand = np.flatnonzero(z <= np.uint64((bound << 11) - 1))
    n = cand + lo
    return n[z[cand] <= _limits(a, n.astype(np.float64))]


def _selection_chunks(
    a: float, seed: int, stop: Optional[int] = None
) -> Iterator[np.ndarray]:
    """Selected indices of consecutive chunks from index 1, the last one cut
    at stop; without stop the scan never ends.  The chunk from lo holds
    min(max(lo, 2^10), DEFAULT_CHUNK) indices, so from the second on it ends
    before 2 lo and sigma falls across it by a factor of at most 2^-a > 0.7:
    its one prefilter bound stays tight."""
    last = math.inf if stop is None else stop
    steps, z, tmp = scan_buffers(min(DEFAULT_CHUNK, last))
    lo = 1
    while lo <= last:
        m = min(max(lo, 1 << 10), steps.shape[0], last - lo + 1)
        yield _selected(a, lo, mix_steps(seed, lo, steps[:m], z[:m], tmp[:m]))
        lo += m


def _realization(params: SelectorParams, bits: np.ndarray) -> Realization:
    """Freeze bits (length n_max, bool) and the selected positions they hold."""
    ones = np.flatnonzero(bits).astype(np.int64) + 1
    for arr in (bits, ones):
        arr.setflags(write=False)
    return Realization(params, bits, ones)


def generate_realization(params: SelectorParams) -> Realization:
    """Materialize a realization: its bits and its selected positions.

    Pure function of params: regenerating yields bit-identical output.
    """
    bits = np.zeros(params.n_max, dtype=bool)
    for ones in _selection_chunks(params.a, params.seed, params.n_max):
        bits[ones - 1] = True
    return _realization(params, bits)


def realization_from_bits(params: SelectorParams, bits: Sequence[int]) -> Realization:
    """Build a realization from explicit bits (synthetic sequences in tests).

    The positions are derived from the given bits, so the result is
    internally consistent even if the bits did not come from the hash.
    """
    arr = np.asarray(bits, dtype=bool)
    if arr.shape != (params.n_max,):
        raise ValueError(f"expected {params.n_max} bits, got {arr.shape}")
    return _realization(params, arr.copy())


def counting_function(r: Realization, n: int) -> int:
    """Position of the n-th selected index: smallest k with S_k = n, X_k = 1."""
    if n < 1:
        raise OutOfRangeError("selection rank must be >= 1")
    if n > r.ones.shape[0]:
        raise OutOfRangeError(
            f"realization holds only {r.ones.shape[0]} selections "
            f"within n_max={r.n_max}, rank {n} not materialized"
        )
    return int(r.ones[n - 1])


def select_first(a: float, seed: int, count: int) -> np.ndarray:
    """Positions of the first `count` selected indices, streaming.

    Scans the same hash-defined bit sequence as generate_realization without
    retaining dense arrays, so counting-function queries stay cheap when the
    needed window (~((1-a) n)^(1/(1-a)) indices) runs into the hundreds of
    millions.  Agrees bit for bit with counting_function on any window both
    can see.
    """
    SelectorParams(a, seed, count)  # the checks every realization passes
    found = []
    have = 0
    for pos in _selection_chunks(a, seed):
        found.append(pos)
        have += pos.shape[0]
        if have >= count:
            break
    out = np.concatenate(found)[:count]
    out.setflags(write=False)
    return out


def count_selected(a: float, seeds: Sequence[int], N: int) -> np.ndarray:
    """S_N for every seed of a uint64 array (or sequence), without
    materializing a realization: one walk over [1, N], in which each chunk's
    limits are computed once and every seed is hashed against them."""
    SelectorParams(a, 0, N)  # a and N pass a realization's checks before any hashing
    seeds = np.asarray(seeds, dtype=np.uint64)
    counts = np.zeros(seeds.shape[0], dtype=np.int64)
    steps, z, tmp = scan_buffers(min(DEFAULT_CHUNK, N))
    for lo in range(1, N + 1, steps.shape[0]):
        m = min(steps.shape[0], N - lo + 1)
        limits = _limits(a, np.arange(lo, lo + m, dtype=np.float64))
        for i, seed in enumerate(map(int, seeds)):
            counts[i] += np.count_nonzero(mix_steps(seed, lo, steps[:m], z[:m], tmp[:m]) <= limits)
    return counts


@dataclass(frozen=True)
class DeviationReport:
    """Empirical tail frequencies of |S_N - W_N| against the Chernoff envelope."""

    params: SelectorParams
    N: int
    trials: int
    w_N: float
    chernoff_c: float
    thresholds: np.ndarray
    frequencies: np.ndarray
    envelopes: np.ndarray


def chernoff_envelope(A: float, w_N: float, c: float) -> float:
    """max{exp(-c A^2 / W_N), exp(-c A)} - the two-regime tail bound."""
    return max(math.exp(-c * A * A / w_N), math.exp(-c * A))


def deviation_statistics(
    params: SelectorParams,
    N: int,
    trials: int,
    thresholds: Optional[Sequence[float]] = None,
    chernoff_c: float = 0.125,
) -> DeviationReport:
    """Tail frequencies of |S_N - W_N| >= A over fresh seeds.

    Trial seeds are derived children of params.seed, so the whole report is
    a pure function of (params, N, trials).  The tail bound holds for *some*
    absolute constant with no canonical value, hence the chernoff_c parameter.
    """
    if N > params.n_max:
        raise ValueError("N exceeds n_max")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0.0 < chernoff_c < math.inf:
        raise ValueError(f"chernoff_c must be positive and finite, got {chernoff_c}")
    w_N = sigma_prefix(params.a, N)
    if thresholds is None:
        root = math.sqrt(w_N)
        thresholds = [0.0, root, 2.0 * root, 3.0 * root, 0.5 * w_N]
    thr = np.asarray(thresholds, dtype=np.float64)

    seeds = np.fromiter((child_seed(params.seed, t) for t in range(trials)), np.uint64, trials)
    deviations = np.abs(count_selected(params.a, seeds, N) - w_N)

    freqs = np.array([np.count_nonzero(deviations >= A) / trials for A in thr])
    envs = np.array([chernoff_envelope(float(A), w_N, chernoff_c) for A in thr])
    return DeviationReport(params, N, trials, w_N, chernoff_c, thr, freqs, envs)
