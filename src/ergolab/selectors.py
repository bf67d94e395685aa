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
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from .rng import MASK64, child_seed, uniform01_block

# Chunks sized to stay inside cache; larger chunks thrash and run ~5x slower.
DEFAULT_CHUNK = 1 << 16


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
    """One sampled selection sequence with eagerly materialized prefixes.

    bits[i] is X_{i+1}; s_prefix[n] = S_n and w_prefix[n] = W_n (index 0
    holds 0 so 1-based math reads straight off); ones holds the selected
    indices in increasing order (1-based).
    """

    params: SelectorParams
    bits: np.ndarray
    s_prefix: np.ndarray
    w_prefix: np.ndarray
    ones: np.ndarray

    @property
    def n_max(self) -> int:
        return self.params.n_max

    @property
    def selection_count(self) -> int:
        """Total number of selected indices, S_{n_max}."""
        return int(self.s_prefix[-1])

    def S(self, n: int) -> int:
        """Prefix count S_n."""
        return int(self.s_prefix[n])

    def W(self, n: int) -> float:
        """Deterministic mean W_n."""
        return float(self.w_prefix[n])

    def S_range(self, m: int, n: int) -> int:
        """Block count S_{m,n} = X_m + ... + X_n."""
        return int(self.s_prefix[n] - self.s_prefix[m - 1])

    def y_values(self, n: int) -> np.ndarray:
        """Centered selectors Y_1..Y_n = X - sigma as float64."""
        return self.bits[:n].astype(np.float64) - sigma_values(self.params.a, 1, n)


def sigma_values(a: float, lo: int, hi: int) -> np.ndarray:
    """Selection probabilities sigma_n = n^(-a) = exp(-a ln n) for n in lo..hi."""
    n = np.arange(lo, hi + 1, dtype=np.float64)
    return np.exp(-a * np.log(n))


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


def _selection_block(a: float, seed: int, lo: int, hi: int) -> np.ndarray:
    """Selection bits X_lo..X_hi: X_n = 1 iff u(seed, n) < n^(-a)."""
    return uniform01_block(seed, lo, hi) < sigma_values(a, lo, hi)


def _selection_chunks(
    a: float, seed: int, stop: Optional[int] = None
) -> Iterator[Tuple[int, np.ndarray]]:
    """(lo, bits X_lo..X_hi) for consecutive DEFAULT_CHUNK blocks from index 1,
    the last one cut at stop; without stop the scan never ends."""
    lo = 1
    while stop is None or lo <= stop:
        hi = lo + DEFAULT_CHUNK - 1
        if stop is not None:
            hi = min(hi, stop)
        yield lo, _selection_block(a, seed, lo, hi)
        lo = hi + 1


def _realization(params: SelectorParams, bits: np.ndarray) -> Realization:
    """Freeze bits (length n_max, bool) and derive the prefix arrays from them."""
    s_prefix = np.zeros(params.n_max + 1, dtype=np.int64)
    np.cumsum(bits, out=s_prefix[1:])
    w_prefix = np.zeros(params.n_max + 1, dtype=np.float64)
    np.cumsum(sigma_values(params.a, 1, params.n_max), out=w_prefix[1:])
    ones = np.flatnonzero(bits).astype(np.int64) + 1
    for arr in (bits, s_prefix, w_prefix, ones):
        arr.setflags(write=False)
    return Realization(params, bits, s_prefix, w_prefix, ones)


def generate_realization(params: SelectorParams) -> Realization:
    """Materialize a realization: bits, prefix counts, prefix means, positions.

    Pure function of params: regenerating yields bit-identical output.
    """
    parts = [bits for _, bits in _selection_chunks(params.a, params.seed, params.n_max)]
    return _realization(params, np.concatenate(parts))


def realization_from_bits(params: SelectorParams, bits: Sequence[int]) -> Realization:
    """Build a realization from explicit bits (synthetic tests, dump reload).

    The prefix arrays are derived from the given bits, so the result is
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
    if not 0.0 < a < 0.5:
        raise ValueError(f"exponent a must lie in (0, 1/2), got {a}")
    if count < 1:
        raise ValueError("count must be >= 1")
    found = []
    have = 0
    for lo, bits in _selection_chunks(a, seed):
        pos = np.flatnonzero(bits).astype(np.int64) + lo
        found.append(pos)
        have += pos.shape[0]
        if have >= count:
            break
    out = np.concatenate(found)[:count]
    out.setflags(write=False)
    return out


def count_selected(a: float, seed: int, N: int) -> int:
    """S_N for a fresh seed without materializing a realization."""
    return sum(int(np.count_nonzero(bits)) for _, bits in _selection_chunks(a, seed, N))


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
    w_N = sigma_prefix(params.a, N)
    if thresholds is None:
        root = math.sqrt(w_N)
        thresholds = [0.0, root, 2.0 * root, 3.0 * root, 0.5 * w_N]
    thr = np.asarray(thresholds, dtype=np.float64)

    deviations = np.empty(trials, dtype=np.float64)
    for t in range(trials):
        s = count_selected(params.a, child_seed(params.seed, t), N)
        deviations[t] = abs(s - w_N)

    freqs = np.array([np.count_nonzero(deviations >= A) / trials for A in thr])
    envs = np.array([chernoff_envelope(float(A), w_N, chernoff_c) for A in thr])
    return DeviationReport(params, N, trials, w_N, chernoff_c, thr, freqs, envs)
