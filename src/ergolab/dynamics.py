"""Concrete measure-preserving systems and weighted averages along them.

Ships three systems whose n-th iterate is exactly computable at any n:
the irrational circle rotation, the finite cyclic shift, and a Bernoulli
symbolic shift whose symbols come from the package's counter-based hash
(so shifting by 2^30 costs the same as shifting by 1).  On top of these it
evaluates the weighted random average (1/N) sum e(p(n)) f(T^{a_n} x) and
the six-stage chain of comparisons that connects it to a bare
trigonometric sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import hardy
from .rng import _mix_block, child_seed, uniform01_block
from .selectors import OutOfRangeError, Realization, sigma_values

# Fixed-point scale for rotation arithmetic: products k * alpha are reduced
# mod 1 exactly in integers, so orbits never drift, and the representation
# error k * 2^-128 stays ~1e-31 even at k ~ 1e9.
_FP_BITS = 128
_FP_MASK = (1 << _FP_BITS) - 1
_FP_INV = 2.0 ** -_FP_BITS
# the rotation's observables by name, with their invariant means under Lebesgue
_ROTATION_MEANS = {"e": 0j, "e_shifted": 0.5 + 0j, "const": 1.0 + 0j, "coboundary": 0j}


def _radical_inverse(k: int) -> float:
    """Base-2 van der Corput point in [0, 1)."""
    inv, denom = 0.0, 0.5
    while k:
        if k & 1:
            inv += denom
        k >>= 1
        denom *= 0.5
    return inv


def _resolve_angle(alpha) -> int:
    """Angle as a 128-bit fixed-point integer in [0, 2^128): floor(frac(alpha)
    2^128), in exact integers.  floor(sqrt(d) 2^128) is isqrt(d 2^256)."""
    text = alpha.strip() if isinstance(alpha, str) else alpha
    if text == "sqrt2m1":
        return math.isqrt(2 << 2 * _FP_BITS) - (1 << _FP_BITS)
    if text == "sqrt3m1":
        return math.isqrt(3 << 2 * _FP_BITS) - (1 << _FP_BITS)
    if text == "invphi":
        return (math.isqrt(5 << 2 * _FP_BITS) - (1 << _FP_BITS)) // 2
    try:
        if not isinstance(text, str):
            val = Fraction(text)
        elif "/" in text:
            num, den = text.split("/")
            val = Fraction(int(num), int(den))
        else:
            # Fraction would build 10^|exponent|.  An exponent of at least
            # the mantissa's length gives an integer, one below -(length +
            # 40) a value under 10^-40 < 2^-128: clamping changes no angle.
            mantissa, e, exponent = text.lower().partition("e")
            if e:
                cap = len(mantissa) + 40
                text = f"{mantissa}e{max(-cap, min(int(exponent), cap))}"
            val = Fraction(text)
    except (ValueError, OverflowError, ZeroDivisionError):
        if str(alpha).strip().lower().lstrip("+-") in ("nan", "inf", "infinity"):
            raise ValueError(f"alpha must be a finite angle, got {alpha!r}") from None
        raise ValueError(
            f"alpha must be sqrt2m1|sqrt3m1|invphi|decimal, got {alpha!r}"
        ) from None
    return (val.numerator % val.denominator << _FP_BITS) // val.denominator


class DynamicalSystem:
    """A transformation with an attached bounded observable and its mean.

    Subclasses provide exact n-th iterates; the invariant mean of the
    observable (the projection onto the invariant factor, evaluated for
    ergodic systems) is supplied in closed form, never estimated.
    """

    known_mean: complex = 0j

    def orbit_observable(self, x, iterates: np.ndarray) -> np.ndarray:
        """f(T^k x) for each k in iterates, as complex128."""
        raise NotImplementedError

    def orbits(self, points, iterates: np.ndarray) -> Iterator[np.ndarray]:
        """orbit_observable(x, iterates) for each x in points in turn, one
        orbit held at a time; systems override it to share work across points."""
        for x in points:
            yield self.orbit_observable(x, iterates)

    def iterate(self, x, k: int = 1):
        """The state T^k x."""
        raise NotImplementedError

    def sample_points(self, count: int = 16) -> list:
        """Low-discrepancy probe states; avoids accidental null-set artifacts."""
        raise NotImplementedError

    def random_states(self, seed: int, count: int) -> list:
        """States sampled from the invariant measure (for statistical checks)."""
        raise NotImplementedError

    def _check_bounded(self) -> None:
        pts = self.sample_points(16) + self.random_states(7, 64)
        for x, vals in zip(pts, self.orbits(pts, np.arange(0, 8, dtype=np.int64))):
            if not np.all(np.abs(vals) <= 1.0 + 1e-12):
                raise ValueError(f"observable exceeds modulus 1 at state {x!r}")


class RotationSystem(DynamicalSystem):
    """x -> x + alpha mod 1 on [0, 1) with Lebesgue measure.

    Observables (all with closed-form means under Lebesgue):
      e          e(x), mean 0
      e_shifted  (1 + e(x))/2, mean 1/2 (nonzero mean, exercises the
                 partial-summation stages of the chain)
      const      1, mean 1
      coboundary h - h(T .) with h = e(x)/2, mean 0
    """

    def __init__(self, alpha="sqrt2m1", observable: str = "e"):
        self.alpha_fp = _resolve_angle(alpha)
        self.alpha = self.alpha_fp * _FP_INV
        if observable not in _ROTATION_MEANS:
            raise ValueError(f"unknown rotation observable {observable!r}; "
                             f"choose from {', '.join(_ROTATION_MEANS)}")
        self.observable = observable
        self.known_mean = _ROTATION_MEANS[observable]
        self._check_bounded()

    def _k_alpha(self, iterates: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """k * alpha mod 2^128 as (low, high) uint64 halves, for an int64 array
        of iterates: 32-bit limbs with explicit carries, all vectorized, in
        place in four uint64 arrays besides k.  Every step is exact mod 2^64,
        so the order of the additions changes no bit."""
        ks = np.asarray(iterates, dtype=np.int64)
        if np.any(ks < 0):
            raise ValueError("iterates must be nonnegative")
        a = self.alpha_fp
        s32 = np.uint64(32)
        k = ks.astype(np.uint64)

        # 128-bit product k * (a mod 2^64) from the limbs k = k1 2^32 + k0
        # and a = al1 2^32 + al0: low = p0 + (mid << 32) and high = p3 +
        # (mid >> 32) + the carries of mid = p1 + p2 and of low
        mid = k & np.uint64(0xFFFFFFFF)                  # k0
        low = mid * np.uint64(a & 0xFFFFFFFF)             # p0
        mid *= np.uint64((a >> 32) & 0xFFFFFFFF)          # p1
        high = k >> s32                                   # k1
        tmp = high * np.uint64(a & 0xFFFFFFFF)            # p2
        high *= np.uint64((a >> 32) & 0xFFFFFFFF)         # p3
        mid += tmp
        np.less(mid, tmp, out=tmp)                        # carry of mid
        tmp <<= s32
        high += tmp
        np.right_shift(mid, s32, out=tmp)
        high += tmp
        mid <<= s32
        low += mid
        np.less(low, mid, out=tmp)                        # carry of low
        high += tmp
        # add k * a_hi * 2^64, mod 2^128
        np.multiply(k, np.uint64((a >> 64) & 0xFFFFFFFFFFFFFFFF), out=tmp)
        high += tmp
        return low, high

    def _orbit_fracs(self, points, iterates: np.ndarray) -> Iterator[np.ndarray]:
        """frac(x + k alpha) for each x in points in turn, in one float64
        array that the next point overwrites; k * alpha is computed once, each
        point adds only x_fp with its carry, in reused scratch.  Agrees bit
        for bit with high 2^-64 + low 2^-128 of the exact integer path: the
        low share B <= 2^-64 is added only where A = high 2^-64 < 2^-10, as
        from 2^-10 up ulp(A) >= 2^-62 > 2B and A + B rounds to A."""
        low, high = self._k_alpha(iterates)
        new_low, new_high, fr = np.empty_like(low), np.empty_like(high), np.empty(low.shape)
        # the mask of the fractions under 2^-10 takes new_high's bytes once fr holds A
        small = new_high.view(np.bool_)[: low.shape[0]]
        for x in points:
            x_fp = int(math.floor((float(x) % 1.0) * (1 << _FP_BITS)))
            np.add(low, np.uint64(x_fp & 0xFFFFFFFFFFFFFFFF), out=new_low)
            np.less(new_low, low, out=new_high)  # the carry into the high half
            new_high += np.uint64((x_fp >> 64) & 0xFFFFFFFFFFFFFFFF)
            new_high += high
            np.multiply(new_high, 2.0**-64, out=fr)
            i = np.flatnonzero(np.less(fr, 2.0**-10, out=small))
            fr[i] += new_low[i] * 2.0**-128
            yield fr

    def _f_of_fracs(self, fr: np.ndarray) -> np.ndarray:
        if self.observable == "const":
            return np.ones(fr.shape[0], dtype=np.complex128)
        ez = hardy.unit_phases(fr)
        if self.observable == "e_shifted":
            # 0.5 * (1.0 + ez) in place: its products by 0.5 and 0 are exact
            np.add(1.0, ez, out=ez)
            np.multiply(0.5, ez, out=ez)
        elif self.observable == "coboundary":
            # h - h o T with h = e(.)/2, so f(x) = e(x)(1 - e(alpha))/2
            ez = ez * (0.5 * (1.0 - np.exp(2j * np.pi * (self.alpha_fp * _FP_INV))))
        return ez

    def orbits(self, points, iterates: np.ndarray) -> Iterator[np.ndarray]:
        return map(self._f_of_fracs, self._orbit_fracs(points, iterates))

    def orbit_observable(self, x, iterates: np.ndarray) -> np.ndarray:
        return next(self.orbits([x], iterates))

    def iterate(self, x, k: int = 1) -> float:
        x_fp = int(math.floor((float(x) % 1.0) * (1 << _FP_BITS)))
        return ((x_fp + k * self.alpha_fp) & _FP_MASK) * _FP_INV

    def sample_points(self, count: int = 16) -> list:
        return [_radical_inverse(k) for k in range(1, count + 1)]

    def random_states(self, seed: int, count: int) -> list:
        return list(uniform01_block(child_seed(seed, 0xA11CE), 1, count))


class CyclicSystem(DynamicalSystem):
    """j -> j + 1 mod q on {0..q-1} with uniform measure.

    The observable is a table of complex values of modulus <= 1; shipped
    names: "roots" or "e" (f(j) = e(j/q), e(x) at x = j/q, mean 0 for
    q >= 2) and "indicator0" (1_{j=0} - 1/q, mean 0).  The invariant mean
    of a custom table is its exact average.
    """

    def __init__(self, q: int, observable="roots"):
        if q < 1:
            raise ValueError("modulus q must be >= 1")
        self.q = q
        if isinstance(observable, str):
            if observable in ("roots", "e"):
                table = np.exp(2j * np.pi * np.arange(q) / q)
                self.known_mean = (1.0 + 0j) if q == 1 else 0j
            elif observable == "indicator0":
                table = np.full(q, -1.0 / q, dtype=np.complex128)
                table[0] += 1.0
                self.known_mean = 0j
            else:
                raise ValueError(f"unknown cyclic observable {observable!r}; "
                                 "choose from e, roots, indicator0")
            self.observable = observable
        else:
            table = np.asarray(observable, dtype=np.complex128)
            if table.shape != (q,):
                raise ValueError(f"observable table must have length {q}")
            # every entry, not only the states _check_bounded probes; NaN fails too
            over = np.flatnonzero(~(np.abs(table) <= 1.0 + 1e-12))
            if over.size:
                raise ValueError(f"observable exceeds modulus 1 at state {over[0]}")
            self.observable = "table"
            self.known_mean = complex(math.fsum(table.real) / q, math.fsum(table.imag) / q)
        self.table = table
        self._check_bounded()

    def orbit_observable(self, x, iterates: np.ndarray) -> np.ndarray:
        idx = (int(x) + np.asarray(iterates, dtype=np.int64)) % self.q
        return self.table[idx]

    def iterate(self, x, k: int = 1) -> int:
        return (int(x) + k) % self.q

    def sample_points(self, count: int = 16) -> list:
        return [int(_radical_inverse(k) * self.q) % self.q for k in range(1, count + 1)]

    def random_states(self, seed: int, count: int) -> list:
        u = uniform01_block(child_seed(seed, 0xC1C), 1, count)
        return [int(v * self.q) % self.q for v in u]


class BernoulliSystem(DynamicalSystem):
    """Left shift on i.i.d. uniform symbol sequences (product measure).

    A state is (stream, offset): symbol j of the state is a hash of
    (stream, offset + j), so T is offset + 1 and arbitrary iterates are
    O(window).  The observable reads the leading window as a base-A
    fraction w and returns e(w); averaging e(w) over all A^window equally
    likely words gives exactly 0, the supplied invariant mean.
    """

    def __init__(self, alphabet: int = 2, window: int = 8):
        if alphabet < 2:
            raise ValueError("alphabet size must be >= 2")
        if window < 1:
            raise ValueError("window length must be >= 1")
        self.alphabet = alphabet
        self.window = window
        self.known_mean = 0j
        self._weights = alphabet ** -(1.0 + np.arange(window, dtype=np.float64))
        self._check_bounded()

    def orbit_observable(self, x, iterates: np.ndarray) -> np.ndarray:
        stream, offset = x
        w, starts = self.window, offset + np.asarray(iterates, dtype=np.int64)
        # a per-index hash, once per distinct position: in sorted order a window
        # adds the min(gap, w) positions past the one before, and its slots end at its last
        order = np.argsort(starts, kind="stable")
        fresh = np.minimum(np.diff(starts[order], prepend=starts[order[:1]] - w), w)
        ends = np.empty_like(fresh)
        ends[order] = np.cumsum(fresh)
        distinct = np.repeat(starts[order] + w - ends[order], fresh) + np.arange(fresh.sum())
        u = _mix_block(child_seed(stream, 0xBE52), distinct.astype(np.uint64)).astype(np.float64)
        sym = np.floor(u * 2.0 ** -53 * self.alphabet)[ends[:, None] - w + np.arange(w)]
        return hardy.unit_phases(sym @ self._weights)

    def iterate(self, x, k: int = 1):
        stream, offset = x
        return (stream, offset + k)

    def sample_points(self, count: int = 16) -> list:
        return [(child_seed(0x5EED, i), 0) for i in range(1, count + 1)]

    def random_states(self, seed: int, count: int) -> list:
        return [(child_seed(seed, 0xB000 + i), 0) for i in range(count)]


def make_system(
    kind: str,
    alpha="sqrt2m1",
    observable=None,
    q: int = 5,
    alphabet: int = 2,
    window: int = 8,
) -> DynamicalSystem:
    """rotation | cyclic | bernoulli.

    alpha applies to the rotation, q to the cyclic shift, alphabet and
    window to the Bernoulli shift.  observable None picks the system's
    default ("e" on the rotation, "roots", the same table as "e", on the
    cyclic shift); the Bernoulli shift has the one observable "e".
    """
    if kind == "rotation":
        return RotationSystem(alpha, "e" if observable is None else observable)
    if kind == "cyclic":
        return CyclicSystem(int(q), "roots" if observable is None else observable)
    if kind == "bernoulli":
        if observable not in (None, "e"):
            raise ValueError(f"the bernoulli system observes only e (e(w)), not {observable!r}")
        return BernoulliSystem(int(alphabet), int(window))
    raise ValueError(f"unknown system kind {kind!r}")


def _orbit_inputs(
    sys: DynamicalSystem, phases: np.ndarray, schedule: Sequence[int], sample_points: Optional[list]
) -> Tuple[List[int], list, np.ndarray]:
    """(sorted schedule, sample points, e(p(n)) for n up to the top N): the
    checked inputs of weighted_average_from_positions and chain_diagnostics,
    with the system's 16 default points when sample_points is None."""
    schedule = sorted(int(N) for N in schedule)
    if not schedule or schedule[0] < 1:
        raise ValueError("schedule must contain positive integers")
    if phases.shape[0] < schedule[-1]:
        raise ValueError("phase table shorter than the schedule top")
    if sample_points is None:
        sample_points = sys.sample_points(16)
    return schedule, sample_points, hardy.unit_phases(phases[: schedule[-1]])


def weighted_average_from_positions(
    sys: DynamicalSystem,
    phases: np.ndarray,
    positions: np.ndarray,
    schedule: Sequence[int],
    sample_points: Optional[list] = None,
) -> np.ndarray:
    """(1/N) sum_{n<=N} e(p(n)) f(T^{positions[n-1]} x) as a complex array:
    one row per sample point x, one column per N of the schedule, in sorted order.

    phases is the table frac(p(n)), n = 1, 2, ... (hardy.phase_fractions);
    it does not depend on the seed, so one table serves every realization.
    positions are the counting-function values a_1, a_2, ... (Realization.ones
    or selectors.select_first).
    """
    schedule, sample_points, z = _orbit_inputs(sys, phases, schedule, sample_points)
    n_top = schedule[-1]
    if positions.shape[0] < n_top:
        raise OutOfRangeError(
            f"need {n_top} counting-function values, realization provides "
            f"{positions.shape[0]}"
        )

    values = np.empty((len(sample_points), len(schedule)), dtype=np.complex128)
    orbits = sys.orbits(sample_points, positions[:n_top])
    for j in range(len(sample_points)):
        # each orbit is a fresh array: z * orbit overwrites it, and it is
        # freed before the next one is built.  In place, numpy multiplies
        # one element by its scalar loop, which rounds apart from the vector
        # loop, so a one-term product gets a new array.
        orbit = next(orbits)
        terms = np.multiply(z, orbit, out=orbit if n_top > 1 else None)
        values[j] = hardy.prefix_means(terms, schedule)
        del orbit, terms
    return values


@dataclass(frozen=True)
class ChainDiagnostics:
    """Values and consecutive gaps of the six-stage comparison chain.

    Stages per sample point (all complex):
      0  (1/S_N) sum_{k<=S_N} e(p(k)) f(T^{a_k} x)      full average at S_N
      1  (1/S_N) sum_{n<=N} X_n e(p(S_n)) f(T^n x)       same terms, reindexed
      2  (1/W_N) sum_{n<=N} X_n e(p(S_n)) f(T^n x)       random count -> mean count
      3  (1/W_N) sum_{n<=N} sigma_n e(p(S_n)) f(T^n x)   selectors -> probabilities
      4  mean(f) * (1/W_N) sum_{n<=N} sigma_n e(p(S_n))  observable -> its mean
      5  mean(f) * (1/N) sum_{n<=N} e(p(n))              back to the plain sum
    diffs[:, i] = |stage_{i+1} - stage_i| for i < 5 and diffs[:, 5] = |stage 5|.
    Stage 0 and stage 1 enumerate identical term arrays, so diffs[:, 0] is
    exactly zero.
    """

    N: int
    s_N: int
    w_N: float
    stages: np.ndarray  # (n_points, 6) complex
    diffs: np.ndarray  # (n_points, 6) float


def chain_diagnostics(
    sys: DynamicalSystem,
    phases: np.ndarray,
    realizations: Iterable[Realization],
    schedule: Sequence[int],
    sample_points: Optional[list] = None,
) -> List[List[ChainDiagnostics]]:
    """The comparison chain at each N of the schedule, in sorted order, for
    realizations of one exponent a: one list per realization, in input order.

    phases is the table frac(p(n)), n = 1, 2, ... (hardy.phase_fractions).
    Each realization is checked and cut down to its selected positions to the
    top N, their run lengths and a few scalars before the first orbit is built;
    each sample point's orbit is then built once for all of them, one at a time.
    """
    schedule, sample_points, e_all = _orbit_inputs(sys, phases, schedule, sample_points)
    n_top = schedule[-1]
    km = complex(sys.known_mean)
    # stages 4 and 5 do not depend on the sample point; stage 5 not on the realization
    stage5 = [km * (np.sum(e_all[:N]) / N) for N in schedule]
    states, sigma = [], None

    def weighted(runs: np.ndarray) -> np.ndarray:
        # sigma_n e(p(S_n)): S_n = k + 1 on the run from the k-th selected position to the next
        return sigma * np.repeat(e_all[: runs.shape[0]], runs)

    for r in realizations:
        if n_top > r.n_max:
            raise ValueError(f"schedule must lie in [1, n_max={r.n_max}]")
        if sigma is None:
            a, sigma = r.params.a, sigma_values(r.params.a, 1, n_top)
            # W_N from one cumulative sum: it depends on a and N, not on the draw
            w_Ns = np.cumsum(sigma)[np.array(schedule) - 1].tolist()
        elif r.params.a != a:
            raise ValueError(f"the realizations must share one a, got {a} and {r.params.a}")
        pos = r.ones[: r.S(n_top)] - 1
        runs = np.diff(pos, append=n_top)
        w = weighted(runs)
        stage4 = [km * np.sum(w[:N]) / w_N for N, w_N in zip(schedule, w_Ns)]
        states.append((pos, runs, [r.S(N) for N in schedule], stage4))
        del r, w  # hold one realization at a time

    if not states:
        return []
    n_pts = len(sample_points)
    stages = np.empty((len(states), len(schedule), n_pts, 6), dtype=np.complex128)
    orbits = sys.orbits(sample_points, np.arange(1, n_top + 1, dtype=np.int64))
    for j in range(n_pts):
        orbit = next(orbits)
        for (pos, runs, s_Ns, _), st in zip(states, stages):
            # one product per term to the top N (in place but for one term), summed per prefix
            sel, w = e_all[: pos.shape[0]] * orbit[pos], weighted(runs)
            w = np.multiply(w, orbit, out=w if n_top > 1 else None)
            # stages 0 and 1 sum the same nonzero terms in the same order:
            # at a selected index n, S_n equals its selection rank k and a_k = n
            sums = np.array([np.sum(sel[:s_N]) for s_N in s_Ns])
            st[:, j, 0] = st[:, j, 1] = sums / s_Ns
            st[:, j, 2] = sums / w_Ns
            st[:, j, 3] = np.array([np.sum(w[:N]) for N in schedule]) / w_Ns
        del orbit  # freed before the next orbit is built
    stages[..., 4] = np.array([st4 for *_, st4 in states])[:, :, None]
    stages[..., 5] = np.array(stage5)[:, None]
    diffs = np.abs(np.diff(stages, axis=-1, append=0))
    # d6 by scalar abs, not np.abs: they differ in the last bit on about a
    # third of complex128 values, and d6 is in the digests
    diffs[..., 5] = np.array([abs(v) for v in stage5])[:, None]
    return [[ChainDiagnostics(N, s_Ns[i], w_Ns[i], st[i], df[i])
             for i, N in enumerate(schedule)]
            for (_, _, s_Ns, _), st, df in zip(states, stages, diffs)]


def partial_summation_identity(
    sigma_like: np.ndarray,
    a_seq: np.ndarray,
    N: int,
):
    """Both sides of the summation-by-parts identity

        (1/W_N) sum sigma_n a_n
            = (N sigma_N / W_N) A_N
              + sum_{M<N} (M (sigma_M - sigma_{M+1}) / W_N) A_M,

    with A_M the plain averages of a_seq.  The two sides are evaluated by
    independent routes; agreement to ~1e-12 relative is an exact-identity
    check, not a convergence statement.
    """
    sigma = np.asarray(sigma_like, dtype=np.float64)
    a = np.asarray(a_seq, dtype=np.complex128)
    if N < 1 or sigma.shape[0] < N or a.shape[0] < N:
        raise ValueError("sequences must cover 1..N")
    if np.any(sigma[:N] <= 0) or np.any(np.diff(sigma[:N]) > 0):
        raise ValueError("sigma_like must be positive and nonincreasing")
    w_N = math.fsum(sigma[:N])
    lhs = np.sum(sigma[:N] * a[:N]) / w_N

    averages = np.cumsum(a[:N]) / np.arange(1, N + 1)
    rhs = N * sigma[N - 1] * averages[N - 1] / w_N
    if N > 1:
        m = np.arange(1, N, dtype=np.float64)
        rhs = rhs + np.sum(m * (sigma[: N - 1] - sigma[1:N]) * averages[: N - 1]) / w_N
    return complex(lhs), complex(rhs)
