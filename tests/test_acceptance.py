"""Acceptance gate.

One test per criterion, in fixed order, each printing a [criterion NN]
PASS line with the measured quantities next to the frozen thresholds.
Run with `pytest -rA` to see the lines for passing tests too.

The statistical surrogates use fixed, disjoint seed families; everything
here is a pure function of those seeds, so the gate is deterministic.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from mpmath import mp

from ergolab import correlation, dynamics, hardy, selectors
from ergolab.harness import _pool_map, lacunary_schedule, slope_fit

A_DEFAULT = 0.3
P_TEXT = "x^(3/2)"
WORKERS = min(8, os.cpu_count() or 1)


@pytest.fixture(scope="module")
def shared():
    return {"p": hardy.parse_expression(P_TEXT, epsilon_hint=0.5)}


def _phases_2_20(shared):
    if "phases" not in shared:
        bits = hardy.minimum_precision(shared["p"], 1 << 20)
        shared["phases"] = hardy.phase_fractions(shared["p"], 1 << 20, bits)
    return shared["phases"]


# ---------------------------------------------------------------------------

def test_criterion_01_exponential_sum_decay(shared):
    """p(n) = n^(3/2), rho = 2, N in [2^10, 2^20]: log-log slope < -0.1,
    |exp_sum(2^20)| < 0.02, under 60 s single-threaded at the rule."""
    p = shared["p"]
    sched = lacunary_schedule(2.0, 1 << 10, 1 << 20)
    t0 = time.monotonic()
    bits = hardy.minimum_precision(p, 1 << 20)
    fr = hardy.phase_fractions(p, 1 << 20, bits)
    means = hardy.prefix_means(hardy.unit_phases(fr), sched)
    elapsed = time.monotonic() - t0
    shared["phases"] = fr  # reused by criterion 7

    mags = np.abs(means)
    fit = slope_fit(list(zip(sched, mags)))
    top = float(mags[-1])
    print(f"[criterion 01] PASS slope={fit.slope:+.4f} (< -0.1), "
          f"|exp_sum(2^20)|={top:.6f} (< 0.02), {elapsed:.1f}s (< 60), bits={bits}")
    assert fit.slope < -0.1
    assert top < 0.02
    assert elapsed < 60.0


def test_criterion_02_law_of_large_numbers():
    """a = 0.3, N = 1e5, seeds 0..99: |S_N/W_N - 1| < 0.05 in >= 99 cases."""
    N = 10**5
    w = selectors.sigma_prefix(A_DEFAULT, N)
    devs = np.abs(selectors.count_selected(A_DEFAULT, range(100), N) / w - 1.0)
    passes = int(np.sum(devs < 0.05))
    print(f"[criterion 02] PASS {passes}/100 seeds within 0.05 "
          f"(need >= 99), max deviation {devs.max():.4f}")
    assert passes >= 99


def test_criterion_03_chernoff_tails():
    """a = 0.3, N = 1e4, 1e4 trials: no |S-W| >= W/2 events; the 3 sqrt(W)
    frequency stays within the normal-scale envelope 0.01."""
    N, trials = 10**4, 10**4
    w = selectors.sigma_prefix(A_DEFAULT, N)
    params = selectors.SelectorParams(a=A_DEFAULT, seed=424242, n_max=N)
    rep = selectors.deviation_statistics(
        params, N, trials, thresholds=[3.0 * math.sqrt(w), 0.5 * w]
    )
    freq3, freq_half = float(rep.frequencies[0]), float(rep.frequencies[1])
    print(f"[criterion 03] PASS freq@3sqrtW={freq3:.4f} (<= 0.01), "
          f"freq@W/2={freq_half} (= 0), envelope@W/2={rep.envelopes[1]:.2e}")
    assert freq_half == 0.0
    assert freq3 <= 0.01


def test_criterion_04_van_der_corput_inequality():
    """Exact inequality on 1000 random instances, N <= 64, dim <= 8,
    every M in [1, N]."""
    rng = np.random.default_rng(2024)
    checked = 0
    worst = 0.0
    for _ in range(1000):
        N = int(rng.integers(1, 65))
        d = int(rng.integers(1, 9))
        V = rng.normal(size=(N, d)) + 1j * rng.normal(size=(N, d))
        for M in range(1, N + 1):
            lhs, rhs = correlation.vdc_inequality_check(V, M)
            worst = max(worst, lhs / rhs if rhs > 0 else 0.0)
            checked += 1
    print(f"[criterion 04] PASS {checked} (instance, M) pairs, "
          f"max lhs/rhs = {worst:.6f} (<= 1 + 1e-9)")
    assert worst <= 1.0 + 1e-9


def test_criterion_05_partial_summation_identity():
    """Relative error < 1e-10 on 1000 random bounded instances, N <= 1e4."""
    rng = np.random.default_rng(99)
    worst = 0.0
    for trial in range(1000):
        N = 10**4 if trial < 10 else int(rng.integers(2, 10**4 + 1))
        a_seq = rng.uniform(-1, 1, N) + 1j * rng.uniform(-1, 1, N)
        expo = float(rng.uniform(0.05, 0.95))
        sig = selectors.sigma_values(expo, 1, N)
        lhs, rhs = dynamics.partial_summation_identity(sig, a_seq, N)
        rel = abs(lhs - rhs) / max(abs(lhs), 1e-30)
        worst = max(worst, rel)
    print(f"[criterion 05] PASS 1000 instances, worst relative error "
          f"{worst:.2e} (< 1e-10)")
    assert worst < 1e-10


def test_criterion_06_brute_force_equivalence(shared):
    """weight_series, correlation_sum, i_terms_profile match naive loops
    within 1e-12 relative at N <= 128 across 10 seeds."""
    p = shared["p"]
    wp = correlation.WeightParams(a=A_DEFAULT, delta=0.1, b=0.35, c_exponent=0.8)
    worst = 0.0

    def rel(err, scale):
        return err / max(scale, 1e-30)

    for seed in range(10):
        n_max = 128 + 5 + int(math.floor(128 ** 0.8)) + 1
        r = selectors.generate_realization(
            selectors.SelectorParams(a=A_DEFAULT, seed=seed, n_max=n_max)
        )
        w = correlation.weight_series(r, hardy.phase_fractions(p, r.selection_count), wp)

        # naive weight sequence via independent 200-bit evaluation
        for n in range(1, 129):
            s = r.S(n)
            with mp.workprec(200):
                v = mp.power(s, mp.mpf(3) / 2)
                frac = float(v - mp.floor(v))
            y = float(r.bits[n - 1]) - n ** -A_DEFAULT
            oracle = y * complex(math.cos(2 * math.pi * frac),
                                 math.sin(2 * math.pi * frac))
            worst = max(worst, rel(abs(w.c[n - 1] - oracle), abs(oracle)))

        # naive correlation sums
        for N in (32, 64, 128):
            n0 = correlation.correlation_window(N, wp.delta)
            for m in (1, 3, 7):
                brute = sum(
                    w.c[n + m - 1] * np.conj(w.c[n - 1])
                    for n in range(n0, N - m + 1)
                )
                got = correlation.correlation_sum(w, N, m)
                worst = max(worst, rel(abs(got - brute), abs(brute)))

        # naive three-term profile at N = 128
        N = 128
        for m in (1, 2, 5):
            prof = correlation.i_terms_profile(w, N, m)
            n0, R, fac = prof.n0, prof.R, prof.factor
            y = r.y_values(n_max)
            i1 = fac * sum(
                (y[n - 1] * y[n + m - 1]) ** 2 for n in range(n0, N - m + 1)
            )

            def lag_sum(rr):
                tot = 0j
                for n in range(n0, N - m - rr + 1):
                    g_n = w.c[n - 1] * np.conj(w.c[n + m - 1])
                    g_nr = w.c[n + rr - 1] * np.conj(w.c[n + rr + m - 1])
                    tot += g_n * np.conj(g_nr)
                return tot

            i2 = fac * abs(lag_sum(m))
            i3 = fac * math.fsum(abs(lag_sum(rr)) for rr in range(1, R + 1) if rr != m)
            worst = max(worst, rel(abs(prof.i1_sq - i1), abs(i1)))
            worst = max(worst, rel(abs(prof.i2_sq - i2), max(abs(i2), 1e-12)))
            worst = max(worst, rel(abs(prof.i3_sq - i3), abs(i3)))

    print(f"[criterion 06] PASS brute-force equivalence across 10 seeds, "
          f"worst relative deviation {worst:.2e} (< 1e-12)")
    assert worst < 1e-12


# --- criterion 7 fan-out ------------------------------------------------------
# Jobs are module-level so that workers can import them; their shared inputs
# reach each worker once, through the pool initializer, under any start method.

def _criterion7_job(ctx, seed: int):
    positions = selectors.select_first(A_DEFAULT, seed, 1 << 20)
    series = dynamics.weighted_average_from_positions(
        ctx["system"], ctx["phases"], positions, [1 << 12, 1 << 20],
        sample_points=ctx["points"],
    )
    return np.abs(series)


def test_criterion_07_weighted_average_decay(shared):
    """Rotation sqrt(2)-1, f = e(x), a = 0.3, p = n^(3/2), rho = 2: the
    median over 20 seeds of |average| at N = 2^20 is below its value at
    N = 2^12 at all 16 sample points; two disjoint families agree."""
    t0 = time.monotonic()
    system = dynamics.RotationSystem("sqrt2m1", "e")
    ctx = dict(system=system, points=system.sample_points(16), phases=_phases_2_20(shared))
    families = {"A": range(1000, 1020), "B": range(2000, 2020)}
    seeds = [seed for family in families.values() for seed in family]
    results = dict(zip(seeds, _pool_map(_criterion7_job, seeds, WORKERS, ctx)))
    verdicts = {}
    medians = {}
    for name, family in families.items():
        stack = np.array([results[seed] for seed in family])
        med = np.median(stack, axis=0)  # (16 points, 2 Ns)
        verdicts[name] = bool(np.all(med[:, 1] < med[:, 0]))
        medians[name] = med
    elapsed = time.monotonic() - t0

    for name in families:
        med = medians[name]
        print(f"[criterion 07] family {name}: median@2^12 in "
              f"[{med[:,0].min():.5f}, {med[:,0].max():.5f}], median@2^20 in "
              f"[{med[:,1].min():.5f}, {med[:,1].max():.5f}], "
              f"ordered at all 16 points: {verdicts[name]}")
    print(f"[criterion 07] PASS families agree={verdicts['A'] == verdicts['B'] == True}, "
          f"{elapsed:.0f}s (< 600) with {WORKERS} workers")
    assert verdicts["A"] and verdicts["B"]
    assert elapsed < 600.0


# --- criterion 8 fan-out -----------------------------------------------------

def _criterion8_job(ctx, seed: int):
    wp = ctx["wp"]
    sched = ctx["sched"]
    params = selectors.SelectorParams(a=wp.a, seed=seed, n_max=ctx["n_need"])
    r = selectors.generate_realization(params)
    w = correlation.weight_series(r, hardy.phase_fractions(ctx["p"], r.selection_count), wp)
    _, parts = correlation.summability_statistic(w, sched)
    return float(parts[-1]), float(parts[-1] - parts[-2])


def test_criterion_08_summability_surrogate(shared):
    """Defaults a=0.3, b=0.35, delta=0.1, c=0.8, schedule 2^10..2^20: the
    increment of the running partial sum over the final schedule step
    [2^19, 2^20] stays below 10% of the total, median over 20 seeds."""
    t0 = time.monotonic()
    wp = correlation.WeightParams(a=A_DEFAULT, delta=0.1, b=0.35, c_exponent=0.8)
    sched = lacunary_schedule(2.0, 1 << 10, 1 << 20)
    ctx = dict(
        wp=wp, sched=sched, p=shared["p"],
        n_need=sched[-1] + int(math.floor(sched[-1] ** wp.b)) + 1,
    )
    results = _pool_map(_criterion8_job, list(range(20)), WORKERS, ctx)
    fractions = np.array([step / total for total, step in results])
    med = float(np.median(fractions))
    print(f"[criterion 08] PASS final-step increment fraction: median={med:.4f} "
          f"(< 0.10), range=({fractions.min():.4f}, {fractions.max():.4f}), "
          f"{time.monotonic()-t0:.0f}s")
    assert med < 0.10


def test_criterion_09_second_difference_hypothesis():
    """p = x^2 at eps = 1 gives ratio exactly 2 on the whole grid; p = x^(3/2)
    at eps = 1/2 stays in (0, 1] over x in [10, 1e6], y, z in [1, x^0.4]."""
    square = hardy.parse_expression("x^2")
    three_halves = hardy.parse_expression(P_TEXT, epsilon_hint=0.5)
    xs = np.geomspace(10.0, 1e6, 11)
    worst_sq = 0.0
    lo, hi = math.inf, 0.0
    for x in xs:
        for fy in (1.0, x ** 0.2, x ** 0.4):
            for fz in (1.0, x ** 0.2, x ** 0.4):
                r_sq = hardy.second_difference_ratio(square, float(x), fy, fz, epsilon=1.0)
                worst_sq = max(worst_sq, abs(r_sq - 2.0))
                r_th = hardy.second_difference_ratio(three_halves, float(x), fy, fz)
                lo, hi = min(lo, r_th), max(hi, r_th)
    print(f"[criterion 09] PASS x^2 ratio deviation {worst_sq:.2e} (< 1e-12); "
          f"x^(3/2) ratio range [{lo:.4f}, {hi:.4f}] within (0, 1]")
    assert worst_sq < 1e-12
    assert lo > 0.0 and hi <= 1.0


def test_criterion_10_cli_byte_determinism(tmp_path):
    """Identical configs give byte-identical CSV at any worker count."""
    cases = {
        "expsum": ["expsum", "--p", P_TEXT, "--eps", "0.5", "--rho", "2",
                   "--Nmin", "256", "--Nmax", "4096"],
        "average": ["average", "--system", "rotation", "--alpha", "sqrt2m1",
                    "--f", "e(x)", "--a", "0.3", "--p", P_TEXT, "--eps", "0.5",
                    "--rho", "2", "--Nmin", "64", "--Nmax", "512",
                    "--seeds", "3", "--points", "4"],
        "correlation": ["correlation", "--a", "0.3", "--p", P_TEXT, "--eps", "0.5",
                        "--delta", "0.1", "--b", "0.35", "--c", "0.8",
                        "--rho", "2", "--Nmin", "128", "--Nmax", "1024",
                        "--seeds", "2"],
    }
    for name, args in cases.items():
        outputs = []
        for tag, workers in (("w1", "1"), ("w2", "2"), ("w1r", "1")):
            out = tmp_path / f"{name}_{tag}.csv"
            env = dict(os.environ, ERGOLAB_WORKERS=workers)
            proc = subprocess.run(
                [sys.executable, "-m", "ergolab.cli", *args, "--out", str(out)],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2], f"{name} bytes differ"
    print("[criterion 10] PASS expsum/average/correlation byte-identical "
          "across worker counts and reruns")
