"""Experiment orchestration: schedules, configs, pipelines, CSV reports.

A single flat ExperimentConfig drives every pipeline; PIPELINES maps each
one (generate | expsum | average | chain | correlation | deviation |
vdc-selftest) to its runner and the config keys it reads.  Reports
are written atomically as versioned CSV whose bytes depend only on the
config - never on worker count or timing - so reruns diff clean.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import tempfile
import typing
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import correlation, dynamics, hardy, selectors

WORKERS_ENV = "ERGOLAB_WORKERS"
# config fields that never change report content: left out of the
# fingerprint and of the CSV header, and taken by every pipeline
_OUTPUT_ONLY_FIELDS = {"out", "workers"}
CSV_SCHEMA = 1
SLOPE_CLAMP_FLOOR = 1e-15


def lacunary_schedule(rho: float, n_min: int, n_max: int) -> List[int]:
    """{floor(rho^k) : k >= 0} intersected with [n_min, n_max], deduplicated.

    Lacunary schedules are the averaging parameters everywhere; convergence
    along every such schedule (rho from a sequence tending to 1) upgrades
    to full convergence for bounded observables.
    """
    if not 1.0 < rho < math.inf:
        raise ValueError(f"rho must be finite and exceed 1, got {rho}")
    if not 1 <= n_min <= n_max:
        raise ValueError(f"need 1 <= n_min <= n_max, got [{n_min}, {n_max}]")
    out, k, v = [], 0, n_min - 1
    try:
        while True:
            # the first k whose floor(rho^k) exceeds v: jump to the estimate
            # log(v + 1) / log(rho), then settle on the exact expression
            k = max(k, math.ceil(math.log(v + 1) / math.log1p(rho - 1)))
            while k > 0 and math.floor(rho ** (k - 1)) > v:
                k -= 1
            while math.floor(rho ** k) <= v:
                k += 1
            v = math.floor(rho ** k)
            if v > n_max:
                return out
            out.append(v)
    except OverflowError:
        raise ValueError(f"n_max={n_max} is out of reach: rho^{k} overflows float64 at rho={rho}") from None


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    half_width: float
    clamped: bool


def slope_fit(series: Sequence[Tuple[float, float]]) -> SlopeFit:
    """Least squares of log(magnitude) on log(N).

    Negative slope quantifies decay.  Exact cancellations would push
    log(0) to -inf and silently wreck the fit, so magnitudes below
    SLOPE_CLAMP_FLOOR are clamped and flagged.  half_width is two standard
    errors of the slope (roughly a 95% interval).
    """
    if len(series) < 3:
        raise ValueError("slope fit needs at least 3 points")
    n_vals = np.array([float(n) for n, _ in series])
    mags = np.array([float(v) for _, v in series])
    if np.any(n_vals <= 0):
        raise ValueError("N values must be positive")
    if np.all(n_vals == n_vals[0]):
        raise ValueError("degenerate fit: all N equal")
    clamped = bool(np.any(mags < SLOPE_CLAMP_FLOOR))
    mags = np.maximum(mags, SLOPE_CLAMP_FLOOR)

    x = np.log(n_vals)
    y = np.log(mags)
    xbar = x.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    slope = float(np.sum((x - xbar) * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * xbar)
    resid = y - (intercept + slope * x)
    dof = len(series) - 2
    se = math.sqrt(float(np.sum(resid ** 2)) / dof / sxx) if dof > 0 else 0.0
    return SlopeFit(slope, intercept, 2.0 * se, clamped)


# ---------------------------------------------------------------------------
# Configuration.

# the spellings of f that differ from an observable's name; each system
# checks the name and lists its own
OBSERVABLE_ALIASES = {"e(x)": "e", "(1+e(x))/2": "e_shifted", "1": "const"}


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat parameter bundle.  Each pipeline reads the fields that
    PIPELINES names for it; its CLI subcommand takes exactly those as flags
    or config-file keys, besides out and workers."""

    pipeline: str = "expsum"
    a: float = 0.3
    a_values: Optional[Tuple[float, ...]] = None  # sweep overriding `a`
    eps: Optional[float] = None
    p: str = "x^(3/2)"
    rho: Tuple[float, ...] = (2.0, 1.5, 1.1)
    delta: float = 0.1
    b: Optional[float] = None
    c: Optional[float] = None
    seeds: int = 20
    seed_base: int = 0
    nmin: int = 1024
    nmax: int = 1 << 20
    bits: Optional[int] = None
    system: str = "rotation"
    alpha: str = "sqrt2m1"
    q: int = 5
    alphabet: int = 2
    window: int = 8
    f: str = "e"
    points: int = 16
    trials: int = 1000
    chernoff_c: float = 0.125
    iterms_n: Optional[int] = None
    n: Optional[int] = None
    seed: int = 0
    instances: int = 1000
    out: Optional[str] = None
    workers: Optional[int] = None

    def __post_init__(self):
        if self.pipeline not in PIPELINES:
            raise ValueError(f"unknown pipeline {self.pipeline!r}")
        for r in self.rho:
            if not 1.0 < r < math.inf:
                raise ValueError(f"every rho must be finite and exceed 1, got {r}")
        min_seeds = 1 if "seeds" in PIPELINES[self.pipeline].keys else 0
        if self.seeds < min_seeds:
            raise ValueError(
                f"{self.pipeline} needs seeds >= {min_seeds}, got {self.seeds}"
            )
        if self.seeds > 0 and not 0 <= self.seed_base <= (1 << 64) - self.seeds:
            raise ValueError(
                "seeds seed_base..seed_base+seeds-1 must lie in [0, 2^64), "
                f"got seed_base={self.seed_base}, seeds={self.seeds}"
            )
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must lie in [0, 2^64), got {self.seed}")
        self.resolve_workers()  # a bad count, flag or ERGOLAB_WORKERS, fails here
        if self.points < 1:
            raise ValueError(f"points must be >= 1, got {self.points}")
        if self.instances < 1:
            raise ValueError(f"instances must be >= 1, got {self.instances}")
        if not 0.0 < self.chernoff_c < math.inf:
            raise ValueError(f"chernoff_c must be positive and finite, got {self.chernoff_c}")
        if self.a_values is not None:
            check_key(self.pipeline, "a_values")
        # every selecting pipeline needs this; checked before any phase table
        for a in self.a_values or (self.a,):
            if not 0.0 < a < 0.5:
                raise ValueError(f"exponent a must lie in (0, 1/2), got {a}")
        # a repeated value would repeat its rows in some pipelines and not others
        for name in ("rho", "a_values"):
            values = getattr(self, name) or ()
            if len(set(values)) < len(values):
                raise ValueError(f"{name} must not repeat a value, got {values}")

    def seed_list(self) -> List[int]:
        return [self.seed_base + i for i in range(self.seeds)]

    def observable(self) -> str:
        key = self.f.strip()
        return OBSERVABLE_ALIASES.get(key, key)

    def resolve_workers(self) -> int:
        """workers, else ERGOLAB_WORKERS, else 1; a count below 1 is rejected."""
        name, workers = "workers", self.workers
        if workers is None:
            name, env = WORKERS_ENV, os.environ.get(WORKERS_ENV) or "1"
            try:
                workers = int(env)
            except ValueError:
                raise ValueError(f"{WORKERS_ENV} must be an integer, got {env!r}") from None
        if workers < 1:
            raise ValueError(f"{name} must be >= 1, got {workers}")
        return workers

    def fingerprint(self) -> str:
        """Stable id over everything that can affect report *content*.

        Output path and worker count are excluded on purpose: they must
        never change the bytes of the data rows.
        """
        parts = [f"{fld}={value!r}" for fld, value in self._content()]
        return hashlib.sha256(";".join(parts).encode()).hexdigest()[:12]

    def _content(self) -> List[Tuple[str, object]]:
        """(field, value) for every field that can change report content, by name."""
        return [(fld, getattr(self, fld)) for fld in sorted(f.name for f in fields(self))
                if fld not in _OUTPUT_ONLY_FIELDS]


def parse_config_file(path: str) -> Dict[str, str]:
    """Flat key=value lines; '#' starts a comment; blank lines ignored; a
    key may appear once."""
    values: Dict[str, str] = {}
    first_line: Dict[str, int] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in first_line:
            raise ValueError(f"{path}:{lineno}: key {key!r} repeats line {first_line[key]}")
        first_line[key] = lineno
        values[key] = value
    return values


def coerce_config_values(values: Dict[str, str]) -> Dict[str, object]:
    """Parse config text into the types ExperimentConfig's annotations name:
    int, float, str or a comma list of floats.  none, auto and the empty
    value mean None, which only Optional fields accept."""
    hints = typing.get_type_hints(ExperimentConfig)
    out: Dict[str, object] = {}
    for key, value in values.items():
        if key not in hints:
            raise ValueError(f"unknown config key {key!r}")
        kind = hints[key]
        optional = typing.get_origin(kind) is typing.Union
        kind = typing.get_args(kind)[0] if optional else kind
        if value.lower() in ("none", "auto", ""):
            if not optional:
                raise ValueError(f"config key {key!r} needs a value, got {value!r}")
            out[key] = None
            continue
        is_list = typing.get_origin(kind) is tuple
        try:
            out[key] = tuple(float(v) for v in value.split(",")) if is_list else kind(value)
        except ValueError:
            expected = "comma-separated floats" if is_list else kind.__name__
            raise ValueError(f"config key {key!r} expects {expected}, got {value!r}") from None
    return out


# ---------------------------------------------------------------------------
# Reports.

def _fmt(value) -> str:
    """Canonical cell text: repr for floats (shortest round trip), str else."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if value is None:
        return ""
    return str(value)


@dataclass(frozen=True)
class Table:
    name: str
    columns: Tuple[str, ...]  # the data columns; csv_bytes writes experiment_id first
    rows: Tuple[Tuple, ...]


@dataclass(frozen=True)
class Report:
    """Tabular results plus the parameter fingerprint they were run under."""

    config: ExperimentConfig
    tables: Tuple[Table, ...]
    fits: Tuple[Tuple[str, SlopeFit], ...] = ()

    def table(self, name: str = "main") -> Table:
        for t in self.tables:
            if t.name == name:
                return t
        raise KeyError(name)

    def csv_bytes(self, name: str = "main") -> bytes:
        t = self.table(name)
        fp = self.config.fingerprint()
        lines = [f"# schema={CSV_SCHEMA}", f"# experiment={fp}"]
        lines += [f"# {fld}={value}" for fld, value in self.config._content()]
        lines.append(",".join(("experiment_id",) + t.columns))
        for row in t.rows:
            lines.append(",".join([fp] + [_fmt(v) for v in row]))
        return ("\n".join(lines) + "\n").encode()

    def write(self, out: str) -> List[str]:
        """Write all tables atomically; extra tables get .<name>.csv suffixes."""
        written = []
        base = Path(out)
        for t in self.tables:
            path = base if t.name == "main" else base.with_suffix(f".{t.name}.csv")
            path.parent.mkdir(parents=True, exist_ok=True)
            payload = self.csv_bytes(t.name)
            fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(payload)
                os.replace(tmp, path)
            except BaseException:
                if os.path.exists(tmp):
                    os.unlink(tmp)
                raise
            written.append(str(path))
        return written


# ---------------------------------------------------------------------------
# Worker fan-out.  Jobs take the run's shared inputs (phase tables, systems)
# as their first argument.  A worker process receives them once, through the
# pool initializer, so only the small job items are pickled per task and the
# fan-out works under every multiprocessing start method.

_WORKER_SHARED: Dict[str, object] = {}


def _init_worker(shared: Dict[str, object]) -> None:
    _WORKER_SHARED.update(shared)


def _worker_call(fn, item):
    return fn(_WORKER_SHARED, item)


def _pool_map(fn, items, workers: int, shared: Dict[str, object]):
    """[fn(shared, item) for item in items], in worker processes when
    workers > 1; results come back in item order."""
    if workers <= 1 or len(items) <= 1:
        return [fn(shared, item) for item in items]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(
        max_workers=min(workers, len(items)),
        initializer=_init_worker,
        initargs=(shared,),
    ) as pool:
        return list(pool.map(functools.partial(_worker_call, fn), items))


def _schedules(cfg: ExperimentConfig) -> Tuple[List[int], Dict[float, List[int]]]:
    """(union, per_rho): every N of the lacunary schedules, and each one."""
    per_rho = {r: lacunary_schedule(r, cfg.nmin, cfg.nmax) for r in cfg.rho}
    union = sorted(set().union(*per_rho.values()))
    if not union:
        rhos = ",".join(str(r) for r in cfg.rho)
        raise ValueError(f"no N of the rho={rhos} schedule lies in [{cfg.nmin}, {cfg.nmax}]")
    return union, per_rho


def _system_inputs(cfg: ExperimentConfig) -> Tuple[Dict[str, object], Dict[float, List[int]]]:
    """(shared, per_rho) for average and chain, built in one order (p, system,
    schedules, points, phase table), so bad input fails first the same way."""
    expr = hardy.parse_expression(cfg.p, epsilon_hint=cfg.eps)
    system = dynamics.make_system(
        cfg.system, alpha=cfg.alpha, observable=cfg.observable(),
        q=cfg.q, alphabet=cfg.alphabet, window=cfg.window,
    )
    union, per_rho = _schedules(cfg)
    points = system.sample_points(cfg.points)
    # the phase table depends on p alone, so one table serves every (a, seed)
    phases = hardy.phase_fractions(expr, union[-1], cfg.bits)
    return dict(union=union, system=system, points=points, phases=phases), per_rho


# -- expsum ------------------------------------------------------------------

def _run_expsum(cfg: ExperimentConfig) -> Report:
    expr = hardy.parse_expression(cfg.p, epsilon_hint=cfg.eps)
    if cfg.n is not None:
        union, per_rho = [cfg.n], {cfg.rho[0]: [cfg.n]}
    else:
        union, per_rho = _schedules(cfg)
    fr = hardy.phase_fractions(expr, union[-1], cfg.bits)
    z = hardy.unit_phases(fr)
    means = hardy.prefix_means(z, union)
    by_n = dict(zip(union, means))

    rows = []
    fits = []
    for r, sched in per_rho.items():
        series = []
        for N in sched:
            v = by_n[N]
            rows.append((r, N, v.real, v.imag, abs(v)))
            series.append((N, abs(v)))
        if len(series) >= 3:
            fits.append((f"rho={r}", slope_fit(series)))
    table = Table("main", ("rho", "N", "re", "im", "abs"), tuple(rows))
    return Report(cfg, (table,), tuple(fits))


# -- average -----------------------------------------------------------------

def _average_job(ctx: Dict[str, object], item: Tuple[float, int]):
    a, seed = item
    union: List[int] = ctx["union"]
    positions = selectors.select_first(a, seed, union[-1])
    return dynamics.weighted_average_from_positions(
        ctx["system"], ctx["phases"], positions, union, sample_points=ctx["points"],
    )


def _run_average(cfg: ExperimentConfig) -> Report:
    shared, per_rho = _system_inputs(cfg)
    a_list = cfg.a_values if cfg.a_values else (cfg.a,)
    seeds = cfg.seed_list()
    items = [(a, seed) for a in a_list for seed in seeds]
    results = _pool_map(_average_job, items, cfg.resolve_workers(), shared)

    union_index = {N: i for i, N in enumerate(shared["union"])}
    rows = []
    for (a, seed), values in zip(items, results):
        for r in cfg.rho:
            for N in per_rho[r]:
                col = union_index[N]
                for j in range(len(shared["points"])):
                    v = values[j, col]
                    rows.append((a, r, seed, j, N, v.real, v.imag, abs(v)))
    table = Table(
        "main",
        ("a", "rho", "seed", "sample_index", "N", "re", "im", "abs"),
        tuple(rows),
    )
    return Report(cfg, (table,))


# -- chain -------------------------------------------------------------------

def _chain_job(ctx: Dict[str, object], seeds: List[int]):
    union: List[int] = ctx["union"]
    realizations = (selectors.generate_realization(
        selectors.SelectorParams(a=ctx["a"], seed=seed, n_max=union[-1])) for seed in seeds)
    return dynamics.chain_diagnostics(
        ctx["system"], ctx["phases"], realizations, union, sample_points=ctx["points"],
    )


def _run_chain(cfg: ExperimentConfig) -> Report:
    shared, per_rho = _system_inputs(cfg)
    shared["a"] = cfg.a
    seeds = cfg.seed_list()
    k = min(cfg.resolve_workers(), len(seeds))  # one job per contiguous seed block
    blocks = [seeds[i * len(seeds) // k : (i + 1) * len(seeds) // k] for i in range(k)]
    results = [d for block in _pool_map(_chain_job, blocks, k, shared) for d in block]

    rows = []
    for seed, diags in zip(seeds, results):
        for d in diags:
            rhos = [r for r in cfg.rho if d.N in per_rho[r]]
            for r in rhos:
                for j in range(d.diffs.shape[0]):
                    rows.append(
                        (r, seed, j, d.N, d.s_N, d.w_N) + tuple(d.diffs[j].tolist())
                    )
    table = Table(
        "main",
        ("rho", "seed", "sample_index", "N", "s_N", "w_N",
         "d1", "d2", "d3", "d4", "d5", "d6"),
        tuple(rows),
    )
    return Report(cfg, (table,))


# -- correlation -------------------------------------------------------------

def _correlation_job(ctx: Dict[str, object], seed: int):
    """One seed's detail rows, growth ratios, partial sums and profile sums."""
    union: List[int] = ctx["union"]
    wp: correlation.WeightParams = ctx["wparams"]
    params = selectors.SelectorParams(a=wp.a, seed=seed, n_max=ctx["n_need"])
    # no name holds the realization, so it is freed once c exists
    w = correlation.weight_series(selectors.generate_realization(params), ctx["phases"], wp)

    ratios = correlation.c_sum_check(w, union)
    sums, partials = correlation.summability_statistic(w, union)
    detail = [
        (seed, N, m, v.real, v.imag, abs(v))
        for N, row in zip(union, sums)
        for m, v in enumerate(row, 1)
    ]
    iterms_n = ctx["iterms_n"]
    profile = None
    if iterms_n is not None:
        work: list = []  # the FFT arrays, allocated once for all the lags
        profile = []  # (i1_sq, i2_sq, i3_sq) per lag; no (R+1)-long inner is kept
        for m in range(1, correlation.lag_count(iterms_n, wp.b) + 1):
            q = correlation.i_terms_profile(w, iterms_n, m, work)
            profile.append((q.i1_sq, q.i2_sq, q.i3_sq))
    return detail, ratios, partials, profile


def _run_correlation(cfg: ExperimentConfig) -> Report:
    expr = hardy.parse_expression(cfg.p, epsilon_hint=cfg.eps)
    union, _ = _schedules(cfg)
    wp = correlation.WeightParams(cfg.a, cfg.delta, cfg.b, cfg.c)
    iterms_n = cfg.iterms_n
    if iterms_n is None:
        iterms_n = max(
            (N for N in union
             if N <= (1 << 16) and correlation.has_profile(N, wp.c_exponent)),
            default=None,
        )
    elif iterms_n not in union:
        # the profile is reported only in the summary row of its N
        raise ValueError(f"iterms_n={iterms_n} is not an N of the schedule")
    elif not correlation.has_profile(iterms_n, wp.c_exponent):
        raise ValueError(
            f"iterms_n={iterms_n} gives R = floor(N^c) < 2 at c={wp.c_exponent}"
        )
    n_need = union[-1] + correlation.lag_count(union[-1], wp.b) + 1
    if iterms_n is not None:
        R = correlation.lag_count(iterms_n, wp.c_exponent)
        n_need = max(n_need, iterms_n + correlation.lag_count(iterms_n, wp.b) + R + 1)
    seeds = cfg.seed_list()
    # the phase table depends on p alone, so one table, long enough for the
    # largest S_{n_need} among the seeds, serves every seed
    s_max = int(selectors.count_selected(cfg.a, seeds, n_need).max())
    phases = hardy.phase_fractions(expr, s_max, cfg.bits)

    shared = dict(union=union, phases=phases, wparams=wp,
                  n_need=n_need, iterms_n=iterms_n)
    results = _pool_map(_correlation_job, seeds, cfg.resolve_workers(), shared)

    detail_rows = []
    summary_rows = []
    for seed, (detail, ratios, partials, profiles) in zip(seeds, results):
        detail_rows += detail
        for i, N in enumerate(union):
            if N == iterms_n:
                worst = max(i1 + i2 + i3 for i1, i2, i3 in profiles)
                i1, i2, i3 = (max(terms) for terms in zip(*profiles))
                env = correlation.profile_envelope(N, cfg.a)
            else:
                worst = i1 = i2 = i3 = env = None
            summary_rows.append(
                (seed, N, ratios[i], partials[i], i1, i2, i3, env, worst)
            )
    tables = (
        Table(
            "main",
            ("seed", "N", "m", "corr_re", "corr_im", "corr_abs"),
            tuple(detail_rows),
        ),
        Table(
            "summary",
            ("seed", "N", "csum_ratio", "summability_partial",
             "i1_sq", "i2_sq", "i3_sq", "envelope", "max_i_sum"),
            tuple(summary_rows),
        ),
    )
    return Report(cfg, tables)


# -- deviation ---------------------------------------------------------------

def _run_deviation(cfg: ExperimentConfig) -> Report:
    N = cfg.n if cfg.n is not None else cfg.nmax
    params = selectors.SelectorParams(a=cfg.a, seed=cfg.seed, n_max=N)
    rep = selectors.deviation_statistics(
        params, N, cfg.trials, chernoff_c=cfg.chernoff_c
    )
    rows = [
        (cfg.a, N, cfg.trials, float(A), float(f), float(e), cfg.chernoff_c)
        for A, f, e in zip(rep.thresholds, rep.frequencies, rep.envelopes)
    ]
    table = Table(
        "main",
        ("a", "N", "trials", "A", "frequency", "envelope", "chernoff_c"),
        tuple(rows),
    )
    return Report(cfg, (table,))


# -- generate ----------------------------------------------------------------

def _run_generate(cfg: ExperimentConfig) -> Report:
    n_max = cfg.n if cfg.n is not None else cfg.nmax
    params = selectors.SelectorParams(a=cfg.a, seed=cfg.seed, n_max=n_max)
    r = selectors.generate_realization(params)
    rows = [(n + 1, int(r.bits[n])) for n in range(n_max)]
    table = Table("main", ("index", "bit"), tuple(rows))
    return Report(cfg, (table,))


# -- vdc selftest ------------------------------------------------------------

def _run_vdc_selftest(cfg: ExperimentConfig) -> Report:
    rng = np.random.default_rng(cfg.seed)
    rows = []
    for i in range(cfg.instances):
        N = int(rng.integers(1, 65))
        dim = int(rng.integers(1, 9))
        M = int(rng.integers(1, N + 1))
        V = rng.normal(size=(N, dim)) + 1j * rng.normal(size=(N, dim))
        lhs, rhs = correlation.vdc_inequality_check(V, M)
        rows.append((i, N, dim, M, lhs, rhs, int(lhs <= rhs * (1 + 1e-9))))
    table = Table(
        "main",
        ("instance", "N", "dim", "M", "lhs", "rhs", "ok"),
        tuple(rows),
    )
    return Report(cfg, (table,))


@dataclass(frozen=True)
class Pipeline:
    """A pipeline's runner, its one-line summary, and the config keys it
    reads besides out and workers: the keys its subcommand takes."""

    run: typing.Callable[[ExperimentConfig], Report]
    summary: str
    keys: Tuple[str, ...]


PIPELINES = {
    "generate": Pipeline(_run_generate, "dump one realization as (index, bit) CSV",
                         ("a", "seed", "n")),
    "expsum": Pipeline(_run_expsum, "normalized exponential sums (1/N) sum e(p(n))",
                       ("p", "eps", "bits", "n", "rho", "nmin", "nmax")),
    "average": Pipeline(_run_average, "weighted random averages on a system",
                        ("a", "a_values", "p", "eps", "bits", "rho", "nmin", "nmax", "seeds", "seed_base",
                         "system", "alpha", "q", "alphabet", "window", "f", "points")),
    "chain": Pipeline(_run_chain, "six-stage comparison-chain diagnostics",
                      ("a", "p", "eps", "bits", "rho", "nmin", "nmax", "seeds", "seed_base",
                       "system", "alpha", "q", "alphabet", "window", "f", "points")),
    "correlation": Pipeline(_run_correlation, "weight-sequence correlation criteria",
                            ("a", "delta", "b", "c", "iterms_n", "p", "eps", "bits",
                             "rho", "nmin", "nmax", "seeds", "seed_base")),
    "deviation": Pipeline(_run_deviation, "|S_N - W_N| tail frequencies vs Chernoff",
                          ("a", "seed", "n", "trials", "chernoff_c")),
    "vdc-selftest": Pipeline(_run_vdc_selftest, "van der Corput inequality on random instances",
                             ("instances", "seed")),
}


def check_key(pipeline: str, key: str) -> None:
    """Reject a config key that the pipeline does not read, naming those that do."""
    if key not in PIPELINES[pipeline].keys and key not in _OUTPUT_ONLY_FIELDS:
        readers = ", ".join(name for name, p in PIPELINES.items() if key in p.keys)
        raise ValueError(f"config key {key!r} is not read by {pipeline}; "
                         f"pipelines that read it: {readers or 'none'}")


def run_experiment(cfg: ExperimentConfig) -> Report:
    """Execute the configured pipeline; write CSV atomically when cfg.out is
    set; identical configs produce byte-identical CSV at any worker count."""
    report = PIPELINES[cfg.pipeline].run(cfg)
    if cfg.out:
        report.write(cfg.out)
    return report
