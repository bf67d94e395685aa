import dataclasses
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab.harness import (
    ExperimentConfig,
    CSV_SCHEMA,
    coerce_config_values,
    Report,
    Table,
    lacunary_schedule,
    parse_config_file,
    run_experiment,
    slope_fit,
)


# ---------------------------------------------------------------------------
# Lacunary schedules.

def test_schedule_rho_two():
    assert lacunary_schedule(2.0, 1, 10) == [1, 2, 4, 8]


def test_schedule_rho_close_to_one():
    # floor(1.1^k) stays at 1 through k=7, hits 2 at k=8, 3 at k=12
    assert lacunary_schedule(1.1, 1, 3) == [1, 2, 3]


def test_schedule_empty_when_range_misses():
    assert lacunary_schedule(10.0, 11, 99) == []


def test_schedule_rejects_bad_rho():
    with pytest.raises(ValueError):
        lacunary_schedule(1.0, 1, 10)
    with pytest.raises(ValueError):
        lacunary_schedule(0.5, 1, 10)
    for rho in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            lacunary_schedule(rho, 1, 10)


def test_schedule_past_the_float_range_names_n_max():
    with pytest.raises(ValueError, match="n_max="):
        lacunary_schedule(1.5, 1, 10**320)  # rho^k overflows float64 before it exceeds n_max


def stepwise_schedule(rho, nmin, nmax):
    """The schedule by direct power iteration, one k at a time."""
    out = set()
    k = 0
    while True:
        v = math.floor(rho ** k)
        if v > nmax:
            break
        if v >= nmin:
            out.add(v)
        k += 1
    return sorted(out)


@given(
    st.floats(1.0001, 1.01) | st.floats(1.01, 1e3) | st.sampled_from([2.0, 10.0, 1e300]),
    st.integers(1, 10**4),
    st.integers(0, 10**5),
)
@settings(max_examples=150, deadline=None)
def test_schedule_sorted_within_bounds(rho, nmin, width):
    nmax = nmin + width
    sched = lacunary_schedule(rho, nmin, nmax)
    assert sched == sorted(set(sched))
    assert all(nmin <= v <= nmax for v in sched)
    assert sched == stepwise_schedule(rho, nmin, nmax)


def test_schedule_with_rho_next_to_one_is_fast():
    # stepping k one at a time would take about 4e12 steps to reach 64
    t0 = time.perf_counter()
    assert lacunary_schedule(1 + 1e-12, 1, 64) == list(range(1, 65))
    assert time.perf_counter() - t0 < 1.0


# ---------------------------------------------------------------------------
# Slope fits.

def test_slope_fit_exact_power_law():
    series = [(N, 3.7 * N ** -0.5) for N in (10, 100, 1000, 10000)]
    fit = slope_fit(series)
    assert abs(fit.slope + 0.5) < 1e-12
    assert fit.half_width < 1e-12
    assert not fit.clamped


def test_slope_fit_constant():
    fit = slope_fit([(10, 2.0), (100, 2.0), (1000, 2.0)])
    assert abs(fit.slope) < 1e-14


def test_slope_fit_rescale_invariance():
    series = [(N, N ** -0.3) for N in (16, 64, 256, 1024)]
    f1 = slope_fit(series)
    f2 = slope_fit([(N, 100.0 * v) for N, v in series])
    assert abs(f1.slope - f2.slope) < 1e-12
    assert abs((f2.intercept - f1.intercept) - math.log(100.0)) < 1e-9


def test_slope_fit_clamps_zeros():
    fit = slope_fit([(10, 1.0), (100, 0.0), (1000, 1e-3)])
    assert fit.clamped


def test_slope_fit_degenerate():
    with pytest.raises(ValueError):
        slope_fit([(10, 1.0), (10, 2.0), (10, 3.0)])
    with pytest.raises(ValueError):
        slope_fit([(10, 1.0), (20, 1.0)])


# ---------------------------------------------------------------------------
# Config plumbing.

def test_config_file_roundtrip(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(
        "# comment line\n"
        "a=0.3\n"
        "rho=2,1.5\n"
        "seeds=4\n"
        "b=auto\n"
        "p=x^(3/2)  # inline comment\n"
    )
    values = coerce_config_values(parse_config_file(str(cfg_file)))
    assert values["a"] == 0.3
    assert values["rho"] == (2.0, 1.5)
    assert values["seeds"] == 4
    assert values["b"] is None
    assert values["p"] == "x^(3/2)"


def test_config_rejects_unknown_key(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("bogus=1\n")
    with pytest.raises(ValueError):
        coerce_config_values(parse_config_file(str(cfg_file)))


def test_config_none_only_for_optional_keys():
    values = coerce_config_values({"b": "auto", "bits": "none", "n": "", "out": "None"})
    assert values == {"b": None, "bits": None, "n": None, "out": None}
    for key, value in (("seeds", "none"), ("a", ""), ("nmin", "auto"), ("p", "none")):
        with pytest.raises(ValueError, match=repr(key)):
            coerce_config_values({key: value})


@pytest.mark.parametrize("key,text", [
    ("seeds", "abc"), ("a", "0.3x"), ("rho", "2,x"), ("a_values", "0.2,"), ("bits", "1.5"),
])
def test_config_text_that_does_not_parse_names_key_and_text(key, text):
    with pytest.raises(ValueError, match=f"{key!r}.*{text!r}"):
        coerce_config_values({key: text})


def test_worker_env_is_checked_when_the_config_is_built(monkeypatch):
    # a non-integer value is covered end to end in test_cli
    monkeypatch.setenv("ERGOLAB_WORKERS", "0")
    with pytest.raises(ValueError, match="^ERGOLAB_WORKERS must be >= 1, got 0$"):
        ExperimentConfig(pipeline="expsum")
    assert ExperimentConfig(pipeline="expsum", workers=2).resolve_workers() == 2
    monkeypatch.setenv("ERGOLAB_WORKERS", "3")
    assert ExperimentConfig(pipeline="expsum").resolve_workers() == 3
    monkeypatch.delenv("ERGOLAB_WORKERS")
    assert ExperimentConfig(pipeline="expsum").resolve_workers() == 1


# a second valid value of every field that can change report content
CONTENT_CHANGES = dict(
    pipeline="chain", a=0.25, a_values=(0.2,), eps=0.5, p="x^(5/2)", rho=(3.0,),
    delta=0.2, b=0.1, c=0.5, seeds=3, seed_base=1, nmin=16, nmax=2048, bits=100,
    system="cyclic", alpha="invphi", q=7, alphabet=3, window=4, f="roots", points=2,
    trials=10, chernoff_c=0.5, iterms_n=64, n=65, seed=1, instances=10,
)


def test_every_content_field_is_in_the_header_once_and_in_the_fingerprint():
    base = ExperimentConfig(pipeline="average")
    text = Report(base, (Table("main", ("x",), ()),)).csv_bytes().decode()
    keys = [line[2:].split("=", 1)[0] for line in text.splitlines() if line.startswith("# ")]
    content = [f.name for f in dataclasses.fields(ExperimentConfig) if f.name not in ("out", "workers")]
    assert sorted(keys) == sorted(content + ["schema", "experiment"])
    assert set(CONTENT_CHANGES) == set(content)
    for fld, value in CONTENT_CHANGES.items():
        changed = dataclasses.replace(base, **{fld: value})
        assert changed.fingerprint() != base.fingerprint(), fld


def test_fingerprint_ignores_out_and_workers():
    base = ExperimentConfig(pipeline="expsum", n=64)
    assert base.fingerprint() == ExperimentConfig(pipeline="expsum", n=64, out="x.csv", workers=3).fingerprint()
    assert base.fingerprint() != ExperimentConfig(pipeline="expsum", n=65).fingerprint()


def test_config_accepts_exactly_the_runners_pipelines():
    with pytest.raises(ValueError, match="^unknown pipeline 'nope'$"):
        ExperimentConfig(pipeline="nope")
    for name in ("expsum", "average", "chain", "correlation", "deviation", "generate", "vdc-selftest"):
        assert ExperimentConfig(pipeline=name).pipeline == name


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(pipeline="nope")
    with pytest.raises(ValueError):
        ExperimentConfig(rho=(0.9,))
    with pytest.raises(ValueError):
        ExperimentConfig(pipeline="average", a=0.7)
    with pytest.raises(ValueError):
        ExperimentConfig(pipeline="average", a_values=(0.3, 0.5))
    with pytest.raises(ValueError):
        ExperimentConfig(pipeline="average", points=0)
    for pipeline in ("average", "chain", "correlation"):
        with pytest.raises(ValueError, match="seeds"):
            ExperimentConfig(pipeline=pipeline, seeds=0)
    with pytest.raises(ValueError, match="seeds"):
        ExperimentConfig(pipeline="expsum", seeds=-1)
    with pytest.raises(ValueError, match="instances"):
        ExperimentConfig(pipeline="vdc-selftest", instances=0)
    for c in (0.0, -1000.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="chernoff_c"):
            ExperimentConfig(pipeline="deviation", chernoff_c=c)
    # every seed of seed_list() is a 64-bit unsigned integer
    for base, seeds in ((-1, 1), (1 << 64, 1), ((1 << 64) - 2, 3)):
        with pytest.raises(ValueError, match="seed_base"):
            ExperimentConfig(pipeline="average", seed_base=base, seeds=seeds)
    assert ExperimentConfig(seed_base=(1 << 64) - 3, seeds=3).seed_list()[-1] == (1 << 64) - 1
    for workers in (0, -3):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            ExperimentConfig(workers=workers)
    # a sweep over a is run by average alone; elsewhere it would be ignored
    for pipeline in ("chain", "correlation", "deviation", "expsum", "generate", "vdc-selftest"):
        with pytest.raises(ValueError, match="a_values.*average"):
            ExperimentConfig(pipeline=pipeline, a_values=(0.2, 0.3))
    # a repeated value would repeat rows in average and chain, not in expsum
    for pipeline in ("expsum", "average", "chain", "correlation"):
        for rho in ((2.0, 2.0), (2.0, 1.5, 2)):
            with pytest.raises(ValueError, match="^rho must not repeat a value"):
                ExperimentConfig(pipeline=pipeline, rho=rho)
    with pytest.raises(ValueError, match="^a_values must not repeat a value"):
        ExperimentConfig(pipeline="average", a_values=(0.3, 0.3))


# ---------------------------------------------------------------------------
# Reports.

def test_expsum_report_deterministic_rerun():
    cfg = ExperimentConfig(pipeline="expsum", p="x^(3/2)", rho=(2.0,), nmin=64, nmax=512)
    r1 = run_experiment(cfg)
    r2 = run_experiment(cfg)
    assert r1.csv_bytes() == r2.csv_bytes()
    assert r1.csv_bytes().startswith(f"# schema={CSV_SCHEMA}\n".encode())


def test_expsum_single_row_per_schedule_point():
    # deterministic pipeline: row count equals the schedule length
    cfg = ExperimentConfig(pipeline="expsum", p="x^(3/2)", rho=(2.0,), nmin=16, nmax=256, seeds=0)
    rep = run_experiment(cfg)
    assert len(rep.table().rows) == len(lacunary_schedule(2.0, 16, 256))


def test_average_row_count_formula():
    # rows = |a values| * |seeds| * |schedule| at one sample point, one rho
    cfg = ExperimentConfig(
        pipeline="average", system="cyclic", q=5, f="roots", rho=(2.0,),
        nmin=16, nmax=128, seeds=2, points=1, a_values=(0.1, 0.3, 0.45),
    )
    rep = run_experiment(cfg)
    sched = lacunary_schedule(2.0, 16, 128)
    assert len(rep.table().rows) == 3 * 2 * len(sched)


AVERAGE_SMALL = dict(
    pipeline="average", system="rotation", alpha="sqrt2m1", f="e",
    rho=(2.0,), nmin=32, nmax=256, seeds=3, points=2,
)

START_METHOD_SCRIPT = """
import multiprocessing
import sys

from ergolab.harness import ExperimentConfig, run_experiment

if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1])
    run_experiment(ExperimentConfig(**{kwargs!r}, workers=2, out=sys.argv[2]))
"""


def test_average_bytes_stable_across_workers():
    seq = run_experiment(ExperimentConfig(**AVERAGE_SMALL, workers=1))
    par = run_experiment(ExperimentConfig(**AVERAGE_SMALL, workers=2))
    assert seq.csv_bytes() == par.csv_bytes()


def bytes_under_start_method(tmp_path, method, kwargs) -> bytes:
    """CSV bytes of a two-worker run in a fresh interpreter using method."""
    script = tmp_path / "run.py"
    script.write_text(START_METHOD_SCRIPT.format(kwargs=kwargs))
    out = tmp_path / "run.csv"
    proc = subprocess.run(
        [sys.executable, str(script), method, str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return out.read_bytes()


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_average_bytes_stable_under_start_method(tmp_path, method):
    # workers that do not fork start from a fresh import of the package, so
    # they see the run's shared inputs only if the pool hands them over
    seq = run_experiment(ExperimentConfig(**AVERAGE_SMALL, workers=1))
    assert bytes_under_start_method(tmp_path, method, AVERAGE_SMALL) == seq.csv_bytes()


IMPORT_CONTRACT_SCRIPT = """
import sys

import ergolab
from ergolab import hardy
from ergolab.harness import ExperimentConfig, run_experiment

heavy = ("mpmath", "concurrent.futures.process")
run_experiment(ExperimentConfig(pipeline="deviation", a=0.3, seed=2, n=2000, trials=4))
run_experiment(ExperimentConfig(pipeline="generate", a=0.3, seed=11, n=300, out=sys.argv[1]))
print(*[m for m in heavy if m in sys.modules], sep=",")
hardy.parse_expression("x^(3/2)")
# tables that end on a step of the precision rule, and one past 2^106,
# where the table's pass bounds no |p| and the exact roots bound it
hardy.phase_fractions(hardy.parse_expression("x^(1/2)"), 961)
hardy.phase_fractions(hardy.parse_expression("x^(3/2)"), 1)
hardy.phase_fractions(hardy.parse_expression("x^(1/2)"), 2**106 + 8, start=2**106 + 1)
for kwargs in {runs!r}:
    for workers in (1, 2):
        run_experiment(ExperimentConfig(**kwargs, workers=workers))
run_experiment(ExperimentConfig(**{kwargs!r}, workers=2, out=sys.argv[2]))
print(*[m for m in heavy if m in sys.modules], sep=",")
"""


def test_runs_load_only_what_they_call(tmp_path):
    # the test process holds mpmath already, so a fresh interpreter checks
    # that deviation and generate load neither mpmath nor a process pool;
    # that x^(3/2) runs of expsum, chain and average at one and two workers,
    # and tables of x^q whose |p| the pass cannot bound, never load
    # mpmath; and that a two-worker run gives the bytes of one worker
    dump, out = tmp_path / "dump.csv", tmp_path / "average.csv"
    runs = [dict(pipeline="expsum", rho=(2.0,), nmin=16, nmax=64), CHAIN_SMALL, AVERAGE_SMALL]
    assert all(kwargs.get("p", "x^(3/2)") == "x^(3/2)" for kwargs in runs)
    script = IMPORT_CONTRACT_SCRIPT.format(runs=runs, kwargs=AVERAGE_SMALL)
    proc = subprocess.run(
        [sys.executable, "-c", script, str(dump), str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["", "concurrent.futures.process"]
    assert "# seed=11" in dump.read_text().splitlines()
    assert out.read_bytes() == run_experiment(ExperimentConfig(**AVERAGE_SMALL, workers=1)).csv_bytes()


CHAIN_SMALL = dict(
    pipeline="chain", system="rotation", alpha="sqrt2m1", f="(1+e(x))/2",
    rho=(2.0,), nmin=32, nmax=256, seeds=3, points=2,
)


def test_chain_bytes_stable_across_workers_and_spawn(tmp_path):
    # one job per contiguous seed block: 3 seeds make blocks of 3, of 1 and 2,
    # and of 1, 1 and 1; every split, and spawned workers, give the same bytes
    seq = run_experiment(ExperimentConfig(**CHAIN_SMALL, workers=1)).csv_bytes()
    for workers in (2, 3):
        assert run_experiment(ExperimentConfig(**CHAIN_SMALL, workers=workers)).csv_bytes() == seq
    assert bytes_under_start_method(tmp_path, "spawn", CHAIN_SMALL) == seq


def test_report_write_atomic(tmp_path):
    out = tmp_path / "nested" / "report.csv"
    cfg = ExperimentConfig(pipeline="expsum", rho=(2.0,), nmin=16, nmax=64, out=str(out))
    run_experiment(cfg)
    data = out.read_bytes()
    assert data.startswith(b"# schema=")
    assert not [p for p in out.parent.iterdir() if p.suffix == ".tmp"]


def test_correlation_report_has_summary_table(tmp_path):
    out = tmp_path / "corr.csv"
    cfg = ExperimentConfig(
        pipeline="correlation", rho=(2.0,), nmin=64, nmax=512, seeds=2,
        b=0.35, c=0.8, out=str(out),
    )
    rep = run_experiment(cfg)
    assert rep.table("summary").columns[:2] == ("seed", "N")
    assert b"\nexperiment_id,seed,N," in rep.csv_bytes("summary")
    assert out.exists()
    assert (tmp_path / "corr.summary.csv").exists()


CORRELATION_SMALL = dict(
    pipeline="correlation", rho=(2.0,), nmin=128, nmax=1024, seeds=2, b=0.35, c=0.8,
)


def test_correlation_profile_row_at_iterms_n():
    # the profile lands in the summary row of its N, and only there
    rows = run_experiment(
        ExperimentConfig(**CORRELATION_SMALL, iterms_n=512)
    ).table("summary").rows
    assert {row[1] for row in rows if row[-1] is not None} == {512}


def test_correlation_profile_skips_n_without_two_lags():
    # floor(N^0.8) < 2 at N = 1 and 2: no N is left for the profile
    cfg = ExperimentConfig(**dict(CORRELATION_SMALL, nmin=1, nmax=2, seeds=1))
    rows = run_experiment(cfg).table("summary").rows
    assert [row[1] for row in rows] == [1, 2]
    assert all(row[-1] is None for row in rows)


def test_correlation_bytes_stable_across_workers_and_spawn(tmp_path):
    # one job per seed; the summary rows carry each seed's profile maxima
    small = dict(CORRELATION_SMALL, seeds=3)
    seq = run_experiment(ExperimentConfig(**small, workers=1))
    tables = (seq.csv_bytes(), seq.csv_bytes("summary"))
    assert [row[1] for row in seq.table("summary").rows if row[-1] is not None] == [1024] * 3
    for workers in (2, 3):
        par = run_experiment(ExperimentConfig(**small, workers=workers))
        assert (par.csv_bytes(), par.csv_bytes("summary")) == tables
    assert bytes_under_start_method(tmp_path, "spawn", small) == tables[0]
    assert (tmp_path / "run.summary.csv").read_bytes() == tables[1]


def test_correlation_job_keeps_three_floats_per_lag(monkeypatch):
    # a job returns each lag of its profile as three sums; no array as long
    # as R = floor(N^c) travels back to the parent
    from ergolab import correlation, harness

    results = []
    job = harness._correlation_job

    def recording_job(ctx, seed):
        results.append(job(ctx, seed))
        return results[-1]

    monkeypatch.setattr(harness, "_correlation_job", recording_job)
    run_experiment(ExperimentConfig(**CORRELATION_SMALL, iterms_n=512, workers=1))
    R = correlation.lag_count(512, CORRELATION_SMALL["c"])

    def arrays(obj):
        if isinstance(obj, np.ndarray):
            yield obj
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                yield from arrays(item)
        else:
            assert isinstance(obj, (int, float, complex)), type(obj)

    assert len(results) == CORRELATION_SMALL["seeds"]
    for result in results:
        profile = result[-1]
        assert len(profile) == correlation.lag_count(512, CORRELATION_SMALL["b"])
        assert all(type(lag) is tuple and len(lag) == 3 for lag in profile)
        assert all(type(v) is float for lag in profile for v in lag)
        assert all(x.size < R for x in arrays(result))


def test_correlation_job_frees_realization_before_the_sums(monkeypatch):
    # the weight series keeps no realization and the job keeps no name for
    # it, so its arrays are gone before the correlation sums and the profile
    import dataclasses
    import weakref

    from ergolab import correlation, selectors

    assert "realization" not in {f.name for f in dataclasses.fields(correlation.WeightSeries)}
    refs, checked = [], []
    generate = selectors.generate_realization

    def recording_generate(params):
        r = generate(params)
        refs.append(weakref.ref(r))
        return r

    def freed_first(fn):
        def wrapper(*args, **kwargs):
            assert refs and refs[-1]() is None
            checked.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(selectors, "generate_realization", recording_generate)
    for name in ("summability_statistic", "i_terms_profile"):
        monkeypatch.setattr(correlation, name, freed_first(getattr(correlation, name)))
    run_experiment(ExperimentConfig(**CORRELATION_SMALL, iterms_n=512, workers=1))
    assert len(refs) == CORRELATION_SMALL["seeds"]
    assert {"summability_statistic", "i_terms_profile"} <= set(checked)


def _forbid_work(monkeypatch):
    from ergolab import hardy, selectors

    def forbidden(*args, **kwargs):
        raise AssertionError("work started before the check")

    monkeypatch.setattr(hardy, "phase_fractions", forbidden)
    monkeypatch.setattr(selectors, "count_selected", forbidden)
    monkeypatch.setattr(selectors, "generate_realization", forbidden)


def test_correlation_rejects_iterms_n_off_schedule(monkeypatch):
    # an N outside the schedule has no summary row to hold its profile;
    # the run stops before any selection scan or phase table
    _forbid_work(monkeypatch)
    with pytest.raises(ValueError, match="iterms_n=500"):
        run_experiment(ExperimentConfig(**CORRELATION_SMALL, iterms_n=500))


def test_correlation_rejects_iterms_n_without_two_lags(monkeypatch):
    # floor(2^0.8) = 1 lag leaves no third term; rejected before any work
    _forbid_work(monkeypatch)
    with pytest.raises(ValueError, match="iterms_n=2 gives R"):
        run_experiment(ExperimentConfig(**dict(CORRELATION_SMALL, nmin=1, iterms_n=2)))


def test_generate_roundtrip(tmp_path):
    out = tmp_path / "dump.csv"
    run_experiment(ExperimentConfig(pipeline="generate", a=0.4, seed=9, n=200, out=str(out)))
    lines = out.read_text().splitlines()
    assert "# a=0.4" in lines and "# seed=9" in lines
    rows = [line.split(",") for line in lines[lines.index("experiment_id,index,bit") + 1 :]]
    assert [int(index) for _, index, _ in rows] == list(range(1, 201))
    from ergolab.selectors import generate_realization, SelectorParams

    fresh = generate_realization(SelectorParams(a=0.4, seed=9, n_max=200))
    assert np.array_equal(np.array([int(bit) for _, _, bit in rows], dtype=bool), fresh.bits)


def test_vdc_selftest_all_pass():
    cfg = ExperimentConfig(pipeline="vdc-selftest", instances=100, seed=4)
    rep = run_experiment(cfg)
    rows = rep.table().rows
    assert len(rows) == 100
    assert all(row[-1] == 1 for row in rows)


def test_deviation_pipeline_thresholds():
    cfg = ExperimentConfig(pipeline="deviation", a=0.3, seed=2, n=2000, trials=100)
    rep = run_experiment(cfg)
    rows = rep.table().rows
    assert rows[0][3] == 0.0 and rows[0][4] == 1.0  # A = 0 has frequency 1


def test_deviation_window_follows_n():
    # N beyond the default nmax: the selection window is sized from N itself
    cfg = ExperimentConfig(pipeline="deviation", a=0.3, seed=2, n=2_000_000, trials=1)
    rows = run_experiment(cfg).table().rows
    assert all(row[1] == 2_000_000 for row in rows)
    assert rows[0][3] == 0.0 and rows[0][4] == 1.0
