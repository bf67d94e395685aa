"""Tests of the benchmark's own machinery (not part of the library suite).

  python3 -m pytest benchmarks/test_benchmark.py -q
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import session  # noqa: E402
import tracing  # noqa: E402
from ergolab import harness, hardy  # noqa: E402


def _span(sid, parent, name, start, end):
    return tracing.Span(sid, parent, name, start, end, pid=1)


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        _span("r", None, "root", 0.0, 10.0),
        _span("a", "r", "child", 1.0, 3.0),
        _span("b", "r", "child", 2.0, 5.0),   # overlaps a: covered once
        _span("c", "r", "late", 8.0, 12.0),   # clipped to the parent's end
        _span("d", "b", "grandchild", 2.5, 3.5),
    ]
    st = tracing.self_times(spans)
    assert st["root"] == 10.0 - (4.0 + 2.0)
    assert st["child"] == 2.0 + (3.0 - 1.0)
    assert st["grandchild"] == 1.0
    assert st["late"] == 4.0


def test_counts_sum_except_max_quantities():
    spans = [
        tracing.Span("1", None, "f", 0, 1, 1, {"points": 10, "bits": 96}),
        tracing.Span("2", None, "f", 1, 2, 1, {"points": 5, "bits": 100}),
    ]
    assert tracing.counts(spans) == {"f.calls": 2, "f.points": 15, "f.bits": 100}


def test_wrapping_leaves_results_unchanged_and_is_undone(tmp_path):
    expr = hardy.parse_expression("x^(3/2)", epsilon_hint=0.5)
    original = hardy.phase_fractions
    want = original(expr, 200)
    rec = tracing.Recorder(str(tmp_path))
    uninstall = tracing.install(rec)
    try:
        assert hardy.phase_fractions is not original
        got = hardy.phase_fractions(expr, 200)
    finally:
        uninstall()
    assert hardy.phase_fractions is original
    np.testing.assert_array_equal(got, want)
    metrics = tracing.layer_metrics(rec.collect())
    assert metrics["hardy.phase_fractions.calls"] == 1
    assert metrics["hardy.phase_fractions.points"] == 200
    assert metrics["hardy.phase_fractions.bits"] == hardy.minimum_precision(expr, 200) + 16
    assert metrics["selectors.select_first.calls"] == 0


def test_traced_fan_out_writes_the_same_bytes_and_returns_worker_spans(tmp_path):
    cfg = session.set_up("average", 0, quick=True, out=str(tmp_path / "csv" / "out.csv"))
    assert cfg.workers == 2
    plain = session.run_once(cfg, "untraced")
    traced = session.run_traced(cfg, tmp_path / "spill")
    assert plain["error"] is None and traced["error"] is None
    assert traced["digests"] == plain["digests"]
    assert traced["worker_spans"] > 0
    # select_first runs only inside the workers: one call per seed
    assert traced["layers"]["selectors.select_first.calls"] == cfg.seeds


def test_digest_check_fails_a_run_whose_bytes_were_altered(tmp_path, monkeypatch):
    cfg = session.set_up("expsum", 0, quick=True, out=str(tmp_path / "csv" / "out.csv"))
    expected = run.recorded_digests("expsum", 0, quick=True)
    good = session.run_once(cfg, "untraced")
    assert run.check_calls([good], expected) == []

    csv_bytes = harness.Report.csv_bytes
    monkeypatch.setattr(harness.Report, "csv_bytes",
                        lambda self, name="main": csv_bytes(self, name).replace(b"e", b"E", 1))
    bad = session.run_once(cfg, "untraced")
    assert bad["error"] is None
    assert len(run.check_calls([good, bad], expected)) == 1
    # without recorded digests the first call is the reference
    assert len(run.check_calls([good, bad], None)) == 1


def test_a_raising_run_counts_as_failed(tmp_path):
    cfg = session.set_up("expsum", 0, quick=True, out=str(tmp_path / "csv" / "out.csv"))
    from dataclasses import replace

    broken = session.run_once(replace(cfg, p="x^(3/2"), "untraced")
    assert broken["error"] is not None
    assert len(run.check_calls([broken], None)) == 1
