"""CSV bytes of the benchmark workloads against their recorded digests.

Runs each quick workload config from benchmarks/workloads.py in-process,
and the full-size expsum and chain configs (their 2^16 and 2^15 phase
tables are the largest the power path builds), average (16 sample points
sharing one rotation product over each seed's 2^14 positions) and
correlation (the largest double-double tree table), and compares the sha256 of
every CSV file it writes with benchmarks/digests.json, so a refactor that
changes any output byte fails here.  Only reads benchmarks/.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from ergolab.harness import ExperimentConfig, run_experiment

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"
SEEDS = range(4)


def _load_workloads():
    spec = importlib.util.spec_from_file_location("workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
DIGESTS = json.loads((BENCH / "digests.json").read_text())


def _digests(tmp_path, name, seed, quick):
    out = tmp_path / "out.csv"
    cfg = ExperimentConfig(**workloads.config_kwargs(name, seed, quick=quick), out=str(out))
    run_experiment(cfg)
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.iterdir())
    }


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", workloads.NAMES)
def test_quick_workload_bytes_match_recorded_digests(tmp_path, name, seed):
    assert _digests(tmp_path, name, seed, True) == DIGESTS["quick"][name][str(seed)]


@pytest.mark.parametrize("name", ["expsum", "average", "chain", "correlation"])
def test_full_workload_bytes_match_recorded_digests(tmp_path, name):
    assert _digests(tmp_path, name, 0, False) == DIGESTS["full"][name]["0"]
