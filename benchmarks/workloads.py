"""The five benchmark workloads: one fixed ExperimentConfig per pipeline.

Each workload is a dict of ExperimentConfig keyword arguments built from a
workload seed; the library receives only the resulting config.  Worker
counts are always set here, so an exported ERGOLAB_WORKERS cannot change
the measured program.  README.md says why each workload was chosen.
"""

from __future__ import annotations

from typing import Dict

NAMES = ("expsum", "average", "chain", "correlation", "deviation")

# Pipelines whose set-up parses p, and those that also build a system.
PARSES_P = {"expsum", "average", "chain", "correlation"}
BUILDS_SYSTEM = {"average", "chain"}

_FULL = {
    "expsum": dict(
        pipeline="expsum", p="x^(3/2)", eps=0.5, rho=(2.0,),
        nmin=1 << 10, nmax=1 << 16, workers=1,
    ),
    "average": dict(
        pipeline="average", system="rotation", alpha="sqrt2m1", f="e(x)",
        a=0.3, p="x^(3/2)", eps=0.5, rho=(2.0,), nmin=1 << 10, nmax=1 << 14,
        seeds=20, points=16, workers=2,
    ),
    "chain": dict(
        pipeline="chain", system="rotation", alpha="sqrt2m1", f="(1+e(x))/2",
        a=0.3, p="x^(3/2)", eps=0.5, rho=(2.0,), nmin=1 << 12, nmax=1 << 15,
        seeds=4, points=16, workers=1,
    ),
    "correlation": dict(
        pipeline="correlation", a=0.3, p="x^(3/2) + x*log(x)", eps=0.5,
        delta=0.1, b=None, c=None, rho=(2.0,), nmin=1 << 10, nmax=1 << 18,
        seeds=2, workers=1,
    ),
    "deviation": dict(
        pipeline="deviation", a=0.3, nmax=10_000, trials=8_000, workers=1,
    ),
}

# Tiny sizes with the same shapes, for a smoke run of every pipeline.
_QUICK = {
    "expsum": dict(_FULL["expsum"], nmin=1 << 6, nmax=1 << 10),
    "average": dict(_FULL["average"], nmin=1 << 6, nmax=1 << 10, seeds=4, points=4),
    "chain": dict(_FULL["chain"], nmin=1 << 8, nmax=1 << 11, seeds=2, points=4),
    "correlation": dict(_FULL["correlation"], nmin=1 << 8, nmax=1 << 12),
    "deviation": dict(_FULL["deviation"], nmax=1_000, trials=200),
}


def config_kwargs(name: str, seed: int, quick: bool = False) -> Dict[str, object]:
    """ExperimentConfig keywords for one workload under one workload seed."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")
    if seed < 0:
        raise ValueError(f"workload seed must be >= 0, got {seed}")
    kwargs = dict((_QUICK if quick else _FULL)[name])
    kwargs["seed_base"] = seed
    kwargs["seed"] = seed
    return kwargs
