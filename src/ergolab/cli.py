"""Command-line interface.

Subcommands mirror the pipelines: generate, expsum, average, chain,
correlation, deviation, vdc-selftest.  Flags map 1:1 onto config-file keys
(--config loads a key=value file first, explicit flags override) and the
ERGOLAB_WORKERS environment variable sets the default worker count -
affecting speed only, never output bytes.  Rejected input ends the run
with one "ergolab: error: ..." line on stderr and exit code 2.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from typing import List, Optional

from .harness import (
    OBSERVABLE_ALIASES,
    ExperimentConfig,
    coerce_config_values,
    parse_config_file,
    run_experiment,
)


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="key=value config file; flags override it")
    sp.add_argument("--out", help="CSV output path")
    sp.add_argument("--workers", type=int, help="worker processes (speed only)")


def _add_phase_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--p", dest="p", help="phase expression, e.g. 'x^(3/2)'")
    sp.add_argument("--eps", type=float, help="declared growth epsilon of p")
    sp.add_argument("--bits", type=int, help="working precision (default: rule minimum)")


def _add_schedule_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--rho", help="lacunary ratio(s), comma separated, each > 1")
    sp.add_argument("--Nmin", dest="nmin", type=int, help="smallest N in schedule")
    sp.add_argument("--Nmax", dest="nmax", type=int, help="largest N in schedule")


def _add_seed_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--seeds", type=int, help="number of independent seeds")
    sp.add_argument("--seed-base", dest="seed_base", type=int,
                    help="first seed; seeds are seed_base..seed_base+count-1")


def _add_system_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--system", choices=("rotation", "cyclic", "bernoulli"))
    sp.add_argument("--alpha", help="rotation angle: sqrt2m1|sqrt3m1|invphi|decimal")
    sp.add_argument("--q", type=int, help="cyclic-shift modulus")
    sp.add_argument("--alphabet", type=int, help="Bernoulli alphabet size")
    sp.add_argument("--window", type=int, help="Bernoulli observable window")
    sp.add_argument("--f", help="observable: " + " | ".join(OBSERVABLE_ALIASES))
    sp.add_argument("--points", type=int, help="number of sample points")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ergolab",
        description="Numerical laboratory for sparse random weighted ergodic averages.",
    )
    sub = ap.add_subparsers(dest="pipeline", required=True)

    sp = sub.add_parser("generate", help="dump one realization as (index, bit) CSV")
    sp.add_argument("--a", type=float, help="selection exponent in (0, 1/2)")
    sp.add_argument("--seed", type=int, help="realization seed")
    sp.add_argument("--n", type=int, help="number of indices to materialize")
    _add_common(sp)

    sp = sub.add_parser("expsum", help="normalized exponential sums (1/N) sum e(p(n))")
    _add_phase_flags(sp)
    sp.add_argument("--N", dest="n", type=int, help="single N (else use schedule)")
    _add_schedule_flags(sp)
    _add_common(sp)

    sp = sub.add_parser("average", help="weighted random averages on a system")
    sp.add_argument("--a", type=float, help="selection exponent in (0, 1/2)")
    _add_phase_flags(sp)
    _add_schedule_flags(sp)
    _add_seed_flags(sp)
    _add_system_flags(sp)
    _add_common(sp)

    sp = sub.add_parser("chain", help="six-stage comparison-chain diagnostics")
    sp.add_argument("--a", type=float)
    _add_phase_flags(sp)
    _add_schedule_flags(sp)
    _add_seed_flags(sp)
    _add_system_flags(sp)
    _add_common(sp)

    sp = sub.add_parser("correlation", help="weight-sequence correlation criteria")
    sp.add_argument("--a", type=float)
    sp.add_argument("--delta", type=float, help="window exponent in (0, 1/2)")
    sp.add_argument("--b", help="lag exponent in (a, 1/2), or 'auto'")
    sp.add_argument("--c", help="inner cutoff exponent in (2a, 1), or 'auto'")
    sp.add_argument("--iterms-N", dest="iterms_n", type=int,
                    help="N at which to evaluate the three-term profile")
    _add_phase_flags(sp)
    _add_schedule_flags(sp)
    _add_seed_flags(sp)
    _add_common(sp)

    sp = sub.add_parser("deviation", help="|S_N - W_N| tail frequencies vs Chernoff")
    sp.add_argument("--a", type=float)
    sp.add_argument("--seed", type=int, help="base seed for the trial family")
    sp.add_argument("--N", dest="n", type=int, help="prefix length")
    sp.add_argument("--trials", type=int)
    sp.add_argument("--chernoff-c", dest="chernoff_c", type=float,
                    help="constant in the tail envelope (no canonical value)")
    _add_common(sp)

    sp = sub.add_parser("vdc-selftest", help="van der Corput inequality on random instances")
    sp.add_argument("--instances", type=int)
    sp.add_argument("--seed", type=int)
    _add_common(sp)

    return ap


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    values = {}
    if getattr(args, "config", None):
        values.update(coerce_config_values(parse_config_file(args.config)))
    known = {f.name for f in fields(ExperimentConfig)}
    for key, val in vars(args).items():
        if key == "config" or val is None or key not in known:
            continue
        if key in ("rho", "b", "c") and isinstance(val, str):
            values.update(coerce_config_values({key: val}))
        else:
            values[key] = val
    values["pipeline"] = args.pipeline
    # deviation/generate want explicit small defaults rather than schedule ones
    if args.pipeline == "deviation" and "n" not in values:
        values["n"] = 10000
    if args.pipeline == "generate" and "n" not in values:
        values["n"] = 1 << 16
    return ExperimentConfig(**values)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        report = run_experiment(cfg)
    except ValueError as exc:
        # ExpressionError, EvalDomainError, InsufficientPrecisionError and
        # OutOfRangeError all subclass ValueError
        print(f"ergolab: error: {exc}", file=sys.stderr)
        return 2
    main_table = report.table("main")
    print(f"pipeline={cfg.pipeline} experiment={cfg.fingerprint()} "
          f"rows={len(main_table.rows)}")
    for name, fit in report.fits:
        flag = " (clamped)" if fit.clamped else ""
        print(f"  slope[{name}] = {fit.slope:+.4f} +/- {fit.half_width:.4f}{flag}")
    if cfg.out:
        for t in report.tables:
            print(f"  wrote table {t.name!r} ({len(t.rows)} rows)")
        print(f"  -> {cfg.out}")
    elif len(main_table.rows) <= 40:
        print(",".join(main_table.columns))
        for row in main_table.rows:
            print(",".join(str(v) for v in row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
