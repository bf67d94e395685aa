"""Command-line interface.

Subcommands mirror the pipelines: generate, expsum, average, chain,
correlation, deviation, vdc-selftest.  Flags map 1:1 onto config-file keys
and are parsed exactly as they are (--config loads a key=value file first,
explicit flags override); ERGOLAB_WORKERS sets the default worker count -
affecting speed only, never output bytes.  Rejected input, argparse's own
rejections included, ends the run with one "ergolab: error: ..." line on
stderr and exit code 2.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .harness import (
    OBSERVABLE_ALIASES,
    ExperimentConfig,
    coerce_config_values,
    parse_config_file,
    run_experiment,
)


class _ArgumentParser(argparse.ArgumentParser):
    """Argparse's own rejections end in the same one line as all others."""

    def error(self, message: str):
        self.exit(2, f"ergolab: error: {message}\n")


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="key=value config file; flags override it")
    sp.add_argument("--out", help="CSV output path")
    sp.add_argument("--workers", help="worker processes (speed only)")


def _add_phase_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--p", dest="p", help="phase expression, e.g. 'x^(3/2)'")
    sp.add_argument("--eps", help="declared growth epsilon of p")
    sp.add_argument("--bits", help="working precision (default: rule minimum)")


def _add_schedule_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--rho", help="lacunary ratio(s), comma separated, each > 1")
    sp.add_argument("--Nmin", dest="nmin", help="smallest N in schedule")
    sp.add_argument("--Nmax", dest="nmax", help="largest N in schedule")


def _add_seed_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--seeds", help="number of independent seeds")
    sp.add_argument("--seed-base", dest="seed_base",
                    help="first seed; seeds are seed_base..seed_base+count-1")


def _add_system_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--system", help="rotation | cyclic | bernoulli")
    sp.add_argument("--alpha", help="rotation angle: sqrt2m1|sqrt3m1|invphi|decimal")
    sp.add_argument("--q", help="cyclic-shift modulus")
    sp.add_argument("--alphabet", help="Bernoulli alphabet size")
    sp.add_argument("--window", help="Bernoulli observable window")
    sp.add_argument("--f", help="observable: a name of the system's own (an unknown one lists them), "
                    "or one of " + " | ".join(OBSERVABLE_ALIASES))
    sp.add_argument("--points", help="number of sample points")


def build_parser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(
        prog="ergolab",
        description="Numerical laboratory for sparse random weighted ergodic averages.",
    )
    sub = ap.add_subparsers(dest="pipeline", required=True)

    sp = sub.add_parser("generate", help="dump one realization as (index, bit) CSV")
    sp.add_argument("--a", help="selection exponent in (0, 1/2)")
    sp.add_argument("--seed", help="realization seed")
    sp.add_argument("--n", help="number of indices to materialize")
    _add_common(sp)

    sp = sub.add_parser("expsum", help="normalized exponential sums (1/N) sum e(p(n))")
    _add_phase_flags(sp)
    sp.add_argument("--N", dest="n", help="single N (else use schedule)")
    _add_schedule_flags(sp)
    _add_common(sp)

    sp = sub.add_parser("average", help="weighted random averages on a system")
    sp.add_argument("--a", help="selection exponent in (0, 1/2)")
    _add_phase_flags(sp)
    _add_schedule_flags(sp)
    _add_seed_flags(sp)
    _add_system_flags(sp)
    _add_common(sp)

    sp = sub.add_parser("chain", help="six-stage comparison-chain diagnostics")
    sp.add_argument("--a")
    _add_phase_flags(sp)
    _add_schedule_flags(sp)
    _add_seed_flags(sp)
    _add_system_flags(sp)
    _add_common(sp)

    sp = sub.add_parser("correlation", help="weight-sequence correlation criteria")
    sp.add_argument("--a")
    sp.add_argument("--delta", help="window exponent in (0, 1/2)")
    sp.add_argument("--b", help="lag exponent in (a, 1/2), or 'auto'")
    sp.add_argument("--c", help="inner cutoff exponent in (2a, 1), or 'auto'")
    sp.add_argument("--iterms-N", dest="iterms_n",
                    help="N at which to evaluate the three-term profile")
    _add_phase_flags(sp)
    _add_schedule_flags(sp)
    _add_seed_flags(sp)
    _add_common(sp)

    sp = sub.add_parser("deviation", help="|S_N - W_N| tail frequencies vs Chernoff")
    sp.add_argument("--a")
    sp.add_argument("--seed", help="base seed for the trial family")
    sp.add_argument("--N", dest="n", help="prefix length")
    sp.add_argument("--trials")
    sp.add_argument("--chernoff-c", dest="chernoff_c",
                    help="constant in the tail envelope (no canonical value)")
    _add_common(sp)

    sp = sub.add_parser("vdc-selftest", help="van der Corput inequality on random instances")
    sp.add_argument("--instances")
    sp.add_argument("--seed")
    _add_common(sp)

    return ap


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """Flag text laid over config-file text, coerced once by the config's
    own field types, so a value means the same in either place."""
    text = parse_config_file(args.config) if args.config else {}
    text.update((k, v) for k, v in vars(args).items() if k != "config" and v is not None)
    values = coerce_config_values(text)
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
    except (ValueError, OSError, MemoryError) as exc:
        # ExpressionError, EvalDomainError, InsufficientPrecisionError and
        # OutOfRangeError all subclass ValueError; OSError is an unreadable
        # --config file or an unwritable --out; MemoryError a table too
        # large to allocate
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
        lines = report.csv_bytes().decode().splitlines()
        print("\n".join(line for line in lines if not line.startswith("#")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
