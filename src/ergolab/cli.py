"""Command-line interface.

One subcommand per entry of harness.PIPELINES, taking exactly the config
keys that pipeline reads, plus --config, --out and --workers.  A key's flag
is --key with "-" for "_" (except --Nmin, --Nmax, --iterms-N, and --N or
--n for n); its text means the same in a flag and in a --config key=value
file, and flags override the file.  ERGOLAB_WORKERS sets the default worker
count - affecting speed only, never output bytes.  Rejected input,
argparse's own rejections included, ends the run with one
"ergolab: error: ..." line on stderr and exit code 2.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .harness import (
    OBSERVABLE_ALIASES,
    PIPELINES,
    ExperimentConfig,
    check_key,
    coerce_config_values,
    parse_config_file,
    run_experiment,
)

# one help line per config key
_HELP = {
    "a": "selection exponent in (0, 1/2)",
    "a_values": "comma-separated sweep over a, run in place of --a",
    "p": "phase expression, e.g. 'x^(3/2)'",
    "eps": "declared growth epsilon of p",
    "bits": "working precision (default: rule minimum)",
    "rho": "lacunary ratio(s), comma separated, each > 1",
    "nmin": "smallest N in schedule",
    "nmax": "largest N in schedule",
    "n": "single N: expsum's in place of the schedule, deviation's prefix length, "
         "generate's number of indices",
    "seeds": "number of independent seeds",
    "seed_base": "first seed; seeds are seed_base..seed_base+count-1",
    "seed": "seed of the realization, the trial family or the instances",
    "system": "rotation | cyclic | bernoulli",
    "alpha": "rotation angle: sqrt2m1|sqrt3m1|invphi|decimal",
    "q": "cyclic-shift modulus",
    "alphabet": "Bernoulli alphabet size",
    "window": "Bernoulli observable window",
    "f": "observable: a name of the system's own (an unknown one lists them), "
         "or one of " + " | ".join(OBSERVABLE_ALIASES),
    "points": "number of sample points",
    "delta": "window exponent in (0, 1/2)",
    "b": "lag exponent in (a, 1/2), or 'auto'",
    "c": "inner cutoff exponent in (2a, 1), or 'auto'",
    "iterms_n": "N at which to evaluate the three-term profile",
    "trials": "number of independent trials",
    "chernoff_c": "constant in the tail envelope (no canonical value)",
    "instances": "number of random instances",
    "out": "CSV output path",
    "workers": "worker processes (speed only)",
}
# the flags of the keys not spelled --key with "-" for "_"
_FLAGS = {"n": ("--N", "--n"), "nmin": ("--Nmin",), "nmax": ("--Nmax",),
          "iterms_n": ("--iterms-N",)}
# the n that deviation and generate run when none is given; the library
# falls back to nmax instead
_DEFAULT_N = {"deviation": 10000, "generate": 1 << 16}


class _ArgumentParser(argparse.ArgumentParser):
    """Argparse's own rejections end in the same one line as all others."""

    def error(self, message: str):
        self.exit(2, f"ergolab: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(
        prog="ergolab",
        description="Numerical laboratory for sparse random weighted ergodic averages.",
    )
    sub = ap.add_subparsers(dest="pipeline", required=True)
    for name, pipeline in PIPELINES.items():
        sp = sub.add_parser(name, help=pipeline.summary)
        sp.add_argument("--config", help="key=value config file; flags override it")
        for key in pipeline.keys + ("out", "workers"):
            flags = _FLAGS.get(key, ("--" + key.replace("_", "-"),))
            sp.add_argument(*flags, dest=key, help=_HELP[key])
    return ap


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """Flag text laid over config-file text, coerced once by the config's
    own field types, so a value means the same in either place.  A file key
    that the subcommand does not take is rejected, not ignored."""
    text = parse_config_file(args.config) if args.config else {}
    for key in text:
        check_key(args.pipeline, key)
    text.update((k, v) for k, v in vars(args).items() if k != "config" and v is not None)
    values = coerce_config_values(text)
    if args.pipeline in _DEFAULT_N:
        values.setdefault("n", _DEFAULT_N[args.pipeline])
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
