"""One benchmark process: set up a workload, then run it.

  session.py setup --workload W --seed S [--quick]
      Import ergolab, build the config, parse p and build the system, then
      print "ready".  run.py times this from process start.  Then time
      SETUP_REF_PASSES reference passes and print their mean wall seconds,
      so that run.py can also give the set-up time in reference passes.
  session.py run --workload W --seed S --seconds T --trace 0|1 --out DIR [--quick]
      Set up the same way, then call harness.run_experiment repeatedly for
      T seconds and print one JSON line with every call's wall and CPU time,
      the reference pass timed around it, the sha256 of each CSV file it
      wrote, and the process's peak memory.
      With --trace 1 untraced and traced calls alternate, and traced calls
      also carry layer metrics.

run.py starts this as a fresh interpreter so that peak memory and child
CPU time belong to the measured runs alone.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ergolab import dynamics, hardy, harness  # noqa: E402

# Quartiles need a few samples even when one call outlasts --seconds.
MIN_CALLS = 3

# The host-speed reference timed between calls: a fixed Python big-integer
# loop (the kind of work mpmath's pure-Python backend does) and a fixed numpy
# pass over complex buffers that fit in cache.  ergolab never runs it, so no
# change to the library moves it, while the neighbours that slow the calls on
# a shared host slow it too.  Both parts are compute-bound like the calls: a
# pass over buffers larger than the caches slows far less than the calls do
# when a neighbour takes the CPU.
REF_ELEMENTS = 1 << 14
REF_PASSES = 24
REF_STEPS = 150_000
# Reference passes the set-up probe times after its set-up; their mean is
# reported.  One pass is short next to a set-up, so it often sees another
# moment of the host than the set-up did.
SETUP_REF_PASSES = 3


def set_up(name: str, seed: int, quick: bool, out: str = None) -> harness.ExperimentConfig:
    """What every invocation of a pipeline pays before its first result."""
    cfg = harness.ExperimentConfig(**workloads.config_kwargs(name, seed, quick), out=out)
    if name in workloads.PARSES_P:
        hardy.parse_expression(cfg.p, epsilon_hint=cfg.eps)
    if name in workloads.BUILDS_SYSTEM:
        dynamics.make_system(cfg.system, alpha=cfg.alpha, observable=cfg.observable())
    return cfg


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set of this process and of its reaped workers."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


class Reference:
    """Times the reference pass: (wall seconds, CPU seconds).

    With procs > 1 the pass runs at once in procs processes, one per worker
    of the calls it is compared with, and the times are their means: on a
    shared host each CPU is slowed by its own neighbours.
    """

    def __init__(self, procs: int = 1):
        self.procs = procs
        self.w = 2j * np.pi * np.linspace(0.0, 1.0, REF_ELEMENTS)
        self.z = np.empty(REF_ELEMENTS, dtype=complex)

    def _pass(self) -> tuple:
        t0, c0 = time.perf_counter(), time.process_time()
        acc = 1
        for i in range(REF_STEPS):
            acc = ((acc * 0x9E3779B97F4A7C15 + i) >> 7) & ((1 << 120) - 1)
        for _ in range(REF_PASSES):
            np.exp(self.w, out=self.z)
        return time.perf_counter() - t0, time.process_time() - c0

    def __call__(self) -> tuple:
        kids = []
        for _ in range(self.procs - 1):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(r)
                os.write(w, json.dumps(self._pass()).encode())
                os._exit(0)
            os.close(w)
            kids.append((pid, r))
        times = [self._pass()]
        for pid, r in kids:
            with os.fdopen(r) as fh:
                times.append(json.loads(fh.read()))
            os.waitpid(pid, 0)
        return tuple(statistics.fmean(t[i] for t in times) for i in (0, 1))


def run_once(cfg: harness.ExperimentConfig, kind: str) -> dict:
    """One run_experiment call; wall time ends with the last CSV rename."""
    csv_dir = Path(cfg.out).parent
    shutil.rmtree(csv_dir, ignore_errors=True)
    csv_dir.mkdir(parents=True)
    error = None
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    try:
        harness.run_experiment(cfg)
    except Exception:  # a failed run is counted, not fatal
        error = traceback.format_exc()
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(csv_dir.iterdir())
    }
    return {"kind": kind, "wall_s": wall, "cpu_s": cpu, "digests": digests, "error": error}


def run_traced(cfg: harness.ExperimentConfig, spill_dir: Path) -> dict:
    import tracing  # here, so that the set-up probe imports only what users do

    shutil.rmtree(spill_dir, ignore_errors=True)
    spill_dir.mkdir(parents=True)
    rec = tracing.Recorder(str(spill_dir))
    uninstall = tracing.install(rec)
    try:
        call = run_once(cfg, "traced")
    finally:
        uninstall()
    spans = rec.collect()
    call["layers"] = tracing.layer_metrics(spans)
    call["worker_spans"] = sum(1 for s in spans if s.pid != os.getpid())
    return call


def environment() -> dict:
    import mpmath

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "start_method": multiprocessing.get_context().get_start_method(),
    }


def measure(args) -> dict:
    out_dir = Path(args.out)
    cfg = set_up(args.workload, args.seed, args.quick, str(out_dir / "csv" / "out.csv"))
    calls = [run_once(cfg, "warmup")]
    # every call does the same work, so the warm-up call shows the peak; it is
    # read before the reference passes fork
    peak = peak_rss_mb()
    ref = Reference(procs=cfg.workers)
    before = ref()
    start = time.perf_counter()
    n = 0
    while n < MIN_CALLS or time.perf_counter() - start < args.seconds:
        timed = [run_once(cfg, "untraced")]
        if args.trace:
            timed.append(run_traced(cfg, out_dir / "spill"))
        for call in timed:
            after = ref()
            call["ref_wall_s"] = (before[0] + after[0]) / 2
            call["ref_cpu_s"] = (before[1] + after[1]) / 2
            before = after
        calls += timed
        n += 1
    if cfg.workers > 1:
        # same bytes at any worker count
        calls.append(run_once(replace(cfg, workers=1), "one_worker"))
    return {"env": environment(), "workers": cfg.workers, "peak_rss_mb": peak,
            "calls": calls}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("setup", "run"))
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    if args.mode == "setup":
        set_up(args.workload, args.seed, args.quick)
        print("ready", flush=True)
        ref = Reference()
        ref()  # the first pass also pays numpy's first-call costs
        print(statistics.fmean(ref()[0] for _ in range(SETUP_REF_PASSES)), flush=True)
        return 0
    if not args.out:
        ap.error("run needs --out")
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
