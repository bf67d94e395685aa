"""Benchmark of ergolab's five pipelines.  README.md in this directory
explains the workloads, the metrics and how to read a comparison.

  python3 benchmarks/run.py --workload expsum --seed 0 --seconds 18 --trace 0
  python3 benchmarks/run.py --workload all                  # every workload
  python3 benchmarks/run.py --workload all --quick          # tiny sizes, < 1 min

Run from the repository root.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; with --trace 0
the metrics are BENCHMARK.json's end_to_end ones, with --trace 1 its
per_layer ones.  Lines before it are a readable summary.  Every run also
writes its raw samples and the environment to .bench_out/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SESSION = BENCH / "session.py"
DIGESTS = BENCH / "digests.json"

# Fresh interpreters timed per run for setup_s; the median is reported.
# Half run before the session and half after it, so that the median spans
# the run instead of one moment of a shared host.
SETUP_SAMPLES = 8
# Set-up probes and the session of one workload share this much time; a
# child still running then is killed with its workers, and nothing is printed.
WORKLOAD_BUDGET_S = 170.0


class BenchError(RuntimeError):
    """The benchmark itself could not run: no result is printed."""


def _child(args: List[str], **kwargs) -> subprocess.Popen:
    # own process group, so a timeout can stop the session's workers too
    return subprocess.Popen(
        [sys.executable, str(SESSION), *args], cwd=str(ROOT),
        start_new_session=True, **kwargs,
    )


def _stop(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def setup_seconds(name: str, seed: int, quick: bool, deadline: float) -> tuple:
    """Process start until the session reports its set-up done, and the
    mean wall time of the reference passes that the same process runs next."""
    args = ["setup", "--workload", name, "--seed", str(seed)] + (["--quick"] if quick else [])
    t0 = time.perf_counter()
    # unbuffered, so that readline takes only the first line and
    # communicate gets the rest
    proc = _child(args, stdout=subprocess.PIPE, bufsize=0)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], deadline - time.monotonic())
        line = proc.stdout.readline() if ready else b""
        elapsed = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
        if line.strip() != b"ready" or proc.returncode != 0:
            raise BenchError(f"set-up of {name} failed (exit {proc.returncode})")
    except subprocess.TimeoutExpired:
        raise BenchError(f"set-up of {name} ran out of time")
    finally:
        if proc.poll() is None:
            _stop(proc)
    return elapsed, float(rest)


def run_session(name: str, seed: int, seconds: float, trace: int, quick: bool,
                work: Path, deadline: float) -> dict:
    args = ["run", "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--out", str(work)] + (["--quick"] if quick else [])
    proc = _child(args, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise BenchError(f"{name} session ran out of time")
    if proc.returncode != 0:
        raise BenchError(f"{name} session exited {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def recorded_digests(name: str, seed: int, quick: bool) -> Optional[Dict[str, str]]:
    table = json.loads(DIGESTS.read_text())["quick" if quick else "full"]
    return table.get(name, {}).get(str(seed))


def check_calls(calls: List[dict], expected: Optional[Dict[str, str]]) -> List[str]:
    """Why each failed call failed; a call passes when it raised nothing and
    wrote exactly the expected files and bytes.  Without recorded digests,
    the first call that raised nothing sets what the others must repeat."""
    if expected is None:
        expected = next((c["digests"] for c in calls if c["error"] is None), None)
    problems = []
    for i, c in enumerate(calls):
        if c["error"] is not None:
            last = c["error"].strip().splitlines()[-1]
            problems.append(f"call {i} ({c['kind']}) raised {last}")
        elif c["digests"] != expected:
            problems.append(f"call {i} ({c['kind']}) wrote bytes that differ from the reference")
    return problems


def _quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def layer_summary(calls: List[dict]) -> tuple:
    """Median layer self times over traced calls, their counts, and whether
    every count repeated exactly from one traced call to the next."""
    traced = [c["layers"] for c in calls if c["kind"] == "traced" and c["error"] is None]
    counts = {k: v for k, v in traced[0].items() if not k.endswith(".self_s")}
    repeat = all({k: t[k] for k in counts} == counts for t in traced)
    out = {k: statistics.median(t[k] for t in traced)
           for k in traced[0] if k.endswith(".self_s")}
    out.update(counts)
    return out, repeat


def bench_workload(name: str, seed: int, seconds: float, trace: int, quick: bool) -> dict:
    deadline = time.monotonic() + WORKLOAD_BUDGET_S

    def probes(n):
        return [setup_seconds(name, seed, quick, deadline) for _ in range(n)]

    setup_probes = probes(SETUP_SAMPLES // 2)
    tag = f"{name}-seed{seed}-trace{trace}" + ("-quick" if quick else "")
    session = run_session(name, seed, seconds, trace, quick, OUT / "work" / tag, deadline)
    setup_probes += probes(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    setup = [elapsed for elapsed, _ in setup_probes]
    shutil.rmtree(OUT / "work" / tag, ignore_errors=True)
    calls = session["calls"]
    expected = recorded_digests(name, seed, quick)
    problems = check_calls(calls, expected)

    def walls(kind):
        return [c["wall_s"] for c in calls if c["kind"] == kind and c["error"] is None]

    untraced = [c for c in calls if c["kind"] == "untraced" and c["error"] is None]
    wall = walls("untraced")
    if not wall:
        raise BenchError(f"{name}: no untraced call succeeded: {problems}")
    q1, med, q3 = _quartiles(wall)
    attempted, failed = len(calls), len(problems)
    end_to_end = {
        "wall_ref": statistics.median(c["wall_s"] / c["ref_wall_s"] for c in untraced),
        "cpu_ref": statistics.median(c["cpu_s"] / c["ref_cpu_s"] for c in untraced),
        "wall_s": med,
        "cpu_s": statistics.median(c["cpu_s"] for c in untraced),
        "setup_s": statistics.median(setup),
        "setup_ref": statistics.median(elapsed / ref for elapsed, ref in setup_probes),
        "peak_rss_mb": session["peak_rss_mb"],
        "pass_ratio": 1.0 - failed / attempted,
    }
    result = {
        "tag": tag, "workload": name, "seed": seed, "quick": quick, "trace": trace,
        "env": session["env"], "digests": "recorded" if expected else "self-consistent",
        "wall_quartiles_s": [q1, med, q3], "wall_samples": len(wall),
        "setup_samples_s": setup, "setup_ref_pass_s": [ref for _, ref in setup_probes],
        "end_to_end": end_to_end,
        "attempted": attempted, "failed": failed, "problems": problems,
        "calls": [{k: c.get(k) for k in ("kind", "wall_s", "cpu_s", "ref_wall_s", "ref_cpu_s",
                                         "error")} for c in calls],
    }
    if trace:
        traced_wall = walls("traced")
        if not traced_wall:
            raise BenchError(f"{name}: no traced call succeeded: {problems}")
        layers, repeat = layer_summary(calls)
        if not repeat:
            problems.append("layer counts differ between traced calls")
        layers["trace.untraced_wall_s"] = med
        layers["trace.traced_wall_s"] = statistics.median(traced_wall)
        layers["trace.overhead_ratio"] = layers["trace.traced_wall_s"] / med
        worker_spans = [c["worker_spans"] for c in calls if c["kind"] == "traced"]
        if session["workers"] > 1 and not all(worker_spans):
            problems.append("no spans came back from the worker processes")
        result["layers"] = layers
        result["worker_spans"] = worker_spans
    result["correct"] = not problems
    return result


def environment_ids() -> dict:
    """What identifies the measured program: git revision when the tree is a
    checkout, and a digest of the library's sources either way."""
    h = hashlib.sha256()
    for path in sorted((SRC / "ergolab").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                              capture_output=True, text=True)
        rev = proc.stdout.strip() or None
    return {"git_revision": rev, "src_sha256": h.hexdigest()[:16]}


def _print_summary(res: dict) -> None:
    m = res["end_to_end"]
    q1, med, q3 = res["wall_quartiles_s"]
    print(f"{res['workload']} seed={res['seed']}{' quick' if res['quick'] else ''}:")
    print(f"  wall_s      {med:.4f} s  (q1 {q1:.4f}, q3 {q3:.4f}, n={res['wall_samples']})")
    print(f"  cpu_s       {m['cpu_s']:.4f} s")
    print(f"  wall_ref    {m['wall_ref']:.3f} ref  (wall_s over the reference pass)")
    print(f"  cpu_ref     {m['cpu_ref']:.3f} ref  (cpu_s over the reference pass)")
    print(f"  setup_s     {m['setup_s']:.4f} s  (n={len(res['setup_samples_s'])})")
    print(f"  setup_ref   {m['setup_ref']:.3f} ref  (each set-up over its own reference pass)")
    print(f"  peak_rss_mb {m['peak_rss_mb']:.1f} MB")
    print(f"  fail_ratio  {res['failed'] / res['attempted']:.4f} ratio  "
          f"({res['failed']}/{res['attempted']}, digests {res['digests']})")
    for p in res["problems"]:
        print(f"  FAIL {p}")
    if "layers" in res:
        layers = res["layers"]
        selfs = {k[:-7]: v for k, v in layers.items() if k.endswith(".self_s") and v}
        total = sum(selfs.values()) or 1.0
        print("  layer self time, share of all self time:")
        for k, v in sorted(selfs.items(), key=lambda kv: -kv[1])[:6]:
            print(f"    {k:45s} {v:8.4f} s {100 * v / total:5.1f}%")
        print(f"  tracing overhead {layers['trace.overhead_ratio']:.3f} "
              f"(traced {layers['trace.traced_wall_s']:.4f} s over untraced "
              f"{layers['trace.untraced_wall_s']:.4f} s)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per workload (default BENCHMARK.json's "
                         "run_seconds, or 1 with --quick)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="tiny sizes of every workload")
    args = ap.parse_args(argv)

    if not (SRC / "ergolab" / "__init__.py").is_file():
        print(f"run.py: no ergolab sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds
    if seconds is None:
        seconds = 1.0 if args.quick else float(spec["run_seconds"])
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = workloads.NAMES if args.workload == "all" else (args.workload,)

    ids = environment_ids()
    results = []
    try:
        for name in names:
            res = bench_workload(name, args.seed, seconds, args.trace, args.quick)
            res.update(ids)
            results.append(res)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    env = dict(results[0]["env"], **ids)
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    metrics = {}
    for res in results:
        _print_summary(res)
        (OUT / "results" / f"{res['tag']}.json").write_text(json.dumps(res, indent=1))
        values = res["layers"] if args.trace else res["end_to_end"]
        prefix = f"{res['workload']}." if len(names) > 1 else ""
        for m in wanted:
            metrics[prefix + m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
