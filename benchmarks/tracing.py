"""Layer spans recorded from outside the library.

install() replaces the module and class attributes that the pipelines call
through (hardy.phase_fractions, selectors.select_first,
dynamics.RotationSystem.orbit_observable, ...) with wrappers that record one
span per call, plus the work counts of that layer.  The returned function
puts the originals back.  Nothing in the library changes.

A span's self time is its duration minus the part of its interval that its
child spans cover.  Processes forked while a span is open (the fan-out in
harness) inherit the open stack, so their spans name the parent process's
span as parent; they append their finished spans to files in spill_dir,
which collect() merges back.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ergolab import correlation, dynamics, hardy, harness, selectors

# phase_fractions documents that precision_bits=None means the rule minimum
# at x=N plus this margin; the wrapper reports the bits that rule picks.
PHASE_BITS_MARGIN = 16

# Quantities aggregated by max over calls; every other quantity is summed.
MAX_QUANTITIES = {"bits"}


@dataclass(frozen=True)
class Span:
    sid: str
    parent: Optional[str]
    name: str
    start: float
    end: float
    pid: int
    counts: Dict[str, int] = field(default_factory=dict)


class Recorder:
    """Keeps spans in memory; a forked child spills its own to spill_dir."""

    def __init__(self, spill_dir: str):
        self.spill_dir = Path(spill_dir)
        self.pid = os.getpid()
        self.spans: List[Span] = []
        self._stack: List[Tuple[str, Optional[str], str, float]] = []
        self._seq = 0
        self._inherited = 0
        self._forked = False

    def _check_fork(self) -> None:
        pid = os.getpid()
        if pid != self.pid:
            # keep the inherited stack so the child's spans point at the span
            # open in the parent; the parent's finished spans are not ours
            self.pid = pid
            self.spans = []
            self._inherited = len(self._stack)
            self._forked = True

    def open(self, name: str) -> None:
        self._check_fork()
        self._seq += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((f"{self.pid}:{self._seq}", parent, name, time.perf_counter()))

    def close(self, end: float, counts: Dict[str, int]) -> None:
        sid, parent, name, start = self._stack.pop()
        self.spans.append(Span(sid, parent, name, start, end, self.pid, counts))
        if self._forked and len(self._stack) == self._inherited:
            self._spill()

    def _spill(self) -> None:
        path = self.spill_dir / f"spans-{self.pid}.jsonl"
        with open(path, "a") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")
        self.spans = []

    def collect(self) -> List[Span]:
        """All finished spans, this process's and spilled ones; then reset."""
        spans = self.spans
        self.spans = []
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            with open(path) as fh:
                spans.extend(Span(**json.loads(line)) for line in fh)
            path.unlink()
        return spans


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Summed self time per span name: duration minus child coverage."""
    children: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out: Dict[str, float] = defaultdict(float)
    for s in spans:
        covered = 0.0
        reach = s.start
        for lo, hi in sorted(children.get(s.sid, ())):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.name] += (s.end - s.start) - covered
    return dict(out)


def counts(spans: Sequence[Span]) -> Dict[str, int]:
    """'<name>.calls' and '<name>.<quantity>' over all spans."""
    out: Dict[str, int] = defaultdict(int)
    for s in spans:
        out[f"{s.name}.calls"] += 1
        for q, v in s.counts.items():
            key = f"{s.name}.{q}"
            out[key] = max(out[key], v) if q in MAX_QUANTITIES else out[key] + v
    return dict(out)


def layer_metrics(spans: Sequence[Span]) -> Dict[str, float]:
    """Self time ('<name>.self_s') and counts of one traced call, with 0 for
    every layer that did no work."""
    out: Dict[str, float] = dict.fromkeys(metric_names(), 0)
    out.update({f"{k}.self_s": v for k, v in self_times(spans).items()})
    out.update(counts(spans))
    return out


# -- the layers ---------------------------------------------------------------

def _phase_counts(p, N, precision_bits, start, result):
    if precision_bits is None:
        precision_bits = hardy.minimum_precision(p, N) + PHASE_BITS_MARGIN
    return {"points": N - start + 1, "bits": precision_bits}


def _write_counts(report, result):
    return {
        "bytes": sum(os.path.getsize(path) for path in result),
        "rows": sum(len(t.rows) for t in report.tables),
    }


@dataclass(frozen=True)
class Layer:
    """One wrapped function: owner.attr and its span name.

    count, when given, receives the values of the parameters named in params
    and the result, and returns the layer's work counts named by quantities.
    """

    owner: object
    attr: str
    name: str
    quantities: Tuple[str, ...] = ()
    params: Tuple[str, ...] = ()
    count: Optional[Callable] = None


LAYERS: Tuple[Layer, ...] = (
    Layer(hardy, "parse_expression", "hardy.parse_expression"),
    Layer(hardy, "phase_fractions", "hardy.phase_fractions", ("points", "bits"),
          ("p", "N", "precision_bits", "start"), _phase_counts),
    Layer(hardy, "unit_phases", "hardy.unit_phases"),
    Layer(hardy, "prefix_means", "hardy.prefix_means", ("terms",), ("schedule",),
          lambda schedule, r: {"terms": sum(int(n) for n in schedule)}),
    Layer(selectors, "select_first", "selectors.select_first", ("indices_scanned",),
          (), lambda r: {"indices_scanned": int(r[-1])}),
    Layer(selectors, "count_selected", "selectors.count_selected", ("indices",),
          ("N",), lambda N, r: {"indices": N}),
    Layer(selectors, "sigma_prefix", "selectors.sigma_prefix"),
    Layer(selectors, "generate_realization", "selectors.generate_realization",
          ("indices",), ("params",), lambda params, r: {"indices": params.n_max}),
    Layer(dynamics.RotationSystem, "orbit_observable", "dynamics.orbit_observable",
          ("evals",), ("iterates",), lambda iterates, r: {"evals": len(iterates)}),
    Layer(dynamics, "weighted_average_from_positions",
          "dynamics.weighted_average_from_positions"),
    Layer(dynamics, "chain_diagnostics", "dynamics.chain_diagnostics"),
    Layer(correlation, "weight_series", "correlation.weight_series"),
    Layer(correlation, "correlation_sum", "correlation.correlation_sum"),
    Layer(correlation, "summability_statistic", "correlation.summability_statistic"),
    Layer(correlation, "c_sum_check", "correlation.c_sum_check"),
    Layer(correlation, "i_terms_profile", "correlation.i_terms_profile"),
    Layer(harness, "run_experiment", "harness.run_experiment"),
    Layer(harness.Report, "write", "harness.Report.write", ("bytes", "rows"),
          ("self",), _write_counts),
)


def _wrap(rec: Recorder, layer: Layer, fn: Callable) -> Callable:
    # Positions of the counted parameters, found once: binding the full
    # signature on every call would cost more than short layer calls.
    sig = inspect.signature(fn).parameters
    names = list(sig)
    wanted = [(p, names.index(p), sig[p].default) for p in layer.params]
    name, count = layer.name, layer.count

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            rec.close(time.perf_counter(), {})
            raise
        end = time.perf_counter()
        if count is None:
            rec.close(end, {})
        else:
            values = [
                args[i] if i < len(args) else kwargs.get(p, default)
                for p, i, default in wanted
            ]
            rec.close(end, count(*values, result))
        return result

    return wrapper


def install(rec: Recorder, layers: Sequence[Layer] = LAYERS) -> Callable[[], None]:
    """Wrap every layer function; returns the function that unwraps them."""
    saved = []
    for layer in layers:
        original = layer.owner.__dict__[layer.attr]
        saved.append((layer.owner, layer.attr, original))
        setattr(layer.owner, layer.attr, _wrap(rec, layer, original))

    def uninstall() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return uninstall


def metric_names(layers: Sequence[Layer] = LAYERS) -> List[str]:
    """Every layer metric a traced call can report, present or not."""
    names = []
    for layer in layers:
        names += [f"{layer.name}.{q}" for q in ("self_s", "calls") + layer.quantities]
    return names
