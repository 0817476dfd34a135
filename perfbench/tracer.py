"""Spans around the public names one coptrans module imports from another.

The benchmark never edits the program. `install` rebinds names such as
`coptrans.clustering.sinkhorn_values_batch` to wrappers that record a span
(name, start, end, parent, info) in memory, and puts the originals back when
the block ends. A span's self time is its duration minus the time its child
spans cover; the run is single-threaded, so children never overlap.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    info: dict = field(default_factory=dict)
    end: float = 0.0
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Spans of one process, in the order they opened."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **info):
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, time.perf_counter(), parent, info)
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                self.spans[parent].child_s += rec.duration


def _record_batch(span, args, out):
    rs, cs, cost, cfg = args
    span.info.update(problems=len(rs), replay=(list(rs), list(cs), cost, cfg),
                     values=np.array(out, copy=True))


def _record_rounds(span, args, out):
    span.info["rounds"] = len(out.objective_trace)


# (module, attribute, span name, site, recorder). `site` names the module
# whose call the span stands for, so the CLI's own re-solve of
# distance_to_centroid stays apart from the library's batches.
PATCHES = (
    ("coptrans.cli", "load_csv", "formats", "cli", None),
    ("coptrans.cli", "write_csv_atomic", "formats", "cli", None),
    ("coptrans.cli", "write_cop", "formats", "cli", None),
    ("coptrans.cli", "write_heatmap", "formats", "cli", None),
    ("coptrans.cli", "write_run_manifest", "formats", "cli", None),
    ("coptrans.formats", "write_csv_atomic", "formats", "bench", None),
    ("coptrans.cli", "empirical_copula_from_data", "copula", "cli", None),
    ("coptrans.power", "empirical_copula_from_data", "copula", "power", None),
    ("coptrans.cli", "pairwise_distance_matrix", "transport.pairwise", "cli", None),
    ("coptrans.transport", "sinkhorn_values_batch", "transport.batch", "transport",
     _record_batch),
    ("coptrans.clustering", "sinkhorn_values_batch", "transport.batch", "clustering",
     _record_batch),
    ("coptrans.dependence", "sinkhorn_values_batch", "transport.batch", "dependence",
     _record_batch),
    ("coptrans.cli", "sinkhorn_values_batch", "transport.batch", "cli", _record_batch),
    ("coptrans.clustering", "wasserstein_barycenter", "transport.barycenter", "clustering",
     None),
    ("coptrans.cli", "cluster_copulas", "clustering", "cli", _record_rounds),
    ("coptrans.cli", "centroid_report", "clustering.report", "cli", None),
)


def _wrap(tracer: Tracer, fn, name: str, site: str, recorder):
    def wrapper(*args, **kwargs):
        with tracer.span(name, site=site) as rec:
            out = fn(*args, **kwargs)
            if recorder is not None:
                recorder(rec, args, out)
            return out

    wrapper.__wrapped__ = fn
    return wrapper


@contextmanager
def install(tracer: Tracer):
    """Rebind every name in PATCHES to a span-recording wrapper for the block."""
    saved = []
    try:
        for module_name, attr, name, site, recorder in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _wrap(tracer, original, name, site, recorder))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def replay(spans: list[Span], budget_s: float):
    """Re-solve recorded batches one problem at a time through `sinkhorn_distance`.

    Whole batch calls are replayed in the order they ran until `budget_s` is
    spent (at least one call). Returns (rows, replayed_calls, mismatches):
    one row (seconds, iterations, deficit mass, closure path) per problem,
    the batch spans replayed, and how many single-problem values differ in
    any bit from the batched value. The library promises that a result never
    depends on its batch mates, so every mismatch is an output failure.
    """
    from coptrans.transport import sinkhorn_distance

    rows, calls, mismatches, spent = [], [], 0, 0.0
    for span in spans:
        if span.name != "transport.batch" or "replay" not in span.info:
            continue
        if calls and spent >= budget_s:
            break
        rs, cs, cost, cfg = span.info["replay"]
        for r, c, batched in zip(rs, cs, span.info["values"]):
            t0 = time.perf_counter()
            value, plan, iters = sinkhorn_distance(r, c, cost, cfg)
            dt = time.perf_counter() - t0
            spent += dt
            deficit = float(plan.err_r.sum())
            if plan.correction is not None:
                closure = "lp"
            elif deficit > 1e-12 and float(plan.err_c.sum()) > 1e-12:
                closure = "rank1"
            else:
                closure = "none"
            rows.append((dt, iters, deficit, closure))
            mismatches += value != batched
        calls.append(span)
    return rows, calls, int(mismatches)


def _q(values, p):
    return float(np.percentile(values, p)) if len(values) else 0.0


def layer_metrics(spans: list[Span], first: int, reps: int, window_s: float,
                  replayed) -> dict:
    """Per-layer figures of one traced run, as {name: (value, unit)}.

    `spans[first:]` are the timed window's. Busy times and counts are per
    timed repetition of the workload body, so they do not grow with how many
    repetitions fit in the window. Copula figures also count the in-process
    set-up before `first`, where the power workload bins its target copulas,
    spread over the repetitions like the rest.
    """
    rows, calls, _ = replayed
    window = spans[first:]

    def named(name, site=None):
        return [s for s in window if s.name == name and (site is None or s.info["site"] == site)]

    def busy(sel):
        return sum(s.duration for s in sel) / reps

    def problems(span):  # a batch that raised recorded no problem count
        return span.info.get("problems", 0)

    batches = named("transport.batch")
    resolve = named("transport.batch", "cli")
    clusters = named("clustering")
    copulas = [s for s in spans if s.name == "copula"]
    tfdc_ms = [1e3 * s.duration for s in named("dependence.tfdc")]
    base_ms = [1e3 * s.duration for s in named("dependence.baseline")]
    replay_s = sum(r[0] for r in rows)
    iters = [r[1] for r in rows]
    deficits = [r[2] for r in rows]
    n_rows = max(len(rows), 1)
    roots = named("body")
    return {
        "transport.ms_per_iter": (1e3 * replay_s / max(sum(iters), 1), "ms"),
        "transport.batch_overhead": (
            sum(s.duration for s in calls) / replay_s if replay_s > 0 else 0.0, "ratio"),
        "transport.iters.p50": (_q(iters, 50), "count"),
        "transport.iters.p90": (_q(iters, 90), "count"),
        "transport.iters.max": (float(max(iters, default=0)), "count"),
        "transport.batch.calls": (len(batches) / reps, "count"),
        "transport.batch.problems": (sum(problems(s) for s in batches) / reps, "count"),
        "transport.batch.size_max": (float(max(map(problems, batches), default=0)), "count"),
        "transport.batch.busy_s": (busy(batches), "s"),
        "transport.deficit_mass.p50": (_q(deficits, 50), "mass"),
        "transport.deficit_mass.max": (float(max(deficits, default=0.0)), "mass"),
        "transport.closure.lp_frac": (sum(r[3] == "lp" for r in rows) / n_rows, "frac"),
        "transport.closure.rank1_frac": (sum(r[3] == "rank1" for r in rows) / n_rows, "frac"),
        "transport.barycenter.calls": (len(named("transport.barycenter")) / reps, "count"),
        "transport.barycenter.busy_s": (busy(named("transport.barycenter")), "s"),
        "clustering.rounds": (sum(s.info.get("rounds", 0) for s in clusters) / reps, "count"),
        "clustering.self_s": (sum(s.self_s for s in clusters) / reps, "s"),
        "clustering.report.busy_s": (busy(named("clustering.report")), "s"),
        "cli.resolve.problems": (sum(problems(s) for s in resolve) / reps, "count"),
        "cli.resolve.busy_s": (busy(resolve), "s"),
        "cli.self_s": (sum(s.self_s for s in roots) / reps, "s"),
        "copula.calls": (len(copulas) / reps, "count"),
        "copula.busy_s": (sum(s.duration for s in copulas) / reps, "s"),
        "dependence.tfdc.ms.p50": (_q(tfdc_ms, 50), "ms"),
        "dependence.tfdc.ms.p90": (_q(tfdc_ms, 90), "ms"),
        "dependence.baseline.ms.p50": (_q(base_ms, 50), "ms"),
        "power.estimate.busy_s": (busy(named("power.estimate")), "s"),
        "formats.busy_s": (busy(named("formats")), "s"),
        "trace.accounted_frac": (
            sum(s.self_s for s in window) / window_s if window_s > 0 else 0.0, "frac"),
    }
