"""Span tracing of one pilotpath process, patched in from outside.

The tracer replaces functions at the names their callers look up (for
example `cli.run_walk`, `verify.run_walk` and the module attribute
`kernels.transport`) with wrappers that record a span per call: name,
start, end, parent span and run id, plus the rise of the process's peak
RSS across the call and a few counters read from arguments and results.
Nothing inside `src/` is edited; `Tracer.patched` restores every name on
exit.  A name that no longer exists is skipped and its metrics are
reported as absent, so the benchmark keeps running while functions are
renamed or deleted.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import resource
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

MIB = float(1 << 20)


def maxrss_mb() -> float:
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------------
# Counters read at span boundaries; each returns a dict of additive counts.


def _bound(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _walk_counts(fn, args, kwargs, result) -> dict:
    return {"layers": int(result.n_layers)}


def _ensemble_counts(fn, args, kwargs, result) -> dict:
    return {"n_paths": int(result.n_paths), "pair_count": int(result.pair_count)}


def _transport_counts(fn, args, kwargs, result) -> dict:
    call = _bound(fn, args, kwargs)
    records, frozen = result
    n = int(call["x0"].shape[0])
    layers = int(call["values"].shape[0]) - 1
    return {
        "trajectories": n,
        "substeps": n * layers * int(call["substeps"]),
        # computed from the record shape, not measured: n x n_rec x 8 bytes
        "records_bytes": n * int(records.shape[1]) * 8,
        "frozen": int((frozen >= 0).sum()),
    }


def _replay_counts(fn, args, kwargs, result) -> dict:
    return {
        "excluded": int(result.total_excluded),
        "replayed": sum(int(d.shape[0]) for d in result.deviations.values()),
    }


def _crossing_counts(fn, args, kwargs, result) -> dict:
    return {"events": len(result.events), "violations": int(result.violations)}


def _check_counts(fn, args, kwargs, result) -> dict:
    run = [c for c in result.checks if not c.skipped]
    return {"checks_run": len(run), "checks_passed": sum(1 for c in run if c.passed)}


def _csv_counts(fn, args, kwargs, result) -> dict:
    return {"csv_bytes": os.path.getsize(_bound(fn, args, kwargs)["path"])}


# (where the caller looks the function up, span name, counter)
SITES = [
    ("pilotpath.cli:load_scenario", "scenario.load_scenario", None),
    ("pilotpath.cli:build_walk", "scenario.build_walk", None),
    ("pilotpath.verify:build_walk", "scenario.build_walk", None),
    ("pilotpath.scenario:WalkSystem.path_context", "scenario.path_context", None),
    ("pilotpath.cli:run_walk", "dirac.run_walk", _walk_counts),
    ("pilotpath.verify:run_walk", "dirac.run_walk", _walk_counts),
    ("pilotpath.circuit:apply_layer", "circuit.apply_layer", None),
    ("pilotpath.paths:enumerate_all", "paths.enumerate_all", _ensemble_counts),
    ("pilotpath.paths:overlap_table", "paths.overlap_table", None),
    ("pilotpath.paths:path_sum_current", "paths.path_sum_current", None),
    ("pilotpath.paths:direct_state", "paths.direct_state", None),
    ("pilotpath.cli:sample_joint_density", "guidance.sample_joint_density", None),
    ("pilotpath.protocols:sample_joint_density", "guidance.sample_joint_density", None),
    ("pilotpath.cli:integrate_batch", "guidance.integrate_batch", None),
    ("pilotpath.verify:integrate_batch", "guidance.integrate_batch", None),
    ("pilotpath.protocols:integrate_batch", "guidance.integrate_batch", None),
    ("pilotpath.cli:equivariance_test", "guidance.equivariance_test", None),
    ("pilotpath.verify:equivariance_test", "guidance.equivariance_test", None),
    ("pilotpath.protocols:equivariance_test", "guidance.equivariance_test", None),
    ("pilotpath.kernels:transport", "kernels.transport", _transport_counts),
    ("pilotpath.cli:retro_run", "protocols.retro_run", None),
    ("pilotpath.cli:superdet_replay", "protocols.superdet_replay", _replay_counts),
    ("pilotpath.cli:build_tracks", "protocols.build_tracks", None),
    ("pilotpath.cli:detect_crossings", "protocols.detect_crossings", _crossing_counts),
    ("pilotpath.cli:run_verification", "verify.run_verification", _check_counts),
    ("pilotpath.exports:write_currents_csv", "exports.write_csv", _csv_counts),
    ("pilotpath.exports:write_overlap_csv", "exports.write_csv", _csv_counts),
    ("pilotpath.exports:write_trajectories_csv", "exports.write_csv", _csv_counts),
    ("pilotpath.exports:write_branch_edges_csv", "exports.write_csv", _csv_counts),
    ("pilotpath.exports:write_json", "exports.write_json", None),
]

# The benchmark opens this span itself around each `cli.main` call.
ROOT = "cli.command"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: int
    rss_step_mb: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _resolve(target: str):
    """(owner, attribute) for 'module:Attr.attr', or None if a name is gone."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    """Keeps spans in memory; `run` tags the spans of one CLI invocation."""

    def __init__(self, sites=SITES):
        self.sites = sites
        self.spans: list[Span] = []
        self.run = 0
        self.missing: list[str] = []
        self.counter_errors: set[str] = set()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append(Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.run))
        self._stack.append(idx)
        rss0 = maxrss_mb()
        self.spans[idx].start = time.perf_counter()
        try:
            yield self.spans[idx]
        finally:
            rec = self.spans[idx]
            rec.end = time.perf_counter()
            rec.rss_step_mb = maxrss_mb() - rss0
            self._stack.pop()

    def wrap(self, fn, name: str, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if counter is not None:
                try:
                    rec.counts = counter(fn, args, kwargs, result)
                except (AttributeError, KeyError, TypeError, IndexError, ValueError, OSError):
                    # A changed signature or result loses the counts, not the run.
                    self.counter_errors.add(name)
            return result

        return traced

    @contextmanager
    def patched(self):
        """Install every site that still exists; restore all names on exit."""
        saved = []
        self.missing = []
        try:
            for target, name, counter in self.sites:
                found = _resolve(target)
                if found is None:
                    self.missing.append(target)
                    continue
                owner, attr = found
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, counter))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def absent_spans(self) -> set[str]:
        """Span names none of whose call sites could be patched."""
        present = {name for target, name, _ in self.sites if target not in self.missing}
        return {name for _, name, _ in self.sites} - present


# ----------------------------------------------------------------------------
# From spans to per-layer metrics


def _covered(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


@dataclass
class LayerStat:
    total_s: float = 0.0
    self_s: float = 0.0
    calls: int = 0
    rss_step_mb: float = 0.0
    counts: Counter = field(default_factory=Counter)


def layer_stats(spans: list[Span], run: int) -> dict[str, LayerStat]:
    """Sums per span name over one run; self time excludes child-covered time.

    `spans` is a tracer's whole span list, since parents index into it.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.run == run and s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    stats: dict[str, LayerStat] = {}
    for i, s in enumerate(spans):
        if s.run != run:
            continue
        st = stats.setdefault(s.name, LayerStat())
        st.total_s += s.duration
        st.self_s += s.duration - _covered(children.get(i, []))
        st.calls += 1
        st.rss_step_mb += s.rss_step_mb
        st.counts.update(s.counts)
    return stats


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


@dataclass(frozen=True)
class LayerMetric:
    """One per-layer metric, read from the stats of a single span name.

    counted: read from counters, absent when the counter could not be read.
    first_run: a peak-RSS step, read from the first invocation of a fresh
    process only (later invocations cannot raise the peak again).
    """

    name: str
    unit: str
    better: str
    span: str
    value: Callable[[LayerStat], float]
    counted: bool = False
    first_run: bool = False


def _time(name, span):
    return LayerMetric(name, "s", "lower", span, lambda st: st.total_s)


def _self(name, span):
    return LayerMetric(name, "s", "lower", span, lambda st: st.self_s)


def _count(name, span, key, better="lower"):
    return LayerMetric(name, "count", better, span, lambda st: st.counts[key], counted=True)


def _rss(name, span):
    return LayerMetric(name, "MiB", "lower", span, lambda st: st.rss_step_mb, first_run=True)


PER_LAYER = [
    _time("scenario.load_scenario.s", "scenario.load_scenario"),
    _time("scenario.build_walk.s", "scenario.build_walk"),
    _time("scenario.path_context.s", "scenario.path_context"),
    _time("dirac.run_walk.s", "dirac.run_walk"),
    LayerMetric("dirac.run_walk.calls", "count", "lower", "dirac.run_walk", lambda st: st.calls),
    LayerMetric(
        "dirac.run_walk.ms_per_layer", "ms", "lower", "dirac.run_walk",
        lambda st: 1e3 * _ratio(st.total_s, st.counts["layers"]), counted=True,
    ),
    _rss("dirac.run_walk.rss_step_mb", "dirac.run_walk"),
    _time("circuit.apply_layer.s", "circuit.apply_layer"),
    _time("paths.enumerate_all.s", "paths.enumerate_all"),
    _time("paths.overlap_table.s", "paths.overlap_table"),
    _time("paths.path_sum_current.s", "paths.path_sum_current"),
    _time("paths.direct_state.s", "paths.direct_state"),
    _count("paths.n_paths", "paths.enumerate_all", "n_paths"),
    _count("paths.pair_count", "paths.enumerate_all", "pair_count"),
    _time("guidance.sample_joint_density.s", "guidance.sample_joint_density"),
    _rss("guidance.sample_joint_density.rss_step_mb", "guidance.sample_joint_density"),
    _self("guidance.integrate_batch.self_s", "guidance.integrate_batch"),
    _time("guidance.equivariance_test.s", "guidance.equivariance_test"),
    _time("kernels.transport.s", "kernels.transport"),
    LayerMetric("kernels.transport.calls", "count", "lower", "kernels.transport", lambda st: st.calls),
    _count("kernels.substeps", "kernels.transport", "substeps"),
    LayerMetric(
        "kernels.msubsteps_per_s", "M/s", "higher", "kernels.transport",
        lambda st: 1e-6 * _ratio(st.counts["substeps"], st.total_s), counted=True,
    ),
    LayerMetric(
        "kernels.records_mb", "MiB", "lower", "kernels.transport",
        lambda st: st.counts["records_bytes"] / MIB, counted=True,
    ),
    LayerMetric(
        "kernels.frozen_frac", "ratio", "lower", "kernels.transport",
        lambda st: _ratio(st.counts["frozen"], st.counts["trajectories"]), counted=True,
    ),
    _self("protocols.retro_run.self_s", "protocols.retro_run"),
    _self("protocols.superdet_replay.self_s", "protocols.superdet_replay"),
    LayerMetric(
        "protocols.excluded_frac", "ratio", "lower", "protocols.superdet_replay",
        lambda st: _ratio(st.counts["excluded"], st.counts["replayed"]), counted=True,
    ),
    _time("protocols.build_tracks.s", "protocols.build_tracks"),
    _time("protocols.detect_crossings.s", "protocols.detect_crossings"),
    _count("protocols.crossing_events", "protocols.detect_crossings", "events"),
    _count("protocols.crossing_violations", "protocols.detect_crossings", "violations"),
    _self("verify.run_verification.self_s", "verify.run_verification"),
    LayerMetric(
        "verify.checks_passed_frac", "ratio", "higher", "verify.run_verification",
        lambda st: _ratio(st.counts["checks_passed"], st.counts["checks_run"]), counted=True,
    ),
    _time("exports.write_csv.s", "exports.write_csv"),
    LayerMetric(
        "exports.csv_mb", "MiB", "lower", "exports.write_csv",
        lambda st: st.counts["csv_bytes"] / MIB, counted=True,
    ),
    LayerMetric(
        "exports.csv_mb_per_s", "MiB/s", "higher", "exports.write_csv",
        lambda st: _ratio(st.counts["csv_bytes"] / MIB, st.total_s), counted=True,
    ),
    _time("exports.write_json.s", "exports.write_json"),
    _self("cli.command.self_s", ROOT),
]

# Traced minus untraced median wall time of the same invocation, in seconds.
OVERHEAD = "trace.overhead_s"
