"""Spans around the calls into each envcover module, taken from outside it.

The traced run swaps module-level names that envcover calls through for
wrappers that record a span (name, start, end, parent span, group) plus
counters read off the call's arguments, result or exception. The group is
shared by all spans of one benchmark iteration. Nothing inside ``src/`` is
changed: a name is wrapped where its caller looks it up, so ``scene.py``'s
own ``encode`` is wrapped at ``envcover.scene`` while ``solve_with_relaxation``
reaches the wrapped ``solve`` through ``envcover.solver``.

Spans stay in memory and are written out once, when the run ends. A layer's
self time is its span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import statistics
import time
import tracemalloc

from envcover import environment, metrics, pipeline, providers, scene, solver, trajectories, validator
from envcover.errors import SolverTimeout

# per-layer metric -> unit; "_s" metrics are self times of the span named
# by the part before "_s", the rest are counters summed over an iteration
PER_LAYER = {
    "pipeline.derive_s": "s",
    "pipeline.collect_s": "s",
    "pipeline.build_s": "s",
    "pipeline.validate_s": "s",
    "pipeline.simulate_s": "s",
    "pipeline.report_s": "s",
    "providers.replay_s": "s",
    "providers.exchanges": "count",
    "providers.cassette_loads": "count",
    "assets.retrieve_s": "s",
    "scene.compat_s": "s",
    "scene.revision_rounds": "count",
    "solver.encode_s": "s",
    "solver.search_s": "s",
    "solver.rungs": "count",
    "solver.assignments": "count",
    "solver.backtracks": "count",
    "solver.domain_values": "count",
    "solver.timeouts": "count",
    "solver.useful_ratio": "ratio",
    "environment.metadata_s": "s",
    "environment.serialize_s": "s",
    "environment.deserialize_s": "s",
    "environment.bytes": "bytes",
    "validator.validate_s": "s",
    "validator.failures": "count",
    "simulation.run_policy_s": "s",
    "simulation.runs": "count",
    "simulation.ticks": "count",
    "trajectories.enumerate_s": "s",
    "trajectories.select_s": "s",
    "trajectories.universe": "count",
    "trajectories.selected": "count",
    "trajectories.peak_alloc_mb": "MB",
    "metrics.coverage_s": "s",
    "trace.overhead_pct": "%",
}


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "group", "counts", "error")

    def __init__(self, sid, name, parent, group):
        self.id = sid
        self.name = name
        self.parent = parent
        self.group = group
        self.counts = {}
        self.error = ""
        self.start = time.perf_counter()
        self.end = self.start


class Tracer:
    """Records spans while installed; restores every wrapped name on uninstall."""

    def __init__(self):
        self.spans: list[Span] = []
        self.group = ""
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []
        self.last_path_sets = None  # input of the last trajectory enumeration

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else -1
        span = Span(len(self.spans), name, parent, self.group)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, count=None, on_error=None):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                if on_error is not None:
                    on_error(span.counts, exc)
                raise
            finally:
                tracer.close(span)
            if count is not None:
                count(span.counts, args, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for owner, attr, name, count, on_error in _targets(self):
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(name, fn, count, on_error))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    # -- results -----------------------------------------------------------

    def layer_metrics(self, groups: list[str]) -> dict[str, float]:
        """Median over ``groups`` of each per-layer metric's per-group total."""
        covered: dict[int, float] = {}
        for span in self.spans:
            if span.parent >= 0:
                covered[span.parent] = covered.get(span.parent, 0.0) + span.end - span.start
        totals = {g: {} for g in groups}
        for span in self.spans:
            bucket = totals.get(span.group)
            if bucket is None:
                continue
            key = span.name + "_s"
            bucket[key] = bucket.get(key, 0.0) + (span.end - span.start) - covered.get(span.id, 0.0)
            for counter, value in span.counts.items():
                bucket[counter] = bucket.get(counter, 0) + value
        for bucket in totals.values():
            assignments = bucket.get("solver.assignments", 0)
            bucket["solver.useful_ratio"] = (
                bucket.get("solver.sat_variables", 0) / assignments if assignments else 0.0
            )
        return {
            metric: statistics.median(totals[g].get(metric, 0) for g in groups)
            for metric in PER_LAYER
            if metric not in ("trajectories.peak_alloc_mb", "trace.overhead_pct")
        }

    def trajectories_peak_alloc_mb(self) -> float:
        """Peak traced allocation of re-running the last enumeration and selection.

        Runs once, outside the timed iterations, because tracemalloc slows
        every allocation it watches. Returns 0.0 when nothing enumerated.
        """
        if self.last_path_sets is None:
            return 0.0
        tracemalloc.start()
        try:
            universe = trajectories.cartesian_trajectories(self.last_path_sets)
            trajectories.minimal_trajectory_selection(universe)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def dump(self, path) -> None:
        fields = Span.__slots__
        rows = [[getattr(span, f) for f in fields] for span in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": fields, "spans": rows}, fh)
            fh.write("\n")


def _targets(tracer: Tracer):
    """(owner, attribute, span name, count, on_error) for every wrapped name."""

    def one(counter):
        return lambda c, args, result: c.__setitem__(counter, 1)

    def solve_stats(c, args, result):
        c["solver.rungs"] = 1
        c["solver.assignments"] = result.stats.get("assignments", 0)
        c["solver.backtracks"] = result.stats.get("backtracks", 0)
        if result.status == "sat":
            c["solver.sat_variables"] = len(result.assignments)

    def solve_error(c, exc):
        c["solver.rungs"] = 1
        if isinstance(exc, SolverTimeout):
            c["solver.timeouts"] = 1

    def domain_values(c, args, problem):
        c["solver.domain_values"] = sum(len(d) for d in problem.domains.values())

    def enumerated(c, args, result):
        tracer.last_path_sets = args[0]
        c["trajectories.universe"] = len(result)

    def policy_run(c, args, outcome):
        c["simulation.runs"] = 1
        c["simulation.ticks"] = outcome.ticks

    out = [(pipeline, f"stage_{s}", f"pipeline.{s}", None, None)
           for s in ("derive", "collect", "build", "validate", "simulate", "report")]
    out += [
        (providers, "load_cassette", "providers.replay", one("providers.cassette_loads"), None),
        (providers.ReplayChannel, "send", "providers.replay", one("providers.exchanges"), None),
        (scene, "retrieve_asset", "assets.retrieve", None, None),
        (scene, "compatibility_conflicts", "scene.compat", None, None),
        (pipeline, "build_environment", "scene.build",
         lambda c, a, r: c.__setitem__("scene.revision_rounds", r.revision_rounds), None),
        (solver, "solve", "solver.search", solve_stats, solve_error),
        (pipeline, "deserialize_environment", "environment.deserialize", None, None),
        (pipeline, "run_policy", "simulation.run_policy", policy_run, None),
        (pipeline, "cartesian_trajectories", "trajectories.enumerate", enumerated, None),
        (pipeline, "minimal_trajectory_selection", "trajectories.select",
         lambda c, a, r: c.__setitem__("trajectories.selected", len(r)), None),
    ]
    # names both a stage module and the benchmark's own code call through
    for owner in (scene, solver):
        out.append((owner, "encode", "solver.encode", domain_values, None))
        out.append((owner, "solve_with_relaxation", "solver.relax", None, None))
    for owner in (scene, environment):
        out.append((owner, "rebuild_metadata", "environment.metadata", None, None))
    for owner in (pipeline, environment):
        out.append((owner, "serialize_environment", "environment.serialize",
                    lambda c, a, r: c.__setitem__("environment.bytes", len(r)), None))
    for owner in (pipeline, validator):
        out.append((owner, "validate_physics", "validator.validate",
                    lambda c, a, r: c.__setitem__("validator.failures", len(r.failures)), None))
    for owner in (pipeline, metrics):
        for attr in ("logic_coverage", "logic_coverage_atomic", "selection_jaccard"):
            out.append((owner, attr, "metrics.coverage", None, None))
    return out
