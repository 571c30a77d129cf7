"""Which entry points the traced run wraps, and the per-layer metrics
derived from their spans.

Every layer boundary of the two end-to-end paths -- ``Planner.plan``
and the ``PlacementDaemon`` loop -- is a public function or method of
the program.  :func:`install` wraps each one where its callers look it
up: ``repro.engine`` imports the phase helpers into its own namespace,
``phase1_facility_copies`` finds ``related_facility_problem`` in
``repro.core.approx`` and that one finds ``facility_candidate_set`` in
``repro.facility.problem``, and the phase-1 solver is called through
the ``FL_SOLVERS`` table.
"""

from __future__ import annotations

import itertools
import math
import statistics
from collections import defaultdict

from tracer import covered_length, self_times

__all__ = ["LAYER_METRICS", "coverage", "install", "layer_metrics", "queue_publish"]

#: Every per-layer metric a traced run reports, with its unit.  A layer a
#: workload does not run reports 0 (the pool on a serial plan, the daemon
#: on a catalog plan).
LAYER_METRICS = {
    "metric.build_s": "s",
    "metric.query_s": "s",
    "metric.rows_computed": "count",
    "metric.cache_hit_rate": "ratio",
    "metric.pinned_rows": "count",
    "instance.build_s": "s",
    "phase1.candidates_s": "s",
    "phase1.problem_s": "s",
    "phase1.ufl_s": "s",
    "phase1.calls": "count",
    "phase1.facilities_opened": "count",
    "phase1.ufl_cells": "count",
    "radii.sweep_s": "s",
    "radii.calls": "count",
    "radii.rows_computed": "count",
    "phase2.sweep_s": "s",
    "phase2.copies_added": "count",
    "phase3.sweep_s": "s",
    "phase3.copies_dropped": "count",
    "engine.self_s": "s",
    "engine.chunks": "count",
    "pool.publish_s": "s",
    "pool.first_result_s": "s",
    "pool.wait_s": "s",
    "pool.worker_cpu_s": "s",
    "pool.worker_peak_rss_mb": "MB",
    "bill.placement_s": "s",
    "bill.requests_s": "s",
    "bill.migration_s": "s",
    "bill.copies_added": "count",
    "bill.copies_dropped": "count",
    "replay.log_build_s": "s",
    "replay.init_s": "s",
    "replay.run_s": "s",
    "replay.events": "count",
    "drift.detect_s": "s",
    "drift.dirty_objects": "count",
    "serve.ingest_ms_p50": "ms",
    "serve.ingest_events_per_s": "1/s",
    "serve.seal_ms_p50": "ms",
    "serve.solve_s": "s",
    "serve.queue_publish_s": "s",
    "serve.replaced_objects": "count",
    "serve.lookups": "count",
    "serve.lookup_cold_us_p50": "us",
    "serve.lookup_warm_us_p50": "us",
    "serve.lookup_late_ms_p99": "ms",
    "host.steal_pct": "%",
    "trace.overhead_pct": "%",
    "trace.coverage": "ratio",
}

#: Engine spans are the engine's own glue around the layers it calls; on
#: the pool path the stream span is the pool layer instead.
_ENGINE = ("engine.place", "engine.place_subset", "engine.place_objects", "engine.stream")


def install(tracer) -> set[int]:
    """Wrap every layer's entry points; returns the set that collects the
    distinct candidate facilities phase 1 pins (filled while tracing)."""
    from repro import engine, facility
    from repro.core import approx, instance
    from repro.costmodel import KRWCostModel
    from repro.facility import problem
    from repro.graphs.backend import LazyMetric
    from repro.graphs.metric import Metric
    from repro.serve import PlacementDaemon, ServingState
    from repro.simulate.events import RequestLog
    from repro.simulate.simulator import NetworkSimulator
    from repro.workloads.drift import DriftTracker

    pinned: set[int] = set()
    chunk_ids = itertools.count()
    lookup_ids = itertools.count()

    def rows_before(args, kwargs):
        return getattr(args[0], "rows_computed", 0)

    def rows_after(before, args, kwargs, result):
        return {"rows": getattr(args[0], "rows_computed", 0) - before}

    def problem_after(_, args, kwargs, fl):
        if fl.facility_nodes is not None and tracer.phase != "setup":
            pinned.update(fl.facility_nodes.tolist())
        return {"cells": fl.dist.size}

    def stream_after(_, args, kwargs, result):
        eng = args[0]
        return {"chunk_size": eng.chunk_size, "jobs": eng.jobs}

    w = tracer.wrap
    w(Metric, "from_graph", "metric.build")
    w(LazyMetric, "from_graph", "metric.build")
    for name in ("row", "rows", "dist_to_set", "nearest_in_set"):
        w(LazyMetric, name, "metric.query")
    w(instance.DataManagementInstance, "__init__", "instance.build")
    w(problem, "facility_candidate_set", "phase1.candidates")
    w(approx, "related_facility_problem", "phase1.problem", after=problem_after)
    w(facility.FL_SOLVERS, "local_search", "phase1.ufl")
    w(engine, "phase1_facility_copies", "phase1.facility",
      after=lambda _, a, k, r: {"opened": len(r)})
    w(engine, "radii_for_objects", "radii.sweep", before=rows_before, after=rows_after)
    w(engine, "phase2_add_copies", "phase2.sweep",
      after=lambda _, a, k, r: {"added": len(r) - len(set(a[1]))})
    w(engine, "phase3_delete_copies", "phase3.sweep",
      after=lambda _, a, k, r: {"dropped": len(set(a[1])) - len(r)})
    w(engine.PlacementEngine, "place", "engine.place")
    w(engine.PlacementEngine, "place_subset", "engine.place_subset")
    w(engine.PlacementEngine, "stream", "engine.stream", after=stream_after)
    w(engine.PlacementEngine, "place_objects", "engine.place_objects",
      request=lambda: f"chunk{next(chunk_ids)}")
    w(engine, "publish_instance", "pool.publish")
    w(KRWCostModel, "bill_placement", "bill.placement")
    w(KRWCostModel, "bill_requests", "bill.requests")
    w(KRWCostModel, "bill_migration", "bill.migration",
      after=lambda _, a, k, r: {"added": r.added, "dropped": r.dropped})
    w(RequestLog, "from_frequencies", "replay.log_build")
    w(NetworkSimulator, "__init__", "replay.init")
    w(NetworkSimulator, "run", "replay.run", after=lambda _, a, k, r: {"events": len(a[2])})
    w(DriftTracker, "drifted", "drift.detect", after=lambda _, a, k, r: {"dirty": r.size})
    w(PlacementDaemon, "ingest", "serve.ingest", after=lambda _, a, k, r: {"events": r["events"]})
    w(PlacementDaemon, "end_epoch", "serve.seal")
    # PlacementDaemon.lookup is a one-line delegation to the published
    # snapshot's lookup; wrapping the snapshot covers the daemon's
    # lookups and the catalog workloads' lookups against a plan alike.
    w(ServingState, "lookup", "serve.lookup", request=lambda: f"lookup{next(lookup_ids)}")
    return pinned


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _pool_streams(spans):
    """Stream spans that fanned chunks out to the pool: no chunk was
    placed in-process under them."""
    in_process = {s.parent for s in spans if s.name == "engine.place_objects"}
    return [
        s for s in spans
        if s.name == "engine.stream" and s.counts.get("jobs", 1) > 1
        and s.id not in in_process and s.counts.get("items", 0) > 0
    ]


def coverage(spans, windows, thread, *, same_thread: bool) -> float:
    """Share of the ``windows`` covered by layer spans.

    Layer spans are every span but the engine's glue; a pool stream
    counts as the pool layer.  ``same_thread`` picks the spans of
    ``thread`` (a batch plan) or of every other thread (the daemon's
    replan worker, while the foreground issues lookups).
    """
    pool = {s.id for s in _pool_streams(spans)}
    layer = [
        (s.start, s.end) for s in spans
        if (s.name not in _ENGINE or s.id in pool)
        and (s.thread == thread) == same_thread
    ]
    total = sum(hi - lo for lo, hi in windows)
    if total <= 0:
        return 0.0
    return sum(covered_length(lo, hi, layer) for lo, hi in windows) / total


def layer_metrics(spans, extra: dict) -> dict[str, float]:
    """Per-layer values from the spans of a traced run.

    Times are self times summed over the run's timed work (spans of the
    ``setup`` phase excluded); ``metric.build_s`` and ``instance.build_s``
    are the median of one build.  ``extra`` carries what the workload
    measured itself (lookups, pool rusage, host steal, daemon records);
    its keys override the span-derived values.
    """
    own = self_times(spans)
    work = [s for s in spans if s.phase != "setup"]

    def self_sum(name):
        return sum(own[s.id] for s in work if s.name == name)

    def count(name):
        return sum(1 for s in work if s.name == name)

    def counted(name, key):
        return sum(s.counts.get(key, 0) for s in work if s.name == name)

    pool = _pool_streams(work)
    pool_children = {s.id: 0.0 for s in pool}
    engine_glue = [s for s in work if s.name in _ENGINE and s.id not in pool_children]
    for s in work:
        if s.parent in pool_children:
            pool_children[s.parent] += s.duration
    ingest = [s for s in work if s.name == "serve.ingest"]
    ingest_time = sum(s.duration for s in ingest)
    out = {name: 0.0 for name in LAYER_METRICS}
    out.update({
        "metric.build_s": _median(s.duration for s in spans if s.name == "metric.build"),
        "metric.query_s": self_sum("metric.query"),
        "instance.build_s": _median(
            s.duration for s in spans if s.name == "instance.build"
        ),
        "phase1.candidates_s": self_sum("phase1.candidates"),
        "phase1.problem_s": self_sum("phase1.problem"),
        "phase1.ufl_s": self_sum("phase1.ufl"),
        "phase1.calls": count("phase1.facility"),
        "phase1.facilities_opened": counted("phase1.facility", "opened"),
        "phase1.ufl_cells": counted("phase1.problem", "cells"),
        "radii.sweep_s": self_sum("radii.sweep"),
        "radii.calls": count("radii.sweep"),
        "radii.rows_computed": counted("radii.sweep", "rows"),
        "phase2.sweep_s": self_sum("phase2.sweep"),
        "phase2.copies_added": counted("phase2.sweep", "added"),
        "phase3.sweep_s": self_sum("phase3.sweep"),
        "phase3.copies_dropped": counted("phase3.sweep", "dropped"),
        "engine.self_s": sum(own[s.id] for s in engine_glue),
        "engine.chunks": count("engine.place_objects") + sum(
            math.ceil(s.counts["items"] / s.counts["chunk_size"]) for s in pool
        ),
        "pool.publish_s": sum(s.duration for s in work if s.name == "pool.publish"),
        "pool.first_result_s": sum(s.first_item - s.start for s in pool),
        "pool.wait_s": sum(s.inside - pool_children[s.id] for s in pool),
        "bill.placement_s": self_sum("bill.placement"),
        "bill.requests_s": self_sum("bill.requests"),
        "bill.migration_s": self_sum("bill.migration"),
        "bill.copies_added": counted("bill.migration", "added"),
        "bill.copies_dropped": counted("bill.migration", "dropped"),
        "replay.log_build_s": self_sum("replay.log_build"),
        "replay.init_s": self_sum("replay.init"),
        "replay.run_s": self_sum("replay.run"),
        "replay.events": counted("replay.run", "events"),
        "drift.detect_s": self_sum("drift.detect"),
        "drift.dirty_objects": counted("drift.detect", "dirty"),
        "serve.ingest_ms_p50": 1e3 * _median(s.duration for s in ingest),
        "serve.ingest_events_per_s": (
            counted("serve.ingest", "events") / ingest_time if ingest_time else 0.0
        ),
        "serve.seal_ms_p50": 1e3 * _median(
            s.duration for s in work if s.name == "serve.seal"
        ),
    })
    out.update(extra)
    return out


def queue_publish(spans, epochs, thread) -> float:
    """Mean per-epoch time the replan worker ran no layer: from the seal
    returning to its first span, and from its last span ending to the
    new generation being visible.  ``epochs`` holds ``(request id,
    sealed at, visible at)``."""
    by_request = defaultdict(list)
    for s in spans:
        if s.thread != thread:
            by_request[s.request].append(s)
    gaps = []
    for request, sealed, visible in epochs:
        mine = by_request[request]
        if not mine:
            gaps.append(visible - sealed)
            continue
        first = min(s.start for s in mine)
        last = max(s.end for s in mine)
        gaps.append(max(first - sealed, 0.0) + max(visible - last, 0.0))
    return sum(gaps) / len(gaps) if gaps else 0.0
