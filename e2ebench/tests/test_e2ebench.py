"""Self-tests of the benchmark's own code: span arithmetic, wrapping and
restoring the program's entry points, tracing transparency, and the
metric names the benchmark declares."""

from __future__ import annotations

import inspect
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import cases  # noqa: E402
import layers  # noqa: E402
from tracer import Span, Tracer, covered_length, self_times  # noqa: E402

from repro import DataManagementInstance, PlanConfig, Planner, graphs, workloads  # noqa: E402


def _span(id, start, end, parent=None):
    span = Span(id, f"s{id}", start, parent, 0, None, None)
    span.end = end
    return span


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------
def test_self_time_subtracts_nested_children():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 3.0, parent=0),
        _span(2, 5.0, 6.0, parent=0),
        _span(3, 1.5, 2.0, parent=1),  # grandchild: counted in span 1 only
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 2.0 - 1.0)
    assert own[1] == pytest.approx(2.0 - 0.5)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(0.5)


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 2.0, 5.0, parent=0),
        _span(2, 4.0, 7.0, parent=0),  # overlaps span 1 on [4, 5]
        _span(3, 4.5, 4.8, parent=0),  # inside both
        _span(4, 9.0, 12.0, parent=0),  # runs past its parent's end
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - (7.0 - 2.0) - (10.0 - 9.0))


def test_covered_length_of_disjoint_and_clipped_intervals():
    assert covered_length(0.0, 10.0, []) == 0.0
    assert covered_length(0.0, 10.0, [(1, 2), (3, 4)]) == pytest.approx(2.0)
    assert covered_length(0.0, 10.0, [(-5, 1), (9, 15)]) == pytest.approx(2.0)
    assert covered_length(0.0, 10.0, [(2, 8), (3, 4), (1, 3)]) == pytest.approx(7.0)


# ----------------------------------------------------------------------
# wrapping
# ----------------------------------------------------------------------
def test_install_then_restore_puts_every_entry_point_back():
    tracer = Tracer()
    layers.install(tracer)
    patched = list(tracer._patches)
    try:
        assert len(patched) >= 25
        for owner, attr, _ in patched:
            current = owner[attr] if isinstance(owner, dict) else inspect.getattr_static(owner, attr)
            assert getattr(current, "__wrapped__", None) is not None or isinstance(
                current, (classmethod, staticmethod)
            ), (owner, attr)
    finally:
        tracer.restore()
    for owner, attr, original in patched:
        current = owner[attr] if isinstance(owner, dict) else inspect.getattr_static(owner, attr)
        assert current is original, (owner, attr)
    assert tracer._patches == []


def test_wrap_keeps_descriptor_kinds_and_restores_inherited_attributes():
    class Base:
        @classmethod
        def make(cls):
            return cls

        @staticmethod
        def const():
            return 3

        def method(self):
            return "base"

    class Child(Base):
        pass

    tracer = Tracer()
    tracer.wrap(Base, "make", "make")
    tracer.wrap(Base, "const", "const")
    tracer.wrap(Child, "method", "method")
    try:
        assert Child.make() is Child
        assert Base.const() == 3
        assert Child().method() == "base"
        assert [s.name for s in tracer.spans] == ["make", "const", "method"]
    finally:
        tracer.restore()
    assert "method" not in vars(Child)
    assert isinstance(vars(Base)["make"], classmethod)
    assert isinstance(vars(Base)["const"], staticmethod)


def test_generator_span_is_parent_of_work_done_while_iterating():
    def leaf():
        return 1

    def produce():
        for _ in range(3):
            yield ns.leaf()

    class NS:
        pass

    ns = NS()
    ns.leaf = leaf
    ns.produce = produce
    tracer = Tracer()
    tracer.wrap(ns.__dict__, "leaf", "leaf")
    tracer.wrap(ns.__dict__, "produce", "produce")
    try:
        assert list(ns.produce()) == [1, 1, 1]
    finally:
        tracer.restore()
    outer = [s for s in tracer.spans if s.name == "produce"]
    inner = [s for s in tracer.spans if s.name == "leaf"]
    assert len(outer) == 1 and len(inner) == 3
    assert all(s.parent == outer[0].id for s in inner)
    assert outer[0].counts["items"] == 3


# ----------------------------------------------------------------------
# tracing does not change what the program computes
# ----------------------------------------------------------------------
def _small_catalog(seed=3):
    graph = graphs.sized_transit_stub_graph(120, seed=seed)
    metric = graphs.Metric.from_graph(graph)
    inst = workloads.make_instance(
        metric, seed=seed, num_objects=12, demand_model="catalog",
        write_fraction=0.1, storage_price=20.0,
    )
    return graph, inst


def test_traced_plan_matches_untraced_plan():
    graph, inst = _small_catalog()
    planner = Planner(PlanConfig(chunk_size=5))

    def plan():
        metric = graphs.LazyMetric.from_graph(graph)
        return planner.plan(
            DataManagementInstance(metric, inst.storage_costs, inst.read_freq, inst.write_freq)
        )

    untraced = plan()
    tracer = Tracer()
    layers.install(tracer)
    try:
        tracer.phase = tracer.request = "plan"
        traced = plan()
    finally:
        tracer.restore()
    assert traced.placement == untraced.placement
    assert traced.cost.total == untraced.cost.total
    names = {s.name for s in tracer.spans}
    assert {"phase1.facility", "radii.sweep", "phase3.sweep", "engine.place_objects",
            "metric.query", "bill.placement"} <= names
    chunks = {s.request for s in tracer.spans if s.name == "engine.place_objects"}
    assert len(chunks) == 3  # 12 objects in chunks of 5, one request each
    values = layers.layer_metrics(tracer.spans, {})
    assert values["phase1.calls"] == sum(inst.total_requests(o) > 0 for o in range(12))
    assert values["engine.chunks"] == 3


def test_traced_daemon_matches_untraced_daemon():
    graph, _ = _small_catalog()
    n = graph.number_of_nodes()
    wl = workloads.drifting_zipf_catalog(n, 10, epochs=3, seed=5, drift=0.2, redraw="changed")
    costs = workloads.uniform_storage_costs(n, 20.0)
    planner = Planner(PlanConfig(replan_mode="incremental"))

    def serve():
        with planner.serve(graph, costs, 10) as daemon:
            for e in range(wl.num_epochs):
                daemon.ingest(wl.epoch_log(e, seed=e))
                daemon.end_epoch()
            answer = daemon.lookup(0, 1)
            return daemon.stats()["total_cost"], daemon.snapshot().copy_sets, answer

    untraced = serve()
    tracer = Tracer()
    layers.install(tracer)
    try:
        traced = serve()
    finally:
        tracer.restore()
    assert traced == untraced
    names = {s.name for s in tracer.spans}
    assert {"serve.ingest", "serve.seal", "drift.detect", "engine.place_subset",
            "bill.migration", "replay.run", "serve.lookup"} <= names


# ----------------------------------------------------------------------
# the declared metrics
# ----------------------------------------------------------------------
def test_metric_names_and_units_match_the_benchmark_file():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    name_ok = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    unit_ok = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == cases.END_TO_END
    assert per_layer == layers.LAYER_METRICS
    for name, unit in {**e2e, **per_layer}.items():
        assert name_ok.fullmatch(name), name
        assert unit_ok.fullmatch(unit), (name, unit)
    assert [w["name"] for w in spec["workloads"]] == list(cases.WORKLOADS)


def test_lookup_check_flags_wrong_replicas_and_distances():
    graph, inst = _small_catalog()
    from repro.serve import ServingState

    state = ServingState(metric=inst.metric, copy_sets=((0, 5),), generation=1, epoch=1)
    good = state.lookup(0, 7)
    assert cases._check_lookups(inst.metric, [good]) == 0
    far = type(good)(**{**good.__dict__, "distance": good.distance + 1.0})
    stranger = type(good)(**{**good.__dict__, "replica": 6})
    assert cases._check_lookups(inst.metric, [good, far, stranger]) == 2


def test_lookup_pairs_come_from_read_events():
    reads = np.zeros((3, 4))
    reads[1, 2] = 5.0
    reads[2, 0] = 1.0
    pairs = cases._lookup_pairs(reads, 50, np.random.default_rng(0))
    assert {tuple(p) for p in pairs.tolist()} <= {(1, 2), (2, 0)}


# ----------------------------------------------------------------------
# process hygiene
# ----------------------------------------------------------------------
#: A process that becomes a subreaper, leaves a grandchild orphaned, and
#: reaps; it prints whether the grandchild finished its work.
ORPHANING_PARENT = """
import os, sys, time
sys.path.insert(0, {bench!r})
import run
run._set_subreaper()
if os.fork() == 0:
    if os.fork() == 0:
        time.sleep({sleep})
        open({marker!r}, "w").close()
    os._exit(0)
run._reap_children(grace={grace})
print(os.path.exists({marker!r}))
"""


@pytest.mark.parametrize("sleep, grace, finished", [(0.5, 30.0, True), (60.0, 0.5, False)])
def test_supervisor_reaps_orphaned_grandchildren(tmp_path, sleep, grace, finished):
    marker = tmp_path / "grandchild-finished"
    script = ORPHANING_PARENT.format(bench=str(BENCH), marker=str(marker),
                                     sleep=sleep, grace=grace)
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    # waited for the grandchild that finishes, killed the one that does not
    assert proc.stdout.split() == [str(finished)]
    assert time.monotonic() - t0 < 30
