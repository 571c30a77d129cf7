"""The pluggable accounting seam (:mod:`repro.costmodel`).

Three claims, mirroring the seam's contract:

* the default ``krw`` model is *bit-identical* to the legacy inline
  accounting it replaced -- property-tested against verbatim replicas of
  the pre-seam simulator/migration code on dense and lazy backends,
  including zero-demand periods and empty migration diffs;
* the generalized :class:`~repro.core.costs.CostBreakdown` validates
  itself (non-negative components, total consistent with the sum);
* the two scenario models (``admission``, ``broadcast-write``) obey
  their invariants and run end-to-end through config, planner and CLI.
"""

from __future__ import annotations

import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Planner, PlanReport
from repro.cli import main
from repro.config import PlanConfig
from repro.core.costs import CostBreakdown, placement_cost
from repro.core.instance import DataManagementInstance
from repro.costmodel import (
    AdmissionCostModel,
    BroadcastWriteCostModel,
    CostModel,
    KRWCostModel,
    MigrationBill,
    available_cost_models,
    get_cost_model,
    register_cost_model,
)
from repro.engine import PlacementEngine
from repro.graphs import generators
from repro.graphs.backend import LazyMetric
from repro.graphs.metric import Metric
from repro.graphs.mst import mst_cost
from repro.simulate.events import RequestLog
from repro.simulate.replanner import EpochReplanner
from repro.simulate.simulator import NetworkSimulator
from repro.workloads.dynamic import drifting_zipf_catalog
from repro.workloads.request_models import make_instance, uniform_storage_costs

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def _graph_instance(seed: int, *, backend: str = "dense", num_objects: int = 4,
                    write_fraction: float = 0.2):
    """Small multi-object instance over a transit-stub network."""
    g = generators.sized_transit_stub_graph(30, seed=seed)
    metric = (Metric.from_graph(g) if backend == "dense"
              else LazyMetric.from_graph(g))
    inst = make_instance(
        metric, seed=seed + 1, num_objects=num_objects,
        storage_price=3.0, write_fraction=write_fraction,
    )
    return g, inst


def _legacy_request_bill(inst, placement, reads, writes, objects):
    """Verbatim replica of the pre-seam ``_run_vectorized`` accounting."""
    metric = inst.metric
    storage = 0.0
    cs = inst.storage_costs
    for obj in range(inst.num_objects):
        for v in placement.copies(obj):
            storage += float(cs[v])
    read_cost = 0.0
    write_cost = 0.0
    messages = 0
    node_ids = np.arange(inst.num_nodes)
    for obj in objects:
        obj = int(obj)
        r = reads[obj]
        w = writes[obj]
        copies = placement.copies(obj)
        nearest, dist = metric.nearest_in_set(copies)
        read_cost += float(r @ dist)
        write_cost += float(w @ dist)
        num_writes = int(w.sum())
        if num_writes and len(copies) > 1:
            write_cost += num_writes * mst_cost(metric, copies)
            messages += num_writes * (len(copies) - 1)
        remote = nearest != node_ids
        messages += int(r[remote].sum() + w[remote].sum())
    return storage, read_cost, write_cost, messages


def _legacy_migration_diff(metric, prev, new):
    """Verbatim replica of the pre-seam batched ``migration_diff``."""
    gained_by_prev = {}
    added = dropped = 0
    for old, nxt in zip(prev, new):
        if old == nxt:
            continue
        old_set = set(old)
        gained = [v for v in nxt if v not in old_set]
        dropped += len(old_set.difference(nxt))
        if gained:
            added += len(gained)
            gained_by_prev.setdefault(old, []).extend(gained)
    cost = 0.0
    for old, nodes in gained_by_prev.items():
        dist = metric.dist_to_set(old)
        cost += float(dist[np.asarray(nodes, dtype=int)].sum())
    return cost, added, dropped


# ----------------------------------------------------------------------
class TestCostBreakdownValidation:
    def test_total_derived_from_components(self):
        b = CostBreakdown(1.0, 2.0, 3.5)
        assert b.total == 6.5

    def test_consistent_explicit_total_accepted(self):
        b = CostBreakdown(1.0, 2.0, 3.0, total=6.0)
        assert b.total == 6.0

    @pytest.mark.parametrize("field", ["storage", "read", "update"])
    def test_negative_component_rejected(self, field):
        kwargs = {"storage": 1.0, "read": 1.0, "update": 1.0, field: -0.5}
        with pytest.raises(ValueError, match=field):
            CostBreakdown(**kwargs)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_component_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            CostBreakdown(bad, 0.0, 0.0)

    def test_inconsistent_total_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            CostBreakdown(1.0, 2.0, 3.0, total=7.0)

    def test_float_noise_in_total_tolerated(self):
        parts = [0.1] * 10
        total = sum(parts)  # 0.9999999999999999, not 1.0
        CostBreakdown(sum(parts[:4]), sum(parts[4:7]), sum(parts[7:]),
                      total=total)

    def test_arithmetic_recomputes_total_and_drops_detail(self):
        a = CostBreakdown(1.0, 2.0, 3.0, detail={"messages": 5})
        b = a + CostBreakdown(1.0, 1.0, 1.0)
        assert b.total == 9.0 and b.detail is None
        s = a.scaled(2.0)
        assert s.total == 12.0 and s.detail is None


# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtins_registered_in_order(self):
        names = available_cost_models()
        assert names[0] == "krw"
        assert {"krw", "admission", "broadcast-write"} <= set(names)

    def test_unknown_name_lists_registered(self):
        with pytest.raises(KeyError, match="krw"):
            get_cost_model("nope")

    def test_builtin_instances_satisfy_the_protocol(self):
        for name in available_cost_models():
            assert isinstance(get_cost_model(name), CostModel)

    def test_duplicate_name_rejected_and_override_replaces(self):
        from repro.costmodel import _COST_MODELS

        class Dummy(KRWCostModel):
            name = "test-dummy-model"
            routable = False

        try:
            register_cost_model(Dummy)
            with pytest.raises(ValueError, match="already registered"):
                register_cost_model(Dummy)
            replacement = Dummy()
            register_cost_model(replacement, override=True)
            assert get_cost_model("test-dummy-model") is replacement
        finally:
            _COST_MODELS.pop("test-dummy-model", None)

    def test_nameless_model_rejected(self):
        class NoName(KRWCostModel):
            name = ""

        with pytest.raises(ValueError, match="name"):
            register_cost_model(NoName)

    def test_model_without_bill_methods_rejected(self):
        class Hollow:
            name = "test-hollow"

        with pytest.raises(TypeError, match="bill_placement"):
            register_cost_model(Hollow)


# ----------------------------------------------------------------------
class TestKRWBitParity:
    """Satellite: the krw model equals the legacy inline accounting
    bit-for-bit on dense and lazy backends."""

    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_bill_placement_is_placement_cost_verbatim(self, seed):
        for backend in ("dense", "lazy"):
            _, inst = _graph_instance(seed, backend=backend)
            placement = PlacementEngine(inst).place()
            krw = get_cost_model("krw")
            for policy in ("mst", "steiner_mst"):
                legacy = placement_cost(inst, placement, policy=policy)
                seam = krw.bill_placement(inst, placement, policy=policy)
                assert (seam.storage, seam.read, seam.update) \
                    == (legacy.storage, legacy.read, legacy.update)

    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_bill_requests_matches_legacy_vectorized_replay(self, seed):
        krw = get_cost_model("krw")
        for backend in ("dense", "lazy"):
            g, inst = _graph_instance(seed, backend=backend)
            placement = PlacementEngine(inst).place()
            log = RequestLog.from_frequencies(
                inst.read_freq, inst.write_freq, seed=seed
            )
            reads, writes = log.counts(inst.num_objects, inst.num_nodes)
            objects = np.unique(log.obj)
            storage, read, write, messages = _legacy_request_bill(
                inst, placement, reads, writes, objects
            )
            bill = krw.bill_requests(
                inst, placement, reads, writes, objects=objects
            )
            assert (bill.storage, bill.read, bill.update) \
                == (storage, read, write)
            assert bill.detail["messages"] == messages
            # and the simulator routes through the same seam
            report = NetworkSimulator(g, inst).run(placement, log)
            assert (report.storage_cost, report.read_traffic_cost,
                    report.write_traffic_cost, report.messages) \
                == (storage, read, write, messages)

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_zero_demand_period_bills_storage_only(self, seed):
        for backend in ("dense", "lazy"):
            g, inst = _graph_instance(seed, backend=backend)
            placement = PlacementEngine(inst).place()
            zero = np.zeros_like(inst.read_freq)
            bill = get_cost_model("krw").bill_requests(
                inst, placement, zero, zero
            )
            storage, *_ = _legacy_request_bill(
                inst, placement, zero, zero, []
            )
            assert (bill.storage, bill.read, bill.update) \
                == (storage, 0.0, 0.0)
            assert bill.detail["messages"] == 0
            empty_log = RequestLog.from_frequencies(zero, zero)
            report = NetworkSimulator(g, inst).run(placement, empty_log)
            assert (report.storage_cost, report.transmission_cost,
                    report.messages) == (storage, 0.0, 0)

    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_bill_migration_matches_legacy_diff_bit_for_bit(self, seed):
        for backend in ("dense", "lazy"):
            _, inst = _graph_instance(seed, backend=backend)
            placement = PlacementEngine(inst).place()
            start = int(np.argmin(inst.storage_costs))
            prev = [(start,) for _ in range(inst.num_objects)]
            legacy = _legacy_migration_diff(
                inst.metric, prev, placement.copy_sets
            )
            bill = get_cost_model("krw").bill_migration(
                inst.metric, prev, placement.copy_sets
            )
            assert isinstance(bill, MigrationBill)
            assert tuple(bill) == legacy
            # the bill still unpacks like the legacy 3-tuple
            cost, added, dropped = bill
            assert (cost, added, dropped) == legacy

    def test_empty_migration_diff_is_exactly_zero(self):
        _, inst = _graph_instance(3)
        placement = PlacementEngine(inst).place()
        sets = list(placement.copy_sets)
        bill = get_cost_model("krw").bill_migration(
            inst.metric, sets, placement.copy_sets
        )
        assert tuple(bill) == (0.0, 0, 0)

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_bill_migration_matches_per_object_reference(self, seed):
        g, inst = _graph_instance(seed)
        placement = PlacementEngine(inst).place()
        replanner = EpochReplanner(
            g, inst.metric, inst.storage_costs, PlanConfig()
        )
        start = int(np.argmin(inst.storage_costs))
        prev = [(start,) for _ in range(inst.num_objects)]
        ref_cost, ref_added, ref_dropped = 0.0, 0, 0
        for old, new in zip(prev, placement.copy_sets):
            c, a, d = replanner._migration(old, new)
            ref_cost += c
            ref_added += a
            ref_dropped += d
        bill = get_cost_model("krw").bill_migration(
            inst.metric, prev, placement.copy_sets
        )
        assert (bill.added, bill.dropped) == (ref_added, ref_dropped)
        assert bill.cost == pytest.approx(ref_cost, rel=1e-9)


# ----------------------------------------------------------------------
class TestAdmission:
    def test_uncapped_equals_krw_request_bill(self):
        _, inst = _graph_instance(11)
        placement = PlacementEngine(inst).place()
        fr, fw = inst.read_freq, inst.write_freq
        krw_bill = get_cost_model("krw").bill_requests(inst, placement, fr, fw)
        bill = AdmissionCostModel(slots=5).bill_requests(inst, placement, fr, fw)
        assert bill.total == pytest.approx(krw_bill.total, rel=1e-12)
        assert bill.detail["rejected"] == 0.0
        assert bill.detail["accepted"] == pytest.approx(float(fr.sum()))

    def test_capacity_pressure_rejects_and_never_bills_more(self):
        _, inst = _graph_instance(11)
        placement = PlacementEngine(inst).place()
        fr, fw = inst.read_freq, inst.write_freq
        slots = 4
        demand = max(
            float(fr[o].sum()) / slots / len(placement.copies(o))
            for o in range(inst.num_objects)
        )
        capped = AdmissionCostModel(
            slots=slots, capacity_per_copy=0.3 * demand
        ).bill_requests(inst, placement, fr, fw)
        uncapped = AdmissionCostModel(slots=slots).bill_requests(
            inst, placement, fr, fw
        )
        assert capped.detail["rejected"] > 0
        assert capped.detail["accepted"] > 0
        assert capped.total <= uncapped.total
        # conservation: every read is either accepted or rejected
        assert capped.detail["accepted"] + capped.detail["rejected"] \
            == pytest.approx(float(fr.sum()))

    def test_per_slot_decomposition_sums_to_the_bill(self):
        _, inst = _graph_instance(7)
        placement = PlacementEngine(inst).place()
        bill = AdmissionCostModel(slots=3, capacity_per_copy=2.0).bill_requests(
            inst, placement, inst.read_freq, inst.write_freq
        )
        per_slot = bill.detail["per_slot"]
        assert len(per_slot) == 3
        assert sum(s["read"] for s in per_slot) == pytest.approx(bill.read)
        assert sum(s["storage"] for s in per_slot) == pytest.approx(bill.storage)
        assert sum(s["update"] for s in per_slot) == pytest.approx(bill.update)
        assert sum(s["accepted"] for s in per_slot) \
            == pytest.approx(bill.detail["accepted"])

    def test_detail_is_json_serializable(self):
        _, inst = _graph_instance(7)
        placement = PlacementEngine(inst).place()
        bill = AdmissionCostModel(slots=2).bill_requests(
            inst, placement, inst.read_freq, inst.write_freq
        )
        json.dumps(bill.detail)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError, match="slots"):
            AdmissionCostModel(slots=0)
        with pytest.raises(ValueError, match="capacity_per_copy"):
            AdmissionCostModel(capacity_per_copy=-1.0)

    def test_non_mst_policy_rejected(self):
        _, inst = _graph_instance(5)
        placement = PlacementEngine(inst).place()
        with pytest.raises(ValueError, match="mst"):
            get_cost_model("admission").bill_placement(
                inst, placement, policy="steiner"
            )


# ----------------------------------------------------------------------
class TestBroadcastWrite:
    def test_never_bills_more_than_krw(self):
        _, inst = _graph_instance(13, write_fraction=0.4)
        placement = PlacementEngine(inst).place()
        fr, fw = inst.read_freq, inst.write_freq
        krw_bill = get_cost_model("krw").bill_requests(inst, placement, fr, fw)
        bc = get_cost_model("broadcast-write").bill_requests(
            inst, placement, fr, fw
        )
        assert bc.total <= krw_bill.total
        assert bc.storage == krw_bill.storage
        assert bc.read == krw_bill.read

    def test_read_only_bill_equals_krw_bit_for_bit(self):
        _, inst = _graph_instance(13, write_fraction=0.0)
        placement = PlacementEngine(inst).place()
        legacy = placement_cost(inst, placement, policy="mst")
        bc = get_cost_model("broadcast-write").bill_placement(inst, placement)
        assert (bc.storage, bc.read, bc.update) \
            == (legacy.storage, legacy.read, legacy.update)

    def test_propagations_count_multi_copy_written_objects(self):
        _, inst = _graph_instance(13, write_fraction=0.4)
        placement = PlacementEngine(inst).place()
        bc = get_cost_model("broadcast-write").bill_requests(
            inst, placement, inst.read_freq, inst.write_freq
        )
        expected = sum(
            1 for o in range(inst.num_objects)
            if inst.write_freq[o].sum() > 0 and len(placement.copies(o)) > 1
        )
        assert bc.detail["propagations"] == expected


# ----------------------------------------------------------------------
class TestConfigAndPlanner:
    def test_unknown_cost_model_rejected(self):
        with pytest.raises(ValueError, match="cost_model"):
            PlanConfig(cost_model="nope")

    def test_non_mst_policy_with_scenario_model_rejected(self):
        with pytest.raises(ValueError, match="cost_model"):
            PlanConfig(cost_model="admission", cost_policy="steiner")

    def test_round_trip_preserves_cost_model(self):
        config = PlanConfig(cost_model="broadcast-write")
        assert PlanConfig.from_dict(config.to_dict()) == config

    def test_planner_bills_through_the_configured_model(self):
        _, inst = _graph_instance(17)
        base = Planner(PlanConfig(cost_model="krw")).plan(inst, "krw")
        assert base.extras["cost_model"] == "krw"
        legacy = placement_cost(inst, base.placement, policy="mst")
        assert (base.cost.storage, base.cost.read, base.cost.update) \
            == (legacy.storage, legacy.read, legacy.update)
        for model in ("admission", "broadcast-write"):
            report = Planner(PlanConfig(cost_model=model)).plan(inst, "krw")
            # the model changes the bill, never the placement search
            assert report.placement.copy_sets == base.placement.copy_sets
            assert report.extras["cost_model"] == model
        adm = Planner(PlanConfig(cost_model="admission")).plan(inst, "krw")
        assert adm.cost.detail["accepted"] > 0
        bc = Planner(PlanConfig(cost_model="broadcast-write")).plan(inst, "krw")
        assert bc.cost.total <= base.cost.total

    def test_report_with_detail_round_trips(self, tmp_path):
        _, inst = _graph_instance(17)
        report = Planner(PlanConfig(cost_model="admission")).plan(inst, "krw")
        assert report.cost.detail is not None
        for suffix in (".json", ".npz"):
            path = tmp_path / f"report{suffix}"
            report.save(path)
            loaded = PlanReport.load(path)
            assert loaded.cost == report.cost
            assert loaded == report

    def test_krw_report_serialization_has_no_detail_key(self, tmp_path):
        _, inst = _graph_instance(17)
        report = Planner(PlanConfig()).plan(inst, "krw")
        assert "detail" not in report.to_dict()["cost"]

    def test_engine_bill_routes_through_the_seam(self):
        _, inst = _graph_instance(17)
        engine = PlacementEngine(inst)
        placement = engine.place()
        legacy = placement_cost(inst, placement, policy="mst")
        default = engine.bill(placement)
        assert (default.storage, default.read, default.update) \
            == (legacy.storage, legacy.read, legacy.update)
        named = engine.bill(placement, cost_model="broadcast-write")
        assert named.total <= default.total
        instance_model = engine.bill(
            placement, cost_model=AdmissionCostModel(slots=2)
        )
        assert instance_model.total == pytest.approx(default.total, rel=1e-12)

    def test_replanner_accepts_a_cost_model_config(self):
        """A ``broadcast-write`` replan bills every epoch what
        :class:`BroadcastWriteCostModel` bills -- below ``krw`` once a
        copy set takes writes."""
        g, inst = _graph_instance(19)
        wl = drifting_zipf_catalog(
            inst.num_nodes, 4, epochs=2, seed=19, write_fraction=0.3,
        )
        result = EpochReplanner(
            g, inst.metric, inst.storage_costs,
            PlanConfig(cost_model="broadcast-write"),
        ).run(wl)
        model = BroadcastWriteCostModel()
        below_krw = False
        for e, er in enumerate(result.epochs):
            epoch = wl.epoch_instance(inst.metric, inst.storage_costs, e)
            bill = model.bill_placement(epoch, er.placement).total
            assert er.report.total_cost == pytest.approx(bill, rel=1e-12)
            below_krw |= bill < placement_cost(epoch, er.placement).total
        assert below_krw


# ----------------------------------------------------------------------
class TestSimulatorGuards:
    def test_non_routable_model_rejects_kmb(self):
        g, inst = _graph_instance(23)
        with pytest.raises(ValueError, match="routable"):
            NetworkSimulator(g, inst, update_policy="kmb",
                             cost_model="admission")

    def test_non_routable_model_rejects_edge_load_tracking(self):
        g, inst = _graph_instance(23)
        sim = NetworkSimulator(g, inst, cost_model="broadcast-write")
        placement = PlacementEngine(inst).place()
        log = RequestLog.from_frequencies(inst.read_freq, inst.write_freq)
        with pytest.raises(ValueError, match="track_edge_load"):
            sim.run(placement, log, track_edge_load=True)

    def test_simulator_bills_through_alternate_models(self):
        g, inst = _graph_instance(23, write_fraction=0.4)
        placement = PlacementEngine(inst).place()
        log = RequestLog.from_frequencies(inst.read_freq, inst.write_freq)
        default = NetworkSimulator(g, inst).run(placement, log)
        bc = NetworkSimulator(
            g, inst, cost_model="broadcast-write"
        ).run(placement, log)
        assert bc.total_cost <= default.total_cost


# ----------------------------------------------------------------------
class TestCLI:
    def test_list_prints_cost_models(self):
        out = io.StringIO()
        assert main(["list"], out=out) == 0
        text = out.getvalue()
        assert "cost models:" in text
        for name in available_cost_models():
            assert name in text

    def test_plan_accepts_cost_model_flag(self, tmp_path):
        path = tmp_path / "report.json"
        out = io.StringIO()
        assert main(
            ["plan", "--scenario", "tree", "--num-objects", "3",
             "--cost-model", "admission", "--save", str(path)],
            out=out,
        ) == 0
        report = PlanReport.load(path)
        assert report.extras["cost_model"] == "admission"
        assert report.cost.detail["accepted"] > 0

    def test_plan_cost_model_krw_matches_unspecified(self, tmp_path):
        base, krw = tmp_path / "base.json", tmp_path / "krw.json"
        out = io.StringIO()
        assert main(
            ["plan", "--scenario", "tree", "--num-objects", "4",
             "--save", str(base)], out=out,
        ) == 0
        assert main(
            ["plan", "--scenario", "tree", "--num-objects", "4",
             "--cost-model", "krw", "--save", str(krw)], out=out,
        ) == 0
        a, b = PlanReport.load(base), PlanReport.load(krw)
        assert a.placement.copy_sets == b.placement.copy_sets
        assert (a.cost.storage, a.cost.read, a.cost.update) \
            == (b.cost.storage, b.cost.read, b.cost.update)

    def test_place_cost_flag_honours_the_model(self):
        out = io.StringIO()
        assert main(
            ["place", "--scenario", "tree", "--num-objects", "3", "--cost",
             "--cost-model", "broadcast-write"],
            out=out,
        ) == 0
        assert "bill (broadcast-write" in out.getvalue()
