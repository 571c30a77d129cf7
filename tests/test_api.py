"""Tests for repro.api: the Planner façade and PlanReport artifacts."""

import numpy as np
import pytest

from repro.api import PlanReport, Planner, compare_table
from repro.config import PlanConfig
from repro.core.approx import approximate_placement
from repro.graphs.backend import LazyMetric
from repro.graphs.metric import Metric
from repro.workloads import tree_network, www_content_provider


class TestPlanner:
    def test_plan_carries_provenance_config(self):
        cfg = PlanConfig(fl_solver="greedy", chunk_size=4)
        report = Planner(cfg).plan(tree_network(num_objects=3))
        assert report.config == cfg
        # re-running from the recorded provenance reproduces the artifact
        again = Planner(report.config).plan(tree_network(num_objects=3))
        assert again.placement.copy_sets == report.placement.copy_sets

    def test_plan_accepts_bare_instance(self):
        inst = tree_network(num_objects=2).instance
        report = Planner().plan(inst)
        assert report.placement.copy_sets == approximate_placement(inst).copy_sets

    def test_plan_rejects_non_instances(self):
        with pytest.raises(TypeError, match="Scenario"):
            Planner().plan({"not": "an instance"})

    def test_compare_preserves_request_order(self):
        names = ["full-replication", "krw", "single-median"]
        reports = Planner().compare(tree_network(num_objects=2), names)
        assert [r.strategy for r in reports] == names

    def test_compare_table_lists_strategies(self):
        reports = Planner().compare(
            tree_network(num_objects=2), ["krw", "single-median"]
        )
        table = compare_table(reports)
        assert "krw" in table and "single-median" in table
        assert "total" in table


class TestPlannerReplan:
    def _workload(self, n):
        from repro.workloads import drifting_zipf_catalog

        return drifting_zipf_catalog(
            n, 5, epochs=3, seed=8, drift=0.4, requests_per_epoch=250,
            redraw="changed",
        )

    def test_replan_honors_incremental_knobs(self):
        import networkx as nx

        from repro.graphs.generators import transit_stub_graph

        g = transit_stub_graph(2, 2, 5, seed=6)
        assert nx.is_connected(g)
        n = g.number_of_nodes()
        wl = self._workload(n)
        cs = np.full(n, 4.0)
        full = Planner(PlanConfig()).replan(g, wl, cs)
        incr = Planner(PlanConfig(replan_mode="incremental")).replan(g, wl, cs)
        assert incr.total_cost == pytest.approx(full.total_cost, rel=1e-9)
        assert incr.epochs[1].replaced_objects < full.epochs[1].replaced_objects
        assert [e.placement.copy_sets for e in incr.epochs] == [
            e.placement.copy_sets for e in full.epochs
        ]

    def test_replan_builds_backend_from_config(self):
        from repro.graphs.generators import transit_stub_graph
        from repro.simulate.replanner import ReplanResult

        g = transit_stub_graph(2, 2, 4, seed=7)
        n = g.number_of_nodes()
        wl = self._workload(n)
        cs = np.full(n, 4.0)
        res = Planner(PlanConfig(backend="lazy")).replan(g, wl, cs)
        assert isinstance(res, ReplanResult)
        assert len(res.epochs) == wl.num_epochs

    def test_replan_rejects_mismatched_workload(self):
        from repro.graphs.generators import transit_stub_graph

        g = transit_stub_graph(2, 2, 4, seed=7)
        n = g.number_of_nodes()
        wl = self._workload(n - 3)  # built for a smaller network
        cs = np.full(n, 4.0)
        with pytest.raises(ValueError, match=f"workload built for {n - 3}"):
            Planner().replan(g, wl, cs)

    def test_replan_rejects_mismatched_metric(self):
        import networkx as nx

        from repro.graphs.generators import transit_stub_graph

        g = transit_stub_graph(2, 2, 4, seed=7)
        n = g.number_of_nodes()
        wl = self._workload(n)
        cs = np.full(n, 4.0)
        other = nx.path_graph(n + 2)
        nx.set_edge_attributes(other, 1.0, "weight")
        wrong = Metric.from_graph(other)
        with pytest.raises(ValueError, match="distance backend"):
            Planner().replan(g, wl, cs, metric=wrong)

    def test_unknown_replan_mode_names_itself(self):
        import networkx as nx

        from repro.simulate.replanner import EpochReplanner

        with pytest.raises(ValueError, match="unknown replan_mode"):
            PlanConfig(replan_mode="bogus")
        # the replanner takes its knobs only through a PlanConfig
        g = nx.path_graph(4)
        nx.set_edge_attributes(g, 1.0, "weight")
        metric = Metric.from_graph(g)
        with pytest.raises(TypeError, match="replan_mode"):
            EpochReplanner(
                g, metric, np.full(4, 2.0), replan_mode="bogus"
            )


class TestBackendResolution:
    def test_scenario_rebuilt_on_requested_backend(self):
        sc = www_content_provider(num_objects=2)
        dense = Planner(PlanConfig(backend="dense")).resolve_instance(sc)
        lazy = Planner(PlanConfig(backend="lazy")).resolve_instance(sc)
        assert isinstance(dense.metric, Metric)
        assert isinstance(lazy.metric, LazyMetric)
        # identical problems -> identical placements across backends
        a = Planner(PlanConfig(backend="dense")).plan(sc)
        b = Planner(PlanConfig(backend="lazy")).plan(sc)
        assert a.placement.copy_sets == b.placement.copy_sets

    def test_auto_keeps_instance_metric(self):
        sc = www_content_provider(num_objects=2)
        assert Planner().resolve_instance(sc) is sc.instance

    def test_matching_backend_is_a_no_op(self):
        inst = tree_network(num_objects=2).instance
        assert Planner(PlanConfig(backend="dense")).resolve_instance(inst) is inst

    def test_bare_instance_can_densify_but_not_lazify(self):
        sc = www_content_provider(num_objects=2)
        lazy_inst = Planner(PlanConfig(backend="lazy")).resolve_instance(sc)
        densified = Planner(PlanConfig(backend="dense")).resolve_instance(lazy_inst)
        assert isinstance(densified.metric, Metric)
        dense_inst = sc.instance
        with pytest.raises(ValueError, match="lazy"):
            Planner(PlanConfig(backend="lazy")).resolve_instance(dense_inst)


class TestPlanReportArtifacts:
    def _report(self) -> PlanReport:
        return Planner(PlanConfig(seed=5)).plan(tree_network(num_objects=3))

    def test_dict_round_trip(self):
        report = self._report()
        assert PlanReport.from_dict(report.to_dict()) == report

    @pytest.mark.parametrize("suffix", [".json", ".npz"])
    def test_file_round_trip(self, tmp_path, suffix):
        report = self._report()
        path = tmp_path / f"report{suffix}"
        report.save(path)
        assert PlanReport.load(path) == report

    def test_unknown_suffix_rejected_up_front(self, tmp_path):
        """No silent np.savez '.npz' appending: a suffix save cannot
        round-trip through load must be refused at save time."""
        report = self._report()
        with pytest.raises(ValueError, match="suffix"):
            report.save(tmp_path / "report.pkl")
        with pytest.raises(ValueError, match="suffix"):
            PlanReport.load(tmp_path / "report")

    def test_load_rejects_foreign_npz(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, meta=np.str_('{"format": "something-else"}'))
        with pytest.raises(ValueError, match="PlanReport"):
            PlanReport.load(path)

    def test_render_mentions_strategy_and_cost(self):
        report = self._report()
        text = report.render()
        assert "[krw]" in text and "cost" in text
