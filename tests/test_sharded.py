"""Sharded solve stack: PortalMetric routing, engine dispatch, the
krw-sharded strategy and its degenerate-path guarantee."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Planner
from repro.config import PlanConfig
from repro.core.costs import placement_cost
from repro.core.instance import DataManagementInstance
from repro.engine import PlacementEngine
from repro.graphs import (
    Partition,
    PortalMetric,
    partition_graph,
    partition_instance,
)
from repro.graphs.backend import DistanceBackend, LazyMetric
from repro.graphs.generators import sized_transit_stub_graph, transit_stub_graph
from repro.graphs.metric import Metric
from repro.workloads import make_instance


def _setup(seed: int, *, n_hint: int = 160, num_objects: int = 6,
           backend: str = "dense"):
    g = sized_transit_stub_graph(n_hint, seed=seed)
    metric = Metric.from_graph(g) if backend == "dense" else LazyMetric.from_graph(g)
    inst = make_instance(
        metric, seed=seed + 100, num_objects=num_objects, write_fraction=0.2
    )
    return g, inst


class TestPortalMetric:
    def test_implements_backend_protocol(self):
        g, inst = _setup(3)
        part = partition_graph(g, num_shards=3, portals_per_shard=2)
        pm = PortalMetric(inst.metric, part)
        assert isinstance(pm, DistanceBackend)
        assert len(pm) == inst.num_nodes

    def test_intra_shard_distances_exact(self):
        g, inst = _setup(5)
        part = partition_graph(g, num_shards=4, portals_per_shard=2)
        pm = PortalMetric(inst.metric, part)
        D = inst.metric.dist
        for s in range(part.num_shards):
            members = part.shard_array(s)[:8]
            for v in members:
                row = pm.row(int(v))
                assert np.array_equal(row[members], D[v][members])

    def test_inter_shard_routing_admissible_and_symmetric(self):
        g, inst = _setup(7)
        part = partition_graph(g, num_shards=4, portals_per_shard=2)
        pm = PortalMetric(inst.metric, part)
        n = inst.num_nodes
        R = pm.rows(np.arange(n))
        assert (R - inst.metric.dist).min() >= -1e-9  # never undercuts
        assert np.allclose(R, R.T)                    # symmetric routing
        assert np.allclose(np.diag(R), 0.0)

    def test_full_boundary_portals_route_exactly(self):
        # with every boundary node a portal, portal routing introduces
        # no detour: the portal metric equals the true metric
        g, inst = _setup(9, n_hint=100)
        part = partition_graph(g, num_shards=3, portals_per_shard=10**9)
        pm = PortalMetric(inst.metric, part)
        R = pm.rows(np.arange(inst.num_nodes))
        assert np.allclose(R, inst.metric.dist)

    def test_reductions_match_routed_rows(self):
        g, inst = _setup(11)
        part = partition_graph(g, num_shards=3, portals_per_shard=2)
        pm = PortalMetric(inst.metric, part)
        n = inst.num_nodes
        R = pm.rows(np.arange(n))
        targets = [1, n // 2, n - 3]
        assert np.allclose(pm.dist_to_set(targets), R[:, targets].min(axis=1))
        nearest, ndist = pm.nearest_in_set(targets)
        expected = np.asarray(targets)[np.argmin(R[:, targets], axis=1)]
        assert np.array_equal(nearest, expected)
        assert np.allclose(ndist, R[:, targets].min(axis=1))
        w = np.linspace(0.5, 2.0, n)
        assert np.allclose(pm.matvec(w), R @ w)
        sub = pm.pairwise([0, 5, n - 1])
        assert np.allclose(sub, R[np.ix_([0, 5, n - 1], [0, 5, n - 1])])

    def test_single_shard_portal_metric_is_base(self):
        g, inst = _setup(13)
        pm = PortalMetric(inst.metric, Partition.trivial(inst.num_nodes))
        assert np.array_equal(
            pm.rows(np.arange(inst.num_nodes)), inst.metric.dist
        )

    def test_size_mismatch_rejected(self):
        g, inst = _setup(15)
        with pytest.raises(ValueError, match="nodes"):
            PortalMetric(inst.metric, Partition.trivial(inst.num_nodes + 1))


class TestShardedEngine:
    def test_sharded_placement_cost_near_global(self):
        g, inst = _setup(17, n_hint=200, num_objects=10)
        part = partition_graph(g, num_shards=4, portals_per_shard=3)
        engine = PlacementEngine(inst)
        global_p = engine.place()
        sharded_p, info = engine.place_sharded(part)
        ratio = (placement_cost(inst, sharded_p).total
                 / placement_cost(inst, global_p).total)
        # tiny instances pay proportionally more for shard-local facility
        # decisions; the 1.25 bound at headline sizes is enforced by the
        # E18 bench gate against the committed artifact
        assert ratio <= 1.35
        assert info["num_shards"] == 4
        assert sum(info["shard_sizes"]) == inst.num_nodes

    def test_jobs_do_not_change_sharded_placement(self):
        g, inst = _setup(19, n_hint=160, num_objects=8)
        part = partition_graph(g, num_shards=3, portals_per_shard=2)
        serial, _ = PlacementEngine(inst, chunk_size=3).place_sharded(part)
        pooled, _ = PlacementEngine(
            inst, chunk_size=3, jobs=2
        ).place_sharded(part)
        assert pooled.copy_sets == serial.copy_sets

    def test_trivial_partition_short_circuits_to_global(self):
        g, inst = _setup(23)
        engine = PlacementEngine(inst)
        sharded, info = engine.place_sharded(Partition.trivial(inst.num_nodes))
        assert sharded.copy_sets == engine.place().copy_sets
        assert info["num_shards"] == 1 and info["spanning_objects"] == 0

    def test_lazy_backend_sharded_solve(self):
        g, inst = _setup(25, backend="lazy", num_objects=6)
        part = partition_instance(inst, num_shards=3, portals_per_shard=2)
        sharded, info = PlacementEngine(inst).place_sharded(part)
        assert len(sharded.copy_sets) == inst.num_objects
        assert all(cs for cs in sharded.copy_sets)
        assert "row_cache" in info  # lazy stats aggregate into the info

    def test_zero_demand_objects_take_cheapest_node(self):
        g, _ = _setup(27, n_hint=100)
        metric = Metric.from_graph(g)
        n = metric.n
        rng = np.random.default_rng(0)
        fr = rng.integers(0, 4, (3, n)).astype(float)
        fr[1] = 0.0  # object 1 has no demand anywhere
        fw = np.zeros((3, n))
        cs = rng.uniform(1.0, 5.0, n)
        inst = DataManagementInstance(metric, cs, fr, fw)
        part = partition_graph(g, num_shards=3, portals_per_shard=2)
        sharded, _ = PlacementEngine(inst).place_sharded(part)
        assert sharded.copy_sets[1] == (int(np.argmin(cs)),)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_num_shards_one_bit_identical_dense_and_lazy(seed):
    """Degenerate-path guarantee: the krw-sharded strategy at
    num_shards=1 (and partition='none') reproduces the global solve
    bit-for-bit on both backends."""
    g = transit_stub_graph(2, 2, 4, seed=seed)
    for backend in (Metric, LazyMetric):
        metric = backend.from_graph(g)
        inst = make_instance(
            metric, seed=seed + 1, num_objects=3, write_fraction=0.25
        )
        global_report = Planner().plan(inst, "krw")
        for config in (
            PlanConfig(num_shards=1, portals_per_shard=7),
            PlanConfig(partition="none", num_shards=5),
        ):
            sharded_report = Planner(config).plan(inst, "krw-sharded")
            assert (sharded_report.placement.copy_sets
                    == global_report.placement.copy_sets)
            assert sharded_report.extras["sharded"]["degenerate"] is True


class TestKRWShardedStrategy:
    def test_planner_runs_sharded_with_extras(self):
        g, inst = _setup(31, n_hint=160, num_objects=8)
        config = PlanConfig(num_shards=4, portals_per_shard=2)
        report = Planner(config).plan(inst, "krw-sharded")
        sharded = report.extras["sharded"]
        assert sharded["num_shards"] == 4 and sharded["degenerate"] is False
        assert sharded["partition"] == "auto"
        global_report = Planner().plan(inst, "krw")
        assert report.cost.total <= 1.25 * global_report.cost.total

    def test_lazy_strategy_reports_row_cache(self):
        g, inst = _setup(33, backend="lazy", num_objects=4)
        config = PlanConfig(num_shards=3, portals_per_shard=2)
        report = Planner(config).plan(inst, "krw-sharded")
        assert report.extras["row_cache"]["hit_rate"] is not None


class TestConfigKnobs:
    def test_defaults_are_degenerate(self):
        config = PlanConfig()
        assert config.num_shards == 1
        assert config.portals_per_shard == 4
        assert config.partition == "auto"

    def test_num_shards_validation_error_names_the_knob(self):
        with pytest.raises(ValueError, match="num_shards must be >= 1"):
            PlanConfig(num_shards=0)
        with pytest.raises(ValueError, match="num_shards must be >= 1"):
            PlanConfig(num_shards=-3)

    def test_portals_validation_error_names_the_knob(self):
        with pytest.raises(ValueError, match="portals_per_shard must be >= 1"):
            PlanConfig(portals_per_shard=0)

    def test_unknown_partition_method_rejected(self):
        with pytest.raises(ValueError, match="unknown partition method"):
            PlanConfig(partition="metis")

    def test_round_trip_keeps_shard_knobs(self):
        config = PlanConfig(partition="bfs", num_shards=6, portals_per_shard=2)
        back = PlanConfig.from_dict(config.to_dict())
        assert back == config


class TestPartitionSerialization:
    @pytest.mark.parametrize("suffix", [".json", ".npz"])
    def test_round_trip(self, tmp_path, suffix):
        from repro.serialize import load_partition, save_partition

        g, _ = _setup(35)
        part = partition_graph(g, num_shards=3, portals_per_shard=2)
        path = tmp_path / f"part{suffix}"
        save_partition(part, path)
        back = load_partition(path)
        assert back.shards == part.shards
        assert back.portals == part.portals
        assert np.array_equal(back.quotient, part.quotient)

    def test_trivial_round_trip(self, tmp_path):
        from repro.serialize import load_partition, save_partition

        part = Partition.trivial(9)
        path = tmp_path / "triv.json"
        save_partition(part, path)
        back = load_partition(path)
        assert back.shards == part.shards and back.quotient.shape == (0, 0)

    def test_wrong_format_rejected(self, tmp_path):
        from repro.serialize import load_partition

        path = tmp_path / "bogus.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError, match="not a serialized Partition"):
            load_partition(path)

    def test_reloaded_partition_drives_the_same_sharded_solve(self, tmp_path):
        from repro.serialize import load_partition, save_partition

        g, inst = _setup(37, num_objects=5)
        part = partition_graph(g, num_shards=3, portals_per_shard=2)
        path = tmp_path / "part.npz"
        save_partition(part, path)
        engine = PlacementEngine(inst)
        direct, _ = engine.place_sharded(part)
        reloaded, _ = engine.place_sharded(load_partition(path))
        assert reloaded.copy_sets == direct.copy_sets
