"""Distance-backend tests: LazyMetric vs dense Metric parity, cache
behaviour, candidate facility sets, and the large-instance memory bound.

The contract under test: both backends answer every
``DistanceBackend`` query with identical values on the same graph, and
the full Section 2 pipeline therefore produces identical placements --
while the lazy backend never materializes the ``O(n^2)`` closure.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.approx import approximate_object_placement
from repro.core.costs import object_cost, placement_cost
from repro.core.instance import DataManagementInstance
from repro.core.placement import Placement
from repro.core.radii import RequestProfile, radii_for_object
from repro.facility import facility_candidate_set, related_facility_problem
from repro.graphs import (
    DistanceBackend,
    LazyMetric,
    Metric,
    dense_distance_matrix,
    generators,
    lazy_metric_from_graph,
    metric_from_graph,
)
from repro.graphs.steiner import steiner_exact_cost
from repro.workloads import make_instance

seeds = st.integers(min_value=0, max_value=200)


def both_backends(graph):
    return Metric.from_graph(graph), LazyMetric.from_graph(graph)


def random_graph(seed: int, n: int = 20):
    family = seed % 3
    if family == 0:
        return generators.erdos_renyi_graph(n, 0.3, seed=seed)
    if family == 1:
        return generators.random_geometric_graph(n, 0.5, seed=seed)
    return generators.random_tree(n, seed=seed)


class TestProtocol:
    def test_both_backends_satisfy_protocol(self):
        g = generators.ring_graph(6, seed=0)
        dense, lazy = both_backends(g)
        assert isinstance(dense, DistanceBackend)
        assert isinstance(lazy, DistanceBackend)

    def test_index_maps_agree(self):
        g = generators.random_tree(9, seed=4)
        _, idx_d, nodes_d = metric_from_graph(g)
        _, idx_l, nodes_l = lazy_metric_from_graph(g)
        assert idx_d == idx_l and nodes_d == nodes_l

    def test_disconnected_graph_rejected(self):
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(4))
        g.add_edge(0, 1, weight=1.0)
        g.add_edge(2, 3, weight=1.0)
        with pytest.raises(ValueError, match="connected"):
            lazy_metric_from_graph(g)
        with pytest.raises(ValueError, match="connected"):
            LazyMetric.from_graph(g)


class TestQueryParity:
    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_rows_and_single_distances(self, seed):
        g = random_graph(seed)
        dense, lazy = both_backends(g)
        n = dense.n
        rng = np.random.default_rng(seed)
        block = rng.choice(n, size=5, replace=False)
        assert np.allclose(dense.rows(block), lazy.rows(block))
        assert np.allclose(dense.pairwise(block), lazy.pairwise(block))
        u, v = int(block[0]), int(block[1])
        assert dense.d(u, v) == pytest.approx(lazy.d(u, v))
        assert np.allclose(dense.row(u), lazy.row(u))

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_set_queries(self, seed):
        g = random_graph(seed)
        dense, lazy = both_backends(g)
        n = dense.n
        rng = np.random.default_rng(seed + 1)
        targets = sorted(set(rng.integers(0, n, size=4).tolist()))
        assert np.allclose(dense.dist_to_set(targets), lazy.dist_to_set(targets))
        nd, dd = dense.nearest_in_set(targets)
        nl, dl = lazy.nearest_in_set(targets)
        assert np.array_equal(nd, nl)
        assert np.allclose(dd, dl)

    def test_large_target_set_uses_multi_source(self):
        # > _SMALL_TARGET_SET targets exercises the min_only Dijkstra path
        g = generators.erdos_renyi_graph(60, 0.15, seed=3)
        dense, lazy = both_backends(g)
        targets = list(range(0, 60, 1))[:40]
        assert np.allclose(dense.dist_to_set(targets), lazy.dist_to_set(targets))
        nd, dd = dense.nearest_in_set(targets)
        nl, dl = lazy.nearest_in_set(targets)
        assert np.allclose(dd, dl)
        # the chosen source must realize the distance even if ties differ
        assert np.allclose(
            [lazy.d(int(s), v) for v, s in enumerate(nl)], dl
        )

    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_matvec(self, seed):
        g = random_graph(seed)
        dense, lazy = both_backends(g)
        rng = np.random.default_rng(seed + 2)
        w = rng.random(dense.n)
        assert np.allclose(dense.matvec(w), lazy.matvec(w))

    def test_empty_set_conventions(self):
        g = generators.ring_graph(5, seed=1)
        dense, lazy = both_backends(g)
        assert np.all(np.isinf(lazy.dist_to_set([])))
        assert np.all(np.isinf(dense.dist_to_set([])))
        with pytest.raises(ValueError):
            lazy.nearest_in_set([])


class TestCache:
    def test_lru_eviction_and_hits(self):
        g = generators.erdos_renyi_graph(30, 0.3, seed=5)
        lazy = LazyMetric.from_graph(g, cache_rows=4)
        for v in range(6):
            lazy.row(v)
        # validation row + 6 fetches, capacity 4
        assert len(lazy._cache) == 4
        before = lazy.rows_computed
        lazy.row(5)  # cached -> no recompute
        assert lazy.rows_computed == before
        assert lazy.cache_hits >= 1
        lazy.row(0)  # evicted -> recompute
        assert lazy.rows_computed == before + 1

    def test_cache_stats_reports_hit_rate(self):
        g = generators.erdos_renyi_graph(20, 0.3, seed=7)
        lazy = LazyMetric.from_graph(g, cache_rows=3)
        stats = lazy.cache_stats()
        assert stats["cache_rows"] == 3 and lazy.cache_rows == 3
        lazy.row(4)
        lazy.row(4)
        stats = lazy.cache_stats()
        assert stats["hits"] >= 1 and stats["misses"] == lazy.cache_misses
        assert 0.0 < stats["hit_rate"] <= 1.0

    def test_cache_stats_hit_rate_zero_before_any_lookup(self):
        # 0.0, not None/NaN: per-shard aggregation sums hit rates without
        # special-casing backends that never served a lookup
        g = generators.random_tree(8, seed=8)
        adj = LazyMetric.from_graph(g).adjacency
        fresh = LazyMetric(adj, cache_rows=2, validate=False)
        assert fresh.cache_stats()["hit_rate"] == 0.0

    def test_precompute_pins_rows(self):
        g = generators.erdos_renyi_graph(30, 0.3, seed=6)
        lazy = LazyMetric.from_graph(g, cache_rows=2)
        lazy.precompute([7, 8, 9])
        computed = lazy.rows_computed
        for _ in range(3):
            for v in (7, 8, 9):
                lazy.row(v)
        assert lazy.rows_computed == computed  # pinned rows never evicted
        # pinning is idempotent
        lazy.precompute([7, 8, 9])
        assert lazy.rows_computed == computed

    def test_overlapping_pins_do_not_keep_the_second_block_alive(self):
        """Two objects' candidate sets overlap (both hold the cheapest
        storage node): the first object's pins are views of its block,
        the second object's new pins are a compact copy that shares no
        memory with its block, and every pinned row keeps its values."""
        g = generators.erdos_renyi_graph(60, 0.1, seed=6)
        dense, lazy = both_backends(g)
        inst = make_instance(lazy, seed=5, num_objects=2, demand_model="zipf")
        first = related_facility_problem(inst, 0, max_facilities=12)
        second = related_facility_problem(inst, 1, max_facilities=12)
        nodes1 = set(first.facility_nodes.tolist())
        nodes2 = second.facility_nodes.tolist()
        shared = [v for v in nodes2 if v in nodes1]
        new = [v for v in nodes2 if v not in nodes1]
        assert shared and new
        for v in nodes1:
            assert np.shares_memory(lazy.row(v), first.dist)
        for v in new:
            assert not np.shares_memory(lazy.row(v), second.dist)
        for v in nodes1 | set(new):
            np.testing.assert_array_equal(lazy.row(v), dense.row(v))
        # the first object's block is still what its problem holds
        np.testing.assert_array_equal(
            first.dist, dense.rows(first.facility_nodes)
        )

    def test_as_dense_roundtrip_and_guard(self):
        g = generators.random_tree(12, seed=7)
        dense, lazy = both_backends(g)
        assert np.allclose(lazy.as_dense().dist, dense.dist)
        with pytest.raises(ValueError, match="refusing"):
            lazy.as_dense(max_nodes=4)

    def test_dense_guard_error_names_caller(self):
        g = generators.random_tree(10, seed=8)
        lazy = LazyMetric.from_graph(g)
        with pytest.raises(ValueError, match="steiner_exact_cost"):
            dense_distance_matrix(lazy, max_nodes=4, context="steiner_exact_cost")

    def test_exact_steiner_works_on_small_lazy_metric(self):
        g = generators.random_tree(10, seed=8)
        dense, lazy = both_backends(g)
        terms = [0, 3, 7]
        assert steiner_exact_cost(lazy, terms) == pytest.approx(
            steiner_exact_cost(dense, terms)
        )


class TestPipelineParity:
    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_placement_parity(self, seed):
        g = random_graph(seed, n=18)
        dense, lazy = both_backends(g)
        inst_d = make_instance(dense, seed=seed + 50, num_objects=2)
        inst_l = make_instance(lazy, seed=seed + 50, num_objects=2)
        for obj in range(2):
            cd = approximate_object_placement(inst_d, obj)
            cl = approximate_object_placement(inst_l, obj)
            assert cd == cl
            pd = object_cost(inst_d, obj, cd, policy="mst")
            pl = object_cost(inst_l, obj, cl, policy="mst")
            assert pd.total == pytest.approx(pl.total)

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_radii_parity(self, seed):
        g = random_graph(seed, n=16)
        dense, lazy = both_backends(g)
        inst = make_instance(dense, seed=seed + 60, num_objects=1)
        rw_d, rs_d, zs_d = radii_for_object(
            dense, inst.storage_costs, inst.read_freq[0], inst.write_freq[0]
        )
        rw_l, rs_l, zs_l = radii_for_object(
            lazy, inst.storage_costs, inst.read_freq[0], inst.write_freq[0],
            block_size=5,  # force multiple blocks
        )
        assert np.allclose(rw_d, rw_l)
        assert np.allclose(rs_d, rs_l)
        assert np.array_equal(zs_d, zs_l)

    def test_request_profile_matches_block_sweep(self):
        g = generators.random_geometric_graph(14, 0.6, seed=9)
        dense = Metric.from_graph(g)
        inst = make_instance(dense, seed=70, num_objects=1)
        weights = inst.demand(0)
        prof = RequestProfile(dense, weights)
        rw, rs, zs = radii_for_object(
            dense, inst.storage_costs, inst.read_freq[0], inst.write_freq[0]
        )
        W = inst.total_writes(0)
        for v in range(dense.n):
            assert prof.write_radius(v, W) == pytest.approx(rw[v])
            rs_v, zs_v = prof.storage_radius(v, float(inst.storage_costs[v]))
            assert rs_v == pytest.approx(rs[v])
            assert zs_v == zs[v]

    def test_batched_placement_cost_matches_per_object(self):
        g = generators.transit_stub_graph(2, 2, 4, seed=11)
        dense = Metric.from_graph(g)
        inst = make_instance(dense, seed=80, num_objects=3)
        placement = Placement(
            tuple(approximate_object_placement(inst, o) for o in range(3))
        )
        batched = placement_cost(inst, placement, policy="mst")
        manual = sum(
            (object_cost(inst, o, placement.copies(o), policy="mst").total
             for o in range(3)),
            0.0,
        )
        assert batched.total == pytest.approx(manual)

    def test_instance_from_graph_lazy_backend(self):
        g = generators.random_tree(10, seed=12)
        n = g.number_of_nodes()
        cs = np.ones(n)
        fr = np.ones((1, n))
        fw = np.zeros((1, n))
        inst = DataManagementInstance.from_graph(g, cs, fr, fw, backend="lazy")
        assert isinstance(inst.metric, LazyMetric)
        with pytest.raises(ValueError, match="backend"):
            DataManagementInstance.from_graph(g, cs, fr, fw, backend="sparse")


class TestFacilityCandidates:
    def test_small_instance_keeps_all_nodes(self):
        g = generators.random_tree(12, seed=13)
        dense = Metric.from_graph(g)
        inst = make_instance(dense, seed=90, num_objects=1)
        fl = related_facility_problem(inst, 0)
        assert fl.facility_nodes is None
        assert fl.num_facilities == dense.n

    def test_candidate_set_properties(self):
        g = generators.sized_transit_stub_graph(300, seed=14)
        dense, lazy = both_backends(g)
        inst = make_instance(dense, seed=91, num_objects=1)
        demand = inst.demand(0)
        k = 24
        cand_d = facility_candidate_set(dense, inst.storage_costs, demand, k)
        cand_l = facility_candidate_set(lazy, inst.storage_costs, demand, k)
        assert np.array_equal(cand_d, cand_l)  # backend-independent
        assert cand_d.size == k
        assert np.array_equal(cand_d, np.unique(cand_d))
        assert int(np.argmin(inst.storage_costs)) in cand_d

    def test_capped_problem_maps_back_to_nodes(self):
        g = generators.sized_transit_stub_graph(200, seed=15)
        dense = Metric.from_graph(g)
        inst = make_instance(dense, seed=92, num_objects=1)
        fl = related_facility_problem(inst, 0, max_facilities=16)
        assert fl.facility_nodes is not None and fl.num_facilities == 16
        nodes = fl.to_nodes([0, 3, 3, 5])
        assert nodes == sorted(set(nodes))
        assert all(v in fl.facility_nodes for v in nodes)

    def test_capped_placement_identical_across_backends(self):
        g = generators.sized_transit_stub_graph(250, seed=16)
        dense, lazy = both_backends(g)
        inst_d = make_instance(dense, seed=93, num_objects=1)
        inst_l = make_instance(lazy, seed=93, num_objects=1)
        cd = approximate_object_placement(inst_d, 0, facility_candidates=20)
        cl = approximate_object_placement(inst_l, 0, facility_candidates=20)
        assert cd == cl


class TestGenerators:
    def test_power_law_graph(self):
        import networkx as nx

        g = generators.power_law_graph(400, seed=17)
        assert g.number_of_nodes() == 400
        assert nx.is_connected(g)
        assert all(d["weight"] > 0 for _, _, d in g.edges(data=True))
        g2 = generators.power_law_graph(400, seed=17)
        assert sorted(g.edges()) == sorted(g2.edges())

    def test_sized_transit_stub_graph(self):
        import networkx as nx

        for target in (100, 1000, 5000):
            g = generators.sized_transit_stub_graph(target, seed=18)
            n = g.number_of_nodes()
            assert abs(n - target) <= 0.2 * target + 50
            assert nx.is_connected(g)


class TestMemoryBound:
    def test_5k_instance_solves_without_dense_matrix(self):
        """A 5000-node placement must fit in a quarter of the dense
        closure's footprint (the tentpole acceptance bound, scaled down
        to test-suite runtime)."""
        g = generators.sized_transit_stub_graph(5000, seed=19)
        n = g.number_of_nodes()
        dense_bytes = 8 * n * n  # ~200 MB
        tracemalloc.start()
        lazy, _, _ = lazy_metric_from_graph(g)
        inst = make_instance(
            lazy, seed=94, num_objects=1, storage_price=max(1.0, n / 100.0)
        )
        copies = approximate_object_placement(inst, 0)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert len(copies) >= 1
        assert peak < 0.25 * dense_bytes, (
            f"peak {peak / 1e6:.1f} MB exceeds 25% of the "
            f"{dense_bytes / 1e6:.0f} MB dense closure"
        )
        # the oracle must never have computed anywhere close to n^2 entries
        assert lazy.rows_computed <= 3 * n
