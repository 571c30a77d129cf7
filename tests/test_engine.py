"""Tests for repro.engine: catalog engine parity, batching and streaming.

The engine's contract is *identity*: however the catalog is chunked,
parallelized or streamed, every copy set equals what the per-object
Section 2 loop places.  These tests assert that bit-for-bit, alongside
the batched-radii equality and the capacity-repair determinism the
engine-era refactors rely on.
"""

import multiprocessing as mp
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.approx import approximate_placement
from repro.core.capacity import capacity_violations, enforce_capacities
from repro.core.costs import object_cost, placement_cost
from repro.core.instance import DataManagementInstance
from repro.core.placement import Placement
from repro.core.radii import radii_for_object, radii_for_objects
from repro.engine import PlacementEngine, place_catalog
from repro.graphs import generators
from repro.graphs.backend import LazyMetric
from repro.graphs.metric import Metric
from repro.workloads.request_models import make_instance

seeds = st.integers(min_value=0, max_value=200)


def _catalog_instance(seed: int, *, backend: str = "dense", n: int | None = None,
                      num_objects: int | None = None) -> DataManagementInstance:
    """Random multi-object instance; sprinkles in a zero-demand object."""
    rng = np.random.default_rng(seed)
    if n is None:
        n = int(rng.integers(6, 40))
    g = generators.erdos_renyi_graph(n, 0.35, seed=seed)
    metric = Metric.from_graph(g) if backend == "dense" else LazyMetric.from_graph(g)
    m = num_objects if num_objects is not None else int(rng.integers(2, 8))
    inst = make_instance(
        metric, seed=seed + 1, num_objects=m,
        demand_model=["uniform", "zipf", "hotspot"][seed % 3],
        write_fraction=float(rng.choice([0.0, 0.1, 0.4])),
    )
    if seed % 4 == 0 and m >= 2:
        fr = inst.read_freq.copy()
        fw = inst.write_freq.copy()
        fr[m // 2] = 0.0
        fw[m // 2] = 0.0
        inst = DataManagementInstance(metric, inst.storage_costs, fr, fw)
    return inst


class TestEngineParity:
    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_serial_and_chunked_match_loop(self, seed):
        """Engine copy sets equal the per-object loop for any chunking."""
        inst = _catalog_instance(seed)
        loop = approximate_placement(inst)
        for chunk in (1, 3, 512):
            engine = PlacementEngine(inst, chunk_size=chunk).place()
            assert engine.copy_sets == loop.copy_sets

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_lazy_backend_matches_loop(self, seed):
        inst = _catalog_instance(seed, backend="lazy")
        loop = approximate_placement(inst)
        engine = PlacementEngine(inst, chunk_size=2).place()
        assert engine.copy_sets == loop.copy_sets

    def test_parallel_jobs_match_loop(self):
        """jobs=2 ships the instance to workers and merges chunks back in
        deterministic order; results are identical to the loop."""
        g = generators.sized_transit_stub_graph(120, seed=9)
        inst = make_instance(
            Metric.from_graph(g), seed=10, num_objects=30, write_fraction=0.2
        )
        loop = approximate_placement(inst)
        par = PlacementEngine(inst, chunk_size=7, jobs=2).place()
        assert par.copy_sets == loop.copy_sets

    def test_parallel_jobs_lazy_backend(self):
        g = generators.sized_transit_stub_graph(120, seed=11)
        inst = make_instance(
            LazyMetric.from_graph(g), seed=12, num_objects=12, write_fraction=0.1
        )
        serial = PlacementEngine(inst, chunk_size=4).place()
        par = PlacementEngine(inst, chunk_size=4, jobs=2).place()
        assert par.copy_sets == serial.copy_sets

    def test_solver_and_ablation_knobs_forwarded(self):
        inst = _catalog_instance(17)
        for kwargs in (
            dict(fl_solver="greedy"),
            dict(phase2=False),
            dict(phase3=False),
            dict(facility_candidates=4),
        ):
            loop = approximate_placement(inst, **kwargs)
            engine = PlacementEngine(inst, chunk_size=2, **kwargs).place()
            assert engine.copy_sets == loop.copy_sets

    def test_zero_demand_catalog(self, line_metric):
        inst = DataManagementInstance(
            line_metric, np.array([3.0, 1.0, 2.0, 4.0, 5.0]),
            np.zeros((3, 5)), np.zeros((3, 5)),
        )
        placement = place_catalog(inst)
        assert placement.copy_sets == ((1,), (1,), (1,))


class TestEngineStreaming:
    def test_stream_yields_in_object_order(self):
        inst = _catalog_instance(5, num_objects=11)
        pairs = list(PlacementEngine(inst, chunk_size=4).stream())
        assert [obj for obj, _ in pairs] == list(range(11))
        assert Placement(tuple(c for _, c in pairs)).copy_sets == \
            approximate_placement(inst).copy_sets

    def test_stream_parallel_order(self):
        inst = _catalog_instance(6, num_objects=13)
        pairs = list(PlacementEngine(inst, chunk_size=3, jobs=2).stream())
        assert [obj for obj, _ in pairs] == list(range(13))

    def test_invalid_parameters_rejected(self):
        inst = _catalog_instance(7)
        with pytest.raises(ValueError, match="fl_solver"):
            PlacementEngine(inst, fl_solver="nope")
        with pytest.raises(ValueError, match="chunk_size"):
            PlacementEngine(inst, chunk_size=0)
        with pytest.raises(ValueError, match="jobs"):
            PlacementEngine(inst, jobs=0)

    def test_stream_early_exit_parallel_drains_window_and_shuts_down(self):
        """A consumer that stops mid-iteration with jobs > 1 must only
        drain the bounded in-flight window (the ``finally: fut.cancel()``
        path) and leave the pool cleanly shut down."""
        inst = _catalog_instance(8, num_objects=24)
        engine = PlacementEngine(inst, chunk_size=2, jobs=2)
        expected = approximate_placement(inst)

        stream = engine.stream()
        head = [next(stream) for _ in range(5)]
        # closing the generator mid-flight raises GeneratorExit inside it:
        # the finally block cancels the pending window and the pool's
        # context manager joins the workers
        stream.close()
        assert [obj for obj, _ in head] == list(range(5))
        for obj, copies in head:
            assert copies == expected.copy_sets[obj]

        # the engine object stays usable: a fresh stream starts a fresh
        # pool and still produces the full, identical catalog
        assert engine.place().copy_sets == expected.copy_sets

    def test_uninitialized_worker_is_a_named_runtime_error(self, monkeypatch):
        """The pool task must fail with an error naming the initializer,
        not a bare assert, when run outside a prepared worker process."""
        import repro.engine as engine_mod

        monkeypatch.setattr(engine_mod, "_WORKER_ENGINE", None)
        with pytest.raises(RuntimeError, match="_engine_worker_init"):
            engine_mod._engine_worker_place([0])

    def test_pool_context_is_pinned(self):
        """The engine pins an explicit mp context (fork where available)
        instead of inheriting the platform default."""
        import multiprocessing as mp

        import repro.engine as engine_mod

        ctx = engine_mod._pool_context()
        expected = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        assert ctx.get_start_method() == expected

    @pytest.mark.skipif(
        "fork" not in mp.get_all_start_methods(),
        reason="needs the fork start method",
    )
    def test_fork_pool_never_pickles_the_instance(self, monkeypatch):
        """Under fork every worker inherits the instance: with the instance
        made unpicklable, both fan-outs -- the chunk stream and the shard
        tasks -- still run on the pool and place what the serial engine
        places."""
        import repro.engine as engine_mod
        from repro.graphs import partition_instance

        inst = _catalog_instance(11, n=30, num_objects=7)
        part = partition_instance(inst, num_shards=3, portals_per_shard=2)
        serial = PlacementEngine(inst, chunk_size=3)
        expected = serial.place().copy_sets
        expected_sharded = serial.place_sharded(part)[0].copy_sets

        def refuse(self, protocol):
            raise pickle.PicklingError("the instance was pickled")

        pools = []

        def publish(instance, kwargs, workers, partition=None):
            pools.append(partition)
            return real_publish(instance, kwargs, workers, partition)

        real_publish = engine_mod.publish_instance
        monkeypatch.setattr(engine_mod, "publish_instance", publish)
        monkeypatch.setattr(DataManagementInstance, "__reduce_ex__", refuse)
        with pytest.raises(pickle.PicklingError):
            pickle.dumps(inst)
        pooled = PlacementEngine(inst, chunk_size=3, jobs=2)
        assert pooled.place().copy_sets == expected
        assert pooled.place_sharded(part)[0].copy_sets == expected_sharded
        assert pools == [None, part]  # each fan-out opened one pool

    def test_stream_early_exit_serial(self):
        inst = _catalog_instance(9, num_objects=9)
        engine = PlacementEngine(inst, chunk_size=3)
        stream = engine.stream()
        assert next(stream)[0] == 0
        stream.close()
        assert engine.place().copy_sets == \
            approximate_placement(inst).copy_sets


class TestPlaceSubset:
    """The sparse-object entry point: subset results must equal the full
    catalog solve restricted to the subset (objects are independent)."""

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_subset_matches_full_place(self, seed):
        inst = _catalog_instance(seed, num_objects=7)
        full = PlacementEngine(inst, chunk_size=3).place()
        subset = [5, 1, 3]
        solved = PlacementEngine(inst, chunk_size=2).place_subset(subset)
        assert sorted(solved) == [1, 3, 5]
        for obj, copies in solved.items():
            assert copies == full.copies(obj)

    def test_subset_lazy_backend(self):
        inst = _catalog_instance(8, backend="lazy", num_objects=6)
        full = PlacementEngine(inst).place()
        solved = PlacementEngine(inst, chunk_size=2).place_subset([0, 4])
        assert solved == {0: full.copies(0), 4: full.copies(4)}

    def test_subset_parallel_jobs(self):
        g = generators.sized_transit_stub_graph(80, seed=13)
        inst = make_instance(
            Metric.from_graph(g), seed=14, num_objects=16, write_fraction=0.1
        )
        serial = PlacementEngine(inst, chunk_size=3).place_subset(range(1, 12))
        par = PlacementEngine(inst, chunk_size=3, jobs=2).place_subset(range(1, 12))
        assert par == serial

    def test_duplicates_collapse_and_order_preserved(self):
        inst = _catalog_instance(9, num_objects=5)
        engine = PlacementEngine(inst, chunk_size=2)
        solved = engine.place_subset([4, 2, 4, 2, 0])
        assert list(solved) == [4, 2, 0]

    def test_stream_subset_in_given_order(self):
        inst = _catalog_instance(10, num_objects=6)
        engine = PlacementEngine(inst, chunk_size=2)
        pairs = list(engine.stream(objects=[5, 0, 3]))
        assert [obj for obj, _ in pairs] == [5, 0, 3]
        full = engine.place()
        assert all(copies == full.copies(obj) for obj, copies in pairs)

    def test_empty_subset(self):
        inst = _catalog_instance(11)
        assert PlacementEngine(inst).place_subset([]) == {}

    def test_out_of_range_rejected(self):
        inst = _catalog_instance(12, num_objects=4)
        engine = PlacementEngine(inst)
        with pytest.raises(ValueError, match="out of range"):
            engine.place_subset([0, 4])
        with pytest.raises(ValueError, match="out of range"):
            engine.place_subset([-1])
        # stream validates eagerly too -- at the call, not at first next()
        with pytest.raises(ValueError, match="out of range"):
            engine.stream(objects=[-1])
        with pytest.raises(ValueError, match="out of range"):
            engine.stream(objects=[4])


class TestPlaceCatalogSignature:
    def test_unknown_knob_is_a_typeerror(self):
        inst = _catalog_instance(11)
        with pytest.raises(TypeError, match="chunk_sze"):
            place_catalog(inst, chunk_sze=4)

    def test_positional_knobs_rejected(self):
        inst = _catalog_instance(11)
        with pytest.raises(TypeError):
            place_catalog(inst, "greedy")

    def test_explicit_knobs_delegate_to_config(self):
        inst = _catalog_instance(12)
        direct = PlacementEngine(inst, fl_solver="greedy", chunk_size=2).place()
        assert place_catalog(inst, fl_solver="greedy", chunk_size=2).copy_sets \
            == direct.copy_sets

    def test_bad_value_still_validated(self):
        inst = _catalog_instance(12)
        with pytest.raises(ValueError, match="fl_solver"):
            place_catalog(inst, fl_solver="nope")

    def test_version_bumped_for_the_cost_model_seam(self):
        import repro

        assert repro.__version__ == "1.7.0"


class TestBatchedRadii:
    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_radii_for_objects_equals_per_object(self, seed):
        """The shared sweep is bit-identical to the per-object sweep."""
        inst = _catalog_instance(seed)
        RW, RS, ZS = radii_for_objects(
            inst.metric, inst.storage_costs, inst.read_freq, inst.write_freq
        )
        for i in range(inst.num_objects):
            rw, rs, zs = radii_for_object(
                inst.metric, inst.storage_costs,
                inst.read_freq[i], inst.write_freq[i],
            )
            assert np.array_equal(RW[i], rw)
            assert np.array_equal(RS[i], rs)
            assert np.array_equal(ZS[i], zs)

    def test_fractional_weights_fall_back_bitwise(self):
        """Non-integer counts use the shared-argsort dense path; still
        bit-identical to the per-object computation."""
        rng = np.random.default_rng(3)
        g = generators.random_tree(15, seed=4)
        metric = Metric.from_graph(g)
        fr = rng.uniform(0.0, 3.0, size=(4, 15))
        fw = rng.uniform(0.0, 1.0, size=(4, 15))
        cs = rng.uniform(0.1, 5.0, size=15)
        RW, RS, ZS = radii_for_objects(metric, cs, fr, fw)
        for i in range(4):
            rw, rs, zs = radii_for_object(metric, cs, fr[i], fw[i])
            assert np.array_equal(RW[i], rw)
            assert np.array_equal(RS[i], rs)
            assert np.array_equal(ZS[i], zs)

    def test_block_size_invariance(self):
        inst = _catalog_instance(9, n=30)
        a = radii_for_objects(inst.metric, inst.storage_costs,
                              inst.read_freq, inst.write_freq, block_size=5)
        b = radii_for_objects(inst.metric, inst.storage_costs,
                              inst.read_freq, inst.write_freq, block_size=128)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


class TestWorkerPickling:
    def test_lazy_metric_pickles_without_cache(self):
        g = generators.sized_transit_stub_graph(150, seed=5)
        lm = LazyMetric.from_graph(g)
        lm.precompute([0, 1, 2])
        _ = lm.rows(np.arange(40))
        clone = pickle.loads(pickle.dumps(lm))
        assert clone.n == lm.n
        assert clone.rows_computed == 0  # caches dropped from the payload
        assert np.array_equal(np.asarray(clone.row(7)), np.asarray(lm.row(7)))
        assert np.array_equal(clone.dist_to_set([3, 9]), lm.dist_to_set([3, 9]))


class TestCapacityRepairRefactor:
    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_memoized_repair_matches_naive_greedy(self, seed):
        """The delta-memoized repair follows the exact greedy trajectory
        of a naive re-derive-every-candidate reference."""
        inst = _catalog_instance(seed, n=int(np.random.default_rng(seed).integers(5, 12)))
        placement = approximate_placement(inst)
        caps = np.full(inst.num_nodes, 2, dtype=int)
        if caps.sum() < inst.num_objects:
            return
        try:
            repaired = enforce_capacities(inst, placement, caps)
        except RuntimeError:
            with pytest.raises(RuntimeError):
                _naive_enforce(inst, placement, caps)
            return
        assert repaired.copy_sets == _naive_enforce(inst, placement, caps).copy_sets
        assert capacity_violations(repaired, caps) == {}

    def test_repair_deterministic_across_runs(self):
        inst = _catalog_instance(21, num_objects=5)
        placement = approximate_placement(inst)
        caps = np.ones(inst.num_nodes, dtype=int)
        if caps.sum() < inst.num_objects:
            caps += 1
        runs = {enforce_capacities(inst, placement, caps).copy_sets for _ in range(3)}
        assert len(runs) == 1

    def test_engine_placement_feeds_repair(self):
        """Catalog pipeline end to end: engine placement -> capacity repair
        -> batched billing, all on one instance."""
        g = generators.sized_transit_stub_graph(60, seed=31)
        inst = make_instance(
            Metric.from_graph(g), seed=32, num_objects=20,
            demand_model="catalog", write_fraction=0.1,
        )
        placement = PlacementEngine(inst, chunk_size=8).place()
        caps = np.full(inst.num_nodes, 3, dtype=int)
        repaired = enforce_capacities(inst, placement, caps)
        assert capacity_violations(repaired, caps) == {}
        bill = placement_cost(inst, repaired, policy="mst")
        by_hand = sum(
            object_cost(inst, obj, repaired.copies(obj), policy="mst").total
            for obj in range(inst.num_objects)
        )
        assert bill.total == pytest.approx(by_hand, rel=1e-12)


def _naive_enforce(instance, placement, capacities, *, policy="mst"):
    """The pre-refactor repair loop: re-derives object_cost per candidate.

    Kept as the reference semantics for the memoized implementation."""
    caps = np.asarray(capacities, dtype=int)
    sets = [set(c) for c in placement]
    counts = np.zeros(instance.num_nodes, dtype=int)
    for copies in sets:
        for v in copies:
            counts[v] += 1

    def cost_of(obj, copies):
        return object_cost(instance, obj, copies, policy=policy).total

    steps, limit = 0, 4 * sum(len(s) for s in sets) + 16
    while True:
        overflowing = np.flatnonzero(counts > caps)
        if overflowing.size == 0:
            break
        steps += 1
        if steps > limit:
            raise RuntimeError("no convergence")
        slack_nodes = np.flatnonzero(counts < caps)
        best = None
        for v in overflowing:
            v = int(v)
            for obj in range(instance.num_objects):
                if v not in sets[obj]:
                    continue
                base = cost_of(obj, sets[obj])
                if len(sets[obj]) >= 2:
                    cand = (cost_of(obj, sets[obj] - {v}) - base, obj, v, -1)
                    if best is None or cand < best:
                        best = cand
                for u in slack_nodes:
                    u = int(u)
                    if u in sets[obj]:
                        continue
                    cand = (cost_of(obj, (sets[obj] - {v}) | {u}) - base, obj, v, u)
                    if best is None or cand < best:
                        best = cand
        if best is None:
            raise RuntimeError("no legal repair move")
        _, obj, v_from, v_to = best
        sets[obj].discard(v_from)
        counts[v_from] -= 1
        if v_to >= 0:
            sets[obj].add(v_to)
            counts[v_to] += 1
    return Placement(tuple(tuple(sorted(s)) for s in sets))
