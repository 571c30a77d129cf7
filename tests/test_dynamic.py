"""Tests for the dynamic layer: time-evolving workloads, the epoch
replanner's migration accounting (full and incremental), and the
E15/E16 runners."""

import numpy as np
import pytest

from repro.config import PlanConfig
from repro.engine import PlacementEngine
from repro.graphs.backend import LazyMetric
from repro.graphs.generators import sized_transit_stub_graph, transit_stub_graph
from repro.graphs.metric import Metric
from repro.simulate import EpochReplanner, NetworkSimulator
from repro.workloads import DynamicWorkload, drifting_zipf_catalog, flash_crowd


def _network(seed: int = 3, size: int = 30):
    g = transit_stub_graph(2, 2, max(size // 6, 1), seed=seed)
    return g, Metric.from_graph(g)


class TestDynamicWorkload:
    def test_shapes_and_validation(self):
        wl = DynamicWorkload(np.ones((3, 2, 5)), np.zeros((3, 2, 5)))
        assert (wl.num_epochs, wl.num_objects, wl.num_nodes) == (3, 2, 5)
        assert wl.total_events == 30  # a property, like its num_* siblings
        with pytest.raises(ValueError, match="equal-shaped"):
            DynamicWorkload(np.ones((3, 2, 5)), np.zeros((3, 2, 4)))
        with pytest.raises(ValueError, match="non-negative"):
            DynamicWorkload(np.full((1, 1, 2), -1.0), np.zeros((1, 1, 2)))

    def test_aggregate_sums_epochs(self):
        g, metric = _network()
        wl = drifting_zipf_catalog(
            metric.n, 6, epochs=4, seed=1, requests_per_epoch=200
        )
        cs = np.ones(metric.n)
        agg = wl.aggregate_instance(metric, cs)
        assert np.array_equal(agg.read_freq, wl.read_freqs.sum(axis=0))
        assert np.array_equal(agg.write_freq, wl.write_freqs.sum(axis=0))
        e0 = wl.epoch_instance(metric, cs, 0)
        assert np.array_equal(e0.read_freq, wl.read_freqs[0])

    def test_epoch_and_full_logs(self):
        g, metric = _network()
        wl = drifting_zipf_catalog(
            metric.n, 5, epochs=3, seed=2, requests_per_epoch=150
        )
        per_epoch = [len(wl.epoch_log(e)) for e in range(3)]
        assert per_epoch == [150, 150, 150]  # fixed budget per epoch
        full = wl.full_log(seed=7)
        assert len(full) == 450
        # epoch boundaries preserved: first epoch's slice realizes epoch 0
        head = full[:150]
        r, w = head.counts(wl.num_objects, wl.num_nodes)
        assert np.array_equal(r + w, wl.read_freqs[0] + wl.write_freqs[0])


class TestGenerators:
    def test_drift_changes_popularity(self):
        g, metric = _network()
        wl = drifting_zipf_catalog(
            metric.n, 12, epochs=4, seed=5, drift=0.5, requests_per_epoch=600
        )
        per_obj = (wl.read_freqs + wl.write_freqs).sum(axis=2)  # (E, m)
        # popularity ranking must differ somewhere across epochs
        assert any(
            not np.array_equal(
                np.argsort(-per_obj[0]), np.argsort(-per_obj[e])
            )
            for e in range(1, 4)
        )

    def test_zero_drift_keeps_budget_and_shape(self):
        g, metric = _network()
        wl = drifting_zipf_catalog(
            metric.n, 8, epochs=3, seed=6, drift=0.0, requests_per_epoch=400
        )
        totals = (wl.read_freqs + wl.write_freqs).sum(axis=(1, 2))
        assert np.all(totals == 400)

    def test_flash_crowd_spikes_tail_objects(self):
        g, metric = _network()
        m, epochs = 10, 5
        wl = flash_crowd(
            metric.n, m, epochs=epochs, seed=7, crowd_epoch=2,
            crowd_objects=2, crowd_multiplier=30.0, requests_per_epoch=500,
        )
        per_obj = (wl.read_freqs + wl.write_freqs).sum(axis=2)  # (E, m)
        tail = per_obj[:, -2:].sum(axis=1)
        baseline = np.delete(tail, 2).max()
        assert tail[2] > 3 * max(baseline, 1.0)  # the burst epoch stands out
        # bursts are pure reads: tail writes stay at baseline scale
        assert wl.write_freqs[2, -2:].sum() < 0.1 * wl.read_freqs[2, -2:].sum()

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="epochs"):
            drifting_zipf_catalog(5, 3, epochs=0, seed=1)
        with pytest.raises(ValueError, match="drift"):
            drifting_zipf_catalog(5, 3, epochs=2, seed=1, drift=1.5)
        with pytest.raises(ValueError, match="crowd_epoch"):
            flash_crowd(5, 3, epochs=2, seed=1, crowd_epoch=5)


class TestEpochReplanner:
    def test_static_workload_migrates_once(self):
        """Identical epochs re-solve to identical placements: all
        migration happens into epoch 0 (from the zero-knowledge start)."""
        g, metric = _network(seed=9)
        cs = np.full(metric.n, 4.0)
        fr = np.tile(
            drifting_zipf_catalog(
                metric.n, 4, epochs=1, seed=11, requests_per_epoch=300,
                write_fraction=0.2,
            ).read_freqs[0],
            (3, 1, 1),
        )
        fw = np.zeros_like(fr)
        wl = DynamicWorkload(fr, fw)
        result = EpochReplanner(g, metric, cs).run(wl)
        assert len(result.epochs) == 3
        assert result.epochs[1].migration_cost == 0.0
        assert result.epochs[2].migration_cost == 0.0
        # nothing drifted, so even the default full mode re-solves nothing
        assert result.epochs[1].replaced_objects == 0
        assert result.epochs[2].replaced_objects == 0
        assert result.epochs[1].placement.copy_sets == result.epochs[0].placement.copy_sets
        # epoch 0 pays transfers from the cheapest-storage start node
        start = int(np.argmin(cs))
        expected = sum(
            metric.d(start, v)
            for obj in range(4)
            for v in result.epochs[0].placement.copies(obj)
            if v != start
        )
        assert result.epochs[0].migration_cost == pytest.approx(expected)

    def test_totals_decompose(self):
        g, metric = _network(seed=13)
        cs = np.full(metric.n, 3.0)
        wl = drifting_zipf_catalog(
            metric.n, 5, epochs=3, seed=14, drift=0.4, requests_per_epoch=250,
            write_fraction=0.1,
        )
        result = EpochReplanner(g, metric, cs).run(wl)
        assert result.total_cost == pytest.approx(
            result.serve_cost + result.migration_cost
        )
        assert result.final_placement.num_objects == 5
        # each epoch's serving bill equals an independent replay of a
        # shuffled log: the bill depends only on the counts
        for e, er in enumerate(result.epochs):
            inst = wl.epoch_instance(metric, cs, e)
            sim = NetworkSimulator(g, inst)
            ref = sim.run(er.placement, wl.epoch_log(e, seed=1 + e))
            assert er.report.total_cost == pytest.approx(ref.total_cost, rel=1e-9)

    def test_replanner_matches_engine_per_epoch(self):
        g, metric = _network(seed=15)
        cs = np.full(metric.n, 5.0)
        wl = drifting_zipf_catalog(
            metric.n, 3, epochs=2, seed=16, requests_per_epoch=200
        )
        result = EpochReplanner(
            g, metric, cs, config=PlanConfig(fl_solver="greedy")
        ).run(wl)
        for e, er in enumerate(result.epochs):
            inst = wl.epoch_instance(metric, cs, e)
            expected = PlacementEngine(inst, fl_solver="greedy").place()
            assert er.placement.copy_sets == expected.copy_sets


class TestE15Runner:
    def test_smoke_parity_and_sections(self):
        from repro.analysis import run_e15_dynamic_replay

        res = run_e15_dynamic_replay(
            n=40, num_objects=6, epochs=3, requests_per_epoch=200, seed=3
        )
        by_label = {row[1]: row for row in res.rows}
        assert by_label["vectorized"][-1] is True  # bills agree
        assert by_label["clairvoyant-static"][6] == pytest.approx(1.0)
        assert {"hop-by-hop", "epoch-replan", "online-counting"} <= set(by_label)

    def test_flash_scenario_and_unknown_scenario(self):
        from repro.analysis import run_e15_dynamic_replay

        res = run_e15_dynamic_replay(
            n=30, num_objects=5, epochs=2, requests_per_epoch=120,
            scenario="flash", seed=4, compare_loop=False,
        )
        assert any(row[1] == "vectorized" for row in res.rows)
        with pytest.raises(ValueError, match="scenario"):
            run_e15_dynamic_replay(n=20, num_objects=3, epochs=2, scenario="nope")

    def test_incremental_mode_defaults_to_sparse_drift_workload(self):
        """dynamic --incremental must run on a redraw='changed' workload
        by default -- full resampling would mark everything dirty and the
        incremental mode could never skip an object."""
        from repro.analysis import run_e15_dynamic_replay

        res = run_e15_dynamic_replay(
            n=30, num_objects=5, epochs=2, requests_per_epoch=120,
            seed=6, compare_loop=False, replan_mode="incremental",
        )
        assert any(row[1] == "epoch-replan" for row in res.rows)
        with pytest.raises(ValueError, match="redraw"):
            run_e15_dynamic_replay(
                n=20, num_objects=3, epochs=2, redraw="some",
            )


class TestDriftDetection:
    def _workload(self):
        fr = np.zeros((3, 3, 4))
        fw = np.zeros((3, 3, 4))
        fr[0] = [[4, 0, 0, 0], [0, 10, 0, 0], [1, 1, 1, 1]]
        fr[1] = fr[0]
        fr[1, 0] = [0, 4, 0, 0]       # object 0 moves all 4 reads
        fr[2] = fr[1]
        fw[2, 1, 2] = 1.0             # object 1 gains one write
        return DynamicWorkload(fr, fw)

    def test_epoch_zero_everything_is_dirty(self):
        wl = self._workload()
        assert wl.drifted_objects(0).tolist() == [0, 1, 2]

    def test_tolerance_zero_is_exact_row_change(self):
        wl = self._workload()
        assert wl.drifted_objects(1).tolist() == [0]
        assert wl.drifted_objects(2).tolist() == [1]

    def test_delta_normalization(self):
        wl = self._workload()
        delta = wl.demand_delta(1)
        # object 0: L1 = 8 over max(4, 4) demand -> 2.0 (all mass moved)
        assert delta[0] == pytest.approx(2.0)
        assert delta[1] == 0.0 and delta[2] == 0.0
        # object 1 into epoch 2: one new write over max(10, 11)
        assert wl.demand_delta(2)[1] == pytest.approx(1.0 / 11.0)

    def test_positive_tolerance_keeps_small_drifts(self):
        wl = self._workload()
        assert wl.drifted_objects(2, tolerance=0.5).tolist() == []
        assert wl.drifted_objects(2, tolerance=0.01).tolist() == [1]

    def test_validation(self):
        wl = self._workload()
        with pytest.raises(ValueError, match="tolerance"):
            wl.drifted_objects(1, tolerance=-0.1)
        with pytest.raises(ValueError, match="epoch"):
            wl.drifted_objects(3)
        with pytest.raises(ValueError, match="epoch"):
            wl.demand_delta(0)

    def test_zero_demand_pair_scores_zero(self):
        wl = DynamicWorkload(np.zeros((2, 2, 3)), np.zeros((2, 2, 3)))
        assert wl.demand_delta(1).tolist() == [0.0, 0.0]
        assert wl.drifted_objects(1).size == 0


class TestSparseDriftGenerators:
    def test_changed_mode_touches_exact_fraction(self):
        n, m, drift = 12, 20, 0.15
        wl = drifting_zipf_catalog(
            n, m, epochs=4, seed=3, drift=drift, requests_per_epoch=2000,
            redraw="changed",
        )
        expected = int(round(drift * m))
        for e in range(1, 4):
            assert len(wl.drifted_objects(e)) == expected
            # untouched rows carry forward bit-identically
            clean = np.setdiff1d(np.arange(m), wl.drifted_objects(e))
            assert np.array_equal(wl.read_freqs[e][clean], wl.read_freqs[e - 1][clean])
            assert np.array_equal(wl.write_freqs[e][clean], wl.write_freqs[e - 1][clean])

    def test_changed_mode_tiny_drift_freezes_catalog(self):
        wl = drifting_zipf_catalog(
            8, 10, epochs=3, seed=4, drift=0.05, requests_per_epoch=500,
            redraw="changed",
        )  # round(0.05 * 10) = 0 touched objects: epochs never change
        for e in range(1, 3):
            assert wl.drifted_objects(e).size == 0

    def test_changed_mode_single_object_still_churns(self):
        """round(drift * m) == 1 cannot rotate ranks (needs a pair) but
        must still redraw exactly that one object's demand."""
        m = 10
        wl = drifting_zipf_catalog(
            8, m, epochs=4, seed=6, drift=0.1, requests_per_epoch=800,
            redraw="changed",
        )
        churned = 0
        for e in range(1, 4):
            dirty = wl.drifted_objects(e)
            assert dirty.size <= 1  # never more than the one touched object
            churned += dirty.size
            clean = np.setdiff1d(np.arange(m), dirty)
            assert np.array_equal(wl.read_freqs[e][clean], wl.read_freqs[e - 1][clean])
        assert churned > 0  # the catalog is not silently frozen

    def test_flash_changed_mode_only_burst_objects_drift(self):
        m, epochs = 12, 5
        wl = flash_crowd(
            10, m, epochs=epochs, seed=5, crowd_epoch=2, crowd_objects=2,
            requests_per_epoch=600, redraw="changed",
        )
        assert wl.drifted_objects(1).size == 0          # quiet epoch
        assert wl.drifted_objects(2).tolist() == [10, 11]  # burst in
        assert wl.drifted_objects(3).tolist() == [10, 11]  # burst reverts
        assert wl.drifted_objects(4).size == 0
        # the revert restores the baseline bit-identically
        assert np.array_equal(wl.read_freqs[3], wl.read_freqs[1])

    def test_redraw_validation(self):
        with pytest.raises(ValueError, match="redraw"):
            drifting_zipf_catalog(5, 3, epochs=2, seed=1, redraw="some")
        with pytest.raises(ValueError, match="redraw"):
            flash_crowd(5, 3, epochs=2, seed=1, redraw="some")


class TestIncrementalReplanner:
    @pytest.mark.parametrize("backend", ["dense", "lazy"])
    @pytest.mark.parametrize("scenario", ["drift", "flash"])
    def test_tolerance_zero_bit_identical_to_full(self, backend, scenario):
        g, metric = _network(seed=21)
        if backend == "lazy":
            metric = LazyMetric.from_graph(g)
        cs = np.full(metric.n, 6.0)
        if scenario == "drift":
            wl = drifting_zipf_catalog(
                metric.n, 8, epochs=3, seed=22, drift=0.25,
                requests_per_epoch=400, write_fraction=0.1, redraw="changed",
            )
        else:
            wl = flash_crowd(
                metric.n, 8, epochs=3, seed=23, crowd_epoch=1,
                requests_per_epoch=400, redraw="changed",
            )
        full = EpochReplanner(
            g, metric, cs, config=PlanConfig(replan_mode="full")
        ).run(wl)
        incr = EpochReplanner(
            g, metric, cs,
            config=PlanConfig(replan_mode="incremental", replan_tolerance=0.0),
        ).run(wl)
        for f, i in zip(full.epochs, incr.epochs):
            assert f.placement.copy_sets == i.placement.copy_sets
            assert i.migration_cost == pytest.approx(f.migration_cost, rel=1e-12)
            assert i.report.total_cost == pytest.approx(
                f.report.total_cost, rel=1e-12
            )
        assert incr.total_cost == pytest.approx(full.total_cost, rel=1e-9)

    def test_incremental_replaces_only_the_dirty_subset(self):
        g, metric = _network(seed=25)
        cs = np.full(metric.n, 5.0)
        wl = drifting_zipf_catalog(
            metric.n, 10, epochs=3, seed=26, drift=0.2,
            requests_per_epoch=500, redraw="changed",
        )
        res = EpochReplanner(
            g, metric, cs, config=PlanConfig(replan_mode="incremental")
        ).run(wl)
        assert res.epochs[0].replaced_objects == 10  # cold start: full solve
        for e in (1, 2):
            assert res.epochs[e].replaced_objects == len(wl.drifted_objects(e))
            assert res.epochs[e].solve_time_s > 0.0
        assert res.replaced_objects == sum(e.replaced_objects for e in res.epochs)

    def test_positive_tolerance_carries_near_static_objects(self):
        """Under resampled demand every row changes a little; a loose
        tolerance must carry all of it, tolerance 0 none of it."""
        g, metric = _network(seed=27)
        cs = np.full(metric.n, 5.0)
        wl = drifting_zipf_catalog(
            metric.n, 6, epochs=3, seed=28, drift=0.0, requests_per_epoch=400
        )  # redraw="all": sampling noise touches every object
        exact = EpochReplanner(
            g, metric, cs, config=PlanConfig(replan_mode="incremental")
        ).run(wl)
        loose = EpochReplanner(
            g, metric, cs,
            config=PlanConfig(replan_mode="incremental", replan_tolerance=2.0),
        ).run(wl)
        assert all(e.replaced_objects == 6 for e in exact.epochs)
        assert all(e.replaced_objects == 0 for e in loose.epochs[1:])
        # carried placements simply freeze epoch 0's solution
        assert (
            loose.final_placement.copy_sets
            == loose.epochs[0].placement.copy_sets
        )
        assert loose.epochs[1].migration_cost == 0.0

    def test_tolerance_drift_accumulates_since_last_replace(self):
        """A slow drift whose per-epoch delta stays under the tolerance
        must still trigger a re-place once the *cumulative* shift since
        the object's last re-place crosses it -- the replanner anchors
        detection at the last-solved snapshot, not at epoch - 1."""
        g, metric = _network(seed=35)
        n = metric.n
        epochs, m = 5, 2
        fr = np.zeros((epochs, m, n))
        fw = np.zeros((epochs, m, n))
        # object 0: 10 reads migrate from node 0 to node 1, one per epoch
        # -> consecutive delta 0.2/epoch, cumulative 0.2 * epochs-since-solve
        for e in range(epochs):
            fr[e, 0, 0] = 10 - e
            fr[e, 0, 1] = e
            fr[e, 1, 2] = 8.0  # object 1 never moves
        wl = DynamicWorkload(fr, fw)
        cs = np.full(n, 3.0)
        res = EpochReplanner(
            g, metric, cs,
            config=PlanConfig(replan_mode="incremental", replan_tolerance=0.3),
        ).run(wl)
        # per-epoch deltas (0.2) never cross 0.3; cumulative drift does at
        # epochs 2 and 4 (0.4 vs the epoch-0 / epoch-2 baselines)
        assert [e.replaced_objects for e in res.epochs] == [2, 0, 1, 0, 1]
        # the consecutive-epoch detector alone would never fire
        for e in range(1, epochs):
            assert wl.drifted_objects(e, tolerance=0.3).size == 0

    def test_batched_migration_matches_per_object_reference(self):
        g, metric = _network(seed=31)
        cs = np.full(metric.n, 4.0)
        wl = drifting_zipf_catalog(
            metric.n, 7, epochs=3, seed=32, drift=0.5, requests_per_epoch=350,
            write_fraction=0.15,
        )
        replanner = EpochReplanner(g, metric, cs)
        res = replanner.run(wl)
        prev = [(int(np.argmin(cs)),) for _ in range(wl.num_objects)]
        for er in res.epochs:
            new = er.placement.copy_sets
            ref_cost = ref_added = ref_dropped = 0
            for obj in range(wl.num_objects):
                c, a, d = replanner._migration(prev[obj], new[obj])
                ref_cost += c
                ref_added += a
                ref_dropped += d
            assert er.migration_cost == pytest.approx(ref_cost, rel=1e-12)
            assert (er.copies_added, er.copies_dropped) == (ref_added, ref_dropped)
            prev = list(new)

    @pytest.mark.parametrize("mode", ["full", "incremental"])
    def test_zero_demand_epoch_end_to_end(self, mode):
        """An all-zero epoch must replan and bill cleanly (nothing guards
        this upstream: empty logs, zero-demand placements, no traffic)."""
        g, metric = _network(seed=33)
        n = metric.n
        fr = np.zeros((3, 2, n))
        fw = np.zeros((3, 2, n))
        fr[0, 0, 0] = 5.0
        fr[2, 1, 1] = 3.0  # epoch 1 is entirely demand-free
        wl = DynamicWorkload(fr, fw)
        cs = np.full(n, 2.0)
        res = EpochReplanner(
            g, metric, cs, config=PlanConfig(replan_mode=mode)
        ).run(wl)
        assert len(res.epochs) == 3
        quiet = res.epochs[1]
        assert quiet.report.transmission_cost == 0.0
        assert quiet.report.messages == 0
        assert quiet.report.storage_cost > 0.0  # copies still pay rent
        assert len(wl.epoch_log(1)) == 0
        assert res.total_cost == pytest.approx(
            res.serve_cost + res.migration_cost
        )

    def test_zero_demand_horizon_full_log_is_empty(self):
        wl = DynamicWorkload(np.zeros((2, 2, 4)), np.zeros((2, 2, 4)))
        log = wl.full_log(seed=3)
        assert len(log) == 0
        assert log.kind.dtype == np.uint8
        assert log.node.dtype == np.int64 and log.obj.dtype == np.int64


class TestE16Runner:
    def test_smoke_identity_and_columns(self):
        from repro.analysis import run_e16_incremental_replan

        res = run_e16_incremental_replan(
            n=30, num_objects=6, epochs=3, requests_per_epoch=240,
            drift=0.34, seed=7, backends=("dense",), scenarios=("drift",),
        )
        modes = {(row[2], row[3]) for row in res.rows}
        assert ("full", "--") in modes and ("incremental", 0) in modes
        for row in res.rows:
            if row[2] == "incremental" and row[3] == 0:
                assert row[-1] is True      # bit-identical to full
                assert row[8] == pytest.approx(1.0)  # cost ratio vs full

    def test_rejects_bad_arguments(self):
        from repro.analysis import run_e16_incremental_replan

        with pytest.raises(ValueError, match="backend"):
            run_e16_incremental_replan(backends=("sparse",))
        with pytest.raises(ValueError, match="scenario"):
            run_e16_incremental_replan(scenarios=("nope",))
        with pytest.raises(ValueError, match="epochs"):
            run_e16_incremental_replan(epochs=1)
