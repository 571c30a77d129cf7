"""Tests for the serving subsystem: daemon-vs-replanner parity, lookup
consistency under live background replans, warm restarts, checkpoints,
spool files and the CLI/registry surfaces."""

import gc
import io
import json
import sys
import threading
import time
import traceback
from collections import Counter

import numpy as np
import pytest

from repro.cli import main
from repro.config import PlanConfig
from repro.graphs.backend import LazyMetric
from repro.graphs.generators import transit_stub_graph
from repro.graphs.metric import Metric
from repro.registry import get_strategy
from repro.serialize import load_array_archive, save_array_archive
from repro.serve import (
    CheckpointError,
    DaemonCheckpoint,
    PlacementDaemon,
    ServingState,
    compare_with_replanner,
    load_checkpoint,
    read_spool_file,
    replay_workload,
    spool_files,
    write_spool_file,
)
from repro.simulate import EpochReplanner
from repro.simulate.events import RequestLog
from repro.workloads import drifting_zipf_catalog, make_instance


def _network(seed: int = 3):
    g = transit_stub_graph(2, 2, 3, seed=seed)
    return g, Metric.from_graph(g)


def _workload(n: int, m: int = 5, epochs: int = 4, seed: int = 11):
    return drifting_zipf_catalog(
        n, m, epochs=epochs, seed=seed, drift=0.4,
        requests_per_epoch=60 * m, redraw="changed",
    )


def _costs(n: int) -> np.ndarray:
    return np.full(n, 30.0)


# ----------------------------------------------------------------------
# tolerance-0 parity with the epoch replanner (the E19 contract)
# ----------------------------------------------------------------------
class TestReplannerParity:
    @pytest.mark.parametrize("backend", ["dense", "lazy"])
    @pytest.mark.parametrize("mode", ["full", "incremental"])
    def test_bit_identical_at_tolerance_zero(self, backend, mode):
        g, metric = _network()
        if backend == "lazy":
            metric = LazyMetric.from_graph(g)
        wl = _workload(metric.n)
        config = PlanConfig(replan_mode=mode, replan_tolerance=0.0)
        verdict = compare_with_replanner(
            g, metric, _costs(metric.n), wl, config
        )
        assert verdict["identical"] is True
        for epoch in verdict["epochs"]:
            assert epoch["placements_match"] is True
        assert verdict["cost_ratio"] == pytest.approx(1.0, rel=1e-12)

    def test_per_epoch_bills_bit_identical(self):
        """Not just the totals: every epoch's serve + migration bill is
        the replanner's, bit for bit."""
        g, metric = _network()
        wl = _workload(metric.n)
        config = PlanConfig(replan_mode="incremental", replan_tolerance=0.0)
        daemon = PlacementDaemon(
            _costs(metric.n), wl.num_objects, metric=metric, graph=g,
            config=config, keep_history=True,
        )
        try:
            records = replay_workload(daemon, wl)
        finally:
            daemon.close()
        result = EpochReplanner(g, metric, _costs(metric.n), config=config).run(wl)
        assert len(records) == wl.num_epochs
        for rec, rep in zip(records, result.epochs):
            assert rec["serve_cost"] == rep.report.total_cost
            assert rec["migration_cost"] == rep.migration_cost
            assert rec["replaced"] == rep.replaced_objects

    def test_registry_daemon_strategy_matches_krw(self):
        g, metric = _network()
        inst = make_instance(metric, seed=5, num_objects=4)
        config = PlanConfig()
        report = get_strategy("daemon").plan(inst, config)
        krw = get_strategy("krw").plan(inst, config)
        assert report.placement.copy_sets == krw.placement.copy_sets
        assert report.extras["generation"] == 1


# ----------------------------------------------------------------------
# lookups racing live background replans
# ----------------------------------------------------------------------
class TestLookupConsistency:
    def test_threaded_lookups_never_mix_generations(self):
        g, metric = _network()
        wl = _workload(metric.n, epochs=6, seed=17)
        daemon = PlacementDaemon(
            _costs(metric.n), wl.num_objects, metric=metric, graph=g,
            config=PlanConfig(replan_mode="incremental"), keep_history=True,
        )
        stop = threading.Event()
        failures: list[str] = []
        lookups = [0]

        def reader(seed: int) -> None:
            rng = np.random.default_rng(seed)
            while not stop.is_set():
                obj = int(rng.integers(0, wl.num_objects))
                r = daemon.lookup(obj, int(rng.integers(0, metric.n)))
                expected = daemon.generation_placement(r.generation)[obj]
                if r.copies != expected or r.replica not in r.copies:
                    failures.append(
                        f"gen {r.generation}: {r.copies} != {expected}"
                    )
                lookups[0] += 1

        threads = [
            threading.Thread(target=reader, args=(s,)) for s in (1, 2, 3)
        ]
        try:
            for t in threads:
                t.start()
            for e in range(wl.num_epochs):
                daemon.ingest_counts(wl.read_freqs[e], wl.write_freqs[e])
                daemon.end_epoch(wait=False)
            daemon.drain()
        finally:
            stop.set()
            for t in threads:
                t.join()
            daemon.close()
        assert not failures
        assert lookups[0] > 0
        assert daemon.snapshot().generation == wl.num_epochs

    def test_snapshot_is_internally_consistent(self):
        g, metric = _network()
        wl = _workload(metric.n)
        with PlacementDaemon(
            _costs(metric.n), wl.num_objects, metric=metric, graph=g
        ) as daemon:
            replay_workload(daemon, wl)
            state = daemon.snapshot()
            assert state.generation == wl.num_epochs
            for obj in range(wl.num_objects):
                node, dist = state.nearest_replica(obj, 0)
                assert node in state.placement(obj)
                assert dist == metric.rows([0])[0][node]


# ----------------------------------------------------------------------
# nearest-replica tables: built before the publish, reused, never locked
# ----------------------------------------------------------------------
class _CountingMetric(Metric):
    """A dense metric that counts every public attribute read through it
    -- every backend call included -- by name."""

    def __init__(self, metric: Metric) -> None:
        self.calls = Counter()
        super().__init__(metric.dist, validate=False)

    def __getattribute__(self, name):
        if not name.startswith("_") and name != "calls":
            object.__getattribute__(self, "calls")[name] += 1
        return object.__getattribute__(self, name)


def _new_sets(copy_sets, previous_sets) -> int:
    """Distinct copy sets in ``copy_sets`` that ``previous_sets`` lacks."""
    return len(set(copy_sets) - set(previous_sets))


class TestNearestTables:
    def test_one_backend_query_per_distinct_new_copy_set(self):
        _, plain = _network()
        metric = _CountingMetric(plain)
        cold = ServingState(
            metric=metric, copy_sets=((0,),) * 6, generation=0, epoch=0
        )
        assert metric.calls["nearest_in_set"] == cold.tables_built == 1
        # objects 1 and 2 share a new set; object 4 keeps (0,)
        sets1 = ((0,), (1, 5), (1, 5), (2,), (0,), (3, 4))
        gen1 = ServingState(
            metric=metric, copy_sets=sets1, generation=1, epoch=1,
            previous=cold,
        )
        assert metric.calls["nearest_in_set"] == 1 + 3
        assert gen1.tables_built == 3
        # object 0 moves to object 3's old set; objects 3 and 4 share (6,)
        sets2 = ((2,), (1, 5), (0,), (6,), (6,), (3, 4))
        gen2 = ServingState(
            metric=metric, copy_sets=sets2, generation=2, epoch=2,
            previous=gen1,
        )
        assert gen2.tables_built == _new_sets(sets2, sets1) == 1
        assert metric.calls["nearest_in_set"] == 1 + 3 + 1
        assert not any(ref is gen1 for ref in gc.get_referents(gen2))

        metric.calls.clear()
        answers = [
            (gen2.lookup(obj, v), gen2.nearest_replica(obj, v), gen2.placement(obj))
            for obj in range(len(sets2)) for v in range(plain.n)
        ]
        assert not metric.calls, "a lookup touched the backend"
        for answer, pair, copies in answers:
            sources, dists = plain.nearest_in_set(copies)
            expected = (int(sources[answer.node]), float(dists[answer.node]))
            assert (answer.replica, answer.distance) == pair == expected
            assert answer.copies == copies

    def test_tables_are_read_only_and_bounds_checked(self):
        _, metric = _network()
        state = ServingState(metric=metric, copy_sets=((0, 3),), generation=0, epoch=0)
        sources, dists = state._tables[0]
        with pytest.raises(ValueError):
            dists[0] = -1.0
        with pytest.raises(ValueError, match="unknown object"):
            state.lookup(1, 0)
        with pytest.raises(ValueError, match="unknown node"):
            state.lookup(0, metric.n)
        with pytest.raises(ValueError, match="unknown node"):
            state.nearest_replica(0, -1)

    def test_daemon_publishes_build_only_changed_sets(self):
        g, plain = _network()
        metric = _CountingMetric(plain)
        wl = _workload(plain.n, m=6, epochs=5, seed=31)
        daemon = PlacementDaemon(
            _costs(plain.n), wl.num_objects, metric=metric, graph=g,
            config=PlanConfig(replan_mode="incremental"), keep_history=True,
        )
        try:
            # generation 0: every object on the cheapest node, one query
            assert metric.calls["nearest_in_set"] == 1
            assert daemon.stats()["last_epoch"] is None
            records = replay_workload(daemon, wl)
            for rec in records:
                gen = rec["generation"]
                assert rec["tables_built"] == _new_sets(
                    daemon.generation_placement(gen),
                    daemon.generation_placement(gen - 1),
                )
                assert rec["tables_s"] >= 0.0
            last = daemon.stats()["last_epoch"]
            assert last == records[-1] and last is not daemon._records[-1]

            metric.calls.clear()
            for obj in range(wl.num_objects):
                for v in range(plain.n):
                    daemon.lookup(obj, v)
                    daemon.nearest_replica(obj, v)
            assert not metric.calls, "a daemon lookup touched the backend"
        finally:
            daemon.close()

    def test_readers_racing_publishes_get_their_generations_tables(self):
        """More reader threads than cores, switching the interpreter lock
        as often as it can, while the worker publishes: every answer is
        the exact nearest copy of its own generation, ties included."""
        g, metric = _network()
        wl = _workload(metric.n, m=6, epochs=6, seed=17)
        daemon = PlacementDaemon(
            _costs(metric.n), wl.num_objects, metric=metric, graph=g,
            config=PlanConfig(replan_mode="incremental"), keep_history=True,
        )
        expected: dict[tuple[int, ...], tuple] = {}
        stop = threading.Event()
        failures: list[str] = []
        counts = [0] * 5
        seen = [set() for _ in counts]

        def reader(i: int) -> None:
            rng = np.random.default_rng(i)
            while not stop.is_set():
                obj = int(rng.integers(0, wl.num_objects))
                node = int(rng.integers(0, metric.n))
                r = daemon.lookup(obj, node)
                copies = daemon.generation_placement(r.generation)[obj]
                table = expected.get(copies)
                if table is None:
                    table = expected.setdefault(copies, metric.nearest_in_set(copies))
                want = (copies, int(table[0][node]), float(table[1][node]))
                if (r.copies, r.replica, r.distance) != want:
                    failures.append(f"gen {r.generation} obj {obj} node {node}")
                seen[i].add(r.generation)
                counts[i] += 1

        def wait_for_every_reader(before: list[int]) -> None:
            deadline = time.monotonic() + 10.0
            while not all(c > b for c, b in zip(counts, before)):
                assert time.monotonic() < deadline, "a reader made no progress"
                time.sleep(0.005)

        threads = [
            threading.Thread(target=reader, args=(i,), daemon=True)
            for i in range(len(counts))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            wait_for_every_reader([0] * len(counts))
            for e in range(wl.num_epochs):
                daemon.ingest_counts(wl.read_freqs[e], wl.write_freqs[e])
                daemon.end_epoch(wait=False)
            daemon.drain()
            wait_for_every_reader(list(counts))
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=30)
            sys.setswitchinterval(interval)
            daemon.close()
        assert not any(t.is_alive() for t in threads)
        assert not failures, failures[:5]
        assert daemon.snapshot().generation == wl.num_epochs >= 5
        for generations in seen:
            assert {0, wl.num_epochs} <= generations


class _FailingTablesMetric(Metric):
    """A dense metric whose ``nearest_in_set`` raises once armed."""

    armed = False

    def nearest_in_set(self, targets):
        if self.armed:
            raise OSError("distance backend unavailable")
        return super().nearest_in_set(targets)


class TestFailedPublish:
    def test_failed_table_build_leaves_generation_and_bill_intact(self, tmp_path):
        g, plain = _network()
        metric = _FailingTablesMetric(plain.dist, validate=False)
        wl = _workload(plain.n, m=5, epochs=1, seed=11)
        path = tmp_path / "torn.npz"
        daemon = PlacementDaemon(
            _costs(plain.n), wl.num_objects, metric=metric, graph=g,
            config=PlanConfig(replan_mode="incremental"), checkpoint_path=path,
        )
        daemon.ingest_counts(wl.read_freqs[0], wl.write_freqs[0])
        daemon.end_epoch(wait=True)
        gen1 = daemon.snapshot()
        before = daemon.stats()
        anchors = daemon._tracker.anchors
        assert gen1.generation == 1
        # an epoch without traffic: every object drifts and is re-placed,
        # the replay bills no request, so the only backend query left
        # that can fail is the table build of the new copy sets
        metric.armed = True
        daemon.end_epoch(wait=False)
        with pytest.raises(RuntimeError, match="background replan failed") as info:
            daemon.drain()
        frames = traceback.extract_tb(info.value.__cause__.__traceback__)
        assert any(f.filename.endswith("state.py") for f in frames)

        assert daemon.snapshot() is gen1
        stats = daemon.stats()
        assert stats["generation"] == 1 and stats["epochs_published"] == 1
        assert stats["serve_cost"] + stats["migration_cost"] == stats["total_cost"]
        assert (stats["serve_cost"], stats["migration_cost"]) == (
            before["serve_cost"], before["migration_cost"],
        )
        assert stats["last_epoch"] == before["last_epoch"]
        assert all(
            np.array_equal(a, b) for a, b in zip(daemon._tracker.anchors, anchors)
        )
        for obj in range(wl.num_objects):
            sources, dists = plain.nearest_in_set(gen1.copy_sets[obj])
            for v in range(plain.n):
                r = daemon.lookup(obj, v)
                assert (r.generation, r.replica, r.distance) == (
                    1, int(sources[v]), float(dists[v]),
                )

        with pytest.raises(RuntimeError, match="background replan failed"):
            daemon.close()
        cp = load_checkpoint(path)
        assert cp.generation == 1 and cp.epochs_published == 1
        assert cp.copy_sets == gen1.copy_sets
        assert cp.serve_cost == stats["serve_cost"]
        assert cp.migration_cost == stats["migration_cost"]
        assert np.array_equal(cp.base_fr, anchors[0])


# ----------------------------------------------------------------------
# warm restarts: kill, resume, bit-identical continuation
# ----------------------------------------------------------------------
class TestWarmRestart:
    def test_kill_mid_stream_then_resume_bit_identically(self, tmp_path):
        """A daemon checkpointed after two epochs plus half an ingested
        window, abandoned without close(), and restored in a fresh
        process-alike must finish with the uninterrupted run's final
        placement and cumulative bill, bit for bit."""
        g, metric = _network(seed=9)
        wl = _workload(metric.n, epochs=5, seed=23)
        cs = _costs(metric.n)
        config = PlanConfig(replan_mode="incremental", replan_tolerance=0.0)

        reference = PlacementDaemon(
            cs, wl.num_objects, metric=metric, graph=g, config=config
        )
        try:
            replay_workload(reference, wl)
            ref_state = reference.snapshot()
        finally:
            reference.close()

        # epoch 2's demand split into two half-windows: the kill lands
        # between them
        fr, fw = wl.read_freqs[2], wl.write_freqs[2]
        half_fr, half_fw = fr / 2.0, fw / 2.0

        path = tmp_path / "warm.npz"
        killed = PlacementDaemon(
            cs, wl.num_objects, metric=metric, graph=g, config=config
        )
        for e in range(2):
            killed.ingest_counts(wl.read_freqs[e], wl.write_freqs[e])
            killed.end_epoch(wait=True)
        killed.ingest_counts(half_fr, half_fw)
        killed.checkpoint_now(path)
        del killed  # the "kill": no close(), no final checkpoint

        resumed = PlacementDaemon.restore(
            path, storage_costs=cs, metric=metric, graph=g
        )
        try:
            assert resumed.config.replan_mode == "incremental"
            resumed.ingest_counts(fr - half_fr, fw - half_fw)
            resumed.end_epoch(wait=True)
            for e in range(3, wl.num_epochs):
                resumed.ingest_counts(wl.read_freqs[e], wl.write_freqs[e])
                resumed.end_epoch(wait=True)
            state = resumed.snapshot()
            assert state.copy_sets == ref_state.copy_sets
            assert state.cumulative_cost == ref_state.cumulative_cost
            assert state.generation == ref_state.generation
        finally:
            resumed.close()

    def test_close_writes_final_checkpoint(self, tmp_path):
        g, metric = _network()
        wl = _workload(metric.n, epochs=2)
        path = tmp_path / "final.npz"
        daemon = PlacementDaemon(
            _costs(metric.n), wl.num_objects, metric=metric, graph=g,
            checkpoint_path=path,
        )
        replay_workload(daemon, wl)
        expected = daemon.stats()
        daemon.close()
        cp = load_checkpoint(path)
        assert cp.generation == expected["generation"]
        assert cp.serve_cost == expected["serve_cost"]
        with pytest.raises(RuntimeError, match="closed"):
            daemon.end_epoch()

    def test_sigterm_checkpoints_and_exits(self, tmp_path):
        g, metric = _network()
        path = tmp_path / "sig.npz"
        daemon = PlacementDaemon(
            _costs(metric.n), 3, metric=metric, graph=g,
            checkpoint_path=path,
        )
        assert daemon.install_signal_handlers() is True
        daemon.ingest_counts(
            np.ones((3, metric.n)), np.zeros((3, metric.n))
        )
        daemon.end_epoch(wait=True)
        with pytest.raises(SystemExit):
            daemon._handle_sigterm()
        assert load_checkpoint(path).generation == 1

    def test_sigterm_during_a_replan_waits_for_its_publish(
        self, tmp_path, monkeypatch
    ):
        """SIGTERM while an epoch's replan is still running: the handler's
        close() waits for that epoch to publish, so the checkpoint holds
        the in-flight epoch, and a daemon restored from it continues
        exactly as an uninterrupted run."""
        from repro.engine import PlacementEngine

        g, metric = _network(seed=9)
        wl = _workload(metric.n, epochs=3, seed=23)
        cs = _costs(metric.n)
        config = PlanConfig(replan_mode="incremental", replan_tolerance=0.0)
        with PlacementDaemon(
            cs, wl.num_objects, metric=metric, graph=g, config=config
        ) as reference:
            replay_workload(reference, wl)
            expected = reference.snapshot()

        path = tmp_path / "sigterm.npz"
        daemon = PlacementDaemon(
            cs, wl.num_objects, metric=metric, graph=g, config=config,
            checkpoint_path=path,
        )
        daemon.ingest_counts(wl.read_freqs[0], wl.write_freqs[0])
        daemon.end_epoch(wait=True)

        entered, release = threading.Event(), threading.Event()
        real = PlacementEngine.place_subset

        def held(self, objects):
            entered.set()
            assert release.wait(30.0)
            return real(self, objects)

        monkeypatch.setattr(PlacementEngine, "place_subset", held)
        daemon.ingest_counts(wl.read_freqs[1], wl.write_freqs[1])
        assert daemon.end_epoch(wait=False) == 1
        assert entered.wait(30.0)  # the epoch-1 replan is in flight
        assert daemon.snapshot().generation == 1
        timer = threading.Timer(0.2, release.set)
        timer.start()
        try:
            with pytest.raises(SystemExit):
                daemon._handle_sigterm()
        finally:
            release.set()
            timer.join(10.0)
        assert not timer.is_alive()
        published = daemon.snapshot()
        assert published.generation == 2
        cp = load_checkpoint(path)
        assert cp.generation == published.generation
        assert cp.epochs_published == 2
        assert cp.copy_sets == published.copy_sets

        monkeypatch.setattr(PlacementEngine, "place_subset", real)
        resumed = PlacementDaemon.restore(
            path, storage_costs=cs, metric=metric, graph=g
        )
        try:
            resumed.ingest_counts(wl.read_freqs[2], wl.write_freqs[2])
            resumed.end_epoch(wait=True)
            state = resumed.snapshot()
            assert state.generation == expected.generation == 3
            assert state.copy_sets == expected.copy_sets
            assert state.cumulative_cost == expected.cumulative_cost
        finally:
            resumed.close()


# ----------------------------------------------------------------------
# checkpoint files
# ----------------------------------------------------------------------
class TestCheckpoint:
    def test_round_trip_preserves_every_field(self, tmp_path):
        g, metric = _network()
        wl = _workload(metric.n, epochs=2)
        daemon = PlacementDaemon(
            _costs(metric.n), wl.num_objects, metric=metric, graph=g,
            config=PlanConfig(replan_mode="incremental"),
        )
        try:
            replay_workload(daemon, wl)
            daemon.ingest_counts(wl.read_freqs[0], wl.write_freqs[0])
            cp = daemon.checkpoint_now(tmp_path / "cp.npz")
        finally:
            daemon.close()
        loaded = load_checkpoint(tmp_path / "cp.npz")
        assert isinstance(loaded, DaemonCheckpoint)
        assert loaded.copy_sets == cp.copy_sets
        assert loaded.generation == cp.generation
        assert loaded.serve_cost == cp.serve_cost
        assert loaded.migration_cost == cp.migration_cost
        assert np.array_equal(loaded.base_fr, cp.base_fr)
        assert np.array_equal(loaded.pending_fr, cp.pending_fr)
        assert np.array_equal(loaded.totals_read, cp.totals_read)
        assert loaded.plan_config() == daemon.config

    def test_checkpoint_with_retired_config_knobs_resumes(self, tmp_path):
        """A checkpoint written while ``PlanConfig`` still had the
        ``shared_memory`` and ``kernels`` knobs restores with one
        DeprecationWarning, and its next epoch equals an uninterrupted
        run's."""
        g, metric = _network(seed=5)
        wl = _workload(metric.n, epochs=3, seed=17)
        cs = _costs(metric.n)
        config = PlanConfig(replan_mode="incremental")

        reference = PlacementDaemon(
            cs, wl.num_objects, metric=metric, graph=g, config=config
        )
        try:
            replay_workload(reference, wl)
            ref_state = reference.snapshot()
        finally:
            reference.close()

        path = tmp_path / "old.npz"
        daemon = PlacementDaemon(
            cs, wl.num_objects, metric=metric, graph=g, config=config
        )
        try:
            for e in range(wl.num_epochs - 1):
                daemon.ingest_counts(wl.read_freqs[e], wl.write_freqs[e])
                daemon.end_epoch(wait=True)
            daemon.checkpoint_now(path)
        finally:
            daemon.close()
        fmt = "repro-serve-checkpoint"
        meta, arrays = load_array_archive(path, fmt=fmt)
        meta = {k: v for k, v in meta.items() if k not in ("format", "version")}
        meta["config"] = {**meta["config"], "shared_memory": True, "kernels": "auto"}
        save_array_archive(path, fmt=fmt, meta=meta, arrays=arrays)

        with pytest.warns(DeprecationWarning, match="shared_memory") as record:
            resumed = PlacementDaemon.restore(
                path, storage_costs=cs, metric=metric, graph=g
            )
        try:
            assert len(record) == 1
            assert resumed.config == config
            e = wl.num_epochs - 1
            resumed.ingest_counts(wl.read_freqs[e], wl.write_freqs[e])
            resumed.end_epoch(wait=True)
            state = resumed.snapshot()
            assert state.copy_sets == ref_state.copy_sets
            assert state.cumulative_cost == ref_state.cumulative_cost
            assert state.generation == ref_state.generation
        finally:
            resumed.close()

    def test_cadence_checkpoints_between_epochs(self, tmp_path):
        g, metric = _network()
        wl = _workload(metric.n, epochs=4)
        path = tmp_path / "cadence.npz"
        daemon = PlacementDaemon(
            _costs(metric.n), wl.num_objects, metric=metric, graph=g,
            config=PlanConfig(serve_checkpoint_every=2),
            checkpoint_path=path,
        )
        try:
            for e in range(2):
                daemon.ingest_counts(wl.read_freqs[e], wl.write_freqs[e])
                daemon.end_epoch(wait=True)
            assert load_checkpoint(path).epochs_published == 2
        finally:
            daemon.close()

    def test_node_count_mismatch_rejected(self, tmp_path):
        g, metric = _network()
        daemon = PlacementDaemon(
            _costs(metric.n), 2, metric=metric, graph=g
        )
        try:
            cp_path = tmp_path / "cp.npz"
            daemon.checkpoint_now(cp_path)
        finally:
            daemon.close()
        other = transit_stub_graph(2, 2, 2, seed=4)
        small = Metric.from_graph(other)
        with pytest.raises(ValueError, match="node"):
            PlacementDaemon.restore(
                cp_path,
                storage_costs=np.ones(small.n),
                metric=small,
            )


def _damaged_checkpoints(tmp_path):
    """A good checkpoint and damaged copies of it: ``{name: path}``."""
    g, metric = _network()
    wl = _workload(metric.n, epochs=1)
    with PlacementDaemon(
        _costs(metric.n), wl.num_objects, metric=metric, graph=g
    ) as daemon:
        replay_workload(daemon, wl)
        good = tmp_path / "good.npz"
        daemon.checkpoint_now(good)
    data = good.read_bytes()
    damaged = {
        "half": data[: len(data) // 2],
        "tail-cut": data[:-10],
        "empty": b"",
    }
    paths = {}
    for name, blob in damaged.items():
        paths[name] = tmp_path / f"{name}.npz"
        paths[name].write_bytes(blob)
    meta, arrays = load_array_archive(good, fmt="repro-serve-checkpoint")
    meta = {k: v for k, v in meta.items() if k not in ("format", "version")}
    for name, key in (("no-array", "bills"), ("no-header-key", "generation")):
        paths[name] = tmp_path / f"{name}.npz"
        save_array_archive(
            paths[name], fmt="repro-serve-checkpoint",
            meta={k: v for k, v in meta.items() if k != key},
            arrays={k: v for k, v in arrays.items() if k != key},
        )
    return metric, good, paths


class TestDamagedCheckpoint:
    DAMAGE = ("half", "tail-cut", "empty", "no-array", "no-header-key")

    @pytest.mark.parametrize("damage", DAMAGE)
    def test_load_names_the_file(self, tmp_path, damage):
        _, good, paths = _damaged_checkpoints(tmp_path)
        load_checkpoint(good)  # the undamaged file reads
        with pytest.raises(CheckpointError, match=paths[damage].name) as info:
            load_checkpoint(paths[damage])
        assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize("damage", DAMAGE)
    def test_restore_raises_before_building_a_daemon(
        self, tmp_path, monkeypatch, damage
    ):
        metric, _, paths = _damaged_checkpoints(tmp_path)

        def built(*args, **kwargs):
            raise AssertionError("a daemon was built from a damaged file")

        monkeypatch.setattr(PlacementDaemon, "__init__", built)
        with pytest.raises(CheckpointError, match=paths[damage].name):
            PlacementDaemon.restore(
                paths[damage], storage_costs=_costs(metric.n), metric=metric
            )

    def test_missing_file_is_not_a_damaged_one(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "absent.npz")


# ----------------------------------------------------------------------
# spool files
# ----------------------------------------------------------------------
class TestSpool:
    def _log(self, seed: int = 0, events: int = 40) -> RequestLog:
        rng = np.random.default_rng(seed)
        return RequestLog(
            kind=rng.integers(0, 2, events),
            node=rng.integers(0, 10, events),
            obj=rng.integers(0, 4, events),
        )

    @pytest.mark.parametrize("suffix", [".jsonl", ".npz"])
    def test_round_trip(self, tmp_path, suffix):
        log = self._log()
        path = tmp_path / f"batch{suffix}"
        write_spool_file(log, path)
        back = read_spool_file(path)
        assert np.array_equal(back.kind, log.kind)
        assert np.array_equal(back.node, log.node)
        assert np.array_equal(back.obj, log.obj)

    def test_bad_line_reports_position(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"kind": "read", "node": 0, "obj": 1}\n'
            '{"kind": "steal", "node": 0, "obj": 1}\n'
        )
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            read_spool_file(path)

    def test_unknown_suffix_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="spool files are"):
            write_spool_file(self._log(), tmp_path / "batch.csv")

    def test_spool_files_sorted(self, tmp_path):
        for name in ("b.jsonl", "a.npz", "c.jsonl", "notes.txt"):
            if name.endswith(".txt"):
                (tmp_path / name).write_text("ignored")
            else:
                write_spool_file(self._log(), tmp_path / name)
        names = [p.name for p in spool_files(tmp_path)]
        assert names == ["a.npz", "b.jsonl", "c.jsonl"]

    def test_daemon_ingest_from_spool_matches_counts(self, tmp_path):
        g, metric = _network()
        log = RequestLog(
            kind=np.array([0, 0, 1, 0]),
            node=np.array([1, 2, 3, 1]),
            obj=np.array([0, 1, 0, 0]),
        )
        path = tmp_path / "batch.jsonl"
        write_spool_file(log, path)
        with PlacementDaemon(
            _costs(metric.n), 2, metric=metric, graph=g
        ) as daemon:
            receipt = daemon.ingest(read_spool_file(path))
            assert receipt["events"] == 4
            stats = daemon.stats()
            assert stats["reads"] == 3 and stats["writes"] == 1


# ----------------------------------------------------------------------
# ingest validation + failure propagation
# ----------------------------------------------------------------------
class TestIngestContract:
    def test_shape_and_sign_validation(self):
        g, metric = _network()
        with PlacementDaemon(
            _costs(metric.n), 2, metric=metric
        ) as daemon:
            with pytest.raises(ValueError, match="shape"):
                daemon.ingest_counts(np.ones((3, metric.n)), np.ones((3, metric.n)))
            bad = np.zeros((2, metric.n))
            bad[0, 0] = -1.0
            with pytest.raises(ValueError, match="non-negative"):
                daemon.ingest_counts(bad, np.zeros((2, metric.n)))
            with pytest.raises(ValueError):
                daemon.ingest(
                    RequestLog(kind=[0], node=[0], obj=[5])  # obj out of range
                )

    def test_background_failure_surfaces_in_drain(self, monkeypatch):
        g, metric = _network()
        daemon = PlacementDaemon(_costs(metric.n), 2, metric=metric, graph=g)
        monkeypatch.setattr(
            daemon, "_process_epoch",
            lambda *a: (_ for _ in ()).throw(ValueError("boom")),
        )
        daemon.ingest_counts(np.ones((2, metric.n)), np.zeros((2, metric.n)))
        with pytest.raises(RuntimeError, match="background replan failed"):
            daemon.end_epoch(wait=True)


def _crashing_solve(gate=None):
    """A ``PlacementEngine.place`` stand-in that fails (after ``gate``
    opens, when given) -- an injected solve failure."""

    def place(self):
        if gate is not None:
            assert gate.wait(10.0)
        raise RuntimeError("solver crashed")

    return place


class TestFailedReplan:
    """A replan that fails before its publish hands the sealed demand
    back to the pending window instead of dropping it."""

    def test_failed_epoch_demand_survives_close_and_restore(
        self, tmp_path, monkeypatch
    ):
        from repro.engine import PlacementEngine

        g, metric = _network()
        wl = _workload(metric.n, m=5, epochs=1, seed=11)
        fr, fw = wl.read_freqs[0], wl.write_freqs[0]
        cs = _costs(metric.n)
        log = RequestLog.from_frequencies(fr, fw)
        path = tmp_path / "failed.npz"

        with monkeypatch.context() as mp:
            mp.setattr(PlacementEngine, "place", _crashing_solve())
            daemon = PlacementDaemon(
                cs, wl.num_objects, metric=metric, graph=g, checkpoint_path=path
            )
            daemon.ingest(log)
            with pytest.raises(RuntimeError, match="background replan failed"):
                daemon.end_epoch(wait=True)
            stats = daemon.stats()
            assert stats["events_ingested"] == len(log)
            assert stats["epochs_published"] == 0
            assert stats["epochs_sealed"] == 0
            assert stats["replan_backlog"] == 0
            assert stats["pending_events"] == len(log)
            with pytest.raises(RuntimeError, match="background replan failed"):
                daemon.drain()
            with pytest.raises(RuntimeError, match="background replan failed"):
                daemon.end_epoch()
            with pytest.raises(RuntimeError, match="background replan failed"):
                daemon.close()

        cp = load_checkpoint(path)
        assert cp.generation == 0 and cp.epochs_published == 0
        np.testing.assert_array_equal(cp.pending_fr, fr)
        np.testing.assert_array_equal(cp.pending_fw, fw)

        with PlacementDaemon(
            cs, wl.num_objects, metric=metric, graph=g
        ) as reference:
            reference.ingest(log)
            reference.end_epoch(wait=True)
            expected = reference.snapshot()
        resumed = PlacementDaemon.restore(
            path, storage_costs=cs, metric=metric, graph=g
        )
        try:
            resumed.end_epoch(wait=True)
            state = resumed.snapshot()
            assert state.generation == expected.generation == 1
            assert state.copy_sets == expected.copy_sets
            assert state.cumulative_cost == expected.cumulative_cost
        finally:
            resumed.close()

    def test_epochs_queued_behind_a_failure_are_returned_unprocessed(
        self, monkeypatch
    ):
        from repro.engine import PlacementEngine

        g, metric = _network()
        wl = _workload(metric.n, m=5, epochs=2, seed=11)
        gate = threading.Event()
        monkeypatch.setattr(PlacementEngine, "place", _crashing_solve(gate))
        daemon = PlacementDaemon(
            _costs(metric.n), wl.num_objects, metric=metric, graph=g
        )
        for e in range(2):
            daemon.ingest_counts(wl.read_freqs[e], wl.write_freqs[e])
            assert daemon.end_epoch(wait=False) == e
        assert daemon.stats()["replan_backlog"] == 2
        gate.set()
        with pytest.raises(RuntimeError, match="background replan failed"):
            daemon.drain()
        stats = daemon.stats()
        assert stats["generation"] == 0
        assert stats["epochs_sealed"] == 0 and stats["replan_backlog"] == 0
        assert stats["pending_events"] == float(
            sum(wl.read_freqs[e].sum() + wl.write_freqs[e].sum() for e in range(2))
        )
        assert daemon.epoch_records == []
        with pytest.raises(RuntimeError, match="background replan failed"):
            daemon.close()


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestServeCli:
    def test_replay_compare_smoke(self):
        out = io.StringIO()
        code = main(
            ["serve", "replay", "--scenario", "drift", "--nodes", "24",
             "--num-objects", "4", "--epochs", "2",
             "--requests-per-epoch", "120", "--drift", "0.5",
             "--incremental", "--tolerance", "0", "--compare"],
            out=out,
        )
        assert code == 0
        assert "identical" in out.getvalue()

    def test_replay_writes_checkpoint_and_json(self, tmp_path):
        out = io.StringIO()
        ck = tmp_path / "warm.npz"
        report = tmp_path / "replay.json"
        code = main(
            ["serve", "replay", "--nodes", "24", "--num-objects", "4",
             "--epochs", "2", "--requests-per-epoch", "120",
             "--checkpoint", str(ck), "--out", str(report)],
            out=out,
        )
        assert code == 0
        assert load_checkpoint(ck).epochs_published == 2
        payload = json.loads(report.read_text())
        assert len(payload["epochs"]) == 2
        assert payload["stats"]["generation"] == 2

    def test_run_command_loop(self, tmp_path, monkeypatch):
        from repro.serialize import save_instance

        g, metric = _network()
        inst = make_instance(metric, seed=2, num_objects=3)
        inst_path = tmp_path / "inst.npz"
        save_instance(inst, inst_path)
        spool = tmp_path / "spool"
        spool.mkdir()
        write_spool_file(
            RequestLog(kind=[0, 0, 1], node=[1, 2, 3], obj=[0, 1, 2]),
            spool / "b0.jsonl",
        )
        monkeypatch.setattr(
            sys, "stdin", io.StringIO("placement 0\nstats\nquit\n")
        )
        out = io.StringIO()
        code = main(
            ["serve", "run", "--instance", str(inst_path),
             "--spool", str(spool), "--epoch-per-file"],
            out=out,
        )
        assert code == 0
        lines = [json.loads(line) for line in out.getvalue().splitlines()]
        assert all(line["ok"] for line in lines)
        assert lines[1]["events_ingested"] == 3
        assert lines[1]["generation"] == 1
