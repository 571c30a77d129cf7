"""Round-trip property tests for repro.serialize and PlanReport.

The contract: persistence is exact.  A reloaded instance answers every
distance query like the original (dense matrix or CSR adjacency stored
verbatim), so re-running the engine gives bit-identical copy sets; a
reloaded PlanReport compares equal to the saved one, field for field.
"""

import gc
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import PlanReport, Planner
from repro.cli import main
from repro.config import PlanConfig
from repro.core.instance import DataManagementInstance
from repro.core.placement import Placement
from repro.engine import PlacementEngine
from repro.graphs import generators, partition_instance
from repro.graphs.backend import LazyMetric
from repro.graphs.metric import Metric
from repro.serialize import (
    instance_from_dict,
    instance_to_dict,
    load_instance,
    load_partition,
    placement_from_arrays,
    placement_to_arrays,
    save_instance,
    save_partition,
)
from repro.serve import read_spool_file, write_spool_file
from repro.simulate.events import RequestLog
from repro.workloads.request_models import make_instance

seeds = st.integers(min_value=0, max_value=120)


def _instance(seed: int, backend: str) -> DataManagementInstance:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 24))
    g = generators.erdos_renyi_graph(n, 0.4, seed=seed)
    metric = Metric.from_graph(g) if backend == "dense" else LazyMetric.from_graph(g)
    return make_instance(
        metric,
        seed=seed + 1,
        num_objects=int(rng.integers(1, 5)),
        demand_model=["uniform", "zipf", "hotspot"][seed % 3],
        write_fraction=float(rng.choice([0.0, 0.2, 0.5])),
    )


class TestInstanceRoundTrip:
    @given(seed=seeds)
    @settings(max_examples=12, deadline=None)
    def test_npz_round_trip_places_identically_dense(self, seed, tmp_path_factory):
        self._check(seed, "dense", ".npz", tmp_path_factory)

    @given(seed=seeds)
    @settings(max_examples=8, deadline=None)
    def test_npz_round_trip_places_identically_lazy(self, seed, tmp_path_factory):
        self._check(seed, "lazy", ".npz", tmp_path_factory)

    @given(seed=seeds)
    @settings(max_examples=8, deadline=None)
    def test_json_round_trip_places_identically(self, seed, tmp_path_factory):
        self._check(seed, ["dense", "lazy"][seed % 2], ".json", tmp_path_factory)

    def _check(self, seed, backend, suffix, tmp_path_factory):
        inst = _instance(seed, backend)
        path = tmp_path_factory.mktemp("ser") / f"inst{suffix}"
        save_instance(inst, path)
        clone = load_instance(path)
        # the backend kind survives
        assert type(clone.metric) is type(inst.metric)
        # problem data survives bit for bit
        assert np.array_equal(clone.storage_costs, inst.storage_costs)
        assert np.array_equal(clone.read_freq, inst.read_freq)
        assert np.array_equal(clone.write_freq, inst.write_freq)
        assert clone.object_names == inst.object_names
        # and so does the engine's decision sequence
        assert PlacementEngine(clone, chunk_size=3).place().copy_sets == \
            PlacementEngine(inst, chunk_size=3).place().copy_sets

    def test_dict_round_trip_preserves_metadata(self):
        inst = _instance(3, "dense")
        named = DataManagementInstance(
            inst.metric, inst.storage_costs, inst.read_freq, inst.write_freq,
            object_names=tuple(f"page-{i}" for i in range(inst.num_objects)),
            object_sizes=np.linspace(1.0, 2.0, inst.num_objects),
        )
        clone = instance_from_dict(instance_to_dict(named))
        assert clone.object_names == named.object_names
        assert np.array_equal(clone.object_sizes, named.object_sizes)

    def test_load_rejects_foreign_payload(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"format": "other"}')
        with pytest.raises(ValueError, match="serialized"):
            load_instance(path)


class TestPlacementArrays:
    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_arrays_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(1, 8)), int(rng.integers(2, 20))
        sets = tuple(
            tuple(sorted(rng.choice(n, size=int(rng.integers(1, n + 1)),
                                    replace=False).tolist()))
            for _ in range(m)
        )
        placement = Placement(sets)
        nodes, offsets = placement_to_arrays(placement)
        assert placement_from_arrays(nodes, offsets) == placement


class TestPlanReportRoundTrip:
    @given(seed=seeds,
           strategy=st.sampled_from(["krw", "online", "epoch-replan"]),
           suffix=st.sampled_from([".json", ".npz"]))
    @settings(max_examples=10, deadline=None)
    def test_report_load_equals_saved(self, seed, strategy, suffix,
                                      tmp_path_factory):
        inst = _instance(seed, "dense")
        config = PlanConfig(seed=seed % 5, chunk_size=2)
        report = Planner(config).plan(inst, strategy)
        path = tmp_path_factory.mktemp("rep") / f"r{suffix}"
        report.save(path)
        loaded = PlanReport.load(path)
        assert loaded == report
        # strategy extras (migration bills, event counts) survive exactly
        assert loaded.extras == report.extras
        assert loaded.config == config


class TestRetiredConfigKnobs:
    """Reports saved while ``PlanConfig`` had the ``shared_memory`` and
    ``kernels`` knobs load, with one DeprecationWarning naming them."""

    def _legacy(self, report: PlanReport, path):
        report.save(path)
        if path.suffix == ".json":
            data = json.loads(path.read_text())
            data["config"].update(shared_memory=True, kernels="numpy")
            path.write_text(json.dumps(data))
            return
        with np.load(path, allow_pickle=False) as archive:
            arrays = {k: np.asarray(archive[k]) for k in archive.files}
        meta = json.loads(str(arrays.pop("meta")))
        meta["config"].update(shared_memory=True, kernels="numpy")
        np.savez_compressed(path, meta=np.str_(json.dumps(meta)), **arrays)

    @pytest.mark.parametrize("suffix", [".json", ".npz"])
    def test_old_report_loads(self, suffix, tmp_path):
        config = PlanConfig(chunk_size=2, seed=3)
        report = Planner(config).plan(_instance(7, "dense"), "krw")
        path = tmp_path / f"old{suffix}"
        self._legacy(report, path)
        with pytest.warns(DeprecationWarning) as record:
            loaded = PlanReport.load(path)
        assert len(record) == 1
        message = str(record[0].message)
        assert "shared_memory" in message and "kernels" in message
        assert loaded == report
        assert loaded.config == config


def _spool_log() -> RequestLog:
    return RequestLog(
        kind=np.array([0, 1, 0]), node=np.array([1, 2, 3]), obj=np.array([0, 0, 1])
    )


#: Each archive loader with a writer for a valid archive of its kind.
_LOADERS = {
    "report": (
        PlanReport.load,
        lambda path: Planner().plan(_instance(3, "dense"), "krw").save(path),
    ),
    "partition": (
        load_partition,
        lambda path: save_partition(
            partition_instance(_instance(3, "dense"), num_shards=2, portals_per_shard=1),
            path,
        ),
    ),
    "instance": (load_instance, lambda path: save_instance(_instance(3, "lazy"), path)),
    "spool": (read_spool_file, lambda path: write_spool_file(_spool_log(), path)),
}


class TestDamagedArchives:
    """A damaged ``*.npz`` raises a ValueError naming the path and leaves
    no file open."""

    @pytest.mark.parametrize("damage", ["half", "empty"])
    @pytest.mark.parametrize("kind", sorted(_LOADERS))
    def test_loader_raises_named_error_and_closes_the_file(
        self, kind, damage, tmp_path
    ):
        load, write = _LOADERS[kind]
        good = tmp_path / "good.npz"
        write(good)
        load(good)  # the undamaged archive reads
        data = good.read_bytes()
        bad = tmp_path / f"{damage}.npz"
        bad.write_bytes(data[: len(data) // 2] if damage == "half" else b"")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(ValueError, match=bad.name):
                load(bad)
            gc.collect()
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert not leaks, [str(w.message) for w in leaks]

    def test_plan_load_of_a_damaged_report_exits_2(self, tmp_path, capsys):
        good = tmp_path / "good.npz"
        _LOADERS["report"][1](good)
        data = good.read_bytes()
        bad = tmp_path / "half.npz"
        bad.write_bytes(data[: len(data) // 2])
        assert main(["plan", "--load", str(bad)]) == 2
        assert f"plan: cannot load {bad}" in capsys.readouterr().err


class TestCanonicalPayload:
    """canonical_payload / canonical_json_dumps: the byte-determinism
    layer under save_json and the bench trial cache."""

    def test_sorts_keys_and_unwraps_numpy(self):
        from repro.serialize import canonical_json_dumps, canonical_payload

        payload = canonical_payload({
            "b": np.int64(2), "a": np.float64(1.5),
            "c": (np.bool_(True), [np.int32(3)]),
        })
        assert payload == {"a": 1.5, "b": 2, "c": [True, [3]]}
        assert type(payload["b"]) is int
        assert type(payload["c"][0]) is bool
        text = canonical_json_dumps({"b": 1, "a": 2}, indent=None)
        assert text == '{"a": 2, "b": 1}'

    def test_negative_zero_folds_onto_zero(self):
        from repro.serialize import canonical_json_dumps

        assert canonical_json_dumps(-0.0) == canonical_json_dumps(0.0)
        assert canonical_json_dumps([np.float64("-0.0")], indent=None) == "[0.0]"

    def test_rejects_non_json_values(self):
        from repro.serialize import canonical_payload

        with pytest.raises(TypeError, match="no canonical JSON form"):
            canonical_payload({"x": object()})
        with pytest.raises(ValueError, match="duplicate canonical key"):
            canonical_payload({1: "a", "1": "b"})

    def test_ndarray_collapses_onto_lists(self):
        from repro.serialize import canonical_payload

        assert canonical_payload(np.arange(3)) == [0, 1, 2]
        assert canonical_payload({"m": np.eye(2)}) == {"m": [[1.0, 0.0], [0.0, 1.0]]}
