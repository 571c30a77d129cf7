"""Tests for repro.config: validation, serialization, engine hand-off."""

import json

import pytest

from repro.config import BACKEND_CHOICES, PlanConfig
from repro.engine import DEFAULT_CHUNK_SIZE, PlacementEngine


class TestValidation:
    def test_defaults_are_valid(self):
        cfg = PlanConfig()
        assert cfg.backend == "auto"
        assert cfg.chunk_size == DEFAULT_CHUNK_SIZE
        assert cfg.jobs == 1

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(backend="sparse"), "backend"),
            (dict(fl_solver="nope"), "fl_solver"),
            (dict(cost_policy="cheapest"), "cost_policy"),
            (dict(chunk_size=0), "chunk_size"),
            (dict(jobs=0), "jobs"),
            (dict(radii_block=0), "radii_block"),
            (dict(replication_threshold=0), "replication_threshold"),
            (dict(facility_candidates=0), "facility_candidates"),
            (dict(replan_mode="partial"), "replan_mode"),
            (dict(replan_tolerance=-0.1), "replan_tolerance"),
            (dict(replan_tolerance=float("nan")), "replan_tolerance"),
            (dict(portals_per_shard=0), "portals_per_shard"),
            (dict(cache_rows=0), "cache_rows"),
        ],
    )
    def test_bad_knobs_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            PlanConfig(**kwargs)

    def test_replace_revalidates(self):
        cfg = PlanConfig()
        assert cfg.replace(jobs=4).jobs == 4
        with pytest.raises(ValueError, match="jobs"):
            cfg.replace(jobs=-1)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            PlanConfig().jobs = 2

    def test_backend_choices_exported(self):
        assert set(BACKEND_CHOICES) == {"auto", "dense", "lazy"}

    def test_replan_knobs(self):
        from repro.config import REPLAN_MODES

        assert set(REPLAN_MODES) == {"full", "incremental"}
        cfg = PlanConfig(replan_mode="incremental", replan_tolerance=0.25)
        assert cfg.replan_mode == "incremental"
        assert cfg.replan_tolerance == 0.25
        assert PlanConfig().replan_mode == "full"  # full re-solve by default
        # the replan knobs steer the replanner, never the engine
        assert "replan_mode" not in cfg.engine_kwargs()

    def test_serve_knobs(self):
        import repro.config

        cfg = PlanConfig(serve_checkpoint_every=3, serve_max_lag=2)
        assert cfg.serve_checkpoint_every == 3
        assert cfg.serve_max_lag == 2
        defaults = PlanConfig()
        assert defaults.serve_checkpoint_every == 0  # shutdown-only
        assert defaults.serve_max_lag == 4
        # the serve knobs steer the daemon, never the engine
        assert "serve_max_lag" not in cfg.engine_kwargs()
        # the replan trigger is retired: the daemon runs the epoch
        # step's one drift rule (see TestRetiredKnobs)
        assert "serve_trigger" not in cfg.to_dict()
        assert not hasattr(repro.config, "SERVE_TRIGGERS")
        with pytest.raises(TypeError, match="serve_trigger"):
            PlanConfig(serve_trigger="drift")
        with pytest.raises(ValueError, match="serve_checkpoint_every"):
            PlanConfig(serve_checkpoint_every=-1)
        with pytest.raises(ValueError, match="serve_max_lag"):
            PlanConfig(serve_max_lag=0)
        # the knobs ride the dict/file round trip like every other field
        assert PlanConfig.from_dict(cfg.to_dict()) == cfg

    def test_cache_rows_knob(self):
        from repro.graphs.backend import DEFAULT_CACHE_ROWS

        cfg = PlanConfig(cache_rows=7)
        # cache_rows sizes the LazyMetric the *planner* builds; the
        # engine never resizes an instance's own backend
        assert "cache_rows" not in cfg.engine_kwargs()
        assert PlanConfig().cache_rows == DEFAULT_CACHE_ROWS


class TestSerialization:
    def test_dict_round_trip(self):
        cfg = PlanConfig(fl_solver="greedy", jobs=3, seed=11,
                         facility_candidates=7, replan_mode="incremental",
                         replan_tolerance=0.1, cache_rows=17)
        assert PlanConfig.from_dict(cfg.to_dict()) == cfg

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(TypeError, match="chunk_sze"):
            PlanConfig.from_dict({"chunk_sze": 4})


    def test_json_file_round_trip(self, tmp_path):
        cfg = PlanConfig(chunk_size=32, phase3=False)
        path = tmp_path / "cfg.json"
        cfg.to_file(path)
        assert PlanConfig.from_file(path) == cfg

    def test_partial_json_file_uses_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"jobs": 2}))
        cfg = PlanConfig.from_file(path)
        assert cfg.jobs == 2 and cfg.fl_solver == "local_search"

    def test_toml_file(self, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / "cfg.toml"
        path.write_text('fl_solver = "greedy"\njobs = 2\nphase2 = false\n')
        cfg = PlanConfig.from_file(path)
        assert cfg == PlanConfig(fl_solver="greedy", jobs=2, phase2=False)

    def test_non_mapping_file_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(TypeError, match="mapping"):
            PlanConfig.from_file(path)


class TestEngineHandOff:
    def test_engine_kwargs_accepted_by_engine(self, line_metric):
        import numpy as np

        from repro.core.instance import DataManagementInstance

        inst = DataManagementInstance(
            line_metric, np.ones(5), np.ones((2, 5)), np.zeros((2, 5))
        )
        cfg = PlanConfig(fl_solver="greedy", chunk_size=2, radii_block=16)
        engine = PlacementEngine(inst, **cfg.engine_kwargs())
        assert engine.fl_solver == "greedy"
        assert engine.chunk_size == 2
        assert PlacementEngine.from_config(inst, cfg).place().copy_sets \
            == engine.place().copy_sets

    def test_engine_config_round_trip(self, line_metric):
        import numpy as np

        from repro.core.instance import DataManagementInstance

        inst = DataManagementInstance(
            line_metric, np.ones(5), np.ones((1, 5)), np.zeros((1, 5))
        )
        cfg = PlanConfig(fl_solver="greedy", chunk_size=3, jobs=2)
        engine = PlacementEngine.from_config(inst, cfg)
        # the engine's config property reflects exactly the engine knobs
        assert engine.config.engine_kwargs() == cfg.engine_kwargs()
        # for_instance preserves the configuration
        clone = engine.for_instance(inst)
        assert clone.config.engine_kwargs() == cfg.engine_kwargs()


class TestRetiredKnobs:
    """Configs written while the worker-transport (``shared_memory``),
    kernel-dispatch (``kernels``) and daemon replan-trigger
    (``serve_trigger``) knobs existed still load."""

    LEGACY = {"shared_memory": True, "kernels": "auto", "serve_trigger": "every-epoch"}

    def test_dropped_with_one_warning_naming_both(self):
        data = {**PlanConfig(jobs=2, seed=5).to_dict(), **self.LEGACY}
        with pytest.warns(DeprecationWarning) as record:
            cfg = PlanConfig.from_dict(data)
        assert cfg == PlanConfig(jobs=2, seed=5)
        assert len(record) == 1
        message = str(record[0].message)
        assert "shared_memory" in message and "kernels" in message
        assert "serve_trigger" in message

    def test_one_retired_knob_alone(self):
        with pytest.warns(DeprecationWarning, match="kernels"):
            assert PlanConfig.from_dict({"kernels": "numpy"}) == PlanConfig()
        with pytest.warns(DeprecationWarning, match="serve_trigger"):
            assert PlanConfig.from_dict({"serve_trigger": "drift"}) == PlanConfig()

    def test_a_typo_still_raises_beside_them(self):
        with pytest.warns(DeprecationWarning):
            with pytest.raises(TypeError, match="chunk_sze"):
                PlanConfig.from_dict({**self.LEGACY, "chunk_sze": 4})
