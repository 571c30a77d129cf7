"""Tests for the CLI (python -m repro)."""

import io

import pytest

from repro.cli import EXPERIMENTS, SCENARIOS, main


class TestList:
    def test_list_outputs_registries(self):
        out = io.StringIO()
        assert main(["list"], out=out) == 0
        text = out.getvalue()
        assert "E1" in text and "E12" in text
        assert "www" in text and "vsm" in text

    def test_list_outputs_strategies_and_dynamic_scenarios(self):
        from repro.registry import available_strategies

        out = io.StringIO()
        assert main(["list"], out=out) == 0
        text = out.getvalue()
        for name in available_strategies():
            assert name in text
        assert "drift" in text and "flash" in text

    def test_list_prints_krw_sharded_knob_summary(self):
        out = io.StringIO()
        assert main(["list"], out=out) == 0
        text = out.getvalue()
        assert "krw-sharded" in text
        assert "num_shards (--shards)" in text
        assert "portals_per_shard (--portals)" in text
        assert "num_shards=1 equals krw" in text

    def test_no_command_prints_help(self):
        out = io.StringIO()
        assert main([], out=out) == 1
        assert "usage" in out.getvalue().lower()


class TestExperimentCommand:
    def test_registry_covers_all_runners(self):
        # E17 (worker transport and kernel dispatch) is retired
        assert set(EXPERIMENTS) == (
            {f"E{i}" for i in range(1, 21)} - {"E17"}
        ) | {"E10B"}

    def test_unknown_experiment(self, capsys):
        out = io.StringIO()
        assert main(["experiment", "E99"], out=out) == 2

    def test_case_insensitive_name(self, monkeypatch):
        # stub the runner so the test stays fast
        from repro.analysis import ExperimentResult

        called = {}

        def fake():
            called["yes"] = True
            return ExperimentResult("E1", "stub", ("a",), [[1]])

        monkeypatch.setitem(EXPERIMENTS, "E1", fake)
        out = io.StringIO()
        assert main(["experiment", "e1"], out=out) == 0
        assert called.get("yes")
        assert "[E1] stub" in out.getvalue()

    def test_all_expands_registry(self, monkeypatch):
        from repro.analysis import ExperimentResult

        count = {"n": 0}

        def fake():
            count["n"] += 1
            return ExperimentResult("EX", "stub", ("a",), [[1]])

        for key in list(EXPERIMENTS):
            monkeypatch.setitem(EXPERIMENTS, key, fake)
        out = io.StringIO()
        assert main(["experiment", "all"], out=out) == 0
        assert count["n"] == len(EXPERIMENTS)


class TestScenarioCommand:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            main(["scenario", "nope"], out=io.StringIO())

    def test_vsm_scenario_runs(self):
        out = io.StringIO()
        assert main(["scenario", "vsm"], out=out) == 0
        text = out.getvalue()
        assert "krw" in text
        assert "full-replication" in text
        assert "total" in text

    def test_registry_names(self):
        assert set(SCENARIOS) == {"www", "dfs", "vsm", "tree"}


class TestPlaceCommand:
    def test_place_runs_and_writes_summary(self, tmp_path):
        out = io.StringIO()
        path = tmp_path / "place.json"
        rc = main(
            ["place", "--scenario", "tree", "--num-objects", "4",
             "--chunk-size", "2", "--compare-loop", "--cost",
             "--out", str(path)],
            out=out,
        )
        assert rc == 0
        text = out.getvalue()
        assert "engine:" in text and "identical copy sets: True" in text
        import json

        summary = json.loads(path.read_text())
        assert summary["objects"] == 4
        assert summary["matches_loop"] is True
        assert summary["cost"]["total"] > 0

    def test_place_rejects_bad_jobs(self):
        out = io.StringIO()
        assert main(["place", "--jobs", "0"], out=out) == 2

    def test_scenario_num_objects_wiring(self):
        out = io.StringIO()
        assert main(["scenario", "tree", "--num-objects", "3"], out=out) == 0
        assert "3 objects" in out.getvalue()


class TestPlanCommand:
    def test_plan_save_load_reproduces_legacy_place(self, tmp_path):
        """The acceptance loop: plan --config --save, then --load, must
        reproduce the legacy engine placement's copy sets exactly."""
        import json

        from repro.api import PlanReport
        from repro.engine import PlacementEngine
        from repro.workloads import www_content_provider

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"fl_solver": "local_search", "chunk_size": 4}))
        saved = tmp_path / "out.npz"
        out = io.StringIO()
        rc = main(
            ["plan", "--scenario", "www", "--config", str(cfg),
             "--save", str(saved)],
            out=out,
        )
        assert rc == 0 and "wrote" in out.getvalue()

        out = io.StringIO()
        assert main(["plan", "--load", str(saved)], out=out) == 0
        assert "[krw]" in out.getvalue()

        report = PlanReport.load(saved)
        legacy = PlacementEngine(
            www_content_provider().instance, chunk_size=4
        ).place()
        assert report.placement.copy_sets == legacy.copy_sets
        assert report.config.chunk_size == 4

    def test_plan_json_artifact(self, tmp_path):
        from repro.api import PlanReport

        saved = tmp_path / "report.json"
        out = io.StringIO()
        rc = main(
            ["plan", "--scenario", "tree", "--strategy", "single-median",
             "--save", str(saved)],
            out=out,
        )
        assert rc == 0
        report = PlanReport.load(saved)
        assert report.strategy == "single-median"
        assert report.placement.replication_degree() == 1.0

    def test_plan_prints_kernel_and_cache_provenance(self, tmp_path):
        """`repro plan` surfaces the (lazy backend) row-cache hit rate
        under the report line, on a pooled run too."""
        import json

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"backend": "lazy", "chunk_size": 2}))
        out = io.StringIO()
        rc = main(
            ["plan", "--scenario", "tree", "--config", str(cfg),
             "--cache-rows", "16", "--jobs", "2"],
            out=out,
        )
        text = out.getvalue()
        assert rc == 0
        assert "row cache:" in text and "cache_rows=16" in text

    def test_plan_sharded_strategy_with_shard_flags(self, tmp_path):
        """`plan --strategy krw-sharded --shards/--portals` threads the
        knobs into the config and prints the sharded provenance line."""
        from repro.api import PlanReport

        saved = tmp_path / "out.json"
        out = io.StringIO()
        rc = main(
            ["plan", "--scenario", "www", "--strategy", "krw-sharded",
             "--shards", "3", "--portals", "2", "--save", str(saved)],
            out=out,
        )
        text = out.getvalue()
        assert rc == 0
        assert "[krw-sharded]" in text
        assert "sharded: 3 shards" in text
        report = PlanReport.load(saved)
        assert report.config.num_shards == 3
        assert report.config.portals_per_shard == 2
        assert report.extras["sharded"]["num_shards"] == 3

    def test_plan_sharded_degenerate_path_matches_krw(self):
        out = io.StringIO()
        rc = main(
            ["plan", "--scenario", "tree", "--strategy", "krw-sharded",
             "--partition", "none", "--shards", "4"],
            out=out,
        )
        assert rc == 0
        assert "sharded: degenerate" in out.getvalue()

    def test_plan_load_missing_file_is_clean_error(self, tmp_path):
        out = io.StringIO()
        assert main(["plan", "--load", str(tmp_path / "nope.npz")], out=out) == 2

    def test_plan_load_report_with_unknown_config_knob(self, tmp_path, capsys):
        """A saved report whose config holds a typo is a clean error."""
        import json

        saved = tmp_path / "report.json"
        assert main(["plan", "--scenario", "tree", "--save", str(saved)],
                    out=io.StringIO()) == 0
        data = json.loads(saved.read_text())
        data["config"]["chunk_sze"] = 4
        saved.write_text(json.dumps(data))
        assert main(["plan", "--load", str(saved)], out=io.StringIO()) == 2
        err = capsys.readouterr().err
        assert f"plan: cannot load {saved}" in err and "chunk_sze" in err

    def test_plan_rejects_unknown_config_knob(self, tmp_path):
        import json

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"chunk_sze": 4}))
        out = io.StringIO()
        assert main(["plan", "--config", str(cfg)], out=out) == 2

    def test_plan_cli_overrides_config_file(self, tmp_path):
        import json

        from repro.api import PlanReport

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"fl_solver": "local_search"}))
        saved = tmp_path / "out.json"
        out = io.StringIO()
        rc = main(
            ["plan", "--scenario", "tree", "--config", str(cfg),
             "--fl-solver", "greedy", "--save", str(saved)],
            out=out,
        )
        assert rc == 0
        assert PlanReport.load(saved).config.fl_solver == "greedy"


class TestCompareCommand:
    def test_compare_runs_every_registered_strategy(self, tmp_path):
        """Acceptance: every registry name runs through the CLI."""
        import json

        from repro.registry import available_strategies

        path = tmp_path / "compare.json"
        out = io.StringIO()
        rc = main(
            ["compare", "--scenario", "tree", "--out", str(path)], out=out
        )
        assert rc == 0
        text = out.getvalue()
        data = json.loads(path.read_text())
        ran = {r["strategy"] for r in data["reports"]}
        assert ran == set(available_strategies())
        for name in available_strategies():
            assert name in text

    def test_compare_subset(self):
        out = io.StringIO()
        rc = main(
            ["compare", "--scenario", "vsm", "--strategies", "krw", "online"],
            out=out,
        )
        assert rc == 0
        text = out.getvalue()
        assert "krw" in text and "online" in text
        assert "full-replication" not in text


class TestDynamicCommand:
    def test_dynamic_runs_and_writes_json(self, tmp_path):
        out = io.StringIO()
        path = tmp_path / "dynamic.json"
        rc = main(
            ["dynamic", "--nodes", "30", "--num-objects", "5", "--epochs", "2",
             "--requests-per-epoch", "150", "--out", str(path)],
            out=out,
        )
        assert rc == 0
        text = out.getvalue()
        assert "[E15]" in text and "epoch-replan" in text
        import json

        data = json.loads(path.read_text())
        assert data["exp_id"] == "E15"
        labels = {row[1] for row in data["rows"]}
        assert {"vectorized", "clairvoyant-static", "online-counting"} <= labels

    def test_dynamic_rejects_bad_epochs(self):
        out = io.StringIO()
        assert main(["dynamic", "--epochs", "0"], out=out) == 2

    def test_dynamic_incremental_flags(self):
        out = io.StringIO()
        rc = main(
            ["dynamic", "--nodes", "30", "--num-objects", "5", "--epochs", "2",
             "--requests-per-epoch", "150", "--no-loop",
             "--incremental", "--tolerance", "0.1"],
            out=out,
        )
        assert rc == 0
        assert "epoch-replan" in out.getvalue()

    def test_dynamic_rejects_negative_tolerance(self):
        out = io.StringIO()
        assert main(["dynamic", "--tolerance", "-0.5"], out=out) == 2


class TestServeRunCommand:
    @pytest.mark.parametrize("damage", ["half-length", "not-a-zip"])
    def test_damaged_checkpoint_is_a_clean_error(
        self, damage, tmp_path, capsys, monkeypatch
    ):
        import sys

        import numpy as np

        from repro.graphs.generators import transit_stub_graph
        from repro.graphs.metric import Metric
        from repro.serialize import save_instance
        from repro.serve import PlacementDaemon
        from repro.workloads import make_instance

        metric = Metric.from_graph(transit_stub_graph(2, 2, 3, seed=3))
        inst = make_instance(metric, seed=2, num_objects=3)
        inst_path = tmp_path / "inst.npz"
        save_instance(inst, inst_path)
        checkpoint = tmp_path / "warm.npz"
        with PlacementDaemon(
            inst.storage_costs, inst.num_objects, metric=metric
        ) as daemon:
            daemon.ingest_counts(inst.read_freq, inst.write_freq)
            daemon.end_epoch()
            daemon.checkpoint_now(checkpoint)
        data = checkpoint.read_bytes()
        if damage == "half-length":
            checkpoint.write_bytes(data[: len(data) // 2])
        else:
            checkpoint.write_bytes(np.arange(64, dtype=np.uint8).tobytes())
        monkeypatch.setattr(sys, "stdin", io.StringIO("quit\n"))
        code = main(
            ["serve", "run", "--instance", str(inst_path),
             "--checkpoint", str(checkpoint)],
            out=io.StringIO(),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"serve run: cannot resume {checkpoint}:" in err
        assert "Traceback" not in err
