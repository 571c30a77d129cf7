"""Command-line interface: run experiments and scenarios from the shell.

Usage::

    python -m repro experiment E1 [E3 ...]   # regenerate experiment tables
    python -m repro experiment all
    python -m repro scenario www             # run a named scenario bake-off
    python -m repro scenario www --num-objects 5000
    python -m repro plan --scenario www --config cfg.json \\
        --save www.npz                       # one strategy -> artifact
    python -m repro plan --load www.npz      # reload the artifact
    python -m repro compare --scenario dfs --strategies krw online
    python -m repro place --scenario www --num-objects 100000 \\
        --jobs 4 --chunk-size 512            # batched catalog placement
    python -m repro place --scenario www --shards 8 --portals 4 \\
        --jobs 4                             # hierarchical sharded solve
    python -m repro plan --scenario www --strategy krw-sharded --shards 4
    python -m repro backend-sweep --sizes 1000 4000 10000 \\
        --out BENCH_backend_sweep.json       # dense-vs-lazy scaling sweep
    python -m repro dynamic --scenario drift --epochs 5 \\
        --num-objects 60                     # dynamic-layer comparison
    python -m repro dynamic --incremental --tolerance 0.0 \\
        --epochs 5                           # re-place only drifted objects
    python -m repro serve run --instance www.npz --spool spool/ \\
        --checkpoint warm.npz                # live daemon: stdin/stdout loop
    python -m repro serve replay --scenario drift --epochs 4 \\
        --incremental --tolerance 0 --compare  # daemon-vs-replanner parity
    python -m repro bench run --sweep sweep.json --store .repro-bench \\
        --jobs 2                             # cached, resumable trial sweep
    python -m repro bench gate --tier smoke  # BENCH_*.json regression gate
    python -m repro bench list               # experiments, gates, cache
    python -m repro list                     # what is available

Experiments are the E1--E16 validations mapped to the paper in
docs/EXPERIMENTS.md; scenarios place a full object catalogue with the
registered strategies and print the bill comparison; ``plan`` runs one
registered strategy under a (optionally file-loaded)
:class:`~repro.config.PlanConfig` and can persist/reload the resulting
:class:`~repro.api.PlanReport`; ``compare`` runs many strategies on one
scenario; ``place`` runs the batched
:class:`~repro.engine.PlacementEngine` over a scenario's catalog (with
optional per-object-loop parity check and JSON summary);
``backend-sweep`` measures the dense vs lazy distance backends at chosen
network sizes and can persist a ``BENCH_*.json`` artifact; ``dynamic``
replays an epoch-structured workload and compares clairvoyant-static,
epoch-replanned and online-counting strategies (E15);
``--incremental/--tolerance`` switch the replanner to incremental
re-placement of only the drifted objects (E16); ``serve`` is the live
subsystem (:mod:`repro.serve`): ``run`` keeps a
:class:`~repro.serve.PlacementDaemon` answering placement/nearest
lookups over stdin/stdout while ingesting spool-directory request
batches and checkpointing warm state (resumed bit-identically on
restart), ``replay`` drives one from a generated dynamic workload and
``--compare`` verifies tolerance-0 parity with the epoch replanner
(E19); ``bench`` is the
declarative experiment harness (:mod:`repro.bench`): ``run`` executes a
sweep of trials with results cached on disk by canonical config hash
(interrupted sweeps resume), ``gate`` validates the committed
``benchmarks/BENCH_*.json`` artifacts and re-runs a budgeted smoke tier
of each gated experiment, exiting ``1`` on regression and ``3`` on a
missing artifact, and ``list`` shows experiments, gates and the cache.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Callable, Sequence

from . import analysis
from .api import PlanReport, Planner, compare_table
from .bench import EXPERIMENT_RUNNERS
from .config import PARTITION_METHODS, PlanConfig
from .core.approx import approximate_placement
from .costmodel import available_cost_models, get_cost_model
from .engine import DEFAULT_CHUNK_SIZE, PlacementEngine
from .facility import FL_SOLVERS
from .registry import available_strategies
from .workloads import DYNAMIC_SCENARIOS, SCENARIO_BUILDERS

__all__ = ["main", "EXPERIMENTS", "SCENARIOS"]

#: The CLI's experiment registry rides the bench harness's -- one table
#: of E-series runners for ``experiment``, ``bench run`` and the gate.
EXPERIMENTS: dict[str, Callable[[], "analysis.ExperimentResult"]] = dict(
    EXPERIMENT_RUNNERS
)

# the CLI surface is the workloads registry; the alias is the public name
# this module has always exported
SCENARIOS = SCENARIO_BUILDERS

#: The scenario bake-off subset: the static strategies whose bills are
#: comparable at a glance (the slow true-objective heuristics and the
#: order-sensitive online strategy run via ``compare --strategies``).
BAKEOFF_STRATEGIES = ("krw", "single-median", "full-replication", "write-blind")


def _run_experiments(names: Sequence[str], out=sys.stdout) -> int:
    if any(n.lower() == "all" for n in names):
        names = list(EXPERIMENTS)
    for name in names:
        key = name.upper()
        if key not in EXPERIMENTS:
            print(f"unknown experiment {name!r}; choose from "
                  f"{', '.join(EXPERIMENTS)} or 'all'", file=sys.stderr)
            return 2
        result = EXPERIMENTS[key]()
        print(result.render(), file=out)
        print(file=out)
    return 0


def _scenario_kwargs(args) -> dict:
    kwargs = {}
    if getattr(args, "num_objects", None) is not None:
        kwargs["num_objects"] = args.num_objects
    return kwargs


def _run_scenario(name: str, out=sys.stdout, *, num_objects: int | None = None) -> int:
    if name not in SCENARIOS:
        print(f"unknown scenario {name!r}; choose from {', '.join(SCENARIOS)}",
              file=sys.stderr)
        return 2
    kwargs = {} if num_objects is None else {"num_objects": num_objects}
    sc = SCENARIOS[name](**kwargs)
    inst = sc.instance
    print(f"scenario {sc.name}: {inst.num_nodes} nodes, "
          f"{inst.num_objects} objects", file=out)
    reports = Planner().compare(sc, BAKEOFF_STRATEGIES)
    print(compare_table(reports), file=out)
    return 0


def _load_config(args) -> PlanConfig | None:
    """The run's PlanConfig: file base, CLI overrides on top."""
    config = PlanConfig() if args.config is None else PlanConfig.from_file(args.config)
    overrides = {}
    for knob in ("jobs", "fl_solver", "seed", "cache_rows", "num_shards",
                 "portals_per_shard", "partition", "cost_model"):
        value = getattr(args, knob, None)
        if value is not None:
            overrides[knob] = value
    return config.replace(**overrides) if overrides else config


def _build_scenario(args):
    sc = SCENARIOS[args.scenario](**_scenario_kwargs(args))
    return sc


def _run_plan(args, out=sys.stdout) -> int:
    if args.load_path:
        try:
            report = PlanReport.load(args.load_path)
        except (ValueError, TypeError, OSError, KeyError) as exc:
            print(f"plan: cannot load {args.load_path}: {exc}", file=sys.stderr)
            return 2
        print(f"loaded {args.load_path}", file=out)
        print(report.render(), file=out)
        return 0
    try:
        config = _load_config(args)
    except (ValueError, TypeError, OSError) as exc:
        print(f"plan: bad config: {exc}", file=sys.stderr)
        return 2
    sc = _build_scenario(args)
    inst = sc.instance
    print(f"scenario {sc.name}: {inst.num_nodes} nodes, "
          f"{inst.num_objects} objects", file=out)
    report = Planner(config).plan(sc, args.strategy)
    print(report.render(), file=out)
    _print_extras(report, out)
    if args.save_path:
        report.save(args.save_path)
        print(f"wrote {args.save_path}", file=out)
    return 0


def _run_compare(args, out=sys.stdout) -> int:
    try:
        config = _load_config(args)
    except (ValueError, TypeError, OSError) as exc:
        print(f"compare: bad config: {exc}", file=sys.stderr)
        return 2
    sc = _build_scenario(args)
    inst = sc.instance
    print(f"scenario {sc.name}: {inst.num_nodes} nodes, "
          f"{inst.num_objects} objects", file=out)
    names = args.strategies or list(available_strategies())
    reports = Planner(config).compare(sc, names)
    print(compare_table(reports), file=out)
    if args.out_path:
        payload = {"scenario": sc.name, "reports": [r.to_dict() for r in reports]}
        with open(args.out_path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.out_path}", file=out)
    return 0


def _print_extras(report, out) -> None:
    """Run-provenance lines under a plan table (lazy-backend row-cache
    hit rate, sharded decomposition)."""
    extras = report.extras or {}
    cache = extras.get("row_cache")
    if cache:
        rate = cache["hit_rate"]
        rate_s = "n/a" if rate is None else f"{rate:.1%}"
        print(f"row cache: {cache['hits']} hits / {cache['misses']} misses "
              f"(hit rate {rate_s}, cache_rows={cache['cache_rows']})", file=out)
    sharded = extras.get("sharded")
    if sharded:
        if sharded.get("degenerate"):
            print(f"sharded: degenerate (num_shards=1, "
                  f"partition={sharded['partition']}) -- global solve",
                  file=out)
        else:
            sizes = sharded["shard_sizes"]
            print(f"sharded: {sharded['num_shards']} shards "
                  f"(sizes {min(sizes)}..{max(sizes)}), "
                  f"{sharded['num_portals']} portals, "
                  f"{sharded['spanning_objects']} spanning objects, "
                  f"stitch dropped {sharded['stitch_dropped']} copies",
                  file=out)


def _run_place(args, out=sys.stdout) -> int:
    if args.jobs < 1 or args.chunk_size < 1:
        print("place: --jobs and --chunk-size must be positive", file=sys.stderr)
        return 2
    if args.num_shards < 1 or args.portals_per_shard < 1:
        print("place: --shards and --portals must be positive", file=sys.stderr)
        return 2
    if args.compare_loop and args.num_shards > 1 and args.partition != "none":
        print("place: --compare-loop checks global-solve parity; "
              "drop it or use --shards 1", file=sys.stderr)
        return 2
    sc = SCENARIOS[args.scenario](**_scenario_kwargs(args))
    inst = sc.instance
    print(f"scenario {sc.name}: {inst.num_nodes} nodes, "
          f"{inst.num_objects} objects", file=out)

    engine = PlacementEngine(
        inst, fl_solver=args.fl_solver, chunk_size=args.chunk_size,
        jobs=args.jobs,
    )
    sharded = args.num_shards > 1 and args.partition != "none"
    shard_info = None
    t0 = time.perf_counter()
    if sharded:
        from .graphs.partition import partition_instance

        part = partition_instance(
            inst, num_shards=args.num_shards,
            portals_per_shard=args.portals_per_shard,
            method=args.partition,
        )
        placement, shard_info = engine.place_sharded(part)
    else:
        placement = engine.place()
    elapsed = time.perf_counter() - t0
    summary = {
        "scenario": sc.name,
        "nodes": inst.num_nodes,
        "objects": inst.num_objects,
        "jobs": args.jobs,
        "chunk_size": args.chunk_size,
        "fl_solver": args.fl_solver,
        "time_s": elapsed,
        "objects_per_s": inst.num_objects / elapsed,
        "total_copies": placement.total_copies(),
        "mean_copies": placement.replication_degree(),
    }
    print(f"engine: {elapsed:.2f}s "
          f"({summary['objects_per_s']:.0f} objects/s, jobs={args.jobs}), "
          f"{summary['total_copies']} copies "
          f"(mean {summary['mean_copies']:.2f}/object)", file=out)
    if shard_info is not None:
        summary["sharded"] = {
            k: v for k, v in shard_info.items() if k != "row_cache"
        }
        print(f"sharded: {shard_info['num_shards']} shards, "
              f"{shard_info['num_portals']} portals, "
              f"{shard_info['spanning_objects']} spanning objects, "
              f"stitch dropped {shard_info['stitch_dropped']} copies",
              file=out)

    if args.compare_loop:
        t0 = time.perf_counter()
        loop = approximate_placement(inst, fl_solver=args.fl_solver)
        loop_s = time.perf_counter() - t0
        summary["loop_time_s"] = loop_s
        summary["speedup_vs_loop"] = loop_s / elapsed
        summary["matches_loop"] = placement.copy_sets == loop.copy_sets
        print(f"per-object loop: {loop_s:.2f}s -> engine speedup "
              f"{summary['speedup_vs_loop']:.1f}x, identical copy sets: "
              f"{summary['matches_loop']}", file=out)
        if not summary["matches_loop"]:
            print("place: engine/loop copy sets differ", file=sys.stderr)
            return 1
    if args.cost:
        model = get_cost_model(getattr(args, "cost_model", None) or "krw")
        bill = model.bill_placement(inst, placement, policy="mst")
        summary["cost"] = {
            "model": model.name,
            "storage": bill.storage, "read": bill.read,
            "update": bill.update, "total": bill.total,
        }
        print(f"bill ({model.name}, mst policy): storage {bill.storage:.1f} "
              f"+ read {bill.read:.1f} + update {bill.update:.1f} = "
              f"{bill.total:.1f}", file=out)
    if args.out_path:
        with open(args.out_path, "w") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.out_path}", file=out)
    return 0


def _run_dynamic(args, out=sys.stdout) -> int:
    if args.epochs < 1 or args.requests_per_epoch < 0:
        print("dynamic: --epochs must be >= 1 and --requests-per-epoch >= 0",
              file=sys.stderr)
        return 2
    if args.tolerance < 0:
        print("dynamic: --tolerance must be non-negative", file=sys.stderr)
        return 2
    try:
        result = analysis.run_e15_dynamic_replay(
            n=args.nodes,
            num_objects=args.num_objects,
            epochs=args.epochs,
            requests_per_epoch=args.requests_per_epoch,
            scenario=args.scenario,
            drift=args.drift,
            write_fraction=args.write_fraction,
            threshold=args.threshold,
            seed=args.seed,
            fl_solver=args.fl_solver,
            jobs=args.jobs,
            compare_loop=not args.no_loop,
            replan_mode="incremental" if args.incremental else "full",
            replan_tolerance=args.tolerance,
            redraw=args.redraw,
        )
    except ValueError as exc:
        print(f"dynamic: {exc}", file=sys.stderr)
        return 2
    print(result.render(), file=out)
    if args.out_path:
        result.save_json(args.out_path)
        print(f"wrote {args.out_path}", file=out)
    return 0


def _run_backend_sweep(args, out=sys.stdout) -> int:
    try:
        result = analysis.run_e10_backend_sweep(
            sizes=tuple(args.sizes),
            topology=args.topology,
            dense_limit=args.dense_limit,
            seed=args.seed,
        )
    except ValueError as exc:
        print(f"backend-sweep: {exc}", file=sys.stderr)
        return 2
    print(result.render(), file=out)
    if args.out_path:
        result.save_json(args.out_path)
        print(f"wrote {args.out_path}", file=out)
    return 0


def _serve_config(args) -> PlanConfig:
    """The daemon's PlanConfig: file base plus serve-relevant overrides."""
    config = _load_config(args)
    overrides = {}
    if getattr(args, "incremental", False):
        overrides["replan_mode"] = "incremental"
    if getattr(args, "tolerance", None) is not None:
        overrides["replan_tolerance"] = args.tolerance
    if getattr(args, "checkpoint_every", None) is not None:
        overrides["serve_checkpoint_every"] = args.checkpoint_every
    return config.replace(**overrides) if overrides else config


def _serve_metric(graph, backend: str, config: PlanConfig):
    from .graphs.backend import LazyMetric
    from .graphs.metric import Metric

    if backend == "lazy":
        return LazyMetric.from_graph(graph, cache_rows=config.cache_rows)
    return Metric.from_graph(graph)


def _run_serve_replay(args, out=sys.stdout) -> int:
    """Drive a daemon from a generated DynamicWorkload; optionally check
    tolerance-0 parity against the EpochReplanner (the CI smoke)."""
    from .graphs import generators
    from .serve import PlacementDaemon, compare_with_replanner, replay_workload
    from .workloads import uniform_storage_costs
    from .workloads.dynamic import drifting_zipf_catalog, flash_crowd

    try:
        config = _serve_config(args)
    except (ValueError, TypeError, OSError) as exc:
        print(f"serve replay: bad config: {exc}", file=sys.stderr)
        return 2
    graph = generators.sized_transit_stub_graph(args.nodes, seed=args.seed)
    n = graph.number_of_nodes()
    rpe = args.requests_per_epoch or 100 * args.num_objects
    make = drifting_zipf_catalog if args.scenario == "drift" else flash_crowd
    kwargs = dict(
        epochs=args.epochs, seed=args.seed, requests_per_epoch=rpe,
        write_fraction=args.write_fraction, redraw="changed",
    )
    if args.scenario == "drift":
        kwargs["drift"] = args.drift
    workload = make(n, args.num_objects, **kwargs)
    # the E16 sizing convention: prices scaled so replication is a real
    # trade-off at this request volume
    storage_costs = uniform_storage_costs(
        n, max(2.0, 0.5 * rpe / args.num_objects)
    )
    metric = _serve_metric(graph, args.backend, config)

    if args.compare:
        verdict = compare_with_replanner(
            graph, metric, storage_costs, workload, config
        )
        print(
            f"daemon {verdict['daemon_total']:.6f} vs replanner "
            f"{verdict['replanner_total']:.6f} "
            f"(ratio {verdict['cost_ratio']:.12f}); "
            f"placements {'identical' if verdict['identical'] else 'DIVERGED'}",
            file=out,
        )
        if args.out_path:
            from .serialize import canonical_json_dumps

            Path(args.out_path).write_text(
                canonical_json_dumps(verdict) + "\n"
            )
            print(f"wrote {args.out_path}", file=out)
        if config.replan_tolerance == 0.0 and not verdict["identical"]:
            print(
                "serve replay: tolerance-0 daemon diverged from the "
                "EpochReplanner", file=sys.stderr,
            )
            return 1
        return 0

    daemon = PlacementDaemon(
        storage_costs, args.num_objects, metric=metric, graph=graph,
        config=config, checkpoint_path=args.checkpoint,
    )
    try:
        records = replay_workload(daemon, workload)
        stats = daemon.stats()
    finally:
        daemon.close()
    for rec in records:
        print(
            f"epoch {rec['epoch']}: generation {rec['generation']}, "
            f"replaced {rec['replaced']}, serve {rec['serve_cost']:.3f}, "
            f"migration {rec['migration_cost']:.3f}", file=out,
        )
    print(
        f"total {stats['total_cost']:.6f} over {stats['epochs_published']} "
        f"epochs ({stats['events_ingested']} events)", file=out,
    )
    if args.checkpoint:
        print(f"warm state in {args.checkpoint}", file=out)
    if args.out_path:
        from .serialize import canonical_json_dumps

        Path(args.out_path).write_text(
            canonical_json_dumps({"stats": stats, "epochs": records}) + "\n"
        )
        print(f"wrote {args.out_path}", file=out)
    return 0


def _serve_command_loop(daemon, in_stream, out) -> None:
    """The stdin/stdout request loop of ``repro serve run`` -- one
    command per line in, one JSON object per line out."""
    from .serve import read_spool_file

    def reply(payload: dict) -> None:
        print(json.dumps(payload), file=out, flush=True)

    for line in in_stream:
        parts = line.split()
        if not parts:
            continue
        cmd, *rest = parts
        try:
            if cmd == "quit":
                reply({"ok": True, "command": "quit"})
                break
            if cmd == "placement":
                (obj,) = rest
                reply({
                    "ok": True,
                    "copies": list(daemon.placement(int(obj))),
                    "generation": daemon.snapshot().generation,
                })
            elif cmd == "nearest":
                obj, node = rest
                reply({"ok": True, **daemon.lookup(int(obj), int(node)).to_dict()})
            elif cmd == "stats":
                reply({"ok": True, **daemon.stats()})
            elif cmd == "ingest":
                (path,) = rest
                reply({"ok": True, **daemon.ingest(read_spool_file(path))})
            elif cmd == "end-epoch":
                epoch = daemon.end_epoch(wait=not (rest and rest[0] == "async"))
                reply({"ok": True, "epoch": epoch})
            elif cmd == "checkpoint":
                cp = daemon.checkpoint_now(rest[0] if rest else None)
                reply({
                    "ok": True, "generation": cp.generation,
                    "epochs_published": cp.epochs_published,
                })
            else:
                reply({"ok": False, "error": f"unknown command {cmd!r}"})
        except (ValueError, RuntimeError, OSError, KeyError) as exc:
            reply({"ok": False, "error": str(exc)})


def _run_serve_run(args, out=sys.stdout, in_stream=None) -> int:
    """A metric-only daemon over a saved instance: spool ingest plus the
    stdin/stdout request loop (no network dependency)."""
    from .serialize import load_instance
    from .serve import PlacementDaemon, read_spool_file, spool_files

    try:
        config = _serve_config(args)
    except (ValueError, TypeError, OSError) as exc:
        print(f"serve run: bad config: {exc}", file=sys.stderr)
        return 2
    try:
        instance = load_instance(args.instance)
    except (ValueError, OSError, KeyError) as exc:
        print(f"serve run: cannot load {args.instance}: {exc}", file=sys.stderr)
        return 2

    resume = args.checkpoint is not None and Path(args.checkpoint).exists()
    if resume:
        explicit = (
            args.config is not None or args.incremental
            or args.tolerance is not None or args.checkpoint_every is not None
        )
        try:
            daemon = PlacementDaemon.restore(
                args.checkpoint,
                storage_costs=instance.storage_costs,
                metric=instance.metric,
                config=config if explicit else None,
            )
        except (ValueError, TypeError, OSError) as exc:
            print(
                f"serve run: cannot resume {args.checkpoint}: {exc}",
                file=sys.stderr,
            )
            return 2
    else:
        daemon = PlacementDaemon(
            instance.storage_costs,
            instance.num_objects,
            metric=instance.metric,
            config=config,
            checkpoint_path=args.checkpoint,
        )
    daemon.install_signal_handlers()
    status = daemon.stats()
    print(
        f"serving {status['num_objects']} objects on "
        f"{status['num_nodes']} nodes "
        f"(generation {status['generation']}"
        f"{', resumed' if resume else ''})",
        file=sys.stderr,
    )
    try:
        if args.spool:
            for batch in spool_files(args.spool):
                receipt = daemon.ingest(read_spool_file(batch))
                print(
                    f"ingested {batch.name}: {receipt['events']} events",
                    file=sys.stderr,
                )
                if args.epoch_per_file:
                    daemon.end_epoch(wait=True)
        _serve_command_loop(daemon, in_stream or sys.stdin, out)
    finally:
        daemon.close()
    return 0


def _run_serve(args, out=sys.stdout) -> int:
    if args.serve_command == "replay":
        return _run_serve_replay(args, out=out)
    if args.serve_command == "run":
        return _run_serve_run(args, out=out)
    print("serve: choose a subcommand (run, replay)", file=sys.stderr)
    return 2


def _bench_sweep_from_args(args):
    """The declared trial set of ``bench run`` (sweep file or one-off)."""
    from .bench import SweepConfig, TrialConfig

    if args.sweep_path:
        return SweepConfig.from_file(args.sweep_path).trials()
    if args.experiment:
        params = json.loads(args.params) if args.params else {}
        if not isinstance(params, dict):
            raise TypeError("--params must hold a JSON object")
        return [TrialConfig.make(args.experiment, **params)]
    raise TypeError("bench run needs --sweep FILE or --experiment ID")


def _run_bench_run(args, out=sys.stdout) -> int:
    from .bench import EXPERIMENT_RUNNERS, TrialStore, run_sweep

    try:
        trials = _bench_sweep_from_args(args)
    except (TypeError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"bench run: bad sweep: {exc}", file=sys.stderr)
        return 2
    unknown = sorted({t.experiment for t in trials} - set(EXPERIMENT_RUNNERS))
    if unknown:
        print(f"bench run: unknown experiment(s) {unknown}; choose from "
              f"{', '.join(EXPERIMENT_RUNNERS)}", file=sys.stderr)
        return 2
    store = TrialStore(args.store)
    outcomes = run_sweep(
        trials, store, jobs=args.jobs, limit=args.limit,
        generated_at=args.timestamp,
        progress=lambda msg: print(msg, file=out),
    )
    ran = sum(1 for o in outcomes if o.status == "ran")
    cached = sum(1 for o in outcomes if o.status == "cached")
    pending = sum(1 for o in outcomes if o.status == "pending")
    print(f"bench run: {len(outcomes)} trial(s): {ran} ran, {cached} cached, "
          f"{pending} pending (store: {store.root})", file=out)
    if args.show:
        for outcome in outcomes:
            if outcome.record is not None:
                print(outcome.record.to_experiment_result().render(), file=out)
                print(file=out)
    return 0


def _run_bench_gate(args, out=sys.stdout) -> int:
    from .bench import TrialStore, run_gate

    try:
        report = run_gate(
            tier=args.tier,
            artifact_dir=args.artifact_dir,
            store=TrialStore(args.store),
            only=args.only,
            jobs=args.jobs,
            generated_at=args.timestamp,
            progress=lambda msg: print(msg, file=out),
        )
    except ValueError as exc:
        print(f"bench gate: {exc}", file=sys.stderr)
        return 2
    text = report.render()
    print(text, file=out)
    if args.report_path:
        with open(args.report_path, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.report_path}", file=out)
    return report.exit_code


def _run_bench_list(args, out=sys.stdout) -> int:
    from .bench import EXPERIMENT_RUNNERS, GATES, TrialStore

    print("experiments:", ", ".join(EXPERIMENT_RUNNERS), file=out)
    print("gated:", file=out)
    for spec in GATES.values():
        print(f"  {spec.exp_id:5s} {spec.artifact}  "
              f"({len(spec.checks)} checks)", file=out)
    store = TrialStore(args.store)
    records = store.records()
    print(f"trial store {store.root}: {len(records)} cached trial(s)",
          file=out)
    for record in records:
        print(f"  {record.config.label()}  {record.elapsed_s:.2f}s",
              file=out)
    return 0


def _run_bench(args, out=sys.stdout) -> int:
    if args.bench_command == "run":
        return _run_bench_run(args, out=out)
    if args.bench_command == "gate":
        return _run_bench_gate(args, out=out)
    if args.bench_command == "list":
        return _run_bench_list(args, out=out)
    print("bench: choose a subcommand: run, gate or list", file=sys.stderr)
    return 2


def main(argv: Sequence[str] | None = None, out=sys.stdout) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Approximation Algorithms for Data "
        "Management in Networks' (SPAA 2001)",
    )
    sub = parser.add_subparsers(dest="command")

    p_exp = sub.add_parser("experiment", help="run evaluation experiments")
    p_exp.add_argument("names", nargs="+", help="E1..E15 or 'all'")

    p_sc = sub.add_parser("scenario", help="run a named scenario bake-off")
    p_sc.add_argument("name", choices=sorted(SCENARIOS))
    p_sc.add_argument("--num-objects", type=int, default=None,
                      help="catalog size (scenario default when omitted); "
                      "large catalogs use the Zipf-weighted columnar split")

    # the problem/config options plan and compare share (the knobs
    # _load_config reads must stay identical across the two commands)
    planner_opts = argparse.ArgumentParser(add_help=False)
    planner_opts.add_argument("--scenario", choices=sorted(SCENARIOS),
                              default="www")
    planner_opts.add_argument("--num-objects", type=int, default=None,
                              help="catalog size (scenario default when "
                              "omitted)")
    planner_opts.add_argument("--config", default=None, metavar="FILE",
                              help="PlanConfig file (*.json or *.toml)")
    planner_opts.add_argument("--jobs", type=int, default=None,
                              help="override the config's worker count")
    planner_opts.add_argument("--fl-solver", choices=sorted(FL_SOLVERS),
                              default=None,
                              help="override the config's phase-1 solver")
    planner_opts.add_argument("--seed", type=int, default=None,
                              help="override the config's event-order seed")
    planner_opts.add_argument("--cache-rows", dest="cache_rows", type=int,
                              default=None,
                              help="override the config's lazy-backend row "
                              "cache capacity")
    planner_opts.add_argument("--shards", dest="num_shards", type=int,
                              default=None,
                              help="override the config's shard count "
                              "(krw-sharded: 1 = global solve)")
    planner_opts.add_argument("--portals", dest="portals_per_shard", type=int,
                              default=None,
                              help="override the config's boundary portals "
                              "per shard")
    planner_opts.add_argument("--partition", choices=PARTITION_METHODS,
                              default=None,
                              help="override the config's partition method "
                              "(auto | transit_stub | bfs | none)")
    planner_opts.add_argument("--cost-model", dest="cost_model",
                              choices=available_cost_models(), default=None,
                              help="override the config's accounting model "
                              "(krw = the paper's bill; see `repro list`)")

    p_plan = sub.add_parser(
        "plan",
        parents=[planner_opts],
        help="run one registered strategy under a PlanConfig; save/load "
        "the resulting PlanReport artifact",
    )
    p_plan.add_argument("--strategy", choices=available_strategies(),
                        default="krw")
    p_plan.add_argument("--save", dest="save_path", default=None,
                        help="write the PlanReport here (*.npz or *.json)")
    p_plan.add_argument("--load", dest="load_path", default=None,
                        help="reload and print a saved PlanReport instead "
                        "of planning")

    p_cmp = sub.add_parser(
        "compare",
        parents=[planner_opts],
        help="run several registered strategies on one scenario",
    )
    p_cmp.add_argument("--strategies", nargs="+", default=None,
                       choices=available_strategies(),
                       help="strategy names (default: every registered one)")
    p_cmp.add_argument("--out", dest="out_path", default=None,
                       help="also write every report as JSON here")

    p_pl = sub.add_parser(
        "place",
        help="place a scenario's object catalog with the batched engine",
    )
    p_pl.add_argument("--scenario", choices=sorted(SCENARIOS), default="www")
    p_pl.add_argument("--num-objects", type=int, default=None,
                      help="catalog size (scenario default when omitted)")
    p_pl.add_argument("--jobs", type=int, default=1,
                      help="worker processes (1 = in-process)")
    p_pl.add_argument("--chunk-size", type=int, default=DEFAULT_CHUNK_SIZE,
                      help="objects per engine chunk")
    p_pl.add_argument("--fl-solver", choices=sorted(FL_SOLVERS),
                      default="local_search")
    p_pl.add_argument("--shards", dest="num_shards", type=int, default=1,
                      help="solve hierarchically over this many shards "
                      "(1 = global solve)")
    p_pl.add_argument("--portals", dest="portals_per_shard", type=int,
                      default=4,
                      help="boundary portals per shard for the sharded solve")
    p_pl.add_argument("--partition", choices=PARTITION_METHODS, default="auto",
                      help="partition method for --shards > 1 "
                      "(auto | transit_stub | bfs | none)")
    p_pl.add_argument("--compare-loop", action="store_true",
                      help="also run the per-object loop and verify parity")
    p_pl.add_argument("--cost", action="store_true",
                      help="bill the placement under the mst policy")
    p_pl.add_argument("--cost-model", dest="cost_model",
                      choices=available_cost_models(), default="krw",
                      help="accounting model for --cost (default: krw, "
                      "the paper's bill)")
    p_pl.add_argument("--out", dest="out_path", default=None,
                      help="write a JSON summary here")

    p_bs = sub.add_parser(
        "backend-sweep",
        help="measure dense vs lazy distance backends at chosen sizes",
    )
    p_bs.add_argument("--sizes", nargs="+", type=int, default=[500, 1500, 4000],
                      help="target network sizes (nodes)")
    p_bs.add_argument("--topology", choices=("transit_stub", "power_law"),
                      default="transit_stub")
    p_bs.add_argument("--dense-limit", type=int, default=4000,
                      help="skip the dense backend above this many nodes")
    p_bs.add_argument("--seed", type=int, default=7)
    p_bs.add_argument("--out", dest="out_path", default=None,
                      help="also write a BENCH_*.json artifact here")

    p_dy = sub.add_parser(
        "dynamic",
        help="replay an epoch-structured workload: static vs replan vs online",
    )
    p_dy.add_argument("--scenario", choices=("drift", "flash"), default="drift",
                      help="popularity churn or a one-epoch flash crowd")
    p_dy.add_argument("--nodes", type=int, default=200,
                      help="target network size (transit-stub)")
    p_dy.add_argument("--num-objects", type=int, default=24)
    p_dy.add_argument("--epochs", type=int, default=4)
    p_dy.add_argument("--requests-per-epoch", type=int, default=1200)
    p_dy.add_argument("--drift", type=float, default=0.2,
                      help="fraction of objects swapping popularity per epoch")
    p_dy.add_argument("--write-fraction", type=float, default=0.1)
    p_dy.add_argument("--threshold", type=int, default=3,
                      help="online strategy's replication threshold")
    p_dy.add_argument("--fl-solver", choices=sorted(FL_SOLVERS),
                      default="local_search")
    p_dy.add_argument("--jobs", type=int, default=1,
                      help="engine worker processes per (re)placement")
    p_dy.add_argument("--incremental", action="store_true",
                      help="epoch-replan re-places only drifted objects "
                      "(replan_mode='incremental'); full catalog re-solve "
                      "when omitted")
    p_dy.add_argument("--tolerance", type=float, default=0.0,
                      help="normalized L1 demand-drift threshold below "
                      "which an object keeps its copies (0: exact, "
                      "bit-identical to the full re-solve)")
    p_dy.add_argument("--redraw", choices=("all", "changed"), default=None,
                      help="per-epoch demand resampling: 'all' redraws "
                      "every row, 'changed' only churned objects' rows "
                      "(default: 'changed' with --incremental, else 'all')")
    p_dy.add_argument("--seed", type=int, default=29)
    p_dy.add_argument("--no-loop", action="store_true",
                      help="skip the (slow) hop-by-hop replay baseline")
    p_dy.add_argument("--out", dest="out_path", default=None,
                      help="write the experiment table as JSON here")

    p_serve = sub.add_parser(
        "serve",
        help="long-lived placement daemon: live ingest, background "
        "replans, warm restarts",
    )
    serve_sub = p_serve.add_subparsers(dest="serve_command")
    serve_opts = argparse.ArgumentParser(add_help=False)
    serve_opts.add_argument("--config", default=None, metavar="FILE",
                            help="PlanConfig file (*.json or *.toml)")
    serve_opts.add_argument("--incremental", action="store_true",
                            help="background replans re-place only drifted "
                            "objects (replan_mode='incremental')")
    serve_opts.add_argument("--tolerance", type=float, default=None,
                            help="normalized L1 demand-drift threshold "
                            "below which an object keeps its copies "
                            "(0: every epoch replans exactly)")
    serve_opts.add_argument("--checkpoint", default=None, metavar="FILE",
                            help="warm-state *.npz: written on close/"
                            "SIGTERM (and resumed from, for 'run', when "
                            "it already exists)")
    serve_opts.add_argument("--checkpoint-every", dest="checkpoint_every",
                            type=int, default=None,
                            help="also checkpoint every N published epochs")

    ps_run = serve_sub.add_parser(
        "run", parents=[serve_opts],
        help="serve a saved instance: spool ingest + stdin/stdout "
        "request loop",
    )
    ps_run.add_argument("--instance", required=True, metavar="FILE",
                        help="a save_instance() artifact (*.npz or "
                        "*.json); its metric/prices define the network, "
                        "demand comes from the spool and stdin")
    ps_run.add_argument("--spool", default=None, metavar="DIR",
                        help="ingest every *.jsonl/*.json/*.npz request "
                        "batch in this directory (sorted) before the "
                        "command loop")
    ps_run.add_argument("--epoch-per-file", action="store_true",
                        help="seal an epoch after each spool file instead "
                        "of leaving the batches in one pending window")

    ps_rp = serve_sub.add_parser(
        "replay", parents=[serve_opts],
        help="drive a daemon from a generated dynamic workload; "
        "--compare checks tolerance-0 parity with the epoch replanner",
    )
    ps_rp.add_argument("--scenario", choices=("drift", "flash"),
                       default="drift")
    ps_rp.add_argument("--nodes", type=int, default=200,
                       help="target network size (transit-stub)")
    ps_rp.add_argument("--num-objects", type=int, default=24)
    ps_rp.add_argument("--epochs", type=int, default=4)
    ps_rp.add_argument("--requests-per-epoch", type=int, default=None,
                       help="per-epoch request budget (default 100 per "
                       "object)")
    ps_rp.add_argument("--drift", type=float, default=0.2,
                       help="fraction of objects swapping popularity per "
                       "epoch")
    ps_rp.add_argument("--write-fraction", type=float, default=0.1)
    ps_rp.add_argument("--backend", choices=("dense", "lazy"),
                       default="dense",
                       help="distance backend the daemon serves from")
    ps_rp.add_argument("--seed", type=int, default=29)
    ps_rp.add_argument("--compare", action="store_true",
                       help="replay the same workload through the "
                       "EpochReplanner and exit 1 if a tolerance-0 "
                       "daemon diverges from it")
    ps_rp.add_argument("--out", dest="out_path", default=None,
                       help="write the per-epoch records (or the parity "
                       "verdict) as JSON here")

    p_bench = sub.add_parser(
        "bench",
        help="experiment harness: cached resumable sweeps + BENCH gate",
    )
    bench_sub = p_bench.add_subparsers(dest="bench_command")
    bench_store = argparse.ArgumentParser(add_help=False)
    bench_store.add_argument("--store", default=".repro-bench",
                             metavar="DIR",
                             help="trial cache directory (results keyed by "
                             "canonical config hash)")

    pb_run = bench_sub.add_parser(
        "run", parents=[bench_store],
        help="run a sweep of trials; cached trials are loaded, not re-run",
    )
    pb_run.add_argument("--sweep", dest="sweep_path", default=None,
                        metavar="FILE",
                        help="SweepConfig file (*.json or *.toml)")
    pb_run.add_argument("--experiment", default=None,
                        help="run a single experiment instead of a sweep "
                        "file (E1..E16)")
    pb_run.add_argument("--params", default=None, metavar="JSON",
                        help="runner kwargs for --experiment as a JSON "
                        "object")
    pb_run.add_argument("--jobs", type=int, default=1,
                        help="trials run in parallel (1 = in-process)")
    pb_run.add_argument("--limit", type=int, default=None,
                        help="execute at most this many new trials "
                        "(cached loads are free); the rest stay pending")
    pb_run.add_argument("--timestamp", default=None,
                        help="record this string as the trials' "
                        "generated-at stamp (never read from the clock)")
    pb_run.add_argument("--show", action="store_true",
                        help="print every completed trial's result table")

    pb_gate = bench_sub.add_parser(
        "gate", parents=[bench_store],
        help="validate BENCH_*.json artifacts and smoke-run each gated "
        "experiment; exit 1 on regression, 3 on missing artifact",
    )
    pb_gate.add_argument("--tier", choices=("smoke", "artifact"),
                         default="smoke",
                         help="'artifact' validates committed artifacts "
                         "only; 'smoke' also re-runs each gate's budgeted "
                         "smoke trial")
    pb_gate.add_argument("--artifact-dir", default=None, metavar="DIR",
                         help="where the BENCH_*.json artifacts live "
                         "(default: the committed benchmarks/ directory)")
    pb_gate.add_argument("--only", nargs="+", default=None,
                         metavar="EXP",
                         help="gate only these experiments (e.g. E14 E16)")
    pb_gate.add_argument("--jobs", type=int, default=1,
                         help="smoke trials run in parallel")
    pb_gate.add_argument("--timestamp", default=None,
                         help="generated-at stamp for fresh smoke trials")
    pb_gate.add_argument("--report", dest="report_path", default=None,
                         metavar="FILE",
                         help="also write the findings report here (the "
                         "CI failure artifact)")

    bench_sub.add_parser(
        "list", parents=[bench_store],
        help="list experiments, gate specs and the trial cache",
    )

    sub.add_parser("list", help="list experiments, scenarios and strategies")

    args = parser.parse_args(argv)
    if args.command == "experiment":
        return _run_experiments(args.names, out=out)
    if args.command == "scenario":
        return _run_scenario(args.name, out=out, num_objects=args.num_objects)
    if args.command == "plan":
        return _run_plan(args, out=out)
    if args.command == "compare":
        return _run_compare(args, out=out)
    if args.command == "place":
        return _run_place(args, out=out)
    if args.command == "backend-sweep":
        return _run_backend_sweep(args, out=out)
    if args.command == "serve":
        return _run_serve(args, out=out)
    if args.command == "dynamic":
        return _run_dynamic(args, out=out)
    if args.command == "bench":
        return _run_bench(args, out=out)
    if args.command == "list":
        print("experiments:      ", ", ".join(EXPERIMENTS), file=out)
        print("scenarios:        ", ", ".join(SCENARIOS), file=out)
        print("dynamic scenarios:", ", ".join(DYNAMIC_SCENARIOS), file=out)
        print("strategies:       ", ", ".join(available_strategies()), file=out)
        print("  krw-sharded knobs: partition="
              f"{'|'.join(PARTITION_METHODS)}, num_shards (--shards), "
              "portals_per_shard (--portals); num_shards=1 equals krw",
              file=out)
        print("cost models:      ", ", ".join(available_cost_models()),
              file=out)
        print("  accounting seam (--cost-model): krw = the paper's bill "
              "(default), admission = per-timeslot capacity, "
              "broadcast-write = one propagation per epoch", file=out)
        return 0
    parser.print_help(out)
    return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
