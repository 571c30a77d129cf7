"""Run trials and sweeps: cached, resumable, optionally process-parallel.

:data:`EXPERIMENT_RUNNERS` is the one experiment registry (the CLI's
``experiment`` command rides it too): E-series id -> size-parameterized
runner in :mod:`repro.analysis.experiments`.  :func:`run_trial` calls
one runner with a :class:`~repro.bench.trials.TrialConfig`'s params;
:func:`run_sweep` drives a whole grid against a
:class:`~repro.bench.store.TrialStore`:

* trials whose config hash is already cached are *loaded*, never
  re-run -- an interrupted sweep resumed later completes only the
  remaining trials, and the cached results come back byte-identical;
* each completed trial is persisted immediately (atomically), so the
  resume point is always the last *finished* trial, not the last batch;
* ``jobs > 1`` fans uncached trials over a process pool -- the same
  ``ProcessPoolExecutor`` shape the placement engine uses for object
  chunks, one trial per task.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass

from .. import analysis
from .store import TrialRecord, TrialStore
from .trials import SweepConfig, TrialConfig

__all__ = ["EXPERIMENT_RUNNERS", "run_trial", "run_sweep", "TrialOutcome"]

#: E-series id -> runner.  Keys are upper-case (``TrialConfig.make``
#: upper-cases its experiment id to match).
EXPERIMENT_RUNNERS = {
    "E1": analysis.run_e1_approx_ratio,
    "E2": analysis.run_e2_tree_dp,
    "E3": analysis.run_e3_restricted_gap,
    "E4": analysis.run_e4_proper_invariants,
    "E5": analysis.run_e5_phase_ablation,
    "E6": analysis.run_e6_baselines,
    "E7": analysis.run_e7_storage_sweep,
    "E8": analysis.run_e8_facility_choice,
    "E9": analysis.run_e9_load_model,
    "E10": analysis.run_e10_scalability,
    "E10B": analysis.run_e10_backend_sweep,
    "E11": analysis.run_e11_simulation_agreement,
    "E12": analysis.run_e12_online_vs_static,
    "E13": analysis.run_e13_capacity_price,
    "E14": analysis.run_e14_catalog_throughput,
    "E15": analysis.run_e15_dynamic_replay,
    "E16": analysis.run_e16_incremental_replan,
    "E18": analysis.run_e18_sharded,
    "E19": analysis.run_e19_daemon,
    "E20": analysis.run_e20_costmodels,
}


def run_trial(config: TrialConfig) -> "analysis.ExperimentResult":
    """Execute one trial (no cache involved); returns the result table."""
    runner = EXPERIMENT_RUNNERS.get(config.experiment)
    if runner is None:
        raise ValueError(
            f"unknown experiment {config.experiment!r}; choose from "
            f"{', '.join(EXPERIMENT_RUNNERS)}"
        )
    # JSON canonicalization turned tuples into lists; runners take
    # Sequence kwargs, so the params pass through unchanged.
    return runner(**config.params_dict)


def _run_trial_worker(config_dict: dict) -> tuple[dict, float]:
    """Pool task: rebuild the config, run it, ship back plain JSON."""
    config = TrialConfig.from_dict(config_dict)
    t0 = time.perf_counter()
    result = run_trial(config)
    return result.to_json(), time.perf_counter() - t0


@dataclass(frozen=True)
class TrialOutcome:
    """One sweep slot: the trial, its record, and how it was obtained.

    ``status`` is ``"cached"`` (loaded from the store), ``"ran"``
    (executed this call) or ``"pending"`` (left unrun because the
    ``limit`` budget was exhausted; ``record`` is then ``None``).
    """

    config: TrialConfig
    status: str
    record: TrialRecord | None


def run_sweep(
    sweep,
    store: TrialStore,
    *,
    jobs: int = 1,
    limit: int | None = None,
    generated_at: str | None = None,
    progress=None,
) -> list[TrialOutcome]:
    """Run (or resume) a sweep against a trial store.

    Parameters
    ----------
    sweep:
        A :class:`~repro.bench.trials.SweepConfig` or an explicit
        sequence of :class:`~repro.bench.trials.TrialConfig`.
    store:
        Completed trials land here immediately; trials already present
        are loaded instead of re-run (the resume path).
    jobs:
        Process-pool width for the uncached trials (1 = in-process).
    limit:
        Execute at most this many *new* trials this call (cached loads
        are free); the rest come back as ``"pending"``.  This is the
        budgeted-tier knob and doubles as a deterministic way to
        exercise interruption in tests.
    generated_at:
        Caller-injected timestamp recorded on new records; the runner
        itself never reads the clock into an artifact.
    progress:
        Optional ``callable(str)`` for one-line status messages.

    Outcomes are returned in the sweep's deterministic trial order,
    whatever order the pool finished in.
    """
    trials = sweep.trials() if isinstance(sweep, SweepConfig) else list(sweep)
    if jobs < 1:
        raise ValueError("jobs must be positive")
    if limit is not None and limit < 0:
        raise ValueError("limit must be non-negative (or None)")
    say = progress if progress is not None else (lambda _msg: None)

    outcomes: dict[int, TrialOutcome] = {}
    pending: list[tuple[int, TrialConfig]] = []
    budget = len(trials) if limit is None else limit
    for i, config in enumerate(trials):
        record = store.load(config)
        if record is not None:
            outcomes[i] = TrialOutcome(config, "cached", record)
            say(f"{config.label()}: cached")
        elif len(pending) < budget:
            pending.append((i, config))
        else:
            outcomes[i] = TrialOutcome(config, "pending", None)
            say(f"{config.label()}: pending (limit reached)")

    def finish(i: int, config: TrialConfig, payload: dict, elapsed: float):
        record = TrialRecord(
            config=config,
            result=payload,
            elapsed_s=elapsed,
            generated_at=generated_at,
        )
        store.save(record)
        outcomes[i] = TrialOutcome(config, "ran", record)
        say(f"{config.label()}: ran in {elapsed:.2f}s")

    if jobs == 1 or len(pending) <= 1:
        for i, config in pending:
            payload, elapsed = _run_trial_worker(config.to_dict())
            finish(i, config, payload, elapsed)
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, len(pending))) as pool:
            futures = {
                pool.submit(_run_trial_worker, config.to_dict()): (i, config)
                for i, config in pending
            }
            remaining = set(futures)
            while remaining:
                done, remaining = wait(remaining, return_when=FIRST_COMPLETED)
                for fut in done:
                    i, config = futures[fut]
                    payload, elapsed = fut.result()
                    finish(i, config, payload, elapsed)

    return [outcomes[i] for i in range(len(trials))]
