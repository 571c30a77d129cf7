"""Epoch-wise re-placement with explicit migration cost.

The bridge between the paper's static optimum and the online setting its
related work studies: split the horizon into epochs, re-run the static
Section 2 pipeline (:class:`~repro.engine.PlacementEngine`) on each
epoch's frequencies, and *pay for the transition* -- every newly
materialized copy is transferred from the nearest copy of the previous
epoch (the migration model of "A Paradigm for Channel Assignment and
Data Migration in Distributed Systems"), on top of each epoch's normal
storage + traffic bill.

One epoch step
--------------
:class:`EpochStep` is the epoch step of :class:`EpochReplanner` and of
the live :class:`~repro.serve.PlacementDaemon`.  It owns what both carry
between epochs (copy sets, drift anchors, cost model, path cache);
:meth:`~EpochStep.solve` places and bills an epoch without changing
them and :meth:`~EpochStep.commit` moves them, so the two consumers
agree by construction.  One drift rule: the first epoch solves the whole
catalog; an epoch in which no object drifted past
``config.replan_tolerance`` carries the placement; otherwise
``replan_mode="incremental"`` re-solves the drifted objects and
``"full"`` the whole catalog.

Accounting conventions (shared with Experiments E15/E16's comparisons):

* each epoch is one billing period -- copies held during an epoch pay
  their storage price for that epoch;
* epoch traffic is billed by the vectorized
  :class:`~repro.simulate.simulator.NetworkSimulator` replay of the
  epoch's canonical request log against that epoch's placement; a
  metric-only step (no graph) bills the cost model's closed-form
  ``bill_placement`` instead;
* migration into epoch ``e`` charges ``d(v, S_{e-1}(x))`` for every node
  ``v`` that holds a copy of object ``x`` in epoch ``e`` but not in
  epoch ``e-1`` (transfer from the nearest old copy); dropping a copy is
  free, like releasing rented storage.  Before epoch 0 every object has
  one copy on the cheapest storage node -- the same zero-knowledge start
  as :class:`~repro.simulate.online.OnlineCountingStrategy`, so the two
  strategies' transfer accounting is comparable.  The cost model's
  ``bill_migration`` bills a whole transition with one batched
  set-distance query per distinct previous copy set.

Incremental re-placement
------------------------
Theorem 7 places objects *independently*, so a drifted epoch only
invalidates the placements of objects whose demand actually changed.
Drift is measured with :func:`~repro.workloads.dynamic.drifted_rows`
against each object's demand *at its last re-place*, not merely the
previous epoch.

* ``replan_tolerance == 0.0`` (exact): an object is dirty iff its
  ``fr``/``fw`` rows changed at all, so the per-epoch placements -- and
  therefore every storage, traffic and migration bill -- are
  **bit-identical** to the full re-solve (property-tested on dense and
  lazy backends).
* ``replan_tolerance == t > 0`` (approximate, in the spirit of
  "Approximate Data Structures with Applications"): objects whose
  normalized L1 demand delta *since their last re-place* is at most
  ``t`` also keep their stale copy sets.  Anchoring the comparison at
  the last-solved snapshot means a slow drift accumulates until it
  crosses ``t`` -- it cannot stay forever under a per-epoch threshold
  -- so at every epoch each carried object's demand is within ``t`` of
  the demand its placement was solved for.  The billing error is then
  bounded linearly in the tolerated shift: a carried object's serving
  bill differs from re-billing its stale placement under the new demand
  by at most ``t * T_x * (D + M(S_x))`` (``T_x`` the object's epoch
  volume, ``D`` the metric diameter, ``M(S_x)`` its update-tree cost),
  plus whatever the full re-solve would have saved by moving copies --
  itself within the constant approximation factor of optimal.  Speed is
  traded for a *bounded* cost gap, never for correctness of the
  accounting.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import networkx as nx
import numpy as np

from ..config import PlanConfig
from ..core.placement import Placement
from ..costmodel import MigrationBill, get_cost_model
from ..engine import PlacementEngine
from .events import RequestLog
from .paths import PathCache
from .simulator import NetworkSimulator, SimulationReport

__all__ = [
    "EpochOutcome", "EpochStep", "EpochReport", "ReplanResult", "EpochReplanner",
]


@dataclass(frozen=True)
class EpochOutcome:
    """One solved epoch that its :class:`EpochStep` has not committed.

    ``replaced`` counts the objects re-solved (the whole catalog on a
    full solve, the drifted ones on an incremental one, 0 on a carried
    epoch) and ``solve_time_s`` the wall time of the re-placement plus
    its migration bill.  ``report`` is the replay's bill when the step
    has a graph (``None`` when it is metric-only); ``serve_cost`` is the
    epoch's storage + traffic bill either way.
    """

    placement: Placement
    migration: MigrationBill
    serve_cost: float
    report: SimulationReport | None
    replaced: int
    solve_time_s: float
    #: the anchor update :meth:`EpochStep.commit` applies (None: none)
    reanchor: Callable[[], None] | None = field(default=None, repr=False)


class EpochStep:
    """The epoch step of the replanner and the daemon (module docstring).

    Before the first epoch each of the ``num_objects`` objects holds one
    copy on the cheapest storage node.  With a ``graph`` each epoch's
    serving bill is a :class:`~repro.simulate.simulator.NetworkSimulator`
    replay of its canonical request log; without one the step is
    metric-only and bills ``bill_placement`` under ``config.cost_policy``.
    """

    def __init__(
        self,
        metric,
        storage_costs,
        num_objects: int,
        config: PlanConfig,
        *,
        graph: nx.Graph | None = None,
    ) -> None:
        # workloads imports simulate.events, so the tracker loads late
        from ..workloads.drift import DriftTracker

        self.metric = metric
        self.config = config
        self.graph = graph
        self.model = get_cost_model(config.cost_model)
        self.tracker = DriftTracker(tolerance=config.replan_tolerance)
        start = int(np.argmin(storage_costs))
        #: the committed copy sets (the previous epoch's placement)
        self.copy_sets: tuple[tuple[int, ...], ...] = ((start,),) * int(num_objects)
        self._path_cache = PathCache(graph) if graph is not None else None

    def solve(self, instance) -> EpochOutcome:
        """Place and bill one epoch's instance; changes nothing the step
        owns (:meth:`commit` does)."""
        config = self.config
        fr, fw = instance.read_freq, instance.write_freq
        t0 = time.perf_counter()
        dirty = self.tracker.drifted(fr, fw) if self.tracker.primed else None
        if dirty is not None and dirty.size == 0:
            # nothing drifted past the tolerance: carry the placement
            placement, replaced, reanchor = Placement(self.copy_sets), 0, None
        elif dirty is not None and config.replan_mode == "incremental":
            solved = PlacementEngine.from_config(instance, config).place_subset(dirty)
            copy_sets = list(self.copy_sets)
            for obj, copies in solved.items():
                copy_sets[obj] = copies
            placement, replaced = Placement(tuple(copy_sets)), len(solved)
            reanchor = partial(self.tracker.rebase, dirty, fr, fw)
        else:
            # the first epoch, or a full re-solve
            placement = PlacementEngine.from_config(instance, config).place()
            replaced = placement.num_objects
            reanchor = partial(self.tracker.prime, fr, fw)
        migration = self.model.bill_migration(
            self.metric, self.copy_sets, placement.copy_sets
        )
        solve_time = time.perf_counter() - t0

        report = None
        if self.graph is not None:
            sim = NetworkSimulator(
                self.graph, instance, update_policy="mst",
                path_cache=self._path_cache, cost_model=self.model,
            )
            report = sim.run(placement, RequestLog.from_frequencies(fr, fw))
            serve_cost = report.total_cost
        else:
            serve_cost = self.model.bill_placement(
                instance, placement, policy=config.cost_policy
            ).total
        return EpochOutcome(
            placement, migration, float(serve_cost), report, replaced,
            solve_time, reanchor,
        )

    def commit(self, outcome: EpochOutcome) -> None:
        """Make a solved epoch the step's previous one: move the drift
        anchors it re-solved and carry its copy sets forward."""
        if outcome.reanchor is not None:
            outcome.reanchor()
        self.copy_sets = outcome.placement.copy_sets


@dataclass(frozen=True)
class EpochReport:
    """One epoch's outcome: the serving bill plus the transition cost.

    ``replaced_objects`` counts the objects actually re-solved this
    epoch and ``solve_time_s`` the wall time of that re-placement plus
    its migration bill -- the quantities Experiment E16 compares across
    modes.
    """

    epoch: int
    report: SimulationReport
    migration_cost: float
    copies_added: int
    copies_dropped: int
    placement: Placement
    replaced_objects: int = -1
    solve_time_s: float = 0.0

    @property
    def total_cost(self) -> float:
        return self.report.total_cost + self.migration_cost


@dataclass
class ReplanResult:
    """All epoch reports of one replanned horizon."""

    epochs: list[EpochReport] = field(default_factory=list)

    @property
    def total_cost(self) -> float:
        return sum(e.total_cost for e in self.epochs)

    @property
    def serve_cost(self) -> float:
        """Storage + traffic across all epochs, migration excluded."""
        return sum(e.report.total_cost for e in self.epochs)

    @property
    def migration_cost(self) -> float:
        return sum(e.migration_cost for e in self.epochs)

    @property
    def replaced_objects(self) -> int:
        """Objects re-solved across the horizon (epoch 0 included)."""
        return sum(e.replaced_objects for e in self.epochs)

    @property
    def solve_time_s(self) -> float:
        """Total re-placement (placement + migration bill) wall time."""
        return sum(e.solve_time_s for e in self.epochs)

    @property
    def final_placement(self) -> Placement:
        if not self.epochs:
            raise ValueError("no epochs were replanned")
        return self.epochs[-1].placement


class EpochReplanner:
    """Re-solves the static placement per epoch, paying migration.

    Parameters
    ----------
    graph:
        The network (nodes ``0..n-1``, fees in ``weight``).
    metric:
        Its distance backend (dense or lazy closure of ``graph``).
    storage_costs:
        Per-node storage prices, shared by every epoch.
    config:
        A :class:`~repro.config.PlanConfig` shared by every epoch's
        :class:`EpochStep`: its ``replan_mode`` / ``replan_tolerance``
        knobs choose the re-solve (see the module docstring).
    """

    def __init__(
        self,
        graph: nx.Graph,
        metric,
        storage_costs: np.ndarray,
        config: PlanConfig | None = None,
    ) -> None:
        self.graph = graph
        self.metric = metric
        self.storage_costs = np.asarray(storage_costs, dtype=float)
        self.config = config if config is not None else PlanConfig()

    # ------------------------------------------------------------------
    def _migration(
        self, old: tuple[int, ...], new: tuple[int, ...]
    ) -> tuple[float, int, int]:
        """Transfer cost into a new copy set from the nearest old copies.

        The per-object reference implementation: the cost model's
        batched ``bill_migration`` must bill every object exactly like
        this (tested).
        """
        old_set = set(old)
        gained = [v for v in new if v not in old_set]
        dropped = len(old_set.difference(new))
        if not gained:
            return 0.0, 0, dropped
        dist = self.metric.dist_to_set(sorted(old_set))
        return float(dist[np.asarray(gained, dtype=int)].sum()), len(gained), dropped

    # ------------------------------------------------------------------
    def run(self, workload) -> ReplanResult:
        """Replan and bill every epoch of a
        :class:`~repro.workloads.dynamic.DynamicWorkload`: one
        :meth:`EpochStep.solve` and :meth:`EpochStep.commit` per epoch,
        from the zero-knowledge start."""
        step = EpochStep(
            self.metric, self.storage_costs, workload.num_objects, self.config,
            graph=self.graph,
        )
        result = ReplanResult()
        for e in range(workload.num_epochs):
            outcome = step.solve(
                workload.epoch_instance(self.metric, self.storage_costs, e)
            )
            step.commit(outcome)
            migration, added, dropped = outcome.migration
            result.epochs.append(
                EpochReport(
                    e, outcome.report, migration, added, dropped,
                    outcome.placement, replaced_objects=outcome.replaced,
                    solve_time_s=outcome.solve_time_s,
                )
            )
        return result
