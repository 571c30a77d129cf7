"""Plug-in strategy registry: every placement policy behind one protocol.

The library grew one placement policy at a time -- the Section 2
approximation, the baselines of Experiment E6, the dynamic strategies of
E15 -- each with its own calling convention.  This module unifies them:
a *strategy* is anything with a ``name`` and a
``plan(instance, config) -> PlanReport`` method, registered under a
stable string name with :func:`register_strategy`::

    from repro.registry import register_strategy, PlacementStrategy

    @register_strategy
    class Cheapest(PlacementStrategy):
        name = "cheapest-node"

        def place(self, instance, config):
            v = int(np.argmin(instance.storage_costs))
            return Placement(tuple((v,) for _ in range(instance.num_objects)))

    Planner().plan(instance, "cheapest-node")

Built-in strategies (the names ``python -m repro list`` prints):

``krw``
    The paper's constant-factor approximation, batched through
    :class:`~repro.engine.PlacementEngine` (identical copy sets to the
    per-object loop).
``krw-sharded``
    The same approximation run hierarchically: the network is
    partitioned into shards with boundary portals
    (:mod:`repro.graphs.partition`), each object solves only on its
    demand-supporting shards against the portal-summarized metric, and
    cross-shard copy sets are stitched on the real metric.
    ``num_shards=1`` degenerates to ``krw`` exactly.
``single-median`` / ``full-replication`` / ``write-blind`` /
``greedy-add`` / ``local-search``
    The E6 baseline family (:mod:`repro.baselines.heuristics`).
``epoch-replan``
    The ``krw`` placement viewed as one epoch of
    :class:`~repro.simulate.replanner.EpochReplanner`: same copy sets,
    plus the migration bill from the zero-knowledge start (one copy on
    the cheapest node) recorded in ``extras["migration_cost"]``.
``online``
    The count-based dynamic strategy
    (:class:`~repro.simulate.online.OnlineCountingStrategy`) replayed
    over the instance's own request log (``config.seed`` orders the
    events); the *final* copy sets become the placement.  The decision
    trajectory depends only on metric distances and event order, never
    on per-link routing, so the copy sets match the hop-by-hop
    simulation exactly (property-tested).

:class:`PlacementStrategy` is the convenience base: subclasses implement
``place(instance, config) -> Placement`` (optionally returning
``(Placement, extras)``) and inherit timing, billing under
``config.cost_policy``, and :class:`~repro.api.PlanReport` assembly.
"""

from __future__ import annotations

import time
from typing import Protocol, runtime_checkable

import numpy as np

from .api import PlanReport
from .baselines.heuristics import (
    best_single_node,
    full_replication,
    greedy_add_placement,
    local_search_placement,
    write_blind_placement,
)
from .config import PlanConfig
from .core.instance import DataManagementInstance
from .core.placement import Placement
from .costmodel import get_cost_model
from .engine import PlacementEngine
from .simulate.events import RequestLog

__all__ = [
    "Strategy",
    "PlacementStrategy",
    "register_strategy",
    "get_strategy",
    "available_strategies",
]


@runtime_checkable
class Strategy(Protocol):
    """What the planner requires of a registered strategy."""

    name: str

    def plan(
        self, instance: DataManagementInstance, config: PlanConfig | None = None
    ) -> PlanReport: ...


class PlacementStrategy:
    """Base class handling timing, billing and report assembly.

    Subclasses implement :meth:`place`; ``plan`` wraps it with a wall
    clock, bills the placement through ``config.cost_model`` (under
    ``config.cost_policy``), records the billing model in
    ``extras["cost_model"]`` and returns the full
    :class:`~repro.api.PlanReport`.
    """

    name: str = ""

    def place(self, instance: DataManagementInstance, config: PlanConfig):
        """Return a :class:`Placement` or ``(Placement, extras dict)``."""
        raise NotImplementedError

    def plan(
        self, instance: DataManagementInstance, config: PlanConfig | None = None
    ) -> PlanReport:
        config = PlanConfig() if config is None else config
        t0 = time.perf_counter()
        result = self.place(instance, config)
        wall = time.perf_counter() - t0
        placement, extras = result if isinstance(result, tuple) else (result, {})
        model = get_cost_model(config.cost_model)
        cost = model.bill_placement(instance, placement, policy=config.cost_policy)
        extras.setdefault("cost_model", model.name)
        return PlanReport(
            strategy=self.name,
            placement=placement,
            cost=cost,
            wall_time_s=wall,
            config=config,
            num_nodes=instance.num_nodes,
            num_objects=instance.num_objects,
            extras=extras,
        )


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------
_STRATEGIES: dict[str, Strategy] = {}


def register_strategy(obj=None, *, name: str | None = None, override: bool = False):
    """Register a strategy class (instantiated) or instance.

    Usable bare (``@register_strategy``, taking the strategy's ``name``
    attribute) or parameterized
    (``@register_strategy(name="mine", override=True)``).  Registering a
    taken name without ``override=True`` is an error -- two plug-ins
    silently fighting over one name would make configs ambiguous.
    """
    if obj is None:
        def deco(inner):
            return register_strategy(inner, name=name, override=override)
        return deco

    strategy: Strategy = obj() if isinstance(obj, type) else obj
    key = name or getattr(strategy, "name", "")
    if not key:
        raise ValueError("a strategy needs a non-empty name")
    if not callable(getattr(strategy, "plan", None)):
        raise TypeError(f"strategy {key!r} has no plan() method")
    if key in _STRATEGIES and not override:
        raise ValueError(
            f"strategy name {key!r} is already registered; pass override=True "
            "to replace it"
        )
    strategy.name = key
    _STRATEGIES[key] = strategy
    return obj


def get_strategy(name: str) -> Strategy:
    try:
        return _STRATEGIES[name]
    except KeyError:
        raise KeyError(
            f"unknown strategy {name!r}; registered: "
            f"{', '.join(available_strategies())}"
        ) from None


def available_strategies() -> tuple[str, ...]:
    """Registered names, in registration order (built-ins first)."""
    return tuple(_STRATEGIES)


# ----------------------------------------------------------------------
# built-in strategies
# ----------------------------------------------------------------------
@register_strategy
class KRWStrategy(PlacementStrategy):
    """The Section 2 approximation via the batched catalog engine.

    On a lazy backend ``extras`` records the row-cache hit-rate
    statistics, so ``cache_rows`` sizing is observable from plan output.
    """

    name = "krw"

    def place(self, instance, config):
        from .graphs.backend import LazyMetric

        placement = PlacementEngine.from_config(instance, config).place()
        extras = {}
        if isinstance(instance.metric, LazyMetric):
            extras["row_cache"] = instance.metric.cache_stats()
        return placement, extras


@register_strategy
class KRWShardedStrategy(PlacementStrategy):
    """Hierarchical sharded solve: partition -> portal shard solves -> stitch.

    The network is decomposed by :func:`repro.graphs.partition_instance`
    under the config's ``partition`` / ``num_shards`` /
    ``portals_per_shard`` knobs; each object is then solved only on the
    shards carrying its demand, against the portal-summarized metric,
    and cross-shard copy sets are stitched with one global phase-3 pass
    on the real metric.  ``partition="none"`` or ``num_shards=1``
    degenerates to the global ``krw`` solve bit-for-bit (property-tested).

    ``extras`` carries a ``sharded`` block -- shard sizes, per-shard
    object counts, spanning objects, copies dropped by the stitch, and
    aggregated backend cache stats -- plus ``krw``'s row-cache stats.
    """

    name = "krw-sharded"

    def place(self, instance, config):
        from .graphs.backend import LazyMetric
        from .graphs.partition import partition_instance

        engine = PlacementEngine.from_config(instance, config)
        extras = {}
        if config.partition == "none" or config.num_shards == 1:
            placement = engine.place()
            extras["sharded"] = {
                "num_shards": 1,
                "partition": config.partition,
                "degenerate": True,
            }
        else:
            part = partition_instance(
                instance,
                num_shards=config.num_shards,
                portals_per_shard=config.portals_per_shard,
                method=config.partition,
            )
            placement, info = engine.place_sharded(part)
            info["partition"] = config.partition
            info["degenerate"] = False
            extras["sharded"] = info
        if isinstance(instance.metric, LazyMetric):
            extras["row_cache"] = instance.metric.cache_stats()
        return placement, extras


def _per_object(instance, fn) -> Placement:
    return Placement(tuple(fn(obj) for obj in range(instance.num_objects)))


@register_strategy
class SingleMedianStrategy(PlacementStrategy):
    """One copy per object at its cost-weighted 1-median."""

    name = "single-median"

    def place(self, instance, config):
        return _per_object(instance, lambda o: best_single_node(instance, o))


@register_strategy
class FullReplicationStrategy(PlacementStrategy):
    """A copy of every object on every node."""

    name = "full-replication"

    def place(self, instance, config):
        return _per_object(instance, lambda o: full_replication(instance, o))


@register_strategy
class WriteBlindStrategy(PlacementStrategy):
    """Phase 1 only: the related facility-location solution as-is."""

    name = "write-blind"

    def place(self, instance, config):
        return _per_object(
            instance,
            lambda o: write_blind_placement(instance, o, fl_solver=config.fl_solver),
        )


@register_strategy
class GreedyAddStrategy(PlacementStrategy):
    """Greedy copy addition on the true objective."""

    name = "greedy-add"

    def place(self, instance, config):
        return _per_object(
            instance,
            lambda o: greedy_add_placement(instance, o, policy=config.cost_policy),
        )


@register_strategy
class LocalSearchStrategy(PlacementStrategy):
    """Add/drop/swap local search on the true objective (no guarantee)."""

    name = "local-search"

    def place(self, instance, config):
        return _per_object(
            instance,
            lambda o: local_search_placement(instance, o, policy=config.cost_policy),
        )


@register_strategy
class EpochReplanStrategy(PlacementStrategy):
    """One epoch of the replanner: ``krw`` copy sets + the migration bill.

    The placement equals ``krw``'s; ``extras`` records what
    :class:`~repro.simulate.replanner.EpochReplanner` would charge to
    reach it from the zero-knowledge start (every object one copy on the
    cheapest storage node): each new copy transfers from the nearest old
    one, dropping is free.  The config's ``replan_mode`` /
    ``replan_tolerance`` knobs are recorded as provenance -- a single
    static instance is one all-dirty epoch, so full and incremental
    re-placement coincide here (multi-epoch horizons go through
    :meth:`repro.api.Planner.replan`).
    """

    name = "epoch-replan"

    def place(self, instance, config):
        placement = PlacementEngine.from_config(instance, config).place()
        start = int(np.argmin(instance.storage_costs))
        from_start = instance.metric.row(start)
        migration = 0.0
        for copies in placement.copy_sets:
            gained = [v for v in copies if v != start]
            if gained:
                migration += float(from_start[np.asarray(gained, dtype=int)].sum())
        return placement, {
            "migration_cost": migration,
            "initial_node": start,
            "replan_mode": config.replan_mode,
            "replan_tolerance": config.replan_tolerance,
        }


@register_strategy
class DaemonStrategy(PlacementStrategy):
    """The serving daemon, driven offline on one static instance.

    Spins up a metric-only :class:`~repro.serve.PlacementDaemon`, feeds
    it the instance's demand as a single batch window, seals one epoch
    and reads the published generation back -- so the live subsystem is
    comparable against every batch strategy through the same
    ``plan(instance, config)`` protocol.  The placement equals ``krw``'s
    (one sealed epoch is one full solve); ``extras`` records the
    daemon's publish metadata and its migration bill from the
    zero-knowledge start, which matches ``epoch-replan``'s accounting.
    """

    name = "daemon"

    def place(self, instance, config):
        from .serve import PlacementDaemon

        daemon = PlacementDaemon(
            instance.storage_costs,
            instance.num_objects,
            metric=instance.metric,
            config=config,
        )
        try:
            daemon.ingest_counts(instance.read_freq, instance.write_freq)
            daemon.end_epoch(wait=True)
            state = daemon.snapshot()
            record = daemon.epoch_records[-1]
        finally:
            daemon.close()
        return state.as_placement(), {
            "generation": state.generation,
            "migration_cost": record["migration_cost"],
            "replaced_objects": record["replaced"],
            "serve_trigger": config.serve_trigger,
            "replan_mode": config.replan_mode,
            "replan_tolerance": config.replan_tolerance,
        }


@register_strategy
class OnlineStrategy(PlacementStrategy):
    """Final copy sets of the count-based online strategy.

    Replays the instance's own request log (integer frequencies expanded
    in canonical order, shuffled by ``config.seed``) through the exact
    decision rules of
    :class:`~repro.simulate.online.OnlineCountingStrategy`: reads count
    per node since the last write, a node buys a copy at
    ``config.replication_threshold``, a write invalidates down to the
    copy nearest the writer.  Decisions depend only on metric distances
    and event order -- not on hop-by-hop routing -- so the final copy
    sets equal the full simulation's.
    """

    name = "online"

    def place(self, instance, config):
        log = RequestLog.from_frequencies(
            instance.read_freq, instance.write_freq, seed=config.seed
        )
        metric = instance.metric
        start = int(np.argmin(instance.storage_costs))
        copies: list[set[int]] = [{start} for _ in range(instance.num_objects)]
        counts: list[dict[int, int]] = [{} for _ in range(instance.num_objects)]
        bought = 0
        for is_write, node, obj in log.iter_events():
            held = copies[obj]
            if not is_write:
                if node not in held:
                    count = counts[obj].get(node, 0) + 1
                    counts[obj][node] = count
                    if count >= config.replication_threshold:
                        held.add(node)
                        counts[obj][node] = 0
                        bought += 1
            else:
                # only writes need the serving copy: they invalidate down
                # to the copy nearest the writer
                serving = min(held, key=lambda c: (metric.d(node, c), c))
                copies[obj] = {serving}
                counts[obj].clear()
        return (
            Placement(tuple(tuple(sorted(s)) for s in copies)),
            {"events": len(log), "copies_bought": bought, "initial_node": start},
        )
