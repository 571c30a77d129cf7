"""The front door: declare a problem, pick a strategy, get an artifact.

:class:`Planner` is the library's top-level façade.  It binds a
:class:`~repro.config.PlanConfig` (the *declaration*: backend, solver,
chunking, seed) to the strategies of :mod:`repro.registry` (the
*algorithms*) and returns :class:`PlanReport` objects (the *artifacts*:
placement, per-component costs, wall time, provenance config) that
``save()``/``load()`` round-trip through JSON or NPZ byte-exactly::

    from repro import Planner, PlanConfig, workloads

    sc = workloads.www_content_provider(num_objects=1000)
    planner = Planner(PlanConfig(jobs=4))
    report = planner.plan(sc)            # the Section 2 approximation
    report.save("www.npz")               # placement + costs + config
    later = PlanReport.load("www.npz")   # == report

    for r in planner.compare(sc):        # every registered strategy
        print(r.render())

``plan()``/``compare()`` accept either a bare
:class:`~repro.core.instance.DataManagementInstance` or a
:class:`~repro.workloads.scenarios.Scenario`; with a scenario the
config's ``backend`` knob can rebuild the metric (dense or lazy) from
the scenario's graph, because the graph is still at hand.  ``replan()``
is the dynamic-layer front door: it runs an
:class:`~repro.simulate.replanner.EpochReplanner` over a
:class:`~repro.workloads.dynamic.DynamicWorkload`, honoring the
config's ``replan_mode``/``replan_tolerance`` incremental knobs.

The registry is imported lazily inside the methods: strategies produce
``PlanReport`` objects, so :mod:`repro.registry` imports this module at
its top level and the façade must not import it back at import time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import PlanConfig
from .core.costs import CostBreakdown
from .core.instance import DataManagementInstance
from .core.placement import Placement
from .graphs.backend import DENSE_MATERIALIZE_LIMIT, LazyMetric
from .graphs.metric import Metric
from .serialize import artifact_suffix as _artifact_suffix
from .serialize import open_archive, placement_from_arrays, placement_to_arrays

__all__ = ["PlanReport", "Planner", "compare_table"]

_REPORT_FORMAT = "repro-plan-report"
_REPORT_VERSION = 1


@dataclass(frozen=True)
class PlanReport:
    """One strategy's answer to one instance, with full provenance.

    Attributes
    ----------
    strategy:
        Registry name of the strategy that produced the placement.
    placement:
        The copy sets, one tuple per object.
    cost:
        Storage / read / update breakdown under ``config.cost_policy``.
    wall_time_s:
        Wall-clock seconds the strategy spent (billing excluded).
    config:
        The exact :class:`~repro.config.PlanConfig` used -- re-running
        the same strategy with this config reproduces the placement.
    extras:
        Strategy-specific scalars (e.g. the ``epoch-replan`` migration
        bill, the ``online`` event count).
    """

    strategy: str
    placement: Placement
    cost: CostBreakdown
    wall_time_s: float
    config: PlanConfig
    num_nodes: int
    num_objects: int
    extras: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    def render(self) -> str:
        """One-line human summary."""
        return (
            f"[{self.strategy}] {self.num_objects} objects on "
            f"{self.num_nodes} nodes: {self.placement.total_copies()} copies "
            f"(mean {self.placement.replication_degree():.2f}), cost "
            f"{self.cost.total:.2f} (storage {self.cost.storage:.2f} + read "
            f"{self.cost.read:.2f} + update {self.cost.update:.2f}), "
            f"{self.wall_time_s:.3f}s"
        )

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def _meta_dict(self) -> dict:
        cost = {
            "storage": self.cost.storage,
            "read": self.cost.read,
            "update": self.cost.update,
        }
        if self.cost.detail is not None:
            # model-specific decomposition (per-slot splits, message
            # counts); omitted entirely for detail-free bills so krw
            # artifacts stay byte-identical to the pre-seam format
            cost["detail"] = self.cost.detail
        return {
            "format": _REPORT_FORMAT,
            "version": _REPORT_VERSION,
            "strategy": self.strategy,
            "cost": cost,
            "wall_time_s": self.wall_time_s,
            "config": self.config.to_dict(),
            "num_nodes": self.num_nodes,
            "num_objects": self.num_objects,
            "extras": self.extras,
        }

    def to_dict(self) -> dict:
        data = self._meta_dict()
        data["copy_sets"] = [list(s) for s in self.placement.copy_sets]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "PlanReport":
        if data.get("format") != _REPORT_FORMAT:
            raise ValueError("not a serialized PlanReport")
        return cls(
            strategy=data["strategy"],
            placement=Placement(
                tuple(tuple(int(v) for v in s) for s in data["copy_sets"])
            ),
            cost=CostBreakdown(**data["cost"]),
            wall_time_s=float(data["wall_time_s"]),
            config=PlanConfig.from_dict(data["config"]),
            num_nodes=int(data["num_nodes"]),
            num_objects=int(data["num_objects"]),
            extras=dict(data["extras"]),
        )

    def save(self, path) -> None:
        """Write to ``*.json`` or ``*.npz`` (by suffix); both round-trip
        exactly (``PlanReport.load(p) == self``)."""
        path = Path(path)
        suffix = _artifact_suffix(path)
        if suffix == ".json":
            path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
            return
        nodes, offsets = placement_to_arrays(self.placement)
        np.savez_compressed(
            path,
            meta=np.str_(json.dumps(self._meta_dict())),
            copy_nodes=nodes,
            copy_offsets=offsets,
        )

    @classmethod
    def load(cls, path) -> "PlanReport":
        path = Path(path)
        if _artifact_suffix(path) == ".json":
            return cls.from_dict(json.loads(path.read_text()))
        with open_archive(path) as archive:
            data = json.loads(str(archive["meta"]))
            if data.get("format") != _REPORT_FORMAT:
                raise ValueError(f"{path} is not a serialized PlanReport")
            data["copy_sets"] = placement_from_arrays(
                archive["copy_nodes"], archive["copy_offsets"]
            ).copy_sets
            return cls.from_dict(data)


def compare_table(reports: Sequence[PlanReport]) -> str:
    """The bake-off table: one row per strategy, best total first kept in
    caller order (callers sort if they want a ranking)."""
    # deferred: repro.analysis pulls in the experiment runners, which use
    # the registry, which imports this module
    from .analysis.tables import format_table

    rows = [
        [
            r.strategy,
            r.placement.replication_degree(),
            r.cost.storage,
            r.cost.read,
            r.cost.update,
            r.cost.total,
            r.wall_time_s,
        ]
        for r in reports
    ]
    return format_table(
        ("strategy", "mean copies", "storage", "read", "update", "total",
         "time (s)"),
        rows,
    )


class Planner:
    """Bind one :class:`~repro.config.PlanConfig` to the strategy registry.

    ``plan()`` runs one strategy, ``compare()`` runs many; both accept a
    :class:`~repro.core.instance.DataManagementInstance` or a
    :class:`~repro.workloads.scenarios.Scenario` and return
    :class:`PlanReport` artifacts carrying the config as provenance.
    """

    def __init__(self, config: PlanConfig | None = None) -> None:
        self.config = PlanConfig() if config is None else config

    # ------------------------------------------------------------------
    def resolve_instance(self, problem) -> DataManagementInstance:
        """Apply the config's ``backend`` choice to a problem declaration.

        Scenarios still carry their graph, so any backend can be built;
        a bare instance can only be densified (``LazyMetric.as_dense``)
        -- requesting ``lazy`` for a dense-metric instance raises, since
        the adjacency that backend needs is gone.
        """
        instance = getattr(problem, "instance", problem)
        if not isinstance(instance, DataManagementInstance):
            raise TypeError(
                "plan() needs a DataManagementInstance or a Scenario, got "
                f"{type(problem).__name__}"
            )
        backend = self.config.backend
        if backend == "auto":
            return instance
        target = Metric if backend == "dense" else LazyMetric
        if isinstance(instance.metric, target):
            return instance
        graph = getattr(problem, "graph", None)
        if graph is not None:
            metric = (
                Metric.from_graph(graph) if backend == "dense"
                else LazyMetric.from_graph(graph, cache_rows=self.config.cache_rows)
            )
        elif backend == "dense" and isinstance(instance.metric, LazyMetric):
            metric = instance.metric.as_dense()
        else:
            raise ValueError(
                f"cannot rebuild a {backend!r} backend from a bare instance "
                f"with a {type(instance.metric).__name__} metric; pass the "
                "Scenario (its graph is needed) or backend='auto'"
            )
        return DataManagementInstance(
            metric,
            instance.storage_costs,
            instance.read_freq,
            instance.write_freq,
            object_names=instance.object_names,
            object_sizes=instance.object_sizes,
        )

    # ------------------------------------------------------------------
    def plan(self, problem, strategy: str = "krw") -> PlanReport:
        """Run one registered strategy; returns its report."""
        from .registry import get_strategy

        instance = self.resolve_instance(problem)
        return get_strategy(strategy).plan(instance, self.config)

    def compare(
        self, problem, strategies: Sequence[str] | None = None
    ) -> list[PlanReport]:
        """Run several strategies (default: every registered one) on the
        same resolved instance; reports come back in request order."""
        from .registry import available_strategies, get_strategy

        names = list(strategies) if strategies is not None else list(
            available_strategies()
        )
        instance = self.resolve_instance(problem)
        return [get_strategy(name).plan(instance, self.config) for name in names]

    # ------------------------------------------------------------------
    def replan(
        self,
        graph,
        workload,
        storage_costs,
        *,
        metric=None,
    ):
        """Epoch-replan a dynamic workload under this planner's config.

        The front door to the dynamic layer: builds the distance backend
        from ``graph`` per the config's ``backend`` knob (``"auto"``:
        dense up to :data:`~repro.graphs.backend.DENSE_MATERIALIZE_LIMIT`
        nodes, lazy beyond; an explicit ``metric`` short-circuits the
        choice) and runs a
        :class:`~repro.simulate.replanner.EpochReplanner` over the
        :class:`~repro.workloads.dynamic.DynamicWorkload` -- the
        config's ``replan_mode`` / ``replan_tolerance`` knobs decide
        whether an epoch with drifted objects is a full catalog re-solve
        or an incremental one over the drifted objects only (an epoch
        in which nothing drifted carries its placement).  Returns the
        :class:`~repro.simulate.replanner.ReplanResult` with per-epoch
        serving bills, migration costs and solve times.

        The workload, the graph and any explicit metric must agree on
        the node count -- a mismatch means the demand matrices index
        nodes that do not exist (or miss nodes that do), so it is a
        :class:`ValueError` here rather than an index error several
        layers down.
        """
        from .simulate.replanner import EpochReplanner

        n_graph = graph.number_of_nodes()
        if workload.num_nodes != n_graph:
            raise ValueError(
                f"workload built for {workload.num_nodes} nodes cannot be "
                f"replanned on a {n_graph}-node graph; regenerate the "
                "workload for this network"
            )
        if metric is not None and metric.n != n_graph:
            raise ValueError(
                f"metric covers {metric.n} nodes but the graph has "
                f"{n_graph}; pass the graph's own distance backend (or "
                "metric=None to build one)"
            )
        if metric is None:
            backend = self.config.backend
            if backend == "auto":
                backend = (
                    "dense"
                    if graph.number_of_nodes() <= DENSE_MATERIALIZE_LIMIT
                    else "lazy"
                )
            metric = (
                Metric.from_graph(graph) if backend == "dense"
                else LazyMetric.from_graph(graph, cache_rows=self.config.cache_rows)
            )
        replanner = EpochReplanner(graph, metric, storage_costs, config=self.config)
        return replanner.run(workload)

    # ------------------------------------------------------------------
    def serve(
        self,
        graph,
        storage_costs,
        num_objects: int,
        *,
        metric=None,
        checkpoint_path=None,
        keep_history: bool = False,
    ):
        """A live :class:`~repro.serve.PlacementDaemon` under this
        planner's config -- the serving counterpart of :meth:`replan`.

        Builds the distance backend from ``graph`` with the same
        ``backend`` resolution as :meth:`replan` and hands it, the
        graph and the config to the daemon; the caller owns the
        returned daemon (it is a context manager -- ``with
        planner.serve(...) as daemon:``).
        """
        from .serve import PlacementDaemon

        n_graph = graph.number_of_nodes()
        if metric is not None and metric.n != n_graph:
            raise ValueError(
                f"metric covers {metric.n} nodes but the graph has "
                f"{n_graph}; pass the graph's own distance backend (or "
                "metric=None to build one)"
            )
        if metric is None:
            backend = self.config.backend
            if backend == "auto":
                backend = (
                    "dense" if n_graph <= DENSE_MATERIALIZE_LIMIT else "lazy"
                )
            metric = (
                Metric.from_graph(graph) if backend == "dense"
                else LazyMetric.from_graph(graph, cache_rows=self.config.cache_rows)
            )
        return PlacementDaemon(
            storage_costs,
            num_objects,
            metric=metric,
            graph=graph,
            config=self.config,
            checkpoint_path=checkpoint_path,
            keep_history=keep_history,
        )
