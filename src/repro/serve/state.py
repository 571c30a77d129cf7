"""The immutable serving snapshot the daemon answers lookups from.

One :class:`ServingState` is everything a lookup needs -- the copy sets,
the generation that produced them, that generation's migration bill,
the cumulative bill so far and every object's nearest-replica table --
built in full before it is published.  The daemon swaps a fresh state in
with a single attribute assignment (atomic under the GIL), so a reader
that grabbed the reference once can never observe a half-published
placement, and nothing in a published state ever changes again.

The nearest-replica tables are built in the constructor, which the
daemon runs on its replan worker before the publish.  Each distinct
copy set costs one ``nearest_in_set`` backend query: per node, the
nearest copy and the distance to it, as two read-only length-``n``
arrays (16 bytes per node).  Objects with equal copy sets share one
pair, and a state built with ``previous=`` reuses the previous
generation's pair for every copy set it already had, so a publish
queries the backend only for the copy sets the epoch changed.  The
tables take at most ``m * n * 16`` bytes.

A lookup therefore checks ``obj`` and ``node`` and indexes two arrays:
no backend call, no numpy reduction, no lock.  That is the point of
building them ahead: a numpy call inside a lookup hands the interpreter
lock to the replan thread, and getting it back can take the whole 5 ms
switch interval, so lookups that computed their object's arrays on
first use set the daemon's latency tail.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.placement import Placement

__all__ = ["ServingState", "LookupResult"]


@dataclass(frozen=True)
class LookupResult:
    """One answered lookup plus the provenance of the answer.

    ``generation``/``epoch``/``migration_cost`` identify the publish the
    answer came from -- the response metadata that lets a client (and
    the consistency test) pin every answer to exactly one publish.
    """

    obj: int
    node: int
    copies: tuple[int, ...]
    replica: int
    distance: float
    generation: int
    epoch: int
    migration_cost: float

    def to_dict(self) -> dict:
        return {
            "obj": self.obj,
            "node": self.node,
            "copies": list(self.copies),
            "replica": self.replica,
            "distance": self.distance,
            "generation": self.generation,
            "epoch": self.epoch,
            "migration_cost": self.migration_cost,
        }


class ServingState:
    """Immutable placement snapshot with prebuilt nearest-replica tables.

    Parameters
    ----------
    metric:
        The distance backend the tables are built from.
    copy_sets:
        The published placement, one sorted node tuple per object.
    generation:
        Monotonic publish counter (0 = the cold zero-knowledge state).
    epoch:
        Number of sealed epochs folded into this state.
    migration_cost:
        The migration bill of the publish that produced this state.
    cumulative_cost:
        Serving + migration billed across all published epochs so far.
    previous:
        The state this one replaces.  Its tables are reused for every
        copy set it already had (same metric only); the new state keeps
        no reference to it.

    ``tables_built`` is the number of distinct copy sets whose table
    this state computed rather than reused.
    """

    __slots__ = (
        "metric", "copy_sets", "generation", "epoch", "migration_cost",
        "cumulative_cost", "num_nodes", "tables_built", "_tables",
    )

    def __init__(
        self,
        *,
        metric,
        copy_sets: tuple[tuple[int, ...], ...],
        generation: int,
        epoch: int,
        migration_cost: float = 0.0,
        cumulative_cost: float = 0.0,
        previous: ServingState | None = None,
    ) -> None:
        self.metric = metric
        self.copy_sets = tuple(tuple(int(v) for v in s) for s in copy_sets)
        self.generation = int(generation)
        self.epoch = int(epoch)
        self.migration_cost = float(migration_cost)
        self.cumulative_cost = float(cumulative_cost)
        self.num_nodes = int(metric.n)
        known: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}
        if previous is not None and previous.metric is metric:
            known.update(zip(previous.copy_sets, previous._tables))
        tables = []
        built = 0
        for copies in self.copy_sets:
            table = known.get(copies)
            if table is None:
                sources, dists = metric.nearest_in_set(copies)
                sources.setflags(write=False)
                dists.setflags(write=False)
                table = known[copies] = (sources, dists)
                built += 1
            tables.append(table)
        self._tables = tuple(tables)
        self.tables_built = built

    # ------------------------------------------------------------------
    @property
    def num_objects(self) -> int:
        return len(self.copy_sets)

    def as_placement(self) -> Placement:
        return Placement(self.copy_sets)

    # ------------------------------------------------------------------
    def _check_obj(self, obj: int) -> int:
        obj = int(obj)
        if not 0 <= obj < len(self.copy_sets):
            raise ValueError(
                f"unknown object {obj} (catalog has {len(self.copy_sets)})"
            )
        return obj

    def _check(self, obj: int, node: int) -> tuple[int, int]:
        obj = self._check_obj(obj)
        node = int(node)
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"unknown node {node} (network has {self.num_nodes})")
        return obj, node

    # ------------------------------------------------------------------
    def placement(self, obj: int) -> tuple[int, ...]:
        """The copy set of one object in this generation."""
        return self.copy_sets[self._check_obj(obj)]

    def nearest_replica(self, obj: int, node: int) -> tuple[int, float]:
        """``(replica node, distance)`` for a request from ``node``."""
        obj, node = self._check(obj, node)
        sources, dists = self._tables[obj]
        return sources.item(node), dists.item(node)

    def lookup(self, obj: int, node: int) -> LookupResult:
        """A full lookup answer with publish provenance attached."""
        obj, node = self._check(obj, node)
        sources, dists = self._tables[obj]
        return LookupResult(
            obj=obj,
            node=node,
            copies=self.copy_sets[obj],
            replica=sources.item(node),
            distance=dists.item(node),
            generation=self.generation,
            epoch=self.epoch,
            migration_cost=self.migration_cost,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ServingState(generation={self.generation}, epoch={self.epoch}, "
            f"objects={len(self.copy_sets)})"
        )
