"""Pluggable cost accounting: every bill in the package through one seam.

The paper's objective -- reads + writes + storage on a metric -- used to
be hard-coded in four places (the closed-form kernels of
:mod:`repro.core.costs`, both replay paths of
:class:`~repro.simulate.simulator.NetworkSimulator`, the replanner's
migration diff and the serving daemon's epoch bill).  This module pulls
that accounting behind one protocol so alternative billing scenarios
land as plug-ins instead of forks:

* a *cost model* is anything with a ``name`` and three bill methods
  (:class:`CostModel`), registered under a stable string with
  :func:`register_cost_model` and selected by
  :attr:`repro.config.PlanConfig.cost_model` / ``--cost-model``;
* ``bill_placement`` charges a placement in closed form against the
  instance's frequency matrices (what strategies and the metric-only
  daemon bill);
* ``bill_requests`` charges one billing period's grouped request counts
  (what the simulator's vectorized replay bills);
* ``bill_migration`` charges a whole placement transition (what the
  epoch replanner and the serving daemon both pay per epoch).

Built-in models:

``krw`` (the default)
    The paper's accounting, *bit-identical* to the pre-seam inline code:
    ``bill_placement`` is :func:`repro.core.costs.placement_cost`,
    ``bill_requests`` replicates the vectorized replay's accrual order
    exactly (storage per copy, then per demand-bearing object: reads at
    the nearest-copy distance into ``read``, write attach distances plus
    per-write copy-MST multicasts into ``update``), and
    ``bill_migration`` is the batched nearest-old-copy transfer diff.
    Property-tested equal to the legacy accounting on dense and lazy
    backends.

``admission``
    Per-timeslot admission-controlled accounting (the
    ``admittedNumOfQueriesPerTS`` decomposition of the
    sample-replication exemplar): each billing period splits into
    ``slots`` timeslots, reads are admitted cheapest-first against a
    per-slot capacity of ``capacity_per_copy * |copies|`` (rejected
    reads pay nothing and are reported), writes are always admitted.
    ``detail`` records the accepted/rejected split and a per-slot
    storage/read/update decomposition.  Uncapped
    (``capacity_per_copy=None``) it bills the ``krw`` total.

``broadcast-write``
    Multicast write propagation (the data-broadcast PTAS direction):
    instead of every write re-paying the copy-set MST, each object with
    at least one write pays **one** propagation charge of
    ``mst_cost(S)`` per billing period -- writers still pay their
    attach distance.  Never exceeds the ``krw`` bill and equals it on
    read-only demand.

Request-convention caveat: ``bill_requests`` (and the request-replay
``bill_placement`` of the two scenario models) follows the simulator's
per-object fee convention -- object sizes do not scale the bill, and the
split books write attach distances as update traffic.  The analytic
``krw`` ``bill_placement`` keeps the paper's restricted split (attach
booked as read) and size scaling; only the totals coincide (Experiment
E11 / E20).
"""

from __future__ import annotations

from typing import NamedTuple, Protocol, runtime_checkable

import numpy as np

from .core.costs import CostBreakdown, placement_cost
from .core.instance import DataManagementInstance
from .core.placement import Placement
from .graphs.mst import mst_cost

__all__ = [
    "MigrationBill",
    "CostModel",
    "register_cost_model",
    "get_cost_model",
    "available_cost_models",
    "KRWCostModel",
    "AdmissionCostModel",
    "BroadcastWriteCostModel",
]


class MigrationBill(NamedTuple):
    """One placement transition's bill: transfer cost + copy churn.

    A named tuple, so ``cost, added, dropped = ...`` unpacking works.
    """

    cost: float
    added: int
    dropped: int


@runtime_checkable
class CostModel(Protocol):
    """What every accounting consumer requires of a registered model.

    ``routable`` declares whether the model's traffic charges are
    realized by routing messages hop-by-hop on the actual graph (true
    for ``krw``: cheapest paths realize metric distances, MST edges
    embed as cheapest paths).  Non-routable models are closed-form only:
    the simulator refuses ``track_edge_load`` / ``"kmb"`` for them.
    """

    name: str
    routable: bool

    def bill_placement(
        self,
        instance: DataManagementInstance,
        placement: Placement,
        *,
        policy: str = "mst",
    ) -> CostBreakdown: ...

    def bill_requests(
        self,
        instance: DataManagementInstance,
        placement: Placement,
        reads: np.ndarray,
        writes: np.ndarray,
        *,
        objects=None,
    ) -> CostBreakdown: ...

    def bill_storage(
        self, instance: DataManagementInstance, placement: Placement
    ) -> float: ...

    def bill_migration(self, metric, prev, new) -> MigrationBill: ...


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------
_COST_MODELS: dict[str, CostModel] = {}


def register_cost_model(obj=None, *, name: str | None = None, override: bool = False):
    """Register a cost model class (instantiated) or instance.

    Usable bare (``@register_cost_model``, taking the model's ``name``
    attribute) or parameterized
    (``@register_cost_model(name="mine", override=True)``).  Registering
    a taken name without ``override=True`` is an error -- two plug-ins
    silently fighting over one name would make configs ambiguous.
    """
    if obj is None:
        def deco(inner):
            return register_cost_model(inner, name=name, override=override)
        return deco

    model: CostModel = obj() if isinstance(obj, type) else obj
    key = name or getattr(model, "name", "")
    if not key:
        raise ValueError("a cost model needs a non-empty name")
    for method in ("bill_placement", "bill_requests", "bill_migration"):
        if not callable(getattr(model, method, None)):
            raise TypeError(f"cost model {key!r} has no {method}() method")
    if key in _COST_MODELS and not override:
        raise ValueError(
            f"cost model name {key!r} is already registered; pass "
            "override=True to replace it"
        )
    model.name = key
    _COST_MODELS[key] = model
    return obj


def get_cost_model(name: str) -> CostModel:
    try:
        return _COST_MODELS[name]
    except KeyError:
        raise KeyError(
            f"unknown cost model {name!r}; registered: "
            f"{', '.join(available_cost_models())}"
        ) from None


def available_cost_models() -> tuple[str, ...]:
    """Registered names, in registration order (built-ins first)."""
    return tuple(_COST_MODELS)


# ----------------------------------------------------------------------
# built-in models
# ----------------------------------------------------------------------
@register_cost_model
class KRWCostModel:
    """The paper's accounting, bit-identical to the pre-seam inline code.

    Every method reproduces the exact numpy operations *in the exact
    accumulation order* of the code it replaced, so the default model's
    bills are deterministically bit-identical to the legacy ones (the
    committed E15/E16/E19 artifacts pass the gate unchanged; the
    property suite asserts equality on dense and lazy backends).
    """

    name = "krw"
    routable = True

    def bill_placement(
        self,
        instance: DataManagementInstance,
        placement: Placement,
        *,
        policy: str = "mst",
    ) -> CostBreakdown:
        """Closed-form catalog bill: the paper's restricted split, object
        sizes scaling each object's contribution
        (:func:`repro.core.costs.placement_cost` verbatim)."""
        return placement_cost(instance, placement, policy=policy)

    def bill_storage(
        self, instance: DataManagementInstance, placement: Placement
    ) -> float:
        """Each copy bought once for the billing period -- the
        simulator's per-copy accrual order, verbatim."""
        storage = 0.0
        cs = instance.storage_costs
        for obj in range(instance.num_objects):
            for v in placement.copies(obj):
                storage += float(cs[v])
        return storage

    def bill_requests(
        self,
        instance: DataManagementInstance,
        placement: Placement,
        reads: np.ndarray,
        writes: np.ndarray,
        *,
        objects=None,
    ) -> CostBreakdown:
        """One billing period's grouped request counts, billed like the
        vectorized replay: reads (``read``) and write attach messages
        (``update``) pay the batched nearest-copy distance times their
        count; each write additionally pays the copy-set MST
        (``update``).  ``objects`` restricts the loop (the simulator
        passes the log's object set); by default every demand-bearing
        object is billed.  ``detail["messages"]`` counts routed
        messages (local serves ship none)."""
        metric = instance.metric
        if objects is None:
            demand = np.asarray(reads).sum(axis=1) + np.asarray(writes).sum(axis=1)
            objects = np.flatnonzero(demand > 0)
        storage = self.bill_storage(instance, placement)
        read_cost = 0.0
        update_cost = 0.0
        messages = 0
        node_ids = np.arange(instance.num_nodes)
        for obj in objects:
            obj = int(obj)
            r = reads[obj]
            w = writes[obj]
            copies = placement.copies(obj)
            nearest, dist = metric.nearest_in_set(copies)
            read_cost += float(r @ dist)
            update_cost += float(w @ dist)
            num_writes = int(w.sum())
            if num_writes and len(copies) > 1:
                update_cost += num_writes * mst_cost(metric, copies)
                # each MST edge is one multicast message per write
                messages += num_writes * (len(copies) - 1)
            # reads/attaches served by a local copy ship no message
            remote = nearest != node_ids
            messages += int(r[remote].sum() + w[remote].sum())
        return CostBreakdown(
            storage, read_cost, update_cost, detail={"messages": messages}
        )

    def bill_migration(self, metric, prev, new) -> MigrationBill:
        """Batched migration bill for a whole placement transition.

        Gained copies are grouped by their object's previous copy set;
        each distinct group is billed with one vectorized
        ``dist_to_set`` query (on a lazy backend: one multi-source
        Dijkstra) instead of one backend query per object.  Objects
        whose copy sets did not move -- the common case under
        incremental replanning -- are skipped outright.  Dropping a
        copy is free, like releasing rented storage.
        """
        gained_by_prev: dict[tuple[int, ...], list[int]] = {}
        added = dropped = 0
        for old, nxt in zip(prev, new):
            if old == nxt:
                continue
            old_set = set(old)
            gained = [v for v in nxt if v not in old_set]
            dropped += len(old_set.difference(nxt))
            if gained:
                added += len(gained)
                gained_by_prev.setdefault(old, []).extend(gained)
        cost = 0.0
        for old, nodes in gained_by_prev.items():
            dist = metric.dist_to_set(old)
            cost += float(dist[np.asarray(nodes, dtype=int)].sum())
        return MigrationBill(cost, added, dropped)


class AdmissionCostModel(KRWCostModel):
    """Per-timeslot capacity-admitted accounting.

    Each billing period is split into ``slots`` equal timeslots (demand
    splits evenly, the stationary-period convention).  Per slot and
    object, the copy set serves at most ``capacity_per_copy * |copies|``
    reads; reads are admitted cheapest-first (sorted by distance to the
    nearest copy, fractional at the capacity boundary) and rejected
    reads pay nothing.  Writes are always admitted -- consistency
    updates cannot be load-shed -- and are billed ``krw``-style.

    ``detail`` records ``accepted`` / ``rejected`` totals and a
    ``per_slot`` list with each slot's storage/read/update split and its
    own accepted/rejected counts (the per-TS cost lists of the
    sample-replication exemplar).  With ``capacity_per_copy=None`` every
    read is admitted and the total equals the ``krw`` request bill.
    """

    name = "admission"
    routable = False

    def __init__(
        self,
        *,
        slots: int = 4,
        capacity_per_copy: float | None = None,
        name: str | None = None,
    ) -> None:
        if int(slots) < 1:
            raise ValueError("slots must be >= 1")
        if capacity_per_copy is not None and float(capacity_per_copy) < 0:
            raise ValueError("capacity_per_copy must be non-negative (or None)")
        self.slots = int(slots)
        self.capacity_per_copy = (
            None if capacity_per_copy is None else float(capacity_per_copy)
        )
        if name is not None:
            self.name = name

    def bill_placement(
        self,
        instance: DataManagementInstance,
        placement: Placement,
        *,
        policy: str = "mst",
    ) -> CostBreakdown:
        """The instance's frequency matrices billed as one admission-
        controlled period (request convention -- see the module
        docstring)."""
        if policy != "mst":
            raise ValueError(
                f"cost model {self.name!r} only supports the 'mst' cost "
                f"policy, not {policy!r}"
            )
        placement.validate(instance)
        return self.bill_requests(
            instance, placement, instance.read_freq, instance.write_freq
        )

    def bill_requests(
        self,
        instance: DataManagementInstance,
        placement: Placement,
        reads: np.ndarray,
        writes: np.ndarray,
        *,
        objects=None,
    ) -> CostBreakdown:
        metric = instance.metric
        slots = self.slots
        if objects is None:
            demand = np.asarray(reads).sum(axis=1) + np.asarray(writes).sum(axis=1)
            objects = np.flatnonzero(demand > 0)
        storage = self.bill_storage(instance, placement)
        read_cost = 0.0
        update_cost = 0.0
        accepted = 0.0
        rejected = 0.0
        messages = 0
        slot_read = [0.0] * slots
        slot_accepted = [0.0] * slots
        slot_rejected = [0.0] * slots
        for obj in objects:
            obj = int(obj)
            r = np.asarray(reads[obj], dtype=float)
            w = writes[obj]
            copies = placement.copies(obj)
            _, dist = metric.nearest_in_set(copies)
            # writes: always admitted, krw-style (attach + per-write MST)
            update_cost += float(w @ dist)
            num_writes = int(w.sum())
            if num_writes and len(copies) > 1:
                update_cost += num_writes * mst_cost(metric, copies)
                messages += num_writes * (len(copies) - 1)
            # reads: even slot split, admitted cheapest-first vs capacity
            per_slot = r / slots
            slot_demand = float(per_slot.sum())
            if slot_demand == 0.0:
                continue
            cap = (
                None if self.capacity_per_copy is None
                else self.capacity_per_copy * len(copies)
            )
            if cap is None or slot_demand <= cap:
                cost_s = float(per_slot @ dist)
                acc_s, rej_s = slot_demand, 0.0
            else:
                order = np.argsort(dist, kind="stable")
                counts = per_slot[order]
                cum = np.cumsum(counts)
                take = np.clip(cap - (cum - counts), 0.0, counts)
                cost_s = float(take @ dist[order])
                acc_s, rej_s = float(cap), slot_demand - float(cap)
            # the slots are identical under the even split: bill one,
            # multiply -- the per-slot lists still expose the split
            read_cost += slots * cost_s
            accepted += slots * acc_s
            rejected += slots * rej_s
            for s in range(slots):
                slot_read[s] += cost_s
                slot_accepted[s] += acc_s
                slot_rejected[s] += rej_s
        detail = {
            "slots": slots,
            "capacity_per_copy": self.capacity_per_copy,
            "accepted": accepted,
            "rejected": rejected,
            "messages": messages,
            "per_slot": [
                {
                    "slot": s,
                    "storage": storage / slots,
                    "read": slot_read[s],
                    "update": update_cost / slots,
                    "accepted": slot_accepted[s],
                    "rejected": slot_rejected[s],
                }
                for s in range(slots)
            ],
        }
        return CostBreakdown(storage, read_cost, update_cost, detail=detail)


class BroadcastWriteCostModel(KRWCostModel):
    """Multicast write propagation: one copy-set MST charge per period.

    Under ``krw`` every write re-pays the copy-set MST -- the restricted
    per-write multicast.  A broadcast medium propagates one update wave
    to all copies, so here an object with at least one write pays
    ``mst_cost(S)`` **once** per billing period; writers still pay their
    attach distance to the nearest copy.  The bill therefore never
    exceeds ``krw``'s and equals it exactly on read-only demand.
    ``detail["propagations"]`` counts the per-object multicast charges.
    """

    name = "broadcast-write"
    routable = False

    def bill_placement(
        self,
        instance: DataManagementInstance,
        placement: Placement,
        *,
        policy: str = "mst",
    ) -> CostBreakdown:
        """Closed-form analogue of the analytic ``krw`` bill: identical
        storage and restricted read terms (so read-only instances bill
        the ``krw`` amount bit-for-bit), update replaced by the single
        per-period propagation charge, object sizes scaling as usual."""
        if policy != "mst":
            raise ValueError(
                f"cost model {self.name!r} only supports the 'mst' cost "
                f"policy, not {policy!r}"
            )
        placement.validate(instance)
        metric = instance.metric
        total = CostBreakdown(0.0, 0.0, 0.0)
        for obj in range(instance.num_objects):
            nodes = placement.copies(obj)
            d_to_set = metric.dist_to_set(nodes)
            storage = float(instance.storage_costs[np.asarray(nodes)].sum())
            read = float(
                (instance.read_freq[obj] + instance.write_freq[obj]) @ d_to_set
            )
            update = (
                mst_cost(metric, nodes)
                if instance.total_writes(obj) > 0 else 0.0
            )
            total = total + CostBreakdown(storage, read, update).scaled(
                instance.object_size(obj)
            )
        return total

    def bill_requests(
        self,
        instance: DataManagementInstance,
        placement: Placement,
        reads: np.ndarray,
        writes: np.ndarray,
        *,
        objects=None,
    ) -> CostBreakdown:
        metric = instance.metric
        if objects is None:
            demand = np.asarray(reads).sum(axis=1) + np.asarray(writes).sum(axis=1)
            objects = np.flatnonzero(demand > 0)
        storage = self.bill_storage(instance, placement)
        read_cost = 0.0
        update_cost = 0.0
        messages = 0
        propagations = 0
        node_ids = np.arange(instance.num_nodes)
        for obj in objects:
            obj = int(obj)
            r = reads[obj]
            w = writes[obj]
            copies = placement.copies(obj)
            nearest, dist = metric.nearest_in_set(copies)
            read_cost += float(r @ dist)
            update_cost += float(w @ dist)
            num_writes = int(w.sum())
            if num_writes and len(copies) > 1:
                # ONE propagation wave per period, not one per write
                update_cost += mst_cost(metric, copies)
                messages += len(copies) - 1
                propagations += 1
            remote = nearest != node_ids
            messages += int(r[remote].sum() + w[remote].sum())
        return CostBreakdown(
            storage, read_cost, update_cost,
            detail={"messages": messages, "propagations": propagations},
        )


register_cost_model(AdmissionCostModel())
register_cost_model(BroadcastWriteCostModel())
