"""Uncapacitated facility location (UFL): the phase-1 substrate.

Phase 1 of the paper's approximation algorithm (Section 2.2) solves *the
related facility location problem*: the data management instance with every
write recast as a read, i.e. facilities = nodes with opening cost ``cs``,
clients = nodes with demand ``fr + fw``, connection prices = the metric
``ct``.  Lemma 9 shows the approximation factor ``f`` of whatever UFL
algorithm is plugged in carries through to the storage-cost bound
``f * (C^OPTW_s + C^OPTW_r)``.

The problem container is deliberately more general than the phase-1 use
(facility and client sets may differ), so the module doubles as a
standalone UFL library; solvers live in sibling modules.

Scaling note: the solvers operate on a dense ``(nf, nc)`` connection
matrix, which is the right kernel shape for numpy but quadratic when every
node is a candidate facility.  On large networks
:func:`related_facility_problem` therefore restricts the candidate set to
a *hot set* (:func:`facility_candidate_set`: high-demand nodes, the
cheapest storage node, and a farthest-point sample for coverage) and the
problem carries a ``facility_nodes`` map from solver indices back to node
ids.  The restriction is an engineering trade -- Lemma 9's factor formally
assumes unrestricted facilities -- but phases 2/3 of the approximation
still run over *all* nodes, so every node can still acquire a copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.instance import DataManagementInstance

__all__ = [
    "FacilityLocationProblem",
    "related_facility_problem",
    "facility_candidate_set",
    "FACILITY_AUTO_THRESHOLD",
    "DEFAULT_FACILITY_CANDIDATES",
]

#: ``related_facility_problem`` keeps every node as a candidate facility
#: up to this instance size; above it the candidate set is capped.
FACILITY_AUTO_THRESHOLD = 1024

#: Candidate-set size used when the auto threshold kicks in.
DEFAULT_FACILITY_CANDIDATES = 256


@dataclass(frozen=True)
class FacilityLocationProblem:
    """Metric UFL with weighted clients.

    Attributes
    ----------
    open_costs:
        Shape ``(nf,)``: cost of opening each facility.
    demands:
        Shape ``(nc,)``: client weights (zero-demand clients impose no
        serving requirement but are legal).
    dist:
        Shape ``(nf, nc)``: connection price facility x client.
    facility_nodes:
        Optional shape ``(nf,)`` map from facility index to an external
        node id (set when facilities are a restricted candidate subset of
        a network's nodes).  ``None`` means facility ``i`` *is* node ``i``.
    client_nodes:
        Optional shape ``(nc,)`` map from client index to an external node
        id (set when clients are restricted to the nodes that actually
        issue requests).  ``None`` means client ``j`` *is* node ``j``.
    """

    open_costs: np.ndarray
    demands: np.ndarray
    dist: np.ndarray
    facility_nodes: np.ndarray | None = field(default=None)
    client_nodes: np.ndarray | None = field(default=None)

    def __post_init__(self) -> None:
        f = np.asarray(self.open_costs, dtype=float)
        d = np.asarray(self.demands, dtype=float)
        c = np.asarray(self.dist, dtype=float)
        object.__setattr__(self, "open_costs", f)
        object.__setattr__(self, "demands", d)
        object.__setattr__(self, "dist", c)
        if c.shape != (f.shape[0], d.shape[0]):
            raise ValueError(
                f"dist must have shape ({f.shape[0]}, {d.shape[0]}), got {c.shape}"
            )
        if np.any(f < 0) or np.any(d < 0) or np.any(c < 0):
            raise ValueError("costs, demands and distances must be non-negative")
        if self.facility_nodes is not None:
            fn = np.asarray(self.facility_nodes, dtype=int)
            object.__setattr__(self, "facility_nodes", fn)
            if fn.shape != (f.shape[0],):
                raise ValueError(
                    f"facility_nodes must have shape ({f.shape[0]},), got {fn.shape}"
                )
        if self.client_nodes is not None:
            cn = np.asarray(self.client_nodes, dtype=int)
            object.__setattr__(self, "client_nodes", cn)
            if cn.shape != (d.shape[0],):
                raise ValueError(
                    f"client_nodes must have shape ({d.shape[0]},), got {cn.shape}"
                )

    # ------------------------------------------------------------------
    @property
    def num_facilities(self) -> int:
        return self.open_costs.shape[0]

    @property
    def num_clients(self) -> int:
        return self.demands.shape[0]

    def connection_cost(self, open_set) -> float:
        """Demand-weighted nearest-open-facility cost."""
        idx = np.asarray(sorted(set(int(i) for i in open_set)), dtype=int)
        if idx.size == 0:
            raise ValueError("open set must be non-empty")
        return float(self.demands @ self.dist[idx].min(axis=0))

    def facility_cost(self, open_set) -> float:
        idx = np.asarray(sorted(set(int(i) for i in open_set)), dtype=int)
        return float(self.open_costs[idx].sum())

    def cost(self, open_set) -> float:
        """Total UFL objective for a set of open facilities."""
        return self.facility_cost(open_set) + self.connection_cost(open_set)

    def assignments(self, open_set) -> np.ndarray:
        """Nearest open facility per client (smallest-index tie-break)."""
        idx = np.asarray(sorted(set(int(i) for i in open_set)), dtype=int)
        if idx.size == 0:
            raise ValueError("open set must be non-empty")
        sub = self.dist[idx]
        return idx[sub.argmin(axis=0)]

    def cheapest_facility(self) -> int:
        """Deterministic fallback for degenerate (zero-demand) inputs."""
        return int(np.argmin(self.open_costs))

    def to_nodes(self, open_set) -> list[int]:
        """Map solver facility indices back to node ids, sorted."""
        idx = sorted(set(int(i) for i in open_set))
        if self.facility_nodes is None:
            return idx
        return sorted(int(self.facility_nodes[i]) for i in idx)


def facility_candidate_set(
    metric,
    storage_costs: np.ndarray,
    demand: np.ndarray,
    k: int,
) -> np.ndarray:
    """A deterministic hot set of ``k`` candidate facility nodes.

    Composition (all ties broken towards the smallest node index):

    * the cheapest-storage node -- the zero-demand fallback must stay
      representable;
    * the top ``k // 2`` nodes by demand weight -- where opening a
      facility pays off directly;
    * a farthest-point (k-center style) fill to ``k`` nodes -- so sparse
      regions keep a nearby candidate and no client is left stranded far
      from every facility.

    Works against any distance backend: the k-center fill needs one
    distance row per added node, nothing quadratic.
    """
    n = metric.n
    storage_costs = np.asarray(storage_costs, dtype=float)
    demand = np.asarray(demand, dtype=float)
    if k >= n:
        return np.arange(n)
    if k < 1:
        raise ValueError("k must be >= 1")

    chosen: list[int] = [int(np.argmin(storage_costs))]
    chosen_set = set(chosen)
    # stable demand ranking: weight descending, index ascending
    by_demand = np.lexsort((np.arange(n), -demand))
    for v in by_demand[: k // 2]:
        v = int(v)
        if demand[v] <= 0 or len(chosen) >= k:
            break
        if v not in chosen_set:
            chosen.append(v)
            chosen_set.add(v)

    dts = np.min(np.asarray(metric.rows(chosen)), axis=0)
    while len(chosen) < k:
        v = int(np.argmax(dts))  # first maximiser -> deterministic
        if v in chosen_set:  # pragma: no cover - only if graph degenerate
            break
        chosen.append(v)
        chosen_set.add(v)
        np.minimum(dts, np.asarray(metric.row(v)), out=dts)
    return np.asarray(sorted(chosen), dtype=int)


def related_facility_problem(
    instance: DataManagementInstance,
    obj: int,
    *,
    max_facilities: int | None = None,
    drop_zero_clients: bool = False,
) -> FacilityLocationProblem:
    """The phase-1 UFL instance: writes recast as reads, updates ignored.

    ``max_facilities`` caps the candidate facility set (``None`` = every
    node up to :data:`FACILITY_AUTO_THRESHOLD`, then
    :data:`DEFAULT_FACILITY_CANDIDATES`).  With a cap in effect the
    returned problem carries ``facility_nodes``; feed solver output
    through :meth:`FacilityLocationProblem.to_nodes`.

    ``drop_zero_clients`` restricts the client set to the nodes with
    positive demand (the object's *demand support*), carried in
    ``client_nodes``.  Zero-demand clients contribute exactly nothing to
    any UFL objective, connection cost or solver gain, so the restricted
    problem is equivalent -- but its connection matrix has ``nnz`` columns
    instead of ``n``, which is what makes phase 1 affordable across a
    sparse-demand catalog.  The facility candidate set is still derived
    from the full demand vector, so the cap composition is unchanged.
    """
    metric = instance.metric
    n = metric.n
    demand = instance.demand(obj)
    if max_facilities is None:
        max_facilities = (
            n if n <= FACILITY_AUTO_THRESHOLD else DEFAULT_FACILITY_CANDIDATES
        )
    if max_facilities < 1:
        raise ValueError("max_facilities must be >= 1")

    clients: np.ndarray | None = None
    if drop_zero_clients:
        clients = np.flatnonzero(demand > 0)
        # Restrict only when the support is genuinely sparse: slicing the
        # connection matrix copies it, which near-dense demand does not
        # repay (the restriction never changes any objective either way).
        if clients.size == 0 or 2 * clients.size > n:
            clients = None

    if max_facilities >= n:
        # All nodes are candidates; reuse the dense matrix when one exists
        # instead of copying n rows.
        dist = getattr(metric, "dist", None)
        if dist is None:
            dist = np.asarray(metric.rows(np.arange(n)))
        if clients is not None:
            dist = dist[:, clients]
        return FacilityLocationProblem(
            open_costs=instance.storage_costs,
            demands=demand if clients is None else demand[clients],
            dist=dist,
            client_nodes=clients,
        )

    nodes = facility_candidate_set(
        metric, instance.storage_costs, demand, max_facilities
    )
    dist = np.asarray(metric.rows(nodes))
    # Pin the hot set's rows on backends that support it: phases 2/3 and
    # later objects revisit these exact nodes (copy holders come out of
    # the candidate set), and pinned rows survive LRU churn.  When every
    # row is new the pins are views into this block -- no copy; when some
    # nodes are already pinned, only the new rows are pinned, as a
    # compact copy, so the pins never keep this whole block alive.
    precompute = getattr(metric, "precompute", None)
    if precompute is not None:
        precompute(nodes, rows=dist)
    return FacilityLocationProblem(
        open_costs=instance.storage_costs[nodes],
        demands=demand if clients is None else demand[clients],
        dist=dist if clients is None else dist[:, clients],
        facility_nodes=nodes,
        client_nodes=clients,
    )
