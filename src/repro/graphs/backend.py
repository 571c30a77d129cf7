"""Pluggable distance backends: dense and lazy metric-closure oracles.

Every algorithm in this library consumes the metric closure ``ct(u, v)``
of the network through a small query surface -- single distances, distance
rows, nearest-copy vectors -- rather than through the raw ``(n, n)`` matrix.
This module names that surface (:class:`DistanceBackend`) and provides the
scalable implementation (:class:`LazyMetric`) that answers the same queries
from the *sparse adjacency* via on-demand single-source Dijkstra, so the
Section 2 approximation pipeline runs on 10k+ node networks without ever
materializing the ``O(n^2)`` all-pairs matrix.

Backends
--------
:class:`~repro.graphs.metric.Metric`
    The dense closure: precomputes all pairs, answers every query with one
    numpy slice.  Right for ``n`` up to a few thousand, and required by the
    exponential exact baselines (Dreyfus--Wagner, brute force).
:class:`LazyMetric`
    Stores only the CSR adjacency (``O(n + m)``).  Distance rows are
    computed on demand by scipy's compiled Dijkstra -- batched when callers
    ask for blocks -- and kept in a bounded LRU cache; hot rows (facility
    candidates, copy holders) can be pinned with :meth:`LazyMetric.precompute`.
    Set queries (``dist_to_set`` / ``nearest_in_set``) over large target
    sets collapse to a *single* multi-source Dijkstra (``min_only=True``),
    which is how phase 2 of the approximation touches all ``n`` nodes in
    ``O(m log n)`` instead of ``O(n |S|)`` row lookups.

Choosing
--------
``Metric`` and ``LazyMetric`` return identical distances (both run
Dijkstra over the same adjacency); property tests assert parity of
``dist_to_set`` / ``nearest_in_set`` / end-to-end placements.  The dense
backend is faster per query once built; the lazy backend wins whenever the
``8 n^2`` bytes of the closure dominate -- roughly ``n >= 3000`` on
commodity RAM, and strictly necessary at ``n ~ 10^4``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Iterable, Protocol, Sequence, runtime_checkable

import networkx as nx
import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .metric import Metric, graph_to_adjacency

__all__ = [
    "DistanceBackend",
    "LazyMetric",
    "PortalMetric",
    "lazy_metric_from_graph",
    "dense_distance_matrix",
    "DENSE_MATERIALIZE_LIMIT",
    "DEFAULT_CACHE_ROWS",
]

#: Default LRU row-cache capacity of :class:`LazyMetric`; tunable per
#: plan through the ``cache_rows`` knob of :class:`repro.config.PlanConfig`.
DEFAULT_CACHE_ROWS = 128

#: ``dense_distance_matrix`` refuses to materialize closures bigger than
#: this many nodes -- the exact/exponential baselines that need the full
#: matrix are only meaningful far below it anyway.
DENSE_MATERIALIZE_LIMIT = 4096

#: Set queries on at most this many targets go through (cached) rows,
#: preserving the library's smallest-index tie-break exactly; larger sets
#: use one multi-source Dijkstra.
_SMALL_TARGET_SET = 32


@runtime_checkable
class DistanceBackend(Protocol):
    """The distance-oracle surface every placement algorithm consumes.

    Implementations must agree on semantics: distances are the shortest
    path closure of a connected non-negatively weighted graph, symmetric
    with zero diagonal, and ``nearest_in_set`` breaks ties towards the
    smallest node index whenever it can do so without extra work.
    """

    n: int

    def d(self, u: int, v: int) -> float:
        """Distance between two nodes."""
        ...

    def row(self, v: int) -> np.ndarray:
        """Distance row ``d(v, .)`` of shape ``(n,)``."""
        ...

    def rows(self, nodes: Sequence[int]) -> np.ndarray:
        """Distance rows for a node block: shape ``(len(nodes), n)``."""
        ...

    def pairwise(self, nodes: Sequence[int]) -> np.ndarray:
        """Induced distance submatrix, shape ``(k, k)``, in given order."""
        ...

    def dist_to_set(self, targets: Iterable[int]) -> np.ndarray:
        """``d(v, S)`` for every node ``v``."""
        ...

    def nearest_in_set(self, targets: Iterable[int]) -> tuple[np.ndarray, np.ndarray]:
        """Per node: nearest target and distance to it."""
        ...

    def matvec(self, weights: np.ndarray) -> np.ndarray:
        """``out[v] = sum_u d(v, u) * weights[u]`` without storing all rows."""
        ...


class LazyMetric:
    """Shortest-path oracle over a sparse adjacency, no ``n x n`` storage.

    Parameters
    ----------
    adjacency:
        ``(n, n)`` scipy sparse matrix of edge weights (upper or lower
        triangle suffices; treated as undirected).
    cache_rows:
        Capacity of the LRU row cache.  Rows pinned via
        :meth:`precompute` live outside this budget.
    validate:
        Run one Dijkstra from node 0 and require finite distances
        (i.e. a connected graph) at construction time.
    """

    __slots__ = (
        "n",
        "_adj",
        "_cache",
        "_cache_rows",
        "_pinned",
        "_lock",
        "rows_computed",
        "cache_hits",
    )

    def __init__(
        self, adjacency, *, cache_rows: int = DEFAULT_CACHE_ROWS, validate: bool = True
    ) -> None:
        adj = csr_matrix(adjacency)
        if adj.shape[0] != adj.shape[1]:
            raise ValueError(f"adjacency must be square, got {adj.shape}")
        if adj.nnz and adj.data.min() < 0:
            raise ValueError("edge weights must be non-negative")
        if cache_rows < 1:
            raise ValueError("cache_rows must be positive")
        self._adj = adj
        self.n = adj.shape[0]
        self._cache: OrderedDict[int, np.ndarray] = OrderedDict()
        self._cache_rows = int(cache_rows)
        self._pinned: dict[int, np.ndarray] = {}
        # Guards the LRU / pinned dicts and the counters so concurrent
        # daemon lookups can't corrupt the OrderedDict mid-reorder.  The
        # Dijkstra itself runs outside the lock (recomputing a row twice
        # under a race is idempotent); re-entrant because precompute()
        # pins through rows() -> _lookup()/_insert().
        self._lock = threading.RLock()
        self.rows_computed = 0
        self.cache_hits = 0
        if validate and self.n > 1:
            if not np.all(np.isfinite(self.row(0))):
                raise ValueError(
                    "graph must be connected for a finite metric closure"
                )

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(
        cls, graph: nx.Graph, *, weight: str = "weight",
        cache_rows: int = DEFAULT_CACHE_ROWS,
    ) -> "LazyMetric":
        """Lazy closure of a connected weighted graph (nodes ``0..n-1``
        in sorted label order; see :func:`lazy_metric_from_graph` for the
        node <-> index maps)."""
        metric, _, _ = lazy_metric_from_graph(
            graph, weight=weight, cache_rows=cache_rows
        )
        return metric

    # ------------------------------------------------------------------
    # row machinery
    # ------------------------------------------------------------------
    def _compute_rows(self, idx: np.ndarray) -> np.ndarray:
        """One batched compiled-Dijkstra call for a block of sources."""
        with self._lock:
            self.rows_computed += int(idx.size)
        out = dijkstra(self._adj, directed=False, indices=idx)
        return np.atleast_2d(out)

    def _lookup(self, v: int) -> np.ndarray | None:
        with self._lock:
            pinned = self._pinned.get(v)
            if pinned is not None:
                self.cache_hits += 1
                return pinned
            cached = self._cache.get(v)
            if cached is not None:
                self._cache.move_to_end(v)
                self.cache_hits += 1
            return cached

    def _insert(self, v: int, row: np.ndarray) -> None:
        with self._lock:
            if v in self._pinned:
                return
            self._cache[v] = row
            self._cache.move_to_end(v)
            while len(self._cache) > self._cache_rows:
                self._cache.popitem(last=False)

    def row(self, v: int) -> np.ndarray:
        v = int(v)
        row = self._lookup(v)
        if row is None:
            row = self._compute_rows(np.asarray([v]))[0]
            self._insert(v, row)
        return row

    def rows(self, nodes: Sequence[int]) -> np.ndarray:
        idx = np.asarray(list(nodes), dtype=int)
        out = np.empty((idx.size, self.n))
        missing: list[int] = []
        missing_pos: list[int] = []
        for pos, v in enumerate(idx.tolist()):
            row = self._lookup(v)
            if row is None:
                missing.append(v)
                missing_pos.append(pos)
            else:
                out[pos] = row
        if missing:
            computed = self._compute_rows(np.asarray(missing))
            for pos, v, row in zip(missing_pos, missing, computed):
                out[pos] = row
                # Large blocks (e.g. the radii sweep) would churn the LRU;
                # only fetches well under capacity are worth caching.
                if 4 * len(missing) <= self._cache_rows:
                    self._insert(v, row.copy())
        return out

    def precompute(self, nodes: Iterable[int], rows: np.ndarray | None = None) -> None:
        """Pin the rows of a hot set (facility candidates, copy holders)
        outside the LRU budget, computing missing ones in one batch.

        ``rows`` lets a caller that already fetched the block (e.g. the
        facility phase, which keeps the same block as its connection
        matrix) share storage with the pins instead of re-copying it.
        A pinned view keeps its whole block alive, so the pins are views
        of ``rows`` only when every row is new; when some nodes are
        already pinned, the new rows are pinned as views of a compact
        copy of just those rows, and the rest of ``rows`` stays free to
        be released with the caller's block.
        """
        order = list(dict.fromkeys(int(v) for v in nodes))
        if rows is not None:
            if rows.shape != (len(order), self.n):
                raise ValueError(
                    f"rows must have shape ({len(order)}, {self.n}), got {rows.shape}"
                )
            with self._lock:
                fresh = [pos for pos, v in enumerate(order) if v not in self._pinned]
                block = rows if len(fresh) == len(order) else rows[fresh]
                for pos, row in zip(fresh, block):
                    self._pinned[order[pos]] = row
                    self._cache.pop(order[pos], None)
            return
        with self._lock:
            fresh = [v for v in order if v not in self._pinned]
            if not fresh:
                return
            block = self.rows(fresh)
            for v, row in zip(fresh, block):
                self._pinned[v] = row  # views share the block; no extra copy
                self._cache.pop(v, None)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def adjacency(self) -> csr_matrix:
        """The backing CSR adjacency -- the backend's whole persistent
        state (what pickling ships and :mod:`repro.serialize` stores)."""
        return self._adj

    @property
    def cache_rows(self) -> int:
        """Capacity of the LRU row cache (the ``cache_rows`` knob)."""
        return self._cache_rows

    @property
    def cache_misses(self) -> int:
        """Rows computed because they were not cached (the complement of
        :attr:`cache_hits` over all row lookups)."""
        return self.rows_computed

    def cache_stats(self) -> dict:
        """Row-cache observability: hits, misses, hit rate and capacity.

        Surfaced in :class:`~repro.api.PlanReport` extras so ``repro
        plan`` output shows whether ``cache_rows`` is sized usefully
        without attaching a debugger.  ``hit_rate`` is a well-defined
        ``0.0`` before any lookup (never ``None``/NaN or a
        ``ZeroDivisionError``), so aggregating the stats of many
        per-shard backends stays plain arithmetic.
        """
        lookups = self.cache_hits + self.cache_misses
        return {
            "cache_rows": self._cache_rows,
            "hits": int(self.cache_hits),
            "misses": int(self.cache_misses),
            "hit_rate": (self.cache_hits / lookups) if lookups else 0.0,
        }

    def d(self, u: int, v: int) -> float:
        return float(self.row(u)[int(v)])

    def pairwise(self, nodes: Sequence[int]) -> np.ndarray:
        idx = np.asarray(list(nodes), dtype=int)
        return self.rows(idx)[:, idx]

    def dist_to_set(self, targets: Iterable[int]) -> np.ndarray:
        idx = np.fromiter(targets, dtype=int)
        if idx.size == 0:
            return np.full(self.n, np.inf)
        if idx.size <= _SMALL_TARGET_SET:
            return self.rows(idx).min(axis=0)
        return dijkstra(self._adj, directed=False, indices=idx, min_only=True)

    def nearest_in_set(self, targets: Iterable[int]) -> tuple[np.ndarray, np.ndarray]:
        idx = np.unique(np.fromiter(targets, dtype=int))
        if idx.size == 0:
            raise ValueError("targets must be non-empty")
        if idx.size <= _SMALL_TARGET_SET:
            sub = self.rows(idx)  # (k, n)
            # column-wise argmin (first = smallest-index minimiser wins)
            arg = sub.argmin(axis=0)
            return idx[arg], sub[arg, np.arange(self.n)]
        dist, _, sources = dijkstra(
            self._adj, directed=False, indices=idx,
            min_only=True, return_predecessors=True,
        )
        return sources.astype(idx.dtype), dist

    def matvec(self, weights: np.ndarray, *, block_size: int = 128) -> np.ndarray:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (self.n,):
            raise ValueError(f"weights must have shape ({self.n},)")
        out = np.empty(self.n)
        for start in range(0, self.n, block_size):
            block = np.arange(start, min(start + block_size, self.n))
            out[block] = self.rows(block) @ weights
        return out

    # ------------------------------------------------------------------
    # pickling (worker processes)
    # ------------------------------------------------------------------
    def __getstate__(self):
        """Ship only the adjacency and configuration to worker processes.

        The LRU cache, pinned rows and counters are per-process working
        state: they can be large (each row is ``8n`` bytes) and are cheap
        to regrow, so a pickled ``LazyMetric`` -- e.g. the one-time
        per-worker payload of :class:`repro.engine.PlacementEngine` --
        carries ``O(n + m)`` bytes, not the cache contents.
        """
        return {"adj": self._adj, "cache_rows": self._cache_rows}

    def __setstate__(self, state) -> None:
        self._adj = state["adj"]
        self.n = self._adj.shape[0]
        self._cache = OrderedDict()
        self._cache_rows = int(state["cache_rows"])
        self._pinned = {}
        self._lock = threading.RLock()
        self.rows_computed = 0
        self.cache_hits = 0

    # ------------------------------------------------------------------
    def as_dense(self, *, max_nodes: int = DENSE_MATERIALIZE_LIMIT) -> Metric:
        """Materialize the full closure as a dense :class:`Metric`.

        Guarded: refuses beyond ``max_nodes`` because defeating the lazy
        backend's memory bound should be an explicit decision.
        """
        if self.n > max_nodes:
            raise ValueError(
                f"refusing to materialize a {self.n}x{self.n} distance "
                f"matrix (limit {max_nodes}); raise max_nodes explicitly "
                "if you really want the dense closure"
            )
        dist = dijkstra(self._adj, directed=False)
        return Metric(dist, validate=False)

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LazyMetric(n={self.n}, cached={len(self._cache)}, "
            f"pinned={len(self._pinned)}, computed={self.rows_computed})"
        )


class PortalMetric:
    """Portal-summarized distance backend over a shard decomposition.

    Implements the full :class:`DistanceBackend` protocol on top of a
    base backend and a :class:`~repro.graphs.partition.Partition`:

    * **intra-shard** distances are the base metric's, exactly;
    * **inter-shard** distances are routed through portals --
      ``min over p in portals(shard(u)), q in portals(shard(v)) of
      d(u, p) + d(p, q) + d(q, v)`` with every term a true base
      distance, so the estimate is *admissible* (triangle inequality:
      never shorter than the base metric) and **symmetric** by
      construction.  With every boundary node a portal the routed
      distance is exact (some shortest path crosses the boundary at a
      portal); capping ``portals_per_shard`` trades a bounded
      overestimate for a smaller summary.

    Because the protocol surface is identical, radii sweeps, the
    approximation phases and cost accounting run unchanged on a shard
    view -- :meth:`repro.engine.PlacementEngine.place_sharded` takes its
    per-shard dense submatrices from :meth:`pairwise`.

    The ``(P, n)`` portal row block is fetched from the base backend
    once at construction (``P`` portals total); every query then costs
    base row fetches for the intra-shard part plus ``O(P)`` numpy work
    for the routing.
    """

    __slots__ = ("n", "base", "partition", "_portal_rows", "_quotient")

    def __init__(self, base, partition) -> None:
        if partition.n != base.n:
            raise ValueError(
                f"partition covers {partition.n} nodes but the base backend "
                f"has {base.n}"
            )
        self.base = base
        self.partition = partition
        self.n = base.n
        pnodes = np.asarray(partition.portal_nodes, dtype=int)
        if pnodes.size:
            self._portal_rows = np.asarray(base.rows(pnodes), dtype=float)
            self._quotient = self._portal_rows[:, pnodes]
        else:
            self._portal_rows = np.empty((0, self.n))
            self._quotient = np.empty((0, 0))

    # ------------------------------------------------------------------
    def _route(self, v: int, base_row: np.ndarray) -> np.ndarray:
        """One full portal-summarized row for source ``v``."""
        part = self.partition
        out = np.empty(self.n)
        s = int(part.shard_of[v])
        own = part.shard_array(s)
        out[own] = base_row[own]
        p_own = part.portal_positions(s)
        # admissible distance from v to every portal, leaving via own portals
        via = (
            self._portal_rows[p_own, v][:, None] + self._quotient[p_own, :]
        ).min(axis=0)
        for t in range(part.num_shards):
            if t == s:
                continue
            q = part.portal_positions(t)
            nodes_t = part.shard_array(t)
            out[nodes_t] = (
                via[q][:, None] + self._portal_rows[np.ix_(q, nodes_t)]
            ).min(axis=0)
        return out

    def row(self, v: int) -> np.ndarray:
        v = int(v)
        base_row = np.asarray(self.base.row(v), dtype=float)
        if self.partition.num_shards == 1:
            return base_row
        return self._route(v, base_row)

    def rows(self, nodes: Sequence[int]) -> np.ndarray:
        idx = np.asarray(list(nodes), dtype=int)
        base_rows = np.asarray(self.base.rows(idx), dtype=float)
        if self.partition.num_shards == 1:
            return base_rows
        out = np.empty((idx.size, self.n))
        for pos, v in enumerate(idx.tolist()):
            out[pos] = self._route(v, base_rows[pos])
        return out

    def d(self, u: int, v: int) -> float:
        return float(self.row(u)[int(v)])

    def pairwise(self, nodes: Sequence[int]) -> np.ndarray:
        idx = np.asarray(list(nodes), dtype=int)
        return self.rows(idx)[:, idx]

    def dist_to_set(self, targets: Iterable[int]) -> np.ndarray:
        idx = np.fromiter(targets, dtype=int)
        if idx.size == 0:
            return np.full(self.n, np.inf)
        return self.rows(idx).min(axis=0)

    def nearest_in_set(self, targets: Iterable[int]) -> tuple[np.ndarray, np.ndarray]:
        idx = np.unique(np.fromiter(targets, dtype=int))
        if idx.size == 0:
            raise ValueError("targets must be non-empty")
        sub = self.rows(idx)
        arg = sub.argmin(axis=0)
        return idx[arg], sub[arg, np.arange(self.n)]

    def matvec(self, weights: np.ndarray, *, block_size: int = 128) -> np.ndarray:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (self.n,):
            raise ValueError(f"weights must have shape ({self.n},)")
        out = np.empty(self.n)
        for start in range(0, self.n, block_size):
            block = np.arange(start, min(start + block_size, self.n))
            out[block] = self.rows(block) @ weights
        return out

    def cache_stats(self) -> dict | None:
        """The base backend's row-cache stats (``None`` on a dense base).

        Every per-shard solve routes its row fetches through the shared
        base backend, so after a sharded run this is the *aggregate*
        over all shard views -- what
        :class:`~repro.engine.PlacementEngine.place_sharded` surfaces
        into :class:`~repro.api.PlanReport` extras.
        """
        stats = getattr(self.base, "cache_stats", None)
        return stats() if callable(stats) else None

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        part = self.partition
        return (
            f"PortalMetric(n={self.n}, shards={part.num_shards}, "
            f"portals={part.num_portals}, base={type(self.base).__name__})"
        )


def lazy_metric_from_graph(
    graph: nx.Graph, *, weight: str = "weight", cache_rows: int = DEFAULT_CACHE_ROWS
) -> tuple[LazyMetric, dict, list]:
    """Lazy metric closure plus node <-> index maps.

    The sibling of :func:`repro.graphs.metric.metric_from_graph` with the
    same node-ordering convention, but ``O(n + m)`` memory: connectivity is
    checked on the graph up front instead of through infinite distances.
    """
    if graph.number_of_nodes() == 0:
        raise ValueError("graph has no nodes")
    if not nx.is_connected(graph):
        raise ValueError("graph must be connected for a finite metric closure")
    adj, index, nodes = graph_to_adjacency(graph, weight=weight)
    return LazyMetric(adj, cache_rows=cache_rows, validate=False), index, nodes


def dense_distance_matrix(
    backend, *, max_nodes: int = DENSE_MATERIALIZE_LIMIT, context: str = ""
) -> np.ndarray:
    """The full ``(n, n)`` matrix of a backend, for algorithms that truly
    need all pairs (Dreyfus--Wagner, brute force, the ILP).

    Dense metrics return their matrix for free; lazy metrics materialize
    under the :data:`DENSE_MATERIALIZE_LIMIT` guard.  ``context`` names the
    caller in the error message.
    """
    if isinstance(backend, Metric):
        return backend.dist
    if isinstance(backend, LazyMetric):
        if backend.n > max_nodes:
            where = f" ({context})" if context else ""
            raise ValueError(
                f"this algorithm{where} needs the dense {backend.n}x"
                f"{backend.n} distance matrix, which exceeds the "
                f"materialization limit of {max_nodes} nodes; use the "
                "scalable code paths or construct a dense Metric explicitly"
            )
        return backend.as_dense(max_nodes=max_nodes).dist
    dist = getattr(backend, "dist", None)
    if dist is not None:
        return np.asarray(dist, dtype=float)
    raise TypeError(f"cannot extract a dense matrix from {type(backend).__name__}")
