"""Metric substrate: shortest-path closures of weighted networks.

The paper models the network as an undirected graph ``G = (V, E)`` with a
transmission price ``ct : E -> R+`` per edge.  The induced point-to-point
price ``ct(v, v')`` is the shortest-path distance, which is non-negative,
symmetric and satisfies the triangle inequality -- i.e. a (pseudo-)metric
over ``V`` (Section 1.1).  Every algorithm in this library works on that
metric closure.

This module provides :class:`Metric`, a dense all-pairs distance oracle with
numpy-vectorized nearest-copy queries, built either from an explicit distance
matrix or from a ``networkx`` graph via scipy's compiled Dijkstra.  It is
the reference implementation of the :class:`~repro.graphs.backend.DistanceBackend`
protocol; :class:`~repro.graphs.backend.LazyMetric` answers the same queries
without ``O(n^2)`` storage for large networks.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import networkx as nx
import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

__all__ = ["Metric", "metric_from_graph", "graph_to_adjacency"]

#: Slack of the metric axioms :meth:`Metric._validate` admits, each both
#: relative and absolute: ``|d(u, v) - d(v, u)| <= SYMMETRY_TOL * (1 +
#: d(v, u))`` and ``d(u, w) <= via + TRIANGLE_TOL * (1 + via)`` with
#: ``via = min_v d(u, v) + d(v, w)``.  Bounds derived from the triangle
#: inequality (the radii sweep's storage-number caps) budget for them.
SYMMETRY_TOL = 1e-9
TRIANGLE_TOL = 1e-7


class Metric:
    """Dense shortest-path metric over ``n`` nodes (indices ``0..n-1``).

    Parameters
    ----------
    dist:
        ``(n, n)`` array of pairwise distances.  Must be non-negative,
        symmetric, have a zero diagonal, and satisfy the triangle
        inequality up to floating-point tolerance (checked when
        ``validate=True``).
    validate:
        Verify metric axioms on construction.  Triangle-inequality
        verification costs ``O(n^3)`` via one matmul-style pass, so it can
        be disabled for large instances built from trusted sources
        (shortest-path closures are metrics by construction).
    """

    __slots__ = ("dist", "n")

    def __init__(self, dist: np.ndarray, *, validate: bool = True) -> None:
        dist = np.asarray(dist, dtype=float)
        if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
            raise ValueError(f"distance matrix must be square, got {dist.shape}")
        self.dist = dist
        self.n = dist.shape[0]
        if validate:
            self._validate()

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph: nx.Graph, *, weight: str = "weight") -> "Metric":
        """Metric closure of a connected undirected weighted graph.

        Nodes must be hashable; they are mapped to indices ``0..n-1`` in
        ``sorted`` order if sortable, else in insertion order.  Use
        :func:`metric_from_graph` to also obtain the node <-> index maps.
        """
        metric, _, _ = metric_from_graph(graph, weight=weight)
        return metric

    @classmethod
    def from_points(cls, points: np.ndarray, *, validate: bool = False) -> "Metric":
        """Euclidean metric over a set of points (rows = points)."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2:
            raise ValueError("points must be a 2-D array")
        diff = pts[:, None, :] - pts[None, :, :]
        return cls(np.sqrt((diff**2).sum(axis=2)), validate=validate)

    # ------------------------------------------------------------------
    # metric axioms
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        d = self.dist
        if not np.all(np.isfinite(d)):
            raise ValueError("distance matrix contains non-finite entries "
                             "(is the underlying graph connected?)")
        if np.any(d < 0):
            raise ValueError("distances must be non-negative")
        if not np.allclose(np.diag(d), 0.0):
            raise ValueError("diagonal must be zero")
        if not np.allclose(d, d.T, rtol=SYMMETRY_TOL, atol=SYMMETRY_TOL):
            raise ValueError("distance matrix must be symmetric")
        if self.n <= 1:
            return
        # Triangle inequality: d[i, j] <= min_k d[i, k] + d[k, j].
        # One vectorized pass; tolerate tiny float slack.
        via = (d[:, :, None] + d[None, :, :]).min(axis=1)
        if np.any(d > via + TRIANGLE_TOL * (1.0 + via)):
            raise ValueError("triangle inequality violated")

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def d(self, u: int, v: int) -> float:
        """Distance between two nodes."""
        return float(self.dist[u, v])

    def row(self, v: int) -> np.ndarray:
        """Distance row ``d(v, .)`` -- a view into the dense matrix."""
        return self.dist[int(v)]

    def rows(self, nodes: Sequence[int]) -> np.ndarray:
        """Distance rows for a set of nodes: shape ``(len(nodes), n)``."""
        return self.dist[np.asarray(list(nodes), dtype=int)]

    def pairwise(self, nodes: Sequence[int]) -> np.ndarray:
        """Induced distance submatrix, shape ``(k, k)``, in given order."""
        idx = np.asarray(list(nodes), dtype=int)
        return self.dist[np.ix_(idx, idx)]

    def matvec(self, weights: np.ndarray) -> np.ndarray:
        """``out[v] = sum_u d(v, u) * weights[u]`` (one matrix-vector product)."""
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (self.n,):
            raise ValueError(f"weights must have shape ({self.n},)")
        return self.dist @ weights

    def dist_to_set(self, targets: Iterable[int]) -> np.ndarray:
        """Vector of ``d(v, S)`` for every node ``v`` (``S`` = targets).

        This is the nearest-copy read cost kernel: a read at ``v`` pays
        ``d(v, S)`` to reach its closest copy.
        """
        idx = np.fromiter(targets, dtype=int)
        if idx.size == 0:
            return np.full(self.n, np.inf)
        return self.dist[:, idx].min(axis=1)

    def nearest_in_set(self, targets: Iterable[int]) -> tuple[np.ndarray, np.ndarray]:
        """For every node, the nearest target and the distance to it.

        Ties are broken towards the smallest node index (deterministic),
        matching the tie-breaking convention used throughout the library.

        Returns
        -------
        (nearest, dist):
            ``nearest[v]`` is the index (a member of ``targets``) of the
            closest target to ``v``; ``dist[v] = d(v, nearest[v])``.
        """
        idx = np.unique(np.fromiter(targets, dtype=int))
        if idx.size == 0:
            raise ValueError("targets must be non-empty")
        sub = self.dist[:, idx]
        arg = sub.argmin(axis=1)  # first (= smallest index) minimiser
        return idx[arg], sub[np.arange(self.n), arg]

    def eccentricity(self, v: int) -> float:
        """Largest distance from ``v`` to any node."""
        return float(self.dist[v].max())

    def diameter(self) -> float:
        """Largest pairwise distance (weighted diameter of the closure)."""
        return float(self.dist.max())

    def submetric(self, nodes: Sequence[int]) -> "Metric":
        """Induced metric on a subset of nodes (in the given order)."""
        idx = np.asarray(list(nodes), dtype=int)
        return Metric(self.dist[np.ix_(idx, idx)], validate=False)

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Metric(n={self.n}, diameter={self.diameter():.4g})"


def metric_from_graph(
    graph: nx.Graph, *, weight: str = "weight"
) -> tuple[Metric, dict, list]:
    """Metric closure plus node <-> index maps.

    Parameters
    ----------
    graph:
        Connected undirected graph.  Missing edge weights default to 1.
    weight:
        Edge-attribute name holding the transmission price ``ct(e)``.

    Returns
    -------
    (metric, node_to_index, index_to_node)
    """
    if graph.number_of_nodes() == 0:
        raise ValueError("graph has no nodes")
    if not nx.is_connected(graph):
        raise ValueError("graph must be connected for a finite metric closure")
    adj, index, nodes = graph_to_adjacency(graph, weight=weight)
    dist = shortest_path(adj, method="D", directed=False)
    return Metric(dist, validate=False), index, nodes


def graph_to_adjacency(
    graph: nx.Graph, *, weight: str = "weight"
) -> tuple[csr_matrix, dict, list]:
    """Sparse adjacency of a weighted graph plus node <-> index maps.

    Nodes are mapped to ``0..n-1`` in ``sorted`` order if sortable, else in
    insertion order -- the shared convention of every distance backend.
    Missing edge weights default to 1.
    """
    try:
        nodes = sorted(graph.nodes())
    except TypeError:  # unsortable mixed node types
        nodes = list(graph.nodes())
    index = {u: i for i, u in enumerate(nodes)}

    n = len(nodes)
    rows, cols, vals = [], [], []
    for u, v, data in graph.edges(data=True):
        w = float(data.get(weight, 1.0))
        if w < 0:
            raise ValueError(f"negative edge weight on ({u}, {v})")
        rows.append(index[u])
        cols.append(index[v])
        vals.append(w)
    return csr_matrix((vals, (rows, cols)), shape=(n, n)), index, nodes
