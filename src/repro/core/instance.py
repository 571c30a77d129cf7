"""Problem instances for the static data management problem.

An instance (Section 1.1 of the paper) consists of

* a metric ``ct`` over nodes -- here a :class:`~repro.graphs.metric.Metric`
  (the shortest-path closure of the network's transmission prices),
* per-node storage prices ``cs : V -> R+_0``,
* a set ``X`` of shared objects, and
* read/write request frequencies ``fr, fw : V x X -> N``.

Frequencies are stored as float arrays but the model semantics treat them
as request *counts*; the radii machinery of Section 2.1 (``R^z_v``, the
``z`` closest requests) interprets them as multiset multiplicities and
supports fractional weights transparently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import networkx as nx
import numpy as np

from ..graphs.backend import DistanceBackend, lazy_metric_from_graph
from ..graphs.metric import Metric, metric_from_graph

__all__ = ["DataManagementInstance"]


def _min_finite(name: str, arr: np.ndarray) -> float:
    """The smallest entry of ``arr`` (0 when empty), after checking that
    every entry is finite -- a NaN or an infinity propagates into the
    min or the max, so two reductions check the whole array."""
    if arr.size == 0:
        return 0.0
    lo = arr.min()
    if not (np.isfinite(lo) and np.isfinite(arr.max())):
        raise ValueError(f"{name} must be finite (no NaN or infinity)")
    return float(lo)


@dataclass(frozen=True)
class DataManagementInstance:
    """A static data management problem over ``n`` nodes and ``m`` objects.

    Attributes
    ----------
    metric:
        Transmission-price metric ``ct`` (closure of the network) -- any
        :class:`~repro.graphs.backend.DistanceBackend`: the dense
        :class:`~repro.graphs.metric.Metric` or the scalable
        :class:`~repro.graphs.backend.LazyMetric`.
    storage_costs:
        Array of shape ``(n,)``: ``cs(v)`` per node.  The model is uniform
        in object size, so storage prices do not depend on the object
        (Section 1.1); the non-uniform extension simply uses one instance
        per object.
    read_freq / write_freq:
        Arrays of shape ``(m, n)``: ``fr(v, x)`` and ``fw(v, x)``.
    object_names:
        Optional labels for the ``m`` objects (defaults to ``x0, x1, ...``).
    object_sizes:
        Optional per-object sizes (defaults to all 1).  The paper's
        non-uniform model: ``cs``/``ct`` are fees *per byte*, so an object
        of size ``s`` multiplies every cost term it generates by ``s``.
        Since the scaling is uniform across storage, read and update cost,
        the optimal copy set of each object is invariant under its size --
        "all our results hold also in a non-uniform model" (Section 1.1) --
        and only the bill changes; cost accounting applies the factor.
    """

    metric: DistanceBackend
    storage_costs: np.ndarray
    read_freq: np.ndarray
    write_freq: np.ndarray
    object_names: tuple[str, ...] = field(default=())
    object_sizes: np.ndarray | None = field(default=None)

    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        if isinstance(self.metric, tuple):
            raise TypeError(
                "metric is a tuple -- metric_from_graph()/"
                "lazy_metric_from_graph() return (metric, index, nodes); "
                "pass the metric element, or build one directly with "
                "Metric.from_graph()/LazyMetric.from_graph()"
            )
        cs = np.asarray(self.storage_costs, dtype=float)
        fr = np.atleast_2d(np.asarray(self.read_freq, dtype=float))
        fw = np.atleast_2d(np.asarray(self.write_freq, dtype=float))
        object.__setattr__(self, "storage_costs", cs)
        object.__setattr__(self, "read_freq", fr)
        object.__setattr__(self, "write_freq", fw)

        n = self.metric.n
        if cs.shape != (n,):
            raise ValueError(f"storage_costs must have shape ({n},), got {cs.shape}")
        if fr.shape != fw.shape:
            raise ValueError("read_freq and write_freq must have equal shapes")
        if fr.shape[1] != n:
            raise ValueError(f"frequency arrays must have {n} columns, got {fr.shape[1]}")
        for name, arr in (("storage_costs", cs), ("read_freq", fr), ("write_freq", fw)):
            if _min_finite(name, arr) < 0:
                raise ValueError(f"{name} must be non-negative")

        if not self.object_names:
            object.__setattr__(
                self, "object_names", tuple(f"x{i}" for i in range(fr.shape[0]))
            )
        elif len(self.object_names) != fr.shape[0]:
            raise ValueError("object_names length must match the number of objects")

        if self.object_sizes is None:
            object.__setattr__(self, "object_sizes", np.ones(fr.shape[0]))
        else:
            sizes = np.asarray(self.object_sizes, dtype=float)
            if sizes.shape != (fr.shape[0],):
                raise ValueError(
                    f"object_sizes must have shape ({fr.shape[0]},), got {sizes.shape}"
                )
            if _min_finite("object_sizes", sizes) <= 0:
                raise ValueError("object_sizes must be positive")
            object.__setattr__(self, "object_sizes", sizes)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(
        cls,
        graph: nx.Graph,
        storage_costs,
        read_freq,
        write_freq,
        *,
        weight: str = "weight",
        object_names: tuple[str, ...] = (),
        backend: str = "dense",
    ) -> "DataManagementInstance":
        """Build an instance from a weighted network.

        Node labels must already be ``0..n-1`` (the generator convention);
        use :func:`repro.graphs.metric.metric_from_graph` directly for
        arbitrary labels.  ``backend`` selects the distance oracle:
        ``"dense"`` (full closure) or ``"lazy"`` (on-demand Dijkstra, for
        large networks).
        """
        if backend == "dense":
            metric, index, _ = metric_from_graph(graph, weight=weight)
        elif backend == "lazy":
            metric, index, _ = lazy_metric_from_graph(graph, weight=weight)
        else:
            raise ValueError(f"unknown backend {backend!r}; use 'dense' or 'lazy'")
        if any(index[u] != u for u in graph.nodes()):
            raise ValueError(
                "graph nodes must be 0..n-1; relabel first or build the "
                "Metric explicitly"
            )
        return cls(metric, storage_costs, read_freq, write_freq, object_names)

    @classmethod
    def single_object(
        cls, metric: Metric, storage_costs, read_freq, write_freq
    ) -> "DataManagementInstance":
        """Convenience constructor for one shared object."""
        return cls(
            metric,
            storage_costs,
            np.atleast_2d(read_freq),
            np.atleast_2d(write_freq),
        )

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.metric.n

    @property
    def num_objects(self) -> int:
        return self.read_freq.shape[0]

    def demand(self, obj: int) -> np.ndarray:
        """Total request frequency ``fr + fw`` per node for one object.

        This is the demand vector of the *related facility location
        problem* (Section 2.2 phase 1), where writes are recast as reads.
        """
        return self.read_freq[obj] + self.write_freq[obj]

    # -- columnar (whole-catalog) accessors ----------------------------
    def demand_matrix(self) -> np.ndarray:
        """``fr + fw`` for every object at once: shape ``(m, n)``."""
        return self.read_freq + self.write_freq

    def total_requests_all(self) -> np.ndarray:
        """Per-object total request counts, shape ``(m,)``."""
        return self.read_freq.sum(axis=1) + self.write_freq.sum(axis=1)

    def total_writes_all(self) -> np.ndarray:
        """Per-object total write counts ``W``, shape ``(m,)``."""
        return self.write_freq.sum(axis=1)

    def demand_support(self, obj: int) -> np.ndarray:
        """Nodes with positive demand for one object (sorted indices)."""
        return np.flatnonzero(self.demand(obj) > 0)

    def total_writes(self, obj: int) -> float:
        """``W = sum_v fw(v)`` -- the total write count for one object."""
        return float(self.write_freq[obj].sum())

    def total_reads(self, obj: int) -> float:
        return float(self.read_freq[obj].sum())

    def total_requests(self, obj: int) -> float:
        return self.total_reads(obj) + self.total_writes(obj)

    def object_size(self, obj: int) -> float:
        """Size of one object (fees are per byte; costs scale linearly)."""
        return float(self.object_sizes[obj])

    def is_read_only(self, obj: int | None = None) -> bool:
        """True if the object (or, with ``None``, every object) has no writes."""
        if obj is None:
            return bool(np.all(self.write_freq == 0))
        return bool(np.all(self.write_freq[obj] == 0))

    def validate_copies(self, copies) -> list[int]:
        """Normalize and validate a copy set: non-empty, unique, in range."""
        nodes = sorted(set(int(v) for v in copies))
        if not nodes:
            raise ValueError("a placement must store at least one copy")
        if nodes[0] < 0 or nodes[-1] >= self.num_nodes:
            raise ValueError("copy node index out of range")
        return nodes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DataManagementInstance(n={self.num_nodes}, "
            f"objects={self.num_objects})"
        )
