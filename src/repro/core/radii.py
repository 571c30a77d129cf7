"""Write and storage radii (Section 2.1 of the paper).

For a node ``v`` let ``R^z_v`` be the ``z`` requests (reads *and* writes,
counted with multiplicity ``fr + fw``) closest to ``v`` and

    d(v, z) = (1/z) * sum_{r in R^z_v} ct(h(r), v)

their average distance.  Two radii steer the approximation algorithm:

* the **write radius** ``rw(v) = d(v, W)`` with ``W`` the total write
  count -- the scale at which a copy at ``v`` could plausibly amortize the
  update traffic it attracts;
* the **storage radius** ``rs(v)`` and **storage number** ``zs(v)``,
  chosen such that

      (zs(v) - 1) * rs(v) <= cs(v) < zs(v) * rs(v)       and
      d(v, zs(v) - 1)     <= rs(v) < d(v, zs(v)),

  the scale at which a copy at ``v`` amortizes its storage price.

The key computational observation is that ``z * d(v, z)`` equals the
*prefix sum* ``P_v(z)`` of the ``z`` smallest request distances, a
non-decreasing piecewise-linear function with at most ``n`` breakpoints, so

    zs(v) = min { integer z >= 1 : P_v(z) > cs(v) }

is found by binary search -- or, for integer request counts, directly at
the breakpoint where ``P_v`` crosses ``cs(v)`` (see
:func:`repro.kernels._storage_crossing`) -- and the feasible interval for
``rs(v)`` is the non-empty set
``(cs/zs, cs/(zs-1)] ∩ [d(v, zs-1), d(v, zs))`` (we take its
midpoint; any member satisfies the defining inequalities, and only the
``5 * rs(v)`` phase-2 threshold consumes the value).

Scaling note: everything here consumes the metric through *distance rows*.
:func:`radii_for_object` sweeps the nodes in blocks -- one batched
row fetch (a single compiled multi-source Dijkstra call on a
:class:`~repro.graphs.backend.LazyMetric`), then a fully vectorized
sort/cumsum per block -- so peak memory is ``O(block_size * n)`` instead of
the ``O(n^2)`` a full-matrix argsort would need.  :class:`RequestProfile`
offers the same quantities as a per-node oracle, computing and caching one
row at a time.

Catalog note: the sorted order of each distance row depends only on the
metric, never on the workload, so a multi-object catalog can share one
row fetch *and one argsort* per node block across every object
(:func:`radii_for_objects`).  For integer request counts -- the model's
semantics -- the sweep additionally restricts each object's prefix-sum
state to the nodes that actually issue requests (its *demand support*):
zero-weight entries contribute exactly ``0.0`` to every cumulative sum
and are provably skipped by the breakpoint searches, so the restricted
state yields bit-identical radii at a fraction of the work.  Fractional
weights fall back to the shared-argsort dense path, which replays the
per-object arithmetic verbatim.

Degenerate cases, all unit-tested:

* ``W = 0`` (read-only): ``rw(v) = d(v, 0) = 0``.
* ``cs(v) >= P_v(N)`` (storage dearer than serving every request
  remotely): ``zs(v) = N`` and ``rs(v) = +inf`` -- the node never demands
  a nearby copy and phase 2 never fires for it.
* no requests at all: both radii follow the rules above (``rw = 0``,
  ``rs = +inf``); callers special-case zero-demand objects anyway.
"""

from __future__ import annotations

import math

import numpy as np

from ..kernels import active_impl, dispatch

__all__ = [
    "RequestProfile",
    "radii_for_object",
    "radii_for_objects",
    "DEFAULT_RADII_BLOCK",
]

#: Nodes per batched row fetch in :func:`radii_for_object`.  Peak scratch
#: memory is a handful of ``(block, n)`` arrays; 128 keeps a 10k-node sweep
#: under ~60 MB while still amortizing the per-call Dijkstra overhead.
DEFAULT_RADII_BLOCK = 128

#: :func:`radii_for_objects` handles a sparse object in one whole-network
#: pass (instead of the node-block loop) while its ``(n, nnz)`` state
#: stays under this many elements (~32 MB of float64 scratch).
_SINGLE_SWEEP_ELEMS = 4_000_000


def _sorted_cums(
    row: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-node prefix-sum state: sorted distances, cumulative weights,
    cumulative weighted distances."""
    order = np.argsort(row, kind="stable")
    sd = row[order]
    sw = weights[order]
    return sd, np.cumsum(sw), np.cumsum(sw * sd)


def _prefix_from_cums(
    sd: np.ndarray, cw: np.ndarray, cwd: np.ndarray, z: float, total: float
) -> float:
    """``P_v(z)`` evaluated from precomputed per-node cumulatives."""
    if z <= 0:
        return 0.0
    z = min(z, total)
    i = int(np.searchsorted(cw, z, side="left"))
    if i >= sd.size:  # float slack between total and cw[-1]
        i = sd.size - 1
    prev_w = cw[i - 1] if i > 0 else 0.0
    prev_wd = cwd[i - 1] if i > 0 else 0.0
    return float(prev_wd + (z - prev_w) * sd[i])


def _storage_radius_from_cums(
    sd: np.ndarray,
    cw: np.ndarray,
    cwd: np.ndarray,
    storage_cost: float,
    total: float,
) -> tuple[float, int]:
    """``(rs(v), zs(v))`` from one node's prefix-sum state."""
    if storage_cost < 0:
        raise ValueError("storage cost must be non-negative")
    n_req = int(math.ceil(total))
    if n_req == 0 or _prefix_from_cums(sd, cw, cwd, total, total) <= storage_cost:
        return math.inf, max(n_req, 1)

    # binary search the smallest integer z >= 1 with P_v(z) > cs
    lo, hi = 1, n_req
    while lo < hi:
        mid = (lo + hi) // 2
        if _prefix_from_cums(sd, cw, cwd, mid, total) > storage_cost:
            hi = mid
        else:
            lo = mid + 1
    zs = lo

    d_lo = _prefix_from_cums(sd, cw, cwd, zs - 1, total) / (zs - 1) if zs > 1 else 0.0
    d_hi = _prefix_from_cums(sd, cw, cwd, min(zs, total), total) / min(zs, total)
    lower = max(d_lo, storage_cost / zs)
    upper = min(d_hi, storage_cost / (zs - 1)) if zs > 1 else d_hi
    # The intersection is provably non-empty; guard against float slack.
    if upper < lower:
        upper = lower
    rs = 0.5 * (lower + upper) if upper > lower else lower
    return float(rs), int(zs)


class RequestProfile:
    """Per-node prefix-sum oracle over a weighted request multiset.

    Rows are computed on first use and cached per node, so the profile
    works against any :class:`~repro.graphs.backend.DistanceBackend`
    without touching the full matrix.  For whole-network sweeps prefer
    :func:`radii_for_object`, which batches the row fetches.

    Parameters
    ----------
    metric:
        Distance oracle.
    weights:
        Array of shape ``(n,)``: the request multiplicity at each node
        (``fr + fw`` for the Section 2 radii).
    """

    def __init__(self, metric, weights: np.ndarray) -> None:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (metric.n,):
            raise ValueError(f"weights must have shape ({metric.n},)")
        if np.any(weights < 0):
            raise ValueError("request weights must be non-negative")
        self.metric = metric
        self.weights = weights
        self.total = float(weights.sum())
        self._cums: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def _node_cums(self, v: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        state = self._cums.get(v)
        if state is None:
            state = _sorted_cums(np.asarray(self.metric.row(v)), self.weights)
            self._cums[v] = state
        return state

    # ------------------------------------------------------------------
    def prefix(self, v: int, z: float) -> float:
        """``P_v(z)``: summed distance of the ``z`` closest requests.

        ``z`` may be fractional (a request is split linearly); ``z`` is
        clamped to ``[0, total]``.
        """
        sd, cw, cwd = self._node_cums(v)
        return _prefix_from_cums(sd, cw, cwd, z, self.total)

    def avg_dist(self, v: int, z: float) -> float:
        """``d(v, z)``, with the convention ``d(v, 0) = 0``."""
        if z <= 0:
            return 0.0
        z = min(z, self.total)
        return self.prefix(v, z) / z

    # ------------------------------------------------------------------
    def write_radius(self, v: int, total_writes: float) -> float:
        """``rw(v) = d(v, W)``."""
        return self.avg_dist(v, total_writes)

    def storage_radius(self, v: int, storage_cost: float) -> tuple[float, int]:
        """``(rs(v), zs(v))`` for the given storage price ``cs(v)``.

        Returns ``(inf, ceil(total))`` when storage never amortizes (see
        module docstring).
        """
        sd, cw, cwd = self._node_cums(v)
        return _storage_radius_from_cums(sd, cw, cwd, storage_cost, self.total)


def radii_for_object(
    metric,
    storage_costs: np.ndarray,
    read_freq: np.ndarray,
    write_freq: np.ndarray,
    *,
    block_size: int = DEFAULT_RADII_BLOCK,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All radii for one object: ``(rw, rs, zs)`` arrays over nodes.

    The request multiset weighs each node by ``fr + fw`` (writes count as
    requests both for the write radius and the storage radius -- the
    restricted-cost view folds the write attach message into read cost).

    Nodes are processed in blocks of ``block_size``: one batched distance
    row fetch per block, then vectorized sorting and prefix sums, so the
    sweep never holds more than ``O(block_size * n)`` scratch.  The
    breakpoint searches run as per-row kernels dispatched through
    :mod:`repro.kernels`, replaying the scalar
    :func:`_storage_radius_from_cums` arithmetic exactly.
    """
    if block_size < 1:
        raise ValueError("block_size must be positive")
    weights = np.asarray(read_freq, dtype=float) + np.asarray(write_freq, dtype=float)
    if np.any(weights < 0):
        raise ValueError("request weights must be non-negative")
    total = float(weights.sum())
    total_writes = float(np.asarray(write_freq, dtype=float).sum())
    storage_costs = np.asarray(storage_costs, dtype=float)
    if np.any(storage_costs < 0):
        raise ValueError("storage cost must be non-negative")
    integral = bool(np.all(np.floor(weights) == weights))

    n = metric.n
    rw = np.empty(n)
    rs = np.empty(n)
    zs = np.empty(n, dtype=int)
    for start in range(0, n, block_size):
        stop = min(start + block_size, n)
        block = np.arange(start, stop)
        # Scratch is freed as soon as each array stops being needed and the
        # cumsums run in place, so the block never holds more than three
        # (b, n) arrays at once.
        D = np.asarray(metric.rows(block))  # (b, n)
        order = np.argsort(D, axis=1, kind="stable")
        SD = np.take_along_axis(D, order, axis=1)
        del D
        SW = weights[order]
        del order
        rw[block], rs[block], zs[block] = _radii_from_sorted(
            SD, SW, storage_costs[block], total_writes, total, integral
        )
    return rw, rs, zs


def radii_for_objects(
    metric,
    storage_costs: np.ndarray,
    read_freq: np.ndarray,
    write_freq: np.ndarray,
    *,
    block_size: int = DEFAULT_RADII_BLOCK,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Radii for a whole object batch: ``(rw, rs, zs)`` of shape ``(m, n)``.

    One shared backend sweep serves every object: each node block's
    distance rows are fetched once (one compiled Dijkstra call on a lazy
    backend, a view on a dense one) and, where the full sort is needed,
    argsorted once -- instead of once *per object* as the naive
    ``[radii_for_object(...) for obj in ...]`` loop does.

    Per object the prefix-sum state is then built either

    * on the object's *demand support* (the nodes with ``fr + fw > 0``)
      when every frequency is an integer count -- bit-identical to the
      full-width state (zero weights add exactly ``0.0`` to every
      cumulative sum and the crossing searches provably never land on
      them) at ``O(block * nnz)`` instead of ``O(block * n)``, or
    * on the shared full argsort otherwise (fractional weights), which is
      the per-object computation verbatim.

    Returns arrays indexed ``[obj, node]``; callers placing huge catalogs
    should chunk objects and call this per chunk (see
    :class:`repro.engine.PlacementEngine`) so only ``O(chunk * n)`` radii
    are live at once.
    """
    if block_size < 1:
        raise ValueError("block_size must be positive")
    FR = np.atleast_2d(np.asarray(read_freq, dtype=float))
    FW = np.atleast_2d(np.asarray(write_freq, dtype=float))
    if FR.shape != FW.shape:
        raise ValueError("read_freq and write_freq must have equal shapes")
    weights = FR + FW
    if np.any(weights < 0):
        raise ValueError("request weights must be non-negative")
    storage_costs = np.asarray(storage_costs, dtype=float)
    if np.any(storage_costs < 0):
        raise ValueError("storage cost must be non-negative")
    m, n = weights.shape
    if n != metric.n:
        raise ValueError(f"frequency arrays must have {metric.n} columns")

    # Per-object totals via the exact same reductions as radii_for_object
    # (1-D row sums), so every downstream comparison sees the same floats.
    totals = [float(weights[i].sum()) for i in range(m)]
    wtotals = [float(FW[i].sum()) for i in range(m)]
    integral = bool(
        np.all(np.floor(FR) == FR) and np.all(np.floor(FW) == FW)
    )
    supports = [np.flatnonzero(weights[i]) if integral else None for i in range(m)]

    def use_support(i: int) -> bool:
        supp = supports[i]
        return supp is not None and 0 < supp.size < n

    RW = np.empty((m, n))
    RS = np.empty((m, n))
    ZS = np.empty((m, n), dtype=int)
    live = [i for i in range(m) if totals[i] > 0]
    # Zero-demand objects never consult the sweep: rw = 0, rs = inf, zs = 1
    # (the radii_for_object degenerate case).
    for i in range(m):
        if totals[i] <= 0:
            RW[i] = 0.0
            RS[i] = np.inf
            ZS[i] = 1

    # Sparse objects on a dense backend skip the node-block loop entirely:
    # the (n, nnz) column slice is small, so one whole-network pass per
    # object avoids per-block Python overhead.  Blocking never changes
    # values (every kernel is an independent per-row computation), so this
    # is purely a batching choice.
    dense = getattr(metric, "dist", None)
    if dense is not None:
        single = [
            i for i in live
            if use_support(i) and n * supports[i].size <= _SINGLE_SWEEP_ELEMS
        ]
        for i in single:
            supp = supports[i]
            Ds = dense[:, supp]
            order = np.argsort(Ds, axis=1, kind="stable")
            SD = np.take_along_axis(Ds, order, axis=1)
            SW = weights[i, supp][order]
            RW[i], RS[i], ZS[i] = _radii_from_sorted(
                SD, SW, storage_costs, wtotals[i], totals[i], integral
            )
        done = set(single)
        live = [i for i in live if i not in done]
        if not live:
            return RW, RS, ZS
    need_full = any(not use_support(i) for i in live)

    for start in range(0, n, block_size):
        stop = min(start + block_size, n)
        block = np.arange(start, stop)
        D = np.asarray(metric.rows(block))  # (b, n), fetched once per block
        cs_block = storage_costs[block]
        if need_full:
            order_full = np.argsort(D, axis=1, kind="stable")
            SD_full = np.take_along_axis(D, order_full, axis=1)
        for i in live:
            if use_support(i):
                supp = supports[i]
                Ds = D[:, supp]
                order = np.argsort(Ds, axis=1, kind="stable")
                SD = np.take_along_axis(Ds, order, axis=1)
                SW = weights[i, supp][order]
            else:
                SD = SD_full
                SW = weights[i][order_full]
            RW[i, block], RS[i, block], ZS[i, block] = _radii_from_sorted(
                SD, SW, cs_block, wtotals[i], totals[i], integral
            )
    return RW, RS, ZS


def _radii_from_sorted(
    SD: np.ndarray,
    SW: np.ndarray,
    costs: np.ndarray,
    total_writes: float,
    total: float,
    integral: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rw, rs, zs)`` rows from distance-sorted block state.

    The one shared kernel stack behind :func:`radii_for_object` and both
    :func:`radii_for_objects` sweeps: cumulative sums (``SW`` may be
    consumed), the write-radius prefix and the storage-radius search --
    each resolved through :func:`repro.kernels.dispatch`, so the same
    call sites run the numpy reference or its bit-identical compiled
    twin depending on the active kernel mode.  Keeping the stack
    single-sourced is what keeps the bit-parity contract between the
    per-object and batched paths a structural property.  ``integral``
    (every weight an integer count) lets the numpy storage kernel solve
    each row at its crossing breakpoint instead of bisecting it.
    """
    CW, CWD = dispatch("radii_cums")(SD, SW)
    if total_writes > 0:
        b = SD.shape[0]
        z = np.full(b, float(total_writes))
        rw = dispatch("radii_prefix")(SD, CW, CWD, z, total) / total_writes
    else:
        rw = np.zeros(SD.shape[0])
    storage = dispatch("radii_storage")
    if integral and active_impl("radii_storage") == "numpy":
        rs, zs = storage(SD, CW, CWD, costs, total, integral=True)
    else:  # the compiled twin bisects every row, to the same (rs, zs)
        rs, zs = storage(SD, CW, CWD, costs, total)
    return rw, rs, zs
