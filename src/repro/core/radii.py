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

Given each object's phase-1 copies (``copies=``), the dense support
sweep goes further and computes rows only where a later phase can read
them.  Phase 3 reads ``rw`` only at copy holders, and phase 2 reads
``rs(v)`` only in its test ``dts(v) > 5 * rs(v)``.  Two caps on the
storage number, neither of which sorts a row, prove that test false at
most nodes; those nodes are *settled* and hold ``rs = +inf``,
``rw = NaN`` and ``zs = 0``.  The copy holders and every node the caps
leave open get exact rows -- the same bits, because every kernel here is
an independent per-row computation.  On the dense benchmark catalog
99% of (object, node) pairs settle, and nearly all the rest are copy
holders.  Callers that pass no copies, such as :func:`radii_for_object`
and the sharded stitch, get exact radii at every node.

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
from typing import Sequence

import numpy as np

from ..graphs.metric import SYMMETRY_TOL, TRIANGLE_TOL
from ..kernels import (
    PHASE2_FACTOR,
    _prefix_rows_numpy,
    _radii_cums_numpy,
    _storage_radii_rows_numpy,
)

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

#: Request totals up to this are exact float64 integers: cumulative counts
#: and the storage kernel's crossing search are exact below it, which the
#: storage-number caps of :func:`radii_for_objects` rely on.
_EXACT_COUNTS = 2.0**53

#: The nearest-request cap passes over at most this many demand nodes
#: nearest each open node.  On the dense benchmark catalog (seed 3) one,
#: two, three and four passes, each followed by the nearest-copy cap,
#: settle 89.3%, 97.1%, 98.9% and 99.05% of the (object, node) pairs;
#: 99.07% cannot fire at all.
_NEAREST_PASSES = 4


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
    breakpoint searches run as the per-row kernels of
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
    copies: Sequence[Sequence[int]] | None = None,
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

    ``copies``, one phase-1 copy set per frequency row, restricts the
    sweep to the entries phases 2 and 3 can read (see
    :func:`_nodes_phases_read`).  It applies to objects of the dense
    single-sweep path: integer counts, a demand support that is a proper
    subset of the nodes, a backend with a ``dist`` matrix.  For those
    objects the radii are exact -- the same bits as without ``copies`` --
    at the copy holders and at every node a storage-number cap leaves
    open; every other node is *settled*: phase 2 can never store a copy
    there, and it holds ``rs = +inf``, ``rw = NaN`` and ``zs = 0``.  Every
    other object, and every call without ``copies``, gets exact radii at
    every node.

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
    if copies is not None and (len(copies) != m or not all(len(c) for c in copies)):
        raise ValueError(f"copies must hold one non-empty copy set per object ({m})")

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
    # is purely a batching choice -- and so is computing only a subset of
    # the rows.
    dense = getattr(metric, "dist", None)
    if dense is not None:
        single = [
            i for i in live
            if use_support(i) and n * supports[i].size <= _SINGLE_SWEEP_ELEMS
        ]
        for i in single:
            supp = supports[i]
            w = weights[i, supp]
            nodes = slice(None)
            if copies is not None and totals[i] <= _EXACT_COUNTS:
                nodes = _nodes_phases_read(
                    metric, supp, w, storage_costs, totals[i], copies[i]
                )
                RW[i], RS[i], ZS[i] = np.nan, np.inf, 0
            Ds = dense[nodes][:, supp]
            order = np.argsort(Ds, axis=1, kind="stable")
            SD = np.take_along_axis(Ds, order, axis=1)
            RW[i, nodes], RS[i, nodes], ZS[i, nodes] = _radii_from_sorted(
                SD, w[order], storage_costs[nodes], wtotals[i], totals[i], integral
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


def _cap_slack(k: int) -> tuple[float, float]:
    """``(sigma, rho)``: the slack the storage-number caps of a ``k``-node
    demand support budget for.

    Write ``D`` for the stored distance matrix, ``P_v`` for the exact
    prefix sums over row ``v``'s stored entries and ``P^_v`` for what the
    storage kernel computes.  A cap ``Z`` must guarantee ``P^_v(Z) > cs``,
    so that the kernel's storage number -- the first integer where
    ``P^_v`` exceeds ``cs``, which is non-decreasing over the integers for
    counts below :data:`_EXACT_COUNTS` -- is at most ``Z``.  Three facts:

    * **Kernel rounding.**  Counts are exact.  A ``CWD`` entry is a
      recursive sum of at most ``k`` rounded products of non-negative
      numbers, and ``P^_v(z)`` adds one product and one sum, so with
      ``g = gamma_{k+8} = (k + 8) u / (1 - (k + 8) u)`` (``u = 2^-53``;
      the ``+ 8`` leaves room for the caps' own roundings)
      ``P^_v(z) >= (1 - g) P_v(z)`` and ``CWD^[j] <= (1 + g) CWD[j]`` --
      the ``gamma_n`` bound that :func:`repro.facility.local_search._swap_margin`
      uses.
    * **Metric slack.**  :meth:`repro.graphs.metric.Metric._validate`
      admits ``|D[v, s] - D[s, v]| <= SYMMETRY_TOL (1 + D[s, v])`` and
      ``D[u, s] <= via + TRIANGLE_TOL (1 + via)``, ``via <= D[u, v] +
      D[v, s]``.  With ``t = max(SYMMETRY_TOL, TRIANGLE_TOL)`` and the
      check's own few roundings, ``D[v, s] >= (1 - 2t) D[s, v] - 2t`` and
      ``D[u, s] <= (1 + 2t)(D[u, v] + D[v, s]) + 2t``.  A shortest-path
      closure built without validation is off the exact closure only by
      the rounding of its path sums, orders of magnitude below ``t``.
    * **The caps' own arithmetic** is a fixed expression of at most seven
      roundings, a relative ``(1 - u)^7``.

    ``sigma = 4t`` is twice the metric slack, and ``rho = sigma + 4g``.

    *Cap (a)*, one nearest demand node per pass.  ``y_s = max(0, (1 -
    sigma) D[s, v] - sigma)`` is at most ``max(0, (1 - 2t) D[s, v] - 2t)
    <= D[v, s]`` (the doubled ``sigma`` covers the rounding of ``y``),
    and it is monotone in ``D[s, v]``, so the passes take the demand
    nodes in ascending ``y``.  With ``W`` and ``S`` the weight and the
    weighted ``y`` of the nodes already passed, every other request is
    at least ``y_j`` (the current node's) from ``v``, so
    ``P_v(z) >= S + (z - W) y_j`` for ``z >= W``.  Then
    ``P^_v(z) >= (1 - g)(S + (z - W) y_j) > cs`` once
    ``z - W > (cs / (1 - g) - S) / y_j``.  The computed
    ``T = cs (1 + rho)`` is at least ``cs / (1 - g)``, and
    ``S^ (1 - rho / 2)`` is at most ``S`` (``S^ <= (1 + g) S``), so
    ``W + floor(q (1 + rho)) + 1`` with ``q = (T - S^ (1 - rho / 2)) /
    y_j`` exceeds that bound: the subtraction, the division and the
    product lose at most ``(1 - u)^4`` against ``1 + rho``.  The first
    pass (``W = S = 0``) is the bound ``P_v(z) >= z y_1`` of the nearest
    request alone.

    *Cap (b)*, from the nearest copy ``u`` with ``c = D[u, v]``: every
    request has ``D[v, s] >= (D[u, s] - 2t) / (1 + 2t) - c``, so at a
    breakpoint ``z = CW_u[j]``
    ``P_v(z) >= (CWD_u[j] - 2t z) / (1 + 2t) - z c`` and, by the kernel
    rounding, ``P^_v(z) > cs`` whenever
    ``CWD^_u[j] > (1 + g)(1 + 2t) / (1 - g) * (cs + z c) + (1 + g) 2t z``.
    The computed test ``CWD^_u[j] > (1 + rho)(cs + z (c + sigma))``
    implies it: ``(1 + rho)(1 - u)^7`` exceeds ``(1 + g)(1 + 2t) / (1 -
    g)`` by about ``2t + 2g``, and ``(1 + rho) sigma > (1 + g) 2t``.
    """
    t = max(SYMMETRY_TOL, TRIANGLE_TOL)
    g = (k + 8) * 2.0**-53 / (1.0 - (k + 8) * 2.0**-53)
    sigma = 4.0 * t
    return sigma, sigma + 4.0 * g


def _nodes_phases_read(
    metric,
    supp: np.ndarray,
    w: np.ndarray,
    costs: np.ndarray,
    total: float,
    copies: Sequence[int],
) -> np.ndarray:
    """The nodes whose radii phases 2 and 3 can read, sorted.

    Phase 3 reads ``rw`` only at copy holders, and phase 2 reads ``rs(v)``
    only in its test ``dts(v) > PHASE2_FACTOR * rs(v)``, where ``dts`` is
    the distance to the nearest copy.  Phase 2 only shrinks ``dts``, so a
    node that fails the test against the phase-1 ``copies`` never stores a
    copy, and every final holder is a phase-1 copy or a node that passed.

    The storage kernel returns ``rs >= cs / zs`` (its interval's lower
    end; the midpoint never rounds below it), so a cap ``Z >= zs`` gives
    ``rs >= cs / Z`` in floating point too.  A node that is not a copy
    holder and has ``dts <= PHASE2_FACTOR * (cs / Z)`` is *settled*.  The
    rest -- the holders and every node the caps leave open -- get exact
    rows.  ``Z`` is the smaller of two caps on ``zs``, neither of which
    sorts a row (margins derived in :func:`_cap_slack`):

    * **(a) nearest requests**: every request is at least ``d_1`` (the
      distance to the nearest demand node) from ``v``, so
      ``P_v(z) >= z d_1`` and ``zs <= floor(cs / d_1) + 1``, capped at
      the request count ``ceil(N)``.  Where that leaves a node open, the
      next pass adds the nearest demand node's exact share: with ``w_1``
      requests at ``d_1`` and every other one at least ``d_2`` away,
      ``P_v(z) >= w_1 d_1 + (z - w_1) d_2``, and so on for up to
      :data:`_NEAREST_PASSES` nodes.  Each pass is one argmin over the
      support's rows of the nodes still open; no row is sorted.
    * **(b) nearest copy**, evaluated only where (a) leaves a node open:
      with ``u`` the copy holder nearest ``v`` and ``c = D[u, v]``, the
      triangle inequality gives ``P_v(z) >= P_u(z) - z c``.  ``u``'s
      sorted row is needed anyway (phase 3 reads ``rw(u)``).  At ``u``'s
      breakpoints ``CWD_u[j] - c CW_u[j]`` first falls, then rises, so
      the indices where it exceeds ``cs`` form a suffix; a vectorized
      bisection finds its first index ``j*`` and ``zs <= CW_u[j*]``.  The
      bisection moves its upper end only to indices it tested above
      ``cs``, so the cap holds even where rounding breaks monotonicity.
    """
    dense = metric.dist
    holders = np.unique(np.asarray(copies, dtype=np.int64))
    sigma, rho = _cap_slack(supp.size)
    n_req = float(math.ceil(total))
    dts = metric.dist_to_set(holders)  # phase 2's own nearest-copy vector
    open_ = np.ones(metric.n, dtype=bool)
    open_[holders] = False

    # cap (a), one nearest demand node per pass.  A[s, v] = D[s, v] reads
    # the support's rows, contiguous where the kernel's row-v columns are
    # strided (sigma covers the asymmetry); a settled node's column leaves
    rest = np.arange(metric.n)
    A = dense[supp]
    T = costs * (1.0 + rho)
    Z = np.full(metric.n, n_req)
    W = np.zeros(metric.n)  # weight of the demand nodes passed so far
    S = np.zeros(metric.n)  # ... and their weighted distances
    for _ in range(min(_NEAREST_PASSES, supp.size)):
        cols = np.arange(rest.size)
        near = A.argmin(axis=0)
        y = np.maximum((1.0 - sigma) * A[near, cols] - sigma, 0.0)
        A[near, cols] = np.inf
        q = np.full(rest.size, np.inf)
        with np.errstate(over="ignore"):  # an overflow only leaves ceil(N)
            np.divide(np.maximum(T - S * (1.0 - 0.5 * rho), 0.0), y, out=q, where=y > 0)
            Z = np.minimum(Z, W + np.floor(q * (1.0 + rho)) + 1.0)
        W += w[near]
        S += w[near] * y
        keep = open_[rest] & (dts[rest] > PHASE2_FACTOR * (costs[rest] / Z))
        rest, A, T, Z, W, S = rest[keep], A[:, keep], T[keep], Z[keep], W[keep], S[keep]
        if not rest.size:
            break
    unsettled = np.zeros(metric.n, dtype=bool)
    unsettled[rest] = True

    if rest.size:  # cap (b) at the nodes cap (a) leaves open
        H = dense[holders]  # each holder's own row: c = D[u, v]
        C = H[:, rest]
        near = C.argmin(axis=0)
        c = C[near, np.arange(rest.size)] + sigma
        Dh = H[:, supp]
        order = np.argsort(Dh, axis=1, kind="stable")
        CW, CWD = _radii_cums_numpy(np.take_along_axis(Dh, order, axis=1), w[order])
        CW, CWD = CW.ravel(), CWD.ravel()
        cs = costs[rest]
        k = supp.size
        base = near * k
        lo = np.zeros(rest.size, dtype=np.int64)
        hi = np.full(rest.size, k)  # k: no index tested above cs yet
        while True:
            act = np.flatnonzero(lo < hi)
            if not act.size:
                break
            mid = (lo[act] + hi[act]) // 2
            j = base[act] + mid
            above = CWD[j] > (1.0 + rho) * (cs[act] + CW[j] * c[act])
            hi[act[above]] = mid[above]
            lo[act[~above]] = mid[~above] + 1
        capped = hi < k
        Z[capped] = np.minimum(Z[capped], CW[(base + hi)[capped]])
        unsettled[rest] = dts[rest] > PHASE2_FACTOR * (cs / Z)
    unsettled[holders] = True
    return np.flatnonzero(unsettled)


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
    consumed), the write-radius prefix and the storage-radius search of
    :mod:`repro.kernels`.  Keeping the stack single-sourced is what
    keeps the bit-parity contract between the per-object and batched
    paths a structural property.  ``integral`` (every weight an integer
    count) lets the storage kernel solve each row at its crossing
    breakpoint instead of bisecting it.
    """
    CW, CWD = _radii_cums_numpy(SD, SW)
    if total_writes > 0:
        b = SD.shape[0]
        z = np.full(b, float(total_writes))
        rw = _prefix_rows_numpy(SD, CW, CWD, z, total) / total_writes
    else:
        rw = np.zeros(SD.shape[0])
    rs, zs = _storage_radii_rows_numpy(SD, CW, CWD, costs, total, integral=integral)
    return rw, rs, zs
