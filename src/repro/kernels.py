"""Compiled hot kernels behind a tiny dispatch registry.

Profiling the catalog pipeline shows a handful of inner loops dominating
wall clock once the algorithmic batching (chunked engine, shared radii
sweep, lazy backend) is in place:

* the radii prefix-sum state (``cumsum`` rows) and the vectorized
  breakpoint searches of :mod:`repro.core.radii`,
* the phase 2 nearest-copy sweep and the phase 3 chunked deletion sweep
  of :mod:`repro.core.approx`,
* :class:`~repro.graphs.backend.LazyMetric`'s small-set reductions
  (``nearest_in_set`` / ``dist_to_set`` argmin/min over a row block; the
  batched Dijkstra row *expansion* itself already runs compiled inside
  scipy and needs no help here).

This module holds, for each such kernel, the **numpy reference
implementation** (the tested source of truth -- the exact arithmetic the
rest of the library was validated against) and, when `numba
<https://numba.pydata.org>`_ is importable, an ``@njit(cache=True)``
twin that replays the identical operations in the identical order, so
the two are *bit-identical* -- never "close enough".  The property suite
(``tests/test_kernels.py``) asserts exact equality on every kernel.

Dispatch
--------
Callers fetch the active implementation through :func:`dispatch`::

    radii_cums = dispatch("radii_cums")
    CW, CWD = radii_cums(SD, SW)

Which implementation is active follows the *kernel mode*:

``"auto"``
    numba when importable, numpy otherwise (the default).
``"numpy"``
    always the reference implementation.
``"numba"``
    request the compiled path; **degrades to numpy with a provenance
    note** when numba is missing (an absent accelerator must never turn
    into an ``ImportError`` at placement time -- the CI fallback leg
    runs exactly this configuration).

The mode is process-global (:func:`set_kernel_mode`), with a
:func:`kernel_mode` context manager for scoped overrides -- that is how
:class:`repro.engine.PlacementEngine` applies its ``kernels`` knob
around each batch without threading a parameter through every helper
signature.  :func:`kernel_provenance` reports the requested mode, numba
availability and the per-kernel active implementation; strategies embed
it in :class:`~repro.api.PlanReport` extras.

Why bit-identity is feasible: numpy's ``cumsum``/``add.accumulate`` is a
*sequential* left-to-right accumulation (not pairwise), numba compiles
without fastmath by default (strict IEEE-754, no FMA contraction or
reassociation), and every search/threshold below is a pure comparison.
Replaying the same operations in the same order therefore produces the
same bits, which is what lets the fast path be a pure wall-clock choice
with zero numerical surface.  One reference takes a shortcut its twin
does not: with integer request counts the storage-radius kernel solves
each row at its crossing breakpoint instead of bisecting, and the twin
keeps bisecting.  They still agree bit for bit, because the crossing is
accepted only where the bisection's own prefix arithmetic confirms it
(see :func:`_storage_crossing`).
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

__all__ = [
    "KERNEL_MODES",
    "PHASE2_FACTOR",
    "KERNEL_NAMES",
    "dispatch",
    "get_kernel_mode",
    "set_kernel_mode",
    "kernel_mode",
    "kernel_provenance",
    "numba_available",
]

#: Valid values of the ``kernels`` knob (:class:`repro.config.PlanConfig`).
KERNEL_MODES = ("auto", "numpy", "numba")

#: Phase 2's threshold (Section 2.2): a node whose nearest copy is
#: farther than ``PHASE2_FACTOR * rs(v)`` stores a copy.  Phase 2 and the
#: radii sweep's settle rule (:func:`repro.core.radii.radii_for_objects`)
#: both read it, so the rule cannot drift from the test it predicts.
PHASE2_FACTOR = 5.0


# ----------------------------------------------------------------------
# numpy reference implementations
# ----------------------------------------------------------------------
def _radii_cums_numpy(SD: np.ndarray, SW: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise cumulative weights / weighted distances of sorted state.

    ``SW`` may be consumed in place (callers discard it); returns
    ``(CW, CWD)`` with ``CW[r, j] = sum_{t<=j} SW[r, t]`` and
    ``CWD[r, j] = sum_{t<=j} SW[r, t] * SD[r, t]``.
    """
    CWD = SW * SD
    np.cumsum(CWD, axis=1, out=CWD)
    CW = np.cumsum(SW, axis=1, out=SW)
    return CW, CWD


def _prefix_rows_numpy(
    SD: np.ndarray, CW: np.ndarray, CWD: np.ndarray, z: np.ndarray, total: float
) -> np.ndarray:
    """Vectorized ``P_v(z)`` with a per-row ``z``: exactly
    :func:`repro.core.radii._prefix_from_cums` replayed on every row."""
    b, size = SD.shape
    z = np.minimum(np.asarray(z, dtype=float), total)
    # searchsorted(cw, z, 'left') per row == count of entries < z
    i = np.minimum((CW < z[:, None]).sum(axis=1), size - 1)
    r = np.arange(b)
    prev_w = np.where(i > 0, CW[r, np.maximum(i - 1, 0)], 0.0)
    prev_wd = np.where(i > 0, CWD[r, np.maximum(i - 1, 0)], 0.0)
    out = prev_wd + (z - prev_w) * SD[r, i]
    return np.where(z <= 0, 0.0, out)


def _storage_radii_rows_numpy(
    SD: np.ndarray,
    CW: np.ndarray,
    CWD: np.ndarray,
    costs: np.ndarray,
    total: float,
    integral: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized ``(rs, zs)`` over a block of nodes.

    Bit-faithful to :func:`repro.core.radii._storage_radius_from_cums`
    per row: the same early-outs, the same storage number (the smallest
    integer ``z >= 1`` with ``P_v(z) > cs``, the scalar binary search's
    answer) and the same interval formulas, just evaluated for every row
    of the block at once instead of through one Python call per node.

    ``integral`` says every request weight is an integer count.  Then
    the storage number is solved at each row's crossing breakpoint (see
    :func:`_storage_crossing`) and only rows that check fails keep the
    per-row bisection; fractional weights bisect every row.  The
    compiled twin always bisects, which returns the same ``(rs, zs)``.
    """
    b = SD.shape[0]
    n_req = int(math.ceil(total))
    if n_req == 0:
        return np.full(b, np.inf), np.full(b, max(n_req, 1), dtype=int)

    p_total = _prefix_rows_numpy(SD, CW, CWD, np.full(b, float(total)), total)
    never = p_total <= costs  # storage never amortizes on these rows

    lo = np.ones(b, dtype=np.int64)
    hi = np.full(b, n_req, dtype=np.int64)
    hi[never] = 1
    p_lo = p_hi = None
    if integral and total <= 2.0**53:
        rows, z, p_zm1, p_z = _storage_crossing(SD, CW, CWD, costs, ~never)
        lo[rows] = hi[rows] = z
        if rows.size == b - int(never.sum()):
            # every amortizing row crossed: reuse its two prefixes below
            p_lo = np.zeros(b)
            p_hi = np.zeros(b)
            p_lo[rows] = p_zm1
            p_hi[rows] = p_z

    # binary search the smallest integer z >= 1 with P_v(z) > cs, exactly
    # as the scalar loop does; converged (and `never`) rows stay inactive.
    while True:
        active = lo < hi
        if not active.any():
            break
        mid = (lo + hi) // 2
        pm = _prefix_rows_numpy(SD, CW, CWD, mid.astype(float), total)
        go_hi = active & (pm > costs)
        hi = np.where(go_hi, mid, hi)
        lo = np.where(active & ~go_hi, mid + 1, lo)
    zs = lo

    zm1 = np.maximum(zs - 1, 1)
    z_hi = np.minimum(zs.astype(float), total)
    if p_lo is None:
        p_lo = _prefix_rows_numpy(SD, CW, CWD, (zs - 1).astype(float), total)
        p_hi = _prefix_rows_numpy(SD, CW, CWD, z_hi, total)
    d_lo = np.where(zs > 1, p_lo / zm1, 0.0)
    d_hi = p_hi / z_hi
    lower = np.maximum(d_lo, costs / zs)
    upper = np.where(zs > 1, np.minimum(d_hi, costs / zm1), d_hi)
    # The intersection is provably non-empty; guard against float slack.
    upper = np.maximum(upper, lower)
    rs = np.where(upper > lower, 0.5 * (lower + upper), lower)
    rs = np.where(never, np.inf, rs)
    zs = np.where(never, max(n_req, 1), zs)
    return rs, zs.astype(int)


def _storage_crossing(
    SD: np.ndarray,
    CW: np.ndarray,
    CWD: np.ndarray,
    costs: np.ndarray,
    amortizes: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Storage numbers of integer-weight rows, solved at their crossing.

    Per row, ``j = count(CWD <= cs)`` is the first breakpoint whose
    cumulative weighted distance exceeds ``cs``, so the crossing lies in
    segment ``j``: integers ``z`` in ``(CW[j-1], CW[j]]``, where the
    prefix search index is ``j`` and ``P(z) = CWD[j-1] + (z - CW[j-1]) *
    SD[j]`` is exactly :func:`_prefix_rows_numpy`'s arithmetic with no
    count pass.  The closed form ``z = floor(CW[j-1] + (cs - CWD[j-1]) /
    SD[j]) + 1``, corrected by one step where rounding put it on the
    wrong side (a knife edge: ``cs = 3 * 0.7`` gives ``z = 3`` with
    ``P(3) == cs``), is accepted only where ``P(z - 1) <= cs < P(z)``.

    With integer weights the computed ``P`` is non-decreasing over the
    integers: ``CW`` differences are exact, so at a breakpoint the formula
    reproduces ``CWD`` exactly (zero weights add exactly ``0.0``, so
    ``P(CW[j-1]) == CWD[j-1]`` from either side), and inside a segment
    the rounding of ``(z - CW[j-1]) * SD[j]`` is monotone in ``z``.  An
    accepted ``z`` is therefore the first crossing, which is what the
    bisection returns.

    Returns the accepted row indices, their ``zs`` and their
    ``P(zs - 1)`` and ``P(zs)``; every other row of ``amortizes`` is
    left to the bisection.
    """
    size = SD.shape[1]
    j_all = (CWD <= costs[:, None]).sum(axis=1)
    r = np.flatnonzero(amortizes & (j_all < size))
    j = j_all[r]
    sd = SD[r, j]  # > 0: CWD[j] > cs >= CWD[j-1] needs SW[j] * SD[j] > 0
    cs = costs[r]
    prev = np.maximum(j - 1, 0)
    pw = np.where(j > 0, CW[r, prev], 0.0)
    pwd = np.where(j > 0, CWD[r, prev], 0.0)
    cw = CW[r, j]

    def prefix(z):
        return np.where(z <= 0, 0.0, pwd + (z - pw) * sd)

    with np.errstate(over="ignore"):
        # an overflowing quotient only means the crossing is the
        # segment's last integer, which the clip below lands on
        z = np.floor(pw + (cs - pwd) / sd) + 1.0
    z = np.clip(z, pw + 1.0, cw)
    p_z, p_zm1 = prefix(z), prefix(z - 1.0)
    step = np.where(p_z <= cs, 1.0, np.where(p_zm1 > cs, -1.0, 0.0))
    z = np.clip(z + step, pw + 1.0, cw)
    p_z, p_zm1 = prefix(z), prefix(z - 1.0)
    ok = (p_zm1 <= cs) & (cs < p_z)
    return r[ok], z[ok].astype(np.int64), p_zm1[ok], p_z[ok]


def _phase2_sweep_numpy(
    dts: np.ndarray, rs: np.ndarray, dist: np.ndarray
) -> np.ndarray:
    """Phase-2 sweep over a dense distance matrix.

    ``dts`` (the nearest-copy vector) is updated in place; returns the
    node indices that received a new copy, in scan order.  Candidates
    are fixed from the *initial* ``dts`` (adding copies only shrinks
    nearest-copy distances) and re-checked at their turn -- the exact
    loop :func:`repro.core.approx.phase2_add_copies` always ran.
    """
    added = []
    for v in np.flatnonzero(dts > PHASE2_FACTOR * rs):
        v = int(v)
        if dts[v] > PHASE2_FACTOR * rs[v]:
            added.append(v)
            np.minimum(dts, dist[v], out=dts)
    return np.asarray(added, dtype=np.int64)


def _phase3_sweep_numpy(
    rows: np.ndarray, live: np.ndarray, u_bound: np.ndarray, alive: np.ndarray
) -> None:
    """Phase-3 deletion sweep over one chunk of scanned holders.

    ``rows[r]`` holds the distances from scanned holder ``live[r]``
    (a position into the scan order) to every holder; ``alive`` is
    updated in place.  The scanned holder never deletes itself and
    holders deleted earlier in the chunk stop scanning.
    """
    for r in range(live.size):
        i = int(live[r])
        if not alive[i]:
            continue
        doomed = alive & (rows[r] <= u_bound)
        doomed[i] = False
        alive[doomed] = False


def _nearest_reduce_numpy(
    sub: np.ndarray, idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Column-wise argmin reduction of a ``(k, n)`` row block: per node,
    the nearest target (first = smallest-index minimiser) and its
    distance."""
    arg = sub.argmin(axis=0)
    return idx[arg], sub[arg, np.arange(sub.shape[1])]


def _dist_reduce_numpy(sub: np.ndarray) -> np.ndarray:
    """Column-wise min reduction of a ``(k, n)`` row block."""
    return sub.min(axis=0)


#: Kernel name -> numpy reference implementation (always present).
_NUMPY_IMPLS = {
    "radii_cums": _radii_cums_numpy,
    "radii_prefix": _prefix_rows_numpy,
    "radii_storage": _storage_radii_rows_numpy,
    "phase2_sweep": _phase2_sweep_numpy,
    "phase3_sweep": _phase3_sweep_numpy,
    "nearest_reduce": _nearest_reduce_numpy,
    "dist_reduce": _dist_reduce_numpy,
}

#: The registry's kernel names, for introspection and tests.
KERNEL_NAMES = tuple(sorted(_NUMPY_IMPLS))


# ----------------------------------------------------------------------
# numba implementations (built lazily, only if numba imports)
# ----------------------------------------------------------------------
_NUMBA_IMPLS: dict = {}
_NUMBA_STATE: bool | None = None  # None = not probed yet


def numba_available() -> bool:
    """True when the numba accelerator can be imported (cached probe)."""
    global _NUMBA_STATE
    if _NUMBA_STATE is None:
        try:
            _build_numba_impls()
            _NUMBA_STATE = True
        except Exception:  # ImportError and any jit-decoration failure
            _NUMBA_STATE = False
            _NUMBA_IMPLS.clear()
    return _NUMBA_STATE


def _build_numba_impls() -> None:
    """Define and register the ``@njit`` twins (raises if numba is absent).

    Every function below replays its numpy reference operation-for-
    operation: sequential accumulation for the cumsums, the same
    searchsorted index, the same branch structure in the binary search
    and interval arithmetic.  No ``fastmath``, so the compiled code is
    IEEE-strict and the outputs match the reference bit for bit.
    """
    from numba import njit

    @njit(cache=True)
    def radii_cums(SD, SW):
        b, k = SD.shape
        CW = np.empty((b, k))
        CWD = np.empty((b, k))
        for r in range(b):
            aw = 0.0
            awd = 0.0
            for j in range(k):
                w = SW[r, j]
                aw += w
                awd += w * SD[r, j]
                CW[r, j] = aw
                CWD[r, j] = awd
        return CW, CWD

    @njit(cache=True)
    def _prefix_one(sd, cw, cwd, z, total):
        # scalar P_v(z), identical to radii._prefix_from_cums
        if z <= 0.0:
            return 0.0
        if z > total:
            z = total
        i = np.searchsorted(cw, z)
        if i >= sd.size:
            i = sd.size - 1
        prev_w = cw[i - 1] if i > 0 else 0.0
        prev_wd = cwd[i - 1] if i > 0 else 0.0
        return prev_wd + (z - prev_w) * sd[i]

    @njit(cache=True)
    def radii_prefix(SD, CW, CWD, z, total):
        b = SD.shape[0]
        out = np.empty(b)
        for r in range(b):
            out[r] = _prefix_one(SD[r], CW[r], CWD[r], z[r], total)
        return out

    @njit(cache=True)
    def radii_storage(SD, CW, CWD, costs, total):
        b = SD.shape[0]
        rs = np.empty(b)
        zs = np.empty(b, np.int64)
        n_req = int(math.ceil(total))
        if n_req == 0:
            for r in range(b):
                rs[r] = np.inf
                zs[r] = max(n_req, 1)
            return rs, zs
        for r in range(b):
            sd = SD[r]
            cw = CW[r]
            cwd = CWD[r]
            cost = costs[r]
            if _prefix_one(sd, cw, cwd, total, total) <= cost:
                rs[r] = np.inf
                zs[r] = max(n_req, 1)
                continue
            lo = 1
            hi = n_req
            while lo < hi:
                mid = (lo + hi) // 2
                if _prefix_one(sd, cw, cwd, float(mid), total) > cost:
                    hi = mid
                else:
                    lo = mid + 1
            z = lo
            zm1 = max(z - 1, 1)
            if z > 1:
                d_lo = _prefix_one(sd, cw, cwd, float(z - 1), total) / zm1
            else:
                d_lo = 0.0
            z_hi = min(float(z), total)
            d_hi = _prefix_one(sd, cw, cwd, z_hi, total) / z_hi
            lower = max(d_lo, cost / z)
            upper = min(d_hi, cost / zm1) if z > 1 else d_hi
            if upper < lower:
                upper = lower
            rs[r] = 0.5 * (lower + upper) if upper > lower else lower
            zs[r] = z
        return rs, zs

    @njit(cache=True)
    def phase2_sweep(dts, rs, dist):
        n = dts.size
        cand = np.empty(n, np.int64)
        m = 0
        for v in range(n):
            if dts[v] > PHASE2_FACTOR * rs[v]:
                cand[m] = v
                m += 1
        added = np.empty(m, np.int64)
        cnt = 0
        for t in range(m):
            v = cand[t]
            if dts[v] > PHASE2_FACTOR * rs[v]:
                added[cnt] = v
                cnt += 1
                row = dist[v]
                for j in range(n):
                    if row[j] < dts[j]:
                        dts[j] = row[j]
        return added[:cnt]

    @njit(cache=True)
    def phase3_sweep(rows, live, u_bound, alive):
        k = alive.size
        for r in range(live.size):
            i = live[r]
            if not alive[i]:
                continue
            for j in range(k):
                if alive[j] and j != i and rows[r, j] <= u_bound[j]:
                    alive[j] = False

    @njit(cache=True)
    def nearest_reduce(sub, idx):
        k, n = sub.shape
        out_idx = np.empty(n, np.int64)
        out_dist = np.empty(n)
        for j in range(n):
            best = sub[0, j]
            bi = 0
            for r in range(1, k):
                v = sub[r, j]
                if v < best:  # strict: the first minimiser wins, as argmin
                    best = v
                    bi = r
            out_idx[j] = idx[bi]
            out_dist[j] = best
        return out_idx, out_dist

    @njit(cache=True)
    def dist_reduce(sub):
        k, n = sub.shape
        out = np.empty(n)
        for j in range(n):
            best = sub[0, j]
            for r in range(1, k):
                v = sub[r, j]
                if v < best:
                    best = v
            out[j] = best
        return out

    _NUMBA_IMPLS.update(
        radii_cums=radii_cums,
        radii_prefix=radii_prefix,
        radii_storage=radii_storage,
        phase2_sweep=phase2_sweep,
        phase3_sweep=phase3_sweep,
        nearest_reduce=nearest_reduce,
        dist_reduce=dist_reduce,
    )


# ----------------------------------------------------------------------
# mode + dispatch
# ----------------------------------------------------------------------
_MODE = "auto"


def get_kernel_mode() -> str:
    """The process-global kernel mode (``auto`` | ``numpy`` | ``numba``)."""
    return _MODE


def set_kernel_mode(mode: str) -> str:
    """Set the global kernel mode; returns the previous one."""
    global _MODE
    if mode not in KERNEL_MODES:
        raise ValueError(f"unknown kernel mode {mode!r}; choose from {KERNEL_MODES}")
    previous = _MODE
    _MODE = mode
    return previous


@contextlib.contextmanager
def kernel_mode(mode: str):
    """Scoped kernel-mode override (restores the previous mode on exit)."""
    previous = set_kernel_mode(mode)
    try:
        yield
    finally:
        set_kernel_mode(previous)


def active_impl(name: str, mode: str | None = None) -> str:
    """Which implementation (``"numpy"``/``"numba"``) a dispatch resolves to."""
    if name not in _NUMPY_IMPLS:
        raise KeyError(f"unknown kernel {name!r}; known: {KERNEL_NAMES}")
    mode = _MODE if mode is None else mode
    if mode in ("auto", "numba") and numba_available() and name in _NUMBA_IMPLS:
        return "numba"
    return "numpy"


def dispatch(name: str, mode: str | None = None):
    """The callable implementing kernel ``name`` under the given (or
    current global) mode.  An explicit ``"numba"`` request without numba
    degrades to the numpy reference -- never an import error."""
    if active_impl(name, mode) == "numba":
        return _NUMBA_IMPLS[name]
    return _NUMPY_IMPLS[name]


def kernel_provenance(mode: str | None = None) -> dict:
    """Dispatch provenance for reports: requested mode, availability and
    the per-kernel active implementation.

    Embedded in :class:`~repro.api.PlanReport` extras so an artifact
    records whether its numbers came from the compiled or the reference
    path (and whether an explicit ``numba`` request silently degraded).
    """
    mode = _MODE if mode is None else mode
    available = numba_available()
    info = {
        "mode": mode,
        "numba_available": available,
        "active": {name: active_impl(name, mode) for name in KERNEL_NAMES},
    }
    if mode == "numba" and not available:
        info["note"] = "numba requested but not importable; using numpy reference"
    return info
