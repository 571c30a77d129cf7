"""The numpy kernels of the Section 2 hot loops.

Each function here is one vectorized inner loop of the placement
pipeline, split out so the radii sweep, the per-object loop and the
catalog engine all run the same arithmetic:

* the radii prefix-sum state (:func:`_radii_cums_numpy`), the
  per-row prefix ``P_v(z)`` (:func:`_prefix_rows_numpy`) and the
  storage-radius search (:func:`_storage_radii_rows_numpy`, which
  solves integer-count rows at their crossing breakpoint,
  :func:`_storage_crossing`) of :mod:`repro.core.radii`;
* the phase-2 nearest-copy sweep (:func:`_phase2_sweep_numpy`) and the
  phase-3 chunked deletion sweep (:func:`_phase3_sweep_numpy`) of
  :mod:`repro.core.approx`.

Every kernel replays its scalar specification in
:mod:`repro.core.radii` / :mod:`repro.core.approx` bit for bit: numpy's
``cumsum`` accumulates left to right, and every search and threshold is
a pure comparison.  ``tests/test_kernels.py`` checks each kernel
against a scalar reference, and ``tests/test_decisions_pinned.py``
checks the crossing search against the full bisection.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["PHASE2_FACTOR"]

#: Phase 2's threshold (Section 2.2): a node whose nearest copy is
#: farther than ``PHASE2_FACTOR * rs(v)`` stores a copy.  Phase 2 and the
#: radii sweep's settle rule (:func:`repro.core.radii.radii_for_objects`)
#: both read it, so the rule cannot drift from the test it predicts.
PHASE2_FACTOR = 5.0


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
    per-row bisection; fractional weights bisect every row.  Both
    return the same ``(rs, zs)``.
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
