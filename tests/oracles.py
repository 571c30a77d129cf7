"""Reference implementations kept only as test oracles.

These are the exhaustive versions of two hot kernels, frozen as they
were before the fast paths replaced them in the library:

* :func:`reference_local_search_ufl` evaluates every swap out-candidate
  exactly in every swap scan (no gain bound filters any of them);
* :func:`reference_storage_radii_rows` finds every storage number by
  the full per-row bisection (no crossing search).

The library must return exactly what these return -- the same open
sets and the same ``(rs, zs)`` bits -- so the property tests in
``tests/test_decisions_pinned.py`` compare the two on adversarial
inputs.
"""

from __future__ import annotations

import math

import numpy as np

from repro.facility.problem import FacilityLocationProblem

_CHUNK_ELEMS = 512 * 1024


def _row_chunk(nc: int) -> int:
    return max(64, _CHUNK_ELEMS // max(nc, 1))


def _chunked_min_cost(dist: np.ndarray, alt: np.ndarray, w: np.ndarray) -> np.ndarray:
    nf, nc = dist.shape
    chunk = _row_chunk(nc)
    out = np.empty(nf)
    for c0 in range(0, nf, chunk):
        blk = slice(c0, min(c0 + chunk, nf))
        out[blk] = np.minimum(dist[blk], alt[None, :]) @ w
    return out


def _chunked_saving(dist: np.ndarray, d1: np.ndarray, w: np.ndarray) -> np.ndarray:
    nf, nc = dist.shape
    chunk = _row_chunk(nc)
    save = np.empty(nf)
    for c0 in range(0, nf, chunk):
        blk = slice(c0, min(c0 + chunk, nf))
        tmp = d1[None, :] - dist[blk]
        np.maximum(tmp, 0.0, out=tmp)
        save[blk] = tmp @ w
    return save


def reference_local_search_ufl(
    problem: FacilityLocationProblem,
    *,
    initial: list[int] | None = None,
    eps: float = 1e-9,
    max_rounds: int = 100_000,
) -> list[int]:
    """Add/drop/swap local search with the exhaustive swap scan."""
    f = problem.open_costs
    w = problem.demands
    dist = problem.dist
    nf, nc = dist.shape

    if initial is None:
        single = f + dist @ w
        open_set = {int(np.argmin(single))}
    else:
        open_set = set(int(i) for i in initial)
        if not open_set:
            raise ValueError("initial open set must be non-empty")

    cols = np.arange(nc)
    for _ in range(max_rounds):
        idx = np.asarray(sorted(open_set), dtype=int)
        sub = dist[idx]
        pos = sub.argmin(axis=0)
        d1 = sub[pos, cols]
        assign = idx[pos]
        if idx.size >= 2:
            sub[pos, cols] = np.inf
            d2 = sub.min(axis=0)
        else:
            d2 = np.full(nc, np.inf)

        current = float(f[idx].sum() + w @ d1)
        threshold = eps * max(current, 1.0) / max(nf, 1)

        best_gain = threshold
        best_move: tuple[str, int, int] | None = None

        save = _chunked_saving(dist, d1, w)
        add_gain = save - f
        add_gain[idx] = -np.inf
        i_add = int(np.argmax(add_gain))
        if add_gain[i_add] > best_gain:
            best_gain = float(add_gain[i_add])
            best_move = ("add", i_add, -1)

        if idx.size >= 2:
            extra = np.bincount(
                np.searchsorted(idx, assign),
                weights=w * (d2 - d1),
                minlength=idx.size,
            )
            drop_gain = f[idx] - extra
            j = int(np.argmax(drop_gain))
            if drop_gain[j] > best_gain:
                best_gain = float(drop_gain[j])
                best_move = ("drop", int(idx[j]), -1)

        closed_mask = np.ones(nf, dtype=bool)
        closed_mask[idx] = False
        if best_move is None and closed_mask.any():
            ALT = np.where(assign[None, :] == idx[:, None], d2[None, :], d1[None, :])
            finite = np.all(np.isfinite(ALT), axis=1)
            base_read = w @ d1
            k = idx.size
            new_cost = np.empty((k, nf))
            chunk = _CHUNK_ELEMS // max(nf * nc, 1)
            if chunk >= 1:
                for t0 in range(0, k, chunk):
                    t1 = min(t0 + chunk, k)
                    tmp = np.minimum(dist[None, :, :], ALT[t0:t1, None, :])
                    new_cost[t0:t1] = (tmp.reshape(-1, nc) @ w).reshape(t1 - t0, nf)
            else:
                for t in range(k):
                    new_cost[t] = _chunked_min_cost(dist, ALT[t], w)
            for t, out in enumerate(idx):
                if not finite[t]:
                    new_cost_rows = dist @ w
                else:
                    new_cost_rows = new_cost[t]
                gain = (base_read - new_cost_rows) + f[out] - f
                gain[~closed_mask] = -np.inf
                i_in = int(np.argmax(gain))
                if gain[i_in] > best_gain:
                    best_gain = float(gain[i_in])
                    best_move = ("swap", int(out), i_in)

        if best_move is None:
            break
        kind, a, b = best_move
        if kind == "add":
            open_set.add(a)
        elif kind == "drop":
            open_set.discard(a)
        else:
            open_set.discard(a)
            open_set.add(b)

    return sorted(open_set)


def _prefix_rows(
    SD: np.ndarray, CW: np.ndarray, CWD: np.ndarray, z: np.ndarray, total: float
) -> np.ndarray:
    b, size = SD.shape
    z = np.minimum(np.asarray(z, dtype=float), total)
    i = np.minimum((CW < z[:, None]).sum(axis=1), size - 1)
    r = np.arange(b)
    prev_w = np.where(i > 0, CW[r, np.maximum(i - 1, 0)], 0.0)
    prev_wd = np.where(i > 0, CWD[r, np.maximum(i - 1, 0)], 0.0)
    out = prev_wd + (z - prev_w) * SD[r, i]
    return np.where(z <= 0, 0.0, out)


def reference_storage_radii_rows(
    SD: np.ndarray,
    CW: np.ndarray,
    CWD: np.ndarray,
    costs: np.ndarray,
    total: float,
) -> tuple[np.ndarray, np.ndarray]:
    """``(rs, zs)`` per row by the full bisection over ``[1, ceil(total)]``."""
    b = SD.shape[0]
    n_req = int(math.ceil(total))
    if n_req == 0:
        return np.full(b, np.inf), np.full(b, max(n_req, 1), dtype=int)

    p_total = _prefix_rows(SD, CW, CWD, np.full(b, float(total)), total)
    never = p_total <= costs

    lo = np.ones(b, dtype=np.int64)
    hi = np.full(b, n_req, dtype=np.int64)
    hi[never] = 1
    while True:
        active = lo < hi
        if not active.any():
            break
        mid = (lo + hi) // 2
        pm = _prefix_rows(SD, CW, CWD, mid.astype(float), total)
        go_hi = active & (pm > costs)
        hi = np.where(go_hi, mid, hi)
        lo = np.where(active & ~go_hi, mid + 1, lo)
    zs = lo

    zm1 = np.maximum(zs - 1, 1)
    p_lo = _prefix_rows(SD, CW, CWD, (zs - 1).astype(float), total)
    d_lo = np.where(zs > 1, p_lo / zm1, 0.0)
    z_hi = np.minimum(zs.astype(float), total)
    d_hi = _prefix_rows(SD, CW, CWD, z_hi, total) / z_hi
    lower = np.maximum(d_lo, costs / zs)
    upper = np.where(zs > 1, np.minimum(d_hi, costs / zm1), d_hi)
    upper = np.maximum(upper, lower)
    rs = np.where(upper > lower, 0.5 * (lower + upper), lower)
    rs = np.where(never, np.inf, rs)
    zs = np.where(never, max(n_req, 1), zs)
    return rs, zs.astype(int)
