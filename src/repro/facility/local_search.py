"""Local search for UFL: add / drop / swap moves.

Korupolu, Plaxton and Rajaraman (SODA'98, cited by the paper) showed this
classic heuristic is a ``(5 + eps)``-approximation for metric UFL: any
solution that cannot be improved by opening one facility, closing one
facility, or swapping one open facility for a closed one is within a
constant of optimal.  The paper's phase 1 defaults to this solver because
it keeps the overall algorithm *combinatorial* (the headline claim).

Implementation notes (HPC guide style -- measure, then vectorize the hot
loop):

* all candidate *add* gains are evaluated in one numpy expression over the
  full ``(nf, nc)`` distance matrix;
* *drop* gains use the nearest/second-nearest open facility per client
  (one ``bincount``);
* *swap* gains are evaluated per open facility with one vectorized pass
  over all in-candidates, ``O(k * nf * nc)`` per round for ``k`` open;
  when the ``(nf, nc)`` slab fits the scratch budget, consecutive
  out-candidates share one batched reshape + matmul *call* -- the
  catalog regime, where ``nc`` is an object's small demand support and
  per-call overhead would otherwise dominate -- and bigger slabs run one
  scratch-bounded call per out-candidate;
* the swap scan is *bounded* before it is evaluated.  With ``k >= 2``
  open, ``d1``/``d2`` each client's nearest/second-nearest open distance
  and ``A_t`` the clients assigned to ``t``, exactly in real arithmetic

      gain(t, i) = add_gain(i) + drop_gain(t) + extra(t, i),
      extra(t, i) = sum_{j in A_t} w_j * max(0, d2_j - max(d_ij, d1_j)),

  and the round already holds ``add_gain`` and ``drop_gain``, so one
  ``O(nf * nc)`` pass (a weighted one-hot matmul) bounds every swap
  gain.  The bound only *filters*: a call is skipped when every
  out-candidate in it is bounded below the best gain found so far by
  more than a rounding margin, so none of its gains could have been
  selected, and every gain that can win still comes from the exhaustive
  scan's own call.  A call is never split: a BLAS matrix-vector product
  may round a row differently depending on which rows share the call,
  so evaluating a subset of a batch would not be bit-safe, while
  skipping a whole call needs no assumption about BLAS.  The winner is
  picked from the ``(k, nf)`` gain matrix exactly as the exhaustive scan
  picks it (first out-candidate, then first facility, strictly
  greater); a skipped row holds ``-inf`` and can never be picked;
* moves are prioritized: the best add/drop move is taken when one
  improves, and the ``O(k * nf * nc)`` swap scan only runs in rounds
  where neither does.  The search still terminates only when *no* move of
  any kind improves, so the result is a genuine add/drop/swap local
  optimum and the ``5 + eps`` factor is untouched -- but building a
  ``k``-facility solution costs ``O(k * nf * nc)`` instead of
  ``O(k^2 * nf * nc)``, which is what makes phase 1 usable on
  10k-client instances;
* an ``eps``-scaled acceptance threshold, the standard device that makes
  the iteration count polynomial while degrading the factor only to
  ``5 + eps``.
"""

from __future__ import annotations

import numpy as np

from .problem import FacilityLocationProblem

__all__ = ["local_search_ufl"]

#: Scratch budget (in floats) of the big (nf, nc) kernels: facility rows
#: are processed in chunks of ``max(64, _CHUNK_ELEMS // nc)`` rows, so the
#: temporary stays ~4 MB while narrow client sets (sparse-demand catalog
#: objects) run in one numpy call instead of one per 64 rows.  The split
#: also fixes which rows share a BLAS call, and a row's last bit can
#: depend on that, so it is part of the arithmetic: changing the budget
#: can move a tie-break.
_CHUNK_ELEMS = 512 * 1024

#: Machine epsilon of float64 (``2**-52``), the unit of the swap margin.
_EPS = float(np.finfo(float).eps)


def _row_chunk(nc: int) -> int:
    return max(64, _CHUNK_ELEMS // max(nc, 1))


def _chunked_min_cost(dist: np.ndarray, alt: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``out[i] = sum_j w_j * min(dist_ij, alt_j)`` without an
    ``(nf, nc)`` temporary."""
    nf, nc = dist.shape
    chunk = _row_chunk(nc)
    out = np.empty(nf)
    for c0 in range(0, nf, chunk):
        blk = slice(c0, min(c0 + chunk, nf))
        out[blk] = np.minimum(dist[blk], alt[None, :]) @ w
    return out


def _chunked_saving(dist: np.ndarray, d1: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``save[i] = sum_j w_j * max(d1_j - dist_ij, 0)`` without an
    ``(nf, nc)`` temporary."""
    nf, nc = dist.shape
    chunk = _row_chunk(nc)
    save = np.empty(nf)
    for c0 in range(0, nf, chunk):
        blk = slice(c0, min(c0 + chunk, nf))
        tmp = d1[None, :] - dist[blk]
        np.maximum(tmp, 0.0, out=tmp)
        save[blk] = tmp @ w
    return save


def _swap_bounds(
    dist: np.ndarray,
    w: np.ndarray,
    d1: np.ndarray,
    d2: np.ndarray,
    pos: np.ndarray,
    add_gain: np.ndarray,
    drop_gain: np.ndarray,
) -> np.ndarray:
    """``ub[t] = drop_gain(t) + max_i (add_gain(i) + extra(t, i))``: the
    swap identity's value of out-candidate ``t``'s best swap (``pos[j]``
    is client ``j``'s assigned position in the open set; ``add_gain`` is
    ``-inf`` on open facilities).  One pass over ``dist`` in the
    scratch-bounded row chunks of the add pass."""
    nf, nc = dist.shape
    onehot = np.zeros((nc, drop_gain.size))
    onehot[np.arange(nc), pos] = w  # extra(t, i) = E[i] @ onehot[:, t]
    best = np.full(drop_gain.size, -np.inf)
    chunk = _row_chunk(nc)
    for c0 in range(0, nf, chunk):
        blk = slice(c0, min(c0 + chunk, nf))
        tmp = np.maximum(dist[blk], d1[None, :])
        np.subtract(d2[None, :], tmp, out=tmp)
        np.maximum(tmp, 0.0, out=tmp)
        extra = tmp @ onehot
        extra += add_gain[blk, None]
        np.maximum(best, extra.max(axis=0), out=best)
    return best + drop_gain


def _swap_margin(nc: int, read1: float, read2: float, save_max: float, f_max: float) -> float:
    """Rounding margin of the swap bound against the exhaustive gain.

    With ``u = 2**-53`` and ``gamma_n = n*u / (1 - n*u)``, a length-``n``
    dot product of non-negative terms is within ``gamma_n`` of its exact
    value relative to the term sum, in any summation order, with or
    without FMA.  Write ``B = w @ d1``, ``W = w @ d2``, ``S`` the largest
    add saving and ``F`` the largest opening cost:

    * the exhaustive gain ``((w @ d1 - w @ min(d_i, ALT_t)) + f_t) - f_i``
      is two dots (``min(d_i, ALT_t) <= d2``) plus three roundings, so it
      is within ``gamma_{nc+3} * (2B + 2W + 2F)`` of ``gain(t, i)``;
    * the bound adds ``add_gain`` (a dot of rounded differences, then
      ``- f_i``), ``drop_gain`` (a bincount of rounded products, then
      ``f_t -``) and ``extra`` (a dot of rounded differences) with two
      roundings, so it is within ``gamma_{nc+4} * (2S + 3W + 2F)``.

    Since the two agree exactly in real arithmetic, a computed gain
    exceeds its computed bound by at most
    ``gamma_{nc+4} * (2B + 5W + 2S + 4F)``, plus ``u * (S + 2W + 2F)``
    for rounding ``bound + margin``.  The margin below,
    ``16 * (nc + 8) * u * (B + 3W + S + 2F)``, covers that at least three
    times over on every term (``gamma_{nc+4} <= 1.01 * (nc + 4) * u``
    for any ``nc`` below ``10**13``), so a gain whose padded bound is
    below a gain already found is itself below it.  When the margin is
    zero every term is zero and so is every gain and bound, exactly.
    """
    return 8.0 * (nc + 8) * _EPS * (read1 + 3.0 * read2 + save_max + 2.0 * f_max)


def _swap_new_cost(
    dist: np.ndarray, alt: np.ndarray, w: np.ndarray, batched: bool
) -> np.ndarray:
    """``out[t, i] = sum_j w_j * min(dist_ij, alt_tj)`` for the
    out-candidates of one call: one reshape + matmul over the whole
    batch, or (``batched=False``, one candidate) the scratch-bounded
    chunked pass."""
    nf, nc = dist.shape
    if batched:
        tmp = np.minimum(dist[None, :, :], alt[:, None, :])
        return (tmp.reshape(-1, nc) @ w).reshape(alt.shape[0], nf)
    return _chunked_min_cost(dist, alt[0], w)[None, :]


def _best_swap(
    dist: np.ndarray,
    w: np.ndarray,
    f: np.ndarray,
    idx: np.ndarray,
    assign: np.ndarray,
    d1: np.ndarray,
    d2: np.ndarray,
    closed_mask: np.ndarray,
    threshold: float,
    bounds: np.ndarray | None,
) -> tuple[int, int] | None:
    """The best swap ``(out, in)`` gaining more than ``threshold``, or
    ``None``.

    Out-candidates are evaluated in calls of consecutive positions: the
    batches of the scratch budget when an ``(nf, nc)`` slab fits it, one
    candidate per call otherwise.  With ``bounds`` (each out-candidate's
    swap bound plus the rounding margin), calls run in descending order
    of their largest bound and the scan stops at the first call whose
    bounds are all below the best gain so far: no gain of it, or of any
    later call, can reach that gain, so none could be selected.
    """
    nf, nc = dist.shape
    k = idx.size
    # ALT[t] is the nearest-open-distance vector once idx[t] is gone
    ALT = np.where(assign[None, :] == idx[:, None], d2[None, :], d1[None, :])
    finite = np.all(np.isfinite(ALT), axis=1)
    base_read = w @ d1
    per_call = _CHUNK_ELEMS // max(nf * nc, 1)
    step = max(per_call, 1)
    calls = [(t0, min(t0 + step, k)) for t0 in range(0, k, step)]
    order = range(len(calls))
    if bounds is not None:
        call_bound = np.array([bounds[t0:t1].max() for t0, t1 in calls])
        order = np.argsort(-call_bound, kind="stable")

    gain = np.full((k, nf), -np.inf)
    best = threshold
    for c in order:
        t0, t1 = calls[c]
        if bounds is not None and call_bound[c] < best:
            break
        new_cost = _swap_new_cost(dist, ALT[t0:t1], w, per_call >= 1)
        for t in range(t0, t1):
            if not finite[t]:
                # dropping the only facility: swap target must cover all
                new_cost[t - t0] = dist @ w
        rows = (base_read - new_cost) + f[idx[t0:t1], None] - f
        rows[:, ~closed_mask] = -np.inf
        gain[t0:t1] = rows
        best = max(best, float(rows.max()))

    # the exhaustive scan's pick: each row's first maximiser, then the
    # first out-candidate strictly ahead of the best so far (a NaN gain
    # is never ahead; a skipped row is all -inf)
    i_in = gain.argmax(axis=1)
    row_best = gain[np.arange(k), i_in]
    pick = None
    for t in range(k):
        if row_best[t] > threshold:
            threshold, pick = row_best[t], t
    return None if pick is None else (int(idx[pick]), int(i_in[pick]))


def local_search_ufl(
    problem: FacilityLocationProblem,
    *,
    initial: list[int] | None = None,
    eps: float = 1e-9,
    max_rounds: int = 100_000,
) -> list[int]:
    """Run add/drop/swap local search; returns the sorted open set.

    Parameters
    ----------
    initial:
        Starting open set; defaults to the single facility minimizing the
        one-facility objective (deterministic).
    eps:
        A move is accepted only if it improves the objective by more than
        ``eps * current_cost / nf`` -- guarantees termination in
        polynomially many rounds.
    max_rounds:
        Hard safety cap on the number of accepted moves.
    """
    f = problem.open_costs
    w = problem.demands
    dist = problem.dist
    nf, nc = dist.shape

    if initial is None:
        # best single facility: f_i + sum_j w_j d_ij
        single = f + dist @ w
        open_set = {int(np.argmin(single))}
    else:
        open_set = set(int(i) for i in initial)
        if not open_set:
            raise ValueError("initial open set must be non-empty")

    cols = np.arange(nc)
    for _ in range(max_rounds):
        idx = np.asarray(sorted(open_set), dtype=int)
        sub = dist[idx]  # (k, nc) scratch copy
        pos = sub.argmin(axis=0)  # first (= smallest index) minimiser
        d1 = sub[pos, cols]
        assign = idx[pos]
        if idx.size >= 2:
            sub[pos, cols] = np.inf  # mask the nearest, min again = 2nd
            d2 = sub.min(axis=0)
        else:
            d2 = np.full(nc, np.inf)

        current = float(f[idx].sum() + w @ d1)
        threshold = eps * max(current, 1.0) / max(nf, 1)

        best_gain = threshold
        best_move: tuple[str, int, int] | None = None

        # --- add moves -------------------------------------------------
        save = _chunked_saving(dist, d1, w)  # (nf,)
        add_gain = save - f
        add_gain[idx] = -np.inf
        i_add = int(np.argmax(add_gain))
        if add_gain[i_add] > best_gain:
            best_gain = float(add_gain[i_add])
            best_move = ("add", i_add, -1)

        # --- drop moves ------------------------------------------------
        if idx.size >= 2:
            # cost increase when clients of i fall back to their 2nd choice
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

        # --- swap moves (out in open, in anywhere closed) ---------------
        # Only scanned when no add/drop improves: the expensive pass is
        # reserved for rounds that would otherwise terminate the search.
        closed_mask = np.ones(nf, dtype=bool)
        closed_mask[idx] = False
        if best_move is None and closed_mask.any():
            bounds = None  # k = 1 (d2 = inf): no bound, evaluate all
            if idx.size >= 2 and np.isfinite(d2).all():
                margin = _swap_margin(nc, w @ d1, w @ d2, save.max(), f.max())
                bounds = (
                    _swap_bounds(dist, w, d1, d2, pos, add_gain, drop_gain)
                    + margin
                )
            swap = _best_swap(
                dist, w, f, idx, assign, d1, d2, closed_mask, best_gain, bounds
            )
            if swap is not None:
                best_move = ("swap", *swap)

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
