"""The combinatorial constant-factor approximation (Section 2.2).

The headline result of the paper (Theorem 7): a polynomial-time constant
factor approximation for the static data management problem on arbitrary
networks.  Objects are placed independently; for one object the pipeline is

1. **Facility location phase.**  Solve the *related facility location
   problem* -- the same instance with every write recast as a read and the
   update cost ignored -- with any constant-factor UFL algorithm (Lemma 9
   carries its factor ``f`` through to the storage bound).
2. **Copy addition phase.**  While some node ``v`` has its nearest copy
   farther than ``5 * rs(v)`` (storage radius), store a new copy on ``v``.
   Claim 10 shows read + storage cost never increases in this phase.
3. **Copy deletion phase.**  Scan copy holders in ascending write radius
   ``rw``; the currently scanned holder ``v`` deletes any other copy ``u``
   with ``ct(u, v) <= 4 * rw(u)``.

Lemma 8: the result is a *proper placement* with constants ``k1 = 29``
(every node has a copy within ``29 * max(rw, rs)``) and ``k2 = 2`` (copies
are pairwise farther than ``4 * max(rw(u), rw(v))``), which by Theorem 3 +
Lemma 1 yields a constant total-cost approximation factor.

Implementation notes:

* Phase 2 needs only a single pass in fixed node order: adding a copy only
  *shrinks* nearest-copy distances, so previously satisfied nodes remain
  satisfied.  The nearest-copy vector is maintained incrementally with one
  ``np.minimum`` per addition.
* Phase 3 follows the paper literally: holders scanned by ascending
  ``rw`` (node index breaking ties); holders already deleted are skipped;
  the scanned holder itself is never deleted (hence the copy set stays
  non-empty -- the minimum-``rw`` holder provably survives).
* Zero-demand objects are stored once on the cheapest node.
* All metric access goes through the
  :class:`~repro.graphs.backend.DistanceBackend` row/set queries -- never
  the full matrix -- so the pipeline runs unchanged on a
  :class:`~repro.graphs.backend.LazyMetric` at 10k+ nodes.  On networks
  above :data:`repro.facility.FACILITY_AUTO_THRESHOLD` nodes, phase 1
  restricts candidate facilities to a hot set (see
  :func:`repro.facility.facility_candidate_set`); pass
  ``facility_candidates`` to control or disable the cap.
* Each phase is exposed as a standalone helper
  (:func:`phase1_facility_copies`, :func:`phase2_add_copies`,
  :func:`phase3_delete_copies`) so the catalog engine
  (:mod:`repro.engine`) can drive the identical decisions from batched
  per-chunk radii.  Phase 1 solves the related FL problem on the
  object's demand support (zero-demand clients are objective-neutral).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..facility import FL_SOLVERS, related_facility_problem
from ..kernels import PHASE2_FACTOR, _phase2_sweep_numpy, _phase3_sweep_numpy
from .instance import DataManagementInstance
from .placement import Placement
from .radii import radii_for_object

__all__ = [
    "approximate_placement",
    "approximate_object_placement",
    "phase1_facility_copies",
    "phase2_add_copies",
    "phase3_delete_copies",
    "zero_demand_copies",
    "ApproxDiagnostics",
    "proper_placement_margins",
    "K1",
    "K2",
]

#: Constants proven by Lemma 8 for the phase thresholds 5*rs and 4*rw.
K1 = 29.0
K2 = 2.0


@dataclass(frozen=True)
class ApproxDiagnostics:
    """Intermediate state of the three phases, for ablation/introspection.

    Attributes record the copy set after each phase plus the radii used.
    """

    after_phase1: tuple[int, ...]
    after_phase2: tuple[int, ...]
    after_phase3: tuple[int, ...]
    write_radii: np.ndarray
    storage_radii: np.ndarray
    storage_numbers: np.ndarray


def zero_demand_copies(instance: DataManagementInstance) -> tuple[int, ...]:
    """Copy set for an object nobody requests: one copy, cheapest node."""
    return (int(np.argmin(instance.storage_costs)),)


def phase1_facility_copies(
    instance: DataManagementInstance,
    obj: int,
    *,
    fl_solver: str = "local_search",
    facility_candidates: int | None = None,
) -> list[int]:
    """Phase 1: solve the related facility location problem for one object.

    Clients are restricted to the object's demand support (an equivalent
    problem -- zero-demand clients affect no objective); the open set maps
    back to node ids, sorted.
    """
    fl = related_facility_problem(
        instance, obj, max_facilities=facility_candidates, drop_zero_clients=True
    )
    return sorted(set(fl.to_nodes(FL_SOLVERS[fl_solver](fl))))


def phase2_add_copies(metric, copies, rs: np.ndarray) -> list[int]:
    """Phase 2: store a copy on every node whose nearest copy is farther
    than ``5 * rs(v)``; returns the enlarged, sorted copy set."""
    dts = metric.dist_to_set(copies)
    copy_set = set(copies)
    # Adding a copy only shrinks nearest-copy distances, so only nodes
    # violating the threshold under the *initial* dts can ever fire;
    # scan those (in ascending node order, as before) and re-check.
    dense = getattr(metric, "dist", None)
    if dense is not None:
        # Dense backends hand the whole sweep to the kernel.
        added = _phase2_sweep_numpy(dts, np.asarray(rs, dtype=float), dense)
        copy_set.update(int(v) for v in added)
        return sorted(copy_set)
    for v in np.flatnonzero(dts > PHASE2_FACTOR * rs):
        v = int(v)
        if dts[v] > PHASE2_FACTOR * rs[v]:
            copy_set.add(v)
            np.minimum(dts, metric.row(v), out=dts)
    return sorted(copy_set)


def phase3_delete_copies(metric, copies, rw: np.ndarray) -> list[int]:
    """Phase 3: scan holders by ascending write radius; the scanned holder
    deletes any other copy ``u`` with ``ct(u, v) <= 4 * rw(u)``."""
    scan = np.asarray(sorted(copies, key=lambda v: (rw[v], v)), dtype=int)
    u_bound = 4.0 * rw[scan]  # per-column threshold for the deleted copy u
    alive = np.ones(scan.size, dtype=bool)
    # Row access is chunked so a large post-phase-2 copy set never
    # materializes a (k, k) block at once; rows of holders already
    # deleted by an earlier chunk are never fetched.
    chunk = 256
    for c0 in range(0, scan.size, chunk):
        live = [i for i in range(c0, min(c0 + chunk, scan.size)) if alive[i]]
        if not live:
            continue
        rows = np.asarray(metric.rows(scan[live]))[:, scan]  # (|live|, k)
        # The in-chunk sweep (scanned holder never deletes itself,
        # already-deleted holders stop scanning) runs as a kernel.
        _phase3_sweep_numpy(rows, np.asarray(live, dtype=np.int64), u_bound, alive)
    return sorted(int(v) for v in scan[alive])


def approximate_object_placement(
    instance: DataManagementInstance,
    obj: int,
    *,
    fl_solver: str = "local_search",
    phase2: bool = True,
    phase3: bool = True,
    return_diagnostics: bool = False,
    facility_candidates: int | None = None,
):
    """Place a single object; returns the sorted copy tuple.

    Parameters
    ----------
    fl_solver:
        Phase-1 algorithm name from :data:`repro.facility.FL_SOLVERS`
        (``local_search``, ``greedy``, ``lp_rounding`` or ``exact``).
    phase2 / phase3:
        Ablation switches (Experiment E5); the theorem requires both.
    return_diagnostics:
        Also return an :class:`ApproxDiagnostics` with per-phase states.
    facility_candidates:
        Cap on the phase-1 candidate facility set.  ``None`` (default)
        keeps every node on networks up to
        :data:`repro.facility.FACILITY_AUTO_THRESHOLD` nodes and switches
        to a :data:`repro.facility.DEFAULT_FACILITY_CANDIDATES`-node hot
        set beyond -- identical behaviour for the dense and lazy backends,
        so results stay backend-independent at every size.
    """
    if fl_solver not in FL_SOLVERS:
        raise ValueError(f"unknown fl_solver {fl_solver!r}; choose from {sorted(FL_SOLVERS)}")
    metric = instance.metric

    if instance.total_requests(obj) == 0:
        copies = zero_demand_copies(instance)
        if return_diagnostics:
            n = metric.n
            zero = np.zeros(n)
            diag = ApproxDiagnostics(copies, copies, copies, zero, np.full(n, np.inf), np.ones(n, dtype=int))
            return copies, diag
        return copies

    # ------------------------------------------------------ phase 1: UFL
    copies = phase1_facility_copies(
        instance, obj, fl_solver=fl_solver, facility_candidates=facility_candidates
    )
    after1 = tuple(copies)

    rw, rs, zs = radii_for_object(
        metric, instance.storage_costs, instance.read_freq[obj], instance.write_freq[obj]
    )

    # ----------------------------------------------- phase 2: add copies
    if phase2:
        copies = phase2_add_copies(metric, copies, rs)
    after2 = tuple(copies)

    # -------------------------------------------- phase 3: delete copies
    if phase3:
        copies = phase3_delete_copies(metric, copies, rw)
    after3 = tuple(copies)

    if return_diagnostics:
        return after3, ApproxDiagnostics(after1, after2, after3, rw, rs, zs)
    return after3


def approximate_placement(
    instance: DataManagementInstance,
    *,
    fl_solver: str = "local_search",
    phase2: bool = True,
    phase3: bool = True,
    facility_candidates: int | None = None,
) -> Placement:
    """Place every object independently (the paper's per-object scheme)."""
    return Placement(
        tuple(
            approximate_object_placement(
                instance,
                obj,
                fl_solver=fl_solver,
                phase2=phase2,
                phase3=phase3,
                facility_candidates=facility_candidates,
            )
            for obj in range(instance.num_objects)
        )
    )


def proper_placement_margins(
    instance: DataManagementInstance,
    obj: int,
    copies,
    *,
    k1: float = K1,
    k2: float = K2,
) -> dict[str, float]:
    """Executable form of the Lemma 8 invariants.

    Returns the two *margins* (positive = invariant satisfied):

    ``coverage``
        ``min_v ( k1 * max(rw(v), rs(v)) - d(v, S) )`` -- property 1 of a
        proper placement.  ``+inf`` when every node has an infinite
        storage radius term.
    ``separation``
        ``min_{u != v in S} ( d(u, v) - 2 k2 * max(rw(u), rw(v)) )`` --
        property 2.  ``+inf`` for single-copy placements.
    """
    nodes = instance.validate_copies(copies)
    metric = instance.metric
    rw, rs, _ = radii_for_object(
        metric, instance.storage_costs, instance.read_freq[obj], instance.write_freq[obj]
    )
    dts = metric.dist_to_set(nodes)
    bound = k1 * np.maximum(rw, rs)
    with np.errstate(invalid="ignore"):
        coverage = float(np.min(np.where(np.isinf(bound), np.inf, bound - dts)))

    separation = np.inf
    if len(nodes) >= 2:
        idx = np.asarray(nodes, dtype=int)
        pair = np.asarray(metric.pairwise(idx))
        rwn = rw[idx]
        margin = pair - 2.0 * k2 * np.maximum.outer(rwn, rwn)
        iu = np.triu_indices(idx.size, k=1)
        separation = float(margin[iu].min())
    return {"coverage": coverage, "separation": float(separation)}
