"""Today's decisions, pinned against the exhaustive implementations.

The parity suites elsewhere compare two paths of the same code (engine
vs loop, dense vs lazy).  This module compares the fast kernels with
frozen references instead:

* ``golden_plans.json`` holds the copy sets and the bill (as a hex
  float) of ``Planner.plan`` on two catalogs, recorded with the
  exhaustive swap scan and the bisection-only storage kernel -- one net
  above :data:`~repro.facility.FACILITY_AUTO_THRESHOLD` (a capped
  256-candidate facility set) and one below it whose node count is not
  a multiple of 4 (every node a facility).  Both have objects whose
  demand covers most of the net.
* property sweeps hold :func:`~repro.facility.local_search_ufl` to
  :func:`tests.oracles.reference_local_search_ufl` (same open set) and
  the storage kernel to :func:`tests.oracles.reference_storage_radii_rows`
  (same ``(rs, zs)`` bits) on ties, zero and fractional weights, a
  single open facility, a single client and knife-edge storage prices.
"""

from __future__ import annotations

import contextlib
import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PlanConfig, Planner, graphs, kernels, workloads
from repro.facility import FACILITY_AUTO_THRESHOLD, FacilityLocationProblem
from repro.facility import local_search as ls
from tests import oracles

GOLDEN = Path(__file__).with_name("golden_plans.json")

#: The catalogs of ``golden_plans.json``: (graph size, graph seed,
#: demand seed, objects, catalog requests, storage price, write share).
CASES = {
    "dense-1029-capped": (1041, 5, 11, 5, 3000, 40.0, 0.1),
    "dense-294-full": (301, 6, 12, 6, 1500, None, 0.2),
}


def _case_instance(name: str):
    size, graph_seed, seed, objects, total, price, writes = CASES[name]
    graph = graphs.sized_transit_stub_graph(size, seed=graph_seed)
    return workloads.make_instance(
        graphs.Metric.from_graph(graph), seed=seed, num_objects=objects,
        demand_model="catalog", write_fraction=writes, storage_price=price,
        total_requests=total,
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_plan_matches_golden_file(name):
    golden = json.loads(GOLDEN.read_text())[name]
    inst = _case_instance(name)
    if name.endswith("capped"):
        assert inst.num_nodes > FACILITY_AUTO_THRESHOLD
    else:
        assert inst.num_nodes < FACILITY_AUTO_THRESHOLD
        assert inst.num_nodes % 4 != 0
    support = np.count_nonzero(inst.read_freq + inst.write_freq, axis=1)
    assert support.max() > inst.num_nodes // 2  # a high-support object
    report = Planner(PlanConfig()).plan(inst)
    assert [list(s) for s in report.placement.copy_sets] == golden["copy_sets"]
    assert report.cost.total == float.fromhex(golden["bill_total"])


# ----------------------------------------------------------------------
# local search: bounded swap scan == exhaustive swap scan
# ----------------------------------------------------------------------
@st.composite
def ufl_problems(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nf = draw(st.sampled_from([1, 2, 3, 4, 5, 7, 9, 13, 30, 67]))
    nc = draw(st.sampled_from([1, 2, 3, 5, 8, 17, 40, 101]))
    if draw(st.booleans()):
        dist = rng.integers(0, 6, (nf, nc)).astype(float)  # exact ties
    else:
        dist = rng.uniform(0.0, 10.0, (nf, nc))
    weights = draw(st.sampled_from(["counts", "fractional", "sparse"]))
    if weights == "counts":
        w = rng.integers(0, 5, nc).astype(float)
    elif weights == "fractional":
        w = rng.uniform(0.0, 3.0, nc)
    else:
        w = np.where(rng.random(nc) < 0.7, 0.0, rng.integers(1, 4, nc).astype(float))
    # cheap facilities open many, dear ones leave k = 1
    scale = draw(st.sampled_from([0.0, 0.5, 4.0, 40.0, 1e4]))
    f = np.round(rng.uniform(0.0, scale, nf), 1)
    return FacilityLocationProblem(f, w, dist)


#: Candidates per swap-scan call: 0 is the per-candidate chunked pass of
#: slabs over the scratch budget; None leaves the budget as shipped.
_PER_CALL = st.sampled_from([0, 1, 2, 3, None])


@given(problem=ufl_problems(), per_call=_PER_CALL)
@settings(max_examples=150, deadline=None)
def test_local_search_matches_exhaustive_scan(problem, per_call):
    nf, nc = problem.dist.shape
    budget = ls._CHUNK_ELEMS if per_call is None else max(per_call * nf * nc, nf * nc - 1)
    with mock.patch.object(ls, "_CHUNK_ELEMS", budget), mock.patch.object(
        oracles, "_CHUNK_ELEMS", budget
    ):
        assert ls.local_search_ufl(problem) == oracles.reference_local_search_ufl(problem)


def test_a_nan_gain_row_does_not_hide_a_later_swap():
    """An unreachable pair (infinite price) leaves no swap bound, and a
    zero-weight client at infinite distance makes one gain ``0 * inf``
    = NaN.  The exhaustive scan passes over that row and still takes
    the later improving swap (1 -> 2); so must the bounded scan."""
    inf = np.inf
    problem = FacilityLocationProblem(
        open_costs=np.array([0.0, 3.9, 0.6]),
        demands=np.array([1.0, 1.0, 0.0]),
        dist=np.array([[1.0, 5.0, 1.0], [inf, 1.0, 1.0], [1.0, 1.0, inf]]),
    )
    with np.errstate(invalid="ignore"):
        got = ls.local_search_ufl(problem, initial=[0, 1])
        assert got == oracles.reference_local_search_ufl(problem, initial=[0, 1])
    assert got == [0, 2]


def test_swap_bound_skips_calls_on_a_catalog_object():
    """The bound is not vacuous: on a high-support catalog object most
    swap-scan calls are skipped, and the answer is the exhaustive one."""
    from repro.facility import related_facility_problem

    inst = _case_instance("dense-294-full")
    fl = related_facility_problem(inst, 0, drop_zero_clients=True)
    ran = []
    real = ls._swap_new_cost

    def counting(dist, alt, w, batched):
        ran.append(alt.shape[0])
        return real(dist, alt, w, batched)

    scans = []
    real_best = ls._best_swap

    def counting_best(dist, w, f, idx, *args):
        scans.append(idx.size)
        return real_best(dist, w, f, idx, *args)

    one_per_call = fl.dist.size  # the scratch budget of one candidate
    with mock.patch.object(ls, "_swap_new_cost", counting), mock.patch.object(
        ls, "_best_swap", counting_best
    ), mock.patch.object(ls, "_CHUNK_ELEMS", one_per_call), mock.patch.object(
        oracles, "_CHUNK_ELEMS", one_per_call
    ):
        assert ls.local_search_ufl(fl) == oracles.reference_local_search_ufl(fl)
    assert sum(scans) > 2 * sum(ran)


# ----------------------------------------------------------------------
# storage radii: crossing search == bisection
# ----------------------------------------------------------------------
def _state(dists: np.ndarray, weights: np.ndarray):
    """Sorted block state for one object: row ``r`` sorts the shared
    ``weights`` by ``dists[r]``, as the radii sweep does."""
    order = np.argsort(dists, axis=1, kind="stable")
    SD = np.take_along_axis(dists, order, axis=1)
    SW = weights[order]
    CW, CWD = kernels._radii_cums_numpy(SD, SW.copy())
    return SD, CW, CWD


@st.composite
def storage_blocks(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    b = draw(st.integers(1, 9))
    size = draw(st.sampled_from([1, 2, 3, 7, 16, 41]))
    if draw(st.booleans()):
        dists = rng.integers(0, 5, (b, size)).astype(float)  # ties
    else:
        dists = rng.uniform(0.0, 9.0, (b, size))
    if draw(st.booleans()):
        dists[:, 0] = 0.0
    integral = draw(st.booleans())
    if integral:
        weights = rng.integers(0, 6, size).astype(float)
        weights[rng.random(size) < 0.4] = 0.0  # zero-weight breakpoints
    else:
        weights = rng.uniform(0.0, 4.0, size)
    SD, CW, CWD = _state(dists, weights)
    total = float(weights.sum())
    if draw(st.booleans()):
        # rows that disagree on the total (each its own multiset, the
        # block's total from the first): the kernel must still match
        rows = rng.integers(0, 6, (b, size)).astype(float)
        if not integral:
            rows = rows + rng.uniform(0.0, 1.0, (b, size))
        CW, CWD = kernels._radii_cums_numpy(SD, rows.copy())
        total = float(rows[0].sum())
    # prices: random, exactly on a breakpoint, exactly P(z) for an integer
    # z (a knife edge), zero, and dearer than serving everything
    kinds = rng.integers(0, 5, b)
    costs = rng.uniform(0.0, 1.2 * max(CWD[:, -1].max(), 1.0), b)
    for r in range(b):
        if kinds[r] == 1:
            costs[r] = CWD[r, rng.integers(0, size)]
        elif kinds[r] == 2 and total >= 1:
            z = float(rng.integers(1, int(total) + 1))
            costs[r] = oracles._prefix_rows(
                SD[r : r + 1], CW[r : r + 1], CWD[r : r + 1], np.array([z]), total
            )[0]
        elif kinds[r] == 3:
            costs[r] = 0.0
        elif kinds[r] == 4:
            costs[r] = CWD[r, -1] + 1.0
    return SD, CW, CWD, costs, total, integral


def _assert_same_radii(SD, CW, CWD, costs, total, integral):
    rs, zs = kernels._storage_radii_rows_numpy(
        SD, CW, CWD, costs, total, integral=integral
    )
    rs_ref, zs_ref = oracles.reference_storage_radii_rows(SD, CW, CWD, costs, total)
    np.testing.assert_array_equal(zs, zs_ref)
    np.testing.assert_array_equal(rs, rs_ref)  # bit-identical, inf included


@given(storage_blocks())
@settings(max_examples=300, deadline=None)
def test_storage_kernel_matches_bisection(block):
    _assert_same_radii(*block)


def test_knife_edge_price_steps_to_the_next_integer():
    """A segment from 0 with slope 0.7 and ``cs = 3 * 0.7``: the closed
    form lands on 3, where ``P(3) == cs``, so the crossing is 4."""
    SD, CW, CWD = _state(np.array([[0.7, 5.0]]), np.array([10.0, 1.0]))
    cs = 3 * 0.7
    assert cs == 2.0999999999999996
    _assert_same_radii(SD, CW, CWD, np.array([cs]), 11.0, True)
    with _counting_prefix_passes() as passes:
        _, zs = kernels._storage_radii_rows_numpy(
            SD, CW, CWD, np.array([cs]), 11.0, True
        )
    assert zs[0] == 4
    assert len(passes) == 1  # solved by the crossing, not the bisection


@contextlib.contextmanager
def _counting_prefix_passes():
    """Record every full prefix pass (the never-amortizes test and each
    bisection probe) the storage kernel makes."""
    calls = []
    real = kernels._prefix_rows_numpy

    def counting(*args):
        calls.append(1)
        return real(*args)

    with mock.patch.object(kernels, "_prefix_rows_numpy", counting):
        yield calls


def test_rows_the_crossing_leaves_are_bisected(monkeypatch):
    """Rows the crossing search does not accept fall back to the
    bisection, in the same block, to the same answer."""
    real = kernels._storage_crossing

    def half(*args):
        rows, z, p_zm1, p_z = real(*args)
        return rows[::2], z[::2], p_zm1[::2], p_z[::2]

    monkeypatch.setattr(kernels, "_storage_crossing", half)
    rng = np.random.default_rng(7)
    weights = rng.integers(0, 4, 50).astype(float)
    SD, CW, CWD = _state(rng.integers(0, 9, (12, 50)).astype(float), weights)
    costs = rng.uniform(0.0, CWD[:, -1].max(), 12)
    _assert_same_radii(SD, CW, CWD, costs, float(weights.sum()), True)


def test_crossing_replaces_the_bisection_on_integer_counts():
    """With integer counts the kernel makes one prefix pass (the
    never-amortizes test) and no bisection probe."""
    rng = np.random.default_rng(5)
    weights = rng.integers(0, 9, 300).astype(float)
    SD, CW, CWD = _state(rng.uniform(0.0, 50.0, (64, 300)), weights)
    costs = rng.uniform(0.0, 2.0 * CWD[:, -1].max(), 64)
    total = float(weights.sum())
    with _counting_prefix_passes() as passes:
        rs, zs = kernels._storage_radii_rows_numpy(SD, CW, CWD, costs, total, True)
    assert len(passes) == 1
    rs_ref, zs_ref = oracles.reference_storage_radii_rows(SD, CW, CWD, costs, total)
    np.testing.assert_array_equal(zs, zs_ref)
    np.testing.assert_array_equal(rs, rs_ref)
    assert np.isfinite(rs).any() and math.isinf(rs.max())
