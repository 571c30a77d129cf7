"""The radii sweep restricted to the entries phases 2 and 3 can read.

Given each object's phase-1 copies, :func:`repro.core.radii.radii_for_objects`
settles nodes whose storage-number caps prove phase 2 cannot fire there,
and computes exact rows only for the rest.  These tests hold the
restricted sweep to the full one: every computed row bit-equal, every
settled node unable to fire, the same phase-2 and phase-3 copies.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import graphs, workloads
from repro.core.approx import (
    phase1_facility_copies,
    phase2_add_copies,
    phase3_delete_copies,
)
from repro.core.radii import radii_for_objects
from repro.graphs.backend import LazyMetric
from repro.graphs.metric import Metric
from repro.kernels import PHASE2_FACTOR


def _closure(n: int, edges) -> np.ndarray:
    """Shortest-path closure by Floyd-Warshall (exact on integers, and
    zero-weight edges stay edges)."""
    D = np.full((n, n), np.inf)
    np.fill_diagonal(D, 0.0)
    for a, b, w in edges:
        D[a, b] = D[b, a] = min(D[a, b], w)
    for k in range(n):
        D = np.minimum(D, D[:, k : k + 1] + D[k : k + 1, :])
    return D


def _check(metric, costs, FR, FW, copies):
    """Run both sweeps and assert the restricted one against the full
    one; returns the settled share of (object, node) pairs."""
    full = radii_for_objects(metric, costs, FR, FW)
    part = radii_for_objects(metric, costs, FR, FW, copies=copies)
    settled = 0
    for i, holders in enumerate(copies):
        rw, rs, zs = (a[i] for a in full)
        prw, prs, pzs = (a[i] for a in part)
        exact = pzs > 0
        assert exact[list(holders)].all()
        np.testing.assert_array_equal(prw[exact], rw[exact])
        np.testing.assert_array_equal(prs[exact], rs[exact])
        np.testing.assert_array_equal(pzs[exact], zs[exact])
        out = ~exact
        settled += int(out.sum())
        assert np.isnan(prw[out]).all() and np.isinf(prs[out]).all()
        dts = metric.dist_to_set(holders)
        assert (dts[out] <= PHASE2_FACTOR * rs[out]).all()
        added = phase2_add_copies(metric, holders, rs)
        assert phase2_add_copies(metric, holders, prs) == added
        assert phase3_delete_copies(metric, added, prw) == phase3_delete_copies(
            metric, added, rw
        )
    return settled / FR.size


@st.composite
def restricted_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(3, 12))
    scale = draw(st.sampled_from([1.0, 5.0]))  # 5: exact knife edges
    # a random spanning tree plus extra edges; weight 0 makes
    # zero-distance pairs
    edges = [(v, int(rng.integers(0, v)), 0.0) for v in range(1, n)]
    edges += [tuple(rng.choice(n, 2, replace=False)) + (0.0,) for _ in range(n // 2)]
    edges = [(int(a), int(b), scale * float(rng.integers(0, 5))) for a, b, _ in edges]
    metric = Metric(_closure(n, edges))

    m = draw(st.integers(1, 4))
    FR = np.zeros((m, n))
    FW = np.zeros((m, n))
    for i in range(m):
        kind = draw(st.sampled_from(["sparse", "sparse", "single", "write-only", "full"]))
        if kind == "single":
            FR[i, rng.integers(0, n)] = 1.0
            continue
        k = n if kind == "full" else int(rng.integers(1, n))
        supp = rng.choice(n, k, replace=False)
        counts = rng.integers(1, 5, k).astype(float)
        writes = np.minimum(rng.integers(0, 3, k), counts)
        if kind == "write-only":
            writes = counts
        FW[i, supp] = writes
        FR[i, supp] = counts - writes
    copies = [
        sorted(rng.choice(n, int(rng.integers(1, min(n, 3) + 1)), replace=False).tolist())
        for _ in range(m)
    ]

    costs = rng.choice([0.0, 1.0, 2.5, 7.0, 20.0, 60.0], n) * scale
    costs = np.where(rng.random(n) < 0.3, rng.uniform(0.0, 40.0 * scale, n), costs)
    # knife edges for object 0: where zs(v) = 1, rs(v) is the midpoint of
    # [cs, d_min(v)], so cs = 2 dts / 5 - d_min gives 5 rs(v) = dts(v)
    # exactly on multiples of 5
    supp0 = np.flatnonzero(FR[0] + FW[0])
    d_min = metric.dist[:, supp0].min(axis=1)
    dts = metric.dist_to_set(copies[0])
    knife = 2.0 * dts / PHASE2_FACTOR - d_min
    pick = (rng.random(n) < 0.5) & (knife >= 0) & (knife < d_min)
    costs[pick] = knife[pick]
    return metric, costs, FR, FW, copies


@given(restricted_cases())
@settings(max_examples=250, deadline=None)
def test_restricted_sweep_matches_the_full_one(case):
    _check(*case)


def test_knife_edge_node_is_exact_or_cannot_fire():
    """On a path 0 - 1 - 2 - 3 - 4 with steps of 5, two requests at node 0
    and a copy at node 4: node 1 has d_min = 5 and dts = 15, and
    cs(1) = 2 * 15 / 5 - 5 = 1 gives zs = 1 and rs = (1 + 5) / 2 = 3, so
    5 rs(1) == dts(1).  Phase 2 must not fire there, with or without the
    restriction."""
    edges = [(v, v + 1, 5.0) for v in range(4)]
    metric = Metric(_closure(5, edges))
    FR = np.zeros((1, 5))
    FR[0, 0] = 2.0
    costs = np.full(5, 100.0)
    costs[1] = 1.0
    full_rs = radii_for_objects(metric, costs, FR, np.zeros_like(FR))[1][0]
    assert PHASE2_FACTOR * full_rs[1] == metric.dist_to_set([4])[1] == 15.0
    _check(metric, costs, FR, np.zeros_like(FR), [[4]])


def test_a_node_just_past_the_threshold_stays_open():
    """A path s - v - h with steps 5 and 24, two requests at s, a copy at
    h and cs(v) = 4: zs(v) = 1 and rs(v) = (4 + 5) / 2 = 4.5, so
    dts(v) = 24 > 5 rs(v) and phase 2 stores a copy at v.  The caps give
    Z(v) = 1, and 24 > 5 cs / Z = 20 keeps v open; a settle rule with a
    factor of 6 would settle it."""
    s, v, h = range(3)
    metric = Metric(_closure(3, [(s, v, 5.0), (v, h, 24.0)]))
    FR = np.zeros((1, 3))
    FR[0, s] = 2.0
    costs = np.array([1000.0, 4.0, 1000.0])
    rs = radii_for_objects(metric, costs, FR, np.zeros_like(FR))[1][0]
    assert rs[v] == 4.5 and v in phase2_add_copies(metric, [h], rs)
    _check(metric, costs, FR, np.zeros_like(FR), [[h]])


def test_the_second_nearest_request_settles_a_node():
    """v has one request 1 away and five 10 away, cs(v) = 20 and its copy
    30 away.  The nearest request alone caps zs(v) only at the request
    count 6 (5 cs / 6 < 30); adding the nearest node's exact share gives
    P_v(z) >= 1 + 10 (z - 1), so zs(v) <= 3 and 30 <= 5 cs / 3 settles
    v.  Exactly, zs(v) = 3 and rs(v) = (20 / 3 + 7) / 2 > 6, so phase 2
    cannot fire there."""
    v, s1, s2, u = range(4)
    metric = Metric(_closure(4, [(v, s1, 1.0), (v, s2, 10.0), (v, u, 30.0)]))
    FR = np.zeros((1, 4))
    FR[0, s1], FR[0, s2] = 1.0, 5.0
    costs = np.array([20.0, 1000.0, 1000.0, 1000.0])
    zs = radii_for_objects(metric, costs, FR, np.zeros_like(FR), copies=[[u]])[2][0]
    assert zs[v] == 0  # settled
    _check(metric, costs, FR, np.zeros_like(FR), [[u]])


def test_margin_covers_the_asymmetry_the_metric_admits():
    """A metric asymmetric by as much as ``Metric`` accepts:
    ``D[v, s] = 1 - 1.5e-9`` while ``D[s, v] = 1``.  Read from the
    support's row, the nearest-request cap without a margin would claim
    ``zs(v) <= 3`` for ``cs(v) = 3 - 3e-9`` and settle ``v``; in fact
    ``P_v(3) <= cs``, ``zs(v) = 4`` and phase 2 stores a copy at ``v``."""
    s, v, u = range(3)
    D = np.array([
        [0.0, 1.0, 6.0],
        [1.0 - 1.5e-9, 0.0, 5.0 - 6e-9],
        [6.0, 5.0 - 6e-9, 0.0],
    ])
    metric = Metric(D)  # validated: within SYMMETRY_TOL and TRIANGLE_TOL
    FR = np.zeros((1, 3))
    FR[0, s] = 4.0
    costs = np.array([1000.0, 3.0 - 3e-9, 1000.0])
    rs = radii_for_objects(metric, costs, FR, np.zeros_like(FR))[1][0]
    assert metric.dist_to_set([u])[v] > PHASE2_FACTOR * rs[v]
    assert v in phase2_add_copies(metric, [u], rs)
    _check(metric, costs, FR, np.zeros_like(FR), [[u]])


def test_margin_covers_the_triangle_slack_the_metric_admits():
    """A metric that bends the triangle inequality by as much as
    ``Metric`` accepts: ``D[u, s1] = D[u, v] + D[v, s1] + 4e-7``.  Without
    the margin, the nearest-copy cap would claim ``zs(v) <= 3`` and
    settle ``v``; in fact ``zs(v) = 4`` and phase 2 stores a copy at
    ``v``."""
    u, v, s1, s2 = range(4)
    eps = 4e-7
    c = 5.0 + 2.0 * eps  # dts(v) = D[v, u], between 5 rs(v) and 5 cs / 3
    D = np.zeros((4, 4))
    for (a, b), d in {
        (u, v): c, (v, s1): 1.0, (u, s1): 1.0 + c + eps,
        (s1, s2): 10.0, (v, s2): 11.0, (u, s2): 16.0,
    }.items():
        D[a, b] = D[b, a] = d
    metric = Metric(D)  # validated: the bend is within TRIANGLE_TOL
    FR = np.zeros((1, 4))
    FR[0, s1], FR[0, s2] = 3.0, 1.0
    costs = np.full(4, 1000.0)
    costs[v] = 3.0 * (1.0 + eps / 2.0)
    rs = radii_for_objects(metric, costs, FR, np.zeros_like(FR))[1][0]
    assert metric.dist_to_set([u])[v] > PHASE2_FACTOR * rs[v]
    assert v in phase2_add_copies(metric, [u], rs)
    _check(metric, costs, FR, np.zeros_like(FR), [[u]])


@pytest.mark.parametrize("model", ["catalog", "catalog_hotspot"])
def test_caps_settle_most_nodes_of_a_catalog(model):
    """The restriction is not vacuous: on a catalog with a storage price
    that buys a few copies per object, most (object, node) pairs settle
    from the phase-1 copies, and nothing the phases read changes."""
    graph = graphs.sized_transit_stub_graph(300, seed=4)
    inst = workloads.make_instance(
        Metric.from_graph(graph), seed=8, num_objects=16, demand_model=model,
        write_fraction=0.05, storage_price=50.0,
    )
    copies = [phase1_facility_copies(inst, o) for o in range(inst.num_objects)]
    share = _check(inst.metric, inst.storage_costs, inst.read_freq, inst.write_freq, copies)
    assert share > 0.5


def test_paths_without_the_restriction_compute_every_node():
    """Lazy backends, fractional weights and full-support objects keep
    exact radii at every node, copies or not."""
    graph = graphs.sized_transit_stub_graph(60, seed=2)
    inst = workloads.make_instance(
        Metric.from_graph(graph), seed=3, num_objects=3, demand_model="catalog",
        storage_price=20.0,
    )
    FR, FW = inst.read_freq.copy(), inst.write_freq
    FR[2] = np.maximum(FR[2], 1.0)  # full support
    copies = [[0], [1, 2], [3]]
    full = radii_for_objects(inst.metric, inst.storage_costs, FR, FW)
    part = radii_for_objects(inst.metric, inst.storage_costs, FR, FW, copies=copies)
    assert (part[2][:2] == 0).any()  # the sparse objects do settle nodes
    for a, b in zip(full, part):
        np.testing.assert_array_equal(a[2], b[2])
    for metric, fr in (
        (LazyMetric.from_graph(graph), FR),
        (inst.metric, FR + 0.5),  # fractional weights
    ):
        full = radii_for_objects(metric, inst.storage_costs, fr, FW)
        part = radii_for_objects(metric, inst.storage_costs, fr, FW, copies=copies)
        for a, b in zip(full, part):
            np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("copies", [[[0]], [[0], []]])
def test_one_non_empty_copy_set_per_object(copies):
    metric = Metric(_closure(3, [(0, 1, 1.0), (1, 2, 1.0)]))
    with pytest.raises(ValueError, match="one non-empty copy set per object"):
        radii_for_objects(
            metric, np.ones(3), np.ones((2, 3)), np.zeros((2, 3)), copies=copies
        )
