"""Tests for repro.kernels: each numpy kernel against a scalar reference.

Every kernel must return exactly -- bit for bit -- what its scalar
specification returns: the per-node prefix and storage-radius functions
of :mod:`repro.core.radii`, or a plain Python loop for the cumulative
sums, the phase-2 and phase-3 sweeps and the backends' row-block
reductions.  The property tests generate sorted radii state, sweep
inputs and row blocks, including the degenerate inputs: zero-demand
rows, one-node rows, integer and float32 distances and tied minima.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.radii import _prefix_from_cums, _storage_radius_from_cums
from repro.graphs.backend import LazyMetric
from repro.graphs.metric import Metric
from repro.kernels import (
    PHASE2_FACTOR,
    _phase2_sweep_numpy,
    _phase3_sweep_numpy,
    _prefix_rows_numpy,
    _radii_cums_numpy,
    _storage_radii_rows_numpy,
)

seeds = st.integers(min_value=0, max_value=500)


def _sorted_state(seed, *, b=None, size=None, zero_rows=False, integral=False):
    """Random presorted (SD, SW) radii state plus derived cumsums."""
    rng = np.random.default_rng(seed)
    b = int(rng.integers(1, 7)) if b is None else b
    size = int(rng.integers(1, 30)) if size is None else size
    SD = np.sort(rng.uniform(0.0, 9.0, (b, size)), axis=1)
    SD[:, 0] = 0.0  # a node is at distance 0 from itself
    if integral:
        SW = rng.integers(0, 5, (b, size)).astype(float)
    else:
        SW = rng.uniform(0.0, 4.0, (b, size))
    if zero_rows:
        SW[:] = 0.0
    CW, CWD = _radii_cums_numpy(SD.copy(), SW.copy())
    return SD, SW, CW, CWD


def _assert_storage_matches_scalar(SD, CW, CWD, costs, total, integral):
    rs, zs = _storage_radii_rows_numpy(SD, CW, CWD, costs, total, integral=integral)
    for r in range(SD.shape[0]):
        rs_r, zs_r = _storage_radius_from_cums(SD[r], CW[r], CWD[r], costs[r], total)
        assert zs[r] == zs_r
        assert rs[r] == rs_r  # bit-identical, inf included


def _assert_prefix_matches_scalar(SD, CW, CWD, z, total):
    out = _prefix_rows_numpy(SD, CW, CWD, z, total)
    for r in range(SD.shape[0]):
        assert out[r] == _prefix_from_cums(SD[r], CW[r], CWD[r], z[r], total)


class TestKernelParity:
    """Every kernel == its scalar reference, bit for bit."""

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_radii_cums(self, seed):
        SD, SW, CW, CWD = _sorted_state(seed)
        for r in range(SD.shape[0]):
            aw = awd = 0.0
            for j in range(SD.shape[1]):  # left-to-right accumulation
                aw += SW[r, j]
                awd += SW[r, j] * SD[r, j]
                assert CW[r, j] == aw and CWD[r, j] == awd

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_radii_prefix(self, seed):
        SD, SW, CW, CWD = _sorted_state(seed)
        total = float(SW.sum(axis=1).max())
        rng = np.random.default_rng(seed + 1)
        z = rng.uniform(-1.0, total + 2.0, SD.shape[0])
        _assert_prefix_matches_scalar(SD, CW, CWD, z, total)

    @given(seeds, st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_radii_storage(self, seed, integral):
        SD, SW, CW, CWD = _sorted_state(seed, integral=integral)
        total = float(SW[0].sum())
        rng = np.random.default_rng(seed + 2)
        costs = rng.uniform(0.1, 5.0, SD.shape[0])
        _assert_storage_matches_scalar(SD, CW, CWD, costs, total, integral)

    def test_radii_zero_demand_and_single_node(self):
        for kwargs in (dict(zero_rows=True), dict(b=1, size=1)):
            SD, SW, CW, CWD = _sorted_state(3, **kwargs)
            total = float(SW[0].sum())
            costs = np.ones(SD.shape[0])
            for integral in (False, True):
                _assert_storage_matches_scalar(SD, CW, CWD, costs, total, integral)
            _assert_prefix_matches_scalar(
                SD, CW, CWD, np.full(SD.shape[0], total), total
            )

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_phase2_sweep(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 25))
        pts = rng.uniform(0.0, 10.0, n)
        dist = np.abs(pts[:, None] - pts[None, :])
        dts = dist[0].copy()
        rs = rng.uniform(0.0, 1.5, n)

        ref = dts.tolist()
        candidates = [v for v in range(n) if ref[v] > PHASE2_FACTOR * rs[v]]
        expected = []
        for v in candidates:  # fixed from the initial dts, re-checked in turn
            if ref[v] > PHASE2_FACTOR * rs[v]:
                expected.append(v)
                ref = [min(a, b) for a, b in zip(ref, dist[v])]

        added = _phase2_sweep_numpy(dts, rs, dist)
        assert added.tolist() == expected
        assert dts.tolist() == ref

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_phase3_sweep(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 20))
        rows = rng.uniform(0.0, 5.0, (k, k))
        np.fill_diagonal(rows, 0.0)
        live = np.arange(k, dtype=np.int64)
        u_bound = rng.uniform(0.0, 3.0, k)

        expected = [True] * k
        for r, i in enumerate(live.tolist()):
            if expected[i]:
                for j in range(k):
                    if expected[j] and j != i and rows[r, j] <= u_bound[j]:
                        expected[j] = False

        alive = np.ones(k, dtype=bool)
        _phase3_sweep_numpy(rows, live, u_bound, alive)
        assert alive.tolist() == expected

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_row_block_reductions(self, seed):
        """Both backends' ``dist_to_set`` / ``nearest_in_set`` on their
        row-block path; integer edge weights make tied minima common."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        g = nx.path_graph(n)
        for u, v in nx.gnp_random_graph(n, 0.2, seed=seed).edges:
            g.add_edge(u, v)
        for u, v in g.edges:
            g[u][v]["weight"] = int(rng.integers(1, 4))
        targets = rng.choice(n, size=int(rng.integers(1, min(n, 8) + 1)), replace=False)
        if seed % 3 == 0:  # a repeated target collapses to one
            targets = np.append(targets, targets[0])
        for metric in (Metric.from_graph(g), LazyMetric.from_graph(g)):
            _assert_reductions_match_loop(metric, targets.tolist())

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
    def test_reductions_across_dtypes(self, dtype):
        dist = np.array([[0, 1, 4], [1, 0, 1], [4, 1, 0]], dtype=dtype)
        _assert_reductions_match_loop(Metric(dist, validate=False), [2, 0])


def _assert_reductions_match_loop(metric, targets):
    """Per node: the smallest distance to a target, and the nearest
    target -- the smallest node id among tied minimisers."""
    rows = {t: metric.row(t).tolist() for t in set(targets)}
    dist = metric.dist_to_set(targets)
    nearest, nearest_dist = metric.nearest_in_set(targets)
    for v in range(metric.n):
        best_t = min(sorted(rows), key=lambda t: rows[t][v])  # first minimiser
        assert dist[v] == rows[best_t][v]
        assert nearest[v] == best_t
        assert nearest_dist[v] == rows[best_t][v]
