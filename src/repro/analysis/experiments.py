"""Experiment runners E1--E13 (mapped to the paper in docs/EXPERIMENTS.md).

The paper proves theorems instead of reporting measurements, so the
reproduction's "tables and figures" are executable validations of each
theorem/lemma.  Every runner returns an :class:`ExperimentResult` whose
rendered table is what the corresponding benchmark prints and what
docs/EXPERIMENTS.md records.  Runners accept size knobs so the test suite
can exercise them at tiny scale while benchmarks run the full
configuration; results can be persisted as machine-readable JSON via
:meth:`ExperimentResult.save_json` (the ``BENCH_*.json`` artifacts).
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Any, Sequence

import networkx as nx
import numpy as np

from ..baselines.exhaustive import brute_force_object
from ..baselines.heuristics import best_single_node
from ..config import PlanConfig
from ..core.approx import approximate_object_placement, proper_placement_margins
from ..core.costs import CostBreakdown, object_cost, placement_cost
from ..core.instance import DataManagementInstance
from ..core.tree_dp import optimal_tree_placement
from ..facility import FL_SOLVERS, related_facility_problem, solve_ufl_lp
from ..graphs import generators
from ..graphs.backend import LazyMetric
from ..graphs.metric import Metric
from ..workloads.request_models import make_instance, uniform_storage_costs
from .ratios import ratio, summarize_ratios
from .tables import format_table

__all__ = [
    "ExperimentResult",
    "run_e1_approx_ratio",
    "run_e2_tree_dp",
    "run_e3_restricted_gap",
    "run_e4_proper_invariants",
    "run_e5_phase_ablation",
    "run_e6_baselines",
    "run_e7_storage_sweep",
    "run_e8_facility_choice",
    "run_e9_load_model",
    "run_e10_scalability",
    "run_e10_backend_sweep",
    "run_e11_simulation_agreement",
    "run_e12_online_vs_static",
    "run_e13_capacity_price",
    "run_e14_catalog_throughput",
    "run_e15_dynamic_replay",
    "run_e16_incremental_replan",
    "run_e18_sharded",
    "run_e19_daemon",
    "run_e20_costmodels",
    "GRAPH_FAMILIES",
]


@dataclass
class ExperimentResult:
    """A rendered-table experiment outcome plus machine-readable rows."""

    exp_id: str
    title: str
    headers: tuple[str, ...]
    rows: list[list[Any]] = field(default_factory=list)
    notes: str = ""

    def render(self) -> str:
        text = format_table(self.headers, self.rows, title=f"[{self.exp_id}] {self.title}")
        if self.notes:
            text += f"\n{self.notes}"
        return text

    def to_json(self) -> dict:
        """Machine-readable form (plain python types, numpy coerced)."""
        from ..serialize import canonical_payload

        return canonical_payload(
            {
                "exp_id": self.exp_id,
                "title": self.title,
                "headers": list(self.headers),
                "rows": [list(row) for row in self.rows],
                "notes": self.notes,
            }
        )

    def save_json(self, path, *, generated_at: str | None = None) -> None:
        """Write the ``BENCH_*.json``-style artifact for this experiment.

        The bytes are deterministic -- sorted keys, canonical float
        ``repr``, no wall-clock reads -- so identical results produce
        identical artifacts the regression gate can diff.  A timestamp
        is recorded only when the *caller* injects one via
        ``generated_at`` (e.g. an ISO-8601 string); the writer itself
        never consults the clock.
        """
        from ..serialize import canonical_json_dumps

        payload = self.to_json()
        if generated_at is not None:
            payload["generated_at"] = str(generated_at)
        with open(path, "w") as fh:
            fh.write(canonical_json_dumps(payload) + "\n")


def _graph_family(name: str, n: int, seed: int) -> nx.Graph:
    if name == "tree":
        return generators.random_tree(n, seed=seed)
    if name == "er":
        return generators.erdos_renyi_graph(n, 0.35, seed=seed)
    if name == "geometric":
        return generators.random_geometric_graph(n, 0.45, seed=seed)
    if name == "grid":
        rows = max(2, int(np.floor(np.sqrt(n))))
        cols = max(2, int(np.ceil(n / rows)))
        return generators.grid_graph(rows, cols, seed=seed)
    if name == "ring":
        return generators.ring_graph(max(n, 3), seed=seed)
    if name == "transit_stub":
        stub = max((n - 2) // 4, 1)
        return generators.transit_stub_graph(2, 2, stub, seed=seed)
    raise ValueError(f"unknown graph family {name!r}")


GRAPH_FAMILIES = ("tree", "er", "geometric", "grid", "ring", "transit_stub")


def _instances(
    family: str,
    n: int,
    seeds: Sequence[int],
    *,
    write_fraction: float = 0.2,
    demand_model: str = "uniform",
    storage_price: float | None = None,
) -> list[DataManagementInstance]:
    out = []
    for seed in seeds:
        g = _graph_family(family, n, seed)
        metric = Metric.from_graph(g)
        out.append(
            make_instance(
                metric,
                seed=seed + 1000,
                num_objects=1,
                demand_model=demand_model,
                write_fraction=write_fraction,
                storage_price=storage_price,
            )
        )
    return out


# ----------------------------------------------------------------------
# E1: approximation ratio of the Section 2 algorithm vs exact optima
# ----------------------------------------------------------------------
def run_e1_approx_ratio(
    *,
    families: Sequence[str] = ("tree", "er", "geometric", "grid"),
    n: int = 10,
    seeds: Sequence[int] = tuple(range(8)),
    write_fraction: float = 0.25,
) -> ExperimentResult:
    """Theorem 7 check: KRW cost / exact optimum per graph family.

    Ratios are reported against both the restricted (MST-policy) optimum
    the analysis compares to and the true (Steiner-policy) optimum.
    """
    result = ExperimentResult(
        "E1",
        "approximation ratio of the combinatorial algorithm (Theorem 7)",
        ("family", "n", "runs", "vs restricted-opt (mean)", "(max)",
         "vs true-opt (mean)", "(max)"),
        notes="Proven bound is a large constant; observed ratios should sit near 1.",
    )
    for family in families:
        r_mst, r_true = [], []
        for inst in _instances(family, n, seeds, write_fraction=write_fraction):
            copies = approximate_object_placement(inst, 0)
            cost_mst = object_cost(inst, 0, copies, policy="mst").total
            cost_true = object_cost(inst, 0, copies, policy="steiner").total
            _, opt_mst = brute_force_object(inst, 0, policy="mst")
            _, opt_true = brute_force_object(inst, 0, policy="steiner")
            r_mst.append(ratio(cost_mst, opt_mst))
            r_true.append(ratio(cost_true, opt_true))
        s_mst, s_true = summarize_ratios(r_mst), summarize_ratios(r_true)
        result.rows.append(
            [family, n, s_mst.count, s_mst.mean, s_mst.max, s_true.mean, s_true.max]
        )
    return result


# ----------------------------------------------------------------------
# E2: tree DP optimality and runtime scaling (Theorem 13)
# ----------------------------------------------------------------------
def run_e2_tree_dp(
    *,
    check_sizes: Sequence[int] = (4, 6, 8, 10),
    timing_sizes: Sequence[int] = (50, 100, 200, 400),
    seeds: Sequence[int] = tuple(range(6)),
    write_fraction: float = 0.3,
) -> ExperimentResult:
    """Optimality vs brute force on small trees + runtime vs size/shape."""
    result = ExperimentResult(
        "E2",
        "optimal tree algorithm: exactness and scaling (Theorem 13)",
        ("phase", "shape", "n", "runs", "max ratio vs brute force", "mean time (ms)"),
    )
    for n in check_sizes:
        ratios = []
        times = []
        for seed in seeds:
            g = generators.random_tree(n, seed=seed)
            metric = Metric.from_graph(g)
            inst = make_instance(
                metric, seed=seed + 500, num_objects=1, write_fraction=write_fraction
            )
            t0 = time.perf_counter()
            placement, cost = optimal_tree_placement(
                g, inst.storage_costs, inst.read_freq, inst.write_freq
            )
            times.append(time.perf_counter() - t0)
            _, opt = brute_force_object(inst, 0, policy="steiner")
            ratios.append(ratio(cost, opt))
        result.rows.append(
            ["exactness", "random", n, len(seeds), max(ratios), 1e3 * float(np.mean(times))]
        )

    rng_seed = 97
    for shape, builder in (
        ("path", lambda n, s: generators.path_graph(n, seed=s)),
        ("random", lambda n, s: generators.random_tree(n, seed=s)),
        ("star", lambda n, s: generators.star_graph(n, seed=s)),
    ):
        for n in timing_sizes:
            g = builder(n, rng_seed)
            metric = Metric.from_graph(g)
            inst = make_instance(
                metric, seed=rng_seed + n, num_objects=1, write_fraction=write_fraction
            )
            t0 = time.perf_counter()
            optimal_tree_placement(g, inst.storage_costs, inst.read_freq, inst.write_freq)
            dt = time.perf_counter() - t0
            result.rows.append(["timing", shape, n, 1, None, 1e3 * dt])
    return result


# ----------------------------------------------------------------------
# E3: restricted-placement gap (Lemma 1)
# ----------------------------------------------------------------------
def run_e3_restricted_gap(
    *,
    families: Sequence[str] = ("tree", "er", "geometric"),
    n: int = 9,
    seeds: Sequence[int] = tuple(range(8)),
    write_fraction: float = 0.4,
) -> ExperimentResult:
    """Lemma 1 check: restricted optimum within 4x of the true optimum."""
    result = ExperimentResult(
        "E3",
        "restricted vs true optimum (Lemma 1: factor <= 4)",
        ("family", "n", "runs", "gap mean", "gap max", "bound holds"),
    )
    for family in families:
        gaps = []
        for inst in _instances(family, n, seeds, write_fraction=write_fraction):
            _, opt_true = brute_force_object(inst, 0, policy="steiner")
            _, opt_restricted = brute_force_object(
                inst, 0, policy="mst", require_restricted=True
            )
            gaps.append(ratio(opt_restricted, opt_true))
        stats = summarize_ratios(gaps)
        result.rows.append(
            [family, n, stats.count, stats.mean, stats.max, stats.max <= 4.0 + 1e-9]
        )
    return result


# ----------------------------------------------------------------------
# E4: proper-placement invariants (Lemma 8, Claims 6/10)
# ----------------------------------------------------------------------
def run_e4_proper_invariants(
    *,
    families: Sequence[str] = ("tree", "er", "geometric", "grid"),
    n: int = 16,
    seeds: Sequence[int] = tuple(range(10)),
    write_fraction: float = 0.3,
) -> ExperimentResult:
    """Lemma 8 margins: coverage (k1=29) and separation (k2=2) >= 0."""
    result = ExperimentResult(
        "E4",
        "proper placement invariants of the computed placements (Lemma 8)",
        ("family", "n", "runs", "min coverage margin", "min separation margin",
         "all proper"),
    )
    for family in families:
        cov, sep = [], []
        for inst in _instances(family, n, seeds, write_fraction=write_fraction):
            copies = approximate_object_placement(inst, 0)
            margins = proper_placement_margins(inst, 0, copies)
            cov.append(margins["coverage"])
            sep.append(margins["separation"])
        ok = min(cov) >= -1e-9 and min(sep) >= -1e-9
        result.rows.append([family, n, len(seeds), min(cov), min(sep), ok])
    return result


# ----------------------------------------------------------------------
# E5: phase ablation
# ----------------------------------------------------------------------
def run_e5_phase_ablation(
    *,
    family: str = "geometric",
    n: int = 12,
    seeds: Sequence[int] = tuple(range(8)),
    write_fractions: Sequence[float] = (0.0, 0.1, 0.3, 0.6),
) -> ExperimentResult:
    """Cost of dropping phase 2 and/or phase 3, relative to the optimum."""
    result = ExperimentResult(
        "E5",
        "phase ablation: mean cost / optimum (MST policy)",
        ("write fraction", "full algorithm", "no phase 2", "no phase 3",
         "phase 1 only"),
        notes="Phase 3 prunes redundant copies: matters as writes grow; "
        "phase 2 guards read outliers: matters for skewed storage prices.",
    )
    variants = {
        "full": dict(phase2=True, phase3=True),
        "no2": dict(phase2=False, phase3=True),
        "no3": dict(phase2=True, phase3=False),
        "fl": dict(phase2=False, phase3=False),
    }
    for wf in write_fractions:
        sums = {k: [] for k in variants}
        for inst in _instances(family, n, seeds, write_fraction=wf):
            _, opt = brute_force_object(inst, 0, policy="mst")
            for key, kw in variants.items():
                copies = approximate_object_placement(inst, 0, **kw)
                sums[key].append(
                    ratio(object_cost(inst, 0, copies, policy="mst").total, opt)
                )
        result.rows.append(
            [wf] + [float(np.mean(sums[k])) for k in ("full", "no2", "no3", "fl")]
        )
    return result


# ----------------------------------------------------------------------
# E6: baseline comparison across the read/write mix
# ----------------------------------------------------------------------
def run_e6_baselines(
    *,
    family: str = "transit_stub",
    n: int = 18,
    seeds: Sequence[int] = tuple(range(6)),
    write_fractions: Sequence[float] = (0.0, 0.05, 0.2, 0.5, 0.9),
) -> ExperimentResult:
    """Mean total cost (MST policy) per strategy as writes increase."""
    result = ExperimentResult(
        "E6",
        "strategy comparison across read/write mix (mean cost, MST policy)",
        ("write fraction", "KRW approx", "single median", "full replication",
         "write-blind FL", "greedy add", "local search"),
        notes="Expected shape: full replication wins only at write fraction 0; "
        "single median wins at write-heavy extremes; KRW tracks the best.",
    )
    # the baseline family lives in the strategy registry; E6 is just a
    # sweep over it (the table column order is the historical one).
    # Deferred import: the registry's strategies return PlanReports, so
    # repro.registry -> repro.api -> (on demand) repro.analysis.
    from ..registry import get_strategy

    strategies = ("krw", "single-median", "full-replication", "write-blind",
                  "greedy-add", "local-search")
    for wf in write_fractions:
        sums: dict[str, list[float]] = {k: [] for k in strategies}
        for inst in _instances(family, n, seeds, write_fraction=wf):
            for name in strategies:
                sums[name].append(get_strategy(name).plan(inst).cost.total)
        result.rows.append([wf] + [float(np.mean(sums[k])) for k in strategies])
    return result


# ----------------------------------------------------------------------
# E7: storage price sweep -> replication degree
# ----------------------------------------------------------------------
def run_e7_storage_sweep(
    *,
    family: str = "geometric",
    n: int = 20,
    seeds: Sequence[int] = tuple(range(6)),
    prices: Sequence[float] = (0.1, 0.5, 2.0, 8.0, 32.0),
    write_fraction: float = 0.1,
) -> ExperimentResult:
    """Copies per object and cost split as the storage price scales."""
    result = ExperimentResult(
        "E7",
        "storage price sweep: replication degree and cost split (KRW)",
        ("storage price", "mean copies", "storage cost", "read cost",
         "update cost"),
        notes="Replication degree should fall monotonically as storage "
        "gets dearer; read cost rises to compensate.",
    )
    for price in prices:
        degrees, stor, read, upd = [], [], [], []
        for inst in _instances(
            family, n, seeds, write_fraction=write_fraction, storage_price=price
        ):
            copies = approximate_object_placement(inst, 0)
            degrees.append(len(copies))
            cost = object_cost(inst, 0, copies, policy="mst")
            stor.append(cost.storage)
            read.append(cost.read)
            upd.append(cost.update)
        result.rows.append(
            [price, float(np.mean(degrees)), float(np.mean(stor)),
             float(np.mean(read)), float(np.mean(upd))]
        )
    return result


# ----------------------------------------------------------------------
# E8: facility-location phase-1 choices
# ----------------------------------------------------------------------
def run_e8_facility_choice(
    *,
    family: str = "geometric",
    n: int = 14,
    seeds: Sequence[int] = tuple(range(6)),
    write_fraction: float = 0.2,
) -> ExperimentResult:
    """Standalone UFL quality vs the LP bound, and end-to-end KRW cost, per
    phase-1 solver (Lemma 9 carries the UFL factor through)."""
    result = ExperimentResult(
        "E8",
        "phase-1 solver choice: UFL quality and end-to-end cost",
        ("fl solver", "UFL cost / LP bound (mean)", "(max)",
         "end-to-end cost / optimum (mean)", "(max)"),
    )
    per_solver: dict[str, tuple[list[float], list[float]]] = {
        name: ([], []) for name in FL_SOLVERS
    }
    for inst in _instances(family, n, seeds, write_fraction=write_fraction):
        fl = related_facility_problem(inst, 0)
        lp_bound, _, _ = solve_ufl_lp(fl)
        _, opt = brute_force_object(inst, 0, policy="mst")
        for name, solver in FL_SOLVERS.items():
            open_set = solver(fl)
            ufl_ratio = fl.cost(open_set) / max(lp_bound, 1e-12)
            copies = approximate_object_placement(inst, 0, fl_solver=name)
            end_ratio = ratio(object_cost(inst, 0, copies, policy="mst").total, opt)
            per_solver[name][0].append(ufl_ratio)
            per_solver[name][1].append(end_ratio)
    for name, (ufl_ratios, end_ratios) in per_solver.items():
        result.rows.append(
            [name, float(np.mean(ufl_ratios)), float(np.max(ufl_ratios)),
             float(np.mean(end_ratios)), float(np.max(end_ratios))]
        )
    return result


# ----------------------------------------------------------------------
# E9: total-communication-load specialization on trees
# ----------------------------------------------------------------------
def run_e9_load_model(
    *,
    sizes: Sequence[int] = (12, 20, 30),
    seeds: Sequence[int] = tuple(range(5)),
    write_fraction: float = 0.25,
) -> ExperimentResult:
    """Section 1's reduction: with cs = 0 and ct = 1/bandwidth the model
    minimizes total communication load; the tree DP is then load-optimal
    and must beat/match every other strategy."""
    result = ExperimentResult(
        "E9",
        "total-load model on trees: tree DP optimal, KRW within constant",
        ("n", "runs", "KRW / tree-DP (mean)", "(max)",
         "median / tree-DP (mean)", "DP never beaten"),
    )
    for n in sizes:
        r_krw, r_med = [], []
        never_beaten = True
        for seed in seeds:
            g = generators.random_tree(n, seed=seed)
            # bandwidths in [1, 4); fee = 1 / bandwidth (Section 1 reduction)
            rng = np.random.default_rng(seed + 77)
            for u, v in g.edges():
                g[u][v]["weight"] = 1.0 / rng.uniform(1.0, 4.0)
            metric = Metric.from_graph(g)
            inst = make_instance(
                metric, seed=seed + 31, num_objects=1,
                write_fraction=write_fraction, storage_price=0.0,
            )
            _, dp_cost = optimal_tree_placement(
                g, inst.storage_costs, inst.read_freq, inst.write_freq
            )
            krw = approximate_object_placement(inst, 0)
            krw_cost = object_cost(inst, 0, krw, policy="steiner_mst").total
            med_cost = object_cost(
                inst, 0, best_single_node(inst, 0), policy="steiner_mst"
            ).total
            r_krw.append(ratio(max(krw_cost, dp_cost), dp_cost))
            r_med.append(ratio(max(med_cost, dp_cost), dp_cost))
            if min(krw_cost, med_cost) < dp_cost - 1e-9:
                never_beaten = False
        result.rows.append(
            [n, len(seeds), float(np.mean(r_krw)), float(np.max(r_krw)),
             float(np.mean(r_med)), never_beaten]
        )
    return result


# ----------------------------------------------------------------------
# E10: scalability
# ----------------------------------------------------------------------
def run_e10_scalability(
    *,
    approx_sizes: Sequence[int] = (50, 100, 200, 400),
    tree_sizes: Sequence[int] = (100, 300, 1000),
    write_fraction: float = 0.2,
    seed: int = 3,
) -> ExperimentResult:
    """Wall-clock scaling of the two headline algorithms."""
    result = ExperimentResult(
        "E10",
        "scalability: runtime vs network size",
        ("algorithm", "topology", "n", "time (ms)", "copies"),
    )
    for n in approx_sizes:
        g = generators.random_geometric_graph(n, max(0.15, 2.5 / np.sqrt(n)), seed=seed)
        metric = Metric.from_graph(g)
        inst = make_instance(metric, seed=seed + n, num_objects=1,
                             write_fraction=write_fraction)
        t0 = time.perf_counter()
        copies = approximate_object_placement(inst, 0)
        dt = time.perf_counter() - t0
        result.rows.append(["KRW approx", "geometric", n, 1e3 * dt, len(copies)])
    for n in tree_sizes:
        g = generators.random_tree(n, seed=seed)
        metric = Metric.from_graph(g)
        inst = make_instance(metric, seed=seed + n, num_objects=1,
                             write_fraction=write_fraction)
        t0 = time.perf_counter()
        placement, _ = optimal_tree_placement(
            g, inst.storage_costs, inst.read_freq, inst.write_freq
        )
        dt = time.perf_counter() - t0
        result.rows.append(
            ["tree DP", "random tree", n, 1e3 * dt, len(placement.copies(0))]
        )
    return result


# ----------------------------------------------------------------------
# E10b: dense vs lazy distance backend at scale
# ----------------------------------------------------------------------
def run_e10_backend_sweep(
    *,
    sizes: Sequence[int] = (500, 1500, 4000),
    topology: str = "transit_stub",
    write_fraction: float = 0.2,
    seed: int = 7,
    dense_limit: int = 4000,
    storage_price: float | None = None,
) -> ExperimentResult:
    """Dense vs lazy backend: wall time, peak memory, and result parity.

    For each network size the full pipeline (metric construction +
    instance + Section 2 placement) runs once per backend under
    ``tracemalloc``; the dense backend is skipped when the *requested*
    size exceeds ``dense_limit`` (generators may land a few percent off
    the request, and the parity column must not silently disappear when
    they overshoot the limit).
    ``peak / dense-matrix`` is the headline column: the lazy backend must
    stay well below 1 for the scaling story to hold.

    ``topology`` is ``"transit_stub"`` or ``"power_law"``;
    ``storage_price=None`` scales the uniform storage price with the
    request volume (``~ n / 100``) so replication degrees stay
    size-independent instead of drifting towards full replication as the
    request volume grows with ``n``.
    """
    if topology == "transit_stub":
        build = lambda n: generators.sized_transit_stub_graph(n, seed=seed)
    elif topology == "power_law":
        build = lambda n: generators.power_law_graph(n, seed=seed)
    else:
        raise ValueError(f"unknown topology {topology!r}")

    result = ExperimentResult(
        "E10b",
        "distance backends at scale: dense closure vs lazy Dijkstra",
        ("topology", "n", "backend", "time (s)", "peak MB",
         "dense matrix MB", "peak / dense matrix", "copies", "matches dense"),
        notes="'matches dense' compares the placed copy sets; '--' when the "
        "dense run was skipped (n > dense_limit) or not comparable.",
    )
    for size in sizes:
        g = build(size)
        n = g.number_of_nodes()
        price = storage_price if storage_price is not None else max(1.0, n / 100.0)
        dense_bytes = 8.0 * n * n
        per_backend: dict[str, tuple[float, ...]] = {}
        backends = (["dense"] if size <= dense_limit else []) + ["lazy"]
        for backend in backends:
            tracemalloc.start()
            t0 = time.perf_counter()
            if backend == "dense":
                metric = Metric.from_graph(g)
            else:
                metric = LazyMetric.from_graph(g)
            inst = make_instance(
                metric, seed=seed + n, num_objects=1,
                write_fraction=write_fraction, storage_price=price,
            )
            copies = approximate_object_placement(inst, 0)
            elapsed = time.perf_counter() - t0
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            per_backend[backend] = (elapsed, peak, copies)
        for backend in backends:
            elapsed, peak, copies = per_backend[backend]
            if backend == "lazy" and "dense" in per_backend:
                matches = copies == per_backend["dense"][2]
            else:
                matches = "--"
            result.rows.append(
                [topology, n, backend, elapsed, peak / 1e6, dense_bytes / 1e6,
                 peak / dense_bytes, len(copies), matches]
            )
    return result


# ----------------------------------------------------------------------
# E11: executed bill vs closed-form cost model
# ----------------------------------------------------------------------
def run_e11_simulation_agreement(
    *,
    families: Sequence[str] = ("tree", "transit_stub", "geometric"),
    n: int = 14,
    seeds: Sequence[int] = tuple(range(5)),
    write_fraction: float = 0.25,
) -> "ExperimentResult":
    """Replay every instance's full request log through the event-level
    simulator and compare the accrued bill with the analytic cost; also
    report the per-link load statistics the commercial model hides."""
    from ..core.approx import approximate_placement
    from ..simulate import NetworkSimulator, request_log_from_instance

    result = ExperimentResult(
        "E11",
        "event-level simulation vs closed-form cost model",
        ("family", "n", "runs", "max |sim - model| / model", "mean messages",
         "mean max-link load share"),
        notes="The simulated bill must equal the analytic cost to float "
        "precision; load share = busiest link / total traffic.",
    )
    for family in families:
        errs, msgs, shares = [], [], []
        for seed in seeds:
            g = _graph_family(family, n, seed)
            metric = Metric.from_graph(g)
            inst = make_instance(
                metric, seed=seed + 400, num_objects=2,
                write_fraction=write_fraction,
            )
            placement = approximate_placement(inst)
            sim = NetworkSimulator(g, inst, update_policy="mst")
            # hop-by-hop on purpose: E11's claim is that *routing every
            # event* reproduces the closed form (and it needs link loads)
            report = sim.run(
                placement, request_log_from_instance(inst, seed=seed),
                track_edge_load=True,
            )
            from ..core.costs import placement_cost

            analytic = placement_cost(inst, placement, policy="mst").total
            errs.append(abs(report.total_cost - analytic) / max(analytic, 1e-12))
            msgs.append(report.messages)
            total = report.total_load()
            shares.append(report.max_edge_load() / total if total > 0 else 0.0)
        result.rows.append(
            [family, g.number_of_nodes(), len(seeds), float(np.max(errs)),
             float(np.mean(msgs)), float(np.mean(shares))]
        )
    return result


# ----------------------------------------------------------------------
# E12: online dynamic strategy vs clairvoyant static optimum
# ----------------------------------------------------------------------
def run_e12_online_vs_static(
    *,
    sizes: Sequence[int] = (10, 14),
    seeds: Sequence[int] = tuple(range(5)),
    write_fractions: Sequence[float] = (0.0, 0.1, 0.4),
    threshold: int = 3,
) -> "ExperimentResult":
    """Empirical competitive ratio of the count-based online strategy
    against the hindsight-optimal *static* placement (tree DP) on the same
    shuffled request stream.  Online can win (it adapts between phases)
    and lose (write thrashing); both regimes should appear."""
    from ..simulate import (
        NetworkSimulator,
        OnlineCountingStrategy,
        request_log_from_instance,
    )
    from ..core.placement import Placement

    result = ExperimentResult(
        "E12",
        "online count-based strategy vs static optimum (trees)",
        ("write fraction", "n", "runs", "online/static mean", "(max)", "(min)"),
        notes="Ratios below 1 are legal: an adaptive strategy can beat any "
        "single static placement in hindsight.",
    )
    for wf in write_fractions:
        for n in sizes:
            ratios = []
            for seed in seeds:
                g = generators.random_tree(n, seed=seed)
                metric = Metric.from_graph(g)
                inst = make_instance(
                    metric, seed=seed + 600, num_objects=1, write_fraction=wf
                )
                placement, _ = optimal_tree_placement(
                    g, inst.storage_costs, inst.read_freq, inst.write_freq
                )
                log = request_log_from_instance(inst, seed=seed + 1)
                sim = NetworkSimulator(g, inst, update_policy="mst")
                static_bill = sim.run(placement, log).total_cost
                online = OnlineCountingStrategy(
                    g, inst, replication_threshold=threshold
                )
                online_bill, _ = online.run(log)
                ratios.append(online_bill.total_cost / max(static_bill, 1e-12))
            result.rows.append(
                [wf, n, len(seeds), float(np.mean(ratios)), float(np.max(ratios)),
                 float(np.min(ratios))]
            )
    return result


# ----------------------------------------------------------------------
# E13: the price of memory capacity constraints
# ----------------------------------------------------------------------
def run_e13_capacity_price(
    *,
    family: str = "geometric",
    n: int = 14,
    num_objects: int = 6,
    seeds: Sequence[int] = tuple(range(5)),
    caps: Sequence[int] = (6, 3, 2, 1),
    write_fraction: float = 0.15,
) -> "ExperimentResult":
    """Capacitated memories (Baev--Rajaraman / Meyer auf der Heide et al.):
    repair the uncapacitated KRW placement down to ``cap`` objects per node
    and measure the relative cost increase and the copy migration volume."""
    from ..core.approx import approximate_placement
    from ..core.capacity import capacity_violations, enforce_capacities
    from ..core.costs import placement_cost

    result = ExperimentResult(
        "E13",
        "price of memory capacity: cost vs per-node object limit",
        ("cap per node", "runs", "cost / uncapacitated (mean)", "(max)",
         "mean copies moved or dropped", "all feasible"),
        notes="cap = num_objects is the uncapacitated baseline; the "
        "problem couples objects only through capacities.",
    )
    for cap in caps:
        ratios, moved_all, feasible = [], [], True
        for seed in seeds:
            g = _graph_family(family, n, seed)
            metric = Metric.from_graph(g)
            inst = make_instance(
                metric, seed=seed + 800, num_objects=num_objects,
                write_fraction=write_fraction,
            )
            base = approximate_placement(inst)
            base_cost = placement_cost(inst, base, policy="mst").total
            cap_vec = np.full(inst.num_nodes, cap, dtype=int)
            repaired = enforce_capacities(inst, base, cap_vec)
            if capacity_violations(repaired, cap_vec):
                feasible = False
            ratios.append(
                placement_cost(inst, repaired, policy="mst").total
                / max(base_cost, 1e-12)
            )
            before = {(o, v) for o in range(num_objects) for v in base.copies(o)}
            after = {(o, v) for o in range(num_objects) for v in repaired.copies(o)}
            moved_all.append(len(before - after))
        result.rows.append(
            [cap, len(seeds), float(np.mean(ratios)), float(np.max(ratios)),
             float(np.mean(moved_all)), feasible]
        )
    return result


# ----------------------------------------------------------------------
# E14: catalog throughput of the batched placement engine
# ----------------------------------------------------------------------
def run_e14_catalog_throughput(
    *,
    num_objects: int = 2000,
    n: int = 1100,
    seed: int = 23,
    write_fraction: float = 0.05,
    storage_price: float | None = None,
    total_requests: float | None = None,
    chunk_size: int = 512,
    jobs: Sequence[int] = (2,),
    compare_loop: bool = True,
    fl_solver: str = "local_search",
) -> "ExperimentResult":
    """Catalog placement throughput: per-object loop vs the batched engine.

    Builds one WWW-style Zipf catalog (columnar generator, request budget
    ``total_requests``) on a sized transit-stub network and places it with

    * the paper-literal per-object loop (``approximate_placement``),
    * the batched engine, serial (``jobs = 1``), and
    * the engine with each requested worker count,

    timing each full pass and asserting copy-set parity between every
    mode.  ``storage_price=None`` scales a uniform price to half the mean
    per-object request volume, which lands replication around ~5 copies
    per object -- the regime a content provider actually buys (phase-1
    work grows with the copy count, so wildly over-replicated catalogs
    measure the UFL solver, not the catalog machinery).  The default
    ``n`` sits just above :data:`repro.facility.FACILITY_AUTO_THRESHOLD`
    so the candidate-capped phase 1 -- the documented catalog-scale
    configuration -- is what both paths run.  ``compare_loop=False``
    skips the (slow) loop baseline; speedups then report ``--``.
    """
    from ..engine import PlacementEngine
    from ..workloads.request_models import make_instance as _mk

    g = generators.sized_transit_stub_graph(n, seed=seed)
    metric = Metric.from_graph(g)
    n_real = metric.n
    if total_requests is None:
        total_requests = 100.0 * num_objects
    if storage_price is None:
        storage_price = max(2.0, 0.5 * total_requests / num_objects)
    inst = _mk(
        metric, seed=seed + 1, num_objects=num_objects, demand_model="catalog",
        write_fraction=write_fraction, storage_price=storage_price,
        total_requests=total_requests,
    )

    result = ExperimentResult(
        "E14",
        "catalog throughput: per-object loop vs batched engine",
        ("mode", "objects", "n", "time (s)", "objects/s",
         "speedup vs loop", "total copies", "matches loop"),
        notes="All modes must place identical copy sets; 'matches loop' "
        "compares against the per-object loop ('--' when the loop was "
        "skipped, in which case engine modes are compared to engine serial).",
    )

    timings: dict[str, tuple[float, Any]] = {}

    def run_mode(label: str, fn) -> None:
        t0 = time.perf_counter()
        placement = fn()
        timings[label] = (time.perf_counter() - t0, placement)

    if compare_loop:
        from ..core.approx import approximate_placement as _loop

        run_mode("per-object loop", lambda: _loop(inst, fl_solver=fl_solver))
    run_mode(
        "engine serial",
        lambda: PlacementEngine(
            inst, fl_solver=fl_solver, chunk_size=chunk_size, jobs=1
        ).place(),
    )
    for j in jobs:
        if j <= 1:
            continue
        run_mode(
            f"engine jobs={j}",
            lambda j=j: PlacementEngine(
                inst, fl_solver=fl_solver, chunk_size=chunk_size, jobs=j
            ).place(),
        )

    reference = ("per-object loop" if compare_loop else "engine serial")
    ref_time, ref_placement = timings[reference]
    for label, (elapsed, placement) in timings.items():
        matches: Any = placement.copy_sets == ref_placement.copy_sets
        if label == reference and not compare_loop:
            matches = "--"
        speedup: Any = ref_time / elapsed if compare_loop else "--"
        result.rows.append(
            [label, num_objects, n_real, elapsed, num_objects / elapsed,
             speedup, placement.total_copies(), matches]
        )
    return result


# ----------------------------------------------------------------------
# E15: dynamic workloads -- vectorized replay + epoch re-placement
# ----------------------------------------------------------------------
def run_e15_dynamic_replay(
    *,
    n: int = 1000,
    num_objects: int = 60,
    epochs: int = 5,
    requests_per_epoch: int = 2500,
    scenario: str = "drift",
    drift: float = 0.2,
    write_fraction: float = 0.1,
    threshold: int = 3,
    storage_price: float | None = None,
    seed: int = 29,
    fl_solver: str = "local_search",
    chunk_size: int = 512,
    jobs: int = 1,
    compare_loop: bool = True,
    replan_mode: str = "full",
    replan_tolerance: float = 0.0,
    redraw: str | None = None,
) -> "ExperimentResult":
    """Dynamic layer at scale: replay throughput + strategy comparison.

    Builds an epoch-structured workload (``scenario="drift"``: Zipf
    popularity churn; ``"flash"``: a one-epoch flash crowd) on a sized
    transit-stub network, then reports two sections:

    ``replay``
        The clairvoyant-static placement's full log replayed through the
        vectorized fast path and (``compare_loop=True``) the per-event
        hop-by-hop loop; the two bills must agree to float precision and
        message counts exactly, and the speedup column is the headline
        (``BENCH_e15_dynamic.json`` records >= 10x at 1k nodes / 10k+
        events).

    ``strategy``
        Total cost of (a) *clairvoyant-static*: one placement optimized
        for the summed horizon, billed per epoch; (b) *epoch-replan*:
        :class:`~repro.simulate.replanner.EpochReplanner`, re-solving
        each epoch and paying migration transfers from the nearest old
        copies; (c) *online-counting*: the count-based dynamic strategy
        over the same stream.  All three pay storage per epoch-or-
        materialization and the same per-link fees; 'vs static' is the
        ratio to (a).

    ``storage_price=None`` scales a uniform price to half the mean
    per-object epoch volume (the E14 regime: moderate replication).
    ``replan_mode``/``replan_tolerance`` configure the epoch-replan
    strategy (``"incremental"`` re-places only drifted objects per
    epoch; see Experiment E16 for the dedicated full-vs-incremental
    comparison).  ``redraw=None`` picks the workload's resampling mode
    to match: ``"changed"`` (only churned objects' rows differ between
    epochs) under incremental replanning -- full multinomial resampling
    would mark every object dirty at tolerance 0 and the incremental
    mode could never skip anything -- and the historical ``"all"``
    otherwise; pass an explicit mode to override.
    """
    from ..engine import PlacementEngine
    from ..simulate import EpochReplanner, NetworkSimulator, OnlineCountingStrategy
    from ..simulate.paths import PathCache
    from ..workloads.dynamic import drifting_zipf_catalog, flash_crowd
    from ..workloads.request_models import uniform_storage_costs

    g = generators.sized_transit_stub_graph(n, seed=seed)
    n_real = g.number_of_nodes()
    metric = (
        Metric.from_graph(g) if n_real <= 4096 else LazyMetric.from_graph(g)
    )
    if storage_price is None:
        storage_price = max(2.0, 0.5 * requests_per_epoch / num_objects)
    cs = uniform_storage_costs(n_real, storage_price)

    if redraw is None:
        redraw = "changed" if replan_mode == "incremental" else "all"
    if scenario == "drift":
        workload = drifting_zipf_catalog(
            n_real, num_objects, epochs=epochs, seed=seed + 1, drift=drift,
            requests_per_epoch=requests_per_epoch,
            write_fraction=write_fraction, redraw=redraw,
        )
    elif scenario == "flash":
        workload = flash_crowd(
            n_real, num_objects, epochs=epochs, seed=seed + 1,
            requests_per_epoch=requests_per_epoch,
            write_fraction=write_fraction, redraw=redraw,
        )
    else:
        raise ValueError(f"unknown scenario {scenario!r}; use 'drift' or 'flash'")

    result = ExperimentResult(
        "E15",
        f"dynamic layer: vectorized replay + epoch re-placement ({workload.name})",
        ("section", "label", "events", "time (s)", "speedup", "total cost",
         "vs static", "agrees"),
        notes="replay: one static placement's full log, vectorized vs "
        "hop-by-hop ('agrees' = bills within 1e-9, messages exactly equal). "
        "strategy: storage billed per epoch (online: per materialization); "
        "epoch-replan pays migration transfers from the nearest old copy.",
    )

    plan_config = PlanConfig(
        fl_solver=fl_solver, chunk_size=chunk_size, jobs=jobs,
        replan_mode=replan_mode, replan_tolerance=replan_tolerance,
    )
    shared_paths = PathCache(g)
    log_seed = seed + 2
    full_log = workload.full_log(seed=log_seed)
    events = len(full_log)

    # -- replay section: vectorized fast path vs per-event loop ---------
    aggregate = workload.aggregate_instance(metric, cs)
    t0 = time.perf_counter()
    static_placement = PlacementEngine.from_config(aggregate, plan_config).place()
    t_place = time.perf_counter() - t0

    sim_agg = NetworkSimulator(g, aggregate, path_cache=shared_paths)
    t0 = time.perf_counter()
    fast = sim_agg.run(static_placement, full_log)
    t_fast = time.perf_counter() - t0
    if compare_loop:
        t0 = time.perf_counter()
        slow = sim_agg.run(static_placement, full_log, track_edge_load=True)
        t_slow = time.perf_counter() - t0
        agrees = (
            abs(fast.total_cost - slow.total_cost)
            <= 1e-9 * max(abs(slow.total_cost), 1e-12)
            and fast.messages == slow.messages
        )
        result.rows.append(
            ["replay", "hop-by-hop", events, t_slow, 1.0, slow.total_cost,
             "--", "--"]
        )
        result.rows.append(
            ["replay", "vectorized", events, t_fast, t_slow / t_fast,
             fast.total_cost, "--", agrees]
        )
    else:
        result.rows.append(
            ["replay", "vectorized", events, t_fast, "--", fast.total_cost,
             "--", "--"]
        )

    # -- strategy section ----------------------------------------------
    t0 = time.perf_counter()
    static_total = 0.0
    for e in range(epochs):
        inst_e = workload.epoch_instance(metric, cs, e)
        sim_e = NetworkSimulator(g, inst_e, path_cache=shared_paths)
        static_total += sim_e.run(
            static_placement, workload.epoch_log(e, seed=log_seed + e)
        ).total_cost
    t_static = time.perf_counter() - t0 + t_place

    t0 = time.perf_counter()
    replan = EpochReplanner(g, metric, cs, config=plan_config).run(
        workload, log_seed=log_seed
    )
    t_replan = time.perf_counter() - t0

    t0 = time.perf_counter()
    online = OnlineCountingStrategy(
        g, aggregate, replication_threshold=threshold, path_cache=shared_paths
    )
    online_report, _ = online.run(full_log)
    t_online = time.perf_counter() - t0

    for label, elapsed, total in (
        ("clairvoyant-static", t_static, static_total),
        ("epoch-replan", t_replan, replan.total_cost),
        ("online-counting", t_online, online_report.total_cost),
    ):
        result.rows.append(
            ["strategy", label, events, elapsed, "--", total,
             total / max(static_total, 1e-12), "--"]
        )
    result.rows.append(
        ["strategy", "epoch-replan migration share", events, "--", "--",
         replan.migration_cost,
         replan.migration_cost / max(replan.total_cost, 1e-12), "--"]
    )
    return result


# ----------------------------------------------------------------------
# E16: incremental epoch re-placement -- solve only the drifted objects
# ----------------------------------------------------------------------
def run_e16_incremental_replan(
    *,
    n: int = 200,
    num_objects: int = 48,
    epochs: int = 5,
    requests_per_epoch: int | None = None,
    drift: float = 0.15,
    write_fraction: float = 0.05,
    tolerance: float = 0.05,
    storage_price: float | None = None,
    seed: int = 33,
    fl_solver: str = "local_search",
    chunk_size: int = 512,
    jobs: int = 1,
    backends: Sequence[str] = ("dense", "lazy"),
    scenarios: Sequence[str] = ("drift", "flash"),
) -> "ExperimentResult":
    """Full vs incremental epoch re-placement on sparse-drift workloads.

    Theorem 7 places objects independently, so an epoch transition only
    invalidates the placements of objects whose demand changed.  This
    experiment builds the two churn shapes in their sparse-drift form
    (``redraw="changed"``: only the churned objects' frequency rows
    differ between epochs) and replans each horizon twice per backend:

    * ``full`` -- :class:`~repro.simulate.replanner.EpochReplanner`
      re-solving the whole catalog every epoch (the E15 behavior), and
    * ``incremental`` at ``tolerance=0`` -- re-solving only
      :meth:`~repro.workloads.dynamic.DynamicWorkload.drifted_objects`,
      which must reproduce the full re-solve's placements, serving
      bills and migration bills **bit-identically** ("identical"
      column; total costs within 1e-9 relative), plus
    * ``incremental`` at ``tolerance > 0`` -- the documented
      speed-for-bounded-billing-error trade, whose cost delta the
      "vs full" column records.

    The headline column is the per-epoch solve speedup: mean wall time
    of one epoch's re-placement (placement + batched migration diff)
    over epochs after the first (epoch 0 is a full solve in every mode),
    full over incremental.  The committed artifact
    ``benchmarks/BENCH_e16_incremental.json`` records >= 5x at
    ``drift=0.15`` / ``tolerance=0`` on both backends.

    ``storage_price=None`` scales a uniform price to half the mean
    per-object epoch volume (the E14/E15 regime: moderate replication).
    """
    from ..simulate import EpochReplanner
    from ..workloads.dynamic import drifting_zipf_catalog, flash_crowd
    from ..workloads.request_models import uniform_storage_costs

    if epochs < 2:
        raise ValueError("epochs must be >= 2 (epoch 0 is always a full solve)")
    for b in backends:
        if b not in ("dense", "lazy"):
            raise ValueError(f"unknown backend {b!r}; use 'dense' and/or 'lazy'")
    for s in scenarios:
        if s not in ("drift", "flash"):
            raise ValueError(f"unknown scenario {s!r}; use 'drift' and/or 'flash'")

    g = generators.sized_transit_stub_graph(n, seed=seed)
    n_real = g.number_of_nodes()
    if requests_per_epoch is None:
        requests_per_epoch = 100 * num_objects
    if storage_price is None:
        storage_price = max(2.0, 0.5 * requests_per_epoch / num_objects)
    cs = uniform_storage_costs(n_real, storage_price)

    workloads = {}
    if "drift" in scenarios:
        workloads["drift"] = drifting_zipf_catalog(
            n_real, num_objects, epochs=epochs, seed=seed + 1, drift=drift,
            requests_per_epoch=requests_per_epoch,
            write_fraction=write_fraction, redraw="changed",
        )
    if "flash" in scenarios:
        workloads["flash"] = flash_crowd(
            n_real, num_objects, epochs=epochs, seed=seed + 2,
            requests_per_epoch=requests_per_epoch,
            write_fraction=write_fraction, redraw="changed",
        )

    result = ExperimentResult(
        "E16",
        f"incremental epoch re-placement (drift={drift}, m={num_objects})",
        ("workload", "backend", "mode", "tolerance", "replaced/epoch",
         "epoch solve (s)", "speedup", "total cost", "vs full", "identical"),
        notes="'epoch solve (s)' is the mean per-epoch re-placement time "
        "(placement + batched migration diff) over epochs after the first; "
        "'speedup' is full/incremental on that quantity.  'identical' "
        "checks bit-equal copy sets every epoch and total costs within "
        "1e-9 relative -- required at tolerance 0, best-effort above it.  "
        "Workloads use redraw='changed' (only churned objects' rows "
        "differ between epochs).",
    )

    modes = [("full", None), ("incremental", 0.0)]
    if tolerance > 0:
        modes.append(("incremental", float(tolerance)))

    metrics = {
        backend: (
            Metric.from_graph(g) if backend == "dense"
            else LazyMetric.from_graph(g)
        )
        for backend in dict.fromkeys(backends)
    }
    for wl_name, workload in workloads.items():
        for backend in backends:
            metric = metrics[backend]
            runs = {}
            for mode, tol in modes:
                config = PlanConfig(
                    fl_solver=fl_solver, chunk_size=chunk_size, jobs=jobs,
                    replan_mode=mode, replan_tolerance=tol or 0.0,
                )
                replanner = EpochReplanner(g, metric, cs, config=config)
                runs[(mode, tol)] = replanner.run(workload, log_seed=seed + 3)

            full = runs[("full", None)]
            full_solve = sum(e.solve_time_s for e in full.epochs[1:])
            for (mode, tol), res in runs.items():
                solve = sum(e.solve_time_s for e in res.epochs[1:])
                per_epoch = solve / (epochs - 1)
                replaced = sum(e.replaced_objects for e in res.epochs[1:]) / (
                    epochs - 1
                )
                identical = all(
                    f.placement.copy_sets == r.placement.copy_sets
                    for f, r in zip(full.epochs, res.epochs)
                ) and abs(res.total_cost - full.total_cost) <= 1e-9 * max(
                    abs(full.total_cost), 1e-12
                )
                result.rows.append([
                    workload.name, backend, mode,
                    "--" if tol is None else tol,
                    replaced, per_epoch,
                    full_solve / solve if solve > 0 else float("inf"),
                    res.total_cost,
                    res.total_cost / max(full.total_cost, 1e-12),
                    identical,
                ])
    return result


# ----------------------------------------------------------------------
# E18: sharded placement against portal summaries
# ----------------------------------------------------------------------
def run_e18_sharded(
    *,
    sizes: Sequence[int] = (1100, 2400, 5200),
    sharded_only_sizes: Sequence[int] = (10800,),
    num_objects: int = 32,
    num_shards: int = 8,
    portals_per_shard: int = 4,
    seed: int = 43,
    write_fraction: float = 0.1,
    jobs: int = 1,
    fl_solver: str = "local_search",
    admissibility_sample: int = 48,
) -> "ExperimentResult":
    """Hierarchical sharded placement vs the global solve, measured.

    For each size in ``sizes`` a transit-stub catalog instance is solved
    three ways on the lazy backend (and, at the smallest size, on the
    dense backend too, exercising the metric k-center partitioner):

    ``global``
        The whole-network :class:`~repro.engine.PlacementEngine` solve --
        the cost baseline.
    ``sharded``
        :func:`repro.graphs.partition_instance` under the experiment's
        ``num_shards`` / ``portals_per_shard``, then
        :meth:`~repro.engine.PlacementEngine.place_sharded` (timing
        includes the partitioning).  'vs global' is the total-cost ratio
        -- the measured approximation loss of solving against portal
        summaries; 'admissible' samples portal-routed rows against true
        distances and asserts routing never undercuts the metric.
    ``sharded k=1``
        The degenerate single-shard path; 'identical' asserts bit-equal
        copy sets against the global solve, and its cost ratio must be
        exactly 1.

    ``sharded_only_sizes`` extends the sweep past where the global solve
    is worth waiting for: only the sharded wall clock and admissibility
    are recorded ('vs global' is ``--``).  Cost ratios and parity bits
    are environment-independent; times are provenance only.
    """
    from ..engine import PlacementEngine
    from ..graphs.backend import PortalMetric
    from ..graphs.partition import Partition, partition_instance
    from ..core.costs import placement_cost

    def admissible(metric, partition) -> bool:
        rng = np.random.default_rng(seed + 5)
        k = min(admissibility_sample, partition.n)
        sample = np.sort(rng.choice(partition.n, size=k, replace=False))
        routed = np.asarray(PortalMetric(metric, partition).rows(sample))
        true = np.asarray(metric.rows(sample), dtype=float)
        return bool(float((routed - true).min()) >= -1e-9)

    def build(n_target: int, backend: str):
        g = generators.sized_transit_stub_graph(n_target, seed=seed)
        metric = (
            Metric.from_graph(g) if backend == "dense"
            else LazyMetric.from_graph(g)
        )
        total = 100.0 * num_objects
        return make_instance(
            metric, seed=seed + 1, num_objects=num_objects,
            demand_model="catalog", write_fraction=write_fraction,
            storage_price=max(2.0, 0.5 * total / num_objects),
            total_requests=total,
        )

    result = ExperimentResult(
        "E18",
        "hierarchical sharded placement: approximation loss + wall clock",
        ("n", "backend", "mode", "shards", "portals", "time (s)",
         "total cost", "vs global", "identical", "admissible"),
        notes=(
            "'vs global' is total sharded cost / total global cost under "
            "the mst policy (the measured loss of solving each object on "
            "its demand shards against portal summaries); 'identical' "
            "asserts the num_shards=1 degenerate path reproduces the "
            "global copy sets bit-for-bit; 'admissible' samples "
            f"{admissibility_sample} portal-routed rows and asserts they "
            "never undercut true distances.  Sizes beyond the global "
            "solve record sharded wall clock only ('vs global' is --). "
            "sharded timings include the partitioning itself."
        ),
    )

    def engine_for(inst):
        return PlacementEngine(inst, fl_solver=fl_solver, jobs=jobs)

    for i, n_target in enumerate(sorted(int(s) for s in sizes)):
        backends = ("dense", "lazy") if i == 0 else ("lazy",)
        for backend in backends:
            inst = build(n_target, backend)
            n_real = inst.num_nodes
            engine = engine_for(inst)

            t0 = time.perf_counter()
            global_placement = engine.place()
            t_global = time.perf_counter() - t0
            global_cost = placement_cost(inst, global_placement).total
            result.rows.append([
                n_real, backend, "global", "--", "--", t_global,
                global_cost, "--", "--", "--",
            ])

            t0 = time.perf_counter()
            part = partition_instance(
                inst, num_shards=num_shards,
                portals_per_shard=portals_per_shard,
            )
            sharded_placement, _ = engine.place_sharded(part)
            t_sharded = time.perf_counter() - t0
            sharded_cost = placement_cost(inst, sharded_placement).total
            result.rows.append([
                n_real, backend, "sharded", part.num_shards,
                portals_per_shard, t_sharded, sharded_cost,
                sharded_cost / global_cost, "--",
                admissible(inst.metric, part),
            ])

            t0 = time.perf_counter()
            one_placement, _ = engine.place_sharded(Partition.trivial(n_real))
            t_one = time.perf_counter() - t0
            one_cost = placement_cost(inst, one_placement).total
            result.rows.append([
                n_real, backend, "sharded k=1", 1, portals_per_shard, t_one,
                one_cost, one_cost / global_cost,
                one_placement.copy_sets == global_placement.copy_sets, "--",
            ])

    for n_target in sorted(int(s) for s in sharded_only_sizes):
        inst = build(n_target, "lazy")
        engine = engine_for(inst)
        t0 = time.perf_counter()
        part = partition_instance(
            inst, num_shards=num_shards, portals_per_shard=portals_per_shard,
        )
        sharded_placement, _ = engine.place_sharded(part)
        t_sharded = time.perf_counter() - t0
        result.rows.append([
            inst.num_nodes, "lazy", "sharded", part.num_shards,
            portals_per_shard, t_sharded,
            placement_cost(inst, sharded_placement).total,
            "--", "--", admissible(inst.metric, part),
        ])
    return result


# ----------------------------------------------------------------------
# E19: the serving daemon -- parity, lookup consistency, replan lag
# ----------------------------------------------------------------------
def run_e19_daemon(
    *,
    n: int = 200,
    num_objects: int = 48,
    epochs: int = 5,
    requests_per_epoch: int | None = None,
    drift: float = 0.15,
    write_fraction: float = 0.05,
    tolerance: float = 0.05,
    storage_price: float | None = None,
    seed: int = 41,
    fl_solver: str = "local_search",
    chunk_size: int = 512,
    jobs: int = 1,
    backends: Sequence[str] = ("dense", "lazy"),
    lag_drifts: Sequence[float] = (0.15, 0.4),
    lookups: int = 200,
) -> "ExperimentResult":
    """The :class:`~repro.serve.PlacementDaemon` serving loop, measured.

    Three sections:

    * ``parity`` -- a tolerance-0 daemon fed a
      :class:`~repro.workloads.dynamic.DynamicWorkload` epoch-by-epoch
      must reproduce the :class:`~repro.simulate.replanner.EpochReplanner`'s
      per-epoch placements and cumulative bill bit-identically
      ("identical" column; "vs replanner" within 1e-9 relative), per
      backend in incremental mode plus one full-mode row.  This is the
      daemon's correctness anchor: live serving costs nothing in
      placement quality.
    * ``latency`` -- foreground lookups issued *while* background
      replans run (``end_epoch(wait=False)``).  Every lookup's copy set
      must match the placement of the generation it reports
      ("consistent" column: a reader never observes a mix of two
      generations), and the mean lookup wall time is recorded
      (informational -- never gated).
    * ``lag`` -- drift-rate sweep at the working ``tolerance``: how many
      epochs actually triggered a replan and how many objects each
      re-placed.  Faster drift must keep triggering replans
      (``replans > 0``) while the tolerance keeps per-epoch work below
      the full catalog.

    The committed artifact is ``benchmarks/BENCH_e19_daemon.json``;
    only environment-independent claims (parity, consistency, replan
    counts) are gated.
    """
    from ..serve import PlacementDaemon, compare_with_replanner
    from ..workloads.dynamic import drifting_zipf_catalog

    if epochs < 2:
        raise ValueError("epochs must be >= 2 (epoch 0 is always a full solve)")
    for b in backends:
        if b not in ("dense", "lazy"):
            raise ValueError(f"unknown backend {b!r}; use 'dense' and/or 'lazy'")
    if lookups < 1:
        raise ValueError("lookups must be positive")

    g = generators.sized_transit_stub_graph(n, seed=seed)
    n_real = g.number_of_nodes()
    if requests_per_epoch is None:
        requests_per_epoch = 100 * num_objects
    if storage_price is None:
        storage_price = max(2.0, 0.5 * requests_per_epoch / num_objects)
    cs = uniform_storage_costs(n_real, storage_price)

    def make_workload(drift_rate: float, wl_seed: int):
        return drifting_zipf_catalog(
            n_real, num_objects, epochs=epochs, seed=wl_seed,
            drift=drift_rate, requests_per_epoch=requests_per_epoch,
            write_fraction=write_fraction, redraw="changed",
        )

    def make_metric(backend: str):
        return (Metric.from_graph(g) if backend == "dense"
                else LazyMetric.from_graph(g))

    def make_config(mode: str, tol: float) -> PlanConfig:
        return PlanConfig(
            fl_solver=fl_solver, chunk_size=chunk_size, jobs=jobs,
            replan_mode=mode, replan_tolerance=tol,
        )

    result = ExperimentResult(
        "E19",
        f"serving daemon: parity + consistency (drift={drift}, "
        f"m={num_objects})",
        ("section", "label", "backend", "epochs", "replans",
         "replaced/epoch", "lookups", "mean lookup (ms)", "total cost",
         "vs replanner", "identical", "consistent"),
        notes="'parity': tolerance-0 daemon vs EpochReplanner, per-epoch "
        "placements and bills bit-identical.  'latency': lookups during "
        "live background replans; 'consistent' means every lookup's copy "
        "set matched its reported generation's placement (never a mix); "
        "lookup wall time is informational.  'lag': drift sweep at the "
        "working tolerance -- 'replans' counts epochs that re-placed "
        "anything.",
    )

    workload = make_workload(drift, seed + 1)

    # -- parity: the daemon must be invisible in the bill
    parity_modes = [("incremental", 0.0)]
    for backend in backends:
        for mode, tol in parity_modes:
            verdict = compare_with_replanner(
                g, make_metric(backend), cs, workload,
                make_config(mode, tol),
            )
            replaced = [e["replaced"] for e in verdict["records"]]
            result.rows.append([
                "parity", f"{mode} t=0", backend, epochs, len(replaced),
                sum(replaced) / len(replaced), "--", "--",
                verdict["daemon_total"], verdict["cost_ratio"],
                verdict["identical"], "--",
            ])
    # one full-mode anchor on the first backend
    verdict = compare_with_replanner(
        g, make_metric(backends[0]), cs, workload,
        make_config("full", 0.0),
    )
    replaced = [e["replaced"] for e in verdict["records"]]
    result.rows.append([
        "parity", "full t=0", backends[0], epochs, len(replaced),
        sum(replaced) / len(replaced), "--", "--",
        verdict["daemon_total"], verdict["cost_ratio"],
        verdict["identical"], "--",
    ])

    # -- latency: lookups racing live background replans
    rng = np.random.default_rng(seed + 5)
    probe_objs = rng.integers(0, num_objects, size=lookups)
    probe_nodes = rng.integers(0, n_real, size=lookups)
    for backend in backends:
        daemon = PlacementDaemon(
            cs, num_objects, metric=make_metric(backend), graph=g,
            config=make_config("incremental", 0.0), keep_history=True,
        )
        try:
            consistent = True
            times = []
            per_epoch = max(1, lookups // epochs)
            done = 0
            for e in range(epochs):
                daemon.ingest_counts(
                    workload.read_freqs[e], workload.write_freqs[e]
                )
                daemon.end_epoch(wait=False)
                budget = per_epoch if e < epochs - 1 else lookups - done
                for i in range(done, done + budget):
                    obj = int(probe_objs[i])
                    t0 = time.perf_counter()
                    r = daemon.lookup(obj, int(probe_nodes[i]))
                    times.append(time.perf_counter() - t0)
                    expected = daemon.generation_placement(r.generation)[obj]
                    if r.copies != expected or r.replica not in r.copies:
                        consistent = False
                done += budget
            daemon.drain()
            records = daemon.epoch_records
            total = daemon.snapshot().cumulative_cost
        finally:
            daemon.close()
        replaced = [rec["replaced"] for rec in records]
        result.rows.append([
            "latency", f"drift={drift}", backend, epochs, len(records),
            sum(replaced) / len(replaced), done,
            1e3 * sum(times) / len(times), total, "--", "--",
            consistent,
        ])

    # -- lag: drift sweep at the working tolerance
    metric = make_metric(backends[0])
    for drift_rate in lag_drifts:
        wl = make_workload(float(drift_rate), seed + 7)
        daemon = PlacementDaemon(
            cs, num_objects, metric=metric, graph=g,
            config=make_config("incremental", tolerance),
        )
        try:
            for e in range(epochs):
                daemon.ingest_counts(wl.read_freqs[e], wl.write_freqs[e])
                daemon.end_epoch(wait=True)
            records = daemon.epoch_records
            total = daemon.snapshot().cumulative_cost
        finally:
            daemon.close()
        replans = sum(1 for rec in records if rec["replaced"] > 0)
        replaced = [rec["replaced"] for rec in records]
        result.rows.append([
            "lag", f"drift={float(drift_rate)}", backends[0], epochs,
            replans, sum(replaced) / len(replaced), "--", "--",
            total, "--", "--", "--",
        ])
    return result


def run_e20_costmodels(
    *,
    n: int = 60,
    num_objects: int = 12,
    storage_price: float = 4.0,
    slots: int = 4,
    capacity_frac: float = 0.4,
    seed: int = 23,
    fl_solver: str = "local_search",
    backends: Sequence[str] = ("dense", "lazy"),
) -> "ExperimentResult":
    """The pluggable accounting seam (:mod:`repro.costmodel`), validated.

    Three sections:

    * ``parity`` -- the default ``krw`` model must be invisible: a
      ``Planner.plan`` bill through the seam equals the legacy
      :func:`~repro.core.costs.placement_cost` bit-for-bit per backend
      ("identical" column), the vectorized simulator bill (now routed
      through ``bill_requests``) matches the hop-by-hop replay within
      float precision, and the batched ``bill_migration`` matches the
      per-object reference ``EpochReplanner._migration`` -- including an
      empty (zero-drift) transition billing exactly zero.
    * ``admission`` -- the per-timeslot capacity model: uncapped it
      reproduces the ``krw`` request bill; under capacity pressure it
      rejects some reads (``rejected > 0``), still serves others, and
      never bills more than ``krw``; end-to-end through ``Planner.plan``
      (``cost_model="admission"``) the placement is unchanged and the
      accepted/rejected split lands in the report's cost detail.
    * ``broadcast`` -- the multicast propagation model: end-to-end its
      bill never exceeds ``krw``'s (one MST charge per period instead of
      per write), and on read-only demand it equals ``krw`` exactly.

    The committed artifact is ``benchmarks/BENCH_e20_costmodels.json``.
    """
    from ..api import Planner
    from ..costmodel import AdmissionCostModel, get_cost_model
    from ..simulate.events import RequestLog
    from ..simulate.replanner import EpochReplanner
    from ..simulate.simulator import NetworkSimulator

    if slots < 1:
        raise ValueError("slots must be >= 1")
    if not (0.0 < capacity_frac < 1.0):
        raise ValueError("capacity_frac must lie in (0, 1) to force rejections")
    for b in backends:
        if b not in ("dense", "lazy"):
            raise ValueError(f"unknown backend {b!r}; use 'dense' and/or 'lazy'")

    g = generators.sized_transit_stub_graph(n, seed=seed)
    n_real = g.number_of_nodes()
    cs = uniform_storage_costs(n_real, storage_price)

    def make_metric(backend: str):
        return (Metric.from_graph(g) if backend == "dense"
                else LazyMetric.from_graph(g))

    def make_config(model: str) -> PlanConfig:
        return PlanConfig(fl_solver=fl_solver, cost_model=model)

    def _ratio(a: float, b: float) -> float:
        return 1.0 if a == b else a / b

    def bill_row(section, label, model, bill, vs, accepted, rejected,
                 identical):
        return [section, label, model, bill.total, bill.storage, bill.read,
                bill.update, vs, accepted, rejected, identical]

    result = ExperimentResult(
        "E20",
        f"cost-model seam: krw parity + admission + broadcast "
        f"(m={num_objects}, slots={slots})",
        ("section", "label", "model", "total cost", "storage", "read",
         "update", "vs krw", "accepted", "rejected", "identical"),
        notes="'parity': the krw model through the seam vs the legacy "
        "inline accounting -- plan bills bit-identical per backend, "
        "simulator and migration bills within float precision.  "
        "'admission': per-timeslot capacity accounting -- uncapped equals "
        "krw, capped rejects reads and never bills more.  'broadcast': "
        "one multicast propagation charge per period -- never above krw, "
        "equal on read-only demand.  'vs krw' is this row's total over "
        "the matching krw total.",
    )

    krw = get_cost_model("krw")

    # -- parity: the seam must be invisible under the default model
    dense_inst = None
    dense_report = None
    for backend in backends:
        metric = make_metric(backend)
        inst = make_instance(
            metric, seed=seed + 1, num_objects=num_objects,
            storage_price=storage_price,
        )
        report = Planner(make_config("krw")).plan(inst, "krw")
        legacy = placement_cost(inst, report.placement, policy="mst")
        identical = (
            report.cost.storage == legacy.storage
            and report.cost.read == legacy.read
            and report.cost.update == legacy.update
        )
        result.rows.append(bill_row(
            "parity", f"plan {backend}", "krw", report.cost,
            _ratio(report.cost.total, legacy.total), "--", "--", identical,
        ))
        if backend == "dense" or dense_inst is None:
            dense_inst, dense_report = inst, report

    inst, report = dense_inst, dense_report
    placement = report.placement

    # seam-billed vectorized replay vs the hop-by-hop routed bill
    sim = NetworkSimulator(g, inst)
    log = RequestLog.from_frequencies(inst.read_freq, inst.write_freq)
    vec = sim.run(placement, log)
    routed = sim.run(placement, log, track_edge_load=True)
    vec_bill = CostBreakdown(
        vec.storage_cost, vec.read_traffic_cost, vec.write_traffic_cost
    )
    result.rows.append(bill_row(
        "parity", "simulate", "krw", vec_bill,
        _ratio(vec.total_cost, routed.total_cost), "--", "--", "--",
    ))

    # batched bill_migration vs the per-object reference _migration
    replanner = EpochReplanner(g, inst.metric, cs, make_config("krw"))
    start = int(np.argmin(cs))
    prev = [(start,) for _ in range(num_objects)]
    batched = krw.bill_migration(inst.metric, prev, placement.copy_sets)
    ref_cost, ref_added, ref_dropped = 0.0, 0, 0
    for old, new in zip(prev, placement.copy_sets):
        c, a, d = replanner._migration(old, new)
        ref_cost += c
        ref_added += a
        ref_dropped += d
    mig_bill = CostBreakdown(0.0, 0.0, batched.cost)
    result.rows.append(bill_row(
        "parity", "migration", "krw", mig_bill,
        _ratio(batched.cost, ref_cost), "--", "--",
        batched.added == ref_added and batched.dropped == ref_dropped,
    ))
    # empty (zero-drift) transition: exactly zero on both paths
    empty = krw.bill_migration(inst.metric, list(placement.copy_sets),
                               placement.copy_sets)
    result.rows.append(bill_row(
        "parity", "migration empty", "krw",
        CostBreakdown(0.0, 0.0, empty.cost), _ratio(empty.cost, 0.0),
        "--", "--", tuple(empty) == (0.0, 0, 0),
    ))

    # -- admission: capacity-controlled timeslot accounting
    fr, fw = inst.read_freq, inst.write_freq
    krw_req = krw.bill_requests(inst, placement, fr, fw)
    uncapped = AdmissionCostModel(slots=slots).bill_requests(
        inst, placement, fr, fw
    )
    result.rows.append(bill_row(
        "admission", "uncapped", "admission", uncapped,
        _ratio(uncapped.total, krw_req.total),
        uncapped.detail["accepted"], uncapped.detail["rejected"], "--",
    ))

    # cap below the busiest object's per-slot per-copy read demand
    per_copy_demand = max(
        float(fr[obj].sum()) / slots / len(placement.copies(obj))
        for obj in range(num_objects)
    )
    cap = capacity_frac * per_copy_demand
    capped = AdmissionCostModel(
        slots=slots, capacity_per_copy=cap
    ).bill_requests(inst, placement, fr, fw)
    result.rows.append(bill_row(
        "admission", "capped", "admission", capped,
        _ratio(capped.total, krw_req.total),
        capped.detail["accepted"], capped.detail["rejected"], "--",
    ))

    adm_report = Planner(make_config("admission")).plan(inst, "krw")
    result.rows.append(bill_row(
        "admission", "plan admission", "admission", adm_report.cost,
        _ratio(adm_report.cost.total, report.cost.total),
        adm_report.cost.detail["accepted"],
        adm_report.cost.detail["rejected"],
        adm_report.placement.copy_sets == placement.copy_sets,
    ))

    # -- broadcast: one propagation charge per period
    bc_report = Planner(make_config("broadcast-write")).plan(inst, "krw")
    result.rows.append(bill_row(
        "broadcast", "plan broadcast", "broadcast-write", bc_report.cost,
        _ratio(bc_report.cost.total, report.cost.total), "--", "--",
        bc_report.placement.copy_sets == placement.copy_sets,
    ))

    ro_inst = make_instance(
        inst.metric, seed=seed + 2, num_objects=num_objects,
        write_fraction=0.0, storage_price=storage_price,
    )
    ro_placement = Planner(make_config("krw")).plan(ro_inst, "krw").placement
    ro_krw = placement_cost(ro_inst, ro_placement, policy="mst")
    ro_bc = get_cost_model("broadcast-write").bill_placement(
        ro_inst, ro_placement
    )
    result.rows.append(bill_row(
        "broadcast", "read-only", "broadcast-write", ro_bc,
        _ratio(ro_bc.total, ro_krw.total), "--", "--",
        (ro_bc.storage, ro_bc.read, ro_bc.update)
        == (ro_krw.storage, ro_krw.read, ro_krw.update),
    ))
    return result
