"""The epoch step's outputs against a frozen record.

The replanner and the daemon run the same epoch step, so
``compare_with_replanner`` checks that step against itself; a change
that moves both consumers alike passes it.  This module compares them
with ``golden_epochs.json`` instead: per epoch, the copy sets, the
serve and migration bills (as hex floats) and the number of re-solved
objects, for three consumers -- the replanner, a daemon that bills
through the network replay and a metric-only daemon -- on the dense
and the lazy backend, in three replan configurations, over a drifting
workload and over one whose last epoch repeats the epoch before it.

The record was taken while the replanner and the daemon each had their
own epoch loop.  One value has moved since: a full-mode replanner
re-solved an epoch that repeats its predecessor (``replaced`` was the
catalog size, 6); it now carries the placement as the daemon always
did (``replaced`` is 0).  :data:`MOVED` names those cases; every copy
set and bill is unchanged.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.config import PlanConfig
from repro.graphs.backend import LazyMetric
from repro.graphs.generators import transit_stub_graph
from repro.graphs.metric import Metric
from repro.serve import PlacementDaemon, replay_workload
from repro.simulate import EpochReplanner
from repro.workloads import DynamicWorkload, drifting_zipf_catalog

GOLDEN = Path(__file__).with_name("golden_epochs.json")

CONSUMERS = ("replanner", "daemon-graph", "daemon-metric")
BACKENDS = ("dense", "lazy")
#: name -> (replan_mode, replan_tolerance)
CONFIGS = {
    "incremental-0": ("incremental", 0.0),
    "full-0": ("full", 0.0),
    "incremental-0.3": ("incremental", 0.3),
}
WORKLOADS = ("drift", "repeat")
CASES = [
    f"{consumer}/{backend}/{config}/{workload}"
    for consumer in CONSUMERS
    for backend in BACKENDS
    for config in CONFIGS
    for workload in WORKLOADS
]

#: The cases whose last epoch's ``replaced`` moved from 6 to 0.
MOVED = {f"replanner/{backend}/full-0/repeat" for backend in BACKENDS}


def _network():
    g = transit_stub_graph(2, 2, 3, seed=3)
    return g, np.full(g.number_of_nodes(), 250.0)


def _workload(name: str, n: int) -> DynamicWorkload:
    wl = drifting_zipf_catalog(
        n, 6, epochs=4, seed=11, drift=0.4, requests_per_epoch=3000,
        write_fraction=0.2, redraw="changed",
    )
    if name == "drift":
        return wl
    # three drifting epochs, then the third again
    return DynamicWorkload(
        np.concatenate([wl.read_freqs[:3], wl.read_freqs[2:3]]),
        np.concatenate([wl.write_freqs[:3], wl.write_freqs[2:3]]),
    )


def run_case(case: str) -> list[dict]:
    """One case's per-epoch record, through public entry points only."""
    consumer, backend, config_name, workload = case.split("/")
    g, costs = _network()
    metric = Metric.from_graph(g) if backend == "dense" else LazyMetric.from_graph(g)
    wl = _workload(workload, metric.n)
    mode, tolerance = CONFIGS[config_name]
    config = PlanConfig(replan_mode=mode, replan_tolerance=tolerance)
    if consumer == "replanner":
        result = EpochReplanner(g, metric, costs, config=config).run(wl)
        rows = [
            (e.placement.copy_sets, e.report.total_cost, e.migration_cost,
             e.replaced_objects)
            for e in result.epochs
        ]
    else:
        daemon = PlacementDaemon(
            costs, wl.num_objects, metric=metric,
            graph=g if consumer == "daemon-graph" else None,
            config=config, keep_history=True,
        )
        try:
            rows = [
                (daemon.generation_placement(r["generation"]), r["serve_cost"],
                 r["migration_cost"], r["replaced"])
                for r in replay_workload(daemon, wl)
            ]
        finally:
            daemon.close()
    return [
        {
            "copy_sets": [list(s) for s in copy_sets],
            "serve": float(serve).hex(),
            "migration": float(migration).hex(),
            "replaced": int(replaced),
        }
        for copy_sets, serve, migration, replaced in rows
    ]


def test_record_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_epochs_match_golden_record(case):
    golden = json.loads(GOLDEN.read_text())[case]
    if case in MOVED:
        assert golden[-1]["replaced"] == 6  # recorded: a full re-solve
        golden[-1]["replaced"] = 0  # now carried, as the daemon did
    assert run_case(case) == golden

