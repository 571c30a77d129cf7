"""Tests for repro.core.instance: validation and derived quantities."""

import contextlib
import tempfile
import warnings
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.instance import DataManagementInstance
from repro.graphs.generators import random_tree
from repro.graphs.metric import Metric


@pytest.fixture
def basic(line_metric):
    return DataManagementInstance(
        line_metric,
        storage_costs=np.array([1.0, 2.0, 3.0, 4.0, 5.0]),
        read_freq=np.array([[1.0, 0.0, 2.0, 0.0, 1.0], [0.0, 3.0, 0.0, 0.0, 0.0]]),
        write_freq=np.array([[0.0, 1.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.0, 0.0]]),
    )


class TestValidation:
    def test_shape_mismatch_storage(self, line_metric):
        with pytest.raises(ValueError, match="storage_costs"):
            DataManagementInstance(
                line_metric, np.ones(4), np.ones((1, 5)), np.zeros((1, 5))
            )

    def test_shape_mismatch_freq(self, line_metric):
        with pytest.raises(ValueError, match="equal shapes"):
            DataManagementInstance(
                line_metric, np.ones(5), np.ones((1, 5)), np.zeros((2, 5))
            )

    def test_wrong_column_count(self, line_metric):
        with pytest.raises(ValueError, match="columns"):
            DataManagementInstance(
                line_metric, np.ones(5), np.ones((1, 4)), np.zeros((1, 4))
            )

    def test_negative_frequency_rejected(self, line_metric):
        fr = np.ones((1, 5))
        fr[0, 2] = -1.0
        with pytest.raises(ValueError, match="non-negative"):
            DataManagementInstance(line_metric, np.ones(5), fr, np.zeros((1, 5)))

    def test_negative_storage_rejected(self, line_metric):
        with pytest.raises(ValueError, match="non-negative"):
            DataManagementInstance(
                line_metric, -np.ones(5), np.ones((1, 5)), np.zeros((1, 5))
            )

    def test_object_names_default(self, basic):
        assert basic.object_names == ("x0", "x1")

    def test_object_names_wrong_length(self, line_metric):
        with pytest.raises(ValueError, match="object_names"):
            DataManagementInstance(
                line_metric,
                np.ones(5),
                np.ones((2, 5)),
                np.zeros((2, 5)),
                object_names=("only-one",),
            )

    def test_metric_factory_tuple_rejected_by_name(self):
        """metric_from_graph returns (metric, index, nodes); passing the
        whole tuple must raise a TypeError naming that convention, not
        die later with a bare AttributeError on .n."""
        from repro.graphs.backend import lazy_metric_from_graph
        from repro.graphs.metric import metric_from_graph

        g = random_tree(5, seed=3)
        for factory in (metric_from_graph, lazy_metric_from_graph):
            bundle = factory(g)
            with pytest.raises(TypeError, match=r"\(metric, index, nodes\)"):
                DataManagementInstance(
                    bundle, np.ones(5), np.ones((1, 5)), np.zeros((1, 5))
                )
        # the unpacked metric element works as documented
        metric, _, _ = metric_from_graph(g)
        inst = DataManagementInstance(
            metric, np.ones(5), np.ones((1, 5)), np.zeros((1, 5))
        )
        assert inst.num_nodes == 5

    def test_one_dim_frequencies_promoted(self, line_metric):
        inst = DataManagementInstance(line_metric, np.ones(5), np.ones(5), np.zeros(5))
        assert inst.num_objects == 1


def _arrays_with(field: str, bad: float, pos: int = 1) -> dict:
    """Valid two-object arrays for the five-node line, one entry of
    ``field`` (flat position ``pos``, wrapped) replaced by ``bad``."""
    arrays = {
        "storage_costs": np.full(5, 3.0),
        "read_freq": np.array([[1.0, 0.0, 2.0, 0.0, 1.0], [0.0, 3.0, 0.0, 0.0, 0.0]]),
        "write_freq": np.array([[0.0, 1.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.0, 0.0]]),
        "object_sizes": np.ones(2),
    }
    arrays[field].flat[pos % arrays[field].size] = bad
    return arrays


_FIELDS = ["storage_costs", "read_freq", "write_freq", "object_sizes"]
_NON_FINITE = pytest.mark.parametrize(
    "bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"]
)


class TestNonFiniteInputs:
    """A NaN or infinite price, frequency or size is rejected by name when
    the instance is built -- not planned into a finite bill, and not left
    to fail deep inside the radii sweep or at billing time."""

    @_NON_FINITE
    @pytest.mark.parametrize("field", _FIELDS)
    def test_constructor_names_the_array(self, line_metric, field, bad):
        with pytest.raises(ValueError, match=rf"^{field} must be finite"):
            DataManagementInstance(line_metric, **_arrays_with(field, bad))

    @_NON_FINITE
    @pytest.mark.parametrize("field", _FIELDS)
    def test_planner_never_solves_a_non_finite_instance(self, line_metric, field, bad):
        from repro.api import Planner

        with pytest.raises(ValueError, match=rf"^{field} must be finite"):
            Planner().plan(DataManagementInstance(line_metric, **_arrays_with(field, bad)))

    def test_empty_catalog_still_accepted(self, line_metric):
        inst = DataManagementInstance(
            line_metric, np.ones(5), np.zeros((0, 5)), np.zeros((0, 5))
        )
        assert inst.num_objects == 0


def _line_graph() -> nx.Graph:
    """The five-node unit line, as a graph (``line_metric``'s network)."""
    g = nx.path_graph(5)
    nx.set_edge_attributes(g, 1.0, "weight")
    return g


#: NaN, an infinity or a negative number: every entry no price,
#: frequency or size may hold.
_BAD_ENTRY = st.one_of(
    st.sampled_from([np.nan, np.inf, -np.inf]),
    st.floats(min_value=-1e300, max_value=-1e-300),
)


@contextlib.contextmanager
def _rejected_by_name(field: str):
    """Expect a ValueError whose message starts with the array's name,
    with every RuntimeWarning on the way turned into a failure."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=rf"^{field} must be"):
            yield


class TestAdversarialInputs:
    """NaN, infinite and negative entries are rejected by name at every
    boundary that takes them -- the instance constructor, the planner,
    a loaded instance file (the ``repro serve run --instance`` path) and
    the daemon's storage prices -- without a RuntimeWarning escaping."""

    @given(field=st.sampled_from(_FIELDS), bad=_BAD_ENTRY, pos=st.integers(0, 9))
    @settings(max_examples=40, deadline=None)
    def test_instance_planner_and_loaded_file(self, field, bad, pos):
        from repro.api import Planner
        from repro.serialize import load_instance, save_instance

        metric = Metric.from_graph(_line_graph())
        arrays = _arrays_with(field, bad, pos)
        with _rejected_by_name(field):
            DataManagementInstance(metric, **arrays)
        with _rejected_by_name(field):
            Planner().plan(DataManagementInstance(metric, **arrays))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "instance.npz"
            save_instance(
                DataManagementInstance(metric, **_arrays_with(field, 1.0, pos)), path
            )
            with np.load(path) as archive:
                payload = dict(archive)
            payload[field] = arrays[field]
            np.savez_compressed(path, **payload)
            with _rejected_by_name(field):
                load_instance(path)

    @given(bad=_BAD_ENTRY, pos=st.integers(0, 4))
    @settings(max_examples=25, deadline=None)
    def test_daemon_storage_prices(self, bad, pos):
        from repro.api import Planner
        from repro.serve import PlacementDaemon

        graph = _line_graph()
        metric = Metric.from_graph(graph)
        costs = np.full(5, 3.0)
        costs[pos] = bad
        with _rejected_by_name("storage_costs"):
            PlacementDaemon(costs, 2, metric=metric)
        with _rejected_by_name("storage_costs"):
            Planner().serve(graph, costs, 2)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "warm.npz"
            with PlacementDaemon(np.full(5, 3.0), 2, metric=metric) as good:
                good.checkpoint_now(path)
            with _rejected_by_name("storage_costs"):
                PlacementDaemon.restore(path, storage_costs=costs, metric=metric)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_serve_run_refuses_the_instance_file(self, tmp_path, capsys, bad):
        from repro.cli import main
        from repro.serialize import save_instance

        path = tmp_path / "instance.npz"
        save_instance(
            DataManagementInstance(
                Metric.from_graph(_line_graph()), **_arrays_with("read_freq", 1.0)
            ),
            path,
        )
        with np.load(path) as archive:
            payload = dict(archive)
        payload["storage_costs"] = _arrays_with("storage_costs", bad)["storage_costs"]
        np.savez_compressed(path, **payload)
        assert main(["serve", "run", "--instance", str(path)]) == 2
        assert "storage_costs must be" in capsys.readouterr().err


class TestDerived:
    def test_counts(self, basic):
        assert basic.num_nodes == 5
        assert basic.num_objects == 2

    def test_demand_adds_reads_and_writes(self, basic):
        assert np.allclose(basic.demand(0), [1, 1, 2, 0, 2])

    def test_totals(self, basic):
        assert basic.total_reads(0) == 4.0
        assert basic.total_writes(0) == 2.0
        assert basic.total_requests(0) == 6.0

    def test_read_only_per_object(self, basic):
        assert not basic.is_read_only(0)
        assert basic.is_read_only(1)
        assert not basic.is_read_only()

    def test_validate_copies(self, basic):
        assert basic.validate_copies([3, 1, 1]) == [1, 3]

    def test_validate_copies_empty(self, basic):
        with pytest.raises(ValueError, match="at least one copy"):
            basic.validate_copies([])

    def test_validate_copies_out_of_range(self, basic):
        with pytest.raises(ValueError, match="out of range"):
            basic.validate_copies([5])
        with pytest.raises(ValueError, match="out of range"):
            basic.validate_copies([-1])


class TestConstructors:
    def test_from_graph(self):
        g = random_tree(6, seed=2)
        inst = DataManagementInstance.from_graph(
            g, np.ones(6), np.ones((1, 6)), np.zeros((1, 6))
        )
        assert inst.num_nodes == 6

    def test_from_graph_rejects_odd_labels(self):
        g = nx.Graph()
        g.add_edge("a", "b", weight=1.0)
        with pytest.raises(ValueError, match="0..n-1"):
            DataManagementInstance.from_graph(
                g, np.ones(2), np.ones((1, 2)), np.zeros((1, 2))
            )

    def test_single_object(self, line_metric):
        inst = DataManagementInstance.single_object(
            line_metric, np.ones(5), np.arange(5.0), np.zeros(5)
        )
        assert inst.num_objects == 1
        assert inst.total_reads(0) == 10.0
