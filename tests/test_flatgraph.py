"""Tests for the production graph, :class:`FlatCTGraph`: structure,
validation, pickling and the trajectory walks it shares with the mapped
``.ctg`` view."""

import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.algorithm import build_ct_graph
from repro.core.constraints import ConstraintSet, Latency, Unreachable
from repro.core.flatgraph import FlatCTGraph, out_edges
from repro.core.lsequence import LSequence
from repro.core.naive import NaiveConditioner
from repro.errors import GraphInvariantError, QueryError
from repro.store.format import load_ctg, save_ctg
from tests.reference_builder import build_ct_graph_reference


@pytest.fixture
def diamond():
    """Two middle alternatives converging: A -> {B, C} -> D."""
    ls = LSequence([{"A": 1.0}, {"B": 0.75, "C": 0.25}, {"D": 1.0}])
    return build_ct_graph(ls, ConstraintSet())


@pytest.fixture
def stay_split():
    """Several nodes per location: ``B`` with and without a running stay."""
    ls = LSequence([{"A": 0.5, "B": 0.5}, {"B": 1.0}, {"B": 0.5, "C": 0.5},
                    {"C": 1.0}])
    return ls, ConstraintSet([Latency("B", 2), Unreachable("A", "C")])


class TestStructure:
    def test_shape(self, diamond):
        assert isinstance(diamond, FlatCTGraph)
        assert diamond.duration == 3
        assert [diamond.level_size(tau) for tau in range(3)] == [1, 2, 1]
        assert diamond.num_nodes == 4 and diamond.num_edges == 4
        assert diamond.locations_at(1) == ("B", "C")
        with pytest.raises(QueryError):
            diamond.level_size(3)

    def test_out_edges_is_the_csr_slice(self, diamond):
        children, probabilities = out_edges(diamond, 0, 0)
        assert list(children) == [0, 1]
        assert list(probabilities) == [0.75, 0.25]


class TestWalks:
    def test_paths(self, diamond):
        assert list(diamond.paths()) == [(("A", "B", "D"), 0.75),
                                         (("A", "C", "D"), 0.25)]

    def test_paths_match_the_oracle_bitwise(self, stay_split):
        ls, constraints = stay_split
        graph = build_ct_graph(ls, constraints)
        oracle = build_ct_graph_reference(ls, constraints)
        assert list(graph.paths()) == list(oracle.paths())
        expected = NaiveConditioner(ls, constraints).conditioned_distribution()
        assert dict(graph.paths()) == pytest.approx(expected)

    def test_num_valid_trajectories(self, stay_split):
        ls, constraints = stay_split
        graph = build_ct_graph(ls, constraints)
        assert graph.num_valid_trajectories() == len(list(graph.paths()))
        many = build_ct_graph(LSequence([{"A": 0.5, "B": 0.5}] * 10),
                              ConstraintSet())
        assert many.num_valid_trajectories() == 2 ** 10

    def test_trajectory_probability_sums_matching_nodes(self, stay_split):
        ls, constraints = stay_split
        graph = build_ct_graph(ls, constraints)
        oracle = build_ct_graph_reference(ls, constraints)
        for trajectory, probability in oracle.paths():
            assert graph.trajectory_probability(trajectory) == probability
        assert graph.trajectory_probability(("A", "A", "A", "A")) == 0.0
        assert graph.trajectory_probability(("Z", "B", "B", "C")) == 0.0
        with pytest.raises(QueryError):
            graph.trajectory_probability(("A",))

    def test_mapped_view_shares_the_walks(self, stay_split, tmp_path):
        ls, constraints = stay_split
        graph = build_ct_graph(ls, constraints)
        save_ctg(graph, tmp_path / "g.ctg")
        with load_ctg(tmp_path / "g.ctg") as view:
            assert list(view.paths()) == list(graph.paths())
            assert view.num_valid_trajectories() \
                == graph.num_valid_trajectories()
            for trajectory, _ in graph.paths():
                assert view.trajectory_probability(trajectory) \
                    == graph.trajectory_probability(trajectory)

    def test_paths_of_long_graphs_do_not_recurse(self):
        duration = 3000
        graph = build_ct_graph(LSequence([{"A": 1.0}] * duration),
                               ConstraintSet())
        ((trajectory, probability),) = list(graph.paths())
        assert trajectory == ("A",) * duration and probability == 1.0


class TestValidate:
    def test_algorithm_output_is_valid(self, diamond):
        diamond.validate()

    def test_rejects_broken_source_distribution(self, diamond):
        broken = dataclasses.replace(diamond, source_probabilities=(0.5,))
        with pytest.raises(GraphInvariantError, match="sum to 0.5"):
            broken.validate()
        with pytest.raises(AssertionError):  # the historical contract
            broken.validate()

    def test_rejects_broken_edge_distribution(self, diamond):
        rows = ((0.75, 0.75),) + diamond.edge_probabilities[1:]
        broken = dataclasses.replace(diamond, edge_probabilities=rows)
        with pytest.raises(GraphInvariantError, match="outgoing"):
            broken.validate()

    def test_rejects_childless_node(self, diamond):
        broken = dataclasses.replace(
            diamond, edge_offsets=((0, 0),) + diamond.edge_offsets[1:],
            edge_children=((),) + diamond.edge_children[1:],
            edge_probabilities=((),) + diamond.edge_probabilities[1:])
        with pytest.raises(GraphInvariantError, match="no successors"):
            broken.validate()

    def test_rejects_out_of_range_child(self, diamond):
        broken = dataclasses.replace(
            diamond, edge_children=((0, 7),) + diamond.edge_children[1:])
        with pytest.raises(GraphInvariantError, match="outside"):
            broken.validate()

    def test_survives_assert_stripping(self):
        script = (
            "import dataclasses\n"
            "from repro.core.algorithm import build_ct_graph\n"
            "from repro.core.constraints import ConstraintSet\n"
            "from repro.core.lsequence import LSequence\n"
            "from repro.errors import GraphInvariantError\n"
            "assert True is False  # proves -O stripped asserts\n"
            "ls = LSequence([{'A': 1.0}, {'B': 0.5, 'C': 0.5}, {'D': 1.0}])\n"
            "graph = build_ct_graph(ls, ConstraintSet())\n"
            "graph = dataclasses.replace(graph, source_probabilities=(0.25,))\n"
            "try:\n"
            "    graph.validate()\n"
            "except GraphInvariantError:\n"
            "    print('RAISED')\n"
        )
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "RAISED"


class TestPicklingAndSize:
    def test_pickle_handles_long_graphs(self):
        duration = 1200
        graph = build_ct_graph(LSequence([{"A": 0.5, "B": 0.5}] * duration),
                               ConstraintSet())
        clone = pickle.loads(pickle.dumps(graph))
        assert clone == graph
        assert clone.stats == graph.stats

    def test_size_estimate_positive_and_monotone(self):
        small = build_ct_graph(LSequence([{"A": 1.0}, {"B": 1.0}]),
                               ConstraintSet())
        large = build_ct_graph(LSequence([{"A": 0.5, "B": 0.5}] * 20),
                               ConstraintSet())
        assert 0 < small.estimate_size_bytes() < large.estimate_size_bytes()

    def test_flat_is_smaller_than_the_node_oracle(self):
        ls = LSequence([{"A": 0.5, "B": 0.5}] * 20)
        flat = build_ct_graph(ls, ConstraintSet())
        nodes = build_ct_graph_reference(ls, ConstraintSet())
        assert flat == nodes.to_flat()
        assert flat.estimate_size_bytes() < nodes.estimate_size_bytes()
