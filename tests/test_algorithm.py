"""Tests for Algorithm 1 (ct-graph construction) on hand-checked instances."""

import math

import pytest

from repro.core.algorithm import CleaningOptions, build_ct_graph
from repro.core.constraints import (
    ConstraintSet,
    Latency,
    TravelingTime,
    Unreachable,
)
from repro.core.lsequence import LSequence
from repro.errors import InconsistentReadingsError, ReadingSequenceError


class TestOptions:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ReadingSequenceError):
            CleaningOptions("sometimes")

    def test_policies(self):
        assert not CleaningOptions("lenient").strict_truncation
        assert CleaningOptions("strict").strict_truncation


class TestUnconstrainedCleaning:
    def test_no_constraints_preserves_priors(self, uniform_lsequence):
        graph = build_ct_graph(uniform_lsequence, ConstraintSet())
        paths = dict(graph.paths())
        assert len(paths) == 8
        for trajectory, probability in paths.items():
            assert probability == pytest.approx(
                uniform_lsequence.trajectory_prior(trajectory))

    def test_single_timestep(self):
        ls = LSequence([{"A": 0.3, "B": 0.7}])
        graph = build_ct_graph(ls, ConstraintSet())
        assert dict(graph.paths()) == {("A",): pytest.approx(0.3),
                                       ("B",): pytest.approx(0.7)}

    def test_path_probabilities_sum_to_one(self, uniform_lsequence):
        graph = build_ct_graph(uniform_lsequence, ConstraintSet())
        assert math.fsum(p for _, p in graph.paths()) == pytest.approx(1.0)


class TestPaperStyleScenario:
    """A scenario shaped like the paper's running example (Sections 4-5):
    two sources, one killed by constraints, losses propagating backward."""

    @pytest.fixture
    def scenario(self):
        lsequence = LSequence([
            {"L1": 0.6, "L2": 0.4},
            {"L3": 1 / 3, "L4": 2 / 3},
            {"L3": 2 / 3, "L4": 1 / 3},
        ])
        constraints = ConstraintSet([
            Latency("L3", 2),               # a stay at L3 lasts >= 2 steps
            Unreachable("L2", "L3"),        # L2 cannot reach L3 directly
            TravelingTime("L1", "L4", 3),   # L1 -> L4 takes >= 3 steps
            Unreachable("L4", "L4"),        # L4 is transit-only here
            Unreachable("L4", "L3"),
        ])
        return lsequence, constraints

    def test_unique_valid_trajectory(self, scenario):
        graph = build_ct_graph(*scenario)
        paths = dict(graph.paths())
        assert paths == {("L1", "L3", "L3"): pytest.approx(1.0)}

    def test_dead_branches_removed(self, scenario):
        graph = build_ct_graph(*scenario)
        # Only the L1 source survives; levels contain exactly the path.
        assert graph.locations_at(0) == ("L1",)
        assert graph.num_nodes == 3
        assert graph.num_edges == 2

    def test_source_conditioning(self, scenario):
        graph = build_ct_graph(*scenario)
        (probability,) = graph.source_probabilities
        assert probability == pytest.approx(1.0)


class TestConditioningRatios:
    def test_ratios_of_survivors_are_preserved(self):
        # Two valid trajectories with prior ratio 2:1 keep that ratio.
        ls = LSequence([{"A": 1.0}, {"B": 2 / 3, "C": 1 / 3}])
        cs = ConstraintSet()  # everything valid
        graph = build_ct_graph(ls, cs)
        paths = dict(graph.paths())
        assert paths[("A", "B")] / paths[("A", "C")] == pytest.approx(2.0)

    def test_invalid_mass_redistributed_proportionally(self):
        ls = LSequence([{"A": 0.5, "B": 0.25, "C": 0.2, "D": 0.05},
                        {"Z": 1.0}])
        cs = ConstraintSet([Unreachable("C", "Z"), Unreachable("D", "Z")])
        graph = build_ct_graph(ls, cs)
        paths = dict(graph.paths())
        # The introduction's example: survivors get 2/3 and 1/3.
        assert paths[("A", "Z")] == pytest.approx(2 / 3)
        assert paths[("B", "Z")] == pytest.approx(1 / 3)


class TestInconsistency:
    def test_no_continuation_raises(self):
        ls = LSequence([{"A": 1.0}, {"B": 1.0}])
        cs = ConstraintSet([Unreachable("A", "B")])
        with pytest.raises(InconsistentReadingsError):
            build_ct_graph(ls, cs)

    def test_late_dead_end_raises(self):
        # Valid until the final step, where all branches die.
        ls = LSequence([{"A": 1.0}, {"A": 0.5, "B": 0.5}, {"C": 1.0}])
        cs = ConstraintSet([Unreachable("A", "C"), Unreachable("B", "C")])
        with pytest.raises(InconsistentReadingsError):
            build_ct_graph(ls, cs)

    def test_strict_truncation_can_be_inconsistent(self):
        ls = LSequence([{"A": 1.0}, {"B": 1.0}])
        cs = ConstraintSet([Latency("B", 3)])
        # Lenient: the truncated stay at B is fine.
        graph = build_ct_graph(ls, cs)
        assert dict(graph.paths()) == {("A", "B"): pytest.approx(1.0)}
        # Strict: B's stay cannot meet its bound -> nothing is valid.
        with pytest.raises(InconsistentReadingsError):
            build_ct_graph(ls, cs, CleaningOptions("strict"))


class TestLatencyGraphShape:
    def test_latency_splits_nodes_by_stay(self):
        # Two ways to be at B at step 1 (fresh arrival vs continuation)
        # must be distinct nodes when a latency constraint binds.
        ls = LSequence([{"A": 0.5, "B": 0.5},
                        {"B": 1.0},
                        {"B": 0.5, "C": 0.5}])
        cs = ConstraintSet([Latency("B", 3)])
        graph = build_ct_graph(ls, cs)
        stays = sorted(stay if stay is not None else -1
                       for stay in graph.stays[1])
        assert stays == [1, 2]
        paths = dict(graph.paths())
        # A,B,B: stay of 2 truncated by window (lenient: valid);
        # B,B,B: stay meets bound; B,B,C: leaving after a 2-step stay < 3
        # is invalid.
        assert set(paths) == {("A", "B", "B"), ("B", "B", "B")}

    def test_stats_attached(self, uniform_lsequence):
        graph = build_ct_graph(uniform_lsequence, ConstraintSet())
        assert graph.stats.nodes_created == graph.num_nodes
        assert graph.stats.edges_created == graph.num_edges
        assert graph.stats.nodes_removed == 0

    def test_stats_count_removals(self):
        ls = LSequence([{"A": 0.5, "B": 0.5}, {"C": 1.0}])
        cs = ConstraintSet([Unreachable("B", "C")])
        graph = build_ct_graph(ls, cs)
        # The B source never even gets an edge (its only move is forbidden),
        # so one node is removed and no edge ever existed to remove.
        assert graph.stats.nodes_removed == 1
        assert graph.stats.edges_removed == 0
        assert graph.stats.nodes_kept == graph.num_nodes
        assert graph.stats.edges_kept == graph.num_edges


class TestNumericalRobustness:
    def test_long_sequence_does_not_underflow(self):
        # 600 steps of a 3-way branching with constant pruning: the naive
        # absolute-survival formulation underflows long before this.
        steps = [{"A": 0.4, "B": 0.4, "C": 0.2}] * 600
        cs = ConstraintSet([Unreachable("A", "C"), Unreachable("C", "A")])
        graph = build_ct_graph(LSequence(steps), cs)
        graph.validate()
        total = math.fsum(graph.source_probabilities)
        assert total == pytest.approx(1.0)

    def test_tiny_probabilities_survive(self):
        ls = LSequence([{"A": 1e-9, "B": 1.0 - 1e-9}, {"Z": 1.0}])
        cs = ConstraintSet([Unreachable("B", "Z")])
        graph = build_ct_graph(ls, cs)
        assert dict(graph.paths()) == {("A", "Z"): pytest.approx(1.0)}
