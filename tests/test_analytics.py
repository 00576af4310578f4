"""Tests for the analytics queries (MAP, top-k, entropy, visit stats)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.algorithm import build_ct_graph
from repro.core.constraints import ConstraintSet, Latency, Unreachable
from repro.core.lsequence import LSequence
from repro.core.naive import NaiveConditioner
from repro.errors import InconsistentReadingsError, QueryError
from repro.queries.analytics import (
    entropy_profile,
    entropy_profile_prior,
    expected_visit_counts,
    first_visit_distribution,
    most_likely_trajectory,
    top_k_trajectories,
    uncertainty_reduction,
    visit_probability,
)
from repro.queries.stay import stay_query


@pytest.fixture
def case():
    ls = LSequence([{"A": 0.6, "B": 0.4},
                    {"B": 0.5, "C": 0.5},
                    {"C": 0.7, "D": 0.3}])
    cs = ConstraintSet([Unreachable("A", "C"), Unreachable("B", "D")])
    graph = build_ct_graph(ls, cs)
    naive = NaiveConditioner(ls, cs).conditioned_distribution()
    return ls, cs, graph, naive


class TestMostLikely:
    def test_matches_enumeration_argmax(self, case):
        _, _, graph, naive = case
        trajectory, probability = most_likely_trajectory(graph)
        best = max(naive, key=naive.get)
        assert trajectory == best
        assert probability == pytest.approx(naive[best])

    def test_deterministic_graph(self):
        ls = LSequence([{"A": 1.0}, {"B": 1.0}])
        graph = build_ct_graph(ls, ConstraintSet())
        assert most_likely_trajectory(graph) == (("A", "B"), pytest.approx(1.0))


class TestTopK:
    def test_bad_k_rejected(self, case):
        _, _, graph, _ = case
        with pytest.raises(QueryError):
            top_k_trajectories(graph, 0)

    def test_top_k_matches_sorted_enumeration(self, case):
        _, _, graph, naive = case
        expected = sorted(naive.items(), key=lambda kv: -kv[1])
        for k in (1, 2, 3, len(expected), len(expected) + 5):
            got = top_k_trajectories(graph, k)
            assert len(got) == min(k, len(expected))
            for (t_got, p_got), (t_exp, p_exp) in zip(got, expected):
                assert p_got == pytest.approx(p_exp)
            # Probabilities must be non-increasing.
            probabilities = [p for _, p in got]
            assert probabilities == sorted(probabilities, reverse=True)

    def test_top_1_equals_most_likely(self, case):
        _, _, graph, _ = case
        ((trajectory, probability),) = top_k_trajectories(graph, 1)
        assert (trajectory, probability) == most_likely_trajectory(graph)


class TestEntropy:
    def test_certainty_has_zero_entropy(self):
        ls = LSequence([{"A": 1.0}, {"B": 1.0}])
        graph = build_ct_graph(ls, ConstraintSet())
        assert entropy_profile(graph) == [0.0, 0.0]

    def test_uniform_has_one_bit(self):
        ls = LSequence([{"A": 0.5, "B": 0.5}])
        assert entropy_profile_prior(ls) == [pytest.approx(1.0)]

    def test_conditioning_reduces_entropy_here(self, case):
        ls, _, graph, _ = case
        reduction = uncertainty_reduction(ls, graph)
        assert reduction > 0.0

    def test_no_constraints_no_reduction(self):
        ls = LSequence([{"A": 0.5, "B": 0.5}] * 3)
        graph = build_ct_graph(ls, ConstraintSet())
        assert uncertainty_reduction(ls, graph) == pytest.approx(0.0)

    def test_duration_mismatch_rejected(self, case):
        ls, _, graph, _ = case
        other = LSequence([{"A": 1.0}])
        with pytest.raises(QueryError):
            uncertainty_reduction(other, graph)


class TestVisitStatistics:
    def test_expected_counts_sum_to_duration(self, case):
        _, _, graph, _ = case
        totals = expected_visit_counts(graph)
        assert math.fsum(totals.values()) == pytest.approx(graph.duration)

    def test_expected_counts_match_enumeration(self, case):
        _, _, graph, naive = case
        totals = expected_visit_counts(graph)
        expected = {}
        for trajectory, probability in naive.items():
            for location in trajectory:
                expected[location] = expected.get(location, 0.0) + probability
        assert set(totals) == set(expected)
        for location, value in expected.items():
            assert totals[location] == pytest.approx(value)

    def test_visit_probability_matches_enumeration(self, case):
        _, _, graph, naive = case
        for location in ("A", "B", "C", "D", "Z"):
            expected = sum(p for t, p in naive.items() if location in t)
            assert visit_probability(graph, location) == pytest.approx(expected)

    def test_first_visit_matches_enumeration(self, case):
        _, _, graph, naive = case
        for location in ("A", "B", "C", "D"):
            expected = {}
            for trajectory, probability in naive.items():
                if location in trajectory:
                    tau = trajectory.index(location)
                    expected[tau] = expected.get(tau, 0.0) + probability
            got = first_visit_distribution(graph, location)
            assert set(got) == set(expected)
            for tau, value in expected.items():
                assert got[tau] == pytest.approx(value)

    def test_span_probability_matches_enumeration(self, case):
        from repro.queries.analytics import span_probability
        _, _, graph, naive = case
        for location in ("A", "B", "C", "D"):
            for start in range(3):
                for end in range(start, 3):
                    expected = sum(
                        p for t, p in naive.items()
                        if all(t[tau] == location
                               for tau in range(start, end + 1)))
                    got = span_probability(graph, location, start, end)
                    assert got == pytest.approx(expected), \
                        (location, start, end)

    def test_span_probability_bad_window(self, case):
        from repro.queries.analytics import span_probability
        _, _, graph, _ = case
        with pytest.raises(QueryError):
            span_probability(graph, "A", 2, 1)
        with pytest.raises(QueryError):
            span_probability(graph, "A", 0, 99)

    def test_span_of_single_step_is_marginal(self, case):
        from repro.queries.analytics import span_probability
        _, _, graph, _ = case
        for location, probability in stay_query(graph, 1).items():
            assert span_probability(graph, location, 1, 1) \
                == pytest.approx(probability)

    def test_first_visit_mass_equals_visit_probability(self, case):
        _, _, graph, _ = case
        for location in ("A", "B", "C", "D"):
            mass = math.fsum(first_visit_distribution(graph, location).values())
            assert mass == pytest.approx(visit_probability(graph, location))

    def test_time_at_location_matches_enumeration(self, case):
        from repro.queries.analytics import time_at_location_distribution
        _, _, graph, naive = case
        for location in ("A", "B", "C", "D", "Z"):
            expected: dict = {}
            for trajectory, probability in naive.items():
                count = sum(1 for step in trajectory if step == location)
                expected[count] = expected.get(count, 0.0) + probability
            got = time_at_location_distribution(graph, location)
            assert set(got) == set(expected)
            for count, probability in expected.items():
                assert got[count] == pytest.approx(probability)

    def test_time_at_location_is_a_distribution(self, case):
        from repro.queries.analytics import time_at_location_distribution
        _, _, graph, _ = case
        distribution = time_at_location_distribution(graph, "B")
        assert math.fsum(distribution.values()) == pytest.approx(1.0)

    def test_time_at_location_mean_matches_expected_counts(self, case):
        from repro.queries.analytics import time_at_location_distribution
        _, _, graph, _ = case
        totals = expected_visit_counts(graph)
        for location in ("A", "B", "C"):
            distribution = time_at_location_distribution(graph, location)
            mean = sum(count * mass for count, mass in distribution.items())
            assert mean == pytest.approx(totals.get(location, 0.0))


# ----------------------------------------------------------------------
# property tests vs enumeration
# ----------------------------------------------------------------------

locations = st.sampled_from("ABC")


@st.composite
def instances(draw):
    duration = draw(st.integers(min_value=1, max_value=5))
    rows = []
    for _ in range(duration):
        support = draw(st.lists(locations, min_size=1, max_size=3, unique=True))
        weights = [draw(st.floats(min_value=0.1, max_value=1.0))
                   for _ in support]
        total = sum(weights)
        rows.append({l: w / total for l, w in zip(support, weights)})
    constraints = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        if draw(st.booleans()):
            constraints.append(Unreachable(draw(locations), draw(locations)))
        else:
            constraints.append(Latency(draw(locations),
                                       draw(st.integers(2, 3))))
    return LSequence(rows), ConstraintSet(constraints)


@settings(max_examples=200, deadline=None)
@given(instances())
def test_top_k_property(instance):
    lsequence, constraints = instance
    try:
        naive = NaiveConditioner(lsequence, constraints).conditioned_distribution()
    except InconsistentReadingsError:
        return
    graph = build_ct_graph(lsequence, constraints)
    expected = sorted(naive.values(), reverse=True)
    got = [p for _, p in top_k_trajectories(graph, len(expected))]
    assert len(got) == len(expected)
    for p_got, p_exp in zip(got, expected):
        assert p_got == pytest.approx(p_exp, abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(instances(), locations)
def test_visit_probability_property(instance, location):
    lsequence, constraints = instance
    try:
        naive = NaiveConditioner(lsequence, constraints).conditioned_distribution()
    except InconsistentReadingsError:
        return
    graph = build_ct_graph(lsequence, constraints)
    expected = sum(p for t, p in naive.items() if location in t)
    assert visit_probability(graph, location) == pytest.approx(
        expected, abs=1e-9)
