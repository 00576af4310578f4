"""Property-based bit-exactness of the flat query engine.

Three representations of the same cleaned object must answer every query
identically — not approximately, *bitwise*:

* the ``CTGraph`` object path (``repro.queries.analytics`` et al.),
* a ``QuerySession`` over ``CTGraph.to_flat()``,
* a ``QuerySession`` over a native flat build
  (``CleaningOptions(materialize="flat")``), for both ``build_ct_graph``
  and the reference builder oracle (``tests/reference_builder.py``).

The suite reuses the random-instance strategies of
``test_engine_vs_reference`` (random supports include zero-mass-pruned
levels and constraint mixes that trim whole branches) and pins, per
query: every location marginal, the entropy profile, expected visit
counts, visit/first-visit/span/dwell for every location (plus one the
graph never mentions), pattern matching, the MAP trajectory and top-k
lists.  Deterministic tie-breaking (lexicographic, per the
``most_likely_trajectory`` contract) gets its own regression tests on
hand-built tied graphs.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.algorithm import CleaningOptions, build_ct_graph
from repro.core.constraints import ConstraintSet, Latency, Unreachable
from repro.core.flatgraph import FlatCTGraph
from repro.core.lsequence import LSequence
from repro.errors import InconsistentReadingsError, QueryError
from repro.queries import (
    entropy_profile,
    expected_visit_counts,
    first_visit_distribution,
    most_likely_trajectory,
    span_probability,
    stay_query,
    time_at_location_distribution,
    top_k_trajectories,
    visit_probability,
)
from repro.queries.session import QuerySession
from repro.queries.trajectory import TrajectoryQuery

from tests.reference_builder import build_ct_graph_reference
from tests.test_engine_vs_reference import (
    LOCATIONS,
    constraint_sets,
    lsequences,
    tt_heavy_constraint_sets,
)

QUERY_LOCATIONS = LOCATIONS + ("Z",)  # "Z" never appears in any graph

FLAT = CleaningOptions(materialize="flat")

BUILDERS = (build_ct_graph_reference, build_ct_graph)


def _build_all_forms(lsequence, constraints):
    """The node graph plus its three flat forms, or None on zero mass."""
    try:
        nodes = build_ct_graph(lsequence, constraints)
    except InconsistentReadingsError as error:
        for build in BUILDERS:
            with pytest.raises(type(error)):
                build(lsequence, constraints, FLAT)
        return None
    flats = [nodes.to_flat()]
    for build in BUILDERS:
        flats.append(build(lsequence, constraints, FLAT))
    return nodes, flats


def _assert_query_parity(nodes, flat):
    session = QuerySession(flat)
    duration = nodes.duration
    assert session.duration == duration
    assert flat.num_valid_trajectories() == nodes.num_valid_trajectories()

    for tau in range(duration):
        assert session.location_marginal(tau) == stay_query(nodes, tau)
    assert session.entropy_profile() == entropy_profile(nodes)
    assert session.expected_visit_counts() == expected_visit_counts(nodes)

    for location in QUERY_LOCATIONS:
        assert (session.visit_probability(location)
                == visit_probability(nodes, location))
        assert (session.first_visit_distribution(location)
                == first_visit_distribution(nodes, location))
        assert (session.time_at_location_distribution(location)
                == time_at_location_distribution(nodes, location))
        end = min(duration - 1, 3)
        assert (session.span_probability(location, 0, end)
                == span_probability(nodes, location, 0, end))

    assert session.most_likely_trajectory() == most_likely_trajectory(nodes)
    for k in (1, 3, 10_000):
        assert session.top_k_trajectories(k) == top_k_trajectories(nodes, k)

    query = TrajectoryQuery("? B[1] ?" if duration >= 3 else "B[1]")
    assert query.probability(flat) == query.probability(nodes)


@settings(max_examples=150, deadline=None)
@given(lsequences(), constraint_sets())
def test_query_parity_on_random_instances(lsequence, constraints):
    forms = _build_all_forms(lsequence, constraints)
    if forms is None:
        return
    nodes, flats = forms
    # All flat forms are one value: to_flat == native (both builders).
    assert flats[0] == flats[1] == flats[2]
    flats[0].validate()
    _assert_query_parity(nodes, flats[0])


@settings(max_examples=100, deadline=None)
@given(lsequences(max_duration=12), tt_heavy_constraint_sets())
def test_query_parity_on_tt_heavy_instances(lsequence, constraints):
    """TT constraints prune mid-sequence levels — the zero-mass-pruned
    node/edge paths the flat emission must drop identically."""
    forms = _build_all_forms(lsequence, constraints)
    if forms is None:
        return
    nodes, flats = forms
    assert flats[0] == flats[1] == flats[2]
    _assert_query_parity(nodes, flats[0])


# ----------------------------------------------------------------------
# deterministic tie-breaking
# ----------------------------------------------------------------------
def _tied_graph():
    """Four equal-probability trajectories: (B|C) -> A -> (B|D)."""
    lsequence = LSequence([
        {"B": 0.5, "C": 0.5},
        {"A": 1.0},
        {"B": 0.5, "D": 0.5},
    ])
    return build_ct_graph(lsequence, ConstraintSet([]))


def test_map_tie_break_is_lexicographic():
    nodes = _tied_graph()
    trajectory, probability = most_likely_trajectory(nodes)
    assert trajectory == ("B", "A", "B")
    assert probability == 0.25


def test_map_tie_break_identical_on_flat_path():
    nodes = _tied_graph()
    session = QuerySession(nodes.to_flat())
    assert session.most_likely_trajectory() == most_likely_trajectory(nodes)


def test_top_k_ties_ordered_identically_across_paths():
    nodes = _tied_graph()
    session = QuerySession(nodes.to_flat())
    expected = top_k_trajectories(nodes, 4)
    assert [t for t, _ in expected] == [
        ("B", "A", "B"), ("B", "A", "D"), ("C", "A", "B"), ("C", "A", "D")]
    assert session.top_k_trajectories(4) == expected


def test_map_tie_break_prefers_earlier_divergence():
    """Lexicographic means position 0 dominates: A.. beats B.. even when
    the B-prefixed path would win later positions."""
    lsequence = LSequence([
        {"A": 0.5, "B": 0.5},
        {"A": 0.5, "D": 0.5},
    ])
    nodes = build_ct_graph(lsequence, ConstraintSet([]))
    trajectory, _ = most_likely_trajectory(nodes)
    assert trajectory == ("A", "A")
    session = QuerySession(nodes.to_flat())
    assert session.most_likely_trajectory() == most_likely_trajectory(nodes)


# ----------------------------------------------------------------------
# top-k contract
# ----------------------------------------------------------------------
def test_top_k_exhausts_at_num_valid_trajectories():
    nodes = _tied_graph()
    assert nodes.num_valid_trajectories() == 4
    for graphlike in (nodes, None):
        if graphlike is None:
            result = QuerySession(nodes.to_flat()).top_k_trajectories(100)
        else:
            result = top_k_trajectories(graphlike, 100)
        assert len(result) == 4
        assert sum(p for _, p in result) == pytest.approx(1.0)


def test_top_k_rejects_non_positive_k():
    nodes = _tied_graph()
    with pytest.raises(QueryError):
        top_k_trajectories(nodes, 0)
    with pytest.raises(QueryError):
        QuerySession(nodes.to_flat()).top_k_trajectories(0)


@settings(max_examples=60, deadline=None)
@given(lsequences(max_duration=6), constraint_sets(),
       st.integers(min_value=1, max_value=30))
def test_top_k_length_contract_on_random_instances(lsequence, constraints,
                                                   k):
    forms = _build_all_forms(lsequence, constraints)
    if forms is None:
        return
    nodes, flats = forms
    result = top_k_trajectories(nodes, k)
    assert len(result) == min(k, nodes.num_valid_trajectories())
    assert result == QuerySession(flats[0]).top_k_trajectories(k)
    # Sorted by probability, descending.
    probabilities = [p for _, p in result]
    assert probabilities == sorted(probabilities, reverse=True)


# ----------------------------------------------------------------------
# flat container behaviour
# ----------------------------------------------------------------------
def test_flat_graph_is_smaller_and_validates():
    lsequence = LSequence([{"A": 0.5, "B": 0.5} for _ in range(40)])
    nodes = build_ct_graph(lsequence, ConstraintSet([Latency("B", 3)]))
    flat = nodes.to_flat()
    flat.validate()
    assert flat.estimate_size_bytes() < nodes.estimate_size_bytes()
    assert flat.num_nodes == nodes.num_nodes
    assert flat.num_edges == nodes.num_edges


def test_session_rejects_out_of_range_queries():
    nodes = _tied_graph()
    session = QuerySession(nodes.to_flat())
    with pytest.raises(QueryError):
        session.location_marginal(3)
    with pytest.raises(QueryError):
        session.span_probability("A", 1, 3)
    with pytest.raises(QueryError):
        nodes.to_flat().locations_at(-1)


def test_flat_equality_ignores_stats():
    lsequence = LSequence([{"A": 1.0}, {"A": 0.6, "B": 0.4}])
    constraints = ConstraintSet([Unreachable("A", "C")])
    reference = build_ct_graph_reference(lsequence, constraints, FLAT)
    built = build_ct_graph(lsequence, constraints, FLAT)
    assert isinstance(reference, FlatCTGraph)
    assert isinstance(built, FlatCTGraph)
    assert reference == built  # stats differ (compare=False), values equal
