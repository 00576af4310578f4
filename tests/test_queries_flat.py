"""Property-based bit-exactness of the query layer against its oracle.

Every query on a cleaned graph has one production implementation, the
:class:`~repro.queries.session.QuerySession` method.  This suite pins it
to the ``CTNode``-walking DPs of ``tests/reference_queries.py`` —
not approximately, *bitwise* — over every graph form a session serves:

* ``build_ct_graph``'s ``FlatCTGraph``, which must equal the
  ``to_flat()`` of the reference builder oracle's node graph
  (``tests/reference_builder.py``),
* the mmap-served ``MappedCTGraph`` of a saved ``.ctg`` file.

The suite reuses the random-instance strategies of
``test_engine_vs_reference`` (random supports include zero-mass-pruned
levels and constraint mixes that trim whole branches) and pins, per
query: every location marginal, the entropy profile, expected visit
counts, visit/first-visit/span/dwell for every location (plus one the
graph never mentions), pattern matching, the MAP trajectory and top-k
lists.  Deterministic tie-breaking (lexicographic, per the
``most_likely_trajectory`` contract) gets its own regression tests on
hand-built tied graphs, and the public functions are checked to accept
every graph form with identical answers.
"""

import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.algorithm import build_ct_graph
from repro.core.constraints import ConstraintSet, Latency, Unreachable
from repro.core.flatgraph import FlatCTGraph
from repro.core.groups import condition_on_meeting
from repro.core.lsequence import LSequence
from repro.errors import InconsistentReadingsError, QueryError
from repro.queries import (
    colocation_profile,
    entropy_profile,
    expected_visit_counts,
    first_visit_distribution,
    meeting_probability,
    meeting_time_distribution,
    most_likely_trajectory,
    span_probability,
    stay_query,
    time_at_location_distribution,
    top_k_trajectories,
    uncertainty_reduction,
    visit_probability,
)
from repro.queries import ql
from repro.queries.accuracy import stay_accuracy_on, trajectory_accuracy_on
from repro.queries.session import QuerySession
from repro.queries.trajectory import TrajectoryQuery
from repro.store import load_ctg, save_ctg

from tests import reference_queries as oracle
from tests.reference_builder import build_ct_graph_reference
from tests.test_engine_vs_reference import (
    LOCATIONS,
    constraint_sets,
    lsequences,
    tt_heavy_constraint_sets,
)

QUERY_LOCATIONS = LOCATIONS + ("Z",)  # "Z" never appears in any graph

def _build_all_forms(lsequence, constraints):
    """The oracle node graph plus both flat forms (its ``to_flat()`` and
    production's build), or None on zero mass."""
    try:
        nodes = build_ct_graph_reference(lsequence, constraints)
    except InconsistentReadingsError as error:
        with pytest.raises(type(error)):
            build_ct_graph(lsequence, constraints)
        return None
    return nodes, [nodes.to_flat(), build_ct_graph(lsequence, constraints)]


def _assert_query_parity(nodes, graph):
    """Every session answer over ``graph`` equals the oracle on ``nodes``."""
    session = QuerySession(graph)
    duration = nodes.duration
    assert session.duration == duration
    assert graph.num_valid_trajectories() == nodes.num_valid_trajectories()

    for tau in range(duration):
        assert session.location_marginal(tau) == oracle.stay_query(nodes, tau)
    assert session.entropy_profile() == oracle.entropy_profile(nodes)
    assert (session.expected_visit_counts()
            == oracle.expected_visit_counts(nodes))

    for location in QUERY_LOCATIONS:
        assert (session.visit_probability(location)
                == oracle.visit_probability(nodes, location))
        assert (session.first_visit_distribution(location)
                == oracle.first_visit_distribution(nodes, location))
        assert (session.time_at_location_distribution(location)
                == oracle.time_at_location_distribution(nodes, location))
        end = min(duration - 1, 3)
        assert (session.span_probability(location, 0, end)
                == oracle.span_probability(nodes, location, 0, end))

    assert (session.most_likely_trajectory()
            == oracle.most_likely_trajectory(nodes))
    for k in (1, 3, 10_000):
        assert (session.top_k_trajectories(k)
                == oracle.top_k_trajectories(nodes, k))

    pattern = "? B[1] ?" if duration >= 3 else "B[1]"
    assert (session.match_probability(pattern)
            == oracle.match_probability(nodes, pattern))


def _assert_parity_on_every_form(nodes, flats):
    # Both flat forms are one value: the oracle's to_flat == production.
    assert flats[0] == flats[1]
    for flat in flats:
        _assert_query_parity(nodes, flat)
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "graph.ctg")
        save_ctg(flats[0], path)
        with load_ctg(path) as mapped:
            _assert_query_parity(nodes, mapped)


@settings(max_examples=150, deadline=None)
@given(lsequences(), constraint_sets())
def test_query_parity_on_random_instances(lsequence, constraints):
    forms = _build_all_forms(lsequence, constraints)
    if forms is None:
        return
    nodes, flats = forms
    flats[0].validate()
    _assert_parity_on_every_form(nodes, flats)


@settings(max_examples=100, deadline=None)
@given(lsequences(max_duration=12), tt_heavy_constraint_sets())
def test_query_parity_on_tt_heavy_instances(lsequence, constraints):
    """TT constraints prune mid-sequence levels — the zero-mass-pruned
    node/edge paths the flat emission must drop identically."""
    forms = _build_all_forms(lsequence, constraints)
    if forms is None:
        return
    nodes, flats = forms
    _assert_parity_on_every_form(nodes, flats)


# ----------------------------------------------------------------------
# deterministic tie-breaking
# ----------------------------------------------------------------------
TIED = LSequence([
    {"B": 0.5, "C": 0.5},
    {"A": 1.0},
    {"B": 0.5, "D": 0.5},
])


def _tied_graph():
    """Four equal-probability trajectories: (B|C) -> A -> (B|D), as the
    oracle's node graph."""
    return build_ct_graph_reference(TIED, ConstraintSet([]))


def test_map_tie_break_is_lexicographic():
    graph = build_ct_graph(TIED, ConstraintSet([]))
    trajectory, probability = most_likely_trajectory(graph)
    assert trajectory == ("B", "A", "B")
    assert probability == 0.25


def test_map_tie_break_identical_on_flat_path():
    nodes = _tied_graph()
    session = QuerySession(nodes.to_flat())
    assert (session.most_likely_trajectory()
            == oracle.most_likely_trajectory(nodes))


def test_top_k_ties_ordered_identically_across_paths():
    nodes = _tied_graph()
    session = QuerySession(nodes.to_flat())
    expected = oracle.top_k_trajectories(nodes, 4)
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
    nodes = build_ct_graph_reference(lsequence, ConstraintSet([]))
    trajectory, _ = most_likely_trajectory(nodes.to_flat())
    assert trajectory == ("A", "A")
    session = QuerySession(nodes.to_flat())
    assert (session.most_likely_trajectory()
            == oracle.most_likely_trajectory(nodes))


# ----------------------------------------------------------------------
# top-k contract
# ----------------------------------------------------------------------
def test_top_k_exhausts_at_num_valid_trajectories():
    nodes = _tied_graph()
    assert nodes.num_valid_trajectories() == 4
    for result in (top_k_trajectories(nodes.to_flat(), 100),
                   oracle.top_k_trajectories(nodes, 100)):
        assert len(result) == 4
        assert sum(p for _, p in result) == pytest.approx(1.0)


def test_top_k_rejects_non_positive_k():
    nodes = _tied_graph()
    with pytest.raises(QueryError):
        top_k_trajectories(nodes.to_flat(), 0)
    with pytest.raises(QueryError):
        oracle.top_k_trajectories(nodes, 0)


@settings(max_examples=60, deadline=None)
@given(lsequences(max_duration=6), constraint_sets(),
       st.integers(min_value=1, max_value=30))
def test_top_k_length_contract_on_random_instances(lsequence, constraints,
                                                   k):
    forms = _build_all_forms(lsequence, constraints)
    if forms is None:
        return
    nodes, flats = forms
    result = QuerySession(flats[0]).top_k_trajectories(k)
    assert len(result) == min(k, nodes.num_valid_trajectories())
    assert result == oracle.top_k_trajectories(nodes, k)
    # Sorted by probability, descending.
    probabilities = [p for _, p in result]
    assert probabilities == sorted(probabilities, reverse=True)


# ----------------------------------------------------------------------
# flat container behaviour
# ----------------------------------------------------------------------
def test_flat_graph_is_smaller_and_validates():
    lsequence = LSequence([{"A": 0.5, "B": 0.5} for _ in range(40)])
    constraints = ConstraintSet([Latency("B", 3)])
    nodes = build_ct_graph_reference(lsequence, constraints)
    flat = build_ct_graph(lsequence, constraints)
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
    reference = build_ct_graph_reference(lsequence, constraints).to_flat()
    built = build_ct_graph(lsequence, constraints)
    assert isinstance(reference, FlatCTGraph)
    assert isinstance(built, FlatCTGraph)
    assert reference == built  # stats differ (compare=False), values equal


# ----------------------------------------------------------------------
# every public function accepts every graph form
# ----------------------------------------------------------------------
STATEMENTS = ("STAY 1", "MATCH ? A[1] ?", "VISIT B", "SPAN A 1 1",
              "DWELL B", "FIRST D", "EXPECTED", "BEST", "TOP 3", "ENTROPY")


def _answers(graph, other, lsequence):
    """Every public query answer on ``graph`` (``other`` is the second
    object of the meeting queries)."""
    answers = [stay_query(graph, tau) for tau in range(3)]
    answers += [entropy_profile(graph), expected_visit_counts(graph),
                most_likely_trajectory(graph), top_k_trajectories(graph, 4),
                uncertainty_reduction(lsequence, graph),
                TrajectoryQuery("? A[1] ?").probability(graph),
                stay_accuracy_on(graph, 2, ("B", "A", "D")),
                trajectory_accuracy_on(graph, "? D[1]", ("B", "A", "D"))]
    for location in ("A", "B", "D", "Z"):
        answers += [visit_probability(graph, location),
                    span_probability(graph, location, 0, 1),
                    time_at_location_distribution(graph, location),
                    first_visit_distribution(graph, location)]
    answers += [meeting_probability(graph, other),
                meeting_time_distribution(other, graph),
                colocation_profile(graph, other)]
    answers += [ql.execute(graph, statement).value
                for statement in STATEMENTS]
    return answers


def test_every_query_accepts_every_graph_form(tmp_path):
    """``FlatCTGraph``, ``MappedCTGraph`` and ``QuerySession`` inputs give
    bit-identical answers, equal to the oracle's."""
    nodes = _tied_graph()
    flat = build_ct_graph(TIED, ConstraintSet([]))
    other_sequence = LSequence([{"B": 0.3, "C": 0.7}, {"A": 0.6, "B": 0.4},
                                {"D": 0.8, "B": 0.2}])
    other_constraints = ConstraintSet([Unreachable("C", "B")])
    other = build_ct_graph(other_sequence, other_constraints)
    other_nodes = build_ct_graph_reference(other_sequence, other_constraints)
    save_ctg(flat, tmp_path / "tied.ctg")
    with load_ctg(tmp_path / "tied.ctg") as mapped:
        forms = (flat, mapped, QuerySession(flat))
        answers = [_answers(form, other, TIED) for form in forms]
    for got in answers[1:]:
        assert got == answers[0]

    expected = [oracle.stay_query(nodes, tau) for tau in range(3)]
    assert answers[0][:3] == expected
    assert (meeting_time_distribution(flat, other)
            == oracle.meeting_time_distribution(nodes, other_nodes))
    assert (colocation_profile(flat, other)
            == oracle.colocation_profile(nodes, other_nodes))
    for statement in STATEMENTS:
        assert (ql.execute(flat, statement).value
                == oracle.execute_reference(nodes, statement))


def test_joint_graphs_answer_through_sessions():
    """A meeting graph is a ``FlatCTGraph`` like any cleaned graph: QL
    statements, pattern probabilities and meetings all run on it, and
    agree with enumerating its paths."""
    constraints = ConstraintSet([Unreachable("A", "C"), Latency("B", 2)])
    graph_a = build_ct_graph(
        LSequence([{"A": 0.5, "B": 0.5}, {"B": 0.7, "C": 0.3},
                   {"B": 0.5, "C": 0.5}]), constraints)
    graph_b = build_ct_graph(
        LSequence([{"A": 0.2, "B": 0.8}, {"B": 0.4, "C": 0.6},
                   {"B": 0.9, "C": 0.1}]), constraints)
    joint = condition_on_meeting(graph_a, graph_b)

    paths = dict(joint.paths())
    for tau in range(joint.duration):
        marginal = ql.execute(joint, f"STAY {tau}").value
        assert marginal == QuerySession(joint).location_marginal(tau)
        expected: dict = {}
        for trajectory, probability in paths.items():
            expected[trajectory[tau]] = (expected.get(trajectory[tau], 0.0)
                                         + probability)
        assert marginal == pytest.approx(expected)
    for text in ("? B[1] ?", "? C[1]", "A[1] ?", "? B[2]"):
        query = TrajectoryQuery(text)
        assert query.probability(joint) == pytest.approx(
            sum(p for t, p in paths.items() if query.matches(t)))
        assert (ql.execute(joint, f"MATCH {text}").value
                == query.probability(joint))
    best = max(paths.values())
    trajectory, probability = ql.execute(joint, "BEST").value
    assert paths[trajectory] == pytest.approx(probability)
    assert probability == pytest.approx(best)
    assert meeting_probability(joint, graph_a) == pytest.approx(
        meeting_probability(graph_a, joint))
