"""Tests for group conditioning (objects moving together)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.algorithm import build_ct_graph
from repro.core.constraints import ConstraintSet, Latency, Unreachable
from repro.core.groups import condition_on_meeting
from repro.core.lsequence import LSequence
from repro.core.naive import NaiveConditioner
from repro.errors import InconsistentReadingsError, QueryError
from repro.queries.stay import stay_query


def joint_by_enumeration(ls_a, ls_b, constraints):
    """Reference: condition the product of the two cleaned distributions
    on 'same trajectory'."""
    a = NaiveConditioner(ls_a, constraints).conditioned_distribution()
    b = NaiveConditioner(ls_b, constraints).conditioned_distribution()
    joint = {t: a[t] * b[t] for t in set(a) & set(b)}
    total = sum(joint.values())
    if total <= 0.0:
        raise InconsistentReadingsError("no common trajectory")
    return {t: p / total for t, p in joint.items()}


@pytest.fixture
def pair_case():
    constraints = ConstraintSet([Unreachable("A", "C"), Latency("B", 2)])
    ls_a = LSequence([{"A": 0.5, "B": 0.5}, {"B": 0.7, "C": 0.3},
                      {"B": 0.5, "C": 0.5}])
    ls_b = LSequence([{"A": 0.2, "B": 0.8}, {"B": 0.4, "C": 0.6},
                      {"B": 0.9, "C": 0.1}])
    graph_a = build_ct_graph(ls_a, constraints)
    graph_b = build_ct_graph(ls_b, constraints)
    return constraints, ls_a, ls_b, graph_a, graph_b


class TestConditionOnMeeting:
    def test_duration_mismatch_rejected(self, pair_case):
        constraints, ls_a, _, graph_a, _ = pair_case
        short = build_ct_graph(LSequence([{"A": 1.0}]), ConstraintSet())
        with pytest.raises(QueryError):
            condition_on_meeting(graph_a, short)

    def test_joint_matches_enumeration(self, pair_case):
        constraints, ls_a, ls_b, graph_a, graph_b = pair_case
        joint = condition_on_meeting(graph_a, graph_b)
        expected = joint_by_enumeration(ls_a, ls_b, constraints)
        got = dict(joint.paths())
        assert set(got) == set(expected)
        for trajectory, probability in expected.items():
            assert got[trajectory] == pytest.approx(probability)

    def test_paths_sum_to_one(self, pair_case):
        _, _, _, graph_a, graph_b = pair_case
        joint = condition_on_meeting(graph_a, graph_b)
        assert math.fsum(p for _, p in joint.paths()) == pytest.approx(1.0)

    def test_marginals_sum_to_one(self, pair_case):
        _, _, _, graph_a, graph_b = pair_case
        joint = condition_on_meeting(graph_a, graph_b)
        for tau in range(joint.duration):
            assert math.fsum(stay_query(joint, tau).values()) \
                == pytest.approx(1.0)

    def test_trajectory_probability(self, pair_case):
        constraints, ls_a, ls_b, graph_a, graph_b = pair_case
        joint = condition_on_meeting(graph_a, graph_b)
        expected = joint_by_enumeration(ls_a, ls_b, constraints)
        for trajectory, probability in expected.items():
            assert joint.trajectory_probability(trajectory) \
                == pytest.approx(probability)
        assert joint.trajectory_probability(("A", "C", "C")) == 0.0
        with pytest.raises(QueryError):
            joint.trajectory_probability(("A",))

    def test_disjoint_starts_are_inconsistent(self):
        constraints = ConstraintSet()
        graph_a = build_ct_graph(LSequence([{"A": 1.0}, {"A": 1.0}]),
                                 constraints)
        graph_b = build_ct_graph(LSequence([{"B": 1.0}, {"B": 1.0}]),
                                 constraints)
        with pytest.raises(InconsistentReadingsError):
            condition_on_meeting(graph_a, graph_b)

    def test_divergence_later_is_inconsistent(self):
        constraints = ConstraintSet()
        graph_a = build_ct_graph(LSequence([{"A": 1.0}, {"B": 1.0}]),
                                 constraints)
        graph_b = build_ct_graph(LSequence([{"A": 1.0}, {"C": 1.0}]),
                                 constraints)
        with pytest.raises(InconsistentReadingsError):
            condition_on_meeting(graph_a, graph_b)

    def test_pattern_queries_work_on_joint_graphs(self, pair_case):
        """TrajectoryQuery's DP only needs sources/edges/locations, so it
        runs unchanged on a JointGraph."""
        from repro.queries.trajectory import TrajectoryQuery
        constraints, ls_a, ls_b, graph_a, graph_b = pair_case
        joint = condition_on_meeting(graph_a, graph_b)
        expected_dist = joint_by_enumeration(ls_a, ls_b, constraints)
        for text in ("? B ?", "? C ?", "? B[2] ?"):
            query = TrajectoryQuery(text)
            expected = sum(p for t, p in expected_dist.items()
                           if query.matches(t))
            assert query.probability(joint) == pytest.approx(expected), text

    def test_meeting_sharpens_marginals(self, pair_case):
        """Pooling two objects' evidence should not increase uncertainty."""
        _, ls_a, _, graph_a, graph_b = pair_case
        joint = condition_on_meeting(graph_a, graph_b)

        def entropy(distribution):
            return -sum(p * math.log2(p)
                        for p in distribution.values() if p > 0)

        total_single = sum(entropy(stay_query(graph_a, tau))
                           for tau in range(graph_a.duration))
        total_joint = sum(entropy(stay_query(joint, tau))
                          for tau in range(joint.duration))
        assert total_joint <= total_single + 1e-9


class TestConditionGroup:
    def test_needs_two_graphs(self, pair_case):
        from repro.core.groups import condition_group
        _, _, _, graph_a, _ = pair_case
        with pytest.raises(QueryError):
            condition_group([graph_a])

    def test_three_way_matches_enumeration(self):
        from repro.core.groups import condition_group

        constraints = ConstraintSet([Unreachable("A", "C")])
        sequences = [
            LSequence([{"A": 0.5, "B": 0.5}, {"B": 0.6, "C": 0.4}]),
            LSequence([{"A": 0.3, "B": 0.7}, {"B": 0.5, "C": 0.5}]),
            LSequence([{"A": 0.8, "B": 0.2}, {"B": 0.4, "C": 0.6}]),
        ]
        graphs = [build_ct_graph(ls, constraints) for ls in sequences]
        joint = condition_group(graphs)

        # Reference: product of the three conditioned distributions over
        # common trajectories, renormalised.
        dists = [NaiveConditioner(ls, constraints).conditioned_distribution()
                 for ls in sequences]
        common = set(dists[0]) & set(dists[1]) & set(dists[2])
        raw = {t: dists[0][t] * dists[1][t] * dists[2][t] for t in common}
        total = sum(raw.values())
        expected = {t: p / total for t, p in raw.items()}

        got = dict(joint.paths())
        assert set(got) == set(expected)
        for trajectory, probability in expected.items():
            assert got[trajectory] == pytest.approx(probability)

    def test_fold_order_does_not_matter(self, pair_case):
        from repro.core.groups import condition_group
        constraints, ls_a, ls_b, graph_a, graph_b = pair_case
        ls_c = LSequence([{"A": 0.4, "B": 0.6}, {"B": 0.8, "C": 0.2},
                          {"B": 0.5, "C": 0.5}])
        graph_c = build_ct_graph(ls_c, constraints)
        abc = dict(condition_group([graph_a, graph_b, graph_c]).paths())
        cba = dict(condition_group([graph_c, graph_b, graph_a]).paths())
        assert set(abc) == set(cba)
        for trajectory, probability in abc.items():
            assert cba[trajectory] == pytest.approx(probability)


# ----------------------------------------------------------------------
# property test vs enumeration
# ----------------------------------------------------------------------

locations = st.sampled_from("ABC")


@st.composite
def joint_instances(draw):
    duration = draw(st.integers(min_value=1, max_value=4))

    def lseq():
        rows = []
        for _ in range(duration):
            support = draw(st.lists(locations, min_size=1, max_size=3,
                                    unique=True))
            weights = [draw(st.floats(min_value=0.1, max_value=1.0))
                       for _ in support]
            total = sum(weights)
            rows.append({l: w / total for l, w in zip(support, weights)})
        return LSequence(rows)

    constraints = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        if draw(st.booleans()):
            constraints.append(Unreachable(draw(locations), draw(locations)))
        else:
            constraints.append(Latency(draw(locations), draw(st.integers(2, 3))))
    return lseq(), lseq(), ConstraintSet(constraints)


@settings(max_examples=150, deadline=None)
@given(joint_instances())
def test_joint_property(instance):
    ls_a, ls_b, constraints = instance
    try:
        graph_a = build_ct_graph(ls_a, constraints)
        graph_b = build_ct_graph(ls_b, constraints)
    except InconsistentReadingsError:
        return
    try:
        expected = joint_by_enumeration(ls_a, ls_b, constraints)
    except InconsistentReadingsError:
        with pytest.raises(InconsistentReadingsError):
            condition_on_meeting(graph_a, graph_b)
        return
    joint = condition_on_meeting(graph_a, graph_b)
    got = dict(joint.paths())
    assert set(got) == set(expected)
    for trajectory, probability in expected.items():
        assert got[trajectory] == pytest.approx(probability, abs=1e-9)


# ----------------------------------------------------------------------
# pinned output: the flat product build equals the node-web build it
# replaced, bit for bit
# ----------------------------------------------------------------------

def _fingerprint(flat):
    """SHA-256 prefix of every column, floats as ``float.hex``."""
    import hashlib
    import json

    payload = [list(flat.location_names),
               [list(row) for row in flat.locations],
               [list(row) for row in flat.stays],
               [list(row) for row in flat.edge_offsets],
               [list(row) for row in flat.edge_children],
               [[float(p).hex() for p in row]
                for row in flat.edge_probabilities],
               [float(p).hex() for p in flat.source_probabilities]]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()[:16]


#: Fingerprints of the meeting graphs as the node-web implementation
#: (``JointGraph.to_flat()``) produced them, before the product build
#: moved onto the flat columns.
PINNED_FINGERPRINTS = {
    "pair": "b2177de8ed1852fb",
    "abc": "ffd7613590512e92",
    "cba": "adaa7fb545dd45e5",
    "random0": "cdeda00894946b56",
    "random1": "7808515a4c376e94",
    "random2": "ea412dabc263e230",
    "random3": "7e961728c2a8c799",
    "random4": "89735da6a5045cb6",
    "random5": "23d4ff4186c035ff",
    "random6": "b05c2303448984da",
    "random7": "72c11ba9b67702e5",
    "random8": "ff96d7cbc75b26cd",
    "random9": "b6f945b39e32b91a",
    "random10": "c48069d509e6663b",
    "random11": "31af65ff576dc0aa",
}


def _pinned_cases(pair_case):
    """The fixture pair and triple, plus twelve seeded three-object groups
    sharing per-step supports (several joint nodes per location once
    folded)."""
    import random

    from repro.core.groups import condition_group

    constraints, ls_a, ls_b, graph_a, graph_b = pair_case
    ls_c = LSequence([{"A": 0.4, "B": 0.6}, {"B": 0.8, "C": 0.2},
                      {"B": 0.5, "C": 0.5}])
    graph_c = build_ct_graph(ls_c, constraints)
    yield "pair", condition_on_meeting(graph_a, graph_b)
    yield "abc", condition_group([graph_a, graph_b, graph_c])
    yield "cba", condition_group([graph_c, graph_b, graph_a])
    rng = random.Random(20261018)
    for case in range(12):
        duration = rng.randint(2, 7)
        cons = []
        for _ in range(rng.randint(0, 3)):
            if rng.random() < 0.5:
                cons.append(Unreachable(rng.choice("ABCD"),
                                        rng.choice("ABCD")))
            else:
                cons.append(Latency(rng.choice("ABCD"), rng.randint(2, 3)))
        cs = ConstraintSet(cons)
        supports = [rng.sample("ABCD", rng.randint(2, 4))
                    for _ in range(duration)]
        graphs = []
        for _ in range(3):
            rows = []
            for support in supports:
                weights = [rng.uniform(0.1, 1.0) for _ in support]
                total = sum(weights)
                rows.append({l: w / total for l, w in zip(support, weights)})
            try:
                graphs.append(build_ct_graph(LSequence(rows), cs))
            except InconsistentReadingsError:
                pass
        yield f"random{case}", condition_group(graphs)


def test_meeting_output_is_pinned(pair_case):
    got = {name: _fingerprint(joint)
           for name, joint in _pinned_cases(pair_case)}
    assert got == PINNED_FINGERPRINTS
