"""Tests for the Markovian-stream export of ct-graphs."""

import math

import pytest

np = pytest.importorskip("numpy", exc_type=ImportError)

from repro.core.algorithm import build_ct_graph
from repro.core.constraints import ConstraintSet, Latency, Unreachable
from repro.core.lsequence import LSequence
from repro.errors import QueryError
from repro.markov.stream import MarkovianStream
from repro.queries.stay import stay_query


@pytest.fixture
def chain_case():
    ls = LSequence([{"A": 0.5, "B": 0.5},
                    {"B": 0.5, "C": 0.5},
                    {"C": 0.5, "D": 0.5}])
    cs = ConstraintSet([Unreachable("A", "C")])
    graph = build_ct_graph(ls, cs)
    return graph, MarkovianStream.from_ct_graph(graph)


class TestExport:
    def test_duration_matches_graph(self, chain_case):
        graph, stream = chain_case
        assert stream.duration == graph.duration

    def test_initial_matches_graph_marginal(self, chain_case):
        graph, stream = chain_case
        expected = stay_query(graph, 0)
        assert set(stream.initial) == set(expected)
        for location, probability in expected.items():
            assert stream.initial[location] == pytest.approx(probability)

    def test_transition_rows_are_distributions(self, chain_case):
        _, stream = chain_case
        for step in stream.transitions:
            for row in step.values():
                assert math.fsum(row.values()) == pytest.approx(1.0)

    def test_marginals_match_graph(self, chain_case):
        graph, stream = chain_case
        for tau in range(graph.duration):
            expected = stay_query(graph, tau)
            got = stream.marginal(tau)
            assert set(got) == set(expected)
            for location, probability in expected.items():
                assert got[location] == pytest.approx(probability)

    def test_marginal_bad_timestep(self, chain_case):
        _, stream = chain_case
        with pytest.raises(QueryError):
            stream.marginal(99)


class TestTrajectoryProbability:
    def test_exact_when_locations_identify_nodes(self, chain_case):
        # In this instance every (timestep, location) has a single node
        # state, so the location-level chain is exact.
        graph, stream = chain_case
        for trajectory, probability in graph.paths():
            assert stream.trajectory_probability(trajectory) == pytest.approx(
                probability)

    def test_lossy_when_states_share_a_location(self):
        # Latency(B, 2) creates two node states for (1, B) with *different*
        # futures: the fresh arrival (from A) cannot leave yet, while the
        # continuing stay can.  The location-level chain merges them and
        # loses that correlation.
        ls = LSequence([{"A": 0.5, "B": 0.5}, {"B": 1.0},
                        {"B": 0.5, "C": 0.5}])
        cs = ConstraintSet([Latency("B", 2)])
        graph = build_ct_graph(ls, cs)
        stream = MarkovianStream.from_ct_graph(graph)
        # Exactly one of the valid trajectories must disagree.
        exact = {t: p for t, p in graph.paths()}
        approx = {t: stream.trajectory_probability(t) for t in exact}
        assert any(abs(exact[t] - approx[t]) > 1e-9 for t in exact)
        # ... and the chain still assigns positive mass to the impossible
        # combination (A, B, C) — the correlation it cannot represent.
        assert graph.trajectory_probability(("A", "B", "C")) == 0.0
        assert stream.trajectory_probability(("A", "B", "C")) > 0.0

    def test_length_validation(self, chain_case):
        _, stream = chain_case
        with pytest.raises(QueryError):
            stream.trajectory_probability(("A",))

    def test_impossible_trajectory_is_zero(self, chain_case):
        _, stream = chain_case
        assert stream.trajectory_probability(("A", "C", "C")) == 0.0


class TestSampling:
    def test_samples_follow_chain_support(self, chain_case):
        _, stream = chain_case
        rng = np.random.default_rng(5)
        for _ in range(50):
            trajectory = stream.sample(rng)
            assert len(trajectory) == stream.duration
            assert stream.trajectory_probability(trajectory) > 0.0

    def test_sample_frequencies_match_chain(self, chain_case):
        _, stream = chain_case
        rng = np.random.default_rng(11)
        n = 3000
        counts = {}
        for _ in range(n):
            trajectory = stream.sample(rng)
            counts[trajectory] = counts.get(trajectory, 0) + 1
        for trajectory, count in counts.items():
            expected = stream.trajectory_probability(trajectory)
            assert count / n == pytest.approx(expected, abs=0.03)

    def test_initial_marginal_from_samples(self, chain_case):
        _, stream = chain_case
        rng = np.random.default_rng(13)
        n = 2000
        starts = {}
        for _ in range(n):
            first = stream.sample(rng)[0]
            starts[first] = starts.get(first, 0) + 1
        for location, probability in stream.initial.items():
            assert starts.get(location, 0) / n == pytest.approx(
                probability, abs=0.04)

class TestLeakedMass:
    """Hand-built (non-``from_ct_graph``) chains may leak probability mass:
    a reachable state with a missing or zero-sum transition row.  The
    contract: ``marginal`` reports the deficit silently (dict sums < 1),
    ``sample`` refuses with a QueryError naming the leak site."""

    @pytest.fixture
    def leaky(self):
        # At timestep 1, state "B" has no transition row: the 0.4 mass
        # reaching it leaks before timestep 2.
        return MarkovianStream(
            initial={"A": 0.6, "B": 0.4},
            transitions=[{"A": {"A": 0.5, "B": 0.5}, "B": {"B": 1.0}},
                         {"A": {"A": 1.0}}])

    def test_marginal_may_sum_below_one(self, leaky):
        assert math.fsum(leaky.marginal(0).values()) == pytest.approx(1.0)
        assert math.fsum(leaky.marginal(1).values()) == pytest.approx(1.0)
        # P(X_1 = B) = 0.6*0.5 + 0.4*1.0 = 0.7 leaks: only A's mass flows on.
        last = leaky.marginal(2)
        assert set(last) == {"A"}
        assert math.fsum(last.values()) == pytest.approx(0.3)

    def test_from_ct_graph_streams_are_leak_free(self, chain_case):
        _, stream = chain_case
        for tau in range(stream.duration):
            assert math.fsum(stream.marginal(tau).values()) == \
                pytest.approx(1.0)

    def test_sample_missing_row_raises_query_error(self, leaky):
        # Force the walk into the leak: B at step 1 has no row.
        rng = np.random.default_rng(3)
        with pytest.raises(QueryError) as excinfo:
            for _ in range(200):
                leaky.sample(rng)
        message = str(excinfo.value)
        assert "timestep 1" in message
        assert "'B'" in message

    def test_sample_zero_sum_row_raises_query_error(self):
        stream = MarkovianStream(initial={"A": 1.0},
                                 transitions=[{"A": {"B": 0.0}}])
        with pytest.raises(QueryError) as excinfo:
            stream.sample(np.random.default_rng(0))
        message = str(excinfo.value)
        assert "timestep 0" in message and "'A'" in message
        assert "sums to" in message

    def test_sample_empty_initial_raises_query_error(self):
        stream = MarkovianStream(initial={}, transitions=[])
        with pytest.raises(QueryError) as excinfo:
            stream.sample(np.random.default_rng(0))
        assert "initial distribution" in str(excinfo.value)
