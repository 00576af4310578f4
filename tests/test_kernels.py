"""The optional-numpy level-sweep kernels vs the pure-python oracle.

The contract (``docs/perf.md``): the ``"python"`` backend is the parity
oracle; the ``"numpy"`` backend must reproduce it under the *tolerance
gate* — everything discrete (which nodes/edges survive, dict key sets,
tie-breaks, top-k order) exactly, every float to 1e-12 relative.  The
hypothesis workloads mirror ``tests/test_engine_vs_reference.py`` so the
kernels face the same instance distribution that pins the engines.

Also covered here: backend resolution (``auto`` thresholding, the
``REPRO_NO_NUMPY`` fallback), ``GraphViews`` caching, and the satellite
edge cases — duration-1 graphs (no edge levels at all) and single-node
levels — through ``FlatCTGraph.validate``, ``num_valid_trajectories``
and the session sweeps on both backends.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import kernels
from repro.core.algorithm import CleaningOptions, build_ct_graph
from repro.core.constraints import (
    ConstraintSet,
    Latency,
    TravelingTime,
    Unreachable,
)
from repro.core.lsequence import LSequence
from repro.errors import (
    InconsistentReadingsError,
    ReadingSequenceError,
    ReproError,
)
from repro.queries.session import QuerySession
from tests.reference_builder import build_ct_graph_reference

needs_numpy = pytest.mark.skipif(not kernels.numpy_available(),
                                 reason="numpy backend unavailable")

LOCATIONS = ("A", "B", "C", "D")

locations = st.sampled_from(LOCATIONS)

FLAT_NUMPY = CleaningOptions(backend="numpy")
FLAT_PYTHON = CleaningOptions(backend="python")


@st.composite
def lsequences(draw, max_duration=10):
    duration = draw(st.integers(min_value=1, max_value=max_duration))
    rows = []
    for _ in range(duration):
        support = draw(st.lists(locations, min_size=1, max_size=3,
                                unique=True))
        weights = [draw(st.floats(min_value=0.05, max_value=1.0))
                   for _ in support]
        total = sum(weights)
        rows.append({loc: w / total for loc, w in zip(support, weights)})
    return LSequence(rows)


@st.composite
def constraint_sets(draw):
    constraints = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        kind = draw(st.sampled_from(["du", "tt", "lt"]))
        if kind == "du":
            constraints.append(Unreachable(draw(locations), draw(locations)))
        elif kind == "tt":
            a = draw(locations)
            b = draw(locations.filter(lambda x: x != a))
            constraints.append(TravelingTime(
                a, b, draw(st.integers(min_value=2, max_value=4))))
        else:
            constraints.append(Latency(
                draw(locations), draw(st.integers(min_value=2, max_value=4))))
    return ConstraintSet(constraints)


def close(a, b):
    # The documented gate, plus an absolute term for quantities clamped
    # at zero (e.g. visit probabilities of never-reachable locations).
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


# ----------------------------------------------------------------------
# backend resolution
# ----------------------------------------------------------------------
class TestResolveBackend:
    def test_python_passes_through(self):
        assert kernels.resolve_backend("python") == "python"
        assert kernels.resolve_backend("python", 1e9) == "python"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ReproError, match="unknown kernel backend"):
            kernels.resolve_backend("fortran")

    def test_options_reject_unknown_backend(self):
        with pytest.raises(ReadingSequenceError, match="unknown backend"):
            CleaningOptions(backend="fortran")

    @needs_numpy
    def test_numpy_resolves_when_available(self):
        assert kernels.resolve_backend("numpy") == "numpy"

    @needs_numpy
    def test_auto_thresholds_on_level_width(self):
        threshold = kernels.KERNEL_MIN_LEVEL_EDGES
        assert kernels.resolve_backend("auto", threshold) == "numpy"
        assert kernels.resolve_backend("auto", threshold - 1) == "python"
        assert kernels.resolve_backend("auto", None) == "python"
        assert kernels.resolve_backend("auto") == "python"

    def test_no_numpy_env_forces_python(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
        assert not kernels.numpy_available()
        assert kernels.resolve_backend("numpy", 1e9) == "python"
        assert kernels.resolve_backend("auto", 1e9) == "python"
        with pytest.raises(ReproError, match="unavailable"):
            kernels.require_numpy()

    def test_fallback_build_matches_python(self, monkeypatch):
        lsequence = LSequence([{"A": 0.5, "B": 0.5}, {"B": 1.0},
                               {"B": 0.5, "C": 0.5}])
        constraints = ConstraintSet([Unreachable("A", "C")])
        oracle = build_ct_graph(lsequence, constraints, FLAT_PYTHON)
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
        fallen_back = build_ct_graph(lsequence, constraints, FLAT_NUMPY)
        assert fallen_back == oracle

    def test_fallback_session_resolves_to_python(self, monkeypatch):
        lsequence = LSequence([{"A": 0.5, "B": 0.5}, {"B": 1.0}])
        graph = build_ct_graph(lsequence, ConstraintSet([]), FLAT_PYTHON)
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
        session = QuerySession(graph, backend="numpy")
        assert session.backend == "python"
        assert session.visit_probability("B") == 1.0


# ----------------------------------------------------------------------
# cached views
# ----------------------------------------------------------------------
@needs_numpy
class TestGraphViews:
    @pytest.fixture
    def graph(self):
        lsequence = LSequence([{"A": 0.5, "B": 0.5},
                               {"A": 0.25, "B": 0.5, "C": 0.25},
                               {"B": 0.5, "D": 0.5}])
        return build_ct_graph(lsequence, ConstraintSet([]), FLAT_PYTHON)

    def test_levels_convert_once(self, graph):
        views = kernels.GraphViews(graph)
        first = views.edge_level(0)
        assert views.edge_level(0) is first
        assert views.level_lids(1) is views.level_lids(1)
        assert views.source is views.source

    def test_parents_expand_the_offsets(self, graph):
        import numpy as np

        views = kernels.GraphViews(graph)
        children, probabilities, parents, count, next_count = \
            views.edge_level(0)
        offsets = graph.edge_offsets[0]
        assert count == len(graph.locations[0])
        assert next_count == len(graph.locations[1])
        assert children.dtype == np.int32
        assert parents.dtype == np.int32
        assert probabilities.dtype == np.float64
        expected = [i for i in range(count)
                    for _ in range(offsets[i + 1] - offsets[i])]
        assert parents.tolist() == expected
        assert children.tolist() == list(graph.edge_children[0])


# ----------------------------------------------------------------------
# build parity (numpy and auto flat builds vs the reference oracle)
# ----------------------------------------------------------------------
@needs_numpy
class TestEngineParity:
    @settings(max_examples=150, deadline=None)
    @given(lsequences(), constraint_sets())
    def test_flat_builds_bit_exact(self, lsequence, constraints):
        try:
            oracle = build_ct_graph_reference(lsequence, constraints,
                                              FLAT_PYTHON).to_flat()
        except InconsistentReadingsError:
            with pytest.raises(InconsistentReadingsError):
                build_ct_graph(lsequence, constraints, FLAT_NUMPY)
            return
        vectorized = build_ct_graph(lsequence, constraints, FLAT_NUMPY)
        # Frozen-dataclass equality covers every column and float;
        # stats equality covers the counters (timings are excluded).
        assert vectorized == oracle
        assert vectorized.stats == oracle.stats
        vectorized.validate()

    def test_kernel_width_instance_bit_exact(self):
        # A wide periodic instance that clears KERNEL_MIN_LEVEL_EDGES,
        # so backend="auto" genuinely engages the kernels.
        names = [f"L{i:02d}" for i in range(24)]
        rows = []
        for tau in range(40):
            weights = {name: 1.0 + ((i * 7 + tau * 3) % 13) / 13.0
                       for i, name in enumerate(names)}
            total = sum(weights.values())
            rows.append({name: w / total for name, w in weights.items()})
        lsequence = LSequence(rows)
        constraints = ConstraintSet([Unreachable(names[0], names[1])])
        oracle = build_ct_graph_reference(lsequence, constraints,
                                          FLAT_PYTHON).to_flat()
        auto = build_ct_graph(lsequence, constraints,
                              CleaningOptions(backend="auto"))
        assert auto == oracle
        assert auto.stats == oracle.stats

    def test_zero_mass_raises_identically(self):
        # A -> C is forbidden and unavoidable: both backends must refuse
        # with the same typed error, not return an empty graph.
        lsequence = LSequence([{"A": 1.0}, {"C": 1.0}])
        constraints = ConstraintSet([Unreachable("A", "C")])
        for options in (FLAT_PYTHON, FLAT_NUMPY):
            with pytest.raises(InconsistentReadingsError):
                build_ct_graph(lsequence, constraints, options)


# ----------------------------------------------------------------------
# session parity (numpy sweeps vs the python oracle)
# ----------------------------------------------------------------------
@needs_numpy
class TestSessionParity:
    def assert_sessions_agree(self, graph):
        oracle = QuerySession(graph, backend="python")
        vectorized = QuerySession(graph, backend="numpy")
        assert vectorized.backend == "numpy"

        for row, expected in zip(vectorized.alphas(), oracle.alphas()):
            assert len(row) == len(expected)
            for a, b in zip(row, expected):
                assert close(a, b)
        # The max-product suffix pass is bit-exact, not just close.
        for row, expected in zip(vectorized._best_suffixes(),
                                 oracle._best_suffixes()):
            assert list(row) == list(expected)

        for tau in range(graph.duration):
            marginal = vectorized.location_marginal(tau)
            expected_marginal = oracle.location_marginal(tau)
            assert set(marginal) == set(expected_marginal)
            for name, mass in expected_marginal.items():
                assert close(marginal[name], mass)
        for a, b in zip(vectorized.entropy_profile(),
                        oracle.entropy_profile()):
            assert close(a, b)
        counts = vectorized.expected_visit_counts()
        expected_counts = oracle.expected_visit_counts()
        assert set(counts) == set(expected_counts)
        for name, value in expected_counts.items():
            assert close(counts[name], value)

        for location in LOCATIONS + ("Z",):
            assert close(vectorized.visit_probability(location),
                         oracle.visit_probability(location))
        last = graph.duration - 1
        windows = [(0, 0), (0, last), (last, last)]
        if last >= 2:
            windows.append((1, last - 1))
        for start, end in windows:
            for location in LOCATIONS + ("Z",):
                assert close(
                    vectorized.span_probability(location, start, end),
                    oracle.span_probability(location, start, end))

        # Trajectory extraction consumes the (bit-exact) suffix rows, so
        # order, tie-breaks and floats must all be identical.
        assert vectorized.most_likely_trajectory() == \
            oracle.most_likely_trajectory()
        assert vectorized.top_k_trajectories(4) == \
            oracle.top_k_trajectories(4)

    @settings(max_examples=75, deadline=None)
    @given(lsequences(), constraint_sets())
    def test_query_parity_on_random_instances(self, lsequence, constraints):
        try:
            graph = build_ct_graph(lsequence, constraints, FLAT_PYTHON)
        except InconsistentReadingsError:
            return
        self.assert_sessions_agree(graph)


# ----------------------------------------------------------------------
# satellite edge cases: duration 1, single-node levels, empty levels
# ----------------------------------------------------------------------
class TestEdgeCases:
    BACKENDS = ["python"] + (["numpy"] if kernels.numpy_available() else [])

    @pytest.fixture
    def duration_one(self):
        lsequence = LSequence([{"A": 0.25, "B": 0.75}])
        return build_ct_graph(lsequence, ConstraintSet([]), FLAT_PYTHON)

    @pytest.fixture
    def single_node_levels(self):
        lsequence = LSequence([{"A": 1.0}, {"B": 1.0}, {"B": 1.0},
                               {"D": 1.0}])
        return build_ct_graph(
            lsequence, ConstraintSet([Unreachable("A", "C")]), FLAT_PYTHON)

    def test_duration_one_graph_is_valid(self, duration_one):
        duration_one.validate()
        assert duration_one.duration == 1
        assert duration_one.num_valid_trajectories() == 2
        assert duration_one.edge_offsets == ()

    @needs_numpy
    def test_duration_one_numpy_build_matches(self, duration_one):
        lsequence = LSequence([{"A": 0.25, "B": 0.75}])
        built = build_ct_graph(lsequence, ConstraintSet([]), FLAT_NUMPY)
        assert built == duration_one
        built.validate()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_duration_one_session_sweeps(self, duration_one, backend):
        session = QuerySession(duration_one, backend=backend)
        assert session.alphas() == [[0.25, 0.75]]
        assert list(session._best_suffixes()[0]) == [1.0, 1.0]
        marginal = session.location_marginal(0)
        assert set(marginal) == {"A", "B"}
        assert close(marginal["A"], 0.25)
        assert close(session.visit_probability("A"), 0.25)
        assert close(session.span_probability("B", 0, 0), 0.75)
        assert session.span_probability("Z", 0, 0) == 0.0
        assert session.most_likely_trajectory() == (("B",), 0.75)
        assert session.top_k_trajectories(5) == [(("B",), 0.75),
                                                (("A",), 0.25)]

    def test_single_node_levels_graph_is_valid(self, single_node_levels):
        single_node_levels.validate()
        assert single_node_levels.num_valid_trajectories() == 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_single_node_levels_session_sweeps(self, single_node_levels,
                                               backend):
        session = QuerySession(single_node_levels, backend=backend)
        assert session.alphas() == [[1.0]] * 4
        assert close(session.visit_probability("B"), 1.0)
        assert session.visit_probability("C") == 0.0
        assert close(session.span_probability("B", 1, 2), 1.0)
        assert session.most_likely_trajectory() == \
            (("A", "B", "B", "D"), 1.0)

    @needs_numpy
    def test_kernels_on_a_graph_without_edge_levels(self, duration_one):
        # Duration 1: every per-edge-level array is empty; the kernels
        # must neither index out of range nor crash on zero-length loops.
        views = kernels.GraphViews(duration_one)
        assert [row.tolist() for row in kernels.alphas(views)] == \
            [[0.25, 0.75]]
        assert [row.tolist() for row in kernels.best_suffixes(views)] == \
            [[1.0, 1.0]]
        masses = kernels.masses_by_location(views, 0, views.source)
        assert close(kernels.entropy_bits(masses),
                     -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75)))
        lid = duration_one.location_names.index("A")
        assert close(kernels.avoidance_mass(views, lid), 0.75)
        assert close(kernels.span_mass(views, lid, 0, 0, views.source),
                     0.25)
        assert kernels.avoidance_mass(views, -1) == 1.0

    @needs_numpy
    def test_entropy_of_empty_mass_vector(self):
        import numpy as np

        assert kernels.entropy_bits(np.zeros(0)) == 0.0
        assert kernels.entropy_bits(np.zeros(3)) == 0.0


# ----------------------------------------------------------------------
# the satellite-1 aliasing regression
# ----------------------------------------------------------------------
class TestSuffixRowAliasing:
    def test_python_suffix_rows_are_distinct_objects(self):
        # Regression: `[[]] * duration` aliased every pre-filled row to
        # one list object, so filling level tau clobbered every level.
        lsequence = LSequence([{"A": 0.5, "B": 0.5}] * 4)
        graph = build_ct_graph(lsequence, ConstraintSet([]), FLAT_PYTHON)
        session = QuerySession(graph, backend="python")
        rows = session._best_suffixes()
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                assert rows[i] is not rows[j]

    def test_lint_gate_over_the_session_module(self):
        # The L009 rule exists precisely to keep this bug out; the
        # session module must stay clean under it.
        from pathlib import Path

        from repro.lint import lint_path

        module = (Path(__file__).resolve().parent.parent / "src" / "repro"
                  / "queries" / "session.py")
        findings = [f for f in lint_path(module) if f.code == "L009"]
        assert findings == []
