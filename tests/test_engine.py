"""Unit tests for Algorithm 1's building blocks: relative-age departure
interning, the keep mask, the one build path, and the transition cache
shared through :class:`SharedCleaningPlan`."""

import pytest

from repro.core.algorithm import CleaningOptions, build_ct_graph
from repro.core.constraints import (
    ConstraintSet,
    Latency,
    TravelingTime,
    Unreachable,
)
from repro.core.engine import EngineCache
from repro.core.lsequence import LSequence
from repro.core.nodes import (
    DepartureFilter,
    absolute_departures,
    departure_keep_mask,
    relative_departures,
)
from repro.errors import ReadingSequenceError, ZeroMassError
from repro.runtime.plan import SharedCleaningPlan
from tests.reference_builder import build_ct_graph_reference

CONSTRAINTS = ConstraintSet([
    Unreachable("A", "C"), Unreachable("C", "A"),
    Latency("B", 3),
    TravelingTime("A", "D", 4), TravelingTime("D", "A", 4),
])

_PHASES = (
    {"A": 0.4, "B": 0.4, "C": 0.2},
    {"B": 0.6, "D": 0.4},
    {"B": 0.5, "C": 0.3, "D": 0.2},
    {"A": 0.5, "B": 0.5},
)


def _instance(duration):
    return LSequence([dict(_PHASES[tau % 4]) for tau in range(duration)])


class TestRelativeDepartures:
    def test_round_trip(self):
        departures = ((3, "A"), (5, "D"))
        relative = relative_departures(departures, 7)
        assert relative == ((4, "A"), (2, "D"))
        assert absolute_departures(relative, 7) == departures

    def test_sort_order_is_preserved_by_the_relative_form(self):
        # Absolute (t, l) ascending == relative (-age, name) ascending:
        # the interned form never has to re-sort what rule 6 sorted.
        departures = ((2, "B"), (2, "D"), (4, "A"))
        relative = relative_departures(departures, 6)
        assert sorted(relative, key=lambda e: (-e[0], e[1])) == list(relative)

    def test_empty(self):
        assert relative_departures((), 9) == ()
        assert absolute_departures((), 9) == ()


class TestDepartureKeepMask:
    def test_no_filter_is_mask_zero(self):
        assert departure_keep_mask(((1, "A"),), "B", 5, CONSTRAINTS,
                                   None) == 0

    def test_mask_matches_the_filter_keep_decision(self):
        lsequence = _instance(12)
        departure_filter = DepartureFilter(lsequence, CONSTRAINTS)
        for tau in range(1, 11):
            for age in (1, 2, 3):
                if age > tau:
                    continue
                relative = ((age, "A"),)
                mask = departure_keep_mask(relative, "B", tau, CONSTRAINTS,
                                           departure_filter)
                expected = departure_filter.keep(tau + 1, tau - age, "A")
                assert bool(mask & 1) == expected, (tau, age)

    def test_new_departure_bit(self):
        lsequence = _instance(12)
        departure_filter = DepartureFilter(lsequence, CONSTRAINTS)
        tau = 4
        # "A" is a TT source; leaving it at tau records (tau, "A") iff the
        # entry would survive to the arrival timestep.
        mask = departure_keep_mask((), "A", tau, CONSTRAINTS,
                                   departure_filter)
        expected = departure_filter.keep(tau + 1, tau, "A")
        assert bool(mask & 1) == expected
        # "B" is not a TT source: no departure is ever recorded for it.
        assert departure_keep_mask((), "B", tau, CONSTRAINTS,
                                   departure_filter) == 0


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        # There is one Algorithm 1 build; the old selector is no option.
        with pytest.raises(TypeError):
            CleaningOptions(engine="compact")

    def test_auto_gives_the_reference_answer(self):
        # The default call gives the oracle's distribution at short and
        # long durations (flat-form equality; enumerating paths would be
        # exponential at duration 53).
        for duration in (6, 53):
            lsequence = _instance(duration)
            default = build_ct_graph(lsequence, CONSTRAINTS)
            reference = build_ct_graph_reference(lsequence, CONSTRAINTS)
            default_state = default.__getstate__()
            reference_state = reference.__getstate__()
            for key in ("levels", "edges", "sources"):
                assert default_state[key] == reference_state[key], key


class TestEngineCache:
    def test_interning_is_stable(self):
        cache = EngineCache(CONSTRAINTS)
        a = cache.location_id("A")
        assert cache.location_id("A") == a
        sid = cache.state_id((a, None, ()))
        assert cache.state_id((a, None, ())) == sid
        assert cache.support_id((a,)) == cache.support_id((a,))
        # Support ids are order-sensitive on purpose: candidate order is
        # edge insertion order is float-summation order.
        b = cache.location_id("B")
        assert cache.support_id((a, b)) != cache.support_id((b, a))

    def test_transition_rows_accumulate(self):
        cache = EngineCache(CONSTRAINTS)
        assert cache.cached_transitions == 0
        build_ct_graph(_instance(20), CONSTRAINTS, plan=None)
        fresh = EngineCache(CONSTRAINTS)
        assert fresh.cached_transitions == 0

    def test_plan_shares_the_cache_across_objects(self):
        plan = SharedCleaningPlan(CONSTRAINTS)
        cache = plan.engine_cache()
        assert cache is plan.engine_cache(), "cache must be created once"
        assert cache.cached_transitions == 0
        build_ct_graph(_instance(60), CONSTRAINTS, plan=plan)
        warmed = cache.cached_transitions
        assert warmed > 0
        assert cache.interned_states > 0
        # A second object of a different duration reuses the rows.
        build_ct_graph(_instance(61), CONSTRAINTS, plan=plan)
        assert cache.cached_transitions >= warmed

    def test_foreign_plan_rejected(self):
        plan = SharedCleaningPlan(ConstraintSet([Unreachable("X", "Y")]))
        with pytest.raises(ReadingSequenceError):
            build_ct_graph(_instance(8), CONSTRAINTS, plan=plan)


class TestCompactEngineErrors:
    def test_zero_mass_at_source(self):
        constraints = ConstraintSet([Latency("A", 3)])
        poison = LSequence([{"A": 1.0}])
        with pytest.raises(ZeroMassError):
            build_ct_graph(poison, constraints, CleaningOptions("strict"))

    def test_zero_mass_mid_sequence(self):
        constraints = ConstraintSet([Unreachable("A", "C")])
        poison = LSequence([{"A": 1.0}, {"C": 1.0}])
        with pytest.raises(ZeroMassError):
            build_ct_graph(poison, constraints)


class TestTimingStats:
    def test_both_engines_fill_phase_timings(self):
        lsequence = _instance(30)
        for build in (build_ct_graph, build_ct_graph_reference):
            graph = build(lsequence, CONSTRAINTS)
            assert graph.stats.forward_seconds > 0.0, build.__name__
            assert graph.stats.backward_seconds > 0.0, build.__name__

    @pytest.mark.parametrize("materialize", ["auto", "flat"])
    @pytest.mark.parametrize("duration", [2, 6, 30])
    def test_default_build_fills_every_phase_timing(self, duration,
                                                    materialize):
        # Small instances included: every default build runs the one
        # Algorithm 1 path, so the sweep slice is always measured.
        graph = build_ct_graph(_instance(duration), CONSTRAINTS,
                               CleaningOptions(materialize=materialize))
        assert graph.stats.forward_seconds > 0.0
        assert graph.stats.backward_seconds > 0.0
        assert graph.stats.sweep_seconds > 0.0

    def test_timings_do_not_break_stats_equality(self):
        lsequence = _instance(30)
        first = build_ct_graph(lsequence, CONSTRAINTS)
        second = build_ct_graph(lsequence, CONSTRAINTS)
        assert first.stats == second.stats
        assert first.stats.forward_seconds != 0.0
