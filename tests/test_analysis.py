"""Tests for the static constraint/map analyzer (repro.analysis).

One class per rule code C001-C006, plus the report object, the analyze()
orchestration, the pre-flight hook in build_ct_graph and the `rfid-ctg
analyze` CLI subcommand.  The hypothesis property test at the bottom pins
the C005 pre-check against the naive conditioner: on small random
instances the boolean forward pass reports zero mass **iff** no valid
trajectory exists.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    CleaningOptions,
    ConstraintSet,
    Latency,
    LSequence,
    NaiveConditioner,
    TravelingTime,
    Unreachable,
    ZeroMassError,
    build_ct_graph,
)
from repro.analysis import (
    RULES,
    AnalysisReport,
    Diagnostic,
    ReachabilityIndex,
    Severity,
    ZERO_MASS_RULE,
    analyze,
    ctgraph_size_bounds,
    first_dead_timestep,
    location_universe,
    predict_zero_mass,
)
from repro.cli import main
from repro.core.lsequence import ReadingSequence
from repro.errors import ReadingSequenceError
from repro.io.jsonio import save_constraints


def codes(report: AnalysisReport) -> list:
    return [d.code for d in report]


class TestC001ContradictoryStay:
    def test_du_self_loop_plus_latency_is_error(self):
        report = analyze(ConstraintSet([Unreachable("A", "A"),
                                        Latency("A", 2)]))
        (diagnostic,) = report.by_code("C001")
        assert diagnostic.severity is Severity.ERROR
        assert "unreachable(A, A)" in diagnostic.message
        assert "latency(A, 2)" in diagnostic.message
        assert report.has_errors

    def test_du_self_loop_alone_is_fine(self):
        report = analyze(ConstraintSet([Unreachable("A", "A")]))
        assert report.by_code("C001") == ()

    def test_latency_alone_is_fine(self):
        report = analyze(ConstraintSet([Latency("A", 2)]))
        assert report.by_code("C001") == ()

    def test_c001_is_not_a_false_alarm(self):
        """The contradiction is real: every (non-truncated) stay at A dies."""
        cs = ConstraintSet([Unreachable("A", "A"), Latency("A", 3)])
        ls = LSequence([{"A": 0.5, "B": 0.5}] * 3)
        strict = NaiveConditioner(ls, cs, strict_truncation=True)
        for trajectory in strict.conditioned_distribution():
            assert "A" not in trajectory
        # Under the lenient policy only the final-timestep truncated
        # arrival survives — exactly what the diagnostic message states.
        lenient = NaiveConditioner(ls, cs)
        for trajectory in lenient.conditioned_distribution():
            assert "A" not in trajectory[:-1]


class TestC002DeadTravelingTime:
    def test_unreachable_destination_flagged(self):
        # B is fenced off from A entirely: direct step forbidden and the
        # only other location C cannot step to B either.
        cs = ConstraintSet([
            Unreachable("A", "B"), Unreachable("C", "B"),
            Unreachable("B", "B"),
            TravelingTime("A", "B", 3),
        ])
        (diagnostic,) = analyze(cs).by_code("C002")
        assert diagnostic.severity is Severity.WARNING
        assert "travelingTime(A, B, 3)" in diagnostic.message

    def test_multi_hop_reachability_clears_the_constraint(self):
        # A cannot step to B directly, but A -> C -> B exists.
        cs = ConstraintSet([
            Unreachable("A", "B"),
            TravelingTime("A", "B", 3),
            Latency("C", 2),  # mentions C so it joins the universe
        ])
        assert analyze(cs).by_code("C002") == ()

    def test_map_model_widens_the_universe(self):
        # With only the constraints the universe is {A, B} and A -> B is
        # dead; a map model contributing an unconstrained C opens the
        # detour A -> C -> B.  (Anything with location_names works.)
        class FakeMap:
            location_names = ("A", "B", "C")

        cs = ConstraintSet([Unreachable("A", "B"), TravelingTime("A", "B", 2)])
        assert analyze(cs).by_code("C002") != ()
        assert analyze(cs, map_model=FakeMap()).by_code("C002") == ()


class TestC003RedundantConstraints:
    def test_duplicate_statement_reported(self):
        cs = ConstraintSet([Unreachable("A", "B"), Unreachable("A", "B")])
        (diagnostic,) = analyze(cs).by_code("C003")
        assert diagnostic.severity is Severity.INFO
        assert "stated 2 times" in diagnostic.message

    def test_dominated_tt_reported(self):
        cs = ConstraintSet([TravelingTime("A", "B", 2),
                            TravelingTime("A", "B", 5)])
        (diagnostic,) = analyze(cs).by_code("C003")
        assert "dominated" in diagnostic.message
        assert "travelingTime(A, B, 5)" in diagnostic.message

    def test_dominated_latency_reported(self):
        cs = ConstraintSet([Latency("A", 2), Latency("A", 4)])
        (diagnostic,) = analyze(cs).by_code("C003")
        assert "dominated" in diagnostic.message
        assert "latency(A, 4)" in diagnostic.message

    def test_clean_set_has_no_c003(self):
        cs = ConstraintSet([Unreachable("A", "B"), TravelingTime("B", "C", 2),
                            Latency("A", 3)])
        assert analyze(cs).by_code("C003") == ()


class TestC004DeadLocation:
    def test_location_without_in_or_out_steps(self):
        cs = ConstraintSet([
            Unreachable("A", "A"), Unreachable("A", "B"),
            Unreachable("B", "A"),
        ])
        report = analyze(cs)
        subjects = [d.subjects for d in report.by_code("C004")]
        assert ("A",) in subjects

    def test_connected_locations_are_not_dead(self, two_rooms):
        report = analyze(ConstraintSet(), map_model=two_rooms)
        assert report.by_code("C004") == ()

    def test_severity_drops_to_info_without_mass(self):
        cs = ConstraintSet([Unreachable("A", "A"), Unreachable("A", "B"),
                            Unreachable("B", "A")])
        # The reading sequence never touches A, so the dead location is
        # advisory only.
        ls = LSequence([{"B": 1.0}, {"B": 1.0}])
        report = analyze(cs, readings=ls)
        a_diagnostics = [d for d in report.by_code("C004")
                         if d.subjects == ("A",)]
        assert [d.severity for d in a_diagnostics] == [Severity.INFO]


class TestC005ZeroMass:
    def test_zero_mass_detected(self):
        ls = LSequence([{"A": 1.0}, {"B": 1.0}])
        cs = ConstraintSet([Unreachable("A", "B")])
        report = analyze(cs, readings=ls)
        (diagnostic,) = report.by_code("C005")
        assert diagnostic.severity is Severity.ERROR
        assert diagnostic.data["failed_at"] == 1
        assert ZERO_MASS_RULE == "C005"

    def test_positive_mass_not_flagged(self):
        ls = LSequence([{"A": 0.5, "B": 0.5}, {"A": 0.5, "B": 0.5}])
        report = analyze(ConstraintSet([Unreachable("A", "B")]), readings=ls)
        assert report.by_code("C005") == ()

    def test_latency_truncation_policies_differ(self):
        # A 2-step window cannot finish a 3-step stay: strict truncation
        # kills it, the lenient default keeps it.
        ls = LSequence([{"A": 1.0}, {"A": 1.0}])
        cs = ConstraintSet([Latency("A", 3),
                            Unreachable("A", "B"), Unreachable("B", "A")])
        assert not predict_zero_mass(ls, cs)
        assert predict_zero_mass(ls, cs, strict_truncation=True)

    def test_first_dead_timestep_positions(self):
        cs = ConstraintSet([Unreachable("A", "B")])
        assert first_dead_timestep(
            LSequence([{"A": 1.0}, {"B": 1.0}, {"A": 1.0}]), cs) == 1
        assert first_dead_timestep(
            LSequence([{"B": 1.0}, {"A": 1.0}, {"B": 1.0}]), cs) == 2
        assert first_dead_timestep(
            LSequence([{"B": 1.0}, {"B": 1.0}]), cs) is None

    def test_traveling_time_kills_late(self):
        # A -> C in one step violates travelingTime(A, C, 3) even through
        # the intermediate B: left A at 0, reached C at 2 < 3.
        ls = LSequence([{"A": 1.0}, {"B": 1.0}, {"C": 1.0}])
        cs = ConstraintSet([TravelingTime("A", "C", 3)])
        assert predict_zero_mass(ls, cs)
        relaxed = ConstraintSet([TravelingTime("A", "C", 2)])
        assert not predict_zero_mass(ls, relaxed)


class TestC006BlowupEstimate:
    def test_bound_reported_with_readings(self):
        ls = LSequence([{"A": 0.5, "B": 0.5}] * 4)
        report = analyze(ConstraintSet(), readings=ls)
        (diagnostic,) = report.by_code("C006")
        assert diagnostic.severity is Severity.INFO
        assert diagnostic.data["per_timestep"] == [2, 2, 2, 2]
        assert diagnostic.data["total"] == 8

    def test_bound_dominates_actual_node_count(self):
        ls = LSequence([{"A": 0.4, "B": 0.3, "C": 0.3}] * 5)
        cs = ConstraintSet([Latency("A", 3), TravelingTime("B", "C", 3)])
        bounds = ctgraph_size_bounds(ls, cs)
        graph = build_ct_graph(ls, cs)
        per_level = [graph.level_size(tau) for tau in range(graph.duration)]
        assert all(actual <= bound
                   for actual, bound in zip(per_level, bounds))

    def test_no_estimate_without_readings(self):
        assert analyze(ConstraintSet()).by_code("C006") == ()


class TestReachabilityIndex:
    def test_successors_respect_du(self):
        cs = ConstraintSet([Unreachable("A", "B")])
        index = ReachabilityIndex(("A", "B"), cs)
        assert index.successors("A") == ("A",)
        assert index.predecessors("B") == ("B",)
        assert index.can_step("B", "A")
        assert not index.can_step("A", "B")

    def test_closure_is_multi_step(self):
        cs = ConstraintSet([Unreachable("A", "C")])
        index = ReachabilityIndex(("A", "B", "C"), cs)
        assert index.can_ever_reach("A", "C")  # via B

    def test_universe_from_constraints_prior_and_readings(self):
        cs = ConstraintSet([Unreachable("A", "B"), TravelingTime("C", "D", 2),
                            Latency("E", 2)])
        assert location_universe(cs) == ("A", "B", "C", "D", "E")
        ls = LSequence([{"F": 1.0}])
        assert "F" in location_universe(cs, lsequence=ls)


class TestReport:
    def test_filters_and_exit_code(self):
        report = AnalysisReport((
            Diagnostic("C001", Severity.ERROR, "boom"),
            Diagnostic("C003", Severity.INFO, "meh"),
        ))
        assert len(report) == 2
        assert report.max_severity is Severity.ERROR
        assert report.errors[0].code == "C001"
        assert report.exit_code(strict=True) == 1
        assert report.exit_code(strict=False) == 0

    def test_empty_report(self):
        report = AnalysisReport(())
        assert not report.has_errors
        assert report.max_severity is None
        assert report.exit_code(strict=True) == 0
        assert report.render_text() == "analysis: no findings"

    def test_json_rendering_round_trips(self):
        report = analyze(ConstraintSet([Unreachable("A", "A"),
                                        Latency("A", 2)]))
        payload = json.loads(report.render_json())
        assert payload["format"] == "analysis-report/1"
        assert payload["summary"]["errors"] == 1
        assert payload["diagnostics"][0]["code"] == "C001"

    def test_rule_registry_is_complete(self):
        assert [spec.code for spec in RULES] == [
            "C001", "C002", "C003", "C004", "C005", "C006",
            "C007", "C008", "C009", "C010"]

    def test_only_c010_is_advisory(self):
        assert [spec.code for spec in RULES if spec.advisory] == ["C010"]


class TestAnalyzeOrchestration:
    def test_readings_without_prior_rejected(self):
        readings = ReadingSequence.from_reader_sets([["r1"], ["r2"]])
        with pytest.raises(ReadingSequenceError):
            analyze(ConstraintSet(), readings=readings)

    def test_bad_readings_type_rejected(self):
        with pytest.raises(ReadingSequenceError):
            analyze(ConstraintSet(), readings="not readings")

    def test_diagnostics_are_deterministic(self):
        cs = ConstraintSet([Unreachable("B", "B"), Latency("B", 2),
                            Unreachable("A", "A"), Latency("A", 2)])
        first = [str(d) for d in analyze(cs)]
        second = [str(d) for d in analyze(cs)]
        assert first == second
        assert first[0].startswith("C001")
        assert "(A," in first[0]  # sorted by location


class TestPrecheckHook:
    DOOMED = ConstraintSet([Unreachable("A", "A"), Unreachable("A", "B"),
                            Unreachable("B", "A"), Unreachable("B", "B")])

    def test_error_mode_raises_before_the_run(self):
        ls = LSequence([{"A": 0.5, "B": 0.5}] * 2)
        with pytest.raises(ZeroMassError, match="pre-check C005"):
            build_ct_graph(ls, self.DOOMED,
                           CleaningOptions(precheck="error"))

    def test_warn_mode_warns(self):
        ls = LSequence([{"A": 0.5, "B": 0.5}] * 2)
        with pytest.warns(UserWarning, match="pre-check C005"):
            with pytest.raises(ZeroMassError):
                build_ct_graph(ls, self.DOOMED,
                               CleaningOptions(precheck="warn"))

    def test_error_mode_never_rejects_cleanable_input(self):
        # C001 fires for location C, but the readings never touch C: the
        # pre-check warns and the cleaning still succeeds.
        ls = LSequence([{"A": 0.5, "B": 0.5}] * 2)
        cs = ConstraintSet([Unreachable("C", "C"), Latency("C", 2)])
        with pytest.warns(UserWarning, match="pre-check C001"):
            graph = build_ct_graph(ls, cs, CleaningOptions(precheck="error"))
        assert graph.duration == 2

    def test_off_is_the_default(self):
        assert CleaningOptions().precheck == "off"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ReadingSequenceError):
            CleaningOptions(precheck="maybe")


class TestAnalyzeCLI:
    def test_strict_fixture_with_c001_exits_1(self, tmp_path, capsys):
        fixture = tmp_path / "constraints.json"
        save_constraints(ConstraintSet([Unreachable("l", "l"),
                                        Latency("l", 2)]), fixture)
        code = main(["analyze", "--constraints-file", str(fixture),
                     "--strict"])
        assert code == 1
        out = capsys.readouterr().out
        assert "C001 ERROR" in out

    def test_fixture_without_strict_exits_0(self, tmp_path, capsys):
        fixture = tmp_path / "constraints.json"
        save_constraints(ConstraintSet([Unreachable("l", "l"),
                                        Latency("l", 2)]), fixture)
        assert main(["analyze", "--constraints-file", str(fixture)]) == 0

    def test_json_format(self, tmp_path, capsys):
        fixture = tmp_path / "constraints.json"
        save_constraints(ConstraintSet([Unreachable("l", "l"),
                                        Latency("l", 2)]), fixture)
        code = main(["analyze", "--constraints-file", str(fixture),
                     "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["errors"] == 1

    def test_shipped_dataset_is_clean(self, capsys):
        pytest.importorskip("numpy", exc_type=ImportError)  # dataset generation draws from an rng
        code = main(["analyze", "--dataset", "syn1", "--scale", "tiny",
                     "--strict"])
        assert code == 0

    def test_dataset_with_readings_runs_the_precheck(self, capsys):
        pytest.importorskip("numpy", exc_type=ImportError)  # dataset generation draws from an rng
        code = main(["analyze", "--dataset", "syn1", "--scale", "tiny",
                     "--index", "0", "--strict"])
        assert code == 0
        assert "C006" in capsys.readouterr().out

    def test_dataset_bad_index_rejected(self):
        pytest.importorskip("numpy", exc_type=ImportError)  # dataset generation draws from an rng
        with pytest.raises(SystemExit):
            main(["analyze", "--dataset", "syn1", "--scale", "tiny",
                  "--index", "9999"])


# ----------------------------------------------------------------------
# The C005 <-> naive conditioner property (the analyzer's ground truth).
# ----------------------------------------------------------------------
_LOCATIONS = ("A", "B", "C")


@st.composite
def small_instances(draw):
    """A tiny l-sequence plus a random mixed constraint set."""
    duration = draw(st.integers(min_value=1, max_value=5))
    supports = [
        draw(st.sets(st.sampled_from(_LOCATIONS), min_size=1, max_size=3))
        for _ in range(duration)
    ]
    lsequence = LSequence(
        [{loc: 1.0 / len(support) for loc in support}
         for support in supports])

    pairs = [(a, b) for a in _LOCATIONS for b in _LOCATIONS]
    du = draw(st.sets(st.sampled_from(pairs), max_size=6))
    tt_pairs = [(a, b) for a, b in pairs if a != b]
    tt = draw(st.sets(st.sampled_from(tt_pairs), max_size=2))
    lt = draw(st.sets(st.sampled_from(_LOCATIONS), max_size=2))
    constraints = ConstraintSet(
        [Unreachable(a, b) for a, b in sorted(du)]
        + [TravelingTime(a, b, draw(st.integers(2, 4)))
           for a, b in sorted(tt)]
        + [Latency(location, draw(st.integers(2, 3)))
           for location in sorted(lt)])
    strict = draw(st.booleans())
    return lsequence, constraints, strict


@settings(max_examples=200, deadline=None)
@given(small_instances())
def test_c005_matches_naive_conditioner(instance):
    """predict_zero_mass <=> the naive enumerator finds no valid trajectory."""
    lsequence, constraints, strict = instance
    naive = NaiveConditioner(lsequence, constraints,
                             strict_truncation=strict)
    has_valid = next(iter(naive.valid_trajectories()), None) is not None
    predicted = predict_zero_mass(lsequence, constraints,
                                  strict_truncation=strict)
    assert predicted == (not has_valid)
