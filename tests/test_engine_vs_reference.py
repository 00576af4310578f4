"""Property-based bit-exactness: ``build_ct_graph`` == the reference
builder oracle (``tests/reference_builder.py``), on randomly generated
instances.

``test_algorithm_vs_naive`` pins ``build_ct_graph`` to exact
enumeration; this suite pins it to the node-by-node transcription of
Algorithm 1 — not approximately, *bitwise*: the pickle states and the
flat forms of the two graphs must be equal (every path, every float),
the construction counters must agree, and zero-mass inputs must fail
identically.  Random map plans (``random_building`` +
``infer_constraints``) cover inferred constraint sets beyond the
hand-written strategies.
"""

import pytest
from hypothesis import given, settings, strategies as st

try:
    import numpy as np
except ImportError:  # pragma: no cover - the no-numpy CI leg
    np = None  # only the random-map-plan test needs it; it skips

from repro.core.algorithm import CleaningOptions, build_ct_graph
from repro.core.constraints import (
    ConstraintSet,
    Latency,
    TravelingTime,
    Unreachable,
)
from repro.core.lsequence import LSequence
from repro.errors import InconsistentReadingsError
from repro.inference import MotilityProfile, infer_constraints
from repro.mapmodel.random_plans import random_building
from repro.runtime.plan import SharedCleaningPlan
from tests.reference_builder import build_ct_graph_reference

LOCATIONS = ("A", "B", "C", "D")

locations = st.sampled_from(LOCATIONS)


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


@st.composite
def tt_heavy_constraint_sets(draw):
    """2-5 TravelingTime constraints (so the DepartureFilter and the
    mask-widened transition keys are always on the hot path), plus an
    optional DU/LT each."""
    constraints = []
    for _ in range(draw(st.integers(min_value=2, max_value=5))):
        a = draw(locations)
        b = draw(locations.filter(lambda x: x != a))
        constraints.append(TravelingTime(
            a, b, draw(st.integers(min_value=2, max_value=5))))
    if draw(st.booleans()):
        constraints.append(Unreachable(draw(locations), draw(locations)))
    if draw(st.booleans()):
        constraints.append(Latency(
            draw(locations), draw(st.integers(min_value=2, max_value=4))))
    return ConstraintSet(constraints)


def _flat(graph):
    state = graph.__getstate__()
    return {key: value for key, value in state.items() if key != "stats"}


def _assert_engines_agree(lsequence, constraints, strict, *, plan=None):
    """The default ``build_ct_graph`` call against the oracle."""
    options = CleaningOptions("strict" if strict else "lenient")
    try:
        reference = build_ct_graph_reference(lsequence, constraints, options)
    except InconsistentReadingsError as error:
        with pytest.raises(type(error)):
            build_ct_graph(lsequence, constraints, options, plan=plan)
        return
    built = build_ct_graph(lsequence, constraints, options, plan=plan)
    assert _flat(reference) == _flat(built), \
        "build_ct_graph diverged from the reference builder"
    assert reference.to_flat() == built.to_flat(), \
        "flat forms diverged"
    assert reference.stats == built.stats, \
        "construction counters diverged"


@settings(max_examples=250, deadline=None)
@given(lsequences(), constraint_sets(), st.booleans())
def test_bit_exact_on_random_instances(lsequence, constraints, strict):
    _assert_engines_agree(lsequence, constraints, strict)


@settings(max_examples=250, deadline=None)
@given(lsequences(max_duration=14), tt_heavy_constraint_sets(),
       st.booleans())
def test_bit_exact_on_tt_heavy_instances(lsequence, constraints, strict):
    _assert_engines_agree(lsequence, constraints, strict)


@settings(max_examples=100, deadline=None)
@given(st.lists(lsequences(), min_size=2, max_size=4), constraint_sets(),
       st.booleans())
def test_bit_exact_through_a_shared_plan(batch, constraints, strict):
    """One plan (one transition cache) across several objects must give
    every object the same graph a fresh build gives it."""
    plan = SharedCleaningPlan(constraints)
    for lsequence in batch:
        _assert_engines_agree(lsequence, constraints, strict, plan=plan)


@pytest.mark.skipif(np is None, reason="numpy not installed "
                    "(repro[numpy] extra); random plans draw from an rng")
@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=8, max_value=20))
def test_bit_exact_on_random_map_plans(seed, duration):
    """Inferred constraint sets over random buildings: a support-connected
    random walk, read with positional ambiguity."""
    rng = np.random.default_rng(seed)
    building = random_building(num_floors=1, rooms_x=3, rooms_y=2,
                               extra_door_fraction=0.5, rng=rng)
    constraints = infer_constraints(building, MotilityProfile())
    names = building.location_names
    current = names[int(rng.integers(len(names)))]
    rows = []
    for _ in range(duration):
        if rng.random() < 0.4:
            moves = building.neighbors(current)
            if moves:
                current = moves[int(rng.integers(len(moves)))]
        support = {current}
        for _ in range(int(rng.integers(0, 3))):
            support.add(names[int(rng.integers(len(names)))])
        weights = rng.random(len(support)) + 0.05
        weights /= weights.sum()
        rows.append({name: float(w)
                     for name, w in zip(sorted(support), weights)})
    lsequence = LSequence(rows)
    _assert_engines_agree(lsequence, constraints, strict=False)
