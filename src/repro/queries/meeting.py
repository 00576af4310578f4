"""Contact queries over two independently tracked objects.

Where :mod:`repro.core.groups` *conditions* on two objects always moving
together, the functions here *measure* co-location of two independently
cleaned trajectories:

* :func:`meeting_probability` — P(the objects share a location at some
  timestep);
* :func:`meeting_time_distribution` — P(the first co-location happens at
  timestep ``tau``);
* :func:`colocation_profile` — P(co-located at ``tau``) for every ``tau``.

The classic application is contact tracing: given the cleaned graphs of a
known carrier and a visitor, how likely did they meet, and when?

All three are exact dynamic programs over the product of the two graphs'
levels; the objects' trajectories are treated as independent given their
readings (the cleaned distributions factorise).  They run on the flat
columns: each argument may be anything
:meth:`~repro.queries.session.QuerySession.ensure` accepts (a
``FlatCTGraph``, ``MappedCTGraph`` or a prebuilt ``QuerySession``), and
the answers are bit-identical across the forms.  Pass sessions when querying the same pair repeatedly: the
marginal sweeps are then computed once per object instead of once per
call.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import QueryError
from repro.queries.session import QueryInput, QuerySession

__all__ = [
    "meeting_probability",
    "meeting_time_distribution",
    "colocation_profile",
]


def _check_durations(duration_a: int, duration_b: int) -> None:
    if duration_a != duration_b:
        raise QueryError(
            f"graphs cover different intervals: {duration_a} vs "
            f"{duration_b} steps")


def colocation_profile(graph_a: QueryInput,
                       graph_b: QueryInput) -> List[float]:
    """P(the two objects are at the same location) per timestep.

    Marginals factorise across independent objects, so each timestep is
    just a dot product of the two location marginals.
    """
    session_a = QuerySession.ensure(graph_a)
    session_b = QuerySession.ensure(graph_b)
    _check_durations(session_a.duration, session_b.duration)
    profile: List[float] = []
    for tau in range(session_a.duration):
        marginal_a = session_a.location_marginal(tau)
        marginal_b = session_b.location_marginal(tau)
        profile.append(sum(p * marginal_b.get(location, 0.0)
                           for location, p in marginal_a.items()))
    return profile


def meeting_time_distribution(graph_a: QueryInput,
                              graph_b: QueryInput) -> Dict[int, float]:
    """P(the objects are first co-located at timestep ``tau``).

    Mass missing from the returned dict is the probability they never
    meet.  Joint forward pass over "never met yet" pairs of node states —
    unlike :func:`colocation_profile`, first-meeting needs the joint DP
    because avoiding-so-far correlates the two trajectories.
    """
    graph_a = QuerySession.ensure(graph_a).graph
    graph_b = QuerySession.ensure(graph_b).graph
    # Sources nest a outer, b inner, and edges the same way.  Location
    # equality crosses the two graphs' intern tables, so it compares
    # names, not ids.
    _check_durations(graph_a.duration, graph_b.duration)
    names_a = graph_a.location_names
    names_b = graph_b.location_names
    first: Dict[int, float] = {}
    pending: Dict[Tuple[int, int], float] = {}
    lids_a = graph_a.locations[0]
    lids_b = graph_b.locations[0]
    for ia in range(len(lids_a)):
        pa = graph_a.source_probabilities[ia]
        if pa <= 0.0:
            continue
        for ib in range(len(lids_b)):
            pb = graph_b.source_probabilities[ib]
            if pb <= 0.0:
                continue
            mass = pa * pb
            if names_a[lids_a[ia]] == names_b[lids_b[ib]]:
                first[0] = first.get(0, 0.0) + mass
            else:
                pending[(ia, ib)] = mass

    for tau in range(graph_a.duration - 1):
        offsets_a = graph_a.edge_offsets[tau]
        children_a = graph_a.edge_children[tau]
        probs_a = graph_a.edge_probabilities[tau]
        next_a = graph_a.locations[tau + 1]
        offsets_b = graph_b.edge_offsets[tau]
        children_b = graph_b.edge_children[tau]
        probs_b = graph_b.edge_probabilities[tau]
        next_b = graph_b.locations[tau + 1]
        step: Dict[Tuple[int, int], float] = {}
        emitted = 0.0
        for (ia, ib), mass in pending.items():
            for ea in range(offsets_a[ia], offsets_a[ia + 1]):
                child_a = children_a[ea]
                location_a = names_a[next_a[child_a]]
                flow_a = mass * probs_a[ea]
                for eb in range(offsets_b[ib], offsets_b[ib + 1]):
                    child_b = children_b[eb]
                    flow = flow_a * probs_b[eb]
                    if location_a == names_b[next_b[child_b]]:
                        emitted += flow
                    else:
                        key = (child_a, child_b)
                        step[key] = step.get(key, 0.0) + flow
        if emitted > 0.0:
            first[tau + 1] = first.get(tau + 1, 0.0) + emitted
        pending = step
        if not pending:
            break
    return first


def meeting_probability(graph_a: QueryInput,
                        graph_b: QueryInput) -> float:
    """P(the two objects share a location at some timestep)."""
    return min(1.0, sum(meeting_time_distribution(graph_a, graph_b).values()))
