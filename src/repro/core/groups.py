"""Group correlations: objects known to move together (Section 8).

The paper's future work: "other forms of correlations, such as those
holding in groups of objects moving together, which typically characterize
supply-chain scenarios".  This module implements the core case: two
monitored objects (say, a pallet and its carrier) known to be at the
*same location at every timestep*.

Given each object's cleaned ct-graph, :func:`condition_on_meeting` builds
the product graph restricted to equal-location pairs and renormalises —
i.e. it conditions the independent product distribution on the "moving
together" event.  The result supports the same marginal / path /
probability queries as a ct-graph.  Larger groups fold pairwise:
``condition_on_meeting(a, b)`` produces a flat graph whose location
marginals already reflect both objects' evidence.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from repro.core.flatgraph import CTNode, FlatCTGraph, flat_from_levels, out_edges
from repro.errors import InconsistentReadingsError, QueryError

__all__ = ["condition_on_meeting", "condition_group"]


def condition_on_meeting(graph_a, graph_b) -> FlatCTGraph:
    """Condition two cleaned trajectories on "same location at every step".

    Both graphs must cover the same monitoring interval; each may be any
    flat-shaped graph — a :class:`~repro.core.flatgraph.FlatCTGraph`, a
    mapped ``.ctg`` view, or an earlier result of this function (which
    is how :func:`condition_group` folds larger groups).  The result is
    a :class:`FlatCTGraph` whose nodes pair one node of each input at a
    shared location (stay ``None``: pairs carry no latency counter), so
    every :class:`~repro.queries.session.QuerySession` query runs on it.
    Raises :class:`InconsistentReadingsError` when the objects cannot
    have been together (no common valid trajectory).
    """
    if graph_a.duration != graph_b.duration:
        raise QueryError(
            f"graphs cover different intervals: {graph_a.duration} vs "
            f"{graph_b.duration} steps")
    duration = graph_a.duration
    names_a = graph_a.location_names
    names_b = graph_b.location_names

    # Forward product construction over same-location node-index pairs.
    levels: List[Dict[Tuple[int, int], CTNode]] = [
        {} for _ in range(duration)]
    prior: Dict[CTNode, float] = {}
    lids_a = graph_a.locations[0]
    lids_b = graph_b.locations[0]
    for i in range(len(lids_a)):
        pa = float(graph_a.source_probabilities[i])
        if pa <= 0.0:
            continue
        location = names_a[lids_a[i]]
        for j in range(len(lids_b)):
            if names_b[lids_b[j]] != location:
                continue
            pb = float(graph_b.source_probabilities[j])
            if pb <= 0.0:
                continue
            node = CTNode(0, location, None, ())
            levels[0][(i, j)] = node
            prior[node] = pa * pb
    if not levels[0]:
        raise InconsistentReadingsError(
            "the objects cannot start at a common location")

    for tau in range(duration - 1):
        next_level = levels[tau + 1]
        next_a = graph_a.locations[tau + 1]
        next_b = graph_b.locations[tau + 1]
        for (i, j), node in levels[tau].items():
            # All equal-location pairs of successors.  A cleaned graph
            # has at most one successor per location and node, but a
            # folded group can have several — hence the generic loop.
            children_b, probabilities_b = out_edges(graph_b, tau, j)
            children_a, probabilities_a = out_edges(graph_a, tau, i)
            for child_a, pa in zip(children_a, probabilities_a):
                location = names_a[next_a[child_a]]
                for child_b, pb in zip(children_b, probabilities_b):
                    if names_b[next_b[child_b]] != location:
                        continue
                    key = (int(child_a), int(child_b))
                    child = next_level.get(key)
                    if child is None:
                        child = CTNode(tau + 1, location, None, ())
                        next_level[key] = child
                    node.edges[child] = float(pa) * float(pb)
        if not next_level:
            raise InconsistentReadingsError(
                f"the objects cannot stay together past timestep {tau}")

    # Backward survival sweep (same scheme as Algorithm 1's backward phase).
    survival: Dict[CTNode, float] = {
        node: 1.0 for node in levels[duration - 1].values()}
    for tau in range(duration - 2, -1, -1):
        level = levels[tau]
        dead: List[Tuple[int, int]] = []
        level_max = 0.0
        for key, node in level.items():
            mass = 0.0
            surviving: Dict[CTNode, float] = {}
            for child, weight in node.edges.items():
                s = survival.get(child, 0.0)
                if s > 0.0:
                    surviving[child] = weight * s
                    mass += weight * s
            if mass <= 0.0:
                dead.append(key)
                node.edges.clear()
                continue
            node.edges = {child: weight / mass
                          for child, weight in surviving.items()}
            survival[node] = mass
            level_max = max(level_max, mass)
        for key in dead:
            del level[key]
        if not level:
            raise InconsistentReadingsError(
                "no joint trajectory satisfies the together constraint")
        if level_max > 0.0:
            for node in level.values():
                survival[node] /= level_max

    sources = list(levels[0].values())
    source_probabilities = [prior[node] * survival.get(node, 1.0)
                            for node in sources]
    total = math.fsum(source_probabilities)
    if total <= 0.0:
        raise InconsistentReadingsError(
            "the joint trajectories have zero total prior probability")
    return flat_from_levels([tuple(level.values()) for level in levels],
                            [p / total for p in source_probabilities])


def condition_group(graphs: Sequence) -> FlatCTGraph:
    """Condition *k* cleaned trajectories on all moving together.

    Folds :func:`condition_on_meeting` left to right; the fold is exact
    because "all pairwise equal" factorises — conditioning the normalised
    pair product against the next object re-scales but never re-weights
    (the resulting distribution is proportional to
    ``p_1(t) * p_2(t) * ... * p_k(t)`` over common trajectories).
    """
    if len(graphs) < 2:
        raise QueryError("condition_group needs at least two graphs")
    joint = condition_on_meeting(graphs[0], graphs[1])
    for graph in graphs[2:]:
        joint = condition_on_meeting(joint, graph)
    return joint
