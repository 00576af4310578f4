"""The reference Algorithm 1 builder: the oracle ``build_ct_graph`` is
pinned to, bit for bit.

This is the direct transcription of the paper's construction over
``CTNode`` objects and per-node edge dicts — forward expansion through
``_unchecked_successor``, then the rescaled survival sweep, then source
conditioning with the survival damping (DESIGN.md §3).  It shares no code
with the production builder in :mod:`repro.core.algorithm` beyond the
successor relation and the options/stats types, which is what makes it a
useful oracle: the parity suites (``test_engine_vs_reference`` and the
suites that import from it) compare the oracle graph's ``to_flat()``
with the production graph, and the stats counters of both builders, on
random instances.

It accepts the same ``options``/``plan`` arguments and returns the
node-form :class:`tests.reference_graph.CTGraph`; with ``output=`` it
writes that graph's flat form to the ``.ctg`` path instead and returns
the mapped view, exactly like production.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List

from repro.core.algorithm import CleaningOptions, CleaningStats, _run_precheck
from repro.core.constraints import ConstraintSet
from repro.core.lsequence import LSequence
from repro.core.nodes import (
    DepartureFilter,
    NodeState,
    _unchecked_successor,
    source_states,
)
from repro.errors import ReadingSequenceError, ZeroMassError
from tests.reference_graph import CTGraph, CTNode


def build_ct_graph_reference(lsequence: LSequence,
                             constraints: ConstraintSet,
                             options: CleaningOptions = CleaningOptions(), *,
                             plan=None):
    """Algorithm 1 over ``CTNode`` objects (see the module docstring)."""
    if plan is not None:
        if plan.constraints != constraints:
            raise ReadingSequenceError(
                "the shared cleaning plan was built for a different "
                "constraint set")
        plan.precheck(lsequence, options)
    elif options.precheck != "off":
        _run_precheck(lsequence, constraints, options)

    stats = CleaningStats()
    forward_started = time.perf_counter()
    duration = lsequence.duration
    last = duration - 1

    # ------------------------------------------------------------------
    # initialisation: source nodes from the timestep-0 candidates
    # ------------------------------------------------------------------
    levels: List[Dict[NodeState, CTNode]] = [{} for _ in range(duration)]
    prior_source_probability: Dict[CTNode, float] = {}
    for location, state in source_states(lsequence.support(0),
                                         constraints).items():
        if options.strict_truncation and last == 0 and state[1] is not None:
            continue
        node = CTNode(0, *state)
        levels[0][state] = node
        prior_source_probability[node] = lsequence.probability(0, location)
        stats.nodes_created += 1
    if not levels[0]:
        raise ZeroMassError(
            "no source location satisfies the constraints at timestep 0")

    # ------------------------------------------------------------------
    # forward phase
    # ------------------------------------------------------------------
    departure_filter = (DepartureFilter(lsequence, constraints)
                        if constraints.tt_sources else None)
    for tau in range(duration - 1):
        frontier = levels[tau]
        next_level = levels[tau + 1]
        candidates = lsequence.candidates(tau + 1)
        filter_binding = options.strict_truncation and tau + 1 == last
        # Rule 2 (DU) is hoisted: the reachable candidates are shared by
        # every node at the same location of this level.
        reachable: Dict[str, list] = {}
        for node in frontier.values():
            location = node.location
            allowed = reachable.get(location)
            if allowed is None:
                allowed = [(destination, probability)
                           for destination, probability
                           in candidates.items()
                           if not constraints.forbids_step(location,
                                                           destination)]
                reachable[location] = allowed
            state = (location, node.stay, node.departures)
            for destination, probability in allowed:
                successor = _unchecked_successor(tau, state, destination,
                                                 constraints,
                                                 departure_filter)
                if successor is None:
                    continue
                if filter_binding and successor[1] is not None:
                    continue
                child = next_level.get(successor)
                if child is None:
                    child = CTNode(tau + 1, *successor)
                    next_level[successor] = child
                    stats.nodes_created += 1
                node.edges[child] = probability
                child.parents.append(node)
                stats.edges_created += 1
        if not next_level:
            raise ZeroMassError(
                f"no trajectory can legally continue past timestep {tau}")

    # ------------------------------------------------------------------
    # backward phase: survival sweep with per-level rescaling
    # ------------------------------------------------------------------
    backward_started = time.perf_counter()
    stats.forward_seconds = backward_started - forward_started
    survival: Dict[CTNode, float] = {node: 1.0
                                     for node in levels[last].values()}
    for tau in range(last - 1, -1, -1):
        level = levels[tau]
        dead: List[NodeState] = []
        level_max = 0.0
        for state, node in level.items():
            mass = 0.0
            surviving_edges: Dict[CTNode, float] = {}
            for child, probability in node.edges.items():
                child_survival = survival.get(child, 0.0)
                if child_survival > 0.0:
                    weight = probability * child_survival
                    surviving_edges[child] = weight
                    mass += weight
            if mass <= 0.0:
                dead.append(state)
                stats.edges_removed += len(node.edges)
                node.edges.clear()
                continue
            # Condition: each edge's probability becomes its share of the
            # surviving mass (this is p_edge * S(child) / S(node)).
            stats.edges_removed += len(node.edges) - len(surviving_edges)
            node.edges = {child: weight / mass
                          for child, weight in surviving_edges.items()}
            survival[node] = mass
            if mass > level_max:
                level_max = mass
        for state in dead:
            level.pop(state)
            stats.nodes_removed += 1
        if not level:
            raise ZeroMassError(
                "no trajectory compatible with the readings satisfies "
                "the constraints")
        # Rescale so the level's largest survival is 1 — conditioning only
        # ever uses survival ratios, and this keeps float64 from
        # underflowing on long sequences.
        if level_max > 0.0:
            for node in level.values():
                survival[node] /= level_max

    # Drop now-unreachable bookkeeping: parents entries of removed nodes.
    for tau in range(1, duration):
        for node in levels[tau].values():
            node.parents = [parent for parent in node.parents if parent.edges]

    # ------------------------------------------------------------------
    # source conditioning (with the survival damping — DESIGN.md §3)
    # ------------------------------------------------------------------
    source_probabilities: Dict[CTNode, float] = {}
    for node in levels[0].values():
        source_probabilities[node] = (
            prior_source_probability[node] * survival.get(node, 1.0))
    total = math.fsum(source_probabilities.values())
    if total <= 0.0:
        raise ZeroMassError(
            "the valid trajectories have zero total prior probability")
    for node in source_probabilities:
        source_probabilities[node] /= total

    stats.backward_seconds = time.perf_counter() - backward_started
    graph = CTGraph([tuple(level.values()) for level in levels],
                    source_probabilities, stats=stats)
    if options.output is not None:
        from repro.store.format import save_mapped

        return save_mapped(graph.to_flat(), options.output)
    return graph
