"""The reference query DPs: the oracle ``QuerySession`` is pinned to, bit
for bit.

These are the direct dynamic programs over the ``CTNode`` web of a
:class:`tests.reference_graph.CTGraph` — one walk over ``node.edges`` per
query, level order, edge insertion order.  Production code answers every
query through :class:`repro.queries.session.QuerySession` over the flat
columns; this module shares no query code with it (stay marginals come
from the graph's own ``location_marginal`` forward pass), which is what
makes it a useful oracle: ``tests/test_queries_flat.py`` compares the
two on random instances and ``benchmarks/bench_queries.py`` answers its
node leg through :func:`execute_reference`.

Every function takes a node graph (``CTGraph``) and returns exactly what
the matching public function returns.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional, Tuple

from repro.core.lsequence import Trajectory
from repro.errors import QueryError
from repro.queries.pattern import Pattern
from tests.reference_graph import CTGraph, CTNode


# ----------------------------------------------------------------------
# stay queries and the marginal family
# ----------------------------------------------------------------------

def stay_query(graph: CTGraph, tau: int) -> Dict[str, float]:
    """The location marginal from the graph's cached node forward pass."""
    return graph.location_marginal(tau)


def _entropy(distribution: Dict[str, float]) -> float:
    return -sum(p * math.log2(p) for p in distribution.values() if p > 0.0)


def entropy_profile(graph: CTGraph) -> List[float]:
    """Shannon entropy (bits) of the cleaned location marginal, per step."""
    return [_entropy(graph.location_marginal(tau))
            for tau in range(graph.duration)]


def expected_visit_counts(graph: CTGraph) -> Dict[str, float]:
    """Expected number of timesteps spent at each location."""
    totals: Dict[str, float] = {}
    for tau in range(graph.duration):
        for location, probability in graph.location_marginal(tau).items():
            totals[location] = totals.get(location, 0.0) + probability
    return totals


# ----------------------------------------------------------------------
# MAP trajectory and top-k
# ----------------------------------------------------------------------

def _lex_ranks(keys: Dict[CTNode, object]) -> Dict[CTNode, int]:
    """Dense lexicographic ranks of each node's best prefix key.

    Rank order ≡ lexicographic order of the full best prefixes: a level's
    keys are ``(parent rank, location)`` pairs (plain locations at level
    0) and all prefixes at a level share a length, so comparing keys
    compares the prefixes themselves.
    """
    order = {key: rank
             for rank, key in enumerate(sorted(set(keys.values())))}  # type: ignore[type-var]
    return {node: order[key] for node, key in keys.items()}


def most_likely_trajectory(graph: CTGraph) -> Tuple[Trajectory, float]:
    """The maximum-probability valid trajectory (Viterbi over the graph).

    Ties are broken deterministically: among equal-probability MAP paths
    the lexicographically smallest location sequence wins, independent of
    node/dict iteration order.
    """
    best: Dict[CTNode, Tuple[float, Optional[CTNode]]] = {}
    keys: Dict[CTNode, object] = {}
    for source in graph.sources:
        probability = graph.source_probability(source)
        if probability > 0.0:
            best[source] = (probability, None)
            keys[source] = source.location
    ranks = _lex_ranks(keys)
    for tau in range(graph.duration - 1):
        next_keys: Dict[CTNode, object] = {}
        for node in graph.level(tau):
            entry = best.get(node)
            if entry is None:
                continue
            mass = entry[0]
            rank = ranks[node]
            for child, probability in node.edges.items():
                candidate = mass * probability
                key = (rank, child.location)
                current = best.get(child)
                if (current is None or candidate > current[0]
                        or (candidate == current[0]
                            and key < next_keys[child])):  # type: ignore[operator]
                    best[child] = (candidate, node)
                    next_keys[child] = key
        ranks = _lex_ranks(next_keys)

    terminal: Optional[CTNode] = None
    for node in graph.targets:
        entry = best.get(node)
        if entry is None:
            continue
        if (terminal is None or entry[0] > best[terminal][0]
                or (entry[0] == best[terminal][0]
                    and ranks[node] < ranks[terminal])):
            terminal = node
    if terminal is None:
        raise QueryError("graph has no positive-probability path")
    steps: List[str] = []
    node: Optional[CTNode] = terminal
    while node is not None:
        steps.append(node.location)
        node = best[node][1]
    steps.reverse()
    return tuple(steps), best[terminal][0]


def top_k_trajectories(graph: CTGraph, k: int) -> List[Tuple[Trajectory, float]]:
    """The most probable valid trajectories, most probable first.

    Best-first search over path prefixes, guided by the exact
    probability-to-go upper bound ``best_suffix``; each node is expanded
    at most ``k`` times.  Equal-probability trajectories come out in
    discovery order (level order, then edge insertion order).
    """
    if k < 1:
        raise QueryError(f"k must be >= 1, got {k}")

    # Exact best-completion value per node (max-product backward pass).
    best_suffix: Dict[CTNode, float] = {node: 1.0 for node in graph.targets}
    for tau in range(graph.duration - 2, -1, -1):
        for node in graph.level(tau):
            best_suffix[node] = max(
                (probability * best_suffix.get(child, 0.0)
                 for child, probability in node.edges.items()),
                default=0.0)

    # Best-first expansion: entries are (-bound, counter, node, prefix, mass).
    heap: List = []
    counter = 0
    for source in graph.sources:
        mass = graph.source_probability(source)
        if mass <= 0.0:
            continue
        bound = mass * best_suffix.get(source, 0.0)
        heapq.heappush(heap, (-bound, counter, source, (source.location,), mass))
        counter += 1

    results: List[Tuple[Trajectory, float]] = []
    pops: Dict[CTNode, int] = {}
    while heap and len(results) < k:
        negative_bound, _, node, prefix, mass = heapq.heappop(heap)
        popped = pops.get(node, 0)
        if popped >= k:
            continue
        pops[node] = popped + 1
        if not node.edges:
            if node.tau == graph.duration - 1:
                results.append((prefix, mass))
            continue
        for child, probability in node.edges.items():
            child_mass = mass * probability
            bound = child_mass * best_suffix.get(child, 0.0)
            if bound <= 0.0:
                continue
            heapq.heappush(heap, (-bound, counter, child,
                                  prefix + (child.location,), child_mass))
            counter += 1
    return results


# ----------------------------------------------------------------------
# visit statistics
# ----------------------------------------------------------------------

def visit_probability(graph: CTGraph, location: str) -> float:
    """P(the object is at ``location`` at some timestep).

    1 minus the total mass of paths that avoid the location — a forward
    pass restricted to non-``location`` nodes.
    """
    avoiding: Dict[CTNode, float] = {}
    for source in graph.sources:
        if source.location != location:
            mass = graph.source_probability(source)
            if mass > 0.0:
                avoiding[source] = mass
    for tau in range(graph.duration - 1):
        for node in graph.level(tau):
            mass = avoiding.get(node)
            if mass is None:
                continue
            for child, probability in node.edges.items():
                if child.location == location:
                    continue
                avoiding[child] = avoiding.get(child, 0.0) + mass * probability
    avoided = sum(avoiding.get(node, 0.0) for node in graph.targets)
    return min(1.0, max(0.0, 1.0 - avoided))


def span_probability(graph: CTGraph, location: str,
                     start: int, end: int) -> float:
    """P(the object is at ``location`` throughout ``[start, end]``)."""
    if not 0 <= start <= end < graph.duration:
        raise QueryError(
            f"window [{start}, {end}] outside the graph's [0, "
            f"{graph.duration})")
    alphas = graph.node_marginals()
    inside: Dict[CTNode, float] = {}
    for node in graph.level(start):
        if node.location == location:
            mass = alphas.get(node, 0.0)
            if mass > 0.0:
                inside[node] = mass
    for tau in range(start, end):
        step: Dict[CTNode, float] = {}
        for node, mass in inside.items():
            for child, probability in node.edges.items():
                if child.location == location:
                    step[child] = step.get(child, 0.0) + mass * probability
        inside = step
        if not inside:
            return 0.0
    return min(1.0, sum(inside.values()))


def time_at_location_distribution(graph: CTGraph,
                                  location: str) -> Dict[int, float]:
    """``{k: P(exactly k timesteps at location)}``, including ``k=0``."""
    histograms: Dict[CTNode, Dict[int, float]] = {}
    for source in graph.sources:
        mass = graph.source_probability(source)
        if mass <= 0.0:
            continue
        count = 1 if source.location == location else 0
        histograms[source] = {count: mass}
    for tau in range(graph.duration - 1):
        for node in graph.level(tau):
            histogram = histograms.get(node)
            if not histogram:
                continue
            for child, probability in node.edges.items():
                bump = 1 if child.location == location else 0
                target = histograms.setdefault(child, {})
                for count, mass in histogram.items():
                    key = count + bump
                    target[key] = target.get(key, 0.0) + mass * probability
    result: Dict[int, float] = {}
    for node in graph.targets:
        for count, mass in histograms.get(node, {}).items():
            result[count] = result.get(count, 0.0) + mass
    return result


def first_visit_distribution(graph: CTGraph, location: str) -> Dict[int, float]:
    """P(first visit to ``location`` happens at timestep ``tau``)."""
    first: Dict[int, float] = {}
    pending: Dict[CTNode, float] = {}
    for source in graph.sources:
        mass = graph.source_probability(source)
        if mass <= 0.0:
            continue
        if source.location == location:
            first[0] = first.get(0, 0.0) + mass
        else:
            pending[source] = mass
    for tau in range(graph.duration - 1):
        for node in graph.level(tau):
            mass = pending.get(node)
            if mass is None:
                continue
            for child, probability in node.edges.items():
                flow = mass * probability
                if child.location == location:
                    first[tau + 1] = first.get(tau + 1, 0.0) + flow
                else:
                    pending[child] = pending.get(child, 0.0) + flow
    return first


# ----------------------------------------------------------------------
# trajectory (pattern) queries
# ----------------------------------------------------------------------

def match_probability(graph, pattern) -> float:
    """P(the cleaned trajectory matches ``pattern``).

    The pattern's DFA runs in lock-step with a forward pass; the DP state
    is a probability per ``(graph node, DFA state)`` pair.
    """
    if isinstance(pattern, str):
        pattern = Pattern.parse(pattern)
    dfa = pattern.dfa()
    forward: Dict[Tuple[object, int], float] = {}
    for source in graph.sources:
        mass = graph.source_probability(source)
        if mass <= 0.0:
            continue
        state = dfa.step(dfa.start, source.location)
        key = (source, state)
        forward[key] = forward.get(key, 0.0) + mass

    for tau in range(graph.duration - 1):
        step: Dict[Tuple[object, int], float] = {}
        for (node, state), mass in forward.items():
            if node.tau != tau:
                continue
            for child, probability in node.edges.items():
                next_state = dfa.step(state, child.location)
                key = (child, next_state)
                step[key] = step.get(key, 0.0) + mass * probability
        forward = step

    return sum(mass for (node, state), mass in forward.items()
               if state in dfa.accepting)


# ----------------------------------------------------------------------
# meetings of two independent objects
# ----------------------------------------------------------------------

def _check_durations(duration_a: int, duration_b: int) -> None:
    if duration_a != duration_b:
        raise QueryError(
            f"graphs cover different intervals: {duration_a} vs "
            f"{duration_b} steps")


def colocation_profile(graph_a: CTGraph, graph_b: CTGraph) -> List[float]:
    """P(the two objects are at the same location) per timestep."""
    _check_durations(graph_a.duration, graph_b.duration)
    profile: List[float] = []
    for tau in range(graph_a.duration):
        marginal_a = graph_a.location_marginal(tau)
        marginal_b = graph_b.location_marginal(tau)
        profile.append(sum(p * marginal_b.get(location, 0.0)
                           for location, p in marginal_a.items()))
    return profile


def meeting_time_distribution(graph_a: CTGraph,
                              graph_b: CTGraph) -> Dict[int, float]:
    """P(the objects are first co-located at timestep ``tau``).

    Joint forward pass over "never met yet" pairs of node states.
    """
    _check_durations(graph_a.duration, graph_b.duration)
    first: Dict[int, float] = {}
    # pending[(a, b)] = P(prefixes end at (a, b), never co-located yet).
    pending: Dict[Tuple[CTNode, CTNode], float] = {}
    for source_a in graph_a.sources:
        pa = graph_a.source_probability(source_a)
        if pa <= 0.0:
            continue
        for source_b in graph_b.sources:
            pb = graph_b.source_probability(source_b)
            if pb <= 0.0:
                continue
            mass = pa * pb
            if source_a.location == source_b.location:
                first[0] = first.get(0, 0.0) + mass
            else:
                pending[(source_a, source_b)] = mass

    for tau in range(graph_a.duration - 1):
        step: Dict[Tuple[CTNode, CTNode], float] = {}
        emitted = 0.0
        for (node_a, node_b), mass in pending.items():
            for child_a, pa in node_a.edges.items():
                for child_b, pb in node_b.edges.items():
                    flow = mass * pa * pb
                    if child_a.location == child_b.location:
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


def meeting_probability(graph_a: CTGraph, graph_b: CTGraph) -> float:
    """P(the two objects share a location at some timestep)."""
    return min(1.0, sum(meeting_time_distribution(graph_a, graph_b).values()))


# ----------------------------------------------------------------------
# QL statements
# ----------------------------------------------------------------------

def execute_reference(graph: CTGraph, statement: str):
    """The payload ``repro.queries.ql.execute(graph, statement).value``
    must equal, computed by the node DPs above.

    Accepts the well-formed statements of the QL grammar only; argument
    validation stays the production parser's job.
    """
    keyword, _, argument = statement.strip().partition(" ")
    keyword = keyword.upper()
    argument = argument.strip()
    if keyword == "STAY":
        return stay_query(graph, int(argument))
    if keyword == "MATCH":
        return match_probability(graph, argument)
    if keyword == "VISIT":
        return visit_probability(graph, argument)
    if keyword == "SPAN":
        location, start, end = argument.split()
        return span_probability(graph, location, int(start), int(end))
    if keyword == "DWELL":
        return time_at_location_distribution(graph, argument)
    if keyword == "FIRST":
        return first_visit_distribution(graph, argument)
    if keyword == "EXPECTED":
        return expected_visit_counts(graph)
    if keyword == "BEST":
        return most_likely_trajectory(graph)
    if keyword == "TOP":
        return top_k_trajectories(graph, int(argument))
    if keyword == "ENTROPY":
        return entropy_profile(graph)
    raise QueryError(f"unknown statement {keyword!r}")
