"""The node-form ct-graph oracle: ``CTNode`` levels with per-node DPs.

This is the ``CTGraph`` class production used to build before the flat
columns (:class:`repro.core.flatgraph.FlatCTGraph`) became the only
built representation.  The oracles keep it: ``tests/reference_builder.py``
files its nodes into one, ``tests/reference_queries.py`` walks its
``node.edges`` webs, and the parity suites compare ``to_flat()`` of an
oracle graph against production bit for bit.  Its own DPs
(:meth:`CTGraph.node_marginals`, :meth:`CTGraph.location_marginal`,
:meth:`CTGraph.paths`, :meth:`CTGraph.trajectory_probability`), its
pickling, :meth:`CTGraph.validate` and :meth:`CTGraph.to_networkx` are
tested in ``tests/test_ctgraph.py``.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.flatgraph import CTNode, FlatCTGraph, flat_from_levels
from repro.core.lsequence import Trajectory
from repro.errors import GraphInvariantError, QueryError

if TYPE_CHECKING:
    from repro.core.algorithm import CleaningStats

__all__ = ["CTNode", "CTGraph", "successor_for"]


def successor_for(node: CTNode, location: str) -> Optional[CTNode]:
    """The unique successor of ``node`` at ``location``, if the edge
    exists (Definition 3: at most one per location)."""
    for child in node.edges:
        if child.location == location:
            return child
    return None


class CTGraph:
    """A finished conditioned-trajectory graph."""

    def __init__(self, levels: Sequence[Sequence[CTNode]],
                 source_probabilities: Dict[CTNode, float],
                 stats: Optional["CleaningStats"] = None) -> None:
        self._levels: Tuple[Tuple[CTNode, ...], ...] = tuple(
            tuple(level) for level in levels)
        self._source_probabilities = dict(source_probabilities)
        self._node_marginals: Optional[Dict[CTNode, float]] = None
        #: The construction counters of Algorithm 1, ``None`` for graphs
        #: built by hand or loaded from disk (declared here so every graph
        #: has the attribute — not just the ones ``build_ct_graph`` returns).
        self.stats: Optional["CleaningStats"] = stats

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def duration(self) -> int:
        """The number of timesteps (levels)."""
        return len(self._levels)

    def level(self, tau: int) -> Tuple[CTNode, ...]:
        """The nodes of timestep ``tau``."""
        if not 0 <= tau < len(self._levels):
            raise QueryError(f"timestep {tau} outside [0, {len(self._levels)})")
        return self._levels[tau]

    @property
    def sources(self) -> Tuple[CTNode, ...]:
        return self._levels[0]

    @property
    def targets(self) -> Tuple[CTNode, ...]:
        return self._levels[-1]

    def source_probability(self, node: CTNode) -> float:
        """The conditioned probability of starting at source ``node``."""
        return self._source_probabilities.get(node, 0.0)

    @property
    def num_nodes(self) -> int:
        return sum(len(level) for level in self._levels)

    @property
    def num_edges(self) -> int:
        return sum(len(node.edges) for level in self._levels for node in level)

    def nodes(self) -> Iterator[CTNode]:
        """All nodes, level by level."""
        for level in self._levels:
            yield from level

    def locations_at(self, tau: int) -> Tuple[str, ...]:
        """Distinct locations present at timestep ``tau`` (sorted)."""
        return tuple(sorted({node.location for node in self.level(tau)}))

    # ------------------------------------------------------------------
    # trajectories and probabilities
    # ------------------------------------------------------------------
    def num_valid_trajectories(self) -> int:
        """How many source->target paths (= valid trajectories) exist."""
        counts: Dict[CTNode, int] = {node: 1 for node in self.targets}
        for level in reversed(self._levels[:-1]):
            for node in level:
                counts[node] = sum(counts[child] for child in node.edges)
        return sum(counts[node] for node in self.sources)

    def paths(self) -> Iterator[Tuple[Trajectory, float]]:
        """Every valid trajectory with its conditioned probability.

        Exponential in general — meant for tests and small graphs.
        """
        def walk(node: CTNode, prefix: List[str], probability: float
                 ) -> Iterator[Tuple[Trajectory, float]]:
            prefix.append(node.location)
            if node.tau == self.duration - 1:
                yield tuple(prefix), probability
            else:
                for child, p in node.edges.items():
                    yield from walk(child, prefix, probability * p)
            prefix.pop()

        for source in self.sources:
            yield from walk(source, [], self.source_probability(source))

    def trajectory_probability(self, trajectory: Sequence[str]) -> float:
        """The conditioned probability of one trajectory (0 if invalid).

        The walk is deterministic: at most one source node per location and
        at most one successor per (node, location).
        """
        if len(trajectory) != self.duration:
            raise QueryError(
                f"trajectory has {len(trajectory)} steps, expected {self.duration}")
        node = None
        for source in self.sources:
            if source.location == trajectory[0]:
                node = source
                break
        if node is None:
            return 0.0
        probability = self.source_probability(node)
        for location in trajectory[1:]:
            child = successor_for(node, location)
            if child is None:
                return 0.0
            probability *= node.edges[child]
            node = child
        return probability

    def node_marginals(self) -> Dict[CTNode, float]:
        """For every node, the probability that the object's trajectory
        passes through it (the forward pass; cached)."""
        if self._node_marginals is None:
            alphas: Dict[CTNode, float] = {}
            for source in self.sources:
                alphas[source] = self.source_probability(source)
            for level in self._levels[:-1]:
                for node in level:
                    mass = alphas.get(node, 0.0)
                    if mass == 0.0:
                        continue
                    for child, p in node.edges.items():
                        alphas[child] = alphas.get(child, 0.0) + mass * p
            self._node_marginals = alphas
        return self._node_marginals

    def location_marginal(self, tau: int) -> Dict[str, float]:
        """The distribution of the object's location at timestep ``tau``."""
        alphas = self.node_marginals()
        result: Dict[str, float] = {}
        for node in self.level(tau):
            mass = alphas.get(node, 0.0)
            if mass > 0.0:
                result[node.location] = result.get(node.location, 0.0) + mass
        return result

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def validate(self, tolerance: float = 1e-6) -> None:
        """Check the Definition 4 invariants; raises
        :class:`~repro.errors.GraphInvariantError` on the first violation.

        Used by tests and available to cautious callers; O(nodes + edges).
        The checks are explicit ``raise`` statements — not ``assert`` — so
        they still run under ``python -O`` / ``PYTHONOPTIMIZE``.  The error
        type subclasses :class:`AssertionError`, keeping the historical
        contract for callers that caught assertion failures.
        """
        total_sources = math.fsum(self._source_probabilities.values())
        if abs(total_sources - 1.0) > tolerance:
            raise GraphInvariantError(
                f"source probabilities sum to {total_sources}")
        for tau, level in enumerate(self._levels):
            for node in level:
                if node.tau != tau:
                    raise GraphInvariantError(
                        f"node {node!r} filed at level {tau}")
                if tau < self.duration - 1:
                    if not node.edges:
                        raise GraphInvariantError(
                            f"non-target node {node!r} has no successors")
                    total = math.fsum(node.edges.values())
                    if abs(total - 1.0) > tolerance:
                        raise GraphInvariantError(
                            f"outgoing probabilities of {node!r} sum to {total}")
                elif node.edges:
                    raise GraphInvariantError(
                        f"target node {node!r} has successors")
                if tau > 0 and not node.parents:
                    raise GraphInvariantError(
                        f"non-source node {node!r} is unreachable")

    # ------------------------------------------------------------------
    # pickling (the batch runtime ships graphs between processes)
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, Any]:
        """Flatten the node web into id-indexed lists.

        Default pickling would recurse through the ``edges``/``parents``
        object graph — one stack frame chain per timestep — and overflow
        the interpreter recursion limit on long durations.  The flat form
        is also smaller: parent lists are derivable and are rebuilt on
        load rather than stored.
        """
        ids: Dict[CTNode, int] = {}
        for node in self.nodes():
            ids[node] = len(ids)
        return {
            "levels": [[(node.location, node.stay, node.departures)
                        for node in level] for level in self._levels],
            "edges": [[(ids[child], probability)
                       for child, probability in node.edges.items()]
                      for node in self.nodes()],
            "sources": [(ids[node], probability)
                        for node, probability
                        in self._source_probabilities.items()],
            "stats": self.stats,
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        nodes: List[CTNode] = []
        levels: List[Tuple[CTNode, ...]] = []
        for tau, level_state in enumerate(state["levels"]):
            level_nodes = tuple(CTNode(tau, location, stay, departures)
                                for location, stay, departures in level_state)
            levels.append(level_nodes)
            nodes.extend(level_nodes)
        # Edge insertion order is preserved, so ``paths()`` and the edge
        # dicts of a round-tripped graph iterate exactly like the original;
        # parents are rebuilt in the same (level-major) order Algorithm 1
        # appends them.
        for node, edge_state in zip(nodes, state["edges"]):
            for child_id, probability in edge_state:
                child = nodes[child_id]
                node.edges[child] = probability
                child.parents.append(node)
        self._levels = tuple(levels)
        self._source_probabilities = {nodes[index]: probability
                                      for index, probability
                                      in state["sources"]}
        self._node_marginals = None
        self.stats = state["stats"]

    def to_flat(self) -> FlatCTGraph:
        """The graph as a :class:`~repro.core.flatgraph.FlatCTGraph`.

        Bit-identical to what :func:`~repro.core.algorithm.build_ct_graph`
        emits for the same cleaning (see
        :func:`~repro.core.flatgraph.flat_from_levels`).  The
        ``departures`` tuples and parent lists are not carried over —
        queries never read them.  ``stats`` rides along.
        """
        return flat_from_levels(
            self._levels,
            [self.source_probability(node) for node in self._levels[0]],
            self.stats)

    def to_networkx(self):
        """The graph as a ``networkx.DiGraph`` for external tooling.

        Nodes are dense integer ids with ``tau``/``location``/``stay``/
        ``departures``/``source_probability`` attributes; edges carry the
        conditioned ``probability``.  The conversion is read-only —
        mutating the result does not touch this graph.
        """
        import networkx as nx

        ids = {node: index for index, node in enumerate(self.nodes())}
        digraph = nx.DiGraph(duration=self.duration)
        for node, index in ids.items():
            digraph.add_node(
                index, tau=node.tau, location=node.location,
                stay=node.stay, departures=list(node.departures),
                source_probability=self.source_probability(node))
        for node, index in ids.items():
            for child, probability in node.edges.items():
                digraph.add_edge(index, ids[child], probability=probability)
        return digraph

    def estimate_size_bytes(self) -> int:
        """A size estimate of the materialised graph (Section 6.7).

        Counts the Python objects actually held: nodes (including their TL
        tuples), edge-map entries and parent-list slots.  The absolute
        number is interpreter-specific; benchmarks only compare ratios.
        """
        total = 0
        for level in self._levels:
            total += sys.getsizeof(level)
            for node in level:
                total += object.__sizeof__(node)
                total += sys.getsizeof(node.departures)
                total += 64 * len(node.departures)  # tuple entries + ints
                total += sys.getsizeof(node.edges) + 16 * len(node.edges)
                total += sys.getsizeof(node.parents)
        return total

    def __repr__(self) -> str:
        return (f"CTGraph(duration={self.duration}, nodes={self.num_nodes}, "
                f"edges={self.num_edges})")
