"""The flat (columnar) form of a conditioned-trajectory graph.

The ct-graph (Section 4, Definition 4) is a levelled DAG: level ``tau``
holds the location nodes of timestep ``tau``; edges only connect
consecutive levels.  After Algorithm 1 finishes, source->target paths
correspond one-to-one to the valid trajectories, every non-target node's
outgoing probabilities form a distribution, and the probability of a path
— source probability times its edge probabilities — equals the
conditioned probability ``p*(t | Theta ∧ IC)`` of its trajectory.

A :class:`FlatCTGraph` is the one built representation of that DAG.  It
stores exactly what queries consume — interned location ids, per-level
``location``/``stay`` arrays, per-level CSR edge arrays and the
conditioned source distribution — without one Python object per node.
:class:`repro.queries.session.QuerySession`, which answers every query,
runs its DPs as index arithmetic over these tuples.

Every producer emits it: :func:`~repro.core.algorithm.build_ct_graph`
writes the columns straight from its backward sweep, and the builders
that still expand node by node (the streaming window, the beam baseline,
group conditioning) file plain :class:`CTNode` records level by level
and convert them once through :func:`flat_from_levels`.

The binary ``.ctg`` store (:mod:`repro.store`) serialises exactly these
columns, and :class:`repro.store.format.MappedCTGraph` serves them back
as zero-copy slices over one mmap behind the same duck surface —
consumers written against ``FlatCTGraph`` (``QuerySession``, the
kernels' ``GraphViews``, the exporters, the sampler) accept either
interchangeably.  The trajectory walks (:func:`trajectory_probability`,
:func:`paths`, :func:`num_valid_trajectories`) are module functions so
both forms share one implementation.

What the flat form deliberately drops: the ``departures`` (``TL``)
tuples and the parent lists — construction bookkeeping no query reads.

CSR layout, per edge level ``tau`` (levels ``0 .. duration - 2``)::

    edge_offsets[tau]        len(level tau) + 1 monotone ints
    edge_children[tau]       child indices, local to level tau + 1
    edge_probabilities[tau]  conditioned edge probabilities

The edges of node ``i`` of level ``tau`` are the slice
``edge_offsets[tau][i] : edge_offsets[tau][i + 1]`` of the two parallel
arrays (:func:`out_edges`), in edge insertion order.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Dict, Iterator, List, Optional,
                    Sequence, Tuple)

from repro.core.lsequence import Trajectory
from repro.core.nodes import Departures
from repro.errors import GraphInvariantError, QueryError

if TYPE_CHECKING:
    from repro.core.algorithm import CleaningStats

__all__ = ["CTNode", "FlatCTGraph", "flat_from_levels", "out_edges",
           "paths", "trajectory_probability", "num_valid_trajectories"]


class CTNode:
    """One location node ``(tau, location, stay, departures)`` filed by a
    node-by-node builder before :func:`flat_from_levels` converts its
    level.

    ``edges`` maps each successor node to its probability (insertion
    order is the CSR edge order); ``parents`` lists the predecessors.
    A plain mutable record — builders rewrite ``edges`` in their
    backward sweep.
    """

    __slots__ = ("tau", "location", "stay", "departures", "edges", "parents")

    def __init__(self, tau: int, location: str, stay: Optional[int],
                 departures: Departures) -> None:
        self.tau = tau
        self.location = location
        self.stay = stay
        self.departures = departures
        self.edges: Dict["CTNode", float] = {}
        self.parents: List["CTNode"] = []

    def __repr__(self) -> str:
        stay = "⊥" if self.stay is None else str(self.stay)
        return (f"CTNode(tau={self.tau}, loc={self.location!r}, stay={stay}, "
                f"tl={list(self.departures)}, out={len(self.edges)})")


@dataclass(frozen=True)
class FlatCTGraph:
    """A finished ct-graph as interned, columnar arrays (module docstring).

    Equality compares the full structure — names, levels, CSR arrays and
    source distribution — but not ``stats`` (timings never repeat), so two
    bit-identical cleanings compare equal however they were produced.
    The dataclass is frozen and all fields are plain tuples: instances
    pickle cheaply (the batch runtime ships them between processes) and
    are safe to share across threads.
    """

    #: Interned location names; array entries hold indices into this.
    location_names: Tuple[str, ...]
    #: Per level, the location id of every node.
    locations: Tuple[Tuple[int, ...], ...]
    #: Per level, every node's latency stay counter (``None`` = no bound).
    stays: Tuple[Tuple[Optional[int], ...], ...]
    #: Per edge level, the CSR row offsets (``len(level) + 1`` entries).
    edge_offsets: Tuple[Tuple[int, ...], ...]
    #: Per edge level, child indices local to the next level.
    edge_children: Tuple[Tuple[int, ...], ...]
    #: Per edge level, the conditioned edge probabilities.
    edge_probabilities: Tuple[Tuple[float, ...], ...]
    #: The conditioned source distribution (level-0 node order).
    source_probabilities: Tuple[float, ...]
    #: Construction counters, ``None`` for hand-built graphs.
    stats: Optional["CleaningStats"] = field(default=None, compare=False)

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def duration(self) -> int:
        """The number of timesteps (levels)."""
        return len(self.locations)

    def level_size(self, tau: int) -> int:
        """How many nodes level ``tau`` holds."""
        if not 0 <= tau < len(self.locations):
            raise QueryError(
                f"timestep {tau} outside [0, {len(self.locations)})")
        return len(self.locations[tau])

    @property
    def num_nodes(self) -> int:
        return sum(len(level) for level in self.locations)

    @property
    def num_edges(self) -> int:
        return sum(len(children) for children in self.edge_children)

    def location_name(self, lid: int) -> str:
        return self.location_names[lid]

    def locations_at(self, tau: int) -> Tuple[str, ...]:
        """Distinct locations present at timestep ``tau`` (sorted)."""
        if not 0 <= tau < len(self.locations):
            raise QueryError(
                f"timestep {tau} outside [0, {len(self.locations)})")
        names = self.location_names
        return tuple(sorted({names[lid] for lid in self.locations[tau]}))

    # ------------------------------------------------------------------
    # trajectories
    # ------------------------------------------------------------------
    def num_valid_trajectories(self) -> int:
        """How many source->target paths (= valid trajectories) exist."""
        return num_valid_trajectories(self)

    def paths(self) -> Iterator[Tuple[Trajectory, float]]:
        """Every valid trajectory with its conditioned probability."""
        return paths(self)

    def trajectory_probability(self, trajectory: Sequence[str]) -> float:
        """The conditioned probability of one trajectory (0 if invalid)."""
        return trajectory_probability(self, trajectory)

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def validate(self, tolerance: float = 1e-6) -> None:
        """Check the Definition 4 invariants on the flat arrays.

        Consistent array lengths, a normalised source distribution,
        normalised outgoing rows for every non-target node, in-range
        child indices.  Raises :class:`~repro.errors.GraphInvariantError`
        on the first violation; the checks are explicit ``raise``
        statements — not ``assert`` — so they still run under
        ``python -O``.
        """
        duration = self.duration
        if duration == 0:
            raise GraphInvariantError("a ct-graph needs at least one level")
        if not (len(self.stays) == duration
                and len(self.edge_offsets) == duration - 1
                and len(self.edge_children) == duration - 1
                and len(self.edge_probabilities) == duration - 1):
            raise GraphInvariantError("level array lengths disagree")
        if len(self.source_probabilities) != len(self.locations[0]):
            raise GraphInvariantError(
                "source distribution length disagrees with level 0")
        total = math.fsum(self.source_probabilities)
        if abs(total - 1.0) > tolerance:
            raise GraphInvariantError(
                f"source probabilities sum to {total}")
        for tau in range(duration):
            count = len(self.locations[tau])
            if len(self.stays[tau]) != count:
                raise GraphInvariantError(f"stay row {tau} length disagrees")
            for lid in self.locations[tau]:
                if not 0 <= lid < len(self.location_names):
                    raise GraphInvariantError(
                        f"level {tau} holds unknown location id {lid}")
            if tau == duration - 1:
                continue
            offsets = self.edge_offsets[tau]
            children = self.edge_children[tau]
            probabilities = self.edge_probabilities[tau]
            if len(offsets) != count + 1 or offsets[0] != 0 \
                    or offsets[-1] != len(children) \
                    or len(children) != len(probabilities):
                raise GraphInvariantError(f"CSR arrays of level {tau} "
                                          "are inconsistent")
            next_count = len(self.locations[tau + 1])
            for child in children:
                if not 0 <= child < next_count:
                    raise GraphInvariantError(
                        f"level {tau} edge points at child {child} outside "
                        f"level {tau + 1}")
            for i in range(count):
                start, end = offsets[i], offsets[i + 1]
                if end <= start:
                    raise GraphInvariantError(
                        f"non-target node {i} of level {tau} has no "
                        "successors")
                row_total = math.fsum(probabilities[start:end])
                if abs(row_total - 1.0) > tolerance:
                    raise GraphInvariantError(
                        f"outgoing probabilities of node {i} at level "
                        f"{tau} sum to {row_total}")

    def estimate_size_bytes(self) -> int:
        """A size estimate of the materialised graph (Section 6.7).

        Counts the tuples actually held (8 bytes per slot included in
        ``sys.getsizeof``) plus 24 bytes per boxed edge/source float.
        Small ints (location ids, most offsets) are interpreter-cached,
        so slots dominate their cost.  The absolute number is
        interpreter-specific; benchmarks only compare ratios.
        """
        total = sys.getsizeof(self.location_names)
        total += sum(sys.getsizeof(name) for name in self.location_names)
        for group in (self.locations, self.stays, self.edge_offsets,
                      self.edge_children, self.edge_probabilities):
            total += sys.getsizeof(group)
            total += sum(sys.getsizeof(row) for row in group)
        total += 24 * sum(len(row) for row in self.edge_probabilities)
        total += sys.getsizeof(self.source_probabilities)
        total += 24 * len(self.source_probabilities)
        return total

    def __repr__(self) -> str:
        return (f"FlatCTGraph(duration={self.duration}, "
                f"nodes={self.num_nodes}, edges={self.num_edges}, "
                f"locations={len(self.location_names)})")


def flat_from_levels(levels: Sequence[Sequence[Any]],
                     source_probabilities: Sequence[float],
                     stats: Optional["CleaningStats"] = None) -> FlatCTGraph:
    """A levelled node graph as a :class:`FlatCTGraph`.

    ``levels`` holds each level's nodes — objects with ``location``,
    ``stay`` and an ``edges`` dict mapping next-level nodes to their
    probabilities (:class:`CTNode`) — and ``source_probabilities`` the
    level-0 distribution in node order.  Location ids are interned in
    first-appearance order (level-major, node order) and every per-level
    array follows the node order and the edge insertion order — the
    same canonical order :func:`~repro.core.algorithm.build_ct_graph`
    emits.
    """
    location_ids: Dict[str, int] = {}
    names: List[str] = []
    locations: List[Tuple[int, ...]] = []
    stays: List[Tuple[Optional[int], ...]] = []
    for level in levels:
        row: List[int] = []
        for node in level:
            lid = location_ids.get(node.location)
            if lid is None:
                lid = location_ids[node.location] = len(names)
                names.append(node.location)
            row.append(lid)
        locations.append(tuple(row))
        stays.append(tuple(node.stay for node in level))
    edge_offsets: List[Tuple[int, ...]] = []
    edge_children: List[Tuple[int, ...]] = []
    edge_probabilities: List[Tuple[float, ...]] = []
    for tau in range(len(levels) - 1):
        index = {node: i for i, node in enumerate(levels[tau + 1])}
        offsets: List[int] = [0]
        children: List[int] = []
        probabilities: List[float] = []
        for node in levels[tau]:
            for child, probability in node.edges.items():
                children.append(index[child])
                probabilities.append(probability)
            offsets.append(len(children))
        edge_offsets.append(tuple(offsets))
        edge_children.append(tuple(children))
        edge_probabilities.append(tuple(probabilities))
    return FlatCTGraph(
        location_names=tuple(names),
        locations=tuple(locations),
        stays=tuple(stays),
        edge_offsets=tuple(edge_offsets),
        edge_children=tuple(edge_children),
        edge_probabilities=tuple(edge_probabilities),
        source_probabilities=tuple(source_probabilities),
        stats=stats)


# ----------------------------------------------------------------------
# walks shared by every flat-shaped graph (FlatCTGraph, MappedCTGraph)
# ----------------------------------------------------------------------
def out_edges(graph, tau: int, i: int) -> Tuple[Sequence[int],
                                                 Sequence[float]]:
    """The out-edges of node ``i`` of level ``tau``: its child indices
    (local to level ``tau + 1``) and conditioned probabilities, as two
    parallel slices in CSR order."""
    offsets = graph.edge_offsets[tau]
    start, end = offsets[i], offsets[i + 1]
    return (graph.edge_children[tau][start:end],
            graph.edge_probabilities[tau][start:end])


def num_valid_trajectories(graph) -> int:
    """How many source->target paths (= valid trajectories) exist."""
    counts = [1] * len(graph.locations[-1])
    for tau in range(graph.duration - 2, -1, -1):
        offsets = graph.edge_offsets[tau]
        children = graph.edge_children[tau]
        counts = [sum(counts[children[e]]
                      for e in range(offsets[i], offsets[i + 1]))
                  for i in range(len(graph.locations[tau]))]
    return sum(counts)


def paths(graph) -> Iterator[Tuple[Trajectory, float]]:
    """Every valid trajectory with its conditioned probability.

    Depth first — sources in level order, edges in CSR order — with the
    probability multiplied left to right from the source.  Exponential
    in general: meant for tests and small graphs.  The walk keeps an
    explicit stack, so long durations never hit the recursion limit.
    """
    names = graph.location_names
    last = graph.duration - 1
    lids = graph.locations[0]
    stack = [(0, i, (names[lids[i]],), float(graph.source_probabilities[i]))
             for i in reversed(range(len(lids)))]
    while stack:
        tau, node, prefix, probability = stack.pop()
        if tau == last:
            yield prefix, probability
            continue
        children, probabilities = out_edges(graph, tau, node)
        next_lids = graph.locations[tau + 1]
        for child, p in reversed(list(zip(children, probabilities))):
            stack.append((tau + 1, int(child),
                          prefix + (names[next_lids[child]],),
                          probability * float(p)))


def trajectory_probability(graph, trajectory: Sequence[str]) -> float:
    """The conditioned probability of one concrete location sequence.

    A forward pass that keeps only the nodes whose location matches the
    next element.  Several nodes of a level may match — they differ in
    stay state, or pair different states of a group's members — so the
    pass carries a weighted frontier rather than a single node.
    """
    if len(trajectory) != graph.duration:
        raise QueryError(
            f"trajectory has {len(trajectory)} steps, expected "
            f"{graph.duration}")
    ids = {name: lid for lid, name in enumerate(graph.location_names)}
    first = ids.get(trajectory[0])
    lids = graph.locations[0]
    mass = {i: float(graph.source_probabilities[i])
            for i in range(len(lids)) if lids[i] == first}
    for tau in range(graph.duration - 1):
        target = ids.get(trajectory[tau + 1])
        next_lids = graph.locations[tau + 1]
        step: Dict[int, float] = {}
        for i, amount in mass.items():
            children, probabilities = out_edges(graph, tau, i)
            for child, probability in zip(children, probabilities):
                if next_lids[child] == target:
                    step[child] = (step.get(child, 0.0)
                                   + amount * float(probability))
        mass = step
        if not mass:
            return 0.0
    return sum(mass.values(), 0.0)
