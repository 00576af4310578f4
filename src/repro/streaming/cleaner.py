"""The bounded-memory streaming cleaner (see the package docstring).

Correctness rests on the Markov property of the node state
``(location, stay, TL)``: validity and probability of any continuation
depend on the past only through the forward frontier.  The cleaner
therefore keeps just the last ``window`` levels, each as the pair
``(candidate row, forward frontier after that row)``:

* the *last* retained frontier is the live filtered estimate —
  literally the same dict the unbounded
  :class:`~repro.core.incremental.IncrementalCleaner` would hold,
  because both advance it through the shared
  :func:`~repro.core.incremental.advance_frontier`;
* the *first* retained frontier is the exact compact summary of every
  evicted level: its per-state forward mass is the collapsed prefix
  probability of entering the window in that state, which is all
  :meth:`StreamingCleaner.finalize` needs to condition the retained
  window (the window graph's source prior).

Eviction is therefore free — ``popleft()`` on the level deque — and
exact.  What is *lost* is only the ability to answer queries about
evicted timesteps; ``finalize()`` covers the retained window.

Checkpointing serialises the rows, frontiers, and session meta through
:func:`repro.store.format.write_stream_checkpoint` (raw float64, dict
orders preserved), which is what makes a resumed session bit-identical
to an uninterrupted one — pinned by the hypothesis suite in
``tests/test_streaming.py``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import asdict
from typing import Deque, Dict, List, Mapping, Optional, Tuple

from repro.core.algorithm import (
    CleaningOptions,
    CleaningStats,
    build_ct_graph,
)
from repro.core.constraints import ConstraintSet
from repro.core.ctgraph import CTGraph, CTNode
from repro.core.incremental import (
    FinalizedGraph,
    Frontier,
    advance_frontier_routed,
    coerce_candidate_row,
    frontier_to_dict,
    resolve_finalize_options,
)
from repro.core.lsequence import LSequence
from repro.core.nodes import (
    NodeState,
    state_departures,
    state_location,
    state_stay,
    successor_state,
)
from repro.errors import (
    InconsistentReadingsError,
    ReadingSequenceError,
    ReproError,
    StoreFormatError,
    ZeroMassError,
)

__all__ = ["StreamingCleaner", "DEFAULT_WINDOW"]

#: Default retained-window length (timesteps); matches the bounded-memory
#: gate in ``benchmarks/bench_streaming.py``.
DEFAULT_WINDOW = 64

#: One retained level: the candidate row of that timestep and the forward
#: frontier *after* ingesting it — dict form under the python backend, a
#: :class:`~repro.core.kernels.KernelFrontier` under the numpy backend
#: (checkpoints materialise either form to the same dict layout).
_Level = Tuple[Dict[str, float], Frontier]


class StreamingCleaner:
    """Ingest readings indefinitely in O(window) memory.

    The API mirrors :class:`~repro.core.incremental.IncrementalCleaner`
    (``extend`` / ``extend_reading`` / ``filtered_distribution`` /
    ``lsequence`` / ``finalize``) with three differences:

    * memory is bounded — levels older than ``window`` timesteps are
      evicted into the exact entry summary (see the module docstring),
      so :meth:`lsequence` and :meth:`finalize` cover the *retained
      window* ``[base, duration)`` only;
    * :meth:`checkpoint` / :meth:`resume` persist and restore the whole
      session bit-exactly through the ``rfid-ctg/ckpt@1`` format;
    * with evicted prefix levels (``base > 0``) :meth:`finalize` builds
      the window graph with its own node-by-node construction —
      ``options.backend`` applies only while the session still covers
      the full stream (``base == 0``, where the call delegates to
      :func:`~repro.core.algorithm.build_ct_graph`).
    """

    def __init__(self, constraints: ConstraintSet, *,
                 window: int = DEFAULT_WINDOW,
                 options: CleaningOptions = CleaningOptions(),
                 prior=None, frontier_kernel=None) -> None:
        if not isinstance(window, int) or window < 1:
            raise ReadingSequenceError(
                f"window must be a positive integer, got {window!r}")
        self.constraints = constraints
        self.options = options
        self.prior = prior
        self.window = window
        self._levels: Deque[_Level] = deque()
        self._base = 0
        self._duration = 0
        self._output_consumed = False
        # Transition-table cache of the numpy frontier backend; a
        # StreamSessionManager passes one shared FrontierKernel to every
        # session so tables compiled for one object serve the whole
        # fleet.  Created lazily if the numpy path engages without one.
        self._kernel = frontier_kernel

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def duration(self) -> int:
        """Total timesteps ingested over the session's whole lifetime."""
        return self._duration

    @property
    def base(self) -> int:
        """The first *retained* timestep (== how many levels were evicted)."""
        return self._base

    @property
    def retained_duration(self) -> int:
        """How many levels are held in memory (``duration - base``)."""
        return len(self._levels)

    def frontier_size(self) -> int:
        """How many node states the live frontier carries."""
        return len(self._frontier())

    def _frontier(self) -> Frontier:
        return self._levels[-1][1] if self._levels else {}

    # ------------------------------------------------------------------
    # ingest
    # ------------------------------------------------------------------
    def extend_reading(self, readers) -> None:
        """Append one raw reading (requires a ``prior`` at construction)."""
        if self.prior is None:
            raise ReadingSequenceError(
                "extend_reading needs a prior model; pass prior= to the "
                "constructor or use extend() with a distribution")
        self.extend(self.prior.distribution(readers))

    def extend(self, candidates: Mapping[str, float]) -> None:
        """Append one timestep's location distribution and advance.

        Same contract as
        :meth:`~repro.core.incremental.IncrementalCleaner.extend` — the
        shared :func:`~repro.core.incremental.advance_frontier` makes
        the two cleaners' filtered estimates bit-identical.  When the
        retained window would exceed ``window`` levels, the oldest one
        is evicted; its forward mass already lives on in the next
        level's frontier, so nothing is recomputed.
        """
        row = coerce_candidate_row(candidates, self._duration)
        frontier, self._kernel = advance_frontier_routed(
            self._frontier(), row, self._duration, self.constraints,
            backend=self.options.backend, kernel=self._kernel)
        if not frontier:
            raise InconsistentReadingsError(
                f"no valid continuation at timestep {self._duration}")
        self._levels.append((row, frontier))
        self._duration += 1
        if len(self._levels) > self.window:
            self._levels.popleft()
            self._base += 1

    # ------------------------------------------------------------------
    # live estimates
    # ------------------------------------------------------------------
    def filtered_distribution(self) -> Dict[str, float]:
        """``P(X_now | readings so far, prefix validity)`` — the live estimate."""
        if not self._levels:
            raise ReadingSequenceError("no readings ingested yet")
        frontier = self._frontier()
        if isinstance(frontier, dict):
            raw: Dict[str, float] = {}
            for state, mass in frontier.items():
                location = state_location(state)
                raw[location] = raw.get(location, 0.0) + mass
        else:
            raw = frontier.location_masses()
        total = math.fsum(raw.values())
        return {location: mass / total for location, mass in raw.items()}

    def lsequence(self) -> LSequence:
        """The *retained-window* l-sequence (an independent copy).

        Covers timesteps ``[base, duration)``; evicted rows are gone by
        design.  Mutating the returned object never affects the cleaner.
        """
        if not self._levels:
            raise ReadingSequenceError("no readings ingested yet")
        return LSequence([dict(row) for row, _ in self._levels],
                         _validate=False)

    # ------------------------------------------------------------------
    # window conditioning
    # ------------------------------------------------------------------
    def finalize(self, *, output: Optional[str] = None) -> FinalizedGraph:
        """Condition the retained window and return its ct-graph.

        While nothing has been evicted (``base == 0``) this is exactly
        :meth:`IncrementalCleaner.finalize` — the full batch algorithm
        on the whole stream, same options, same output-path contract.
        With an evicted prefix the graph covers timesteps
        ``[base, duration)``, relabelled ``0..retained_duration - 1``:
        its sources are the entry frontier's node states weighted by
        their collapsed prefix mass, so every marginal and trajectory
        probability over the window equals what the full-stream graph
        would answer (the Markov property; pinned against the unbounded
        reference by the tests).  ``TL`` departure times inside the
        graph are rebased to the same relative labelling (entries about
        evicted timesteps go negative).  The cleaner's state is
        untouched — ingesting and finalizing may interleave freely.
        """
        if not self._levels:
            raise ReadingSequenceError("no readings ingested yet")
        options, consumed = resolve_finalize_options(
            self.options, output, self._output_consumed)
        if self._base == 0:
            graph = build_ct_graph(self.lsequence(), self.constraints,
                                   options)
        else:
            graph = self._window_graph(options)
        if consumed:
            self._output_consumed = True
        return graph

    def _window_graph(self, options: CleaningOptions) -> FinalizedGraph:
        """Algorithm 1's backward conditioning over the retained window.

        Mirrors Algorithm 1 as :mod:`repro.core.algorithm` documents it
        (same sweep, same per-level rescaling, same source damping) with
        two differences dictated by the streaming setting: sources are
        the entry frontier's states with their stored forward mass as
        the prior, and the exact ``TL`` pruning
        (:class:`~repro.core.nodes.DepartureFilter`) is not applied —
        it needs future support, which a live window does not have.
        Extra unpruned states never change probabilities (module docs of
        :mod:`repro.core.incremental`).
        """
        base = self._base
        rows = [row for row, _ in self._levels]
        entry = frontier_to_dict(self._levels[0][1])
        count = len(rows)
        last = count - 1

        def rebased(state: NodeState) -> Tuple:
            departures = tuple((time - base, location) for time, location
                               in state_departures(state))
            return (state_location(state), state_stay(state), departures)

        stats = CleaningStats()
        levels: List[Dict[NodeState, CTNode]] = [{} for _ in range(count)]
        prior_source_probability: Dict[CTNode, float] = {}
        for state, mass in entry.items():
            if options.strict_truncation and last == 0 \
                    and state_stay(state) is not None:
                continue
            node = CTNode(0, *rebased(state))
            levels[0][state] = node
            prior_source_probability[node] = mass
            stats.nodes_created += 1
        if not levels[0]:
            raise ZeroMassError(
                "no entry state of the retained window satisfies the "
                "constraints")

        # Forward: expand absolute node states level by level; the node
        # objects carry the window-relative labelling.
        for index in range(count - 1):
            frontier = levels[index]
            next_level = levels[index + 1]
            candidates = rows[index + 1]
            filter_binding = options.strict_truncation and index + 1 == last
            tau = base + index
            for state, node in frontier.items():
                for destination, probability in candidates.items():
                    successor = successor_state(tau, state, destination,
                                                self.constraints)
                    if successor is None:
                        continue
                    if filter_binding and state_stay(successor) is not None:
                        continue
                    child = next_level.get(successor)
                    if child is None:
                        child = CTNode(index + 1, *rebased(successor))
                        next_level[successor] = child
                        stats.nodes_created += 1
                    node.edges[child] = probability
                    child.parents.append(node)
                    stats.edges_created += 1
            if not next_level:
                raise ZeroMassError(
                    f"no trajectory can legally continue past timestep "
                    f"{tau}")

        # Backward: the survival sweep with per-level rescaling, exactly
        # as in repro.core.algorithm.build_ct_graph.
        survival: Dict[CTNode, float] = {
            node: 1.0 for node in levels[last].values()}
        for index in range(last - 1, -1, -1):
            level = levels[index]
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
            if level_max > 0.0:
                for node in level.values():
                    survival[node] /= level_max
        for index in range(1, count):
            for node in levels[index].values():
                node.parents = [parent for parent in node.parents
                                if parent.edges]

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

        graph = CTGraph([tuple(level.values()) for level in levels],
                        source_probabilities, stats=stats)
        if options.columnar_materialize:
            flat = graph.to_flat()
            if options.store_materialize:
                from repro.store.format import load_ctg, save_ctg

                save_ctg(flat, options.output)
                return load_ctg(options.output, mmap=True)
            return flat
        return graph

    # ------------------------------------------------------------------
    # checkpoint / resume
    # ------------------------------------------------------------------
    def checkpoint(self, path, *, extra_meta: Optional[Dict] = None) -> int:
        """Persist the whole session to ``path``; returns bytes written.

        The write is atomic (tmp + ``os.replace``) and carries a CRC —
        see :func:`repro.store.format.write_stream_checkpoint`.  The
        meta section records window, base, duration, the cleaning
        options and the constraint set, so :meth:`resume` needs nothing
        but the file (the ``prior`` is the one runtime object that
        cannot be serialised and must be supplied again).
        ``extra_meta`` entries (e.g. an object id) ride along verbatim
        under keys that must not collide with the session's own.
        """
        from repro.io.jsonio import constraints_to_dicts
        from repro.store.format import write_stream_checkpoint

        ids: Dict[str, int] = {}

        def intern(name: str) -> int:
            lid = ids.get(name)
            if lid is None:
                lid = ids[name] = len(ids)
            return lid

        rows = []
        frontiers = []
        for row, frontier in self._levels:
            rows.append([(intern(location), probability)
                         for location, probability in row.items()])
            frontiers.append([
                (intern(state_location(state)), state_stay(state),
                 tuple((time, intern(location)) for time, location
                       in state_departures(state)), mass)
                for state, mass in frontier_to_dict(frontier).items()])
        meta = {
            "window": self.window,
            "base": self._base,
            "duration": self._duration,
            "output_consumed": self._output_consumed,
            "options": asdict(self.options),
            "constraints": constraints_to_dicts(self.constraints),
        }
        if extra_meta:
            collisions = sorted(set(extra_meta) & set(meta))
            if collisions:
                raise ReadingSequenceError(
                    f"extra_meta keys {collisions} collide with the "
                    "checkpoint's own meta")
            meta.update(extra_meta)
        return write_stream_checkpoint(
            path, meta=meta, location_names=list(ids),
            rows=rows, frontiers=frontiers)

    @classmethod
    def resume(cls, path, *, prior=None,
               frontier_kernel=None) -> "StreamingCleaner":
        """Rebuild a session from a :meth:`checkpoint` file.

        The restored cleaner is bit-identical to the one that wrote the
        checkpoint: same rows, frontiers, dict orders and float bits, so
        continuing the stream gives exactly the uninterrupted results.
        Frontiers resume in dict form regardless of the backend that
        wrote them; the kernel backend re-adopts the live frontier on the
        next :meth:`extend` (``frontier_kernel`` seeds its table cache,
        e.g. a fleet's shared one).  Raises
        :class:`~repro.errors.StoreFormatError` /
        :class:`~repro.errors.StoreChecksumError` on a damaged file,
        including meta whose options or constraints do not validate.
        Checkpoints written while :class:`CleaningOptions` still had an
        ``engine`` field carry it in their options; it selected between
        bit-identical builds, so it is dropped and they resume exactly.
        """
        from repro.io.jsonio import constraints_from_dicts
        from repro.store.format import read_stream_checkpoint

        payload = read_stream_checkpoint(path)
        meta = payload.meta
        try:
            window = meta["window"]
            base = meta["base"]
            duration = meta["duration"]
            output_consumed = meta["output_consumed"]
            fields = dict(meta["options"])
            fields.pop("engine", None)
            options = CleaningOptions(**fields)
            constraints = constraints_from_dicts(meta["constraints"])
        except (KeyError, TypeError, ValueError, ReproError) as error:
            raise StoreFormatError(
                f"{path}: checkpoint meta is missing or malformed "
                f"({error})") from None
        cleaner = cls(constraints, window=window, options=options,
                      prior=prior, frontier_kernel=frontier_kernel)
        names = payload.location_names
        levels: List[_Level] = []
        for row_pairs, frontier_states in zip(payload.rows,
                                              payload.frontiers):
            row = {names[lid]: probability
                   for lid, probability in row_pairs}
            frontier: Dict[NodeState, float] = {}
            for lid, stay, departures, mass in frontier_states:
                state = (names[lid], stay,
                         tuple((time, names[departed])
                               for time, departed in departures))
                frontier[state] = mass
            levels.append((row, frontier))
        if duration - base != len(levels) or len(levels) > window:
            raise StoreFormatError(
                f"{path}: checkpoint meta is inconsistent with its levels "
                f"(base={base}, duration={duration}, "
                f"{len(levels)} levels, window={window})")
        cleaner._restore(levels, base=base, duration=duration,
                         output_consumed=output_consumed)
        return cleaner

    def _restore(self, levels: List[_Level], *, base: int, duration: int,
                 output_consumed: bool) -> None:
        """Adopt checkpointed state (the tail of :meth:`resume`)."""
        self._levels = deque(levels)
        self._base = base
        self._duration = duration
        self._output_consumed = output_consumed
