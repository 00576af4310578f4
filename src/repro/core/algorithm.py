"""Algorithm 1: building the conditioned-trajectory graph (Section 5).

The construction has two phases.

**Forward** — level by level, every node of timestep ``tau`` is expanded
with its successors among the prior-compatible locations of ``tau + 1``
(Definition 3 permitting).  Each created edge carries the a-priori
probability of its destination's ``(timestep, location)`` pair.  Prior mass
of next-step locations a node cannot legally reach is simply not covered by
its outgoing edges — it is the paper's initial ``loss``.

**Backward** — levels are swept from the last timestep down to the sources.
For every node ``n`` the sweep computes its *survival*::

    S(n) = sum over surviving edges (n, n') of  p_edge * S(n')

(targets have ``S = 1``).  ``S(n)`` is exactly ``1 - loss(n)`` of the
paper's queue-driven formulation: the fraction of the prior mass of ``n``'s
continuations that yields valid trajectories.  Nodes with ``S = 0`` are
deleted (they are the paper's ``loss = 1`` leaves and their ancestors-only-
of-dead-nodes); every surviving edge is conditioned to
``p_edge * S(n') / S(n)``, and finally source probabilities are conditioned
to ``p_prior(n) * S(n) / sum over sources``.

Two deliberate deviations from the printed pseudo-code, both pinned by the
property tests against the naive enumerator (DESIGN.md §3):

* the printed line 31 normalises ``p_N`` without first damping each source
  by its own survival ``1 - loss``; the damping is required for path
  probabilities to equal the conditioned trajectory probabilities (the
  paper's running example cannot tell the difference because a single
  source survives there);
* the backward pass propagates *relative* survivals, rescaled per level so
  that each level's maximum is 1, instead of the paper's absolute losses.
  The two are mathematically identical (conditioning only uses survival
  ratios within a node), but absolute survivals are products over the
  remaining duration and underflow float64 around a few hundred timesteps,
  silently turning every node into a ``loss = 1`` casualty.  The rescaled
  sweep is robust at any duration.

The implementation exploits the repetition of reader patterns along a
trajectory without changing a single bit of the output:

* **Interning** — locations and node states become small ints in an
  :class:`~repro.core.engine.EngineCache`.  States are stored in
  *relative* form ``(location, stay, ((age, location), ...))`` with
  ``age = tau - departure_time`` (see
  :func:`repro.core.nodes.relative_departures`): two nodes at different
  timesteps whose ``TL`` entries are equally old share one interned state.
* **Memoised transitions** — Definition 3's rules 3–6 compare departure
  times only through differences ``arrival - time``, so the successor
  row of a state under an ordered candidate support is a pure function
  of ``(state, support)``, except where the
  :class:`~repro.core.nodes.DepartureFilter` prunes ``TL`` entries by
  *absolute* support windows.  Those keep decisions are folded into a
  bitmask (:func:`repro.core.nodes.departure_keep_mask`) that widens the
  cache key, so rows stay exact.  A
  :class:`~repro.runtime.plan.SharedCleaningPlan` carries the cache
  across the objects of a batch.
* **Columnar sweep** — the forward phase records each level's edges as
  flat parallel arrays ``(parent index, child index, probability)`` in
  parent-major order; the backward survival sweep runs over arrays, and
  only the *surviving* nodes and edges are materialised, as ``CTNode``
  objects or straight into the columnar
  :class:`~repro.core.flatgraph.FlatCTGraph`.

Float arithmetic follows the direct node-by-node transcription exactly
(per-parent mass accumulated in edge order, ``weight / mass``
conditioning before the per-level rescale, ``math.fsum`` for the source
total); ``tests/reference_builder.py`` keeps that transcription as the
oracle the parity suites compare against bitwise.

Complexity: with ``S`` the number of node states per timestep and ``L`` the
per-timestep branching of the l-sequence, the forward phase performs
``O(duration * S * L)`` state expansions and the backward sweep touches
every edge exactly once — polynomial in the trajectory length, as the
paper claims.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.core import kernels
from repro.core.constraints import ConstraintSet
from repro.core.ctgraph import CTGraph, CTNode
from repro.core.engine import EngineCache, build_flat_numpy
from repro.core.flatgraph import FlatCTGraph
from repro.core.lsequence import LSequence, ReadingSequence
from repro.core.nodes import initial_stay
from repro.errors import ReadingSequenceError, ZeroMassError

__all__ = ["CleaningOptions", "CleaningStats", "build_ct_graph", "clean"]

#: Policies for stays cut short by the end of the monitoring window.
TRUNCATED_STAY_POLICIES = ("lenient", "strict")

#: Pre-flight static-analysis modes (see ``repro.analysis``).
PRECHECK_MODES = ("off", "warn", "error")

#: What :func:`build_ct_graph` materialises: ``CTNode`` objects
#: (``"nodes"``; ``"auto"`` currently resolves to the same), the
#: columnar :class:`~repro.core.flatgraph.FlatCTGraph` (``"flat"``), or
#: a ``.ctg`` file written straight from the flat arrays (``"store"``,
#: which requires ``output=`` and returns a zero-copy
#: :class:`~repro.store.format.MappedCTGraph` view of the file).
MATERIALIZE_MODES = ("auto", "nodes", "flat", "store")

#: The sweep backends (see :mod:`repro.core.kernels`): pure-python loops
#: (default, the parity oracle), optional numpy level kernels, or
#: ``"auto"``, resolved per build from the measured edges per level.
BACKENDS = kernels.BACKENDS


@dataclass(frozen=True)
class CleaningOptions:
    """Tunable semantics of the cleaning run.

    ``truncated_stay_policy`` — what to do with a latency-constrained stay
    that reaches the final timestep before meeting its bound: ``"lenient"``
    (default, the printed algorithm's behaviour) keeps it, ``"strict"``
    (Definition 2 read literally) discards it.

    ``precheck`` — whether to run the static constraint/map analyzer
    (``repro.analysis``) before the forward pass: ``"off"`` (default)
    skips it, ``"warn"`` emits a :class:`UserWarning` per ERROR diagnostic,
    ``"error"`` additionally refuses inputs whose pre-check *proves* the
    valid prior mass is zero (rule C005) by raising
    :class:`~repro.errors.ZeroMassError` up front — same outcome as
    running Algorithm 1, minus the cost of the doomed run.

    ``materialize`` — the shape of the returned graph: ``"nodes"``
    builds the :class:`~repro.core.ctgraph.CTGraph` object web (the
    historical behaviour), ``"flat"`` returns the columnar
    :class:`~repro.core.flatgraph.FlatCTGraph` instead — the build
    then never materialises ``CTNode`` objects at all, which is
    both faster and smaller when the caller only runs queries (through
    :class:`repro.queries.session.QuerySession`).  ``"store"`` goes one
    step further: the flat columns are written straight into the
    ``output=`` path as a ``rfid-ctg/ctg@1`` binary file (on the numpy
    route the sweep's ndarrays go to disk without ever becoming Python
    tuples) and the call returns a zero-copy
    :class:`~repro.store.format.MappedCTGraph` view of that file.
    ``"auto"`` (default) behaves like ``"nodes"``; it resolves to
    ``"store"`` when ``output=`` is given, and the batch runtime
    resolves it to ``"flat"`` when a
    :class:`~repro.runtime.plan.QueryPlan` discards graphs.  All shapes
    carry the same information for queries and are bit-identical with
    each other (``CTGraph.to_flat``, ``MappedCTGraph.materialize``); see
    ``docs/perf.md`` and ``docs/store.md``.

    ``output`` — the ``.ctg`` path ``materialize="store"`` writes;
    setting it with ``materialize="auto"`` selects ``"store"``
    implicitly, and any other explicit materialisation alongside
    ``output`` is a configuration error.

    ``backend`` — how the backward survival sweep and flat
    materialisation run: ``"python"`` (default) uses the pure-python
    loops, which remain the parity oracle; ``"numpy"`` runs the
    whole-level ndarray kernels of :mod:`repro.core.kernels` when numpy
    is importable (silently falling back otherwise); ``"auto"`` engages
    the kernels only when the forward phase measured at least the
    calibrated mean edges per level — the same rule
    :class:`~repro.queries.session.QuerySession` applies.  Kernel results
    are pinned to the oracle by the tolerance gate documented in
    ``docs/perf.md``: identical graph structure and tie-breaks, floats
    equal to 1e-12 relative.  The backend only affects flat-materialised
    builds (and :class:`~repro.queries.session.QuerySession` sweeps,
    which take their own ``backend`` argument); node-materialised builds
    always run in python.
    """

    truncated_stay_policy: str = "lenient"
    precheck: str = "off"
    materialize: str = "auto"
    backend: str = "python"
    output: Optional[str] = None

    def __post_init__(self) -> None:
        if self.truncated_stay_policy not in TRUNCATED_STAY_POLICIES:
            raise ReadingSequenceError(
                f"unknown truncated_stay_policy "
                f"{self.truncated_stay_policy!r}; "
                f"expected one of {TRUNCATED_STAY_POLICIES}")
        if self.precheck not in PRECHECK_MODES:
            raise ReadingSequenceError(
                f"unknown precheck mode {self.precheck!r}; "
                f"expected one of {PRECHECK_MODES}")
        if self.materialize not in MATERIALIZE_MODES:
            raise ReadingSequenceError(
                f"unknown materialize mode {self.materialize!r}; "
                f"expected one of {MATERIALIZE_MODES}")
        if self.backend not in BACKENDS:
            raise ReadingSequenceError(
                f"unknown backend {self.backend!r}; "
                f"expected one of {BACKENDS}")
        if self.output is not None and self.materialize == "auto":
            object.__setattr__(self, "materialize", "store")
        if self.materialize == "store" and self.output is None:
            raise ReadingSequenceError(
                "materialize='store' writes a .ctg file and needs "
                "output=... (the path to write)")
        if self.output is not None and self.materialize != "store":
            raise ReadingSequenceError(
                f"output= writes a .ctg file, which requires "
                f"materialize='store' (or 'auto'), "
                f"not {self.materialize!r}")

    @property
    def strict_truncation(self) -> bool:
        return self.truncated_stay_policy == "strict"

    @property
    def flat_materialize(self) -> bool:
        return self.materialize == "flat"

    @property
    def columnar_materialize(self) -> bool:
        """Flat-array materialisation — in memory (``"flat"``) or written
        straight to a ``.ctg`` file (``"store"``).  Both modes share the
        columnar build and skip ``CTNode`` construction entirely."""
        return self.materialize in ("flat", "store")

    @property
    def store_materialize(self) -> bool:
        return self.materialize == "store"


@dataclass
class CleaningStats:
    """Counters filled in by :func:`build_ct_graph` (attached to the graph)."""

    nodes_created: int = 0
    nodes_removed: int = 0
    edges_created: int = 0
    edges_removed: int = 0
    #: Wall-clock seconds of the forward expansion and of the backward
    #: survival sweep (conditioning and materialisation included), so
    #: wins are attributable per phase.  Excluded from equality — two
    #: identical cleanings never time identically.
    forward_seconds: float = field(default=0.0, compare=False)
    backward_seconds: float = field(default=0.0, compare=False)
    #: Wall-clock seconds of the backward survival sweep *proper* (edge
    #: weights, per-node masses, rescaled survivals — everything before
    #: materialisation starts), for both backends: this is the slice the
    #: optional numpy kernels replace, so ``benchmarks/bench_engine``'s
    #: ``kernel_speedup`` is the ratio of these.  ``backward_seconds``
    #: still covers sweep plus materialisation.
    sweep_seconds: float = field(default=0.0, compare=False)

    @property
    def nodes_kept(self) -> int:
        return self.nodes_created - self.nodes_removed

    @property
    def edges_kept(self) -> int:
        return self.edges_created - self.edges_removed


def build_ct_graph(lsequence: LSequence, constraints: ConstraintSet,
                   options: CleaningOptions = CleaningOptions(), *,
                   plan=None) -> Union[CTGraph, FlatCTGraph]:
    """Run Algorithm 1: the ct-graph of ``lsequence`` under ``constraints``.

    Raises :class:`InconsistentReadingsError` when no trajectory compatible
    with the l-sequence satisfies the constraints (conditioning undefined).
    The returned graph carries its :class:`CleaningStats` as ``graph.stats``.
    With ``CleaningOptions(materialize="flat")`` the result is the
    columnar :class:`~repro.core.flatgraph.FlatCTGraph` instead of the
    ``CTNode`` web — bit-identical to ``.to_flat()`` of the node graph.
    With ``materialize="store"`` (or ``output=...``) the columns are
    written to a ``.ctg`` file instead and the returned graph is a
    zero-copy :class:`~repro.store.format.MappedCTGraph` view of it.

    ``plan`` is an optional
    :class:`repro.runtime.SharedCleaningPlan` (or any object with the same
    ``constraints``/``engine_cache``/``precheck`` surface) holding
    precomputation shared across the many objects of a batch: the
    interned states and memoised transition rows, and a run-once analyzer
    pre-check.  Passing a plan never changes the result — only where the
    bookkeeping lives.  The plan must be built for this very constraint
    set.
    """
    if plan is not None:
        if plan.constraints != constraints:
            raise ReadingSequenceError(
                "the shared cleaning plan was built for a different "
                "constraint set")
        plan.precheck(lsequence, options)
        cache = plan.engine_cache()
        if cache.constraints != constraints:
            raise ReadingSequenceError(
                "the plan's engine cache was built for a different "
                "constraint set")
    else:
        if options.precheck != "off":
            _run_precheck(lsequence, constraints, options)
        cache = EngineCache(constraints)

    stats = CleaningStats()
    forward_started = time.perf_counter()
    duration = lsequence.duration
    last = duration - 1
    strict = options.strict_truncation

    location_id = cache.location_id
    states = cache._states
    names = cache._location_names
    rows = cache._rows

    # ------------------------------------------------------------------
    # initialisation: source states from the timestep-0 candidates
    # ------------------------------------------------------------------
    source_sids: List[int] = []
    prior_probabilities: List[float] = []
    for location in lsequence.support(0):
        stay = initial_stay(location, constraints)
        if strict and last == 0 and stay is not None:
            continue
        source_sids.append(cache.state_id((location_id(location), stay, ())))
        prior_probabilities.append(lsequence.probability(0, location))
        stats.nodes_created += 1
    if not source_sids:
        raise ZeroMassError(
            "no source location satisfies the constraints at timestep 0")

    # ------------------------------------------------------------------
    # forward phase: columnar levels, memoised successor rows
    # ------------------------------------------------------------------
    # The DepartureFilter keep test ``arrival <= alive_until(t, l)`` is
    # re-derived here as pure integer compares: the maxTravelingTime
    # horizon becomes ``age <= maxtt(l) - 2`` (tau cancels), and the
    # binding part becomes "some destination of ``l`` has prior support
    # inside the constraint window", answered by per-destination
    # next-support-at-or-after arrays.  ``alive_until`` caches by the
    # *absolute* departure timestep, which never repeats across levels,
    # so calling it from the hot loop would recompute every level.
    tt_sources = constraints.tt_sources
    use_filter = bool(tt_sources)
    tt_source_ids = frozenset(location_id(name) for name in tt_sources)
    horizon_age: Dict[int, int] = {}
    bindings: Dict[int, Tuple[Tuple[List[int], int], ...]] = {}
    if use_filter:
        support_times: Dict[str, List[int]] = {}
        for t in range(duration):
            for name in lsequence.candidates(t):
                support_times.setdefault(name, []).append(t)
        by_source: Dict[str, List[Tuple[str, int]]] = {}
        for (source, dest), steps in \
                constraints.traveling_time_bounds.items():
            by_source.setdefault(source, []).append((dest, steps))
        # Sentinel for "no support left": must exceed every binding
        # window ``departed_at + steps - 1`` (bounded by duration plus
        # the largest TT bound), or an empty lookup would pass the test.
        never = duration + max(
            constraints.traveling_time_bounds.values(), default=0) + 2
        for name in tt_sources:
            lid = location_id(name)
            horizon_age[lid] = constraints.max_traveling_time(name) - 2
            pairs: List[Tuple[List[int], int]] = []
            for dest, steps in by_source.get(name, ()):
                times = support_times.get(dest)
                if not times:
                    continue
                # next_support[t] = the earliest timestep >= t where
                # ``dest`` has prior support (``never`` when none left).
                next_support = [0] * (duration + 2)
                current = never
                j = len(times) - 1
                for t in range(duration + 1, -1, -1):
                    while j >= 0 and times[j] >= t:
                        current = times[j]
                        j -= 1
                    next_support[t] = current
                pairs.append((next_support, steps))
            bindings[lid] = tuple(pairs)
    level_sids: List[Tuple[int, ...]] = [tuple(source_sids)]
    # The run's edges live in two flat arrays shared by every level; level
    # ``tau`` owns the slice described by its (absolute) CSR offsets —
    # ``level_offsets[tau][i]:level_offsets[tau][i+1]`` are the edges of
    # the i-th frontier node, child indices *local to level tau + 1*, in
    # the insertion order the reference builder would use.
    all_children: List[int] = []
    all_probabilities: List[float] = []
    extend_children = all_children.extend
    extend_probabilities = all_probabilities.extend
    level_offsets: List[List[int]] = []
    # Per-level references to the cached expansion (children, support
    # positions, relative offsets — shared objects for memo-hit levels)
    # plus the level's candidate probabilities: the numpy backend keys
    # its one-time ndarray conversion on these identities, so periodic
    # workloads convert each *distinct* level shape once, not per level.
    level_refs: List[Tuple[List[int], List[int], List[int],
                           List[float]]] = []
    # Candidate-probability rows interned per (support, values) pair so
    # periodic workloads hand ``level_refs`` the *same* list object for
    # repeated levels — the identity key the numpy backend's one-time
    # gather cache relies on.
    probability_lists: Dict[Tuple[int, Tuple[float, ...]], List[float]] = {}
    compute_row = cache._compute_row
    row_get = rows.get
    support_names = cache._support_names
    level_rows = cache._levels
    level_get = level_rows.get
    frontier: Tuple[int, ...] = level_sids[0]
    for tau in range(duration - 1):
        candidates = lsequence.candidates(tau + 1)
        names_key = tuple(candidates)
        support_id = support_names.get(names_key)
        if support_id is None:
            support_id = cache.support_id(
                tuple([location_id(name) for name in names_key]))
            support_names[names_key] = support_id
        values = tuple(candidates.values())
        probability_key = (support_id, values)
        probabilities = probability_lists.get(probability_key)
        if probabilities is None:
            probabilities = list(values)
            probability_lists[probability_key] = probabilities
        filter_binding = strict and tau + 1 == last

        # Periodic workloads repeat whole frontiers, so the expansion of
        # the full level is memoised as one unit: with a departure filter
        # the per-node masks join the key (they capture all of the
        # filter's time-dependence); the strict last level bypasses the
        # memo (its rows are post-filtered).
        if use_filter:
            # Entry (age, l) survives to arrival tau + 1 iff the horizon
            # holds (age <= maxtt(l) - 2) and some destination of ``l``
            # has support in [tau + 2, departed_at + steps - 1] — the
            # exact ``arrival <= alive_until`` test, tau folded away.
            next_index = tau + 2
            window_base = tau - 1
            masks: List[int] = []
            append_mask = masks.append
            for sid in frontier:
                lid, _stay, rel_deps = states[sid]
                mask = 0
                bit = 1
                for age, dlid in rel_deps:
                    if age <= horizon_age[dlid]:
                        cutoff = window_base - age
                        for next_support, steps in bindings[dlid]:
                            if next_support[next_index] <= cutoff + steps:
                                mask |= bit
                                break
                    bit <<= 1
                if lid in tt_source_ids and horizon_age[lid] >= 0:
                    for next_support, steps in bindings[lid]:
                        if next_support[next_index] <= window_base + steps:
                            mask |= bit
                            break
                append_mask(mask)
            level_key = (frontier, support_id, tuple(masks))
        else:
            masks = []
            level_key = (frontier, support_id)
        cached_level = None if filter_binding else level_get(level_key)

        if cached_level is None:
            next_sids: List[int] = []
            next_index: Dict[int, int] = {}
            next_get = next_index.get
            relative_offsets: List[int] = [0]
            children: List[int] = []
            positions: List[int] = []
            append_offset = relative_offsets.append
            append_child = children.append
            append_position = positions.append
            for i, sid in enumerate(frontier):
                key = (sid, support_id, masks[i] if masks else 0)
                row = row_get(key)
                if row is None:
                    row = compute_row(sid, support_id, key[2])
                    rows[key] = row
                for pos, child_sid in row:
                    if filter_binding and states[child_sid][1] is not None:
                        continue
                    child_index = next_get(child_sid)
                    if child_index is None:
                        child_index = len(next_sids)
                        next_index[child_sid] = child_index
                        next_sids.append(child_sid)
                    append_child(child_index)
                    append_position(pos)
                append_offset(len(children))
            cached_level = (tuple(next_sids), relative_offsets,
                            children, positions)
            if not filter_binding:
                level_rows[level_key] = cached_level

        next_frontier, relative_offsets, children, positions = cached_level
        level_refs.append((children, positions, relative_offsets,
                           probabilities))
        stats.nodes_created += len(next_frontier)
        stats.edges_created += len(children)
        if not next_frontier:
            raise ZeroMassError(
                f"no trajectory can legally continue past timestep {tau}")
        level_sids.append(next_frontier)
        frontier = next_frontier

    # Kernel routing happens *here*, after the expansion loop, because
    # the backend only affects what follows (the backward sweep and the
    # materialisation) and the actual edge counts are now known — "auto"
    # resolves on the measured mean edges per level, not a prediction.
    # Only the flat path vectorises: the node path interleaves CTNode
    # construction with the sweep and always runs in python.
    route_numpy = options.columnar_materialize and kernels.resolve_backend(
        options.backend,
        stats.edges_created / last if last else 0.0) == "numpy"
    if not route_numpy:
        # The python sweep walks the run's edges through two flat arrays
        # with absolute CSR offsets; gathering them is forward-phase
        # materialisation work, skipped entirely on the numpy route
        # (whose kernels consume the per-level ``level_refs`` directly).
        for children, positions, relative_offsets, probabilities \
                in level_refs:
            base = len(all_children)
            extend_children(children)
            extend_probabilities([probabilities[pos] for pos in positions])
            level_offsets.append(
                [base + offset for offset in relative_offsets])

    # ------------------------------------------------------------------
    # backward phase: survival sweep over the flat edge arrays
    # ------------------------------------------------------------------
    backward_started = time.perf_counter()
    stats.forward_seconds = backward_started - forward_started
    if route_numpy:
        return build_flat_numpy(duration, level_sids, states, names,
                                level_refs, prior_probabilities,
                                stats, backward_started,
                                output=options.output)
    survivals: List[List[float]] = [[] for _ in range(duration)]
    survivals[last] = [1.0] * len(level_sids[last])
    level_masses: List[List[float]] = [[] for _ in range(max(0, last))]
    weights: List[float] = [0.0] * len(all_children)
    nodes_removed = 0
    edges_removed = 0
    for tau in range(last - 1, -1, -1):
        edge_offsets = level_offsets[tau]
        child_survival = survivals[tau + 1]
        count = len(level_sids[tau])
        mass_row = [0.0] * count
        survival_row = [0.0] * count
        level_max = 0.0
        removed = 0
        start = edge_offsets[0]
        if 0.0 not in child_survival:
            # Fast path — every child is alive, so every edge survives
            # and the per-parent mass is the plain sum of its weight
            # slice.  ``sum`` adds left to right exactly like the
            # reference's ``mass += weight`` loop (starting from 0 adds
            # nothing to the first float), so this is bit-identical.
            level_end = edge_offsets[count]
            weights[start:level_end] = [
                all_probabilities[e] * child_survival[all_children[e]]
                for e in range(start, level_end)]
            for i in range(count):
                end = edge_offsets[i + 1]
                mass = sum(weights[start:end])
                if mass <= 0.0:
                    edges_removed += end - start
                    removed += 1
                else:
                    mass_row[i] = mass
                    survival_row[i] = mass
                    if mass > level_max:
                        level_max = mass
                start = end
        else:
            for i in range(count):
                end = edge_offsets[i + 1]
                mass = 0.0
                alive_edges = 0
                for e in range(start, end):
                    survival = child_survival[all_children[e]]
                    if survival > 0.0:
                        # Per-parent mass accumulates in edge insertion
                        # order — the float-sum order the reference
                        # builder uses.
                        weight = all_probabilities[e] * survival
                        weights[e] = weight
                        mass += weight
                        alive_edges += 1
                if mass <= 0.0:
                    edges_removed += end - start
                    removed += 1
                else:
                    edges_removed += end - start - alive_edges
                    mass_row[i] = mass
                    survival_row[i] = mass
                    if mass > level_max:
                        level_max = mass
                start = end
        nodes_removed += removed
        if removed == count:
            stats.nodes_removed = nodes_removed
            stats.edges_removed = edges_removed
            raise ZeroMassError(
                "no trajectory compatible with the readings satisfies "
                "the constraints")
        # Rescale so the level's largest survival is 1 (underflow guard);
        # conditioning below divides by the *unrescaled* mass, exactly as
        # the reference does before its rescale.
        if level_max > 0.0:
            for i in range(count):
                if survival_row[i] > 0.0:
                    survival_row[i] /= level_max
        survivals[tau] = survival_row
        level_masses[tau] = mass_row
    stats.nodes_removed = nodes_removed
    stats.edges_removed = edges_removed
    stats.sweep_seconds = time.perf_counter() - backward_started

    if options.columnar_materialize:
        # ------------------------------------------------------------------
        # flat materialisation: the backward sweep's arrays become the
        # FlatCTGraph directly — no CTNode is ever created.  Interning,
        # node order, edge order and every conditioned float mirror the
        # node path + ``to_flat()`` exactly (pinned by the parity suite).
        # ------------------------------------------------------------------
        flat_ids: Dict[int, int] = {}
        flat_names: List[str] = []
        flat_locations: List[Tuple[int, ...]] = []
        flat_stays: List[Tuple[Optional[int], ...]] = []
        index_maps: List[List[int]] = []
        for tau in range(duration):
            sids = level_sids[tau]
            # A node is dead iff its *pre-rescale* mass was <= 0 — the
            # criterion the node path uses too.
            mass_row = level_masses[tau] if tau != last else None
            loc_row: List[int] = []
            stay_row: List[Optional[int]] = []
            index_map = [-1] * len(sids)
            for i, sid in enumerate(sids):
                if mass_row is not None and mass_row[i] <= 0.0:
                    continue
                lid, stay, _rel_deps = states[sid]
                fid = flat_ids.get(lid)
                if fid is None:
                    fid = len(flat_names)
                    flat_ids[lid] = fid
                    flat_names.append(names[lid])
                index_map[i] = len(loc_row)
                loc_row.append(fid)
                stay_row.append(stay)
            flat_locations.append(tuple(loc_row))
            flat_stays.append(tuple(stay_row))
            index_maps.append(index_map)
        flat_offsets: List[Tuple[int, ...]] = []
        flat_children: List[Tuple[int, ...]] = []
        flat_probabilities: List[Tuple[float, ...]] = []
        for tau in range(duration - 1):
            edge_offsets = level_offsets[tau]
            mass_row = level_masses[tau]
            child_map = index_maps[tau + 1]
            child_survival = survivals[tau + 1]
            offsets: List[int] = [0]
            children: List[int] = []
            probabilities: List[float] = []
            for i in range(len(level_sids[tau])):
                mass = mass_row[i]
                if mass <= 0.0:
                    continue
                for e in range(edge_offsets[i], edge_offsets[i + 1]):
                    child_index = all_children[e]
                    # An edge survives with its (alive) parent iff the
                    # child is alive, even when the conditioned weight
                    # underflows to 0.0.
                    if child_survival[child_index] > 0.0:
                        children.append(child_map[child_index])
                        probabilities.append(weights[e] / mass)
                offsets.append(len(children))
            flat_offsets.append(tuple(offsets))
            flat_children.append(tuple(children))
            flat_probabilities.append(tuple(probabilities))
        survival_row = survivals[0]
        source_row = [prior_probabilities[i] * survival_row[i]
                      for i in range(len(level_sids[0]))
                      if index_maps[0][i] >= 0]
        total = math.fsum(source_row)
        if total <= 0.0:
            raise ZeroMassError(
                "the valid trajectories have zero total prior probability")
        stats.backward_seconds = time.perf_counter() - backward_started
        flat = FlatCTGraph(
            location_names=tuple(flat_names),
            locations=tuple(flat_locations),
            stays=tuple(flat_stays),
            edge_offsets=tuple(flat_offsets),
            edge_children=tuple(flat_children),
            edge_probabilities=tuple(flat_probabilities),
            source_probabilities=tuple(p / total for p in source_row),
            stats=stats)
        if options.store_materialize:
            # The python backend still builds the tuples (they *are* its
            # sweep output); the store write + reload gives callers the
            # same mmap-view contract as the numpy direct-write route.
            from repro.store.format import load_ctg, save_ctg

            save_ctg(flat, options.output)
            return load_ctg(options.output, mmap=True)
        return flat

    # ------------------------------------------------------------------
    # materialisation: surviving nodes and edges, reference order
    # ------------------------------------------------------------------
    node_table: List[List[Optional[CTNode]]] = []
    for tau in range(duration):
        sids = level_sids[tau]
        row_nodes: List[Optional[CTNode]] = [None] * len(sids)
        # A node is dead iff its *pre-rescale* mass was <= 0 — the exact
        # criterion the reference uses to pop it (the rescaled survival
        # can in principle underflow to 0.0 on an alive node).
        mass = level_masses[tau] if tau != last else None
        for i, sid in enumerate(sids):
            if mass is not None and mass[i] <= 0.0:
                continue
            lid, stay, rel_deps = states[sid]
            if not rel_deps:
                row_nodes[i] = CTNode(tau, names[lid], stay, ())
            elif len(rel_deps) == 1:
                age, dlid = rel_deps[0]
                row_nodes[i] = CTNode(tau, names[lid], stay,
                                      ((tau - age, names[dlid]),))
            else:
                row_nodes[i] = CTNode(
                    tau, names[lid], stay,
                    tuple([(tau - age, names[dlid])
                           for age, dlid in rel_deps]))
        node_table.append(row_nodes)
    for tau in range(duration - 1):
        edge_offsets = level_offsets[tau]
        mass_row = level_masses[tau]
        parent_nodes = node_table[tau]
        child_nodes = node_table[tau + 1]
        child_survival = survivals[tau + 1]
        for i, parent in enumerate(parent_nodes):
            if parent is None:
                continue
            mass = mass_row[i]
            edges = parent.edges
            for e in range(edge_offsets[i], edge_offsets[i + 1]):
                child_index = all_children[e]
                # An edge survives with its (alive) parent iff the child
                # is alive — even when the conditioned weight underflows
                # to 0.0.
                if child_survival[child_index] > 0.0:
                    child = child_nodes[child_index]
                    edges[child] = weights[e] / mass
                    child.parents.append(parent)

    # ------------------------------------------------------------------
    # source conditioning (with the survival damping — DESIGN.md §3)
    # ------------------------------------------------------------------
    source_probabilities: Dict[CTNode, float] = {}
    survival_row = survivals[0]
    for i, node in enumerate(node_table[0]):
        if node is None:
            continue
        source_probabilities[node] = prior_probabilities[i] * survival_row[i]
    total = math.fsum(source_probabilities.values())
    if total <= 0.0:
        raise ZeroMassError(
            "the valid trajectories have zero total prior probability")
    for node in source_probabilities:
        source_probabilities[node] /= total

    stats.backward_seconds = time.perf_counter() - backward_started
    return CTGraph([tuple([node for node in row if node is not None])
                    for row in node_table],
                   source_probabilities, stats=stats)



def _run_precheck(lsequence: LSequence, constraints: ConstraintSet,
                  options: CleaningOptions) -> None:
    """The opt-in pre-flight hook: static analysis before the forward pass.

    Imported lazily so the core algorithm has no hard dependency on the
    analyzer.  ``"warn"`` surfaces every ERROR diagnostic as a
    :class:`UserWarning`; ``"error"`` additionally raises
    :class:`~repro.errors.ZeroMassError` when rule C005 *proves* the valid
    prior mass is zero (other ERROR diagnostics — e.g. a C001
    contradiction on a location the readings never touch — do not imply
    zero mass, so they only ever warn; the pre-check never rejects an
    input Algorithm 1 could clean).
    """
    import warnings

    from repro.analysis import ZERO_MASS_RULE, analyze

    report = analyze(constraints, readings=lsequence,
                     strict_truncation=options.strict_truncation)
    for diagnostic in report.errors:
        if options.precheck == "error" and diagnostic.code == ZERO_MASS_RULE:
            raise ZeroMassError(f"pre-check {diagnostic.code}: "
                                f"{diagnostic.message}")
        warnings.warn(f"pre-check {diagnostic.code}: {diagnostic.message}",
                      stacklevel=3)


def clean(readings: ReadingSequence, prior, constraints: ConstraintSet,
          options: CleaningOptions = CleaningOptions()
          ) -> Union[CTGraph, FlatCTGraph]:
    """End-to-end cleaning: readings -> l-sequence -> conditioned ct-graph.

    ``prior`` is anything with a ``distribution(readers)`` method, normally
    a :class:`repro.rfid.priors.PriorModel`.
    """
    lsequence = LSequence.from_readings(readings, prior)
    return build_ct_graph(lsequence, constraints, options)
