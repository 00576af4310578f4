"""The interned state behind Algorithm 1 and its numpy sweep.

:func:`~repro.core.algorithm.build_ct_graph` runs over small ints rather
than ``CTNode`` objects (see that module's docstring for the argument):

* :class:`EngineCache` interns locations, relative node states and
  ordered candidate supports, and memoises the successor row of every
  ``(state, support, departure-filter mask)`` key plus the expansion of
  every whole repeated level.  Rows depend on the constraint set only,
  so a :class:`~repro.runtime.plan.SharedCleaningPlan` carries one cache
  across the objects of a batch;
* :func:`build_flat_numpy` is the ``backend="numpy"`` half of the
  backward sweep and flat materialisation, as whole-level ndarray
  kernels.

Output is **bit-exact** with the node-by-node transcription of Algorithm
1 that ``tests/reference_builder.py`` keeps as the oracle: same nodes in
the same order, same edges in the same insertion order, identical
floating-point arithmetic.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional, Tuple

from repro.core import kernels
from repro.core.constraints import ConstraintSet
from repro.core.flatgraph import FlatCTGraph
from repro.core.nodes import _advance_stay, initial_stay
from repro.errors import ZeroMassError

__all__ = ["EngineCache", "build_flat_numpy"]

#: An interned node state in relative form:
#: ``(location id, stay, ((age, location id), ...))``.
RelState = Tuple[int, Optional[int], Tuple[Tuple[int, int], ...]]

#: A memoised successor row: per legal destination, its position in the
#: ordered candidate support and the interned state of the successor.
Row = Tuple[Tuple[int, int], ...]


class EngineCache:
    """Interning tables plus the memoised transition rows, per constraint set.

    The cache is keyed content: rows depend on the constraint set and on
    the interned ``(state, ordered support, departure-filter mask)`` triple
    only, never on the individual l-sequence — all of the filter's
    time-dependence is captured by the mask.  One cache therefore serves
    every object cleaned under the same constraints;
    :meth:`repro.runtime.plan.SharedCleaningPlan.engine_cache` hands one to
    each object of a batch.  Not thread-safe (plain dicts), like the plan.
    """

    __slots__ = ("constraints", "_location_ids", "_location_names",
                 "_state_ids", "_states", "_support_ids", "_supports",
                 "_support_names", "_du_rows", "_rows", "_levels")

    def __init__(self, constraints: ConstraintSet) -> None:
        self.constraints = constraints
        self._location_ids: Dict[str, int] = {}
        self._location_names: List[str] = []
        self._state_ids: Dict[RelState, int] = {}
        self._states: List[RelState] = []
        self._support_ids: Dict[Tuple[int, ...], int] = {}
        self._supports: List[Tuple[int, ...]] = []
        #: Fast path for the hot loop: ordered location-*name* tuples map
        #: straight to their interned support id (skips per-level
        #: name -> id translation on repeated reader patterns).
        self._support_names: Dict[Tuple[str, ...], int] = {}
        self._du_rows: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        self._rows: Dict[Tuple[int, int, int], Row] = {}
        #: Whole-level memo: periodic workloads repeat entire frontiers,
        #: so the expansion of a full ``(frontier, support[, masks])``
        #: level — next sids, CSR offsets, child indices and support
        #: positions — is cached as one unit.  Derived purely from
        #: :attr:`_rows` entries, hence exact wherever they are.
        self._levels: Dict[Tuple, Tuple] = {}

    # ------------------------------------------------------------------
    # interning
    # ------------------------------------------------------------------
    def location_id(self, name: str) -> int:
        lid = self._location_ids.get(name)
        if lid is None:
            lid = len(self._location_names)
            self._location_ids[name] = lid
            self._location_names.append(name)
        return lid

    def state_id(self, state: RelState) -> int:
        sid = self._state_ids.get(state)
        if sid is None:
            sid = len(self._states)
            self._state_ids[state] = sid
            self._states.append(state)
        return sid

    def support_id(self, support: Tuple[int, ...]) -> int:
        """Intern an *ordered* tuple of candidate location ids.

        Order matters: edge insertion order — and with it the float
        accumulation order of the backward sweep — follows the
        l-sequence's candidate order, so two supports with equal sets but
        different orders are deliberately distinct keys.
        """
        uid = self._support_ids.get(support)
        if uid is None:
            uid = len(self._supports)
            self._support_ids[support] = uid
            self._supports.append(support)
        return uid

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    @property
    def cached_transitions(self) -> int:
        """How many memoised ``(state, support, mask)`` rows exist."""
        return len(self._rows)

    @property
    def interned_states(self) -> int:
        return len(self._states)

    def __repr__(self) -> str:
        return (f"EngineCache(states={len(self._states)}, "
                f"rows={len(self._rows)})")

    # ------------------------------------------------------------------
    # the memoised transition relation
    # ------------------------------------------------------------------
    def _compute_row(self, sid: int, support_id: int, mask: int) -> Row:
        """Definition 3 rules 2–6 for one ``(state, support, mask)`` key.

        The mirror of ``_unchecked_successor`` in relative terms: rule 5
        reads ``arrival - time`` as ``age + 1``, and the rule-3/6 ``TL``
        keep decisions come from ``mask`` (bit ``k`` = entry ``k``
        survives; the bit past the last entry = record the new departure).
        When no :class:`DepartureFilter` exists the constraint set has no
        TT sources, every ``TL`` is empty and the mask is uniformly 0, so
        the mask-driven reading is exact in both regimes.  States produced
        here keep the canonical invariants of the reference builder: at
        most one entry per location, never the state's own location,
        sorted by ``(-age, location name)`` — the relative image of the
        absolute ``(time, location)`` order.
        """
        constraints = self.constraints
        names = self._location_names
        location_id, stay, rel_deps = self._states[sid]
        location = names[location_id]
        support = self._supports[support_id]

        du_key = (location_id, support_id)
        positions = self._du_rows.get(du_key)
        if positions is None:
            forbids = constraints.forbids_step
            positions = tuple(pos for pos, dest_id in enumerate(support)
                              if not forbids(location, names[dest_id]))
            self._du_rows[du_key] = positions

        traveling_time = constraints.traveling_time
        in_tt_sources = location in constraints.tt_sources
        new_departure = bool(mask >> len(rel_deps) & 1)
        row: List[Tuple[int, int]] = []
        for pos in positions:
            dest_id = support[pos]
            if dest_id == location_id:
                # Rule 3 — staying: bump the stay, age the departures.
                kept = tuple((age + 1, dlid)
                             for bit, (age, dlid) in enumerate(rel_deps)
                             if mask >> bit & 1)
                child = (location_id,
                         _advance_stay(stay, location, constraints), kept)
            else:
                # Rule 4 — leaving before the latency bound is met.
                if stay is not None:
                    continue
                # Rule 5 — traveling-time checks, including the implicit
                # departure of this very move (arrival - tau == 1).
                destination = names[dest_id]
                direct = traveling_time(location, destination)
                if direct is not None and direct > 1:
                    continue
                blocked = False
                for age, dlid in rel_deps:
                    steps = traveling_time(names[dlid], destination)
                    if steps is not None and age + 1 < steps:
                        blocked = True
                        break
                if blocked:
                    continue
                # Rule 6 — the successor's TL: surviving entries age by
                # one, entries about the destination itself are dropped,
                # and this move's own departure is recorded when it can
                # still matter (the mask's extra bit).
                entries = [(age + 1, dlid)
                           for bit, (age, dlid) in enumerate(rel_deps)
                           if dlid != dest_id and mask >> bit & 1]
                if in_tt_sources and new_departure:
                    entries.append((1, location_id))
                if len(entries) > 1:
                    entries.sort(key=lambda entry: (-entry[0],
                                                    names[entry[1]]))
                child = (dest_id, initial_stay(destination, constraints),
                         tuple(entries))
            row.append((pos, self.state_id(child)))
        return tuple(row)




def build_flat_numpy(duration: int, level_sids, states, names,
                     level_refs, prior_probabilities, stats,
                     backward_started: float,
                     output: Optional[str] = None):
    """The backward sweep + flat materialisation as whole-level kernels.

    With ``output`` set (``materialize="store"``), the kept edge columns
    are written to that ``.ctg`` path as ndarrays — no ``tolist()``, no
    tuples — and the return value is the
    :class:`~repro.store.format.MappedCTGraph` view of the file instead
    of an in-memory :class:`FlatCTGraph`.

    The numpy half of ``backend="numpy"``: each level's survival sweep
    is a gather + ``np.bincount`` segment sum and the surviving edges are
    materialised with one boolean mask per level instead of a per-edge
    python loop.  The int columns convert to ndarrays **once per
    distinct cached level** (keyed by object identity — the forward
    phase's whole-level memo hands repeated levels the same list
    objects), so on periodic workloads the conversion cost is a handful
    of levels, not the full duration.  Semantics mirror the python path
    statement for statement — same dead-node criterion (pre-rescale mass
    ``<= 0``), same kept-edge criterion (alive parent, alive child),
    same ``ZeroMassError`` messages, exact
    ``nodes_removed``/``edges_removed`` counters, and the source
    conditioning reuses the python-float ``math.fsum`` expression
    verbatim.  Floats are pinned to the python oracle by the tolerance
    gate of ``docs/perf.md`` (structure exact, values to 1e-12
    relative); in practice ``bincount`` accumulates in edge order like
    the reference loops, and the parity suite routinely observes
    bit-equality.
    """
    np = kernels.require_numpy()
    last = duration - 1
    arange = np.arange
    asarray = np.asarray
    converted: Dict[int, tuple] = {}
    gathered: Dict[Tuple[int, int], object] = {}

    def arrays_for(tau: int) -> tuple:
        children, positions, relative_offsets, probabilities = \
            level_refs[tau]
        # Identity is a safe key: the referenced lists are pinned by
        # ``level_refs`` (and the engine cache) for this whole build.
        entry = converted.get(id(children))
        if entry is None:
            offsets = asarray(relative_offsets, dtype=np.int64)
            entry = (asarray(children, dtype=np.int32),
                     asarray(positions, dtype=np.int32),
                     np.repeat(arange(len(offsets) - 1, dtype=np.int32),
                               np.diff(offsets)))
            converted[id(children)] = entry
        child_arr, position_arr, parent_arr = entry
        # The float column converts + gathers once per distinct
        # (structure, weights) pair too — list-to-ndarray conversion is
        # the single most expensive per-level op, and on periodic
        # workloads the memoised forward phase repeats both lists.
        key = (id(children), id(probabilities))
        probability_arr = gathered.get(key)
        if probability_arr is None:
            probability_arr = asarray(probabilities,
                                      dtype=np.float64)[position_arr]
            gathered[key] = probability_arr
        return child_arr, probability_arr, parent_arr

    # Per edge level: (children, weights, parents, mass, alive) — kept
    # for the materialisation stage below.
    level_arrays: List[Optional[tuple]] = [None] * max(0, last)
    survivals: List[Optional[object]] = [None] * duration
    survivals[last] = np.ones(len(level_sids[last]), dtype=np.float64)
    nodes_removed = 0
    edges_removed = 0
    for tau in range(last - 1, -1, -1):
        children, probabilities, parents = arrays_for(tau)
        count = len(level_sids[tau])
        child_survival = survivals[tau + 1]
        gathered_survival = child_survival[children]
        # Dead-child edges contribute exactly 0.0 here where the python
        # path skips them — identical sums, since x + 0.0 == x for the
        # nonnegative weights involved.
        weights = probabilities * gathered_survival
        mass = np.bincount(parents, weights=weights, minlength=count)
        alive = mass > 0.0
        removed = count - int(np.count_nonzero(alive))
        kept = int(np.count_nonzero((gathered_survival > 0.0)
                                    & alive[parents]))
        nodes_removed += removed
        edges_removed += len(children) - kept
        if removed == count:
            stats.nodes_removed = nodes_removed
            stats.edges_removed = edges_removed
            raise ZeroMassError(
                "no trajectory compatible with the readings satisfies "
                "the constraints")
        # Dead masses are exactly 0.0, so the all-entries max equals the
        # python path's alive-only max; conditioning divides by the
        # *unrescaled* mass below, exactly like the reference.
        survivals[tau] = np.where(alive, mass / mass.max(), 0.0)
        level_arrays[tau] = (children, weights, parents, mass, alive)
    stats.nodes_removed = nodes_removed
    stats.edges_removed = edges_removed
    stats.sweep_seconds = time.perf_counter() - backward_started

    # Node interning stays python (dict-driven first-encounter order, a
    # handful of ops per *surviving node*); the per-*edge* work below it
    # is where the volume lives and is fully vectorised.
    flat_ids: Dict[int, int] = {}
    flat_names: List[str] = []
    flat_locations: List[Tuple[int, ...]] = []
    flat_stays: List[Tuple[Optional[int], ...]] = []
    index_maps: List[List[int]] = []
    for tau in range(duration):
        sids = level_sids[tau]
        alive_row = (level_arrays[tau][4].tolist() if tau != last
                     else [True] * len(sids))
        loc_row: List[int] = []
        stay_row: List[Optional[int]] = []
        index_map = [-1] * len(sids)
        for i, sid in enumerate(sids):
            if not alive_row[i]:
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

    kept_offset_arrays: List[object] = []
    kept_child_arrays: List[object] = []
    kept_probability_arrays: List[object] = []
    for tau in range(last):
        children, weights, parents, mass, alive = level_arrays[tau]
        child_survival = survivals[tau + 1]
        # An edge survives iff its parent and child are both alive, even
        # when the conditioned weight underflows to 0.0; the keep mask
        # preserves global edge order, so the kept columns come out in
        # the reference's (parent, insertion) order.
        keep = (child_survival[children] > 0.0) & alive[parents]
        kept_parents = parents[keep]
        child_map = np.asarray(index_maps[tau + 1], dtype=np.int64)
        kept_children = child_map[children[keep]]
        kept_probabilities = weights[keep] / mass[kept_parents]
        counts = np.bincount(kept_parents, minlength=len(mass))[alive]
        offsets = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        kept_offset_arrays.append(offsets)
        kept_child_arrays.append(kept_children)
        kept_probability_arrays.append(kept_probabilities)

    # Source conditioning in python floats, verbatim from the python
    # path — ``.tolist()`` round-trips float64 exactly.
    survival_row = survivals[0].tolist()
    index_map = index_maps[0]
    source_row = [prior_probabilities[i] * survival_row[i]
                  for i in range(len(level_sids[0]))
                  if index_map[i] >= 0]
    total = math.fsum(source_row)
    if total <= 0.0:
        raise ZeroMassError(
            "the valid trajectories have zero total prior probability")
    stats.backward_seconds = time.perf_counter() - backward_started
    if output is not None:
        # The store route: the per-level ndarrays stream straight into
        # the .ctg section layout (the writer narrows them to the
        # little-endian int32/float64 on-disk dtypes) — no edge column is
        # ever boxed into Python tuples, which is the whole build-side
        # win of ``materialize="store"``.  The returned view mmaps the
        # freshly written file, so downstream QuerySessions read the
        # same bytes a later cold load would.
        from repro.store.format import load_ctg, write_ctg

        write_ctg(output,
                  location_names=flat_names,
                  locations=flat_locations,
                  stays=flat_stays,
                  edge_offsets=kept_offset_arrays,
                  edge_children=kept_child_arrays,
                  edge_probabilities=kept_probability_arrays,
                  source_probabilities=[p / total for p in source_row],
                  stats=stats)
        return load_ctg(output, mmap=True)
    return FlatCTGraph(
        location_names=tuple(flat_names),
        locations=tuple(flat_locations),
        stays=tuple(flat_stays),
        edge_offsets=tuple(tuple(offsets.tolist())
                           for offsets in kept_offset_arrays),
        edge_children=tuple(tuple(children.tolist())
                            for children in kept_child_arrays),
        edge_probabilities=tuple(tuple(probabilities.tolist())
                                 for probabilities in kept_probability_arrays),
        source_probabilities=tuple(p / total for p in source_row),
        stats=stats)
