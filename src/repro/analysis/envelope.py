"""Abstract interpretation of Definition 3: the constraint envelope.

The forward pass of Algorithm 1 enumerates concrete node states
``(l, delta, TL)`` level by level.  Everything that makes a state *legal*
is decided by the constraints and the per-level supports — not by the
probabilities — so the same transfer rules can be run over an *abstract*
domain that collapses each ``(level, location)`` group of states into one
:class:`AbstractState`:

* the stay counter ``delta`` becomes ``stay_none_possible`` (some covered
  state has a met/absent latency bound) plus a closed interval
  ``[stay_lo, stay_hi]`` of possible binding counters;
* the departure list ``TL`` becomes, per traveling-time source, a
  :class:`DepartureInterval` — ``absent_possible`` (some covered state
  carries no entry for that source) plus the interval
  ``[earliest, latest]`` of possible departure timesteps.  A source with
  no recorded interval is *definitely absent* from every covered state.

The transfer function mirrors ``repro.core.nodes._unchecked_successor``
rule for rule, but evaluates each drop test at the *favourable* end of the
interval and joins branches with boolean ORs and interval hulls.  Both
directions are conservative, which gives the two guarantees the rules
C007-C010 rely on:

* **coverage** — every concrete forward state is covered by the envelope
  cell at its ``(level, location)``, so :meth:`ConstraintEnvelope.\
width_bounds` is a sound per-level upper bound on ct-graph width (C007),
  pointwise at most C006's support-product bound;
* **emptiness** — an empty envelope level admits no concrete state at
  all, so Algorithm 1 must raise :class:`~repro.errors.ZeroMassError`
  (C009).  The converse need not hold: C005's exact forward pass remains
  the complete test.

The byte cost model shared by C006/C010 also lives here: approximate
CPython-on-64-bit constants mirroring ``FlatCTGraph.estimate_size_bytes``
(indicative, like that estimator) and the exact column widths of the
``.ctg`` format.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.constraints import ConstraintSet
from repro.core.lsequence import LSequence
from repro.core.nodes import DepartureFilter, initial_stay

__all__ = [
    "AbstractState",
    "ConstraintEnvelope",
    "CTG_BYTES_PER_EDGE",
    "CTG_BYTES_PER_NODE",
    "CTG_FIXED_BYTES",
    "DepartureInterval",
    "FLAT_BYTES_PER_EDGE",
    "FLAT_BYTES_PER_NODE",
    "estimate_ctg_bytes",
    "estimate_graph_bytes",
]

#: Approximate bytes per node in ``FlatCTGraph`` form (interned ids in
#: shared tuples), mirroring ``FlatCTGraph.estimate_size_bytes``.
FLAT_BYTES_PER_NODE = 18
#: Approximate bytes per flat edge (CSR child + offset share + boxed
#: probability).
FLAT_BYTES_PER_EDGE = 48


#: Exact bytes per node in the on-disk ``rfid-ctg/ctg@1`` format:
#: location id (i32) + stay (i32) + one CSR offset slot (i32), plus an
#: amortised share of the level-0 source row and section padding.
CTG_BYTES_PER_NODE = 16
#: Exact bytes per on-disk edge: child index (i32) + probability (f64).
CTG_BYTES_PER_EDGE = 12
#: Fixed ``.ctg`` overhead: 64-byte header plus a generous allowance for
#: the interned-name table, the optional stats blob and 8-byte alignment.
CTG_FIXED_BYTES = 512


def estimate_graph_bytes(node_counts: Sequence[int],
                         edge_counts: Sequence[int]) -> int:
    """Estimated in-memory bytes of a ``FlatCTGraph`` of that shape."""
    return (FLAT_BYTES_PER_NODE * sum(node_counts)
            + FLAT_BYTES_PER_EDGE * sum(edge_counts))


def estimate_ctg_bytes(node_counts: Sequence[int],
                       edge_counts: Sequence[int]) -> int:
    """Estimated on-disk size of the graph as a ``.ctg`` file.

    Unlike the in-memory estimates this one is close to exact — the
    format stores fixed-width little-endian columns, so the only slack is
    the per-section alignment and the interned-name table (folded into
    :data:`CTG_FIXED_BYTES` and the section-table term).
    """
    nodes = sum(node_counts)
    edges = sum(edge_counts)
    duration = len(node_counts)
    # Section table: ("loc","stay") per level, ("off","child","prob") per
    # edge level, one source row — 16 bytes of (offset, count) each.
    sections = 2 * duration + 3 * max(0, duration - 1) + 1
    return (CTG_FIXED_BYTES + 16 * sections
            + CTG_BYTES_PER_NODE * nodes + CTG_BYTES_PER_EDGE * edges)


@dataclass(frozen=True)
class DepartureInterval:
    """Abstract value of one ``TL`` entry for a fixed source location."""

    #: Some covered state carries no entry for this source.
    absent_possible: bool
    #: Earliest possible departure timestep among covered states.
    earliest: int
    #: Latest possible departure timestep among covered states.
    latest: int

    @property
    def present_possible(self) -> bool:
        """Some covered state carries an entry (nonempty interval)."""
        return self.earliest <= self.latest


@dataclass(frozen=True)
class AbstractState:
    """Envelope cell: every concrete state at one ``(level, location)``."""

    #: Some covered state has ``delta = None`` (latency met or absent).
    stay_none_possible: bool
    #: Interval of possible binding stay counters (empty iff lo > hi).
    stay_lo: int
    stay_hi: int
    #: Per traveling-time source: the abstract ``TL`` entry.  A source
    #: missing from the mapping is definitely absent.
    departures: Mapping[str, DepartureInterval]

    @property
    def stay_values(self) -> int:
        """How many distinct stay-counter values the cell admits."""
        count = 1 if self.stay_none_possible else 0
        if self.stay_lo <= self.stay_hi:
            count += self.stay_hi - self.stay_lo + 1
        return count


@dataclass
class _Dep:
    """Mutable working form of :class:`DepartureInterval`.

    Invariant: a stored ``_Dep`` always has ``lo <= hi`` — an entry whose
    presence interval empties is definitely absent and is simply dropped
    from the cell's mapping.
    """

    absent: bool
    lo: int
    hi: int


@dataclass
class _Cell:
    """Mutable working form of :class:`AbstractState`.

    Invariant: ``stay_none or stay_lo <= stay_hi`` (a cell covering no
    stay value covers no state and is never stored).
    """

    stay_none: bool
    stay_lo: int
    stay_hi: int
    deps: Dict[str, _Dep] = field(default_factory=dict)


class ConstraintEnvelope:
    """Per-level over-approximation of the feasible forward states.

    Built eagerly: construction runs the abstract forward pass over every
    level in ``O(duration * |support|^2 * |tt_sources|)`` — polynomial
    where the concrete graph may be exponential in the TT windows.
    """

    def __init__(self, lsequence: LSequence, constraints: ConstraintSet, *,
                 strict_truncation: bool = False) -> None:
        self._lsequence = lsequence
        self._constraints = constraints
        self._strict = strict_truncation
        self._first_empty: Optional[int] = None
        self._width_bounds: Optional[List[int]] = None
        self._levels: List[Dict[str, AbstractState]] = []
        self._compute()

    # -- construction ------------------------------------------------------

    def _compute(self) -> None:
        lsequence = self._lsequence
        constraints = self._constraints
        duration = lsequence.duration
        last = duration - 1
        departure_filter = (DepartureFilter(lsequence, constraints)
                            if constraints.tt_sources else None)

        cells: Dict[str, _Cell] = {}
        for location in lsequence.support(0):
            stay = initial_stay(location, constraints)
            # Mirrors the pre-check's source filter: with strict
            # truncation and a one-step sequence, a still-binding stay
            # can never be satisfied.
            if self._strict and last == 0 and stay is not None:
                continue
            if stay is None:
                cells[location] = _Cell(True, 1, 0)
            else:
                cells[location] = _Cell(False, stay, stay)

        working = [cells]
        if not cells:
            self._first_empty = 0
        else:
            for tau in range(duration - 1):
                nxt = self._transfer(working[tau], tau, departure_filter,
                                     last)
                working.append(nxt)
                if not nxt:
                    self._first_empty = tau + 1
                    break
        while len(working) < duration:
            working.append({})
        self._levels = [self._freeze(level) for level in working]

    def _transfer(self, current: Dict[str, _Cell], tau: int,
                  departure_filter: Optional[DepartureFilter],
                  last: int) -> Dict[str, _Cell]:
        constraints = self._constraints
        arrival = tau + 1
        filter_binding = self._strict and arrival == last
        support = self._lsequence.support(arrival)
        nxt: Dict[str, _Cell] = {}
        for location, cell in current.items():
            for destination in support:
                if constraints.forbids_step(location, destination):
                    continue
                if destination == location:
                    successor = self._stay_successor(
                        cell, location, arrival, departure_filter,
                        filter_binding)
                else:
                    successor = self._move_successor(
                        cell, location, destination, tau, departure_filter,
                        filter_binding)
                if successor is not None:
                    self._join(nxt, destination, successor)
        return nxt

    def _stay_successor(self, cell: _Cell, location: str, arrival: int,
                        departure_filter: Optional[DepartureFilter],
                        filter_binding: bool) -> Optional[_Cell]:
        """Rule 2/3: advance the stay counter, age the departures."""
        bound = self._constraints.latency_of(location)
        stay_none = cell.stay_none
        lo, hi = cell.stay_lo, cell.stay_hi
        if lo <= hi:
            lo += 1
            hi += 1
            if bound is None or hi >= bound:
                stay_none = True
            if bound is not None and hi > bound - 1:
                hi = bound - 1
            if lo > hi:
                lo, hi = 1, 0
        if filter_binding:
            # Strict truncation: only delta = None outcomes survive the
            # final level.
            if not stay_none:
                return None
            lo, hi = 1, 0
        deps: Dict[str, _Dep] = {}
        for source, dep in cell.deps.items():
            aged = self._aged(dep, source, arrival, departure_filter)
            if aged is not None:
                deps[source] = aged
        return _Cell(stay_none, lo, hi, deps)

    def _move_successor(self, cell: _Cell, location: str, destination: str,
                        tau: int,
                        departure_filter: Optional[DepartureFilter],
                        filter_binding: bool) -> Optional[_Cell]:
        """Rule 4/5/6: leave ``location``, arrive at ``destination``."""
        constraints = self._constraints
        arrival = tau + 1
        # Rule 4: leaving requires a met latency bound (delta = None).
        if not cell.stay_none:
            return None
        # Rule 5, the implicit departure: a stated direct traveling time
        # (always >= 2) forbids the one-step move outright.
        if constraints.traveling_time(location, destination) is not None:
            return None
        # Rule 5 against the abstract TL: some covered TL value must admit
        # the arrival.  An entry that is definitely present and whose
        # *earliest* departure is still too recent blocks every mover.
        for source, dep in cell.deps.items():
            steps = constraints.traveling_time(source, destination)
            if steps is None:
                continue
            if not dep.absent and arrival - dep.lo < steps:
                return None
        # Strict truncation: an arrival at the final timestep must not
        # open a fresh binding stay.
        if filter_binding and initial_stay(destination, constraints) is not None:
            return None
        deps: Dict[str, _Dep] = {}
        for source, dep in cell.deps.items():
            if source == destination:
                # Rule 6 drops every entry about the arrival location.
                continue
            aged = self._aged(dep, source, arrival, departure_filter)
            if aged is None:
                continue
            steps = constraints.traveling_time(source, destination)
            if steps is not None:
                # A mover that still carries the entry must have departed
                # early enough for this arrival: t <= arrival - steps.
                hi = min(aged.hi, arrival - steps)
                if aged.lo > hi:
                    # Every covered carrier is blocked; only entry-absent
                    # movers remain, and their successors lack the entry.
                    continue
                aged = _Dep(aged.absent, aged.lo, hi)
            deps[source] = aged
        # Rule 6: the implicit new departure ``(tau, location)`` is
        # recorded iff the deterministic keep test holds.
        if location in constraints.tt_sources:
            if departure_filter is not None:
                kept = arrival <= departure_filter.alive_until(tau, location)
            else:
                kept = arrival - tau < constraints.max_traveling_time(location)
            if kept:
                deps[location] = _Dep(False, tau, tau)
        stay = initial_stay(destination, constraints)
        if stay is None:
            return _Cell(True, 1, 0, deps)
        return _Cell(False, stay, stay, deps)

    def _aged(self, dep: _Dep, source: str, arrival: int,
              departure_filter: Optional[DepartureFilter]) -> Optional[_Dep]:
        """Age one entry to node time ``arrival`` (the expiry half of rule
        2/3/6), evaluating each drop test at the endpoint that makes it
        conservative."""
        constraints = self._constraints
        keep_from = arrival - constraints.max_traveling_time(source) + 1
        absent = dep.absent
        lo, hi = dep.lo, dep.hi
        if lo < keep_from:
            # The earliest covered departure ages out, so absence becomes
            # possible; later ones may survive.
            absent = True
            lo = keep_from
        if (departure_filter is not None and not absent
                and arrival > departure_filter.alive_until(lo, source)):
            # ``alive_until`` is monotone nondecreasing in the departure
            # time, so the earliest entry is the first the exact filter
            # drops.
            absent = True
        if lo > hi:
            # No covered departure time survives: definitely absent.
            return None
        return _Dep(absent, lo, hi)

    @staticmethod
    def _join(cells: Dict[str, _Cell], destination: str, cell: _Cell) -> None:
        """Merge ``cell`` into the destination's accumulator: boolean ORs,
        interval hulls, and missing-in-one-branch => absence possible."""
        existing = cells.get(destination)
        if existing is None:
            cells[destination] = cell
            return
        existing.stay_none = existing.stay_none or cell.stay_none
        if cell.stay_lo <= cell.stay_hi:
            if existing.stay_lo > existing.stay_hi:
                existing.stay_lo = cell.stay_lo
                existing.stay_hi = cell.stay_hi
            else:
                existing.stay_lo = min(existing.stay_lo, cell.stay_lo)
                existing.stay_hi = max(existing.stay_hi, cell.stay_hi)
        deps = existing.deps
        for source, dep in cell.deps.items():
            mine = deps.get(source)
            if mine is None:
                deps[source] = _Dep(True, dep.lo, dep.hi)
            else:
                deps[source] = _Dep(mine.absent or dep.absent,
                                    min(mine.lo, dep.lo),
                                    max(mine.hi, dep.hi))
        for source, mine in deps.items():
            if source not in cell.deps and not mine.absent:
                deps[source] = _Dep(True, mine.lo, mine.hi)

    @staticmethod
    def _freeze(cells: Dict[str, _Cell]) -> Dict[str, AbstractState]:
        return {
            location: AbstractState(
                cell.stay_none, cell.stay_lo, cell.stay_hi,
                {source: DepartureInterval(dep.absent, dep.lo, dep.hi)
                 for source, dep in sorted(cell.deps.items())})
            for location, cell in sorted(cells.items())
        }

    # -- queries -----------------------------------------------------------

    @property
    def duration(self) -> int:
        return self._lsequence.duration

    @property
    def strict_truncation(self) -> bool:
        return self._strict

    @property
    def first_empty_level(self) -> Optional[int]:
        """The first level with no feasible state, ``None`` if all are
        inhabited."""
        return self._first_empty

    @property
    def proves_zero_mass(self) -> bool:
        """Whether the envelope alone proves ``ZeroMassError`` (sound, not
        complete — C005 remains the exact test)."""
        return self._first_empty is not None

    def level(self, tau: int) -> Mapping[str, AbstractState]:
        """The envelope cells of one level, keyed by location."""
        return self._levels[tau]

    def state(self, tau: int, location: str) -> Optional[AbstractState]:
        return self._levels[tau].get(location)

    def feasible_locations(self, tau: int) -> Tuple[str, ...]:
        """Support locations that can carry mass at ``tau`` (sorted)."""
        return tuple(self._levels[tau])

    def dead_candidates(self) -> List[Tuple[int, str]]:
        """``(tau, location)`` support entries that can never carry mass:
        their prior probability is guaranteed loss (C008)."""
        dead: List[Tuple[int, str]] = []
        for tau in range(self.duration):
            feasible = self._levels[tau]
            for location in self._lsequence.support(tau):
                if location not in feasible:
                    dead.append((tau, location))
        return dead

    def forced_levels(self) -> List[Tuple[int, str]]:
        """Ambiguous levels statically forced to a single location (C008)."""
        forced: List[Tuple[int, str]] = []
        for tau in range(self.duration):
            feasible = self._levels[tau]
            if len(feasible) == 1 and len(self._lsequence.support(tau)) > 1:
                forced.append((tau, next(iter(feasible))))
        return forced

    def width_bounds(self) -> List[int]:
        """Sound per-level upper bounds on ct-graph width (C007).

        Per cell: (number of admissible stay values) x, per recorded
        departure source, (support times of the source inside the entry's
        interval intersected with the live ``maxTravelingTime`` window,
        plus one if absence is possible).  Distinct concrete states map to
        distinct choices, so the product bounds the cell's state count.
        """
        if self._width_bounds is not None:
            return list(self._width_bounds)
        constraints = self._constraints
        support_times: Dict[str, List[int]] = {
            source: [] for source in constraints.tt_sources}
        for tau in range(self.duration):
            for location in self._lsequence.support(tau):
                if location in support_times:
                    support_times[location].append(tau)
        bounds: List[int] = []
        for tau, level in enumerate(self._levels):
            total = 0
            for location, state in level.items():
                combinations = state.stay_values
                for source, dep in state.departures.items():
                    window_start = tau - constraints.max_traveling_time(source) + 1
                    times = support_times[source]
                    low = bisect_left(times, max(0, window_start, dep.earliest))
                    high = bisect_left(times, min(tau, dep.latest + 1))
                    factor = max(0, high - low)
                    if dep.absent_possible:
                        factor += 1
                    combinations *= factor
                total += combinations
            bounds.append(total)
        self._width_bounds = bounds
        return list(bounds)

    def edge_bounds(self) -> List[int]:
        """Per transition level ``tau -> tau + 1``: an upper bound on edge
        count (each node has at most one successor per feasible
        destination)."""
        widths = self.width_bounds()
        return [widths[tau] * len(self._levels[tau + 1])
                for tau in range(self.duration - 1)]

    def total_bound(self) -> int:
        """Upper bound on the total number of ct-graph nodes."""
        return sum(self.width_bounds())

    def peak_bound(self) -> int:
        """Upper bound on the widest single level."""
        widths = self.width_bounds()
        return max(widths) if widths else 0
