"""Location-node state and the successor relation (Section 4, Definition 3).

A location node carries ``(tau, location, stay, departures)``:

* ``stay`` is the paper's ``delta``, normalised as described in DESIGN.md:
  the length (in timesteps, >= 1) of the object's current stay at
  ``location``, tracked only while it is still *binding* — i.e. while a
  latency constraint exists on ``location`` and the stay is still shorter
  than its bound.  Once the bound is met (or when the location has no
  latency constraint) the value is ``None`` (the paper's ``⊥``), which
  merges states that behave identically in the future.

* ``departures`` is the paper's ``TL``: a tuple of ``(time, location)``
  pairs recording, for each location that (a) the object left in the recent
  past and (b) sources at least one TT constraint, the last timestep spent
  there.  Entries expire as soon as ``now - time >= maxTravelingTime(loc)``
  and only the latest departure per location is kept (an older departure is
  strictly weaker), so states stay canonical and finite.

Given the node state, validity of any *future* is independent of how the
state was reached — the Markov property that makes the ct-graph's per-node
``loss`` well-defined and Algorithm 1 exact.

Two interpretation choices (see DESIGN.md §3) are encoded here:

* a move ``l1 -> l2`` also checks ``travelingTime(l1, l2, v)`` directly
  (the implicit departure ``(tau1, l1)``), which Definition 2 requires even
  though the paper's printed rule 5 only inspects ``TL``;
* the stay counter follows Definition 2's bound (a stay must span at least
  ``d`` timesteps), resolving the paper's off-by-one between Definition 2
  and rule 4.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.constraints import ConstraintSet

__all__ = [
    "NodeState",
    "RelativeDepartures",
    "DepartureFilter",
    "initial_stay",
    "successor_state",
    "source_states",
    "relative_departures",
    "absolute_departures",
    "departure_keep_mask",
    "state_location",
    "state_stay",
    "state_departures",
]

#: The TL component: ``((time, location), ...)`` sorted for canonical hashing.
Departures = Tuple[Tuple[int, str], ...]

#: The TL component rebased to *relative ages*: ``((age, location), ...)``
#: with ``age = tau - time >= 0``, in the same entry order as the absolute
#: tuple it was derived from.  Two nodes at different timesteps share one
#: relative tuple exactly when their TL entries are the same number of
#: timesteps old — the key property Algorithm 1's transition cache is
#: built on (see :mod:`repro.core.engine`).
RelativeDepartures = Tuple[Tuple[int, str], ...]

#: The hashable node state used as a dict key during graph construction:
#: ``(location, stay, departures)`` — ``tau`` is implicit in the level.
NodeState = Tuple[str, Optional[int], Departures]


def state_location(state: NodeState) -> str:
    """The location component of a node state.

    Callers outside this module must read node-state components through
    these accessors instead of destructuring the tuple — a shape change of
    the ``NodeState`` alias then breaks here, loudly and in one place,
    rather than silently misassigning fields at every unpacking site.
    """
    return state[0]


def state_stay(state: NodeState) -> Optional[int]:
    """The stay (``delta``) component of a node state (see module docs)."""
    return state[1]


def state_departures(state: NodeState) -> Departures:
    """The ``TL`` departures component of a node state (see module docs)."""
    return state[2]


class DepartureFilter:
    """Exact, l-sequence-aware pruning of ``TL`` entries.

    A departure entry ``(t, l)`` can only ever invalidate an *arrival* at
    some TT destination ``d`` of ``l`` at a timestep ``ta`` with
    ``ta - t < v`` — and an arrival at ``d`` at ``ta`` can only happen if
    ``d`` is in the l-sequence's support at ``ta``.  Given the l-sequence,
    an entry whose every destination is absent from every support in its
    remaining binding window is dead weight: dropping it merges node states
    without changing the set of valid trajectories or their probabilities
    (the property tests against the naive enumerator cover this).

    This pruning is what keeps the ``TL`` state space tractable on long
    ambiguous stretches; it is an optimisation over the paper's printed
    rule 6, which only expires entries by the global ``maxTravelingTime``
    horizon.
    """

    def __init__(self, lsequence, constraints: ConstraintSet) -> None:
        self._constraints = constraints
        # Per destination location: the sorted timesteps where it has
        # positive prior support.
        support_times: Dict[str, List[int]] = {}
        for tau in range(lsequence.duration):
            for location in lsequence.candidates(tau):
                support_times.setdefault(location, []).append(tau)
        self._support_times = support_times
        # Per TT source: its (destination, min steps) constraints.
        self._destinations: Dict[str, Tuple[Tuple[str, int], ...]] = {}
        by_source: Dict[str, List[Tuple[str, int]]] = {}
        for (source, dest), steps in constraints.traveling_time_bounds.items():
            by_source.setdefault(source, []).append((dest, steps))
        self._destinations = {s: tuple(pairs) for s, pairs in by_source.items()}
        self._last_binding: Dict[Tuple[int, str], int] = {}
        self._alive_until: Dict[Tuple[int, str], int] = {}

    def last_binding(self, departed_at: int, location: str) -> int:
        """The last node timestep at which entry ``(departed_at, location)``
        can still matter (-1 if it never can)."""
        key = (departed_at, location)
        cached = self._last_binding.get(key)
        if cached is not None:
            return cached
        best = -1
        for destination, steps in self._destinations.get(location, ()):
            times = self._support_times.get(destination)
            if not times:
                continue
            # The latest support time of ``destination`` not beyond the
            # constraint's binding window [.., departed_at + steps - 1].
            index = bisect_right(times, departed_at + steps - 1)
            if index:
                best = max(best, times[index - 1] - 1)
        self._last_binding[key] = best
        return best

    def alive_until(self, departed_at: int, location: str) -> int:
        """The last node timestep at which the entry must be carried.

        Combines the ``maxTravelingTime`` horizon (entry expires once every
        constraint window closed) with :meth:`last_binding` (no reachable
        destination left).  Cached — the hot loop pays one dict lookup.
        """
        key = (departed_at, location)
        cached = self._alive_until.get(key)
        if cached is None:
            horizon = (departed_at
                       + self._constraints.max_traveling_time(location) - 1)
            cached = min(horizon, self.last_binding(departed_at, location))
            self._alive_until[key] = cached
        return cached

    def keep(self, node_time: int, departed_at: int, location: str) -> bool:
        """Whether a node at ``node_time`` still needs this entry."""
        return node_time <= self.alive_until(departed_at, location)


def initial_stay(location: str, constraints: ConstraintSet) -> Optional[int]:
    """The stay counter right after arriving at ``location``.

    ``None`` when no latency constraint binds (no constraint, or a bound of
    1 which any stay satisfies); otherwise 1 (the arrival timestep counts).
    """
    bound = constraints.latency_of(location)
    if bound is None or bound <= 1:
        return None
    return 1


def _advance_stay(stay: Optional[int], location: str,
                  constraints: ConstraintSet) -> Optional[int]:
    """The stay counter after one more timestep at ``location``."""
    if stay is None:
        return None
    bound = constraints.latency_of(location)
    new_stay = stay + 1
    if bound is None or new_stay >= bound:
        return None
    return new_stay


def _keep_entry(arrival: int, departed_at: int, location: str,
                constraints: ConstraintSet,
                departure_filter: Optional[DepartureFilter]) -> bool:
    """Whether a ``TL`` entry is still worth carrying at ``arrival``.

    An entry ``(t, l)`` is alive while ``arrival - t < maxTravelingTime(l)``
    (some TT constraint sourced at ``l`` could still forbid an arrival);
    with a :class:`DepartureFilter` it must additionally have a reachable
    destination left in its binding window.
    """
    if departure_filter is not None:
        return departure_filter.keep(arrival, departed_at, location)
    return arrival - departed_at < constraints.max_traveling_time(location)


def _aged_departures(departures: Departures, arrival: int,
                     constraints: ConstraintSet,
                     departure_filter: Optional[DepartureFilter],
                     ) -> Departures:
    """``TL`` after one timestep of ageing; reuses the tuple if unchanged."""
    if departure_filter is not None:
        alive_until = departure_filter.alive_until
        for t, l in departures:
            if arrival > alive_until(t, l):
                return tuple(entry for entry in departures
                             if arrival <= alive_until(*entry))
        return departures
    max_tt = constraints.max_traveling_time
    for t, l in departures:
        if arrival - t >= max_tt(l):
            return tuple((t, l) for (t, l) in departures
                         if arrival - t < max_tt(l))
    return departures


def _unchecked_successor(tau: int, state: NodeState, destination: str,
                         constraints: ConstraintSet,
                         departure_filter: Optional[DepartureFilter],
                         ) -> Optional[NodeState]:
    """Definition 3 rules 3-6, with rule 2 (DU) assumed already checked.

    The forward phase pre-filters destinations by direct reachability per
    (level, location), so rule 2 is hoisted out of this hot path; use
    :func:`successor_state` everywhere else.
    """
    location, stay, departures = state
    arrival = tau + 1

    if destination == location:
        # Rule 3 — staying: bump the stay counter, age the departures.
        new_stay = _advance_stay(stay, location, constraints)
        new_departures = _aged_departures(departures, arrival, constraints,
                                          departure_filter)
        return (destination, new_stay, new_departures)

    # Rule 4 — leaving is only legal once the latency bound is met.
    if stay is not None:
        return None

    # Rule 5 — traveling-time checks for the arrival at ``destination``,
    # including the implicit departure (tau, location) of this very move.
    direct = constraints.traveling_time(location, destination)
    if direct is not None and arrival - tau < direct:
        return None
    for departed_at, departed_loc in departures:
        steps = constraints.traveling_time(departed_loc, destination)
        if steps is not None and arrival - departed_at < steps:
            return None

    # Rule 6 — the new TL: record this departure if it can ever matter,
    # age out expired/pointless entries, drop entries about the destination
    # itself, and keep only the latest departure per location.
    if departures or location in constraints.tt_sources:
        entries: Dict[str, int] = {}
        for departed_at, departed_loc in departures:
            entries[departed_loc] = max(
                entries.get(departed_loc, departed_at), departed_at)
        if location in constraints.tt_sources:
            entries[location] = tau
        if departure_filter is not None:
            alive_until = departure_filter.alive_until
            kept = [(t, l) for l, t in entries.items()
                    if l != destination and arrival <= alive_until(t, l)]
        else:
            max_tt = constraints.max_traveling_time
            kept = [(t, l) for l, t in entries.items()
                    if l != destination and arrival - t < max_tt(l)]
        if len(kept) > 1:
            kept.sort()
        new_departures = tuple(kept)
    else:
        new_departures = ()
    return (destination, initial_stay(destination, constraints), new_departures)


def successor_state(tau: int, state: NodeState, destination: str,
                    constraints: ConstraintSet,
                    departure_filter: Optional[DepartureFilter] = None,
                    ) -> Optional[NodeState]:
    """The successor of ``state`` (at timestep ``tau``) that is at
    ``destination`` at ``tau + 1`` — or ``None`` if no legal successor exists.

    Implements Definition 3: at most one successor state exists per
    destination location, because ``stay`` and ``departures`` of the
    successor are functions of the predecessor state.  The optional
    ``departure_filter`` enables the exact l-sequence-aware ``TL`` pruning
    (see :class:`DepartureFilter`).
    """
    # Rule 2 — direct unreachability.
    if constraints.forbids_step(state[0], destination):
        return None
    return _unchecked_successor(tau, state, destination, constraints,
                                departure_filter)


def relative_departures(departures: Departures, tau: int) -> RelativeDepartures:
    """``TL`` rebased to ages relative to ``tau``: ``(t, l) -> (tau - t, l)``.

    Entry order is preserved, so the absolute canonical order (sorted by
    ``(time, location)``) maps to the relative canonical order (sorted by
    ``(-age, location)``) and :func:`absolute_departures` is an exact
    inverse at the same ``tau``.  This is the key helper of the compact
    engine's transition cache: rules 3, 5 and 6 of Definition 3 compare
    departure times only through differences ``arrival - time``, which ages
    express directly, making memoised successor rows reusable across
    timesteps.
    """
    return tuple((tau - time, location) for time, location in departures)


def absolute_departures(relative: RelativeDepartures, tau: int) -> Departures:
    """The inverse of :func:`relative_departures` at node timestep ``tau``."""
    return tuple((tau - age, location) for age, location in relative)


def departure_keep_mask(relative: RelativeDepartures, location: str, tau: int,
                        constraints: ConstraintSet,
                        departure_filter: Optional[DepartureFilter]) -> int:
    """The rule-3/6 ``TL`` keep decisions at ``tau`` as a bitmask.

    Bit ``k`` is set when the ``k``-th entry of ``relative`` survives ageing
    to ``arrival = tau + 1``; the bit after the last entry describes the
    *implicit new departure* ``(tau, location)`` and is meaningful only when
    ``location`` sources a TT constraint.  With a :class:`DepartureFilter`
    these decisions depend on absolute time (the filter prunes by the
    l-sequence's remaining support windows), so they cannot be derived from
    relative ages alone — Algorithm 1 widens its transition-cache
    keys by this mask, keeping memoisation exact instead of approximating.
    Without a filter the decisions are pure functions of the ages and the
    mask is uniformly 0 (no widening needed).
    """
    if departure_filter is None:
        return 0
    arrival = tau + 1
    alive_until = departure_filter.alive_until
    mask = 0
    bit = 1
    for age, departed_loc in relative:
        if arrival <= alive_until(tau - age, departed_loc):
            mask |= bit
        bit <<= 1
    if location in constraints.tt_sources and \
            arrival <= alive_until(tau, location):
        mask |= bit
    return mask


def source_states(locations: Iterable[str],
                  constraints: ConstraintSet) -> Dict[str, NodeState]:
    """The source-node states (timestep 0) for the given candidate locations.

    At timestep 0 nothing is known about the past: ``TL`` is empty and every
    stay starts fresh (Definition 2 treats timestep 0 as the start of a
    stay, so latency bounds apply in full).
    """
    return {location: (location, initial_stay(location, constraints), ())
            for location in locations}
