"""Online (streaming) cleaning: ingest readings one at a time.

The batch Algorithm 1 needs the whole reading sequence before it can
condition.  Deployments, however, receive readings as a stream and want a
live position estimate.  :class:`IncrementalCleaner` maintains the forward
frontier of node states under the Definition 3 successor relation:

* :meth:`extend` appends one timestep's candidate distribution (or one
  reading, via a prior model) and advances the frontier;
* :meth:`filtered_distribution` returns the *filtered* estimate
  ``P(X_now | readings so far, constraints held so far)`` — the standard
  online quantity (it conditions on validity of the prefix only, so it
  will generally differ from the final smoothed marginal);
* :meth:`finalize` runs the full backward conditioning and returns the
  exact ct-graph — identical, path for path and probability for
  probability, to the batch algorithm run on the whole sequence (a
  property the tests assert).

The cleaner keeps every ingested row, so its memory grows with the stream;
for unbounded streams use :class:`repro.streaming.StreamingCleaner`, which
shares this module's frontier arithmetic (:func:`advance_frontier`) but
evicts settled prefix levels and stays O(window).

One caveat: the exact ``TL`` pruning of the batch algorithm
(:class:`repro.core.nodes.DepartureFilter`) needs the *future* support and
is therefore unavailable online; the live frontier can carry more node
states than the batch forward phase would.  Probabilities are unaffected.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple, Union

from repro.core.algorithm import BuiltGraph, CleaningOptions, build_ct_graph
from repro.core.constraints import ConstraintSet
from repro.core.lsequence import LSequence
from repro.core.nodes import (
    NodeState,
    source_states,
    state_location,
    successor_state,
)
from repro.errors import InconsistentReadingsError, ReadingSequenceError

__all__ = [
    "IncrementalCleaner",
    "Frontier",
    "advance_frontier",
    "advance_frontier_routed",
    "coerce_candidate_row",
    "frontier_to_dict",
    "resolve_finalize_options",
]

_PROBABILITY_FLOOR = 1e-15


def coerce_candidate_row(candidates: Mapping[str, float],
                         timestep: int) -> Dict[str, float]:
    """One timestep's candidate distribution, validated and normalised.

    Every probability is coerced through ``float`` exactly once and the
    *coerced* value is reused for the positivity filter and the row — an
    int, a numpy scalar or a numeric string therefore behaves like the
    float it denotes instead of crashing with a bare ``TypeError`` deep
    in a comparison.  Raises :class:`ReadingSequenceError` when a value
    does not coerce, is NaN/infinite/negative (NaN fails every ``>``
    test, so the floor filter alone would silently swallow it), or when
    no location keeps positive mass.  Entry order is preserved — it
    determines downstream dict iteration, hence bit-exact results.
    """
    coerced: Dict[str, float] = {}
    for location, p in candidates.items():
        try:
            value = float(p)
        except (TypeError, ValueError):
            raise ReadingSequenceError(
                f"timestep {timestep}: probability of {location!r} is "
                f"{p!r}, which does not coerce to a float") from None
        if not (value >= 0.0 and math.isfinite(value)):
            raise ReadingSequenceError(
                f"timestep {timestep}: probability of "
                f"{location!r} is {value!r}; candidate probabilities "
                "must be finite and non-negative")
        if value > _PROBABILITY_FLOOR:
            coerced[location] = value
    if not coerced:
        raise ReadingSequenceError(
            f"timestep {timestep}: no location has positive "
            "probability")
    total = math.fsum(coerced.values())
    return {location: p / total for location, p in coerced.items()}


def advance_frontier(frontier: Dict[NodeState, float],
                     row: Mapping[str, float], tau: int,
                     constraints: ConstraintSet) -> Dict[NodeState, float]:
    """One step of the filtered-forward recursion.

    Returns the unnormalised (peak-rescaled) forward mass over the node
    states of timestep ``tau`` given the mass over timestep ``tau - 1``
    (``tau == 0`` seeds from :func:`source_states` instead).  This is the
    single shared implementation of the recursion — the unbounded
    :class:`IncrementalCleaner` and the windowed
    :class:`repro.streaming.StreamingCleaner` both call it, which is what
    makes their filtered estimates bit-identical.  Returns an empty dict
    when no valid continuation exists; the input ``frontier`` is never
    mutated.
    """
    advanced: Dict[NodeState, float] = {}
    if tau == 0:
        for location, state in source_states(row, constraints).items():
            advanced[state] = row[location]
        return advanced
    # Successor tuples are interned per step: a successor equal to one of
    # the *input* frontier's states reuses that exact tuple object, so
    # long streams (and the retained levels of StreamingCleaner) share
    # state tuples across levels instead of holding equal copies.
    interned: Dict[NodeState, NodeState] = {state: state
                                            for state in frontier}
    for state, mass in frontier.items():
        for destination, probability in row.items():
            successor = successor_state(tau - 1, state, destination,
                                        constraints)
            if successor is not None:
                successor = interned.setdefault(successor, successor)
                advanced[successor] = (advanced.get(successor, 0.0)
                                       + mass * probability)
    # Rescale to ward off underflow on long streams (only ratios matter
    # for the filtered distribution).  A peak of exactly 1.0 makes the
    # rescale the identity, so the dict rebuild is skipped.
    peak = max(advanced.values(), default=0.0)
    if peak > 0.0 and peak != 1.0:
        advanced = {state: mass / peak
                    for state, mass in advanced.items()}
    return advanced


#: A live forward frontier in either representation: the python oracle's
#: ``Dict[NodeState, float]`` or the vectorized
#: :class:`~repro.core.kernels.KernelFrontier` (signature node + float64
#: mass array).  Both are falsy exactly when no valid continuation exists
#: and ``len()`` is the state count.
Frontier = Union[Dict[NodeState, float], "KernelFrontier"]

if TYPE_CHECKING:
    from repro.core.kernels import FrontierKernel, KernelFrontier


def frontier_to_dict(frontier: "Frontier") -> Dict[NodeState, float]:
    """The oracle-form dict of either frontier representation.

    For a kernel frontier this materialises absolute node states in the
    oracle's key order with the kernel's float bits unchanged — the
    bridge that lets checkpoints, window conditioning and backend
    switches treat both representations uniformly.
    """
    if isinstance(frontier, dict):
        return frontier
    return frontier.to_dict()


def advance_frontier_routed(frontier: "Frontier", row: Mapping[str, float],
                            tau: int, constraints: ConstraintSet, *,
                            backend: str = "python",
                            kernel: Optional["FrontierKernel"] = None,
                            ) -> Tuple["Frontier",
                                       Optional["FrontierKernel"]]:
    """One ingest step, routed to the oracle or the vectorized kernel.

    The routing mirrors PR 7's sweep kernels: ``backend="python"`` always
    runs :func:`advance_frontier`; ``"numpy"`` runs the compiled
    transition tables of :class:`~repro.core.kernels.FrontierKernel` when
    numpy is available (falling back silently otherwise); ``"auto"``
    engages them only from
    :data:`~repro.core.kernels.KERNEL_MIN_LEVEL_EDGES` predicted
    transitions per step.  Returns ``(new_frontier, kernel)`` — the
    kernel is created lazily on first numpy use and must be threaded back
    in by the caller so its table cache persists across steps (and may be
    shared across a fleet's sessions).  Representation switches are
    handled here: a dict frontier entering the kernel path is adopted
    bit-exactly, a kernel frontier falling back to python is materialised
    first.
    """
    from repro.core import kernels as _kernels

    if backend == "python":
        resolved = "python"
    else:
        predicted_edges = max(1, len(frontier)) * len(row)
        resolved = _kernels.resolve_backend(backend,
                                            level_edges=predicted_edges)
    if resolved == "numpy":
        if kernel is None:
            kernel = _kernels.FrontierKernel(constraints)
        if tau == 0:
            return kernel.seed(row), kernel
        if isinstance(frontier, dict):
            live = kernel.enter(frontier, tau - 1)
        else:
            live = frontier
        return kernel.advance(live, row), kernel
    return (advance_frontier(frontier_to_dict(frontier), row, tau,
                             constraints), kernel)


def resolve_finalize_options(options: CleaningOptions,
                             output: Optional[str],
                             output_consumed: bool,
                             ) -> Tuple[CleaningOptions, bool]:
    """The effective options of one ``finalize()`` call.

    Returns ``(effective_options, consumed_configured_output)``.  An
    explicit ``output=`` always wins.  The *configured*
    ``options.output`` may be written exactly once per cleaner — a
    repeat ``finalize()`` without a fresh explicit path raises
    :class:`ReadingSequenceError` instead of silently overwriting the
    previous result.
    """
    if output is not None:
        return replace(options, output=str(output)), False
    if options.output is None:
        return options, False
    if output_consumed:
        raise ReadingSequenceError(
            f"finalize() already wrote {options.output!r}; calling it "
            "again would silently overwrite that file — pass "
            "finalize(output=...) with a fresh path (or re-use the old "
            "one explicitly)")
    return options, True


class IncrementalCleaner:
    """Streaming cleaning: a live frontier plus exact on-demand conditioning."""

    def __init__(self, constraints: ConstraintSet,
                 options: CleaningOptions = CleaningOptions(),
                 prior=None, *,
                 frontier_kernel: Optional["FrontierKernel"] = None) -> None:
        self.constraints = constraints
        self.options = options
        self.prior = prior
        self._rows: List[Dict[str, float]] = []
        # Unnormalised filtered mass per frontier node state — dict form
        # under the python backend, KernelFrontier under numpy.
        self._frontier: Frontier = {}
        # The vectorized backend's transition-table cache; pass one in to
        # share compiled tables across cleaners (created lazily when the
        # numpy path first engages otherwise).
        self._kernel = frontier_kernel
        # Whether finalize() already wrote the *configured* options.output
        # (an explicit finalize(output=...) never sets this).
        self._output_consumed = False

    # ------------------------------------------------------------------
    @property
    def duration(self) -> int:
        """How many timesteps have been ingested."""
        return len(self._rows)

    def extend_reading(self, readers) -> None:
        """Append one raw reading (requires a ``prior`` at construction)."""
        if self.prior is None:
            raise ReadingSequenceError(
                "extend_reading needs a prior model; pass prior= to the "
                "constructor or use extend() with a distribution")
        self.extend(self.prior.distribution(readers))

    def extend(self, candidates: Mapping[str, float]) -> None:
        """Append one timestep's location distribution and advance.

        Raises :class:`InconsistentReadingsError` when no valid
        continuation exists (the stream contradicts the constraints), and
        :class:`ReadingSequenceError` when a candidate probability does
        not coerce to a float or is NaN, infinite, or negative —
        malformed input is rejected, never silently dropped.  The
        cleaner's state is unchanged in either case, so the caller may
        drop the offending reading and continue.
        """
        row = coerce_candidate_row(candidates, self.duration)
        tau = self.duration
        frontier, self._kernel = advance_frontier_routed(
            self._frontier, row, tau, self.constraints,
            backend=self.options.backend, kernel=self._kernel)
        if not frontier:
            raise InconsistentReadingsError(
                f"no valid continuation at timestep {tau}")
        self._rows.append(row)
        self._frontier = frontier

    # ------------------------------------------------------------------
    def filtered_distribution(self) -> Dict[str, float]:
        """``P(X_now | readings so far, prefix validity)`` — the live estimate."""
        if not self._rows:
            raise ReadingSequenceError("no readings ingested yet")
        frontier = self._frontier
        if isinstance(frontier, dict):
            raw: Dict[str, float] = {}
            for state, mass in frontier.items():
                location = state_location(state)
                raw[location] = raw.get(location, 0.0) + mass
        else:
            raw = frontier.location_masses()
        total = math.fsum(raw.values())
        return {location: mass / total for location, mass in raw.items()}

    def frontier_size(self) -> int:
        """How many node states the live frontier carries."""
        return len(self._frontier)

    def lsequence(self) -> LSequence:
        """The l-sequence accumulated so far (an independent copy)."""
        if not self._rows:
            raise ReadingSequenceError("no readings ingested yet")
        return LSequence([dict(row) for row in self._rows], _validate=False)

    def finalize(self, *, output: Optional[str] = None) -> BuiltGraph:
        """Close the stream: run the exact conditioning, return the ct-graph.

        Equals the batch algorithm's output on the accumulated sequence:
        a :class:`~repro.core.flatgraph.FlatCTGraph`, or with an output
        path the mmap-backed :class:`~repro.store.format.MappedCTGraph`
        view of the written file.

        The cleaner keeps its state — more readings can be appended after
        this call and :meth:`finalize` called again.  With an output path
        each call writes one file: the constructor-configured
        ``options.output`` is honoured for the *first* call only, and
        every further call must name a fresh path via ``output=``
        (raising :class:`ReadingSequenceError` otherwise) instead of
        silently overwriting the earlier result.  An explicit ``output=``
        makes the call behave exactly like ``build_ct_graph`` with
        ``output=`` set, returning the mapped view.
        """
        lsequence = self.lsequence()
        options, consumed = resolve_finalize_options(
            self.options, output, self._output_consumed)
        graph = build_ct_graph(lsequence, self.constraints, options)
        if consumed:
            self._output_consumed = True
        return graph
