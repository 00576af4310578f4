"""Trajectory queries: probabilistic pattern matching (Section 6.6).

The answer to a trajectory query over a ct-graph is *yes* with probability
``p`` = total conditioned mass of the source->target paths whose location
sequence matches the pattern.  The evaluator runs the pattern's DFA in
lock-step with a forward pass over the flat columns of the graph
(:class:`~repro.core.flatgraph.FlatCTGraph`, through a
:class:`~repro.queries.session.QuerySession`): the DP state is a
probability per ``(graph node, DFA state)`` pair.  Determinism of the DFA
makes the sum exact — each trajectory is counted through exactly one DFA
run.

The same DP over the raw l-sequence (states are ``(location, DFA state)``
pairs) yields the uncleaned baseline probability under the independence
assumption.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Sequence, Union

from repro.core.lsequence import LSequence
from repro.queries.pattern import Pattern

if TYPE_CHECKING:
    from repro.queries.session import QueryInput

__all__ = ["TrajectoryQuery"]


class TrajectoryQuery:
    """A compiled trajectory query, evaluatable on graphs and l-sequences."""

    def __init__(self, pattern: Union[Pattern, str]) -> None:
        self.pattern = (Pattern.parse(pattern) if isinstance(pattern, str)
                        else pattern)
        self._dfa = self.pattern.dfa()

    # ------------------------------------------------------------------
    def probability(self, graph: "QueryInput") -> float:
        """P(the cleaned trajectory matches the pattern).

        Accepts every form :meth:`QuerySession.ensure` does (a flat
        graph, a mapped view, a session).  The
        DP runs over the flat columns; ``(node index, DFA state)``
        frontier keys are packed into one int (``index * num_states +
        state``) and the DFA transition per interned location id is
        computed once.
        """
        from repro.queries.session import QuerySession

        graph = QuerySession.ensure(graph).graph
        dfa = self._dfa
        symbols = [dfa.symbol(name) for name in graph.location_names]
        transitions = dfa.transitions
        num_states = len(transitions)
        lids = graph.locations[0]
        forward: Dict[int, float] = {}
        for i in range(len(lids)):
            mass = graph.source_probabilities[i]
            if mass <= 0.0:
                continue
            state = transitions[dfa.start][symbols[lids[i]]]
            key = i * num_states + state
            forward[key] = forward.get(key, 0.0) + mass

        for tau in range(graph.duration - 1):
            offsets = graph.edge_offsets[tau]
            children = graph.edge_children[tau]
            probabilities = graph.edge_probabilities[tau]
            next_lids = graph.locations[tau + 1]
            step: Dict[int, float] = {}
            step_get = step.get
            for key, mass in forward.items():
                i, state = divmod(key, num_states)
                row = transitions[state]
                for e in range(offsets[i], offsets[i + 1]):
                    child = children[e]
                    next_key = (child * num_states
                                + row[symbols[next_lids[child]]])
                    step[next_key] = (step_get(next_key, 0.0)
                                      + mass * probabilities[e])
            forward = step

        return sum(mass for key, mass in forward.items()
                   if key % num_states in dfa.accepting)

    def probability_prior(self, lsequence: LSequence) -> float:
        """P(match) under the raw independence-assumption interpretation."""
        dfa = self._dfa
        forward: Dict[int, float] = {}
        for location, probability in lsequence.candidates(0).items():
            state = dfa.step(dfa.start, location)
            forward[state] = forward.get(state, 0.0) + probability
        for tau in range(1, lsequence.duration):
            step: Dict[int, float] = {}
            candidates = lsequence.candidates(tau)
            for state, mass in forward.items():
                for location, probability in candidates.items():
                    next_state = dfa.step(state, location)
                    step[next_state] = (step.get(next_state, 0.0)
                                        + mass * probability)
            forward = step
        return sum(mass for state, mass in forward.items()
                   if state in dfa.accepting)

    def matches(self, trajectory: Sequence[str]) -> bool:
        """Deterministic evaluation on a concrete trajectory."""
        return self.pattern.matches(trajectory)

    def __repr__(self) -> str:
        return f"TrajectoryQuery({str(self.pattern)!r})"
