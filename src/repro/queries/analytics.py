"""Analytics over cleaned trajectories: MAP paths, top-k, uncertainty,
visit statistics.

Everything here is an exact dynamic program over the levelled ct-graph:

* :func:`most_likely_trajectory` — the Viterbi (maximum a-posteriori) path;
* :func:`top_k_trajectories` — the k most probable valid trajectories
  (best-first search over path prefixes);
* :func:`entropy_profile` / :func:`uncertainty_reduction` — per-timestep
  Shannon entropy of the location marginal, quantifying the paper's
  headline ("reducing the inherent uncertainty of trajectory data");
* :func:`expected_visit_counts` — expected number of timesteps per
  location;
* :func:`visit_probability` — P(the object ever visits a location);
* :func:`span_probability` — P(at a location throughout a window);
* :func:`time_at_location_distribution` — total time at a location;
* :func:`first_visit_distribution` — when the first visit happens.

Each graph query is answered by the matching
:class:`~repro.queries.session.QuerySession` method, the one
implementation of every query.  ``graph`` may be a ``FlatCTGraph``, a
``MappedCTGraph`` or a ``QuerySession``; the answers are bit-identical
across the forms.  A
call on a bare graph builds a throwaway session, so pass a session when
asking several queries of one graph — the shared sweeps then run once.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.lsequence import LSequence, Trajectory
from repro.errors import QueryError
from repro.queries.session import QueryInput, QuerySession, distribution_entropy

__all__ = [
    "most_likely_trajectory",
    "top_k_trajectories",
    "entropy_profile",
    "entropy_profile_prior",
    "uncertainty_reduction",
    "expected_visit_counts",
    "visit_probability",
    "span_probability",
    "first_visit_distribution",
    "time_at_location_distribution",
]


def most_likely_trajectory(graph: QueryInput) -> Tuple[Trajectory, float]:
    """The maximum-probability valid trajectory, ties broken
    lexicographically (:meth:`QuerySession.most_likely_trajectory`)."""
    return QuerySession.ensure(graph).most_likely_trajectory()


def top_k_trajectories(graph: QueryInput, k: int) -> List[Tuple[Trajectory, float]]:
    """The ``min(k, num_valid_trajectories())`` most probable valid
    trajectories, most probable first
    (:meth:`QuerySession.top_k_trajectories`)."""
    return QuerySession.ensure(graph).top_k_trajectories(k)


def entropy_profile(graph: QueryInput) -> List[float]:
    """Shannon entropy (bits) of the cleaned location marginal, per step."""
    return QuerySession.ensure(graph).entropy_profile()


def entropy_profile_prior(lsequence: LSequence) -> List[float]:
    """Shannon entropy (bits) of the raw a-priori marginal, per step."""
    return [distribution_entropy(lsequence.candidates(tau))
            for tau in range(lsequence.duration)]


def uncertainty_reduction(lsequence: LSequence, graph: QueryInput) -> float:
    """Average per-step entropy drop (bits) achieved by conditioning.

    Positive values mean cleaning made positions more certain on average —
    the quantified version of the paper's title claim.
    """
    if lsequence.duration != graph.duration:
        raise QueryError("l-sequence and graph have different durations")
    before = entropy_profile_prior(lsequence)
    after = entropy_profile(graph)
    return sum(b - a for b, a in zip(before, after)) / graph.duration


def expected_visit_counts(graph: QueryInput) -> Dict[str, float]:
    """Expected number of timesteps spent at each location."""
    return QuerySession.ensure(graph).expected_visit_counts()


def visit_probability(graph: QueryInput, location: str) -> float:
    """P(the object is at ``location`` at some timestep)."""
    return QuerySession.ensure(graph).visit_probability(location)


def span_probability(graph: QueryInput, location: str,
                     start: int, end: int) -> float:
    """P(the object is at ``location`` throughout ``[start, end]``).

    Both bounds are inclusive timesteps — the probabilistic version of
    "was the patient in the isolation room the whole hour?".
    """
    return QuerySession.ensure(graph).span_probability(location, start, end)


def time_at_location_distribution(graph: QueryInput,
                                  location: str) -> Dict[int, float]:
    """The distribution of the *total* time spent at ``location``.

    Returns ``{k: P(exactly k timesteps at location)}`` including ``k=0``.
    The DP carries a per-node count histogram, so cost is
    ``O(nodes * duration)`` in the worst case (the expected value via
    :func:`expected_visit_counts` is always cheap).
    """
    return QuerySession.ensure(graph).time_at_location_distribution(location)


def first_visit_distribution(graph: QueryInput, location: str) -> Dict[int, float]:
    """P(first visit to ``location`` happens at timestep ``tau``).

    Mass missing from the returned dict is the probability of never
    visiting.
    """
    return QuerySession.ensure(graph).first_visit_distribution(location)
