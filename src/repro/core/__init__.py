"""The paper's contribution: conditioning trajectory data under constraints.

* :mod:`repro.core.constraints` — DU / TT / LT integrity constraints;
* :mod:`repro.core.lsequence` — readings and probabilistic l-sequences;
* :mod:`repro.core.nodes` — location nodes ``(tau, l, delta, TL)`` and the
  successor relation (Definition 3);
* :mod:`repro.core.ctgraph` — the conditioned-trajectory graph;
* :mod:`repro.core.algorithm` — Algorithm 1 (forward + backward phases);
* :mod:`repro.core.engine` — its interned states, memoised transition
  rows and numpy sweep kernels;
* :mod:`repro.core.validity` — Definition 2 trajectory validity;
* :mod:`repro.core.naive` — exact conditioning by enumeration (baseline);
* :mod:`repro.core.sampling` — drawing valid trajectories from a ct-graph.
"""

from repro.core.algorithm import (
    CleaningOptions,
    CleaningStats,
    build_ct_graph,
    clean,
)
from repro.core.engine import EngineCache
from repro.core.constraints import (
    ConstraintSet,
    Latency,
    TravelingTime,
    Unreachable,
)
from repro.core.ctgraph import CTGraph, CTNode
from repro.core.lsequence import LSequence, Reading, ReadingSequence
from repro.core.naive import NaiveConditioner
from repro.core.sampling import TrajectorySampler
from repro.core.validity import is_valid_trajectory

__all__ = [
    "ConstraintSet",
    "Unreachable",
    "TravelingTime",
    "Latency",
    "Reading",
    "ReadingSequence",
    "LSequence",
    "CTGraph",
    "CTNode",
    "CleaningOptions",
    "CleaningStats",
    "build_ct_graph",
    "EngineCache",
    "clean",
    "NaiveConditioner",
    "TrajectorySampler",
    "is_valid_trajectory",
]
