"""Static size and backend advice (rule C010).

:func:`advise` turns the constraint envelope's width and edge bounds into
an :class:`EngineAdvice`: predicted node states, predicted bytes in
memory and on disk, and the sweep backend those predictions favour — all
before any cleaning happens.  ``rfid-ctg analyze --advise`` reports it as
rule C010.

The advice never feeds :func:`~repro.core.algorithm.build_ct_graph`:
there is one Algorithm 1 build, and its ``backend="auto"`` resolves from
the edge counts the forward phase actually measured.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.analysis.envelope import (
    ConstraintEnvelope,
    estimate_ctg_bytes,
    estimate_graph_bytes,
)
from repro.core import kernels
from repro.core.algorithm import CleaningOptions
from repro.core.constraints import ConstraintSet
from repro.core.lsequence import LSequence

__all__ = [
    "EngineAdvice",
    "advise",
    "recommend_options",
]


@dataclass(frozen=True)
class EngineAdvice:
    """One advisory verdict, with the predictions that justify it."""

    #: Advised sweep backend ("python" or "numpy"): numpy only when it is
    #: available *and* the envelope predicts at least
    #: :data:`repro.core.kernels.KERNEL_MIN_LEVEL_EDGES` mean edges per
    #: edge level — below that the whole-level ndarray overhead loses to
    #: the plain loops.
    backend: str
    #: Envelope upper bound on total node states.
    predicted_states: int
    #: Envelope upper bound on the widest level.
    peak_level_width: int
    #: Predicted in-memory bytes of the ``FlatCTGraph``.
    predicted_flat_bytes: int
    #: Predicted on-disk bytes as a ``.ctg`` store entry
    #: (``output=...`` / ``GraphStore``).
    predicted_ctg_bytes: int
    #: Duration of the advised l-sequence.
    duration: int
    #: Whether the envelope already proves ``ZeroMassError``.
    zero_mass: bool
    #: Human-readable justification.
    reason: str


def advise(lsequence: LSequence, constraints: ConstraintSet, *,
           strict_truncation: bool = False,
           envelope: Optional[ConstraintEnvelope] = None) -> EngineAdvice:
    """Static size and backend advice for one instance.

    Pass ``envelope`` to reuse an already-built
    :class:`~repro.analysis.envelope.ConstraintEnvelope` (e.g. from an
    ``analyze`` run); otherwise one is built here.
    """
    if envelope is None:
        envelope = ConstraintEnvelope(lsequence, constraints,
                                      strict_truncation=strict_truncation)
    widths = envelope.width_bounds()
    total = sum(widths)
    peak = max(widths) if widths else 0
    edges = envelope.edge_bounds()
    # Backend advice mirrors the build's measured-width resolution, but
    # statically: the envelope's edge bounds predict the mean edges per
    # edge level before anything is built.
    mean_edges = sum(edges) / len(edges) if edges else 0.0
    backend = kernels.resolve_backend("auto", mean_edges)
    if envelope.proves_zero_mass:
        reason = ("the envelope empties at timestep "
                  f"{envelope.first_empty_level}: cleaning raises "
                  "ZeroMassError before building anything")
    else:
        reason = (f"predicted <= {total} node states and <= "
                  f"{mean_edges:.0f} mean edges per level (the numpy "
                  f"kernels pay off from {kernels.KERNEL_MIN_LEVEL_EDGES})")
    return EngineAdvice(
        backend=backend,
        predicted_states=total,
        peak_level_width=peak,
        predicted_flat_bytes=estimate_graph_bytes(widths, edges),
        predicted_ctg_bytes=estimate_ctg_bytes(widths, edges),
        duration=lsequence.duration,
        zero_mass=envelope.proves_zero_mass,
        reason=reason,
    )


def recommend_options(lsequence: LSequence, constraints: ConstraintSet,
                      base: Optional[CleaningOptions] = None, *,
                      envelope: Optional[ConstraintEnvelope] = None
                      ) -> CleaningOptions:
    """Resolve ``backend="auto"`` from the static envelope.

    An explicit backend is returned untouched.
    :func:`~repro.core.algorithm.build_ct_graph` does not call this: it
    resolves ``"auto"`` itself from measured edge counts.
    """
    if base is None:
        base = CleaningOptions()
    if base.backend != "auto":
        return base
    advice = advise(lsequence, constraints,
                    strict_truncation=base.strict_truncation,
                    envelope=envelope)
    return replace(base, backend=advice.backend)
