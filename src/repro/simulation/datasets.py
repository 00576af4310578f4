"""Reproducible datasets: SYN1 and SYN2 (Section 6.1) and custom builds.

A :class:`Dataset` bundles everything one cleaning experiment needs: the
building, its grid, the deployed readers, the exact and calibrated
detection matrices, the prior model and a collection of
(ground truth, readings) trajectory pairs grouped by duration.

The paper's datasets hold 25 trajectories per duration in
{30, 60, 90, 120} minutes.  Running that scale takes a while in pure
Python, so datasets come in named *scales*; benchmarks default to
``small`` and honour ``REPRO_SCALE=paper`` for full-size runs (the
cleaning cost is linear in the duration — Fig. 8 — so the curves' shapes
are preserved).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

try:
    import numpy as np
except ImportError:  # pragma: no cover - no-numpy environments
    from repro.optional import missing_dependency

    np = missing_dependency("numpy", "repro[numpy]")  # type: ignore[assignment]

from repro.errors import ReproError
from repro.mapmodel.building import Building
from repro.mapmodel.distances import WalkingDistances
from repro.mapmodel.floorplans import syn1_building, syn2_building
from repro.mapmodel.grid import DEFAULT_CELL_SIZE, Grid
from repro.rfid.calibration import (
    DEFAULT_CALIBRATION_EPOCHS,
    DetectionMatrix,
    calibrate,
    exact_matrix,
)
from repro.rfid.priors import PriorModel
from repro.rfid.readers import ReaderModel, place_default_readers
from repro.core.lsequence import ReadingSequence
from repro.simulation.readings import ReadingGenerator
from repro.simulation.trajectories import (
    GroundTruthTrajectory,
    MovementParameters,
    TrajectoryGenerator,
)

__all__ = [
    "GeneratedTrajectory",
    "Dataset",
    "SCALES",
    "active_scale",
    "build_dataset",
    "syn1_dataset",
    "syn2_dataset",
]

#: Named experiment scales: duration list (in timesteps = seconds) and the
#: number of trajectories per duration.  ``paper`` is the EDBT setup.
SCALES: Dict[str, Tuple[Tuple[int, ...], int]] = {
    "tiny": ((30, 60), 2),
    "small": ((120, 240, 360, 480), 3),
    "medium": ((300, 600, 900, 1200), 5),
    "paper": ((1800, 3600, 5400, 7200), 25),
}


def active_scale(default: str = "small") -> str:
    """The scale selected via the ``REPRO_SCALE`` environment variable."""
    scale = os.environ.get("REPRO_SCALE", default)
    if scale not in SCALES:
        raise ReproError(
            f"unknown REPRO_SCALE {scale!r}; expected one of {sorted(SCALES)}")
    return scale


@dataclass(frozen=True)
class GeneratedTrajectory:
    """One monitored object: its ground truth and the readings it produced."""

    truth: GroundTruthTrajectory
    readings: ReadingSequence

    @property
    def duration(self) -> int:
        return self.truth.duration


@dataclass
class Dataset:
    """A complete synthetic experiment input."""

    name: str
    building: Building
    grid: Grid
    readers: ReaderModel
    true_matrix: DetectionMatrix
    calibrated_matrix: DetectionMatrix
    prior: PriorModel
    distances: WalkingDistances
    trajectories: Dict[int, List[GeneratedTrajectory]] = field(default_factory=dict)

    @property
    def durations(self) -> Tuple[int, ...]:
        return tuple(sorted(self.trajectories))

    def all_trajectories(self) -> List[GeneratedTrajectory]:
        """Every trajectory, shortest durations first."""
        result: List[GeneratedTrajectory] = []
        for duration in self.durations:
            result.extend(self.trajectories[duration])
        return result

    def __repr__(self) -> str:
        count = sum(len(group) for group in self.trajectories.values())
        return (f"Dataset({self.name!r}, durations={self.durations}, "
                f"trajectories={count})")


def build_dataset(building: Building, *,
                  name: Optional[str] = None,
                  durations: Sequence[int] = (120, 240),
                  per_duration: int = 3,
                  seed: int = 7,
                  cell_size: float = DEFAULT_CELL_SIZE,
                  calibration_epochs: int = DEFAULT_CALIBRATION_EPOCHS,
                  movement: MovementParameters = MovementParameters(),
                  negative_evidence: bool = False,
                  min_probability: float = 0.0) -> Dataset:
    """Generate a full dataset over ``building``; deterministic given ``seed``.

    The reading generator runs on the *exact* detection matrix (the physical
    truth) while the prior model is built from the *calibrated* matrix —
    the learned-model-vs-world mismatch of the paper's setup.
    """
    rng = np.random.default_rng(seed)
    grid = Grid(building, cell_size)
    readers = place_default_readers(building)
    true = exact_matrix(readers, grid)
    calibrated = calibrate(true, epochs=calibration_epochs, rng=rng)
    prior = PriorModel(calibrated, negative_evidence=negative_evidence,
                       min_probability=min_probability)
    distances = WalkingDistances(building)

    trajectory_generator = TrajectoryGenerator(building, movement, rng)
    reading_generator = ReadingGenerator(true, rng)
    groups: Dict[int, List[GeneratedTrajectory]] = {}
    for duration in durations:
        group: List[GeneratedTrajectory] = []
        for _ in range(per_duration):
            truth = trajectory_generator.generate(duration)
            readings = reading_generator.generate(truth)
            group.append(GeneratedTrajectory(truth, readings))
        groups[int(duration)] = group

    return Dataset(name=name or building.name, building=building, grid=grid,
                   readers=readers, true_matrix=true,
                   calibrated_matrix=calibrated, prior=prior,
                   distances=distances, trajectories=groups)


def syn1_dataset(scale: str = "small", seed: int = 17, **overrides) -> Dataset:
    """The paper's SYN1 dataset (four-floor building) at the given scale."""
    durations, per_duration = SCALES[scale]
    return build_dataset(syn1_building(), name=f"SYN1[{scale}]",
                         durations=durations, per_duration=per_duration,
                         seed=seed, **overrides)


def syn2_dataset(scale: str = "small", seed: int = 29, **overrides) -> Dataset:
    """The paper's SYN2 dataset (eight-floor building) at the given scale."""
    durations, per_duration = SCALES[scale]
    return build_dataset(syn2_building(), name=f"SYN2[{scale}]",
                         durations=durations, per_duration=per_duration,
                         seed=seed, **overrides)
