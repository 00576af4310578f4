"""Calibration of the detection matrix ``F[r, c]`` (Section 6.2).

The paper obtains ``F`` physically: a tag is held inside each 0.5 m grid
cell for 30 seconds and ``F[r, c]`` is the fraction of the 30 one-second
epochs in which reader ``r`` detected it.  :func:`calibrate` simulates that
procedure verbatim on the expected matrix of a
:class:`~repro.rfid.readers.ReaderModel` — the resulting matrix carries
genuine sampling noise, exactly like a physical calibration would.
:func:`exact_matrix` returns those expected probabilities (the reading
generator's ``F``, which the paper treats as ground truth).

:func:`exact_matrix` is one numpy pass per reader that is bit-identical to
filling every entry from :meth:`ReaderModel.detection_probability`: the
radial distance comes from ``math.hypot`` (``np.hypot`` rounds differently
in the last bit for a fraction of inputs), and the wall-crossing predicate
is :meth:`Segment.intersects` plus the endpoint-touch rule of
:meth:`Building.walls_between`, broadcast over ``walls x cells`` with the
same tolerances and the same floating-point operations in the same order.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

try:
    import numpy as np
except ImportError:  # pragma: no cover - no-numpy environments
    from repro.optional import missing_dependency

    np = missing_dependency("numpy", "repro[numpy]")  # type: ignore[assignment]

from repro.errors import CalibrationError
from repro.geometry import ORIENTATION_TOLERANCE
from repro.mapmodel.building import WALL_TOUCH_TOLERANCE
from repro.mapmodel.grid import Grid
from repro.rfid.readers import Reader, ReaderModel

__all__ = ["DetectionMatrix", "exact_matrix", "calibrate"]

#: The paper's calibration duration: 30 one-second epochs per cell.
DEFAULT_CALIBRATION_EPOCHS = 30


class DetectionMatrix:
    """The matrix ``F[r, c]``: readers on rows, grid cells on columns.

    ``F[r, c]`` is interpreted as the probability that a tag staying in cell
    ``c`` for one timestep is detected by reader ``r`` (readers behave
    independently).  The matrix is the single interface between the physical
    substrate and the probabilistic machinery: both the prior model and the
    reading generator consume it.
    """

    def __init__(self, values: np.ndarray, grid: Grid, reader_names) -> None:
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2:
            raise CalibrationError(f"F must be 2-D, got shape {values.shape}")
        if values.shape[0] != len(reader_names):
            raise CalibrationError(
                f"F has {values.shape[0]} rows but {len(reader_names)} readers")
        if values.shape[1] != grid.num_cells:
            raise CalibrationError(
                f"F has {values.shape[1]} columns but the grid has "
                f"{grid.num_cells} cells")
        if not np.all(np.isfinite(values)):
            raise CalibrationError("F entries must be finite")
        if np.any(values < 0.0) or np.any(values > 1.0):
            raise CalibrationError("F entries must be probabilities in [0, 1]")
        self.values = values
        self.grid = grid
        self.reader_names = tuple(reader_names)
        self._reader_index = {name: i for i, name in enumerate(self.reader_names)}

    @property
    def num_readers(self) -> int:
        return self.values.shape[0]

    @property
    def num_cells(self) -> int:
        return self.values.shape[1]

    def reader_row(self, name: str) -> np.ndarray:
        """The per-cell detection probabilities of reader ``name``."""
        try:
            return self.values[self._reader_index[name]]
        except KeyError:
            raise CalibrationError(f"unknown reader {name!r}") from None

    def cell_column(self, cell_index: int) -> np.ndarray:
        """The per-reader detection probabilities for one cell."""
        return self.values[:, cell_index]

    def coverage(self) -> np.ndarray:
        """Per-cell probability of being detected by at least one reader."""
        return 1.0 - np.prod(1.0 - self.values, axis=0)


def exact_matrix(model: ReaderModel, grid: Grid) -> DetectionMatrix:
    """The expected detection matrix implied by the reader model.

    Bit-identical to ``F[r, c] = model.detection_probability(reader_r,
    cell_c.floor, cell_c.center)`` for every entry.
    """
    values = np.zeros((len(model), grid.num_cells), dtype=np.float64)
    floors = np.fromiter((cell.floor for cell in grid.cells), dtype=np.int64,
                         count=grid.num_cells)
    xs = np.fromiter((cell.center.x for cell in grid.cells),
                     dtype=np.float64, count=grid.num_cells)
    ys = np.fromiter((cell.center.y for cell in grid.cells),
                     dtype=np.float64, count=grid.num_cells)
    walls: Dict[int, np.ndarray] = {
        floor: np.array([(w.a.x, w.a.y, w.b.x, w.b.y)
                         for w in model.building.walls_on(floor)],
                        dtype=np.float64).reshape(-1, 4)
        for floor in model.building.floors}
    # wall_attenuation ** 0 == 1.0, so walls == 0 keeps ``base`` exactly.
    most_walls = max(len(floor_walls) for floor_walls in walls.values())
    attenuation = np.array([model.wall_attenuation ** k
                            for k in range(most_walls + 1)])
    for r, reader in enumerate(model.readers):
        on_floor = np.flatnonzero(floors == reader.floor)
        if on_floor.size == 0:
            continue
        in_range, base = _base_probabilities(reader, xs[on_floor],
                                             ys[on_floor])
        cells = on_floor[in_range]
        crossed = _walls_crossed(walls[reader.floor], reader.position.x,
                                 reader.position.y, xs[cells], ys[cells])
        values[r, cells] = base * attenuation[crossed]
    return DetectionMatrix(values, grid, model.reader_names)


#: Relative slack of the ``np.hypot`` screen: far above its rounding error.
_SCREEN_SLACK = 1.0 + 1e-9


def _exact_hypot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Elementwise ``math.hypot``, the scalar model's distance."""
    return np.fromiter(map(math.hypot, x.tolist(), y.tolist()),
                       dtype=np.float64, count=x.size)


def _hypot_below(x: np.ndarray, y: np.ndarray, limit: float) -> np.ndarray:
    """Elementwise ``math.hypot(x, y) < limit``.

    ``np.hypot`` screens out every pair clearly beyond ``limit`` (it is
    within a few ulps of ``math.hypot``); the survivors are decided by
    ``math.hypot`` itself.
    """
    below = np.hypot(x, y) < limit * _SCREEN_SLACK
    candidates = np.flatnonzero(below)
    below[candidates] = _exact_hypot(x[candidates], y[candidates]) < limit
    return below


def _base_probabilities(reader: Reader, xs: np.ndarray,
                        ys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The positions with a non-zero three-state probability, and that
    probability (:meth:`Reader.base_probability` on the exact distance)."""
    dx = reader.position.x - xs
    dy = reader.position.y - ys
    near = np.flatnonzero(
        np.hypot(dx, dy) < reader.max_radius * _SCREEN_SLACK)
    distance = _exact_hypot(dx[near], dy[near])
    base = np.zeros(near.size, dtype=np.float64)
    major = distance <= reader.major_radius
    minor = ~major & (distance < reader.max_radius)
    base[major] = reader.major_probability
    span = reader.max_radius - reader.major_radius
    base[minor] = (reader.major_probability
                   * (reader.max_radius - distance[minor]) / span)
    kept = base != 0.0
    return near[kept], base[kept]


def _orientation(value: np.ndarray) -> np.ndarray:
    """``geometry._orientation`` of precomputed cross products."""
    sign = np.sign(value).astype(np.int8)
    sign[np.abs(value) < ORIENTATION_TOLERANCE] = 0
    return sign


def _on_segment(px, py, qx, qy, rx, ry) -> np.ndarray:
    """``geometry._on_segment(p, q, r)`` on broadcast coordinates."""
    tol = ORIENTATION_TOLERANCE
    return ((np.minimum(px, rx) - tol <= qx) & (qx <= np.maximum(px, rx) + tol)
            & (np.minimum(py, ry) - tol <= qy)
            & (qy <= np.maximum(py, ry) + tol))


def _touches(walls: np.ndarray, px, py) -> np.ndarray:
    """``wall.distance_to_point(p) < WALL_TOUCH_TOLERANCE``, broadcast."""
    ax, ay, bx, by = walls.T
    dx, dy = bx - ax, by - ay
    # Footprint edges have positive length: norm_sq is never 0.
    t = ((px - ax) * dx + (py - ay) * dy) / (dx * dx + dy * dy)
    t = np.minimum(1.0, np.maximum(0.0, t))
    return _hypot_below(px - (ax + t * dx), py - (ay + t * dy),
                        WALL_TOUCH_TOLERANCE)


def _walls_crossed(walls: np.ndarray, px: float, py: float,
                   cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
    """Per cell, ``Building.walls_between(floor, P, cell centre)``.

    ``walls`` rows are ``(ax, ay, bx, by)`` in :meth:`Building.walls_on`
    order; the path runs from ``P = (px, py)`` to each cell centre.
    """
    ax, ay, bx, by = walls.T[:, :, None]
    # Segment(P, C).intersects(Segment(A, B)) with o1..o4 as there.
    o1 = _orientation((cy - py) * (ax - cx) - (cx - px) * (ay - cy))
    o2 = _orientation((cy - py) * (bx - cx) - (cx - px) * (by - cy))
    o3 = _orientation((by - ay) * (px - bx) - (bx - ax) * (py - by))
    o4 = _orientation((by - ay) * (cx - bx) - (bx - ax) * (cy - by))
    crossing = (o1 != o2) & (o3 != o4)
    crossing |= (o1 == 0) & _on_segment(px, py, ax, ay, cx, cy)
    crossing |= (o2 == 0) & _on_segment(px, py, bx, by, cx, cy)
    crossing |= (o3 == 0) & _on_segment(ax, ay, px, py, bx, by)
    crossing |= (o4 == 0) & _on_segment(ax, ay, cx, cy, bx, by)
    # _properly_crosses: a path touching a wall at either endpoint does not
    # cross it.  The reader end is one test per wall; the cell end is only
    # measured where a crossing is still in question.
    crossing &= ~_touches(walls, px, py)[:, None]
    w, c = np.nonzero(crossing)
    crossing[w, c] = ~_touches(walls[w], cx[c], cy[c])
    return crossing.sum(axis=0)


def calibrate(true_matrix: DetectionMatrix, *,
              epochs: int = DEFAULT_CALIBRATION_EPOCHS,
              rng: Optional[np.random.Generator] = None) -> DetectionMatrix:
    """Simulate the paper's calibration run on the exact matrix.

    For each cell, a tag is 'held' in the cell for ``epochs`` independent
    one-second epochs and each reader's detections are counted;
    ``F[r, c] = detections / epochs`` where each epoch detects with
    probability ``true_matrix[r, c]`` (the :func:`exact_matrix` of the
    deployment).  Deterministic given ``rng``.
    """
    if not isinstance(true_matrix, DetectionMatrix):
        raise CalibrationError(
            "calibrate takes the exact detection matrix: "
            "calibrate(exact_matrix(model, grid), epochs=..., rng=...), "
            f"got {type(true_matrix).__name__}")
    if epochs < 1:
        raise CalibrationError(f"epochs must be >= 1, got {epochs}")
    if rng is None:
        rng = np.random.default_rng()
    counts = rng.binomial(epochs, true_matrix.values)
    return DetectionMatrix(counts / float(epochs), true_matrix.grid,
                           true_matrix.reader_names)
