"""Grid partitioning of a building into square cells (Section 6.2).

The paper partitions the map into a regular grid of 0.5 m x 0.5 m cells and
expresses both the reader-calibration matrix ``F[r, c]`` and the reading
generator in terms of cells.  :class:`Grid` enumerates, for every floor of a
building, the cells whose centre falls inside some location footprint, and
provides the cell <-> location and point -> cell mappings everything else
needs.

Cells are identified by a dense integer index (0 .. n_cells-1) so that the
calibration matrix can be a plain numpy array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

try:
    import numpy as np
except ImportError:  # pragma: no cover - no-numpy environments
    from repro.optional import missing_dependency

    np = missing_dependency("numpy", "repro[numpy]")  # type: ignore[assignment]

from repro.errors import MapModelError
from repro.geometry import Point
from repro.mapmodel.building import Building

__all__ = ["Cell", "Grid", "DEFAULT_CELL_SIZE"]

#: The paper's grid resolution: half-metre square cells.
DEFAULT_CELL_SIZE = 0.5


@dataclass(frozen=True)
class Cell:
    """One grid cell: its dense index, floor, integer grid coordinates,
    centre point and the location containing it."""

    index: int
    floor: int
    ix: int
    iy: int
    center: Point
    location: str


class Grid:
    """The cell partitioning of a building.

    Only cells whose centre lies inside a location footprint are
    materialised; hallway gaps and the outside of the building produce no
    cells.  Cell ordering is deterministic: by floor, then row-major.
    """

    def __init__(self, building: Building, cell_size: float = DEFAULT_CELL_SIZE) -> None:
        if cell_size <= 0:
            raise MapModelError(f"cell size must be positive, got {cell_size}")
        self.building = building
        self.cell_size = cell_size
        self._cells: List[Cell] = []
        self._by_location: Dict[str, List[int]] = {
            name: [] for name in building.location_names
        }
        # (floor, ix, iy) -> dense index, for point lookups.
        self._by_coords: Dict[Tuple[int, int, int], int] = {}
        self._origins: Dict[int, Tuple[float, float]] = {}
        self._materialize()

    def _materialize(self) -> None:
        size = self.cell_size
        for floor in self.building.floors:
            bounds = self.building.floor_bounds(floor)
            self._origins[floor] = (bounds.x0, bounds.y0)
            nx = int(math.ceil((bounds.x1 - bounds.x0) / size))
            ny = int(math.ceil((bounds.y1 - bounds.y0) / size))
            # Building.location_at's lookup with the floor's footprints
            # hoisted: the first location in insertion order wins.
            footprints = [(loc.name, loc.rect)
                          for loc in self.building.locations_on_floor(floor)]
            for iy in range(ny):
                for ix in range(nx):
                    center = Point(bounds.x0 + (ix + 0.5) * size,
                                   bounds.y0 + (iy + 0.5) * size)
                    location = next((name for name, rect in footprints
                                     if rect.contains(center)), None)
                    if location is None:
                        continue
                    index = len(self._cells)
                    cell = Cell(index=index, floor=floor, ix=ix, iy=iy,
                                center=center, location=location)
                    self._cells.append(cell)
                    self._by_location[location].append(index)
                    self._by_coords[(floor, ix, iy)] = index
        if not self._cells:
            raise MapModelError("grid contains no cells; check the building footprints")

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def cells(self) -> Sequence[Cell]:
        return self._cells

    @property
    def num_cells(self) -> int:
        return len(self._cells)

    def cell(self, index: int) -> Cell:
        return self._cells[index]

    def cells_of(self, location: str) -> Sequence[int]:
        """Dense indices of the cells inside ``location`` (the paper's Cells(l))."""
        if location not in self._by_location:
            raise MapModelError(f"unknown location {location!r}")
        return self._by_location[location]

    def cell_at(self, floor: int, point: Point) -> Optional[Cell]:
        """The cell containing ``point`` on ``floor``, or ``None``.

        A point on the boundary of the floor's footprint can fall into a grid
        square whose centre is outside every location; such points map to
        ``None`` just like points outside the building.
        """
        if floor not in self._origins:
            return None
        ox, oy = self._origins[floor]
        ix = int((point.x - ox) / self.cell_size)
        iy = int((point.y - oy) / self.cell_size)
        index = self._by_coords.get((floor, ix, iy))
        if index is None:
            return None
        return self._cells[index]

    def location_index_array(self) -> np.ndarray:
        """Per-cell location ids (indices into ``building.location_names``).

        This is the vectorisation backbone for the prior model: summing a
        per-cell weight vector by location becomes a ``np.bincount``.
        """
        location_ids = {name: i for i, name in
                        enumerate(self.building.location_names)}
        return np.fromiter((location_ids[cell.location] for cell in self._cells),
                           dtype=np.int64, count=len(self._cells))

    def __repr__(self) -> str:
        return (f"Grid(cells={self.num_cells}, size={self.cell_size}, "
                f"building={self.building.name!r})")
