"""Tests for the grid partitioning of a building."""

import pytest

from repro.errors import MapModelError
from repro.geometry import Point
from repro.mapmodel.grid import Grid
from repro.mapmodel.random_plans import random_building


class TestGridConstruction:
    def test_bad_cell_size_rejected(self, two_rooms):
        with pytest.raises(MapModelError):
            Grid(two_rooms, 0.0)
        with pytest.raises(MapModelError):
            Grid(two_rooms, -1.0)

    def test_cell_count_matches_area(self, two_rooms):
        # Two 5x5 rooms at 0.5 m cells: (10 * 10) * 2 = 200 cells.
        grid = Grid(two_rooms, 0.5)
        assert grid.num_cells == 200

    def test_cells_split_between_rooms(self, two_rooms):
        grid = Grid(two_rooms, 0.5)
        assert len(grid.cells_of("A")) == 100
        assert len(grid.cells_of("B")) == 100

    def test_cells_of_unknown_location(self, two_rooms):
        grid = Grid(two_rooms)
        with pytest.raises(MapModelError):
            grid.cells_of("Z")

    def test_indices_are_dense_and_ordered(self, two_rooms):
        grid = Grid(two_rooms, 1.0)
        indices = [cell.index for cell in grid.cells]
        assert indices == list(range(grid.num_cells))


class TestCellLookup:
    def test_cell_at_returns_containing_cell(self, two_rooms):
        grid = Grid(two_rooms, 0.5)
        cell = grid.cell_at(0, Point(0.6, 0.6))
        assert cell is not None
        assert cell.location == "A"
        assert cell.center == Point(0.75, 0.75)

    def test_cell_at_other_room(self, two_rooms):
        grid = Grid(two_rooms, 0.5)
        cell = grid.cell_at(0, Point(9.9, 4.9))
        assert cell is not None
        assert cell.location == "B"

    def test_cell_at_outside_returns_none(self, two_rooms):
        grid = Grid(two_rooms, 0.5)
        assert grid.cell_at(0, Point(50, 50)) is None
        assert grid.cell_at(7, Point(1, 1)) is None

    def test_round_trip_center(self, one_floor):
        grid = Grid(one_floor, 0.5)
        for cell in list(grid.cells)[::37]:
            looked_up = grid.cell_at(cell.floor, cell.center)
            assert looked_up is not None
            assert looked_up.index == cell.index

    def test_cells_take_location_at_tie_break(self):
        np = pytest.importorskip("numpy", exc_type=ImportError)
        # 2.5 m rooms on a 1 m grid put cell centres on shared walls, where
        # the first location in insertion order must win.
        building = random_building(num_floors=2, rooms_x=3, rooms_y=2,
                                   room_size=2.5,
                                   rng=np.random.default_rng(0))
        grid = Grid(building, 1.0)
        on_walls = 0
        for cell in grid.cells:
            assert cell.location == building.location_at(cell.floor,
                                                         cell.center)
            on_walls += sum(loc.rect.contains(cell.center) for loc in
                            building.locations_on_floor(cell.floor)) > 1
        assert on_walls > 0


class TestLocationIndexArray:
    def test_matches_cell_assignment(self, two_rooms):
        pytest.importorskip("numpy", exc_type=ImportError)  # the index array is an ndarray
        grid = Grid(two_rooms, 1.0)
        ids = grid.location_index_array()
        names = two_rooms.location_names
        for cell in grid.cells:
            assert names[ids[cell.index]] == cell.location

    def test_multi_floor_cells_have_floor_tags(self, two_floors):
        grid = Grid(two_floors, 1.0)
        floors = {cell.floor for cell in grid.cells}
        assert floors == {0, 1}
