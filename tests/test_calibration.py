"""Tests for the detection-matrix calibration (Section 6.2 procedure)."""

import hashlib
import math
import sys

import pytest

np = pytest.importorskip("numpy", exc_type=ImportError)

from hypothesis import given, settings, strategies as st

from repro.errors import CalibrationError
from repro.geometry import Point
from repro.mapmodel.grid import Grid
from repro.mapmodel.random_plans import random_building
from repro.rfid import calibration
from repro.rfid.calibration import DetectionMatrix, calibrate, exact_matrix
from repro.rfid.readers import Reader, ReaderModel, place_default_readers
from repro.simulation import datasets


@pytest.fixture
def setup(two_rooms):
    grid = Grid(two_rooms, 1.0)
    model = place_default_readers(two_rooms)
    return two_rooms, grid, model


class TestDetectionMatrix:
    def test_shape_validation(self, setup):
        _, grid, model = setup
        with pytest.raises(CalibrationError):
            DetectionMatrix(np.zeros((3,)), grid, model.reader_names)
        with pytest.raises(CalibrationError):
            DetectionMatrix(np.zeros((len(model) + 1, grid.num_cells)),
                            grid, model.reader_names)
        with pytest.raises(CalibrationError):
            DetectionMatrix(np.zeros((len(model), grid.num_cells + 5)),
                            grid, model.reader_names)

    def test_probability_range_validation(self, setup):
        _, grid, model = setup
        bad = np.full((len(model), grid.num_cells), 1.5)
        with pytest.raises(CalibrationError):
            DetectionMatrix(bad, grid, model.reader_names)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_rejected(self, setup, bad):
        # NaN compares false against both bounds of the range check.
        _, grid, model = setup
        values = np.zeros((len(model), grid.num_cells))
        values[0, 0] = bad
        with pytest.raises(CalibrationError, match="finite"):
            DetectionMatrix(values, grid, model.reader_names)

    def test_row_and_column_access(self, setup):
        _, grid, model = setup
        matrix = exact_matrix(model, grid)
        name = model.reader_names[0]
        row = matrix.reader_row(name)
        assert row.shape == (grid.num_cells,)
        column = matrix.cell_column(0)
        assert column.shape == (len(model),)
        with pytest.raises(CalibrationError):
            matrix.reader_row("nope")

    def test_coverage_bounds(self, setup):
        _, grid, model = setup
        coverage = exact_matrix(model, grid).coverage()
        assert coverage.shape == (grid.num_cells,)
        assert np.all(coverage >= 0.0) and np.all(coverage <= 1.0)


class TestExactMatrix:
    def test_values_match_model(self, setup):
        _, grid, model = setup
        matrix = exact_matrix(model, grid)
        reader = model.readers[0]
        cell = grid.cells[0]
        assert matrix.values[0, 0] == pytest.approx(
            model.detection_probability(reader, cell.floor, cell.center))

    def test_near_cells_are_covered(self, setup):
        _, grid, model = setup
        matrix = exact_matrix(model, grid)
        # Each reader's own cell should be in the major region.
        for r, reader in enumerate(model.readers):
            cell = grid.cell_at(reader.floor, reader.position)
            assert matrix.values[r, cell.index] == pytest.approx(
                reader.major_probability)


class TestCalibrate:
    def test_deterministic_given_rng(self, setup):
        _, grid, model = setup
        exact = exact_matrix(model, grid)
        a = calibrate(exact, rng=np.random.default_rng(3))
        b = calibrate(exact, rng=np.random.default_rng(3))
        assert np.array_equal(a.values, b.values)

    def test_bad_epochs_rejected(self, setup):
        _, grid, model = setup
        with pytest.raises(CalibrationError):
            calibrate(exact_matrix(model, grid), epochs=0)

    def test_takes_the_exact_matrix(self, setup):
        _, grid, model = setup
        exact = exact_matrix(model, grid)
        matrix = calibrate(exact, rng=np.random.default_rng(4))
        assert matrix.grid is grid
        assert matrix.reader_names == exact.reader_names

    def test_reader_model_rejected_with_the_call_form(self, setup):
        _, _, model = setup
        with pytest.raises(CalibrationError,
                           match=r"calibrate\(exact_matrix\(model, grid\)"):
            calibrate(model)

    def test_values_are_multiples_of_one_over_epochs(self, setup):
        _, grid, model = setup
        matrix = calibrate(exact_matrix(model, grid), epochs=10,
                           rng=np.random.default_rng(0))
        scaled = matrix.values * 10
        assert np.allclose(scaled, np.round(scaled))

    def test_converges_to_exact_with_many_epochs(self, setup):
        _, grid, model = setup
        exact = exact_matrix(model, grid)
        noisy = calibrate(exact, epochs=20000, rng=np.random.default_rng(1))
        assert np.max(np.abs(noisy.values - exact.values)) < 0.03

    def test_zero_probability_stays_zero(self, setup):
        _, grid, model = setup
        exact = exact_matrix(model, grid)
        noisy = calibrate(exact, rng=np.random.default_rng(2))
        assert np.all(noisy.values[exact.values == 0.0] == 0.0)


def scalar_matrix(model, grid):
    """``F`` filled cell by cell from the per-point reader model."""
    values = np.zeros((len(model), grid.num_cells))
    for r, reader in enumerate(model.readers):
        for cell in grid.cells:
            values[r, cell.index] = model.detection_probability(
                reader, cell.floor, cell.center)
    return values


@st.composite
def deployments(draw):
    """A random building, its grid and readers on walls (corners, wall-line
    extensions, just off the wall), door points, cell centres and free
    positions."""
    building = random_building(
        num_floors=draw(st.integers(1, 2)),
        rooms_x=draw(st.integers(1, 3)), rooms_y=2,
        # 2.5 and 4.5 m rooms put cell centres on wall lines.
        room_size=draw(st.sampled_from([2.5, 3.0, 4.5, 5.0])),
        rng=np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    grid = Grid(building, draw(st.sampled_from([0.75, 1.0])))
    doors = [door for door in building.doors if door.point_a == door.point_b]
    readers = []
    for i in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["wall", "door", "cell", "free"]))
        if kind == "door" and doors:
            door = draw(st.sampled_from(doors))
            floor = building.location(door.loc_a).floor
            position = door.point_a
        elif kind == "cell":
            cell = grid.cells[draw(st.integers(0, grid.num_cells - 1))]
            floor, position = cell.floor, cell.center
        else:
            location = draw(st.sampled_from(building.locations))
            floor = location.floor
            if kind == "free":
                rect = building.floor_bounds(floor)
                position = Point(
                    draw(st.floats(rect.x0 - 1.0, rect.x1 + 1.0)),
                    draw(st.floats(rect.y0 - 1.0, rect.y1 + 1.0)))
            else:
                # On a wall or its extension, on it or just off it: the
                # collinear and endpoint-touch tolerances decide these.
                edge = list(location.rect.edges())[draw(st.integers(0, 3))]
                t = draw(st.sampled_from([0.0, 0.5, 1.0])
                         | st.floats(-1.0, 2.0))
                off = draw(st.sampled_from(
                    [0.0, 1e-13, -1e-11, 5e-10, -2e-9, 1e-6]))
                dx, dy = edge.b.x - edge.a.x, edge.b.y - edge.a.y
                norm = math.hypot(dx, dy)
                position = Point(edge.a.x + t * dx - off * dy / norm,
                                 edge.a.y + t * dy + off * dx / norm)
        major = draw(st.floats(0.25, 4.0))
        readers.append(Reader(
            name=f"r{i}", floor=floor, position=position,
            major_radius=major,
            max_radius=major + draw(st.sampled_from([0.0, 3.0])
                                    | st.floats(0.0, 4.0)),
            major_probability=draw(st.floats(0.05, 1.0))))
    attenuation = draw(st.sampled_from([0.0, 0.55, 1.0]) | st.floats(0.0, 1.0))
    return ReaderModel(building, readers, wall_attenuation=attenuation), grid


class TestExactMatrixParity:
    """``exact_matrix`` is the scalar reader model, bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(deployments())
    def test_equals_the_scalar_model_bitwise(self, deployment):
        model, grid = deployment
        assert np.array_equal(exact_matrix(model, grid).values,
                              scalar_matrix(model, grid))

    def test_default_deployment_bitwise(self, one_floor):
        grid = Grid(one_floor, 0.5)
        model = place_default_readers(one_floor)
        assert np.array_equal(exact_matrix(model, grid).values,
                              scalar_matrix(model, grid))


def _fingerprints(dataset):
    readings = hashlib.sha256()
    for generated in dataset.all_trajectories():
        for reading in generated.readings:
            readings.update(
                f"{reading.time}:{','.join(sorted(reading.readers))}\n"
                .encode())
    return (hashlib.sha256(dataset.true_matrix.values.tobytes()).hexdigest(),
            hashlib.sha256(
                dataset.calibrated_matrix.values.tobytes()).hexdigest(),
            readings.hexdigest())


class TestDatasetFingerprints:
    """SYN1/SYN2 matrices and readings, pinned from the per-cell scalar
    computation of ``F``: the vectorised build must reproduce them."""

    @pytest.mark.skipif(
        sys.version_info < (3, 10),
        reason="math.hypot rounds differently before CPython 3.10; the "
               "pins were taken with the 3.10+ implementation")
    @pytest.mark.parametrize("make, expected", [
        (datasets.syn1_dataset, (
            "31f1a767a0e5b1c16e21b0a48c3f36c025c86f1da67736cfa46405028e315b42",
            "2a270a57ad13521d31784fa49542f202deb030ba5d4d6b49fadb12c98d154c65",
            "9a6a9b72b8a9e9adbd427e2709ce968a11cbeccd901a452d5f6360254ea1e350",
        )),
        (datasets.syn2_dataset, (
            "d6fd6c9ce44a1b65f46154b27985ce72ea6ef63cc43e80d23004890dd86854ea",
            "5c575819ec491e00ca3faeef6522e8184f25da33d89a8e6aa65fc0ac06656540",
            "7eaa2aaafaaae301dbfcc9135e60a2cc4f49144995d89a087acee9ab7f23d517",
        )),
    ], ids=["syn1", "syn2"])
    def test_tiny_fingerprints(self, make, expected):
        assert _fingerprints(make("tiny")) == expected

    def test_exact_matrix_runs_once_per_dataset(self, two_rooms, monkeypatch):
        calls = []

        def counting(model, grid):
            calls.append(grid)
            return exact_matrix(model, grid)

        monkeypatch.setattr(datasets, "exact_matrix", counting)
        monkeypatch.setattr(calibration, "exact_matrix", counting)
        datasets.build_dataset(two_rooms, durations=(5,), per_duration=1)
        assert len(calls) == 1
