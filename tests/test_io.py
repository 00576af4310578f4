"""Round-trip tests for the serialization package."""

import json

import pytest

np = pytest.importorskip("numpy", exc_type=ImportError)

from repro.core.algorithm import build_ct_graph
from repro.core.constraints import (
    ConstraintSet,
    Latency,
    TravelingTime,
    Unreachable,
)
from repro.core.lsequence import LSequence, ReadingSequence
from repro.errors import CalibrationError, ReproError
from repro.io.graphs import ctgraph_to_dot, flatgraph_to_dict, save_ctgraph
from repro.io.jsonio import (
    load_building,
    load_constraints,
    load_readings,
    load_trajectory,
    save_building,
    save_constraints,
    save_readings,
    save_trajectory,
)
from repro.io.matrices import load_matrix, save_matrix
from repro.mapmodel.grid import Grid
from repro.rfid.calibration import calibrate, exact_matrix
from repro.rfid.readers import place_default_readers
from repro.simulation.trajectories import TrajectoryGenerator


class TestBuildingRoundTrip:
    def test_round_trip_preserves_structure(self, two_floors, tmp_path):
        path = tmp_path / "building.json"
        save_building(two_floors, path)
        loaded = load_building(path)
        assert loaded.name == two_floors.name
        assert loaded.location_names == two_floors.location_names
        for name in two_floors.location_names:
            original = two_floors.location(name)
            copy = loaded.location(name)
            assert copy.floor == original.floor
            assert copy.kind == original.kind
            assert copy.rect == original.rect
            assert loaded.neighbors(name) == two_floors.neighbors(name)
        flights = [d for d in loaded.doors if d.length > 0]
        assert len(flights) == 1

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ReproError):
            load_building(path)


class TestConstraintsRoundTrip:
    def test_round_trip(self, tmp_path):
        constraints = ConstraintSet([
            Unreachable("A", "B"), TravelingTime("A", "C", 4),
            Latency("B", 3),
        ])
        path = tmp_path / "ic.json"
        save_constraints(constraints, path)
        loaded = load_constraints(path)
        assert set(map(str, loaded)) == set(map(str, constraints))
        assert loaded.latency_of("B") == 3
        assert loaded.traveling_time("A", "C") == 4

    def test_empty_set(self, tmp_path):
        path = tmp_path / "ic.json"
        save_constraints(ConstraintSet(), path)
        assert len(load_constraints(path)) == 0


class TestReadingsRoundTrip:
    def test_round_trip(self, tmp_path):
        readings = ReadingSequence.from_reader_sets(
            [{"a", "b"}, set(), {"c"}])
        path = tmp_path / "readings.json"
        save_readings(readings, path)
        loaded = load_readings(path)
        assert loaded.duration == 3
        assert [r.readers for r in loaded] == [r.readers for r in readings]


class TestTrajectoryRoundTrip:
    def test_round_trip(self, one_floor, tmp_path, rng):
        truth = TrajectoryGenerator(one_floor, rng=rng).generate(50)
        path = tmp_path / "truth.json"
        save_trajectory(truth, path)
        loaded = load_trajectory(path, one_floor)
        assert loaded.locations == truth.locations
        assert loaded.floors == truth.floors
        assert loaded.points == truth.points

    def test_building_mismatch_rejected(self, one_floor, two_floors,
                                        tmp_path, rng):
        truth = TrajectoryGenerator(one_floor, rng=rng).generate(10)
        path = tmp_path / "truth.json"
        save_trajectory(truth, path)
        with pytest.raises(ReproError):
            load_trajectory(path, two_floors)


class TestMatrixRoundTrip:
    def test_round_trip(self, two_rooms, tmp_path):
        grid = Grid(two_rooms, 1.0)
        readers = place_default_readers(two_rooms)
        matrix = calibrate(exact_matrix(readers, grid),
                           rng=np.random.default_rng(1))
        path = tmp_path / "matrix.npz"
        save_matrix(matrix, path)
        loaded = load_matrix(path, two_rooms)
        assert np.array_equal(loaded.values, matrix.values)
        assert loaded.reader_names == matrix.reader_names
        assert loaded.grid.num_cells == matrix.grid.num_cells

    def test_wrong_building_rejected(self, two_rooms, corridor4, tmp_path):
        grid = Grid(two_rooms, 1.0)
        readers = place_default_readers(two_rooms)
        matrix = calibrate(exact_matrix(readers, grid),
                           rng=np.random.default_rng(1))
        path = tmp_path / "matrix.npz"
        save_matrix(matrix, path)
        with pytest.raises(ReproError):
            load_matrix(path, corridor4)

    def test_non_finite_values_rejected(self, two_rooms, tmp_path):
        grid = Grid(two_rooms, 1.0)
        readers = place_default_readers(two_rooms)
        path = tmp_path / "matrix.npz"
        save_matrix(exact_matrix(readers, grid), path)
        with np.load(path, allow_pickle=False) as archive:
            fields = {key: archive[key] for key in archive.files}
        fields["values"][0, 0] = np.nan
        np.savez_compressed(path, **fields)
        with pytest.raises(CalibrationError, match="finite"):
            load_matrix(path, two_rooms)


class TestCtGraphExport:
    @pytest.fixture
    def graph(self):
        ls = LSequence([{"A": 0.5, "B": 0.5}, {"B": 1.0}, {"B": 0.5, "C": 0.5}])
        cs = ConstraintSet([Unreachable("A", "C")])
        return build_ct_graph(ls, cs)

    def test_dict_is_self_consistent(self, graph):
        payload = flatgraph_to_dict(graph)
        assert payload["duration"] == graph.duration
        assert sum(map(len, payload["locations"])) == graph.num_nodes
        assert sum(map(len, payload["edge_children"])) == graph.num_edges
        for tau, children in enumerate(payload["edge_children"]):
            assert payload["edge_offsets"][tau][-1] == len(children)
            for child in children:
                assert 0 <= child < len(payload["locations"][tau + 1])
        assert sum(payload["source_probabilities"]) == pytest.approx(1.0)

    def test_save_produces_valid_json(self, graph, tmp_path):
        path = tmp_path / "graph.json"
        save_ctgraph(graph, path)
        payload = json.loads(path.read_text())
        assert payload["format"] == "rfid-ctg/flatgraph@1"

    def test_dot_output(self, graph):
        dot = ctgraph_to_dot(graph)
        assert dot.startswith("digraph")
        assert dot.count("->") == graph.num_edges
        assert dot.count("[label=\"t=") == graph.num_nodes
        assert "lightblue" in dot  # sources highlighted
        assert "TL=" not in dot  # the flat graph carries no departures

    def test_dot_refuses_large_graphs(self, graph):
        with pytest.raises(ValueError):
            ctgraph_to_dot(graph, max_nodes=1)
