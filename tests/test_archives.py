"""Round-trip tests for dataset archives."""

import json

import pytest

np = pytest.importorskip("numpy", exc_type=ImportError)

from repro.core.algorithm import build_ct_graph
from repro.core.lsequence import LSequence
from repro.errors import ReproError
from repro.inference import MotilityProfile, infer_constraints
from repro.io.archives import load_dataset, save_dataset
from repro.io.jsonio import load_readers, save_readers
from repro.rfid.readers import place_default_readers
from repro.queries.stay import stay_query


class TestReadersRoundTrip:
    def test_round_trip(self, two_rooms, tmp_path):
        model = place_default_readers(two_rooms)
        path = tmp_path / "readers.json"
        save_readers(model, path)
        loaded = load_readers(path, two_rooms)
        assert loaded.reader_names == model.reader_names
        assert loaded.wall_attenuation == model.wall_attenuation
        for a, b in zip(loaded.readers, model.readers):
            assert a == b


class TestDatasetArchive:
    def test_round_trip_preserves_everything(self, tiny_dataset, tmp_path):
        root = tmp_path / "archive"
        save_dataset(tiny_dataset, root)
        loaded = load_dataset(root)

        assert loaded.name == tiny_dataset.name
        assert loaded.durations == tiny_dataset.durations
        assert np.array_equal(loaded.true_matrix.values,
                              tiny_dataset.true_matrix.values)
        assert np.array_equal(loaded.calibrated_matrix.values,
                              tiny_dataset.calibrated_matrix.values)
        assert loaded.grid.num_cells == tiny_dataset.grid.num_cells
        for duration in tiny_dataset.durations:
            originals = tiny_dataset.trajectories[duration]
            copies = loaded.trajectories[duration]
            assert len(copies) == len(originals)
            for original, copy in zip(originals, copies):
                assert copy.truth.locations == original.truth.locations
                assert [r.readers for r in copy.readings] == \
                    [r.readers for r in original.readings]

    def test_loaded_dataset_cleans_identically(self, tiny_dataset, tmp_path):
        root = tmp_path / "archive"
        save_dataset(tiny_dataset, root)
        loaded = load_dataset(root)

        constraints = infer_constraints(loaded.building, MotilityProfile(),
                                        kinds=("DU", "LT"),
                                        distances=loaded.distances)
        original_traj = tiny_dataset.all_trajectories()[0]
        loaded_traj = loaded.all_trajectories()[0]
        graph_a = build_ct_graph(
            LSequence.from_readings(original_traj.readings,
                                    tiny_dataset.prior), constraints)
        graph_b = build_ct_graph(
            LSequence.from_readings(loaded_traj.readings, loaded.prior),
            constraints)
        # Path enumeration would blow up (billions of valid trajectories);
        # marginals + the ground-truth path probability pin equality.
        assert graph_a.num_valid_trajectories() \
            == graph_b.num_valid_trajectories()
        for tau in range(graph_a.duration):
            assert stay_query(graph_a, tau) \
                == pytest.approx(stay_query(graph_b, tau))
        truth = tuple(original_traj.truth.locations)
        assert graph_a.trajectory_probability(truth) \
            == pytest.approx(graph_b.trajectory_probability(truth))

    def test_bad_manifest_rejected(self, tmp_path):
        root = tmp_path / "archive"
        root.mkdir()
        (root / "dataset.json").write_text(json.dumps({"format": "nope"}))
        with pytest.raises(ReproError):
            load_dataset(root)
