"""Tests for the a-priori distribution p*(l | R) (Section 6.2 formula)."""

import math

import pytest

np = pytest.importorskip("numpy", exc_type=ImportError)

from repro.errors import CalibrationError
from repro.mapmodel.grid import Grid
from repro.rfid.calibration import DetectionMatrix
from repro.rfid.priors import PriorModel
from repro.rfid.readers import place_default_readers


@pytest.fixture
def simple_prior(two_rooms):
    """A hand-built 2-reader matrix over a 1-cell-per-room grid."""
    grid = Grid(two_rooms, 5.0)            # one cell per 5x5 room
    assert grid.num_cells == 2
    # reader rA sees room A strongly and B weakly; rB the reverse.
    values = np.array([
        [0.8, 0.2],   # rA over cells (A, B)
        [0.1, 0.9],   # rB
    ])
    matrix = DetectionMatrix(values, grid, ("rA", "rB"))
    return PriorModel(matrix)


class TestPaperFormula:
    def test_single_reader(self, simple_prior):
        dist = simple_prior.distribution({"rA"})
        assert dist["A"] == pytest.approx(0.8 / (0.8 + 0.2))
        assert dist["B"] == pytest.approx(0.2 / (0.8 + 0.2))

    def test_two_readers_product(self, simple_prior):
        dist = simple_prior.distribution({"rA", "rB"})
        wa, wb = 0.8 * 0.1, 0.2 * 0.9
        assert dist["A"] == pytest.approx(wa / (wa + wb))
        assert dist["B"] == pytest.approx(wb / (wa + wb))

    def test_empty_reading_is_cell_count_proportional(self, simple_prior):
        dist = simple_prior.distribution(frozenset())
        assert dist["A"] == pytest.approx(0.5)
        assert dist["B"] == pytest.approx(0.5)

    def test_distributions_sum_to_one(self, simple_prior):
        for readers in (set(), {"rA"}, {"rB"}, {"rA", "rB"}):
            assert math.fsum(simple_prior.distribution(readers).values()) \
                == pytest.approx(1.0)

    def test_uniform_fallback_when_no_cell_compatible(self, two_rooms):
        grid = Grid(two_rooms, 5.0)
        values = np.array([
            [0.8, 0.0],   # rA never sees room B
            [0.0, 0.9],   # rB never sees room A
        ])
        prior = PriorModel(DetectionMatrix(values, grid, ("rA", "rB")))
        # No cell is seen by both readers -> uniform over ALL locations.
        dist = prior.distribution({"rA", "rB"})
        assert dist == {"A": 0.5, "B": 0.5}

    def test_unknown_reader_rejected(self, simple_prior):
        with pytest.raises(CalibrationError):
            simple_prior.distribution({"ghost"})

    def test_cache_returns_same_object(self, simple_prior):
        first = simple_prior.distribution({"rA"})
        second = simple_prior.distribution(frozenset({"rA"}))
        assert first is second


class TestNegativeEvidence:
    def test_complement_factors_change_the_answer(self, two_rooms):
        grid = Grid(two_rooms, 5.0)
        values = np.array([
            [0.8, 0.2],
            [0.1, 0.9],
        ])
        matrix = DetectionMatrix(values, grid, ("rA", "rB"))
        paper = PriorModel(matrix).distribution({"rA"})
        negative = PriorModel(matrix, negative_evidence=True).distribution({"rA"})
        # Not being seen by rB should pull mass toward room A.
        assert negative["A"] > paper["A"]
        wa, wb = 0.8 * (1 - 0.1), 0.2 * (1 - 0.9)
        assert negative["A"] == pytest.approx(wa / (wa + wb))

    def test_sums_to_one(self, two_rooms):
        grid = Grid(two_rooms, 5.0)
        values = np.array([[0.8, 0.2], [0.1, 0.9]])
        matrix = DetectionMatrix(values, grid, ("rA", "rB"))
        prior = PriorModel(matrix, negative_evidence=True)
        for readers in (set(), {"rA"}, {"rA", "rB"}):
            assert math.fsum(prior.distribution(readers).values()) \
                == pytest.approx(1.0)


class TestGhostAwarePrior:
    def test_rate_validation(self, two_rooms):
        grid = Grid(two_rooms, 5.0)
        matrix = DetectionMatrix(np.array([[0.8, 0.2]]), grid, ("rA",))
        with pytest.raises(CalibrationError):
            PriorModel(matrix, ghost_read_rate=1.0)
        with pytest.raises(CalibrationError):
            PriorModel(matrix, ghost_read_rate=-0.1)

    def test_zero_rate_matches_paper_formula(self, two_rooms):
        grid = Grid(two_rooms, 5.0)
        matrix = DetectionMatrix(np.array([[0.8, 0.2]]), grid, ("rA",))
        paper = PriorModel(matrix).distribution({"rA"})
        aware = PriorModel(matrix, ghost_read_rate=0.0).distribution({"rA"})
        assert paper == aware

    def test_ghost_floor_keeps_impossible_cells_alive(self, two_rooms):
        # Reader rA never covers room B; under the paper formula a ghost
        # fire of rA rules room B out entirely, the noise-aware prior
        # keeps a small possibility alive.
        grid = Grid(two_rooms, 5.0)
        matrix = DetectionMatrix(np.array([[0.8, 0.0]]), grid, ("rA",))
        paper = PriorModel(matrix).distribution({"rA"})
        aware = PriorModel(matrix,
                           ghost_read_rate=0.05).distribution({"rA"})
        assert paper == {"A": pytest.approx(1.0)}
        assert aware["B"] == pytest.approx(0.05 / 0.85)
        assert aware["A"] > aware["B"]

    def test_sums_to_one(self, two_rooms):
        grid = Grid(two_rooms, 5.0)
        matrix = DetectionMatrix(np.array([[0.8, 0.0], [0.0, 0.9]]),
                                 grid, ("rA", "rB"))
        prior = PriorModel(matrix, ghost_read_rate=0.02)
        for readers in (set(), {"rA"}, {"rA", "rB"}):
            assert math.fsum(prior.distribution(readers).values()) \
                == pytest.approx(1.0)


class TestThreshold:
    def test_threshold_validation(self, two_rooms):
        grid = Grid(two_rooms, 5.0)
        matrix = DetectionMatrix(np.array([[0.8, 0.2]]), grid, ("rA",))
        with pytest.raises(CalibrationError):
            PriorModel(matrix, min_probability=1.0)

    def test_threshold_drops_and_renormalises(self, two_rooms):
        grid = Grid(two_rooms, 5.0)
        matrix = DetectionMatrix(np.array([[0.9, 0.05]]), grid, ("rA",))
        pruned = PriorModel(matrix, min_probability=0.1).distribution({"rA"})
        assert pruned == {"A": 1.0}

    def test_threshold_keeps_best_when_all_below(self, two_rooms):
        grid = Grid(two_rooms, 5.0)
        matrix = DetectionMatrix(np.array([[0.5, 0.4]]), grid, ("rA",))
        pruned = PriorModel(matrix, min_probability=0.99).distribution({"rA"})
        assert pruned == {"A": 1.0}


class TestEndToEnd:
    def test_real_building_distributions(self, one_floor):
        grid = Grid(one_floor, 0.5)
        model = place_default_readers(one_floor)
        from repro.rfid.calibration import calibrate, exact_matrix
        matrix = calibrate(exact_matrix(model, grid),
                           rng=np.random.default_rng(11))
        prior = PriorModel(matrix)
        # A reading from a room reader should put most mass on that room.
        room_reader = next(name for name in model.reader_names
                           if "F0_R1" in name)
        dist = prior.distribution({room_reader})
        assert math.fsum(dist.values()) == pytest.approx(1.0)
        assert max(dist, key=dist.get) == "F0_R1"
