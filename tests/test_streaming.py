"""Tests for the bounded-memory streaming cleaner and its checkpoints."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.algorithm import CleaningOptions, build_ct_graph
from repro.core.constraints import (
    ConstraintSet,
    Latency,
    TravelingTime,
    Unreachable,
)
from repro.core.incremental import IncrementalCleaner
from repro.core.lsequence import LSequence
from repro.errors import (
    InconsistentReadingsError,
    ReadingSequenceError,
    StoreChecksumError,
    StoreFormatError,
)
from repro.runtime.sessions import StreamSessionManager
from repro.store.format import (
    read_stream_checkpoint,
    write_stream_checkpoint,
)
from repro.streaming import StreamingCleaner


@pytest.fixture
def constraints():
    return ConstraintSet([Unreachable("A", "C"), Unreachable("C", "A"),
                          Latency("B", 2), TravelingTime("B", "D", 3)])


# ----------------------------------------------------------------------
# the rfid-ctg/ckpt@1 codec
# ----------------------------------------------------------------------

class TestCheckpointCodec:
    meta = {"window": 4, "base": 2, "duration": 4, "output_consumed": False,
            "options": {}, "constraints": []}
    names = ["A", "B", "corridor"]
    rows = [[(0, 0.25), (1, 0.75)], [(2, 1.0)]]
    frontiers = [
        [(0, None, ((3, 1),), 0.5), (1, 2, (), 1.0)],
        [(2, 0, ((5, 0), (7, 1)), 0.125)],
    ]

    def test_round_trip_is_exact(self, tmp_path):
        path = tmp_path / "s.ckpt"
        written = write_stream_checkpoint(
            path, meta=self.meta, location_names=self.names,
            rows=self.rows, frontiers=self.frontiers)
        assert written == path.stat().st_size
        payload = read_stream_checkpoint(path)
        assert payload.meta == self.meta
        assert payload.location_names == tuple(self.names)
        assert payload.rows == tuple(tuple(r) for r in self.rows)
        assert payload.frontiers == tuple(tuple(f) for f in self.frontiers)

    def test_atomic_publish_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "s.ckpt"
        write_stream_checkpoint(path, meta=self.meta,
                                location_names=self.names,
                                rows=self.rows, frontiers=self.frontiers)
        write_stream_checkpoint(path, meta=self.meta,
                                location_names=self.names,
                                rows=self.rows, frontiers=self.frontiers)
        assert [p.name for p in tmp_path.iterdir()] == ["s.ckpt"]

    def test_corruption_is_detected(self, tmp_path):
        path = tmp_path / "s.ckpt"
        write_stream_checkpoint(path, meta=self.meta,
                                location_names=self.names,
                                rows=self.rows, frontiers=self.frontiers)
        raw = bytearray(path.read_bytes())
        raw[-3] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(StoreChecksumError, match="CRC-32"):
            read_stream_checkpoint(path)

    def test_truncation_is_a_format_error(self, tmp_path):
        path = tmp_path / "s.ckpt"
        write_stream_checkpoint(path, meta=self.meta,
                                location_names=self.names,
                                rows=self.rows, frontiers=self.frontiers)
        path.write_bytes(path.read_bytes()[:25])
        with pytest.raises(StoreFormatError, match="truncated"):
            read_stream_checkpoint(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "s.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 40)
        with pytest.raises(StoreFormatError, match="bad magic"):
            read_stream_checkpoint(path)

    def test_out_of_range_location_id_rejected_on_write(self, tmp_path):
        with pytest.raises(StoreFormatError, match="outside the string"):
            write_stream_checkpoint(
                tmp_path / "s.ckpt", meta={}, location_names=["A"],
                rows=[[(7, 1.0)]], frontiers=[[]])

    def test_level_count_mismatch_rejected_on_write(self, tmp_path):
        with pytest.raises(StoreFormatError, match="disagree"):
            write_stream_checkpoint(
                tmp_path / "s.ckpt", meta={}, location_names=["A"],
                rows=[[(0, 1.0)]], frontiers=[])


# ----------------------------------------------------------------------
# StreamingCleaner semantics
# ----------------------------------------------------------------------

class TestStreamingCleaner:
    def test_window_must_be_positive(self, constraints):
        with pytest.raises(ReadingSequenceError, match="positive integer"):
            StreamingCleaner(constraints, window=0)

    def test_memory_is_bounded_by_window(self, constraints):
        cleaner = StreamingCleaner(constraints, window=8)
        for _ in range(500):
            cleaner.extend({"A": 0.4, "B": 0.4, "C": 0.2})
        assert cleaner.duration == 500
        assert cleaner.retained_duration == 8
        assert cleaner.base == 492
        assert math.fsum(cleaner.filtered_distribution().values()) == \
            pytest.approx(1.0)

    def test_filtered_bit_equal_to_unbounded_cleaner(self, constraints):
        rows = [{"A": 0.5, "B": 0.5}, {"B": 0.6, "D": 0.4},
                {"B": 0.5, "D": 0.5}, {"A": 0.3, "B": 0.7},
                {"B": 1.0}, {"B": 0.2, "C": 0.8}]
        bounded = StreamingCleaner(constraints, window=2)
        unbounded = IncrementalCleaner(constraints)
        for row in rows:
            bounded.extend(row)
            unbounded.extend(row)
            # == on the dicts: same keys, same order, same float bits.
            assert bounded.filtered_distribution() == \
                unbounded.filtered_distribution()

    def test_inconsistent_reading_preserves_state(self, constraints):
        cleaner = StreamingCleaner(constraints, window=4)
        cleaner.extend({"A": 1.0})
        with pytest.raises(InconsistentReadingsError):
            cleaner.extend({"C": 1.0})
        assert cleaner.duration == 1
        cleaner.extend({"B": 1.0})
        assert cleaner.duration == 2

    def test_finalize_before_eviction_equals_batch(self, constraints):
        rows = [{"A": 0.5, "B": 0.5}, {"B": 0.6, "C": 0.4}, {"B": 1.0}]
        cleaner = StreamingCleaner(constraints, window=10)
        for row in rows:
            cleaner.extend(row)
        batch = build_ct_graph(LSequence(rows), constraints)
        assert dict(cleaner.finalize().paths()) == \
            pytest.approx(dict(batch.paths()))

    def test_window_finalize_matches_full_graph_marginals(self, constraints):
        rows = [{"A": 0.5, "B": 0.5}, {"B": 0.6, "D": 0.4},
                {"B": 0.5, "D": 0.5}, {"A": 0.3, "B": 0.7},
                {"A": 0.5, "B": 0.5}, {"B": 0.2, "C": 0.8}]
        cleaner = StreamingCleaner(constraints, window=3)
        for row in rows:
            cleaner.extend(row)
        assert cleaner.base == 3
        window_graph = cleaner.finalize()
        full_graph = build_ct_graph(LSequence(rows), constraints)
        for relative in range(cleaner.retained_duration):
            expected = full_graph.location_marginal(cleaner.base + relative)
            got = window_graph.location_marginal(relative)
            assert set(got) == set(expected)
            for location, probability in expected.items():
                assert got[location] == pytest.approx(probability)

    def test_window_finalize_materialize_modes(self, constraints, tmp_path):
        from repro.core.ctgraph import CTGraph
        from repro.core.flatgraph import FlatCTGraph
        from repro.store.format import MappedCTGraph

        rows = [{"A": 0.5, "B": 0.5}, {"B": 1.0}, {"B": 0.5, "D": 0.5},
                {"A": 0.4, "B": 0.6}]
        def fed(options):
            cleaner = StreamingCleaner(constraints, window=2,
                                       options=options)
            for row in rows:
                cleaner.extend(row)
            assert cleaner.base > 0    # the window path, not the delegate
            return cleaner

        from repro.queries.session import QuerySession

        nodes_graph = fed(CleaningOptions()).finalize()
        assert isinstance(nodes_graph, CTGraph)
        flat = fed(CleaningOptions(materialize="flat")).finalize()
        assert isinstance(flat, FlatCTGraph)
        out = tmp_path / "w.ctg"
        cleaner = fed(CleaningOptions(output=str(out)))
        mapped = cleaner.finalize()
        assert isinstance(mapped, MappedCTGraph)
        assert QuerySession(mapped).location_marginal(1) == \
            pytest.approx(nodes_graph.location_marginal(1))
        assert QuerySession(flat).location_marginal(1) == \
            pytest.approx(nodes_graph.location_marginal(1))
        mapped.close()
        with pytest.raises(ReadingSequenceError, match="already wrote"):
            cleaner.finalize()

    def test_lsequence_covers_retained_window_and_is_a_copy(self,
                                                           constraints):
        cleaner = StreamingCleaner(constraints, window=2)
        for row in ({"A": 1.0}, {"A": 0.5, "B": 0.5}, {"B": 1.0}):
            cleaner.extend(row)
        before = cleaner.filtered_distribution()
        copy = cleaner.lsequence()
        assert copy.duration == 2    # the retained window only
        copy.candidates(0).clear()
        copy.candidates(1)["Z"] = 1.0
        assert cleaner.filtered_distribution() == before
        assert cleaner.lsequence().candidates(1) == {"B": pytest.approx(1.0)}


class TestCheckpointResume:
    def test_resume_is_bit_identical(self, constraints, tmp_path):
        rows = [{"A": 0.5, "B": 0.5}, {"B": 0.6, "D": 0.4},
                {"B": 0.5, "D": 0.5}, {"A": 0.3, "B": 0.7},
                {"B": 1.0}, {"B": 0.2, "C": 0.8}]
        uninterrupted = StreamingCleaner(constraints, window=3)
        killed = StreamingCleaner(constraints, window=3)
        for row in rows[:4]:
            uninterrupted.extend(row)
            killed.extend(row)
        path = tmp_path / "s.ckpt"
        killed.checkpoint(path)
        del killed    # the process dies here
        resumed = StreamingCleaner.resume(path)
        assert resumed.duration == 4
        assert resumed.base == uninterrupted.base
        for row in rows[4:]:
            uninterrupted.extend(row)
            resumed.extend(row)
        assert resumed.filtered_distribution() == \
            uninterrupted.filtered_distribution()
        graph_a = uninterrupted.finalize()
        graph_b = resumed.finalize()
        for relative in range(uninterrupted.retained_duration):
            assert graph_a.location_marginal(relative) == \
                graph_b.location_marginal(relative)

    def test_checkpoint_restores_options_and_constraints(self, constraints,
                                                         tmp_path):
        options = CleaningOptions(truncated_stay_policy="strict",
                                  materialize="flat")
        cleaner = StreamingCleaner(constraints, window=5, options=options)
        cleaner.extend({"A": 1.0})
        path = tmp_path / "s.ckpt"
        cleaner.checkpoint(path)
        resumed = StreamingCleaner.resume(path)
        assert resumed.constraints == constraints
        assert resumed.options == options
        assert resumed.window == 5

    def test_extra_meta_rides_along_but_cannot_collide(self, constraints,
                                                       tmp_path):
        cleaner = StreamingCleaner(constraints, window=2)
        cleaner.extend({"A": 1.0})
        path = tmp_path / "s.ckpt"
        cleaner.checkpoint(path, extra_meta={"object": "tag-7"})
        assert read_stream_checkpoint(path).meta["object"] == "tag-7"
        with pytest.raises(ReadingSequenceError, match="collide"):
            cleaner.checkpoint(path, extra_meta={"window": 9})

    def test_pre_removal_engine_option_resumes_bit_identically(
            self, constraints, tmp_path):
        # Checkpoints written while CleaningOptions had an ``engine`` field
        # store it (as "auto" unless set) among their options, in field
        # order; such a file must resume and continue exactly.
        rows = [{"A": 0.5, "B": 0.5}, {"B": 0.6, "D": 0.4},
                {"B": 0.5, "D": 0.5}, {"A": 0.3, "B": 0.7},
                {"B": 1.0}, {"B": 0.2, "C": 0.8}]
        uninterrupted = StreamingCleaner(constraints, window=3)
        killed = StreamingCleaner(constraints, window=3)
        for row in rows[:4]:
            uninterrupted.extend(row)
            killed.extend(row)
        path = tmp_path / "legacy.ckpt"
        killed.checkpoint(path)
        options = read_stream_checkpoint(path).meta["options"]
        legacy = {"truncated_stay_policy": options["truncated_stay_policy"],
                  "precheck": options["precheck"], "engine": "auto",
                  "materialize": options["materialize"],
                  "backend": options["backend"], "output": options["output"]}
        _rewrite_options(path, legacy)
        resumed = StreamingCleaner.resume(path)
        assert resumed.options == CleaningOptions()
        for row in rows[4:]:
            uninterrupted.extend(row)
            resumed.extend(row)
        assert resumed.filtered_distribution() == \
            uninterrupted.filtered_distribution()
        assert resumed.finalize().__getstate__() == \
            uninterrupted.finalize().__getstate__()

    @pytest.mark.parametrize("options", [{"backend": "gpu"},
                                         {"materialize": "bogus"},
                                         {"turbo": True}])
    def test_invalid_options_are_a_format_error(self, constraints, tmp_path,
                                                options):
        cleaner = StreamingCleaner(constraints, window=2)
        cleaner.extend({"A": 1.0})
        path = tmp_path / "s.ckpt"
        cleaner.checkpoint(path)
        _rewrite_options(path, options)
        with pytest.raises(StoreFormatError, match="s.ckpt"):
            StreamingCleaner.resume(path)

    def test_malformed_meta_is_a_format_error(self, constraints, tmp_path):
        path = tmp_path / "s.ckpt"
        write_stream_checkpoint(path, meta={"nonsense": True},
                                location_names=[], rows=[], frontiers=[])
        with pytest.raises(StoreFormatError, match="missing or malformed"):
            StreamingCleaner.resume(path)


def _rewrite_options(path, options):
    """Re-publish the checkpoint at ``path`` with other meta options."""
    payload = read_stream_checkpoint(path)
    write_stream_checkpoint(path, meta=dict(payload.meta, options=options),
                            location_names=payload.location_names,
                            rows=payload.rows, frontiers=payload.frontiers)


# ----------------------------------------------------------------------
# multi-object sessions
# ----------------------------------------------------------------------

class TestStreamSessionManager:
    def test_sessions_are_per_object(self, constraints):
        manager = StreamSessionManager(constraints, window=4)
        manager.ingest("a", {"A": 1.0})
        manager.ingest("b", {"B": 1.0})
        manager.ingest("a", {"A": 0.5, "B": 0.5})
        assert manager.objects() == ("a", "b")
        assert manager.session("a").duration == 2
        assert manager.session("b").duration == 1

    def test_checkpoint_all_and_resume(self, constraints, tmp_path):
        manager = StreamSessionManager(constraints, window=4,
                                       checkpoint_dir=tmp_path)
        for _ in range(3):
            manager.ingest("tag-1", {"A": 0.5, "B": 0.5})
            manager.ingest("tag 2/with:odd chars", {"B": 1.0})
        paths = manager.checkpoint_all()
        assert set(paths) == {"tag-1", "tag 2/with:odd chars"}
        restored = StreamSessionManager(constraints, window=4,
                                        checkpoint_dir=tmp_path, resume=True)
        assert set(restored.objects()) == set(paths)
        for object_id in paths:
            assert restored.session(object_id).filtered_distribution() == \
                manager.session(object_id).filtered_distribution()

    def test_periodic_checkpoints(self, constraints, tmp_path):
        manager = StreamSessionManager(constraints, window=4,
                                       checkpoint_dir=tmp_path,
                                       checkpoint_every=2)
        manager.ingest("a", {"A": 1.0})
        assert not list(tmp_path.glob("*.ckpt"))
        manager.ingest("a", {"A": 1.0})
        files = list(tmp_path.glob("*.ckpt"))
        assert len(files) == 1
        payload = read_stream_checkpoint(files[0])
        assert payload.meta["object"] == "a"
        assert payload.meta["duration"] == 2

    def test_resume_rejects_foreign_constraints(self, constraints, tmp_path):
        manager = StreamSessionManager(constraints, window=4,
                                       checkpoint_dir=tmp_path)
        manager.ingest("a", {"A": 1.0})
        manager.checkpoint_all()
        other = ConstraintSet([Unreachable("X", "Y")])
        with pytest.raises(ReadingSequenceError, match="different "
                                                       "constraint set"):
            StreamSessionManager(other, checkpoint_dir=tmp_path, resume=True)

    def test_checkpoint_every_needs_a_directory(self, constraints):
        with pytest.raises(ReadingSequenceError, match="checkpoint_dir"):
            StreamSessionManager(constraints, checkpoint_every=5)


# ----------------------------------------------------------------------
# hypothesis suite: eviction and resume never change any observable
# ----------------------------------------------------------------------

locations = st.sampled_from("ABCD")


@st.composite
def streams(draw):
    duration = draw(st.integers(min_value=1, max_value=10))
    rows = []
    for _ in range(duration):
        support = draw(st.lists(locations, min_size=1, max_size=4,
                                unique=True))
        weights = [draw(st.floats(min_value=0.1, max_value=1.0))
                   for _ in support]
        total = sum(weights)
        rows.append({l: w / total for l, w in zip(support, weights)})
    constraint_list = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        kind = draw(st.sampled_from(["du", "lt", "tt"]))
        if kind == "du":
            constraint_list.append(Unreachable(draw(locations),
                                               draw(locations)))
        elif kind == "lt":
            constraint_list.append(Latency(draw(locations),
                                           draw(st.integers(2, 3))))
        else:
            a = draw(locations)
            b = draw(locations.filter(lambda x: x != a))
            constraint_list.append(TravelingTime(a, b,
                                                 draw(st.integers(2, 3))))
    window = draw(st.integers(min_value=1, max_value=4))
    return rows, ConstraintSet(constraint_list), window


@settings(max_examples=150, deadline=None)
@given(streams())
def test_eviction_is_invisible_to_the_filtered_estimate(stream):
    rows, constraints, window = stream
    bounded = StreamingCleaner(constraints, window=window)
    unbounded = IncrementalCleaner(constraints)
    for row in rows:
        try:
            unbounded.extend(row)
        except InconsistentReadingsError:
            with pytest.raises(InconsistentReadingsError):
                bounded.extend(row)
            return
        bounded.extend(row)
        assert bounded.filtered_distribution() == \
            unbounded.filtered_distribution()
    assert bounded.retained_duration <= window


@settings(max_examples=150, deadline=None)
@given(streams(), st.data())
def test_resume_equals_uninterrupted_run(stream, data):
    rows, constraints, window = stream
    uninterrupted = StreamingCleaner(constraints, window=window)
    try:
        for row in rows:
            uninterrupted.extend(row)
    except InconsistentReadingsError:
        return
    kill_at = data.draw(st.integers(min_value=1, max_value=len(rows)),
                        label="kill_at")
    killed = StreamingCleaner(constraints, window=window)
    for row in rows[:kill_at]:
        killed.extend(row)
    import os, tempfile
    fd, path = tempfile.mkstemp(suffix=".ckpt")
    os.close(fd)
    try:
        killed.checkpoint(path)
        resumed = StreamingCleaner.resume(path)
        for row in rows[kill_at:]:
            resumed.extend(row)
        assert resumed.filtered_distribution() == \
            uninterrupted.filtered_distribution()
        graph_a = uninterrupted.finalize()
        graph_b = resumed.finalize()
        for relative in range(uninterrupted.retained_duration):
            assert graph_a.location_marginal(relative) == \
                graph_b.location_marginal(relative)
    finally:
        os.unlink(path)


@settings(max_examples=100, deadline=None)
@given(streams())
def test_window_finalize_matches_full_graph(stream):
    rows, constraints, window = stream
    cleaner = StreamingCleaner(constraints, window=window)
    try:
        for row in rows:
            cleaner.extend(row)
        full = build_ct_graph(LSequence(rows), constraints)
    except InconsistentReadingsError:
        return
    window_graph = cleaner.finalize()
    for relative in range(cleaner.retained_duration):
        expected = full.location_marginal(cleaner.base + relative)
        got = window_graph.location_marginal(relative)
        assert set(got) == set(expected)
        for location, probability in expected.items():
            assert got[location] == pytest.approx(probability, abs=1e-9)
