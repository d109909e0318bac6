import hashlib

import numpy as np
import pytest

from conftest import REF_OBJECT, REF_PERIOD, REF_TRACK
from synth import make_fleet
from trajindex.engine import TrajectoryIndex, build_index, compute_max_speed
from trajindex.mbrtree import TraversalStats
from trajindex.oracle import PositionTable, oracle_interval, oracle_slice
from trajindex.snapshot import Region


@pytest.fixture(scope="module")
def small_fleet():
    return make_fleet(12, 300, (600, 600), seed=3, max_step=4, drop_rate=0.08)


@pytest.fixture(scope="module")
def small_table(small_fleet):
    f = small_fleet
    return PositionTable(f.ids, f.present, f.xs, f.ys)


@pytest.fixture(scope="module")
def small_index(small_fleet):
    return build_index(small_fleet.rows(), period=60, leaf_capacity=5,
                       extent=small_fleet.extent)


@pytest.fixture(scope="module")
def tiny_blob():
    fleet = make_fleet(3, 40, (16, 16), seed=11, drop_rate=0.1)
    return build_index(fleet.rows(), period=10, leaf_capacity=2,
                       extent=fleet.extent).to_bytes()


@pytest.fixture
def ref_index(ref_rows):
    return build_index(ref_rows, period=REF_PERIOD, leaf_capacity=2,
                       extent=(16, 16), horizon=14)


class TestReferenceIndex:
    def test_shape_and_speed(self, ref_index):
        assert ref_index.max_speed == 3
        assert len(ref_index.snapshots) == 2
        assert ref_index.object_ids == [REF_OBJECT]

    def test_positions(self, ref_index):
        assert ref_index.object_position(REF_OBJECT, 9) == (9, 10)
        for t, x, y in REF_TRACK:
            assert ref_index.object_position(REF_OBJECT, t) == (x, y)
        for t in (0, 1, 6, 7, 11, 12, 13):
            assert ref_index.object_position(REF_OBJECT, t) is None

    def test_slice(self, ref_index):
        everywhere = Region(0, 15, 0, 15)
        assert ref_index.time_slice(everywhere, 9) == [(REF_OBJECT, 9, 10)]
        assert ref_index.time_slice(Region(0, 8, 0, 15), 9) == []
        # the object has no sample at the snapshot instant, so it is only an
        # entrant there and must not be reported
        assert ref_index.time_slice(everywhere, 0) == []

    def test_interval(self, ref_index):
        assert ref_index.time_interval(Region(4, 5, 4, 10), 3, 5) == [REF_OBJECT]
        assert ref_index.time_interval(Region(4, 5, 4, 10), 6, 7) == []
        assert ref_index.time_interval(Region(10, 10, 8, 8), 0, 13) == [REF_OBJECT]

    def test_trajectory(self, ref_index):
        assert ref_index.trajectory(REF_OBJECT, 0, 13) == list(REF_TRACK)
        assert ref_index.trajectory(REF_OBJECT, 3, 5) == REF_TRACK[1:4]
        assert ref_index.trajectory(REF_OBJECT, 11, 13) == []


class TestBuildValidation:
    def test_rejects_bad_shapes(self, ref_rows):
        with pytest.raises(ValueError):
            build_index([], period=10, leaf_capacity=2, extent=(8, 8))
        with pytest.raises(ValueError):
            build_index(ref_rows, period=1, leaf_capacity=2, extent=(16, 16))
        with pytest.raises(ValueError):
            build_index(ref_rows, period=13, leaf_capacity=0, extent=(16, 16))
        with pytest.raises(ValueError):
            build_index(ref_rows, period=13, leaf_capacity=2, extent=(10, 10))

    def test_rejects_duplicate_or_unsorted_instants(self):
        rows = [(1, 5, 0, 0), (1, 5, 1, 1)]
        with pytest.raises(ValueError):
            build_index(rows, period=10, leaf_capacity=2, extent=(8, 8))
        rows = [(1, 5, 0, 0), (1, 4, 1, 1)]
        with pytest.raises(ValueError):
            build_index(rows, period=10, leaf_capacity=2, extent=(8, 8))

    def test_rejects_short_horizon(self, ref_rows):
        with pytest.raises(ValueError):
            build_index(ref_rows, period=13, leaf_capacity=2, extent=(16, 16),
                        horizon=10)

    def test_speed_override(self, ref_rows):
        ix = build_index(ref_rows, period=13, leaf_capacity=2, extent=(16, 16),
                         max_speed=10)
        assert ix.max_speed == 10
        with pytest.raises(ValueError):
            build_index(ref_rows, period=13, leaf_capacity=2, extent=(16, 16),
                        max_speed=2)

    def test_computed_speed_uses_ceiling_over_gaps(self):
        # 7 cells in 3 instants rounds up to 3 cells per instant
        arrays = {1: np.array([[5, 3, 0], [8, 10, 0]], dtype=np.int64)}
        assert compute_max_speed(arrays) == 3

    def test_query_domain_checks(self, ref_index):
        with pytest.raises(KeyError):
            ref_index.object_position(99, 3)
        with pytest.raises(IndexError):
            ref_index.object_position(REF_OBJECT, 14)
        with pytest.raises(IndexError):
            ref_index.time_slice(Region(0, 1, 0, 1), -1)
        with pytest.raises(ValueError):
            ref_index.time_interval(Region(0, 1, 0, 1), 5, 3)


class TestAgainstOracle:
    def test_every_position(self, small_index, small_table):
        for oid in small_table.object_ids:
            for t in range(small_table.horizon):
                assert small_index.object_position(oid, t) == \
                    small_table.position(oid, t)

    def test_trajectories(self, small_index, small_table):
        rng = np.random.default_rng(60)
        horizon = small_table.horizon
        for oid in small_table.object_ids:
            a = int(rng.integers(0, horizon))
            b = int(rng.integers(a, horizon))
            assert small_index.trajectory(oid, a, b) == \
                small_table.trajectory(oid, a, b)
            assert small_index.trajectory(oid, 0, horizon - 1) == \
                small_table.trajectory(oid, 0, horizon - 1)

    def test_slices(self, small_index, small_table):
        rng = np.random.default_rng(61)
        for trial in range(150):
            x1 = int(rng.integers(0, 600)); y1 = int(rng.integers(0, 600))
            rect = (x1, min(599, x1 + int(rng.integers(0, 90))),
                    y1, min(599, y1 + int(rng.integers(0, 90))))
            q = int(rng.integers(0, small_table.horizon))
            got = small_index.time_slice(Region(*rect), q)
            assert got == oracle_slice(small_table, rect, q)

    def test_intervals(self, small_index, small_table):
        rng = np.random.default_rng(62)
        hits = 0
        for trial in range(150):
            x1 = int(rng.integers(0, 600)); y1 = int(rng.integers(0, 600))
            rect = (x1, min(599, x1 + int(rng.integers(0, 90))),
                    y1, min(599, y1 + int(rng.integers(0, 90))))
            b = int(rng.integers(0, small_table.horizon))
            e = min(small_table.horizon - 1, b + int(rng.integers(0, 80)))
            want = oracle_interval(small_table, rect, b, e)
            got = small_index.time_interval(Region(*rect), b, e)
            assert got == want
            bare = small_index.time_interval(Region(*rect), b, e,
                                             mbr_prune=False, speed_prune=False)
            assert bare == want
            hits += bool(want)
        assert 0 < hits < 150

    def test_period_choice_does_not_change_answers(self, small_fleet, small_table):
        rng = np.random.default_rng(63)
        queries = []
        for _ in range(40):
            x1 = int(rng.integers(0, 600)); y1 = int(rng.integers(0, 600))
            rect = (x1, min(599, x1 + 70), y1, min(599, y1 + 70))
            b = int(rng.integers(0, small_table.horizon))
            queries.append((rect, b, min(small_table.horizon - 1, b + 50)))
        answers = None
        for period in (30, 61, 147, 299):
            ix = build_index(small_fleet.rows(), period=period,
                             leaf_capacity=7, extent=small_fleet.extent)
            got = [(ix.time_slice(Region(*rect), b),
                    ix.time_interval(Region(*rect), b, e))
                   for rect, b, e in queries]
            if answers is None:
                answers = got
            else:
                assert got == answers

    def test_prunes_never_lose_answers_and_save_decodes(self, small_index,
                                                        small_table):
        rng = np.random.default_rng(64)
        pruned, bare = TraversalStats(), TraversalStats()
        for trial in range(60):
            x1 = int(rng.integers(0, 520)); y1 = int(rng.integers(0, 520))
            rect = (x1, x1 + 40, y1, y1 + 40)
            b = int(rng.integers(0, small_table.horizon - 40))
            e = b + 39
            a1 = small_index.time_interval(Region(*rect), b, e, stats=pruned)
            a2 = small_index.time_interval(Region(*rect), b, e, stats=bare,
                                           mbr_prune=False, speed_prune=False)
            assert a1 == a2
        assert pruned.positions_decoded < bare.positions_decoded


class TestSerialization:
    def test_round_trip_bytes(self, small_index):
        blob = small_index.to_bytes()
        back = TrajectoryIndex.from_bytes(blob)
        assert back.to_bytes() == blob
        assert back.period == small_index.period
        assert back.extent == small_index.extent
        assert back.max_speed == small_index.max_speed
        assert back.sample_count == small_index.sample_count
        assert back.object_ids == small_index.object_ids

    def test_round_trip_file(self, tmp_path, small_index, small_table):
        path = tmp_path / "fleet.idx"
        small_index.save(path)
        back = TrajectoryIndex.load(path)
        rng = np.random.default_rng(65)
        for trial in range(30):
            oid = int(rng.integers(1, 13))
            t = int(rng.integers(0, small_table.horizon))
            assert back.object_position(oid, t) == small_table.position(oid, t)
        x1, y1 = 100, 200
        assert back.time_slice(Region(x1, x1 + 50, y1, y1 + 50), 17) == \
            small_index.time_slice(Region(x1, x1 + 50, y1, y1 + 50), 17)

    def test_rejects_foreign_bytes(self):
        with pytest.raises(ValueError):
            TrajectoryIndex.from_bytes(b"not an index")
        with pytest.raises(ValueError):
            TrajectoryIndex.from_bytes(b"")

    def test_every_truncation_is_a_value_error(self, tiny_blob):
        for cut in range(len(tiny_blob)):
            with pytest.raises(ValueError):
                TrajectoryIndex.from_bytes(tiny_blob[:cut])

    def test_every_bit_flip_and_appended_byte_is_a_value_error(self, tiny_blob):
        blob = bytearray(tiny_blob)
        for i in range(len(blob)):
            for bit in range(8):
                blob[i] ^= 1 << bit
                with pytest.raises(ValueError):
                    TrajectoryIndex.from_bytes(blob)
                blob[i] ^= 1 << bit
        for b in range(256):
            with pytest.raises(ValueError):
                TrajectoryIndex.from_bytes(tiny_blob + bytes([b]))

    def test_version_one_file_is_rejected_by_name(self, tiny_blob):
        old = tiny_blob[:4] + (1).to_bytes(2, "little") + tiny_blob[6:]
        with pytest.raises(ValueError, match="version 1"):
            TrajectoryIndex.from_bytes(old)

    @pytest.mark.parametrize("period, leaf, seed, kwargs, size, digest", [
        pytest.param(
            240, 16, 5, {"drop_rate": 0.03}, 36078,
            "8fea13408873abd714d26316eae3190d567b1a10c664548569c8626034eb543a",
            id="sparse-gaps"),
        pytest.param(
            60, 8, 6, {"drop_rate": 0.2, "geometric": True}, 62422,
            "313e76985329ca89ae3aacb7159c378e87dcf0591cbadcaa568670539ad0029b",
            id="dense-gaps"),
    ])
    def test_bytes_match_recorded_digest(self, period, leaf, seed, kwargs,
                                         size, digest):
        # the file format is frozen: these digests were recorded when the
        # format moved to version 2; the first fleet has sparse gap maps in
        # every log, the second mostly dense ones
        fleet = make_fleet(12, 1500, (256, 256), seed, **kwargs)
        blob = build_index(fleet.rows(), period, leaf, fleet.extent,
                           horizon=fleet.horizon).to_bytes()
        assert len(blob) == size
        assert hashlib.sha256(blob).hexdigest() == digest
        assert TrajectoryIndex.from_bytes(blob).to_bytes() == blob

    def test_component_sizes_cover_file(self, small_index):
        blob, parts = small_index.encode()
        assert blob == small_index.to_bytes()
        assert 0 < sum(parts.values()) < len(blob)


class TestPeriodEdges:
    def test_minimal_period(self):
        # d=2: every odd instant is logged alone, evens are snapshots
        rows = [(1, t, 10 + t, 20) for t in range(7)]
        ix = build_index(rows, period=2, leaf_capacity=3, extent=(40, 40))
        for t in range(7):
            assert ix.object_position(1, t) == (10 + t, 20)
        assert ix.trajectory(1, 0, 6) == [(t, 10 + t, 20) for t in range(7)]
        assert ix.time_interval(Region(12, 12, 20, 20), 0, 6) == [1]

    def test_object_absent_from_whole_periods(self):
        rows = ([(1, t, 5, 5) for t in range(0, 10)]
                + [(1, t, 6, 6) for t in range(30, 40)]
                + [(2, t, 9, 9) for t in range(0, 40)])
        ix = build_index(rows, period=10, leaf_capacity=4, extent=(16, 16))
        assert ix.object_position(1, 15) is None
        assert ix.time_slice(Region(0, 15, 0, 15), 15) == [(2, 9, 9)]
        assert ix.time_interval(Region(5, 6, 5, 6), 12, 28) == []
        assert ix.time_interval(Region(5, 6, 5, 6), 12, 31) == [1]

    def test_boundary_instants_come_from_snapshots(self, small_index,
                                                   small_table):
        d = small_index.period
        for k in range(0, small_table.horizon, d):
            for oid in small_table.object_ids:
                assert small_index.object_position(oid, k) == \
                    small_table.position(oid, k)
