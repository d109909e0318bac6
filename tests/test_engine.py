import gc
import hashlib
import itertools
import struct
import sys
import tracemalloc
from array import array

import numpy as np
import pytest

import trajindex.log
from conftest import REF_OBJECT, REF_PERIOD, REF_TRACK, pulled_in, restamp
from reference_encoder import reference_blob
from synth import make_fleet
from trajindex.encoder import U32_FIELDS
from trajindex.engine import (
    MAX_PERIODS,
    TrajectoryIndex,
    build_index,
    compute_max_speed,
)
from trajindex.ingest import RawRecord, parse_binary, write_binary
from trajindex.log import (
    DATA,
    FILE_FIELDS,
    TREE,
    WIDTHS,
    X_AXIS,
    X_FIRST,
    Y_AXIS,
    Y_FIRST,
    build_log,
)
from trajindex.mbrtree import MbrTree, TraversalStats, build_mbr_tree
from trajindex.oracle import PositionTable, oracle_interval, oracle_slice
from trajindex.snapshot import ENTRANT, NO_ROW, Region, Snapshot
from trajindex.succinct import U32_MAX, Reader, Writer, nbytes


# the four fleets whose file digests are recorded: (period, leaf capacity,
# seed, fleet options, file size, SHA-256 of the file)
DIGEST_FLEETS = [
    pytest.param(
        240, 16, 5, {"drop_rate": 0.03}, 33198,
        "e4c4522a2654b486f7f8a173a4a53e7d709324c77d496603433c73c9f3c6a4b1",
        id="sparse-gaps"),
    pytest.param(
        60, 8, 6, {"drop_rate": 0.2, "geometric": True}, 58206,
        "3890da6e7ed298e496e2fb2ee09c990b8e317cc1b513777f11e7c379b888b92f",
        id="gappy-short-period"),
    pytest.param(
        120, 80, 7, {"drop_rate": 0.05}, 33846,
        "5410bbc0ffb744e71875be7ab638159c80eaedf4d6c2d4a91b5829d3b0e085ff",
        id="range-shape"),
    pytest.param(
        720, 640, 8, {"drop_rate": 0.02, "max_step": 6}, 26998,
        "1db5c67bdb0d08b0f84e0445563118150cada8c2b9a4d25bab52b049fa117213",
        id="lookup-shape"),
]


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


def sweep(ix) -> list:
    """The answers of ix, an index over a 16x16 grid, to a sweep of
    queries: every position and each whole trajectory, and for each of
    four regions a slice at every instant and an 8-instant interval from
    every third instant."""
    out = []
    for oid in ix.object_ids:
        out.append([ix.object_position(oid, q) for q in range(ix.horizon)])
        out.append(ix.trajectory(oid, 0, ix.horizon - 1))
    for region in (Region(0, 15, 0, 15), Region(0, 7, 0, 7),
                   Region(8, 15, 4, 11), Region(5, 5, 10, 10)):
        out.append([ix.time_slice(region, q) for q in range(ix.horizon)])
        out.append([ix.time_interval(region, q, min(q + 7, ix.horizon - 1))
                    for q in range(0, ix.horizon, 3)])
    return out


def refuse_decodes(monkeypatch, message):
    """Make each decode of a log, of a run of fixes (`log.decode`) or of
    one (`log.position_at`), raise AssertionError with message, under
    every name a module holds it by."""
    def refuse(*args):
        raise AssertionError(message)

    for name in ("trajindex.log.decode", "trajindex.log.position_at",
                 "trajindex.engine.decode", "trajindex.engine.position_at",
                 "trajindex.mbrtree.position_at"):
        monkeypatch.setattr(name, refuse)


@pytest.fixture
def ref_index(ref_rows):
    return build_index(ref_rows, period=REF_PERIOD, leaf_capacity=2,
                       extent=(16, 16), horizon=14)


class TestReferenceIndex:
    def test_shape_and_speed(self, ref_index):
        assert ref_index.max_speed == 3
        assert len(ref_index._snapshots) == 2
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

    @pytest.mark.parametrize("rect", [
        (-9, -4, 0, 15), (20, 30, 0, 15), (0, 15, -9, -4), (0, 15, 20, 30),
        (20, 30, 20, 30), (0, 5, 30, 40)],
        ids=["left", "right", "below", "above", "corner", "far-above"])
    def test_regions_off_the_grid(self, ref_index, ref_rows, rect):
        # a region that misses the grid holds no position: every instant
        # and interval answers as the oracle does
        table = PositionTable.from_samples(ref_rows, horizon=14)
        region = Region(*rect)
        for q in range(14):  # snapshot instants 0 and 13, logged ones between
            assert ref_index.time_slice(region, q) == \
                oracle_slice(table, rect, q)
        for a in range(14):
            for b in range(a, 14):
                assert ref_index.time_interval(region, a, b) == \
                    oracle_interval(table, rect, a, b)

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

    @pytest.mark.parametrize("rows", [
        [(1, 2, 3), (1, 4, 5, 6, 7)],
        [(1, 2, 3, 4, 5)],
        [(1, "x", 3, 4)],
    ])
    def test_rejects_rows_not_of_four_integers(self, rows):
        with pytest.raises(ValueError, match="rows of four"):
            build_index(rows, period=10, leaf_capacity=2, extent=(8, 8))

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
        # 7 cells in 3 instants rounds up to 3 cells per instant; the step
        # from object 1 to object 2 is no move
        rows = np.array([[1, 5, 3, 0], [1, 8, 10, 0], [2, 0, 90, 90]],
                        dtype=np.int64)
        assert compute_max_speed(rows) == 3

    @pytest.mark.parametrize("seed", range(6))
    def test_computed_speed_matches_ceiling_of_every_step(self, seed):
        # the bound is the largest ceil(max(|dx|, |dy|) / dt) over the
        # steps of one object, here with dt 1..5, single-row objects
        # among the rest, and a fleet with no steps at all
        def every_step(rows):
            steps = np.diff(rows, axis=0)[rows[1:, 0] == rows[:-1, 0]]
            if not len(steps):
                return 0
            moved = np.abs(steps[:, 2:]).max(axis=1)
            return int((-(-moved // steps[:, 1])).max())

        rng = np.random.default_rng(seed)
        counts = rng.integers(1, 40, size=30)
        counts[::4] = 1
        ids = np.repeat(np.arange(1, 31), counts)
        ts = np.concatenate([np.cumsum(rng.integers(1, 6, size=c))
                             for c in counts])
        xy = rng.integers(0, 60, size=(len(ids), 2))
        rows = np.column_stack([ids, ts, xy]).astype(np.int64)
        assert compute_max_speed(rows) == every_step(rows) > 0
        singles = rows[np.r_[0, np.flatnonzero(np.diff(ids)) + 1]]
        assert compute_max_speed(singles) == every_step(singles) == 0
        assert compute_max_speed(rows[:0]) == 0

    @pytest.mark.parametrize("rows, kwargs, field", [
        ([(1 << 32, 1, 1, 1)], {}, "object id 4294967296"),
        ([(-1, 1, 1, 1)], {}, "object id -1"),
        ([(1, 1 << 32, 1, 1)], {}, "instant 4294967296"),
        ([(1, (1 << 32) - 1, 1, 1)], {}, "instant 4294967295"),
        ([(1 << 64, 1, 1, 1)], {}, "64-bit integers"),
        ([(1, 1, 1, 1)], {"period": 1 << 32}, "period"),
        ([(1, 1, 1, 1)], {"leaf_capacity": 1 << 32}, "leaf capacity"),
        ([(1, 1, 1, 1)], {"extent": (1 << 32, 8)}, "width"),
        ([(1, 1, 1, 1)], {"extent": (8, 1 << 33)}, "height"),
        ([(1, 1, 1, 1)], {"horizon": 1 << 32}, "horizon"),
        ([(1, 1, 1, 1)], {"max_speed": 1 << 32}, "max speed"),
        # a snapshot stores each row's Morton code plus its row as an int64
        ([(1, 0, 0, 1 << 31)], {"extent": (8, (1 << 32) - 1)}, "Morton code"),
        ([(1 << 63, 1, 1, 1)], {}, "64-bit integers"),
        # floats and bools would be truncated to grid cells
        ([(1, 0, 0.9, 0), (1, 1, 1.7, 0)], {}, "64-bit integers"),
        (np.ones((2, 4), dtype=np.float32), {}, "64-bit integers"),
        ([(True, False, True, False)], {}, "64-bit integers"),
        # cells off the grid, which no snapshot can hold
        ([(1, 0, 8, 0)], {}, "outside 8x8 grid"),
        ([(1, 0, 0, 8)], {}, "outside 8x8 grid"),
        ([(1, 0, -1, 0)], {}, "outside 8x8 grid"),
    ])
    def test_rejects_values_the_file_cannot_store(self, rows, kwargs, field):
        args = {"period": 10, "leaf_capacity": 2, "extent": (8, 8), **kwargs}
        with pytest.raises(ValueError, match=field):
            build_index(rows, **args)

    def test_rejects_a_log_whose_moves_sum_past_a_u32(self):
        # each stream stores its total as a u32: two climbs of 2**32 - 2
        # cells sum past it, though every coordinate fits
        top = (1 << 32) - 2
        rows = [(1, t, 0, y) for t, y in enumerate((0, top, 0, top))]
        with pytest.raises(ValueError, match="u32"):
            build_index(rows, period=10, leaf_capacity=2, extent=(8, top + 1))
        build_index(rows[:3], period=10, leaf_capacity=2, extent=(8, top + 1))

    def test_rejects_a_fast_block_with_a_long_gap(self):
        # a jump of 2**20 cells in one instant makes its block's x speed
        # bound 2**20; with a fix at instant 4,096 in the same block the x
        # stream's increments sum to 2**20 + 2**20 * 4095 = 2**32: past a
        # u32, though the version 4 sign-and-magnitude streams took it
        jump = 1 << 20

        def rows(last):
            return [(1, 0, 0, 0), (1, 1, 0, 0), (1, 2, jump, 0),
                    (1, last, jump, 0)]

        with pytest.raises(ValueError, match="u32"):
            build_index(rows(4096), period=5000, leaf_capacity=64,
                        extent=(jump + 1, 8))
        # one instant earlier the sum fits
        build_index(rows(4095), period=5000, leaf_capacity=64,
                    extent=(jump + 1, 8))
        # and so does a fix at every instant to 4,096: the blocks after
        # the jump's have speed bound 0
        parked = [(1, 0, 0, 0), (1, 1, 0, 0)] + [(1, t, jump, 0)
                                                 for t in range(2, 4097)]
        log = build_index(parked, period=5000, leaf_capacity=64,
                          extent=(jump + 1, 8))._logs[(0, 1)][0]
        assert log.position(4096) == (jump, 0)

    def test_period_count_is_bounded_before_any_snapshot(self, monkeypatch):
        # one fix at instant 2**32 - 2 with d=2 would need 2**31 snapshots
        def refuse(*args, **kwargs):
            raise AssertionError("a snapshot was built")

        monkeypatch.setattr(Snapshot, "__init__", refuse)
        with pytest.raises(ValueError, match=f"limit of {MAX_PERIODS} periods"):
            build_index([(1, (1 << 32) - 2, 0, 0)], period=2, leaf_capacity=2,
                        extent=(8, 8))
        with pytest.raises(ValueError, match=f"limit of {MAX_PERIODS} periods"):
            build_index([(1, 0, 0, 0)], period=2, leaf_capacity=2,
                        extent=(8, 8), horizon=2 * MAX_PERIODS + 1)

    def test_largest_u32_values_build(self):
        top = (1 << 32) - 1
        ix = build_index([(top, top - 1, 1, 1)], period=top, leaf_capacity=top,
                         extent=(8, 8), max_speed=top)
        assert ix.object_ids == [top] and ix.horizon == top
        assert TrajectoryIndex.from_bytes(ix.to_bytes()).object_ids == [top]

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

    @pytest.mark.parametrize("collecting", [True, False])
    def test_load_leaves_the_collector_as_it_was(self, tiny_blob, collecting):
        flipped = bytearray(tiny_blob)
        flipped[-1] ^= 1
        was = gc.isenabled()
        try:
            (gc.enable if collecting else gc.disable)()
            TrajectoryIndex.from_bytes(tiny_blob)
            assert gc.isenabled() == collecting
            with pytest.raises(ValueError, match="checksum"):
                TrajectoryIndex.from_bytes(bytes(flipped))
            assert gc.isenabled() == collecting
            with pytest.raises(ValueError, match="truncated"):
                TrajectoryIndex.from_bytes(restamp(tiny_blob[:-5]))
            assert gc.isenabled() == collecting
        finally:
            (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_old_version_file_is_rejected_by_name(self, tiny_blob, version):
        old = tiny_blob[:4] + version.to_bytes(2, "little") + tiny_blob[6:]
        with pytest.raises(ValueError, match=f"version {version}"):
            TrajectoryIndex.from_bytes(old)

    @pytest.mark.parametrize("field, value, ok", [
        ("s", 3, True), ("s", 4, False),   # the index's speed bound is 3
        # the root box's x range is 2..10; 10 lies inside it, but the log's
        # first fix is also its entrant's snapshot cell, (2, 4)
        ("x", 2, True), ("x", 10, "speed bound's reach"),
        ("x", 1, False), ("x", 11, False), ("x", 16, False),
        ("y", 4, True), ("y", 3, False),   # and its y range 4..10
        # the root box may grow to the grid's edge, 15, and no further
        ("xmax", 15, True), ("xmax", 16, False), ("xmax", 1000, False),
        ("ymax", 15, True), ("ymax", 16, False),
    ])
    def test_records_outside_the_speed_bound_or_root_box_are_rejected(
            self, ref_rows, field, value, ok):
        blob = build_index(ref_rows, period=REF_PERIOD, leaf_capacity=2,
                           extent=(16, 16), horizon=14).to_bytes()
        # the log's speed bound 3 and entry widths 0 (a log of one block
        # keeps s for both axes), first x 2 and x total 6 + 3 * 8 = 30;
        # its first y 4 and y total 5 + 3 * 8 = 29; its root box, x 2..10
        # and y 4..10
        pattern, shift = {"s": ((3, 0, 2, 30), 0), "x": ((3, 0, 2, 30), 8),
                          "y": ((4, 29), 0), "xmax": ((2, 10, 4, 10), 4),
                          "ymax": ((2, 10, 4, 10), 12)}[field]
        pattern = struct.pack(f"<{len(pattern)}I", *pattern)
        at = blob.find(pattern)
        assert at > 0 and blob.find(pattern, at + 1) < 0
        at += shift
        edited = restamp(blob[:at] + struct.pack("<I", value) + blob[at + 4:])
        message = ("root box leaves the grid" if field.endswith("max")
                   else ok or "speed bound or first fix")
        if ok is True:
            TrajectoryIndex.from_bytes(edited)
        else:
            with pytest.raises(ValueError, match=message):
                TrajectoryIndex.from_bytes(edited)

    @pytest.mark.parametrize("field", ["entries", "diffs"])
    def test_widths_past_64_are_rejected(self, ref_rows, field):
        blob = build_index(ref_rows, period=REF_PERIOD, leaf_capacity=2,
                           extent=(16, 16), horizon=14).to_bytes()
        # the log's entry widths follow its speed bound 3, the x
        # reductions' in the low byte; its tree's diff width follows its
        # first y 4 and y total 29
        pattern = {"entries": (3, 0, 2, 30), "diffs": (4, 29)}[field]
        at = blob.find(struct.pack(f"<{len(pattern)}I", *pattern))
        at += 4 if field == "entries" else 8
        # a width of 64 passes the check, and the pools it implies are
        # longer than the file
        for width, message in ((64, "truncated"), (65, "64 bits")):
            edited = restamp(blob[:at] + struct.pack("<I", width)
                             + blob[at + 4:])
            with pytest.raises(ValueError, match=message):
                TrajectoryIndex.from_bytes(edited)

    @pytest.mark.parametrize("move, message", [
        (False, "wrong number of ones"), (True, "past its end")])
    def test_high_bits_hold_their_members_and_no_more(self, ref_index, move,
                                                      message):
        blob = ref_index.to_bytes()
        # the bit pool's first word holds the window bitmap's 9 bits, set
        # at the fixes, clear at the gaps at offsets 5 and 6
        at = len(blob) - 8 * (len(ref_index._bits.words)
                              + len(ref_index._words))
        word = int.from_bytes(blob[at:at + 8], "little")
        assert word == 0b111001111
        word |= 1 << 63  # a bit past the end
        if move:
            word &= word - 1  # and one member fewer
        edited = restamp(blob[:at] + word.to_bytes(8, "little")
                         + blob[at + 8:])
        with pytest.raises(ValueError, match=message):
            TrajectoryIndex.from_bytes(edited)

    @pytest.mark.parametrize("edit", ["none", "last-one-up", "last-low"])
    def test_a_stream_that_does_not_end_at_its_total_is_rejected(
            self, ref_index, edit):
        # the x stream of the reference log: 6 members, total 30, so its
        # last member is 35, with lows of 2 bits, and its high bits hold
        # 6 ones in 15 bits, in a word of their own
        blob = bytearray(ref_index.to_bytes())
        f = ref_index._fields(0)
        base, lows, lw, total = (f[X_AXIS + c] for c in (0, 2, 3, 4))
        assert (f[DATA] - 1, total, lw) == (6, 30, 2)
        bits_at = len(blob) - 8 * (len(ref_index._bits.words)
                                   + len(ref_index._words))
        high_at = bits_at + 8 * base
        lows_at = bits_at + 8 * (len(ref_index._bits.words) + lows)
        high = int.from_bytes(blob[high_at:high_at + 8], "little")
        last = (35 >> 2) + 6 - 1  # the last member's one
        assert high.bit_count() == 6 and high.bit_length() == last + 1
        if edit == "last-one-up":
            # the same count of ones, none past the end, but the last a
            # bucket higher
            high = high & (high - 1) | 1 << last + 1
        elif edit == "last-low":
            blob[lows_at + 5 * 2 // 8] ^= 1 << 5 * 2 % 8
        blob[high_at:high_at + 8] = high.to_bytes(8, "little")
        if edit == "none":
            TrajectoryIndex.from_bytes(restamp(blob))
        else:
            with pytest.raises(ValueError, match="does not end at its total"):
                TrajectoryIndex.from_bytes(restamp(blob))

    @pytest.mark.parametrize("sx, sy", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    def test_a_log_that_ends_at_a_corner_of_its_root_box_loads(self, sx, sy):
        # monotone tracks with rare fast steps end at a corner of each
        # log's root box, and their blocks keep speed bounds of their own,
        # so the load works each last fix out through the last block's
        # reduction and offset, exactly
        rng = np.random.default_rng(71)
        rows = []
        for oid in range(1, 9):
            steps = rng.integers(0, 2, size=(600, 2))
            steps[rng.random(600) < 0.02] *= 40
            xs, ys = 1000 + np.cumsum(steps * (sx, sy), axis=0).T
            rows += [(oid, t, int(xs[t]), int(ys[t])) for t in range(600)
                     if t % 7 or t % 200 == 0]
        ix = build_index(rows, 200, 4, (2000, 2000))
        logs = [ix._fields(row) for row in range(sum(r >= 0 for r in ix._rows))]
        assert sum(f[WIDTHS] > 0 for f in logs) > 4  # logs with block entries
        back = TrajectoryIndex.from_bytes(ix.to_bytes())
        for oid, t, x, y in rows[::5]:
            assert back.object_position(oid, t) == (x, y)

    @pytest.mark.parametrize("window, ok", [
        # the gaps at offsets 5 and 6, as built; 5 and 8; 1 and 6, where
        # the window begins with a gap; 5 and 9, where it ends with one
        pytest.param(0b111001111, True, id="as-built"),
        pytest.param(0b101101111, True, id="inside"),
        pytest.param(0b111011110, False, id="first"),
        pytest.param(0b011101111, False, id="last"),
    ])
    def test_a_window_that_begins_or_ends_with_a_gap_is_rejected(
            self, ref_index, window, ok):
        blob = ref_index.to_bytes()
        # the log's window holds 9 instants, 7 of them fixes: the bit
        # pool's first word holds its bitmap
        at = len(blob) - 8 * (len(ref_index._bits.words)
                              + len(ref_index._words))
        assert blob[at:at + 8] == (0b111001111).to_bytes(8, "little")
        edited = restamp(blob[:at] + window.to_bytes(8, "little")
                         + blob[at + 8:])
        if ok:
            TrajectoryIndex.from_bytes(edited)
        else:
            with pytest.raises(ValueError, match="begins or ends with a gap"):
                TrajectoryIndex.from_bytes(edited)

    def test_a_horizon_that_cuts_a_log_short_is_rejected(self, tiny_blob):
        # horizon 40 -> 32 keeps four periods of 10 instants, but the last
        # period's logs hold fixes up to instant 39
        assert struct.unpack_from("<2I", tiny_blob, 18) == (40, 10)
        for horizon, ok in ((40, True), (32, False), (31, False)):
            edited = restamp(tiny_blob[:18] + struct.pack("<I", horizon)
                             + tiny_blob[22:])
            if ok:
                TrajectoryIndex.from_bytes(edited)
            else:
                with pytest.raises(ValueError, match="horizon"):
                    TrajectoryIndex.from_bytes(edited)

    @pytest.mark.parametrize("change", [-1, 1])
    def test_a_sample_count_the_file_does_not_hold_is_rejected(self, tiny_blob,
                                                               change):
        count, = struct.unpack_from("<I", tiny_blob, 30)
        edited = restamp(tiny_blob[:30] + struct.pack("<I", count + change)
                         + tiny_blob[34:])
        with pytest.raises(ValueError, match=f"{count + change} samples"):
            TrajectoryIndex.from_bytes(edited)

    def test_ids_the_snapshots_do_not_hold_are_rejected(self, tiny_blob):
        # still strictly increasing, but object 4 is in no snapshot
        bad = restamp(tiny_blob[:50] + (4).to_bytes(4, "little")
                      + tiny_blob[54:])
        with pytest.raises(ValueError, match="listed objects"):
            TrajectoryIndex.from_bytes(bad)

    @staticmethod
    def snapshot_at(ix, p) -> tuple[int, int]:
        """The byte where period p's snapshot ids begin in the file of ix,
        and the bit of its first entrant flag."""
        snaps = ix._snapshots
        w = Writer()
        snaps.write(w)
        # the rows of every period, and of those before p
        held = np.frombuffer(snaps.tree.state, np.uint8) != NO_ROW
        rows = np.count_nonzero(held)
        first = np.count_nonzero(held[:p * len(ix.object_ids)])
        # the frame and the header's u32s, the object ids, then the
        # section up to its entrant bitmap
        entrants = 42 + 4 * len(ix.object_ids) + len(w) - 8 * -(-rows // 64)
        return entrants - 4 * (rows - first), 8 * entrants + first

    def test_a_log_without_a_snapshot_row_is_rejected(self):
        # object 1 has a log in period 0, but the snapshot row there names
        # object 2, which is in period 1's snapshot too
        rows = [(1, t, t, 0) for t in range(8)] + [(2, t, 5, 5)
                                                   for t in range(4, 8)]
        ix = build_index(rows, period=4, leaf_capacity=2, extent=(8, 8))
        blob = ix.to_bytes()
        ids, _ = self.snapshot_at(ix, 0)
        assert blob[ids:ids + 4] == struct.pack("<I", 1)
        edited = restamp(blob[:ids] + struct.pack("<I", 2) + blob[ids + 4:])
        with pytest.raises(ValueError, match="no row in its period"):
            TrajectoryIndex.from_bytes(edited)

    def test_an_entrant_away_from_its_logs_first_fix_is_rejected(self):
        # the row of object 1 at instant 0, (0, 0), marked an entrant,
        # while its log begins at (1, 0); the header loses that fix
        rows = [(1, t, t, 0) for t in range(4)]
        ix = build_index(rows, period=4, leaf_capacity=2, extent=(8, 8))
        blob = bytearray(ix.to_bytes())
        _, entrant = self.snapshot_at(ix, 0)
        assert blob[entrant // 8] >> entrant % 8 & 1 == 0
        blob[entrant // 8] |= 1 << entrant % 8
        blob[30:34] = struct.pack("<I", 3)  # the sample count
        with pytest.raises(ValueError, match="speed bound's reach"):
            TrajectoryIndex.from_bytes(restamp(blob))

    def test_a_fix_beyond_reach_of_its_logs_first_fix_is_rejected(self):
        # objects 1 and 2 swap their snapshot rows: 1 sits at (7, 7) at
        # instant 0, and 6 cells away one instant later
        rows = ([(1, t, t, 0) for t in range(4)]
                + [(2, t, 7, 7 - t) for t in range(4)])
        ix = build_index(rows, period=4, leaf_capacity=2, extent=(8, 8))
        assert ix.max_speed == 1
        blob = ix.to_bytes()
        ids, _ = self.snapshot_at(ix, 0)
        assert blob[ids:ids + 8] == struct.pack("<2I", 1, 2)
        edited = restamp(blob[:ids] + struct.pack("<2I", 2, 1) + blob[ids + 8:])
        with pytest.raises(ValueError, match="speed bound's reach"):
            TrajectoryIndex.from_bytes(edited)

    def test_every_bit_flip_past_the_checksum_loads_the_same_ids_or_fails(self):
        # the CRC is re-stamped, so every flip reaches the parser: it must
        # end in ValueError or in an index over the very same objects
        fleet = make_fleet(3, 8, (8, 8), seed=9, drop_rate=0.25)
        ix = build_index(fleet.rows(), period=4, leaf_capacity=2,
                         extent=fleet.extent)
        snaps = ix._snapshots
        assert snaps.tree.state.count(ENTRANT) == 1  # one entrant row
        blob = ix.to_bytes()
        regions = [Region(0, 7, 0, 7), Region(0, 3, 0, 3), Region(4, 7, 2, 5),
                   Region(2, 2, 5, 5)]
        windows = [(0, 7), (1, 3), (2, 6), (5, 5)]
        flipped = bytearray(blob)
        for i in range(10, len(blob)):
            for bit in range(8):
                flipped[i] ^= 1 << bit
                try:
                    loaded = TrajectoryIndex.from_bytes(restamp(flipped))
                except ValueError:
                    pass
                else:
                    assert loaded.object_ids == [1, 2, 3], (i, bit)
                    # and no bit the load ignores: it writes the same file
                    assert loaded.to_bytes() == restamp(flipped), (i, bit)
                    # queries over the corrupt index, box-tree walks and
                    # leaf jumps among them, answer or raise ValueError;
                    # so do positions and trajectories
                    for region, (a, b) in itertools.product(regions, windows):
                        try:
                            loaded.time_interval(region, a, b)
                        except ValueError:
                            pass
                    # a slice probes the snapshot table directly
                    for region, q in itertools.product(
                            regions, range(loaded.horizon)):
                        try:
                            loaded.time_slice(region, q)
                        except ValueError:
                            pass
                    for oid in loaded.object_ids:
                        for q in range(loaded.horizon):
                            try:
                                loaded.object_position(oid, q)
                            except ValueError:
                                pass
                        try:
                            loaded.trajectory(oid, 0, loaded.horizon - 1)
                        except ValueError:
                            pass
                flipped[i] ^= 1 << bit

    def test_every_flip_of_a_stream_total_fails_or_answers_the_same(
            self, tiny_blob):
        # a stream's total sets its low width and the length of its high
        # bits; a flip that keeps every piece's word count must be
        # refused at load, or leave an index that answers as the intact
        # one does
        ix = TrajectoryIndex.from_bytes(tiny_blob)
        logs = len(ix._logs)
        table = (len(tiny_blob) - 8 * (len(ix._bits.words) + len(ix._words))
                 - 4 * U32_FIELDS * logs)
        want = sweep(ix)
        outcomes = []
        for row in range(logs):
            for axis in (X_AXIS, Y_AXIS):
                at = table + 4 * (U32_FIELDS * row
                                  + FILE_FIELDS.index(axis + 4))
                assert struct.unpack_from("<I", tiny_blob, at) == \
                    (ix._fields(row)[axis + 4],)
                for bit in range(32):
                    flipped = bytearray(tiny_blob)
                    flipped[at + bit // 8] ^= 1 << bit % 8
                    try:
                        loaded = TrajectoryIndex.from_bytes(restamp(flipped))
                    except ValueError:
                        outcomes.append("refused")
                        continue
                    assert sweep(loaded) == want, (row, axis, bit)
                    outcomes.append("same answers")
        assert len(outcomes) == 64 * logs and "refused" in outcomes

    @pytest.mark.parametrize("sparse", [False, True],
                             ids=["count-past-objects", "rows-past-file"])
    def test_row_counts_are_bounded_before_any_allocation(self, tiny_blob,
                                                          sparse):
        # the row counts follow the object ids; a count of 2**32 - 1 would
        # size arrays of billions of rows, and 30 periods of a row each
        # counted full hold 900 rows, 3,600 bytes of ids alone
        if sparse:
            blob = build_index([(i, 2 * i, i, i) for i in range(30)], period=2,
                               leaf_capacity=2, extent=(32, 32)).to_bytes()
            at, counts = 42 + 4 * 30, [30] * 30
        else:
            blob, at, counts = tiny_blob, 42 + 4 * 3, [U32_MAX]
        size = 4 * len(counts)
        edited = restamp(blob[:at] + struct.pack(f"<{len(counts)}I", *counts)
                         + blob[at + size:])
        assert len(edited) < 3600
        with pytest.raises(ValueError, match="more rows"):
            TrajectoryIndex.from_bytes(edited)

    @pytest.mark.parametrize("extent", [(8, U32_MAX), (U32_MAX, U32_MAX)],
                             ids=["tall", "widest"])
    def test_tall_grid_round_trip(self, extent):
        # the grid's top code passes 2**63, and so does the universe of
        # each period's codes: period 0 holds one row, whose low width
        # comes from a quotient past 2**63; small coordinates keep every
        # code storable
        rows = ([(1, t, t % 5, t % 3) for t in range(30)]
                + [(2, t, 3, 1 + t % 2) for t in range(5, 30)])
        built = build_index(rows, period=4, leaf_capacity=2, extent=extent)
        blob = built.to_bytes()
        assert blob == reference_blob(rows, 4, 2, extent)
        loaded = TrajectoryIndex.from_bytes(blob)
        assert loaded.to_bytes() == blob
        table = {(oid, t): (x, y) for oid, t, x, y in rows}
        for oid in (1, 2):
            assert [loaded.object_position(oid, q) for q in range(30)] == \
                [built.object_position(oid, q) for q in range(30)] == \
                [table.get((oid, q)) for q in range(30)]
        for region in (Region(0, 7, 0, 7), Region(3, 3, 1, 1)):
            for q in range(30):
                assert loaded.time_slice(region, q) == \
                    built.time_slice(region, q)
            assert loaded.time_interval(region, 0, 29) == \
                built.time_interval(region, 0, 29) == [1, 2]

    @pytest.mark.parametrize("order", [[2, 1, 3], [1, 1, 3]],
                             ids=["swapped", "duplicate"])
    def test_ids_out_of_order_are_rejected(self, tiny_blob, order):
        # the ids follow the 10-byte prefix and eight u32 header fields
        ids = np.frombuffer(tiny_blob, "<u4", count=3, offset=42)
        assert list(ids) == [1, 2, 3]
        bad = restamp(tiny_blob[:42] + np.array(order, "<u4").tobytes()
                      + tiny_blob[54:])
        with pytest.raises(ValueError, match="strictly increasing"):
            TrajectoryIndex.from_bytes(bad)
        assert TrajectoryIndex.from_bytes(restamp(tiny_blob)).object_ids == \
            [1, 2, 3]

    @pytest.mark.parametrize("period, leaf, seed, kwargs, size, digest",
                             DIGEST_FLEETS)
    def test_bytes_match_recorded_digest(self, period, leaf, seed, kwargs,
                                         size, digest):
        # the file format is frozen: these digests were recorded when the
        # format moved to version 9, where a log's axis streams hold a
        # member per fix after the first and a log with gaps a bitmap over
        # its window.  The first fleet has few gaps in every log, the
        # second a median of about a fifth of each short window; the last
        # two have the periods and leaf capacities of the two perfbench
        # workloads.  All four match the per-log reference encoder
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


class TestColumnBuild:
    def test_build_neither_writes_nor_loads_a_file(self, small_fleet,
                                                   monkeypatch):
        def refuse(*args):
            raise AssertionError("the build went through a file")

        for name in ("to_bytes", "encode", "from_bytes"):
            monkeypatch.setattr(TrajectoryIndex, name, refuse)
        build_index(small_fleet.rows(), period=60, leaf_capacity=5,
                    extent=small_fleet.extent)

    def test_a_build_and_its_saved_copy_are_one_index(self, tmp_path,
                                                      small_fleet, small_index,
                                                      small_table):
        path = tmp_path / "fleet.idx"
        small_index.save(path)
        copy = TrajectoryIndex.load(path)
        assert copy.to_bytes() == small_index.to_bytes()
        assert copy.memory() == small_index.memory()
        last = small_table.horizon - 1
        for oid in small_index.object_ids:
            for t in range(last + 1):
                assert copy.object_position(oid, t) == \
                    small_index.object_position(oid, t) == \
                    small_table.position(oid, t)
            for a, b in ((0, last), (59, 61), (100, 250)):
                assert copy.trajectory(oid, a, b) == \
                    small_index.trajectory(oid, a, b) == \
                    small_table.trajectory(oid, a, b)
        rng = np.random.default_rng(66)
        for _ in range(40):
            x1, y1 = (int(v) for v in rng.integers(0, 560, size=2))
            region = Region(x1, x1 + 40, y1, y1 + 40)
            rect = (x1, x1 + 40, y1, y1 + 40)
            a = int(rng.integers(0, last + 1))
            b = min(last, a + int(rng.integers(0, 90)))
            assert copy.time_slice(region, a) == \
                small_index.time_slice(region, a) == \
                oracle_slice(small_table, rect, a)
            assert copy.time_interval(region, a, b) == \
                small_index.time_interval(region, a, b) == \
                oracle_interval(small_table, rect, a, b)

    def test_build_decodes_no_log(self, small_fleet, small_index, monkeypatch):
        refuse_decodes(monkeypatch, "the build decoded a log")
        built = build_index(small_fleet.rows(), period=60, leaf_capacity=5,
                            extent=small_fleet.extent)
        assert built.to_bytes() == small_index.to_bytes()

    def test_parsed_records_build_with_no_object_per_fix(self, small_fleet,
                                                         small_index,
                                                         monkeypatch):
        blob = write_binary(map(RawRecord._make, small_fleet.rows()))

        def refuse(*args):
            raise AssertionError("the build made a record object")

        monkeypatch.setattr(RawRecord, "_make", refuse)
        built = build_index(parse_binary(blob), period=60, leaf_capacity=5,
                            extent=small_fleet.extent)
        assert built.to_bytes() == small_index.to_bytes()

    @pytest.mark.parametrize("period, leaf, seed, kwargs, size, digest",
                             DIGEST_FLEETS)
    def test_records_lists_generators_and_arrays_build_the_same_bytes(
            self, period, leaf, seed, kwargs, size, digest):
        fleet = make_fleet(12, 1500, (256, 256), seed, **kwargs)
        rows = list(fleet.rows())
        inputs = (parse_binary(write_binary(map(RawRecord._make, rows))),
                  rows, (r for r in rows), np.array(rows, dtype=np.uint16))
        blobs = {build_index(samples, period, leaf, fleet.extent,
                             horizon=fleet.horizon).to_bytes()
                 for samples in inputs}
        assert [hashlib.sha256(b).hexdigest() for b in blobs] == [digest]

    @pytest.mark.parametrize("key", [
        lambda r: (r[1], r[0]),
        lambda r: (r[1], -r[0]),
        lambda r: (-r[0], r[1]),
    ], ids=["by-instant", "by-instant-ids-down", "ids-down"])
    def test_interleaved_rows_build_the_same_bytes(self, small_fleet,
                                                   small_index, key):
        rows = sorted(small_fleet.rows(), key=key)
        built = build_index(rows, period=60, leaf_capacity=5,
                            extent=small_fleet.extent)
        assert built.to_bytes() == small_index.to_bytes()

    @pytest.mark.parametrize("rows, oid, t", [
        ([(1, 0, 1, 1), (2, 0, 2, 2), (1, 1, 1, 2), (2, 1, 2, 3),
          (1, 1, 1, 3)], 1, 1),
        ([(2, 3, 1, 1), (1, 0, 2, 2), (1, 4, 2, 3), (2, 2, 1, 2)], 2, 2),
    ], ids=["repeated", "backward"])
    def test_interleaved_instant_out_of_order_is_named(self, rows, oid, t):
        with pytest.raises(ValueError,
                           match=f"object {oid} .* at instant {t}$"):
            build_index(rows, period=10, leaf_capacity=2, extent=(8, 8))


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


def log_boxes(fleet, period):
    """(object id, period start, root box) of every log, from the fleet's
    own arrays: the box of the fixes strictly inside the period."""
    out = []
    for i, oid in enumerate(fleet.ids):
        for k in range(0, fleet.horizon, period):
            ts = k + 1 + np.flatnonzero(fleet.present[i, k + 1:k + period])
            if len(ts):
                xs, ys = fleet.xs[i, ts], fleet.ys[i, ts]
                out.append((int(oid), k, Region(int(xs.min()), int(xs.max()),
                                                int(ys.min()), int(ys.max()))))
    return out


class TestRootBoxFilter:
    """Slice and interval queries skip a log whose root box misses the
    region; the box is inclusive, so regions that only touch its edges
    must still find the fixes on them."""

    def edge_regions(self, box, extent):
        w, h = extent
        reach = 25
        for x1, x2, y1, y2 in (
                (box.xmax, box.xmax + reach, box.ymin, box.ymax),
                (box.xmin - reach, box.xmin, box.ymin, box.ymax),
                (box.xmin, box.xmax, box.ymax, box.ymax + reach),
                (box.xmin, box.xmax, box.ymin - reach, box.ymin),
                (box.xmax + 1, box.xmax + reach, box.ymin, box.ymax),
                (box.xmin - reach, box.xmin - 1, box.ymin, box.ymax),
                (box.xmax, box.xmax, box.ymax, box.ymax)):
            x1, y1 = max(0, x1), max(0, y1)
            x2, y2 = min(w - 1, x2), min(h - 1, y2)
            if x1 <= x2 and y1 <= y2:
                yield (x1, x2, y1, y2)

    def test_edge_regions_match_oracle(self, small_fleet, small_index,
                                       small_table):
        rng = np.random.default_rng(66)
        d = small_index.period
        boxes = log_boxes(small_fleet, d)
        touched = 0
        for j in rng.choice(len(boxes), size=40, replace=False):
            oid, k, box = boxes[j]
            last = min(k + d - 1, small_table.horizon - 1)
            for rect in self.edge_regions(box, small_fleet.extent):
                region = Region(*rect)
                want = oracle_interval(small_table, rect, k + 1, last)
                assert small_index.time_interval(region, k + 1, last) == want
                assert small_index.time_interval(
                    region, k + 1, last, mbr_prune=False) == want
                inside = [t for t in range(k + 1, last + 1)
                          if (pos := small_table.position(oid, t))
                          and region.contains(*pos)]
                assert (oid in want) == bool(inside)
                touched += bool(inside)
                for q in inside[:2] + [int(rng.integers(k + 1, last + 1))]:
                    assert small_index.time_slice(region, q) == \
                        oracle_slice(small_table, rect, q)
        assert touched > 40

    def test_root_reject_counts_as_a_rejected_root_visit(self):
        # object 1 paces in the far corner, object 2 is the only one
        # inside the region; at 1's speed of 4 cells an instant its first
        # fix comes within reach of the region, but its root box misses it
        rows = ([(1, t, 30 - 4 * (t % 2), 30) for t in range(10)]
                + [(2, t, 14 + t % 2, 14) for t in range(10)])
        ix = build_index(rows, period=10, leaf_capacity=2, extent=(40, 40),
                         max_speed=4)
        region = Region(10, 16, 10, 16)
        stats = TraversalStats(trace=True)
        assert ix.time_interval(region, 1, 9, stats=stats) == [2]
        log = build_log([(t, 30 - 4 * (t % 2), 30) for t in range(1, 10)],
                        0, 10)
        alone = TraversalStats(trace=True)
        assert build_mbr_tree(log, 2).first_hit(
            log, region, 1, 9, 4, 1, 9, stats=alone) is None
        assert alone.events == [("visit", 1), ("mbr_reject", 1)]
        # one root visit and its rejection, in the order first_hit makes them
        rejects = [i for i, e in enumerate(stats.events)
                   if e == ("mbr_reject", 1)]
        assert len(rejects) == 1
        assert stats.events[rejects[0] - 1:rejects[0] + 1] == alone.events
        assert stats.nodes_visited == \
            sum(kind == "visit" for kind, _ in stats.events)
        bare = TraversalStats(trace=True)
        assert ix.time_interval(region, 1, 9, mbr_prune=False,
                                stats=bare) == [2]
        assert bare.positions_decoded > stats.positions_decoded

    def test_root_inside_region_counts_as_the_tree_would(self):
        # one object, so one candidate: its root box lies inside the
        # region, which the engine answers from the record with the same
        # events as a first_hit on the tree
        rows = [(1, t, 5 + t % 3, 7 + t % 2) for t in range(10)]
        ix = build_index(rows, period=10, leaf_capacity=2, extent=(16, 16))
        log, tree = ix._logs[(0, 1)]
        region = Region(4, 8, 6, 9)
        stats = TraversalStats(trace=True)
        assert ix.time_interval(region, 2, 9, stats=stats) == [1]
        alone = TraversalStats(trace=True)
        assert tree.first_hit(log, region, 2, 9, ix.max_speed, 2, 9,
                              stats=alone) == 2
        assert stats.events == alone.events == [("visit", 1),
                                                ("mbr_contain", 1)]
        assert stats.nodes_visited == alone.nodes_visited == 1


class TestContainedIntervals:
    """Interval queries whose region holds whole boxes, and windows that
    start or end on a snapshot instant, which a snapshot probe answers
    while the logs answer the rest of the window."""

    def windows(self, d, horizon):
        for k in range(0, horizon, d):
            for b, e in ((k, k), (k, k + 1), (k, k + d // 2), (k, k + d),
                         (k - d // 3, k), (k - 1, k), (k - 1, k + 1),
                         (k + 1, k + d - 1), (k - 2 * d, k + d)):
                b, e = max(0, b), min(horizon - 1, e)
                if b <= e:
                    yield b, e

    def regions(self, fleet, period, rng):
        w, h = fleet.extent
        yield (0, w - 1, 0, h - 1)
        boxes = log_boxes(fleet, period)
        for j in rng.choice(len(boxes), size=6, replace=False):
            box = boxes[j][2]
            yield (box.xmin, box.xmax, box.ymin, box.ymax)
            for r in pulled_in(box):
                yield (r.xmin, r.xmax, r.ymin, r.ymax)
        for _ in range(4):
            x1 = int(rng.integers(0, w)); y1 = int(rng.integers(0, h))
            yield (x1, min(w - 1, x1 + 120), y1, min(h - 1, y1 + 120))

    def test_snapshot_edge_windows_match_oracle(self, small_fleet,
                                                small_index, small_table):
        d = small_index.period
        horizon = small_table.horizon
        # the fleet drops fixes, so some objects enter periods late
        snaps = small_index._snapshots
        assert ENTRANT in snaps.tree.state
        rng = np.random.default_rng(67)
        regions = list(self.regions(small_fleet, d, rng))
        checked = hits = 0
        for rect in regions:
            region = Region(*rect)
            for b, e in self.windows(d, horizon):
                want = oracle_interval(small_table, rect, b, e)
                assert small_index.time_interval(region, b, e) == want
                assert small_index.time_interval(
                    region, b, e, mbr_prune=False) == want
                checked += 1
                hits += bool(want)
        assert checked > 1000 and 0 < hits < checked

    def test_entrant_inside_region_found_through_its_log(self):
        # object 2 has no fix at instant 10, so the snapshot carries it at
        # its first fix in the period (instant 14) as an entrant; it counts
        # only for windows that reach instant 14
        rows = ([(1, t, 3, 3) for t in range(20)]
                + [(2, t, 20, 20) for t in range(10)]
                + [(2, t, 8, 8) for t in range(14, 20)])
        ix = build_index(rows, period=10, leaf_capacity=2, extent=(32, 32))
        assert ix._snapshots.fix(1, 1) is None
        # the snapshot keeps it at that fix, but a probe does not report it
        cell = ix._snapshots.cells(np.array([1]), np.array([1]))
        assert [c.tolist() for c in cell] == [[8], [8], [1]]
        assert ix._snapshots.range_report(Region(0, 31, 0, 31), 1) == \
            [(1, 3, 3)]
        region = Region(6, 10, 6, 10)
        assert ix.time_interval(region, 10, 10) == []
        assert ix.time_interval(region, 10, 13) == []
        assert ix.time_interval(region, 10, 14) == [2]
        assert ix.time_interval(region, 9, 19) == [2]
        assert ix.time_interval(Region(0, 31, 0, 31), 10, 10) == [1]
        assert ix.time_interval(Region(0, 31, 0, 31), 10, 13) == [1]
        assert ix.time_interval(Region(0, 31, 0, 31), 10, 14) == [1, 2]

    def test_probes_only_at_snapshot_instants(self, small_index,
                                              monkeypatch):
        # the logs answer every other instant from their records: a probe
        # takes the region as given, once per snapshot instant in the
        # window
        calls = []
        probe = Snapshot.range_report

        def counted(snaps, region, p):
            calls.append((region, p * small_index.period))
            return probe(snaps, region, p)

        monkeypatch.setattr(Snapshot, "range_report", counted)
        d = small_index.period
        region = Region(100, 300, 100, 300)
        for q in (1, 7, d - 1, d + 1, 2 * d + 5):
            small_index.time_slice(region, q)
        assert calls == []
        for q in (0, d, 2 * d):
            small_index.time_slice(region, q)
            assert calls.pop() == (region, q) and not calls
        for b, e in ((0, 0), (0, 5), (1, d - 1), (d, 3 * d), (d - 1, d + 1),
                     (7, 2 * d - 1), (d + 1, 3 * d - 1)):
            calls.clear()
            small_index.time_interval(region, b, e)
            assert calls == [(region, k) for k in range(b, e + 1)
                             if k % d == 0]
            assert all(r is region for r, _ in calls)

    def test_whole_grid_decodes_nothing(self, small_index, small_table,
                                        monkeypatch):
        # over the whole grid every root box lies inside the region, and a
        # window that reaches its log's first or last instant has data, so
        # the records' columns answer every candidate: no decode, no
        # `has_data` and no rank of a window bitmap
        def refused(*args):
            raise AssertionError(f"window bitmap ranked over {args[3:]}")

        monkeypatch.setattr("trajindex.engine.ordinal_range", refused)
        monkeypatch.setattr("trajindex.log.ordinal_range", refused)
        monkeypatch.setattr("trajindex.engine.has_data", refused)
        w, h = small_index.extent
        grid = (0, w - 1, 0, h - 1)
        d, horizon = small_index.period, small_table.horizon
        rng = np.random.default_rng(68)
        windows = [(1, 50), (61, 119), (0, 299)]
        for k in range(0, horizon, d):
            mid = int(rng.integers(k + 2, k + d - 1))
            # from the period's start, to its end, and on into the next
            windows += [(k, mid), (k + 1, mid), (mid, k + d - 1),
                        (mid, min(mid + d, horizon - 1))]
        stats = TraversalStats(trace=True)
        for b, e in windows:
            assert small_index.time_interval(Region(*grid), b, e,
                                             stats=stats) == \
                oracle_interval(small_table, grid, b, e)
        assert stats.positions_decoded == 0
        assert {k for k, _ in stats.events} <= {"visit", "mbr_contain"}

    def test_a_window_of_gaps_alone_is_searched(self, monkeypatch):
        # one object with fixes at local instants 1..3 and 12..19 of a
        # period of 20: a window 1..19 holding the 8 gaps 4..11
        rows = [(1, t, 5, 5) for t in [*range(4), *range(12, 20)]]
        ix = build_index(rows, period=20, leaf_capacity=2, extent=(16, 16))
        grid = Region(0, 15, 0, 15)
        searched = []
        search = trajindex.log.ordinal_range

        def spy(bits, words, f, lo, hi):
            searched.append((lo, hi))
            return search(bits, words, f, lo, hi)

        monkeypatch.setattr("trajindex.log.ordinal_range", spy)
        # strictly inside the log's window, no more instants than gaps:
        # the record cannot tell, and the search finds no data
        for b, e in ((5, 10), (4, 11), (6, 6)):
            stats = TraversalStats(trace=True)
            assert ix.time_interval(grid, b, e, stats=stats) == []
            assert stats.events == []
        assert searched == [(5, 10), (4, 11), (6, 6)]
        # strictly inside too, but 9 instants for 8 gaps: one has data
        searched.clear()
        for b, e in ((3, 11), (4, 12), (2, 18)):
            stats = TraversalStats(trace=True)
            assert ix.time_interval(grid, b, e, stats=stats) == [1]
            assert stats.events == [("visit", 1), ("mbr_contain", 1)]
        assert searched == []


class TestRecordFilter:
    """The logs a slice or an interval takes come from one pass over
    their record columns: the window, the reach of the first fix at the
    log's speed bound s, and the root box."""

    # two objects run at 2 cells an instant, the index's speed bound,
    # along y = 5 through period 1 (instants 20..39) towards x = 30..40;
    # object 1's first fix in the period lies 20 cells short of it, so
    # it enters at instant 31 = 21 + 20 / 2; object 2's lies a cell
    # farther, so it enters at instant 32
    REGION = Region(30, 40, 0, 10)

    @staticmethod
    def runners() -> TrajectoryIndex:
        rows = []
        for oid, x in ((1, 10), (2, 9)):
            rows += [(oid, t, x - 2, 5) for t in range(21)]
            rows += [(oid, t, x + 2 * (t - 21), 5) for t in range(21, 40)]
        return build_index(rows, period=20, leaf_capacity=4,
                           extent=(64, 64))

    def test_the_reach_bound_holds_at_equality(self, monkeypatch):
        ix = self.runners()
        assert ix.max_speed == 2

        # object 2's log is out of reach up to instant 31: neither a
        # position nor a tree walk may be asked of it
        def refuse(f):
            if f[X_FIRST] == 9:
                raise AssertionError("object 2's log was searched")

        position, walk = trajindex.engine.position_at, MbrTree.first_hit

        def checked_position(bits, words, f, i):
            refuse(f)
            return position(bits, words, f, i)

        def checked_walk(tree, log, *args, **kwargs):
            refuse(log._f)
            return walk(tree, log, *args, **kwargs)

        monkeypatch.setattr("trajindex.engine.position_at", checked_position)
        monkeypatch.setattr(MbrTree, "first_hit", checked_walk)
        region = self.REGION
        assert ix.time_slice(region, 31) == [(1, 30, 5)]
        assert ix.time_slice(region, 30) == []
        for prune in (True, False):
            for b in (0, 5, 21, 25):
                assert ix.time_interval(region, b, 31, mbr_prune=prune) == [1]
                assert ix.time_interval(region, b, 30, mbr_prune=prune) == []
            assert ix.time_interval(region, 31, 31, mbr_prune=prune) == [1]
        monkeypatch.undo()
        # one instant on, object 2 is inside too
        assert ix.time_slice(region, 32) == [(1, 32, 5), (2, 31, 5)]
        assert ix.time_interval(region, 21, 32) == [1, 2]

    def test_a_reach_past_2_to_the_63(self):
        # a jump across a 2**32 - 1 wide grid makes s = 2**32 - 2; a window
        # to the end of a period as long sets hi - first = 2**32 - 4, so
        # s * (hi - first) passes what an int64 holds
        top = 2**32 - 2
        rows = [(1, 0, top, 0), (1, 1, top, 0), (1, 2, 0, 0)]
        ix = build_index(rows, period=top + 1, leaf_capacity=1,
                         extent=(top + 1, 1), horizon=top + 1)
        assert ix._fields(0)[17] == top  # the log's speed bound
        corner = Region(0, 0, 0, 0)
        assert ix.time_interval(corner, 1, top - 1) == [1]
        assert ix.time_interval(corner, 1, top - 1, mbr_prune=False) == [1]
        assert ix.time_slice(corner, 2) == [(1, 0, 0)]
        assert ix.time_interval(corner, 1, 1) == []

    @staticmethod
    def fleet(seed: int, d: int):
        # a walk of at most 2 cells an instant on a 20x20 grid with a
        # quarter of its fixes dropped, so some objects enter a period
        # late; object 2 misses periods 1 to 3 whole; object 3 sends a fix
        # at one instant of each period past its first, so each of its
        # logs holds one fix and a speed bound of 0; object 4 also a fix
        # at each period's first instant, and each of its logs one fix;
        # object 6 walks object 5's path, so the two share a cell wherever
        # both send a fix
        rng = np.random.default_rng(seed)
        objects, side = 6, 20
        horizon = 7 * d + int(rng.integers(1, d))
        steps = rng.integers(-2, 3, size=(2, objects, horizon))
        start = rng.integers(0, side, size=(2, objects, 1))
        xs, ys = np.clip(start + np.cumsum(steps, axis=2), 0, side - 1)
        xs[5], ys[5] = xs[4], ys[4]
        present = rng.random((objects, horizon)) >= 0.25
        present[1, d:4 * d] = False
        starts = np.arange(0, horizon, d)
        lone = np.minimum(starts + rng.integers(1, d, len(starts)),
                          horizon - 1)
        present[2:4] = False
        present[2:4, lone] = True
        present[3, starts] = True
        ids = np.arange(1, objects + 1)
        table = PositionTable(ids, present, xs, ys)
        o, t = np.nonzero(present)
        rows = np.column_stack((ids[o], t, xs[o, t], ys[o, t]))
        ix = build_index(rows, period=d, leaf_capacity=3,
                         extent=(side, side), horizon=horizon)
        return ix, table, side

    @pytest.mark.parametrize("seed, d", [(70, 5), (71, 8), (72, 13), (73, 4)])
    def test_small_fleets_match_the_oracle(self, seed, d):
        # d = 4 puts most instants at a snapshot instant or next to one
        ix, table, side = self.fleet(seed, d)
        horizon = table.horizon
        n = len(ix.object_ids)
        logs = [ix._fields(row) for row in ix._rows if row >= 0]
        snaps = ix._snapshots
        # entrants, a one-fix log, object 2 with no log in periods 1..3,
        # and objects 5 and 6 in one cell at a snapshot instant
        assert ENTRANT in snaps.tree.state
        assert any(f[DATA] == 1 and f[17] == 0 for f in logs)
        assert all(ix._rows[p * n + 1] < 0 for p in (1, 2, 3))
        snapped = range(0, horizon, d)
        assert any(snaps.fix(p, 4) == snaps.fix(p, 5) is not None
                   for p in range(len(snaps)))
        for oid in ix.object_ids:
            assert [ix.object_position(oid, q) for q in range(horizon)] == \
                [table.position(oid, q) for q in range(horizon)]
            for k in snapped:
                for b, e in ((0, horizon - 1), (k, k), (k, horizon - 1),
                             (max(0, k - 1), min(horizon - 1, k + 1))):
                    assert ix.trajectory(oid, b, e) == \
                        table.trajectory(oid, b, e)
        rng = np.random.default_rng(seed)
        rects = [(side, side + 4, 0, side - 1), (-6, -1, 3, 9),
                 (0, side - 1, side + 2, side + 9), (0, side - 1, 0, side - 1)]
        for _ in range(40):
            x1, y1 = rng.integers(-3, side + 1, 2).tolist()
            x2, y2 = x1 + int(rng.integers(0, 9)), y1 + int(rng.integers(0, 9))
            rects.append((x1, x2, y1, y2))
        long_windows = hits = 0
        for rect in rects:
            region = Region(*rect)
            for q in rng.integers(0, horizon, 6).tolist():
                assert ix.time_slice(region, q) == \
                    oracle_slice(table, rect, q)
            for _ in range(8):
                b = int(rng.integers(0, horizon))
                e = min(horizon - 1, b + int(rng.integers(0, 7 * d)))
                want = oracle_interval(table, rect, b, e)
                for prune in (True, False):
                    assert ix.time_interval(region, b, e,
                                            mbr_prune=prune) == want
                assert ix.time_interval(region, b, e, mbr_prune=False,
                                        speed_prune=False) == want
                long_windows += e // d - b // d >= 5
                hits += bool(want)
            # a probe at every snapshot instant, its answers by id, and
            # windows that start, end or lie there
            for k in snapped:
                assert ix.time_slice(region, k) == oracle_slice(table, rect, k)
                for b, e in ((k, k), (max(0, k - 1), k),
                             (k, min(horizon - 1, k + 1))):
                    assert ix.time_interval(region, b, e) == \
                        oracle_interval(table, rect, b, e)
        assert long_windows > 20 and hits > 40


def load_cost(blob) -> tuple[int, int, TrajectoryIndex]:
    """(GC-tracked objects, bytes by tracemalloc) a load of blob adds, and
    the index."""
    gc.collect()
    objects = len(gc.get_objects())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ix = TrajectoryIndex.from_bytes(blob)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    gc.collect()
    return len(gc.get_objects()) - objects, grown, ix


class TestLoadedMemory:
    """A loaded index keeps its logs and trees in a few pools and its
    snapshots in one table, so what a load holds follows the file's size,
    and its object count neither the periods nor the logs."""

    @staticmethod
    def blob(horizon: int, period: int) -> bytes:
        fleet = make_fleet(30, horizon, (300, 300), seed=12, drop_rate=0.1)
        return build_index(fleet.rows(), period, 8, fleet.extent,
                           horizon=horizon).to_bytes()

    def test_a_load_holds_under_three_times_the_file(self):
        # 1.3 times here and at d=20, where a log's record, 51 bytes at
        # the narrowest width per column (112 as 28 u32s), weighs most
        blob = self.blob(960, 60)
        _, grown, _ = load_cost(blob)
        assert grown <= 3 * len(blob), (grown, len(blob))

    def test_pools_hold_no_spare_room(self):
        # so that what `memory()` counts is what the pools and the record
        # table take
        fleet = make_fleet(30, 240, (300, 300), seed=12, drop_rate=0.1)
        built = build_index(fleet.rows(), 20, 8, fleet.extent)
        empty = sys.getsizeof(array("Q"))
        for ix in (built, TrajectoryIndex.from_bytes(built.to_bytes())):
            for pool in (ix._words, ix._bits.words):
                assert sys.getsizeof(pool) - empty == 8 * len(pool)
            logs = sum(row >= 0 for row in ix._rows)
            assert logs > 300
            assert sys.getsizeof(ix._records) - sys.getsizeof(b"") == \
                ix.memory()["log records"] == logs * ix._record.size

    @pytest.mark.parametrize("extent, width", [
        ((300, 300), 2), ((1 << 16, 300), 2), ((300, 1 << 16 | 1), 4),
        ((1 << 20, 1 << 20), 4)])
    def test_snapshots_take_a_slot_table(self, extent, width):
        # each (period, object) slot holds x and y at 2 bytes where both
        # sides are at most 2**16 and 4 otherwise, and a state byte
        fleet = make_fleet(30, 240, extent, seed=12, drop_rate=0.1)
        built = build_index(fleet.rows(), 20, 8, fleet.extent)
        for ix in (built, TrajectoryIndex.from_bytes(built.to_bytes())):
            slots = len(ix._snapshots) * len(ix.object_ids)
            assert slots == 12 * 30 == len(ix._rows)
            assert ix.memory()["snapshots"] == slots * (2 * width + 1)

    def test_directories_are_the_ones_directory(self):
        # the bit pool keeps one u64 per superblock and one u16 per word,
        # and nothing for zeros
        fleet = make_fleet(30, 240, (300, 300), seed=12, drop_rate=0.1)
        built = build_index(fleet.rows(), 20, 8, fleet.extent)
        for ix in (built, TrajectoryIndex.from_bytes(built.to_bytes())):
            bits = ix._bits
            supers = -(-len(bits.words) // 8)
            assert (len(bits.super1), len(bits.block1)) == \
                (supers + 1, 8 * supers + 1)
            assert ix.memory()["directories"] == \
                nbytes(bits.super1, bits.block1)

    def test_a_load_reads_the_same_pieces_whatever_its_periods(self,
                                                               monkeypatch):
        # the snapshots are one section, decoded in one numpy pass: a
        # load makes no read per period or row, and decodes no log
        blobs = [self.blob(240, d) for d in (4, 40)]
        takes = []
        take = Reader.take

        def counted(self, size):
            takes.append(size)
            return take(self, size)

        monkeypatch.setattr(Reader, "take", counted)
        refuse_decodes(monkeypatch, "the load decoded a log")
        reads = []
        for blob in blobs:
            takes.clear()
            TrajectoryIndex.from_bytes(blob)
            reads.append(len(takes))
        assert reads[0] == reads[1], reads

    def test_objects_do_not_grow_with_the_logs(self):
        blobs = [self.blob(h, 20) for h in (240, 960)]
        load_cost(blobs[0])  # a process's first load also frees some
        (few, _, short), (many, _, long) = map(load_cost, blobs)
        periods = len(long._snapshots) - len(short._snapshots)
        logs = len(long._logs) - len(short._logs)
        assert periods == 36 and logs >= 25 * periods
        # neither a period nor a log takes an object of its own
        assert many - few <= 2, (many - few, periods, logs)


class TestRecordWidths:
    """An index keeps each record field at the narrowest of 1, 2 and 4
    bytes that holds its column's largest value: a width per column,
    chosen per index, and one record format for every log."""

    @pytest.mark.parametrize("fleet, period, leaf, wide, width", [
        # every field of a small grid's short logs fits a byte
        pytest.param((3, 40, (16, 16), 11, 3, 0.1), 10, 2,
                     range(TREE + 6), 1, id="tiny-grid"),
        # a window's last instant passes 255
        pytest.param((4, 1200, (200, 200), 21, 3, 0.1), 400, 8, [1], 2,
                     id="long-period"),
        # first fixes and root boxes past 65,535
        pytest.param((6, 200, (200_000, 200_000), 22, 3, 0.05), 20, 4,
                     [X_FIRST, Y_FIRST, *range(TREE + 1, TREE + 5)], 4,
                     id="wide-grid"),
        # long lows and trees of a leaf per fix fill more than 65,535
        # words, and the bit pool more than 65,535 ones: the offsets of
        # the lows and the trees' diffs, and the ones before each bitmap
        pytest.param((30, 1500, (1 << 20, 1 << 20), 23, 5000, 0.05), 120, 1,
                     [X_AXIS + 2, Y_AXIS + 2, TREE, 4, X_AXIS + 1,
                      Y_AXIS + 1], 4, id="pools-past-65535-words"),
    ])
    def test_each_column_takes_its_narrowest_width(self, fleet, period, leaf,
                                                   wide, width):
        num, horizon, extent, seed, step, drop = fleet
        fleet = make_fleet(num, horizon, extent, seed, max_step=step,
                           drop_rate=drop)
        ix = build_index(fleet.rows(), period, leaf, fleet.extent)
        logs = sum(row >= 0 for row in ix._rows)
        top = np.array([ix._fields(row) for row in range(logs)]).max(axis=0)
        widths = [1 if t < 1 << 8 else 2 if t < 1 << 16 else 4 for t in top]
        assert [widths[c] for c in wide] == [width] * len(wide)
        assert ix._record.format == "<" + "".join(
            {1: "B", 2: "H", 4: "I"}[w] for w in widths)
        assert ix._record.size == sum(widths)
        assert len(ix._records) == logs * ix._record.size
        # a load picks the same widths from the same fields, and writes
        # the same file
        blob = ix.to_bytes()
        back = TrajectoryIndex.from_bytes(blob)
        assert back.to_bytes() == blob
        assert (back._record.format, back._records) == \
            (ix._record.format, ix._records)
        table = PositionTable(fleet.ids, fleet.present, fleet.xs, fleet.ys)
        rng = np.random.default_rng(seed)
        w, h = fleet.extent
        for _ in range(100):
            oid = int(rng.integers(1, num + 1))
            t = int(rng.integers(0, horizon))
            assert back.object_position(oid, t) == table.position(oid, t)
        for oid in (1, num):
            assert back.trajectory(oid, 0, horizon - 1) == \
                fleet.object_rows(oid)
        for _ in range(20):
            x1, y1 = int(rng.integers(0, w)), int(rng.integers(0, h))
            rect = (x1, min(w - 1, x1 + w // 3), y1, min(h - 1, y1 + h // 3))
            q = int(rng.integers(0, horizon))
            e = min(horizon - 1, q + int(rng.integers(0, 2 * period)))
            assert back.time_slice(Region(*rect), q) == \
                oracle_slice(table, rect, q)
            assert back.time_interval(Region(*rect), q, e) == \
                oracle_interval(table, rect, q, e)

    @pytest.mark.parametrize("column, value, code", [
        (1, 255, "B"), (1, 256, "H"), (X_FIRST, 65_535, "H"),
        (X_FIRST, 65_536, "I")])
    def test_a_width_holds_its_largest_value_and_no_more(self, column, value,
                                                         code):
        # one log whose last instant, or first x, is value
        if column == 1:
            rows = [(1, t, t % 2, 0) for t in range(value + 1)]
            ix = build_index(rows, 400, 8, (2, 1))
        else:
            rows = [(1, t, value, 0) for t in range(3)]
            ix = build_index(rows, 4, 2, (value + 1, 1))
        assert ix._fields(0)[column] == value
        assert ix._record.format[1 + column] == code
        back = TrajectoryIndex.from_bytes(ix.to_bytes())
        assert back._records == ix._records
        assert [back.object_position(1, t) for _, t, _, _ in rows] == \
            [(x, y) for _, _, x, y in rows]
