import gc
import hashlib
import struct
import tracemalloc

import numpy as np
import pytest

from conftest import REF_OBJECT, REF_PERIOD, REF_TRACK, pulled_in, restamp
from synth import make_fleet
from trajindex.engine import (
    MAX_PERIODS,
    TrajectoryIndex,
    build_index,
    compute_max_speed,
)
from trajindex.log import TrajectoryLog, build_log
from trajindex.mbrtree import Mbr, TraversalStats, build_mbr_tree
from trajindex.oracle import PositionTable, oracle_interval, oracle_slice
from trajindex.snapshot import Region, Snapshot


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

        monkeypatch.setattr(Snapshot, "build", refuse)
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

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5])
    def test_old_version_file_is_rejected_by_name(self, tiny_blob, version):
        old = tiny_blob[:4] + version.to_bytes(2, "little") + tiny_blob[6:]
        with pytest.raises(ValueError, match=f"version {version}"):
            TrajectoryIndex.from_bytes(old)

    @pytest.mark.parametrize("field, value, ok", [
        ("s", 3, True), ("s", 4, False),   # the index's speed bound is 3
        ("x", 2, True), ("x", 10, True),   # the root box's x range is 2..10
        ("x", 1, False), ("x", 11, False), ("x", 16, False),
        ("y", 4, True), ("y", 3, False),   # and its y range 4..10
    ])
    def test_records_outside_the_speed_bound_or_root_box_are_rejected(
            self, ref_rows, field, value, ok):
        blob = build_index(ref_rows, period=REF_PERIOD, leaf_capacity=2,
                           extent=(16, 16), horizon=14).to_bytes()
        # the log's speed bound 3 and entry widths 0 (a log of one block
        # keeps s for both axes), first x 2 and x total 6 + 3 * 8 = 30;
        # its first y 4 and y total 5 + 3 * 8 = 29
        pattern, shift = {"s": ((3, 0, 2, 30), 0), "x": ((3, 0, 2, 30), 8),
                          "y": ((4, 29), 0)}[field]
        pattern = struct.pack(f"<{len(pattern)}I", *pattern)
        at = blob.find(pattern)
        assert at > 0 and blob.find(pattern, at + 1) < 0
        at += shift
        edited = restamp(blob[:at] + struct.pack("<I", value) + blob[at + 4:])
        if ok:
            TrajectoryIndex.from_bytes(edited)
        else:
            with pytest.raises(ValueError, match="speed bound or first fix"):
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
        # the bit pool's first word holds the gap map's 5 high bits, the
        # ones at bits 1 and 2 for the gaps at offsets 5 and 6
        at = len(blob) - 8 * (len(ref_index._bits.words)
                              + len(ref_index._words))
        word = int.from_bytes(blob[at:at + 8], "little")
        assert word == 0b110
        word |= 1 << 63  # a bit past the end
        if move:
            word &= word - 1  # and one member fewer
        edited = restamp(blob[:at] + word.to_bytes(8, "little")
                         + blob[at + 8:])
        with pytest.raises(ValueError, match=message):
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

    def test_every_bit_flip_past_the_checksum_loads_the_same_ids_or_fails(self):
        # the CRC is re-stamped, so every flip reaches the parser: it must
        # end in ValueError or in an index over the very same objects
        fleet = make_fleet(3, 8, (8, 8), seed=9, drop_rate=0.25)
        ix = build_index(fleet.rows(), period=4, leaf_capacity=2,
                         extent=fleet.extent)
        assert sum(snap.is_entrant(oid) for snap in ix.snapshots
                   for oid in ix.object_ids) == 1
        blob = ix.to_bytes()
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
                flipped[i] ^= 1 << bit

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

    @pytest.mark.parametrize("period, leaf, seed, kwargs, size, digest", [
        pytest.param(
            240, 16, 5, {"drop_rate": 0.03}, 32006,
            "58272af4b42ffb6614258a11f5bdc3106c1da9530c6d577ffe6c69f23f5abc2b",
            id="sparse-gaps"),
        pytest.param(
            60, 8, 6, {"drop_rate": 0.2, "geometric": True}, 60910,
            "76f8647c4249718255967d5634fb24a85e13624e974d61b54356e3eb4fd07d3a",
            id="gappy-short-period"),
        pytest.param(
            120, 80, 7, {"drop_rate": 0.05}, 34062,
            "80933b740e3b2d9b15d4ddbf6e172556cae7ee1a3464e1c0e8803a20b80080d3",
            id="range-shape"),
        pytest.param(
            720, 640, 8, {"drop_rate": 0.02, "max_step": 6}, 25006,
            "bf9704b8ff3a9f77742cb5dbd6060d2025b4584669eb02381986f2934d6d8fd7",
            id="lookup-shape"),
    ])
    def test_bytes_match_recorded_digest(self, period, leaf, seed, kwargs,
                                         size, digest):
        # the file format is frozen: these digests were recorded when the
        # format moved to version 6, where the logs' fields, bit pool and
        # word pool follow the snapshots as the index holds them (the
        # same items as version 5, so the same sizes); the first fleet
        # has few gaps in every log, the second a median
        # of about a fifth of each short window, where most gap maps have
        # a low width of 2 and some of 1; the last two have the periods
        # and leaf capacities of the two perfbench workloads.  All four
        # match the per-log reference encoder
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
        def refuse(*args):
            raise AssertionError("the build decoded a log")

        monkeypatch.setattr(TrajectoryLog, "iter_positions", refuse)
        built = build_index(small_fleet.rows(), period=60, leaf_capacity=5,
                            extent=small_fleet.extent)
        assert built.to_bytes() == small_index.to_bytes()

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
                out.append((int(oid), k, Mbr(int(xs.min()), int(xs.max()),
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
        # object 1 stays in the far corner, object 2 is the only one inside
        # the region; with speed 4 over 9 instants both are snapshot
        # candidates, but the root box of 1's log misses the region
        rows = ([(1, t, 30, 30) for t in range(10)]
                + [(2, t, 14 + t % 2, 14) for t in range(10)])
        ix = build_index(rows, period=10, leaf_capacity=2, extent=(40, 40),
                         max_speed=4)
        region = Region(10, 16, 10, 16)
        stats = TraversalStats(trace=True)
        assert ix.time_interval(region, 1, 9, stats=stats) == [2]
        log = build_log([(t, 30, 30) for t in range(1, 10)], 0, 10)
        alone = TraversalStats(trace=True)
        assert build_mbr_tree(log, 2).first_hit(
            log, Mbr(10, 16, 10, 16), 1, 9, 4, 1, 9, stats=alone) is None
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
        assert tree.first_hit(log, Mbr(4, 8, 6, 9), 2, 9, ix.max_speed, 2, 9,
                              stats=alone) == 2
        assert stats.events == alone.events == [("visit", 1),
                                                ("mbr_contain", 1)]
        assert stats.nodes_visited == alone.nodes_visited == 1


class TestContainedIntervals:
    """Interval queries whose region holds whole boxes, and windows that
    start or end on a snapshot instant, where one snapshot probe serves
    both the instant and the logs."""

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
        assert any(snap.is_entrant(int(oid))
                   for snap in small_index.snapshots for oid in small_fleet.ids)
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
        assert ix.snapshots[1].is_entrant(2)
        region = Region(6, 10, 6, 10)
        assert ix.time_interval(region, 10, 10) == []
        assert ix.time_interval(region, 10, 13) == []
        assert ix.time_interval(region, 10, 14) == [2]
        assert ix.time_interval(region, 9, 19) == [2]
        assert ix.time_interval(Region(0, 31, 0, 31), 10, 10) == [1]
        assert ix.time_interval(Region(0, 31, 0, 31), 10, 13) == [1]
        assert ix.time_interval(Region(0, 31, 0, 31), 10, 14) == [1, 2]

    def test_one_snapshot_probe_per_period(self, small_index, monkeypatch):
        calls = []
        probe = Snapshot.range_report

        def counted(snap, region, include_entrants=True):
            calls.append(snap.instant)
            return probe(snap, region, include_entrants)

        monkeypatch.setattr(Snapshot, "range_report", counted)
        d = small_index.period
        for b, e in ((0, 0), (0, 5), (d, 3 * d), (d - 1, d + 1), (7, 2 * d - 1)):
            calls.clear()
            small_index.time_interval(Region(100, 300, 100, 300), b, e)
            assert calls == list(range(b - b % d, e + 1, d))

    def test_whole_grid_decodes_nothing(self, small_index, small_table):
        w, h = small_index.extent
        stats = TraversalStats(trace=True)
        for b, e in ((1, 50), (61, 119), (0, 299)):
            assert small_index.time_interval(Region(0, w - 1, 0, h - 1), b, e,
                                             stats=stats) == \
                oracle_interval(small_table, (0, w - 1, 0, h - 1), b, e)
        assert stats.positions_decoded == 0
        assert {k for k, _ in stats.events} <= {"visit", "mbr_contain"}


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
    """A loaded index keeps its logs and trees in a few pools, so what a
    load holds follows the file's size, and its object count the
    periods, not the logs."""

    @staticmethod
    def blob(horizon: int, period: int) -> bytes:
        fleet = make_fleet(30, horizon, (300, 300), seed=12, drop_rate=0.1)
        return build_index(fleet.rows(), period, 8, fleet.extent,
                           horizon=horizon).to_bytes()

    def test_a_load_holds_under_three_times_the_file(self):
        # 2.3 times here; a log's record (156 bytes) weighs most in short
        # periods, 2.6 times at d=20
        blob = self.blob(960, 60)
        _, grown, _ = load_cost(blob)
        assert grown <= 3 * len(blob), (grown, len(blob))

    def test_objects_do_not_grow_with_the_logs(self):
        (few, _, short), (many, _, long) = (load_cost(self.blob(h, 20))
                                            for h in (240, 960))
        periods = len(long.snapshots) - len(short.snapshots)
        logs = len(long._logs) - len(short._logs)
        assert periods == 36 and logs >= 25 * periods
        # a snapshot takes a few objects; a log takes none
        assert many - few <= 20 * periods, (many - few, periods, logs)
