import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import REF_PERIOD, REF_TRACK, stored_log
from reference_encoder import Parts, write_log
from synth import make_fleet
from trajindex.encoder import encode
from trajindex.engine import TrajectoryIndex, build_index
from trajindex.log import (
    WIDTHS,
    TimeIndex,
    TrajectoryLog,
    bit_pool,
    build_log,
    records,
)
from trajindex.oracle import PositionTable, oracle_interval, oracle_slice
from trajindex.snapshot import Region
from trajindex.succinct import words_from


@pytest.fixture
def ref_log(ref_track):
    return build_log(ref_track, 0, REF_PERIOD, object_id=7)


def reference_pieces(rows, start, period):
    """The u32 fields and pool words the reference encoder writes for a
    log of rows, as `stored_log` gives them."""
    want = Parts()
    write_log(want, rows, start, period)
    return want.fields, bytes(want.bits), bytes(want.words)


def random_track(rng, period, start=0, max_step=6, base=500):
    count = int(rng.integers(1, period))
    ts = start + 1 + np.sort(rng.choice(period - 1, size=count, replace=False))
    xs = base + np.cumsum(rng.integers(-max_step, max_step + 1, size=count))
    ys = base + np.cumsum(rng.integers(-max_step, max_step + 1, size=count))
    return list(zip(ts.tolist(), xs.tolist(), ys.tolist()))


class TestTimeIndex:
    def test_dense_window(self):
        ti = TimeIndex(2, 10, [5, 6])
        assert len(ti) == 9
        assert ti.gap_count == 2 and ti.data_count == 7
        assert ti.ordinal(5) is None and ti.ordinal(4) == 4
        assert ti.gaps_upto(8) == 2 and ti.gaps_upto(0) == 0
        assert ti.data_offset(5) == 7
        assert list(ti.data_offsets(3)) == [3, 4, 7, 8, 9]

    def test_offsets_and_ordinals_outside_the_window_raise(self):
        ti = TimeIndex(2, 10, [5, 6])  # window offsets 1..9, ordinals 1..7
        for offset in (0, 10, 12):
            with pytest.raises(IndexError):
                ti.ordinal(offset)
        for ordinal in (0, 8):
            with pytest.raises(IndexError):
                ti.data_offset(ordinal)
        assert ti.ordinal(9) == 7 and ti.data_offset(1) == 1

    @pytest.mark.parametrize("gaps", [[50], list(range(2, 12)),
                                      list(range(2, 13))],
                             ids=["1-percent", "10-percent", "11-percent"])
    def test_values_across_the_old_ten_percent_threshold(self, gaps):
        # a tenth of the window once switched the gap map to a plain bitmap
        ti = TimeIndex(1, 100, gaps)
        data = [o for o in range(1, 101) if o not in gaps]
        assert ti.gap_count == len(gaps) and ti.data_count == len(data)
        assert ti.gaps_upto(0) == 0
        for off in range(1, 101):
            assert ti.gaps_upto(off) == sum(g <= off for g in gaps)
            assert ti.ordinal(off) == (data.index(off) + 1 if off in data
                                       else None)
        assert [ti.data_offset(j) for j in range(1, len(data) + 1)] == data
        assert list(ti.data_offsets()) == data

    def test_windows_either_side_of_the_old_threshold(self):
        # one gap, and 14 gaps in 38 slots: either side of the old 10%
        # threshold between a sparse and a plain gap map
        for gaps in ([7], list(range(2, 30, 2))):
            ti = TimeIndex(3, 40, gaps)
            assert ti.first == 3 and ti.last == 40
            assert ti.gap_count == len(gaps)
            assert list(ti.data_offsets()) == [o for o in range(1, 39)
                                               if o not in gaps]


class TestReferenceTrack:
    def test_window_and_gaps(self, ref_log):
        assert (ref_log.time.first, ref_log.time.last) == (2, 10)
        assert ref_log.data_count == 7
        assert ref_log.time.gap_count == 2

    def test_extraction_steps_at_instant_nine(self, ref_log):
        # offset 8 in the window, two gaps before it, hence data ordinal 6;
        # four non-negative x-steps among the first six, so x = 12 - 3 = 9
        off = 9 - ref_log.time.first + 1
        assert ref_log.time.gaps_upto(off) == 2
        ordinal = off - 2
        assert ordinal == 6
        assert ref_log.dx.sign.rank1(ordinal) == 4
        assert ref_log.dx.pos.prefix_sum(4) == 12
        assert ref_log.dx.neg.prefix_sum(2) == 3
        assert ref_log.position(9) == (9, 10)

    def test_every_sample_reproduced(self, ref_log):
        for t, x, y in REF_TRACK:
            assert ref_log.position(t) == (x, y)

    def test_gaps_and_edges_return_none(self, ref_log):
        for t in (1, 6, 7, 11, 12):
            assert ref_log.position(t) is None

    def test_instant_ordinal_maps(self, ref_log):
        assert ref_log.count_data_upto(9) == 6
        assert ref_log.count_data_upto(1) == 0
        assert ref_log.count_data_upto(12) == 7
        assert ref_log.unmap_ordinal(5) == 8
        assert ref_log.unmap_ordinal(1) == 2
        assert ref_log.unmap_ordinal(7) == 10

    def test_scan_window(self, ref_log):
        assert ref_log.scan_positions(3, 4) == [(4, 5, 7), (5, 3, 5)]
        assert ref_log.scan_positions(1, 7) == list(REF_TRACK)

    def test_pieces_match_the_reference(self, ref_log):
        assert (ref_log.object_id, ref_log.start) == (7, 0)
        assert stored_log(ref_log) == reference_pieces(REF_TRACK, 0,
                                                       REF_PERIOD)


class TestBuildValidation:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            build_log([], 0, 13)

    def test_rejects_out_of_period(self):
        with pytest.raises(ValueError):
            build_log([(0, 1, 1)], 0, 13)
        with pytest.raises(ValueError):
            build_log([(13, 1, 1)], 0, 13)
        build_log([(12, 1, 1)], 0, 13)  # last in-period instant is fine

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            build_log([(3, 1, 1), (2, 1, 1)], 0, 13)
        with pytest.raises(ValueError):
            build_log([(3, 1, 1), (3, 2, 2)], 0, 13)

    def test_position_domain(self, ref_log):
        with pytest.raises(IndexError):
            ref_log.position(0)
        with pytest.raises(IndexError):
            ref_log.position(13)
        with pytest.raises(IndexError):
            ref_log.scan_positions(0, 3)
        with pytest.raises(IndexError):
            ref_log.scan_positions(3, 8)


class TestRandomTracks:
    def test_replay_and_maps(self):
        rng = np.random.default_rng(77)
        for trial in range(200):
            period = int(rng.integers(2, 50))
            start = int(rng.integers(0, 4)) * period
            rows = random_track(rng, period, start)
            log = build_log(rows, start, period)
            table = {t - start: (x, y) for t, x, y in rows}
            for i in range(1, period):
                assert log.position(i) == table.get(i)
            count = log.data_count
            assert [log.unmap_ordinal(j) for j in range(1, count + 1)] == \
                sorted(table)
            for j in range(1, count + 1):
                assert log.count_data_upto(log.unmap_ordinal(j)) == j

    def test_scan_agrees_with_pointwise(self):
        rng = np.random.default_rng(78)
        for trial in range(60):
            period = int(rng.integers(3, 80))
            rows = random_track(rng, period)
            log = build_log(rows, 0, period)
            full = log.scan_positions(1, log.data_count)
            assert full == [(t, x, y) for t, x, y in rows]
            a = int(rng.integers(1, log.data_count + 1))
            b = int(rng.integers(a, log.data_count + 1))
            assert log.scan_positions(a, b) == full[a - 1:b]

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_single_sample_log(self, seed):
        rng = np.random.default_rng(seed)
        period = int(rng.integers(2, 20))
        t = int(rng.integers(1, period))
        log = build_log([(t, 42, 97)], 0, period)
        assert log.position(t) == (42, 97)
        assert log.data_count == 1
        assert log.unmap_ordinal(1) == t

    def test_random_pieces_match_the_reference(self):
        rng = np.random.default_rng(79)
        for trial in range(40):
            period = int(rng.integers(2, 60))
            rows = random_track(rng, period)
            log = build_log(rows, 0, period)
            assert stored_log(log) == reference_pieces(rows, 0, period)
            assert log.scan_positions(1, log.data_count) == rows

    def test_space_bound(self):
        # total payload bits within 4 * (n log2(N/n + 2) + d + 64), with N
        # the total absolute x-movement
        rng = np.random.default_rng(80)
        for trial in range(60):
            period = int(rng.integers(2, 400))
            rows = random_track(rng, period, max_step=int(rng.integers(1, 30)))
            log = build_log(rows, 0, period)
            n = log.data_count
            n_move = log.dx.pos.total + log.dx.neg.total
            budget = 4 * (n * math.log2(n_move / n + 2) + period + 64)
            assert log.code_bits() <= budget, (trial, log.code_bits(), budget)


def gappy_rows(rng, window, gap_count):
    """Track over local instants 2..window+1 with exactly gap_count gaps.

    The gaps include a run of adjacent ones, the offsets next to both
    window ends, and offsets on both edges of the sparse gap map's low
    buckets; the rest are random.  Returns (rows, gap offsets, low width).
    """
    low_width = (window // gap_count).bit_length() - 1
    bucket = 1 << low_width
    run = int(rng.integers(3, window - 12))
    must = {2, window - 1, *range(run, run + 6)}
    must.update(list(range(bucket + 1, window, 7 * bucket))[:4])  # first in bucket
    must.update(list(range(bucket, window, 5 * bucket))[:4])      # last in bucket
    must = {o for o in must if o > 1}  # the window begins with data
    rest = [o for o in range(2, window) if o not in must]
    extra = rng.choice(rest, size=gap_count - len(must), replace=False)
    gaps = sorted(must | {int(o) for o in extra})
    present = np.ones(window, dtype=bool)
    present[np.array(gaps) - 1] = False
    offsets = np.flatnonzero(present) + 1
    xs = 5000 + np.cumsum(rng.integers(-4, 5, size=len(offsets)))
    ys = 5000 + np.cumsum(rng.integers(-4, 5, size=len(offsets)))
    rows = [(int(o) + 1, int(x), int(y)) for o, x, y in zip(offsets, xs, ys)]
    return rows, gaps, low_width


class TestSparseGapMap:
    @pytest.mark.parametrize("window, density, seed", [
        (2000, 0.01, 1), (2000, 0.05, 2), (1999, 0.09, 3), (2048, 0.03, 4),
        (6000, 0.09, 5),  # high bitmap spans several superblocks
        # gap shares that make the low width 2, 1, 0 and 0
        (2000, 0.15, 6), (1999, 0.40, 7), (2048, 0.75, 8), (6000, 0.90, 9),
    ])
    def test_long_windows_match_reference(self, window, density, seed):
        rng = np.random.default_rng(seed)
        gap_count = int(density * window)
        rows, gaps, low_width = gappy_rows(rng, window, gap_count)
        period = window + 3  # local instants 1 and period-1 have no data
        log = build_log(rows, 0, period)
        ti = log.time
        assert (ti.first, ti.last) == (2, window + 1)
        assert ti.gap_count == gap_count
        assert ti._gapmap._low_width == low_width
        table = {t: (x, y) for t, x, y in rows}
        seen = 0
        for i in range(1, period):
            assert log.position(i) == table.get(i), i
            seen += i in table
            assert log.count_data_upto(i) == seen
        gapset = set(gaps)
        before = 0
        for off in range(1, window + 1):
            before += off in gapset
            assert ti.gaps_upto(off) == before
            assert ti.ordinal(off) == (None if off in gapset else off - before)
        instants = sorted(table)
        assert [log.unmap_ordinal(j) for j in range(1, len(rows) + 1)] == \
            instants
        assert log.scan_positions(1, len(rows)) == rows
        half = len(rows) // 2
        assert log.scan_positions(half, len(rows)) == rows[half - 1:]
        assert list(ti.data_offsets()) == [t - 1 for t in instants]

    @pytest.mark.parametrize("gaps", [[1, 2, 3, 1000, 2000], [1], [2000],
                                      list(range(1, 2001, 16))])
    def test_gaps_on_the_first_and_last_offsets(self, gaps):
        ti = TimeIndex(5, 2004, gaps)
        gapset = set(gaps)
        before = 0
        for off in range(1, 2001):
            before += off in gapset
            assert ti.ordinal(off) == (None if off in gapset else off - before)
        assert list(ti.data_offsets()) == [o for o in range(1, 2001)
                                           if o not in gapset]

    @pytest.mark.parametrize("window, gaps", [
        (2000, [1, 2, 3, 1000, 2000]), (2000, [1]), (2000, [2000]),
        (2000, list(range(1, 2001, 16))), (2000, list(range(700, 760))),
        (2000, list(range(1, 190, 2)) + list(range(1811, 2001, 2))),
        (1999, "random"), (6000, "random"),
        (2000, 0.15), (2000, 0.40), (2000, 0.75), (6000, 0.90)])
    def test_data_offsets_match_reference(self, window, gaps):
        if gaps == "random":  # just under a tenth of the window
            rng = np.random.default_rng(window)
            count = -(-window // 10) - 1
            gaps = sorted(rng.choice(window, count, replace=False) + 1)
        elif isinstance(gaps, float):  # that share of the window
            rng = np.random.default_rng(int(100 * gaps))
            count = int(gaps * window)
            gaps = sorted(rng.choice(window, count, replace=False) + 1)
        ti = TimeIndex(3, window + 2, gaps)
        gapset = set(gaps)
        data = [o for o in range(1, window + 1) if o not in gapset]
        assert [ti.data_offset(j) for j in range(1, len(data) + 1)] == data
        for start in range(1, len(data) + 1):
            assert next(ti.data_offsets(start)) == data[start - 1]
        for start in (1, 2, len(data) // 2, len(data)):
            assert list(ti.data_offsets(start)) == data[start - 1:]


def edge_tracks():
    """(name, period, rows) for tracks at the pools' edges."""
    rng = np.random.default_rng(90)

    def walk(ts, step=3):
        xs = 700 + np.cumsum(rng.integers(-step, step + 1, size=len(ts)))
        ys = 700 + np.cumsum(rng.integers(-step, step + 1, size=len(ts)))
        return [(int(t), int(x), int(y)) for t, x, y in zip(ts, xs, ys)]

    yield "one-sample", 9, [(4, 3, 5)]
    yield "one-sample-at-last-instant", 9, [(8, 0, 0)]
    for n in (64, 65, 512, 513):
        # sign bitmaps and a gap-free window of exactly n bits
        yield f"full-{n}", n + 2, walk(np.arange(1, n + 1))
        # a window of exactly n instants, a quarter of them gaps
        ts = np.sort(rng.choice(np.arange(2, n), size=3 * n // 4 - 2,
                                replace=False))
        yield f"dense-gaps-{n}", n + 2, walk(np.r_[1, ts, n])
    ts = np.sort(rng.choice(np.arange(2, 1200), size=1150, replace=False))
    yield "sparse-gaps", 1202, walk(np.r_[1, ts, 1200])
    for share in (15, 40, 75, 90):  # gap map low widths 2, 1, 0 and 0
        ts = np.sort(rng.choice(np.arange(2, 400), size=398 - 4 * share,
                                replace=False))
        yield f"gaps-{share}-percent", 402, walk(np.r_[1, ts, 400])
    yield "standing-still", 40, [(t, 9, 9) for t in range(3, 30)]
    yield "only-rising", 40, [(t, t, 2 * t) for t in range(1, 39, 2)]
    yield "only-falling", 40, [(t, 500 - t, 900 - 3 * t) for t in range(2, 39)]


def check_log(log, period, rows):
    table = {t: (x, y) for t, x, y in rows}
    instants = sorted(table)
    assert log.data_count == len(rows)
    seen = 0
    for i in range(1, period):
        assert log.position(i) == table.get(i), i
        seen += i in table
        assert log.count_data_upto(i) == seen
    assert [log.unmap_ordinal(j) for j in range(1, len(rows) + 1)] == instants
    assert log.scan_positions(1, len(rows)) == list(rows)
    assert list(log.time.data_offsets()) == [t - instants[0] + 1
                                             for t in instants]
    for a in (1, len(rows) // 2 + 1, len(rows)):
        assert log.scan_positions(a, len(rows)) == list(rows[a - 1:])
    assert log.code_bits() == build_log(rows, 0, period).code_bits()


class TestPooledLogs:
    """Logs alone in private pools and as neighbours in one pool."""

    CASES = list(edge_tracks())

    @pytest.mark.parametrize("name, period, rows",
                             [pytest.param(*c, id=c[0]) for c in CASES])
    def test_alone(self, name, period, rows):
        log = build_log(rows, 0, period)
        kind, _, n = name.rpartition("-")
        if kind in ("full", "dense-gaps"):
            assert len(log.time) == int(n)
        check_log(log, period, rows)
        assert stored_log(log) == reference_pieces(rows, 0, period)

    def test_neighbours_in_one_pool(self):
        # every case a log of one fleet-wide encoding, as an index holds it
        cols = np.concatenate([rows for _, _, rows in self.CASES])
        sizes = [len(rows) for _, _, rows in self.CASES]
        u32s, bit_words, word_words = encode(
            *cols.T, np.cumsum(sizes) - sizes, np.zeros(len(sizes)),
            max(period for _, period, _ in self.CASES), 4)
        f = records(u32s, 4)[0]
        bits, words = bit_pool(f, bit_words), words_from(word_words)
        for (name, period, rows), row in zip(self.CASES, f.tolist()):
            check_log(TrajectoryLog(bits, words, row, 0, 0, period), period,
                      rows)


MOTIONS = ("at-the-bound", "still", "one-fix", "corners", "jump-over-a-gap",
           "bursts")


@st.composite
def bounded_tracks(draw):
    """(period, rows): one log, local instants from 0, whose motion is
    one of MOTIONS: every step exactly +-s*dt for its speed bound s, so
    some increments dx + s*dt are 0; s = 0, a log that never moves; a
    single fix; fixes on the corners of a grid up to 2**32 a side; or
    steps within s*dt and one of exactly s*dt across the longest gap; or
    fast steps among slow and still ones, so that blocks of steps differ
    in speed bound and the log stores their reductions and offsets."""
    motion = draw(st.sampled_from(MOTIONS))
    period = draw(st.integers(2, 130 if motion == "bursts" else 60))
    if motion == "one-fix":
        ts = [draw(st.integers(1, period - 1))]
    else:
        ts = sorted(draw(st.sets(st.integers(1, period - 1), min_size=1)))
    n = len(ts)
    dts = np.diff(ts)
    if motion == "corners":
        side = draw(st.sampled_from((1, 2, 17, 1 << 20, 1 << 32)))
        corner = st.sampled_from((0, side - 1))
        xs = [draw(corner) for _ in ts]
        ys = [draw(corner) for _ in ts]
    elif motion in ("still", "one-fix"):
        xs = [draw(st.integers(0, (1 << 32) - 1))] * n
        ys = [draw(st.integers(0, (1 << 32) - 1))] * n
    elif motion == "bursts":
        rate = st.sampled_from((0, 0, 1, 1000))
        dx = [draw(st.integers(-1, 1)) * draw(rate) * int(dt) for dt in dts]
        dy = [draw(st.integers(-1, 1)) * draw(rate) * int(dt) for dt in dts]
        xs = (1 << 20) + np.cumsum([0] + dx)
        ys = (1 << 20) + np.cumsum([0] + dy)
        xs, ys = xs.tolist(), ys.tolist()
    else:
        s = draw(st.integers(1, 5))
        sign = st.sampled_from((-1, 1))
        if motion == "at-the-bound":
            dx = [draw(sign) * s * int(dt) for dt in dts]
            dy = [draw(sign) * s * int(dt) for dt in dts]
        else:
            dx = [draw(st.integers(-s * int(dt), s * int(dt))) for dt in dts]
            dy = [draw(st.integers(-s * int(dt), s * int(dt))) for dt in dts]
            if n > 1:
                k = int(np.argmax(dts))
                dx[k], dy[k] = s * int(dts[k]), -s * int(dts[k])
        xs = (1000 + np.cumsum([0] + dx)).tolist()
        ys = (1000 + np.cumsum([0] + dy)).tolist()
    return period, list(zip(ts, xs, ys))


class TestOneStreamPerAxis:
    @given(bounded_tracks())
    @settings(max_examples=200, deadline=None)
    def test_queries_match_plain_lists(self, case):
        period, rows = case
        log = build_log(rows, 0, period)
        instants = [t for t, _, _ in rows]
        table = {t: (x, y) for t, x, y in rows}
        n = len(rows)
        assert log.data_count == n
        for i in range(1, period):
            assert log.position(i) == table.get(i)
        for i in range(period):
            assert log.count_data_upto(i) == sum(t <= i for t in instants)
        assert [log.unmap_ordinal(j) for j in range(1, n + 1)] == instants
        for a in range(1, n + 1):
            assert log.scan_positions(a, n) == rows[a - 1:]
            assert log.scan_positions(1, a) == rows[:a]
        # the signed steps, the first one the coordinate itself
        steps = np.diff([x for _, x, _ in rows], prepend=0)
        assert list(log.dx.sign.ones()) == list(np.flatnonzero(steps >= 0) + 1)
        assert log.dx.pos.total == steps[steps >= 0].sum()
        assert log.dx.neg.total == -steps[steps < 0].sum()

    @given(bounded_tracks())
    @settings(max_examples=200, deadline=None)
    def test_bytes_match_the_reference(self, case):
        period, rows = case
        # the fields may pass a u32, which only an in-memory log holds
        assert stored_log(build_log(rows, 0, period)) == \
            reference_pieces(rows, 0, period)


@st.composite
def small_fleets(draw):
    """(fleet, period, leaf capacity): up to five objects, with drops."""
    fleet = make_fleet(draw(st.integers(1, 5)), draw(st.integers(2, 40)),
                       (draw(st.integers(2, 24)), draw(st.integers(2, 24))),
                       draw(st.integers(0, 10**6)),
                       max_step=draw(st.integers(0, 4)),
                       drop_rate=draw(st.sampled_from((0.0, 0.05, 0.3, 0.7))))
    return fleet, draw(st.integers(2, 12)), draw(st.integers(1, 5))


class TestFleetsInOnePool:
    @given(small_fleets(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_all_query_kinds_match_the_oracle(self, case, data):
        fleet, period, leaf = case
        ix = TrajectoryIndex.from_bytes(build_index(
            fleet.rows(), period, leaf, fleet.extent,
            horizon=fleet.horizon).to_bytes())
        table = PositionTable(fleet.ids, fleet.present, fleet.xs, fleet.ys)
        last = fleet.horizon - 1
        for oid in ix.object_ids:
            for t in range(fleet.horizon):
                assert ix.object_position(oid, t) == table.position(oid, t)
            a = data.draw(st.integers(0, last))
            b = data.draw(st.integers(a, last))
            assert ix.trajectory(oid, a, b) == table.trajectory(oid, a, b)
        w, h = fleet.extent
        for _ in range(4):
            x1, y1 = data.draw(st.integers(0, w - 1)), data.draw(st.integers(0, h - 1))
            rect = (x1, data.draw(st.integers(x1, w - 1)),
                    y1, data.draw(st.integers(y1, h - 1)))
            a = data.draw(st.integers(0, last))
            b = data.draw(st.integers(a, last))
            assert ix.time_slice(Region(*rect), a) == oracle_slice(table, rect, a)
            assert ix.time_interval(Region(*rect), a, b) == \
                oracle_interval(table, rect, a, b)


def _budget_share(log, period, axis):
    # criterion 7's size budget for a log, from the steps of its x axis,
    # the first one the coordinate itself; for a log that moves only in y,
    # its mirror image, from the y axis
    n = log.data_count
    steps = log.dx if axis == 1 else log.dy
    moved = steps.pos.total + steps.neg.total
    return log.code_bits() / (4 * (n * math.log2(moved / n + 2) + period + 64))


class TestBlockSpeedBounds:
    # a fix at every instant of a 720-instant period; the burst is one
    # jump that stays (a vehicle that moves once and parks) or one that
    # comes straight back (a GPS outlier), early, mid-log or last
    @pytest.mark.parametrize("axis", [1, 2], ids=["x", "y"])
    @pytest.mark.parametrize("at", [2, 18, 360, 719])
    @pytest.mark.parametrize("jump, back", [
        (100, False), (100, True), (5000, False), (5000, True)],
        ids=["park-100", "spike-100", "park-5000", "spike-5000"])
    def test_one_burst_keeps_the_log_within_the_space_budget(
            self, axis, at, jump, back):
        period = 720
        rows = []
        for t in range(1, period):
            moved = jump if t == at or (t > at and not back) else 0
            rows.append((t, moved, 0) if axis == 1 else (t, 0, moved))
        log = build_log(rows, 0, period)
        assert log.scan_positions(1, period - 1) == rows
        assert [log.position(t) for t in range(1, period)] == \
            [(x, y) for _, x, y in rows]
        # with one speed bound for the whole log every step would pay for
        # the jump; per block only the jump's own block does
        assert log._f[WIDTHS] != 0
        assert _budget_share(log, period, axis) <= 0.9

    def test_a_log_of_even_steps_stores_no_entries(self):
        rows = [(t, 100 + 3 * t, 400 - 3 * t) for t in range(1, 120)]
        log = build_log(rows, 0, 120)
        assert log._f[WIDTHS] == 0
        assert log.code_bits() == (log.dx.stream.code_bits()
                                   + log.dy.stream.code_bits())
        assert log.scan_positions(1, 119) == rows

