import math
from array import array
from bisect import bisect_left, bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import REF_PERIOD, REF_TRACK, bit, stored_log
from reference_encoder import Parts, write_log
from synth import make_fleet
from trajindex.encoder import encode
from trajindex.engine import TrajectoryIndex, build_index
from trajindex.log import (
    DATA,
    RECORD_FIELDS,
    SPEED,
    WIDTHS,
    WINDOW,
    X_AXIS,
    Y_AXIS,
    TimeIndex,
    TrajectoryLog,
    bit_pool,
    build_log,
    decode,
    ordinal_range,
    position_at,
    positions_at,
    records,
    surely_has_data,
)
from trajindex.oracle import PositionTable, oracle_interval, oracle_slice
from trajindex.snapshot import Region
from trajindex.succinct import (
    BitPool,
    BitVector,
    Writer,
    next_one,
    rank,
    words_from,
)


@pytest.fixture
def ref_log(ref_track):
    return build_log(ref_track, 0, REF_PERIOD, object_id=7)


def reference_pieces(rows, start, period):
    """The u32 fields and pool words the reference encoder writes for a
    log of rows, as `stored_log` gives them."""
    want = Parts()
    write_log(want, rows, start, period)
    return want.fields, bytes(want.bits), bytes(want.words)


def data_upto(log, i):
    # data instants among local instants 1..i (i may be 0)
    return ordinal_range(log._bits, log._f, 1, i)[1]


def gap_window(first, last, gaps):
    """A window [first, last] with gaps at those offsets, its bitmap alone
    in a pool of its own: its TimeIndex, and a log view with no streams,
    whose ordinal maps read the bitmap."""
    present = np.ones(last - first + 1, dtype=np.uint8)
    present[np.asarray(gaps, dtype=np.int64) - 1] = 0
    w = Writer()
    w.bits(present)
    bits = BitPool(w)
    f = [0] * RECORD_FIELDS
    f[:DATA + 1] = first, last, len(gaps), 0, 0, int(present.sum())
    f[X_AXIS] = len(bits.words)  # where the bitmap's words end
    f = tuple(f)
    return (TimeIndex(bits, array("Q"), f),
            TrajectoryLog(bits, array("Q"), f, 0, 0, last + 1))


def ordinal(log, off):
    """Data ordinal at window offset off, None at a gap, as a position
    finds it: a bit of the window bitmap, then a rank."""
    bits, f = log._bits, log._f
    if not f[2]:
        return off
    if not bit(bits, f[WINDOW], off):
        return None
    return rank(bits, f[WINDOW], f[WINDOW + 1], off)


def data_offset(log, j):
    """Window offset of the j-th instant with data, a select of the
    window bitmap."""
    return log.unmap_ordinal(j) - log._f[0] + 1


def decoded(bits, words, pieces):
    """`decode` of pieces (f, k, lo, hi), as (instant, x, y) rows."""
    t, x, y = decode(bits, words, pieces)
    return list(zip(t.tolist(), x.tolist(), y.tolist()))


def pointwise(bits, words, f, k, lo, hi):
    """The rows `decode` gives for one piece, from `position_at` at each
    of its instants."""
    return [(k + i, *pos) for i in range(lo, hi + 1)
            if (pos := position_at(bits, words, f, i)) is not None]


def random_track(rng, period, start=0, max_step=6, base=500):
    count = int(rng.integers(1, period))
    ts = start + 1 + np.sort(rng.choice(period - 1, size=count, replace=False))
    xs = base + np.cumsum(rng.integers(-max_step, max_step + 1, size=count))
    ys = base + np.cumsum(rng.integers(-max_step, max_step + 1, size=count))
    return list(zip(ts.tolist(), xs.tolist(), ys.tolist()))


class TestTimeIndex:
    def test_dense_window(self):
        # window offsets 1..9, ordinals 1..7
        ti, log = gap_window(2, 10, [5, 6])
        assert ti.first == 2 and log.data_count == 7
        assert ordinal(log, 5) is None and ordinal(log, 4) == 4
        assert ordinal(log, 9) == 7 and data_offset(log, 1) == 1
        assert ti.gaps_upto(8) == 2 and ti.gaps_upto(0) == 0
        assert data_offset(log, 5) == 7
        assert [data_offset(log, j) for j in range(3, 8)] == [3, 4, 7, 8, 9]
        assert ti.code_bits() == 9  # a bit per instant of the window

    @pytest.mark.parametrize("gaps", [[50], list(range(2, 12)),
                                      list(range(2, 13))],
                             ids=["1-percent", "10-percent", "11-percent"])
    def test_values_across_the_old_ten_percent_threshold(self, gaps):
        # a tenth of the window once switched the gap map to a plain bitmap
        ti, log = gap_window(1, 100, gaps)
        data = [o for o in range(1, 101) if o not in gaps]
        assert log.data_count == len(data)
        assert ti.gaps_upto(0) == 0
        for off in range(1, 101):
            assert ti.gaps_upto(off) == sum(g <= off for g in gaps)
            assert ordinal(log, off) == (data.index(off) + 1 if off in data
                                         else None)
        assert [data_offset(log, j) for j in range(1, len(data) + 1)] == data

    def test_windows_either_side_of_the_old_threshold(self):
        # one gap, and 14 gaps in 38 slots: either side of the old 10%
        # threshold between a sparse and a plain gap map
        for gaps in ([7], list(range(2, 30, 2))):
            ti, log = gap_window(3, 40, gaps)
            assert ti.first == 3
            data = [o for o in range(1, 39) if o not in gaps]
            assert [data_offset(log, j) for j in range(1, len(data) + 1)] \
                == data

    def test_a_window_with_no_gaps_stores_no_bitmap(self):
        log = build_log([(t, t, 2 * t) for t in range(3, 40)], 0, 41)
        f = log._f
        assert f[2] == 0 and f[WINDOW] == f[X_AXIS]
        assert log.time.code_bits() == 0 and log.time.gaps_upto(20) == 0
        assert [log.unmap_ordinal(j) for j in (1, 5, 37)] == [3, 7, 39]


class TestReferenceTrack:
    def test_window_and_gaps(self, ref_log):
        assert ref_log.time.first == 2
        assert ref_log._f[1:3] == (10, 2)  # the last instant, the gaps
        assert ref_log.data_count == 7

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
        f = (ref_log._bits, ref_log._f)
        assert ordinal_range(*f, 1, 9) == (1, 6)
        assert ordinal_range(*f, 1, 1) == (1, 0)
        assert ordinal_range(*f, 1, 12) == (1, 7)
        assert ordinal_range(*f, 3, 9) == (2, 6)
        assert ordinal_range(*f, 6, 7) == (5, 4)  # gaps alone: empty
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
                assert data_upto(log, log.unmap_ordinal(j)) == j

    def test_data_in_a_window_matches_the_samples(self):
        # ordinal_range is non-empty exactly where the samples have an
        # instant, and surely_has_data, on the window clipped to the
        # log's, claims data only where they do
        rng = np.random.default_rng(79)
        for trial in range(60):
            period = int(rng.integers(2, 40))
            rows = random_track(rng, period)
            log = build_log(rows, 0, period)
            f = log._f
            held = np.zeros(period + 1, dtype=bool)
            held[[t for t, _, _ in rows]] = True
            for lo in range(1, period):
                for hi in range(lo, period):
                    first, last = ordinal_range(log._bits, f, lo, hi)
                    assert (first <= last) == held[lo:hi + 1].any(), \
                        (rows, lo, hi)
                    a, b = max(lo, f[0]), min(hi, f[1])
                    if a <= b and surely_has_data(f[0], f[1], f[2], a, b):
                        assert held[a:b + 1].any(), (rows, a, b)

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
    window ends, and offsets on both sides of the window bitmap's word
    boundaries; the rest are random.  Returns (rows, gap offsets).
    """
    run = int(rng.integers(3, window - 12))
    must = {2, window - 1, *range(run, run + 6)}
    must.update(list(range(64, window, 7 * 64))[:4])  # a word's last bit
    must.update(list(range(65, window, 5 * 64))[:4])  # a word's first bit
    rest = [o for o in range(2, window) if o not in must]
    extra = rng.choice(rest, size=gap_count - len(must), replace=False)
    gaps = sorted(must | {int(o) for o in extra})
    present = np.ones(window, dtype=bool)
    present[np.array(gaps) - 1] = False
    offsets = np.flatnonzero(present) + 1
    xs = 5000 + np.cumsum(rng.integers(-4, 5, size=len(offsets)))
    ys = 5000 + np.cumsum(rng.integers(-4, 5, size=len(offsets)))
    rows = [(int(o) + 1, int(x), int(y)) for o, x, y in zip(offsets, xs, ys)]
    return rows, gaps


class TestWindowBitmap:
    @pytest.mark.parametrize("window, density, seed", [
        (2000, 0.01, 1), (2000, 0.05, 2), (1999, 0.09, 3), (2048, 0.03, 4),
        (6000, 0.09, 5),  # the bitmap spans several superblocks
        (2000, 0.15, 6), (1999, 0.40, 7), (2048, 0.75, 8), (6000, 0.90, 9),
    ])
    def test_long_windows_match_reference(self, window, density, seed):
        rng = np.random.default_rng(seed)
        gap_count = int(density * window)
        rows, gaps = gappy_rows(rng, window, gap_count)
        period = window + 3  # local instants 1 and period-1 have no data
        log = build_log(rows, 0, period)
        ti = log.time
        f = log._f
        assert ti.first == 2
        assert f[1:3] == (window + 1, gap_count)
        assert f[X_AXIS] - f[WINDOW] == (window + 63) >> 6  # the bitmap
        assert ti.code_bits() == window
        table = {t: (x, y) for t, x, y in rows}
        seen = 0
        for i in range(1, period):
            assert log.position(i) == table.get(i), i
            seen += i in table
            assert data_upto(log, i) == seen
        gapset = set(gaps)
        before = 0
        for off in range(1, window + 1):
            before += off in gapset
            assert ti.gaps_upto(off) == before
            assert ordinal(log, off) == (
                None if off in gapset else off - before)
        instants = sorted(table)
        assert [log.unmap_ordinal(j) for j in range(1, len(rows) + 1)] == \
            instants
        assert log.scan_positions(1, len(rows)) == rows
        half = len(rows) // 2
        assert log.scan_positions(half, len(rows)) == rows[half - 1:]

    @pytest.mark.parametrize("window, seed", [(2000, 11), (3000, 12)])
    def test_window_bitmaps_across_words_and_superblocks(self, window, seed):
        # the long window's bitmap follows a short log's in one pool, so
        # it starts inside a 512-bit superblock and spans several: rank,
        # select and the gap test cross word and superblock boundaries
        rng = np.random.default_rng(seed)
        short = [(t, 9, 9) for t in (1, 2, 5, 9)]  # gaps at 3, 4, 6..8
        rows, gaps = gappy_rows(rng, window, window // 5)
        cols = np.array(short + rows)
        u32s, bit_bytes, word_bytes = encode(
            *cols.T, [0, len(short)], [0, 0], window + 3, 8)
        f = records(u32s, 8)[0]
        bits, words = bit_pool(f, bit_bytes), words_from(word_bytes)
        f = f[1].tolist()
        assert f[WINDOW] % 8 and f[X_AXIS] - f[WINDOW] > 8
        log = TrajectoryLog(bits, words, f, 0, 0, window + 3)
        gapset = set(gaps)
        offsets = [off for off in range(1, window + 1) if off not in gapset]
        assert [ordinal(log, off) for off in range(1, window + 1)] == \
            [None if off in gapset else offsets.index(off) + 1
             for off in range(1, window + 1)]
        assert [log.time.gaps_upto(off) for off in range(window + 1)] == \
            [off - bisect_right(offsets, off) for off in range(window + 1)]
        instants = [t for t, _, _ in rows]
        assert [log.unmap_ordinal(j) for j in range(1, len(rows) + 1)] == \
            instants
        # from each gap, the next set bit is the next fix
        assert [next_one(bits, f[WINDOW], off) for off in gaps] == \
            [offsets[bisect_left(offsets, off)] for off in gaps]
        for lo, hi in [(1, window + 2), (2, 2), (3, window)] + [
                tuple(sorted(rng.integers(1, window + 3, size=2).tolist()))
                for _ in range(300)]:
            assert ordinal_range(bits, f, lo, hi) == \
                (bisect_left(instants, lo) + 1, bisect_right(instants, hi))
        table = {t: (x, y) for t, x, y in rows}
        assert [log.position(i) for i in range(1, window + 3)] == \
            [table.get(i) for i in range(1, window + 3)]
        assert log.scan_positions(1, len(rows)) == rows

    @pytest.mark.parametrize("gaps", [[1, 2, 3, 1000, 2000], [1], [2000],
                                      list(range(1, 2001, 16))])
    def test_gaps_on_the_first_and_last_offsets(self, gaps):
        ti, log = gap_window(5, 2004, gaps)
        gapset = set(gaps)
        before = 0
        for off in range(1, 2001):
            before += off in gapset
            assert ordinal(log, off) == (None if off in gapset
                                         else off - before)
            assert ti.gaps_upto(off) == before
        data = [o for o in range(1, 2001) if o not in gapset]
        assert [data_offset(log, j) for j in range(1, len(data) + 1)] == data

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
        ti, log = gap_window(3, window + 2, gaps)
        gapset = set(gaps)
        data = [o for o in range(1, window + 1) if o not in gapset]
        assert [data_offset(log, j) for j in range(1, len(data) + 1)] == data
        assert [next_one(log._bits, 0, o) for o in range(1, data[-1] + 1)] \
            == [data[bisect_left(data, o)] for o in range(1, data[-1] + 1)]


def gap_patterns():
    """(name, window, gaps) for gap layouts at the window bitmap's edges;
    the gaps are window offsets, all strictly inside the window."""
    rng = np.random.default_rng(57)
    yield "no-gaps-3", 3, []
    yield "no-gaps-100", 100, []
    yield "one-run", 1000, list(range(10, 41))
    # the whole first word of the bitmap past the first fix
    yield "leading-run", 1000, list(range(2, 66))
    yield "next-to-the-ends", 500, [2, 3, 250, 498, 499]
    yield "only-second", 66, [2]
    yield "only-next-to-last", 66, [65]
    # the last and first bit of every other word, and of every other
    # 512-bit superblock
    for window, size in ((1000, 64), (4096, 512)):
        edges = [p for b in range(1, window // size, 2)
                 for p in (b * size, b * size + 1) if 1 < p < window]
        yield f"edges-{window}", window, edges
    # just under a tenth of the window, random
    for window in (1999, 2000, 6000):
        count = -(-window // 10) - 1
        yield (f"density-{window}", window,
               sorted((rng.choice(window - 2, count, replace=False) + 2)
                      .tolist()))
    yield "runs-dense", 200, list(range(2, 21)) + list(range(181, 200))


class TestGapPatterns:
    @pytest.mark.parametrize("name, window, gaps",
                             [pytest.param(*c, id=c[0]) for c in gap_patterns()])
    def test_every_instant_matches_brute_force(self, name, window, gaps):
        # the window runs over local instants 2..window+1 of the log
        rng = np.random.default_rng(window)
        gapset = set(gaps)
        offsets = [o for o in range(1, window + 1) if o not in gapset]
        xs = 900 + np.cumsum(rng.integers(-5, 6, size=len(offsets)))
        rows = [(o + 1, int(x), 2 * int(x)) for o, x in zip(offsets, xs)]
        period = window + 3
        log = build_log(rows, 0, period)
        f = log._f
        assert f[1:3] == (window + 1, len(gaps)) and log.data_count == \
            len(rows)
        table = {t: (x, y) for t, x, y in rows}
        instants = [t for t, _, _ in rows]
        assert [log.position(i) for i in range(1, period)] == \
            [table.get(i) for i in range(1, period)]
        assert [log.time.gaps_upto(o) for o in range(window + 1)] == \
            [o - bisect_right(offsets, o) for o in range(window + 1)]
        assert [log.unmap_ordinal(j) for j in range(1, len(rows) + 1)] == \
            instants
        if gaps:
            assert [next_one(log._bits, f[WINDOW], o) for o in gaps] == \
                [offsets[bisect_left(offsets, o)] for o in gaps]
        # whole, edge and random ranges, and each gap's instant alone
        for lo, hi in [(1, period - 1), (2, 2), (3, window)] + [
                tuple(sorted(rng.integers(1, period, size=2).tolist()))
                for _ in range(200)] + [(o + 1, o + 1) for o in gaps]:
            first, last = bisect_left(instants, lo) + 1, \
                bisect_right(instants, hi)
            assert ordinal_range(log._bits, f, lo, hi) == (first, last)
            a, b = max(lo, f[0]), min(hi, f[1])
            if a <= b and surely_has_data(f[0], f[1], f[2], a, b):
                assert first <= last, (lo, hi)
        assert log.scan_positions(1, len(rows)) == rows


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
        # a gap-free window of exactly n instants
        yield f"full-{n}", n + 2, walk(np.arange(1, n + 1))
        # a window of exactly n instants, a quarter of them gaps
        ts = np.sort(rng.choice(np.arange(2, n), size=3 * n // 4 - 2,
                                replace=False))
        yield f"dense-gaps-{n}", n + 2, walk(np.r_[1, ts, n])
    ts = np.sort(rng.choice(np.arange(2, 1200), size=1150, replace=False))
    yield "sparse-gaps", 1202, walk(np.r_[1, ts, 1200])
    for share in (15, 40, 75, 90):  # that share of the window gaps
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
        assert data_upto(log, i) == seen
    assert [log.unmap_ordinal(j) for j in range(1, len(rows) + 1)] == instants
    assert log.scan_positions(1, len(rows)) == list(rows)
    assert [log.time.gaps_upto(t - instants[0] + 1) for t in instants] == \
        [t - instants[0] - j for j, t in enumerate(instants)]
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
            assert log._f[1] - log._f[0] + 1 == int(n)  # the window
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
            assert data_upto(log, i) == sum(t <= i for t in instants)
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


def rows_around(rng, period, gaps, still=False):
    """Fixes at every local instant 1..period-1 but the gaps, a random
    walk of steps up to 3, or standing still."""
    ts = [t for t in range(1, period) if t not in set(gaps)]
    steps = rng.integers(-3, 4, size=(len(ts), 2)) * (not still)
    xy = 5000 + np.cumsum(steps, axis=0)
    return [(t, int(x), int(y)) for t, (x, y) in zip(ts, xy)]


class TestGappyLogs:
    """A log with gaps tells a gap by its window bitmap's bit, whatever
    its share of gaps."""

    @staticmethod
    def check(rows, period):
        log = build_log(rows, 0, period)
        table = {t: (x, y) for t, x, y in rows}
        assert [log.position(i) for i in range(1, period)] == \
            [table.get(i) for i in range(1, period)]
        return log

    def test_random_gappy_logs(self):
        rng = np.random.default_rng(161)
        for trial in range(60):
            period = int(rng.integers(3, 300))
            inner = np.arange(2, period - 1)
            share = rng.choice((0.02, 0.1, 0.25, 0.6))
            gaps = rng.choice(inner, size=int(share * (period - 2)),
                              replace=False).tolist() if len(inner) else []
            self.check(rows_around(rng, period, gaps), period)

    def test_a_run_of_gaps_across_words_of_the_window_bitmap(self):
        rng = np.random.default_rng(163)
        period = 900
        run = list(range(300, 500))  # 200 of 898 steps
        log = self.check(rows_around(rng, period, run), period)
        f = log._f
        # the run's zeros span words 4..7 of the bitmap; from any of them
        # the next fix is at 500
        assert [next_one(log._bits, f[WINDOW], t - f[0] + 1) + f[0] - 1
                for t in run] == [500] * len(run)
        assert ordinal_range(log._bits, f, 300, 499) == (300, 299)

    def test_a_still_object(self):
        rng = np.random.default_rng(164)
        rows = rows_around(rng, 120, [5, 6, 50, 51, 52, 100], still=True)
        assert self.check(rows, 120)._f[SPEED] == 0

    def test_a_single_fix(self):
        for t in (1, 5, 11):
            self.check([(t, 3, 4)], 12)

    @pytest.mark.parametrize("last", [2, 3, 65, 513, 998])
    def test_a_window_whose_only_fixes_are_its_two_ends(self, last):
        rows = [(1, 40, 700), (last, 900, 2)]
        log = self.check(rows, 1000)
        f = log._f
        assert f[1:3] == (last, last - 2) and log.data_count == 2
        assert [log.unmap_ordinal(j) for j in (1, 2)] == [1, last]
        assert log.scan_positions(1, 2) == rows
        assert decoded(log._bits, log._words, [(f, 0, 2, 999)]) == rows[1:]
        assert [data_upto(log, i) for i in (0, 1, last - 1, last, 999)] == \
            [0, 1, 1, 2, 2]
        if last > 3:
            lo, hi = ordinal_range(log._bits, f, 2, last - 1)
            assert lo > hi
        assert log.time.gaps_upto(last) == last - 2
        # in an index, after a snapshot fix at the period start; a window
        # of gaps alone has no data, and a box-tree walk from either end
        # finds the other
        ix = build_index([(5, 0, 40, 700)] + [(5, t, x, y) for t, x, y in rows],
                         period=1000, leaf_capacity=1, extent=(1024, 1024))
        (indexed, _), = ix._logs.values()
        assert indexed._f[:3] == (1, last, last - 2)
        grid = Region(0, 1023, 0, 1023)
        if last > 3:
            assert ix.time_interval(grid, 2, last - 1) == []
        assert ix.time_interval(Region(900, 900, 2, 2), 2, last) == [5]
        assert ix.time_interval(Region(900, 900, 2, 2), 1, last - 1) == []
        assert ix.time_interval(Region(40, 40, 700, 700), 1, last) == [5]
        assert ix.trajectory(5, 1, last) == rows


def gap_share_fleet(gaps):
    """Rows of one object per entry of gaps: fixes on local instants
    1..81 of each period of 82, less that many gaps, in four periods; a
    window of 80 steps, so 20 gaps is exactly the quarter that once
    switched a log's stream to a member per fix."""
    rng = np.random.default_rng(sum(gaps) + 17)
    rows = []
    for oid, count in enumerate(gaps, 1):
        x, y = 200 + 40 * oid, 300
        for k in range(0, 4 * 82, 82):
            held = np.ones(81, dtype=bool)
            held[rng.choice(np.arange(1, 80), count, replace=False)] = False
            for t in np.flatnonzero(held) + 1:
                x += int(rng.integers(-3, 4))
                y += int(rng.integers(-3, 4))
                rows.append((oid, k + int(t), x, y))
            rows.append((oid, k, x, y))  # the snapshot fix
    return sorted(rows, key=lambda r: (r[0], r[1]))


class TestGapShares:
    """Logs whose gaps are none, just under, exactly and just over a
    quarter of their steps, the old switch between two stream layouts,
    answer as the oracle does."""

    @pytest.mark.parametrize("gaps", [(0,), (19,), (20,), (21,),
                                      (0, 19, 20, 21)],
                             ids=["none", "under", "quarter", "over", "all"])
    def test_build_index_matches_the_oracle(self, gaps):
        rows = gap_share_fleet(gaps)
        horizon = 4 * 82
        ix = TrajectoryIndex.from_bytes(build_index(
            rows, 82, 4, (1024, 1024), horizon=horizon).to_bytes())
        logs = list(ix._logs.values())
        assert logs and all(log._f[2] in gaps for log, _ in logs)
        ids = sorted({r[0] for r in rows})
        present = np.zeros((len(ids), horizon), dtype=bool)
        xs = np.zeros((len(ids), horizon), dtype=np.int64)
        ys = np.zeros((len(ids), horizon), dtype=np.int64)
        for oid, t, x, y in rows:
            present[oid - 1, t], xs[oid - 1, t], ys[oid - 1, t] = True, x, y
        table = PositionTable(np.array(ids), present, xs, ys)
        for oid in ids:
            for t in range(horizon):
                assert ix.object_position(oid, t) == table.position(oid, t)
            assert ix.trajectory(oid, 0, horizon - 1) == \
                table.trajectory(oid, 0, horizon - 1)
            assert ix.trajectory(oid, 90, 150) == table.trajectory(oid, 90, 150)
        rng = np.random.default_rng(len(gaps))
        for _ in range(40):
            x1, y1 = (int(v) for v in rng.integers(150, 450, 2))
            rect = (x1, x1 + int(rng.integers(0, 60)),
                    y1, y1 + int(rng.integers(0, 60)))
            a = int(rng.integers(0, horizon))
            b = int(rng.integers(a, min(a + 100, horizon)))
            assert ix.time_slice(Region(*rect), a) == \
                oracle_slice(table, rect, a)
            assert ix.time_interval(Region(*rect), a, b) == \
                oracle_interval(table, rect, a, b)


class TestWindowMarks:
    @given(small_fleets())
    @settings(max_examples=60, deadline=None)
    def test_the_window_bitmap_marks_the_fixes(self, case):
        # a log with gaps holds a bit per instant of its window, set at
        # its fixes; one with none holds no bitmap.  Either way each axis
        # stream has a member per fix after the first
        fleet, period, leaf = case
        ix = build_index(fleet.rows(), period, leaf, fleet.extent,
                         horizon=fleet.horizon)
        for log, _ in ix._logs.values():
            f = log._f
            fixes = [t - f[0] + 1 for t, _, _ in log.scan_positions(
                1, log.data_count)]
            n = f[1] - f[0] + 1
            if f[2]:
                window = BitVector(log._bits, f[WINDOW], n, f[WINDOW + 1],
                                   log.data_count)
                assert list(window.ones()) == fixes
            else:
                assert f[WINDOW] == f[X_AXIS] and fixes == list(range(1, n + 1))
            for axis in (log.dx, log.dy):
                # the high bits hold a one per member, the last one's the
                # last of them
                members, m = axis.stream._members, log.data_count - 1
                places = list(members._high.ones())
                assert len(places) == m
                if m:
                    assert members._high.select1(m) == places[-1]


class TestAxisSteps:
    """`AxisDeltas._steps` decodes an axis in one numpy pass: the signed
    steps of its coordinates, the first one the coordinate itself, as
    `position_at` gives them."""

    @staticmethod
    def check(log):
        walk = pointwise(log._bits, log._words, log._f, 0, 1, log._f[1])
        for k, axis in ((1, log.dx), (2, log.dy)):
            coords = [p[k] for p in walk]
            assert axis._steps.tolist() == \
                np.diff(coords, prepend=0).tolist()

    def test_random_logs(self):
        rng = np.random.default_rng(171)
        for trial in range(60):
            period = int(rng.integers(2, 300))
            self.check(build_log(random_track(rng, period), 0, period))

    @pytest.mark.parametrize("window, density, seed", [
        (2000, 0.01, 1), (1999, 0.40, 7), (6000, 0.90, 9)])
    def test_gappy_logs(self, window, density, seed):
        rng = np.random.default_rng(seed)
        rows, _ = gappy_rows(rng, window, int(density * window))
        self.check(build_log(rows, 0, window + 3))

    def test_logs_with_entries(self):
        # bursts make blocks of differing speed bounds, so the decode
        # reads each block's reduction and offset
        rows = [(t, 1000 + (500 if 40 <= t < 44 else 0) + t % 3,
                 2000 - (t > 90) * 300) for t in range(1, 200) if t % 7]
        log = build_log(rows, 0, 200)
        assert log._f[WIDTHS]
        self.check(log)


def batch_cases():
    """(name, period, rows) for logs at the edges `positions_at` reads
    across: gaps at word and superblock edges and one-fix logs (see
    `edge_tracks`), windows and high bits over several superblocks, and
    bursts that make the log store block entries."""
    yield from edge_tracks()
    rng = np.random.default_rng(191)
    for window in (2000, 3000):
        yield f"long-{window}", window + 3, gappy_rows(rng, window,
                                                       window // 5)[0]
    for at in (18, 360):  # a jump that stays, then a spike
        yield f"park-at-{at}", 720, [(t, 100 * (t >= at), 0)
                                     for t in range(1, 720) if t % 7]
        yield f"spike-at-{at}", 720, [(t, 9, 5000 * (t == at))
                                      for t in range(2, 719)]


def batched(bits, words, f, i):
    """`positions_at` of the records f at instant i, as `position_at`
    answers: a position per log, or None."""
    x, y, fix = positions_at(bits, words, np.asarray(f, dtype=np.int64), i)
    return [(a, b) if ok else None
            for a, b, ok in zip(x.tolist(), y.tolist(), fix.tolist())]


class TestPositionsAt:
    """`positions_at` answers as `position_at` does, log by log, at every
    local instant: before a log's window, in it, at its gaps and after
    it; one log at a time and all of them in one call."""

    CASES = list(batch_cases())

    @pytest.mark.parametrize("name, period, rows",
                             [pytest.param(*c, id=c[0]) for c in CASES])
    def test_each_log_at_every_instant(self, name, period, rows):
        log = build_log(rows, 0, period)
        table = {t: (x, y) for t, x, y in rows}
        assert [batched(log._bits, log._words, [log._f], i)[0]
                for i in range(1, period)] == \
            [table.get(i) for i in range(1, period)]

    def test_every_log_of_one_pool_in_one_call(self):
        cols = np.concatenate([rows for _, _, rows in self.CASES])
        sizes = [len(rows) for _, _, rows in self.CASES]
        period = max(period for _, period, _ in self.CASES)
        u32s, bit_words, word_words = encode(
            *cols.T, np.cumsum(sizes) - sizes, np.zeros(len(sizes)), period, 4)
        f = records(u32s, 4)[0]
        bits, words = bit_pool(f, bit_words), words_from(word_words)
        assert (f[:, WIDTHS] > 0).any() and (f[:, DATA] == 1).any()
        logs = f.tolist()
        for i in range(1, period):
            assert batched(bits, words, f, i) == \
                [position_at(bits, words, row, i) for row in logs], i
        # the members' ones, of which each is selected at its instant,
        # hold the first one of some superblock of the pool
        sup = np.array(bits.super1)
        firsts = set((sup[:-1][np.diff(sup) > 0] + 1).tolist())
        members = {g for row in logs for a in (X_AXIS, Y_AXIS)
                   for g in range(row[a + 1] + 1, row[a + 1] + row[DATA])}
        assert firsts & members


class TestDecode:
    """`decode` gives, at every instant, what `position_at` gives: for
    the whole period, for windows clipped at either end or holding no
    fix, and for pieces of many logs in one call."""

    @staticmethod
    def check(log, period, rng, windows=12):
        bits, words, f = log._bits, log._words, log._f
        whole = pointwise(bits, words, f, 0, 1, period - 1)
        assert decoded(bits, words, [(f, 0, 1, period - 1)]) == whole
        # windows from the first instant, to the last, inside the log's
        # window, around its ends, and random ones, with no fix or some
        edges = {1, f[0] - 1, f[0], f[0] + 1, f[1] - 1, f[1], f[1] + 1,
                 period - 1}
        ends = sorted(e for e in edges if 1 <= e < period)
        pieces = [(1, e) for e in ends] + [(e, period - 1) for e in ends]
        for _ in range(windows):
            lo = int(rng.integers(1, period))
            pieces.append((lo, int(rng.integers(lo, period))))
        for lo, hi in pieces:
            want = [r for r in whole if lo <= r[0] <= hi]
            assert decoded(bits, words, [(f, 0, lo, hi)]) == want, (lo, hi)
        # all of them in one call, each counted from its own start
        calls = [(f, n * period, lo, hi) for n, (lo, hi) in enumerate(pieces)]
        assert decoded(bits, words, calls) == [
            row for c in calls for row in pointwise(bits, words, *c)]

    def test_random_logs(self):
        rng = np.random.default_rng(181)
        periods = [2, 3, 300] + rng.integers(2, 301, size=40).tolist()
        for period in periods:
            self.check(build_log(random_track(rng, period), 0, period),
                       period, rng)

    @pytest.mark.parametrize("window, density, seed", [
        (2000, 0.01, 1), (1999, 0.40, 7), (6000, 0.90, 9)])
    def test_gappy_logs(self, window, density, seed):
        rng = np.random.default_rng(seed)
        rows, gaps = gappy_rows(rng, window, int(density * window))
        log = build_log(rows, 0, window + 3)
        self.check(log, window + 3, rng, windows=40)
        # two gaps side by side, at offsets a and a + 1, hold no fix
        a = next(a for a, b in zip(gaps, gaps[1:]) if b == a + 1)
        assert decoded(log._bits, log._words, [(log._f, 0, a + 1, a + 2)]) \
            == []

    def test_logs_with_entries(self):
        rng = np.random.default_rng(183)
        burst = [(t, 1000 + (500 if 40 <= t < 44 else 0) + t % 3,
                  2000 - (t > 90) * 300) for t in range(1, 200) if t % 7]
        cases = [(200, burst)]
        for at in (2, 18, 360, 719):
            cases.append((720, [(t, 5000 * (t >= at), 100 * (t == at))
                                for t in range(1, 720) if t % 5]))
        for period, rows in cases:
            log = build_log(rows, 0, period)
            assert log._f[WIDTHS]
            self.check(log, period, rng, windows=40)

    def test_one_fix_logs(self):
        rng = np.random.default_rng(184)
        for period, t in ((2, 1), (12, 1), (12, 5), (12, 11), (300, 150)):
            log = build_log([(t, 3, 4)], 0, period)
            self.check(log, period, rng)
            whole = [(log._f, 0, 1, period - 1)]
            assert decoded(log._bits, log._words, whole) == [(t, 3, 4)]

    def test_no_pieces_and_no_fixes(self):
        log = build_log([(5, 3, 4), (9, 6, 8)], 0, 12)
        bits, words, f = log._bits, log._words, log._f
        for pieces in ([], [(f, 0, 1, 4)], [(f, 0, 6, 8), (f, 12, 10, 11)]):
            t, x, y = decode(bits, words, pieces)
            assert len(t) == len(x) == len(y) == 0

    def test_pieces_of_many_logs_in_one_call(self):
        rng = np.random.default_rng(185)
        fleet = make_fleet(12, 600, (400, 400), seed=186, drop_rate=0.3)
        for period in (7, 120):
            ix = TrajectoryIndex.from_bytes(build_index(
                fleet.rows(), period, 8, fleet.extent,
                horizon=fleet.horizon).to_bytes())
            rows = [r for r in ix._rows if r >= 0]
            for _ in range(20):
                pieces = []
                for row in rng.choice(rows, size=int(rng.integers(1, 9))):
                    lo = int(rng.integers(1, period))
                    hi = int(rng.integers(lo, period))
                    pieces.append((ix._fields(int(row)),
                                   int(rng.integers(0, 99)) * period, lo, hi))
                assert decoded(ix._bits, ix._words, pieces) == [
                    r for p in pieces
                    for r in pointwise(ix._bits, ix._words, *p)]

    def test_short_periods_against_the_oracle(self):
        # d = 7: a trajectory crosses many periods; objects enter after a
        # period's start, and some miss whole periods
        rng = np.random.default_rng(187)
        fleet = make_fleet(9, 400, (300, 300), seed=188, drop_rate=0.2)
        for i in range(len(fleet.ids)):
            for _ in range(6):
                a = int(rng.integers(0, 380))
                fleet.present[i, a:a + int(rng.integers(7, 30))] = False
        fleet.present[:, 0] = True
        ix = TrajectoryIndex.from_bytes(build_index(
            fleet.rows(), 7, 3, fleet.extent,
            horizon=fleet.horizon).to_bytes())
        table = PositionTable(fleet.ids, fleet.present, fleet.xs, fleet.ys)
        last = fleet.horizon - 1
        held = [fleet.present[:, k:k + 7] for k in range(0, last, 7)]
        assert sum((~p[:, 0] & p.any(1)).sum() for p in held) > 20  # entrants
        assert sum((~p.any(1)).sum() for p in held) > 20  # missing periods
        for oid in ix.object_ids:
            whole = table.trajectory(oid, 0, last)
            assert ix.trajectory(oid, 0, last) == whole
            for _ in range(20):
                a = int(rng.integers(0, last + 1))
                b = int(rng.integers(a, min(a + 120, last) + 1))
                assert ix.trajectory(oid, a, b) == table.trajectory(oid, a, b)
