import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_encoder import write_snapshots
from trajindex.snapshot import (
    ENTRANT,
    FIX,
    NO_ROW,
    K2Tree,
    Region,
    Snapshot,
)
from trajindex.succinct import Reader, Writer


class TestRegion:
    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            Region(5, 4, 0, 0)
        with pytest.raises(ValueError):
            Region(0, 0, 9, 2)

    def test_contains(self):
        r = Region(2, 4, 3, 3)
        assert r.contains(2, 3) and r.contains(4, 3)
        assert not r.contains(5, 3) and not r.contains(3, 2)


def ints(values) -> np.ndarray:
    return np.array(list(values), dtype=np.int64)


def columns(width, height, *periods):
    """A K2Tree over the (x, y) cells of each period, a period's in its
    first slots of as many as the longest period has cells, so a shorter
    period leaves its last slots empty; and that slot count."""
    n = max(map(len, periods), default=0)
    slots = ints(p * n + j for p, cells in enumerate(periods)
                 for j in range(len(cells)))
    cells = [cell for cells in periods for cell in cells]
    return K2Tree(width, height, len(periods) * n, slots,
                  ints(x for x, _ in cells), ints(y for _, y in cells),
                  np.zeros(len(cells))), n


def table(extent, *periods, entrants=()):
    """The Snapshot of each period's (object id, x, y) rows, listing every
    id the periods hold; entrants: the (period, id) pairs of entrants."""
    rows = [(p, oid, x, y) for p, period in enumerate(periods)
            for oid, x, y in period]
    ids = np.unique(ints(r[1] for r in rows))
    return Snapshot(extent, ids, len(periods),
                    ints(p * len(ids) + np.searchsorted(ids, oid)
                         for p, oid, _, _ in rows),
                    ints(r[2] for r in rows), ints(r[3] for r in rows),
                    [(p, oid) in entrants for p, oid, _, _ in rows])


def written(snaps) -> Writer:
    w = Writer()
    snaps.write(w)
    return w


def read_back(blob, extent, object_ids, periods=1):
    """The table that blob holds, read back; every byte must be read."""
    r = Reader(bytes(blob))
    back = Snapshot.read(r, extent, np.asarray(object_ids), periods)
    r.end()
    return back


def section(extent, ids, *periods) -> Writer:
    """The file's section for each period's {id: (x, y, entrant)} rows,
    as the reference encoder writes it."""
    w = Writer()
    write_snapshots(w, extent, ids, periods)
    return w


class TestK2Tree:
    def test_hand_checked_grid(self):
        # (1, 2) holds two rows.  The period follows one of a single row,
        # so its slots are 4..7, counted from 4, and slots 1..3 hold no row
        t, n = columns(4, 4, [(2, 2)], [(3, 3), (1, 2), (0, 0), (1, 2)])
        assert n == 4 and len(t.xs) == 8
        assert t.report_cells(Region(0, 3, 0, 3), 4, 8) == \
            [(3, 3, 0), (1, 2, 1), (0, 0, 2), (1, 2, 3)]
        assert t.report_cells(Region(1, 2, 1, 2), 4, 8) == [(1, 2, 1), (1, 2, 3)]
        assert t.report_cells(Region(2, 3, 0, 1), 4, 8) == []
        assert t.report_cells(Region(0, 0, 0, 3), 4, 8) == [(0, 0, 2)]
        # the empty slots sit at (0, 0) but hold no row
        assert t.report_cells(Region(0, 3, 0, 3), 0, 4) == [(2, 2, 0)]
        assert t.report_cells(Region(0, 0, 0, 0), 0, 4) == []

    def test_empty_grid(self):
        t, n = columns(16, 16, [], [])
        assert n == 0 and len(t.xs) == 0
        assert t.report_cells(Region(0, 15, 0, 15), 0, 0) == []

    def test_single_cell_grid(self):
        t, _ = columns(1, 1, [(0, 0), (0, 0)])
        assert t.report_cells(Region(0, 0, 0, 0), 0, 2) == [(0, 0, 0), (0, 0, 1)]
        assert t.report_cells(Region(1, 4, 0, 0), 0, 2) == []

    def test_states(self):
        t = K2Tree(4, 4, 4, ints([3, 0]), ints([1, 2]), ints([3, 0]), [1, 0])
        assert list(t.state) == [FIX, NO_ROW, NO_ROW, ENTRANT]
        # a probe reports an entrant's cell too
        assert t.report_cells(Region(0, 3, 0, 3), 0, 4) == [(2, 0, 0),
                                                            (1, 3, 3)]

    @pytest.mark.parametrize("extent, dtype", [
        ((1, 1), np.uint16), ((1 << 16, 3), np.uint16),
        ((3, 1 << 16), np.uint16), ((1 << 16, 1 << 16), np.uint16),
        ((1 << 16 | 1, 3), np.uint32), ((3, 1 << 16 | 1), np.uint32),
        (((1 << 32) - 1, (1 << 32) - 1), np.uint32)])
    def test_coordinates_take_the_narrowest_width_the_grid_allows(
            self, extent, dtype):
        w, h = extent
        t, _ = columns(w, h, [(w - 1, h - 1), (0, 0)])
        assert t.xs.dtype == t.ys.dtype == dtype
        assert t.report_cells(Region(0, w - 1, 0, h - 1), 0, 2) == \
            [(w - 1, h - 1, 0), (0, 0, 1)]

    def test_rejects_cells_off_the_grid_or_a_slot_twice(self):
        with pytest.raises(ValueError, match="off the 4x4 grid"):
            columns(4, 4, [(4, 0)])
        with pytest.raises(ValueError, match="off the 4x4 grid"):
            columns(4, 4, [], [(0, 4)])
        with pytest.raises(ValueError, match="twice"):
            K2Tree(4, 4, 2, ints([1, 1]), ints([0, 1]), ints([0, 1]), [0, 0])
        with pytest.raises(ValueError):
            columns(0, 4, [])
        with pytest.raises(ValueError, match="past 1..4294967295"):
            columns(1 << 32, 4, [])

    def test_report_matches_linear_filter(self):
        rng = np.random.default_rng(4)
        for trial in range(40):
            w = int(rng.integers(1, 80)); h = int(rng.integers(1, 80))
            periods = [[(int(x), int(y)) for x, y in
                        zip(rng.integers(0, w, k), rng.integers(0, h, k))]
                       for k in rng.integers(0, 121, 3)]
            tree, n = columns(w, h, *periods)
            for q in range(6):
                x1 = int(rng.integers(0, w)); x2 = int(rng.integers(x1, w))
                y1 = int(rng.integers(0, h)); y2 = int(rng.integers(y1, h))
                for p, cells in enumerate(periods):
                    want = [(x, y, slot) for slot, (x, y) in enumerate(cells)
                            if x1 <= x <= x2 and y1 <= y <= y2]
                    got = tree.report_cells(Region(x1, x2, y1, y2),
                                            p * n, (p + 1) * n)
                    # by slot, each at most once
                    assert got == want

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_report_matches_linear_filter_anywhere(self, data):
        # odd and lopsided grids, empty ones, cells holding several rows,
        # empty slots, and regions that stick out of the grid or miss it
        # altogether; the period probed follows another
        w, h = data.draw(st.sampled_from([(1, 1), (3, 700), (1000, 5)])
                         | st.tuples(st.integers(1, 70), st.integers(1, 70)))
        cell = st.tuples(st.integers(0, w - 1), st.integers(0, h - 1))
        lead = data.draw(st.lists(cell, max_size=10))
        cells = data.draw(st.lists(cell, max_size=60))
        cells += cells[:data.draw(st.integers(0, len(cells)))]
        tree, n = columns(w, h, lead, cells)
        x1 = data.draw(st.integers(-40, w + 40))
        x2 = data.draw(st.integers(x1, w + 80))
        y1 = data.draw(st.integers(-40, h + 40))
        y2 = data.draw(st.integers(y1, h + 80))
        want = [(x, y, slot) for slot, (x, y) in enumerate(cells)
                if x1 <= x <= x2 and y1 <= y <= y2]
        got = tree.report_cells(Region(x1, x2, y1, y2), n, 2 * n)
        assert got == want
        assert all(type(v) is int for c in got for v in c)


class TestSnapshot:
    def test_lookup_and_range(self):
        # period 1 is empty; period 2 holds object 5 again, elsewhere
        snaps = table((8, 8), [(5, 2, 2), (9, 2, 2), (3, 0, 7), (12, 7, 0)],
                      [], [(5, 6, 6)], entrants={(0, 9), (0, 12)})
        assert len(snaps) == 3 and snaps.fix_count == 3
        # object indexes: 3 -> 0, 5 -> 1, 9 -> 2, 12 -> 3
        assert snaps.fix(0, 1) == (2, 2)
        assert snaps.fix(0, 0) == (0, 7)
        assert snaps.fix(0, 2) is None   # an entrant
        assert snaps.fix(1, 1) is None   # no row
        assert snaps.fix(2, 1) == (6, 6)
        assert snaps.fix(2, 0) is None
        full = Region(0, 7, 0, 7)
        # a probe reports no entrant, and its answers come by id; the
        # table keeps an entrant's cell
        assert snaps.range_report(full, 0) == [(3, 0, 7), (5, 2, 2)]
        assert snaps.range_report(Region(1, 3, 1, 3), 0) == [(5, 2, 2)]
        assert snaps.range_report(Region(6, 7, 0, 1), 0) == []
        assert snaps.range_report(full, 1) == []
        assert snaps.range_report(full, 2) == [(5, 6, 6)]
        x, y, entrant = snaps.cells(np.array([0, 0, 0, 0, 2]),
                                    np.array([0, 1, 2, 3, 1]))
        assert (x.tolist(), y.tolist(), entrant.tolist()) == \
            ([0, 2, 2, 7, 6], [7, 2, 2, 0, 6], [0, 0, 1, 1, 0])
        with pytest.raises(ValueError, match="no row in its period"):
            snaps.cells(np.array([0, 1]), np.array([0, 1]))

    def test_empty_snapshot(self):
        snaps = table((16, 16), [])
        assert len(snaps) == 1 and snaps.fix_count == 0
        assert snaps.range_report(Region(0, 15, 0, 15), 0) == []
        assert written(read_back(written(snaps), (16, 16), [])) == written(snaps)

    def test_rejects_duplicate_ids_and_stray_positions(self):
        with pytest.raises(ValueError, match="twice"):
            table((8, 8), [(1, 0, 0), (1, 3, 3)])
        with pytest.raises(ValueError, match="twice"):
            table((8, 8), [(1, 2, 2), (1, 2, 2)])
        table((8, 8), [(1, 0, 0)], [(1, 3, 3)])  # once in each period
        with pytest.raises(ValueError, match="grid"):
            table((8, 8), [(1, 8, 0)])

    def test_matches_linear_filter(self):
        rng = np.random.default_rng(6)
        for trial in range(30):
            w = int(rng.integers(4, 60)); h = int(rng.integers(4, 60))
            periods = [[(oid, int(rng.integers(0, w)), int(rng.integers(0, h)))
                        for oid in range(1, count + 1) if rng.random() < 0.8]
                       for count in rng.integers(0, 80, 3)]
            entrants = {(p, oid) for p, rows in enumerate(periods)
                        for oid, _, _ in rows if rng.random() < 0.2}
            if not any(periods):
                continue
            snaps = table((w, h), *periods, entrants=entrants)
            listed = sorted({oid for rows in periods for oid, _, _ in rows})
            for p, rows in enumerate(periods):
                at = {oid: (x, y) for oid, x, y in rows
                      if (p, oid) not in entrants}
                assert [snaps.fix(p, i) for i in range(len(listed))] == \
                    [at.get(oid) for oid in listed]
                for q in range(8):
                    x1 = int(rng.integers(0, w)); x2 = int(rng.integers(x1, w))
                    y1 = int(rng.integers(0, h)); y2 = int(rng.integers(y1, h))
                    want = sorted((oid, x, y) for oid, x, y in rows
                                  if x1 <= x <= x2 and y1 <= y <= y2
                                  and (p, oid) not in entrants)
                    assert snaps.range_report(Region(x1, x2, y1, y2), p) == want
                # every row's cell and entrant flag, entrants' included
                i = np.searchsorted(listed, [oid for oid, _, _ in rows])
                x, y, entrant = snaps.cells(np.full(len(rows), p), i)
                assert list(zip(x.tolist(), y.tolist(), entrant.tolist())) \
                    == [(x, y, (p, oid) in entrants) for oid, x, y in rows]
            assert written(snaps) == section(
                (w, h), listed, *({oid: (x, y, (p, oid) in entrants)
                                   for oid, x, y in rows}
                                  for p, rows in enumerate(periods)))
            back = read_back(written(snaps), (w, h), listed, len(periods))
            assert back.tree.state == snaps.tree.state
            assert (back.tree.xs == snaps.tree.xs).all()
            assert (back.tree.ys == snaps.tree.ys).all()

    def test_round_trip(self):
        rows = [(oid, oid % 11, oid % 7) for oid in range(1, 40)]
        snaps = table((11, 7), rows[:5], [], rows,
                      entrants={(2, 3), (2, 14), (0, 2)})
        back = read_back(written(snaps), (11, 7), range(1, 40), 3)
        assert back.fix(2, 13) is None and back.fix(2, 14) == (15 % 11, 15 % 7)
        assert back.fix(0, 1) is None and back.fix(0, 0) == (1, 1)
        full = Region(0, 10, 0, 6)
        for p in range(3):
            assert back.range_report(full, p) == snaps.range_report(full, p)
        assert written(back) == written(snaps)

    def test_hand_checked_bytes(self):
        # objects 5, 6 and 7 over two periods, slots 0..5: 6 is an entrant
        # in period 0, and period 1 holds only 6, at (2, 1).  Slot bits 0,
        # 1, 2 and 4; entrant bit 1 of four rows; the xs then the ys as
        # u16s, on a 4x4 grid
        snaps = table((4, 4), [(5, 0, 0), (6, 1, 2), (7, 3, 3)], [(6, 2, 1)],
                      entrants={(0, 6)})
        blob = bytes(written(snaps))
        assert blob == ((0b10111).to_bytes(8, "little")
                        + (0b0010).to_bytes(8, "little")
                        + np.array([0, 1, 3, 2], "<u2").tobytes()
                        + np.array([0, 2, 3, 1], "<u2").tobytes())
        assert blob == section((4, 4), [5, 6, 7],
                               {5: (0, 0, 0), 6: (1, 2, 1), 7: (3, 3, 0)},
                               {6: (2, 1, 0)})
        back = read_back(blob, (4, 4), [5, 6, 7], 2)
        assert back.tree.state == snaps.tree.state
        assert back.fix(1, 1) == (2, 1) and back.fix(0, 1) is None

    @pytest.mark.parametrize("at, bit, message", [
        (0, 6, "past its end"),    # slot 6: a bit past the slot bitmap
        (7, 7, "past its end"),
        (8, 4, "past its end"),    # row 4 of four: past the entrant bitmap
        (15, 7, "past its end"),
        (0, 5, "truncated"),       # a fifth row, whose cells the file lacks
        (16, 2, "off the 4x4 grid"),   # the first row's x, 0 -> 4
        (30, 3, "off the 4x4 grid"),   # the last row's y, 1 -> 9
    ], ids=["slot-bit", "slot-word-end", "entrant-bit", "entrant-word-end",
            "slot-without-cells", "x-off-grid", "y-off-grid"])
    def test_read_rejects_a_corrupt_section(self, at, bit, message):
        snaps = table((4, 4), [(5, 0, 0), (6, 1, 2), (7, 3, 3)], [(6, 2, 1)],
                      entrants={(0, 6)})
        bad = bytearray(written(snaps))
        bad[at] ^= 1 << bit
        with pytest.raises(ValueError, match=message):
            read_back(bad, (4, 4), [5, 6, 7], 2)

    def test_read_rejects_an_object_with_no_row(self):
        # object 3 is listed, but no period holds a row for it
        snaps = Snapshot((8, 8), ints([1, 2, 3]), 2, ints([0, 1, 3]),
                         ints([1, 2, 3]), ints([1, 2, 3]), [0, 0, 0])
        w = written(snaps)
        with pytest.raises(ValueError, match="every listed object"):
            read_back(w, (8, 8), [1, 2, 3], 2)
        # once in either period is enough
        for slot in (2, 5):
            read_back(written(Snapshot(
                (8, 8), ints([1, 2, 3]), 2, ints([0, 1, slot]),
                ints([1, 2, 3]), ints([1, 2, 3]), [0, 0, 0])), (8, 8),
                [1, 2, 3], 2)

    @pytest.mark.parametrize("extent", [(1 << 16, 1 << 24), (8, (1 << 32) - 1),
                                        ((1 << 32) - 1, (1 << 32) - 1)],
                             ids=["24-bit-y", "tall", "widest"])
    def test_wide_grid_round_trip(self, extent):
        # u32 cells, up to the grid's far corner: one period of one row,
        # one of two
        w, h = extent
        far = (1, w - 1, h - 1)
        snaps = table(extent, [far], [(1, 1, 2), (2, 3, 5)])
        assert snaps.tree.xs.dtype == np.uint32
        back = read_back(written(snaps), extent, [1, 2], 2)
        full = Region(0, w - 1, 0, h - 1)
        assert back.range_report(full, 0) == [far]
        assert back.range_report(full, 1) == [(1, 1, 2), (2, 3, 5)]
        assert written(back) == written(snaps) == section(
            extent, [1, 2], {1: (w - 1, h - 1, 0)},
            {1: (1, 2, 0), 2: (3, 5, 0)})
