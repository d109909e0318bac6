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
    morton_codes,
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


class TestMorton:
    def test_known_codes(self):
        assert list(morton_codes([0, 3, 1], [0, 3, 2])) == [0, 15, 9]

    @given(st.integers(0, 2**20 - 1), st.integers(0, 2**20 - 1))
    @settings(max_examples=50, deadline=None)
    def test_interleave_is_injective(self, x, y):
        code = int(morton_codes([x], [y])[0])
        # un-interleave by picking alternate bits
        gx = sum(((code >> (2 * b)) & 1) << b for b in range(32))
        gy = sum(((code >> (2 * b + 1)) & 1) << b for b in range(32))
        assert (gx, gy) == (x, y)


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


def section(extent, *periods) -> Writer:
    """The file's section for each period's (code, id, entrant) rows in
    the order given, as the reference encoder writes it."""
    w = Writer()
    write_snapshots(w, extent, periods)
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

    def test_rejects_a_code_write_cannot_store(self):
        # a period's row j (from 1), in Morton order, is stored as its code
        # plus j, an int64: (2**32 - 2, 2**31 - 1) has code 2**63 - 2
        side = (1 << 32) - 1
        rows = [(1, 0, 0), (2, side - 1, (1 << 31) - 1)]
        assert morton_codes([side - 1], [(1 << 31) - 1])[0] == (1 << 63) - 2
        table((side, side), rows[:1], rows[1:])
        with pytest.raises(ValueError, match="Morton code"):
            table((side, side), rows)
        # a row at y >= 2**31 has a code past 2**63
        table((8, side), [(1, 0, (1 << 31) - 1)])
        with pytest.raises(ValueError, match="Morton code"):
            table((8, side), [(1, 0, 1 << 31)])

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

    def test_writes_rows_by_code_and_then_id(self):
        # ids 5..8 sit at codes 15, 0, 9 and 9: the file holds them as
        # 6, 7, 8, 5, whatever their slots' order
        snaps = table((4, 4), [(5, 3, 3), (6, 0, 0), (7, 1, 2), (8, 1, 2)],
                      entrants={(0, 7)})
        assert written(snaps) == section(
            (4, 4), [(0, 6, 0), (9, 7, 1), (9, 8, 0), (15, 5, 0)])

    def test_hand_checked_bytes(self):
        # one period on a 4x4 grid (top code 15) with codes 0, 9 and 15:
        # members 1, 11 and 18 over [1, 18], a low width of floor(log2(18
        # / 3)) = 2, so (member - 1) & 3 = 0, 2, 1 and high bits at
        # ((member - 1) >> 2) + j = 0, 3 and 6 of 3 + (17 >> 2) + 1 = 8
        snaps = table((4, 4), [(5, 0, 0), (6, 1, 2), (7, 3, 3)],
                      entrants={(0, 6)})
        blob = bytes(written(snaps))
        assert blob == (b"\x03\0\0\0" + (0b011000).to_bytes(8, "little")
                        + (0b1001001).to_bytes(8, "little")
                        + np.array([5, 6, 7], "<u4").tobytes()
                        + (0b010).to_bytes(8, "little"))
        read_back(blob, (4, 4), [5, 6, 7])
        for at, bit, part in ((4, 6, "lows"), (11, 7, "lows"),
                              (12, 0, "high bits"), (12, 3, "high bits"),
                              (13, 0, "high bits"), (19, 7, "high bits")):
            # a bit set past the lows, a member's high bit cleared, or a
            # bit set past the high bits
            bad = bytearray(blob)
            bad[at] ^= 1 << bit
            with pytest.raises(ValueError, match=part):
                read_back(bad, (4, 4), [5, 6, 7])

    def test_read_rejects_a_code_off_the_grid_or_too_many_rows(self):
        w = written(table((5, 8), [(1, 4, 0)]))
        with pytest.raises(ValueError, match="off the 4x8 grid"):
            read_back(w, (4, 8), [1])  # under the top code
        w[:4] = (2).to_bytes(4, "little")  # the row count
        with pytest.raises(ValueError, match="more rows"):
            read_back(w, (5, 8), [1])

    def test_read_rejects_rows_out_of_order(self):
        # codes 3 and 5 share their high part, so either order decodes;
        # rows of one code go by id, and a new period may start lower
        read_back(section((4, 4), [(3, 2, 0), (5, 1, 0)]), (4, 4), [1, 2])
        read_back(section((4, 4), [(3, 1, 0), (3, 2, 0)]), (4, 4), [1, 2])
        read_back(section((4, 4), [(5, 1, 0)], [(3, 1, 0)]), (4, 4), [1], 2)
        for rows in ([(5, 1, 0), (3, 2, 0)], [(3, 2, 0), (3, 1, 0)]):
            with pytest.raises(ValueError, match="out of order"):
                read_back(section((4, 4), rows), (4, 4), [1, 2])

    def test_read_rejects_a_code_write_cannot_store(self):
        # one row on a tall grid: a low width of 63, so the high bits
        # hold bit 63 of the code, at bit 0 or 1 of three; moving it up
        # puts the row at y = 2**31 + 5, on the grid but past what write
        # stores
        extent = (8, (1 << 32) - 1)
        blob = written(table(extent, [(1, 0, 5)]))
        assert blob[12] == 0b001
        blob[12] = 0b010
        with pytest.raises(ValueError, match="Morton code"):
            read_back(blob, extent, [1])

    def test_read_rejects_ids_other_than_the_listed_ones(self):
        w = written(table((8, 8), [(1, 1, 1), (2, 2, 2)]))
        read_back(w, (8, 8), [1, 2])
        for listed in ([1, 3], [1, 2, 3], [0, 2]):  # stray, missing, both
            with pytest.raises(ValueError, match="listed objects"):
                read_back(w, (8, 8), listed)

    @pytest.mark.parametrize("extent", [(1 << 16, 1 << 24), (8, (1 << 32) - 1),
                                        ((1 << 32) - 1, (1 << 32) - 1)],
                             ids=["24-bit-y", "tall", "widest"])
    def test_wide_grid_round_trip(self, extent):
        # codes past 2**32, and on the tall grids top codes past 2**63,
        # which set the low widths: one period of one row, one of two
        w, h = extent
        far = (1, w - 1, min(h - 1, 2**31 - 1))
        snaps = table(extent, [far], [(1, 1, 2), (2, 3, 5)])
        back = read_back(written(snaps), extent, [1, 2], 2)
        full = Region(0, w - 1, 0, h - 1)
        assert back.range_report(full, 0) == [far]
        assert back.range_report(full, 1) == [(1, 1, 2), (2, 3, 5)]
        assert written(back) == written(snaps)

    def test_read_rejects_an_id_repeated(self):
        snaps = table((8, 8), [(4, 1, 1), (8, 2, 2)], [(8, 1, 1), (9, 2, 2)])
        w = written(snaps)
        at = len(w) - 8 - 16  # four u32 ids, then one word of entrant bits
        assert np.frombuffer(w, "<u4", 4, at).tolist() == [4, 8, 8, 9]
        w[at + 4:at + 8] = w[at:at + 4]
        with pytest.raises(ValueError, match="twice"):
            read_back(w, (8, 8), [4, 8, 9], 2)
