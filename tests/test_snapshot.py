import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import round_trip
from trajindex.snapshot import (
    K2Tree,
    Region,
    Snapshot,
    expanded_region,
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


class TestExpandedRegion:
    def test_zero_elapsed_is_identity(self):
        r = Region(10, 20, 30, 40)
        assert expanded_region(r, 60, 60, 55, (100, 100)) == r

    def test_grows_by_speed_times_elapsed(self):
        got = expanded_region(Region(100, 200, 100, 200), 62, 60, 55,
                              (3000, 3000))
        assert got == Region(0, 310, 0, 310)

    def test_clamps_to_grid(self):
        got = expanded_region(Region(5, 6, 5, 6), 9, 0, 2, (20, 10))
        assert got == Region(0, 19, 0, 9)

    def test_rejects_backwards_time(self):
        with pytest.raises(ValueError):
            expanded_region(Region(0, 1, 0, 1), 3, 5, 1, (10, 10))

    def test_every_reachable_point_is_covered(self):
        # any walk at per-axis speed <= s that ends inside the region must
        # have started inside the expansion
        rng = np.random.default_rng(13)
        extent = (200, 200)
        for trial in range(200):
            s = int(rng.integers(0, 5))
            k = int(rng.integers(0, 50))
            q = k + int(rng.integers(0, 40))
            x1 = int(rng.integers(0, 190)); y1 = int(rng.integers(0, 190))
            r = Region(x1, x1 + 9, y1, y1 + 9)
            wide = expanded_region(r, q, k, s, extent)
            x = int(rng.integers(r.x1, r.x2 + 1))
            y = int(rng.integers(r.y1, r.y2 + 1))
            for t in range(q - k):
                x = min(extent[0] - 1, max(0, x + int(rng.integers(-s, s + 1))))
                y = min(extent[1] - 1, max(0, y + int(rng.integers(-s, s + 1))))
            assert wide.contains(x, y)


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


class TestK2Tree:
    def test_hand_checked_grid(self):
        # codes: (0, 0) -> 0, (1, 2) -> 9, (3, 3) -> 15; (1, 2) holds two rows
        t = K2Tree.build(4, 4, [(3, 3), (1, 2), (0, 0), (1, 2)])
        assert len(t) == 4
        assert t.report_cells(Region(0, 3, 0, 3)) == \
            [(0, 0, 0), (1, 2, 1), (1, 2, 2), (3, 3, 3)]
        assert t.report_cells(Region(1, 2, 1, 2)) == [(1, 2, 1), (1, 2, 2)]
        assert t.report_cells(Region(2, 3, 0, 1)) == []
        # codes 0..10 span rows 0-2; the filter drops (1, 2)
        assert t.report_cells(Region(0, 0, 0, 3)) == [(0, 0, 0)]

    def test_empty_grid(self):
        t = K2Tree.build(16, 16, [])
        assert len(t) == 0
        assert t.report_cells(Region(0, 15, 0, 15)) == []

    def test_single_cell_grid(self):
        t = K2Tree.build(1, 1, [(0, 0), (0, 0)])
        assert t.report_cells(Region(0, 0, 0, 0)) == [(0, 0, 0), (0, 0, 1)]
        assert t.report_cells(Region(1, 4, 0, 0)) == []

    def test_rejects_cells_off_the_grid_or_out_of_order(self):
        for cell in ((4, 0), (0, 4), (-1, 0)):
            with pytest.raises(ValueError):
                K2Tree.build(4, 4, [cell])
        with pytest.raises(ValueError):
            K2Tree(4, 4, morton_codes([4], [0]))
        with pytest.raises(ValueError):
            K2Tree(4, 4, morton_codes([3, 1], [3, 1]))
        with pytest.raises(ValueError):
            K2Tree(0, 4, morton_codes([], []))

    def test_report_matches_linear_filter(self):
        rng = np.random.default_rng(4)
        for trial in range(40):
            w = int(rng.integers(1, 80)); h = int(rng.integers(1, 80))
            k = int(rng.integers(0, 121))
            cells = [(int(x), int(y)) for x, y in
                     zip(rng.integers(0, w, k), rng.integers(0, h, k))]
            tree = K2Tree.build(w, h, cells)
            for q in range(6):
                x1 = int(rng.integers(0, w)); x2 = int(rng.integers(x1, w))
                y1 = int(rng.integers(0, h)); y2 = int(rng.integers(y1, h))
                want = sorted(c for c in cells
                              if x1 <= c[0] <= x2 and y1 <= c[1] <= y2)
                got = tree.report_cells(Region(x1, x2, y1, y2))
                assert sorted((x, y) for x, y, _ in got) == want
                # rows come in order, each at most once
                rows = [r for _, _, r in got]
                assert rows == sorted(set(rows))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_report_matches_linear_filter_anywhere(self, data):
        # odd and lopsided grids, empty ones, cells holding several rows,
        # and regions that stick out of the grid or miss it altogether
        w, h = data.draw(st.sampled_from([(1, 1), (3, 700), (1000, 5)])
                         | st.tuples(st.integers(1, 70), st.integers(1, 70)))
        cells = data.draw(st.lists(
            st.tuples(st.integers(0, w - 1), st.integers(0, h - 1)),
            max_size=60))
        cells += cells[:data.draw(st.integers(0, len(cells)))]
        tree = K2Tree.build(w, h, cells)
        codes = morton_codes([x for x, _ in cells], [y for _, y in cells])
        by_row = [cell for _, cell in sorted(zip(codes.tolist(), cells))]
        x1 = data.draw(st.integers(-40, w + 40))
        x2 = data.draw(st.integers(x1, w + 80))
        y1 = data.draw(st.integers(-40, h + 40))
        y2 = data.draw(st.integers(y1, h + 80))
        want = [(x, y, row) for row, (x, y) in enumerate(by_row)
                if x1 <= x <= x2 and y1 <= y <= y2]
        got = tree.report_cells(Region(x1, x2, y1, y2))
        assert got == want
        assert all(type(v) is int for c in got for v in c)

    def test_round_trip(self):
        cells = [(0, 0), (39, 19), (17, 3), (17, 3)]
        tree = K2Tree.build(40, 20, cells)
        back = round_trip(tree, 40, 20)
        assert back.report_cells(Region(0, 39, 0, 19)) == \
            tree.report_cells(Region(0, 39, 0, 19))

    def test_read_rejects_a_code_off_the_grid_or_too_many_rows(self):
        w = Writer()
        K2Tree.build(5, 8, [(4, 0)]).write(w)
        with pytest.raises(ValueError, match="off the"):
            K2Tree.read(Reader(bytes(w)), 4, 8)
        w[:4] = (0xFFFFFFFF).to_bytes(4, "little")  # the row count
        with pytest.raises(ValueError, match="truncated"):
            K2Tree.read(Reader(bytes(w)), 5, 8)

    def test_wide_grid_round_trip(self):
        # codes past 2**32: a 24-bit y axis, as binary input allows
        tree = K2Tree.build(1 << 16, 1 << 24, [(65535, 16777215), (1, 2)])
        back = round_trip(tree, 1 << 16, 1 << 24)
        assert back.report_cells(Region(0, 65535, 1, 16777215)) == \
            [(1, 2, 0), (65535, 16777215, 1)]


class TestSnapshot:
    def test_lookup_and_range(self):
        snap = Snapshot.build(
            [(5, 2, 2), (9, 2, 2), (3, 0, 7), (12, 7, 0)], 60, (8, 8),
            entrant_ids={9, 12})
        assert list(snap.ids) == [3, 5, 9, 12]
        assert snap.position_of(5) == (2, 2)
        assert snap.position_of(9) == (2, 2)
        assert snap.position_of(99) is None
        assert snap.is_entrant(9) and not snap.is_entrant(5)
        assert sorted(snap.range_report(Region(0, 7, 0, 7))) == \
            [(3, 0, 7), (5, 2, 2), (9, 2, 2), (12, 7, 0)]
        assert sorted(snap.range_report(Region(0, 7, 0, 7),
                                        include_entrants=False)) == \
            [(3, 0, 7), (5, 2, 2)]
        assert sorted(snap.range_report(Region(1, 3, 1, 3))) == \
            [(5, 2, 2), (9, 2, 2)]

    def test_empty_snapshot(self):
        snap = Snapshot.build([], 0, (16, 16))
        assert list(snap.ids) == []
        assert snap.range_report(Region(0, 15, 0, 15)) == []

    def test_rejects_duplicate_ids_and_stray_positions(self):
        with pytest.raises(ValueError):
            Snapshot.build([(1, 0, 0), (1, 3, 3)], 0, (8, 8))
        with pytest.raises(ValueError):
            Snapshot.build([(1, 8, 0)], 0, (8, 8))

    def test_matches_linear_filter(self):
        rng = np.random.default_rng(6)
        for trial in range(30):
            w = int(rng.integers(4, 60)); h = int(rng.integers(4, 60))
            count = int(rng.integers(0, 80))
            rows = [(oid, int(rng.integers(0, w)), int(rng.integers(0, h)))
                    for oid in range(1, count + 1)]
            entrants = {oid for oid, _, _ in rows if rng.random() < 0.2}
            snap = Snapshot.build(rows, 0, (w, h), entrants)
            for q in range(8):
                x1 = int(rng.integers(0, w)); x2 = int(rng.integers(x1, w))
                y1 = int(rng.integers(0, h)); y2 = int(rng.integers(y1, h))
                want = sorted((oid, x, y) for oid, x, y in rows
                              if x1 <= x <= x2 and y1 <= y <= y2)
                got = sorted(snap.range_report(Region(x1, x2, y1, y2)))
                assert got == want
                bare = sorted(snap.range_report(Region(x1, x2, y1, y2),
                                                include_entrants=False))
                assert bare == [r for r in want if r[0] not in entrants]

    def test_round_trip(self):
        rows = [(oid, oid % 11, oid % 7) for oid in range(1, 40)]
        snap = Snapshot.build(rows, 120, (11, 7), entrant_ids={3, 14})
        back = round_trip(snap, 120, (11, 7))
        assert back.instant == 120
        assert back.position_of(14) == snap.position_of(14)
        assert back.is_entrant(14) and not back.is_entrant(15)
        full = Region(0, 10, 0, 6)
        assert sorted(back.range_report(full)) == sorted(snap.range_report(full))

    def test_read_rejects_an_id_repeated(self):
        snap = Snapshot.build([(4, 1, 1), (8, 2, 2)], 0, (8, 8))
        w = Writer()
        snap.write(w)
        at = len(w) - 8 - 8  # two u32 ids, then one word of entrant bits
        assert np.frombuffer(w, "<u4", 2, at).tolist() == [4, 8]
        w[at + 4:at + 8] = w[at:at + 4]
        with pytest.raises(ValueError, match="twice"):
            Snapshot.read(Reader(bytes(w)), 0, (8, 8))
