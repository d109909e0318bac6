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
        t = K2Tree.build(4, 4, [(0, 0), (3, 3), (1, 2)])
        assert t.side == 4 and len(t.levels) == 2
        assert t.cell_count == 3
        assert t.report_cells(Region(0, 3, 0, 3)) == \
            [(0, 0, 1), (1, 2, 2), (3, 3, 3)]
        assert t.report_cells(Region(1, 2, 1, 2)) == [(1, 2, 2)]
        assert t.report_cells(Region(2, 3, 0, 1)) == []

    def test_empty_grid(self):
        t = K2Tree.build(16, 16, [])
        assert t.cell_count == 0
        assert t.report_cells(Region(0, 15, 0, 15)) == []

    def test_single_cell_grid(self):
        t = K2Tree.build(1, 1, [(0, 0)])
        assert t.report_cells(Region(0, 0, 0, 0)) == [(0, 0, 1)]

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            K2Tree.build(8, 8, [(1, 1), (1, 1)])

    def test_parent_bit_covers_children(self):
        rng = np.random.default_rng(3)
        for trial in range(30):
            w = int(rng.integers(1, 50)); h = int(rng.integers(1, 50))
            k = int(rng.integers(1, w * h + 1))
            flat = rng.choice(w * h, size=k, replace=False)
            tree = K2Tree.build(w, h, np.column_stack([flat % w, flat // w]))
            for lvl in range(1, len(tree.levels)):
                prev, cur = tree.levels[lvl - 1], tree.levels[lvl]
                assert len(cur) == 4 * prev.count_ones
                for j in range(1, prev.count_ones + 1):
                    children = [cur.access(4 * (j - 1) + c) for c in (1, 2, 3, 4)]
                    assert any(children)

    def test_report_matches_linear_filter(self):
        rng = np.random.default_rng(4)
        for trial in range(40):
            w = int(rng.integers(1, 80)); h = int(rng.integers(1, 80))
            k = int(rng.integers(0, min(w * h, 120) + 1))
            flat = rng.choice(w * h, size=k, replace=False)
            cells = {(int(f % w), int(f // w)) for f in flat}
            tree = K2Tree.build(w, h, sorted(cells))
            for q in range(6):
                x1 = int(rng.integers(0, w)); x2 = int(rng.integers(x1, w))
                y1 = int(rng.integers(0, h)); y2 = int(rng.integers(y1, h))
                want = {c for c in cells
                        if x1 <= c[0] <= x2 and y1 <= c[1] <= y2}
                got = tree.report_cells(Region(x1, x2, y1, y2))
                assert {(x, y) for x, y, _ in got} == want
                # ranks are the cells' 1-based leaf-order indexes
                assert [r for _, _, r in got] == sorted(r for _, _, r in got)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_report_matches_linear_filter_anywhere(self, data):
        # odd and lopsided grids, empty ones, and regions that stick out of
        # the grid or miss it altogether
        w, h = data.draw(st.sampled_from([(1, 1), (3, 700), (1000, 5)])
                         | st.tuples(st.integers(1, 70), st.integers(1, 70)))
        cells = sorted(data.draw(st.sets(
            st.tuples(st.integers(0, w - 1), st.integers(0, h - 1)),
            max_size=min(w * h, 60))))
        tree = K2Tree.build(w, h, cells)
        codes = morton_codes([x for x, _ in cells], [y for _, y in cells])
        rank = {c: r for r, (_, c) in
                enumerate(sorted(zip(codes.tolist(), cells)), 1)}
        x1 = data.draw(st.integers(-40, w + 40))
        x2 = data.draw(st.integers(x1, w + 80))
        y1 = data.draw(st.integers(-40, h + 40))
        y2 = data.draw(st.integers(y1, h + 80))
        want = sorted((x, y, rank[(x, y)]) for x, y in cells
                      if x1 <= x <= x2 and y1 <= y <= y2)
        got = tree.report_cells(Region(x1, x2, y1, y2))
        assert got == sorted(want, key=lambda c: c[2])
        assert all(type(v) is int for c in got for v in c)

    def test_round_trip(self):
        tree = K2Tree.build(40, 20, [(0, 0), (39, 19), (17, 3)])
        back = round_trip(tree, 40, 20)
        assert back.report_cells(Region(0, 39, 0, 19)) == \
            tree.report_cells(Region(0, 39, 0, 19))


class TestSnapshot:
    def test_lookup_and_range(self):
        snap = Snapshot.build(
            [(5, 2, 2), (9, 2, 2), (3, 0, 7), (12, 7, 0)], 60, (8, 8),
            entrant_ids={9, 12})
        assert snap.object_count == 4
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
        assert snap.object_count == 0
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
