import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trajindex.mbrtree
from conftest import REF_PERIOD, REF_TRACK, pulled_in, stored_tree
from reference_encoder import Parts, write_tree
from trajindex.engine import build_index
from trajindex.log import build_log, ordinal_range, position_at
from trajindex.mbrtree import (
    MbrTree,
    TraversalStats,
    build_mbr_tree,
    build_mbr_tree_xy,
)
from trajindex.oracle import oracle_mbr
from trajindex.snapshot import Region


@pytest.fixture
def ref_log(ref_track):
    return build_log(ref_track, 0, REF_PERIOD, object_id=7)


@pytest.fixture
def ref_tree(ref_log):
    return build_mbr_tree(ref_log, 2)


def observed_speed(rows):
    worst = 0
    for (t0, x0, y0), (t1, x1, y1) in zip(rows, rows[1:]):
        dt = t1 - t0
        worst = max(worst, -(-abs(x1 - x0) // dt), -(-abs(y1 - y0) // dt))
    return worst


def random_log(rng, period=None, max_step=5):
    period = period or int(rng.integers(4, 60))
    count = int(rng.integers(1, period))
    ts = 1 + np.sort(rng.choice(period - 1, size=count, replace=False))
    xs = 300 + np.cumsum(rng.integers(-max_step, max_step + 1, size=count))
    ys = 300 + np.cumsum(rng.integers(-max_step, max_step + 1, size=count))
    rows = list(zip(ts.tolist(), xs.tolist(), ys.tolist()))
    return build_log(rows, 0, period), rows


# fixes at local instants 1..4 whose box is 0..4 by 0..4, and regions
# that miss it, touch it on an edge or at a corner, or hold it up to an
# edge: (region, how the box lies to it, its first fix in the region)
BOX_FIXES = [(1, 0, 0), (2, 4, 2), (3, 2, 4), (4, 4, 4)]
_MISSES, _MEETS, _WITHIN = "misses", "meets", "within"
BOX_CASES = [
    (Region(5, 9, 2, 3), _MISSES, None),  # beside the edge x = 4
    (Region(5, 9, 5, 9), _MISSES, None),  # past the corner (4, 4)
    (Region(4, 9, 2, 3), _MEETS, 2),  # on the edge x = 4
    (Region(0, 1, 4, 9), _MEETS, None),  # on the edge y = 4, off its fixes
    (Region(4, 9, 4, 9), _MEETS, 4),  # at the corner (4, 4)
    (Region(0, 3, 0, 4), _MEETS, 1),  # a column short of the box
    (Region(0, 4, 0, 4), _WITHIN, 1),  # the box itself
    (Region(0, 4, 0, 9), _WITHIN, 1),  # up to the edges x = 0, 4, y = 0
]


def box_ends(lies, first):
    # the event after the root's visit: a box that meets the region is
    # scanned, to a hit or not
    return {_MISSES: "mbr_reject", _WITHIN: "mbr_contain",
            _MEETS: "leaf_abort" if first is None else "hit"}[lies]


class TestBoxes:
    """Inclusive box tests: a tree's walk, and the engine's test of the
    root box in a record, on each way a box can lie to a region."""

    @pytest.mark.parametrize("region, lies, first", BOX_CASES)
    def test_a_one_leaf_tree(self, region, lies, first):
        log = build_log(BOX_FIXES, 0, 10)
        tree = build_mbr_tree(log, 4)
        assert tree.node_count == 1 and tree.root == Region(0, 4, 0, 4)
        stats = TraversalStats(trace=True)
        assert tree.first_hit(log, region, 1, 4, 4, 1, 4,
                              stats=stats) == first
        assert stats.events == [("visit", 1), (box_ends(lies, first), 1)]
        for speed in (True, False):
            assert tree.first_hit(log, region, 1, 4, 4, 1, 4, mbr_prune=False,
                                  speed_prune=speed) == first

    @pytest.mark.parametrize("region, lies, first", BOX_CASES)
    def test_the_root_box_of_a_record(self, region, lies, first,
                                      monkeypatch):
        # the log's first fix, (0, 0) at instant 1, lies within reach of
        # every region here by instant 4, at its speed bound of 4 cells an
        # instant, so the root box in its record settles it: an interval
        # rejects the log, answers from the record, or walks its tree; a
        # slice reads no position of a log whose box misses the region,
        # nor one out of the first fix's reach
        rows = [(1, 0, 2, 2)] + [(1, *fix) for fix in BOX_FIXES]
        ix = build_index(rows, period=10, leaf_capacity=4, extent=(16, 16))
        stats = TraversalStats(trace=True)
        assert ix.time_interval(region, 1, 4, stats=stats) == (
            [] if first is None else [1])
        assert stats.events == [("visit", 1), (box_ends(lies, first), 1)]
        # with no box test the log's one leaf is scanned, whatever its box
        bare = TraversalStats(trace=True)
        assert ix.time_interval(region, 1, 4, mbr_prune=False,
                                stats=bare) == ([] if first is None else [1])
        assert bare.events == [("visit", 1),
                               ("leaf_abort" if first is None else "hit", 1)]
        decoded = []

        def counted(bits, words, f, i):
            decoded.append(i)
            return position_at(bits, words, f, i)

        monkeypatch.setattr("trajindex.engine.position_at", counted)
        for t, x, y in BOX_FIXES:
            assert ix.time_slice(region, t) == (
                [(1, x, y)] if region.contains(x, y) else [])
        reach = [t for t, _, _ in BOX_FIXES
                 if max(region.x1, region.y1) <= 4 * (t - 1)]
        assert decoded == ([] if lies == _MISSES else reach)


class TestReferenceTree:
    def test_shape(self, ref_tree):
        assert ref_tree.leaf_count == 4
        assert ref_tree.node_count == 7
        assert ref_tree.coverage(1) == (1, 7)
        assert ref_tree.coverage(2) == (1, 4)
        assert ref_tree.coverage(3) == (5, 7)
        assert ref_tree.coverage(7) == (7, 7)

    def test_boxes(self, ref_tree):
        assert ref_tree.root == Region(2, 10, 4, 10)
        assert ref_tree.node_box(2) == Region(2, 5, 4, 7)
        assert ref_tree.node_box(4) == Region(2, 3, 4, 6)
        assert ref_tree.node_box(5) == Region(3, 5, 5, 7)

    def test_stored_x_differences_of_first_child(self, ref_tree):
        # node 2 shrinks the root's x-range [2,10] to [2,5]: stored (0, 5)
        assert (ref_tree._diffs_x[0], ref_tree._diffs_x[1]) == (0, 5)

    def test_worked_traversal(self, ref_log, ref_tree):
        # region [4,5]x[4,10] over local instants 3..5 (ordinals 2..4):
        # skip right subtree by time, reject node 4 by box, hit at instant 4
        region = Region(4, 5, 4, 10)
        stats = TraversalStats(trace=True)
        hit = ref_tree.first_hit(ref_log, region, 2, 4, 3, 3, 5, stats=stats)
        assert hit == 4
        assert [n for k, n in stats.events if k == "visit"] == [1, 2, 4, 5]
        assert ("time_skip", 3) in stats.events
        assert ("mbr_reject", 4) in stats.events
        assert ("hit", 5) in stats.events

    def test_disjoint_region_stops_at_root(self, ref_log, ref_tree):
        stats = TraversalStats()
        out = ref_tree.first_hit(ref_log, Region(50, 60, 50, 60), 1, 7, 3, 2,
                                 10, stats=stats)
        assert out is None and stats.nodes_visited == 1

    def test_unused_node_rejected(self):
        log = build_log([(t, t, t) for t in range(1, 6)], 0, 8)
        tree = build_mbr_tree(log, 2)  # 5 ordinals, 4 leaves, last one empty
        assert tree.coverage(7) is None
        with pytest.raises(ValueError):
            tree.node_box(7)
        with pytest.raises(IndexError):
            tree.coverage(8)

    def test_pieces_match_the_reference(self, ref_tree):
        want = Parts()
        write_tree(want, [x for _, x, _ in REF_TRACK],
                   [y for _, _, y in REF_TRACK], 2)
        assert stored_tree(ref_tree) == (want.fields, bytes(want.words))


class TestAgainstShadowTree:
    def test_every_node_matches_direct_minmax(self):
        rng = np.random.default_rng(41)
        for trial in range(80):
            log, rows = random_log(rng)
            cap = int(rng.integers(1, 9))
            tree = build_mbr_tree(log, cap)
            pts = [(x, y) for _, x, y in rows]
            for p in range(1, tree.node_count + 1):
                cov = tree.coverage(p)
                if cov is None:
                    continue
                want = oracle_mbr(pts, cov[0], cov[1])
                got = tree.node_box(p)
                assert (got.xmin, got.xmax, got.ymin, got.ymax) == want

    def test_diffs_fit_declared_width(self):
        rng = np.random.default_rng(42)
        for trial in range(40):
            log, _ = random_log(rng, max_step=int(rng.integers(1, 40)))
            tree = build_mbr_tree(log, int(rng.integers(1, 6)))
            for v in list(tree._diffs_x) + list(tree._diffs_y):
                assert v >> tree.width == 0


@st.composite
def tracks(draw):
    """(leaf capacity, rows) with one sample, a multiple of the capacity,
    a leaf count just past a power of two, or any count."""
    cap = draw(st.integers(1, 9))
    shape = draw(st.sampled_from(("one", "multiple", "past-power", "any")))
    if shape == "one":
        n = 1
    elif shape == "multiple":
        n = cap * draw(st.integers(1, 12))
    elif shape == "past-power":
        n = cap << draw(st.integers(0, 4))
        n += draw(st.integers(1, cap))
    else:
        n = draw(st.integers(1, 90))
    coord = st.integers(0, (1 << 32) - 1) | st.integers(0, 40)
    xs = draw(st.lists(coord, min_size=n, max_size=n))
    ys = draw(st.lists(coord, min_size=n, max_size=n))
    steps = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    ts = np.cumsum(steps).tolist()
    return cap, list(zip(ts, xs, ys))


class TestColumnBuilder:
    @given(tracks())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_decode_path(self, track):
        cap, rows = track
        log = build_log(rows, 0, rows[-1][0] + 1)
        xs = np.array([r[1] for r in rows], dtype=np.int64)
        ys = np.array([r[2] for r in rows], dtype=np.int64)
        tree = build_mbr_tree_xy(xs, ys, cap)
        pts = [(x, y) for _, x, y in log.scan_positions(1, log.data_count)]
        for p in range(1, tree.node_count + 1):
            cov = tree.coverage(p)
            if cov is not None:
                got = tree.node_box(p)
                assert (got.xmin, got.xmax, got.ymin, got.ymax) == \
                    oracle_mbr(pts, *cov)
            elif p > 1:
                base = 2 * (p - 2)
                for diffs in (tree._diffs_x, tree._diffs_y):
                    assert diffs[base] == diffs[base + 1] == 0
        ref = build_mbr_tree(log, cap)
        assert (tree.width, tree.root) == (ref.width, ref.root)
        assert list(tree._diffs_x) == list(ref._diffs_x)
        assert list(tree._diffs_y) == list(ref._diffs_y)


class TestSearch:
    def test_matches_linear_scan(self):
        rng = np.random.default_rng(43)
        checked = hits = 0
        for trial in range(150):
            log, rows = random_log(rng)
            tree = build_mbr_tree(log, int(rng.integers(1, 9)))
            s = observed_speed(rows)
            n = log.data_count
            for q in range(25):
                cx = int(rng.integers(280, 330))
                cy = int(rng.integers(280, 330))
                region = Region(cx, cx + int(rng.integers(0, 14)),
                                cy, cy + int(rng.integers(0, 14)))
                a = int(rng.integers(1, n + 1))
                b = int(rng.integers(a, n + 1))
                t_window = (log.unmap_ordinal(a), log.unmap_ordinal(b))
                want = next((t for t, x, y in rows[a - 1:b]
                             if region.contains(x, y)), None)
                got = tree.first_hit(log, region, a, b, s, *t_window)
                bare = tree.first_hit(log, region, a, b, s, *t_window,
                                      mbr_prune=False, speed_prune=False)
                assert got == want and bare == want
                checked += 1
                hits += want is not None
        assert checked == 3750 and 0 < hits < checked

    def test_pruning_only_reduces_work(self):
        rng = np.random.default_rng(44)
        for trial in range(60):
            log, rows = random_log(rng, period=50)
            tree = build_mbr_tree(log, 4)
            s = observed_speed(rows)
            n = log.data_count
            region = Region(280, 295, 280, 295)
            on, off = TraversalStats(), TraversalStats()
            tree.first_hit(log, region, 1, n, s, log.unmap_ordinal(1),
                           log.unmap_ordinal(n), stats=on)
            tree.first_hit(log, region, 1, n, s, log.unmap_ordinal(1),
                           log.unmap_ordinal(n), stats=off,
                           mbr_prune=False, speed_prune=False)
            assert on.positions_decoded <= off.positions_decoded
            assert on.nodes_visited <= off.nodes_visited

    def test_window_validation(self, ref_log, ref_tree):
        with pytest.raises(IndexError):
            ref_tree.first_hit(ref_log, Region(0, 1, 0, 1), 0, 3, 3, 1, 5)
        with pytest.raises(IndexError):
            ref_tree.first_hit(ref_log, Region(0, 1, 0, 1), 3, 8, 3, 1, 5)

    @pytest.mark.parametrize("rows", [
        [(1, 3, 4), (2, 0, -1)],
        [(1, -2, 4), (2, 0, 4)],
        [(1, 1 << 32, 4)],
    ])
    def test_coordinates_outside_u32_are_rejected(self, rows):
        # the log holds any integers, but the root box is stored as u32s
        log = build_log(rows, 0, 6)
        assert log.scan_positions(1, log.data_count) == rows
        with pytest.raises(ValueError, match="must lie in 0"):
            build_mbr_tree(log, 2)

    def test_single_leaf_tree(self):
        log = build_log([(1, 5, 5), (3, 8, 9)], 0, 6)
        tree = build_mbr_tree(log, 10)
        assert tree.leaf_count == 1 and tree.node_count == 1
        assert tree.first_hit(log, Region(8, 8, 9, 9), 1, 2, 3, 1, 5) == 3
        assert tree.first_hit(log, Region(0, 1, 0, 1), 1, 2, 3, 1, 5) is None


class TestContainment:
    """A node whose box lies inside the region answers with its first
    ordinal in the window; nothing below it is decoded."""

    GRID = Region(0, 1023, 0, 1023)

    def check(self, tree, log, rows, region, a, b, s):
        want = next((t for t, x, y in rows[a - 1:b]
                     if region.contains(x, y)), None)
        window = (log.unmap_ordinal(a), log.unmap_ordinal(b))
        stats = TraversalStats(trace=True)
        assert tree.first_hit(log, region, a, b, s, *window,
                              stats=stats) == want
        for speed in (True, False):
            assert tree.first_hit(log, region, a, b, s, *window,
                                  mbr_prune=False, speed_prune=speed) == want
        return want, stats

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(45)
        contained = 0
        for trial in range(120):
            log, rows = random_log(rng)
            tree = build_mbr_tree(log, int(rng.integers(1, 6)))
            s = observed_speed(rows)
            n = log.data_count
            leaves = [p for p in range(tree.leaf_count, tree.node_count + 1)
                      if tree.coverage(p) is not None]
            leaf = leaves[int(rng.integers(len(leaves)))]
            regions = [self.GRID, tree.root, tree.node_box(leaf)]
            regions += list(pulled_in(tree.root))
            regions += list(pulled_in(tree.node_box(leaf)))
            windows = [(1, n), tree.coverage(leaf)]
            for _ in range(3):
                a = int(rng.integers(1, n + 1))
                windows.append((a, int(rng.integers(a, n + 1))))
            for region in regions:
                for a, b in windows:
                    _, stats = self.check(tree, log, rows, region, a, b, s)
                    contained += any(k == "mbr_contain" for k, _ in stats.events)
        assert contained > 500

    def test_whole_grid_answers_at_the_root(self):
        rng = np.random.default_rng(46)
        for trial in range(40):
            log, rows = random_log(rng)
            tree = build_mbr_tree(log, 3)
            n = log.data_count
            a = int(rng.integers(1, n + 1))
            want, stats = self.check(tree, log, rows, self.GRID, a, n,
                                     observed_speed(rows))
            assert want == rows[a - 1][0]
            assert stats.events == [("visit", 1), ("mbr_contain", 1)]
            assert stats.positions_decoded == 0

    def test_fires_on_the_equal_box_not_one_cell_short(self):
        rng = np.random.default_rng(47)
        shrunk_cases = 0
        for trial in range(60):
            log, rows = random_log(rng, period=int(rng.integers(20, 60)))
            tree = build_mbr_tree(log, 2)
            s = observed_speed(rows)
            n = log.data_count
            _, stats = self.check(tree, log, rows, tree.root, 1, n, s)
            assert ("mbr_contain", 1) in stats.events
            for region in pulled_in(tree.root):
                _, stats = self.check(tree, log, rows, region, 1, n, s)
                assert ("mbr_contain", 1) not in stats.events
                shrunk_cases += 1
            for p in range(tree.leaf_count, tree.node_count + 1):
                cov = tree.coverage(p)
                if cov is None:
                    continue
                # the window of one leaf: the walk goes down to it alone
                path = {p >> i for i in range(p.bit_length())}
                box = tree.node_box(p)
                _, stats = self.check(tree, log, rows, box, *cov, s)
                assert any(k == "mbr_contain" and q in path
                           for k, q in stats.events)
                for region in pulled_in(box):
                    _, stats = self.check(tree, log, rows, region, *cov, s)
                    assert not any(k == "mbr_contain" for k, _ in stats.events)
        assert shrunk_cases > 100



class TestSpeedJump:
    """With speed pruning a leaf scan decodes the first fix at or after
    an instant and jumps ceil(g/s) instants on from a fix at Chebyshev
    distance g from the region, taking the first fix after a gap."""

    REGION = Region(100, 105, 100, 105)

    def search(self, rows, s, cap=64, t_window=None, **prune):
        log = build_log(rows, 0, rows[-1][0] + 2)
        tree = build_mbr_tree(log, cap)
        t_lo, t_hi = t_window or (1, rows[-1][0] + 1)
        stats = TraversalStats(trace=True)
        a, b = ordinal_range(log._bits, log._f, t_lo, t_hi)
        hit = tree.first_hit(log, self.REGION, a, b, s, t_lo, t_hi,
                             stats=stats, **prune)
        return hit, stats

    def test_closing_at_the_bound_lands_on_the_hit(self):
        # 3 cells an instant from x=40: x reaches 100 at instant 21
        rows = [(t, 40 + 3 * (t - 1), 102) for t in range(1, 30)]
        hit, stats = self.search(rows, 3)
        assert hit == 21 and stats.positions_decoded == 2
        # at twice the object's speed each jump about halves the gap: 60,
        # 30, 15, 6 and 3 make five jumps, a decode each, and the last hits
        hit, stats = self.search(rows, 6)
        assert hit == 21 and stats.positions_decoded == 6
        unpruned, plain = self.search(rows, 6, speed_prune=False)
        assert unpruned == 21 and plain.positions_decoded == 21

    def test_landing_on_a_gap_takes_the_next_fix(self):
        rows = [(t, 40 + 3 * (t - 1), 102) for t in range(1, 30)
                if t != 21]
        hit, stats = self.search(rows, 3)
        assert hit == 22 and stats.positions_decoded == 2
        # a window that starts on a gap starts at the fix after it
        hit, stats = self.search(rows, 3, t_window=(21, 28))
        assert hit == 22 and stats.positions_decoded == 1
        # from instant 3 the jump lands on the gap at 21, with no fix after
        # it in the window: one decode, and the scan ends
        hit, stats = self.search(rows, 3, t_window=(3, 21))
        assert hit is None and stats.positions_decoded == 1
        assert ("leaf_abort", 1) in stats.events

    def test_zero_speed_stops_after_one_decode(self):
        rows = [(t, 50, 50) for t in range(1, 9)]
        for mbr_prune in (True, False):
            hit, stats = self.search(rows, 0, cap=2, mbr_prune=mbr_prune)
            assert hit is None
            assert stats.positions_decoded == (0 if mbr_prune else 1)
        inside = [(t, 101, 101) for t in range(1, 9)]
        hit, stats = self.search(inside, 0, cap=2, mbr_prune=False)
        assert hit == 1 and stats.positions_decoded == 1

    def test_a_jump_carries_across_leaf_ends(self):
        # leaves of two fixes; from x=91 the jump of 9 crosses four leaf
        # ends, and the leaves it passes decode nothing
        rows = [(t, 90 + t, 102) for t in range(1, 13)]
        hit, stats = self.search(rows, 1, cap=2, mbr_prune=False)
        assert hit == 10 and stats.positions_decoded == 2
        assert [n for k, n in stats.events if k == "leaf_abort"] == \
            [8, 9, 10, 11]
        assert ("hit", 12) in stats.events
        # with box pruning the first four leaves' parent is rejected, and
        # the scan of the fifth starts at its own first fix
        hit, stats = self.search(rows, 1, cap=2)
        assert hit == 10 and stats.positions_decoded == 2
        assert not any(k == "leaf_abort" for k, _ in stats.events)

    def test_hand_checked_reference_walk(self, ref_log, ref_tree):
        # region [9,10]x[8,10], window 1..12 (ordinals 1..7), s=3: instant
        # 1 is a gap, so leaf 4 decodes (2,4) at instant 2, 7 cells off,
        # and jumps to 5, past its last instant 3; leaf 5 starts there,
        # decodes (3,5), 6 off, and jumps to 7, past 5; leaf 6 starts at
        # the gap at 7, takes the fix at 8, (10,8), and hits
        region = Region(9, 10, 8, 10)
        stats = TraversalStats(trace=True)
        assert ref_tree.first_hit(ref_log, region, 1, 7, 3, 1, 12,
                                  mbr_prune=False, stats=stats) == 8
        assert stats.positions_decoded == 3
        assert [e for e in stats.events if e[0] != "visit"] == [
            ("leaf_abort", 4), ("leaf_abort", 5), ("hit", 6)]
        plain = TraversalStats()
        assert ref_tree.first_hit(ref_log, region, 1, 7, 3, 1, 12,
                                  mbr_prune=False, speed_prune=False,
                                  stats=plain) == 8
        assert plain.positions_decoded == 5

    def test_random_gappy_logs_match_a_linear_scan(self):
        rng = np.random.default_rng(48)
        checked = hits = 0
        for trial in range(120):
            period = int(rng.integers(4, 80))
            log, rows = random_log(rng, period=period)
            tree = build_mbr_tree(log, int(rng.integers(1, 9)))
            s = observed_speed(rows) + int(rng.integers(0, 3))
            for q in range(12):
                cx = int(rng.integers(280, 330))
                cy = int(rng.integers(280, 330))
                region = Region(cx, cx + int(rng.integers(0, 10)),
                                cy, cy + int(rng.integers(0, 10)))
                t_lo = int(rng.integers(1, period))
                t_hi = int(rng.integers(t_lo, period))
                a, b = ordinal_range(log._bits, log._f, t_lo, t_hi)
                if a > b:
                    continue
                want = next((t for t, x, y in rows
                             if t_lo <= t <= t_hi and region.contains(x, y)),
                            None)
                for mbr_prune, speed_prune in itertools.product((True, False),
                                                                repeat=2):
                    assert tree.first_hit(
                        log, region, a, b, s, t_lo, t_hi, mbr_prune=mbr_prune,
                        speed_prune=speed_prune) == want
                checked += 1
                hits += want is not None
        assert checked > 800 and 0 < hits < checked


class TestBareScan:
    """With no speed pruning a leaf scan decodes the leaf's fixes in the
    window one instant after another, taking the fix after a gap from the
    window bitmap."""

    # leaves of three fixes, gaps between each two leaves and a last leaf
    # of one fix; x grows by one an instant, so each leaf has a box of its
    # own
    INSTANTS = [2, 3, 4, 7, 8, 9, 12, 13, 14, 17, 18, 19, 23]
    ROWS = [(t, 10 + t, 50 + t % 2) for t in INSTANTS]
    # windows from and to gaps at leaf ends, before the first fix and
    # past the last, and from and to fixes
    WINDOWS = [(5, 16), (6, 20), (10, 22), (1, 39), (3, 11), (5, 6),
               (2, 23), (15, 15), (8, 18)]
    REGIONS = [Region(0, 5, 0, 5), Region(23, 23, 50, 51),
               Region(27, 40, 0, 99), Region(12, 14, 50, 50),
               Region(0, 99, 0, 99), Region(19, 30, 51, 51)]

    def test_decodes_the_window_s_fixes_in_the_leaves_it_scans(
            self, monkeypatch):
        log = build_log(self.ROWS, 0, 40)
        tree = build_mbr_tree(log, 3)
        decoded = []
        read = trajindex.mbrtree.position_at

        def spy(bits, words, f, t):
            pos = read(bits, words, f, t)
            if pos is not None:
                decoded.append(t)
            return pos

        monkeypatch.setattr("trajindex.mbrtree.position_at", spy)
        checked = 0
        for t_lo, t_hi in self.WINDOWS:
            a, b = ordinal_range(log._bits, log._f, t_lo, t_hi)
            if a > b:
                continue
            fixes = [t for t in self.INSTANTS if t_lo <= t <= t_hi]
            for region in self.REGIONS:
                want = next((t for t, x, y in self.ROWS if t in fixes
                             and region.contains(x, y)), None)
                pruned = tree.first_hit(log, region, a, b, 1, t_lo, t_hi)
                assert pruned == want
                for mbr_prune in (True, False):
                    stats = TraversalStats(trace=True)
                    decoded.clear()
                    assert tree.first_hit(
                        log, region, a, b, 1, t_lo, t_hi, mbr_prune=mbr_prune,
                        speed_prune=False, stats=stats) == want
                    # every fix of the window in each scanned leaf, up to
                    # the hit, and each scan ends on a hit or an abort
                    scanned = [p for k, p in stats.events
                               if k in ("hit", "leaf_abort")]
                    leaves = [tree.coverage(p) for p in scanned]
                    assert decoded == [
                        t for t in fixes
                        if any(lo <= self.INSTANTS.index(t) + 1 <= hi
                               for lo, hi in leaves)
                        and (want is None or t <= want)]
                    assert stats.positions_decoded == len(decoded)
                    if not mbr_prune:
                        assert decoded == [t for t in fixes
                                           if want is None or t <= want]
                    checked += 1
        # all but the windows (5, 6) and (15, 15), which hold only gaps
        assert checked == 2 * len(self.REGIONS) * (len(self.WINDOWS) - 2)
