import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import REF_PERIOD, REF_TRACK, pulled_in, stored_tree
from reference_encoder import Parts, write_tree
from trajindex.log import build_log
from trajindex.mbrtree import (
    Mbr,
    MbrTree,
    TraversalStats,
    build_mbr_tree,
    build_mbr_tree_xy,
)
from trajindex.oracle import oracle_mbr


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


class TestMbr:
    def test_geometry(self):
        a = Mbr(0, 4, 0, 4)
        b = Mbr(5, 9, 2, 3)
        assert not a.intersects(b)
        assert a.intersects(Mbr(4, 9, 2, 3))
        assert a.union(b) == Mbr(0, 9, 0, 4)
        assert a.gap_to(b) == 1
        assert a.gap_to(Mbr(10, 12, 20, 30)) == 16
        assert a.gap_to(Mbr(2, 3, 2, 3)) == 0
        assert a.contains(4, 0) and not a.contains(5, 0)


class TestReferenceTree:
    def test_shape(self, ref_tree):
        assert ref_tree.leaf_count == 4
        assert ref_tree.node_count == 7
        assert ref_tree.coverage(1) == (1, 7)
        assert ref_tree.coverage(2) == (1, 4)
        assert ref_tree.coverage(3) == (5, 7)
        assert ref_tree.coverage(7) == (7, 7)

    def test_boxes(self, ref_tree):
        assert ref_tree.root == Mbr(2, 10, 4, 10)
        assert ref_tree.node_box(2) == Mbr(2, 5, 4, 7)
        assert ref_tree.node_box(4) == Mbr(2, 3, 4, 6)
        assert ref_tree.node_box(5) == Mbr(3, 5, 5, 7)

    def test_stored_x_differences_of_first_child(self, ref_tree):
        # node 2 shrinks the root's x-range [2,10] to [2,5]: stored (0, 5)
        assert (ref_tree._diffs_x[0], ref_tree._diffs_x[1]) == (0, 5)

    def test_worked_traversal(self, ref_log, ref_tree):
        # region [4,5]x[4,10] over local instants 3..5 (ordinals 2..4):
        # skip right subtree by time, reject node 4 by box, hit at instant 4
        region = Mbr(4, 5, 4, 10)
        stats = TraversalStats(trace=True)
        hit = ref_tree.first_hit(ref_log, region, 2, 4, 3, 3, 5, stats=stats)
        assert hit == 4
        assert [n for k, n in stats.events if k == "visit"] == [1, 2, 4, 5]
        assert ("time_skip", 3) in stats.events
        assert ("mbr_reject", 4) in stats.events
        assert ("hit", 5) in stats.events

    def test_disjoint_region_stops_at_root(self, ref_log, ref_tree):
        stats = TraversalStats()
        out = ref_tree.first_hit(ref_log, Mbr(50, 60, 50, 60), 1, 7, 3, 2, 10,
                                 stats=stats)
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
                region = Mbr(cx, cx + int(rng.integers(0, 14)),
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
            region = Mbr(280, 295, 280, 295)
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
            ref_tree.first_hit(ref_log, Mbr(0, 1, 0, 1), 0, 3, 3, 1, 5)
        with pytest.raises(IndexError):
            ref_tree.first_hit(ref_log, Mbr(0, 1, 0, 1), 3, 8, 3, 1, 5)

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
        assert tree.first_hit(log, Mbr(8, 8, 9, 9), 1, 2, 3, 1, 5) == 3
        assert tree.first_hit(log, Mbr(0, 1, 0, 1), 1, 2, 3, 1, 5) is None


class TestContainment:
    """A node whose box lies inside the region answers with its first
    ordinal in the window; nothing below it is decoded."""

    GRID = Mbr(0, 1023, 0, 1023)

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

