"""Heap-ordered bounding-box trees over log ordinals.

Leaves cover fixed-size runs of data ordinals; the leaf level is padded to
a power of two so node p has children 2p and 2p+1 with no pointers.  Only
the root box is stored outright.  Every other node keeps four non-negative
differences against its parent (min grows, max shrinks as you descend),
packed at the width of the largest difference in the tree.

Interval search walks the tree pruning on time coverage, box overlap and a
reachability bound: if a box sits further from the query region than the
object can travel in the time remaining, the subtree cannot produce a hit.
A box that lies wholly inside the region answers at once, with no decoding.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from trajindex.log import TREE, TrajectoryLog, private_pools
from trajindex.succinct import U32_MAX, PackedIntArray, packed_get


@dataclass(slots=True, unsafe_hash=True)
class Mbr:
    """Inclusive box.  Not frozen: a tree walk makes one for every node it
    visits, and a frozen dataclass takes several times as long to make."""

    xmin: int
    xmax: int
    ymin: int
    ymax: int

    def intersects(self, other: "Mbr") -> bool:
        return (self.xmin <= other.xmax and other.xmin <= self.xmax
                and self.ymin <= other.ymax and other.ymin <= self.ymax)

    def contains(self, x: int, y: int) -> bool:
        return self.xmin <= x <= self.xmax and self.ymin <= y <= self.ymax

    def within(self, other: "Mbr") -> bool:
        return (other.xmin <= self.xmin and self.xmax <= other.xmax
                and other.ymin <= self.ymin and self.ymax <= other.ymax)

    def union(self, other: "Mbr") -> "Mbr":
        return Mbr(min(self.xmin, other.xmin), max(self.xmax, other.xmax),
                   min(self.ymin, other.ymin), max(self.ymax, other.ymax))

    def gap_to(self, other: "Mbr") -> int:
        """Chebyshev distance between the boxes, 0 when they touch."""
        gx = max(0, other.xmin - self.xmax, self.xmin - other.xmax)
        gy = max(0, other.ymin - self.ymax, self.ymin - other.ymax)
        return max(gx, gy)


def _point_gap(r: Mbr, x: int, y: int) -> int:
    return max(0, r.xmin - x, x - r.xmax, r.ymin - y, y - r.ymax)


class TraversalStats:
    """Counters for one or more searches; events recorded only when traced.

    Each event is a (kind, node) pair.  The kinds:
      "visit"        the search entered the node;
      "mbr_reject"   the node's box misses the region: nothing below it;
      "mbr_contain"  the node's box lies inside the region: its first
                     ordinal in the window is the answer, nothing decoded;
      "time_skip"    the node's subtree lies outside the ordinal window;
      "speed_skip"   by the speed bound the object cannot be inside the
                     region during the node's subtree, which is skipped;
      "leaf_abort"   a leaf scan stopped because the object cannot reach
                     the region before the leaf ends;
      "hit"          a leaf scan decoded a position inside the region.
    """

    def __init__(self, trace: bool = False):
        self.nodes_visited = 0
        self.positions_decoded = 0
        self.events: list[tuple[str, int]] | None = [] if trace else None

    def event(self, kind: str, node: int) -> None:
        if self.events is not None:
            self.events.append((kind, node))

    def root_only(self, kind: str) -> None:
        """Count a search its caller answered from the root box alone, as
        `first_hit` would: the root is visited, then rejected
        ("mbr_reject") or found inside the region ("mbr_contain")."""
        self.nodes_visited += 1
        self.event("visit", 1)
        self.event(kind, 1)


class MbrTree:
    """Bounding boxes over one log, heap order, differential storage: a
    view of the diffs in a word pool."""

    __slots__ = ("leaf_capacity", "leaf_count", "data_count", "width", "root",
                 "_words", "_xbase", "_ybase")

    def __init__(self, words: array, leaf_capacity: int, data_count: int,
                 f, t: int):
        """The tree over data_count ordinals whose fields start at f[t]:
        the word its diffs start at, then the root box and the diff
        width."""
        self.leaf_capacity = leaf_capacity
        self.leaf_count = _leaf_count(data_count, leaf_capacity)
        self.data_count = data_count
        self.width = width = f[t + 5]
        self.root = Mbr(f[t + 1], f[t + 2], f[t + 3], f[t + 4])
        self._words = words
        self._xbase = base = f[t]
        self._ybase = base + ((self._diff_count() * width + 63) >> 6)

    def _diff_count(self) -> int:
        return 4 * (self.leaf_count - 1)  # two per axis for nodes 2..2L-1

    @property
    def _diffs_x(self) -> PackedIntArray:
        return PackedIntArray(self._words, self._xbase, self._diff_count(),
                              self.width)

    @property
    def _diffs_y(self) -> PackedIntArray:
        return PackedIntArray(self._words, self._ybase, self._diff_count(),
                              self.width)

    @property
    def node_count(self) -> int:
        return 2 * self.leaf_count - 1

    def coverage(self, p: int) -> tuple[int, int] | None:
        """Ordinal range a node covers, clipped to real data, or None."""
        if not 1 <= p <= self.node_count:
            raise IndexError(f"node {p} out of range 1..{self.node_count}")
        depth = p.bit_length() - 1
        span = (self.leaf_count >> depth) * self.leaf_capacity
        idx = p - (1 << depth)
        lo = idx * span + 1
        if lo > self.data_count:
            return None
        return lo, min(lo + span - 1, self.data_count)

    def child_box(self, parent: Mbr, p: int) -> Mbr:
        i = 2 * (p - 2)
        words, w, xb, yb = self._words, self.width, self._xbase, self._ybase
        return Mbr(parent.xmin + packed_get(words, xb, w, i),
                   parent.xmax - packed_get(words, xb, w, i + 1),
                   parent.ymin + packed_get(words, yb, w, i),
                   parent.ymax - packed_get(words, yb, w, i + 1))

    def node_box(self, p: int) -> Mbr:
        """Reconstruct the box of node p by walking down from the root."""
        if self.coverage(p) is None:
            raise ValueError(f"node {p} covers no data")
        box = self.root
        for shift in range(p.bit_length() - 2, -1, -1):
            box = self.child_box(box, p >> shift)
        return box

    def first_hit(self, log: TrajectoryLog, region: Mbr, ord_lo: int,
                  ord_hi: int, max_speed: int, t_lo: int, t_hi: int, *,
                  mbr_prune: bool = True, speed_prune: bool = True,
                  stats: TraversalStats | None = None) -> int | None:
        """Earliest local instant in ordinals ord_lo..ord_hi whose position
        falls inside region, or None.

        t_lo/t_hi are the local instants bounding the query window; they
        only feed the reachability pruning.
        """
        if not 1 <= ord_lo <= ord_hi <= self.data_count:
            raise IndexError("ordinal window out of range")
        if stats is None:
            stats = TraversalStats()
        return self._search(1, self.root, log, region, ord_lo, ord_hi,
                            max_speed, t_lo, t_hi, mbr_prune, speed_prune,
                            stats)

    def _search(self, p, box, log, r, olo, ohi, s, tlo, thi,
                mbr_prune, speed_prune, stats) -> int | None:
        stats.nodes_visited += 1
        stats.event("visit", p)
        if mbr_prune:
            if not box.intersects(r):
                stats.event("mbr_reject", p)
                return None
            if box.within(r):
                # every position under p is in r, p meets the window, and
                # the walk goes left first: p's first ordinal in the window
                # is the earliest hit
                stats.event("mbr_contain", p)
                return log.unmap_ordinal(max(self.coverage(p)[0], olo))
        if p >= self.leaf_count:
            return self._scan_leaf(p, log, r, olo, ohi, s, speed_prune, stats)
        left, right = 2 * p, 2 * p + 1
        lcov = self.coverage(left)
        rcov = self.coverage(right)
        l_hit = lcov[0] <= ohi and olo <= lcov[1]
        r_hit = rcov is not None and rcov[0] <= ohi and olo <= rcov[1]
        if l_hit and r_hit:
            found = self._search(left, self.child_box(box, left), log, r,
                                 olo, ohi, s, tlo, thi, mbr_prune,
                                 speed_prune, stats)
            if found is not None:
                return found
            return self._search(right, self.child_box(box, right), log, r,
                                olo, ohi, s, tlo, thi, mbr_prune,
                                speed_prune, stats)
        if r_hit:
            # the query window starts after the left subtree; if the object
            # cannot close the gap between where it was and the region in
            # the time available, the right subtree is unreachable
            if speed_prune:
                left_end = log.unmap_ordinal(lcov[1])
                latest = min(thi, log.unmap_ordinal(min(rcov[1], ohi)))
                gap = self.child_box(box, left).gap_to(r)
                if gap > s * (latest - left_end):
                    stats.event("speed_skip", right)
                    return None
            stats.event("time_skip", left)
            return self._search(right, self.child_box(box, right), log, r,
                                olo, ohi, s, tlo, thi, mbr_prune,
                                speed_prune, stats)
        if l_hit:
            # mirrored bound: the object must reach the right subtree's box
            # from wherever it is during the query window
            if speed_prune and rcov is not None:
                right_start = log.unmap_ordinal(rcov[0])
                earliest = max(tlo, log.unmap_ordinal(max(lcov[0], olo)))
                gap = self.child_box(box, right).gap_to(r)
                if gap > s * (right_start - earliest):
                    stats.event("speed_skip", left)
                    return None
            if rcov is not None:
                stats.event("time_skip", right)
            return self._search(left, self.child_box(box, left), log, r,
                                olo, ohi, s, tlo, thi, mbr_prune,
                                speed_prune, stats)
        return None

    def _scan_leaf(self, p, log, r, olo, ohi, s, speed_prune, stats) -> int | None:
        cov = self.coverage(p)
        lo, hi = max(cov[0], olo), min(cov[1], ohi)
        last_t = None
        for j, (t, x, y) in enumerate(log.iter_positions(lo, hi), lo):
            stats.positions_decoded += 1
            if r.contains(x, y):
                stats.event("hit", p)
                return t
            if not speed_prune:
                continue
            # instants rise with ordinals, so last_t - t >= hi - j; look
            # last_t up only when that bound cannot rule the abort out
            gap = _point_gap(r, x, y)
            if gap > s * (hi - j):
                if last_t is None:
                    last_t = t if j == hi else log.unmap_ordinal(hi)
                if gap > s * (last_t - t):
                    stats.event("leaf_abort", p)
                    break
        return None

    def code_bits(self) -> int:
        return self._diffs_x.code_bits() + self._diffs_y.code_bits()


def _leaf_count(n: int, leaf_capacity: int) -> int:
    # leaves for n ordinals, padded to a power of two
    leaves_needed = (n + leaf_capacity - 1) // leaf_capacity
    return 1 << (leaves_needed - 1).bit_length()


def build_mbr_tree(log: TrajectoryLog, leaf_capacity: int) -> MbrTree:
    """The tree over a standalone log, from its decoded positions."""
    pts = np.array(log.scan_positions(1, log.data_count), dtype=np.int64)
    return build_mbr_tree_xy(pts[:, 1], pts[:, 2], leaf_capacity)


def build_mbr_tree_xy(xs, ys, leaf_capacity: int) -> MbrTree:
    """A tree of its own over the positions of one log, given as x and y
    columns in ordinal order: the encoder's tree over a log of those
    positions at instants 1, 2, ...  Its root box must be storable."""
    if leaf_capacity < 1:
        raise ValueError("leaf capacity must be positive")
    n = len(xs)
    if n == 0:
        raise ValueError("cannot build a tree over an empty log")
    xs = np.asarray(xs, dtype=np.int64)
    ys = np.asarray(ys, dtype=np.int64)
    root = Mbr(int(xs.min()), int(xs.max()), int(ys.min()), int(ys.max()))
    if min(root.xmin, root.ymin) < 0 or max(root.xmax, root.ymax) > U32_MAX:
        raise ValueError(f"box {root} cannot be stored: "
                         f"coordinates must lie in 0..{U32_MAX}")
    _, words, f = private_pools(np.column_stack((np.arange(1, n + 1), xs, ys)),
                                0, n + 1, leaf_capacity)
    return MbrTree(words, leaf_capacity, n, f, TREE)
