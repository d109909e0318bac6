"""Heap-ordered bounding-box trees over log ordinals.

Leaves cover fixed-size runs of data ordinals; the leaf level is padded to
a power of two so node p has children 2p and 2p+1 with no pointers.  Only
the root box is stored outright.  Every other node keeps four non-negative
differences against its parent (min grows, max shrinks as you descend),
packed at the width of the largest difference in the tree.

`walk` searches a log's tree straight from its record and the pools, on
a stack, left child first, pruning on time coverage and box overlap.  A
child's ordinals are half its parent's, and its box is its parent's less
its diffs, four ints, so a walk makes no view, no `snapshot.Region` (the
one box type, which `MbrTree` hands out) and no call per node.  A box
that lies wholly inside the region answers with its first ordinal in the
window, with no decoding and no select; `MbrTree.first_hit` maps that to
its instant.  A leaf scan decodes one fix at a time with `position_at`,
taking the next fix after a gap from the window bitmap.  A bare scan
steps one instant on from each fix.  A pruned scan jumps by the speed
bound s: a fix at Chebyshev distance g from the region cannot be inside
it for the next ceil(g/s) - 1 instants, so the scan decodes only the
fixes where the object could first reach the region, and a landing past
one leaf carries into the next.
"""

from __future__ import annotations

from array import array

import numpy as np

from trajindex.log import (
    DATA,
    TREE,
    WINDOW,
    TrajectoryLog,
    instant_of,
    position_at,
    private_pools,
)
from trajindex.snapshot import Region
from trajindex.succinct import U32_MAX, BitPool, PackedIntArray, next_one, packed_get


Mbr = Region  # the index's one box type, under its old name


class TraversalStats:
    """Counters for the walks given this object, and their events when
    traced.

    Each event is a (kind, node) pair.  The kinds:
      "visit"        the walk entered the node;
      "mbr_reject"   the node's box misses the region: nothing below it;
      "mbr_contain"  the node's box lies inside the region: its first
                     ordinal in the window is the answer, nothing decoded;
      "time_skip"    the node's subtree lies outside the ordinal window;
      "leaf_abort"   a leaf scan ended with no hit in it: a bare scan
                     passed the leaf's last fix in the window, or a jump
                     by the speed bound landed past its last instant (or
                     s is 0);
      "hit"          a leaf scan decoded a position inside the region.
    No walk records "speed_skip", so a count of it reads 0: a leaf
    scan's first jump rules out what a speed test on a subtree's box could.
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
        `walk` would: the root is visited, then rejected
        ("mbr_reject") or found inside the region ("mbr_contain")."""
        self.nodes_visited += 1
        self.event("visit", 1)
        self.event(kind, 1)


class MbrTree:
    """Bounding boxes over one log, heap order, differential storage: a
    view of the diffs in a word pool."""

    __slots__ = ("leaf_capacity", "leaf_count", "data_count", "width", "_box",
                 "_words", "_f", "_xbase", "_ybase")

    def __init__(self, words: array, leaf_capacity: int, f):
        """The tree of the log with fields f, over its f[DATA] ordinals:
        f[TREE] is the word its diffs start at, then come the root box
        and the diff width."""
        self.leaf_capacity = leaf_capacity
        self.data_count = data_count = f[DATA]
        self.leaf_count = _leaf_count(data_count, leaf_capacity)
        self.width = width = f[TREE + 5]
        self._box = f[TREE + 1], f[TREE + 2], f[TREE + 3], f[TREE + 4]
        self._words, self._f = words, f
        self._xbase = base = f[TREE]
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

    @property
    def root(self) -> Region:
        return Region(*self._box)

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

    def node_box(self, p: int) -> Region:
        """Reconstruct the box of node p by walking down from the root: a
        child's box is its parent's, less its diffs."""
        if self.coverage(p) is None:
            raise ValueError(f"node {p} covers no data")
        words, w, xb, yb = self._words, self.width, self._xbase, self._ybase
        xmin, xmax, ymin, ymax = self._box
        for shift in range(p.bit_length() - 2, -1, -1):
            i = 2 * (p >> shift) - 4
            xmin += packed_get(words, xb, w, i)
            xmax -= packed_get(words, xb, w, i + 1)
            ymin += packed_get(words, yb, w, i)
            ymax -= packed_get(words, yb, w, i + 1)
        return Region(xmin, xmax, ymin, ymax)

    def first_hit(self, log: TrajectoryLog, region: Region, ord_lo: int,
                  ord_hi: int, max_speed: int, t_lo: int, t_hi: int, *,
                  mbr_prune: bool = True, speed_prune: bool = True,
                  stats: TraversalStats | None = None) -> int | None:
        """Earliest local instant in ordinals ord_lo..ord_hi, those of
        t_lo..t_hi, whose position falls inside region, or None: a `walk`
        at speed bound max_speed, or none without speed_prune, whose hit
        in a box inside region one select maps to its instant."""
        if not 1 <= ord_lo <= ord_hi <= self.data_count:
            raise IndexError("ordinal window out of range")
        t, j = walk(log._bits, log._words, log._f, self.leaf_capacity,
                    region, ord_lo, ord_hi, t_lo, t_hi,
                    max_speed if speed_prune else None, mbr_prune, stats,
                    (self._words, self._f)) or (None, None)
        return t if j is None else log.unmap_ordinal(j)


def walk(bits: BitPool, words, f, leaf_capacity: int, r: Region, olo: int,
         ohi: int, a: int, b: int, s: int | None, mbr_prune: bool = True,
         stats: TraversalStats | None = None, tree=None):
    """The earliest position inside r among data ordinals olo..ohi, in
    1..f[DATA], of the log with fields f in the pools bits and words, by a
    walk of its tree, with leaves of leaf_capacity ordinals: as (its local
    instant, None) from a leaf scan, or as (None, its ordinal) from a box
    inside r, with no select; or None.  olo..ohi must be the ordinals of
    local instants a..b, which bound the first and the last of them.  A
    leaf scan steps one instant on from a fix where s is None, else jumps
    by the speed bound s.  tree is the tree's word pool and record where
    they are not the log's.  Events are counted only into a given stats.
    """
    tw, tf = tree or (words, f)
    n, c, width, xb = tf[DATA], leaf_capacity, tf[TREE + 5], tf[TREE]
    span = _leaf_count(n, c) * c  # the root's, over ordinals 1..span
    yb = xb + ((4 * (span // c - 1) * width + 63) >> 6)
    x1, x2, y1, y2 = r.x1, r.x2, r.y1, r.y2
    t, at = max(a, f[0]), olo  # no hit before instant t, past ordinal at - 1
    # each node to visit, left child on top: its number, its first
    # ordinal, its span of ordinals, and its parent's box
    stack = [(1, 1, span, tf[TREE + 1:TREE + 5])]
    while stack:
        p, lo, span, box = stack.pop()
        if stats is not None:
            stats.nodes_visited += 1
            stats.event("visit", p)
        if mbr_prune:
            if p > 1:  # the parent's box, less p's diffs
                i = 2 * p - 4
                box = (box[0] + packed_get(tw, xb, width, i),
                       box[1] - packed_get(tw, xb, width, i + 1),
                       box[2] + packed_get(tw, yb, width, i),
                       box[3] - packed_get(tw, yb, width, i + 1))
            xmin, xmax, ymin, ymax = box
            if xmin > x2 or x1 > xmax or ymin > y2 or y1 > ymax:
                if stats is not None:
                    stats.event("mbr_reject", p)
                continue
            if x1 <= xmin and xmax <= x2 and y1 <= ymin and ymax <= y2:
                # all of p is in r, and p is the first node met left to
                # right: its first ordinal in the window is the earliest hit
                if stats is not None:
                    stats.event("mbr_contain", p)
                return None, max(lo, olo)
        if span > c:  # p meets the window, so a child does; skip the other
            span >>= 1
            mid = lo + span  # the right child's first ordinal
            if mid <= ohi:
                stack.append((2 * p + 1, mid, span, box))
            elif stats is not None and mid <= n:
                stats.event("time_skip", 2 * p + 1)
            if olo < mid:
                stack.append((2 * p, lo, span, box))
            elif stats is not None:
                stats.event("time_skip", 2 * p)
            continue
        # a leaf: decode the first fix at or after t, then step on by one
        # instant, or by the speed bound, as a fix at distance g from r is
        # not inside it before t + ceil(g/s); t grows, so the scan ends
        lo, hi = max(lo, olo), min(lo + span - 1, ohi)
        t = t if lo == at else max(t, instant_of(bits, f, lo))
        end = b if hi == ohi else instant_of(bits, f, hi)
        while t <= end:
            pos = position_at(bits, words, f, t)
            if pos is None:  # past the window, or a gap: on to the next fix
                if t > f[1]:
                    break
                t = next_one(bits, f[WINDOW], t - f[0] + 1) + f[0] - 1
                continue
            if stats is not None:
                stats.positions_decoded += 1
            x, y = pos
            if x1 <= x <= x2 and y1 <= y <= y2:
                if stats is not None:
                    stats.event("hit", p)
                return t, None
            if s is None:
                t += 1
            elif s:  # g > 0, as (x, y) is outside r
                t -= -max(x1 - x, x - x2, y1 - y, y - y2) // s
            else:
                t = b + 1
        if stats is not None:
            stats.event("leaf_abort", p)
        at = hi + 1
    return None


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
    root = Region(int(xs.min()), int(xs.max()), int(ys.min()), int(ys.max()))
    if min(root.x1, root.y1) < 0 or max(root.x2, root.y2) > U32_MAX:
        raise ValueError(f"box {root} cannot be stored: "
                         f"coordinates must lie in 0..{U32_MAX}")
    _, words, f = private_pools(np.column_stack((np.arange(1, n + 1), xs, ys)),
                                0, n + 1, leaf_capacity)
    return MbrTree(words, leaf_capacity, f)
