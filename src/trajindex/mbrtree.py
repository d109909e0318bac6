"""Heap-ordered bounding-box trees over log ordinals.

Leaves cover fixed-size runs of data ordinals; the leaf level is padded to
a power of two so node p has children 2p and 2p+1 with no pointers.  Only
the root box is stored outright.  Every other node keeps four non-negative
differences against its parent (min grows, max shrinks as you descend),
packed at the width of the largest difference in the tree.

Interval search walks the tree pruning on time coverage and box overlap.
A box that lies wholly inside the region answers at once, with no decoding.
A box is a `snapshot.Region`, the index's one box type, but the walk
carries each node's as a tuple of four ints and makes a `Region` for no
node.  A leaf scan decodes one fix at a time with `position_at`, taking
the next fix after a gap from the window bitmap.  A bare scan steps one
instant on from each fix.  A pruned scan jumps by the speed bound s: a
fix at Chebyshev distance g from the region cannot be inside it for the
next ceil(g/s) - 1 instants, so the scan decodes only the fixes where the
object could first reach the region, and a landing past one leaf carries
into the next.
"""

from __future__ import annotations

from array import array

import numpy as np

from trajindex.log import (
    DATA,
    TREE,
    WINDOW,
    TrajectoryLog,
    position_at,
    private_pools,
)
from trajindex.snapshot import Region
from trajindex.succinct import U32_MAX, PackedIntArray, next_one, packed_get


Mbr = Region  # the index's one box type, under its old name


class TraversalStats:
    """Counters for one or more searches; events recorded only when traced.

    Each event is a (kind, node) pair.  The kinds:
      "visit"        the search entered the node;
      "mbr_reject"   the node's box misses the region: nothing below it;
      "mbr_contain"  the node's box lies inside the region: its first
                     ordinal in the window is the answer, nothing decoded;
      "time_skip"    the node's subtree lies outside the ordinal window;
      "leaf_abort"   a leaf scan ended with no hit in it: a bare scan
                     passed the leaf's last fix in the window, or a jump
                     by the speed bound landed past its last instant (or
                     s is 0);
      "hit"          a leaf scan decoded a position inside the region.
    No search records "speed_skip", so a count of it reads 0: a leaf
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
        `first_hit` would: the root is visited, then rejected
        ("mbr_reject") or found inside the region ("mbr_contain")."""
        self.nodes_visited += 1
        self.event("visit", 1)
        self.event(kind, 1)


class MbrTree:
    """Bounding boxes over one log, heap order, differential storage: a
    view of the diffs in a word pool."""

    __slots__ = ("leaf_capacity", "leaf_count", "data_count", "width", "_box",
                 "_words", "_xbase", "_ybase")

    def __init__(self, words: array, leaf_capacity: int, f):
        """The tree of the log with fields f, over its f[DATA] ordinals:
        f[TREE] is the word its diffs start at, then come the root box
        and the diff width."""
        self.leaf_capacity = leaf_capacity
        self.data_count = data_count = f[DATA]
        self.leaf_count = _leaf_count(data_count, leaf_capacity)
        self.width = width = f[TREE + 5]
        self._box = f[TREE + 1], f[TREE + 2], f[TREE + 3], f[TREE + 4]
        self._words = words
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

    def child_box(self, parent: tuple, p: int) -> tuple[int, int, int, int]:
        """The box of node p, (xmin, xmax, ymin, ymax), from its parent's."""
        i = 2 * (p - 2)
        words, w, xb, yb = self._words, self.width, self._xbase, self._ybase
        xmin, xmax, ymin, ymax = parent
        return (xmin + packed_get(words, xb, w, i),
                xmax - packed_get(words, xb, w, i + 1),
                ymin + packed_get(words, yb, w, i),
                ymax - packed_get(words, yb, w, i + 1))

    def node_box(self, p: int) -> Region:
        """Reconstruct the box of node p by walking down from the root."""
        if self.coverage(p) is None:
            raise ValueError(f"node {p} covers no data")
        box = self._box
        for shift in range(p.bit_length() - 2, -1, -1):
            box = self.child_box(box, p >> shift)
        return Region(*box)

    def first_hit(self, log: TrajectoryLog, region: Region, ord_lo: int,
                  ord_hi: int, max_speed: int, t_lo: int, t_hi: int, *,
                  mbr_prune: bool = True, speed_prune: bool = True,
                  stats: TraversalStats | None = None) -> int | None:
        """Earliest local instant in ordinals ord_lo..ord_hi whose position
        falls inside region, or None.

        ord_lo..ord_hi must be the data ordinals of local instants
        t_lo..t_hi, the query window; t_lo and t_hi bound the first and
        the last of them, so a scan that starts at ord_lo or ends at
        ord_hi looks up no instant.  A leaf scan decodes the leaf's fixes
        in the window one after the other, or, with speed_prune, jumps by
        max_speed, a bound on the object's step per instant on either
        axis.
        """
        if not 1 <= ord_lo <= ord_hi <= self.data_count:
            raise IndexError("ordinal window out of range")
        if stats is None:
            stats = TraversalStats()
        # no hit before instant at[0], which lies past ordinal at[1] - 1
        return self._search(1, self._box, log, region, ord_lo, ord_hi,
                            max_speed if speed_prune else None, t_hi,
                            [t_lo, ord_lo], mbr_prune, stats)

    def _search(self, p, box, log, r, olo, ohi, s, thi, at, mbr_prune,
                stats) -> int | None:
        stats.nodes_visited += 1
        stats.event("visit", p)
        if mbr_prune:
            xmin, xmax, ymin, ymax = box
            if not (xmin <= r.x2 and r.x1 <= xmax
                    and ymin <= r.y2 and r.y1 <= ymax):
                stats.event("mbr_reject", p)
                return None
            if r.x1 <= xmin and xmax <= r.x2 and r.y1 <= ymin and ymax <= r.y2:
                # every position under p is in r, p meets the window, and
                # the walk goes left first: p's first ordinal in the window
                # is the earliest hit
                stats.event("mbr_contain", p)
                return log.unmap_ordinal(max(self.coverage(p)[0], olo))
        if p >= self.leaf_count:
            return self._scan_leaf(p, log, r, olo, ohi, s, thi, at, stats)
        left, right = 2 * p, 2 * p + 1
        lcov = self.coverage(left)
        rcov = self.coverage(right)
        l_hit = lcov[0] <= ohi and olo <= lcov[1]
        r_hit = rcov is not None and rcov[0] <= ohi and olo <= rcov[1]
        # p meets the window, so one child does; a skip is recorded before
        # the walk descends
        if l_hit:
            if not r_hit and rcov is not None:
                stats.event("time_skip", right)
            found = self._search(left, self.child_box(box, left), log, r,
                                 olo, ohi, s, thi, at, mbr_prune, stats)
            if found is not None or not r_hit:
                return found
        else:
            stats.event("time_skip", left)
        return self._search(right, self.child_box(box, right), log, r, olo,
                            ohi, s, thi, at, mbr_prune, stats)

    def _scan_leaf(self, p, log, r, olo, ohi, s, thi, at, stats) -> int | None:
        # decode the first fix at or after t, then step on: by one instant
        # on a bare scan, s is None; else by the speed bound, as a fix at
        # distance g from r cannot be inside it before t + ceil(g/s).  Each
        # step moves t on by at least 1, so the scan ends on any index.
        cov = self.coverage(p)
        lo, hi = max(cov[0], olo), min(cov[1], ohi)
        bits, words, f = log._bits, log._words, log._f
        t = max(at[0], f[0] if lo == at[1] else log.unmap_ordinal(lo))
        end = thi if hi == ohi else log.unmap_ordinal(hi)
        while t <= end:
            pos = position_at(bits, words, f, t)
            if pos is None:  # past the window, or a gap: on to the next fix
                if t > f[1]:
                    break
                t = next_one(bits, f[WINDOW], t - f[0] + 1) + f[0] - 1
                continue
            stats.positions_decoded += 1
            x, y = pos
            if r.contains(x, y):
                stats.event("hit", p)
                return t
            if s is None:
                t += 1
            elif s:  # g > 0, as (x, y) is outside r
                t -= -max(r.x1 - x, x - r.x2, r.y1 - y, y - r.y2) // s
            else:
                t = thi + 1
        stats.event("leaf_abort", p)
        at[0], at[1] = t, hi + 1
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
