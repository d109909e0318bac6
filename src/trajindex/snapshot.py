"""Grid snapshots: every object's cell at each period's first instant.

The snapshots of all periods are one table over the index's (period,
object) slots: each slot's x and y, and a state byte, which says whether
the slot holds no row, a fix or an entrant.  An object's cell is one
index, and a region probe, which only a query at a snapshot instant
makes, filters one period's slots, so its objects come out by id.

The file holds the same table: a bitmap over the slots marking those
that hold a row, a bitmap over those rows marking the entrants, then the
rows' xs and their ys at the table's width.  The object ids are the
header's, so a slot is all a row needs to name its object.

Objects whose first sample in a period comes after its first instant are
carried as entrants: they are positioned at that first sample, which a
load checks against the first fix of their log, and a flag marks them so
that probes and instant queries skip them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from trajindex.succinct import U32_MAX, Reader, Writer


@dataclass(frozen=True)
class Region:
    """Inclusive axis-aligned cell range: a query region, and the box of a
    box-tree node (`MbrTree.root`, `node_box`), whose sides read as xmin,
    xmax, ymin and ymax too."""

    x1: int
    x2: int
    y1: int
    y2: int

    def __post_init__(self):
        if self.x1 > self.x2 or self.y1 > self.y2:
            raise ValueError(f"degenerate region {self}")

    xmin = property(lambda self: self.x1)
    xmax = property(lambda self: self.x2)
    ymin = property(lambda self: self.y1)
    ymax = property(lambda self: self.y2)

    def contains(self, x: int, y: int) -> bool:
        return self.x1 <= x <= self.x2 and self.y1 <= y <= self.y2


def _cell_dtype(width: int, height: int) -> np.dtype:
    """A cell's x and y as the table holds them and the file stores them:
    little-endian u16s where both sides are at most 2**16, u32s otherwise."""
    return np.dtype("<u2" if max(width, height) <= 1 << 16 else "<u4")


NO_ROW, FIX, ENTRANT = 0, 1, 2  # a slot's state


class K2Tree:
    """Every period's snapshot over a width x height grid, where the paper
    keeps a k²-tree, as a table of (period, object) slots: each slot's x
    and y (see `_cell_dtype`) and its state (a byte: `NO_ROW`, `FIX` or
    `ENTRANT`)."""

    def __init__(self, width: int, height: int, size: int, slots: np.ndarray,
                 xs: np.ndarray, ys: np.ndarray, entrants):
        """size slots, the slots listed each holding a row: its x, y and
        entrant flag (0 or 1).  A grid side past 1..2**32 - 1, a slot
        listed twice or a cell off the grid raises ValueError."""
        if not (1 <= width <= U32_MAX and 1 <= height <= U32_MAX):
            raise ValueError(f"grid {width}x{height} has a side past 1..{U32_MAX}")
        if len(slots) and (xs.max() >= width or ys.max() >= height):
            raise ValueError(f"snapshot cells off the {width}x{height} grid")
        state = np.zeros(size, dtype=np.uint8)
        state[slots] = FIX + np.asarray(entrants, dtype=np.uint8)
        if np.count_nonzero(state) < len(slots):
            raise ValueError("an object appears twice in a period's snapshot")
        self.width, self.height = width, height
        self.xs, self.ys = np.zeros((2, size), dtype=_cell_dtype(width, height))
        self.xs[slots], self.ys[slots] = xs, ys
        self.state = state.tobytes()  # bytes: a lookup indexes them fastest

    def report_cells(self, region: Region, lo: int,
                     hi: int) -> list[tuple[int, int, int]]:
        """(x, y, slot) for every slot of lo..hi-1, a period's, that holds
        a row, a fix's or an entrant's, whose cell lies in region, by slot;
        slots count from lo."""
        x1, x2 = max(region.x1, 0), min(region.x2, self.width - 1)
        y1, y2 = max(region.y1, 0), min(region.y2, self.height - 1)
        if x1 > x2 or y1 > y2:
            return []
        xs, ys = self.xs[lo:hi], self.ys[lo:hi]
        at = ((np.frombuffer(self.state, np.uint8, hi - lo, lo) != NO_ROW)
              & (xs >= x1) & (xs <= x2) & (ys >= y1) & (ys <= y2)).nonzero()[0]
        return list(zip(xs[at].tolist(), ys[at].tolist(), at.tolist()))


class Snapshot:
    """Every period's object positions, probe-able by region: a `K2Tree`
    over the slots of the periods and the objects, and the objects' ids."""

    def __init__(self, extent: tuple[int, int], object_ids: np.ndarray,
                 periods: int, slots: np.ndarray, xs: np.ndarray,
                 ys: np.ndarray, entrants):
        """slots, xs, ys, entrants: each row's slot (period * object count
        + object index), x, y and entrant flag (0 or 1), in any order.  What
        `K2Tree` refuses raises ValueError."""
        n = len(object_ids)
        self.tree = K2Tree(*extent, periods * n, slots, xs, ys, entrants)
        self._periods, self._n = periods, n
        self._ids = np.asarray(object_ids).tolist()

    def __len__(self) -> int:
        """The periods."""
        return self._periods

    @property
    def fix_count(self) -> int:
        """Rows that are fixes, not entrants."""
        return self.tree.state.count(FIX)

    def nbytes(self) -> int:
        """Bytes the slot table holds: its xs, ys and states."""
        tree = self.tree
        return tree.xs.nbytes + tree.ys.nbytes + len(tree.state)

    def fix(self, p: int, i: int) -> tuple[int, int] | None:
        """(x, y) of object index i at period p's first instant, or None
        where the period has no row for it or an entrant's."""
        slot, tree = p * self._n + i, self.tree
        if tree.state[slot] != FIX:
            return None
        return tree.xs.item(slot), tree.ys.item(slot)

    def cells(self, p: np.ndarray, i: np.ndarray):
        """The x, y and entrant flag of the row of each (period p, object
        index i), as arrays; a pair with no row raises ValueError."""
        slot, tree = p * self._n + i, self.tree
        state = np.frombuffer(tree.state, np.uint8)[slot]
        if (state == NO_ROW).any():
            raise ValueError("a log has no row in its period's snapshot")
        return tree.xs[slot], tree.ys[slot], state == ENTRANT

    def range_report(self, region: Region, p: int) -> list[tuple[int, int, int]]:
        """(object id, x, y) for every fix of period p's first instant
        inside region, by id; no entrant is reported."""
        lo, ids, state = p * self._n, self._ids, self.tree.state
        return [(ids[i], x, y) for x, y, i in
                self.tree.report_cells(region, lo, lo + self._n)
                if state[lo + i] == FIX]

    def write(self, w: Writer) -> None:
        """The table as a file holds it: a bitmap over the slots marking
        those that hold a row; a bitmap over those rows marking the
        entrants; the rows' xs, then their ys, by slot."""
        tree = self.tree
        state = np.frombuffer(tree.state, np.uint8)
        held = state != NO_ROW
        w.bits(held)
        w.bits(state[held] == ENTRANT)
        w += tree.xs[held].tobytes()
        w += tree.ys[held].tobytes()

    @classmethod
    def read(cls, r: Reader, extent: tuple[int, int], object_ids: np.ndarray,
             periods: int) -> "Snapshot":
        """The table `write` stored.  A bit set past either bitmap, an
        object with no row in any period, cells past the end of the file,
        or what the constructor refuses raise ValueError."""
        n = len(object_ids)
        held = r.bits(periods * n)
        if not held.reshape(periods, n).any(axis=0).all():
            raise ValueError("the snapshots do not hold every listed object")
        slots = np.flatnonzero(held)
        entrants = r.bits(len(slots))
        dtype = _cell_dtype(*extent)
        xs, ys = np.frombuffer(r.take(2 * dtype.itemsize * len(slots)),
                               dtype).reshape(2, -1)
        return cls(extent, object_ids, periods, slots, xs, ys, entrants)
