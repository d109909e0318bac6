"""Grid snapshots: every object's cell at each period's first instant.

In memory the snapshots of all periods are one table over the index's
(period, object) slots: each slot's x and y, and a state byte, which
says whether the slot holds no row, a fix or an entrant.  An object's
cell is one index, and a region probe, which only a query at a snapshot
instant makes, filters one period's slots, so its objects come out by id.

The file keeps the paper's quadtree order: each period's rows sorted by
the Morton code of their cell and then by id, a linear quadtree
(Gargantini, "An effective way to represent quadtrees", CACM 1982).  The
section holds each period's row count, every period's codes as an
Elias-Fano set (Vigna, "Quasi-succinct indices", WSDM 2013), all lows
and then all high bits, each period's from a word boundary, then every
row's id and one bitmap of entrants.  Only `Snapshot.write`, which sorts
the slots into that order, and `Snapshot.read`, which scatters the rows
back to their slots, know it.

Objects whose first sample in a period comes after its first instant are
carried as entrants: they are positioned at that first sample, which a
load checks against the first fix of their log, and a flag marks them so
that probes and instant queries skip them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from trajindex.succinct import (
    U32_MAX,
    PieceBuffer,
    Reader,
    Writer,
    elias_fano,
    packed_at,
    ranks,
    word_starts,
    words_from,
)


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


def _spread(v):
    # bit i of v to bit 2i, for v below 2**32: an int or a uint64 array
    v = (v | (v << 16)) & 0x0000FFFF0000FFFF
    v = (v | (v << 8)) & 0x00FF00FF00FF00FF
    v = (v | (v << 4)) & 0x0F0F0F0F0F0F0F0F
    v = (v | (v << 2)) & 0x3333333333333333
    return (v | (v << 1)) & 0x5555555555555555


def _compact(v: np.ndarray) -> np.ndarray:
    # the inverse of _spread: bit 2i of v to bit i, odd bits dropped
    v = v & 0x5555555555555555
    v = (v | (v >> 1)) & 0x3333333333333333
    v = (v | (v >> 2)) & 0x0F0F0F0F0F0F0F0F
    v = (v | (v >> 4)) & 0x00FF00FF00FF00FF
    v = (v | (v >> 8)) & 0x0000FFFF0000FFFF
    return (v | (v >> 16)) & 0x00000000FFFFFFFF


def morton(x, y):
    """Interleave coordinate bits, x in the even positions."""
    return _spread(x) | _spread(y) << 1


def morton_codes(x, y) -> np.ndarray:
    """morton over arrays of coordinates."""
    return morton(np.asarray(x, dtype=np.uint64), np.asarray(y, dtype=np.uint64))


def _top_code(width: int, height: int) -> int:
    """The largest code on a grid of u32 sides, at most 2**64 - 4 (a code
    grows with either coordinate)."""
    if not (1 <= width <= U32_MAX and 1 <= height <= U32_MAX):
        raise ValueError(f"grid {width}x{height} has a side past 1..{U32_MAX}")
    return morton(width - 1, height - 1)


NO_ROW, FIX, ENTRANT = 0, 1, 2  # a slot's state


class K2Tree:
    """Every period's quadtree over a width x height grid, as a table of
    (period, object) slots: each slot's x and y, as uint16s where both
    sides are at most 2**16 and as uint32s otherwise, and its state (a
    byte: `NO_ROW`, `FIX` or `ENTRANT`).  A node of the paper's k²-tree
    (k = 2) at depth t is a run of a period's rows, in the file's Morton
    order, whose codes share their top 2t bits (see `Snapshot.write`).
    """

    def __init__(self, width: int, height: int, size: int, slots: np.ndarray,
                 xs: np.ndarray, ys: np.ndarray, entrants):
        """size slots, the slots listed each holding a row: its x, y and
        entrant flag (0 or 1).  A slot listed twice or a cell off the grid
        raises ValueError."""
        _top_code(width, height)
        if len(slots) and (xs.max() >= width or ys.max() >= height):
            raise ValueError(f"snapshot cells off the {width}x{height} grid")
        state = np.zeros(size, dtype=np.uint8)
        state[slots] = FIX + np.asarray(entrants, dtype=np.uint8)
        if np.count_nonzero(state) < len(slots):
            raise ValueError("an object appears twice in a period's snapshot")
        dtype = np.uint16 if max(width, height) <= 1 << 16 else np.uint32
        self.width, self.height = width, height
        self.xs, self.ys = np.zeros((2, size), dtype=dtype)
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
        `K2Tree` refuses, or a period whose Morton codes `write` cannot
        store, raises ValueError."""
        n = len(object_ids)
        self.tree = tree = K2Tree(*extent, periods * n, slots, xs, ys, entrants)
        # `write` stores a period's row j (from 1) in Morton order as its
        # code + j, an int64: its last row's is its largest code + its rows
        top = morton_codes(tree.xs, tree.ys).reshape(periods, n).max(
            axis=1, initial=0)
        rows = np.count_nonzero(np.frombuffer(tree.state, np.uint8).reshape(
            periods, n), axis=1).astype(np.uint64)
        if (top >= np.uint64(1 << 63) - rows).any():
            raise ValueError(f"a snapshot cannot store the Morton code {top.max()}")
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
        """The table as a file holds it: the row counts; every period's
        codes, sorted with their rows by code and id, its row j (from 1)
        as member code + j of a set over [1, top + rows], lows then high
        bits; the ids; the entrant bitmap."""
        tree = self.tree
        state = np.frombuffer(tree.state, np.uint8)
        slots = np.flatnonzero(state)
        period, i = np.divmod(slots, self._n)
        codes = morton_codes(tree.xs[slots], tree.ys[slots])
        order = np.lexsort((i, codes, period))
        period, i, slots = period[order], i[order], slots[order]
        counts = np.bincount(period, minlength=self._periods)
        w.u32s(counts)
        low_width, high = elias_fano(_top_code(tree.width, tree.height), counts)
        j = ranks(counts)
        v = codes[order].astype(np.int64) + j
        shift = low_width[period]
        lows = PieceBuffer((counts * low_width)[:, None])
        highs = PieceBuffer(high[:, None])
        lows.packed(0, period, j, v - (v >> shift << shift), low_width)
        highs.ones(0, period, (v >> shift) + j)
        w += lows.tobytes()
        w += highs.tobytes()
        w.u32s(np.array(self._ids, dtype=np.int64)[i])
        w.bits(state[slots] == ENTRANT)

    @classmethod
    def read(cls, r: Reader, extent: tuple[int, int], object_ids: np.ndarray,
             periods: int) -> "Snapshot":
        """The table `write` stored, decoded in one numpy pass and
        scattered to its slots.  Row counts past the objects or the file,
        checked before any array is sized by them, high bits with other
        than each period's rows, a bit set past the lows or the high bits,
        a period's rows out of their order by code and id, ids other than
        the ascending object_ids, or what the constructor refuses raise
        ValueError."""
        counts = r.u32s(periods).astype(np.int64)
        rows = int(counts.sum())
        if counts.max() > len(object_ids) or 4 * rows > r.left():
            raise ValueError("the snapshots count more rows than there are "
                             "objects or than the file holds")
        low_width, high = elias_fano(_top_code(*extent), counts)
        low_bits = counts * low_width
        low_at, low_words = word_starts(low_bits[:, None])
        high_at, high_words = word_starts(high[:, None])
        lows = words_from(r.take(8 * low_words))
        pad = (low_bits & 63) > 0  # lows that end inside a word, padded
        if packed_at(lows, 64 * low_at[pad, 0] + low_bits[pad],
                     64 - (low_bits[pad] & 63)).any():
            raise ValueError("a snapshot's lows have bits set past their end")
        ones = np.flatnonzero(np.unpackbits(np.frombuffer(
            r.take(8 * high_words), dtype=np.uint8), bitorder="little"))
        hi = 64 * high_at[:, 0]  # each period's first high bit
        held = np.searchsorted(ones, hi + high) - np.searchsorted(ones, hi)
        if len(ones) != rows or (held != counts).any():
            raise ValueError("a snapshot's high bits do not hold its rows")
        j = ranks(counts)
        width = np.repeat(low_width, counts)
        low = packed_at(lows, np.repeat(64 * low_at[:, 0], counts) + j * width,
                        width)
        v = ((ones - np.repeat(hi, counts) - j).astype(np.uint64)
             << width.astype(np.uint64) | low.astype(np.uint64))
        codes = v - j.astype(np.uint64)
        ids = r.u32s(rows).astype(np.int64)
        period = np.repeat(np.arange(periods), counts)
        down = codes[1:] < codes[:-1]
        down |= (codes[1:] == codes[:-1]) & (ids[1:] < ids[:-1])
        if (down & (period[1:] == period[:-1])).any():
            raise ValueError("snapshot cells out of order")
        if not (np.isin(ids, object_ids).all() and np.isin(object_ids, ids).all()):
            raise ValueError("the snapshots do not hold exactly the listed objects")
        return cls(extent, object_ids, periods,
                   period * len(object_ids) + np.searchsorted(object_ids, ids),
                   _compact(codes), _compact(codes >> 1), r.bits(rows))
