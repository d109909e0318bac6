"""Grid snapshots: one table of every period's object cells and ids.

A snapshot fixes every object's cell at a period's first instant.  The
table holds a row per object and period, period after period, each
period's rows sorted by the Morton code of their cell and then by id.
That order is a linear quadtree (Gargantini, "An effective way to
represent quadtrees", CACM 1982): every quadtree node is a run of a
period's rows, so a region probe bisects one code range and filters the
slice.  On disk the table is one section, written and read whole: each
period's row count, every period's codes as an Elias-Fano set (Vigna,
"Quasi-succinct indices", WSDM 2013), all lows and then all high bits,
each period's from a word boundary, then every row's id and one bitmap
of entrants (see `Snapshot.write`).

Objects whose first sample in a period comes after its first instant are
carried as entrants: they are positioned at that first sample, which a
load checks against the first fix of their log, and a flag marks them so
that probes and instant queries skip them.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from trajindex.succinct import (
    U32_MAX,
    PieceBuffer,
    Reader,
    Writer,
    elias_fano,
    nbytes,
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


class K2Tree:
    """Every period's quadtree over a width x height grid, as linear
    quadtrees back to back: the Morton code of every row, each period's in
    ascending order, so a cell with several objects appears once per
    object, and the x and y decoded from those codes.  A node of the
    paper's k²-tree (k = 2) at depth t is a run of a period's rows whose
    codes share their top 2t bits.
    """

    def __init__(self, width: int, height: int, codes: np.ndarray,
                 starts: np.ndarray):
        """codes: uint64 Morton codes, each period's from its row in starts
        (which ends with the row count) on.  A code off the grid, out of
        order in its period or past what a file stores raises ValueError."""
        _top_code(width, height)
        xs, ys = _compact(codes), _compact(codes >> 1)
        if len(codes) and (xs.max() >= width or ys.max() >= height or not np.isin(
                np.flatnonzero(codes[1:] < codes[:-1]) + 1, starts).all()):
            raise ValueError(f"snapshot cells out of order or off the "
                             f"{width}x{height} grid")
        # `Snapshot.write` stores row j (from 1) of a period as code + j, an
        # int64
        j = np.arange(1, len(codes) + 1) - np.repeat(starts[:-1], np.diff(starts))
        if (codes >= np.uint64(1 << 63) - j.astype(np.uint64)).any():
            raise ValueError(f"a snapshot cannot store the Morton code {codes.max()}")
        self.width, self.height = width, height
        self._codes = array("Q", codes.tobytes())[:]  # [:] drops spare room
        self.xs = array("I", xs.astype(np.uint32).tobytes())[:]
        self.ys = array("I", ys.astype(np.uint32).tobytes())[:]

    def report_cells(self, region: Region, lo: int,
                     hi: int) -> list[tuple[int, int, int]]:
        """(x, y, row) for every row of lo..hi-1, a period's, whose cell
        lies in region, by row; rows count from lo.

        Every cell of the region has a code between those of its lowest
        and its highest corner, so the rows to test are one slice.
        """
        x1 = max(region.x1, 0)
        y1 = max(region.y1, 0)
        x2 = min(region.x2, self.width - 1)
        y2 = min(region.y2, self.height - 1)
        if x1 > x2 or y1 > y2:
            return []
        codes = self._codes
        a = bisect_left(codes, morton(x1, y1), lo, hi)
        b = bisect_right(codes, morton(x2, y2), a, hi)
        spans = zip(range(a - lo, b - lo), self.xs[a:b], self.ys[a:b])
        # ints past the small-int cache that outlive the list slow the
        # caller's loop over it by 2-3%, so a and b go first
        del a, b
        return [(x, y, row) for row, x, y in spans
                if x1 <= x <= x2 and y1 <= y <= y2]


class Snapshot:
    """Every period's object positions, probe-able by region: each row's
    object id and entrant flag (a byte) beside its code in `tree`, and
    for the lookup by object each period's rows by object index."""

    def __init__(self, extent: tuple[int, int], object_ids: np.ndarray,
                 codes: np.ndarray, ids, entrants, counts):
        """codes, ids, entrants: each row's Morton code, object id and
        entrant flag (0 or 1), period after period in `K2Tree` order;
        counts: each period's rows.  Ids other than the ascending object_ids,
        an id twice in a period, or codes `K2Tree` refuses raise ValueError."""
        starts = np.r_[0, np.cumsum(counts, dtype=np.int64)]
        self.tree = K2Tree(*extent, codes, starts)
        ids = np.asarray(ids, dtype=np.int64)
        if not (np.isin(ids, object_ids).all() and np.isin(object_ids, ids).all()):
            raise ValueError("the snapshots do not hold exactly the listed objects")
        # period << 32 | object index, ascending
        keys = (np.repeat(np.arange(len(counts)), counts) << 32
                | np.searchsorted(object_ids, ids))
        order = np.argsort(keys, kind="stable")
        if (np.diff(keys[order]) == 0).any():
            raise ValueError("an object appears twice in a period's snapshot")
        self._starts = starts.tolist()  # a probe makes no int (see report_cells)
        self._ids = array("I", ids.astype(np.uint32).tobytes())[:]  # see K2Tree
        self._entrants = np.asarray(entrants, dtype=np.uint8).tobytes()
        self._by_index = array("I", keys[order].astype(np.uint32).tobytes())[:]
        self._rows = array("I", order.astype(np.uint32).tobytes())[:]

    def __len__(self) -> int:
        """The periods."""
        return len(self._starts) - 1

    @property
    def fix_count(self) -> int:
        """Rows that are fixes, not entrants."""
        return len(self._entrants) - self._entrants.count(1)

    def nbytes(self) -> int:
        """Bytes its arrays hold, and 40 a period start (slot and int)."""
        return len(self._entrants) + 40 * len(self._starts) + nbytes(
            self.tree._codes, self.tree.xs, self.tree.ys, self._ids,
            self._by_index, self._rows)

    def fix(self, p: int, i: int) -> tuple[int, int] | None:
        """(x, y) of object index i at period p's first instant, or None
        where the period has no row for it or an entrant's."""
        by_index, hi = self._by_index, self._starts[p + 1]
        j = bisect_left(by_index, i, self._starts[p], hi)
        if j == hi or by_index[j] != i or self._entrants[row := self._rows[j]]:
            return None
        return self.tree.xs[row], self.tree.ys[row]

    def cells(self, p: np.ndarray, i: np.ndarray):
        """The x, y and entrant flag of the row of each (period p, object
        index i), as arrays; a pair with no row raises ValueError."""
        keys = (np.repeat(np.arange(len(self)), np.diff(self._starts)) << 32
                | np.asarray(self._by_index))
        at = np.minimum(np.searchsorted(keys, p << 32 | i), len(keys) - 1)
        if (keys[at] != p << 32 | i).any():
            raise ValueError("a log has no row in its period's snapshot")
        row = np.asarray(self._rows)[at]
        return (np.asarray(self.tree.xs)[row], np.asarray(self.tree.ys)[row],
                np.frombuffer(self._entrants, dtype=np.uint8)[row])

    def range_report(self, region: Region, p: int) -> list[tuple[int, int, int]]:
        """(object id, x, y) for every fix of period p's first instant
        inside region, by row; no entrant is reported."""
        lo, hi = self._starts[p], self._starts[p + 1]
        cells = self.tree.report_cells(region, lo, hi)
        ids, entrants = self._ids[lo:hi], self._entrants[lo:hi]
        return [(ids[row], x, y) for x, y, row in cells if not entrants[row]]

    def write(self, w: Writer) -> None:
        """The table as a file holds it: the row counts; every period's
        codes, its row j (from 1) as member code + j of a set over [1, top
        + rows], lows then high bits; the ids; the entrant bitmap."""
        counts = np.diff(self._starts)
        w.u32s(counts)
        low_width, high = elias_fano(_top_code(self.tree.width,
                                               self.tree.height), counts)
        period, j = np.repeat(np.arange(len(counts)), counts), ranks(counts)
        v = np.asarray(self.tree._codes, dtype=np.int64) + j
        shift = low_width[period]
        lows = PieceBuffer((counts * low_width)[:, None])
        highs = PieceBuffer(high[:, None])
        lows.packed(0, period, j, v - (v >> shift << shift), low_width)
        highs.ones(0, period, (v >> shift) + j)
        w += lows.tobytes()
        w += highs.tobytes()
        w.u32s(self._ids)
        w.bits(np.frombuffer(self._entrants, dtype=np.uint8))

    @classmethod
    def read(cls, r: Reader, extent: tuple[int, int], object_ids: np.ndarray,
             periods: int) -> "Snapshot":
        """The table `write` stored, decoded in one numpy pass.  Row counts
        past the objects or the file, checked before any array is sized
        by them, high bits with other than each period's rows, a bit set
        past the lows or the high bits, or what the constructor refuses
        raise ValueError."""
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
        return cls(extent, object_ids, v - j.astype(np.uint64), r.u32s(rows),
                   r.bits(rows), counts)
