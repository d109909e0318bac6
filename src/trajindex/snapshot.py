"""Grid snapshots: a linear quadtree of object cells plus object ids.

A snapshot fixes every object's cell at one instant.  Its rows, one per
object, are sorted by the Morton code of their cell and then by id.  That
order is a linear quadtree (Gargantini, "An effective way to represent
quadtrees", CACM 1982): every quadtree node is a run of consecutive rows,
so a region probe bisects one code range and filters the slice.  On disk
the sorted codes are one Elias-Fano stream, followed by the ids in row
order and a bitmap of entrants.

Objects whose first sample comes after the snapshot instant are carried as
entrants: they are positioned at that first sample so range probes can use
them as candidates, and a bitmap marks them so instant queries can tell
them apart from objects really present.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from trajindex.succinct import (
    BitVector,
    Reader,
    SparseBitVector,
    Writer,
    nbytes,
    write_sparse,
)


@dataclass(frozen=True)
class Region:
    """Inclusive axis-aligned cell range."""

    x1: int
    x2: int
    y1: int
    y2: int

    def __post_init__(self):
        if self.x1 > self.x2 or self.y1 > self.y2:
            raise ValueError(f"degenerate region {self}")

    def contains(self, x: int, y: int) -> bool:
        return self.x1 <= x <= self.x2 and self.y1 <= y <= self.y2


def expanded_region(region: Region, q: int, k: int, max_speed: int,
                    extent: tuple[int, int]) -> Region:
    """Grow a region by the distance an object can cover between k and q.

    Anything inside `region` at instant q must have been inside the result
    at instant k, so probing the snapshot with it yields a complete
    candidate set.
    """
    if q < k:
        raise ValueError("query instant before snapshot instant")
    reach = max_speed * (q - k)
    w, h = extent
    return Region(max(0, region.x1 - reach), min(w - 1, region.x2 + reach),
                  max(0, region.y1 - reach), min(h - 1, region.y2 + reach))


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
    """The largest code on a width x height grid (a code grows with
    either coordinate)."""
    if not (1 <= width <= 1 << 32 and 1 <= height <= 1 << 32):
        raise ValueError(f"grid {width}x{height} must be 1..2**32 cells a side")
    return morton(width - 1, height - 1)


class K2Tree:
    """The quadtree over a width x height grid, as a linear quadtree.

    It holds the Morton code of every row in ascending order, so a cell
    with several objects appears once per object, and the x and y decoded
    from those codes.  A node of the paper's k²-tree (k = 2) at depth t is
    the run of rows whose codes share their top 2t bits.
    """

    def __init__(self, width: int, height: int, codes: np.ndarray):
        """codes: ascending uint64 Morton codes; a code out of order or off
        the grid raises ValueError."""
        _top_code(width, height)
        xs = _compact(codes)
        ys = _compact(codes >> 1)
        if len(codes) and (np.any(codes[1:] < codes[:-1])
                           or xs.max() >= width or ys.max() >= height):
            raise ValueError(f"snapshot cells out of order or off the "
                             f"{width}x{height} grid")
        self.width = width
        self.height = height
        self._codes = array("Q", codes.tolist())
        self.xs = array("I", xs.tolist())
        self.ys = array("I", ys.tolist())

    @classmethod
    def build(cls, width: int, height: int, cells) -> "K2Tree":
        """The column over (x, y) cells, which may repeat."""
        arr = np.asarray(cells, dtype=np.int64).reshape(-1, 2)
        off = (arr < 0) | (arr >= (width, height))
        if off.any():
            x, y = arr[off.any(axis=1)][0]
            raise ValueError(f"cell ({x}, {y}) outside {width}x{height} grid")
        codes = np.sort(morton_codes(arr[:, 0], arr[:, 1]))
        # `write` stores row j's code plus j as an int64
        if len(codes) and int(codes[-1]) + len(codes) >= 1 << 63:
            raise ValueError(f"a snapshot of {len(codes)} rows cannot store "
                             f"the Morton code {codes[-1]}")
        return cls(width, height, codes)

    def __len__(self) -> int:
        return len(self._codes)

    def report_cells(self, region: Region) -> list[tuple[int, int, int]]:
        """(x, y, row) for every row whose cell lies in region, by row.

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
        lo = bisect_left(codes, morton(x1, y1))
        hi = bisect_right(codes, morton(x2, y2), lo)
        return [(x, y, row) for row, x, y in
                zip(range(lo, hi), self.xs[lo:hi], self.ys[lo:hi])
                if x1 <= x <= x2 and y1 <= y <= y2]

    def write(self, w: Writer) -> None:
        """The row count, then the codes as one Elias-Fano stream: row j
        (from 1) sets bit code + j, so equal codes stay apart.  The
        stream's universe follows from the grid and the row count, so
        nothing else is stored."""
        m = len(self._codes)
        w.u32(m)
        codes = np.array(self._codes, dtype=np.uint64)
        write_sparse(w, _top_code(self.width, self.height) + m,
                     codes + np.arange(1, m + 1, dtype=np.uint64))

    @classmethod
    def read(cls, r: Reader, width: int, height: int) -> "K2Tree":
        top = _top_code(width, height)
        m = r.u32()
        stream = SparseBitVector.read(r, top + m, m)
        codes = [p - j for j, p in enumerate(stream.ones(), 1)]
        # corrupt lows can put a code below 0 or past the grid's top code
        if codes and not 0 <= min(codes) <= max(codes) <= top:
            raise ValueError(f"snapshot cell off the {width}x{height} grid")
        return cls(width, height, np.array(codes, dtype=np.uint64))


class Snapshot:
    """All object positions at one instant, probe-able by region."""

    def __init__(self, instant: int, tree: K2Tree, perm, entrants: BitVector):
        """perm: the object id of each row of tree; an id that appears
        twice raises ValueError."""
        perm = np.asarray(perm, dtype=np.int64)
        order = np.argsort(perm, kind="stable")
        ids = perm[order]
        if np.any(ids[1:] == ids[:-1]):
            raise ValueError(f"an object appears twice at instant {instant}")
        self.instant = instant
        self.tree = tree
        self._perm = array("I", perm.tolist())
        self._entrants = entrants
        # ids ascending and the row of each, to find a row by id
        self.ids = array("I", ids.tolist())
        self._rows = array("I", order.tolist())

    @classmethod
    def build(cls, positions, instant: int, extent: tuple[int, int],
              entrant_ids=frozenset()) -> "Snapshot":
        """positions: iterable of (object id, x, y); ids must be unique."""
        rows = sorted(positions, key=lambda r: (morton(r[1], r[2]), r[0]))
        tree = K2Tree.build(*extent, [(x, y) for _, x, y in rows])
        perm = [oid for oid, _, _ in rows]
        entrants = BitVector.from_bits([oid in entrant_ids for oid in perm])
        return cls(instant, tree, perm, entrants)

    @property
    def fix_count(self) -> int:
        """Rows that are fixes at the snapshot's instant, not entrants."""
        return len(self._perm) - self._entrants.count_ones

    def _row(self, oid: int) -> int | None:
        ids = self.ids
        i = bisect_left(ids, oid)
        return self._rows[i] if i < len(ids) and ids[i] == oid else None

    def position_of(self, oid: int) -> tuple[int, int] | None:
        row = self._row(oid)
        return None if row is None else (self.tree.xs[row], self.tree.ys[row])

    def nbytes(self) -> int:
        """Bytes its arrays hold in memory."""
        tree = self.tree
        return (nbytes(tree._codes, tree.xs, tree.ys, self._perm, self.ids,
                       self._rows) + self._entrants.nbytes())

    def is_entrant(self, oid: int) -> bool:
        row = self._row(oid)
        return row is not None and bool(self._entrants.access(row + 1))

    def range_report(self, region: Region,
                     include_entrants: bool = True) -> list[tuple[int, int, int]]:
        """(object id, x, y) for every stored object inside region."""
        perm, entrants = self._perm, self._entrants
        return [(perm[row], x, y) for x, y, row in self.tree.report_cells(region)
                if include_entrants or not entrants.access(row + 1)]

    def write(self, w: Writer) -> None:
        """Codes, ids in row order and entrant bits; the instant and the
        grid are the caller's."""
        self.tree.write(w)
        w.u32s(self._perm)
        self._entrants.write(w)

    @classmethod
    def read(cls, r: Reader, instant: int,
             extent: tuple[int, int]) -> "Snapshot":
        tree = K2Tree.read(r, *extent)
        perm = r.u32s(len(tree))
        return cls(instant, tree, perm, BitVector.read(r, len(tree)))
