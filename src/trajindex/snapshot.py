"""Grid snapshots: quadtree bitmaps over occupied cells plus object lists.

A snapshot fixes every object's cell at one instant.  Occupied cells go
into a quadtree of per-level bitmaps (each node spends four bits on child
occupancy, children addressed by rank), object ids are permuted into cell
order, and a unary stream records how many ids land in each occupied cell.
Objects whose first sample comes after the snapshot instant are carried as
entrants: they are positioned at that first sample so range probes can use
them as candidates, and a bitmap marks them so instant queries can tell
them apart from objects really present.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from trajindex.succinct import BitVector, Reader, UnaryDeltaStream, Writer


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


def _spread_bits(v: np.ndarray) -> np.ndarray:
    v = v.astype(np.uint64)
    v = (v | (v << np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
    v = (v | (v << np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
    v = (v | (v << np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    v = (v | (v << np.uint64(2))) & np.uint64(0x3333333333333333)
    v = (v | (v << np.uint64(1))) & np.uint64(0x5555555555555555)
    return v


def morton_codes(x, y) -> np.ndarray:
    """Interleave coordinate bits, x in the even positions."""
    xs = np.asarray(x, dtype=np.uint64)
    ys = np.asarray(y, dtype=np.uint64)
    return _spread_bits(xs) | (_spread_bits(ys) << np.uint64(1))


# a node's four children: their bits after the node's base, and their x
# and y offsets in units of the child's side
_CHILD_BIT = np.array([1, 2, 3, 4], dtype=np.int64)
_CHILD_X = np.array([0, 1, 0, 1], dtype=np.int64)
_CHILD_Y = np.array([0, 0, 1, 1], dtype=np.int64)


def _side(width: int, height: int) -> int:
    # smallest power of two, at least 2, that covers the grid
    return 1 << max(1, int(max(width, height) - 1).bit_length())


class K2Tree:
    """Quadtree over a square power-of-two grid as per-level bitmaps.

    Level t holds four bits per node alive at depth t, in breadth-first
    order; a set bit means the quadrant holds at least one occupied cell.
    The last level's set bits are the occupied cells themselves, in
    Morton order.
    """

    def __init__(self, width: int, height: int, side: int,
                 levels: list[BitVector]):
        self.width = width
        self.height = height
        self.side = side
        self.levels = levels

    @classmethod
    def build(cls, width: int, height: int, cells) -> "K2Tree":
        if width < 1 or height < 1:
            raise ValueError("extent must be positive")
        side = _side(width, height)
        depth_total = side.bit_length() - 1
        arr = np.asarray(cells, dtype=np.int64).reshape(-1, 2)
        codes = np.sort(morton_codes(arr[:, 0], arr[:, 1]))
        if len(codes) and len(np.unique(codes)) != len(codes):
            raise ValueError("duplicate cells")
        levels: list[BitVector] = []
        bases = np.zeros(1, dtype=np.uint64)
        for t in range(depth_total):
            if len(bases) == 0 or len(codes) == 0:
                levels.append(BitVector.from_bits(
                    np.zeros(4 * len(bases), dtype=np.uint8)))
                bases = bases[:0]
                continue
            step = np.uint64(1 << (2 * (depth_total - t - 1)))
            bounds = bases[:, None] + np.arange(5, dtype=np.uint64) * step
            cuts = np.searchsorted(codes, bounds.ravel()).reshape(-1, 5)
            counts = np.diff(cuts, axis=1)
            bits = counts.ravel() > 0
            levels.append(BitVector.from_bits(bits))
            child_bases = (bases[:, None]
                           + np.arange(4, dtype=np.uint64) * step).ravel()
            bases = child_bases[bits]
        return cls(width, height, side, levels)

    @property
    def cell_count(self) -> int:
        return self.levels[-1].count_ones if self.levels else 0

    def report_cells(self, region: Region) -> list[tuple[int, int, int]]:
        """Occupied cells intersecting region as (x, y, rank).

        Rank is the cell's 1-based index among all occupied cells in leaf
        order, which is what the per-cell object lists are keyed by.  The
        descent goes one level at a time: the four child bits of every
        node still alive are read and ranked in one numpy pass, and the
        children that are empty or miss the region are dropped.  Nodes
        stay in bit order on every level, so the cells come out by rank.
        """
        x1 = max(region.x1, 0)
        y1 = max(region.y1, 0)
        x2 = min(region.x2, self.width - 1)
        y2 = min(region.y2, self.height - 1)
        if x1 > x2 or y1 > y2:
            return []
        base = np.zeros(1, dtype=np.int64)  # bits before a node's children
        xs = ys = base
        size = self.side
        for level in self.levels:
            size >>= 1
            cx = (xs[:, None] + _CHILD_X * size).ravel()
            cy = (ys[:, None] + _CHILD_Y * size).ravel()
            bits, ranks = level.access_rank1((base[:, None] + _CHILD_BIT).ravel())
            keep = (bits & (cx <= x2) & (cx + size > x1)
                    & (cy <= y2) & (cy + size > y1))
            xs, ys, ranks = cx[keep], cy[keep], ranks[keep]
            if not len(ranks):
                return []
            base = 4 * (ranks - 1)
        return list(zip(xs.tolist(), ys.tolist(), ranks.tolist()))

    def code_bits(self) -> int:
        return sum(level.code_bits() for level in self.levels)

    def write(self, w: Writer) -> None:
        for level in self.levels:
            level.write(w)

    @classmethod
    def read(cls, r: Reader, width: int, height: int) -> "K2Tree":
        """The tree over a width x height grid: the side fixes the depth,
        and each level has four bits per one in the level above."""
        side = _side(width, height)
        levels = []
        alive = 1
        for _ in range(side.bit_length() - 1):
            levels.append(BitVector.read(r, 4 * alive))
            alive = levels[-1].count_ones
        return cls(width, height, side, levels)


class Snapshot:
    """All object positions at one instant, probe-able by region."""

    def __init__(self, instant: int, tree: K2Tree, perm: np.ndarray,
                 cell_counts: UnaryDeltaStream, entrants: BitVector):
        self.instant = instant
        self.tree = tree
        self._perm = perm
        self._counts = cell_counts
        self._entrants = entrants
        self._by_id: dict[int, tuple[int, int, bool]] = {}
        full = Region(0, tree.width - 1, 0, tree.height - 1)
        for idx, x, y in self._occupants(full):
            oid = int(perm[idx])
            self._by_id[oid] = (x, y, bool(entrants.access(idx + 1)))

    @classmethod
    def build(cls, positions, instant: int, extent: tuple[int, int],
              entrant_ids=frozenset()) -> "Snapshot":
        """positions: iterable of (object id, x, y); ids must be unique."""
        rows = list(positions)
        w, h = extent
        seen = set()
        for oid, x, y in rows:
            if oid in seen:
                raise ValueError(f"object {oid} appears twice at instant {instant}")
            seen.add(oid)
            if not (0 <= x < w and 0 <= y < h):
                raise ValueError(f"object {oid} at ({x}, {y}) outside {w}x{h} grid")
        if rows:
            ids = np.array([r[0] for r in rows], dtype=np.uint32)
            codes = morton_codes([r[1] for r in rows], [r[2] for r in rows])
            order = np.lexsort((ids, codes))
            ids = ids[order]
            codes = codes[order]
            xs = np.array([r[1] for r in rows], dtype=np.int64)[order]
            ys = np.array([r[2] for r in rows], dtype=np.int64)[order]
            boundary = np.flatnonzero(np.diff(codes)) + 1
            starts = np.concatenate([[0], boundary])
            ends = np.concatenate([boundary, [len(codes)]])
            cells = np.column_stack([xs[starts], ys[starts]])
            counts = ends - starts
        else:
            ids = np.zeros(0, dtype=np.uint32)
            cells = np.zeros((0, 2), dtype=np.int64)
            counts = np.zeros(0, dtype=np.int64)
        tree = K2Tree.build(w, h, cells)
        entrants = BitVector.from_bits(
            np.array([oid in entrant_ids for oid in ids], dtype=np.uint8))
        return cls(instant, tree, ids,
                   UnaryDeltaStream.from_values(counts), entrants)

    @property
    def object_count(self) -> int:
        return len(self._perm)

    def position_of(self, oid: int) -> tuple[int, int] | None:
        entry = self._by_id.get(oid)
        return (entry[0], entry[1]) if entry else None

    def is_entrant(self, oid: int) -> bool:
        entry = self._by_id.get(oid)
        return bool(entry and entry[2])

    def range_report(self, region: Region,
                     include_entrants: bool = True) -> list[tuple[int, int, int]]:
        """(object id, x, y) for every stored object inside region."""
        perm, entrants = self._perm, self._entrants
        return [(int(perm[idx]), x, y) for idx, x, y in self._occupants(region)
                if include_entrants or not entrants.access(idx + 1)]

    def _occupants(self, region: Region):
        """Yield (index into perm, x, y) for every object in a cell that
        meets region.  The cells come by rank, so one sequential walk over
        the cell counts, from the first reported cell to the last, gives
        every cell's slice of perm."""
        cells = self.tree.report_cells(region)
        if not cells:
            return
        at = cells[0][2] - 1  # the cell whose prefix sum `hi` holds
        sums = self._counts.prefix_iter(at)
        hi = next(sums)
        for x, y, rank in cells:
            while at < rank:
                lo, hi = hi, next(sums)
                at += 1
            for idx in range(lo, hi):
                yield idx, x, y

    def code_bits(self) -> int:
        return (self.tree.code_bits() + 32 * len(self._perm)
                + self._counts.code_bits() + self._entrants.code_bits())

    def write(self, w: Writer) -> None:
        """Quadtree, cell counts, ids and entrant bits; the instant and the
        grid are the caller's."""
        self.tree.write(w)
        self._counts.write(w)
        w.u32s(self._perm)
        self._entrants.write(w)

    @classmethod
    def read(cls, r: Reader, instant: int,
             extent: tuple[int, int]) -> "Snapshot":
        tree = K2Tree.read(r, *extent)
        counts = UnaryDeltaStream.read(r, tree.cell_count)
        perm = r.u32s(counts.total)
        return cls(instant, tree, perm, counts, BitVector.read(r, len(perm)))
