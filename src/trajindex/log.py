"""Per-period movement logs with constant-time position extraction.

A log covers one object inside one period of length d starting at instant
k.  Local instants run 1..d-1 (instant k itself belongs to the snapshot
layer).  The log stores the window [first, last] that actually has data, a
bitmap marking instants inside the window with no sample, and per axis a
sign bitmap plus two unary streams holding the magnitudes of non-negative
and negative steps.  The first step is the absolute coordinate, so a
prefix-sum difference of the two streams reconstructs any position.
"""

from __future__ import annotations

import numpy as np

from trajindex.succinct import (
    BitVector,
    Reader,
    SparseBitVector,
    UnaryDeltaStream,
    Writer,
)

# below this fraction of missing instants the gap bitmap goes to the
# compressed representation
_SPARSE_GAP_DENSITY = 0.10


class TimeIndex:
    """Data-presence window of one track: [first, last] plus a gap bitmap.

    Offsets into the window are 1-based; a set bit means the instant has no
    sample.  Dense windows keep the bitmap plain, gappy-but-mostly-full
    windows switch to the compressed form.
    """

    def __init__(self, first: int, last: int, gaps):
        if first < 1 or last < first:
            raise ValueError("bad window bounds")
        self.first = first
        self.last = last
        length = last - first + 1
        self._sparse = len(gaps) < _SPARSE_GAP_DENSITY * length
        if self._sparse:
            self._gapmap = SparseBitVector.from_positions(length, gaps)
        else:
            self._gapmap = BitVector.from_set_positions(length, gaps)

    def __len__(self) -> int:
        return self.last - self.first + 1

    @property
    def gap_count(self) -> int:
        return self._gapmap.count_ones

    @property
    def data_count(self) -> int:
        return len(self) - self.gap_count

    def gaps_upto(self, offset: int) -> int:
        return self._gapmap.rank1(offset)

    def ordinal(self, offset: int) -> int | None:
        """Data ordinal of the instant at window offset, None at a gap.

        One rank on the gap map: the sparse form answers rank and
        membership from a single bucket search, the dense form reads the
        bit and ranks only when the instant has data.
        """
        gapmap = self._gapmap
        if self._sparse:
            gaps, gap = gapmap.rank1_member(offset)
            return None if gap else offset - gaps
        if gapmap.access(offset):
            return None
        return offset - gapmap.rank1(offset)

    def data_offset(self, ordinal: int) -> int:
        """Window offset of the ordinal-th instant that has data."""
        return self._gapmap.select0(ordinal)

    def data_offsets(self, start_ordinal: int = 1):
        return self._gapmap.zeros(start_ordinal)

    def code_bits(self) -> int:
        return self._gapmap.code_bits()

    def write(self, w: Writer) -> None:
        w.u32(self.first, self.last, self.gap_count)
        self._gapmap.write(w)

    @classmethod
    def read(cls, r: Reader) -> "TimeIndex":
        """The window `write` stored; the gap count picks the bitmap kind."""
        first, last, gaps = r.u32(), r.u32(), r.u32()
        if first < 1 or last < first or gaps > last - first:
            raise ValueError(f"bad time window {first}..{last} with {gaps} gaps")
        obj = cls.__new__(cls)
        obj.first = first
        obj.last = last
        length = last - first + 1
        obj._sparse = gaps < _SPARSE_GAP_DENSITY * length
        if obj._sparse:
            obj._gapmap = SparseBitVector.read(r, length, gaps)
        else:
            obj._gapmap = BitVector.read(r, length)
            if obj.gap_count != gaps:
                raise ValueError(f"gap bitmap holds {obj.gap_count} of {gaps} gaps")
        return obj


class AxisDeltas:
    """One coordinate axis: step signs plus unary magnitude streams."""

    def __init__(self, sign: BitVector, pos: UnaryDeltaStream, neg: UnaryDeltaStream):
        self.sign = sign
        self.pos = pos
        self.neg = neg

    @classmethod
    def from_deltas(cls, deltas: np.ndarray) -> "AxisDeltas":
        nonneg = deltas >= 0
        return cls(
            BitVector.from_bits(nonneg),
            UnaryDeltaStream.from_values(deltas[nonneg]),
            UnaryDeltaStream.from_values(-deltas[~nonneg]),
        )

    def value(self, ordinal: int) -> int:
        """Coordinate after the ordinal-th step."""
        p = self.sign.rank1(ordinal)
        return self.pos.prefix_sum(p) - self.neg.prefix_sum(ordinal - p)

    def code_bits(self) -> int:
        return self.sign.code_bits() + self.pos.code_bits() + self.neg.code_bits()

    def write(self, w: Writer) -> None:
        self.sign.write(w)
        self.pos.write(w)
        self.neg.write(w)

    @classmethod
    def read(cls, r: Reader, count: int) -> "AxisDeltas":
        """count steps: the sign bits say how many go to each stream."""
        sign = BitVector.read(r, count)
        pos = UnaryDeltaStream.read(r, sign.count_ones)
        return cls(sign, pos, UnaryDeltaStream.read(r, sign.count_zeros))


class TrajectoryLog:
    """Movement of one object within one period, positions in O(1)."""

    def __init__(self, object_id: int, start: int, period: int,
                 time: TimeIndex, dx: AxisDeltas, dy: AxisDeltas):
        self.object_id = object_id
        self.start = start
        self.period = period
        self.time = time
        self.dx = dx
        self.dy = dy

    @property
    def data_count(self) -> int:
        return self.time.data_count

    def position(self, i: int) -> tuple[int, int] | None:
        """Coordinates at local instant i in 1..period-1, or None."""
        if not 1 <= i <= self.period - 1:
            raise IndexError(f"local instant {i} out of range 1..{self.period - 1}")
        t = self.time
        if i < t.first or i > t.last:
            return None
        ordinal = t.ordinal(i - t.first + 1)
        if ordinal is None:
            return None
        return self.dx.value(ordinal), self.dy.value(ordinal)

    def count_data_upto(self, i: int) -> int:
        """Number of data instants at local instants 1..i (i may be 0)."""
        if not 0 <= i <= self.period - 1:
            raise IndexError(f"local instant {i} out of range 0..{self.period - 1}")
        t = self.time
        if i < t.first:
            return 0
        off = min(i, t.last) - t.first + 1
        return off - t.gaps_upto(off)

    def unmap_ordinal(self, j: int) -> int:
        """Local instant of the j-th data sample."""
        n = self.data_count
        if not 1 <= j <= n:
            raise IndexError(f"ordinal {j} out of range 1..{n}")
        return self.time.data_offset(j) + self.time.first - 1

    def iter_positions(self, frm: int, to: int):
        """Yield (local instant, x, y) for data ordinals frm..to.

        Sequential cursors over the gap bitmap and the four magnitude
        streams keep the whole walk linear in to - frm; each stream opens
        at its sum before frm with one select.
        """
        n = self.data_count
        if not 1 <= frm <= to <= n:
            raise IndexError(f"ordinal range {frm}..{to} out of range 1..{n}")
        sx, sy = self.dx.sign, self.dy.sign
        px = sx.rank1(frm - 1)
        py = sy.rank1(frm - 1)
        it_xp = self.dx.pos.prefix_iter(px)
        it_xn = self.dx.neg.prefix_iter(frm - 1 - px)
        it_yp = self.dy.pos.prefix_iter(py)
        it_yn = self.dy.neg.prefix_iter(frm - 1 - py)
        x_pos, x_neg = next(it_xp), next(it_xn)
        y_pos, y_neg = next(it_yp), next(it_yn)
        offsets = self.time.data_offsets(frm)
        base = self.time.first - 1
        for j in range(frm, to + 1):
            off = next(offsets)
            if sx.access(j):
                x_pos = next(it_xp)
            else:
                x_neg = next(it_xn)
            if sy.access(j):
                y_pos = next(it_yp)
            else:
                y_neg = next(it_yn)
            yield base + off, x_pos - x_neg, y_pos - y_neg

    def scan_positions(self, frm: int, to: int) -> list[tuple[int, int, int]]:
        return list(self.iter_positions(frm, to))

    def code_bits(self) -> int:
        return self.time.code_bits() + self.dx.code_bits() + self.dy.code_bits()

    def write(self, w: Writer) -> None:
        """The window and both axes; id, start and period are the caller's."""
        self.time.write(w)
        self.dx.write(w)
        self.dy.write(w)

    @classmethod
    def read(cls, r: Reader, object_id: int, start: int,
             period: int) -> "TrajectoryLog":
        time = TimeIndex.read(r)
        n = time.data_count
        dx = AxisDeltas.read(r, n)
        return cls(object_id, start, period, time, dx, AxisDeltas.read(r, n))


def build_log(samples, start: int, period: int, object_id: int = 0) -> TrajectoryLog:
    """Build a log from (instant, x, y) rows sorted by instant, given as
    an (n, 3) array or a sequence of triples.

    Instants are global and must fall in start+1 .. start+period-1; the
    instant at start itself is snapshot territory.
    """
    rows = np.asarray(samples, dtype=np.int64).reshape(-1, 3)
    if not len(rows):
        raise ValueError("a log needs at least one sample")
    ts, xs, ys = rows.T
    if (ts[1:] <= ts[:-1]).any():
        raise ValueError("instants must be strictly increasing")
    if ts[0] < start + 1 or ts[-1] > start + period - 1:
        raise ValueError(
            f"instants must lie in {start + 1}..{start + period - 1}")
    local = ts - start
    first, last = int(local[0]), int(local[-1])
    present = np.zeros(last - first + 1, dtype=bool)
    present[local - first] = True
    gaps = np.flatnonzero(~present) + 1
    time = TimeIndex(first, last, gaps)
    dx = AxisDeltas.from_deltas(np.diff(xs, prepend=0))
    dy = AxisDeltas.from_deltas(np.diff(ys, prepend=0))
    return TrajectoryLog(object_id, start, period, time, dx, dy)
