"""Per-period movement logs with constant-time position extraction.

A log covers one object inside one period of length d starting at instant
k.  Local instants run 1..d-1 (instant k itself belongs to the snapshot
layer).  The log stores the window [first, last] that actually has data,
the sparse set of the instants inside the window with no sample, and per
axis a sign bitmap plus two unary streams holding the magnitudes of
non-negative and negative steps.  The first step is the absolute
coordinate, so a prefix-sum difference of the two streams reconstructs
any position.

A log lives in two pools (see `succinct`): its bitmaps back to back in a
bit pool, in file order, and its packed lows in a word pool.  A tuple of
ints, its fields, says where; an index keeps them as one fixed-width
record per log.  The functions here answer from the fields, and the
classes are views over them.
"""

from __future__ import annotations

from itertools import count

import numpy as np

from trajindex.encoder import standalone
from trajindex.succinct import (
    BitPool,
    BitVector,
    PoolBuilder,
    Reader,
    SparseBitVector,
    UnaryDeltaStream,
    WideWriter,
    Writer,
    rank1,
    sparse_search,
    sparse_select0,
    sparse_select1,
    unary_prefixes,
    write_sparse,
)

# A log's fields, in file order (see `succinct` for a sparse set's six):
#   0 first, 1 last, 2 gap count;
#   3..7 the gap map, the sparse set of the gaps over the window, whose
#        fifth field, 7, is the data count;
#   8..19, then 20..31, the x and the y axis: the sign bits' first word,
#        the ones before them, then the sparse sets of the non-negative and
#        of the negative stream's sums;
#   32 the word after the last bitmap, 33 the word pool's next word.
# The words of each bitmap end where the next one's begin.
X_AXIS, Y_AXIS = 8, 20
LOG_FIELDS = 34


def _read_window(r: Reader, pb: PoolBuilder) -> tuple[int, ...]:
    first, last, gaps = r.u32(), r.u32(), r.u32()
    if first < 1 or last < first or gaps > last - first:
        raise ValueError(f"bad time window {first}..{last} with {gaps} gaps")
    return (first, last, gaps, *pb.sparse(r, last - first + 1, gaps))


def read_fields(r: Reader, pb: PoolBuilder) -> tuple[int, ...]:
    """Copy the log r holds next into pb's pools; its fields."""
    f = _read_window(r, pb)
    # the axes are joined apart from the window's eight fields: CPython
    # 3.11 puts a freed 20-tuple on its free list but never takes one off,
    # so a 20-field tuple per log would stay allocated
    axes = ()
    for _ in (X_AXIS, Y_AXIS):
        base, ones, m = pb.bitmap(r, f[7])
        axes += (base, ones, *pb.stream(r, m), *pb.stream(r, f[7] - m))
    return f + axes + (pb.bit_base(), pb.word_base())


def data_count(f) -> int:
    """Instants with data in the log with fields f."""
    return f[7]


def _gaps_upto(bits, words, f, off):
    return sparse_search(bits, words, f, 3, off)[0] if f[2] and off else 0


def _ordinal(bits, words, f, off):
    # data ordinal at window offset off, None at a gap: one bucket search
    # of the gap map answers rank and membership
    if not f[2]:
        return off
    gaps, gap = sparse_search(bits, words, f, 3, off)
    return None if gap else off - gaps


def _count_upto(bits, words, f, i):
    if i < f[0]:
        return 0
    if i >= f[1]:
        return f[7]
    return i - f[0] + 1 - _gaps_upto(bits, words, f, i - f[0] + 1)


def ordinal_range(bits: BitPool, words, f, lo: int, hi: int) -> tuple[int, int]:
    """First and last data ordinals among local instants lo..hi of the
    log with fields f; the first is past the last when none has data."""
    return _count_upto(bits, words, f, lo - 1) + 1, _count_upto(bits, words, f, hi)


def _value(bits, words, f, a, ordinal):
    # coordinate after the ordinal-th step on the axis at f[a]: the sum of
    # its first p non-negative steps less that of the other ordinal - p
    p = rank1(bits, f[a], f[a + 1], ordinal)
    v = sparse_select1(bits, words, f, a + 2, p) - p if p else 0
    q = ordinal - p
    return v - (sparse_select1(bits, words, f, a + 7, q) - q) if q else v


def position_at(bits: BitPool, words, f, i: int) -> tuple[int, int] | None:
    """Coordinates at local instant i of the log with fields f, or None;
    i is not range-checked."""
    if i < f[0] or i > f[1]:
        return None
    ordinal = _ordinal(bits, words, f, i - f[0] + 1)
    if ordinal is None:
        return None
    return (_value(bits, words, f, X_AXIS, ordinal),
            _value(bits, words, f, Y_AXIS, ordinal))


class TimeIndex:
    """Data-presence window of one track: [first, last] plus the sparse
    set of its gaps.

    Offsets into the window are 1-based; a member of the set is an instant
    with no sample.
    """

    __slots__ = ("_bits", "_words", "_f")

    def __init__(self, first: int, last: int, gaps):
        """A window of its own, in private pools."""
        if first < 1 or last < first:
            raise ValueError("bad window bounds")
        w = WideWriter()
        w.u32(first, last, len(gaps))
        write_sparse(w, last - first + 1, gaps)
        self._bits, self._words, self._f = _read_standalone(w.reader())

    @classmethod
    def _of(cls, bits: BitPool, words, f) -> "TimeIndex":
        ti = cls.__new__(cls)
        ti._bits, ti._words, ti._f = bits, words, f
        return ti

    @property
    def first(self) -> int:
        return self._f[0]

    @property
    def last(self) -> int:
        return self._f[1]

    @property
    def _gapmap(self) -> SparseBitVector:
        return SparseBitVector(self._bits, self._words, self._f, 3, self._f[2])

    def __len__(self) -> int:
        return self._f[1] - self._f[0] + 1

    @property
    def gap_count(self) -> int:
        return self._f[2]

    @property
    def data_count(self) -> int:
        return self._f[7]

    def gaps_upto(self, offset: int) -> int:
        return _gaps_upto(self._bits, self._words, self._f, offset)

    def ordinal(self, offset: int) -> int | None:
        """Data ordinal of the instant at window offset, None at a gap."""
        return _ordinal(self._bits, self._words, self._f, offset)

    def data_offset(self, ordinal: int) -> int:
        """Window offset of the ordinal-th instant that has data."""
        return sparse_select0(self._bits, self._words, self._f, 3, self._f[2],
                              ordinal)

    def data_offsets(self, start_ordinal: int = 1):
        return self._gapmap.zeros(start_ordinal)

    def code_bits(self) -> int:
        return self._gapmap.code_bits()

    def write(self, w: Writer) -> None:
        w.u32(*self._f[:3])
        self._gapmap.write(w)

    @classmethod
    def read(cls, r: Reader) -> "TimeIndex":
        """The window `write` stored."""
        return cls._of(*_read_standalone(r))


def _read_standalone(r: Reader):
    pb = PoolBuilder()
    f = _read_window(r, pb) + (pb.bit_base(),)
    return pb.bit_pool(), pb.word_pool(), f


class AxisDeltas:
    """One coordinate axis: step signs plus unary magnitude streams."""

    __slots__ = ("_bits", "_words", "_f", "_a")

    def __init__(self, bits: BitPool, words, f, a: int):
        """The axis whose fields start at f[a]."""
        self._bits, self._words, self._f, self._a = bits, words, f, a

    def _nonneg(self) -> int:
        return self._f[self._a + 3] - self._f[self._a + 1]

    @property
    def sign(self) -> BitVector:
        f, a = self._f, self._a
        return BitVector(self._bits, f[a], f[7], f[a + 1], self._nonneg())

    @property
    def pos(self) -> UnaryDeltaStream:
        m = self._nonneg()
        return UnaryDeltaStream(
            SparseBitVector(self._bits, self._words, self._f, self._a + 2, m), m)

    @property
    def neg(self) -> UnaryDeltaStream:
        m = self._f[7] - self._nonneg()
        return UnaryDeltaStream(
            SparseBitVector(self._bits, self._words, self._f, self._a + 7, m), m)

    def code_bits(self) -> int:
        return self.sign.code_bits() + self.pos.code_bits() + self.neg.code_bits()

    def write(self, w: Writer) -> None:
        self.sign.write(w)
        self.pos.write(w)
        self.neg.write(w)


class TrajectoryLog:
    """Movement of one object within one period, positions in O(1)."""

    __slots__ = ("_bits", "_words", "_f", "object_id", "start", "period")

    def __init__(self, bits: BitPool, words, f, object_id: int, start: int,
                 period: int):
        """The log with fields f in the pools bits and words."""
        self._bits, self._words, self._f = bits, words, f
        self.object_id = object_id
        self.start = start
        self.period = period

    @property
    def time(self) -> TimeIndex:
        return TimeIndex._of(self._bits, self._words, self._f)

    @property
    def dx(self) -> AxisDeltas:
        return AxisDeltas(self._bits, self._words, self._f, X_AXIS)

    @property
    def dy(self) -> AxisDeltas:
        return AxisDeltas(self._bits, self._words, self._f, Y_AXIS)

    @property
    def data_count(self) -> int:
        return self._f[7]

    def position(self, i: int) -> tuple[int, int] | None:
        """Coordinates at local instant i in 1..period-1, or None."""
        if not 1 <= i <= self.period - 1:
            raise IndexError(f"local instant {i} out of range 1..{self.period - 1}")
        return position_at(self._bits, self._words, self._f, i)

    def count_data_upto(self, i: int) -> int:
        """Number of data instants at local instants 1..i (i may be 0)."""
        if not 0 <= i <= self.period - 1:
            raise IndexError(f"local instant {i} out of range 0..{self.period - 1}")
        return _count_upto(self._bits, self._words, self._f, i)

    def unmap_ordinal(self, j: int) -> int:
        """Local instant of the j-th data sample."""
        n = self.data_count
        if not 1 <= j <= n:
            raise IndexError(f"ordinal {j} out of range 1..{n}")
        if j == 1 or j == n:  # a log's window begins and ends with data
            return self._f[1 if j > 1 else 0]
        f = self._f
        return sparse_select0(self._bits, self._words, f, 3, f[2], j) + f[0] - 1

    def iter_positions(self, frm: int, to: int):
        """Yield (local instant, x, y) for data ordinals frm..to.

        Sequential cursors over the gap map and the four magnitude
        streams keep the whole walk linear in to - frm; each stream opens
        at its sum before frm with one select.
        """
        n = self.data_count
        if not 1 <= frm <= to <= n:
            raise IndexError(f"ordinal range {frm}..{to} out of range 1..{n}")
        bits, words, f = self._bits, self._words, self._f
        walks = []
        for a in (X_AXIS, Y_AXIS):
            m = f[a + 3] - f[a + 1]
            p = rank1(bits, f[a], f[a + 1], frm - 1)
            walks += (unary_prefixes(bits, words, f, a + 2, m, p),
                      unary_prefixes(bits, words, f, a + 7, n - m, frm - 1 - p))
        it_xp, it_xn, it_yp, it_yn = walks
        x_pos, x_neg = next(it_xp), next(it_xn)
        y_pos, y_neg = next(it_yp), next(it_yn)
        offsets = self.time.data_offsets(frm) if f[2] else count(frm)
        # the sign bits of ordinal j, read straight from the pool
        pool, sx, sy = bits.words, (f[X_AXIS] << 6) - 1, (f[Y_AXIS] << 6) - 1
        base = f[0] - 1
        for j in range(frm, to + 1):
            off = next(offsets)
            if pool[(sx + j) >> 6] >> ((sx + j) & 63) & 1:
                x_pos = next(it_xp)
            else:
                x_neg = next(it_xn)
            if pool[(sy + j) >> 6] >> ((sy + j) & 63) & 1:
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
        """A log of its own, in private pools."""
        pb = PoolBuilder()
        f = read_fields(r, pb)
        return cls(pb.bit_pool(), pb.word_pool(), f, object_id, start, period)


def build_log(samples, start: int, period: int, object_id: int = 0) -> TrajectoryLog:
    """A log of its own over (instant, x, y) rows sorted by instant, given
    as an (n, 3) array or a sequence of triples.

    Instants are global and must fall in start+1 .. start+period-1; the
    instant at start itself is snapshot territory.
    """
    rows = np.asarray(samples, dtype=np.int64).reshape(-1, 3)
    if not len(rows):
        raise ValueError("a log needs at least one sample")
    r = standalone(*rows.T, start, period, len(rows))
    return TrajectoryLog.read(r, object_id, start, period)
