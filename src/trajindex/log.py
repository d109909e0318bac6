"""Per-period movement logs with constant-time position extraction.

A log covers one object inside one period of length d starting at instant
k.  Local instants run 1..d-1 (instant k itself belongs to the snapshot
layer).  The log stores the window [first, last] that actually has data,
the sparse set of the instants inside the window with no sample, and its
speed bound s, the largest step rate on either axis, rounded up.  Its
steps go 2**BLOCK_SHIFT to a block, and per axis each block has a speed
bound s_b <= s no less than its own steps' rates.  Within a block
x_j + s_b*t_j never decreases, so per axis the log stores the first
coordinate and one unary stream of the non-negative increments
dx + s_b*dt, as the Elias-Fano set of their prefix sums (the
quasi-succinct layout of Vigna, WSDM 2013).  The drift, the sum of s_b*dt
over the steps up to fix j, is s_b*(t_j - t_1) + o_b for an offset o_b of
the block of j's last step, so a position is one select per axis:

    x_j = x_1 + prefix(j - 1) - s*(t_j - t_1) + r_b*(t_j - t_1) - o_b

where r_b = s - s_b is the block's reduction.  Per block and axis the log
stores r_b and o_b in packed arrays.  An axis takes s_b = its own largest
rate in every block, which needs no offsets, unless the blocks' own rates
make it smaller; then one fast step inflates only its own block's
increments, not the whole log's.  A log whose entries are all 0 stores
none and reads none.

A log and its box tree live in two pools (see `succinct`), the bit pool
and the word pool, laid out as the file holds them (see `encoder`).  A
tuple of ints, its record, says where each piece begins; `records` works
every record of an index out from the stored fields in one numpy pass,
and an index keeps them as one fixed-width table.  The functions here
answer from a record, and the classes are views over it.
"""

from __future__ import annotations

from array import array
from itertools import count

import numpy as np

from trajindex import encoder
from trajindex.encoder import BLOCK_SHIFT
from trajindex.succinct import (
    BitPool,
    BitVector,
    PackedIntArray,
    SparseBitVector,
    UnaryDeltaStream,
    elias_fano,
    sparse_search,
    sparse_select0,
    sparse_select1,
    unary_prefixes,
    word_starts,
    words_from,
)

# A log's record (see `succinct` for a sparse set's six fields):
#   0 first, 1 last, 2 gap count;
#   3..7 the gap map, the sparse set of the gaps over the window, whose
#        fifth field, 7, is the data count;
#   8..12, then 13..17, the x and the y axis: the sparse set of its
#        stream's prefix sums, whose fifth field is the stream's total;
#   18 the word after the last bitmap;
#   19 the speed bound s; 20 the widths of the four entry arrays, the x
#      reductions and offsets and the y ones, a byte each, 0 when the log
#      stores none; 21 the first word of the first array, each of the
#      others starting at the word after the one before;
#   22 the first x, 23 the first y; 24 the word pool's next word, where
#      its tree's diffs begin;
#   25..28 the tree's root box, 29 its diff width.
# The words of each bitmap end where the next one's begin.
X_AXIS, Y_AXIS = 8, 13
SPEED, WIDTHS, ENTRIES, X_FIRST, Y_FIRST = 19, 20, 21, 22, 23
LOG_FIELDS = 25
TREE = LOG_FIELDS - 1  # the tree's fields (see `MbrTree`) start here
RECORD_FIELDS = LOG_FIELDS + 5
# the record field of each u32 field the file stores, in file order
FILE_FIELDS = [0, 1, 2, SPEED, WIDTHS, X_FIRST, X_AXIS + 4, Y_FIRST,
               Y_AXIS + 4, TREE + 5, TREE + 1, TREE + 2, TREE + 3, TREE + 4]
_SETS = np.array([3, X_AXIS, Y_AXIS])  # each sparse set's first field


def records(u32s: np.ndarray, leaf_capacity: int) -> tuple[np.ndarray, int, int]:
    """The records, an int64 row of RECORD_FIELDS each, of the logs and
    trees whose stored fields are the rows of u32s and whose pieces fill
    a bit pool and a word pool in row order; and the words each pool
    takes.  The ones before each sparse set are left 0 for `bit_pool`.

    Fields must pass `piece_bits`'s conditions."""
    high, low, low_width = encoder.piece_bits(u32s, leaf_capacity)
    high_at, bit_words = word_starts(high)
    low_at, word_words = word_starts(low)
    f = np.zeros((len(u32s), RECORD_FIELDS), dtype=np.int64)
    f[:, FILE_FIELDS] = u32s
    f[:, _SETS] = high_at
    f[:, _SETS + 2] = low_at[:, [encoder.GAP_LOWS, encoder.X_LOWS,
                                 encoder.Y_LOWS]]
    f[:, _SETS + 3] = low_width
    f[:, 7] = u32s[:, 1] - u32s[:, 0] + 1 - u32s[:, 2]
    f[:, Y_AXIS + 5] = high_at[:, -1] + ((high[:, -1] + 63) >> 6)
    f[:, ENTRIES] = low_at[:, encoder.ENTRIES]
    f[:, TREE] = low_at[:, encoder.DIFFS]
    return f, bit_words, word_words


def bit_pool(f: np.ndarray, data) -> BitPool:
    """The bit pool of the records f, from its words in data, with the
    ones before each sparse set filled into f.  High bits that hold other
    than their set's member count, or have a bit set past their end,
    raise ValueError."""
    bits = BitPool(data)
    base, end = f[:, _SETS], f[:, _SETS + 5]
    ones = bits.ones_before(base)
    m = np.column_stack((f[:, 2], f[:, 7] - 1, f[:, 7] - 1))
    if (bits.ones_before(end) - ones != m).any():
        raise ValueError("a log's sparse set holds the wrong number of ones")
    f[:, _SETS + 1] = ones
    tail = elias_fano(f[:, _SETS + 4] + m, m)[1] & 63
    padded = tail > 0
    last = np.frombuffer(bits.words, dtype=np.uint64)[end[padded] - 1]
    if (last >> tail[padded].astype(np.uint64)).any():
        raise ValueError("bitmap has bits set past its end")
    return bits


def private_pools(rows: np.ndarray, start: int, period: int,
                  leaf_capacity: int) -> tuple[BitPool, array, tuple]:
    """One log of (instant, x, y) rows and its tree in pools of their own:
    the bit pool, the word pool and the record.  No field is held to a
    u32, so a log off any grid still builds."""
    u32s, bit_bytes, word_bytes = encoder.encode(
        *rows.T, [0], [start], period, leaf_capacity)
    f = records(u32s, leaf_capacity)[0]
    return bit_pool(f, bit_bytes), words_from(word_bytes), tuple(f[0].tolist())


def _blocks(n: int) -> int:
    # blocks of the n - 1 steps of a log of n fixes
    return (n + (1 << BLOCK_SHIFT) - 2) >> BLOCK_SHIFT


def _entries(words, f, k: int) -> PackedIntArray:
    # entry array k: the x reductions, x offsets, y reductions, y offsets
    blocks, base = _blocks(f[7]), f[ENTRIES]
    for i in range(k):
        base += (blocks * (f[WIDTHS] >> 8 * i & 255) + 63) >> 6
    return PackedIntArray(words, base, blocks, f[WIDTHS] >> 8 * k & 255)


def _drift(words, f, a: int, b: int) -> tuple[int, int]:
    # the reduction and the offset of block b on axis a, 0 for x, 1 for y
    z = _entries(words, f, 2 * a + 1)[b]
    return _entries(words, f, 2 * a)[b], (z >> 1) ^ -(z & 1)


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


def has_data(bits: BitPool, words, f, lo: int, hi: int) -> bool:
    """Whether any of local instants lo..hi of the log with fields f has
    data.  The window begins and ends with data and holds every gap, so
    a clipped window that reaches either end, or spans more instants
    than the log has gaps, has data; only other windows search the gap
    map.  It reads no field of f past X_AXIS."""
    a, b = max(lo, f[0]), min(hi, f[1])
    if a > b:
        return False
    if a == f[0] or b == f[1] or f[2] <= b - a:
        return True
    first, last = ordinal_range(bits, words, f, a, b)
    return first <= last


def check_window_ends(f: np.ndarray, bits: BitPool, words) -> None:
    """Raise ValueError if a log among the records f has a gap at the
    first or the last offset of its window of n instants: a window begins
    and ends with data.  The gap map's first member is 1 when its first
    high bit is set and its first low is 0; its last member is n when the
    bit before the high bits' final zero is set (the last bucket holds
    it) and its last low is n - 1's."""
    g = f[f[:, 2] > 0]
    n, m, width = g[:, 1] - g[:, 0] + 1, g[:, 2], g[:, 6]
    high, lows = g[:, 3] << 6, g[:, 5] << 6
    first = ((_bits_at(bits.words, high, 1) == 1)
             & (_bits_at(words, lows, width) == 0))
    last = ((_bits_at(bits.words, high + m + ((n - 1) >> width) - 1, 1) == 1)
            & (_bits_at(words, lows + (m - 1) * width, width)
               == (n - 1) & ((1 << width) - 1)))
    if (first | last).any():
        raise ValueError("a log's window begins or ends with a gap")


def _bits_at(words, at: np.ndarray, width) -> np.ndarray:
    # the value of the width bits (width < 64) from bit at of the words,
    # for each entry of at
    pool = np.frombuffer(words, dtype=np.uint64)
    if not len(pool):
        return np.zeros(len(at), dtype=np.int64)
    w, off = at >> 6, (at & 63).astype(np.uint64)
    v = pool.take(w, mode="clip") >> off
    # the next word's bits, shifted in two steps so no shift is by 64
    v |= pool.take(w + 1, mode="clip") << (np.uint64(63) - off) << np.uint64(1)
    mask = (np.uint64(1) << np.asarray(width, dtype=np.uint64)) - np.uint64(1)
    return (v & mask).astype(np.int64)


def position_at(bits: BitPool, words, f, i: int) -> tuple[int, int] | None:
    """Coordinates at local instant i of the log with fields f, or None;
    i is not range-checked."""
    if i < f[0] or i > f[1]:
        return None
    j = _ordinal(bits, words, f, i - f[0] + 1)
    if j is None:
        return None
    if j == 1:
        return f[X_FIRST], f[Y_FIRST]
    # the sum of the first j - 1 increments is select1(j - 1) - (j - 1)
    j -= 1
    t = i - f[0]
    back = j + f[SPEED] * t
    x = f[X_FIRST] + sparse_select1(bits, words, f, X_AXIS, j) - back
    y = f[Y_FIRST] + sparse_select1(bits, words, f, Y_AXIS, j) - back
    if not f[WIDTHS]:
        return x, y
    rx, ox = _drift(words, f, 0, (j - 1) >> BLOCK_SHIFT)
    ry, oy = _drift(words, f, 1, (j - 1) >> BLOCK_SHIFT)
    return x + rx * t - ox, y + ry * t - oy


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
        gapmap = SparseBitVector.from_positions(last - first + 1, gaps)
        self._bits, self._words = gapmap._pool, gapmap._words
        self._f = (first, last, len(gaps), *gapmap._f)

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
        if not 1 <= offset <= len(self):
            raise IndexError(f"window offset {offset} out of range 1..{len(self)}")
        return _ordinal(self._bits, self._words, self._f, offset)

    def data_offset(self, ordinal: int) -> int:
        """Window offset of the ordinal-th instant that has data."""
        n = self.data_count
        if not 1 <= ordinal <= n:
            raise IndexError(f"ordinal {ordinal} out of range 1..{n}")
        return sparse_select0(self._bits, self._words, self._f, 3, self._f[2],
                              ordinal)

    def data_offsets(self, start_ordinal: int = 1):
        return self._gapmap.zeros(start_ordinal)

    def code_bits(self) -> int:
        return self._gapmap.code_bits()


class AxisDeltas:
    """One coordinate axis: its blocks' reductions and offsets, its first
    coordinate and the unary stream of the increments dx + s_b*dt.

    `sign`, `pos` and `neg` are the axis as signed steps, the first step
    being the coordinate itself: which steps are non-negative, and unary
    streams of the non-negative steps and of the negative ones'
    magnitudes.  Nothing stores them; each is built from a decode of the
    axis.
    """

    __slots__ = ("_bits", "_words", "_f", "_a")

    def __init__(self, bits: BitPool, words, f, a: int):
        """The axis whose stream's fields start at f[a]."""
        self._bits, self._words, self._f, self._a = bits, words, f, a

    @property
    def stream(self) -> UnaryDeltaStream:
        m = self._f[7] - 1
        return UnaryDeltaStream(
            SparseBitVector(self._bits, self._words, self._f, self._a, m), m)

    def _steps(self) -> np.ndarray:
        log = TrajectoryLog(self._bits, self._words, self._f, 0, 0,
                            self._f[1] + 1)
        coords = [p[1 if self._a == X_AXIS else 2]
                  for p in log.iter_positions(1, self._f[7])]
        return np.diff(np.array(coords, dtype=np.int64), prepend=0)

    @property
    def sign(self) -> BitVector:
        return BitVector.from_bits(self._steps() >= 0)

    @property
    def pos(self) -> UnaryDeltaStream:
        steps = self._steps()
        return UnaryDeltaStream.from_values(steps[steps >= 0])

    @property
    def neg(self) -> UnaryDeltaStream:
        steps = self._steps()
        return UnaryDeltaStream.from_values(-steps[steps < 0])

    def code_bits(self) -> int:
        """The bits of the stream and of the blocks' entries."""
        k = 0 if self._a == X_AXIS else 2  # the reductions, then the offsets
        return (_entries(self._words, self._f, k).code_bits()
                + _entries(self._words, self._f, k + 1).code_bits()
                + self.stream.code_bits())


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

        Sequential cursors over the gap map and the two axes' streams keep
        the whole walk linear in to - frm; each stream opens at its sum
        before frm with one select, and each block's entries are read
        once.
        """
        n = self.data_count
        if not 1 <= frm <= to <= n:
            raise IndexError(f"ordinal range {frm}..{to} out of range 1..{n}")
        bits, words, f = self._bits, self._words, self._f
        xs = unary_prefixes(bits, words, f, X_AXIS, n - 1, frm - 1)
        ys = unary_prefixes(bits, words, f, Y_AXIS, n - 1, frm - 1)
        offsets = self.time.data_offsets(frm) if f[2] else count(frm)
        s, x1, y1, base = f[SPEED], f[X_FIRST], f[Y_FIRST], f[0] - 1
        # fix j's last step is j - 1, in block (j - 2) >> BLOCK_SHIFT; fix 1
        # takes block 0, whose drift at the window's first instant is 0.
        # Blocks end at fix `end`; with no entries, never.
        sx = sy = s
        ox = oy = 0
        end = 0 if f[WIDTHS] else n
        # the range comes first, so zip stops before the cursors run past to
        for j, off, x, y in zip(range(frm, to + 1), offsets, xs, ys):
            if j > end:
                b = max(j - 2, 0) >> BLOCK_SHIFT
                end = (b + 1 << BLOCK_SHIFT) + 1
                rx, ox = _drift(words, f, 0, b)
                ry, oy = _drift(words, f, 1, b)
                sx, sy = s - rx, s - ry
            t = off - 1
            yield base + off, x1 + x - sx * t - ox, y1 + y - sy * t - oy

    def scan_positions(self, frm: int, to: int) -> list[tuple[int, int, int]]:
        return list(self.iter_positions(frm, to))

    def code_bits(self) -> int:
        return self.time.code_bits() + self.dx.code_bits() + self.dy.code_bits()


def build_log(samples, start: int, period: int, object_id: int = 0) -> TrajectoryLog:
    """A log of its own over (instant, x, y) rows sorted by instant, given
    as an (n, 3) array or a sequence of triples.

    Instants are global and must fall in start+1 .. start+period-1; the
    instant at start itself is snapshot territory.
    """
    rows = np.asarray(samples, dtype=np.int64).reshape(-1, 3)
    if not len(rows):
        raise ValueError("a log needs at least one sample")
    return TrajectoryLog(*private_pools(rows, start, period, len(rows)),
                         object_id, start, period)
