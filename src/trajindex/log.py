"""Per-period movement logs with constant-time position extraction.

A log covers one object inside one period of length d starting at instant
k.  Local instants run 1..d-1 (instant k itself belongs to the snapshot
layer).  The log stores the window [first, last] that actually has data
and, when the window has gaps, its bitmap: one bit per instant, set where
the log has a fix, under the bit pool's rank/select directory.  A fix's
ordinal is then one rank, and the j-th fix's instant one select.  It also
stores its speed bound s, the largest step rate on either axis, rounded
up.  Per axis it stores the first coordinate and one unary stream of
non-negative increments, as the Elias-Fano set of their prefix sums P
(the quasi-succinct layout of Vigna, WSDM 2013), with a member j for the
fix of ordinal j + 1: dx + s_b*dt, dt counted from the fix before.
Members go 2**BLOCK_SHIFT to a block with a speed bound s_b <= s per axis
no less than its fixes' rates, and the sum of s_b*dt up to the fix at
step k is s_b*k + o_b, so a position is one rank and one select per
axis:

    x = x_1 + P_x(j) - s*k + r_b*k - o_b
    y = y_1 + P_y(j) - s*k + r_b*k - o_b

for each axis's reduction r_b = s - s_b.  Per block and axis the log
stores r_b and o_b in packed arrays.  An axis takes s_b = its own
largest rate in every block, which needs no offsets, unless the blocks'
own rates make it smaller; then one fast step inflates only its own
block's increments, not the whole log's.  A log whose entries are all 0
stores none and reads none.

A log and its box tree live in two pools (see `succinct`), the bit pool
and the word pool, laid out as the file holds them (see `encoder`).  A
tuple of ints, its record, says where each piece begins; `records` works
every record of an index out from the stored fields in one numpy pass,
and an index keeps them as one table, each field at the narrowest width
per column, chosen per index.  The functions here answer from a record,
and the classes are views over it.

`position_at` reads one position, `positions_at` one of each of many
logs.  A run of fixes, of one log or of many, is one `decode`, the
sequential read of the same sets: since the
records give each bitmap's count of ones, one unpacking of every log's
bitmaps finds each fix's offset and each member's high part by index,
so a trajectory takes a few numpy calls, not a Python step per fix.
"""

from __future__ import annotations

from array import array
from functools import cached_property

import numpy as np

from trajindex import encoder
from trajindex.encoder import BLOCK, BLOCK_SHIFT, STREAM_SCALE
from trajindex.succinct import (
    BitPool,
    BitVector,
    SparseBitVector,
    UnaryDeltaStream,
    _SUPER_SHIFT,
    elias_fano,
    packed_at,
    packed_get,
    rank,
    select,
    select_many,
    set_places,
    word_starts,
    words_from,
)

# A log's record (see `succinct.SparseBitVector` for a sparse set's six
# fields):
#   0 first, 1 last, 2 gap count;
#   3 the window bitmap's first word, 4 the ones before it, 5 the data
#     count; a log with no gaps stores no bitmap;
#   6..10, then 11..15, the x and the y axis: the sparse set of its
#        stream's prefix sums, whose fifth field is the stream's total;
#   16 the word after the last bitmap;
#   17 the speed bound s; 18 the widths of the four entry arrays, the x
#      reductions and offsets and the y ones, a byte each, 0 when the log
#      stores none; 19 the first word of the first array, each of the
#      others starting at the word after the one before;
#   20 the first x, 21 the first y; 22 the word pool's next word, where
#      its tree's diffs begin;
#   23..26 the tree's root box, 27 its diff width.
# The words of each bitmap end where the next one's begin.
WINDOW, DATA, X_AXIS, Y_AXIS = 3, 5, 6, 11
SPEED, WIDTHS, ENTRIES, X_FIRST, Y_FIRST = 17, 18, 19, 20, 21
LOG_FIELDS = 23
TREE = LOG_FIELDS - 1  # the tree's fields (see `MbrTree`) start here
RECORD_FIELDS = LOG_FIELDS + 5
# the record field of each field the file stores, in file order
FILE_FIELDS = [0, 1, 2, SPEED, WIDTHS, X_FIRST, X_AXIS + 4, Y_FIRST,
               Y_AXIS + 4, TREE + 5, TREE + 1, TREE + 2, TREE + 3, TREE + 4]
_BITMAPS = np.array([WINDOW, X_AXIS, Y_AXIS])  # each one's first word
_STREAMS = _BITMAPS[1:]
_ONE = np.ones(1, dtype=np.uint64)  # a word with a one, for `decode`


def records(u32s: np.ndarray, leaf_capacity: int) -> tuple[np.ndarray, int, int]:
    """The records, an int64 row of RECORD_FIELDS each, of the logs and
    trees whose stored fields are the rows of u32s and whose pieces fill
    a bit pool and a word pool in row order; and the words each pool
    takes.  The ones before each bitmap are left 0 for `bit_pool`.

    Fields must pass `piece_bits`'s conditions."""
    high, low, low_width = encoder.piece_bits(u32s, leaf_capacity)
    high_at, bit_words = word_starts(high)
    low_at, word_words = word_starts(low)
    f = np.zeros((len(u32s), RECORD_FIELDS), dtype=np.int64)
    f[:, FILE_FIELDS] = u32s
    f[:, _BITMAPS] = high_at
    f[:, DATA] = u32s[:, 1] - u32s[:, 0] + 1 - u32s[:, 2]
    f[:, _STREAMS + 2] = low_at[:, [encoder.X_LOWS, encoder.Y_LOWS]]
    f[:, _STREAMS + 3] = low_width
    f[:, Y_AXIS + 5] = high_at[:, -1] + ((high[:, -1] + 63) >> 6)
    f[:, ENTRIES] = low_at[:, encoder.ENTRIES]
    f[:, TREE] = low_at[:, encoder.DIFFS]
    return f, bit_words, word_words


def bit_pool(f: np.ndarray, data) -> BitPool:
    """The bit pool of the records f, from its words in data, with the
    ones before each bitmap filled into f.  Bitmaps that hold other than
    their log's fixes or stream members, or have a bit set past their
    end, raise ValueError."""
    bits = BitPool(data)
    base = f[:, _BITMAPS]
    end = f[:, [X_AXIS, Y_AXIS, Y_AXIS + 5]]
    ones = bits.ones_before(base)
    gappy = f[:, 2] > 0
    members = f[:, DATA] - 1
    m = np.column_stack((np.where(gappy, f[:, DATA], 0), members, members))
    if (bits.ones_before(end) - ones != m).any():
        raise ValueError("a log's bitmap holds the wrong number of ones")
    f[:, _BITMAPS + 1] = ones
    length = np.column_stack((
        np.where(gappy, f[:, 1] - f[:, 0] + 1, 0),
        elias_fano(f[:, _STREAMS + 4], m[:, 1:], STREAM_SCALE)[1]))
    tail = length & 63
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


def _entry_array(f, k: int) -> tuple[int, int, int]:
    # entry array k, the x reductions, x offsets, y reductions, y offsets:
    # its first word, its entry count and its width
    blocks = (f[DATA] + BLOCK - 2) >> BLOCK_SHIFT
    base = f[ENTRIES]
    for i in range(k):
        base += (blocks * (f[WIDTHS] >> 8 * i & 255) + 63) >> 6
    return base, blocks, f[WIDTHS] >> 8 * k & 255


def _drift(words, f, a: int, b: int) -> tuple[int, int]:
    # the reduction and the offset of block b on axis a, 0 for x, 1 for y
    base, _, width = _entry_array(f, 2 * a)
    r = packed_get(words, base, width, b)
    base, _, width = _entry_array(f, 2 * a + 1)
    z = packed_get(words, base, width, b)
    return r, (z >> 1) ^ -(z & 1)


def _block_entries(words, f: np.ndarray, blk: np.ndarray):
    # the reductions and the offsets, a column per axis, of block blk of
    # the log in each row of the records f, as `_entry_array` and
    # `_drift` read them
    blocks = (f[:, DATA, None] + BLOCK - 2) >> BLOCK_SHIFT
    width = f[:, WIDTHS, None] >> np.array([0, 8, 16, 24]) & 255
    size = (blocks * width + 63) >> 6
    base = f[:, ENTRIES, None] + np.cumsum(size, axis=1) - size
    e = packed_at(words, (base << 6) + blk[:, None] * width, width)
    z = e[:, 1::2]
    return e[:, 0::2], (z >> 1) ^ -(z & 1)


def _count_upto(bits, words, f, i):
    # data instants among local instants 1..i: a rank of the window bitmap
    if i < f[0]:
        return 0
    if i >= f[1]:
        return f[DATA]
    if not f[2]:
        return i - f[0] + 1
    return rank(bits, f[WINDOW], f[WINDOW + 1], i - f[0] + 1)


def ordinal_range(bits: BitPool, words, f, lo: int, hi: int) -> tuple[int, int]:
    """First and last data ordinals among local instants lo..hi of the
    log with fields f; the first is past the last when none has data."""
    return _count_upto(bits, words, f, lo - 1) + 1, _count_upto(bits, words, f, hi)


def surely_has_data(first, last, gaps, a, b):
    """Whether local instants a..b, a non-empty part of the window
    first..last of a log with gaps gaps, have data by this rule alone:
    the window begins and ends with data and holds every gap, so a..b
    has data if it reaches either end or spans more instants than the
    log has gaps.  Ints, or arrays of a log each."""
    return (a == first) | (b == last) | (gaps <= b - a)


def has_data(bits: BitPool, words, f, lo: int, hi: int) -> bool:
    """Whether any of local instants lo..hi of the log with fields f has
    data.  Only a clipped window that `surely_has_data` cannot settle
    takes two ranks of the window bitmap.  It reads no field of f from
    X_AXIS on."""
    a, b = max(lo, f[0]), min(hi, f[1])
    if a > b:
        return False
    if surely_has_data(f[0], f[1], f[2], a, b):
        return True
    first, last = ordinal_range(bits, words, f, a, b)
    return first <= last


def check_window_ends(f: np.ndarray, bits: BitPool) -> None:
    """Raise ValueError if a log among the records f has a gap at the
    first or the last offset of its window: a window begins and ends with
    data, so both end bits of a window bitmap are set."""
    g = f[f[:, 2] > 0]
    at = g[:, WINDOW] << 6
    ends = (packed_at(bits.words, at, 1)
            & packed_at(bits.words, at + g[:, 1] - g[:, 0], 1))
    if not ends.all():
        raise ValueError("a log's window begins or ends with a gap")


def check_stream_ends(f: np.ndarray, bits: BitPool, words) -> None:
    """Raise ValueError if an axis stream of a log among the records f
    does not end at its total, or its last fix lies outside its root box.

    The last of a stream's m members is n - 1, from 0, for n = total + m:
    the one of its high part, ((n - 1) >> lw) + m - 1, is the last one of
    the high bits, so the bit after it is clear, and its low is the low
    lw bits of n - 1.  The last fix is then the first fix plus the total,
    less the drift up to its step K, s*K - r_b*K + o_b for the last
    block's reduction r_b and offset o_b."""
    g = f[f[:, DATA] > 1]  # per log, a column per axis
    m = g[:, DATA, None] - 1
    total, lw = g[:, _STREAMS + 4], g[:, _STREAMS + 3]
    last = total + m - 1
    high = packed_at(bits.words, (g[:, _STREAMS] << 6) + (last >> lw) + m - 1,
                     2)
    low = packed_at(words, (g[:, _STREAMS + 2] << 6) + (m - 1) * lw, lw)
    k = (g[:, 1] - g[:, 0])[:, None]
    fix = g[:, [X_FIRST, Y_FIRST]] + total - g[:, SPEED, None] * k
    e = np.flatnonzero(g[:, WIDTHS])  # the last block's, where stored
    r, o = _block_entries(words, g[e], (g[e, DATA] - 2) >> BLOCK_SHIFT)
    fix[e] += r * k[e] - o
    box = g[:, TREE + 1:TREE + 5]  # xmin, xmax, ymin, ymax
    if ((high != 1) | (low != last & ((1 << lw) - 1)) | (fix < box[:, 0::2])
            | (fix > box[:, 1::2])).any():
        raise ValueError("a log's axis stream does not end at its total, or "
                         "its last fix lies outside its root box")


def position_at(bits: BitPool, words, f, i: int) -> tuple[int, int] | None:
    """Coordinates at local instant i of the log with fields f, or None;
    i is not range-checked."""
    k = i - f[0]  # the step
    if k <= 0 or i > f[1]:
        return (f[X_FIRST], f[Y_FIRST]) if k == 0 else None
    # the member j is the count of fixes before i: k with no gaps, else
    # the rank of the window bitmap before i's bit, once that bit says i
    # is a fix (`rank`, inline: every object query and slice candidate
    # takes it)
    j = k
    if f[2]:
        p = (f[WINDOW] << 6) + k
        w = p >> 6
        word = bits.words[w]
        if not word >> (p & 63) & 1:
            return None
        j = (bits.super1[w >> _SUPER_SHIFT] + bits.block1[w] - f[WINDOW + 1]
             + (word & ((1 << (p & 63)) - 1)).bit_count())
    # P(j) is member j less j: its high part is where its one lies less j
    lw = f[X_AXIS + 3]
    q = select(bits, f[X_AXIS], f[X_AXIS + 5], f[X_AXIS + 1], j)
    x = ((q - j) << lw | packed_get(words, f[X_AXIS + 2], lw, j - 1)) + 1 - j
    lw = f[Y_AXIS + 3]
    q = select(bits, f[Y_AXIS], f[Y_AXIS + 5], f[Y_AXIS + 1], j)
    y = ((q - j) << lw | packed_get(words, f[Y_AXIS + 2], lw, j - 1)) + 1 - j
    s = f[SPEED]
    x, y = f[X_FIRST] + x - s * k, f[Y_FIRST] + y - s * k
    if not f[WIDTHS]:
        return x, y
    rx, ox = _drift(words, f, 0, (j - 1) >> BLOCK_SHIFT)
    ry, oy = _drift(words, f, 1, (j - 1) >> BLOCK_SHIFT)
    return x + rx * k - ox, y + ry * k - oy


def positions_at(bits: BitPool, words, f: np.ndarray, i: int) -> tuple:
    """`position_at` at local instant i of the log in each row of the
    int64 records f, in a fixed few dozen numpy calls: the xs, the ys, and
    which logs have a fix at i; only those logs' xs and ys mean anything."""
    k = i - f[:, 0]  # the step
    fix = (k >= 0) & (i <= f[:, 1])
    if not len(bits.words):  # no log has a gap or a member
        return f[:, X_FIRST], f[:, Y_FIRST], k == 0
    k[~fix] = 0  # so that every read below stays in the log's pieces
    # j: k, or with gaps the rank before i's bit once that bit is set
    gappy = fix & (f[:, 2] > 0)
    p = np.where(gappy, (f[:, WINDOW] << 6) + k, 0)
    w, off = p >> 6, (p & 63).astype(np.uint64)
    word = np.frombuffer(bits.words, dtype=np.uint64)[w]
    fix &= ~gappy | (word >> off & 1 == 1)
    j = np.where(gappy, bits.ones_before(w) - f[:, WINDOW + 1]
                 + np.bitwise_count(word << np.uint64(64) - off), k)[:, None]
    # P(j) as `position_at` reads it; a first fix reads the pool's first one
    member = fix[:, None] & (j > 0)
    q = select_many(bits, np.where(member, f[:, _STREAMS + 1] + j, 1).ravel())
    lw = f[:, _STREAMS + 3]
    low = packed_at(words, (f[:, _STREAMS + 2] << 6) + (j - 1) * lw, lw)
    moved = (q.reshape(lw.shape) - (f[:, _STREAMS] << 6) + 1 - j << lw
             | low) + 1 - j
    if f[:, WIDTHS].any():  # and the drift, r_b*k - o_b
        red, off = _block_entries(words, f, (j[:, 0] - 1) >> BLOCK_SHIFT)
        moved += red * k[:, None] - off
    return (*(f[:, [X_FIRST, Y_FIRST]] - (f[:, SPEED] * k)[:, None]
              + member * moved).T, fix)


def decode(bits: BitPool, words, pieces) -> tuple[np.ndarray, ...]:
    """The instants, xs and ys, as int64 arrays, of the fixes among local
    instants lo..hi of the log with fields f, for each piece (f, k, lo,
    hi) in turn, each instant counted from k.

    One numpy pass over all the pieces, each a run of ordinals that two
    ranks give.  A log's window bitmap and its axes' high bits lie back
    to back, so the words of every piece's are unpacked at once, and as
    the record gives each bitmap's count of ones, the one of a fix or a
    member is found by its index among them.  One packed read takes
    both axes' lows, and the blocks' entries are read only when some
    piece's log stores them."""
    per, fs, runs = [], [], []
    rows = ones = bit = 0  # the rows, ones and bits of the pieces before
    for f, k, lo, hi in pieces:
        a, b = ordinal_range(bits, words, f, lo, hi)
        if a > b:
            continue
        g, m = f[DATA] if f[2] else 0, f[DATA] - 1
        c = a - 1 - rows  # member j of a row, less the row's index
        per.append((
            # a row's ones among all the ones, less the row's index (the
            # window's (j + 1)-th, each axis's j-th); the place before
            # each bitmap among all the bits; the lows' first bits and
            # widths, the first fix, s, its instant, the gaps and c
            ones + c, ones + g - 1 + c, ones + g + m - 1 + c, bit - 1,
            bit - 1 + (f[X_AXIS] - f[WINDOW] << 6),
            bit - 1 + (f[Y_AXIS] - f[WINDOW] << 6),
            f[X_AXIS + 2] << 6, f[Y_AXIS + 2] << 6, f[X_AXIS + 3],
            f[Y_AXIS + 3], f[X_FIRST], f[Y_FIRST], f[SPEED], k + f[0],
            f[2], c))
        fs.append(f[:TREE])
        runs.append((b - a + 1, f[WINDOW], f[Y_AXIS + 5]))
        rows, ones = rows + b - a + 1, ones + g + 2 * m
        bit += f[Y_AXIS + 5] - f[WINDOW] << 6
    if not per:
        return np.zeros((3, 0), dtype=np.int64)
    # the words, then one whose one lies past them all, for the reads that
    # no row uses: the axes' for a log's first fix, the window's with no
    # gaps; and the place of every one
    pool = np.frombuffer(bits.words, dtype=np.uint64)
    chunk = np.concatenate([pool[w:e] for _, w, e in runs] + [_ONE])
    places = set_places(chunk)
    counts = [n for n, _, _ in runs]
    p = np.repeat(np.array(per), counts, axis=0)  # a row per fix
    lows, lw, first = p[:, 6:8], p[:, 8:10], p[:, 10:12]
    s, t, gappy = p[:, 12:13], p[:, 13:14], p[:, 14:15]
    i = np.arange(rows)[:, None]
    j = i + p[:, 15:]
    q = places[i + p[:, :3]] - p[:, 3:6]  # each one's place, from 1
    k = np.where(gappy, q[:, :1] - 1, j)  # each fix's step
    # P(j), member j less j: its high part is where its one lies less j
    low = packed_at(words, lows + (j - 1) * lw, lw)
    moved = (q[:, 1:] - j << lw | low) + 1 - j
    if any(f[WIDTHS] for f in fs):  # and the drift, r_b*k - o_b
        red, off = _block_entries(words, np.repeat(fs, counts, axis=0),
                                  (j[:, 0] - 1) >> BLOCK_SHIFT)
        moved += red * k - off
    xy = first - s * k + (j > 0) * moved  # a log's first fix is no member
    return (t + k)[:, 0], xy[:, 0], xy[:, 1]


class TimeIndex:
    """Data-presence window of one log: [first, last] and, when it has
    gaps, its bitmap, a bit per instant set where the log has a fix.

    Offsets into the window are 1-based.
    """

    __slots__ = ("_bits", "_words", "_f")

    def __init__(self, bits: BitPool, words, f):
        """The window of the log with fields f in the pools bits and words."""
        self._bits, self._words, self._f = bits, words, f

    @property
    def first(self) -> int:
        return self._f[0]

    def gaps_upto(self, offset: int) -> int:
        f = self._f
        if not f[2]:
            return 0
        return offset - rank(self._bits, f[WINDOW], f[WINDOW + 1], offset)

    def code_bits(self) -> int:
        f = self._f
        return f[1] - f[0] + 1 if f[2] else 0


class AxisDeltas:
    """One coordinate axis: its blocks' reductions and offsets, its first
    coordinate and the unary stream of the increments dx + s_b*dt.

    `sign`, `pos` and `neg` are the axis as signed steps, the first step
    being the coordinate itself: which steps are non-negative, and unary
    streams of the non-negative steps and of the negative ones'
    magnitudes.  Nothing stores them; each is built from the axis's
    steps, which a view decodes once.
    """

    def __init__(self, bits: BitPool, words, f, a: int):
        """The axis whose stream's fields start at f[a]."""
        self._bits, self._words, self._f, self._a = bits, words, f, a

    @property
    def stream(self) -> UnaryDeltaStream:
        f, a, m = self._f, self._a, self._f[DATA] - 1
        return UnaryDeltaStream(SparseBitVector(self._bits, self._words, f, a, m),
                                m, f[a + 4])

    @cached_property
    def _steps(self) -> np.ndarray:
        # the whole axis, decoded in one numpy pass
        f = self._f
        coords = decode(self._bits, self._words, [(f, 0, f[0], f[1])])[
            1 if self._a == X_AXIS else 2]
        return np.diff(coords, prepend=0)

    @property
    def sign(self) -> BitVector:
        return BitVector.from_bits(self._steps >= 0)

    @property
    def pos(self) -> UnaryDeltaStream:
        return UnaryDeltaStream.from_values(self._steps[self._steps >= 0])

    @property
    def neg(self) -> UnaryDeltaStream:
        return UnaryDeltaStream.from_values(-self._steps[self._steps < 0])

    def code_bits(self) -> int:
        """The bits of the stream and of the blocks' entries."""
        k = 0 if self._a == X_AXIS else 2  # the reductions, then the offsets
        return (sum(n * width for _, n, width in (_entry_array(self._f, k),
                                                  _entry_array(self._f, k + 1)))
                + self.stream.code_bits())


class TrajectoryLog:
    """Movement of one object within one period, positions in O(1)."""

    __slots__ = ("_bits", "_words", "_f", "object_id", "start", "period",
                 "__dict__")  # and the axes' views, once made

    def __init__(self, bits: BitPool, words, f, object_id: int, start: int,
                 period: int):
        """The log with fields f in the pools bits and words."""
        self._bits, self._words, self._f = bits, words, f
        self.object_id = object_id
        self.start = start
        self.period = period

    @property
    def time(self) -> TimeIndex:
        return TimeIndex(self._bits, self._words, self._f)

    @cached_property
    def dx(self) -> AxisDeltas:
        return AxisDeltas(self._bits, self._words, self._f, X_AXIS)

    @cached_property
    def dy(self) -> AxisDeltas:
        return AxisDeltas(self._bits, self._words, self._f, Y_AXIS)

    @property
    def data_count(self) -> int:
        return self._f[DATA]

    def position(self, i: int) -> tuple[int, int] | None:
        """Coordinates at local instant i in 1..period-1, or None."""
        if not 1 <= i <= self.period - 1:
            raise IndexError(f"local instant {i} out of range 1..{self.period - 1}")
        return position_at(self._bits, self._words, self._f, i)

    def unmap_ordinal(self, j: int) -> int:
        """Local instant of the j-th data sample."""
        n = self.data_count
        if not 1 <= j <= n:
            raise IndexError(f"ordinal {j} out of range 1..{n}")
        f = self._f
        if not f[2]:
            return f[0] + j - 1
        return select(self._bits, f[WINDOW], f[X_AXIS], f[WINDOW + 1],
                      j) + f[0] - 1

    def scan_positions(self, frm: int, to: int) -> list[tuple[int, int, int]]:
        """(local instant, x, y) for data ordinals frm..to, from one
        `decode` of their instants."""
        n = self.data_count
        if not 1 <= frm <= to <= n:
            raise IndexError(f"ordinal range {frm}..{to} out of range 1..{n}")
        t, x, y = decode(self._bits, self._words, [(
            self._f, 0, self.unmap_ordinal(frm), self.unmap_ordinal(to))])
        return list(zip(t.tolist(), x.tolist(), y.tolist()))

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
