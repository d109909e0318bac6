"""Per-period movement logs with constant-time position extraction.

A log covers one object inside one period of length d starting at instant
k.  Local instants run 1..d-1 (instant k itself belongs to the snapshot
layer).  The log stores the window [first, last] that actually has data,
the sparse set of the instants inside the window with no sample, and its
speed bound s, the largest step rate on either axis, rounded up.  Per
axis it stores the first coordinate and one unary stream of non-negative
increments, as the Elias-Fano set of their prefix sums P (the
quasi-succinct layout of Vigna, WSDM 2013), with a member for each step k
of the window, instant first + k: 0 at a gap, and at a fix dx + s_b*dt,
dt from the fix before, plus dt on x when the log has gaps, so that a
zero x increment marks a gap.  Members go 2**BLOCK_SHIFT to a block with
a speed bound s_b <= s per axis no less than its fixes' rates, and the
sum of s_b*dt up to step k is s_b*k + o_b, so a position is one select
per axis and no rank:

    x = x_1 + P_x(k) - (s + 1)*k + r_b*k - o_b  (s*k with no gaps)
    y = y_1 + P_y(k) - s*k + r_b*k - o_b

for each axis's reduction r_b = s - s_b.  A log with more than
1/PER_STEP of its steps gaps has a member per fix after the first
instead, found with a gap-map search, and adds no dt (see
`encoder.stream_members`).  Per block and
axis the log stores r_b and o_b in packed arrays.  An axis takes s_b =
its own largest rate in every block, which needs no offsets, unless the
blocks' own rates make it smaller; then one fast step inflates only its
own block's increments, not the whole log's.  A log whose entries are
all 0 stores none and reads none.

A log and its box tree live in two pools (see `succinct`), the bit pool
and the word pool, laid out as the file holds them (see `encoder`).  A
tuple of ints, its record, says where each piece begins; `records` works
every record of an index out from the stored fields in one numpy pass,
and an index keeps them as one fixed-width table.  The functions here
answer from a record, and the classes are views over it.
"""

from __future__ import annotations

from array import array
from itertools import count, islice

import numpy as np

from trajindex import encoder
from trajindex.encoder import BLOCK_SHIFT, PER_STEP, stream_members
from trajindex.succinct import (
    BitPool,
    BitVector,
    PackedIntArray,
    SparseBitVector,
    UnaryDeltaStream,
    elias_fano,
    packed_at,
    packed_get,
    select,
    sparse_search,
    sparse_select0,
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
    members = stream_members(f[:, 0], f[:, 1], f[:, 2])
    m = np.column_stack((f[:, 2], members, members))
    if (bits.ones_before(end) - ones != m).any():
        raise ValueError("a log's sparse set holds the wrong number of ones")
    f[:, _SETS + 1] = ones
    tail = elias_fano(f[:, _SETS + 4], m, encoder.SCALES)[1] & 63
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


def _entries(words, f, k: int) -> PackedIntArray:
    # entry array k: the x reductions, x offsets, y reductions, y offsets
    blocks = (stream_members(*f[:3]) + (1 << BLOCK_SHIFT) - 1) >> BLOCK_SHIFT
    base = f[ENTRIES]
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
    first = ((packed_at(bits.words, high, 1) == 1)
             & (packed_at(words, lows, width) == 0))
    last = ((packed_at(bits.words, high + m + ((n - 1) >> width) - 1, 1) == 1)
            & (packed_at(words, lows + (m - 1) * width, width)
               == (n - 1) & ((1 << width) - 1)))
    if (first | last).any():
        raise ValueError("a log's window begins or ends with a gap")


def position_at(bits: BitPool, words, f, i: int) -> tuple[int, int] | None:
    """Coordinates at local instant i of the log with fields f, or None;
    i is not range-checked."""
    k = i - f[0]  # the step
    if k <= 0 or i > f[1]:
        return (f[X_FIRST], f[Y_FIRST]) if k == 0 else None
    # the member j is k, or with a member per fix, i's ordinal less 1;
    # plus is 1 when x's increments add dt to mark gaps
    j, plus = k, 0
    if f[2]:
        if PER_STEP * f[2] > f[1] - f[0]:
            j = _ordinal(bits, words, f, k + 1)
            if j is None:
                return None
            j -= 1
        else:
            plus = 1
    # P(j) is member j less j: its high part is where its one lies less j
    lw = f[X_AXIS + 3]
    q = select(bits, f[X_AXIS], f[X_AXIS + 5], f[X_AXIS + 1], j)
    low = packed_get(words, f[X_AXIS + 2], lw, j - 1)
    if plus and _zero_step(bits, words, f, k, q, low):
        return None
    s, x = f[SPEED], ((q - j) << lw | low) + 1 - j
    lw = f[Y_AXIS + 3]
    q = select(bits, f[Y_AXIS], f[Y_AXIS + 5], f[Y_AXIS + 1], j)
    y = ((q - j) << lw | packed_get(words, f[Y_AXIS + 2], lw, j - 1)) + 1 - j
    x, y = f[X_FIRST] + x - (s + plus) * k, f[Y_FIRST] + y - s * k
    if not f[WIDTHS]:
        return x, y
    rx, ox = _drift(words, f, 0, (j - 1) >> BLOCK_SHIFT)
    ry, oy = _drift(words, f, 1, (j - 1) >> BLOCK_SHIFT)
    return x + rx * k - ox, y + ry * k - oy


def _zero_step(bits: BitPool, words, f, k: int, q: int, low: int) -> bool:
    # whether x's increment k, whose one is bit q of the high bits and
    # whose low is low, is 0: member k - 1 is member k less 1, in k's
    # bucket if bit q - 1 is set, else ending the bucket before if bit
    # q - 2 is; the lows say the rest.  Member 0 is -1.
    if k == 1:
        return q == 1 and not low
    p = (f[X_AXIS] << 6) + q - 2  # the bit before q, in the pool
    lw = f[X_AXIS + 3]
    if bits.words[p >> 6] >> (p & 63) & 1:
        return packed_get(words, f[X_AXIS + 2], lw, k - 2) + 1 == low
    p -= 1
    return (not low and bits.words[p >> 6] >> (p & 63) & 1 == 1
            and packed_get(words, f[X_AXIS + 2], lw, k - 2) == (1 << lw) - 1)


def positions(bits: BitPool, words, f, lo: int, hi: int):
    """Yield (local instant, x, y) for each instant with data among local
    instants lo..hi of the log with fields f: cursors over the two
    streams, each opened with one select at lo's member, or the one
    before it when zero x increments mark gaps, that pass over each gap
    and read each block's entries once; with a member per fix, a gap-map
    cursor gives each fix's step."""
    m = stream_members(*f[:3])
    plus = 1 if f[2] and m == f[1] - f[0] else 0  # see position_at
    a, b = max(lo - f[0], 0), min(hi, f[1]) - f[0]  # steps, then members
    offsets = count(a + 1)  # each member's step, plus 1
    if m < f[1] - f[0]:
        a, b = (j - 1 for j in ordinal_range(bits, words, f, lo, hi))
        offsets = TimeIndex(bits, words, f).data_offsets(a + 1)
    if a > b:
        return
    start = max(a - plus, 0)
    xs = unary_prefixes(bits, words, f, X_AXIS, m, start)
    ys = unary_prefixes(bits, words, f, Y_AXIS, m, start)
    # a member whose x prefix sum is below floor is a gap
    floor = 0
    if start < a:
        floor = next(xs) + 1
        next(ys)
    s, base = f[SPEED], f[0] - 1
    # member j is in block (j - 1) >> BLOCK_SHIFT; member 0 has no drift.
    # Blocks end at member `end`; with no entries, never.  At step k,
    # x is cx + P_x(k) - sx*(k + 1), where cx holds x_1 + sx - o_b
    sx, sy = s + plus, s
    cx, cy = f[X_FIRST] + sx, f[Y_FIRST] + sy
    end = 0 if f[WIDTHS] else m
    # the range comes first, so zip stops before the cursors run past b
    for j, off, px, py in zip(range(a, b + 1), offsets, xs, ys):
        if px < floor:
            continue
        floor = px + plus
        if j > end:
            blk = (j - 1) >> BLOCK_SHIFT
            end = blk + 1 << BLOCK_SHIFT
            rx, ox = _drift(words, f, 0, blk)
            ry, oy = _drift(words, f, 1, blk)
            sx, sy = s + plus - rx, s - ry
            cx, cy = f[X_FIRST] + sx - ox, f[Y_FIRST] + sy - oy
        yield base + off, cx + px - sx * off, cy + py - sy * off


class TimeIndex:
    """Data-presence window of one log: [first, last] plus the sparse set
    of its gaps.

    Offsets into the window are 1-based; a member of the set is an instant
    with no sample.
    """

    __slots__ = ("_bits", "_words", "_f")

    def __init__(self, bits: BitPool, words, f):
        """The window of the log with fields f in the pools bits and words."""
        self._bits, self._words, self._f = bits, words, f

    @property
    def first(self) -> int:
        return self._f[0]

    @property
    def _gapmap(self) -> SparseBitVector:
        return SparseBitVector(self._bits, self._words, self._f, 3, self._f[2])

    def gaps_upto(self, offset: int) -> int:
        return _gaps_upto(self._bits, self._words, self._f, offset)

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
        m = stream_members(*self._f[:3])
        return UnaryDeltaStream(
            SparseBitVector(self._bits, self._words, self._f, self._a, m), m)

    def _steps(self) -> np.ndarray:
        coords = [p[1 if self._a == X_AXIS else 2] for p in positions(
            self._bits, self._words, self._f, self._f[0], self._f[1])]
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
        return TimeIndex(self._bits, self._words, self._f)

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
        """Yield (local instant, x, y) for data ordinals frm..to: the
        first to - frm + 1 of the `positions` walk from frm's instant."""
        n = self.data_count
        if not 1 <= frm <= to <= n:
            raise IndexError(f"ordinal range {frm}..{to} out of range 1..{n}")
        yield from islice(positions(self._bits, self._words, self._f,
                                    self.unmap_ordinal(frm), self._f[1]),
                          to - frm + 1)

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
