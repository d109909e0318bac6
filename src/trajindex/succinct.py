"""Bit-level building blocks: rank/select bitmaps and unary-coded sums, in pools.

A `BitPool` holds many bitmaps back to back in one uint64 word array,
least significant bit first, each from a word boundary, with one
directory of ones over the whole pool.  Packed integers live in a plain
word array, the word pool.  A bitmap is then its first word and the
number of ones before that word: `rank` is the pool's count less those
ones, and `select` bisects only the superblocks the bitmap spans, while
`select_many` searches the whole directory for many ones at once.  Only
set bits are ever selected.  The functions below are the one
implementation of rank and select; the classes are thin views over them,
and callers that keep the bases elsewhere, such as a log's fields, call
the functions directly.

The public API uses 1-based positions.  Words and directories are
`array.array`s, whose items read back as plain Python ints.

An index file holds its logs' pools as they are (see `trajindex.encoder`),
and its snapshots' codes as word-aligned pieces the same encoders lay
out (see `trajindex.snapshot`): little-endian words and u32s, with no
frames and no versions, appended to a `Writer` and read back through a
`Reader`.  A standalone set (`SparseBitVector.from_positions`) is laid out
by the same encoder as a group of one.
"""

from __future__ import annotations

import struct
import sys
from array import array
from bisect import bisect_left

import numpy as np

U32_MAX = (1 << 32) - 1  # the largest value a u32 field holds
_SUPER_SHIFT = 3
_SUPER = 1 << _SUPER_SHIFT  # words per superblock, i.e. 512-bit superblocks
_INNER = np.arange(1, _SUPER)[:, None]  # a superblock's words after its first
_POP8 = bytes(bin(i).count("1") for i in range(256))
_BIG_ENDIAN = sys.byteorder == "big"


def _select_table() -> bytes:
    # entry (k - 1) << 8 | b: 0-based position of the k-th set bit of byte b
    table = bytearray(8 * 256)
    for b in range(256):
        set_bits = [i for i in range(8) if b >> i & 1]
        for k, i in enumerate(set_bits):
            table[k << 8 | b] = i
    return bytes(table)


_SELECT8 = _select_table()


def words_from(data) -> array:
    """uint64 words from little-endian bytes (any buffer), in an array of
    exactly their size."""
    words = array("Q")
    words.frombytes(data)
    if _BIG_ENDIAN:
        words.byteswap()
    return words[:]  # frombytes leaves up to 1/16 spare room; a slice has none


def nbytes(*arrays: array) -> int:
    """Bytes the items of some `array.array`s take."""
    return sum(a.itemsize * len(a) for a in arrays)


class Writer(bytearray):
    """A buffer that appends little-endian u32s and uint64 words."""

    def u32(self, *values: int) -> None:
        try:
            self += struct.pack(f"<{len(values)}I", *values)
        except struct.error:
            raise ValueError(f"{values} do not all fit in u32s") from None

    def u32s(self, values: np.ndarray) -> None:
        self += np.asarray(values, dtype="<u4").tobytes()

    def words(self, words: array) -> None:
        if _BIG_ENDIAN:
            words = array("Q", words)
            words.byteswap()
        self += words.tobytes()

    def bits(self, bits) -> None:
        """A 0/1 sequence as whole words, the last one padded with zeros."""
        self += _bit_words(bits)


def _bit_words(bits) -> bytes:
    # a 0/1 sequence as little-endian words, the last one padded with zeros
    packed = np.packbits(np.asarray(bits, dtype=np.uint8),
                         bitorder="little").tobytes()
    return packed + bytes(-len(packed) % 8)


class Reader:
    """Cursor over what a `Writer` wrote.

    Asking for more bytes than are left raises ValueError before anything
    is allocated, so a corrupt length cannot ask for a huge array.
    """

    def __init__(self, buf):
        self._buf = memoryview(buf)
        self._pos = 0

    def take(self, size: int) -> memoryview:
        """The next size bytes, as a view of the buffer."""
        end = self._pos + size
        if size < 0 or end > len(self._buf):
            raise ValueError(f"truncated input: {size} bytes wanted at offset "
                             f"{self._pos}, {len(self._buf) - self._pos} left")
        view = self._buf[self._pos:end]
        self._pos = end
        return view

    def u32s(self, count: int) -> np.ndarray:
        return np.frombuffer(self.take(4 * count), dtype="<u4").astype(np.uint32)

    def bits(self, n: int) -> np.ndarray:
        """n bits that `Writer.bits` wrote, as 0/1 bytes; a bit set past
        the n-th raises ValueError."""
        words = np.frombuffer(self.take(8 * ((n + 63) >> 6)), dtype=np.uint8)
        bits = np.unpackbits(words, bitorder="little")
        if bits[n:].any():
            raise ValueError("bitmap has bits set past its end")
        return bits[:n]

    def left(self) -> int:
        """The bytes not yet read."""
        return len(self._buf) - self._pos

    def end(self) -> None:
        """Raise ValueError unless every byte has been read."""
        left = self.left()
        if left:
            raise ValueError(f"{left} trailing bytes after the last record")


# ------------------------------------------------------------------ pools

class BitPool:
    """Bitmaps back to back in one word array, with one ones directory.

    `super1[s]` counts the ones before 512-bit superblock s (one extra
    entry holds the total) and `block1[w]` the ones before word w inside
    its superblock, for every word of the last superblock and one more,
    so a bisection may span any whole superblock.  The padding that
    ends a bitmap's last word holds no ones.
    """

    __slots__ = ("words", "super1", "block1")

    def __init__(self, data=b""):
        """data: little-endian words; the directory takes one popcount
        and one cumulative sum over them."""
        self.words = words = words_from(data)
        nw = len(words)
        # cum[w]: ones in words 0..w-1; the words past the end hold none
        cum = np.zeros(-(-nw // _SUPER) * _SUPER + 1, dtype=np.int64)
        if nw:
            cum[1:nw + 1] = np.cumsum(np.bitwise_count(
                np.frombuffer(words, dtype=np.uint64)), dtype=np.int64)
            cum[nw + 1:] = cum[nw]
        block = cum - cum[np.arange(len(cum)) & ~(_SUPER - 1)]
        self.super1 = array("q", cum[::_SUPER].tobytes())[:]
        self.block1 = array("H", block.astype(np.uint16).tobytes())[:]

    def nbytes(self) -> int:
        return nbytes(self.words, self.super1, self.block1)

    def ones_before(self, w: np.ndarray) -> np.ndarray:
        """The ones before each word w, for w up to the pool's length."""
        return (np.frombuffer(self.super1, dtype=np.int64)[w >> _SUPER_SHIFT]
                + np.frombuffer(self.block1, dtype=np.uint16)[w])


# ------------------------------------------------- rank and select on pools

def rank(pool: BitPool, base: int, ones: int, i: int) -> int:
    """Set bits among positions 1..i (i may be 0) of the bitmap that
    starts at word base, with `ones` set bits before it in the pool: the
    directory's count before i's word, less ones, and a popcount."""
    p = (base << 6) + i
    w = p >> 6
    r = pool.super1[w >> _SUPER_SHIFT] + pool.block1[w] - ones
    if p & 63:
        r += (pool.words[w] & ((1 << (p & 63)) - 1)).bit_count()
    return r


def select(pool: BitPool, base: int, end: int, ones: int, j: int) -> int:
    """Position of the j-th set bit of the bitmap in words base..end-1,
    with `ones` set bits before it in the pool; the caller makes sure it
    exists.  It bisects only those words' superblocks, then the words of
    one superblock, then finds the bit in the word."""
    sup = pool.super1
    block = pool.block1
    g = ones + j
    s = base >> _SUPER_SHIFT
    last = (end - 1) >> _SUPER_SHIFT
    if s < last:
        s = bisect_left(sup, g, s + 1, last + 1) - 1
    rem = g - sup[s]
    first = s << _SUPER_SHIFT
    w = bisect_left(block, rem, first + 1, first + _SUPER) - 1
    word = pool.words[w]
    k = rem - block[w]
    # the k-th set bit of the word: halve to the right byte by popcount,
    # then look the bit up
    pos = ((w - base) << 6) + 1
    c = (word & 0xFFFFFFFF).bit_count()
    if k > c:
        k -= c
        word >>= 32
        pos += 32
    c = (word & 0xFFFF).bit_count()
    if k > c:
        k -= c
        word >>= 16
        pos += 16
    c = _POP8[word & 0xFF]
    if k > c:
        k -= c
        word >>= 8
        pos += 8
    return pos + _SELECT8[(k - 1) << 8 | (word & 0xFF)]


def select_many(pool: BitPool, g: np.ndarray) -> np.ndarray:
    """The place, from 0 among the pool's bits, of the g-th one of the
    whole pool for each g of a flat int64 array: one `searchsorted` of the
    pool's counts picks each superblock, its word counts the word and the
    word's set places the bit."""
    sup = np.frombuffer(pool.super1, dtype=np.int64)
    s = (sup.searchsorted(g) - 1) << _SUPER_SHIFT
    w = s + (pool.ones_before(s + _INNER) < g).sum(axis=0)
    # word r's set places start at bit 64 * r among all the words'
    word = np.frombuffer(pool.words, dtype=np.uint64)[w]
    ones = np.bitwise_count(word)
    at = ones.cumsum(dtype=np.int64) - ones + g - pool.ones_before(w) - 1
    return set_places(word)[at] + (w - np.arange(len(w)) << 6)


def next_one(pool: BitPool, base: int, i: int) -> int:
    """Position of the first set bit at or after position i of the bitmap
    that starts at word base; the caller makes sure one exists."""
    p = (base << 6) + i - 1
    w = p >> 6
    word = pool.words[w] >> (p & 63) << (p & 63)
    while not word:
        w += 1
        word = pool.words[w]
    return ((w - base) << 6) + (word & -word).bit_length()


def set_places(words: np.ndarray) -> np.ndarray:
    """The places, from 0, of the set bits of an array of uint64 words,
    least significant bit first: one unpacking of all of them."""
    return np.flatnonzero(np.unpackbits(
        words.astype("<u8", copy=False).view(np.uint8),
        bitorder="little").view(bool))


def packed_at(words, at: np.ndarray, width) -> np.ndarray:
    """The value of the width bits (width < 64) from bit `at` of the words,
    for each entry of at, as int64s: the one vectorized packed reader."""
    pool = np.frombuffer(words, dtype=np.uint64)
    if not len(pool):
        return np.zeros(np.shape(at), dtype=np.int64)
    w, off = at >> 6, (at & 63).astype(np.uint64)
    v = pool.take(w, mode="clip") >> off
    # the next word's bits; numpy shifts a uint64 by 64 to 0
    v |= pool.take(w + 1, mode="clip") << (np.uint64(64) - off)
    mask = (np.uint64(1) << np.asarray(width, dtype=np.uint64)) - np.uint64(1)
    return (v & mask).astype(np.int64)


def packed_get(words: array, base: int, width: int, i: int) -> int:
    """The i-th (from 0) of the width-bit values packed from word base."""
    if not width:
        return 0
    s = i * width
    w = base + (s >> 6)
    off = s & 63
    v = words[w] >> off
    if off + width > 64:
        v |= words[w + 1] << (64 - off)
    return v & ((1 << width) - 1)


# --------------------------------------------------------------- encoders
#
# The array encoders work on many structures at once, as the fleet
# encoder (`trajindex.encoder`) needs them: a value belongs to a group (a
# structure) and has a rank in it, and every per-group number is one array
# operation.  A standalone set is a group of one.

_POW2 = np.uint64(1) << np.arange(64, dtype=np.uint64)


def ranks(counts) -> np.ndarray:
    """0, 1, ..., c - 1 for each count c, back to back."""
    counts = np.asarray(counts, dtype=np.int64)
    ends = np.cumsum(counts)
    out = np.arange(ends[-1] if len(ends) else 0)
    out -= np.repeat(ends - counts, counts)
    return out


def bit_lengths(values) -> np.ndarray:
    """`int.bit_length` of each value, read as a uint64."""
    return np.searchsorted(_POW2, np.asarray(values).astype(np.uint64),
                           side="right").astype(np.int64)


def elias_fano(zeros, m, scale=(1, 1)):
    """The low widths and high-bit lengths of sparse sets of m[g] members
    over [1, n[g]], n = zeros + m, with low widths of floor(log2(a*n /
    (b*m))) for the scale (a, b); in uint64s, where n may pass 2**64 if
    a*zeros does not."""
    a, b = (np.asarray(v, dtype=np.uint64) for v in scale)
    z, m = (np.asarray(v).astype(np.uint64) for v in (zeros, m))
    d = b * np.maximum(m, 1)
    q, rest = np.divmod(a * z, d)  # a*n // d is q + (rest + a*m) // d
    low_width = np.where(m > 0, bit_lengths(q + (rest + a * m) // d) - 1, 0)
    # (n - 1) >> low width: zeros's high part, and the carry of m - 1
    s = low_width.astype(np.uint64)
    high = z >> s
    high += ((z - (high << s) + m - 1) >> s) + 1 + m
    return low_width, np.where(m > 0, high, 0).astype(np.int64)


def word_starts(lengths: np.ndarray) -> tuple[np.ndarray, int]:
    """The first word of each word-aligned piece of the bit lengths given,
    laid out row after row, and the words all of them fill."""
    words = (lengths + 63) >> 6
    ends = np.cumsum(words.ravel()).reshape(words.shape)
    return ends - words, int(ends[-1, -1]) if ends.size else 0


_SLICE = 1 << 16  # values a PieceBuffer packs at a time


class PieceBuffer:
    """Word-aligned pieces, a fixed number per group, laid out group after
    group in one bit buffer: piece j of group g starts at word
    `starts[g, j]`, given the bit lengths of all."""

    def __init__(self, lengths: np.ndarray):
        self.starts, size = word_starts(lengths)
        self._bits = np.zeros(64 * size, dtype=np.uint8)

    def ones(self, piece: int, group, at) -> None:
        """Set bit `at` (from 0) of the piece in each group listed."""
        self._bits[64 * self.starts[group, piece] + at] = 1

    def packed(self, piece: int, group, rank, values, widths) -> None:
        """Write each non-negative int64 value at its rank in the piece of
        its group, at the group's width in `widths`, least significant
        bit first."""
        for i in range(0, len(values), _SLICE):  # small per-bit arrays
            part = slice(i, i + _SLICE)
            width = widths[group[part]]
            bit = ranks(width)
            on = np.repeat(values[part], width)
            on >>= bit
            at = np.repeat(64 * self.starts[group[part], piece]
                           + rank[part] * width, width)
            at += bit
            self._bits[at[on & 1 == 1]] = 1

    def tobytes(self) -> bytes:
        return np.packbits(self._bits, bitorder="little").tobytes()


# ------------------------------------------------------------------ views

class BitVector:
    """A bitmap in a pool: rank in constant time, and select1 by bisecting
    the directory over the superblocks it spans and the words of one, then
    a table-driven select in the word."""

    __slots__ = ("_pool", "_base", "_end", "_n", "_ones", "_count")

    def __init__(self, pool: BitPool, base: int, n: int, ones: int, count: int):
        """The n bits from word base, with `ones` set bits before them in
        the pool and count among them."""
        self._pool = pool
        self._base = base
        self._end = base + ((n + 63) >> 6)
        self._n = n
        self._ones = ones
        self._count = count

    @classmethod
    def from_bits(cls, bits) -> "BitVector":
        arr = np.asarray(bits, dtype=np.uint8)
        return cls(BitPool(_bit_words(arr)), 0, len(arr), 0,
                   int(np.count_nonzero(arr)))

    def __len__(self) -> int:
        return self._n

    def rank1(self, i: int) -> int:
        """Number of set bits among positions 1..i (i may be 0)."""
        if not 0 <= i <= self._n:
            raise IndexError(f"rank index {i} out of range 0..{self._n}")
        return rank(self._pool, self._base, self._ones, i)

    def select1(self, j: int) -> int:
        """Position of the j-th set bit, 1-based."""
        if not 1 <= j <= self._count:
            raise ValueError(f"select1({j}) out of range, only {self._count} ones")
        return select(self._pool, self._base, self._end, self._ones, j)

    def ones(self, start: int = 1):
        """Yield positions of set bits, beginning with the start-th one."""
        if start < 1:
            raise ValueError("start must be >= 1")
        words = np.frombuffer(self._pool.words, dtype=np.uint64)
        yield from (set_places(words[self._base:self._end])[start - 1:]
                    + 1).tolist()


class PackedIntArray:
    """Fixed-width unsigned integers packed back to back in a word pool."""

    __slots__ = ("_words", "_base", "_count", "_width")

    def __init__(self, words: array, base: int, count: int, width: int):
        self._words = words
        self._base = base
        self._count = count
        self._width = width

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self._count:
            raise IndexError(f"index {i} out of range 0..{self._count - 1}")
        return packed_get(self._words, self._base, self._width, i)

    def __iter__(self):
        for i in range(self._count):
            yield self[i]

    def code_bits(self) -> int:
        return self._count * self._width


class SparseBitVector:
    """Monotone set of m positions over [1, n], split into high and low halves.

    The low bits of each (position - 1) go into packed lows in a word pool;
    the high halves become a unary-coded bitmap in a bit pool, where the
    j-th one sits at position high_j + j.  select1 is a single select on
    the high bitmap and one packed read.  The set is six fields from
    f[s]: its high bits' first word, the ones before them, its lows' first
    word, the low width, n - m, and the word after its high bits.
    """

    __slots__ = ("_pool", "_words", "_f", "_s", "_n", "_m", "_low_width")

    def __init__(self, pool: BitPool, words: array, f, s: int, m: int):
        """The set of m members whose six fields start at f[s]."""
        self._pool, self._words, self._f, self._s = pool, words, f, s
        self._n = f[s + 4] + m
        self._m = m
        self._low_width = f[s + 3]

    @classmethod
    def from_positions(cls, n: int, positions) -> "SparseBitVector":
        """Strictly increasing positions over [1, n], in pools of their
        own, with lows floor(log2(n/m)) bits wide."""
        pos = np.asarray(positions, dtype=np.int64)
        if len(pos):
            if pos[0] < 1 or pos[-1] > n:
                raise ValueError("positions out of range")
            if (pos[1:] <= pos[:-1]).any():
                raise ValueError("positions must be strictly increasing")
        return cls._own(n, pos)

    @classmethod
    def _own(cls, n: int, pos: np.ndarray) -> "SparseBitVector":
        # from_positions without its checks, for a stream's positions,
        # sound as made; a private name keeps it out of perfbench's trace
        m = len(pos)
        low_width, high = elias_fano([n - m], [m])
        lw = int(low_width[0])
        bits = PieceBuffer(high[:, None])
        lows = PieceBuffer(np.array([[m * lw]]))
        group, j, v = np.zeros(m, dtype=np.int64), np.arange(m), pos - 1
        bits.ones(0, group, (v >> lw) + j)
        lows.packed(0, group, j, v & ((1 << lw) - 1), low_width)
        pool = BitPool(bits.tobytes())
        return cls(pool, words_from(lows.tobytes()),
                   (0, 0, 0, lw, n - m, len(pool.words)), 0, m)

    @property
    def _high(self) -> BitVector:
        # one zero per high bucket 0..(n - 1) >> low width; no bits at all
        # when m is 0
        m, f, s = self._m, self._f, self._s
        n = m + ((self._n - 1) >> self._low_width) + 1 if m else 0
        return BitVector(self._pool, f[s], n, f[s + 1], m)

    @property
    def _lows(self) -> PackedIntArray:
        return PackedIntArray(self._words, self._f[self._s + 2], self._m,
                              self._low_width)

    def select1(self, j: int) -> int:
        if not 1 <= j <= self._m:
            raise ValueError(f"select1({j}) out of range, only {self._m} ones")
        h = self._high.select1(j) - j
        return ((h << self._low_width) | self._lows[j - 1]) + 1

    def code_bits(self) -> int:
        return len(self._high) + self._lows.code_bits()


class UnaryDeltaStream:
    """Sequence of non-negative integers coded as runs of zeros ended by ones.

    The i-th one lands at position (d_1 + .. + d_i) + i, so the prefix sum
    of the first i values is select1(i) - i.  Zero values are legal and cost
    a single one bit.  A stream made `from_values` sets its ones in pools
    of their own only when a prefix sum or its size first needs them, so
    reading its total builds no set.
    """

    __slots__ = ("_set", "_positions", "_count", "total")

    def __init__(self, members: SparseBitVector | None, count: int,
                 total: int, positions: np.ndarray | None = None):
        """The stream of the count ones of members, or of the ones at
        positions (int64s) where members is None; total: the sum of its
        values."""
        self._set, self._positions = members, positions
        self._count = count
        self.total = total

    @classmethod
    def from_values(cls, values) -> "UnaryDeltaStream":
        """Non-negative values; the i-th prefix sum plus i is the i-th
        member of a sparse set."""
        vals = np.asarray(values, dtype=np.int64)
        if len(vals) and vals.min() < 0:
            raise ValueError("values must be non-negative")
        positions = np.cumsum(vals, dtype=np.int64) + np.arange(1, len(vals) + 1)
        return cls(None, len(vals), int(vals.sum()), positions)

    @property
    def _members(self) -> SparseBitVector:
        if self._set is None:
            self._set = SparseBitVector._own(self._count + self.total,
                                             self._positions)
        return self._set

    def prefix_sum(self, i: int) -> int:
        """Sum of the first i values; i ranges over 0..count."""
        if not 0 <= i <= self._count:
            raise IndexError(f"prefix index {i} out of range 0..{self._count}")
        if i == 0:
            return 0
        return self._members.select1(i) - i

    def code_bits(self) -> int:
        return self._members.code_bits()
