"""Bit-level building blocks: rank/select bitmaps and unary-coded sums, in pools.

A `BitPool` holds many bitmaps back to back in one uint64 word array,
least significant bit first, each from a word boundary, with one
rank/select directory over the whole pool.  Packed integers live in a
plain word array, the word pool.  A bitmap is then its first word and the
number of ones before that word: local rank is the pool's rank less those
ones, and select bisects only the superblocks the bitmap spans.  The
functions below are the one implementation of select; the classes are
thin views over them, and callers that keep the bases elsewhere, such as
a log's fields, call the functions directly.

The public API uses 1-based positions.  Words and directories are
`array.array`s, whose items read back as plain Python ints.

An index file holds its logs' pools as they are (see `trajindex.encoder`).
Snapshots keep an encoding of their own: each structure's words and the
few u32s it cannot derive, with no frames and no versions,
little-endian, appended to a `Writer` and read back through a `Reader`.
A standalone view (`from_bits`, `from_positions`, ...) makes its private
pools straight from the encoders below.
"""

from __future__ import annotations

import gc
import struct
import sys
from array import array
from bisect import bisect_left
from contextlib import contextmanager

import numpy as np

_WORD_FULL = (1 << 64) - 1
U32_MAX = (1 << 32) - 1  # the largest value a u32 field holds
_SUPER_SHIFT = 3
_SUPER = 1 << _SUPER_SHIFT  # words per superblock, i.e. 512-bit superblocks
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


@contextmanager
def gc_paused():
    """Pause the cyclic garbage collector while the block allocates many
    small objects, which would otherwise set off one full collection
    after another; it is put back as it was however the block ends."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def words_from(data) -> array:
    """uint64 words from little-endian bytes (any buffer)."""
    words = array("Q")
    words.frombytes(data)
    if _BIG_ENDIAN:
        words.byteswap()
    return words


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

    def u32(self) -> int:
        return int.from_bytes(self.take(4), "little")

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

    def end(self) -> None:
        """Raise ValueError unless every byte has been read."""
        left = len(self._buf) - self._pos
        if left:
            raise ValueError(f"{left} trailing bytes after the last record")


# ------------------------------------------------------------------ pools

class BitPool:
    """Bitmaps back to back in one word array, with one directory.

    For ones, `super1[s]` counts the ones before 512-bit superblock s (one
    extra entry holds the total) and `block1[w]` the ones before word w
    inside its superblock, for every word of the last superblock and one
    more, so a bisection may span any whole superblock; `super0`/`block0`
    do the same for zeros.  The padding that ends a bitmap's last word
    counts as zeros, which no select of that bitmap reaches.
    """

    __slots__ = ("words", "super1", "block1", "super0", "block0")

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
        word = np.arange(len(cum))
        block = cum - cum[word & ~(_SUPER - 1)]
        starts = word[::_SUPER]
        for name, typecode, values in (
                ("super1", "q", cum[starts]), ("block1", "H", block),
                ("super0", "q", np.minimum(64 * starts, 64 * nw) - cum[starts]),
                ("block0", "H", 64 * (word & (_SUPER - 1)) - block)):
            setattr(self, name, array(typecode, values.astype(typecode).tobytes()))

    def nbytes(self) -> int:
        return nbytes(self.words, self.super1, self.block1, self.super0,
                      self.block0)

    def ones_before(self, w: np.ndarray) -> np.ndarray:
        """The ones before each word w, for w up to the pool's length."""
        return (np.frombuffer(self.super1, dtype=np.int64)[w >> _SUPER_SHIFT]
                + np.frombuffer(self.block1, dtype=np.uint16)[w])


# ------------------------------------------------- rank and select on pools

def access(pool: BitPool, base: int, i: int) -> int:
    """Bit i of the bitmap that starts at word base."""
    p = (base << 6) + i - 1
    return pool.words[p >> 6] >> (p & 63) & 1


def select(pool: BitPool, base: int, end: int, ones: int, j: int,
           zero: bool = False) -> int:
    """Position of the j-th set bit (unset bit, when zero) of the bitmap
    in words base..end-1, with `ones` set bits before it in the pool; the
    caller makes sure it exists.  Only those words' superblocks are
    bisected, then the words of one superblock."""
    if zero:
        sup = pool.super0
        block = pool.block0
        g = (base << 6) - ones + j
    else:
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
    word = pool.words[w] ^ _WORD_FULL if zero else pool.words[w]
    # the k-th set bit of the word: halve to the right byte by popcount,
    # then look the bit up
    k = rem - block[w]
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


def _scan(words, base, end, p, flip, last_mask):
    # p, a set bit of the words base..end-1 xor flip, then every set bit
    # after it; last_mask clears the padding of the last word
    w = base + ((p - 1) >> 6)
    cur = words[w] ^ flip
    if w == end - 1:
        cur &= last_mask
    cur = cur >> ((p - 1) & 63) >> 1
    yield p
    off = p
    while True:
        while cur:
            low = cur & -cur
            yield off + low.bit_length()
            cur ^= low
        # bits past the first are offsets from off; move to the next word
        w += 1
        if w >= end:
            return
        cur = words[w] ^ flip
        if w == end - 1:
            cur &= last_mask
        off = (w - base) << 6


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


def _low_width(n: int, m: int) -> int:
    return max(0, (n // m).bit_length() - 1) if m else 0


def _high_length(n: int, m: int, low_width: int) -> int:
    # one zero per high bucket 0..(n - 1) >> low_width, so every bucket
    # boundary is addressable with select0; no bits at all when m is 0
    return m + ((n - 1) >> low_width) + 1 if m else 0


# A sparse set of m positions over [1, n] is six fields from f[s]: its
# high bits' first word, the ones before them, its lows' first word, the
# low width, n - m, and the word after its high bits.

def sparse_select1(pool: BitPool, words: array, f, s: int, j: int) -> int:
    """Position of the set's j-th member; the caller makes sure it exists."""
    h = select(pool, f[s], f[s + 5], f[s + 1], j) - j
    return ((h << f[s + 3]) | packed_get(words, f[s + 2], f[s + 3], j - 1)) + 1


def sparse_search(pool: BitPool, words: array, f, s: int,
                  i: int) -> tuple[int, bool]:
    """(members at or below position i, whether i is one), for a set with
    members: a select0 finds where i's high bucket begins, the run of
    ones after it holds the bucket's members, and a bisection of their
    lows ranks i; the low just below the rank says whether i is in."""
    hbase, lbase, lw = f[s], f[s + 2], f[s + 3]
    h = (i - 1) >> lw
    lowv = (i - 1) & ((1 << lw) - 1)
    p = select(pool, hbase, f[s + 5], f[s + 1], h, True) if h else 0
    a = b = lo = p - h
    # count the run of ones from bit p + 1 on, word by word; the high
    # bits end with a zero
    w, off = divmod((hbase << 6) + p, 64)
    while True:
        x = pool.words[w] >> off
        run = (~x & (x + 1)).bit_length() - 1  # x's trailing ones
        b += run
        if run < 64 - off:
            break
        w, off = w + 1, 0
    while a < b:
        mid = (a + b) >> 1
        if packed_get(words, lbase, lw, mid) <= lowv:
            a = mid + 1
        else:
            b = mid
    return a, a > lo and packed_get(words, lbase, lw, a - 1) == lowv


def sparse_select0(pool: BitPool, words: array, f, s: int, m: int, j: int) -> int:
    """Position of the j-th value of [1, n] not among the set's m members.

    A high bucket spans 2**w values, w the low width, so the j-th zero
    falls in a bucket b between (j - 1) >> w and (j - 1 + m) >> w.
    Bisecting that range with select0 on the high bits finds the last
    bucket with fewer than j zeros before it; stepping over that bucket's
    members that lie at or below the candidate then places the zero.
    """
    if m == 0:
        return j
    hbase, hones, lbase, w, hend = f[s], f[s + 1], f[s + 2], f[s + 3], f[s + 5]
    b = (j - 1) >> w
    top = min((j - 1 + m) >> w, (f[s + 4] + m - 1) >> w)
    # at: high position of the b-th zero, which ends bucket b - 1, so
    # bucket b's members follow it and at - b members come before it
    at = select(pool, hbase, hend, hones, b, True) if b else 0
    while b < top:
        mid = (b + top + 1) >> 1
        p = select(pool, hbase, hend, hones, mid, True)
        if (mid << w) - (p - mid) < j:
            b, at = mid, p
        else:
            top = mid - 1
    i = at - b
    v = j - 1 + i  # 0-based value of the zero if no member of b is below it
    while (i < m and access(pool, hbase, at + 1)
           and (b << w) + packed_get(words, lbase, w, i) <= v):
        v += 1
        i += 1
        at += 1
    return v + 1


def sparse_ones(pool: BitPool, words: array, f, s: int, m: int, start: int):
    """Yield the positions of the set's m members from the start-th on."""
    if start > m:
        return
    j = start
    hbase, hend, lbase, lw = f[s], f[s + 5], f[s + 2], f[s + 3]
    at = (j - 1) * lw  # bit offset of the j-th low
    for p in _scan(pool.words, hbase, hend,
                   select(pool, hbase, hend, f[s + 1], start), 0, _WORD_FULL):
        low = 0
        if lw:  # packed_get, inline: this loop decodes every position
            w, off = lbase + (at >> 6), at & 63
            low = words[w] >> off
            if off + lw > 64:
                low |= words[w + 1] << (64 - off)
            low &= (1 << lw) - 1
        yield (((p - j) << lw) | low) + 1
        j += 1
        at += lw


def unary_prefixes(pool: BitPool, words: array, f, s: int, m: int, start: int):
    """Yield the sums of the first start, start + 1, ... values of the
    m-value unary stream whose sparse set's fields start at f[s]."""
    j = start
    if j == 0:
        yield 0
        j = 1
    for p in sparse_ones(pool, words, f, s, m, j):
        yield p - j
        j += 1


# --------------------------------------------------------------- encoders
#
# The array encoders work on many structures at once, as the fleet
# encoder (`trajindex.encoder`) needs them: a value belongs to a group (a
# structure) and has a rank in it, and every per-group number is one array
# operation.  `packed_words` and `sparse_halves` encode one structure,
# for a standalone view or a snapshot.

_POW2 = np.uint64(1) << np.arange(63, dtype=np.uint64)


def ranks(counts) -> np.ndarray:
    """0, 1, ..., c - 1 for each count c, back to back."""
    counts = np.asarray(counts, dtype=np.int64)
    ends = np.cumsum(counts)
    out = np.arange(ends[-1] if len(ends) else 0)
    out -= np.repeat(ends - counts, counts)
    return out


def bit_lengths(values) -> np.ndarray:
    """`int.bit_length` of each non-negative int64 value."""
    return np.searchsorted(_POW2, np.asarray(values).astype(np.uint64),
                           side="right").astype(np.int64)


def elias_fano(n, m):
    """The low widths and high-bit lengths of sparse sets of m[g] members
    over [1, n[g]], as `write_sparse` makes them for one set; every number
    fits an int64."""
    low_width = np.where(m > 0, np.maximum(
        bit_lengths(n // np.maximum(m, 1)) - 1, 0), 0)
    return low_width, np.where(m > 0, m + ((n - 1) >> low_width) + 1, 0)


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


def bits_at(n: int, positions) -> np.ndarray:
    """n bits as 0/1 bytes, set at the 1-based positions given."""
    pos = np.asarray(positions, dtype=np.int64)
    if len(pos) and (pos.min() < 1 or pos.max() > n):
        raise ValueError("position out of range")
    bits = np.zeros(n, dtype=np.uint8)
    bits[pos - 1] = 1
    return bits


def packed_words(values, width: int) -> bytes:
    """Fixed-width unsigned values, back to back, as whole words."""
    vals = np.asarray(values, dtype=np.uint64)
    if not 0 <= width <= 64:
        raise ValueError("width must be in 0..64")
    if len(vals) and width < 64 and vals.max() >> width:
        raise ValueError(f"value does not fit in {width} bits")
    return _bit_words(((vals[:, None] >> np.arange(width, dtype=np.uint64))
                       & np.uint64(1)).ravel())


def sparse_halves(n: int, positions) -> tuple[bytes, np.ndarray]:
    """Strictly increasing positions over [1, n]: the low bits of each
    (position - 1) as packed words, and the high bits in unary as 0/1
    bytes (see SparseBitVector)."""
    pos = np.asarray(positions, dtype=np.int64)
    m = len(pos)
    if m:
        if pos[0] < 1 or pos[-1] > n:
            raise ValueError("positions out of range")
        if (pos[1:] <= pos[:-1]).any():
            raise ValueError("positions must be strictly increasing")
    low_width = _low_width(n, m)
    v = pos - 1
    return (packed_words(v & ((1 << low_width) - 1), low_width),
            bits_at(_high_length(n, m, low_width),
                    (v >> low_width) + np.arange(1, m + 1)))


def write_sparse(w: Writer, n: int, positions) -> None:
    """The lows, then the high bits, of `sparse_halves`."""
    lows, high = sparse_halves(n, positions)
    w += lows
    w.bits(high)


# ------------------------------------------------------------------ views

class BitVector:
    """A bitmap in a pool: rank in constant time, select by bisecting the
    directory over the superblocks it spans and the words of one, and a
    table-driven select in the word."""

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

    @property
    def count_ones(self) -> int:
        return self._count

    @property
    def count_zeros(self) -> int:
        return self._n - self._count

    def nbytes(self) -> int:
        """Bytes of the pool the bitmap lives in, directory included."""
        return self._pool.nbytes()

    def access(self, i: int) -> int:
        if not 1 <= i <= self._n:
            raise IndexError(f"bit index {i} out of range 1..{self._n}")
        return access(self._pool, self._base, i)

    def rank1(self, i: int) -> int:
        """Number of set bits among positions 1..i (i may be 0)."""
        if not 0 <= i <= self._n:
            raise IndexError(f"rank index {i} out of range 0..{self._n}")
        pool, p = self._pool, (self._base << 6) + i
        w = p >> 6
        r = pool.super1[w >> _SUPER_SHIFT] + pool.block1[w] - self._ones
        if p & 63:
            r += (pool.words[w] & ((1 << (p & 63)) - 1)).bit_count()
        return r

    def select1(self, j: int) -> int:
        """Position of the j-th set bit, 1-based."""
        if not 1 <= j <= self._count:
            raise ValueError(f"select1({j}) out of range, only {self._count} ones")
        return select(self._pool, self._base, self._end, self._ones, j)

    def select0(self, j: int) -> int:
        """Position of the j-th unset bit, 1-based."""
        if not 1 <= j <= self.count_zeros:
            raise ValueError(f"select0({j}) out of range, only "
                             f"{self.count_zeros} zeros")
        return select(self._pool, self._base, self._end, self._ones, j, True)

    def ones(self, start: int = 1):
        """Yield positions of set bits, beginning with the start-th one."""
        if start < 1:
            raise ValueError("start must be >= 1")
        if start <= self._count:
            yield from _scan(self._pool.words, self._base, self._end,
                             self.select1(start), 0, _WORD_FULL)

    def zeros(self, start: int = 1):
        """Yield positions of unset bits, beginning with the start-th zero."""
        if start < 1:
            raise ValueError("start must be >= 1")
        if start <= self.count_zeros:
            last = (1 << (self._n - 64 * (self._end - self._base - 1))) - 1
            yield from _scan(self._pool.words, self._base, self._end,
                             self.select0(start), _WORD_FULL, last)

    def code_bits(self) -> int:
        """Bits of the payload itself, directories excluded."""
        return self._n

    def write(self, w: Writer) -> None:
        w.words(self._pool.words[self._base:self._end])

    @classmethod
    def read(cls, r: Reader, n: int) -> "BitVector":
        return cls.from_bits(r.bits(n))


class PackedIntArray:
    """Fixed-width unsigned integers packed back to back in a word pool."""

    __slots__ = ("_words", "_base", "_count", "_width")

    def __init__(self, words: array, base: int, count: int, width: int):
        self._words = words
        self._base = base
        self._count = count
        self._width = width

    @classmethod
    def from_values(cls, values, width: int) -> "PackedIntArray":
        return cls(words_from(packed_words(values, width)), 0, len(values),
                   width)

    def __len__(self) -> int:
        return self._count

    @property
    def width(self) -> int:
        return self._width

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

    The low floor(log2(n/m)) bits of each (position - 1) go into packed
    lows in a word pool; the high halves become a unary-coded bitmap in a
    bit pool, where the j-th one sits at position high_j + j.  select1 is a
    single select on the high bitmap; rank1 finds one high bucket with a
    select0 and bisects its lows, so it costs O(log(n/m)).  select0
    bisects the few high buckets the j-th zero can fall in, with select0s
    on the high bitmap, and walks the lows of one bucket.
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
        return cls._of(n, len(positions), *sparse_halves(n, positions))

    @classmethod
    def _of(cls, n: int, m: int, lows, high: np.ndarray) -> "SparseBitVector":
        # a set of its own, from its packed lows and its high bits as 0/1
        # bytes
        pool = BitPool(_bit_words(high))
        f = (0, 0, 0, _low_width(n, m), n - m, len(pool.words))
        return cls(pool, words_from(lows), f, 0, m)

    def __len__(self) -> int:
        return self._n

    @property
    def count_ones(self) -> int:
        return self._m

    @property
    def _high(self) -> BitVector:
        f, s = self._f, self._s
        return BitVector(self._pool, f[s], _high_length(self._n, self._m,
                                                        self._low_width),
                         f[s + 1], self._m)

    @property
    def _lows(self) -> PackedIntArray:
        return PackedIntArray(self._words, self._f[self._s + 2], self._m,
                              self._low_width)

    def select1(self, j: int) -> int:
        if not 1 <= j <= self._m:
            raise ValueError(f"select1({j}) out of range, only {self._m} ones")
        h = self._high.select1(j) - j
        return ((h << self._low_width) | self._lows[j - 1]) + 1

    def _search(self, i: int) -> tuple[int, bool]:
        if self._m == 0:
            return 0, False
        return sparse_search(self._pool, self._words, self._f, self._s, i)

    def rank1(self, i: int) -> int:
        if not 0 <= i <= self._n:
            raise IndexError(f"rank index {i} out of range 0..{self._n}")
        return self._search(i)[0] if i else 0

    def access(self, i: int) -> int:
        if not 1 <= i <= self._n:
            raise IndexError(f"bit index {i} out of range 1..{self._n}")
        return int(self._search(i)[1])

    def select0(self, j: int) -> int:
        """Position of the j-th absent value, 1-based."""
        total0 = self._n - self._m
        if not 1 <= j <= total0:
            raise ValueError(f"select0({j}) out of range, only {total0} zeros")
        return sparse_select0(self._pool, self._words, self._f, self._s,
                              self._m, j)

    def ones(self, start: int = 1):
        """Iterate member positions in order, beginning with the start-th."""
        if start < 1:
            raise ValueError("start must be >= 1")
        return sparse_ones(self._pool, self._words, self._f, self._s, self._m,
                           start)

    def zeros(self, start: int = 1):
        """Yield non-member positions in order, beginning with the start-th."""
        if start < 1:
            raise ValueError("start must be >= 1")
        if start > self._n - self._m:
            return
        pos = self.select0(start)
        it = self.ones(pos - start + 1)
        nxt = next(it, 0)
        yield pos
        pos += 1
        while pos <= self._n:
            while nxt and nxt == pos:
                nxt = next(it, 0)
                pos += 1
            if pos > self._n:
                return
            yield pos
            pos += 1

    def code_bits(self) -> int:
        return len(self._high) + self._lows.code_bits()

    @classmethod
    def read(cls, r: Reader, n: int, m: int) -> "SparseBitVector":
        """The m positions over [1, n] that `write_sparse` stored; high
        bits that hold other than m ones raise ValueError."""
        low_width = _low_width(n, m)
        lows = r.take(8 * ((m * low_width + 63) >> 6))
        high = r.bits(_high_length(n, m, low_width))
        count = int(np.count_nonzero(high))
        if count != m:
            raise ValueError(f"sparse bitmap holds {count} of {m} ones")
        return cls._of(n, m, lows, high)


class UnaryDeltaStream:
    """Sequence of non-negative integers coded as runs of zeros ended by ones.

    The i-th one lands at position (d_1 + .. + d_i) + i, so the prefix sum
    of the first i values is select1(i) - i.  Zero values are legal and cost
    a single one bit.
    """

    __slots__ = ("_members", "_count")

    def __init__(self, members: SparseBitVector, count: int):
        self._members = members
        self._count = count

    @classmethod
    def from_values(cls, values) -> "UnaryDeltaStream":
        """Non-negative values; the i-th prefix sum plus i is the i-th
        member of a sparse set."""
        vals = np.asarray(values, dtype=np.int64)
        if len(vals) and vals.min() < 0:
            raise ValueError("values must be non-negative")
        positions = np.cumsum(vals, dtype=np.int64) + np.arange(1, len(vals) + 1)
        universe = int(positions[-1]) if len(vals) else 0
        return cls(SparseBitVector.from_positions(universe, positions),
                   len(vals))

    def __len__(self) -> int:
        return self._count

    @property
    def total(self) -> int:
        return self.prefix_sum(self._count)

    def prefix_sum(self, i: int) -> int:
        """Sum of the first i values; i ranges over 0..count."""
        if not 0 <= i <= self._count:
            raise IndexError(f"prefix index {i} out of range 0..{self._count}")
        if i == 0:
            return 0
        return self._members.select1(i) - i

    def prefix_iter(self, start: int = 0):
        """Iterate prefix_sum(start), prefix_sum(start + 1), ... up to the
        total; opening the walk costs one select."""
        if not 0 <= start <= self._count:
            raise IndexError(f"prefix index {start} out of range 0..{self._count}")
        m = self._members
        return unary_prefixes(m._pool, m._words, m._f, m._s, self._count, start)

    def code_bits(self) -> int:
        return self._members.code_bits()
