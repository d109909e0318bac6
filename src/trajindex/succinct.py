"""Bit-level building blocks: rank/select bitmaps and unary-coded sums.

Everything here is immutable once built and uses 1-based positions in its
public API.  Bits live in uint64 words, least significant bit first, so
word w holds positions 64*w+1 .. 64*w+64.  Words and directories are kept
in `array.array` containers, whose items read back as plain Python ints,
so no scalar query touches a numpy scalar.

On disk there are no frames and no per-structure versions: each class
`write`s only its words (and the few u32s it cannot derive) to a
`Writer`, and `read`s them back from a `Reader` given the lengths its
caller already knows.  Words and u32s are little-endian.
"""

from __future__ import annotations

import gc
import struct
import sys
from array import array
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from itertools import accumulate

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


def _words_from(data) -> array:
    """uint64 words from little-endian bytes (any buffer)."""
    words = array("Q")
    words.frombytes(data)
    if _BIG_ENDIAN:
        words.byteswap()
    return words


def _packed_words(bits: np.ndarray) -> array:
    """uint64 words holding a 0/1 uint8 array, least significant bit first."""
    packed = np.packbits(bits, bitorder="little").tobytes()
    return _words_from(packed + bytes(-len(packed) % 8))


def _words_to_bytes(words: array) -> bytes:
    if _BIG_ENDIAN:
        words = array("Q", words)
        words.byteswap()
    return words.tobytes()


class Writer(bytearray):
    """A buffer that appends little-endian u32s and uint64 word arrays."""

    def u32(self, *values: int) -> None:
        self += struct.pack(f"<{len(values)}I", *values)

    def u32s(self, values: np.ndarray) -> None:
        self += np.asarray(values, dtype="<u4").tobytes()

    def words(self, words: array) -> None:
        self += _words_to_bytes(words)


class Reader:
    """Cursor over what a `Writer` wrote.

    Every read copies, so nothing built from it keeps the buffer alive.
    Asking for more bytes than are left raises ValueError before anything
    is allocated, so a corrupt length cannot ask for a huge array.
    """

    def __init__(self, buf):
        self._buf = memoryview(buf)
        self._pos = 0

    def _take(self, size: int) -> memoryview:
        end = self._pos + size
        if size < 0 or end > len(self._buf):
            raise ValueError(f"truncated input: {size} bytes wanted at offset "
                             f"{self._pos}, {len(self._buf) - self._pos} left")
        view = self._buf[self._pos:end]
        self._pos = end
        return view

    def u32(self) -> int:
        return int.from_bytes(self._take(4), "little")

    def u32s(self, count: int) -> np.ndarray:
        return np.frombuffer(self._take(4 * count), dtype="<u4").astype(np.uint32)

    def words(self, count: int) -> array:
        return _words_from(self._take(8 * count))

    def end(self) -> None:
        """Raise ValueError unless every byte has been read."""
        left = len(self._buf) - self._pos
        if left:
            raise ValueError(f"{left} trailing bytes after the last record")


def _select_in_word(word: int, k: int) -> int:
    # position (1..64) of the k-th set bit; caller guarantees it exists.
    # Halve to the right byte by popcount, then look the bit up.
    pos = 1
    c = (word & 0xFFFFFFFF).bit_count()
    if k > c:
        k -= c
        word >>= 32
        pos = 33
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


class BitVector:
    """Plain bitmap with constant-time rank and near-constant select.

    Each bit value has a two-level directory: `_super1[s]` counts the ones
    before 512-bit superblock s (one extra entry holds the total) and
    `_block1[w]` counts the ones before word w inside its superblock (one
    extra entry covers the word past the end); `_super0`/`_block0` do the
    same for zeros, padding bits excluded.  Rank adds the two counts to a
    popcount of the masked word.  Select bisects the superblock counts,
    then bisects the at most eight per-word counts of that superblock,
    which are monotone inside it, and finishes with a table-driven select
    in the word.  All of it reads plain ints out of `array.array`s.
    """

    def __init__(self, words: array, n: int):
        """words: an array("Q") of (n + 63) // 64 words, kept as given."""
        nw = len(words)
        if n < 0 or nw != (n + 63) // 64:
            raise ValueError("word count does not match bit length")
        self._words = words
        self._n = n
        # cum[w]: ones in words 0..w-1, for w = 0..nw
        cum = list(accumulate(map(int.bit_count, words), initial=0))
        total = cum[-1]
        sup = cum[::_SUPER]
        if nw % _SUPER:
            sup.append(total)
        block = [c - cum[w - w % _SUPER] for w, c in enumerate(cum)]
        sup0 = [64 * _SUPER * s - c for s, c in enumerate(sup)]
        sup0[-1] = n - total  # padding bits of the last word are no zeros
        self._super1 = array("q", sup)
        self._block1 = array("H", block)
        self._super0 = array("q", sup0)
        self._block0 = array("H", [64 * (w % _SUPER) - block[w]
                                   for w in range(nw)])

    @classmethod
    def from_bits(cls, bits) -> "BitVector":
        arr = np.asarray(bits, dtype=np.uint8)
        return cls(_packed_words(arr), len(arr))

    @classmethod
    def from_set_positions(cls, n: int, positions) -> "BitVector":
        """Build from 1-based positions of the set bits."""
        pos = np.asarray(positions, dtype=np.int64)
        if len(pos) and (pos.min() < 1 or pos.max() > n):
            raise ValueError("position out of range")
        bits = np.zeros(n, dtype=np.uint8)
        bits[pos - 1] = 1
        return cls.from_bits(bits)

    def __len__(self) -> int:
        return self._n

    @property
    def count_ones(self) -> int:
        return self._super1[-1]

    @property
    def count_zeros(self) -> int:
        return self._super0[-1]

    def access(self, i: int) -> int:
        if not 1 <= i <= self._n:
            raise IndexError(f"bit index {i} out of range 1..{self._n}")
        i -= 1
        return self._words[i >> 6] >> (i & 63) & 1

    def rank1(self, i: int) -> int:
        """Number of set bits among positions 1..i (i may be 0)."""
        if not 0 <= i <= self._n:
            raise IndexError(f"rank index {i} out of range 0..{self._n}")
        w = i >> 6
        r = i & 63
        if r:
            return (self._super1[w >> _SUPER_SHIFT] + self._block1[w]
                    + (self._words[w] & ((1 << r) - 1)).bit_count())
        return self._super1[w >> _SUPER_SHIFT] + self._block1[w]

    def select1(self, j: int) -> int:
        """Position of the j-th set bit, 1-based."""
        sup = self._super1
        if not 1 <= j <= sup[-1]:
            raise ValueError(f"select1({j}) out of range, only {sup[-1]} ones")
        s = bisect_left(sup, j) - 1
        rem = j - sup[s]
        base = s << _SUPER_SHIFT
        block = self._block1
        w = bisect_left(block, rem, base + 1,
                        min(base + _SUPER, len(self._words))) - 1
        return 64 * w + _select_in_word(self._words[w], rem - block[w])

    def select0(self, j: int) -> int:
        """Position of the j-th unset bit, 1-based."""
        sup = self._super0
        if not 1 <= j <= sup[-1]:
            raise ValueError(f"select0({j}) out of range, only {sup[-1]} zeros")
        s = bisect_left(sup, j) - 1
        rem = j - sup[s]
        base = s << _SUPER_SHIFT
        block = self._block0
        w = bisect_left(block, rem, base + 1,
                        min(base + _SUPER, len(self._words))) - 1
        # padding bits sit above every real bit, so the complement needs no
        # mask: the rem-th zero always comes before them
        return 64 * w + _select_in_word(self._words[w] ^ _WORD_FULL,
                                        rem - block[w])

    def ones(self, start: int = 1):
        """Yield positions of set bits, beginning with the start-th one."""
        if start < 1:
            raise ValueError("start must be >= 1")
        if start > self.count_ones:
            return
        p = self.select1(start)
        words = self._words
        w = (p - 1) >> 6
        cur = words[w] >> ((p - 1) & 63) >> 1
        yield p
        base = p
        nw = len(words)
        while True:
            while cur:
                low = cur & -cur
                yield base + low.bit_length()
                cur ^= low
            # bits past the first are offsets from base; move to next word
            w += 1
            if w >= nw:
                return
            cur = words[w]
            base = 64 * w

    def zeros(self, start: int = 1):
        """Yield positions of unset bits, beginning with the start-th zero."""
        if start < 1:
            raise ValueError("start must be >= 1")
        if start > self.count_zeros:
            return
        p = self.select0(start)
        words = self._words
        w = (p - 1) >> 6
        nw = len(words)
        # complement of the last word, its padding bits cleared
        last = (words[-1] ^ _WORD_FULL) & ((1 << (self._n - 64 * (nw - 1))) - 1)
        cur = last if w == nw - 1 else words[w] ^ _WORD_FULL
        cur = cur >> ((p - 1) & 63) >> 1
        yield p
        base = p
        while True:
            while cur:
                low = cur & -cur
                yield base + low.bit_length()
                cur ^= low
            w += 1
            if w >= nw:
                return
            cur = last if w == nw - 1 else words[w] ^ _WORD_FULL
            base = 64 * w

    def code_bits(self) -> int:
        """Bits of the payload itself, directories excluded."""
        return self._n

    def write(self, w: Writer) -> None:
        w.words(self._words)

    @classmethod
    def read(cls, r: Reader, n: int) -> "BitVector":
        words = r.words((n + 63) // 64)
        if n % 64 and words[-1] >> n % 64:
            raise ValueError("bitmap has bits set past its end")
        return cls(words, n)


class PackedIntArray:
    """Fixed-width unsigned integers packed back to back into uint64 words."""

    def __init__(self, words: array, count: int, width: int):
        if not 0 <= width <= 64:
            raise ValueError("width must be in 0..64")
        need = (count * width + 63) // 64
        if len(words) != need:
            raise ValueError("word count does not match")
        self._words = words
        self._count = count
        self._width = width

    @classmethod
    def from_values(cls, values, width: int) -> "PackedIntArray":
        vals = np.asarray(values, dtype=np.uint64)
        count = len(vals)
        if width == 0 or count == 0:
            if count and vals.max() > 0:
                raise ValueError("nonzero value with zero width")
            return cls(array("Q"), count, width)
        if width < 64 and vals.max() >> width:
            raise ValueError(f"value does not fit in {width} bits")
        bits = (vals[:, None] >> np.arange(width, dtype=np.uint64)) & np.uint64(1)
        return cls(_packed_words(bits.astype(np.uint8).ravel()), count, width)

    def __len__(self) -> int:
        return self._count

    @property
    def width(self) -> int:
        return self._width

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self._count:
            raise IndexError(f"index {i} out of range 0..{self._count - 1}")
        if self._width == 0:
            return 0
        s = i * self._width
        w, off = s >> 6, s & 63
        v = self._words[w] >> off
        if off + self._width > 64:
            v |= self._words[w + 1] << (64 - off)
        return v & ((1 << self._width) - 1)

    def __iter__(self):
        for i in range(self._count):
            yield self[i]

    def code_bits(self) -> int:
        return self._count * self._width

    def write(self, w: Writer) -> None:
        w.words(self._words)

    @classmethod
    def read(cls, r: Reader, count: int, width: int) -> "PackedIntArray":
        return cls(r.words((count * width + 63) // 64), count, width)


def _low_width(n: int, m: int) -> int:
    return max(0, (n // m).bit_length() - 1) if m else 0


def _high_length(n: int, m: int, low_width: int) -> int:
    # one zero per high bucket 0..(n - 1) >> low_width, so every bucket
    # boundary is addressable with select0; no bits at all when m is 0
    return m + ((n - 1) >> low_width) + 1 if m else 0


class SparseBitVector:
    """Monotone set of m positions over [1, n], split into high and low halves.

    The low floor(log2(n/m)) bits of each (position - 1) go into a packed
    array; the high halves become a unary-coded bitmap where the j-th one
    sits at position high_j + j.  select1 is a single select on the high
    bitmap; rank1 bounds one high bucket with two select0s and bisects
    its lows, so it costs O(log(n/m)).  The same search also tells whether
    the probed position is a member, which `rank1_member` returns.
    select0 bisects the few high buckets the j-th zero can fall in, with
    select0s on the high bitmap, and walks the lows of one bucket.
    """

    def __init__(self, n: int, low_width: int, lows: PackedIntArray, high: BitVector):
        self._n = n
        self._m = len(lows)
        self._low_width = low_width
        self._lows = lows
        self._high = high

    @classmethod
    def from_positions(cls, n: int, positions) -> "SparseBitVector":
        pos = np.asarray(positions, dtype=np.int64)
        m = len(pos)
        if m:
            if pos[0] < 1 or pos[-1] > n:
                raise ValueError("positions out of range")
            if (pos[1:] <= pos[:-1]).any():
                raise ValueError("positions must be strictly increasing")
        low_width = _low_width(n, m)
        v = pos - 1
        lows = PackedIntArray.from_values(v & ((1 << low_width) - 1), low_width)
        high = BitVector.from_set_positions(_high_length(n, m, low_width),
                                            (v >> low_width) + np.arange(1, m + 1))
        return cls(n, low_width, lows, high)

    def __len__(self) -> int:
        return self._n

    @property
    def count_ones(self) -> int:
        return self._m

    def select1(self, j: int) -> int:
        if not 1 <= j <= self._m:
            raise ValueError(f"select1({j}) out of range, only {self._m} ones")
        h = self._high.select1(j) - j
        return ((h << self._low_width) | self._lows[j - 1]) + 1

    def _search(self, i: int) -> tuple[int, bool]:
        # (rank1(i), whether i is a member) for 1 <= i <= n and m > 0: the
        # two select0s bound i's high bucket, one bisection over its lows
        # finds the rank, and the low just below it says if i is in the set
        v = i - 1
        h = v >> self._low_width
        lowv = v & ((1 << self._low_width) - 1)
        high = self._high
        lo = high.select0(h) - h if h else 0
        r = bisect_right(self._lows, lowv, lo, high.select0(h + 1) - h - 1)
        return r, r > lo and self._lows[r - 1] == lowv

    def rank1(self, i: int) -> int:
        if not 0 <= i <= self._n:
            raise IndexError(f"rank index {i} out of range 0..{self._n}")
        if i == 0 or self._m == 0:
            return 0
        return self._search(i)[0]

    def rank1_member(self, i: int) -> tuple[int, bool]:
        """(rank1(i), whether position i is set) from one bucket search."""
        if not 1 <= i <= self._n:
            raise IndexError(f"bit index {i} out of range 1..{self._n}")
        if self._m == 0:
            return 0, False
        return self._search(i)

    def access(self, i: int) -> int:
        if not 1 <= i <= self._n:
            raise IndexError(f"bit index {i} out of range 1..{self._n}")
        return int(self._m > 0 and self._search(i)[1])

    def select0(self, j: int) -> int:
        """Position of the j-th absent value, 1-based.

        A high bucket spans 2**w values, w the low width, and the set has
        m members, so the j-th zero falls in a bucket b between
        (j - 1) >> w and (j - 1 + m) >> w.  Bisecting that range with select0 on the high
        bitmap finds the last bucket with fewer than j zeros before it;
        stepping over that bucket's members that lie at or below the
        candidate then places the zero.
        """
        total0 = self._n - self._m
        if not 1 <= j <= total0:
            raise ValueError(f"select0({j}) out of range, only {total0} zeros")
        m = self._m
        if m == 0:
            return j
        w = self._low_width
        high = self._high
        b = (j - 1) >> w
        top = min((j - 1 + m) >> w, (self._n - 1) >> w)
        # at: high position of the b-th zero, which ends bucket b - 1, so
        # bucket b's members follow it and at - b members come before it
        at = high.select0(b) if b else 0
        while b < top:
            mid = (b + top + 1) >> 1
            p = high.select0(mid)
            if (mid << w) - (p - mid) < j:
                b, at = mid, p
            else:
                top = mid - 1
        i = at - b
        v = j - 1 + i  # 0-based value of the zero if no member of b is below it
        lows, base = self._lows, b << w
        while i < m and high.access(at + 1) and base + lows[i] <= v:
            v += 1
            i += 1
            at += 1
        return v + 1

    def ones(self, start: int = 1):
        """Yield member positions in order, beginning with the start-th."""
        if start < 1:
            raise ValueError("start must be >= 1")
        j = start
        w = self._low_width
        for p in self._high.ones(start):
            yield (((p - j) << w) | self._lows[j - 1]) + 1
            j += 1

    def zeros(self, start: int = 1):
        """Yield non-member positions in order, beginning with the start-th."""
        if start < 1:
            raise ValueError("start must be >= 1")
        if start > self._n - self._m:
            return
        pos = self.select0(start)
        seen = pos - start
        it = self.ones(seen + 1) if seen < self._m else iter(())
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

    def write(self, w: Writer) -> None:
        self._lows.write(w)
        self._high.write(w)

    @classmethod
    def read(cls, r: Reader, n: int, m: int) -> "SparseBitVector":
        """The m positions over [1, n] that `write` stored."""
        low_width = _low_width(n, m)
        lows = PackedIntArray.read(r, m, low_width)
        high = BitVector.read(r, _high_length(n, m, low_width))
        if high.count_ones != m:
            raise ValueError(f"sparse bitmap holds {high.count_ones} of {m} ones")
        return cls(n, low_width, lows, high)


class UnaryDeltaStream:
    """Sequence of non-negative integers coded as runs of zeros ended by ones.

    The i-th one lands at position (d_1 + .. + d_i) + i, so the prefix sum
    of the first i values is select1(i) - i.  Zero values are legal and cost
    a single one bit.
    """

    def __init__(self, members: SparseBitVector, count: int):
        self._members = members
        self._count = count

    @classmethod
    def from_values(cls, values) -> "UnaryDeltaStream":
        vals = np.asarray(values, dtype=np.int64)
        count = len(vals)
        if count and vals.min() < 0:
            raise ValueError("values must be non-negative")
        prefix = np.cumsum(vals, dtype=np.int64)
        positions = prefix + np.arange(1, count + 1)
        universe = int(positions[-1]) if count else 0
        return cls(SparseBitVector.from_positions(universe, positions), count)

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
        """Yield prefix_sum(start), prefix_sum(start + 1), ... up to the
        total; opening the walk costs one select."""
        if not 0 <= start <= self._count:
            raise IndexError(f"prefix index {start} out of range 0..{self._count}")
        j = start
        if j == 0:
            yield 0
            j = 1
        for p in self._members.ones(j):
            yield p - j
            j += 1

    def code_bits(self) -> int:
        return self._members.code_bits()

    def write(self, w: Writer) -> None:
        w.u32(len(self._members) - self._count)  # the total, without a select
        self._members.write(w)

    @classmethod
    def read(cls, r: Reader, count: int) -> "UnaryDeltaStream":
        """A stream of count values; its total is the one stored number."""
        total = r.u32()
        return cls(SparseBitVector.read(r, total + count, count), count)
