from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bit
from trajindex import succinct
from trajindex.succinct import (
    BitPool,
    BitVector,
    PackedIntArray,
    PieceBuffer,
    Reader,
    SparseBitVector,
    UnaryDeltaStream,
    Writer,
    bit_lengths,
    next_one,
    packed_at,
    packed_get,
    rank,
    select,
    select_many,
    words_from,
)


def brute(bits):
    """(cumulative ones, positions of ones)."""
    arr = np.asarray(bits, dtype=np.int64)
    return np.concatenate([[0], np.cumsum(arr)]), list(np.flatnonzero(arr) + 1)


def nexts(bits):
    """For each position 1..n, the first one at or after it, 0 if none."""
    out, nxt = [], 0
    for i in range(len(bits), 0, -1):
        nxt = i if bits[i - 1] else nxt
        out.append(nxt)
    return out[::-1]


def alone(bits):
    """A pool holding the bitmap bits alone, from word 0, and the word
    after it: the arguments the pool functions take, with no ones before
    it."""
    w = Writer()
    w.bits(bits)
    return BitPool(w), len(w) // 8


def parts(sv):
    """A set's pool, words and fields, which the pool functions take."""
    return sv._pool, sv._words, sv._f


def high_members(sv, start=1):
    """The set's members from the start-th on, read as `log.decode` reads
    a stream: the places of its high bits' ones (`BitVector.ones`), the
    j-th less j above the j-th low, plus 1."""
    lw = sv._low_width
    return [((p - j) << lw | sv._lows[j - 1]) + 1
            for j, p in enumerate(sv._high.ones(start), start)]


def packed(values, width):
    """values at width bits each, packed from word 0 of a word array of
    their own by the encoder the index packs with."""
    vals = np.asarray(values, dtype=np.uint64).astype(np.int64)
    buf = PieceBuffer(np.array([[len(vals) * width]]))
    buf.packed(0, np.zeros(len(vals), dtype=np.int64), np.arange(len(vals)),
               vals, np.array([width]))
    return words_from(buf.tobytes())


class TestBitVector:
    def test_known_small(self):
        # B = 1011
        bv = BitVector.from_bits([1, 0, 1, 1])
        pool, _ = alone([1, 0, 1, 1])
        assert len(bv) == 4 and bv.rank1(4) == 3
        assert [bit(pool, 0, i) for i in range(1, 5)] == [1, 0, 1, 1]
        assert [bv.rank1(i) for i in range(5)] == [0, 1, 1, 2, 3]
        assert [rank(pool, 0, 0, i) for i in range(5)] == [0, 1, 1, 2, 3]
        assert [bv.select1(j) for j in (1, 2, 3)] == [1, 3, 4]
        assert [next_one(pool, 0, i) for i in range(1, 5)] == [1, 3, 3, 4]

    def test_empty(self):
        bv = BitVector.from_bits([])
        assert len(bv) == 0
        assert bv.rank1(0) == 0
        with pytest.raises(ValueError):
            bv.select1(1)
        assert list(bv.ones()) == []

    @pytest.mark.parametrize("density", [0.01, 0.1, 0.5, 0.95])
    @pytest.mark.parametrize("n", [1, 64, 65, 511, 512, 513, 5000])
    def test_matches_brute_force(self, density, n):
        rng = np.random.default_rng(int(density * 100) * 7919 + n)
        bits = (rng.random(n) < density).astype(np.uint8)
        bv = BitVector.from_bits(bits)
        pool, _ = alone(bits)
        cum, ones = brute(bits)
        for i in range(n + 1):
            assert bv.rank1(i) == cum[i]
        assert [bv.select1(j) for j in range(1, len(ones) + 1)] == ones
        last = ones[-1] if ones else 0
        assert [next_one(pool, 0, i) for i in range(1, last + 1)] == \
            nexts(bits)[:last]
        assert list(bv.ones()) == ones

    @given(st.lists(st.booleans(), max_size=300), st.data())
    @settings(max_examples=60, deadline=None)
    def test_rank_select_inverse(self, bits, data):
        bv = BitVector.from_bits(bits)
        pool, _ = alone(bits)
        ones = sum(bits)
        if ones:
            j = data.draw(st.integers(1, ones))
            p = bv.select1(j)
            assert bit(pool, 0, p) == 1
            assert bv.rank1(p) == j
            assert bv.rank1(p - 1) == j - 1
            # the next one at or after any position up to it is it
            i = data.draw(st.integers(bv.select1(j - 1) + 1 if j > 1 else 1,
                                      p))
            assert next_one(pool, 0, i) == p

    def test_iterators_resume_mid_stream(self):
        rng = np.random.default_rng(5)
        bits = (rng.random(700) < 0.3).astype(np.uint8)
        bv = BitVector.from_bits(bits)
        _, ones = brute(bits)
        for start in (1, 2, 17, len(ones)):
            assert list(bv.ones(start)) == ones[start - 1:]

    def test_bounds_errors(self):
        bv = BitVector.from_bits([1, 0])
        with pytest.raises(IndexError):
            bv.rank1(3)
        with pytest.raises(ValueError):
            bv.select1(2)


class TestReader:
    def test_bits_reject_a_short_buffer_and_bits_past_the_end(self):
        w = Writer()
        w.bits([1, 1, 0])
        blob = bytes(w)
        assert Reader(blob).bits(3).tolist() == [1, 1, 0]
        with pytest.raises(ValueError, match="truncated"):
            Reader(blob[:-3]).bits(3)
        with pytest.raises(ValueError, match="truncated"):
            Reader(blob).bits(65)  # asks for a second word
        r = Reader(blob + b"\0")
        r.bits(3)
        with pytest.raises(ValueError, match="trailing"):
            r.end()
        with pytest.raises(ValueError, match="past its end"):
            Reader(blob).bits(1)  # bit 2 is set past the end


class TestSparseBitVector:
    def test_known_small(self):
        sv = SparseBitVector.from_positions(32, [3, 7, 20])
        assert sv._f[3:5] == (3, 29)  # lows floor(log2(32/3)) bits wide
        assert sv.select1(2) == 7
        assert high_members(sv) == [3, 7, 20]
        assert high_members(sv, 3) == [20]

    def test_rejects_bad_positions(self):
        with pytest.raises(ValueError):
            SparseBitVector.from_positions(10, [0, 4])
        with pytest.raises(ValueError):
            SparseBitVector.from_positions(10, [4, 4])
        with pytest.raises(ValueError):
            SparseBitVector.from_positions(10, [4, 11])

    @given(st.integers(1, 2000), st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_plain_bitmap(self, n, data):
        m = data.draw(st.integers(0, min(n, 60)))
        rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
        pos = np.sort(rng.choice(n, size=m, replace=False)) + 1
        sv = SparseBitVector.from_positions(n, pos)
        assert [sv.select1(j) for j in range(1, m + 1)] == pos.tolist()
        assert high_members(sv) == pos.tolist()

    @pytest.mark.parametrize("n, members", [
        # buckets of 2**7 values: a run of 100 members fills most of one,
        # so its high bits hold 100 ones in a row across two words
        (20_000, list(range(1281, 1381)) + list(range(19_900, 19_956))),
        (20_000, list(range(1, 129)) + [20_000]),
        # a run that starts and ends on each side of a word boundary
        (6_000, list(range(1500, 1570)) + list(range(2500, 2520))),
    ], ids=["long-run", "leading-run", "word-boundaries"])
    def test_select_across_long_runs_of_one_bucket(self, n, members):
        sv = SparseBitVector.from_positions(n, members)
        m = len(members)
        assert [sv.select1(j) for j in range(1, m + 1)] == members
        for start in range(1, m + 1, 7):
            assert high_members(sv, start) == members[start - 1:]

    def test_space_stays_near_information_bound(self):
        # code bits within m*ceil(log2(n/m)) + 4m for all shapes tried
        rng = np.random.default_rng(31)
        for n, m in ((100, 1), (10**6, 1), (10**6, 50), (4096, 700),
                     (50_000, 49_000), (64, 64)):
            pos = np.sort(rng.choice(n, size=m, replace=False)) + 1
            sv = SparseBitVector.from_positions(n, pos)
            budget = 4 * m + m * int(np.ceil(np.log2(n / m))) if n > m else 4 * m
            assert sv.code_bits() <= budget, (n, m, sv.code_bits(), budget)


def prefixes(stream, start=0):
    """The sums of the first start, start + 1, ... values of the stream,
    from its members as `log.decode` reads them: the j-th member is the
    sum of the first j plus j."""
    members = high_members(stream._members, max(start, 1))
    return [0] * (start == 0) + [p - j for j, p in
                                 enumerate(members, max(start, 1))]


class TestUnaryDeltaStream:
    def test_known_values(self):
        st_ = UnaryDeltaStream.from_values([4, 3, 1, 0])
        assert st_.total == 8
        assert [st_.prefix_sum(i) for i in range(5)] == [0, 4, 7, 8, 8]
        assert prefixes(st_) == [0, 4, 7, 8, 8]
        assert prefixes(st_, 2) == [7, 8, 8]
        assert prefixes(st_, 4) == [8]

    def test_fourth_sum_lands_on_bit_sixteen(self):
        # values 2,1,2,7: the 4th terminator sits at bit 16, so the sum of
        # the first four values is 16 - 4
        st_ = UnaryDeltaStream.from_values([2, 1, 2, 7])
        assert st_._members.select1(4) == 16
        assert st_.prefix_sum(4) == 12

    def test_empty_and_zeroes(self):
        empty = UnaryDeltaStream.from_values([])
        assert empty.total == 0 and prefixes(empty) == [0]
        zs = UnaryDeltaStream.from_values([0, 0, 0])
        assert [zs.prefix_sum(i) for i in range(4)] == [0, 0, 0, 0]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            UnaryDeltaStream.from_values([1, -2])

    @given(st.lists(st.integers(0, 50), max_size=80))
    @settings(max_examples=80, deadline=None)
    def test_prefix_sums_match_cumsum(self, values):
        st_ = UnaryDeltaStream.from_values(values)
        expect = np.concatenate([[0], np.cumsum(values)]) if values else [0]
        for i in range(len(values) + 1):
            assert st_.prefix_sum(i) == expect[i]
        for start in range(len(values) + 1):
            assert prefixes(st_, start) == list(expect[start:])


class TestPackedIntArray:
    @pytest.mark.parametrize("width", [0, 1, 5, 16, 31, 64])
    def test_round_trips_values(self, width):
        rng = np.random.default_rng(width)
        top = 1 << width
        vals = rng.integers(0, min(top, 2**63), size=40, dtype=np.uint64)
        if width == 0:
            vals[:] = 0
        pa = PackedIntArray(packed(vals, width), 0, 40, width)
        assert len(pa) == 40 and pa.code_bits() == 40 * width
        assert list(pa) == [int(v) for v in vals]

    def test_packed_at_reads_each_value_as_packed_get_does(self):
        # the vectorized reader, at every width a snapshot's lows take
        rng = np.random.default_rng(8)
        for width in range(64):
            vals = rng.integers(0, 1 << width, size=40, dtype=np.uint64)
            words = packed(vals, width)
            got = packed_at(words, np.arange(40) * width, width)
            assert got.tolist() == vals.tolist() == \
                [packed_get(words, 0, width, i) for i in range(40)]

    @pytest.mark.parametrize("count", [1, 3, 17, 100_000])
    def test_packed_at_takes_nothing_from_the_next_word_at_offset_0(self,
                                                                    count):
        # a read from a word boundary shifts the next word by 64, which
        # numpy makes 0 for uint64s; counts past a vector register's
        # width take numpy's vectorized shift loops too
        words = packed([0b10110, (1 << 64) - 1], 64)
        at = np.zeros(count, dtype=np.int64)
        at[1::2] = 2  # and reads from bit 2 between them
        got = packed_at(words, at, 5)
        assert set(got[0::2].tolist()) == {0b10110}
        assert set(got[1::2].tolist()) <= {0b101}

    def test_bit_lengths_cover_every_uint64(self):
        # a snapshot's low width comes from quotients past 2**63 on tall
        # grids
        values = np.array([0, 1, 5, (1 << 63) - 1, 1 << 63, (1 << 64) - 1],
                          dtype=np.uint64)
        assert bit_lengths(values).tolist() == [0, 1, 3, 63, 64, 64]

    def test_bounds(self):
        pa = PackedIntArray(packed([1, 2, 3], 2), 0, 3, 2)
        with pytest.raises(IndexError):
            pa[3]
        with pytest.raises(IndexError):
            pa[-1]


# lengths on both sides of a word and of a 512-bit superblock
EDGE_LENGTHS = [0, 1, 63, 64, 65, 511, 512, 513, 1100]


def edge_bitmaps():
    """0/1 arrays of every edge length: empty, all zeros, all ones, one
    bit at each end, and random ones."""
    rng = np.random.default_rng(88)
    for n in EDGE_LENGTHS:
        ends = np.zeros(n, dtype=np.uint8)
        ends[[0, -1] if n else []] = 1
        yield from (np.zeros(n, dtype=np.uint8), np.ones(n, dtype=np.uint8),
                    ends, (rng.random(n) < 0.3).astype(np.uint8))


def check_bitmap(pool, base, before, bits):
    """The bitmap bits from word base of pool, with `before` ones before
    it: its view, and the pool functions on it, against brute force."""
    cum, ones = brute(bits)
    bv = BitVector(pool, base, len(bits), before, len(ones))
    end = base + ((len(bits) + 63) >> 6)
    assert len(bv) == len(bits)
    assert [bv.rank1(i) for i in range(len(bits) + 1)] == list(cum)
    assert [rank(pool, base, before, i) for i in range(len(bits) + 1)] == \
        list(cum)
    assert [bit(pool, base, i) for i in range(1, len(bits) + 1)] == \
        list(bits)
    assert [bv.select1(j) for j in range(1, len(ones) + 1)] == ones
    assert [select(pool, base, end, before, j)
            for j in range(1, len(ones) + 1)] == ones
    last = ones[-1] if ones else 0
    assert [next_one(pool, base, i) for i in range(1, last + 1)] == \
        nexts(bits)[:last]
    assert list(bv.ones()) == ones
    for j in (0, len(ones) + 1):
        with pytest.raises(ValueError):
            bv.select1(j)


def check_sparse(pool, words, f, members):
    """The set of members whose fields start at f[0]: its view, and its
    high bits' ones as a decode reads them, against the members."""
    m = len(members)
    sv = SparseBitVector(pool, words, f, 0, m)
    assert [sv.select1(j) for j in range(1, m + 1)] == list(members)
    assert high_members(sv) == list(members)


def edge_sets():
    """(n, members): no members, every position a member, the two ends,
    runs filling whole buckets, and random members."""
    rng = np.random.default_rng(89)
    for n in EDGE_LENGTHS[1:]:
        yield n, []
        yield n, list(range(1, n + 1))
        yield n, sorted({1, n})
        yield n, sorted(rng.choice(n, size=max(1, n // 12), replace=False) + 1)
    yield 2000, list(range(1, 130))


class TestPoolBoundaries:
    """Structures alone in a pool and as neighbours in one shared pool,
    where each starts on a word boundary after the others."""

    def test_bitmaps_alone_and_in_one_pool(self):
        cases = list(edge_bitmaps())
        w = Writer()
        bases = []
        for bits in cases:
            bases.append(len(w) // 8)
            w.bits(bits)
        pool = BitPool(w)
        ones = pool.ones_before(np.array(bases))
        for base, before, bits in zip(bases, ones.tolist(), cases):
            check_bitmap(pool, base, before, bits)
            check_bitmap(alone(bits)[0], 0, 0, bits)

    def test_sparse_sets_alone_and_in_one_pool(self):
        cases = list(edge_sets())
        high_words, low_words = Writer(), Writer()
        fields = []  # each set's six fields but the ones before it
        for n, members in cases:
            bits, lows, alone = parts(SparseBitVector.from_positions(n, members))
            fields.append([len(high_words) // 8, 0, len(low_words) // 8,
                           *alone[3:5]])
            high_words.words(bits.words)
            low_words.words(lows)
            fields[-1].append(len(high_words) // 8)
        pool, words = BitPool(high_words), words_from(low_words)
        for f in fields:
            f[1] = int(pool.ones_before(np.array(f[0])))
        for (n, members), f in zip(cases, fields):
            check_sparse(pool, words, f, members)
            check_sparse(*parts(SparseBitVector.from_positions(n, members)),
                         members)

    @pytest.mark.parametrize("values", [[], [0], [0, 0, 0], [5], [0, 7, 0],
                                        list(range(64)), [1] * 513])
    def test_unary_streams_empty_or_all_zero(self, values):
        expect = np.concatenate([[0], np.cumsum(values, dtype=np.int64)])
        st_ = UnaryDeltaStream.from_values(values)
        assert st_.total == expect[-1]
        assert [st_.prefix_sum(i) for i in range(len(values) + 1)] == \
            list(expect)
        assert prefixes(st_) == list(expect)
        assert prefixes(st_, len(values)) == [expect[-1]]


def bitmap_layouts():
    """(lead, short, long, more): a lead of 1..7 words, so the first
    bitmap starts inside a superblock, then bitmaps as ((neighbour, run,
    bits in the last word, density), words), each after a run of 0..9
    all-ones or all-zeros words.  The short one has 1..4 words and the
    long one 9..40, so a select bisects within one superblock and across
    several; up to three more have 1..40."""
    bitmap = st.tuples(st.sampled_from([0, 1]), st.integers(0, 9),
                       st.integers(1, 64), st.floats(0, 1))
    return st.tuples(
        st.integers(1, 7),
        st.tuples(bitmap, st.integers(1, 4)),
        st.tuples(bitmap, st.integers(9, 40)),
        st.lists(st.tuples(bitmap, st.integers(1, 40)), max_size=3))


class TestNeighbouringBitmaps:
    """Rank and select of a bitmap among others in one pool read the one
    ones directory, less the ones before the bitmap."""

    def test_pool_keeps_only_the_ones_directory(self):
        w = Writer()
        w.bits([1, 0, 0] * 700)  # 33 words: 5 superblocks
        pool = BitPool(w)
        assert BitPool.__slots__ == ("words", "super1", "block1")
        assert (len(pool.words), len(pool.super1), len(pool.block1)) == \
            (33, 6, 41)
        assert pool.nbytes() == 8 * 33 + 8 * 6 + 2 * 41

    @pytest.mark.parametrize("nwords, bisected", [(1, False), (8, False),
                                                  (9, True), (40, True)])
    def test_long_bitmaps_bisect_the_directory(self, nwords, bisected,
                                               monkeypatch):
        # a select bisects the superblock counts only when the bitmap
        # spans more than one 512-bit superblock
        rng = np.random.default_rng(nwords)
        bits = (rng.random(64 * nwords) < 0.5).astype(np.uint8)
        pool = alone(bits)[0]
        searched = []

        def bisect(a, *args):
            searched.append(a is pool.super1)
            return bisect_left(a, *args)

        monkeypatch.setattr(succinct, "bisect_left", bisect)
        check_bitmap(pool, 0, 0, bits)
        assert searched and any(searched) == bisected

    @given(bitmap_layouts(), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_every_one_of_neighbouring_bitmaps(self, layout, seed):
        lead, short, long, more = layout
        rng = np.random.default_rng(seed)
        w = Writer()
        w.bits(rng.integers(0, 2, 64 * lead))
        cases = []
        for (fill, run, tail, density), nwords in [short, long, *more]:
            w.bits(np.full(64 * run, fill))
            n = 64 * (nwords - 1) + tail
            bits = (rng.random(n) < density).astype(np.uint8)
            cases.append((len(w) // 8, bits))
            w.bits(bits)
        w.bits(np.full(64 * 9, rng.integers(0, 2)))
        pool = BitPool(w)
        ones = pool.ones_before(np.array([b for b, _ in cases])).tolist()
        for (base, bits), before in zip(cases, ones):
            end = base + ((len(bits) + 63) >> 6)
            cum, positions = brute(bits)
            assert [select(pool, base, end, before, j)
                    for j in range(1, len(positions) + 1)] == positions
            # the same ones, all at once, among all the pool's
            g = before + np.arange(1, len(positions) + 1)
            assert (select_many(pool, g) + 1 - 64 * base).tolist() == positions
            assert [rank(pool, base, before, i)
                    for i in range(len(bits) + 1)] == list(cum)
            last = positions[-1] if positions else 0
            assert [next_one(pool, base, i) for i in range(1, last + 1)] == \
                nexts(bits)[:last]


class TestSelectMany:
    """`select_many` finds the g-th one of a whole pool for many g at
    once: the superblock by one search of the pool's counts, which tie
    over a superblock with no ones, then the word and the bit."""

    @pytest.mark.parametrize("density", [0.002, 0.05, 0.5, 0.97])
    def test_every_one_of_a_pool(self, density):
        rng = np.random.default_rng(int(1000 * density))
        bits = (rng.random(64 * 70) < density).astype(np.uint8)
        bits[64 * 16:64 * 40] = 0  # superblocks 2 to 4 hold no one
        bits[64 * 40] = 1  # and the fifth's first one is its first bit
        bits[64 * 47 + 63] = 1  # the last bit of a superblock
        pool = alone(bits)[0]
        places = np.flatnonzero(bits)
        g = np.arange(1, len(places) + 1)
        assert select_many(pool, g).tolist() == places.tolist()
        # each superblock's first one, where it has any
        sup = np.array(pool.super1)
        starts = sup[:-1][np.diff(sup) > 0] + 1
        assert 64 * 40 in select_many(pool, starts)
        assert select_many(pool, starts).tolist() == \
            places[starts - 1].tolist()
        # in any order and more than once
        g = rng.integers(1, len(places) + 1, size=80)
        assert select_many(pool, g).tolist() == places[g - 1].tolist()

    def test_a_pool_of_one_word(self):
        pool = alone([0, 1, 1, 0, 0, 0, 0, 1])[0]
        assert select_many(pool, np.array([3, 1, 2])).tolist() == [7, 1, 2]
