import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    access,
    bit_lengths,
    packed_at,
    packed_get,
    select,
    sparse_search,
    sparse_select0,
    unary_prefixes,
    words_from,
)


def brute(bits):
    """(cumulative ones, positions of ones, positions of zeros)."""
    arr = np.asarray(bits, dtype=np.int64)
    return (np.concatenate([[0], np.cumsum(arr)]),
            list(np.flatnonzero(arr) + 1),
            list(np.flatnonzero(1 - arr) + 1))


def alone(bits):
    """A pool holding the bitmap bits alone, from word 0, and the word
    after it: the arguments the pool functions take, with no ones before
    it."""
    w = Writer()
    w.bits(bits)
    return BitPool(w), len(w) // 8


def select0(pool, end, j):
    """The j-th zero of the bitmap alone in words 0..end-1 of pool."""
    return select(pool, 0, end, 0, j, True)


def parts(sv):
    """A set's pool, words and fields, which the pool functions take."""
    return sv._pool, sv._words, sv._f


def search(pool, words, f, m, i):
    """(members at or below position i, whether i is one) for the set of m
    members whose fields start at f[0], as the index asks `sparse_search`:
    only on a set with members, from position 1."""
    return sparse_search(pool, words, f, 0, i) if m and i else (0, False)


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
        pool, end = alone([1, 0, 1, 1])
        assert len(bv) == 4 and bv.rank1(4) == 3
        assert [access(pool, 0, i) for i in range(1, 5)] == [1, 0, 1, 1]
        assert [bv.rank1(i) for i in range(5)] == [0, 1, 1, 2, 3]
        assert [bv.select1(j) for j in (1, 2, 3)] == [1, 3, 4]
        assert select0(pool, end, 1) == 2

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
        pool, end = alone(bits)
        cum, ones, zeros = brute(bits)
        for i in range(n + 1):
            assert bv.rank1(i) == cum[i]
        assert [bv.select1(j) for j in range(1, len(ones) + 1)] == ones
        assert [select0(pool, end, j) for j in range(1, len(zeros) + 1)] \
            == zeros
        assert list(bv.ones()) == ones

    @given(st.lists(st.booleans(), max_size=300), st.data())
    @settings(max_examples=60, deadline=None)
    def test_rank_select_inverse(self, bits, data):
        bv = BitVector.from_bits(bits)
        pool, end = alone(bits)
        ones = sum(bits)
        if ones:
            j = data.draw(st.integers(1, ones))
            p = bv.select1(j)
            assert access(pool, 0, p) == 1
            assert bv.rank1(p) == j
            assert bv.rank1(p - 1) == j - 1
        if len(bits) - ones:
            j = data.draw(st.integers(1, len(bits) - ones))
            p = select0(pool, end, j)
            assert access(pool, 0, p) == 0
            assert p - bv.rank1(p) == j

    def test_iterators_resume_mid_stream(self):
        rng = np.random.default_rng(5)
        bits = (rng.random(700) < 0.3).astype(np.uint8)
        bv = BitVector.from_bits(bits)
        _, ones, _ = brute(bits)
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
        pool, words, f = parts(sv)
        assert f[3:5] == (3, 29)  # lows floor(log2(32/3)) bits wide
        assert sv.select1(2) == 7
        assert [search(pool, words, f, 3, i)[0] for i in (0, 7, 32)] == \
            [0, 2, 3]
        assert search(pool, words, f, 3, 20) == (3, True)
        assert search(pool, words, f, 3, 21) == (3, False)
        # zeros are 1,2,4,5,6,8,...
        assert sparse_select0(pool, words, f, 0, 3, 3) == 4
        assert list(sv.ones()) == [3, 7, 20]

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
        pool, words, f = parts(sv)
        bits = np.zeros(n, dtype=np.uint8)
        bits[pos - 1] = 1
        cum, ones, zeros = brute(bits)
        probes = data.draw(st.lists(st.integers(0, n), max_size=10))
        for i in probes:
            assert search(pool, words, f, m, i)[0] == cum[i]
        assert [sv.select1(j) for j in range(1, m + 1)] == ones
        if zeros:
            j = data.draw(st.integers(1, len(zeros)))
            assert sparse_select0(pool, words, f, 0, m, j) == zeros[j - 1]
        assert list(sv.ones()) == ones

    @pytest.mark.parametrize("n, members", [
        # buckets of 2**7 values: a run of 100 members fills most of one,
        # so its high bits hold 100 ones in a row across two words
        (20_000, list(range(1281, 1381)) + list(range(19_900, 19_956))),
        (20_000, list(range(1, 129)) + [20_000]),
        # a run that starts and ends on each side of a word boundary
        (6_000, list(range(1500, 1570)) + list(range(2500, 2520))),
    ], ids=["long-run", "leading-run", "word-boundaries"])
    def test_rank_across_long_runs_of_one_bucket(self, n, members):
        pool, words, f = parts(SparseBitVector.from_positions(n, members))
        memberset = set(members)
        rank = 0
        for i in range(1, n + 1):
            rank += i in memberset
            assert search(pool, words, f, len(members), i) == \
                (rank, i in memberset), i

    def test_space_stays_near_information_bound(self):
        # code bits within m*ceil(log2(n/m)) + 4m for all shapes tried
        rng = np.random.default_rng(31)
        for n, m in ((100, 1), (10**6, 1), (10**6, 50), (4096, 700),
                     (50_000, 49_000), (64, 64)):
            pos = np.sort(rng.choice(n, size=m, replace=False)) + 1
            sv = SparseBitVector.from_positions(n, pos)
            budget = 4 * m + m * int(np.ceil(np.log2(n / m))) if n > m else 4 * m
            assert sv.code_bits() <= budget, (n, m, sv.code_bits(), budget)


def sparse_cases():
    """(n, member positions) for the sparse select0 tests."""
    rng = np.random.default_rng(57)
    yield "empty-1", 1, []
    yield "empty-100", 100, []
    yield "one-run", 1000, list(range(10, 41))
    # every member before the first zero, m a multiple of the bucket size:
    # the first zero sits in the last bucket the search may try
    yield "leading-run", 1000, list(range(1, 65))
    yield "first-and-last", 500, [1, 2, 250, 499, 500]
    yield "only-first", 64, [1]
    yield "only-last", 64, [64]
    # members on both edges of every other bucket: 2**w values a bucket
    for n, m in ((1000, 40), (4096, 300)):
        w = (n // m).bit_length() - 1
        edges = sorted({p for b in range(1, (n - 1 >> w) + 1, 2)
                        for p in ((b << w), (b << w) + 1) if p <= n})[:m]
        yield f"bucket-edges-{n}", n, edges
    # gap densities just under the 10% at which a gap map turns sparse
    for n in (1999, 2000, 6000):
        m = -(-n // 10) - 1
        yield f"density-{n}", n, sorted(rng.choice(n, m, replace=False) + 1)
    yield "runs-dense", 200, list(range(1, 20)) + list(range(182, 201))


class TestSparseSelect0:
    @pytest.mark.parametrize("name, n, members",
                             [pytest.param(*c, id=c[0]) for c in sparse_cases()])
    def test_every_zero_matches_brute_force(self, name, n, members,
                                            monkeypatch):
        sv = SparseBitVector.from_positions(n, members)
        pool, words, f = parts(sv)

        def zeros_only(*args):
            assert args[5:] == (True,), "select0 must not search with select1"
            return select(*args)

        monkeypatch.setattr(succinct, "select", zeros_only)
        memberset = set(members)
        zeros = [p for p in range(1, n + 1) if p not in memberset]
        assert [sparse_select0(pool, words, f, 0, len(members), j)
                for j in range(1, len(zeros) + 1)] == zeros
        monkeypatch.undo()
        for start in range(1, len(zeros) + 1, max(1, len(zeros) // 37)):
            assert list(sv.zeros(start)) == zeros[start - 1:]
        assert list(sv.zeros(len(zeros) + 1)) == []


def prefixes(stream, m, start=0):
    """The sums of the first start, start + 1, ..., m values of the
    m-value stream, by the pool function a log's walk reads them with."""
    return list(unary_prefixes(*parts(stream._members), 0, m, start))


class TestUnaryDeltaStream:
    def test_known_values(self):
        st_ = UnaryDeltaStream.from_values([4, 3, 1, 0])
        assert st_.total == 8
        assert [st_.prefix_sum(i) for i in range(5)] == [0, 4, 7, 8, 8]
        assert prefixes(st_, 4) == [0, 4, 7, 8, 8]
        assert prefixes(st_, 4, 2) == [7, 8, 8]
        assert prefixes(st_, 4, 4) == [8]

    def test_fourth_sum_lands_on_bit_sixteen(self):
        # values 2,1,2,7: the 4th terminator sits at bit 16, so the sum of
        # the first four values is 16 - 4
        st_ = UnaryDeltaStream.from_values([2, 1, 2, 7])
        assert st_._members.select1(4) == 16
        assert st_.prefix_sum(4) == 12

    def test_empty_and_zeroes(self):
        empty = UnaryDeltaStream.from_values([])
        assert empty.total == 0 and prefixes(empty, 0) == [0]
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
            assert prefixes(st_, len(values), start) == list(expect[start:])


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
    cum, ones, zeros = brute(bits)
    bv = BitVector(pool, base, len(bits), before, len(ones))
    end = base + ((len(bits) + 63) >> 6)
    assert len(bv) == len(bits)
    assert [bv.rank1(i) for i in range(len(bits) + 1)] == list(cum)
    assert [access(pool, base, i) for i in range(1, len(bits) + 1)] == \
        list(bits)
    assert [bv.select1(j) for j in range(1, len(ones) + 1)] == ones
    assert [select(pool, base, end, before, j, True)
            for j in range(1, len(zeros) + 1)] == zeros
    assert list(bv.ones()) == ones
    for j in (0, len(ones) + 1):
        with pytest.raises(ValueError):
            bv.select1(j)


def check_sparse(pool, words, f, n, members):
    """The set of members over [1, n] whose fields start at f[0]: its view,
    and the pool functions on it, against brute force."""
    bits = np.zeros(n, dtype=np.uint8)
    bits[np.asarray(members, dtype=np.int64) - 1] = 1
    cum, ones, zeros = brute(bits)
    m = len(ones)
    sv = SparseBitVector(pool, words, f, 0, m)
    assert [search(pool, words, f, m, i) for i in range(n + 1)] == \
        [(cum[i], i > 0 and bits[i - 1] == 1) for i in range(n + 1)]
    assert [sv.select1(j) for j in range(1, m + 1)] == ones
    assert [sparse_select0(pool, words, f, 0, m, j)
            for j in range(1, len(zeros) + 1)] == zeros
    assert list(sv.ones()) == ones and list(sv.zeros()) == zeros


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
            check_sparse(pool, words, f, n, members)
            check_sparse(*parts(SparseBitVector.from_positions(n, members)),
                         n, members)

    @pytest.mark.parametrize("values", [[], [0], [0, 0, 0], [5], [0, 7, 0],
                                        list(range(64)), [1] * 513])
    def test_unary_streams_empty_or_all_zero(self, values):
        expect = np.concatenate([[0], np.cumsum(values, dtype=np.int64)])
        st_ = UnaryDeltaStream.from_values(values)
        assert st_.total == expect[-1]
        assert [st_.prefix_sum(i) for i in range(len(values) + 1)] == \
            list(expect)
        assert prefixes(st_, len(values)) == list(expect)
        assert prefixes(st_, len(values), len(values)) == [expect[-1]]


def zero_layouts():
    """(lead, short, long, more): a lead of 1..7 words, so the first
    bitmap starts inside a superblock, then bitmaps as ((neighbour, run,
    bits in the last word, density), words), each after a run of 0..9
    all-ones or all-zeros words.  The short one has 1..4 words and the
    long one 9..40, so both ways of selecting a zero are taken; up to
    three more have 1..40."""
    bitmap = st.tuples(st.sampled_from([0, 1]), st.integers(0, 9),
                       st.integers(1, 64), st.floats(0, 1))
    return st.tuples(
        st.integers(1, 7),
        st.tuples(bitmap, st.integers(1, 4)),
        st.tuples(bitmap, st.integers(9, 40)),
        st.lists(st.tuples(bitmap, st.integers(1, 40)), max_size=3))


class TestZerosFromTheOnes:
    """select0 works out zero counts from the ones directory: word by word
    on a bitmap of a few words, by bisecting the directory on a longer
    one."""

    def test_pool_keeps_only_the_ones_directory(self):
        w = Writer()
        w.bits([1, 0, 0] * 700)  # 33 words: 5 superblocks
        pool = BitPool(w)
        assert BitPool.__slots__ == ("words", "super1", "block1")
        assert (len(pool.words), len(pool.super1), len(pool.block1)) == \
            (33, 6, 41)
        assert pool.nbytes() == 8 * 33 + 8 * 6 + 2 * 41

    @pytest.mark.parametrize("nwords, bisected", [(1, False), (4, False),
                                                  (5, True), (40, True)])
    def test_long_bitmaps_bisect_the_directory(self, nwords, bisected,
                                               monkeypatch):
        calls = []
        zero_word = succinct._zero_word
        monkeypatch.setattr(succinct, "_zero_word",
                            lambda *a: calls.append(a) or zero_word(*a))
        rng = np.random.default_rng(nwords)
        bits = (rng.random(64 * nwords) < 0.5).astype(np.uint8)
        check_bitmap(alone(bits)[0], 0, 0, bits)
        assert bool(calls) == bisected

    @given(zero_layouts(), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_every_zero_of_neighbouring_bitmaps(self, layout, seed):
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
            _, _, zeros = brute(bits)
            assert [select(pool, base, end, before, j, True)
                    for j in range(1, len(zeros) + 1)] == zeros
