import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import round_trip
from trajindex import succinct
from trajindex.succinct import (
    BitPool,
    BitVector,
    PackedIntArray,
    Reader,
    SparseBitVector,
    UnaryDeltaStream,
    Writer,
    sparse_halves,
    words_from,
    write_sparse,
)


def brute(bits):
    """(cumulative ones, positions of ones, positions of zeros)."""
    arr = np.asarray(bits, dtype=np.int64)
    return (np.concatenate([[0], np.cumsum(arr)]),
            list(np.flatnonzero(arr) + 1),
            list(np.flatnonzero(1 - arr) + 1))


class TestBitVector:
    def test_known_small(self):
        # B = 1011
        bv = BitVector.from_bits([1, 0, 1, 1])
        assert len(bv) == 4 and bv.count_ones == 3
        assert [bv.access(i) for i in range(1, 5)] == [1, 0, 1, 1]
        assert [bv.rank1(i) for i in range(5)] == [0, 1, 1, 2, 3]
        assert [bv.select1(j) for j in (1, 2, 3)] == [1, 3, 4]
        assert bv.select0(1) == 2

    def test_empty(self):
        bv = BitVector.from_bits([])
        assert len(bv) == 0 and bv.count_ones == 0
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
        cum, ones, zeros = brute(bits)
        assert bv.count_ones == len(ones)
        for i in range(n + 1):
            assert bv.rank1(i) == cum[i]
        assert [bv.select1(j) for j in range(1, len(ones) + 1)] == ones
        assert [bv.select0(j) for j in range(1, len(zeros) + 1)] == zeros
        assert list(bv.ones()) == ones
        assert list(bv.zeros()) == zeros

    @given(st.lists(st.booleans(), max_size=300), st.data())
    @settings(max_examples=60, deadline=None)
    def test_rank_select_inverse(self, bits, data):
        bv = BitVector.from_bits(bits)
        if bv.count_ones:
            j = data.draw(st.integers(1, bv.count_ones))
            p = bv.select1(j)
            assert bv.access(p) == 1
            assert bv.rank1(p) == j
            assert bv.rank1(p - 1) == j - 1
        if bv.count_zeros:
            j = data.draw(st.integers(1, bv.count_zeros))
            p = bv.select0(j)
            assert bv.access(p) == 0
            assert p - bv.rank1(p) == j

    def test_iterators_resume_mid_stream(self):
        rng = np.random.default_rng(5)
        bits = (rng.random(700) < 0.3).astype(np.uint8)
        bv = BitVector.from_bits(bits)
        _, ones, zeros = brute(bits)
        for start in (1, 2, 17, len(ones)):
            assert list(bv.ones(start)) == ones[start - 1:]
        for start in (1, 40, len(zeros)):
            assert list(bv.zeros(start)) == zeros[start - 1:]

    def test_round_trip(self):
        rng = np.random.default_rng(9)
        for n in (0, 3, 64, 1000):
            bv = BitVector.from_bits((rng.random(n) < 0.4).astype(np.uint8))
            back = round_trip(bv, n)
            assert len(back) == n and back.count_ones == bv.count_ones

    def test_bounds_errors(self):
        bv = BitVector.from_bits([1, 0])
        with pytest.raises(IndexError):
            bv.rank1(3)
        with pytest.raises(IndexError):
            bv.access(0)
        with pytest.raises(ValueError):
            bv.select1(2)
        with pytest.raises(ValueError):
            bv.select0(2)

    def test_truncated_buffer_rejected(self):
        w = Writer()
        BitVector.from_bits([1, 1, 0]).write(w)
        blob = bytes(w)
        with pytest.raises(ValueError):
            BitVector.read(Reader(blob[:-3]), 3)
        with pytest.raises(ValueError):
            BitVector.read(Reader(blob), 65)  # asks for a second word
        r = Reader(blob + b"\0")
        BitVector.read(r, 3)
        with pytest.raises(ValueError):
            r.end()
        with pytest.raises(ValueError):
            BitVector.read(Reader(blob), 1)  # bit 2 is set past the end


class TestSparseBitVector:
    def test_known_small(self):
        sv = SparseBitVector.from_positions(32, [3, 7, 20])
        assert len(sv) == 32 and sv.count_ones == 3
        assert sv.select1(2) == 7
        assert sv.rank1(0) == 0 and sv.rank1(7) == 2 and sv.rank1(32) == 3
        assert sv.access(20) == 1 and sv.access(21) == 0
        assert sv.select0(3) == 4  # zeros are 1,2,4,5,6,8,...
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
        bits = np.zeros(n, dtype=np.uint8)
        bits[pos - 1] = 1
        cum, ones, zeros = brute(bits)
        probes = data.draw(st.lists(st.integers(0, n), max_size=10))
        for i in probes:
            assert sv.rank1(i) == cum[i]
        assert [sv.select1(j) for j in range(1, m + 1)] == ones
        if zeros:
            j = data.draw(st.integers(1, len(zeros)))
            assert sv.select0(j) == zeros[j - 1]
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
        sv = SparseBitVector.from_positions(n, members)
        memberset = set(members)
        rank = 0
        for i in range(1, n + 1):
            rank += i in memberset
            assert sv.rank1(i) == rank, i
            assert sv.access(i) == (i in memberset), i

    def test_space_stays_near_information_bound(self):
        # code bits within m*ceil(log2(n/m)) + 4m for all shapes tried
        rng = np.random.default_rng(31)
        for n, m in ((100, 1), (10**6, 1), (10**6, 50), (4096, 700),
                     (50_000, 49_000), (64, 64)):
            pos = np.sort(rng.choice(n, size=m, replace=False)) + 1
            sv = SparseBitVector.from_positions(n, pos)
            budget = 4 * m + m * int(np.ceil(np.log2(n / m))) if n > m else 4 * m
            assert sv.code_bits() <= budget, (n, m, sv.code_bits(), budget)

    def test_round_trip(self):
        # the snapshots' encoding: `write_sparse`, then `read`
        w = Writer()
        write_sparse(w, 1000, [5, 17, 600, 999])
        r = Reader(bytes(w))
        back = SparseBitVector.read(r, 1000, 4)
        r.end()
        assert list(back.ones()) == [5, 17, 600, 999]
        assert back.code_bits() == \
            SparseBitVector.from_positions(1000, [5, 17, 600, 999]).code_bits()
        with pytest.raises(ValueError):
            SparseBitVector.read(Reader(bytes(w)), 1000, 3)


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
        select = succinct.select

        def zeros_only(*args):
            assert args[5:] == (True,), "select0 must not search with select1"
            return select(*args)

        monkeypatch.setattr(succinct, "select", zeros_only)
        memberset = set(members)
        zeros = [p for p in range(1, n + 1) if p not in memberset]
        assert [sv.select0(j) for j in range(1, len(zeros) + 1)] == zeros
        for j in (0, len(zeros) + 1):
            with pytest.raises(ValueError):
                sv.select0(j)
        monkeypatch.undo()
        for start in range(1, len(zeros) + 1, max(1, len(zeros) // 37)):
            assert list(sv.zeros(start)) == zeros[start - 1:]
        assert list(sv.zeros(len(zeros) + 1)) == []


class TestUnaryDeltaStream:
    def test_known_values(self):
        st_ = UnaryDeltaStream.from_values([4, 3, 1, 0])
        assert len(st_) == 4 and st_.total == 8
        assert [st_.prefix_sum(i) for i in range(5)] == [0, 4, 7, 8, 8]
        assert list(st_.prefix_iter()) == [0, 4, 7, 8, 8]
        assert list(st_.prefix_iter(2)) == [7, 8, 8]
        assert list(st_.prefix_iter(4)) == [8]

    def test_fourth_sum_lands_on_bit_sixteen(self):
        # values 2,1,2,7: the 4th terminator sits at bit 16, so the sum of
        # the first four values is 16 - 4
        st_ = UnaryDeltaStream.from_values([2, 1, 2, 7])
        assert st_._members.select1(4) == 16
        assert st_.prefix_sum(4) == 12

    def test_empty_and_zeroes(self):
        empty = UnaryDeltaStream.from_values([])
        assert empty.total == 0 and list(empty.prefix_iter()) == [0]
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
            assert list(st_.prefix_iter(start)) == list(expect[start:])


class TestPackedIntArray:
    @pytest.mark.parametrize("width", [0, 1, 5, 16, 31, 64])
    def test_round_trips_values(self, width):
        rng = np.random.default_rng(width)
        top = 1 << width
        vals = rng.integers(0, min(top, 2**63), size=40, dtype=np.uint64)
        if width == 0:
            vals[:] = 0
        pa = PackedIntArray.from_values(vals, width)
        assert len(pa) == 40 and pa.width == width
        assert list(pa) == [int(v) for v in vals]

    def test_rejects_oversized_values(self):
        with pytest.raises(ValueError):
            PackedIntArray.from_values([8], 3)
        with pytest.raises(ValueError):
            PackedIntArray.from_values([1], 0)

    def test_bounds(self):
        pa = PackedIntArray.from_values([1, 2, 3], 2)
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


def check_bitmap(bv, bits):
    cum, ones, zeros = brute(bits)
    assert len(bv) == len(bits) and bv.count_ones == len(ones)
    assert [bv.rank1(i) for i in range(len(bits) + 1)] == list(cum)
    assert [bv.access(i) for i in range(1, len(bits) + 1)] == list(bits)
    assert [bv.select1(j) for j in range(1, len(ones) + 1)] == ones
    assert [bv.select0(j) for j in range(1, len(zeros) + 1)] == zeros
    assert list(bv.ones()) == ones and list(bv.zeros()) == zeros
    for j in (0, len(ones) + 1):
        with pytest.raises(ValueError):
            bv.select1(j)


def check_sparse(sv, n, members):
    bits = np.zeros(n, dtype=np.uint8)
    bits[np.asarray(members, dtype=np.int64) - 1] = 1
    cum, ones, zeros = brute(bits)
    assert len(sv) == n and sv.count_ones == len(ones)
    assert [sv.rank1(i) for i in range(n + 1)] == list(cum)
    assert [sv.access(i) for i in range(1, n + 1)] == list(bits)
    assert [sv.select1(j) for j in range(1, len(ones) + 1)] == ones
    assert [sv.select0(j) for j in range(1, len(zeros) + 1)] == zeros
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
            check_bitmap(BitVector(pool, base, len(bits), before,
                                   int(bits.sum())), bits)
            check_bitmap(BitVector.from_bits(bits), bits)

    def test_sparse_sets_alone_and_in_one_pool(self):
        cases = list(edge_sets())
        high_words, low_words = Writer(), Writer()
        fields = []  # each set's six fields but the ones before it
        for n, members in cases:
            lows, high = sparse_halves(n, members)
            alone = SparseBitVector.from_positions(n, members)._f
            fields.append([len(high_words) // 8, 0, len(low_words) // 8,
                           *alone[3:5]])
            high_words.bits(high)
            low_words += lows
            fields[-1].append(len(high_words) // 8)
        pool, words = BitPool(high_words), words_from(low_words)
        for f in fields:
            f[1] = int(pool.ones_before(np.array(f[0])))
        for (n, members), f in zip(cases, fields):
            check_sparse(SparseBitVector(pool, words, f, 0, len(members)), n,
                         members)
            check_sparse(SparseBitVector.from_positions(n, members), n, members)

    @pytest.mark.parametrize("values", [[], [0], [0, 0, 0], [5], [0, 7, 0],
                                        list(range(64)), [1] * 513])
    def test_unary_streams_empty_or_all_zero(self, values):
        expect = np.concatenate([[0], np.cumsum(values, dtype=np.int64)])
        st_ = UnaryDeltaStream.from_values(values)
        assert st_.total == expect[-1]
        assert [st_.prefix_sum(i) for i in range(len(values) + 1)] == \
            list(expect)
        assert list(st_.prefix_iter()) == list(expect)
        assert list(st_.prefix_iter(len(values))) == [expect[-1]]
