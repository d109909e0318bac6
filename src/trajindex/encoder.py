"""The fleet-wide encoder, and the one description of where each piece of
a log and its box tree lies.

A build hands over its fixes as three columns, instant, x and y, log after
log in file order, with the first row and the period start of each log.
Every per-log number (window, gap count, speed bound, stream totals,
Elias-Fano low widths and high lengths, leaf counts, root boxes, diff
widths) is one array operation over all logs, and every word-aligned
piece of every log and tree is set in one of two bit buffers, one per
pool, each packed once.

The file and a loaded index hold the same three things: the u32 fields of
every log and its tree, one row of U32_FIELDS per log, and two pools,
each the pieces of every log in file order, each piece from a word
boundary.  A log's fields, in file order:
  first and last local instant, gap count;
  speed bound s, the largest step rate on either axis, and the widths of
  the four entry arrays, a byte each;
  x's first coordinate and the total of its stream, then y's;
  the tree's diff width and root box xmin, xmax, ymin, ymax.
Its pieces in the bit pool: the high bits of the gap map, the sparse set
of the window's gaps, then those of the x and of the y stream, the unary
streams of the increments dx + s_b*dt.  Its pieces in the word pool: the
gap map's lows; the four entry arrays, one entry per block of
2**BLOCK_SHIFT steps: the reductions s - s_b of the blocks' x speed
bounds s_b, their x offsets (zigzagged), then the same two for y (see
`log`); the x and the y stream's lows; the tree's x diffs and y diffs.
`piece_bits` works each piece's length out from the fields, so nothing
else is stored.
"""

from __future__ import annotations

import numpy as np

from trajindex.succinct import (
    PieceBuffer,
    bit_lengths,
    elias_fano,
    ranks,
)

# A log's pieces: in the bit pool, the high bits of the gap map and of the
# x and y streams; in the word pool, the gap map's lows, the entry arrays
# (from ENTRIES), the x and y streams' lows and the tree's x and y diffs
GAP_HIGH, X_HIGH, Y_HIGH = 0, 1, 2
GAP_LOWS, ENTRIES, X_LOWS, Y_LOWS, DIFFS = 0, 1, 5, 6, 7
U32_FIELDS = 14
BLOCK_SHIFT = 4
BLOCK = 1 << BLOCK_SHIFT  # steps to a block of one speed bound per axis

_PAD = 1 << 40  # a padded node's box: above any storable coordinate
_MAX_DRIFT = 1 << 61


def piece_bits(u32s: np.ndarray, leaf_capacity: int):
    """The bit length of each piece of the logs and trees whose fields are
    the rows of u32s, with leaf_capacity ordinals to a leaf: (logs, 3)
    in the bit pool and (logs, 9) in the word pool, and the low widths
    of each log's gap map and x and y streams, (logs, 3).

    Fields must describe a valid window (first >= 1, last >= first, gaps
    <= last - first) and widths of at most 64."""
    first, last, gaps = u32s[:, 0], u32s[:, 1], u32s[:, 2]
    count = last - first + 1 - gaps
    members = count - 1
    # a sparse set of m members over n per set: the gap map over the
    # window; a stream of m values summing to t, over t + m
    m = np.stack((gaps, members, members), axis=1)
    low_width, high = elias_fano(
        np.stack((count + gaps, u32s[:, 6] + members, u32s[:, 8] + members),
                 axis=1), m)
    lows = m * low_width
    entries = (-(-members // BLOCK))[:, None] * (
        u32s[:, 4:5] >> np.array([0, 8, 16, 24]) & 255)
    leaves = -(-count // leaf_capacity)
    below = (np.int64(2) << bit_lengths(leaves - 1)) - 2  # nodes 2..2L-1
    diffs = 2 * below * u32s[:, 9]
    words = np.column_stack((lows[:, 0], entries, lows[:, 1:], diffs, diffs))
    return high, words, low_width


def encode(ts, xs, ys, first_rows, starts, period: int, leaf_capacity: int):
    """Encode the logs whose rows begin at first_rows in the instant, x
    and y columns, each in the period beginning at the same entry of
    starts, with a tree of leaf_capacity ordinals to a leaf over each.

    Returns (u32s, bits, words): the fields, one int64 row of U32_FIELDS
    per log, and the bit pool's and the word pool's bytes.  Instants that
    do not strictly increase within a log or leave its period raise
    ValueError; a field past a u32 is the caller's to reject.
    """
    ts, xs, ys = (np.asarray(c, dtype=np.int64) for c in (ts, xs, ys))
    starts = np.asarray(starts, dtype=np.int64)
    n = len(first_rows)
    if not n:
        return np.zeros((0, U32_FIELDS), dtype=np.int64), b"", b""
    head = np.asarray(first_rows, dtype=np.int64)
    count = np.diff(np.append(head, len(ts)))
    tail = head + count - 1
    log = np.repeat(np.arange(n), count)
    ordinal = ranks(count)  # from 0
    local = ts - np.repeat(starts, count)
    if ((local[1:] <= local[:-1]) & (ordinal[1:] > 0)).any():
        raise ValueError("instants must be strictly increasing")
    outside = (local[head] < 1) | (local[tail] > period - 1)
    if outside.any():
        k = int(starts[np.argmax(outside)])
        raise ValueError(f"instants must lie in {k + 1}..{k + period - 1}")
    # first the fields, then from them every piece's length, then the
    # pieces themselves, one kind at a time
    u32s = np.empty((n, U32_FIELDS), dtype=np.int64)

    # the window
    first, last = local[head], local[tail]
    gaps = last - first + 1 - count
    u32s[:, 0], u32s[:, 1], u32s[:, 2] = first, last, gaps

    # the steps of a log, 2**BLOCK_SHIFT to a block; per axis each block
    # has a speed bound s_b no less than its largest step rate, so every
    # increment dx + s_b*dt in it is non-negative, and the drift s_b*dt
    # summed over the log up to fix j is s_b*(t_j - t_1) plus an offset
    later = np.ones(len(ts), dtype=bool)
    later[head] = False
    owner = log[later]
    members = count - 1
    step = ordinal[later] - 1  # from 0
    dt = np.diff(local, prepend=0)[later]
    blocks = -(-members // BLOCK)
    before = np.cumsum(blocks) - blocks
    block_of = before[owner] + (step >> BLOCK_SHIFT)
    opens = np.flatnonzero(step & (BLOCK - 1) == 0)  # each block's first step
    block_log = owner[opens]
    has = blocks > 0
    span = np.add.reduceat(dt, opens) if len(opens) else dt[:0]
    # the instant, from the window's first, of the fix each block starts at
    since = local[head[block_log] + step[opens]] - first[block_log]
    moves = [np.diff(col, prepend=0)[later] for col in (xs, ys)]
    rates = [-(-np.abs(m) // dt) for m in moves]
    tops = np.zeros((2, n), dtype=np.int64)  # each axis's largest rate
    if len(opens):
        rates = [np.maximum.reduceat(r, opens) for r in rates]
        for top, rate in zip(tops, rates):
            top[has] = np.maximum.reduceat(rate, before[has])
    speed = tops.max(axis=0)
    # in floats, since two u32s multiply past an int64; within _MAX_DRIFT
    # every drift, sum of drifts and offset below fits an int64
    if (speed * (last - first).astype(float) > _MAX_DRIFT).any():
        raise ValueError("a log's increments sum past a u32")

    def drifts(s, col):
        # for the blocks' speed bounds s on the axis col: their entries,
        # the reduction s - s_b and the zigzagged offset, the stream
        # totals, the entries' widths and each log's words for the axis
        drift = s * span
        sums = np.cumsum(drift) - drift
        offset = sums - sums[before[block_log]] - s * since
        entries = (speed[block_log] - s, (offset << 1) ^ (offset >> 63))
        total = col[tail] - col[head]
        widths = np.zeros((2, n), dtype=np.int64)
        if len(opens):
            total[has] += np.add.reduceat(drift, before[has])
            for width, values in zip(widths, entries):
                width[has] = np.bitwise_or.reduceat(values, before[has])
        widths = bit_lengths(widths)
        low_width, high_length = elias_fano(total + members, members)
        words = sum((bits + 63) >> 6 for bits in (
            members * low_width, high_length, *(blocks * widths)))
        return entries, total, widths, words

    u32s[:, 3] = speed
    entries, increments = [], []
    for a, (col, move, rate, top) in enumerate(zip((xs, ys), moves, rates,
                                                   tops)):
        # an axis takes as its blocks' speed bounds whichever makes it
        # smallest, the first of equals: the log's s for every block,
        # which needs no entries; the axis's largest rate for every
        # block, which needs no offsets; or each block's own largest rate
        bounds = (speed[block_log], top[block_log], rate)
        options = [drifts(b, col) for b in bounds]
        pick = np.argmin([o[3] for o in options], axis=0)
        on = pick[block_log]
        s = np.choose(on, bounds)
        for k in (0, 1):
            entries.append((np.choose(on, [o[0][k] for o in options]),
                            np.choose(pick, [o[2][k] for o in options])))
        # the first coordinate, then the unary stream of the increments
        # from the second fix on
        u32s[:, 5 + 2 * a] = col[head]
        u32s[:, 6 + 2 * a] = np.choose(pick, [o[1] for o in options])
        increments.append(move + s[block_of] * dt)
    # the four entry widths, a byte each
    u32s[:, 4] = sum(e[1] << 8 * k for k, e in enumerate(entries))

    # the box tree: a heap of 2L nodes per log, L leaves padded to a power
    # of two, each box kept as (xmin, -xmax, ymin, -ymax) so a parent is
    # the elementwise minimum of its children and every diff is child less
    # parent; padded nodes hold _PAD, which the minimum never picks over a
    # real child, and store diffs of 0
    leaves = -(-count // leaf_capacity)
    leaf_count = np.int64(1) << bit_lengths(leaves - 1)
    nodes = 2 * leaf_count
    tree_at = np.cumsum(nodes) - nodes  # each tree's node 0, unused
    box = np.full((int(nodes.sum()), 4), _PAD, dtype=np.int64)
    leaf_log = np.repeat(np.arange(n), leaves)
    leaf_rank = ranks(leaves)
    cut = head[leaf_log] + leaf_rank * leaf_capacity
    at = tree_at[leaf_log] + leaf_count[leaf_log] + leaf_rank
    box[at, 0] = np.minimum.reduceat(xs, cut)
    box[at, 1] = -np.maximum.reduceat(xs, cut)
    box[at, 2] = np.minimum.reduceat(ys, cut)
    box[at, 3] = -np.maximum.reduceat(ys, cut)
    height = 1  # at height h, nodes L >> h .. (L >> (h - 1)) - 1
    while (tall := np.flatnonzero(leaf_count >> height)).size:
        level = leaf_count[tall] >> height
        p = np.repeat(level, level) + ranks(level)
        base = np.repeat(tree_at[tall], level)
        box[base + p] = np.minimum(box[base + 2 * p], box[base + 2 * p + 1])
        height += 1
    u32s[:, 10:] = box[tree_at + 1] * (1, -1, 1, -1)
    below = nodes - 2  # nodes 2..2L-1 store diffs
    p = ranks(below) + 2
    base = np.repeat(tree_at, below)
    diffs = box[base + p] - box[base + p // 2]
    diffs[box[base + p, 0] == _PAD] = 0
    top = np.zeros(n, dtype=np.int64)
    if len(diffs):
        has = below > 0
        top[has] = np.maximum.reduceat(diffs.max(axis=1),
                                       (np.cumsum(below) - below)[has])
    width = np.maximum(bit_lengths(top), 1)
    u32s[:, 9] = width

    high, low, low_width = piece_bits(u32s, leaf_capacity)
    bits, words = PieceBuffer(high), PieceBuffer(low)
    # gap offsets in the window from 0: the instants skipped between two
    # fixes of a log
    offset = local - np.repeat(first, count)
    skipped = np.diff(offset) - 1
    skipped[ordinal[1:] == 0] = 0
    gap_at = np.repeat(offset[:-1], skipped) + ranks(skipped) + 1
    gap_log = np.repeat(log[1:], skipped)
    gap_rank = ranks(gaps)
    gap_width = low_width[:, 0]
    lows, highs = _halves(gap_width, gap_log, gap_rank, gap_at)
    words.packed(GAP_LOWS, gap_log, gap_rank, lows, gap_width)
    bits.ones(GAP_HIGH, gap_log, highs)
    rank = ranks(blocks)
    for piece, (values, entry_width) in enumerate(entries, ENTRIES):
        words.packed(piece, block_log, rank, values, entry_width)
    # member j (from 0) of a stream is the sum of its first j + 1 values
    # plus j
    rank = ranks(members)
    before = np.cumsum(members) - members
    for a, values in enumerate(increments):
        sums = np.concatenate(([0], np.cumsum(values)))
        lows, highs = _halves(low_width[:, 1 + a], owner, rank,
                              sums[1:] - sums[before[owner]] + rank)
        words.packed(X_LOWS + a, owner, rank, lows, low_width[:, 1 + a])
        bits.ones(X_HIGH + a, owner, highs)
    tree_log, tree_rank = np.repeat(np.arange(n), 2 * below), ranks(2 * below)
    words.packed(DIFFS, tree_log, tree_rank, diffs[:, :2].ravel(), width)
    words.packed(DIFFS + 1, tree_log, tree_rank, diffs[:, 2:].ravel(), width)
    return u32s, bits.tobytes(), words.tobytes()


def _halves(low_width, group, rank, values):
    # each member's low bits, and the bit (from 0) it sets in the high
    # bits of its sparse set, whose low width is low_width[group]
    shift = low_width[group]
    return values & ((1 << shift) - 1), (values >> shift) + rank
