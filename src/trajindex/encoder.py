"""The fleet-wide encoder: every log of a build, each followed by its box
tree, in one pass over the build's columns.

A build hands over its fixes as three columns, instant, x and y, log after
log in file order, with the first row and the period start of each log.
Every per-log number (window, gap count, speed bound, stream totals,
Elias-Fano low widths and high lengths, leaf counts, root boxes, diff
widths) is one array operation over all logs, and every word-aligned
piece of every log and tree is set in one bit buffer, packed once.
`lay_out` then puts each log's u32 fields between its pieces, in file
order.  A standalone log or tree is the same encoding of one log.

A log and its tree on file, in the order `log.read_fields` and
`mbrtree.read_tree` read them:
  u32 first and last local instant, gap count; the gap map, the sparse
  set of the window's gaps: its lows, then its high bits;
  u32 speed bound s, the largest step rate on either axis, and the
  widths of the four entry arrays, a byte each; the arrays, one entry per
  block of 2**BLOCK_SHIFT steps: the reductions s - s_b of the blocks' x
  speed bounds s_b, their x offsets (zigzagged), then the same two for y
  (see `log`);
  per axis: u32 first coordinate, then the unary stream of the
  increments dx + s_b*dt: u32 total, lows, high bits;
  u32 diff width, root box xmin, xmax, ymin, ymax; the x diffs, the y
  diffs.
"""

from __future__ import annotations

import numpy as np

from trajindex.succinct import (
    U32_MAX,
    PieceBuffer,
    Reader,
    bit_lengths,
    elias_fano,
    ranks,
)

# A log's pieces in file order: the gap map's lows and high bits; the
# blocks' x reductions and offsets, then their y ones (from _BLOCKS); each
# axis's stream's lows and high bits (from _X or _Y); then the tree's x
# and y diffs.
_GAP_LOWS, _GAP_BITS, _BLOCKS, _X, _Y, _DIFFS = 0, 1, 2, 6, 8, 10
_PIECES = 12
# The u32 fields of a log and its tree, in file order: first, last, gaps,
# the speed bound and the entry widths, x's first coordinate and stream
# total, y's, the diff width and the root box.  Group g, fields
# _GROUPS[g] .. _GROUPS[g + 1] - 1, is followed by the run of pieces
# _RUNS[g] .. _RUNS[g + 1] - 1.
_GROUPS = np.array([0, 3, 5, 7, 9, 14])
_RUNS = np.array([0, 2, 6, 8, 10, 12])
U32_FIELDS = 14
BLOCK_SHIFT = 4
BLOCK = 1 << BLOCK_SHIFT  # steps to a block of one speed bound per axis

_PAD = 1 << 40  # a padded node's box: above any storable coordinate
_MAX_DRIFT = 1 << 61


def encode(ts, xs, ys, first_rows, starts, period: int, leaf_capacity: int):
    """Encode the logs whose rows begin at first_rows in the instant, x
    and y columns, each in the period beginning at the same entry of
    starts, with a tree of leaf_capacity ordinals to a leaf over each.

    Returns (u32s, at, size, pieces) for `lay_out`: the u32 fields, one
    row of U32_FIELDS per log, and the byte offset in pieces and byte
    length of each log's piece runs, (logs, 4, 1) arrays.  Instants that
    do not strictly increase within a log or leave its period raise
    ValueError; values past a u32 are `lay_out`'s to reject.
    """
    ts, xs, ys = (np.asarray(c, dtype=np.int64) for c in (ts, xs, ys))
    starts = np.asarray(starts, dtype=np.int64)
    n = len(first_rows)
    if not n:
        runs = np.zeros((0, len(_RUNS) - 1, 1), dtype=np.int64)
        return np.zeros((0, U32_FIELDS), dtype=np.int64), runs, runs, b""
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
    # first every piece's length, from per-log numbers alone, then the
    # pieces themselves, one kind at a time
    lengths = np.zeros((n, _PIECES), dtype=np.int64)  # in bits
    u32s = np.empty((n, U32_FIELDS), dtype=np.int64)

    # the window and its gap map
    first, last = local[head], local[tail]
    window = last - first + 1
    gaps = window - count
    u32s[:, 0], u32s[:, 1], u32s[:, 2] = first, last, gaps
    gap_width, lengths[:, _GAP_BITS] = elias_fano(window, gaps)
    lengths[:, _GAP_LOWS] = gaps * gap_width

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
    entries, streams = [], []  # (piece, values, width)
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
            width = np.choose(pick, [o[2][k] for o in options])
            lengths[:, _BLOCKS + 2 * a + k] = blocks * width
            entries.append((_BLOCKS + 2 * a + k,
                            np.choose(on, [o[0][k] for o in options]), width))
        # the first coordinate, then the unary stream of the increments
        # from the second fix on.  A stream of m values summing to t is the
        # sparse set of m members over t + m (see `write_unary`).
        u32s[:, 5 + 2 * a] = col[head]
        u32s[:, 6 + 2 * a] = total = np.choose(pick, [o[1] for o in options])
        low_width, high_length = elias_fano(total + members, members)
        piece = _X if a == 0 else _Y
        lengths[:, piece] = members * low_width
        lengths[:, piece + 1] = high_length
        streams.append((piece, move + s[block_of] * dt, low_width))
    # the four entry widths, a byte each
    u32s[:, 4] = sum(e[2] << 8 * k for k, e in enumerate(entries))

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
    lengths[:, _DIFFS] = lengths[:, _DIFFS + 1] = 2 * below * width

    buf = PieceBuffer(lengths)
    # gap offsets in the window from 0: the instants skipped between two
    # fixes of a log
    offset = local - np.repeat(first, count)
    skipped = np.diff(offset) - 1
    skipped[ordinal[1:] == 0] = 0
    gap_at = np.repeat(offset[:-1], skipped) + ranks(skipped) + 1
    gap_log = np.repeat(log[1:], skipped)
    gap_rank = ranks(gaps)
    lows, highs = _halves(gap_width, gap_log, gap_rank, gap_at)
    buf.packed(_GAP_LOWS, gap_log, gap_rank, lows, gap_width)
    buf.ones(_GAP_BITS, gap_log, highs)
    rank = ranks(blocks)
    for piece, values, entry_width in entries:
        buf.packed(piece, block_log, rank, values, entry_width)
    for piece, increments, low_width in streams:
        _stream(buf, piece, owner, increments, members, low_width)
    tree_log, tree_rank = np.repeat(np.arange(n), 2 * below), ranks(2 * below)
    buf.packed(_DIFFS, tree_log, tree_rank, diffs[:, :2].ravel(), width)
    buf.packed(_DIFFS + 1, tree_log, tree_rank, diffs[:, 2:].ravel(), width)
    first_word = buf.starts[:, _RUNS[:-1]]
    size = buf.ends[:, _RUNS[1:] - 1] - first_word
    return u32s, 8 * first_word[:, :, None], 8 * size[:, :, None], buf.tobytes()


def _stream(buf, piece, owner, values, members, low_width) -> None:
    # the lows and high bits of one stream of every log: values back to
    # back, log after log, owner the log of each; member j (from 0) of a
    # stream is the sum of its first j + 1 values plus j
    rank = ranks(members)
    sums = np.concatenate(([0], np.cumsum(values)))
    before = np.cumsum(members) - members
    lows, highs = _halves(low_width, owner, rank,
                          sums[1:] - sums[before[owner]] + rank)
    buf.packed(piece, owner, rank, lows, low_width)
    buf.ones(piece + 1, owner, highs)


def _halves(low_width, group, rank, values):
    # each member's low bits, and the bit (from 0) it sets in the high
    # bits of its sparse set, whose low width is low_width[group]
    shift = low_width[group]
    return values & ((1 << shift) - 1), (values >> shift) + rank


def lay_out(u32s, at, size, pieces: bytes, u32_size: int = 4):
    """Logs with their trees in file order: each group of u32 fields
    followed by its run of pieces.  at and size give the byte offset in
    pieces and the byte length of each run's chunks, (logs, 4, chunks)
    arrays; a run may be split into chunks from anywhere in pieces.

    Fields take u32_size bytes; at 4, one past a u32 raises ValueError.
    Returns the bytes, each log's first byte with the end appended, and
    each tree's first byte.
    """
    n, runs, chunks = at.shape
    if u32_size == 4 and n:
        bad = (u32s < 0) | (u32s > U32_MAX)
        if bad.any():
            raise ValueError(f"log field {u32s[bad][0]} does not fit in a u32")
    fields = u32s.astype("<u4" if u32_size == 4 else "<i8").tobytes()
    src = np.empty((n, runs, 1 + chunks), dtype=np.int64)
    length = np.empty_like(src)
    src[:, :, 0] = (U32_FIELDS * np.arange(n)[:, None] + _GROUPS[:-1]) * u32_size
    length[:, :, 0] = np.diff(_GROUPS) * u32_size
    src[:, :, 1:] = at + len(fields)
    length[:, :, 1:] = size
    # every field and piece is a whole number of 4-byte units
    src, length = src.ravel() >> 2, length.ravel() >> 2
    ends = np.cumsum(length)
    take = (np.repeat(src - (ends - length), length)
            + np.arange(ends[-1] if n else 0))
    units = np.frombuffer(fields + pieces, dtype=np.uint32)
    ends = 4 * ends.reshape(n, runs * (1 + chunks))
    return (units[take].tobytes(), np.append(0, ends[:, -1]),
            ends[:, (runs - 1) * (1 + chunks) - 1])


def standalone(ts, xs, ys, start: int, period: int, leaf_capacity: int) -> Reader:
    """A reader over one log and its tree, with signed 8-byte fields so
    coordinates and sums past a u32, which no file holds, still encode."""
    u32s, at, size, pieces = encode(ts, xs, ys, [0], [start], period,
                                    leaf_capacity)
    return Reader(lay_out(u32s, at, size, pieces, 8)[0], 8)
