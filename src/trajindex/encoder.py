"""The fleet-wide encoder: every log of a build, each followed by its box
tree, in one pass over the build's columns.

A build hands over its fixes as three columns, instant, x and y, log after
log in file order, with the first row and the period start of each log.
Every per-log number (window, gap count, sign counts, stream totals,
Elias-Fano low widths and high lengths, leaf counts, root boxes, diff
widths) is one array operation over all logs, and every word-aligned
piece of every log and tree is set in one bit buffer, packed once.
`lay_out` then puts each log's u32 fields between its pieces, in file
order.  A standalone log or tree is the same encoding of one log.

A log and its tree on file, in the order `log.read_fields` and
`mbrtree.read_tree` read them:
  u32 first and last local instant, gap count; the gap map, the sparse
  set of the window's gaps: its lows, then its high bits;
  per axis: the sign bits, then for the non-negative and the negative
  steps' unary stream: u32 total, lows, high bits;
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

# A log's pieces in file order: the gap map's lows and bits, per axis
# (from _X or _Y) the sign bits and each stream's lows and high bits, then
# the tree's x and y diffs.
_GAP_LOWS, _GAP_BITS, _X, _Y, _DIFFS = 0, 1, 2, 7, 12
_PIECES = 14
# The u32 fields of a log and its tree, in file order: first, last, gaps,
# the four stream totals (x up, x down, y up, y down), the diff width and
# the root box.  Group g, fields _GROUPS[g] .. _GROUPS[g + 1] - 1, is
# followed by the run of pieces _RUNS[g] .. _RUNS[g + 1] - 1.
_GROUPS = np.array([0, 3, 4, 5, 6, 7, 12])
_RUNS = np.array([0, 3, 5, 8, 10, 12, 14])
U32_FIELDS = 12

_PAD = 1 << 40  # a padded node's box: above any storable coordinate


def encode(ts, xs, ys, first_rows, starts, period: int, leaf_capacity: int):
    """Encode the logs whose rows begin at first_rows in the instant, x
    and y columns, each in the period beginning at the same entry of
    starts, with a tree of leaf_capacity ordinals to a leaf over each.

    Returns (u32s, at, size, pieces) for `lay_out`: the u32 fields, one
    row of U32_FIELDS per log, and the byte offset in pieces and byte
    length of each log's piece runs, (logs, 6, 1) arrays.  Instants that
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

    # per axis, the sign of each step, then a unary stream of the
    # magnitudes of the non-negative and one of the negative steps; the
    # first step is the coordinate itself.  A stream of m values summing
    # to t is the sparse set of m members over t + m (see `write_unary`).
    signs = []  # (piece, which steps are non-negative)
    streams = []  # (piece, axis steps, which of them, members, low width)
    for a, col in ((_X, xs), (_Y, ys)):
        step = np.diff(col, prepend=0)
        step[head] = col[head]
        up = step >= 0
        rises = np.add.reduceat(up, head, dtype=np.int64)
        climb = np.add.reduceat(np.where(up, step, 0), head)
        descent = climb - np.add.reduceat(step, head)
        lengths[:, a] = count
        signs.append((a, up))
        for piece, keep, members, total in ((a + 1, up, rises, climb),
                                            (a + 3, ~up, count - rises, descent)):
            u32s[:, 3 + len(streams)] = total  # fields 3..6, stream by stream
            low_width, high_length = elias_fano(total + members, members)
            lengths[:, piece] = members * low_width
            lengths[:, piece + 1] = high_length
            streams.append((piece, step, keep, members, low_width))

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
    u32s[:, 8:] = box[tree_at + 1] * (1, -1, 1, -1)
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
    u32s[:, 7] = width
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
    for piece, up in signs:
        rise = np.flatnonzero(up)
        buf.ones(piece, log[rise], ordinal[rise])
    for piece, step, keep, members, low_width in streams:
        keep = np.flatnonzero(keep)
        _stream(buf, piece, log[keep], np.abs(step[keep]), members, low_width)
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
    pieces and the byte length of each run's chunks, (logs, 6, chunks)
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
    fields = u32s.astype(f"<u{u32_size}").tobytes()
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
    """A reader over one log and its tree, with 8-byte fields so sums past
    a u32, which no file holds, still encode."""
    u32s, at, size, pieces = encode(ts, xs, ys, [0], [start], period,
                                    leaf_capacity)
    return Reader(lay_out(u32s, at, size, pieces, 8)[0], 8)
