"""The per-log encoder that the fleet-wide one replaced, kept as a reference.

`write_log` and `write_tree` encode one log and its box tree with a few
small numpy calls each, through the one-structure encoders below (copies,
so that a change to the package's own cannot move the reference).  Each
adds its u32 fields and its pieces to a `Parts`, log after log.
`reference_blob` writes an index file from them: the header, the
snapshots with their presence bitmaps, then the logs' fields, bit pool
and word pool; the header, the snapshots and the frame come from the
package.
"""

from __future__ import annotations

import numpy as np

from trajindex.engine import _framed, _header, compute_max_speed
from trajindex.snapshot import Snapshot
from trajindex.succinct import U32_MAX, Writer

_PAD = 1 << 40
BLOCK = 16  # steps to a block with its own speed bounds


def bits_at(n: int, positions) -> np.ndarray:
    pos = np.asarray(positions, dtype=np.int64)
    bits = np.zeros(n, dtype=np.uint8)
    bits[pos - 1] = 1
    return bits


class Parts:
    """The logs and trees of a file: their u32 fields, one after another,
    and the words of the bit pool and of the word pool."""

    def __init__(self):
        self.fields: list[int] = []
        self.bits = Writer()
        self.words = Writer()


def write_packed(w: Writer, values, width: int) -> None:
    vals = np.asarray(values, dtype=np.uint64)
    w.bits(((vals[:, None] >> np.arange(width, dtype=np.uint64))
            & np.uint64(1)).ravel())


def write_sparse(parts: Parts, n: int, positions) -> None:
    # the lows to the word pool, the high bits to the bit pool
    pos = np.asarray(positions, dtype=np.int64)
    m = len(pos)
    low_width = max(0, (n // m).bit_length() - 1) if m else 0
    v = pos - 1
    write_packed(parts.words, v & ((1 << low_width) - 1), low_width)
    high_length = m + ((n - 1) >> low_width) + 1 if m else 0
    parts.bits.bits(bits_at(high_length, (v >> low_width) + np.arange(1, m + 1)))


def write_unary(parts: Parts, values) -> None:
    vals = np.asarray(values, dtype=np.int64)
    positions = np.cumsum(vals, dtype=np.int64) + np.arange(1, len(vals) + 1)
    universe = int(positions[-1]) if len(vals) else 0
    parts.fields.append(universe - len(vals))
    write_sparse(parts, universe, positions)


def write_log(parts: Parts, samples, start: int, period: int) -> None:
    """One log of (instant, x, y) rows sorted by instant, instants global
    in start+1 .. start+period-1."""
    rows = np.asarray(samples, dtype=np.int64).reshape(-1, 3)
    ts, xs, ys = rows.T
    local = ts - start
    first, last = int(local[0]), int(local[-1])
    present = np.zeros(last - first + 1, dtype=bool)
    present[local - first] = True
    gaps = np.flatnonzero(~present) + 1
    parts.fields += [first, last, len(gaps)]
    write_sparse(parts, last - first + 1, gaps)
    # the speed bound s; per block and axis the reduction s - s_b of the
    # block's speed bound and its offset; per axis the first coordinate
    # and the increments dx + s_b*dt
    elapsed = np.diff(local)
    tau = local - first
    blocks = range(0, len(elapsed), BLOCK)
    rates = [-(-np.abs(np.diff(col)) // elapsed) for col in (xs, ys)]
    speed = int(max((r.max(initial=0) for r in rates)))
    axes = []
    for col, rate in zip((xs, ys), rates):
        top = int(rate.max(initial=0))
        own = [int(rate[b:b + BLOCK].max()) for b in blocks]
        axes.append(min((_axis(col, elapsed, tau, speed, bounds)
                         for bounds in ([speed] * len(own), [top] * len(own),
                                        own)),
                        key=lambda axis: axis[0]))
    widths = [max(e, default=0).bit_length()
              for _, entries, _ in axes for e in entries]
    parts.fields += [speed,
                     sum(width << 8 * k for k, width in enumerate(widths))]
    for k, (_, entries, _) in enumerate(axes):
        for j, e in enumerate(entries):
            write_packed(parts.words, e, widths[2 * k + j])
    for col, (_, _, increments) in zip((xs, ys), axes):
        parts.fields.append(int(col[0]))
        write_unary(parts, increments)


def _axis(col, elapsed, tau, speed, bounds):
    """(words, (reductions, zigzagged offsets), increments) of one axis
    whose blocks have the speed bounds given; the first of those with
    the fewest words wins."""
    moves = np.diff(col)
    reductions, offsets, increments = [], [], []
    drift = 0  # the sum of s_b*dt over the steps so far
    for k, s in enumerate(bounds):
        b = k * BLOCK
        reductions.append(speed - s)
        offset = drift - s * int(tau[b])
        offsets.append(2 * offset if offset >= 0 else -2 * offset - 1)
        increments += (moves[b:b + BLOCK] + s * elapsed[b:b + BLOCK]).tolist()
        drift += s * int(elapsed[b:b + BLOCK].sum())
    m, total = len(increments), sum(increments)
    low_width = max(0, ((total + m) // m).bit_length() - 1) if m else 0
    high_length = m + ((total + m - 1) >> low_width) + 1 if m else 0
    words = sum(-(-bits // 64) for bits in (
        m * low_width, high_length,
        *(len(bounds) * max(e, default=0).bit_length()
          for e in (reductions, offsets))))
    return words, (reductions, offsets), increments


def write_tree(parts: Parts, xs, ys, leaf_capacity: int) -> None:
    """The box tree over one log's x and y columns, in ordinal order."""
    n = len(xs)
    xs = np.asarray(xs, dtype=np.int64)
    ys = np.asarray(ys, dtype=np.int64)
    leaf_count = 1 << (-(-n // leaf_capacity) - 1).bit_length()
    starts = np.arange(0, n, leaf_capacity)
    boxes = np.full((2 * leaf_count, 4), _PAD, dtype=np.int64)
    leaves = boxes[leaf_count:leaf_count + len(starts)]
    leaves[:, 0] = np.minimum.reduceat(xs, starts)
    leaves[:, 1] = -np.maximum.reduceat(xs, starts)
    leaves[:, 2] = np.minimum.reduceat(ys, starts)
    leaves[:, 3] = -np.maximum.reduceat(ys, starts)
    h = leaf_count
    while h > 1:
        h //= 2
        np.minimum(boxes[2 * h:4 * h:2], boxes[2 * h + 1:4 * h:2],
                   out=boxes[h:2 * h])
    xmin, xmax, ymin, ymax = (int(v) for v in boxes[1] * (1, -1, 1, -1))
    if min(xmin, ymin) < 0 or max(xmax, ymax) > U32_MAX:
        raise ValueError("root box cannot be stored")
    diffs = boxes[2:] - boxes[1:leaf_count].repeat(2, axis=0)
    diffs[boxes[2:, 0] == _PAD] = 0
    width = max(1, int(diffs.max(initial=0)).bit_length())
    parts.fields += [width, xmin, xmax, ymin, ymax]
    write_packed(parts.words, diffs[:, :2].ravel(), width)
    write_packed(parts.words, diffs[:, 2:].ravel(), width)


def reference_blob(rows, period: int, leaf_capacity: int, extent,
                   horizon: int | None = None) -> bytes:
    """The index file of (id, instant, x, y) rows, each object's instants
    strictly increasing, written one log at a time; a value that does not
    fit its u32 field raises ValueError."""
    rows = sorted(tuple(int(v) for v in r) for r in rows)
    ids = np.unique([r[0] for r in rows]).astype(np.uint32)
    if horizon is None:
        horizon = max(r[1] for r in rows) + 1
    max_speed = compute_max_speed(np.array(rows, dtype=np.int64))
    w = _header(extent, horizon, period, leaf_capacity, len(rows), max_speed,
                ids)
    parts = Parts()
    for k in range(0, horizon, period):
        tracks: dict[int, list] = {}
        for oid, t, x, y in rows:
            if k <= t < k + period:
                tracks.setdefault(oid, []).append((t, x, y))
        snapped = [(oid, x, y) for oid, ((_, x, y), *_) in tracks.items()]
        entrants = {oid for oid, ((t, _, _), *_) in tracks.items() if t != k}
        Snapshot.build(snapped, k, extent, entrants).write(w)
        logs = {oid: track[oid not in entrants:]
                for oid, track in tracks.items()}
        logged = [oid for oid in sorted(logs) if logs[oid]]
        w.bits(bits_at(len(ids), np.searchsorted(ids, logged) + 1))
        for oid in logged:
            log = np.array(logs[oid], dtype=np.int64)
            write_log(parts, log, k, period)
            write_tree(parts, log[:, 1], log[:, 2], leaf_capacity)
    w.u32(*parts.fields)
    w += parts.bits
    w += parts.words
    return _framed(w)
