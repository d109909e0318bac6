"""The per-log encoder that the fleet-wide one replaced, kept as a reference.

`write_log` and `write_tree` encode one log and its box tree with a few
small numpy calls each, through the one-structure encoders below (copies,
so that a change to the package's own cannot move the reference).
`reference_blob` composes them, log after log, into an index file the way
`build_index` did before; the header, the snapshots and the frame come
from the package.
"""

from __future__ import annotations

import numpy as np

from trajindex.engine import _framed, _header, compute_max_speed
from trajindex.snapshot import Snapshot
from trajindex.succinct import U32_MAX, Writer

_PAD = 1 << 40


def bits_at(n: int, positions) -> np.ndarray:
    pos = np.asarray(positions, dtype=np.int64)
    bits = np.zeros(n, dtype=np.uint8)
    bits[pos - 1] = 1
    return bits


def write_packed(w: Writer, values, width: int) -> None:
    vals = np.asarray(values, dtype=np.uint64)
    w.bits(((vals[:, None] >> np.arange(width, dtype=np.uint64))
            & np.uint64(1)).ravel())


def write_sparse(w: Writer, n: int, positions) -> None:
    pos = np.asarray(positions, dtype=np.int64)
    m = len(pos)
    low_width = max(0, (n // m).bit_length() - 1) if m else 0
    v = pos - 1
    write_packed(w, v & ((1 << low_width) - 1), low_width)
    high_length = m + ((n - 1) >> low_width) + 1 if m else 0
    w.bits(bits_at(high_length, (v >> low_width) + np.arange(1, m + 1)))


def write_unary(w: Writer, values) -> None:
    vals = np.asarray(values, dtype=np.int64)
    positions = np.cumsum(vals, dtype=np.int64) + np.arange(1, len(vals) + 1)
    universe = int(positions[-1]) if len(vals) else 0
    w.u32(universe - len(vals))
    write_sparse(w, universe, positions)


def write_log(w: Writer, samples, start: int, period: int) -> None:
    """One log of (instant, x, y) rows sorted by instant, instants global
    in start+1 .. start+period-1."""
    rows = np.asarray(samples, dtype=np.int64).reshape(-1, 3)
    ts, xs, ys = rows.T
    local = ts - start
    first, last = int(local[0]), int(local[-1])
    present = np.zeros(last - first + 1, dtype=bool)
    present[local - first] = True
    gaps = np.flatnonzero(~present) + 1
    w.u32(first, last, len(gaps))
    write_sparse(w, last - first + 1, gaps)
    for deltas in (np.diff(xs, prepend=0), np.diff(ys, prepend=0)):
        nonneg = deltas >= 0
        w.bits(nonneg)
        write_unary(w, deltas[nonneg])
        write_unary(w, -deltas[~nonneg])


def write_tree(w: Writer, xs, ys, leaf_capacity: int) -> None:
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
    w.u32(width, xmin, xmax, ymin, ymax)
    write_packed(w, diffs[:, :2].ravel(), width)
    write_packed(w, diffs[:, 2:].ravel(), width)


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
            write_log(w, log, k, period)
            write_tree(w, log[:, 1], log[:, 2], leaf_capacity)
    return _framed(w)
