"""Seeded inputs: the fleet, its raw 9-byte records, and the query list.

The fleet model and the query shapes are copied here on purpose, not
imported from the tests or from ``trajindex bench``: edits to either must
not shift what the benchmark measures.  The model is the one the test
suite uses (a bounded random walk reflected off the grid walls), drawn in
the same order, so seed 101 gives the acceptance fleet.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

OBJECTS = 100
HORIZON = 5_000
EXTENT = (1024, 1024)
MAX_STEP = 3
DROP_RATE = 0.05

SMALL_REGION = (272, 367)
LARGE_REGION = (2723, 3677)   # clamped to the grid, so the whole grid
SMALL_INTERVAL = 36
LARGE_INTERVAL = 90
TRAJECTORY_WINDOW = 90

OBJECT, TRAJECTORY = "object", "trajectory"
SLICE_S, SLICE_L = "slice_s", "slice_l"
INTERVAL_S, INTERVAL_L = "interval_s", "interval_l"


@dataclass
class Fleet:
    ids: np.ndarray      # int64 (O,), sorted
    present: np.ndarray  # bool (O, T)
    xs: np.ndarray       # int64 (O, T)
    ys: np.ndarray       # int64 (O, T)
    extent: tuple[int, int]

    @property
    def horizon(self) -> int:
        return self.present.shape[1]

    @property
    def fix_count(self) -> int:
        return int(self.present.sum())


def _fold(values: np.ndarray, extent: int) -> np.ndarray:
    period = 2 * extent - 2
    v = np.mod(values, period)
    return np.where(v >= extent, period - v, v)


def make_fleet(seed: int, objects: int = OBJECTS, horizon: int = HORIZON,
               extent: tuple[int, int] = EXTENT) -> Fleet:
    """Random walk with steps in [-MAX_STEP, MAX_STEP] per axis and
    DROP_RATE of the fixes missing."""
    rng = np.random.default_rng(seed)
    w, h = extent
    shape = (objects, horizon - 1)
    sx = rng.integers(-MAX_STEP, MAX_STEP + 1, size=shape)
    sy = rng.integers(-MAX_STEP, MAX_STEP + 1, size=shape)
    x0 = rng.integers(0, w, size=(objects, 1))
    y0 = rng.integers(0, h, size=(objects, 1))
    xs = _fold(np.concatenate([x0, x0 + np.cumsum(sx, axis=1)], axis=1), w)
    ys = _fold(np.concatenate([y0, y0 + np.cumsum(sy, axis=1)], axis=1), h)
    present = rng.random((objects, horizon)) >= DROP_RATE
    present[np.flatnonzero(~present.any(axis=1)), 0] = True
    return Fleet(np.arange(1, objects + 1, dtype=np.int64), present,
                 xs.astype(np.int64), ys.astype(np.int64), extent)


_RECORD = np.dtype([("oid", "<u2"), ("t", "<u2"), ("x", "<u2"), ("y", "u1", 3)])


def raw_records(fleet: Fleet) -> bytes:
    """The fleet as packed 9-byte records (u16 id, u16 instant, u16 x,
    u24 y), sorted by object then instant."""
    rows, ts = np.nonzero(fleet.present)
    out = np.empty(len(rows), dtype=_RECORD)
    out["oid"] = fleet.ids[rows]
    out["t"] = ts
    out["x"] = fleet.xs[rows, ts]
    y = fleet.ys[rows, ts]
    out["y"] = np.stack([y & 0xFF, (y >> 8) & 0xFF, y >> 16], axis=1)
    return out.tobytes()


def _strata(rng, n: int, size: int) -> list[int]:
    """n values in [0, size), one from each of n equal strata, in a seeded
    order.  Spread evenly like this, fewer queries give medians that move
    less from seed to seed than independent draws would."""
    return [int(v) for v in (rng.permutation(n) + rng.random(n)) * size / n]


def make_ops(rng, kind: str, fleet: Fleet, n: int) -> list[tuple]:
    """n queries of the given kind with seeded arguments.

    object (oid, q); trajectory (oid, first, last); slice (rect, q);
    interval (rect, first, last), where rect is an inclusive
    (x1, x2, y1, y2) box.  Every object is asked about equally often;
    instants, window starts and region corners are stratified, each
    coordinate on its own.
    """
    horizon, extent = fleet.horizon, fleet.extent
    if kind in (OBJECT, TRAJECTORY):
        oids = [int(i) for i in rng.permutation(np.resize(fleet.ids, n))]
        if kind == OBJECT:
            return [(kind, oid, q)
                    for oid, q in zip(oids, _strata(rng, n, horizon))]
        firsts = _strata(rng, n, horizon - TRAJECTORY_WINDOW + 1)
        return [(kind, oid, f, f + TRAJECTORY_WINDOW - 1)
                for oid, f in zip(oids, firsts)]
    small = kind in (SLICE_S, INTERVAL_S)
    if not small and kind not in (SLICE_L, INTERVAL_L):
        raise ValueError(f"unknown query kind {kind!r}")
    size = SMALL_REGION if small else LARGE_REGION
    w, h = min(size[0], extent[0]), min(size[1], extent[1])
    rects = [(x, x + w - 1, y, y + h - 1)
             for x, y in zip(_strata(rng, n, extent[0] - w + 1),
                             _strata(rng, n, extent[1] - h + 1))]
    if kind in (SLICE_S, SLICE_L):
        return [(kind, rect, q)
                for rect, q in zip(rects, _strata(rng, n, horizon))]
    length = SMALL_INTERVAL if small else LARGE_INTERVAL
    firsts = _strata(rng, n, horizon - length + 1)
    return [(kind, rect, f, f + length - 1) for rect, f in zip(rects, firsts)]


def make_stream(seed: int, fleet: Fleet, recipe: dict[str, int],
                pools: dict[str, int], rounds: int) -> list[tuple]:
    """`rounds` rounds, each holding recipe[kind] queries of every kind in
    a seeded order.  A kind's queries come from a pool of pools[kind]
    distinct queries, used in turn, so cheap kinds can repeat within the
    list while costly ones do not."""
    rng = np.random.default_rng([seed, 1])
    pool = {kind: make_ops(rng, kind, fleet, pools[kind]) for kind in recipe}
    kinds = [k for k, n in recipe.items() for _ in range(n)]
    used = dict.fromkeys(recipe, 0)
    ops = []
    for _ in range(rounds):
        for i in rng.permutation(len(kinds)):
            kind = kinds[i]
            ops.append(pool[kind][used[kind] % pools[kind]])
            used[kind] += 1
    return ops


def make_cold_pair(seed: int, fleet: Fleet) -> tuple[tuple, tuple]:
    """The object and slice-S query asked of every freshly loaded index."""
    rng = np.random.default_rng([seed, 2])
    return (make_ops(rng, OBJECT, fleet, 1)[0],
            make_ops(rng, SLICE_S, fleet, 1)[0])


def digest(raw: bytes, ops: list[tuple]) -> str:
    """Short hash of the records and the query list, to show that two
    runs saw identical inputs."""
    h = hashlib.sha256(raw)
    h.update(repr(ops).encode())
    return h.hexdigest()[:16]
