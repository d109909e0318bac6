"""The full index: periodic snapshots plus per-period logs and box trees.

Time is cut into periods of d instants.  Instants 0, d, 2d, ... get a grid
snapshot; movement strictly inside a period goes into one log per object,
each with a bounding-box tree over its samples.  Spatial queries probe the
snapshot with a region widened by how far anything can travel since the
period began, which yields a complete candidate set; candidates are then
confirmed against the exact compressed positions.
"""

from __future__ import annotations

import struct
from collections import defaultdict

import numpy as np

from trajindex.log import TrajectoryLog, build_log
from trajindex.mbrtree import Mbr, MbrTree, TraversalStats, build_mbr_tree
from trajindex.snapshot import Region, Snapshot, expanded_region

_MAGIC = b"CTCT"
_VERSION = 1
_HEADER = struct.Struct("<4sHIIIIIQII")


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


class TrajectoryIndex:
    """Queryable compressed index over a fixed-rate trajectory set."""

    def __init__(self, period: int, leaf_capacity: int,
                 extent: tuple[int, int], horizon: int, max_speed: int,
                 sample_count: int, object_ids: np.ndarray,
                 snapshots: list[Snapshot],
                 logs: dict[tuple[int, int], tuple[TrajectoryLog, MbrTree]]):
        self.period = period
        self.leaf_capacity = leaf_capacity
        self.extent = extent
        self.horizon = horizon
        self.max_speed = max_speed
        self.sample_count = sample_count
        self._object_ids = object_ids
        self._id_set = set(int(i) for i in object_ids)
        self._snapshots = snapshots
        self._logs = logs

    # ------------------------------------------------------------- lookups

    @property
    def object_ids(self) -> list[int]:
        return [int(i) for i in self._object_ids]

    @property
    def snapshots(self) -> list[Snapshot]:
        return self._snapshots

    def log_for(self, period_start: int, oid: int) -> TrajectoryLog | None:
        entry = self._logs.get((period_start, oid))
        return entry[0] if entry else None

    def _check_instant(self, q: int) -> None:
        if not 0 <= q < self.horizon:
            raise IndexError(f"instant {q} out of range 0..{self.horizon - 1}")

    def _check_object(self, oid: int) -> None:
        if oid not in self._id_set:
            raise KeyError(f"unknown object {oid}")

    def object_position(self, oid: int, q: int) -> tuple[int, int] | None:
        """Where object oid was at instant q, or None if it sent nothing."""
        self._check_object(oid)
        self._check_instant(q)
        k = q - q % self.period
        if q == k:
            snap = self._snapshots[k // self.period]
            if snap.is_entrant(oid):
                return None
            return snap.position_of(oid)
        entry = self._logs.get((k, oid))
        if entry is None:
            return None
        return entry[0].position(q - k)

    def trajectory(self, oid: int, first: int, last: int) -> list[tuple[int, int, int]]:
        """(instant, x, y) rows for oid over first..last, instants ascending."""
        self._check_object(oid)
        self._check_instant(first)
        self._check_instant(last)
        if first > last:
            raise ValueError("empty instant range")
        d = self.period
        out: list[tuple[int, int, int]] = []
        for k in range(first - first % d, last + 1, d):
            if k >= first:
                snap = self._snapshots[k // d]
                pos = None if snap.is_entrant(oid) else snap.position_of(oid)
                if pos is not None:
                    out.append((k, pos[0], pos[1]))
            lo, hi = max(first, k + 1), min(last, k + d - 1)
            if lo > hi:
                continue
            entry = self._logs.get((k, oid))
            if entry is None:
                continue
            log = entry[0]
            b1 = log.count_data_upto(lo - k - 1) + 1
            e1 = log.count_data_upto(hi - k)
            if b1 > e1:
                continue
            for t, x, y in log.iter_positions(b1, e1):
                out.append((k + t, x, y))
        return out

    # ------------------------------------------------------------- queries

    def time_slice(self, region: Region, q: int) -> list[tuple[int, int, int]]:
        """Objects inside region at instant q as (id, x, y), sorted by id."""
        self._check_instant(q)
        d = self.period
        k = q - q % d
        snap = self._snapshots[k // d]
        if q == k:
            return sorted(snap.range_report(region, include_entrants=False))
        wide = expanded_region(region, q, k, self.max_speed, self.extent)
        out = []
        for oid, _, _ in snap.range_report(wide):
            entry = self._logs.get((k, oid))
            if entry is None:
                continue
            pos = entry[0].position(q - k)
            if pos is not None and region.contains(pos[0], pos[1]):
                out.append((oid, pos[0], pos[1]))
        return sorted(out)

    def time_interval(self, region: Region, first: int, last: int, *,
                      mbr_prune: bool = True, speed_prune: bool = True,
                      stats: TraversalStats | None = None) -> list[int]:
        """Ids of objects inside region at any instant of first..last."""
        self._check_instant(first)
        self._check_instant(last)
        if first > last:
            raise ValueError("empty instant range")
        d = self.period
        found: set[int] = set()
        for k in range(first - first % d, last + 1, d):
            snap = self._snapshots[k // d]
            if k >= first:
                for oid, _, _ in snap.range_report(region, include_entrants=False):
                    found.add(oid)
            lo, hi = max(first, k + 1), min(last, k + d - 1)
            if lo > hi:
                continue
            wide = expanded_region(region, hi, k, self.max_speed, self.extent)
            box = Mbr(region.x1, region.x2, region.y1, region.y2)
            for oid, _, _ in snap.range_report(wide):
                if oid in found:
                    continue
                entry = self._logs.get((k, oid))
                if entry is None:
                    continue
                log, tree = entry
                b1 = log.count_data_upto(lo - k - 1) + 1
                e1 = log.count_data_upto(hi - k)
                if b1 > e1:
                    continue
                hit = tree.first_hit(log, box, b1, e1, self.max_speed,
                                     lo - k, hi - k, mbr_prune=mbr_prune,
                                     speed_prune=speed_prune, stats=stats)
                if hit is not None:
                    found.add(oid)
        return sorted(found)

    # ------------------------------------------------------ serialization

    def component_bytes(self) -> dict[str, int]:
        snaps = sum(len(s.to_bytes()) for s in self._snapshots)
        logs = sum(len(lg.to_bytes()) for lg, _ in self._logs.values())
        trees = sum(len(t.to_bytes()) for _, t in self._logs.values())
        return {"snapshots": snaps, "logs": logs, "trees": trees}

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    def to_bytes(self) -> bytes:
        ids_blob = self._object_ids.astype("<u4").tobytes()
        snap_blobs = [s.to_bytes() for s in self._snapshots]
        period_keys = sorted(self._logs)
        log_blobs = []
        header = _HEADER.pack(_MAGIC, _VERSION,
                              self.extent[0], self.extent[1], self.horizon,
                              self.period, self.leaf_capacity,
                              self.sample_count, self.max_speed,
                              len(self._object_ids))
        # layout: header, ids, log directory, snapshot directory, blobs
        dir_size = 4 + len(period_keys) * 16 + 4 + len(snap_blobs) * 8
        off = len(header) + len(ids_blob) + dir_size
        directory = struct.pack("<I", len(period_keys))
        for key in period_keys:
            log, tree = self._logs[key]
            blob = log.to_bytes() + tree.to_bytes()
            directory += struct.pack("<IIQ", key[0], key[1], off)
            log_blobs.append(blob)
            off += len(blob)
        directory += struct.pack("<I", len(snap_blobs))
        for blob in snap_blobs:
            directory += struct.pack("<Q", off)
            off += len(blob)
        return b"".join([header, ids_blob, directory] + log_blobs + snap_blobs)

    @classmethod
    def from_bytes(cls, buf) -> "TrajectoryIndex":
        """Load an index; a malformed or truncated buffer raises ValueError."""
        if len(buf) < _HEADER.size or bytes(buf[:4]) != _MAGIC:
            raise ValueError("not an index file")
        try:
            return cls._parse(buf)
        except struct.error as exc:
            # fixed-size reads past the end of a cut-off directory or frame
            raise ValueError(f"truncated or corrupt index: {exc}") from exc

    @classmethod
    def _parse(cls, buf) -> "TrajectoryIndex":
        (_, version, w, h, horizon, period, leaf_capacity, sample_count,
         max_speed, nobj) = _HEADER.unpack_from(buf, 0)
        if version != _VERSION:
            raise ValueError(f"unsupported index version {version}")
        off = _HEADER.size
        object_ids = np.frombuffer(buf, dtype="<u4", count=nobj, offset=off).copy()
        off += 4 * nobj
        (nlogs,) = struct.unpack_from("<I", buf, off)
        off += 4
        log_dir = []
        for _ in range(nlogs):
            k, oid, pos = struct.unpack_from("<IIQ", buf, off)
            log_dir.append((k, oid, pos))
            off += 16
        (nsnaps,) = struct.unpack_from("<I", buf, off)
        off += 4
        snap_offs = []
        for _ in range(nsnaps):
            (pos,) = struct.unpack_from("<Q", buf, off)
            snap_offs.append(pos)
            off += 8
        logs = {}
        for k, oid, pos in log_dir:
            log, next_off = TrajectoryLog.from_buffer(buf, pos, period)
            tree, _ = MbrTree.from_buffer(buf, next_off, log.data_count)
            logs[(k, oid)] = (log, tree)
        snapshots = [Snapshot.from_buffer(buf, pos)[0] for pos in snap_offs]
        return cls(period, leaf_capacity, (w, h), horizon, max_speed,
                   sample_count, object_ids, snapshots, logs)

    @classmethod
    def load(cls, path) -> "TrajectoryIndex":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())


def compute_max_speed(per_object: dict[int, np.ndarray]) -> int:
    """Largest per-axis displacement rate between consecutive samples,
    rounded up to whole cells per instant."""
    worst = 0
    for arr in per_object.values():
        if len(arr) < 2:
            continue
        dt = np.diff(arr[:, 0])
        for col in (1, 2):
            step = np.abs(np.diff(arr[:, col]))
            rate = int(np.max(_ceil_div_arr(step, dt)))
            worst = max(worst, rate)
    return worst


def _ceil_div_arr(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return -(-a // b)


def build_index(samples, period: int, leaf_capacity: int,
                extent: tuple[int, int], horizon: int | None = None,
                max_speed: int | None = None) -> TrajectoryIndex:
    """Build the index from (object id, instant, x, y) rows.

    Rows must be sorted by object then instant, one row per object and
    instant, all coordinates on the extent grid.  max_speed may widen the
    computed bound but never narrow it.
    """
    if period < 2:
        raise ValueError("period must be at least 2")
    if leaf_capacity < 1:
        raise ValueError("leaf capacity must be positive")
    w, h = extent
    per_object: dict[int, list[tuple[int, int, int]]] = defaultdict(list)
    count = 0
    t_max = 0
    for oid, t, x, y in samples:
        if not (0 <= x < w and 0 <= y < h):
            raise ValueError(f"sample ({oid}, {t}, {x}, {y}) outside {w}x{h} grid")
        if t < 0:
            raise ValueError("negative instant")
        rows = per_object[int(oid)]
        if rows and t <= rows[-1][0]:
            raise ValueError(
                f"samples for object {oid} not strictly increasing at instant {t}")
        rows.append((int(t), int(x), int(y)))
        count += 1
        t_max = max(t_max, int(t))
    if not count:
        raise ValueError("no samples")
    if horizon is None:
        horizon = t_max + 1
    elif horizon <= t_max:
        raise ValueError(f"horizon {horizon} does not cover instant {t_max}")
    arrays = {oid: np.array(rows, dtype=np.int64)
              for oid, rows in per_object.items()}
    computed = compute_max_speed(arrays)
    if max_speed is None:
        max_speed = computed
    elif max_speed < computed:
        raise ValueError(
            f"declared speed {max_speed} below observed rate {computed}")
    object_ids = np.array(sorted(per_object), dtype=np.uint32)
    snapshots = []
    logs: dict[tuple[int, int], tuple[TrajectoryLog, MbrTree]] = {}
    for k in range(0, horizon, period):
        at_k = []
        entrants = set()
        for oid in object_ids:
            oid = int(oid)
            arr = arrays[oid]
            ts = arr[:, 0]
            i = int(np.searchsorted(ts, k))
            if i < len(ts) and ts[i] == k:
                at_k.append((oid, int(arr[i, 1]), int(arr[i, 2])))
                i += 1
            elif i < len(ts) and ts[i] <= min(k + period - 1, horizon - 1):
                # nothing at the snapshot instant itself: carry the first
                # in-period fix so region probes still see the object
                at_k.append((oid, int(arr[i, 1]), int(arr[i, 2])))
                entrants.add(oid)
            j = int(np.searchsorted(ts, min(k + period, horizon)))
            if i < j:
                log = build_log(
                    [(int(t), int(x), int(y)) for t, x, y in arr[i:j]],
                    k, period, object_id=oid)
                logs[(k, oid)] = (log, build_mbr_tree(log, leaf_capacity))
        snapshots.append(Snapshot.build(at_k, k, extent, entrants))
    return TrajectoryIndex(period, leaf_capacity, extent, horizon, max_speed,
                           count, object_ids, snapshots, logs)
