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
import zlib
from collections import defaultdict

import numpy as np

from trajindex.log import TrajectoryLog, build_log
from trajindex.mbrtree import Mbr, MbrTree, TraversalStats, build_mbr_tree_xy
from trajindex.snapshot import Region, Snapshot, expanded_region
from trajindex.succinct import U32_MAX, BitVector, Reader, Writer, gc_paused

_MAGIC = b"CTCT"
_VERSION = 3
_PREFIX = struct.Struct("<4sHI")  # magic, version, CRC-32
_CRC_AT = 6  # offset of the CRC field, which the CRC skips


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
        box = Mbr(region.x1, region.x2, region.y1, region.y2)
        out = []
        for oid, _, _ in snap.range_report(wide):
            entry = self._logs.get((k, oid))
            # the root box bounds every position in the log
            if entry is None or not entry[1].root.intersects(box):
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
        box = Mbr(region.x1, region.x2, region.y1, region.y2)
        found: set[int] = set()
        for k in range(first - first % d, last + 1, d):
            snap = self._snapshots[k // d]
            lo, hi = max(first, k + 1), min(last, k + d - 1)
            logged = lo <= hi  # else the window ends at the snapshot instant
            wide = (expanded_region(region, hi, k, self.max_speed, self.extent)
                    if logged else region)
            # one probe serves the snapshot instant and the logs: when k is
            # in the window, a non-entrant stored inside region is found
            for oid, x, y in snap.range_report(wide):
                if oid in found:
                    continue
                if (k >= first and region.contains(x, y)
                        and not snap.is_entrant(oid)):
                    found.add(oid)
                    continue
                if not logged:
                    continue
                entry = self._logs.get((k, oid))
                if entry is None:
                    continue
                log, tree = entry
                if mbr_prune and not tree.root.intersects(box):
                    if stats is not None:
                        stats.root_reject()
                    continue
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

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    def to_bytes(self) -> bytes:
        return self.encode()[0]

    def encode(self) -> tuple[bytes, dict[str, int]]:
        """The file, and the bytes its snapshots, logs and trees take.

        Layout, all little-endian, with no frames and no lengths the
        reader can work out:
          magic, u16 version, u32 CRC-32 of every other byte of the file;
          u32 width, height, horizon, period, leaf capacity, sample count,
          max speed, object count; the object ids as u32s;
          then per period, in time order: its snapshot, a bitmap over the
          object ids marking who has a log in the period, and those logs
          in id order, each followed by its box tree.
        """
        ids = self._object_ids
        w = Writer()
        w.u32(*self.extent, self.horizon, self.period, self.leaf_capacity,
              self.sample_count, self.max_speed, len(ids))
        w.u32s(ids)
        logged: dict[int, list[int]] = defaultdict(list)
        for k, oid in sorted(self._logs):
            logged[k].append(oid)
        sizes = dict.fromkeys(("snapshots", "logs", "trees"), 0)
        for i, snap in enumerate(self._snapshots):
            k = i * self.period
            mark = len(w)
            snap.write(w)
            sizes["snapshots"] += len(w) - mark
            oids = logged[k]
            BitVector.from_set_positions(
                len(ids), np.searchsorted(ids, oids) + 1).write(w)
            for oid in oids:
                for part, name in zip(self._logs[(k, oid)], ("logs", "trees")):
                    mark = len(w)
                    part.write(w)
                    sizes[name] += len(w) - mark
        body = bytes(w)
        head = _MAGIC + _VERSION.to_bytes(2, "little")
        crc = zlib.crc32(body, zlib.crc32(head))
        return head + crc.to_bytes(4, "little") + body, sizes

    @classmethod
    def from_bytes(cls, buf) -> "TrajectoryIndex":
        """Load an index; a malformed, truncated or corrupt buffer, or one
        of another format version, raises ValueError.

        The garbage collector is paused while the parse allocates its tens
        of thousands of small objects.
        """
        with gc_paused():
            return cls._parse(buf)

    @classmethod
    def _parse(cls, buf) -> "TrajectoryIndex":
        if len(buf) < _PREFIX.size or bytes(buf[:4]) != _MAGIC:
            raise ValueError("not an index file")
        _, version, crc = _PREFIX.unpack_from(buf)
        if version != _VERSION:
            raise ValueError(f"unsupported index version {version}; "
                             f"only version {_VERSION} files can be read")
        view = memoryview(buf)
        body = view[_PREFIX.size:]
        if zlib.crc32(body, zlib.crc32(view[:_CRC_AT])) != crc:
            raise ValueError("index checksum mismatch: the file is corrupt")
        r = Reader(body)
        (w, h, horizon, period, leaf_capacity, sample_count, max_speed,
         nobj) = (r.u32() for _ in range(8))
        if period < 2 or leaf_capacity < 1:
            raise ValueError(f"bad period {period} or leaf capacity {leaf_capacity}")
        object_ids = r.u32s(nobj)
        if np.any(object_ids[1:] <= object_ids[:-1]):
            raise ValueError("object ids are not strictly increasing")
        snapshots = []
        logs = {}
        for k in range(0, horizon, period):
            snapshots.append(Snapshot.read(r, k, (w, h)))
            for p in BitVector.read(r, nobj).ones():
                oid = int(object_ids[p - 1])
                log = TrajectoryLog.read(r, oid, k, period)
                tree = MbrTree.read(r, log.data_count, leaf_capacity)
                logs[(k, oid)] = (log, tree)
        r.end()
        # every object sits in the snapshot of its first fix's period
        if set().union(*(s.ids for s in snapshots)) != set(object_ids.tolist()):
            raise ValueError("the snapshots do not hold exactly the listed objects")
        return cls(period, leaf_capacity, (w, h), horizon, max_speed,
                   sample_count, object_ids, snapshots, logs)

    @classmethod
    def load(cls, path) -> "TrajectoryIndex":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())


def compute_max_speed(rows: np.ndarray) -> int:
    """Largest per-axis displacement rate between consecutive samples of
    one object, rounded up to whole cells per instant.  rows: (id,
    instant, x, y), each object's rows together and in instant order."""
    steps = np.diff(rows, axis=0)[rows[1:, 0] == rows[:-1, 0]]
    if not len(steps):
        return 0
    moved = np.abs(steps[:, 2:]).max(axis=1)
    return int((-(-moved // steps[:, 1])).max())


def _check_u32(name: str, value) -> None:
    if not 0 <= value <= U32_MAX:
        raise ValueError(f"{name} {value} does not fit in a u32")


def build_index(samples, period: int, leaf_capacity: int,
                extent: tuple[int, int], horizon: int | None = None,
                max_speed: int | None = None) -> TrajectoryIndex:
    """Build the index from (object id, instant, x, y) rows.

    Objects may come in any order, each object's instants strictly
    increasing, all coordinates on the extent grid.  max_speed may widen
    the computed bound but never narrow it.  Every value the file keeps
    must fit its u32 field.
    """
    if period < 2:
        raise ValueError("period must be at least 2")
    if leaf_capacity < 1:
        raise ValueError("leaf capacity must be positive")
    w, h = extent
    for name, value in (("period", period), ("leaf capacity", leaf_capacity),
                        ("width", w), ("height", h), ("horizon", horizon),
                        ("max speed", max_speed)):
        if value is not None:
            _check_u32(name, value)
    try:
        rows = np.fromiter(samples, dtype=np.dtype((np.int64, 4)))
    except (OverflowError, ValueError) as exc:
        raise ValueError(f"samples must be rows of four 64-bit integers: "
                         f"{exc}") from None
    if not len(rows):
        raise ValueError("no samples")
    off = (rows[:, 2:] < 0) | (rows[:, 2:] >= (w, h))
    if off.any():
        oid, t, x, y = rows[off.any(axis=1)][0]
        raise ValueError(f"sample ({oid}, {t}, {x}, {y}) outside {w}x{h} grid")
    if rows[:, 1].min() < 0:
        raise ValueError("negative instant")
    rows = rows[np.argsort(rows[:, 0], kind="stable")]
    oids, ts = rows[:, 0], rows[:, 1]
    _check_u32("object id", oids[0])
    _check_u32("object id", oids[-1])
    back = (oids[1:] == oids[:-1]) & (ts[1:] <= ts[:-1])
    if back.any():
        oid, t = rows[np.argmax(back) + 1, :2]
        raise ValueError(
            f"samples for object {oid} not strictly increasing at instant {t}")
    t_max = int(ts.max())
    if horizon is None:
        if t_max >= U32_MAX:
            raise ValueError(f"instant {t_max} does not fit: the horizon "
                             f"after it must be a u32")
        horizon = t_max + 1
    elif horizon <= t_max:
        raise ValueError(f"horizon {horizon} does not cover instant {t_max}")
    computed = compute_max_speed(rows)
    if max_speed is None:
        max_speed = computed
    elif max_speed < computed:
        raise ValueError(
            f"declared speed {max_speed} below observed rate {computed}")
    # one group per (object, period): its first row goes to the snapshot,
    # as an entrant unless it sits at the period start; the rest is a log
    ks = ts - ts % period
    starts = np.flatnonzero(np.r_[True, (oids[1:] != oids[:-1])
                                  | (ks[1:] != ks[:-1])])
    ends = np.r_[starts[1:], len(rows)]
    snapped = [[] for _ in range(0, horizon, period)]
    entrants = [set() for _ in snapped]
    logs: dict[tuple[int, int], tuple[TrajectoryLog, MbrTree]] = {}
    order = np.lexsort((oids[starts], ks[starts]))
    with gc_paused():
        for s, e in zip(starts[order].tolist(), ends[order].tolist()):
            oid, t, x, y = rows[s].tolist()
            i = t // period
            k = i * period
            snapped[i].append((oid, x, y))
            if t != k:
                entrants[i].add(oid)
            else:
                s += 1
            if s < e:
                log = build_log(rows[s:e, 1:], k, period, object_id=oid)
                logs[(k, oid)] = (log, build_mbr_tree_xy(
                    rows[s:e, 2], rows[s:e, 3], leaf_capacity))
        snapshots = [Snapshot.build(at_k, i * period, extent, entrants[i])
                     for i, at_k in enumerate(snapped)]
    return TrajectoryIndex(period, leaf_capacity, extent, horizon, max_speed,
                           len(rows), np.unique(oids).astype(np.uint32),
                           snapshots, logs)
