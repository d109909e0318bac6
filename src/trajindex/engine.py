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
from array import array

import numpy as np

from trajindex.encoder import U32_FIELDS, encode
from trajindex.log import (
    FILE_FIELDS,
    RECORD_FIELDS,
    TREE,
    TrajectoryLog,
    bit_pool,
    data_count,
    ordinal_range,
    position_at,
    records,
)
from trajindex.mbrtree import Mbr, MbrTree, TraversalStats
from trajindex.snapshot import Region, Snapshot, expanded_region
from trajindex.succinct import U32_MAX, BitPool, Reader, Writer, nbytes, words_from

_MAGIC = b"CTCT"
_VERSION = 6
_PREFIX = struct.Struct("<4sHI")  # magic, version, CRC-32
_CRC_AT = 6  # offset of the CRC field, which the CRC skips
_RECORD = struct.Struct(f"={RECORD_FIELDS}I")  # a log's record (see `log`)
_ROOT = TREE + 1
MAX_PERIODS = 1 << 20  # each period costs a snapshot, data or not


_ROOT_BOX = struct.Struct("=4I")


def _root_meets(records: array, row: int, region: Region) -> bool:
    # whether the root box of the log at row, which bounds every position
    # in the log, meets region; most candidates fail, so only the box is
    # read
    xmin, xmax, ymin, ymax = _ROOT_BOX.unpack_from(
        records, row * _RECORD.size + 4 * _ROOT)
    return (xmin <= region.x2 and region.x1 <= xmax
            and ymin <= region.y2 and region.y1 <= ymax)


def _root_within(f, region: Region) -> bool:
    return (region.x1 <= f[_ROOT] and f[_ROOT + 1] <= region.x2
            and region.y1 <= f[_ROOT + 2] and f[_ROOT + 3] <= region.y2)


class TrajectoryIndex:
    """Queryable compressed index over a fixed-rate trajectory set.

    Every log and tree lives in two pools: one bit pool with its rank and
    select directory and one word pool, each log addressed by its row in
    a table of fixed-width records.  A flat table maps (period, object
    index) to the row, or to -1 where the object has no log.
    """

    def __init__(self, period: int, leaf_capacity: int,
                 extent: tuple[int, int], horizon: int, max_speed: int,
                 sample_count: int, object_ids: np.ndarray,
                 snapshots: list[Snapshot], bits: BitPool, words: array,
                 f: np.ndarray, slots: np.ndarray):
        """f: the logs' records in file order (see `log.records`); slots:
        period * object count + object index, for each log."""
        if len(f) and f.max() > U32_MAX:
            raise ValueError("the pools are too large for a record's u32s")
        rows = np.full(len(snapshots) * len(object_ids), -1, dtype=np.int32)
        rows[slots] = np.arange(len(slots))
        self.period = period
        self.leaf_capacity = leaf_capacity
        self.extent = extent
        self.horizon = horizon
        self.max_speed = max_speed
        self.sample_count = sample_count
        self._object_ids = object_ids
        self._index = {int(oid): i for i, oid in enumerate(object_ids)}
        self._snapshots = snapshots
        self._bits = bits
        self._words = words
        # [:] is an exact copy: an array made from bytes keeps up to a
        # sixteenth more room
        self._records = array("I", f.astype(np.uint32).tobytes())[:]
        self._rows = array("i", rows.tobytes())

    # ------------------------------------------------------------- lookups

    @property
    def object_ids(self) -> list[int]:
        return [int(i) for i in self._object_ids]

    @property
    def snapshots(self) -> list[Snapshot]:
        return self._snapshots

    @property
    def _logs(self) -> dict[tuple[int, int], tuple[TrajectoryLog, MbrTree]]:
        """(period start, object id) -> (log, tree), as views made afresh."""
        ids, d = self.object_ids, self.period
        out = {}
        for slot, row in enumerate(self._rows):
            if row >= 0:
                key = slot // len(ids) * d, ids[slot % len(ids)]
                f = self._fields(row)
                out[key] = self._log(f, key[1], key[0]), self._tree(f)
        return out

    def _check_instant(self, q: int) -> None:
        if not 0 <= q < self.horizon:
            raise IndexError(f"instant {q} out of range 0..{self.horizon - 1}")

    def _object(self, oid: int) -> int:
        i = self._index.get(oid)
        if i is None:
            raise KeyError(f"unknown object {oid}")
        return i

    def _fields(self, row: int) -> tuple[int, ...]:
        return _RECORD.unpack_from(self._records, row * _RECORD.size)

    def _log(self, f, oid: int, k: int) -> TrajectoryLog:
        return TrajectoryLog(self._bits, self._words, f, oid, k, self.period)

    def _tree(self, f) -> MbrTree:
        return MbrTree(self._words, self.leaf_capacity, data_count(f), f, TREE)

    def object_position(self, oid: int, q: int) -> tuple[int, int] | None:
        """Where object oid was at instant q, or None if it sent nothing."""
        i = self._object(oid)
        self._check_instant(q)
        p, local = divmod(q, self.period)
        if not local:
            snap = self._snapshots[p]
            if snap.is_entrant(oid):
                return None
            return snap.position_of(oid)
        row = self._rows[p * len(self._index) + i]
        if row < 0:
            return None
        return position_at(self._bits, self._words, self._fields(row), local)

    def trajectory(self, oid: int, first: int, last: int) -> list[tuple[int, int, int]]:
        """(instant, x, y) rows for oid over first..last, instants ascending."""
        i = self._object(oid)
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
            row = self._rows[k // d * len(self._index) + i]
            if lo > hi or row < 0:
                continue
            f = self._fields(row)
            b1, e1 = ordinal_range(self._bits, self._words, f, lo - k, hi - k)
            if b1 > e1:
                continue
            for t, x, y in self._log(f, oid, k).iter_positions(b1, e1):
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
        rows, index = self._rows, self._index
        first = k // d * len(index)
        out = []
        for oid, _, _ in snap.range_report(wide):
            row = rows[first + index[oid]]
            if row < 0 or not _root_meets(self._records, row, region):
                continue
            pos = self._log(self._fields(row), oid, k).position(q - k)
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
        rows, index = self._rows, self._index
        found: set[int] = set()
        for k in range(first - first % d, last + 1, d):
            snap = self._snapshots[k // d]
            lo, hi = max(first, k + 1), min(last, k + d - 1)
            logged = lo <= hi  # else the window ends at the snapshot instant
            wide = (expanded_region(region, hi, k, self.max_speed, self.extent)
                    if logged else region)
            period_row = k // d * len(index)
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
                row = rows[period_row + index[oid]]
                if row < 0:
                    continue
                # the tree's first test, on its root box, is made here
                # from the record; only a search that needs more makes views
                if mbr_prune and not _root_meets(self._records, row, region):
                    if stats is not None:
                        stats.root_only("mbr_reject")
                    continue
                f = self._fields(row)
                b1, e1 = ordinal_range(self._bits, self._words, f, lo - k, hi - k)
                if b1 > e1:
                    continue
                if mbr_prune and _root_within(f, region):
                    if stats is not None:
                        stats.root_only("mbr_contain")
                    found.add(oid)
                    continue
                hit = self._tree(f).first_hit(
                    self._log(f, oid, k), box, b1, e1, self.max_speed, lo - k,
                    hi - k, mbr_prune=mbr_prune, speed_prune=speed_prune,
                    stats=stats)
                if hit is not None:
                    found.add(oid)
        return sorted(found)

    # ------------------------------------------------------ serialization

    def memory(self) -> dict[str, int]:
        """Bytes each part of the loaded index holds in memory, from the
        sizes of the arrays that hold it."""
        bits = self._bits
        return {
            "snapshots": sum(s.nbytes() for s in self._snapshots),
            "bit pool": nbytes(bits.words),
            "directories": bits.nbytes() - nbytes(bits.words),
            "word pool": nbytes(self._words),
            "log records": nbytes(self._records),
            "row table": nbytes(self._rows),
        }

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
          per period, in time order: its snapshot and a bitmap over the
          object ids marking who has a log in the period;
          then every log with its box tree, by period and then by id, as
          the index holds them (see `encoder`): their u32 fields, row
          after row, the bit pool's words and the word pool's words.
        """
        ids = self._object_ids
        w = _header(self.extent, self.horizon, self.period, self.leaf_capacity,
                    self.sample_count, self.max_speed, ids)
        present = np.frombuffer(self._rows, dtype=np.int32).reshape(
            len(self._snapshots), len(ids)) >= 0
        sizes = {"snapshots": 0}
        for snap, logged in zip(self._snapshots, present):
            mark = len(w)
            snap.write(w)
            sizes["snapshots"] += len(w) - mark
            w.bits(logged)
        f = np.frombuffer(self._records, dtype=np.uint32).reshape(
            -1, RECORD_FIELDS).astype(np.int64)
        w.u32s(f[:, FILE_FIELDS])
        w.words(self._bits.words)
        w.words(self._words)
        # a tree's diffs end where the next log's words begin, with its
        # gap map's lows (field 5)
        diffs = np.append(f[1:, 5], len(self._words)) - f[:, TREE]
        sizes["trees"] = 20 * len(f) + 8 * int(diffs.sum())
        sizes["logs"] = (4 * U32_FIELDS * len(f) - sizes["trees"]
                         + nbytes(self._bits.words, self._words))
        return _framed(w), sizes

    @classmethod
    def from_bytes(cls, buf) -> "TrajectoryIndex":
        """Load an index; a malformed, truncated or corrupt buffer, or one
        of another format version, raises ValueError.

        The pools are copied as the file holds them, every record is
        worked out from the stored fields in one numpy pass, and each
        pool's directory is built once.
        """
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
        _check_periods(horizon, period)
        object_ids = r.u32s(nobj)
        if np.any(object_ids[1:] <= object_ids[:-1]):
            raise ValueError("object ids are not strictly increasing")
        snapshots = []
        slots = [np.zeros(0, dtype=np.int64)]  # per log, as __init__ takes them
        for p, k in enumerate(range(0, horizon, period)):
            snapshots.append(Snapshot.read(r, k, (w, h)))
            slots.append(p * nobj + np.flatnonzero(r.bits(nobj)))
        # every object sits in the snapshot of its first fix's period
        if set().union(*(s.ids for s in snapshots)) != set(object_ids.tolist()):
            raise ValueError("the snapshots do not hold exactly the listed objects")
        slots = np.concatenate(slots)
        table = r.u32s(U32_FIELDS * len(slots)).reshape(
            -1, U32_FIELDS).astype(np.int64)
        _check_table(table, slots // max(nobj, 1) * period, period, horizon,
                     (w, h), max_speed)
        fixes = (table[:, 1] - table[:, 0] + 1 - table[:, 2]).sum()
        if fixes + sum(s.fix_count for s in snapshots) != sample_count:
            raise ValueError(f"the logs and snapshots do not hold the "
                             f"{sample_count} samples the header counts")
        f, bit_words, word_words = records(table, leaf_capacity)
        pools = r.take(8 * (bit_words + word_words))
        r.end()
        return cls(period, leaf_capacity, (w, h), horizon, max_speed,
                   sample_count, object_ids, snapshots,
                   bit_pool(f, pools[:8 * bit_words]),
                   words_from(pools[8 * bit_words:]), f, slots)

    @classmethod
    def load(cls, path) -> "TrajectoryIndex":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())


def _header(extent, horizon, period, leaf_capacity, sample_count, max_speed,
            ids) -> Writer:
    w = Writer()
    w.u32(*extent, horizon, period, leaf_capacity, sample_count, max_speed,
          len(ids))
    w.u32s(ids)
    return w


def _framed(body: Writer) -> bytes:
    head = _MAGIC + _VERSION.to_bytes(2, "little")
    crc = zlib.crc32(body, zlib.crc32(head))
    return head + crc.to_bytes(4, "little") + bytes(body)


def compute_max_speed(rows: np.ndarray) -> int:
    """Largest per-axis displacement rate between consecutive samples of
    one object, rounded up to whole cells per instant.  rows: (id,
    instant, x, y), each object's rows together and in instant order."""
    steps = np.diff(rows, axis=0)[rows[1:, 0] == rows[:-1, 0]]
    if not len(steps):
        return 0
    moved = np.abs(steps[:, 2:]).max(axis=1)
    return int((-(-moved // steps[:, 1])).max())


def _check_table(table: np.ndarray, k: np.ndarray, period: int, horizon: int,
                 extent, max_speed: int) -> None:
    # each log's stored fields, k its period's start: a window that fits
    # its gap count, inside its period and before the horizon; packed
    # widths of at most 64 bits; a speed bound within the index's; a
    # first fix on the grid and inside the log's root box
    (first, last, gaps, speed, widths, x1, _, y1, _, diff_width,
     xmin, xmax, ymin, ymax) = table.T
    if ((first < 1) | (last < first) | (gaps > last - first)).any():
        raise ValueError("a log's time window does not fit its gap count")
    if ((last > period - 1) | (k + last >= horizon)).any():
        raise ValueError("a log's time window leaves its period or the horizon")
    entries = widths[:, None] >> np.array([0, 8, 16, 24]) & 255
    if ((entries > 64).any(axis=1) | (diff_width > 64)).any():
        raise ValueError("a log's packed width exceeds 64 bits")
    if ((speed > max_speed) | (x1 >= extent[0]) | (y1 >= extent[1])
            | (x1 < xmin) | (x1 > xmax) | (y1 < ymin) | (y1 > ymax)).any():
        raise ValueError("a log's speed bound or first fix lies outside the "
                         "index's speed bound, the grid or the log's root box")


def _check_periods(horizon: int, period: int) -> None:
    if -(-horizon // period) > MAX_PERIODS:
        raise ValueError(f"{-(-horizon // period)} periods of {period} instants "
                         f"exceed the limit of {MAX_PERIODS} periods")


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
    _check_periods(horizon, period)
    computed = compute_max_speed(rows)
    if max_speed is None:
        max_speed = computed
    elif max_speed < computed:
        raise ValueError(
            f"declared speed {max_speed} below observed rate {computed}")
    # one group per (object, period), in file order: its first row goes to
    # the snapshot, as an entrant unless it sits at the period start; the
    # rest is a log
    ks = ts - ts % period
    starts = np.flatnonzero(np.r_[True, (oids[1:] != oids[:-1])
                                  | (ks[1:] != ks[:-1])])
    ends = np.r_[starts[1:], len(rows)]
    order = np.lexsort((oids[starts], ks[starts]))
    starts, ends = starts[order], ends[order]
    k = ks[starts]
    entrant = ts[starts] != k
    logged_from = starts + ~entrant
    logged = logged_from < ends
    count = (ends - logged_from)[logged]
    first_rows = np.cumsum(count) - count
    take = np.repeat(logged_from[logged] - first_rows, count) + np.arange(
        count.sum())
    u32s, bits, words = encode(*rows[take, 1:].T, first_rows, k[logged],
                               period, leaf_capacity)
    bad = (u32s < 0) | (u32s > U32_MAX)
    if bad.any():
        raise ValueError(f"log field {u32s[bad][0]} does not fit in a u32")
    ids = np.unique(oids).astype(np.uint32)
    snapshots = []
    group_at = np.searchsorted(k, range(0, horizon + period, period))
    for i in range(len(group_at) - 1):
        at_k = slice(group_at[i], group_at[i + 1])
        snap_oids, _, xs, ys = rows[starts[at_k]].T
        snapshots.append(Snapshot.build(
            zip(snap_oids.tolist(), xs.tolist(), ys.tolist()), i * period,
            extent, set(snap_oids[entrant[at_k]].tolist())))
    slots = k[logged] // period * len(ids) + np.searchsorted(
        ids, oids[starts[logged]])
    f = records(u32s, leaf_capacity)[0]
    return TrajectoryIndex(period, leaf_capacity, extent, horizon, max_speed,
                           len(rows), ids, snapshots, bit_pool(f, bits),
                           words_from(words), f, slots)
