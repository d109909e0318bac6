"""The full index: periodic snapshots plus per-period logs and box trees.

Time is cut into periods of d instants.  Instants 0, d, 2d, ... get a grid
snapshot; movement strictly inside a period goes into one log per object,
each with a bounding-box tree over its samples.  Spatial queries probe a
snapshot only at its own instant, with the region as given.  The logs of
the query's periods are consecutive records, so one numpy pass over their
columns keeps those whose window meets the query's, whose first fix is
within reach of the region at the log's speed bound, and whose root box
meets the region; the kept logs are then confirmed against the exact
compressed positions, `SLICE_BATCH` or fewer by `position_at` and more
by `positions_at`, or settled from their columns alone.
"""

from __future__ import annotations

import struct
import zlib
from array import array
from bisect import bisect_left
from collections.abc import Sequence

import numpy as np
from numpy.lib.recfunctions import repack_fields

from trajindex.encoder import U32_FIELDS, encode
from trajindex.log import (
    DATA,
    ENTRIES,
    FILE_FIELDS,
    RECORD_FIELDS,
    SPEED,
    TREE,
    X_AXIS,
    X_FIRST,
    Y_FIRST,
    TrajectoryLog,
    bit_pool,
    check_stream_ends,
    check_window_ends,
    decode,
    has_data,
    ordinal_range,
    position_at,
    positions_at,
    records,
    surely_has_data,
)
from trajindex.mbrtree import MbrTree, TraversalStats
from trajindex.snapshot import Region, Snapshot
from trajindex.succinct import U32_MAX, BitPool, Reader, Writer, nbytes, words_from

_MAGIC = b"CTCT"
_VERSION = 11
_PREFIX = struct.Struct("<4sHI")  # magic, version, CRC-32
_CRC_AT = 6  # offset of the CRC field, which the CRC skips
_ROOT = TREE + 1
MAX_PERIODS = 1 << 20  # each period costs a snapshot, data or not
_CODES = {1: "B", 2: "H", 4: "I"}  # a record field's code by its bytes
_NAMES = [str(i) for i in range(RECORD_FIELDS)]  # fields in a numpy record
_STORED = [_NAMES[i] for i in FILE_FIELDS]
# the record fields that a spatial query reads of every log in its
# window, as rows: the window's first and last instants, the first fix's
# x twice and y twice, the root box (xmin, xmax, ymin, ymax), the speed
# bound s and the gap count; and the sign of each of the first ten in
# its test (see `_candidates`)
_FILTERED = [0, 1, X_FIRST, X_FIRST, Y_FIRST, Y_FIRST,
             *range(_ROOT, _ROOT + 4), SPEED, 2]
_SIGNS = np.array([1, -1, -1, 1, -1, 1, 1, -1, 1, -1])[:, None]
SLICE_BATCH = 36  # past this many kept logs, one numpy read (break-even 32-35)


def _codes(f: np.ndarray) -> str:
    # each column of f at the narrowest of 1, 2 or 4 bytes that holds its
    # largest value, as struct codes
    return "".join(_CODES[1 if top < 1 << 8 else 2 if top < 1 << 16 else 4]
                   for top in f.max(axis=0, initial=0).tolist())


class TrajectoryIndex:
    """Queryable compressed index over a fixed-rate trajectory set.

    Every log and tree lives in two pools: one bit pool with its rank and
    select directory and one word pool, each log addressed by its row in
    a table of records, each field at the narrowest width per column,
    chosen per index: 1, 2 or 4 bytes.  A flat table maps (period, object
    index) to the row, or to -1 where the object has no log.  The
    snapshots of all periods are one `Snapshot` table over the same slots,
    so a loaded index holds the same few Python objects whatever its
    period count.
    """

    def __init__(self, period: int, leaf_capacity: int,
                 extent: tuple[int, int], horizon: int, max_speed: int,
                 sample_count: int, object_ids: np.ndarray,
                 snapshots: Snapshot, bits: BitPool, words: array,
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
        codes = _codes(f)
        self._record = struct.Struct("<" + codes)
        # the parts of a record that queries read alone: the log's fields,
        # those before the tree's, which are all that a position reads;
        # the head, those before the x axis's; and as a numpy record, by
        # `_NAMES`, the columns that `_candidates` and the file read
        self._log_part = struct.Struct("<" + codes[:TREE])
        self._head = struct.Struct("<" + codes[:X_AXIS])
        self._dtype = np.dtype({"names": _NAMES, "formats": ["<" + c for c in codes]})
        records = np.empty(len(f), self._dtype)
        for name, column in zip(_NAMES, f.T):
            records[name] = column
        self._records = records.tobytes()
        # [:] is an exact copy: an array made from bytes keeps up to a
        # sixteenth more room
        self._rows = array("i", rows.tobytes())[:]

    # ------------------------------------------------------------- lookups

    @property
    def object_ids(self) -> list[int]:
        return [int(i) for i in self._object_ids]

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
        return self._record.unpack_from(self._records, row * self._record.size)

    def _log_fields(self, row: int) -> tuple[int, ...]:
        # the record less its tree's fields, for `position_at` and
        # `decode`
        return self._log_part.unpack_from(self._records,
                                          row * self._record.size)

    def _log(self, f, oid: int, k: int) -> TrajectoryLog:
        return TrajectoryLog(self._bits, self._words, f, oid, k, self.period)

    def _tree(self, f) -> MbrTree:
        return MbrTree(self._words, self.leaf_capacity, f[DATA], f, TREE)

    def object_position(self, oid: int, q: int) -> tuple[int, int] | None:
        """Where object oid was at instant q, or None if it sent nothing."""
        i = self._object(oid)
        self._check_instant(q)
        p, local = divmod(q, self.period)
        if not local:
            return self._snapshots.fix(p, i)
        row = self._rows[p * len(self._index) + i]
        if row < 0:
            return None
        return position_at(self._bits, self._words, self._log_fields(row),
                           local)

    def trajectory(self, oid: int, first: int, last: int) -> list[tuple[int, int, int]]:
        """(instant, x, y) rows for oid over first..last, instants ascending."""
        i = self._object(oid)
        self._check_instant(first)
        self._check_instant(last)
        if first > last:
            raise ValueError("empty instant range")
        d = self.period
        fixes, pieces = [], []
        for k in range(first - first % d, last + 1, d):
            if k >= first:
                pos = self._snapshots.fix(k // d, i)
                if pos is not None:
                    fixes.append((k, *pos))
            lo, hi = max(first, k + 1), min(last, k + d - 1)
            row = self._rows[k // d * len(self._index) + i]
            if lo <= hi and row >= 0:
                pieces.append((self._log_fields(row), k, lo - k, hi - k))
        t, x, y = (a.tolist() for a in decode(self._bits, self._words, pieces))
        out = list(zip(t, x, y))
        # each snapshot fix goes before its period's log fixes; the last
        # one first, so the places of the others hold
        for fix in reversed(fixes):
            out.insert(bisect_left(t, fix[0]), fix)
        return out

    # ------------------------------------------------------------- queries

    def _candidates(self, region: Region, first: int, last: int,
                    mbr_prune: bool = True):
        """The logs that may hold a position inside region at an instant
        of first..last, or None where no log can.

        The logs of the window's periods are consecutive rows, as a file
        holds them by period and then by object, so one numpy pass reads
        their fields `_FILTERED`, c, a row each, and keeps each log that
        passes three tests: its window meets the query's local instants
        lo..hi; its first fix lies within s * (hi - first) of region on
        both axes, as no step of the log moves faster than its speed
        bound s; and, with mbr_prune, its root box meets region.  Each
        test is a row of t, the first ten of c with their `_SIGNS` less
        a bound, so that a log passes where its rows 0..5, and 6..9 for
        the box, are at most 0: first - hi, lo - last, the first fix's
        distances past each side less s * (hi - first), and the root
        box's past the far sides.  c and t are float64: every field and
        bound is an integer below 2**33, held exactly, and s * (hi -
        first), which may pass 2**64, is rounded only past 2**53, where
        it exceeds any distance on the grid, so no test changes.

        Returns the kept logs' places among the window's logs; each of
        those logs' slot, counted from the first period's first; the row
        of the first; c; t; and region's corners held to the grid.
        """
        d, n = self.period, len(self._index)
        w, h = self.extent
        x1, x2 = max(region.x1, 0), min(region.x2, w - 1)
        y1, y2 = max(region.y1, 0), min(region.y2, h - 1)
        # the periods with a log instant in the window
        p0, p1 = first // d, last // d if last % d else last // d - 1
        if x1 > x2 or y1 > y2 or p0 > p1:
            return None  # every position and box is on the grid
        slots = np.frombuffer(self._rows, np.int32, (p1 - p0 + 1) * n,
                              4 * p0 * n)
        at = (slots >= 0).nonzero()[0]
        if not len(at):
            return None
        row = int(slots[at[0]])
        r = np.frombuffer(self._records, self._dtype, len(at),
                          row * self._record.size)
        c = np.array([r[_NAMES[i]] for i in _FILTERED], dtype=np.float64)
        lo, hi = max(first - p0 * d, 1), min(last - p1 * d, d - 1)
        spans = p0 < p1
        t = c[:10] * _SIGNS - np.array([
            d - 1 if spans else hi, -1 if spans else -lo,
            -x1, x2, -y1, y2, x2, -x1, y2, -y1])[:, None]
        if spans:  # only the first and the last period clip the window
            t[1, :at.searchsorted(n)] += lo - 1
            t[0, at.searchsorted((p1 - p0) * n):] += d - 1 - hi
        t[2:6] += c[10] * t[0]  # less s * (hi - first)
        keep = t[:10 if mbr_prune else 6].max(axis=0) <= 0
        return keep.nonzero()[0], at, row, c, t, (x1, x2, y1, y2)

    def time_slice(self, region: Region, q: int) -> list[tuple[int, int, int]]:
        """Objects inside region at instant q as (id, x, y), sorted by id."""
        self._check_instant(q)
        p, local = divmod(q, self.period)
        if not local:
            return self._snapshots.range_report(region, p)
        got = self._candidates(region, q, q)
        if got is None:
            return []
        keep, at, first_row = got[:3]
        oids = self._object_ids[at[keep]]
        if len(keep) > SLICE_BATCH:  # the kept logs' fields, as int64 rows
            r = np.frombuffer(self._records, self._dtype, keep[-1] + 1,
                              first_row * self._record.size)
            x, y, fix = positions_at(self._bits, self._words, np.array(
                [r[name] for name in _NAMES[:TREE]], np.int64).T[keep], local)
            fix &= ((x >= region.x1) & (x <= region.x2) & (y >= region.y1)
                    & (y <= region.y2))
            return list(zip(*(a[fix].tolist() for a in (oids, x, y))))
        out = []
        for oid, row in zip(oids.tolist(), (keep + first_row).tolist()):
            pos = position_at(self._bits, self._words, self._log_fields(row),
                              local)
            if pos is not None and region.contains(pos[0], pos[1]):
                out.append((oid, pos[0], pos[1]))
        return out

    def time_interval(self, region: Region, first: int, last: int, *,
                      mbr_prune: bool = True, speed_prune: bool = True,
                      stats: TraversalStats | None = None) -> list[int]:
        """Ids of objects inside region at any instant of first..last."""
        self._check_instant(first)
        self._check_instant(last)
        if first > last:
            raise ValueError("empty instant range")
        d, n = self.period, len(self._index)
        found: set[int] = set()
        # a probe at each snapshot instant in the window, which reports
        # no entrant
        for k in range(first + -first % d, last + 1, d):
            found.update(oid for oid, _, _ in
                         self._snapshots.range_report(region, k // d))
        got = self._candidates(region, first, last, mbr_prune)
        if got is None:
            return sorted(found)
        keep, at, first_row, c, t, (x1, x2, y1, y2) = got
        if stats is not None and mbr_prune:
            # a root visit and its rejection, as `first_hit` records
            # them, for each log that the root box alone rules out
            rejected = (t[:6].max(axis=0) <= 0) & (t[6:10].max(axis=0) > 0)
            for oid in self._object_ids[at[rejected] % n].tolist():
                if oid not in found:
                    stats.root_only("mbr_reject")
        # a root box inside the region needs only a data instant in the
        # window, which the columns mostly prove alone; the logs settled
        # so are skipped below, their objects found
        box_in = [False] * len(keep)
        if mbr_prune:
            inside = (t[6:10].take(keep, axis=1) + [
                [x2 - x1], [x2 - x1], [y2 - y1], [y2 - y1]]).min(axis=0) >= 0
            if inside.any():
                contained = keep[inside]
                f, (t0, t1) = (c.take(contained, axis=1),
                               t[:2].take(contained, axis=1))
                f0, f1 = f[0], f[1]  # lo and hi are f1 + t1 and f0 - t0
                sure = surely_has_data(f0, f1, f[11], np.maximum(f1 + t1, f0),
                                       np.minimum(f0 - t0, f1))
                settled = self._object_ids[at[contained[sure]] % n].tolist()
                if stats is not None:
                    for _ in set(settled) - found:
                        stats.root_only("mbr_contain")
                found.update(settled)
                box_in = inside.tolist()
        # the rest take ranks of the window bitmap, or a walk of the tree
        bits, words, p0 = self._bits, self._words, first // d
        slots = at[keep]
        for j, slot, oid, contains in zip(
                keep.tolist(), slots.tolist(),
                self._object_ids[slots % n].tolist(), box_in):
            if oid in found:
                continue
            row, k = first_row + j, (slot // n + p0) * d
            a, b = max(first - k, 1), min(last - k, d - 1)
            if contains:
                head = self._head.unpack_from(self._records,
                                              row * self._record.size)
                if has_data(bits, words, head, a, b):
                    if stats is not None:
                        stats.root_only("mbr_contain")
                    found.add(oid)
                continue
            f = self._fields(row)
            b1, e1 = ordinal_range(bits, words, f, a, b)
            if b1 > e1:
                continue
            hit = self._tree(f).first_hit(
                self._log(f, oid, k), region, b1, e1, self.max_speed,
                a, b, mbr_prune=mbr_prune, speed_prune=speed_prune,
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
            "snapshots": self._snapshots.nbytes(),
            "bit pool": nbytes(bits.words),
            "directories": bits.nbytes() - nbytes(bits.words),
            "word pool": nbytes(self._words),
            "log records": len(self._records),
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
          max speed, object count; the object ids as u32s, and their sum
          modulo 2**32;
          the snapshots of every period as one slot table (see
          `Snapshot.write`): a bitmap over periods and object ids marking
          who has a row, a bitmap over the rows marking the entrants, and
          the rows' xs and ys;
          a bitmap over periods and object ids marking who has a log;
          then every log with its box tree, by period and then by id, as
          the index holds them (see `encoder`): a byte per stored field
          giving its width in the records, 1, 2 or 4; their stored fields,
          row after row, at those widths; the bit pool's words and the
          word pool's words.
        A log's axis streams hold a member per fix after its first, and a
        log with gaps a bitmap over its window, so an object's position is
        a rank and one select per axis (see `log`).
        """
        w = _header(self.extent, self.horizon, self.period, self.leaf_capacity,
                    self.sample_count, self.max_speed, self._object_ids)
        mark = len(w)
        self._snapshots.write(w)
        sizes = {"snapshots": len(w) - mark}
        w.bits(np.frombuffer(self._rows, dtype=np.int32) >= 0)
        f = np.frombuffer(self._records, self._dtype)
        stored = repack_fields(f[_STORED])
        widths = bytes(stored.dtype[name].itemsize for name in _STORED)
        w += widths + stored.tobytes()
        w.words(self._bits.words)
        w.words(self._words)
        # a tree's diffs end where the next log's words begin, with its
        # entry arrays
        diffs = np.append(f[_NAMES[ENTRIES]][1:], len(self._words)) - f[_NAMES[TREE]]
        # and its fields are the last five stored
        sizes["trees"] = sum(widths[-5:]) * len(f) + 8 * int(diffs.sum())
        sizes["logs"] = (stored.nbytes - sizes["trees"]
                         + nbytes(self._bits.words, self._words))
        return _framed(w), sizes

    @classmethod
    def from_bytes(cls, buf) -> "TrajectoryIndex":
        """Load an index; a malformed, truncated or corrupt buffer, or one
        of another format version, raises ValueError.

        The pools are copied as the file holds them, every record is
        worked out in one numpy pass, the snapshot rows are scattered to
        their slots in another, and each pool's directory is built once.
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
         nobj) = r.u32s(8).tolist()
        if period < 2 or leaf_capacity < 1 or horizon < 1:
            raise ValueError(f"bad period {period}, leaf capacity "
                             f"{leaf_capacity} or horizon {horizon}")
        _check_periods(horizon, period)
        object_ids = r.u32s(nobj)
        id_sum, = r.u32s(1).tolist()
        if np.any(object_ids[1:] <= object_ids[:-1]):
            raise ValueError("object ids are not strictly increasing")
        if _id_sum(object_ids) != id_sum:
            raise ValueError("object ids do not add up to their stored sum")
        periods = -(-horizon // period)
        snapshots = Snapshot.read(r, (w, h), object_ids, periods)
        slots = np.flatnonzero(r.bits(periods * nobj))  # as __init__ wants
        p, i = np.divmod(slots, max(nobj, 1))  # each log's period and object
        widths = bytes(r.take(U32_FIELDS))
        if not set(widths) <= set(_CODES):
            raise ValueError(f"log field widths {list(widths)} are not 1, 2 or 4")
        codes = "".join(_CODES[width] for width in widths)
        dtype = np.dtype({"names": _STORED, "formats": ["<" + c for c in codes]})
        stored = np.frombuffer(r.take(dtype.itemsize * len(slots)), dtype)
        table = np.array([stored[name] for name in _STORED], np.int64).T
        if _codes(table) != codes:
            raise ValueError("a log field's column is stored wider than its "
                             "largest value needs")
        _check_table(table, p * period, period, horizon, (w, h), max_speed,
                     snapshots.cells(p, i))
        f, bit_words, word_words = records(table, leaf_capacity)
        if f[:, DATA].sum() + snapshots.fix_count != sample_count:
            raise ValueError(f"the logs and snapshots do not hold the "
                             f"{sample_count} samples the header counts")
        pools = r.take(8 * (bit_words + word_words))
        r.end()
        bits = bit_pool(f, pools[:8 * bit_words])
        words = words_from(pools[8 * bit_words:])
        check_window_ends(f, bits)
        check_stream_ends(f, bits, words)
        return cls(period, leaf_capacity, (w, h), horizon, max_speed,
                   sample_count, object_ids, snapshots, bits, words, f, slots)

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
    w.u32(_id_sum(ids))
    return w


def _id_sum(ids) -> int:
    # the file's one copy of the ids carries their sum, so that a flipped
    # id is refused
    return int(np.sum(ids, dtype=np.uint64)) & U32_MAX


def _framed(body: Writer) -> bytes:
    head = _MAGIC + _VERSION.to_bytes(2, "little")
    crc = zlib.crc32(body, zlib.crc32(head))
    return head + crc.to_bytes(4, "little") + bytes(body)


def compute_max_speed(rows: np.ndarray) -> int:
    """Largest per-axis displacement rate between consecutive samples of
    one object, rounded up to whole cells per instant.  rows: (id,
    instant, x, y), each object's rows together and in instant order."""
    same = rows[1:, 0] == rows[:-1, 0]
    dt = np.diff(rows[:, 1])[same]
    moved = np.maximum(np.abs(np.diff(rows[:, 2])[same]),
                       np.abs(np.diff(rows[:, 3])[same]))
    # a one-instant step moves at its own displacement; divide the rest
    far = dt != 1
    return max(int(moved[~far].max(initial=0)),
               int((-(-moved[far] // dt[far])).max(initial=0)))


def _check_table(table: np.ndarray, k: np.ndarray, period: int, horizon: int,
                 extent, max_speed: int, cells) -> None:
    # each log's stored fields, k its period's start and cells the x, y and
    # entrant flag of its snapshot row: a window that fits its gap count,
    # inside its period and before the horizon; packed widths of at most 64
    # bits; a speed bound within the index's; a first fix on the grid, in
    # its root box, at an entrant's cell or within the speed bound of any
    # other (a float product: cells are under 2**32); a root box on the grid
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
    if ((xmax >= extent[0]) | (ymax >= extent[1])).any():
        raise ValueError("a log's root box leaves the grid")
    x, y, entrant = cells
    reach = np.where(entrant, 0, first * float(max_speed))
    if ((np.abs(x - x1) > reach) | (np.abs(y - y1) > reach)).any():
        raise ValueError("a log's first fix lies beyond the speed bound's "
                         "reach of its snapshot cell (an entrant's is the cell)")


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
    """Build the index from (object id, instant, x, y) rows of integers.

    samples is an (n, 4) array-like, such as the `Records` that
    `parse_binary` returns, or any iterable of rows.  Objects may come in
    any order, each object's instants strictly increasing, all
    coordinates on the extent grid.  max_speed may widen the computed
    bound but never narrow it.  Every value the file keeps must fit its
    u32 field.
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
    if not isinstance(samples, Sequence) and not hasattr(samples, "__array__"):
        samples = list(samples)  # numpy reads an iterator as one object
    not_rows = "samples must be rows of four 64-bit integers"
    try:
        rows = np.asarray(samples)
    except ValueError as exc:  # ragged rows
        raise ValueError(f"{not_rows}: {exc}") from None
    if not rows.size:
        raise ValueError("no samples")
    # floats and bools would be truncated, and ints past 64 bits come as
    # objects
    if rows.ndim != 2 or rows.shape[1] != 4 or rows.dtype.kind not in "iu":
        raise ValueError(f"{not_rows}, not {rows.dtype} of shape {rows.shape}")
    rows = rows.astype(np.int64, copy=False)
    off = (rows[:, 2:] < 0) | (rows[:, 2:] >= (w, h))
    if off.any():
        oid, t, x, y = rows[off.any(axis=1)][0]
        raise ValueError(f"sample ({oid}, {t}, {x}, {y}) outside {w}x{h} grid")
    if rows[:, 1].min() < 0:
        raise ValueError("negative instant")
    # by id, each object's rows kept in order; sorted rows need no sort
    if (rows[1:, 0] < rows[:-1, 0]).any():
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
    new_object = np.r_[True, oids[1:] != oids[:-1]]
    ids = oids[new_object].astype(np.uint32)
    starts = np.flatnonzero(new_object | np.r_[False, ks[1:] != ks[:-1]])
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
    # each group's first row goes to its (period, object) slot
    slots = k // period * len(ids) + np.searchsorted(ids, oids[starts])
    snapshots = Snapshot(extent, ids, -(-horizon // period), slots,
                         rows[starts, 2], rows[starts, 3], entrant)
    f = records(u32s, leaf_capacity)[0]
    return TrajectoryIndex(period, leaf_capacity, extent, horizon, max_speed,
                           len(rows), ids, snapshots, bit_pool(f, bits),
                           words_from(words), f, slots[logged])
