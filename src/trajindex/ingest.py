"""Reading, writing and cleaning raw position reports.

Two interchange formats carry the same four integer columns (object id,
instant, x, y): comma-separated text, and a packed little-endian record of
9 bytes (u16 id, u16 instant, u16 x, u24 y).  Cleaning drops reports that
imply impossible speeds and linearly fills short gaps, mirroring how
receiver dropouts are usually patched before indexing.
"""

from __future__ import annotations

import operator
import struct
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class RawRecord(NamedTuple):
    object_id: int
    instant: int
    x: int
    y: int


class Records(Sequence):
    """Raw records held as one read-only (n, 4) int64 column array.

    It reads as a sequence of `RawRecord`s of plain ints, made only when
    an item is read, and equals the list of them; numpy takes the columns
    whole (`np.asarray(records)`), so a build makes no object per record.
    """

    __slots__ = ("_cols",)

    def __init__(self, cols: np.ndarray):
        self._cols = cols

    def __len__(self) -> int:
        return len(self._cols)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Records(self._cols[i])
        return RawRecord._make(self._cols[operator.index(i)].tolist())

    def __iter__(self):
        return map(RawRecord._make, zip(*self._cols.T.tolist()))

    def __eq__(self, other):
        if isinstance(other, Records):
            return np.array_equal(self._cols, other._cols)
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"Records({list(self)!r})"

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array(self._cols, dtype=dtype, copy=copy)


@dataclass(frozen=True)
class NormalizeConfig:
    max_speed: int = 55        # cells per instant an object may plausibly move
    max_gap: int = 15          # gaps of fewer missing instants get interpolated
    extent: tuple[int, int] | None = None


_BIN_RECORD = 9
_BIN_HEAD = struct.Struct("<HHH")
_BIN_DTYPE = np.dtype([("id", "<u2"), ("t", "<u2"), ("x", "<u2"),
                       ("ylo", "<u2"), ("yhi", "u1")])


def parse_csv(lines) -> list[RawRecord]:
    """Parse 'id,instant,x,y' rows; blank lines are skipped."""
    out = []
    for lineno, line in enumerate(lines, 1):
        text = line.strip()
        if not text:
            continue
        parts = text.split(",")
        if len(parts) != 4:
            raise ValueError(f"line {lineno}: expected 4 fields, got {len(parts)}")
        try:
            values = [int(p) for p in parts]
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer field in {text!r}") from None
        if min(values) < 0:
            raise ValueError(f"line {lineno}: negative value in {text!r}")
        out.append(RawRecord(*values))
    return out


def write_csv(records, fh) -> None:
    for r in records:
        fh.write(f"{r.object_id},{r.instant},{r.x},{r.y}\n")


def parse_binary(data: bytes) -> Records:
    if len(data) % _BIN_RECORD:
        raise ValueError(
            f"binary input length {len(data)} is not a multiple of {_BIN_RECORD}")
    rec = np.frombuffer(data, dtype=_BIN_DTYPE)
    y = rec["ylo"].astype(np.int64) | rec["yhi"].astype(np.int64) << 16
    cols = np.stack([rec["id"], rec["t"], rec["x"], y], axis=1)
    cols.flags.writeable = False
    return Records(cols)


def write_binary(records) -> bytes:
    chunks = []
    for r in records:
        for name, value, size in zip(("id", "instant", "x", "y"), r, (2, 2, 2, 3)):
            if not 0 <= value < 1 << 8 * size:
                raise ValueError(f"{name}={value} does not fit in {size} bytes")
        chunks.append(_BIN_HEAD.pack(r.object_id, r.instant, r.x)
                      + bytes([r.y & 0xFF, (r.y >> 8) & 0xFF, r.y >> 16]))
    return b"".join(chunks)


def _sorted_by_object(records) -> list[RawRecord]:
    out = sorted(records, key=lambda r: (r.object_id, r.instant))
    for a, b in zip(out, out[1:]):
        if a.object_id == b.object_id and a.instant == b.instant:
            raise ValueError(
                f"object {a.object_id} reported twice at instant {a.instant}")
    return out


def speed_filter(records, max_speed: int) -> list[RawRecord]:
    """Drop reports that imply moving faster than max_speed on either axis.

    Displacement is judged against the previous report that survived, so a
    single corrupt fix does not take the rest of the track with it.
    """
    out = []
    prev: dict[int, RawRecord] = {}
    for r in _sorted_by_object(records):
        p = prev.get(r.object_id)
        if p is not None:
            dt = r.instant - p.instant
            if (abs(r.x - p.x) > max_speed * dt
                    or abs(r.y - p.y) > max_speed * dt):
                continue
        prev[r.object_id] = r
        out.append(r)
    return out


def _round_to_earlier(num: int, den: int) -> int:
    # nearest integer to num/den with exact halves falling toward zero,
    # i.e. toward the earlier report's value
    q, r = divmod(num, den)
    if 2 * r > den:
        return q + 1
    if 2 * r < den:
        return q
    return q if num >= 0 else q + 1


def interpolate_gaps(records, max_gap: int) -> list[RawRecord]:
    """Linearly fill gaps shorter than max_gap missing instants."""
    out = []
    prev: dict[int, RawRecord] = {}
    for r in _sorted_by_object(records):
        p = prev.get(r.object_id)
        if p is not None:
            missing = r.instant - p.instant - 1
            if 0 < missing < max_gap:
                den = r.instant - p.instant
                for j in range(1, missing + 1):
                    out.append(RawRecord(
                        r.object_id, p.instant + j,
                        p.x + _round_to_earlier((r.x - p.x) * j, den),
                        p.y + _round_to_earlier((r.y - p.y) * j, den)))
        prev[r.object_id] = r
        out.append(r)
    return out


def normalize(records, config: NormalizeConfig = NormalizeConfig()) -> list[RawRecord]:
    """Sort, bound-check, speed-filter and gap-fill raw reports."""
    rows = _sorted_by_object(records)
    if config.extent is not None:
        w, h = config.extent
        for r in rows:
            if not (0 <= r.x < w and 0 <= r.y < h):
                raise ValueError(f"record {r} outside {w}x{h} grid")
    return interpolate_gaps(speed_filter(rows, config.max_speed),
                            config.max_gap)
