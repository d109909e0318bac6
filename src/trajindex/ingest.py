"""Reading, writing and cleaning raw position reports.

Reports are rows of four integers (object id, instant, x, y) in one
(n, 4) int64 array, which every function here returns; `as_rows` makes
one from any rows.  They travel as comma-separated text or as packed
little-endian 9-byte records (u16 id, u16 instant, u16 x, u24 y).
Cleaning drops reports that imply impossible speeds and linearly fills
short gaps, as receiver dropouts are usually patched before indexing.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class NormalizeConfig:
    max_speed: int = 55        # cells per instant an object may plausibly move
    max_gap: int = 15          # gaps of fewer missing instants get interpolated
    extent: tuple[int, int] | None = None


_BIN_DTYPE = np.dtype([("id", "<u2"), ("t", "<u2"), ("x", "<u2"),
                       ("ylo", "<u2"), ("yhi", "u1")])


def as_rows(records) -> np.ndarray:
    """records as an (n, 4) int64 array.

    records is an (n, 4) array-like or any iterable of rows.  Ragged
    rows, floats, bools and integers past 64 bits are a ValueError, not
    truncated; any empty input is zero rows.
    """
    if not isinstance(records, Sequence) and not hasattr(records, "__array__"):
        records = list(records)  # numpy reads an iterator as one object
    not_rows = "records must be rows of four 64-bit integers"
    try:
        rows = np.asarray(records)
    except ValueError as exc:  # ragged rows
        raise ValueError(f"{not_rows}: {exc}") from None
    if not rows.size:
        return np.empty((0, 4), np.int64)
    # ints past 64 bits come as objects, or as uint64 up to 2**64
    if (rows.ndim != 2 or rows.shape[1] != 4 or rows.dtype.kind not in "iu"
            or rows.dtype == np.uint64 and (rows >> 63).any()):
        raise ValueError(f"{not_rows}, not {rows.dtype} of shape {rows.shape}")
    return rows.astype(np.int64, copy=False)


def parse_csv(lines) -> np.ndarray:
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
        if max(values) >= 1 << 63:
            raise ValueError(
                f"line {lineno}: field past 64-bit integers in {text!r}")
        out.append(values)
    return as_rows(out)


def write_csv(records, fh) -> None:
    np.savetxt(fh, as_rows(records), fmt="%d", delimiter=",")


def parse_binary(data: bytes) -> np.ndarray:
    """Parse 9-byte records into a read-only (n, 4) int64 array."""
    if len(data) % _BIN_DTYPE.itemsize:
        raise ValueError(f"binary input length {len(data)} is not a multiple "
                         f"of {_BIN_DTYPE.itemsize}")
    rec = np.frombuffer(data, dtype=_BIN_DTYPE)
    y = rec["ylo"].astype(np.int64) | rec["yhi"].astype(np.int64) << 16
    rows = np.stack([rec["id"], rec["t"], rec["x"], y], axis=1)
    rows.flags.writeable = False
    return rows


def write_binary(records) -> bytes:
    rows = as_rows(records)
    for name, col, size in zip(("id", "instant", "x", "y"), rows.T, (2, 2, 2, 3)):
        off = (col < 0) | (col >= 1 << 8 * size)
        if off.any():
            raise ValueError(f"{name}={col[off][0]} does not fit in {size} bytes")
    out = np.empty(len(rows), _BIN_DTYPE)
    out["id"], out["t"], out["x"] = rows[:, :3].T
    out["ylo"], out["yhi"] = rows[:, 3] & 0xFFFF, rows[:, 3] >> 16
    return out.tobytes()


def _sorted_by_object(records) -> np.ndarray:
    rows = as_rows(records)
    rows = rows[np.lexsort((rows[:, 1], rows[:, 0]))]
    twice = (rows[1:, :2] == rows[:-1, :2]).all(axis=1)
    if twice.any():
        oid, t = rows[np.argmax(twice), :2]
        raise ValueError(f"object {oid} reported twice at instant {t}")
    return rows


def speed_filter(records, max_speed: int) -> np.ndarray:
    """Drop reports that imply moving faster than max_speed on either axis.

    Displacement is judged against the previous report that survived, so a
    single corrupt fix does not take the rest of the track with it.
    """
    rows = _sorted_by_object(records)
    kept = []
    pid = pt = px = py = None  # the last survivor
    for i, (oid, t, x, y) in enumerate(rows.tolist()):
        if oid == pid:
            reach = max_speed * (t - pt)
            if abs(x - px) > reach or abs(y - py) > reach:
                continue
        pid, pt, px, py = oid, t, x, y
        kept.append(i)
    return rows[kept]


def _round_to_earlier(num: int, den: int) -> int:
    # nearest integer to num/den with exact halves falling toward zero,
    # i.e. toward the earlier report's value
    q, r = divmod(num, den)
    if 2 * r > den:
        return q + 1
    if 2 * r < den:
        return q
    return q if num >= 0 else q + 1


def interpolate_gaps(records, max_gap: int) -> np.ndarray:
    """Linearly fill gaps shorter than max_gap missing instants."""
    rows = _sorted_by_object(records)
    step = np.diff(rows[:, 1])
    at = np.flatnonzero((rows[1:, 0] == rows[:-1, 0]) & (step > 1)
                        & (step <= max_gap))
    fill = []
    for p, r, den in zip(rows[at].tolist(), rows[at + 1].tolist(),
                         step[at].tolist()):
        for j in range(1, den):
            fill.append((p[0], p[1] + j,
                         p[2] + _round_to_earlier((r[2] - p[2]) * j, den),
                         p[3] + _round_to_earlier((r[3] - p[3]) * j, den)))
    # each gap's fills go in before the report that ends it
    return np.insert(rows, np.repeat(at + 1, step[at] - 1), as_rows(fill),
                     axis=0)


def normalize(records, config: NormalizeConfig = NormalizeConfig()) -> np.ndarray:
    """Sort, bound-check, speed-filter and gap-fill raw reports."""
    rows = _sorted_by_object(records)
    if config.extent is not None:
        w, h = config.extent
        off = ((rows[:, 2:] < 0) | (rows[:, 2:] >= (w, h))).any(axis=1)
        if off.any():
            raise ValueError(
                f"record {tuple(rows[off][0].tolist())} outside {w}x{h} grid")
    return interpolate_gaps(speed_filter(rows, config.max_speed),
                            config.max_gap)
