import sys
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from trajindex.engine import TrajectoryIndex
from trajindex.log import FILE_FIELDS, TREE
from trajindex.snapshot import Region
from trajindex.succinct import Writer

sys.path.insert(0, str(Path(__file__).parent))

# `--hypothesis-profile=ci` runs five times the default examples in the
# tests that leave their count to the profile, the encoder-equality ones
# among them; tests that set their own count keep it
settings.register_profile("ci", max_examples=500)

# acceptance tests append their verdict lines here; the summary hook prints
# them after the run, outside pytest's output capture
ACCEPTANCE_VERDICTS: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)

# one object wandering inside a single 13-instant period, with a two-instant
# dropout; small enough to verify by hand, rich enough to exercise gaps,
# negative steps and entrant handling
REF_TRACK = [(2, 2, 4), (3, 3, 6), (4, 5, 7), (5, 3, 5),
             (8, 10, 8), (9, 9, 10), (10, 8, 9)]
REF_OBJECT = 7
REF_PERIOD = 13


@pytest.fixture
def ref_track():
    return list(REF_TRACK)


@pytest.fixture
def ref_rows():
    return [(REF_OBJECT, t, x, y) for t, x, y in REF_TRACK]


def _words(words) -> bytes:
    w = Writer()
    w.words(words)
    return bytes(w)


def bit(pool, base: int, i: int) -> int:
    """Bit i, from 1, of the bitmap that starts at word base of a pool."""
    p = (base << 6) + i - 1
    return pool.words[p >> 6] >> (p & 63) & 1


def stored_log(log):
    """A standalone log's u32 fields, in file order, and the words its
    pieces take in the bit pool and in the word pool, as an index file
    holds them (its tree's fields and words left out)."""
    f = log._f
    return ([f[c] for c in FILE_FIELDS[:9]], _words(log._bits.words),
            _words(log._words[:f[TREE]]))


def stored_tree(tree):
    """A standalone tree's u32 fields, in file order, and the words its
    diffs take in the word pool."""
    root = tree.root
    return ([tree.width, root.xmin, root.xmax, root.ymin, root.ymax],
            _words(tree._words[tree._xbase:]))


def restamp(blob) -> bytes:
    """blob with its header CRC recomputed, so an edit to the body reaches
    the parser instead of failing the checksum."""
    blob = bytes(blob)
    crc = zlib.crc32(blob[10:], zlib.crc32(blob[:6]))
    return blob[:6] + crc.to_bytes(4, "little") + blob[10:]


def stored_fields(blob):
    """The stored log fields of an index file: the offset of their width
    bytes, the offset where their table ends and the pools begin, each
    column's width as its width byte gives it, and the table as int64
    rows, a column per stored field in `FILE_FIELDS` order."""
    ix = TrajectoryIndex.from_bytes(blob)
    logs = len(ix._records) // ix._record.size
    end = len(blob) - 8 * (len(ix._bits.words) + len(ix._words))
    row = sum(ix._dtype[str(c)].itemsize for c in FILE_FIELDS)
    at = end - logs * row - len(FILE_FIELDS)
    widths = list(blob[at:at + len(FILE_FIELDS)])
    dtype = np.dtype([(str(c), f"<u{w}") for c, w in zip(FILE_FIELDS, widths)])
    assert dtype.itemsize == row
    table = np.frombuffer(blob, dtype, logs, at + len(FILE_FIELDS))
    return at, end, widths, np.array(table.tolist(), dtype=np.int64).reshape(
        logs, len(FILE_FIELDS))


def with_fields(blob, table, widths=None) -> bytes:
    """blob, restamped, with table as its stored log fields (see
    `stored_fields`), each column at its width in widths, by default the
    narrowest of 1, 2 or 4 bytes that holds the column's largest value,
    as an index writes it."""
    at, end, _, _ = stored_fields(blob)
    if widths is None:
        widths = [1 if top < 1 << 8 else 2 if top < 1 << 16 else 4
                  for top in table.max(axis=0, initial=0).tolist()]
    rows = b"".join(value.to_bytes(width, "little")
                    for row in table.tolist() for value, width in zip(row, widths))
    return restamp(blob[:at] + bytes(widths) + rows + blob[end:])


def with_field(blob, row, column, value) -> bytes:
    """blob, restamped, with record field column of log row set to value,
    and its table rewritten at the widths its values need: a value too
    large for its column's width widens the column."""
    table = stored_fields(blob)[3]
    table[row, FILE_FIELDS.index(column)] = value
    return with_fields(blob, table)


def pulled_in(box: Region):
    """box with each edge in turn pulled in by one cell, where it can be."""
    if box.x1 < box.x2:
        yield Region(box.x1 + 1, box.x2, box.y1, box.y2)
        yield Region(box.x1, box.x2 - 1, box.y1, box.y2)
    if box.y1 < box.y2:
        yield Region(box.x1, box.x2, box.y1 + 1, box.y2)
        yield Region(box.x1, box.x2, box.y1, box.y2 - 1)
