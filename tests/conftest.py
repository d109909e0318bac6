import sys
import zlib
from pathlib import Path

import pytest
from hypothesis import settings

from trajindex.mbrtree import Mbr
from trajindex.succinct import Reader, Writer

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


def round_trip(obj, *args):
    """Write obj, read it back with `type(obj).read(reader, *args)`, check
    that every byte was read and that writing the copy gives the same
    bytes; return the copy."""
    w = Writer()
    obj.write(w)
    blob = bytes(w)
    r = Reader(blob)
    back = type(obj).read(r, *args)
    r.end()
    again = Writer()
    back.write(again)
    assert again == blob
    return back


def restamp(blob) -> bytes:
    """blob with its header CRC recomputed, so an edit to the body reaches
    the parser instead of failing the checksum."""
    blob = bytes(blob)
    crc = zlib.crc32(blob[10:], zlib.crc32(blob[:6]))
    return blob[:6] + crc.to_bytes(4, "little") + blob[10:]


def pulled_in(box: Mbr):
    """box with each edge in turn pulled in by one cell, where it can be."""
    if box.xmin < box.xmax:
        yield Mbr(box.xmin + 1, box.xmax, box.ymin, box.ymax)
        yield Mbr(box.xmin, box.xmax - 1, box.ymin, box.ymax)
    if box.ymin < box.ymax:
        yield Mbr(box.xmin, box.xmax, box.ymin + 1, box.ymax)
        yield Mbr(box.xmin, box.xmax, box.ymin, box.ymax - 1)
