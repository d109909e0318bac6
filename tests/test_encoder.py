"""The fleet-wide encoder against the per-log encoder it replaced.

Every build must write the bytes `reference_encoder` writes one log at a
time, and reject what that rejects.  The hypothesis tests take their
example count from the profile: `--hypothesis-profile=ci` runs more.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_encoder import reference_blob, write_log, write_tree
from trajindex.engine import TrajectoryIndex, build_index
from trajindex.log import build_log
from trajindex.mbrtree import build_mbr_tree_xy
from trajindex.succinct import U32_MAX, Writer

PERIODS = (2, 3, 5, 17, 120)
MOTIONS = ("walk", "still", "rising", "falling")


@st.composite
def fleets(draw):
    """(rows, period, leaf capacity, extent): up to four objects, each
    from its own first instant (an entrant unless it falls on a period
    start) to its own last, moving in one of MOTIONS, with drops; on a
    third of the grids the coordinates sit near 2**32 - 1, where a walk's
    moves mostly sum past a u32 and the build must be rejected."""
    period = draw(st.sampled_from(PERIODS))
    horizon = draw(st.integers(1, min(3 * period + 2, 260)))
    near_top = draw(st.sampled_from((False, False, True)))
    side = U32_MAX if near_top else draw(st.integers(2, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for oid in range(1, draw(st.integers(1, 4)) + 1):
        # no gaps, a few, or so many that the gap map's low width falls
        # to 1 or 0
        drop = draw(st.sampled_from((0.0, 0.03, 0.4, 0.8)))
        a = draw(st.just(0) | st.integers(0, horizon - 1))
        b = draw(st.just(horizon - 1) | st.integers(a, horizon - 1))
        ts = np.arange(a, b + 1)
        ts = ts[(rng.random(len(ts)) >= drop) | (ts == a)]
        motion = draw(st.sampled_from(MOTIONS))
        track = []
        for _ in range(2):
            steps = rng.integers(-3, 4, size=len(ts))
            if motion == "still":
                steps[:] = 0
            elif motion == "rising":
                steps = np.abs(steps)
            elif motion == "falling":
                steps = -np.abs(steps)
            walk = np.cumsum(steps) - steps[0]
            lo, hi = -walk.min(), side - 1 - walk.max()
            # a start near the grid's far edge when near_top
            start = hi if near_top or hi <= lo else rng.integers(lo, hi + 1)
            track.append(np.clip(start + walk, 0, side - 1))
        rows += [(oid, int(t), int(x), int(y)) for t, x, y in zip(ts, *track)]
    leaf = draw(st.integers(1, 9) | st.just(max(len(rows), 1) + period))
    return rows, period, leaf, (side, side)


class TestSameBytesAsThePerLogEncoder:
    @given(fleets())
    @settings(deadline=None)
    def test_builds_write_the_reference_bytes(self, case):
        rows, period, leaf, extent = case
        try:
            want = reference_blob(rows, period, leaf, extent)
        except ValueError:
            with pytest.raises(ValueError):
                build_index(rows, period, leaf, extent)
            return
        assert build_index(rows, period, leaf, extent).to_bytes() == want
        assert TrajectoryIndex.from_bytes(want).to_bytes() == want

    @given(fleets())
    @settings(deadline=None)
    def test_standalone_logs_and_trees_write_the_reference_bytes(self, case):
        rows, period, leaf, _ = case
        for oid in {r[0] for r in rows}:
            track = np.array([r[1:] for r in rows if r[0] == oid])
            ks = track[:, 0] - track[:, 0] % period
            log = track[ks == ks[-1]]
            k = int(ks[-1])
            log = log[log[:, 0] > k]
            if not len(log):
                continue
            want, got = Writer(), Writer()
            try:
                write_log(want, log, k, period)
            except ValueError:
                continue  # no file holds a sum past a u32
            build_log(log, k, period).write(got)
            assert got == want
            want, got = Writer(), Writer()
            write_tree(want, log[:, 1], log[:, 2], leaf)
            build_mbr_tree_xy(log[:, 1], log[:, 2], leaf).write(got)
            assert got == want


class TestEdges:
    @pytest.mark.parametrize("period", PERIODS)
    def test_one_sample_logs_at_every_instant(self, period):
        # one object per (period, local instant j): a fix at the period
        # start and one at j, so every log holds the one sample at j
        rows = []
        for k in range(0, 3 * period, period):
            for j in range(1, period):
                oid = k + j
                rows += [(oid, k, j % 7, 0), (oid, k + j, 7 - j % 7, j % 5)]
        assert build_index(rows, period, 3, (8, 8)).to_bytes() == \
            reference_blob(rows, period, 3, (8, 8))
