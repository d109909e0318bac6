import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajindex.ingest import (
    NormalizeConfig,
    RawRecord,
    Records,
    interpolate_gaps,
    normalize,
    parse_binary,
    parse_csv,
    speed_filter,
    write_binary,
    write_csv,
)


class TestCsv:
    def test_parse(self):
        rows = parse_csv(["1,0,10,20", "", "  2,5,15,25  "])
        assert rows == [RawRecord(1, 0, 10, 20), RawRecord(2, 5, 15, 25)]

    def test_errors_carry_line_numbers(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_csv(["1,2,3,4", "1,2,3"])
        with pytest.raises(ValueError, match="line 1"):
            parse_csv(["1,2,3,x"])
        with pytest.raises(ValueError, match="line 1"):
            parse_csv(["1,2,-3,4"])

    def test_round_trip(self):
        rows = [RawRecord(1, 0, 10, 20), RawRecord(2, 5, 0, 16_000_000)]
        buf = io.StringIO()
        write_csv(rows, buf)
        assert parse_csv(buf.getvalue().splitlines()) == rows


class TestBinary:
    def test_nine_byte_records(self):
        rows = [RawRecord(65535, 65535, 65535, (1 << 24) - 1),
                RawRecord(0, 0, 0, 0),
                RawRecord(258, 772, 1286, 0x030201)]
        blob = write_binary(rows)
        assert len(blob) == 27
        assert blob[18:] == bytes([2, 1, 4, 3, 6, 5, 1, 2, 3])
        assert parse_binary(blob) == rows

    def test_empty_input(self):
        assert parse_binary(b"") == []

    def test_seeded_round_trip_with_wide_y(self):
        rng = np.random.default_rng(29)
        cols = [rng.integers(0, 1 << 16, size=1000) for _ in range(3)]
        cols.append(rng.integers(1 << 16, 1 << 24, size=1000))
        rows = [RawRecord(*r) for r in zip(*(c.tolist() for c in cols))]
        assert parse_binary(write_binary(rows)) == rows

    def test_fields_are_plain_ints(self):
        rows = parse_binary(write_binary([RawRecord(3, 4, 5, 1 << 20)]))
        assert [type(v) for v in rows[0]] == [int] * 4
        assert isinstance(rows[0], RawRecord)

    def test_rejects_partial_record(self):
        with pytest.raises(ValueError):
            parse_binary(b"\x00" * 10)

    @pytest.mark.parametrize("field, record", [
        ("id", RawRecord(70000, 0, 0, 0)), ("id", RawRecord(-1, 0, 0, 0)),
        ("instant", RawRecord(0, 1 << 16, 0, 0)),
        ("x", RawRecord(0, 0, 1 << 16, 0)), ("x", RawRecord(0, 0, -1, 0)),
        ("y", RawRecord(1, 1, 1, 1 << 24)), ("y", RawRecord(1, 1, 1, -1))])
    def test_rejects_a_field_out_of_range(self, field, record):
        with pytest.raises(ValueError, match=f"^{field}="):
            write_binary([RawRecord(1, 2, 3, 4), record])

    @given(st.lists(st.tuples(st.integers(0, 65535), st.integers(0, 65535),
                              st.integers(0, 65535),
                              st.integers(0, (1 << 24) - 1)), max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, tuples):
        rows = [RawRecord(*t) for t in tuples]
        assert parse_binary(write_binary(rows)) == rows


class TestRecords:
    ROWS = [RawRecord(i, 2 * i, 3 * i, 1 << 20 | i) for i in range(5)]

    def test_indexing_and_slicing_follow_the_list(self):
        records = parse_binary(write_binary(self.ROWS))
        assert records[-1] == self.ROWS[-1] and records[-5] == self.ROWS[0]
        for part in (slice(1, 4), slice(None, None, -2), slice(-2, None),
                     slice(3, 1)):
            assert isinstance(records[part], Records)
            assert records[part] == self.ROWS[part]
        for i in (5, -6):
            with pytest.raises(IndexError):
                records[i]
        assert records != self.ROWS[:4] and records != tuple(self.ROWS)

    def test_numpy_takes_the_columns_whole(self):
        records = parse_binary(write_binary(self.ROWS))
        cols = np.asarray(records)
        assert cols.dtype == np.int64 and np.array_equal(cols, self.ROWS)
        assert np.shares_memory(np.asarray(records), cols)
        assert not cols.flags.writeable
        copied = np.array(records)
        assert copied.flags.writeable and not np.shares_memory(copied, cols)
        assert np.asarray(records, dtype=np.uint32).dtype == np.uint32
        with pytest.raises(ValueError):
            np.array(records, dtype=np.uint32, copy=False)


class TestSpeedFilter:
    def test_drops_impossible_jumps(self):
        rows = [RawRecord(1, 0, 100, 100), RawRecord(1, 1, 300, 100),
                RawRecord(1, 2, 104, 101)]
        assert speed_filter(rows, 55) == [rows[0], rows[2]]

    def test_judged_against_last_survivor(self):
        # the bad fix is dropped, and the next one is measured from t=0
        rows = [RawRecord(1, 0, 0, 0), RawRecord(1, 1, 500, 0),
                RawRecord(1, 2, 490, 0)]
        kept = speed_filter(rows, 55)
        assert kept == [rows[0]]  # 490 over 2 instants still exceeds 55/instant
        rows2 = [RawRecord(1, 0, 0, 0), RawRecord(1, 1, 500, 0),
                 RawRecord(1, 2, 80, 0)]
        assert speed_filter(rows2, 55) == [rows2[0], rows2[2]]

    def test_gap_widens_the_allowance(self):
        rows = [RawRecord(1, 0, 0, 0), RawRecord(1, 10, 500, 0)]
        assert speed_filter(rows, 55) == rows

    def test_per_object_independence(self):
        rows = [RawRecord(1, 0, 0, 0), RawRecord(2, 0, 900, 900),
                RawRecord(1, 1, 10, 0), RawRecord(2, 1, 905, 900)]
        assert len(speed_filter(rows, 55)) == 4

    def test_y_axis_checked_too(self):
        rows = [RawRecord(1, 0, 0, 0), RawRecord(1, 1, 0, 100)]
        assert speed_filter(rows, 55) == [rows[0]]


class TestInterpolation:
    def test_fills_linear_thirds(self):
        got = interpolate_gaps([RawRecord(4, 0, 0, 10), RawRecord(4, 3, 9, 13)], 15)
        assert got == [RawRecord(4, 0, 0, 10), RawRecord(4, 1, 3, 11),
                       RawRecord(4, 2, 6, 12), RawRecord(4, 3, 9, 13)]

    def test_half_steps_round_toward_earlier_fix(self):
        up = interpolate_gaps([RawRecord(1, 0, 0, 0), RawRecord(1, 2, 5, 0)], 15)
        assert up[1] == RawRecord(1, 1, 2, 0)
        down = interpolate_gaps([RawRecord(1, 0, 10, 0), RawRecord(1, 2, 5, 0)], 15)
        assert down[1] == RawRecord(1, 1, 8, 0)

    def test_gap_of_max_gap_not_filled(self):
        rows = [RawRecord(1, 0, 0, 0), RawRecord(1, 16, 15, 0)]
        assert interpolate_gaps(rows, 15) == rows
        just_under = interpolate_gaps(
            [RawRecord(1, 0, 0, 0), RawRecord(1, 15, 14, 0)], 15)
        assert len(just_under) == 16

    def test_no_gap_no_change(self):
        rows = [RawRecord(1, 0, 0, 0), RawRecord(1, 1, 1, 1)]
        assert interpolate_gaps(rows, 15) == rows

    @given(st.integers(0, 500), st.integers(0, 500), st.integers(2, 14),
           st.integers(0, 500), st.integers(0, 500))
    @settings(max_examples=60, deadline=None)
    def test_filled_points_stay_between_endpoints(self, x0, y0, gap, x1, y1):
        rows = [RawRecord(1, 0, x0, y0), RawRecord(1, gap + 1, x1, y1)]
        got = interpolate_gaps(rows, 15)
        assert len(got) == gap + 2
        assert [r.instant for r in got] == list(range(gap + 2))
        for r in got:
            assert min(x0, x1) <= r.x <= max(x0, x1)
            assert min(y0, y1) <= r.y <= max(y0, y1)


class TestNormalize:
    def test_pipeline_sorts_filters_fills(self):
        rows = [RawRecord(2, 1, 50, 50), RawRecord(1, 0, 0, 0),
                RawRecord(1, 3, 6, 6), RawRecord(2, 0, 48, 48),
                RawRecord(2, 2, 900, 900)]
        out = normalize(rows, NormalizeConfig(extent=(1000, 1000)))
        assert out == [RawRecord(1, 0, 0, 0), RawRecord(1, 1, 2, 2),
                       RawRecord(1, 2, 4, 4), RawRecord(1, 3, 6, 6),
                       RawRecord(2, 0, 48, 48), RawRecord(2, 1, 50, 50)]

    def test_rejects_duplicates_and_stray_points(self):
        with pytest.raises(ValueError):
            normalize([RawRecord(1, 0, 5, 5), RawRecord(1, 0, 6, 6)])
        with pytest.raises(ValueError):
            normalize([RawRecord(1, 0, 5, 5)], NormalizeConfig(extent=(5, 9)))

    def test_interpolated_output_respects_speed_bound(self):
        rows = [RawRecord(1, 0, 0, 0), RawRecord(1, 9, 400, 12),
                RawRecord(1, 11, 420, 14)]
        out = normalize(rows, NormalizeConfig(max_speed=55, max_gap=15))
        for a, b in zip(out, out[1:]):
            dt = b.instant - a.instant
            assert abs(b.x - a.x) <= 55 * dt
            assert abs(b.y - a.y) <= 55 * dt
