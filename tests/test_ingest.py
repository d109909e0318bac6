import io
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trajindex.ingest import (
    NormalizeConfig,
    as_rows,
    interpolate_gaps,
    normalize,
    parse_binary,
    parse_csv,
    speed_filter,
    write_binary,
    write_csv,
)

FIXES = st.tuples(st.integers(0, 65535), st.integers(0, 65535),
                  st.integers(0, 65535), st.integers(0, (1 << 24) - 1))


def _csv_lines(rows):
    buf = io.StringIO()
    write_csv(rows, buf)
    return buf.getvalue().splitlines()


class TestCsv:
    def test_parse(self):
        rows = parse_csv(["1,0,10,20", "", "  2,5,15,25  "])
        assert rows.tolist() == [[1, 0, 10, 20], [2, 5, 15, 25]]

    def test_no_lines_are_no_rows(self):
        rows = parse_csv([])
        assert rows.shape == (0, 4) and rows.dtype == np.int64

    def test_errors_carry_line_numbers(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_csv(["1,2,3,4", "1,2,3"])
        with pytest.raises(ValueError, match="line 1"):
            parse_csv(["1,2,3,x"])
        with pytest.raises(ValueError, match="line 1"):
            parse_csv(["1,2,-3,4"])

    @pytest.mark.parametrize("line", ["9223372036854775808,1,1,1",
                                      "1,1,1,18446744073709551616"])
    def test_values_past_64_bits_carry_line_numbers(self, line):
        parse_csv([f"1,1,1,{(1 << 63) - 1}"])
        with pytest.raises(ValueError, match="line 2: .*64-bit integers"):
            parse_csv(["1,2,3,4", line])

    def test_round_trip(self):
        rows = [(1, 0, 10, 20), (2, 5, 0, 16_000_000)]
        buf = io.StringIO()
        write_csv(rows, buf)
        assert buf.getvalue() == "1,0,10,20\n2,5,0,16000000\n"
        assert parse_csv(buf.getvalue().splitlines()).tolist() == \
            [list(r) for r in rows]

    @given(st.lists(FIXES, max_size=30))
    @example([])
    @settings(max_examples=50, deadline=None)
    def test_hypothesis_round_trip(self, tuples):
        rows = parse_csv(_csv_lines(tuples))
        assert rows.shape == (len(tuples), 4)
        assert [tuple(r) for r in rows.tolist()] == tuples


class TestBinary:
    def test_nine_byte_records(self):
        rows = [(65535, 65535, 65535, (1 << 24) - 1), (0, 0, 0, 0),
                (258, 772, 1286, 0x030201)]
        blob = write_binary(rows)
        assert len(blob) == 27
        assert blob[18:] == bytes([2, 1, 4, 3, 6, 5, 1, 2, 3])
        assert [tuple(r) for r in parse_binary(blob).tolist()] == rows

    def test_empty_input(self):
        rows = parse_binary(b"")
        assert rows.shape == (0, 4) and rows.dtype == np.int64
        assert write_binary([]) == b""

    def test_seeded_round_trip_with_wide_y(self):
        rng = np.random.default_rng(29)
        cols = [rng.integers(0, 1 << 16, size=1000) for _ in range(3)]
        cols.append(rng.integers(1 << 16, 1 << 24, size=1000))
        rows = np.column_stack(cols)
        assert np.array_equal(parse_binary(write_binary(rows)), rows)

    def test_result_is_read_only_int64(self):
        rows = parse_binary(write_binary([(3, 4, 5, 1 << 20)]))
        assert rows.dtype == np.int64 and rows.tolist() == [[3, 4, 5, 1 << 20]]
        assert not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[0, 0] = 9

    def test_rejects_partial_record(self):
        with pytest.raises(ValueError):
            parse_binary(b"\x00" * 10)

    @pytest.mark.parametrize("field, record", [
        ("id", (70000, 0, 0, 0)), ("id", (-1, 0, 0, 0)),
        ("instant", (0, 1 << 16, 0, 0)),
        ("x", (0, 0, 1 << 16, 0)), ("x", (0, 0, -1, 0)),
        ("y", (1, 1, 1, 1 << 24)), ("y", (1, 1, 1, -1))])
    def test_rejects_a_field_out_of_range(self, field, record):
        value = record[("id", "instant", "x", "y").index(field)]
        size = 3 if field == "y" else 2
        with pytest.raises(ValueError,
                           match=f"^{field}={value} does not fit in {size} bytes"):
            write_binary([(1, 2, 3, 4), record])

    def test_rejects_a_float_row(self):
        with pytest.raises(ValueError, match="64-bit integers"):
            write_binary([(1, 2, 3, 4), (1, 2.5, 3, 4)])

    @given(st.lists(FIXES, max_size=30))
    @example([])
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, tuples):
        rows = parse_binary(write_binary(tuples))
        assert rows.shape == (len(tuples), 4)
        assert [tuple(r) for r in rows.tolist()] == tuples


class TestRows:
    ROWS = [(2, 1, 50, 50), (1, 0, 0, 0), (1, 3, 6, 6), (2, 0, 48, 48),
            (3, 2, 900, 1 << 20)]

    @pytest.mark.parametrize("function", [
        as_rows, normalize,
        lambda rows: parse_binary(write_binary(rows)),
        lambda rows: parse_csv(_csv_lines(rows)),
        lambda rows: speed_filter(rows, 55),
        lambda rows: interpolate_gaps(rows, 15),
    ], ids=["as_rows", "normalize", "binary", "csv", "speed_filter",
            "interpolate_gaps"])
    def test_tuples_generators_and_arrays_give_one_array(self, function):
        got = [function(rows) for rows in (
            list(self.ROWS), (r for r in self.ROWS), np.array(self.ROWS))]
        for rows in got:
            assert isinstance(rows, np.ndarray)
            assert rows.dtype == np.int64 and rows.ndim == 2
            assert rows.shape[1] == 4
            assert np.array_equal(rows, got[0])

    def test_unsigned_rows_within_64_bits_are_kept(self):
        rows = as_rows(np.full((2, 4), (1 << 63) - 1, dtype=np.uint64))
        assert rows.dtype == np.int64 and (rows == (1 << 63) - 1).all()


class TestSpeedFilter:
    def test_drops_impossible_jumps(self):
        rows = [(1, 0, 100, 100), (1, 1, 300, 100), (1, 2, 104, 101)]
        assert speed_filter(rows, 55).tolist() == [[1, 0, 100, 100],
                                                   [1, 2, 104, 101]]

    def test_judged_against_last_survivor(self):
        # the bad fix is dropped, and the next one is measured from t=0
        rows = [(1, 0, 0, 0), (1, 1, 500, 0), (1, 2, 490, 0)]
        # 490 over 2 instants still exceeds 55/instant
        assert speed_filter(rows, 55).tolist() == [[1, 0, 0, 0]]
        rows2 = [(1, 0, 0, 0), (1, 1, 500, 0), (1, 2, 80, 0)]
        assert speed_filter(rows2, 55).tolist() == [[1, 0, 0, 0], [1, 2, 80, 0]]

    def test_gap_widens_the_allowance(self):
        rows = [(1, 0, 0, 0), (1, 10, 500, 0)]
        assert speed_filter(rows, 55).tolist() == [list(r) for r in rows]

    def test_per_object_independence(self):
        rows = [(1, 0, 0, 0), (2, 0, 900, 900), (1, 1, 10, 0), (2, 1, 905, 900)]
        assert len(speed_filter(rows, 55)) == 4

    def test_y_axis_checked_too(self):
        rows = [(1, 0, 0, 0), (1, 1, 0, 100)]
        assert speed_filter(rows, 55).tolist() == [[1, 0, 0, 0]]

    def test_no_rows(self):
        assert speed_filter([], 55).shape == (0, 4)


class TestInterpolation:
    def test_fills_linear_thirds(self):
        got = interpolate_gaps([(4, 0, 0, 10), (4, 3, 9, 13)], 15)
        assert got.tolist() == [[4, 0, 0, 10], [4, 1, 3, 11],
                                [4, 2, 6, 12], [4, 3, 9, 13]]

    def test_half_steps_round_toward_earlier_fix(self):
        up = interpolate_gaps([(1, 0, 0, 0), (1, 2, 5, 0)], 15)
        assert up[1].tolist() == [1, 1, 2, 0]
        down = interpolate_gaps([(1, 0, 10, 0), (1, 2, 5, 0)], 15)
        assert down[1].tolist() == [1, 1, 8, 0]

    def test_gap_of_max_gap_not_filled(self):
        rows = [(1, 0, 0, 0), (1, 16, 15, 0)]
        assert interpolate_gaps(rows, 15).tolist() == [list(r) for r in rows]
        just_under = interpolate_gaps([(1, 0, 0, 0), (1, 15, 14, 0)], 15)
        assert len(just_under) == 16

    def test_no_gap_no_change(self):
        rows = [(1, 0, 0, 0), (1, 1, 1, 1)]
        assert interpolate_gaps(rows, 15).tolist() == [list(r) for r in rows]

    def test_no_rows(self):
        assert interpolate_gaps([], 15).shape == (0, 4)

    @given(st.integers(0, 500), st.integers(0, 500), st.integers(2, 14),
           st.integers(0, 500), st.integers(0, 500))
    @settings(max_examples=60, deadline=None)
    def test_filled_points_stay_between_endpoints(self, x0, y0, gap, x1, y1):
        got = interpolate_gaps([(1, 0, x0, y0), (1, gap + 1, x1, y1)], 15)
        assert len(got) == gap + 2
        assert got[:, 1].tolist() == list(range(gap + 2))
        for _, _, x, y in got.tolist():
            assert min(x0, x1) <= x <= max(x0, x1)
            assert min(y0, y1) <= y <= max(y0, y1)


    @given(st.lists(st.tuples(st.integers(1, 3), st.integers(0, 40),
                              st.integers(-50, 50), st.integers(-50, 50)),
                    max_size=25, unique_by=lambda r: r[:2]))
    @example([])
    @settings(max_examples=60, deadline=None)
    def test_matches_a_report_by_report_fill(self, tuples):
        # each report, after the gap before it is filled from the report
        # before it, in (object, instant) order
        want, p = [], None
        for r in sorted(tuples):
            if p is not None and p[0] == r[0] and 1 < r[1] - p[1] <= 6:
                den = r[1] - p[1]
                want += [(r[0], p[1] + j,
                          p[2] + round_half_down(r[2] - p[2], j, den),
                          p[3] + round_half_down(r[3] - p[3], j, den))
                         for j in range(1, den)]
            want.append(r)
            p = r
        assert [tuple(r) for r in interpolate_gaps(tuples, 6).tolist()] == want


def round_half_down(diff, j, den):
    """diff * j / den to the nearest integer, halves toward zero."""
    exact = Fraction(diff * j, den)
    near = round(exact)
    if abs(exact - int(exact)) == Fraction(1, 2):
        near = int(exact)  # int() truncates toward zero
    return near


class TestNormalize:
    def test_pipeline_sorts_filters_fills(self):
        rows = [(2, 1, 50, 50), (1, 0, 0, 0), (1, 3, 6, 6), (2, 0, 48, 48),
                (2, 2, 900, 900)]
        out = normalize(rows, NormalizeConfig(extent=(1000, 1000)))
        assert out.tolist() == [[1, 0, 0, 0], [1, 1, 2, 2], [1, 2, 4, 4],
                                [1, 3, 6, 6], [2, 0, 48, 48], [2, 1, 50, 50]]

    def test_rejects_duplicates_and_stray_points(self):
        with pytest.raises(ValueError, match="object 1 reported twice at "
                                             "instant 0"):
            normalize([(1, 0, 5, 5), (1, 0, 6, 6)])
        with pytest.raises(ValueError, match=r"record \(1, 1, 5, 5\) outside "
                                             "5x9 grid"):
            normalize([(1, 0, 4, 4), (1, 1, 5, 5)],
                      NormalizeConfig(extent=(5, 9)))

    def test_interpolated_output_respects_speed_bound(self):
        rows = [(1, 0, 0, 0), (1, 9, 400, 12), (1, 11, 420, 14)]
        out = normalize(rows, NormalizeConfig(max_speed=55, max_gap=15))
        for a, b in zip(out.tolist(), out.tolist()[1:]):
            dt = b[1] - a[1]
            assert abs(b[2] - a[2]) <= 55 * dt
            assert abs(b[3] - a[3]) <= 55 * dt
