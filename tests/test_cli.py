import subprocess
import sys

import pytest

import trajindex.engine
from conftest import REF_OBJECT, REF_TRACK, restamp
from synth import make_fleet
from trajindex.cli import main
from trajindex.engine import TrajectoryIndex, build_index
from trajindex.ingest import write_binary


@pytest.fixture
def fixture_csv(tmp_path, ref_rows):
    extra = [(3, 0, 1, 1), (3, 1, 1, 2), (3, 13, 2, 2)]
    path = tmp_path / "fix.csv"
    with open(path, "w") as fh:
        for row in sorted(ref_rows + extra, key=lambda r: (r[0], r[1])):
            fh.write(",".join(map(str, row)) + "\n")
    return path


@pytest.fixture
def built_index(tmp_path, fixture_csv):
    out = tmp_path / "fix.idx"
    rc = main(["build", "--input", str(fixture_csv), "--period", "13",
               "--leaf-size", "2", "--output", str(out)])
    assert rc == 0
    return out


class TestBuild:
    def test_breakdown_output(self, capsys, built_index):
        text = capsys.readouterr().out
        assert "samples: 10" in text
        assert "snapshots:" in text and "logs:" in text and "trees:" in text
        assert "ratio:" in text
        assert built_index.exists()
        # in-memory bytes per component, from the sizes of the pools
        live = {line.split(": ")[0][len("in memory, "):]:
                int(line.split(": ")[1].split()[0])
                for line in text.splitlines() if line.startswith("in memory, ")}
        ix = TrajectoryIndex.load(built_index)
        assert {k: v for k, v in live.items() if k != "total"} == ix.memory()
        assert list(live) == ["snapshots", "bit pool", "directories",
                              "word pool", "log records", "row table", "total"]
        assert live["total"] == sum(ix.memory().values())
        assert min(live.values()) > 0

    def test_binary_input(self, tmp_path, ref_rows, capsys):
        path = tmp_path / "fix.bin"
        path.write_bytes(write_binary(ref_rows))
        out = tmp_path / "fix.idx"
        rc = main(["build", "--input", str(path), "--format", "bin",
                   "--period", "13", "--leaf-size", "2",
                   "--output", str(out)])
        assert rc == 0
        ix = TrajectoryIndex.load(out)
        assert ix.object_position(REF_OBJECT, 9) == (9, 10)

    def test_binary_input_out_of_order_builds_as_sorted(
            self, tmp_path, ref_rows, capsys, built_index):
        built_text = capsys.readouterr().out
        extra = [(3, 0, 1, 1), (3, 1, 1, 2), (3, 13, 2, 2)]
        path = tmp_path / "shuffled.bin"
        path.write_bytes(write_binary(reversed(ref_rows + extra)))
        out = tmp_path / "shuffled.idx"
        rc = main(["build", "--input", str(path), "--format", "bin",
                   "--period", "13", "--leaf-size", "2",
                   "--output", str(out)])
        assert rc == 0
        assert capsys.readouterr().out == built_text
        assert out.read_bytes() == built_index.read_bytes()

    def test_normalize_flag_fills_gaps(self, tmp_path, capsys):
        path = tmp_path / "gappy.csv"
        path.write_text("1,0,0,0\n1,3,9,12\n")
        out = tmp_path / "gappy.idx"
        rc = main(["build", "--input", str(path), "--normalize",
                   "--period", "4", "--output", str(out)])
        assert rc == 0
        ix = TrajectoryIndex.load(out)
        assert ix.object_position(1, 1) == (3, 4)
        assert ix.object_position(1, 2) == (6, 8)

    def test_bad_input_is_a_data_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,3\n")
        rc = main(["build", "--input", str(path),
                   "--output", str(tmp_path / "x.idx")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("line, field", [
        ("4294967296,1,1,1", "object id 4294967296"),
        ("1,4294967296,1,1", "instant 4294967296"),
        ("1,1,4294967296,1", "width 4294967297"),
        ("18446744073709551616,1,1,1", "64-bit integers"),
    ])
    def test_values_past_u32_are_data_errors(self, tmp_path, capsys, line,
                                             field):
        path = tmp_path / "wide.csv"
        path.write_text(f"{line}\n")
        out = tmp_path / "wide.idx"
        rc = main(["build", "--input", str(path), "--output", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err
        assert not out.exists()

    def test_missing_flag_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["build", "--input", str(tmp_path / "x.csv")])
        assert exc.value.code == 1


class TestQuery:
    def test_object_at_instant(self, capsys, built_index):
        capsys.readouterr()
        rc = main(["query", str(built_index), "--object", str(REF_OBJECT),
                   "--from", "9"])
        assert rc == 0
        assert capsys.readouterr().out == "x=9 y=10\n"

    def test_object_with_no_fix_prints_nothing(self, capsys, built_index):
        capsys.readouterr()
        rc = main(["query", str(built_index), "--object", str(REF_OBJECT),
                   "--from", "6"])
        assert rc == 0
        assert capsys.readouterr().out == ""

    def test_trajectory(self, capsys, built_index):
        capsys.readouterr()
        rc = main(["query", str(built_index), "--object", str(REF_OBJECT),
                   "--from", "2", "--to", "5"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [f"t={t} x={x} y={y}" for t, x, y in REF_TRACK[:4]]

    def test_slice_sorted_by_id(self, capsys, built_index):
        capsys.readouterr()
        rc = main(["query", str(built_index), "--region", "0,15,0,15",
                   "--from", "13"])
        assert rc == 0
        assert capsys.readouterr().out == "id=3 x=2 y=2\n"

    def test_interval(self, capsys, built_index):
        capsys.readouterr()
        rc = main(["query", str(built_index), "--region", "4,5,4,10",
                   "--from", "3", "--to", "5"])
        assert rc == 0
        assert capsys.readouterr().out == f"id={REF_OBJECT}\n"

    def test_empty_result_exits_zero(self, capsys, built_index):
        capsys.readouterr()
        rc = main(["query", str(built_index), "--region", "4,5,4,10",
                   "--from", "6", "--to", "7"])
        assert rc == 0
        assert capsys.readouterr().out == ""

    def test_region_off_the_grid_exits_zero(self, capsys, built_index):
        # past the grid's right edge, so nothing is ever inside it
        for to in ([], ["--to", "5"]):
            capsys.readouterr()
            rc = main(["query", str(built_index), "--region", "50,60,0,3",
                       "--from", "3", *to])
            assert rc == 0
            assert capsys.readouterr().out == ""

    def test_region_past_the_left_edge_clamps(self, capsys, built_index):
        # argparse takes "-5,9,0,9" after a space for a flag, so a
        # negative bound is written after an equals sign
        for to in ([], ["--to", "5"]):
            outs = []
            for region in ("--region=-5,9,0,9", "--region=0,9,0,9"):
                capsys.readouterr()
                rc = main(["query", str(built_index), region, "--from", "4",
                           *to])
                assert rc == 0
                outs.append(capsys.readouterr().out)
            assert outs[0] == outs[1] != ""

    def test_both_selectors_is_usage_error(self, built_index):
        with pytest.raises(SystemExit) as exc:
            main(["query", str(built_index), "--object", "7",
                  "--region", "0,1,0,1", "--from", "0"])
        assert exc.value.code == 1

    def test_unknown_object_is_data_error(self, capsys, built_index):
        rc = main(["query", str(built_index), "--object", "55", "--from", "0"])
        assert rc == 2

    def test_missing_index_is_data_error(self, capsys, tmp_path):
        rc = main(["query", str(tmp_path / "nope.idx"), "--object", "7",
                   "--from", "0"])
        assert rc == 2

    def test_truncated_index_is_data_error(self, capsys, tmp_path,
                                           built_index):
        blob = built_index.read_bytes()
        cut = tmp_path / "cut.idx"
        # 60 bytes keep the header and the ids and end inside the first
        # snapshot
        assert len(blob) > 60
        cut.write_bytes(blob[:60])
        rc = main(["query", str(cut), "--object", str(REF_OBJECT),
                   "--from", "9"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        flipped = bytearray(blob)
        flipped[len(blob) // 2] ^= 0x10
        cut.write_bytes(flipped)
        rc = main(["query", str(cut), "--object", str(REF_OBJECT),
                   "--from", "9"])
        assert rc == 2
        assert "checksum" in capsys.readouterr().err

    def test_ids_out_of_order_is_data_error(self, capsys, tmp_path,
                                            built_index):
        # ids 3 and 7 swapped, the checksum stamped again to match
        blob = built_index.read_bytes()
        ids = (3).to_bytes(4, "little") + (7).to_bytes(4, "little")
        assert blob[42:50] == ids
        bad = tmp_path / "swapped.idx"
        bad.write_bytes(restamp(blob[:42] + ids[4:] + ids[:4] + blob[50:]))
        rc = main(["query", str(bad), "--object", str(REF_OBJECT),
                   "--from", "9"])
        assert rc == 2
        assert "strictly increasing" in capsys.readouterr().err

    def test_version_three_index_is_data_error(self, capsys, tmp_path,
                                               built_index):
        # a version 3 file may hold plain gap bitmaps, which no reader
        # parses now
        blob = built_index.read_bytes()
        old = tmp_path / "v3.idx"
        old.write_bytes(blob[:4] + (3).to_bytes(2, "little") + blob[6:])
        rc = main(["query", str(old), "--object", str(REF_OBJECT),
                   "--from", "9"])
        assert rc == 2
        assert "version 3" in capsys.readouterr().err

    def test_version_four_index_is_data_error(self, capsys, tmp_path,
                                              built_index):
        # a version 4 file stores sign bits and two magnitude streams per
        # axis, which no reader parses now
        blob = built_index.read_bytes()
        old = tmp_path / "v4.idx"
        old.write_bytes(blob[:4] + (4).to_bytes(2, "little") + blob[6:])
        rc = main(["query", str(old), "--object", str(REF_OBJECT),
                   "--from", "9"])
        assert rc == 2
        assert "version 4" in capsys.readouterr().err

    def test_bad_region_is_data_error(self, capsys, built_index):
        rc = main(["query", str(built_index), "--region", "5,4,0,1",
                   "--from", "0"])
        assert rc == 2
        rc = main(["query", str(built_index), "--region", "1,2,3",
                   "--from", "0"])
        assert rc == 2


class TestStats:
    def test_matches_build_output(self, capsys, built_index):
        capsys.readouterr()
        assert main(["stats", str(built_index)]) == 0
        text = capsys.readouterr().out
        assert "total:" in text and "ratio:" in text


class TestOracleCheck:
    def test_random_queries_agree(self, tmp_path, capsys, monkeypatch):
        fleet = make_fleet(8, 200, (300, 300), seed=17, drop_rate=0.1)
        path = tmp_path / "fleet.csv"
        with open(path, "w") as fh:
            for row in fleet.rows():
                fh.write(",".join(map(str, row)) + "\n")
        # count the interval candidates whose root box lies inside the
        # region, which the engine's window rule takes, an array at a
        # time, before any rank: large regions must reach them
        contained = []
        rule = trajindex.engine.surely_has_data

        def counted(first, *args):
            contained.extend(first.tolist())
            return rule(first, *args)

        monkeypatch.setattr("trajindex.engine.surely_has_data", counted)
        rc = main(["oracle-check", "--input", str(path), "--period", "40",
                   "--leaf-size", "6", "--queries", "120", "--seed", "5"])
        assert rc == 0
        assert "ok: 120 queries" in capsys.readouterr().out
        assert len(contained) > 10

    def test_negative_query_count_is_a_usage_error(self, fixture_csv,
                                                   capsys):
        with pytest.raises(SystemExit) as exc:
            main(["oracle-check", "--input", str(fixture_csv),
                  "--queries", "-3"])
        assert exc.value.code == 1
        assert "--queries: -3 is negative" in capsys.readouterr().err

    def test_binary_input_out_of_order_agrees(self, tmp_path, capsys):
        fleet = make_fleet(8, 200, (300, 300), seed=17, drop_rate=0.1)
        path = tmp_path / "fleet.bin"
        # latest instant first within each object
        path.write_bytes(write_binary(reversed(list(fleet.rows()))))
        rc = main(["oracle-check", "--input", str(path), "--format", "bin",
                   "--period", "40", "--leaf-size", "6", "--queries", "120",
                   "--seed", "5"])
        assert rc == 0
        assert "ok: 120 queries" in capsys.readouterr().out


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "trajindex.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "build" in proc.stdout and "oracle-check" in proc.stdout
