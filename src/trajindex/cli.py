"""Command-line front end: build, query, stats, oracle-check.

Exit codes: 0 success, 1 usage error, 2 data or processing error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from trajindex.engine import TrajectoryIndex, build_index
from trajindex.ingest import NormalizeConfig, normalize, parse_binary, parse_csv
from trajindex.oracle import PositionTable, oracle_interval, oracle_slice
from trajindex.snapshot import Region


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the contract reserves 2 for data
    # errors, so remap usage problems to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="trajindex", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    b = sub.add_parser("build", help="build an index file from raw reports")
    b.add_argument("--input", required=True)
    b.add_argument("--format", choices=("csv", "bin"), default="csv")
    b.add_argument("--period", type=int, default=120)
    b.add_argument("--leaf-size", type=int, default=80)
    b.add_argument("--output", required=True)
    b.add_argument("--normalize", action="store_true",
                   help="speed-filter and gap-fill reports before indexing")

    q = sub.add_parser("query", help="query a saved index")
    q.add_argument("index")
    q.add_argument("--object", type=int)
    q.add_argument("--region", help="X1,X2,Y1,Y2 inclusive cell bounds")
    q.add_argument("--from", dest="first", type=int, required=True)
    q.add_argument("--to", dest="last", type=int)

    s = sub.add_parser("stats", help="print the on-disk and in-memory size "
                                     "breakdown of an index file")
    s.add_argument("index")

    o = sub.add_parser("oracle-check",
                       help="build from raw reports and cross-check random "
                            "queries against a linear-scan oracle")
    o.add_argument("--input", required=True)
    o.add_argument("--format", choices=("csv", "bin"), default="csv")
    o.add_argument("--period", type=int, default=120)
    o.add_argument("--leaf-size", type=int, default=80)
    o.add_argument("--seed", type=int, default=0)
    o.add_argument("--queries", type=int, default=300)
    return parser


def _read_records(path: str, fmt: str):
    if fmt == "bin":
        with open(path, "rb") as fh:
            return parse_binary(fh.read())
    with open(path, "r") as fh:
        return parse_csv(fh)


def _sorted_rows(records) -> tuple[np.ndarray, tuple[int, int]]:
    """The records as rows sorted by object, then instant, and the
    smallest grid extent that holds them."""
    rows = np.asarray(records)
    if not len(rows):
        raise ValueError("no records in input")
    rows = rows[np.lexsort((rows[:, 1], rows[:, 0]))]
    width, height = (int(v) for v in rows[:, 2:].max(0) + 1)
    return rows, (width, height)


def _print_breakdown(ix: TrajectoryIndex, out) -> None:
    blob, parts = ix.encode()
    total = len(blob)
    overhead = total - sum(parts.values())
    baseline = 9 * ix.sample_count
    print(f"objects: {len(ix.object_ids)}", file=out)
    print(f"samples: {ix.sample_count}", file=out)
    print(f"horizon: {ix.horizon}  period: {ix.period}  "
          f"leaf-size: {ix.leaf_capacity}  max-speed: {ix.max_speed}", file=out)
    for name in ("snapshots", "logs", "trees"):
        print(f"{name}: {parts[name]} bytes", file=out)
    print(f"tables: {overhead} bytes", file=out)
    print(f"total: {total} bytes", file=out)
    print(f"baseline (9 B/record): {baseline} bytes", file=out)
    print(f"ratio: {total / baseline:.4f}", file=out)
    live = ix.memory()
    for name, size in live.items():
        print(f"in memory, {name}: {size} bytes", file=out)
    print(f"in memory, total: {sum(live.values())} bytes "
          f"({sum(live.values()) / total:.2f}x the file)", file=out)


def _cmd_build(args) -> int:
    records = _read_records(args.input, args.format)
    if args.normalize:
        records = normalize(records, NormalizeConfig())
    rows, extent = _sorted_rows(records)
    ix = build_index(rows, period=args.period, leaf_capacity=args.leaf_size,
                     extent=extent)
    ix.save(args.output)
    _print_breakdown(ix, sys.stdout)
    return 0


def _parse_region(text: str) -> Region:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError("region must be X1,X2,Y1,Y2")
    x1, x2, y1, y2 = (int(p) for p in parts)
    return Region(x1, x2, y1, y2)


def _cmd_query(args, parser: _Parser) -> int:
    if (args.object is None) == (args.region is None):
        parser.error("exactly one of --object or --region is required")
    ix = TrajectoryIndex.load(args.index)
    if args.object is not None:
        if args.last is None:
            pos = ix.object_position(args.object, args.first)
            if pos is not None:
                print(f"x={pos[0]} y={pos[1]}")
        else:
            for t, x, y in ix.trajectory(args.object, args.first, args.last):
                print(f"t={t} x={x} y={y}")
    else:
        region = _parse_region(args.region)
        if args.last is None:
            for oid, x, y in ix.time_slice(region, args.first):
                print(f"id={oid} x={x} y={y}")
        else:
            for oid in ix.time_interval(region, args.first, args.last):
                print(f"id={oid}")
    return 0


def _cmd_stats(args) -> int:
    _print_breakdown(TrajectoryIndex.load(args.index), sys.stdout)
    return 0


def _cmd_oracle_check(args) -> int:
    records = _read_records(args.input, args.format)
    rows, extent = _sorted_rows(records)
    ix = build_index(rows, period=args.period, leaf_capacity=args.leaf_size,
                     extent=extent)
    table = PositionTable.from_samples(rows.tolist())
    rng = np.random.default_rng(args.seed)
    ids = ix.object_ids
    bad = 0
    for n in range(args.queries):
        kind = n % 4
        if kind in (0, 3):
            oid = ids[int(rng.integers(0, len(ids)))]
            q = int(rng.integers(0, ix.horizon))
            if kind == 0:
                got, want = ix.object_position(oid, q), table.position(oid, q)
                desc = f"object {oid} at {q}"
            else:  # a window of up to three periods from q
                e = min(ix.horizon - 1, q + int(rng.integers(0, 3 * ix.period)))
                got, want = ix.trajectory(oid, q, e), table.trajectory(oid, q, e)
                desc = f"trajectory of {oid} over {q}..{e}"
        else:
            x1 = int(rng.integers(0, extent[0]))
            y1 = int(rng.integers(0, extent[1]))
            # sides up to the whole grid, so regions hold whole logs' boxes
            x2 = min(extent[0] - 1, x1 + int(rng.integers(0, extent[0])))
            y2 = min(extent[1] - 1, y1 + int(rng.integers(0, extent[1])))
            region = Region(x1, x2, y1, y2)
            if kind == 1:
                q = int(rng.integers(0, ix.horizon))
                got = ix.time_slice(region, q)
                want = oracle_slice(table, (x1, x2, y1, y2), q)
                desc = f"slice {region} at {q}"
            else:
                b = int(rng.integers(0, ix.horizon))
                e = min(ix.horizon - 1, b + int(rng.integers(0, 100)))
                got = ix.time_interval(region, b, e)
                want = oracle_interval(table, (x1, x2, y1, y2), b, e)
                desc = f"interval {region} over {b}..{e}"
        if got != want:
            bad += 1
            print(f"MISMATCH {desc}: index={got!r} oracle={want!r}",
                  file=sys.stderr)
    if bad:
        raise ValueError(f"{bad} of {args.queries} queries disagree with the oracle")
    print(f"ok: {args.queries} queries match the oracle")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "build":
            return _cmd_build(args)
        if args.command == "query":
            return _cmd_query(args, parser)
        if args.command == "stats":
            return _cmd_stats(args)
        return _cmd_oracle_check(args)
    except SystemExit:
        raise
    except (ValueError, KeyError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
