"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload range --seed 101 --seconds 30 --trace 0

It must run from a checkout: it imports trajindex from the ``src/`` beside
this directory and nothing else.  Report lines come first; the last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones,
with --trace 1 the per-layer ones from a separate traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_build" / "perfbench"


def _import_program():
    """Put this checkout's src/ first on the path; refuse any other copy."""
    if not (SRC / "trajindex" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no trajindex sources under {SRC}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import trajindex
    if Path(trajindex.__file__).resolve().parent != SRC / "trajindex":
        raise SystemExit(f"perfbench: imported trajindex from {trajindex.__file__}")


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()

    from perfbench import inputs, measure
    work = measure.WORKLOADS.get(args.workload)
    if work is None:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(measure.WORKLOADS)}")

    fleet = inputs.make_fleet(args.seed)
    raw = inputs.raw_records(fleet)
    ops = inputs.make_stream(args.seed, fleet, work.recipe(), work.pools(),
                             measure.ROUNDS)
    cold_pair = inputs.make_cold_pair(args.seed, fleet)
    answers = measure.oracle_answers(measure.oracle_for(fleet),
                                     [*ops, *cold_pair])
    print(f"perfbench workload={work.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"workload: {work.why}")
    print(f"inputs: digest={inputs.digest(raw, [*cold_pair, *ops])} "
          f"fixes={fleet.fix_count} queries_in_list={len(ops)}")
    print(f"src_lines={src_lines()} (informational, not gated)")

    WORK_DIR.mkdir(parents=True, exist_ok=True)
    path = WORK_DIR / f"{work.name}-{os.getpid()}.idx"
    try:
        if args.trace:
            metrics, tally, spans = measure.traced(raw, fleet, work, ops,
                                                   answers, path)
            spans_path = WORK_DIR / f"spans-{work.name}.npz"
            spans.save(spans_path)
            print(f"spans: {len(spans.name)} written to "
                  f"{spans_path.relative_to(ROOT)}")
        else:
            metrics, tally, notes = measure.end_to_end(
                raw, fleet, work, ops, cold_pair, answers, path, args.seconds)
            for line in notes:
                print(line)
    finally:
        path.unlink(missing_ok=True)

    for name, m in metrics.items():
        note = f"  ({m.note})" if m.note else ""
        print(f"metric {name} = {m.value:.6g} {m.unit}{note}")
    share = tally.failed / tally.attempted
    print(f"failed_share = {share:g} ratio ({tally.failed}/{tally.attempted})")
    if tally.first_error:
        print(f"first failure: {tally.first_error}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": m.value, "unit": m.unit}
                    for name, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
