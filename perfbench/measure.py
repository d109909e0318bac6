"""Workloads, set-up, the closed measuring loop and the metric arithmetic.

One client in one thread sends the next query only after the previous one
has returned (a closed loop), going through a fixed query list again and
again.  Only the call into trajindex is timed; each answer is then
compared with the plain-array oracle outside the timed region.  A try that
raises or answers wrongly counts as failed and the loop goes on.  A
query's latency is its fastest correct try: slower tries of the same
query on the same index measure other tenants of the machine.
"""

from __future__ import annotations

import gc
import statistics
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from trajindex import engine, ingest, log, mbrtree, snapshot, succinct
from trajindex.oracle import PositionTable, oracle_interval, oracle_slice

from perfbench.inputs import (INTERVAL_L, INTERVAL_S, OBJECT, SLICE_L,
                              SLICE_S, TRAJECTORY, Fleet)
from perfbench.tracer import Spans, Tracer

SETUPS = 3            # set-ups per run; setup_s is their median
COLD_PER_SETUP = 1    # further cold tries in the measuring after each set-up
ROUNDS = 20           # rounds in the query list; a run repeats the list


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    period: int
    leaf_capacity: int
    costly: int   # slice-S and interval-S queries per round, each

    def recipe(self) -> dict[str, int]:
        """Queries of each kind per round of the list."""
        return {OBJECT: 40, TRAJECTORY: 20, SLICE_S: self.costly, SLICE_L: 1,
                INTERVAL_S: self.costly, INTERVAL_L: 1}

    def pools(self) -> dict[str, int]:
        """Distinct queries of each kind, used in turn: the costly kinds
        once per pass over the list, object and trajectory four times."""
        return {kind: n * ROUNDS // (4 if kind in (OBJECT, TRAJECTORY) else 1)
                for kind, n in self.recipe().items()}


# The list is short, so that every query gets many tries in a run.  A tail
# past p50 needs 100 queries of a kind.  On range the S kinds have them:
# there an S query's cost depends on the objects near its region, and
# filtering can cut it.  On lookup an S query costs as much as a whole-grid
# one (the region grows by max_speed per instant over long periods), so
# fewer of them leave each query more tries, and their tails read at p50.
WORKLOADS = {w.name: w for w in (
    Workload("lookup", "long logs (d=720, C=640): select depth and per-call "
             "overhead set point-query latency; snapshots are sparse",
             720, 640, 2),
    Workload("range", "acceptance shape (d=120, C=80): snapshot probes, "
             "candidate filtering and box-tree pruning do the work",
             120, 80, 5),
)}


# ------------------------------------------------------------------ stats

TAIL_BEYOND = 10
LADDER = ((50, 100), (90, 100), (99, 100), (999, 1000), (9999, 10000))


def tail(samples) -> tuple[str, float, int]:
    """Highest ladder percentile with at least TAIL_BEYOND samples above
    it, by the nearest-rank rule: (label, value, samples beyond)."""
    ordered = sorted(samples)
    n = len(ordered)
    best = None
    for num, den in LADDER:
        rank = -(-num * n // den)
        if rank >= 1 and n - rank >= TAIL_BEYOND:
            best = (f"p{100 * num / den:g}", ordered[rank - 1], n - rank)
    if best is None:
        raise ValueError(f"{n} samples are too few for a tail percentile")
    return best


# ------------------------------------------------------- set-up and queries

def oracle_for(fleet: Fleet) -> PositionTable:
    return PositionTable(fleet.ids, fleet.present, fleet.xs, fleet.ys)


def write_index(raw: bytes, fleet: Fleet, work: Workload, path) -> int:
    """The first part of set-up: parse the raw records, build the index,
    serialize it and save the file.  Returns the blob length."""
    records = ingest.parse_binary(raw)
    built = engine.build_index(records, work.period, work.leaf_capacity,
                               fleet.extent, horizon=fleet.horizon)
    blob = built.to_bytes()
    with open(path, "wb") as fh:
        fh.write(blob)
    return len(blob)


def execute(index, op, stats=None):
    kind = op[0]
    if kind == OBJECT:
        return index.object_position(op[1], op[2])
    if kind == TRAJECTORY:
        return index.trajectory(op[1], op[2], op[3])
    if kind in (SLICE_S, SLICE_L):
        return index.time_slice(snapshot.Region(*op[1]), op[2])
    if kind in (INTERVAL_S, INTERVAL_L):
        return index.time_interval(snapshot.Region(*op[1]), op[2], op[3],
                                   stats=stats)
    raise ValueError(f"unknown query kind {kind!r}")


def oracle_answers(table: PositionTable, ops) -> dict:
    """The oracle's answer to every distinct query in ops."""
    return {op: expected(table, op) for op in set(ops)}


def expected(table: PositionTable, op):
    kind = op[0]
    if kind == OBJECT:
        return table.position(op[1], op[2])
    if kind == TRAJECTORY:
        return table.trajectory(op[1], op[2], op[3])
    if kind in (SLICE_S, SLICE_L):
        return oracle_slice(table, op[1], op[2])
    return oracle_interval(table, op[1], op[2], op[3])


@dataclass
class Tally:
    best: dict[tuple, int] = field(default_factory=dict)  # query -> fastest ns
    attempted: int = 0
    failed: int = 0
    timed_ns: int = 0     # all correct tries
    completed: int = 0
    first_error: str | None = None
    events: Counter = field(default_factory=Counter)

    def fail(self, why: str) -> None:
        self.failed += 1
        if self.first_error is None:
            self.first_error = why

    def record(self, key: tuple, elapsed: int) -> None:
        self.timed_ns += elapsed
        self.completed += 1
        if elapsed < self.best.get(key, elapsed + 1):
            self.best[key] = elapsed


def timed_query(index, op, answer, tally: Tally, stats=None) -> int | None:
    """Run one query and compare it with the oracle's answer; nanoseconds
    spent in the call, or None if it raised or answered wrongly."""
    tally.attempted += 1
    t0 = time.perf_counter_ns()
    try:
        result = execute(index, op, stats)
    except Exception as exc:  # a failed query is counted, not fatal
        tally.fail(f"{op}: {exc!r}")
        return None
    elapsed = time.perf_counter_ns() - t0
    if stats is not None and stats.events:
        tally.events.update(kind for kind, _ in stats.events)
        stats.events.clear()
    if result != answer:
        tally.fail(f"{op}: answer differs from the oracle")
        return None
    return elapsed


def run_stream(index, ops, answers, tally: Tally, *, seconds=None,
               limit=None, start=0, tracer: Tracer | None = None,
               stats=None) -> int:
    """Closed loop over ops, repeating the list from position `start`, until
    `seconds` pass or `limit` queries ran; returns the position reached.
    Every try is checked against `answers`; correct tries update the
    query's best time in tally.best."""
    deadline = None if seconds is None else time.perf_counter() + seconds
    i = start
    while (limit is None or i - start < limit) and (
            deadline is None or time.perf_counter() < deadline):
        op = ops[i % len(ops)]
        if tracer is not None:
            tracer.query_id = i
        elapsed = timed_query(index, op, answers[op], tally, stats)
        if tracer is not None:
            tracer.query_id = -1
        if elapsed is not None:
            tally.record(op, elapsed)
        i += 1
    return i


def cold_query(path, pair, answers, tally: Tally):
    """Load the index file, then ask the fresh index the cold pair.
    Returns (index, load ns, total ns or None if a query failed).  The
    collector starts empty, as in a fresh process."""
    gc.collect()
    t0 = time.perf_counter_ns()
    index = engine.TrajectoryIndex.load(path)
    loaded = time.perf_counter_ns() - t0
    spent = [timed_query(index, op, answers[op], tally) for op in pair]
    return index, loaded, None if None in spent else loaded + sum(spent)


def live_bytes(path) -> int:
    """Memory still held by one freshly loaded index, by tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        index = engine.TrajectoryIndex.load(path)
        grown = tracemalloc.get_traced_memory()[0] - before
        del index
    finally:
        tracemalloc.stop()
    return grown


# ----------------------------------------------------------- end to end

@dataclass
class Metric:
    value: float
    unit: str
    note: str = ""


def end_to_end(raw, fleet, work, ops, cold_pair, answers, path, seconds):
    """Untraced run: SETUPS rounds of set-up followed by a share of the
    measuring time; the memory probe follows the first set-up.  Each
    set-up's load is a cold try, and COLD_PER_SETUP more loads are spread
    through each share.  Spreading the measuring over the whole run gives
    each query tries in more machine states.  Returns (metrics, tally,
    report lines)."""
    tally = Tally()
    setups, colds = [], []
    share = seconds / (SETUPS * (COLD_PER_SETUP + 1))
    position = 0
    index = live = None
    for _ in range(SETUPS):
        index = None
        gc.collect()
        t0 = time.perf_counter_ns()
        blob_len = write_index(raw, fleet, work, path)
        written = time.perf_counter_ns() - t0
        index, loaded, cold = cold_query(path, cold_pair, answers, tally)
        setups.append((written + loaded) / 1e9)
        colds.append(cold)
        if live is None:
            # Early in the run, so that the measuring shares reach its end.
            live = live_bytes(path)
        gc.collect()
        gc.freeze()
        for part in range(COLD_PER_SETUP + 1):
            if part:
                colds.append(cold_query(path, cold_pair, answers, tally)[2])
            position = run_stream(index, ops, answers, tally, start=position,
                                  seconds=share)
    colds = [ns for ns in colds if ns is not None]
    index = None
    if not colds:
        raise RuntimeError("no cold query answered correctly")
    fixes = fleet.fix_count
    tries = tally.completed / len(tally.best)
    m = {
        "setup_s": Metric(statistics.median(setups), "s",
                          f"median of {len(setups)}"),
        "ops_per_s": Metric(1e9 * len(tally.best) / sum(tally.best.values()),
                            "1/s", f"{len(tally.best)} queries, best tries"),
    }
    for kind, with_tail in ((OBJECT, True), (TRAJECTORY, True),
                            (SLICE_S, True), (SLICE_L, False),
                            (INTERVAL_S, True), (INTERVAL_L, False)):
        got = [ns for op, ns in tally.best.items() if op[0] == kind]
        if not got:
            raise RuntimeError(f"no {kind} query answered correctly")
        m[f"{kind}_p50_us"] = Metric(statistics.median(got) / 1e3, "us",
                                     f"n={len(got)}")
        if with_tail:
            label, value, beyond = tail(got)
            m[f"{kind}_tail_us"] = Metric(
                value / 1e3, "us", f"{label}, n={len(got)}, {beyond} beyond")
    m["blob_bytes_per_fix"] = Metric(blob_len / fixes, "B/fix",
                                     f"{blob_len} B / {fixes} fixes")
    m["live_bytes_per_fix"] = Metric(live / fixes, "B/fix",
                                     f"{live} B / {fixes} fixes")
    # Printed, not gated: a load is long and allocation-heavy, so even its
    # best try follows the machine's slow phases.  On a shared 2-vCPU VM its
    # spread between runs of the same code reached 0.24-0.41 of the median.
    cold = (f"cold_query_p50_ms = {min(colds) / 1e6:.6g} ms  (best of "
            f"{len(colds)} tries; informational, not gated)")
    return m, tally, [f"{len(tally.best)} distinct queries, "
                      f"{tries:.1f} correct tries each on average", cold]


# ---------------------------------------------------------------- traced

TRACED_CLASSES = (succinct.BitVector, succinct.SparseBitVector,
                  succinct.UnaryDeltaStream, log.TimeIndex, log.AxisDeltas,
                  log.TrajectoryLog, mbrtree.MbrTree, snapshot.K2Tree,
                  snapshot.Snapshot, engine.TrajectoryIndex)
TRACED_FUNCTIONS = ((engine, "build_index"), (ingest, "parse_binary"))
LAYERS = ("succinct", "log", "snapshot", "mbrtree", "engine")


def traced(raw, fleet, work, ops, answers, path):
    """Traced run: one set-up, then one pass over the query list,
    untraced for the overhead baseline and again traced.  Returns
    (per-layer metrics, tally, spans)."""
    tracer = Tracer()
    # Parse, build and serialize get one span each (their insides would be
    # millions of spans no metric needs); the load gets every layer.
    with tracer.installed((engine.TrajectoryIndex,), TRACED_FUNCTIONS):
        write_index(raw, fleet, work, path)
    with tracer.installed(TRACED_CLASSES):
        index = engine.TrajectoryIndex.load(path)
    gc.collect()
    gc.freeze()

    limit = len(ops)
    plain = Tally()
    run_stream(index, ops, answers, plain, limit=limit)
    stats = mbrtree.TraversalStats(trace=True)
    tally = Tally()
    with tracer.installed(TRACED_CLASSES):
        run_stream(index, ops, answers, tally, limit=limit, tracer=tracer,
                   stats=stats)
    spans = tracer.arrays()
    m = per_layer(spans, [op[0] for op in ops], stats, tally,
                  len(raw) // 9)
    m["trace.overhead_ratio"] = Metric(
        (tally.completed / tally.timed_ns) / (plain.completed / plain.timed_ns),
        "ratio", "traced over untraced queries per second, same queries")
    plain.attempted += tally.attempted
    plain.failed += tally.failed
    plain.first_error = plain.first_error or tally.first_error
    return m, plain, spans


def per_layer(spans: Spans, kinds, stats, tally: Tally, records: int) -> dict:
    """Per-layer metrics from the spans.  Set-up spans carry query id -1,
    the spans of a traced query its index into `kinds`, the query kinds."""
    q = spans.query >= 0
    setup_spans = ~q

    def calls(*names):
        return int(np.count_nonzero(q & spans.named(*names)))

    def mean_ns(*names):
        sel = q & spans.named(*names)
        return float(spans.duration[sel].mean()) if sel.any() else 0.0

    def total(mask, column):
        return float(column[mask].sum())

    def one(name, column):
        sel = setup_spans & spans.named(name)
        return total(sel, column) / 1e9

    m: dict[str, Metric] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = Metric(
            total(q & spans.in_layer(layer), spans.self_time) / 1e9, "s",
            "self time over the traced queries")
    loading = setup_spans & spans.under("TrajectoryIndex.from_bytes")
    for layer in ("succinct", "log", "snapshot", "mbrtree"):
        m[f"{layer}.from_buffer_s"] = Metric(
            total(loading & spans.in_layer(layer), spans.self_time) / 1e9, "s",
            "self time while the set-up index loads")

    for key, names in (("rank1", ("BitVector.rank1",)),
                       ("select1", ("BitVector.select1",)),
                       ("select0", ("BitVector.select0",)),
                       ("sparse_rank1", ("SparseBitVector.rank1",)),
                       ("prefix_sum", ("UnaryDeltaStream.prefix_sum",))):
        m[f"succinct.{key}_calls"] = Metric(calls(*names), "count")
        m[f"succinct.{key}_ns"] = Metric(mean_ns(*names), "ns", "mean per call")
    m["succinct.access_calls"] = Metric(
        calls("BitVector.access", "SparseBitVector.access"), "count")

    m["log.position_calls"] = Metric(calls("TrajectoryLog.position"), "count")
    m["log.position_ns"] = Metric(mean_ns("TrajectoryLog.position"), "ns",
                                  "mean per call")
    m["log.value_calls"] = Metric(calls("AxisDeltas.value"), "count")
    m["log.count_data_upto_calls"] = Metric(
        calls("TrajectoryLog.count_data_upto"), "count")
    m["log.iter_positions_calls"] = Metric(
        calls("TrajectoryLog.iter_positions"), "count")

    m["snapshot.range_report_calls"] = Metric(calls("Snapshot.range_report"),
                                              "count")
    m["snapshot.range_report_us"] = Metric(
        mean_ns("Snapshot.range_report") / 1e3, "us", "mean per call")
    m["snapshot.cells_reported"] = Metric(
        int(spans.size[q & spans.named("K2Tree.report_cells")].sum()), "count")
    m["snapshot.objects_reported"] = Metric(
        int(spans.size[q & spans.named("Snapshot.range_report")].sum()), "count")

    hits = q & spans.named("MbrTree.first_hit")
    first_hits = int(np.count_nonzero(hits))
    m["mbrtree.first_hit_calls"] = Metric(first_hits, "count")
    m["mbrtree.first_hit_us"] = Metric(mean_ns("MbrTree.first_hit") / 1e3, "us",
                                       "mean per call")
    m["mbrtree.hit_share"] = Metric(
        int(spans.size[hits].sum()) / first_hits if first_hits else 0.0,
        "ratio", "first_hit calls that found a hit")
    m["mbrtree.nodes_visited"] = Metric(stats.nodes_visited, "count")
    m["mbrtree.positions_decoded"] = Metric(stats.positions_decoded, "count")
    for event in ("mbr_reject", "time_skip", "speed_skip", "leaf_abort"):
        m[f"mbrtree.{event}"] = Metric(tally.events[event], "count")

    small = np.isin(spans.query, np.flatnonzero(np.asarray(kinds) == SLICE_S))
    candidates = int(np.count_nonzero(
        small & spans.named("TrajectoryLog.position")
        & spans.under("TrajectoryIndex.time_slice")))
    found = int(spans.size[small
                           & spans.named("TrajectoryIndex.time_slice")].sum())
    m["engine.slice_candidates"] = Metric(candidates, "count", "slice-S queries")
    m["engine.slice_answers"] = Metric(found, "count", "slice-S queries")
    m["engine.slice_candidates_per_answer"] = Metric(
        candidates / found if found else 0.0, "ratio", "slice-S queries")
    m["engine.interval_answers"] = Metric(
        int(spans.size[q & spans.named("TrajectoryIndex.time_interval")].sum()),
        "count")
    m["engine.build_s"] = Metric(one("build_index", spans.duration), "s")
    m["engine.to_bytes_s"] = Metric(one("TrajectoryIndex.to_bytes", spans.duration),
                                    "s")
    m["engine.from_bytes_self_s"] = Metric(
        one("TrajectoryIndex.from_bytes", spans.self_time), "s")

    parse_s = one("parse_binary", spans.duration)
    m["ingest.parse_binary_s"] = Metric(parse_s, "s")
    m["ingest.records_per_s"] = Metric(records / parse_s, "1/s")
    return m
