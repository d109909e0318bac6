"""Checks of the benchmark's own arithmetic.

    python3 -m pytest perfbench
"""

import random
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from perfbench import inputs, measure  # noqa: E402
from perfbench.tracer import Spans, Tracer, self_times  # noqa: E402
from trajindex import engine, succinct  # noqa: E402

_RANGE = measure.WORKLOADS["range"]

@pytest.mark.parametrize("n, label, beyond", [
    (20, "p50", 10),
    (99, "p50", 49),
    (100, "p90", 10),
    (350, "p90", 35),
    (999, "p90", 99),
    (1000, "p99", 10),
    (5439, "p99", 54),
    (10000, "p99.9", 10),
])
def test_tail_is_highest_ladder_percentile_with_ten_beyond(n, label, beyond):
    samples = list(range(1, n + 1))
    random.Random(n).shuffle(samples)
    got_label, value, got_beyond = measure.tail(samples)
    assert (got_label, got_beyond) == (label, beyond)
    assert value == n - beyond   # nearest rank: the value is its own rank
    assert sum(s > value for s in samples) == beyond


def test_tail_needs_twenty_samples():
    with pytest.raises(ValueError):
        measure.tail(range(19))


def _spans(rows):
    """rows: (name, parent, start, end) with parents listed first."""
    names = sorted({r[0] for r in rows})
    return Spans(names, ["engine"] * len(names),
                 [names.index(r[0]) for r in rows], [r[1] for r in rows],
                 [0] * len(rows), [0] * len(rows),
                 [r[2] for r in rows], [r[3] for r in rows])


def test_self_time_subtracts_child_spans():
    spans = _spans([
        ("query", -1, 0, 100),
        ("a", 0, 10, 40),
        ("c", 1, 15, 25),
        ("b", 0, 50, 90),
        ("d", 3, 60, 70),
        ("e", 3, 75, 80),
    ])
    assert spans.self_time.tolist() == [30, 20, 10, 25, 10, 5]
    assert spans.self_time.sum() == 100
    assert spans.under("b").tolist() == [False, False, False, False, True, True]
    assert spans.under("query").tolist() == [False] + [True] * 5


def test_self_time_of_leaves_is_their_duration():
    parent = np.array([-1, -1, 1])
    duration = np.array([7, 9, 4])
    assert self_times(parent, duration).tolist() == [7, 5, 4]


def test_tracer_records_nesting_and_restores_methods():
    bits = succinct.BitVector.from_bits([1, 0, 1, 1, 0, 0, 1])
    stream = succinct.UnaryDeltaStream.from_values([2, 0, 3])
    original = vars(succinct.BitVector)["rank1"]
    tracer = Tracer()
    with tracer.installed((succinct.BitVector, succinct.SparseBitVector,
                           succinct.UnaryDeltaStream)):
        assert bits.rank1(4) == 3
        assert stream.prefix_sum(3) == 5
        assert list(bits.ones()) == [1, 3, 4, 7]
    assert vars(succinct.BitVector)["rank1"] is original
    spans = tracer.arrays()
    names = [spans.names[i] for i in spans.name]
    assert names[0] == "BitVector.rank1"
    assert names[1] == "UnaryDeltaStream.prefix_sum"
    under_prefix = spans.under("UnaryDeltaStream.prefix_sum")
    assert {names[i] for i in np.flatnonzero(under_prefix)} == {
        "SparseBitVector.select1", "BitVector.select1"}
    assert names.count("BitVector.ones") == 1
    assert names.count("BitVector.ones:next") == 5   # four values, then the end
    assert (spans.self_time >= 0).all()


def _small_world(seed=7):
    fleet = inputs.make_fleet(seed, objects=6, horizon=240, extent=(64, 64))
    rows = [(int(fleet.ids[i]), int(t), int(fleet.xs[i, t]), int(fleet.ys[i, t]))
            for i, t in zip(*np.nonzero(fleet.present))]
    index = engine.build_index(rows, 20, 4, fleet.extent, horizon=fleet.horizon)
    ops = inputs.make_stream(seed, fleet, _RANGE.recipe(), _RANGE.pools(), 3)
    return fleet, index, ops


class _Faulty:
    """Index stand-in that answers every third position lookup wrongly and
    raises on the first trajectory."""

    def __init__(self, index):
        self._index = index
        self.objects = 0
        self.raised = False

    def object_position(self, oid, q):
        self.objects += 1
        if self.objects % 3 == 0:
            return (-1, -1)
        return self._index.object_position(oid, q)

    def trajectory(self, oid, first, last):
        if not self.raised:
            self.raised = True
            raise RuntimeError("injected")
        return self._index.trajectory(oid, first, last)

    def __getattr__(self, name):
        return getattr(self._index, name)


def test_wrong_answers_count_as_failed_and_the_run_goes_on():
    fleet, index, ops = _small_world()
    answers = measure.oracle_answers(measure.oracle_for(fleet), ops)
    clean = measure.Tally()
    measure.run_stream(index, ops, answers, clean, limit=len(ops))
    assert (clean.attempted, clean.failed) == (len(ops), 0)

    faulty = _Faulty(index)
    tally = measure.Tally()
    measure.run_stream(faulty, ops, answers, tally, limit=len(ops))
    wrong = faulty.objects // 3
    assert tally.attempted == len(ops)
    assert tally.failed == wrong + 1
    assert tally.completed == len(ops) - tally.failed
    assert tally.failed / tally.attempted > 0


def test_inputs_repeat_for_a_seed():
    a = inputs.make_fleet(3, objects=4, horizon=120)
    b = inputs.make_fleet(3, objects=4, horizon=120)
    c = inputs.make_fleet(4, objects=4, horizon=120)
    ops = inputs.make_stream(3, a, _RANGE.recipe(), _RANGE.pools(), 2)
    same = inputs.digest(inputs.raw_records(b),
                         inputs.make_stream(3, b, _RANGE.recipe(), _RANGE.pools(), 2))
    assert inputs.digest(inputs.raw_records(a), ops) == same
    assert inputs.digest(inputs.raw_records(c), ops) != same


def test_query_arguments_are_stratified():
    fleet = inputs.make_fleet(3, objects=4, horizon=120, extent=(371, 466))
    rng = np.random.default_rng(0)
    objects = inputs.make_ops(rng, inputs.OBJECT, fleet, 8)
    assert sorted(op[1] for op in objects) == [1, 1, 2, 2, 3, 3, 4, 4]
    assert sorted(op[2] * 8 // 120 for op in objects) == list(range(8))
    slices = inputs.make_ops(rng, inputs.SLICE_S, fleet, 10)
    assert sorted(op[1][0] // 10 for op in slices) == list(range(10))
    assert all(op[1][1] - op[1][0] + 1 == inputs.SMALL_REGION[0]
               for op in slices)


def test_raw_records_parse_back_to_the_fleet():
    from trajindex import ingest
    fleet = inputs.make_fleet(5, objects=3, horizon=40, extent=(1024, 70000))
    records = ingest.parse_binary(inputs.raw_records(fleet))
    rows = [(int(fleet.ids[i]), int(t), int(fleet.xs[i, t]), int(fleet.ys[i, t]))
            for i, t in zip(*np.nonzero(fleet.present))]
    assert [tuple(r) for r in records] == rows
