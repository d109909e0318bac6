"""The names that callers outside the test suite read.

`perfbench/measure.py` names the classes it traces when it loads, and
the acceptance gate and perfbench's tracer test call view methods that
the index's own query path does not.  A cut that removes one of them
fails here, not only in the benchmark's own test run.
"""

import importlib
import inspect
from pathlib import Path

import pytest

from trajindex import log, mbrtree, snapshot, succinct

ROOT = Path(__file__).resolve().parents[1]

# each class, and what the acceptance gate (criteria 3 and 7) and
# perfbench's tracer test call on it
CALLED = [
    (succinct.BitVector, ("from_bits", "__len__", "rank1", "select1", "ones")),
    (succinct.SparseBitVector, ("select1", "code_bits")),
    (succinct.UnaryDeltaStream, ("from_values", "prefix_sum", "total",
                                 "code_bits")),
    (succinct.PackedIntArray, ("__len__", "__getitem__", "__iter__",
                               "code_bits")),
    (log.TimeIndex, ("first", "gaps_upto", "code_bits")),
    (log.AxisDeltas, ("sign", "pos", "neg", "stream", "code_bits")),
    (log.TrajectoryLog, ("time", "dx", "dy", "data_count", "position",
                         "code_bits")),
    (mbrtree.MbrTree, ("node_box", "first_hit", "_diffs_x", "_diffs_y")),
]


def test_perfbench_measure_imports(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    measure = importlib.import_module("perfbench.measure")
    assert succinct.BitVector in measure.TRACED_CLASSES
    assert log.TimeIndex in measure.TRACED_CLASSES


@pytest.mark.parametrize("cls, names", CALLED,
                         ids=[cls.__name__ for cls, _ in CALLED])
def test_called_view_methods_exist(cls, names):
    assert [n for n in names if not hasattr(cls, n)] == []


def test_ones_is_a_generator_function():
    # perfbench's tracer test counts the steps of BitVector.ones
    assert inspect.isgeneratorfunction(succinct.BitVector.ones)


def test_the_one_box_type_answers_to_its_old_names():
    # the acceptance gate imports mbrtree.Mbr and reads tree.root.xmin
    assert mbrtree.Mbr is snapshot.Region
    root = mbrtree.build_mbr_tree_xy([2, 10], [4, 7], 2).root
    assert (root.xmin, root.xmax, root.ymin, root.ymax) == (2, 10, 4, 7)
