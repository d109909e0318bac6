"""Compressed in-memory index for fixed-rate trajectories of moving objects."""

from trajindex.engine import TrajectoryIndex, build_index, compute_max_speed
from trajindex.ingest import (
    NormalizeConfig,
    interpolate_gaps,
    normalize,
    parse_binary,
    parse_csv,
    speed_filter,
    write_binary,
    write_csv,
)
from trajindex.log import TimeIndex, TrajectoryLog, build_log
from trajindex.mbrtree import MbrTree, TraversalStats, build_mbr_tree
from trajindex.oracle import (
    PositionTable,
    oracle_interval,
    oracle_mbr,
    oracle_slice,
)
from trajindex.snapshot import K2Tree, Region, Snapshot
from trajindex.succinct import (
    BitVector,
    PackedIntArray,
    SparseBitVector,
    UnaryDeltaStream,
)

__version__ = "0.1.0"

__all__ = [
    "BitVector",
    "K2Tree",
    "MbrTree",
    "NormalizeConfig",
    "PackedIntArray",
    "PositionTable",
    "Region",
    "Snapshot",
    "SparseBitVector",
    "TimeIndex",
    "TrajectoryIndex",
    "TrajectoryLog",
    "TraversalStats",
    "UnaryDeltaStream",
    "build_index",
    "build_log",
    "build_mbr_tree",
    "compute_max_speed",
    "interpolate_gaps",
    "normalize",
    "oracle_interval",
    "oracle_mbr",
    "oracle_slice",
    "parse_binary",
    "parse_csv",
    "speed_filter",
    "write_binary",
    "write_csv",
    "__version__",
]
