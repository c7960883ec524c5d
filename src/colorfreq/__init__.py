"""Output-sensitive color frequency reporting for colored point sets.

Given points in R^d, each with a color (and optionally a weight from a
commutative semigroup), the structures here answer axis-aligned dominance
and box queries with one (color, total) pair per color present in the
range, in time linear in the number of reported colors plus logarithmic
search overhead.  Batched offline variants answer many queries with low
peak working space by building substructures during a sweep and
destroying them behind it.
"""

from .core import (
    BoxQuery,
    COUNT,
    ColoredPoint,
    ContractViolationError,
    CountMode,
    MAX_SEMIGROUP,
    MalformedInputError,
    MalformedQueryError,
    ParameterError,
    PointSet,
    QuerySession,
    SemigroupMode,
    UnsupportedShapeError,
    canonical_freq,
    freq_total,
    normalize_query,
    read_dataset,
    read_queries,
    write_dataset,
    write_queries,
)
from .freq1d import Frequency1D
from .dominance import (
    ColorAccumulator,
    DominanceTree,
    TreeStats,
    box_fanout_bound,
    box_space_bound,
    build_1d,
    build_dominance,
    ceil_log,
    dominance_path_bound,
    dominance_query_bound,
    dominance_space_bound,
    offline_build_bound,
)
from .boxes import BoxTree, build_box
from .offline import (
    OfflineJob,
    SweepSummary,
    answer_offline_3sided,
    answer_offline_dominance,
    peak_space_report,
)
from .oracle import brute_force
from .datagen import generate_points, generate_queries

__version__ = "0.1.0"

__all__ = [
    "BoxQuery",
    "BoxTree",
    "COUNT",
    "ColorAccumulator",
    "ColoredPoint",
    "ContractViolationError",
    "CountMode",
    "DominanceTree",
    "MAX_SEMIGROUP",
    "MalformedInputError",
    "MalformedQueryError",
    "OfflineJob",
    "ParameterError",
    "PointSet",
    "QuerySession",
    "SemigroupMode",
    "SweepSummary",
    "TreeStats",
    "UnsupportedShapeError",
    "answer_offline_3sided",
    "answer_offline_dominance",
    "brute_force",
    "box_fanout_bound",
    "box_space_bound",
    "build_1d",
    "build_box",
    "build_dominance",
    "canonical_freq",
    "ceil_log",
    "dominance_path_bound",
    "dominance_query_bound",
    "dominance_space_bound",
    "freq_total",
    "generate_points",
    "generate_queries",
    "normalize_query",
    "offline_build_bound",
    "peak_space_report",
    "read_dataset",
    "read_queries",
    "write_dataset",
    "write_queries",
]
