"""Core domain types for colored range-frequency reporting.

Colored point sets, axis-aligned box queries, rank reduction, weight
algebra, and the text formats shared between the library and the CLI.

Everything defined here is immutable after construction and safe to
share across concurrent readers.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

import numpy as np

INF = math.inf
INT64_MAX = 2**63 - 1


class MalformedInputError(ValueError):
    """Point data violates a structural precondition (mixed dimensions, non-finite coords, ...)."""


class MalformedQueryError(ValueError):
    """Query bounds are inconsistent (lower bound above upper bound, NaN, ...)."""


class ParameterError(ValueError):
    """A tuning parameter is outside its legal range."""


class UnsupportedShapeError(ValueError):
    """The query shape is not supported by the structure it was sent to."""


class ContractViolationError(ValueError):
    """A caller-side contract was broken (e.g. color id outside [0, phi))."""


# ---------------------------------------------------------------------------
# Weight algebra
# ---------------------------------------------------------------------------


class CountMode:
    """Integer counts under addition."""

    name = "count"
    combine = operator.add  # a builtin, so called without a frame of its own

    def __repr__(self):  # pragma: no cover - debugging aid
        return "CountMode()"


class SemigroupMode:
    """A user-supplied commutative semigroup.  No inverse is assumed: no
    query path subtracts partial answers."""

    def __init__(self, combine: Callable[[Any, Any], Any], name: str = "semigroup"):
        self.combine = combine  # the user's function itself, called directly
        self.name = name

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"SemigroupMode({self.name})"


COUNT = CountMode()
MAX_SEMIGROUP = SemigroupMode(max, name="max")


# ---------------------------------------------------------------------------
# Points and queries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ColoredPoint:
    """A point in R^d with a dense color id and an optional weight."""

    coords: tuple[float, ...]
    color: int
    weight: Any = 1


class BoxQuery:
    """An axis-aligned box, closed on every finite side.

    Each axis carries a ``(lower, upper)`` pair where ``-inf`` / ``+inf``
    mark missing sides.  A dominance query is bounded from above on every
    axis and is identified with its corner point.
    """

    __slots__ = ("bounds",)

    def __init__(self, bounds: Iterable[tuple[float, float]]):
        checked = []
        try:
            axes = enumerate(bounds)
        except TypeError:
            raise MalformedQueryError(f"{bounds!r} is not a sequence of bounds") from None
        for axis, bound in axes:
            try:
                lo, hi = map(float, bound)
            except (TypeError, ValueError, OverflowError):
                raise MalformedQueryError(
                    f"axis {axis}: {bound!r} is not a (lower, upper) pair of numbers"
                ) from None
            if math.isnan(lo) or math.isnan(hi):
                raise MalformedQueryError(f"axis {axis}: NaN bound")
            if lo > hi:
                raise MalformedQueryError(f"axis {axis}: lower bound {lo} above upper bound {hi}")
            checked.append((lo, hi))
        if not checked:
            raise MalformedQueryError("query needs at least one dimension")
        object.__setattr__(self, "bounds", tuple(checked))

    def __setattr__(self, name, value):
        raise AttributeError("BoxQuery is immutable")

    @classmethod
    def dominance(cls, corner: Sequence[float]) -> "BoxQuery":
        try:
            bounds = [(-INF, c) for c in corner]
        except TypeError:
            raise MalformedQueryError(f"corner {corner!r} is not a sequence of numbers") from None
        return cls(bounds)

    @classmethod
    def interval(cls, lo: float, hi: float) -> "BoxQuery":
        return cls([(lo, hi)])

    @property
    def dimension(self) -> int:
        return len(self.bounds)

    @property
    def sidedness(self) -> int:
        return sum(math.isfinite(lo) + math.isfinite(hi) for lo, hi in self.bounds)

    @property
    def is_dominance(self) -> bool:
        return all(lo == -INF and math.isfinite(hi) for lo, hi in self.bounds)

    def has_lower_bounds(self) -> bool:
        return any(lo != -INF for lo, _ in self.bounds)

    def two_sided_axes(self) -> tuple[int, ...]:
        return tuple(
            i for i, (lo, hi) in enumerate(self.bounds) if lo != -INF and hi != INF
        )

    def corner(self) -> tuple[float, ...]:
        """Upper-bound vector; only meaningful when there are no lower bounds."""
        if self.has_lower_bounds():
            raise UnsupportedShapeError("query has lower bounds; not a dominance corner")
        return tuple(hi for _, hi in self.bounds)

    def mask(self, coords: np.ndarray) -> np.ndarray:
        """Boolean mask of the rows of ``coords`` inside the box (closed sides)."""
        coords = np.asarray(coords, dtype=np.float64)
        if coords.ndim != 2 or coords.shape[1] != self.dimension:
            raise MalformedQueryError(
                f"coords have dimension {coords.shape}, query has {self.dimension}"
            )
        out = np.ones(len(coords), dtype=bool)
        for axis, (lo, hi) in enumerate(self.bounds):
            col = coords[:, axis]
            if lo != -INF:
                out &= col >= lo
            if hi != INF:
                out &= col <= hi
        return out

    def __eq__(self, other):
        return isinstance(other, BoxQuery) and self.bounds == other.bounds

    def __hash__(self):
        return hash(self.bounds)

    def __repr__(self):
        parts = ", ".join(f"[{lo}, {hi}]" for lo, hi in self.bounds)
        return f"BoxQuery({parts})"


def normalize_query(q: BoxQuery, reflect: Sequence[bool]) -> BoxQuery:
    """Rewrite ``q`` for data whose listed axes were negated.

    A reflected axis turns ``[lo, hi]`` into ``[-hi, -lo]``, so a bound that
    was finite from below becomes finite from above.  Answers on reflected
    data with the normalized query equal answers on the original data.
    """
    if not isinstance(q, BoxQuery):
        raise MalformedQueryError(f"query must be a BoxQuery, not {type(q).__name__}")
    try:
        flags = len(reflect)
    except TypeError:
        raise ParameterError(f"reflection flags {reflect!r} are not a sequence") from None
    if flags != q.dimension:
        raise ParameterError("reflection flags must match query dimension")
    bounds = []
    for (lo, hi), flip in zip(q.bounds, reflect):
        bounds.append((-hi, -lo) if flip else (lo, hi))
    return BoxQuery(bounds)


# ---------------------------------------------------------------------------
# Rank reduction
# ---------------------------------------------------------------------------


def rank_order(values) -> np.ndarray:
    """Rank -> index permutation of ``values``: ascending, ties by index,
    NaN last; exactly ``np.argsort(values, kind="stable")``.

    It takes numpy's default sort, several times faster than the stable
    one, and repairs ties afterwards: when two neighbours in that order are
    equal (-0.0 and 0.0, or two NaNs), it sorts once more by the unique key
    ``dense rank * n + index``.  Every build ranks through here: a tree's
    first axis, a 1-D structure's values, and the y column of a forest,
    which ``dominance._fill`` ranks once for all its blocks.
    """
    values = np.asarray(values)
    order = np.argsort(values)
    ranked = values[order]
    tie = ranked[1:] == ranked[:-1]
    if ranked.dtype.kind == "f" and len(ranked) and ranked[-1] != ranked[-1]:
        nan = np.isnan(ranked)  # NaN sorts last and equals nothing
        tie |= nan[1:] & nan[:-1]
    if not tie.any():
        return order
    n = len(order)
    dense = np.empty(n, dtype=np.int64)
    dense[order] = np.concatenate(([0], np.cumsum(~tie)))
    dense *= n
    dense += np.arange(n)
    return np.argsort(dense)


def count_le(sorted_values, v: float, lo: int = 0, hi: int | None = None) -> int:
    """Number of entries <= v in ``sorted_values[lo:hi]`` (all of it by
    default), that is, the rank range inside the closed upper bound v.

    ``sorted_values`` is any ascending sequence; an ``array('d')`` reads
    fastest.  v is never NaN: every query path rejects NaN bounds first.
    """
    return bisect_right(sorted_values, v, lo, len(sorted_values) if hi is None else hi) - lo


def count_lt(sorted_values, v: float, lo: int = 0, hi: int | None = None) -> int:
    """Number of entries < v in ``sorted_values[lo:hi]``, the first rank
    inside the closed lower bound v."""
    return bisect_left(sorted_values, v, lo, len(sorted_values) if hi is None else hi) - lo


# ---------------------------------------------------------------------------
# Point sets
# ---------------------------------------------------------------------------


class PointSet:
    """A fixed set of colored, weighted points in R^d.

    Color ids are dense: ``phi`` equals one plus the largest id present.
    ``weights`` is one read-only 1-D array, the column every structure
    slices: int64 in count mode, where weights default to 1, and one
    Python object per point otherwise (default the int 1), so that a tuple
    weight stays one scalar.
    """

    __slots__ = ("coords", "colors", "weights", "mode", "phi", "labels")

    def __init__(self, coords, colors, weights=None, mode=COUNT, labels=None):
        if not isinstance(mode, (CountMode, SemigroupMode)):
            raise ParameterError(f"{mode!r} is not a weight mode")
        try:
            coords = np.array(coords, dtype=np.float64)
        except (TypeError, ValueError):
            raise MalformedInputError("coordinates must be numbers") from None
        if coords.ndim != 2:
            raise MalformedInputError("coords must be a 2-D (n, d) array")
        if coords.size and not np.all(np.isfinite(coords)):
            raise MalformedInputError("coordinates must be finite")
        colors = np.asarray(colors)
        if colors.shape != (len(coords),):
            raise MalformedInputError("colors must be one id per point")
        if colors.size and not np.issubdtype(colors.dtype, np.integer):
            raise MalformedInputError("color ids must be integers")
        colors = colors.astype(np.int64)
        if colors.size and colors.min() < 0:
            raise MalformedInputError("color ids must be non-negative")
        self.coords = coords
        self.colors = colors
        self.mode = mode
        self.phi = int(colors.max()) + 1 if colors.size else 0
        n = len(coords)
        if isinstance(mode, CountMode):
            if weights is None:
                w = np.ones(n, dtype=np.int64)
            else:
                if not isinstance(weights, np.ndarray) or weights.dtype == object:
                    # any iterable, an object array too, whose items numpy
                    # then types as it types a list's
                    try:
                        weights = list(weights)
                    except TypeError:
                        raise MalformedInputError("weights must be one per point") from None
                try:
                    w = np.asarray(weights)
                except ValueError:  # ragged
                    raise MalformedInputError("weights must be one per point") from None
                if w.shape != (n,):
                    raise MalformedInputError("weights must be one per point")
                if w.size and not np.issubdtype(w.dtype, np.integer):
                    raise MalformedInputError("count-mode weights must be integers")
                # every partial total is bounded by the sum of |weight|, so
                # int64 totals (the oracle's) cannot overflow past this check
                if sum(map(abs, w.tolist())) > INT64_MAX:
                    raise MalformedInputError("count-mode weights overflow int64 totals")
                w = w.astype(np.int64)
        else:
            try:
                w = np.fromiter([1] * n if weights is None else weights, dtype=object)
            except TypeError:
                raise MalformedInputError("weights must be an iterable of weights") from None
            if w.shape != (n,):
                raise MalformedInputError("weights must be one per point")
        w.setflags(write=False)
        self.weights = w
        if labels is not None:
            try:
                labels = tuple(map(str, labels))
            except TypeError:
                raise MalformedInputError("labels must be an iterable of labels") from None
            if len(labels) < self.phi:
                raise MalformedInputError("need one label per color id")
        self.labels = labels
        self.coords.setflags(write=False)
        self.colors.setflags(write=False)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_points(cls, points, mode=COUNT, labels=None) -> "PointSet":
        """Build from ColoredPoint objects or ``(coords, color[, weight])`` tuples.

        For 1-D data a flat ``(x, color[, weight])`` form is also accepted.
        """
        coords, colors, weights = [], [], []
        d = None
        try:
            points = iter(points)
        except TypeError:
            raise MalformedInputError(f"{points!r} is not an iterable of points") from None
        for p in points:
            if isinstance(p, ColoredPoint):
                c, col, w = p.coords, p.color, p.weight
            else:
                try:
                    first, col = p[0], p[1]
                    w = p[2] if len(p) > 2 else 1
                except (TypeError, IndexError, KeyError):
                    raise MalformedInputError(
                        f"{p!r} is not a (coords, color[, weight]) point"
                    ) from None
                if isinstance(first, (Sequence, np.ndarray)) and not isinstance(first, str):
                    c = tuple(first)
                else:
                    c = (first,)
            if d is None:
                d = len(c)
            elif len(c) != d:
                raise MalformedInputError(f"mixed dimensions: {len(c)} vs {d}")
            coords.append(c)
            colors.append(col)
            weights.append(w)
        if d is None:
            raise MalformedInputError("cannot infer dimension of an empty point list")
        return cls(coords, colors, weights, mode=mode, labels=labels)

    @classmethod
    def empty(cls, d: int, mode=COUNT) -> "PointSet":
        return cls(np.zeros((0, d)), np.zeros(0, dtype=np.int64), mode=mode)

    # -- views ---------------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.coords)

    @property
    def d(self) -> int:
        return self.coords.shape[1]

    def weight_at(self, i: int):
        return self.weights.item(i)

    def weight_list(self) -> list:
        return self.weights.tolist()

    def reflected(self, axes: Iterable[int]) -> "PointSet":
        """Copy with the listed coordinate axes negated."""
        try:
            axes = list(map(operator.index, axes))
        except TypeError:
            raise ParameterError(f"axes {axes!r} are not integers") from None
        coords = self.coords.copy()
        for a in axes:
            if not 0 <= a < self.d:
                raise ParameterError(f"axis {a} outside [0, {self.d})")
            coords[:, a] = -coords[:, a]
        return PointSet(coords, self.colors, self.weights, self.mode, self.labels)

    def label_of(self, color: int) -> str:
        if self.labels is not None:
            return self.labels[color]
        return f"c{color}"

    def row(self, i: int) -> ColoredPoint:
        return ColoredPoint(tuple(self.coords[i]), int(self.colors[i]), self.weight_at(i))


# ---------------------------------------------------------------------------
# Frequency lists
# ---------------------------------------------------------------------------

# A frequency list is a plain list of (color, weight) pairs with distinct
# colors and non-identity weights.  Comparisons are always by multiset.


def canonical_freq(entries) -> tuple:
    """Order-free canonical form used for multiset comparisons."""
    try:
        return tuple(sorted((int(c), w) for c, w in entries))
    except (TypeError, ValueError):
        raise MalformedInputError("entries must be (color, weight) pairs") from None


def freq_total(entries) -> int:
    """Sum of reported counts (count mode only)."""
    try:
        return sum(int(w) for _, w in entries)
    except (TypeError, ValueError):
        raise MalformedInputError("entries must be (color, count) pairs") from None


# ---------------------------------------------------------------------------
# Query sessions
# ---------------------------------------------------------------------------


class QuerySession:
    """Per-query scratch state: an accumulator plus probe counters.

    Structures are immutable and may be queried concurrently as long as each
    concurrent caller owns its own session.  Counters are reset at the start
    of every query and describe the last query only.
    """

    __slots__ = ("accumulator", "probes", "substructure_queries", "fanout")

    def __init__(self, accumulator=None):
        self.accumulator = accumulator
        self.probes = 0
        self.substructure_queries = 0
        self.fanout = 0

    def reset(self):
        self.probes = 0
        self.substructure_queries = 0
        self.fanout = 0


# ---------------------------------------------------------------------------
# Text formats
# ---------------------------------------------------------------------------
#
# Dataset, one point per line:   x1 x2 ... xd <color-label> [weight]
# Queries, one box per line:     lo1 hi1 lo2 hi2 ... (tokens -inf / inf)
# '#' starts a comment, blank lines are skipped.


def _open(path, mode, error):
    """``open(path, mode)`` as UTF-8 text, ``error`` raised for a path that
    is not a file name."""
    try:
        return open(path, mode, encoding="utf-8")
    except TypeError:
        raise error(f"path {path!r} is not a file name") from None


def _data_lines(path, error):
    with _open(path, "r", error) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if line:
                yield line


def _is_number(tok: str) -> bool:
    try:
        float(tok)
    except ValueError:
        return False
    return True


def read_dataset(path, d: int | None = None, mode=COUNT) -> PointSet:
    """Parse the dataset text format.

    When ``d`` is omitted it is inferred from the first line: the first
    token that does not parse as a number is taken to be the color label.
    """
    rows = [line.split() for line in _data_lines(path, MalformedInputError)]
    if not rows:
        raise MalformedInputError(f"{path}: empty dataset")
    if d is None:
        d = 0
        while d < len(rows[0]) and _is_number(rows[0][d]):
            d += 1
        if d == len(rows[0]):
            raise MalformedInputError(
                f"{path}: all tokens numeric; pass the dimension explicitly"
            )
    coords, raw_labels, weights = [], [], []
    for lineno, toks in enumerate(rows, start=1):
        if len(toks) not in (d + 1, d + 2):
            raise MalformedInputError(
                f"{path}:{lineno}: expected {d} coords + label [+ weight], got {len(toks)} tokens"
            )
        try:
            coords.append([float(t) for t in toks[:d]])
            weights.append(int(toks[d + 1]) if len(toks) == d + 2 else 1)
        except ValueError as exc:
            raise MalformedInputError(f"{path}:{lineno}: {exc}") from None
        raw_labels.append(toks[d])
    # densify labels in first-appearance order
    ids: dict[str, int] = {}
    colors = []
    for lab in raw_labels:
        if lab not in ids:
            ids[lab] = len(ids)
        colors.append(ids[lab])
    labels = list(ids)
    return PointSet(np.asarray(coords).reshape(len(coords), d), colors, weights, mode, labels)


def write_dataset(ps: PointSet, path) -> None:
    """Write ``ps`` in the dataset format; read_dataset(path, d=ps.d) reads it back.

    A label must be one token that '#' does not cut short, and labels must
    differ, since the format names colors only by their labels.  Weights
    must be integers, which is all the format reads.
    """
    if not isinstance(ps, PointSet):
        raise MalformedInputError(f"points must be a PointSet, not {type(ps).__name__}")
    labels = [ps.label_of(c) for c in sorted(set(ps.colors.tolist()))]
    for label in labels:
        if not label or "#" in label or any(ch.isspace() for ch in label):
            raise MalformedInputError(f"label {label!r} cannot be written as one token")
    if len(set(labels)) != len(labels):
        raise MalformedInputError("two colors share a label")
    try:
        weights = [operator.index(w) for w in ps.weight_list()]
    except TypeError:
        raise MalformedInputError("only integer weights can be written") from None
    with _open(path, "w", MalformedInputError) as fh:
        for i, w in enumerate(weights):
            coords = " ".join(repr(float(x)) for x in ps.coords[i])
            tail = f" {w}" if w != 1 else ""
            fh.write(f"{coords} {ps.label_of(int(ps.colors[i]))}{tail}\n")


def read_queries(path, d: int | None = None) -> list[BoxQuery]:
    out = []
    for lineno, line in enumerate(_data_lines(path, MalformedQueryError), start=1):
        toks = line.split()
        if d is None:
            if len(toks) % 2:
                raise MalformedQueryError(f"{path}:{lineno}: odd token count")
            d = len(toks) // 2
        if len(toks) != 2 * d:
            raise MalformedQueryError(
                f"{path}:{lineno}: expected {2 * d} tokens, got {len(toks)}"
            )
        try:
            vals = [float(t) for t in toks]
        except ValueError as exc:
            raise MalformedQueryError(f"{path}:{lineno}: {exc}") from None
        out.append(BoxQuery(list(zip(vals[0::2], vals[1::2]))))
    return out


def write_queries(queries: Iterable[BoxQuery], path) -> None:
    try:
        lines = [" ".join(f"{lo!r} {hi!r}" for lo, hi in q.bounds) + "\n" for q in queries]
    except (AttributeError, TypeError, ValueError):
        raise MalformedQueryError("queries must be an iterable of BoxQuery objects") from None
    with _open(path, "w", MalformedQueryError) as fh:
        fh.writelines(lines)
