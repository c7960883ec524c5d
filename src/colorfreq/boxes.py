"""General box queries by layering binary trees over a dominance structure.

Each axis that needs bounds on both sides gets a layer: a balanced binary
tree on that axis.  Every internal node stores two inner structures of the
next lower sidedness — one over its left child's points with the axis
negated (so a "bounded from below" side becomes canonical), one over its
right child's points as-is.  A two-sided query locates the highest node
whose splitter falls inside its range and fans out into the two inner
structures; repeated over all layers this ends at plain dominance queries,
so no frequency list is ever subtracted.

Each layer also keeps two full-set inner structures (negated and plain):
queries that are one-sided or unbounded on the layer's axis go straight to
the matching one, keeping the fan-out at 2^(number of two-sided axes).

A box builds its layers level by level, one level per layered axis, and
keeps each level as one set of columns (``_Level``).  The layers of a level
stand for the parts of the layers above it (all points for the first), and
one ``_ranked_groups`` call ranks all of them at once.  Part j of a level's
layers is layer j of the next level, which the level's int link columns
name.  The parts of the last level are the dominance skeletons at the
bottom: ranked on the first axis the same way and gathered, with their sign
flips, in one step, they are the trees of one forest (see
``DominanceTree``), filled at once; the last level's links hold their tree
ids.
"""

from __future__ import annotations

import functools
import operator
from array import array
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .core import (
    BoxQuery,
    COUNT,
    INF,
    MalformedInputError,
    MalformedQueryError,
    ParameterError,
    PointSet,
    QuerySession,
    UnsupportedShapeError,
    count_le,
    count_lt,
)
from .dominance import (
    ColorAccumulator,
    DominanceTree,
    _check_fanout,
    _coerce_points,
    _fill,
    _ranked_groups,
    _ready,
    _scan_range,
)
from .freq1d import _column, _sort_charge

_LAYER_LEAF = 2  # leaf capacity of layer trees; keeps copies within log2(n)+1


def _split_rank(lo, hi):
    """The rank where the layer node over ranks [lo, hi) splits, None for a leaf."""
    return (lo + hi) // 2 if hi - lo > _LAYER_LEAF else None


@functools.lru_cache(maxsize=256)
def _node_count(n) -> int:
    """The nodes of a layer over n ranks, none when n = 0; one depth holds at
    most two node sizes."""
    if n <= _LAYER_LEAF:
        return min(n, 1)
    return 1 + _node_count(n // 2) + _node_count(n - n // 2)


def _layer_parts(n):
    """The parts of a layer over n ranks, each the points of a rank range
    that one of its inner structures holds, as ``(lo, hi, low)``; a box
    build computes them once per layer size.

    Part i covers ranks [lo[i], hi[i]), negated on the layer's axis when
    ``low[i]``: the inner nodes' low and high parts in breadth-first
    order, then the full low and full high parts over [0, n).  An inner
    node's mid is the end of its low part.
    """
    bounds = []
    nodes = [(0, n)]
    for lo, hi in nodes:  # grows while iterated: breadth-first
        mid = _split_rank(lo, hi)
        if mid is not None:
            nodes += (lo, mid), (mid, hi)
            bounds += (lo, mid), (mid, hi)
    bounds += (0, n), (0, n)
    lo, hi = np.array(bounds, dtype=np.int64).reshape(-1, 2).T
    low = np.arange(len(bounds)) % 2 == 0
    for a in (lo, hi, low):
        a.flags.writeable = False
    return lo, hi, low


def _locate(vals, off, end, low, high):
    """(node, steps) for the closed range [low, high] in the layer whose
    rank values are ``vals[off:end]``.

    The tree follows from the layer's size: the root covers ranks [0, end -
    off), and an inner node [lo, hi) splits at ``mid = _split_rank(lo,
    hi)`` into [lo, mid) and [mid, hi).  The node, as its rank range (lo,
    hi), is the highest one whose mid falls strictly inside the range's
    ranks [rlo, rhi), else the leaf holding them, and None when the range
    holds no point.  ``steps`` counts the inner nodes the descent visited.
    """
    rlo = count_lt(vals, low, off, end)
    rhi = count_le(vals, high, off, end)
    if rlo >= rhi:
        return None, 0
    lo, hi = 0, end - off
    steps = 0
    while (mid := _split_rank(lo, hi)) is not None:
        steps += 1
        if rhi <= mid:
            hi = mid
        elif rlo >= mid:
            lo = mid
        else:
            break
    return (lo, hi), steps


def _ranked_level(coords, colors, weights, rows, start, size, sign, axis):
    """A level's layers on ``axis``: the groups [start[i], start[i] +
    size[i]) of ``rows``, each signed by its row of ``sign`` and ranked by
    ``_ranked_groups``, as ``(rows, coords, colors, weights, vals)``: the
    rows, their points signed, their colors, their weights (a gather of
    ``PointSet.weights``), and the rank values ``coords[:, axis]`` as an
    ``array('d')``."""
    rows = _ranked_groups(rows, start, size, coords[rows, axis], sign[:, axis])
    signed = coords[rows]
    if (sign < 0).any():
        signed *= np.repeat(sign, size, axis=0)
    return rows, signed, colors[rows], weights[rows], array("d", signed[:, axis].tobytes())


def _parts_of(size, sign, axis, layer_parts):
    """The parts of the layers on ``axis`` over consecutive runs of
    ``size`` rows, signed by their rows of ``sign``, as the next level's
    groups ``(start, size, sign)``, and the layers' offsets and links to
    their parts, the ``_Level`` columns ``(start, inner_low, inner_high,
    full_low, full_high)``.

    A layer's parts are consecutive, in ``layer_parts`` order, and the
    layers of one size come together, sizes ascending: part j is layer j of
    the next level, or tree j of the forest after the last level."""
    offs = np.cumsum(size) - size
    inner = np.full((2, int(size.sum())), -1, dtype=np.int64)  # -1 where no mid is
    full = np.empty((2, len(size)), dtype=np.int64)
    starts, sizes, signs = [], [], []
    count = 0
    for m in sorted(set(size.tolist())):
        layers = np.flatnonzero(size == m)
        lo, hi, low = layer_parts(m)
        parts = len(lo)
        first = count + parts * np.arange(len(layers))[:, None]
        count += parts * len(layers)
        mids = (offs[layers, None] + hi[:-2:2]).ravel()
        inner[:, mids] = (first + np.arange(parts - 2)).reshape(-1, 2).T
        full[:, layers] = (first + [parts - 2, parts - 1]).T
        starts.append((offs[layers, None] + lo).ravel())
        sizes.append(np.tile(hi - lo, len(layers)))
        part_sign = np.repeat(sign[layers], parts, axis=0)
        part_sign[np.tile(low, len(layers)), axis] *= -1
        signs.append(part_sign)
    layout = [_column("q", a) for a in (np.append(offs, inner.shape[1]), *inner, *full)]
    return (np.concatenate(starts), np.concatenate(sizes), np.concatenate(signs)), layout


@dataclass(frozen=True, slots=True, eq=False)
class _Level:
    """The layers on one axis, as columns.  Layer i is the rows [start[i],
    start[i + 1]): its points in rank order on ``axis`` (ties by their
    order on input), signed, with their colors, weights (gathered from
    ``PointSet.weights``) and rank values ``vals``.
    ``inner_low``/``inner_high`` hold per row, at the row of a node's mid,
    the node's inner structures, and ``full_low``/``full_high`` per layer
    its full ones: layer ids of the next level, or tree ids of the forest
    at the last level."""

    axis: int
    coords: np.ndarray
    colors: np.ndarray
    weights: np.ndarray
    vals: array
    start: array
    inner_low: array
    inner_high: array
    full_low: array
    full_high: array


class BoxTree:
    """Layered structure answering axis-aligned box frequency queries.

    ``bounded_axes`` lists the axes that may carry a finite lower bound
    (both-sided or lower-only).  All other axes must arrive upper-bounded
    or unbounded; reflect the data beforehand if a lower side is needed
    there: ``PointSet.reflected`` negates the data's axes, and
    ``normalize_query`` rewrites each query to match.  With no bounded axes
    this is exactly the dominance structure.
    """

    __slots__ = ("d", "s", "phi", "mode", "bounded_axes", "levels", "forest",
                 "stored_entries", "build_ops")

    def __init__(self, points: PointSet, s: int, bounded_axes=()):
        ps = points
        _check_fanout(s, ps.n)
        try:
            axes = tuple(sorted(set(map(operator.index, bounded_axes))))
        except TypeError:
            raise ParameterError(f"bounded axes {bounded_axes!r} are not integers") from None
        for a in axes:
            if not 0 <= a < ps.d:
                raise ParameterError(f"bounded axis {a} outside [0, {ps.d})")
        self.d = ps.d
        self.s = s
        self.phi = ps.phi
        self.mode = ps.mode
        self.bounded_axes = axes
        self.build_ops = 0
        self.levels, self.forest = self._build(ps, axes)
        _fill(self.forest)
        self.stored_entries = self.forest.stored_entries
        self.build_ops += self.forest.build_ops

    # -- construction ----------------------------------------------------------

    def _build(self, ps, axes):
        """The levels over ``axes``, one per axis, and the skeleton forest
        at their bottom, as (levels, forest).  Tree t of the forest is the
        t-th part of the last level.

        A level holds the parts of the level above it, or all points for
        the first: groups of points, each given as a range of the rows (the
        point indexes) of the level above, in its rank order there, and a
        sign per axis.  ``_ranked_level`` orders every group of a level at
        once on the level's axis and gathers the level's columns, and
        ``_ranked_groups`` the last level's parts, signed, on the first
        axis for the forest.  The levels' sorts are booked.
        """
        n, d = ps.n, ps.d
        layer_parts = functools.cache(_layer_parts)  # sizes repeat within a build
        rows = np.arange(n)
        start, size, sign = np.zeros(1, dtype=np.int64), np.array([n]), np.ones((1, d))
        levels = []
        for axis in axes:
            rows, *columns = _ranked_level(ps.coords, ps.colors, ps.weights, rows, start, size,
                                           sign, axis)
            for m, count in Counter(size.tolist()).items():
                self.build_ops += count * _sort_charge(m)
            (start, size, sign), layout = _parts_of(size, sign, axis, layer_parts)
            levels.append(_Level(axis, *columns, *layout))
        rows = _ranked_groups(rows, start, size, ps.coords[rows, 0], sign[:, 0])
        coords = ps.coords[rows] * np.repeat(sign, size, axis=0)
        return tuple(levels), DominanceTree._forest(coords, ps.colors[rows], ps.weights[rows],
                                                    self.s, self.phi, self.mode, size.tolist())

    # -- queries -----------------------------------------------------------------

    def new_session(self) -> QuerySession:
        return QuerySession(ColorAccumulator(self.phi, self.mode))

    def query(self, q: BoxQuery, session: QuerySession | None = None) -> list:
        if not isinstance(q, BoxQuery):
            raise MalformedQueryError("box structure takes BoxQuery objects")
        if q.dimension != self.d:
            raise MalformedQueryError(
                f"query dimension {q.dimension} != structure dimension {self.d}"
            )
        for axis, (lo, hi) in enumerate(q.bounds):
            if lo != -INF and axis not in self.bounded_axes:
                raise UnsupportedShapeError(
                    f"axis {axis} has a lower bound but no layer; "
                    f"rebuild with it in bounded_axes"
                )
        session = _ready(session, self.phi, self.mode)
        self._query_rec(0, 0, list(q.bounds), session)
        return session.accumulator.drain_and_reset()

    def _query_rec(self, lv, layer, bounds, session) -> None:
        """Descend from layer ``layer`` of level ``lv`` with ``bounds``, a
        list of (lo, hi) per axis, by an explicit stack of (level, layer,
        bounds): each layer part is answered before the parts that follow
        it, a node's low part before its high part, and each tree of the
        forest, a layer past the last level, is reached as a dominance
        query."""
        levels, forest = self.levels, self.forest
        depth = len(levels)
        stack = [(lv, layer, bounds)]
        while stack:
            lv, layer, bounds = stack.pop()
            if lv == depth:  # a tree id of the forest
                session.fanout += 1
                forest._query_into(tuple([hi for _, hi in bounds]), session, layer)
                continue
            level = levels[lv]
            axis = level.axis
            lo, hi = bounds[axis]
            if lo == -INF:
                # one-sided (or unbounded) on this axis: single plain inner query
                stack.append((lv + 1, level.full_high[layer], bounds))
                continue
            if hi == INF:
                nb = list(bounds)
                nb[axis] = (-INF, -lo)
                stack.append((lv + 1, level.full_low[layer], nb))
                continue
            # the descent is charged to the probe counter, separate from fan-out
            off = level.start[layer]
            node, steps = _locate(level.vals, off, level.start[layer + 1], lo, hi)
            session.probes += steps
            if node is None:
                continue  # empty slab on this axis
            a, b = node
            mid = _split_rank(a, b)
            if mid is None:
                # the range falls inside a leaf gap: check its few points on every axis
                session.fanout += 1
                _scan_range(level.coords, level.colors, level.weights, off + a, off + b,
                            bounds, session.accumulator)
                continue
            nb_high = list(bounds)
            nb_high[axis] = (-INF, hi)
            nb_low = list(bounds)
            nb_low[axis] = (-INF, -lo)
            stack.append((lv + 1, level.inner_high[off + mid], nb_high))
            stack.append((lv + 1, level.inner_low[off + mid], nb_low))


def build_box(points, d: int | None = None, s: int = 2, bounded_axes=(), mode=COUNT) -> BoxTree:
    """Build a box structure supporting two-sided bounds on ``bounded_axes``."""
    ps = _coerce_points(points, mode=mode)
    if d is not None and d != ps.d:
        raise MalformedInputError(f"requested d={d} but points have d={ps.d}")
    return BoxTree(ps, s, bounded_axes)
