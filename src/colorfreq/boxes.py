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

A box builds its layers level by level, one level per layered axis.  The
layers of a level stand for the parts of the layers above it (all points
for the first level), and one ``rank_order`` of the rows of the level above
ranks all of them at once; they keep their columns as views and slices of
columns the level shares.  The parts of the last level are the dominance
skeletons at the bottom: ranked on the first axis the same way and
gathered, with their sign flips, in one step, they are the trees of one
forest (see ``DominanceTree``), filled at once; the last level's layers
hold their tree ids.
"""

from __future__ import annotations

import functools
import operator
from array import array
from collections import Counter

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
    rank_order,
)
from .dominance import (
    ColorAccumulator,
    DominanceTree,
    _check_fanout,
    _coerce_points,
    _fill,
    _ranked_ranges,
    _ready,
    _scan_range,
)
from .freq1d import _sort_charge, _weight_array

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
    that one of its inner structures holds, as ``(lo, hi, low, low_slots,
    high_slots)``; a box build computes them once per layer size.

    Part i covers ranks [lo[i], hi[i]), negated on the layer's axis when
    ``low[i]``: the inner nodes' low and high parts in breadth-first
    order, then the full low and full high parts over [0, n).  The slots
    map a rank to the part that ``inner_low`` and ``inner_high`` keep
    there: at a node's mid its part, elsewhere n_parts, one past the last.
    """
    bounds = []
    nodes = [(0, n)]
    for lo, hi in nodes:  # grows while iterated: breadth-first
        mid = _split_rank(lo, hi)
        if mid is not None:
            nodes += (lo, mid), (mid, hi)
            bounds += (lo, mid), (mid, hi)
    bounds += (0, n), (0, n)
    parts = len(bounds)
    low_slots, high_slots = [parts] * n, [parts] * n
    for i in range(0, parts - 2, 2):
        low_slots[bounds[i][1]] = i
        high_slots[bounds[i][1]] = i + 1
    lo, hi = np.array(bounds, dtype=np.int64).reshape(-1, 2).T
    low = np.arange(parts) % 2 == 0
    for a in (lo, hi, low):
        a.flags.writeable = False
    return lo, hi, low, tuple(low_slots), tuple(high_slots)


class _Layer:
    """One axis's rank order and the binary split tree over it.

    The tree follows from n: the root covers ranks [0, n), and an inner
    node [lo, hi) splits at ``mid = _split_rank(lo, hi)`` into [lo, mid)
    and [mid, hi).  No two inner nodes share a mid, so box trees keep a
    node's inner structures at it, in ``inner_low[mid]`` and
    ``inner_high[mid]``; offline three-sided batches place their queries on
    nodes given as rank ranges.  The columns are the layer's points in rank
    order (ties by their order on input); a box's layers of one level take
    them as views and slices of columns shared by the level.  The layer's
    weights and inner structures are tuples, which the cyclic collector
    stops tracking once it has seen that they hold only ints, weights and
    tree ids.
    """

    __slots__ = ("axis", "coords_r", "colors_r", "weights_r", "sorted_vals",
                 "inner_low", "inner_high", "full_low", "full_high")

    def __init__(self, axis, coords_r, colors_r, weights_r, sorted_vals):
        self.axis = axis
        self.coords_r = coords_r
        self.colors_r = colors_r
        self.weights_r = weights_r
        self.sorted_vals = sorted_vals
        self.inner_low = self.inner_high = None
        self.full_low = self.full_high = None

    @classmethod
    def ranked(cls, axis, coords, colors, weights):
        """The layer on ``axis`` over points in any order."""
        order = rank_order(coords[:, axis])
        coords_r = coords[order]
        return cls(axis, coords_r, colors[order], tuple(map(weights.__getitem__, order.tolist())),
                   array("d", coords_r[:, axis].tobytes()))

    def locate(self, low, high):
        """(node, steps) for the closed range [low, high] on this axis.

        The node, as its rank range (lo, hi), is the highest one whose mid
        falls strictly inside the range's ranks [rlo, rhi), else the leaf
        holding them, and None when the range holds no point.  ``steps``
        counts the inner nodes the descent visited.
        """
        rlo = count_lt(self.sorted_vals, low)
        rhi = count_le(self.sorted_vals, high)
        if rlo >= rhi:
            return None, 0
        lo, hi = 0, len(self.sorted_vals)
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

    def low_half(self, lo, hi):
        """(coords, colors, weights) of ranks [lo, hi), this axis negated, so
        a lower bound on it becomes an upper bound."""
        coords = self.coords_r[lo:hi].copy()
        coords[:, self.axis] = -coords[:, self.axis]
        return coords, self.colors_r[lo:hi], self.weights_r[lo:hi]

    def high_half(self, lo, hi):
        """(coords, colors, weights) of ranks [lo, hi) as they are."""
        return self.coords_r[lo:hi], self.colors_r[lo:hi], self.weights_r[lo:hi]

    def scan(self, lo, hi, bounds, acc) -> None:
        """Add to ``acc`` the points of ranks [lo, hi) inside ``bounds``."""
        _scan_range(self.coords_r, self.colors_r, self.weights_r, lo, hi, bounds, acc)


def _ranked_groups(rows, start, size, values, sign):
    """The groups [start[i], start[i] + size[i]) of ``rows``, one after
    another, each in rank order of ``values`` (one per row) times its
    ``sign[i]``, ties by position: the order ``rank_order`` gives the
    group's signed values on its own.  A group negated takes its range of
    the values' negations, placed after the values themselves."""
    n = len(rows)
    both = np.concatenate((values, -values))
    return np.concatenate((rows, rows))[_ranked_ranges(start + n * (sign < 0), size, both)]


def _parts_of(size, sign, axis, layer_parts):
    """The parts of the layers on ``axis`` over consecutive runs of
    ``size`` rows, signed by their rows of ``sign``, as the next level's
    groups ``(start, size, sign)``, with each layer's first part: a layer's
    parts are consecutive, in ``layer_parts`` order, and the layers of one
    size come together, sizes ascending."""
    offs = np.cumsum(size) - size
    first = np.empty(len(size), dtype=np.int64)
    starts, sizes, signs = [], [], []
    count = 0
    for m in sorted(set(size.tolist())):
        layers = np.flatnonzero(size == m)
        lo, hi, low, _, _ = layer_parts(m)
        first[layers] = count + len(lo) * np.arange(len(layers))
        count += len(lo) * len(layers)
        starts.append((offs[layers, None] + lo).ravel())
        sizes.append(np.tile(hi - lo, len(layers)))
        part_sign = np.repeat(sign[layers], len(lo), axis=0)
        part_sign[np.tile(low, len(layers)), axis] *= -1
        signs.append(part_sign)
    return np.concatenate(starts), np.concatenate(sizes), np.concatenate(signs), first


def _link(layers, first, layer_parts, below) -> None:
    """Give every layer its inner structures: ``below`` holds those of all
    their parts, layer i's from ``first[i]`` on."""
    below = list(below)
    for layer, f in zip(layers, first.tolist()):
        lo, _, _, low_slots, high_slots = layer_parts(len(layer.sorted_vals))
        mine = below[f:f + len(lo)] + [None]
        layer.inner_low = tuple(map(mine.__getitem__, low_slots))
        layer.inner_high = tuple(map(mine.__getitem__, high_slots))
        layer.full_low, layer.full_high = mine[-3], mine[-2]


class BoxTree:
    """Layered structure answering axis-aligned box frequency queries.

    ``bounded_axes`` lists the axes that may carry a finite lower bound
    (both-sided or lower-only).  All other axes must arrive upper-bounded
    or unbounded; reflect the data beforehand if a lower side is needed
    there: ``PointSet.reflected`` negates the data's axes, and
    ``normalize_query`` rewrites each query to match.  With no bounded axes
    this is exactly the dominance structure.
    """

    __slots__ = ("d", "s", "phi", "mode", "bounded_axes", "top", "forest",
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
        self.top, self.forest = self._build(ps, axes)
        _fill(self.forest)
        self.stored_entries = self.forest.stored_entries
        self.build_ops += self.forest.build_ops

    # -- construction ----------------------------------------------------------

    def _build(self, ps, axes):
        """The layers over ``axes``, one level per axis, and the skeleton
        forest at their bottom, as (top, forest).  Tree t of the forest is
        the t-th part of the last level.

        A level holds the parts of the level above it, or all points for
        the first: groups of points, each given as a range of the rows (the
        point indexes) of the level above, in its rank order there, and a
        sign per axis.  ``_ranked_groups`` orders every group of a level at
        once on the level's axis, and the last level's parts, signed, on
        the first axis for the forest.  The level's columns are gathered
        once and each layer takes its run of them.
        """
        n, d = ps.n, ps.d
        weights = _weight_array(ps.weights, ps.mode)
        layer_parts = functools.cache(_layer_parts)  # sizes repeat within a build
        rows = np.arange(n)
        start, size, sign = np.zeros(1, dtype=np.int64), np.array([n]), np.ones((1, d))
        above = None  # the layers of the level above and their first parts
        top = 0
        for axis in axes:
            rows = _ranked_groups(rows, start, size, ps.coords[rows, axis], sign[:, axis])
            layers = self._level(axis, ps, weights, rows, size, sign)
            if above is None:
                top = layers[0]
            else:
                _link(*above, layer_parts, layers)
            start, size, sign, first = _parts_of(size, sign, axis, layer_parts)
            above = layers, first
        if above is not None:
            _link(*above, layer_parts, range(len(size)))
        rows = _ranked_groups(rows, start, size, ps.coords[rows, 0], sign[:, 0])
        coords = ps.coords[rows] * np.repeat(sign, size, axis=0)
        return top, DominanceTree._forest(coords, ps.colors[rows], weights[rows], size.tolist(),
                                          self.s, self.phi, self.mode)

    def _level(self, axis, ps, weights, rows, size, sign):
        """The layers on ``axis`` over consecutive runs of ``size`` of
        ``rows``, each run in its layer's rank order and signed by its row
        of ``sign``; their sorts are booked."""
        coords = ps.coords[rows] * np.repeat(sign, size, axis=0)
        colors = ps.colors[rows]
        wts = tuple(weights[rows].tolist())
        vals = array("d", coords[:, axis].tobytes())
        ends = np.cumsum(size).tolist()
        layers = [_Layer(axis, coords[a:b], colors[a:b], wts[a:b], vals[a:b])
                  for a, b in zip([0] + ends[:-1], ends)]
        for m, count in Counter(size.tolist()).items():
            self.build_ops += count * _sort_charge(m)
        return layers

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
        self._query_rec(self.top, list(q.bounds), session)
        return session.accumulator.drain_and_reset()

    def _query_rec(self, struct, bounds, session) -> None:
        """Descend from ``struct`` with ``bounds``, a list of (lo, hi) per
        axis, by an explicit stack: each layer part is answered before the
        parts that follow it, a node's low part before its high part, and
        each tree of the forest is reached as a dominance query."""
        forest = self.forest
        stack = [(struct, bounds)]
        while stack:
            struct, bounds = stack.pop()
            if not isinstance(struct, _Layer):  # a tree id of the forest
                session.fanout += 1
                forest._query_into(tuple([hi for _, hi in bounds]), session, struct)
                continue
            axis = struct.axis
            lo, hi = bounds[axis]
            if lo == -INF:
                # one-sided (or unbounded) on this axis: single plain inner query
                stack.append((struct.full_high, bounds))
                continue
            if hi == INF:
                nb = list(bounds)
                nb[axis] = (-INF, -lo)
                stack.append((struct.full_low, nb))
                continue
            # the descent is charged to the probe counter, separate from fan-out
            node, steps = struct.locate(lo, hi)
            session.probes += steps
            if node is None:
                continue  # empty slab on this axis
            mid = _split_rank(*node)
            if mid is None:
                # the range falls inside a leaf gap: check its few points on every axis
                session.fanout += 1
                struct.scan(*node, bounds, session.accumulator)
                continue
            nb_high = list(bounds)
            nb_high[axis] = (-INF, hi)
            nb_low = list(bounds)
            nb_low[axis] = (-INF, -lo)
            stack.append((struct.inner_high[mid], nb_high))
            stack.append((struct.inner_low[mid], nb_low))


def build_box(points, d: int | None = None, s: int = 2, bounded_axes=(), mode=COUNT) -> BoxTree:
    """Build a box structure supporting two-sided bounds on ``bounded_axes``."""
    ps = _coerce_points(points, mode=mode)
    if d is not None and d != ps.d:
        raise MalformedInputError(f"requested d={d} but points have d={ps.d}")
    return BoxTree(ps, s, bounded_axes)
