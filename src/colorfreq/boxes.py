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
"""

from __future__ import annotations

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
    _scan_range,
)
from .freq1d import _sort_charge

_LAYER_LEAF = 2  # leaf capacity of layer trees; keeps copies within log2(n)+1


class _LayerNode:
    __slots__ = ("lo", "hi", "mid", "left", "right", "inner_low", "inner_high")

    def __init__(self, lo, hi, mid=None, left=None, right=None, inner_low=None, inner_high=None):
        self.lo = lo
        self.hi = hi
        self.mid = mid
        self.left = left
        self.right = right
        self.inner_low = inner_low
        self.inner_high = inner_high

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class _Layer:
    """One doubly-bounded axis: rank order, node tree, and full-set inners."""

    __slots__ = ("axis", "coords_r", "colors_r", "weights_r", "sorted_vals", "root",
                 "full_low", "full_high")

    def __init__(self, axis, coords_r, colors_r, weights_r):
        self.axis = axis
        self.coords_r = coords_r
        self.colors_r = colors_r
        self.weights_r = weights_r
        self.sorted_vals = coords_r[:, axis]
        self.root = None
        self.full_low = None
        self.full_high = None


class BoxTree:
    """Layered structure answering axis-aligned box frequency queries.

    ``bounded_axes`` lists the axes that may carry a finite lower bound
    (both-sided or lower-only).  All other axes must arrive upper-bounded
    or unbounded; reflect the data beforehand if a lower side is needed
    there.  With no bounded axes this is exactly the dominance structure.
    """

    __slots__ = ("d", "s", "phi", "mode", "bounded_axes", "top",
                 "stored_entries", "build_ops")

    def __init__(self, points: PointSet, s: int, bounded_axes=()):
        ps = points
        _check_fanout(s, ps.n)
        axes = tuple(sorted(set(int(a) for a in bounded_axes)))
        for a in axes:
            if not 0 <= a < ps.d:
                raise ParameterError(f"bounded axis {a} outside [0, {ps.d})")
        self.d = ps.d
        self.s = s
        self.phi = ps.phi
        self.mode = ps.mode
        self.bounded_axes = axes
        self.stored_entries = 0
        self.build_ops = 0
        self.top = self._build(ps.coords, ps.colors, ps.weight_list(), list(axes))

    # -- construction ----------------------------------------------------------

    def _build(self, coords, colors, weights, layer_axes):
        if not layer_axes:
            sub = DominanceTree._from_parts(
                coords, colors, weights, s=self.s, phi=self.phi, mode=self.mode
            )
            self.stored_entries += sub.stored_entries
            self.build_ops += sub.build_ops
            return sub
        axis, rest = layer_axes[0], layer_axes[1:]
        coords = np.asarray(coords, dtype=np.float64)
        n = len(coords)
        order = rank_order(coords[:, axis])
        coords_r = coords[order]
        colors_r = np.asarray(colors, dtype=np.int64)[order]
        weights_r = [weights[i] for i in order]
        self.build_ops += _sort_charge(n)
        layer = _Layer(axis, coords_r, colors_r, weights_r)

        def negate(c):
            c = c.copy()
            c[:, axis] = -c[:, axis]
            return c

        def build_node(lo, hi):
            if hi - lo <= _LAYER_LEAF:
                return _LayerNode(lo, hi)
            mid = (lo + hi) // 2
            node = _LayerNode(lo, hi, mid)
            node.inner_low = self._build(
                negate(coords_r[lo:mid]), colors_r[lo:mid], weights_r[lo:mid], rest
            )
            node.inner_high = self._build(
                coords_r[mid:hi], colors_r[mid:hi], weights_r[mid:hi], rest
            )
            node.left = build_node(lo, mid)
            node.right = build_node(mid, hi)
            return node

        layer.root = build_node(0, n)
        layer.full_low = self._build(negate(coords_r), colors_r, weights_r, rest)
        layer.full_high = self._build(coords_r, colors_r, weights_r, rest)
        return layer

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
        if session is None:
            session = self.new_session()
        elif session.accumulator is None:
            session.accumulator = ColorAccumulator(self.phi, self.mode)
        session.reset()
        self._query_rec(self.top, list(q.bounds), session)
        return session.accumulator.drain_and_reset()

    def _query_rec(self, struct, bounds, session) -> None:
        if isinstance(struct, DominanceTree):
            corner = tuple(hi for _, hi in bounds)
            session.fanout += 1
            struct._query_into(corner, session)
            return
        layer: _Layer = struct
        lo, hi = bounds[layer.axis]
        if lo == -INF:
            # one-sided (or unbounded) on this axis: single plain inner query
            self._query_rec(layer.full_high, bounds, session)
            return
        if hi == INF:
            nb = list(bounds)
            nb[layer.axis] = (-INF, -lo)
            self._query_rec(layer.full_low, nb, session)
            return
        rlo = count_lt(layer.sorted_vals, lo)
        rhi = count_le(layer.sorted_vals, hi)
        if rlo >= rhi:
            return  # empty slab on this axis
        # locate the highest node whose splitter falls inside the range;
        # the walk is charged to the probe counter, separate from fan-out
        node = layer.root
        while not node.is_leaf:
            session.probes += 1
            if rhi <= node.mid:
                node = node.left
            elif rlo >= node.mid:
                node = node.right
            else:
                break
        if node.is_leaf:
            # the range falls inside a leaf gap: check its few points on every axis
            session.fanout += 1
            _scan_range(layer.coords_r, layer.colors_r, layer.weights_r,
                        node.lo, node.hi, bounds, session.accumulator)
            return
        nb_low = list(bounds)
        nb_low[layer.axis] = (-INF, -lo)
        self._query_rec(node.inner_low, nb_low, session)
        nb_high = list(bounds)
        nb_high[layer.axis] = (-INF, hi)
        self._query_rec(node.inner_high, nb_high, session)


def build_box(points, d: int | None = None, s: int = 2, bounded_axes=(), mode=COUNT) -> BoxTree:
    """Build a box structure supporting two-sided bounds on ``bounded_axes``."""
    ps = _coerce_points(points, mode=mode)
    if d is not None and d != ps.d:
        raise MalformedInputError(f"requested d={d} but points have d={ps.d}")
    return BoxTree(ps, s, bounded_axes)
