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

The dominance skeletons at the bottom of the layers are the trees of one
forest (see ``DominanceTree``), filled at once; the last layer holds their
tree ids.
"""

from __future__ import annotations

import functools
import operator
from array import array
from itertools import chain

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
    _ready,
    _scan_range,
)
from .freq1d import _sort_charge

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


class _Layer:
    """One axis's rank order and the binary split tree over it.

    The tree follows from n: the root covers ranks [0, n), and an inner
    node [lo, hi) splits at ``mid = _split_rank(lo, hi)`` into [lo, mid)
    and [mid, hi).  No two inner nodes share a mid, so box trees keep a
    node's inner structures at it, in ``inner_low[mid]`` and
    ``inner_high[mid]``; offline three-sided batches place their queries on
    nodes given as rank ranges.  The layer's weights and inner structures
    are tuples, which the cyclic collector stops tracking once it has seen
    that they hold only ints, weights and tree ids.
    """

    __slots__ = ("axis", "coords_r", "colors_r", "weights_r", "sorted_vals",
                 "inner_low", "inner_high", "full_low", "full_high")

    def __init__(self, axis, coords, colors, weights):
        order = rank_order(coords[:, axis])
        self.axis = axis
        self.coords_r = coords[order]
        self.colors_r = colors[order]
        self.weights_r = tuple(map(weights.__getitem__, order.tolist()))
        self.sorted_vals = array("d", self.coords_r[:, axis].tobytes())
        self.inner_low = self.inner_high = None
        self.full_low = self.full_high = None

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


class BoxTree:
    """Layered structure answering axis-aligned box frequency queries.

    ``bounded_axes`` lists the axes that may carry a finite lower bound
    (both-sided or lower-only).  All other axes must arrive upper-bounded
    or unbounded; reflect the data beforehand if a lower side is needed
    there.  With no bounded axes this is exactly the dominance structure.
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
        parts = []
        self.top = self._build(ps.coords, ps.colors, ps.weight_list(), list(axes), parts)
        coords, colors, weights = zip(*parts)
        self.forest = DominanceTree._forest(
            np.concatenate(coords), np.concatenate(colors), list(chain.from_iterable(weights)),
            [len(c) for c in colors], s, self.phi, self.mode,
        )
        _fill(self.forest)
        self.stored_entries = self.forest.stored_entries
        self.build_ops += self.forest.build_ops

    # -- construction ----------------------------------------------------------

    def _build(self, coords, colors, weights, layer_axes, parts):
        """The layers over ``layer_axes``; the points of each dominance
        skeleton at their bottom are appended to ``parts``, and its place
        there is its tree id in the forest."""
        if not layer_axes:
            parts.append((coords, colors, weights))
            return len(parts) - 1
        axis, rest = layer_axes[0], layer_axes[1:]
        n = len(coords)
        layer = _Layer(axis, coords, colors, weights)
        self.build_ops += _sort_charge(n)
        low, high = [None] * n, [None] * n
        nodes = [(0, n)]
        for lo, hi in nodes:  # grows while iterated: breadth-first
            mid = _split_rank(lo, hi)
            if mid is not None:
                nodes += (lo, mid), (mid, hi)
                low[mid] = self._build(*layer.low_half(lo, mid), rest, parts)
                high[mid] = self._build(*layer.high_half(mid, hi), rest, parts)
        layer.inner_low, layer.inner_high = tuple(low), tuple(high)
        layer.full_low = self._build(*layer.low_half(0, n), rest, parts)
        layer.full_high = self._build(*layer.high_half(0, n), rest, parts)
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
        session = _ready(session, self.phi, self.mode)
        self._query_rec(self.top, list(q.bounds), session)
        return session.accumulator.drain_and_reset()

    def _query_rec(self, struct, bounds, session) -> None:
        if not isinstance(struct, _Layer):  # a tree id of the forest
            corner = tuple(hi for _, hi in bounds)
            session.fanout += 1
            self.forest._query_into(corner, session, struct)
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
        # the descent is charged to the probe counter, separate from fan-out
        node, steps = layer.locate(lo, hi)
        session.probes += steps
        if node is None:
            return  # empty slab on this axis
        mid = _split_rank(*node)
        if mid is None:
            # the range falls inside a leaf gap: check its few points on every axis
            session.fanout += 1
            layer.scan(*node, bounds, session.accumulator)
            return
        nb_low = list(bounds)
        nb_low[layer.axis] = (-INF, -lo)
        self._query_rec(layer.inner_low[mid], nb_low, session)
        nb_high = list(bounds)
        nb_high[layer.axis] = (-INF, hi)
        self._query_rec(layer.inner_high[mid], nb_high, session)


def build_box(points, d: int | None = None, s: int = 2, bounded_axes=(), mode=COUNT) -> BoxTree:
    """Build a box structure supporting two-sided bounds on ``bounded_axes``."""
    ps = _coerce_points(points, mode=mode)
    if d is not None and d != ps.d:
        raise MalformedInputError(f"requested d={d} but points have d={ps.d}")
    return BoxTree(ps, s, bounded_axes)
