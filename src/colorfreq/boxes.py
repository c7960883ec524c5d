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

    def __init__(self, lo, hi):
        self.lo = lo
        self.hi = hi
        self.mid = None
        self.left = None
        self.right = None
        self.inner_low = None
        self.inner_high = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class _Layer:
    """One axis's rank order and the binary split tree over it.

    ``nodes`` lists the tree breadth-first from the root; an internal node
    splits its rank range [lo, hi) at ``mid`` = (lo + hi) // 2.  Box trees
    hang their inner structures on the nodes; offline three-sided batches
    place their queries on them.
    """

    __slots__ = ("axis", "coords_r", "colors_r", "weights_r", "sorted_vals", "nodes",
                 "full_low", "full_high")

    def __init__(self, axis, coords, colors, weights):
        order = rank_order(coords[:, axis])
        self.axis = axis
        self.coords_r = coords[order]
        self.colors_r = colors[order]
        self.weights_r = [weights[i] for i in order]
        self.sorted_vals = self.coords_r[:, axis]
        self.nodes = [_LayerNode(0, len(coords))]
        for node in self.nodes:  # grows while iterated: breadth-first
            if node.hi - node.lo > _LAYER_LEAF:
                node.mid = (node.lo + node.hi) // 2
                node.left = _LayerNode(node.lo, node.mid)
                node.right = _LayerNode(node.mid, node.hi)
                self.nodes += (node.left, node.right)
        self.full_low = None
        self.full_high = None

    def locate(self, lo, hi):
        """(node, steps) for the closed range [lo, hi] on this axis.

        The node is the highest one whose splitter rank falls strictly
        inside the range's ranks [rlo, rhi), else the leaf holding them,
        and None when the range holds no point.  ``steps`` counts the
        internal nodes the descent visited.
        """
        rlo = count_lt(self.sorted_vals, lo)
        rhi = count_le(self.sorted_vals, hi)
        if rlo >= rhi:
            return None, 0
        node = self.nodes[0]
        steps = 0
        while not node.is_leaf:
            steps += 1
            if rhi <= node.mid:
                node = node.left
            elif rlo >= node.mid:
                node = node.right
            else:
                break
        return node, steps

    def low_half(self, lo, hi):
        """(coords, colors, weights) of ranks [lo, hi), this axis negated, so
        a lower bound on it becomes an upper bound."""
        coords = self.coords_r[lo:hi].copy()
        coords[:, self.axis] = -coords[:, self.axis]
        return coords, self.colors_r[lo:hi], self.weights_r[lo:hi]

    def high_half(self, lo, hi):
        """(coords, colors, weights) of ranks [lo, hi) as they are."""
        return self.coords_r[lo:hi], self.colors_r[lo:hi], self.weights_r[lo:hi]

    def scan(self, node, bounds, acc) -> None:
        """Add to ``acc`` the points of ``node`` inside ``bounds``."""
        _scan_range(self.coords_r, self.colors_r, self.weights_r,
                    node.lo, node.hi, bounds, acc)


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
        n = len(coords)
        layer = _Layer(axis, coords, colors, weights)
        self.build_ops += _sort_charge(n)
        for node in layer.nodes:
            if not node.is_leaf:
                node.inner_low = self._build(*layer.low_half(node.lo, node.mid), rest)
                node.inner_high = self._build(*layer.high_half(node.mid, node.hi), rest)
        layer.full_low = self._build(*layer.low_half(0, n), rest)
        layer.full_high = self._build(*layer.high_half(0, n), rest)
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
        # the descent is charged to the probe counter, separate from fan-out
        node, steps = layer.locate(lo, hi)
        session.probes += steps
        if node is None:
            return  # empty slab on this axis
        if node.is_leaf:
            # the range falls inside a leaf gap: check its few points on every axis
            session.fanout += 1
            layer.scan(node, bounds, session.accumulator)
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
