"""Dominance frequency reporting via a recursive s-ary strip tree.

The first coordinate axis is rank-reduced and partitioned into s strips
per node, down to single ranks.  Each strip stores a substructure over the
points left of it inside its node, projected onto the remaining axes: a
1-D frequency structure when one axis remains, otherwise a recursive tree.
A node's first strip starts at the node's own first rank, so every other
rank c starts exactly one strip with something left of it; the tree is
kept as two arrays over ranks, ``parent[c]`` (the first rank of that
strip's node) and ``prefix[c]`` (the structure over ranks [parent[c], c)).

A dominance query walks from the rank just below the query corner through
``parent`` down to rank 0; the ranges it passes tile the ranks left of the
corner.  It queries each one's structure with the remaining coordinates,
checks the corner's own rank directly, and merges the partial answers
through a color accumulator:
an array of phi weight cells plus a touched-list, so merging costs O(1)
per reported entry and draining costs O(k) regardless of phi.  The offline
sweep reuses the same walk and answer kernel over substructures it builds
and destroys along the way.
"""

from __future__ import annotations

import operator
from array import array
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .core import (
    BoxQuery,
    COUNT,
    ContractViolationError,
    CountMode,
    INF,
    MalformedInputError,
    MalformedQueryError,
    ParameterError,
    PointSet,
    QuerySession,
    count_le,
    rank_order,
)
from .freq1d import Frequency1D, _build_ranges, _sort_charge, _weight_array

# _fill streams the 1-D structures of a build through _build_ranges in
# chunks of at most _BATCH_CHUNK entries (a larger range is a chunk of its
# own), which bounds the numpy temporaries: an n=50k, s=16 tree peaks 30 MiB
# lower than with whole tree levels, at the same speed.
_BATCH_CHUNK = 1 << 14
# The offline sweep's builds of fewer than _BATCH_MIN entries run faster one
# Frequency1D at a time: _build_ranges has a fixed cost near 0.3 ms, and a
# single range breaks even at 150-200 entries against the one-by-one
# insertion and preorder walk.
_BATCH_MIN = 200


class ColorAccumulator:
    """phi weight cells with a touched-list for O(k) drain and reset.

    Cells start at the identity (represented as None so no semigroup
    identity element is required).  ``add`` is O(1); ``drain_and_reset``
    visits only the touched cells.
    """

    __slots__ = ("phi", "mode", "slots", "touched", "touch_ops", "drain_ops", "_count_mode")

    def __init__(self, phi: int, mode=COUNT):
        self.phi = phi
        self.mode = mode
        self.slots: list = [None] * phi
        self.touched: list[int] = []
        self.touch_ops = 0
        self.drain_ops = 0
        self._count_mode = isinstance(mode, CountMode)

    def add(self, color: int, weight) -> None:
        if not 0 <= color < self.phi:
            raise ContractViolationError(f"color {color} outside [0, {self.phi})")
        cur = self.slots[color]
        if cur is None:
            self.slots[color] = weight
            self.touched.append(color)
        else:
            self.slots[color] = self.mode.combine(cur, weight)
        self.touch_ops += 1

    def add_entries(self, entries) -> None:
        for c, w in entries:
            self.add(c, w)

    def drain_and_reset(self) -> list:
        out = []
        slots = self.slots
        for c in self.touched:
            self.drain_ops += 1
            w = slots[c]
            slots[c] = None
            if self._count_mode and w == 0:
                continue  # exact cancellation; never reported
            out.append((c, w))
        self.touched = []
        return out

    def is_fully_reset(self) -> bool:
        """Full phi-length scan; test helper only, never on the query path."""
        return not self.touched and all(s is None for s in self.slots)


def _ready(session: QuerySession | None, phi: int, mode) -> QuerySession:
    """``session``, reset for a query of a structure over ``phi`` colors in
    weight mode ``mode``, or a new session when it is None."""
    if session is None:
        return QuerySession(ColorAccumulator(phi, mode))
    acc = session.accumulator
    if acc is None:
        session.accumulator = ColorAccumulator(phi, mode)
    elif acc.phi < phi or acc.mode is not mode:
        raise ContractViolationError(
            f"session accumulator over {acc.phi} colors in mode {acc.mode.name!r} "
            f"cannot take a structure over {phi} colors in mode {mode.name!r}"
        )
    session.reset()
    return session


@dataclass
class TreeStats:
    stored_entries: int
    height: int
    node_count: int
    build_ops: int


class DominanceTree:
    """Static structure answering d-dimensional dominance frequency queries."""

    __slots__ = (
        "d",
        "s",
        "phi",
        "mode",
        "coords_r",
        "colors_r",
        "weights_r",
        "sorted0",
        "parent",
        "prefix",
        "index",
        "base",
        "stored_entries",
        "build_ops",
        "node_count",
        "height",
    )

    def __init__(self, points: PointSet, s: int):
        _check_fanout(s, points.n)
        self._init_from_parts(
            points.coords,
            points.colors,
            points.weight_list(),
            s=s,
            phi=points.phi,
            mode=points.mode,
        )
        _fill([self])

    @classmethod
    def _skeleton(cls, coords, colors, weights, s, phi, mode):
        """Rank order and strip tree only: the offline sweep builds the
        per-strip substructures itself, one walk at a time."""
        self = cls.__new__(cls)
        self._init_from_parts(coords, colors, weights, s=s, phi=phi, mode=mode)
        return self

    @classmethod
    def _from_parts(cls, coords, colors, weights, s, phi, mode):
        self = cls._skeleton(coords, colors, weights, s, phi, mode)
        _fill([self])
        return self

    def _init_from_parts(self, coords, colors, weights, s, phi, mode):
        coords = np.asarray(coords, dtype=np.float64)
        n, d = coords.shape
        self.d = d
        self.s = s
        self.phi = phi
        self.mode = mode
        self.stored_entries = 0
        self.build_ops = 0
        if d == 1:
            self.base = Frequency1D(coords[:, 0], colors, weights, mode=mode)
            self.coords_r = self.colors_r = self.weights_r = self.sorted0 = None
            self.parent = self.prefix = self.index = None
            self.stored_entries = self.base.entries
            self.build_ops = self.base.build_ops
            self.node_count = 1 if n else 0
            self.height = 0
            return
        self.base = None
        order = rank_order(coords[:, 0])
        self.coords_r = coords[order]
        self.colors_r = np.asarray(colors, dtype=np.int64)[order]
        self.weights_r = [weights[i] for i in order]
        self.sorted0 = array("d", self.coords_r[:, 0].tobytes())
        self.parent, self.node_count, self.height = _strips(n, s)
        self.prefix = [None] * n
        self.index = [0] * n
        if n:
            # the sort, one step per leaf and one per child link
            self.build_ops = _sort_charge(n) + n + self.node_count - 1

    # -- construction ----------------------------------------------------------

    def _build_substructure(self, lo: int, cut: int):
        """Structure over the remaining axes of the points with rank in
        [lo, cut), lo < cut, built on its own (the offline sweep's build)."""
        if self.d == 2:
            ys, colors = self.coords_r[lo:cut, 1], self.colors_r[lo:cut]
            weights = self.weights_r[lo:cut]
            if cut - lo < _BATCH_MIN:
                sub = Frequency1D(ys, colors, weights, self.mode)
            else:
                sub = _build_ranges(ys, colors, _weight_array(weights, self.mode),
                                    [(0, cut - lo)], self.mode)
            self.stored_entries += sub.entries
            self.build_ops += sub.build_ops
            return sub
        sub = DominanceTree._from_parts(
            self.coords_r[lo:cut, 1:],
            self.colors_r[lo:cut],
            self.weights_r[lo:cut],
            s=self.s,
            phi=self.phi,
            mode=self.mode,
        )
        self.stored_entries += sub.stored_entries
        self.build_ops += sub.build_ops
        return sub

    # -- queries -----------------------------------------------------------------

    def new_session(self) -> QuerySession:
        return QuerySession(ColorAccumulator(self.phi, self.mode))

    def query(self, q, session: QuerySession | None = None) -> list:
        """Per-color totals inside the dominance range ``q``.

        ``q`` may be a dominance BoxQuery or a plain upper-bound corner
        sequence.  Returns a frequency list; probe counters land on the
        session.  Without a session the call allocates its own.
        """
        corner = self._corner_of(q)
        session = _ready(session, self.phi, self.mode)
        self._query_into(corner, session)
        return session.accumulator.drain_and_reset()

    def _corner_of(self, q) -> tuple:
        if isinstance(q, BoxQuery):
            if q.dimension != self.d:
                raise MalformedQueryError(
                    f"query dimension {q.dimension} != structure dimension {self.d}"
                )
            if q.has_lower_bounds():
                raise MalformedQueryError("dominance structure cannot take lower bounds")
            return q.corner()
        corner = tuple(float(c) for c in q)
        if len(corner) != self.d:
            raise MalformedQueryError(
                f"corner dimension {len(corner)} != structure dimension {self.d}"
            )
        if any(c != c for c in corner):
            raise MalformedQueryError("corner has NaN coordinates")
        return corner

    def _query_into(self, corner, session: QuerySession) -> None:
        """Accumulate the answer for ``corner`` into the session's accumulator."""
        if self.d == 1:
            self._answer(((self.base, 0),), corner, 0, session)
            return
        rq = count_le(self.sorted0, corner[0])
        if rq == 0:
            return
        prefix, index = self.prefix, self.index
        self._answer([(prefix[c], index[c]) for c in self._walk_to(rq - 1)], corner[1:], rq,
                     session)

    def _walk_to(self, x: int) -> list:
        """The ranks c whose ranges [parent[c], c) tile [0, x), ascending."""
        parent, walk = self.parent, []
        while x:
            walk.append(x)
            x = parent[x]
        walk.reverse()
        return walk

    def _answer(self, structs, rest, rq: int, session: QuerySession) -> None:
        """Answer kernel shared by online queries and the offline sweep.

        ``structs`` holds the (structure, range index) pairs of the walk to
        rank ``rq - 1``, in its order; each is queried with ``rest``, the
        corner on the axes after the first.  The index picks a range of a
        1-D block (0 for a one-range structure) and is unused for a d >= 3
        subtree.  The point at rank ``rq - 1`` is then checked directly
        (none when rq = 0).  A d=1 tree passes its base structure, its whole
        corner and rq = 0.
        """
        acc = session.accumulator
        for struct, j in structs:
            session.substructure_queries += 1
            if isinstance(struct, Frequency1D):
                struct._prefix_into(rest[0], acc, session, j)
            else:
                struct._query_into(rest, session)
        if rq:
            session.substructure_queries += 1
            bounds = [(-INF, INF)] + [(-INF, c) for c in rest]
            _scan_range(self.coords_r, self.colors_r, self.weights_r, rq - 1, rq, bounds, acc)

    # -- instrumentation ---------------------------------------------------------

    def stats(self) -> TreeStats:
        return TreeStats(self.stored_entries, self.height, self.node_count, self.build_ops)


def _strips(n: int, s: int):
    """The strip tree over ranks [0, n) as ``(parent, node_count, height)``.

    A node of more than one rank splits into min(s, size) strips, the first
    ``size % s`` of them one rank longer than the rest; each strip is a
    child node, and single ranks are leaves.  ``parent[c]`` is the first
    rank of the node in which c starts a strip other than the first (0 for
    c = 0); ``height`` is the depth of the deepest leaf.
    """
    parent = [0] * n
    node_count, height = min(n, 1), 0
    level = [(0, n)] if n > 1 else []
    while level:
        height += 1
        deeper = []
        for lo, hi in level:
            q, r = divmod(hi - lo, s)
            k = min(s, hi - lo)
            node_count += k
            a = lo
            for i in range(k):
                b = a + q + (i < r)
                if i:
                    parent[a] = lo
                if b - a > 1:
                    deeper.append((a, b))
                a = b
        level = deeper
    return parent, node_count, height


def _fill(trees) -> None:
    """Give every strip of the skeletons ``trees`` its structure over the
    points left of it, and add the structures' counters to the trees.

    The trees share one weight mode.  Trees with d >= 3 get skeletons over
    their remaining axes, expanded in turn; then the 1-D structures of all
    d = 2 trees stream through ``_build_ranges`` in chunks of slices of the
    trees' arrays, one block per chunk: a strip's ``prefix`` is its
    chunk's block and its ``index`` its range there.  Counters of d >= 3
    trees are summed bottom-up.
    """
    flat, nested = [], []
    trees = list(trees)
    for tree in trees:  # grows while iterated
        if tree.d == 2:
            flat.append(tree)
        elif tree.d > 2:
            nested.append(tree)
            parent = tree.parent
            tree.prefix[1:] = [
                DominanceTree._skeleton(
                    tree.coords_r[parent[c]:c, 1:], tree.colors_r[parent[c]:c],
                    tree.weights_r[parent[c]:c], tree.s, tree.phi, tree.mode,
                )
                for c in range(1, len(parent))
            ]
            trees += tree.prefix[1:]
    for slots, ranges, parts in _strip_chunks(flat):
        ys, colors, weights = (np.concatenate(column) for column in zip(*parts))
        block = _build_ranges(ys, colors, weights, ranges, flat[0].mode)
        start, ops = block.start, block._ops
        for j, (tree, c) in enumerate(slots):
            tree.prefix[c] = block
            tree.index[c] = j
            tree.stored_entries += start[j + 1] - start[j]
            tree.build_ops += ops[j]
    for tree in reversed(nested):
        for sub in tree.prefix[1:]:
            tree.stored_entries += sub.stored_entries
            tree.build_ops += sub.build_ops


def _strip_chunks(trees):
    """Yield the strip ranges ``[parent[c], c)`` of the d = 2 ``trees`` in
    chunks of at most ``_BATCH_CHUNK`` entries, as ``(slots, ranges, parts)``.

    ``slots`` holds the ``(tree, c)`` of each range, in the order of
    ``ranges``.  Ranges with the same
    parent rank nest, so one ``(ys, colors, weights)`` slice of its tree's
    arrays per parent rank and chunk, in ``parts``, holds them all;
    ``ranges`` are their ``(lo, cut)`` in the concatenated parts.
    """
    slots, ranges, parts, size, base = [], [], [], 0, 0
    for tree in trees:
        ys, colors = tree.coords_r[:, 1], tree.colors_r
        weights = _weight_array(tree.weights_r, tree.mode)
        parent = tree.parent
        for lo, cuts in groupby(sorted(range(1, len(parent)), key=parent.__getitem__),
                                parent.__getitem__):
            top = lo  # [lo, top) is this parent rank's part in this chunk
            for cut in cuts:
                if slots and size + cut - lo > _BATCH_CHUNK:
                    if top > lo:
                        parts.append((ys[lo:top], colors[lo:top], weights[lo:top]))
                    yield slots, ranges, parts
                    slots, ranges, parts, size, base = [], [], [], 0, 0
                slots.append((tree, cut))
                ranges.append((base, base + cut - lo))
                size += cut - lo
                top = cut
            parts.append((ys[lo:top], colors[lo:top], weights[lo:top]))
            base += top - lo
    if slots:
        yield slots, ranges, parts


def _scan_range(coords, colors, weights, start: int, stop: int, bounds, acc) -> None:
    """Add to ``acc`` the points at ranks [start, stop) inside ``bounds``,
    one closed (lo, hi) pair per axis."""
    for pos in range(start, stop):
        for v, (lo, hi) in zip(coords[pos], bounds):
            if v < lo or v > hi:
                break
        else:
            acc.add(int(colors[pos]), weights[pos])


def ceil_log(base: int, n: int) -> int:
    """Smallest L with base**L >= n (0 for n <= 1); exact integer arithmetic."""
    if n <= 1:
        return 0
    level, power = 0, 1
    while power < n:
        power *= base
        level += 1
    return level


def dominance_space_bound(n: int, s: int, d: int) -> int:
    """Worst-case stored mapped points: n * ((s-1) * (ceil_log_s(n)+1))^(d-1)."""
    if d <= 1:
        return n
    return n * ((s - 1) * (ceil_log(s, n) + 1)) ** (d - 1)


def dominance_path_bound(n: int, s: int) -> int:
    """Per-query substructure-query bound for one tree level: ceil_log_s(n)+1."""
    return ceil_log(s, n) + 1


def dominance_query_bound(n: int, s: int, d: int) -> int:
    """Substructure queries per dominance query, and accumulator touches per
    reported color: dominance_path_bound^(d-1)."""
    return dominance_path_bound(n, s) ** (d - 1)


def box_space_bound(n: int, s: int, d: int, t: int) -> int:
    """Stored entries of a box structure with t layered axes: each layer puts
    every point in its two full-set inner structures and one per ancestor
    node, at most ceil_log_2(n)+1 inner structures (2 when n = 1)."""
    return dominance_space_bound(n, s, d) * (ceil_log(2, max(n, 2)) + 1) ** t


def box_fanout_bound(t: int) -> int:
    """Inner queries and leaf scans per box query with t two-sided axes: 2^t."""
    return 2**t


def _check_fanout(s: int, n: int) -> None:
    try:
        operator.index(s)
    except TypeError:
        raise ParameterError(f"fanout s={s!r} is not an integer") from None
    if not 2 <= s <= max(2, n):
        raise ParameterError(f"fanout s={s} outside [2, {max(2, n)}] for n={n}")


def _coerce_points(points, mode=COUNT) -> PointSet:
    if isinstance(points, PointSet):
        return points
    return PointSet.from_points(points, mode=mode)


def build_dominance(points, d: int | None = None, s: int = 2, mode=COUNT) -> DominanceTree:
    """Build the dominance structure; d (when given) must match the data."""
    ps = _coerce_points(points, mode=mode)
    if d is not None and d != ps.d:
        raise MalformedInputError(f"requested d={d} but points have d={ps.d}")
    return DominanceTree(ps, s)
