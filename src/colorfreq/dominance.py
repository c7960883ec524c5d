"""Dominance frequency reporting via a recursive s-ary strip tree.

The first coordinate axis is rank-reduced and partitioned into s strips
per node, down to single ranks.  Each strip stores a substructure over the
points left of it inside its node, projected onto the remaining axes: a
1-D frequency structure when one axis remains, otherwise a recursive tree.
A node's first strip starts at the node's own first rank, so every other
rank c starts exactly one strip with something left of it; the tree is
kept as two arrays over ranks, ``parent[c]`` (the first rank of that
strip's node) and ``prefix[c]`` (the structure over ranks [parent[c], c)).
The shape, ``parent``, depends on the number of ranks and s alone, so
trees of one size share it.

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

import functools
import operator
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate

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
from .freq1d import (
    _build_ranges,
    _max_ints,
    _report_walk,
    _sort_charge,
)

# _fill streams the 1-D structures of a build through _build_ranges in
# chunks of at most _BATCH_CHUNK entries (a larger range is a chunk of its
# own), which bounds the numpy temporaries: an n=50k, s=16 tree peaks 30 MiB
# lower than with whole tree levels, at the same speed.
_BATCH_CHUNK = 1 << 14


class ColorAccumulator:
    """phi weight cells with a touched-list for O(k) drain and reset.

    Cells start at the identity (represented as None so no semigroup
    identity element is required).  ``add`` is O(1); ``drain_and_reset``
    visits only the touched cells.
    """

    __slots__ = ("phi", "mode", "slots", "touched", "touch_ops", "drain_ops", "_count_mode")

    def __init__(self, phi: int, mode=COUNT):
        try:
            phi = operator.index(phi)
        except TypeError:
            raise ParameterError(f"color count phi={phi!r} is not an integer") from None
        self.phi = phi
        self.mode = mode
        self.slots: list = [None] * phi
        self.touched: list[int] = []
        self.touch_ops = 0
        self.drain_ops = 0
        self._count_mode = isinstance(mode, CountMode)

    def add(self, color: int, weight) -> None:
        slots = self.slots
        try:
            if not 0 <= color < self.phi:
                raise ContractViolationError(f"color {color} outside [0, {self.phi})")
            cur = slots[color]
        except TypeError:
            raise ContractViolationError(f"color {color!r} is not an integer") from None
        if cur is None:
            slots[color] = weight
            self.touched.append(color)
        else:
            combine = self.mode.combine
            if combine is operator.add:
                slots[color] = cur + weight
            elif combine is max:
                if weight > cur:
                    slots[color] = weight
            else:
                slots[color] = combine(cur, weight)
        self.touch_ops += 1

    def add_entries(self, entries) -> None:
        """``add`` of every (color, weight) pair of ``entries``, in order."""
        for c, w in entries:
            self.add(c, w)

    def drain_and_reset(self) -> list:
        out = []
        slots = self.slots
        self.drain_ops += len(self.touched)
        for c in self.touched:
            w = slots[c]
            slots[c] = None
            if self._count_mode and w == 0:
                continue  # exact cancellation; never reported
            out.append((c, w))
        self.touched = []
        return out

    def drain_into(self, other: "ColorAccumulator") -> int:
        """``other.add_entries(self.drain_and_reset())`` with no list in
        between: the drained entries merge into ``other`` in drain order.
        Returns how many merged."""
        slots, into, touched, combine = self.slots, other.slots, other.touched, other.mode.combine
        add, top = combine is operator.add, combine is max
        cancel = self._count_mode
        self.drain_ops += len(self.touched)
        merged = 0
        for c in self.touched:
            w = slots[c]
            slots[c] = None
            if cancel and w == 0:
                continue  # exact cancellation; never reported
            cur = into[c]
            if cur is None:
                into[c] = w
                touched.append(c)
            elif add:
                into[c] = cur + w
            elif top:
                if w > cur:
                    into[c] = w
            else:
                into[c] = combine(cur, w)
            merged += 1
        self.touched = []
        other.touch_ops += merged
        return merged

    def is_fully_reset(self) -> bool:
        """Full phi-length scan; test helper only, never on the query path."""
        return not self.touched and all(s is None for s in self.slots)


def _ready(session: QuerySession | None, phi: int, mode) -> QuerySession:
    """``session``, reset for a query of a structure over ``phi`` colors in
    weight mode ``mode``, or a new session when it is None.  A session or
    accumulator of another type raises ``ContractViolationError``."""
    if session is None:
        return QuerySession(ColorAccumulator(phi, mode))
    if not isinstance(session, QuerySession):
        raise ContractViolationError(f"session: {type(session).__name__} is not a QuerySession")
    acc = session.accumulator
    if acc is None:
        session.accumulator = ColorAccumulator(phi, mode)
    elif not isinstance(acc, ColorAccumulator):
        raise ContractViolationError(f"session accumulator is a {type(acc).__name__}")
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
    """Static structure answering d-dimensional dominance frequency queries.

    It holds a forest: one or more trees over consecutive runs of its
    columns, all with the same d, s, phi and weight mode.  Tree ``t`` owns
    positions [start[t], start[t+1]) of ``coords_r``, ``colors_r``,
    ``weights_r`` and ``sorted0``, its points in rank order of their first
    axis (ties by input order), and its shape is ``parent[t]``, over its
    own ranks.  The columns are gathers of a ``PointSet``'s, taken as they
    are: float64 coordinates, int64 colors and the weights as
    ``PointSet.weights`` holds them.  ``prefix`` and ``index`` run over the
    whole forest: the strip that rank c of tree t starts has its structure
    at ``prefix[start[t] + c]``, and ``index`` picks a range of that 1-D
    block or a tree of that forest on the remaining axes.  A d=1 forest is one
    1-D block, ``base``, whose range t is tree t.  A structure built from
    points, and each offline skeleton, is a forest of one tree; a box keeps
    the skeletons at the bottom of its layers as one forest.  The counters
    sum over the trees.
    """

    __slots__ = (
        "d",
        "s",
        "phi",
        "mode",
        "coords_r",
        "colors_r",
        "weights_r",
        "sorted0",
        "start",
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
            points.weights,
            s=s,
            phi=points.phi,
            mode=points.mode,
        )
        _fill(self)

    @classmethod
    def _forest(cls, coords, colors, weights, s, phi, mode, sizes=None):
        """The skeletons, rank order and strip trees only, of trees over
        consecutive runs of ``sizes`` points, each run in rank order of its
        first axis, ties by input order (see ``_ranked_groups``), or of one
        tree over all the points: for ``_fill``, or for the offline sweep,
        which builds the strips' structures in the blocks it plans."""
        self = cls.__new__(cls)
        self._init_from_parts(coords, colors, weights, s=s, phi=phi, mode=mode, sizes=sizes)
        return self

    def _init_from_parts(self, coords, colors, weights, s, phi, mode, sizes=None):
        n, d = coords.shape
        one_tree = sizes is None
        sizes = [n] if one_tree else sizes
        start = tuple(accumulate(sizes, initial=0))
        self.d = d
        self.s = s
        self.phi = phi
        self.mode = mode
        self.start = start
        self.stored_entries = 0
        self.build_ops = 0
        if d == 1:
            self.base = _build_ranges(coords[:, 0], colors, weights,
                                      np.column_stack((start[:-1], start[1:])), mode)
            self.coords_r = self.colors_r = self.weights_r = self.sorted0 = None
            self.parent = self.prefix = self.index = None
            self.stored_entries = self.base.stored_entries
            self.build_ops = self.base.build_ops
            self.node_count = sum(1 for m in sizes if m)
            self.height = 0
            return
        self.base = None
        # one tree ranks its points here; a forest's runs come ranked
        order = rank_order(coords[:, 0]) if one_tree else slice(None)
        self.coords_r = coords[order]
        self.colors_r = colors[order]
        self.weights_r = weights[order]
        self.sorted0 = array("d", self.coords_r[:, 0].tobytes())
        shapes = {m: _shape(m, s) for m in set(sizes)}
        self.parent = [shapes[m][0] for m in sizes]
        self.prefix = [None] * n
        self.index = [0] * n
        self.node_count = self.height = 0
        for m, trees in Counter(sizes).items():
            _, nodes, height = shapes[m][:3]
            self.node_count += trees * nodes
            self.height = max(self.height, height)
            if m:
                # the sort, one step per leaf and one per child link
                self.build_ops += trees * (_sort_charge(m) + m + nodes - 1)

    # -- construction ----------------------------------------------------------

    def _build_substructure(self, lo, cut, rank=None, ints=None):
        """The structures of the strips [lo[i], cut[i]) of this forest's
        columns on the remaining axes, built as one, and their counters
        added to the forest's.

        ``lo`` and ``cut`` are int64 arrays; strips with one lo that come
        together nest, their cuts ascending.  ``rank`` and ``ints`` are
        columns of the forest, from ``_strip_columns``.  For
        d = 2 the result is one ``_build_ranges`` block whose range i is
        strip i: its data is one slice per run of strips with one lo, from
        lo to the run's last cut, since such strips nest, ranked by ``rank``
        (by the block itself when it is None).  For d >= 3 it is one forest
        whose tree i is strip i, filled by ``_fill``.
        """
        if self.d == 2:
            first = np.append(True, lo[1:] != lo[:-1])  # each run's first strip
            last = np.append(first[1:], True)
            part_lo = lo[first]
            part_size = cut[last] - part_lo
            base = np.cumsum(part_size) - part_size  # each run's slice in rows
            run_base = base[np.cumsum(first) - 1]
            rows = _concat_ranges(part_lo, part_size)
            sub = _build_ranges(self.coords_r[rows, 1], self.colors_r[rows], self.weights_r[rows],
                                np.column_stack((run_base, run_base + cut - lo)), self.mode,
                                None if rank is None else rank[rows],
                                None if ints is None else ints[rows])
        else:
            rows = _ranked_groups(np.arange(len(self.coords_r)), lo, cut - lo, self.coords_r[:, 1],
                                  np.ones(len(lo)))
            sub = DominanceTree._forest(
                self.coords_r[rows, 1:], self.colors_r[rows], self.weights_r[rows],
                self.s, self.phi, self.mode, (cut - lo).tolist(),
            )
            _fill(sub)
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
        if not isinstance(q, BoxQuery):
            q = BoxQuery.dominance(q)
        bounds = q.bounds
        if len(bounds) != self.d:
            raise MalformedQueryError(
                f"query dimension {len(bounds)} != structure dimension {self.d}"
            )
        corner = []
        for lo, hi in bounds:
            if lo != -INF:
                raise MalformedQueryError("dominance structure cannot take lower bounds")
            corner.append(hi)
        return tuple(corner)

    def _query_into(self, corner, session: QuerySession, t: int = 0) -> None:
        """Accumulate the answer of tree ``t`` for ``corner`` into the
        session's accumulator: ``_answer`` over the walk to the rank just
        below it."""
        if self.d == 1:
            self._answer(((self.base, t),), corner, 0, session)
            return
        off = self.start[t]
        rq = count_le(self.sorted0, corner[0], off, self.start[t + 1])
        if rq:
            self._answer(self._walk(rq - 1, t), corner[1:], off + rq, session)

    def _walk(self, x: int, t: int = 0) -> list:
        """The walk to rank ``x`` of tree ``t``, shared by online queries
        and the offline sweep: the (structure, index) pairs of the ranks c
        whose ranges [parent[c], c) tile [0, x), ascending."""
        off, parent, prefix, index = self.start[t], self.parent[t], self.prefix, self.index
        walk = []
        while x:
            walk.append((prefix[off + x], index[off + x]))
            x = parent[x]
        walk.reverse()
        return walk

    def _answer(self, structs, rest, rq: int, session: QuerySession) -> None:
        """Answer kernel shared by online queries and the offline sweep.

        ``structs`` holds the (structure, index) pairs of the walk to the
        point at position ``rq - 1`` of the columns, in its order; each is
        queried with ``rest``, the corner on the axes after the first.  The
        index picks a range of a 1-D block (0 for a one-range structure) or
        a tree of a d >= 2 forest (0 for a forest of one).  A d <= 2 walk's
        blocks are scanned by one ``_report_walk`` call.  That point is
        then checked directly on the axes of ``rest`` (none when rq = 0).
        A d=1 tree t passes ``(base, t)``, its whole corner and rq = 0.
        """
        acc = session.accumulator
        session.substructure_queries += len(structs)
        if self.d <= 2:
            probes, touches = _report_walk(structs, rest[0], acc.slots, acc.touched,
                                           acc.mode.combine)
            session.probes += probes
            acc.touch_ops += touches
        else:
            for struct, j in structs:
                struct._query_into(rest, session, j)
        if rq:
            session.substructure_queries += 1
            p, coords = rq - 1, self.coords_r
            for axis, c in enumerate(rest, 1):
                if coords.item(p, axis) > c:
                    break
            else:
                acc.add(self.colors_r.item(p), self.weights_r.item(p))

    # -- instrumentation ---------------------------------------------------------

    def stats(self) -> TreeStats:
        return TreeStats(self.stored_entries, self.height, self.node_count, self.build_ops)


@functools.lru_cache(maxsize=512)
def _shape(n: int, s: int):
    """The strip tree over ranks [0, n) as ``(parent, node_count, height,
    lo, cut, hi)``, computed once per size and shared.

    A node of more than one rank splits into min(s, size) strips, the first
    ``size % s`` of them one rank longer than the rest; each strip is a
    child node, and single ranks are leaves.  ``parent`` is a tuple:
    ``parent[c]`` is the first rank of the node in which c starts a strip
    other than the first (0 for c = 0).  ``height`` is the depth of the
    deepest leaf.  ``lo``, ``cut`` and ``hi`` are read-only int64 arrays
    with one entry per rank c >= 1, ordered by parent rank, then by c:
    [lo, cut) = [parent[c], c) is the range c's structure covers, and
    [cut, hi) is the strip c starts, which holds exactly the ranks whose
    walk contains c (see ``offline_build_bound``).  The nodes of one depth
    split at once.
    """
    parent, end = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    node_count, height = min(n, 1), 0
    start = np.zeros(int(n > 1), dtype=np.int64)  # the nodes to split, first ranks and sizes
    size = start + n
    while len(start):
        height += 1
        q, r = np.divmod(size, s)
        k = np.minimum(s, size)  # each node's strips
        node_count += int(k.sum())
        node = np.repeat(np.arange(len(k)), k)
        i = np.arange(len(node)) - np.repeat(np.cumsum(k) - k, k)  # strip i of its node
        q, r = q[node], r[node]
        a = start[node] + i * q + np.minimum(i, r)
        width = q + (i < r)
        later = i > 0  # a node's first strip starts at the node's own rank
        parent[a[later]] = start[node[later]]
        end[a[later]] = (a + width)[later]
        deeper = width > 1
        start, size = a[deeper], width[deeper]
    cut = np.argsort(parent[1:], kind="stable") + 1
    lo, hi = parent[cut], end[cut]
    lo.flags.writeable = cut.flags.writeable = hi.flags.writeable = False
    ranks, at = np.unique(parent, return_inverse=True)  # one int object per parent rank
    return tuple(map(ranks.tolist().__getitem__, at.tolist())), node_count, height, lo, cut, hi


def _strip_ranges(forest):
    """(lo, cut) of every strip of ``forest``, as positions of its columns:
    trees of one size together, sizes ascending, then tree by tree in
    ``_shape`` order.  A forest of one tree reads its shape's cached,
    read-only arrays; a forest of several gets int32 copies.  These live
    while the forest's blocks are built, so they are kept small."""
    if len(forest.start) == 2 and forest.start[1] > 1:
        return _shape(forest.start[1], forest.s)[3:5]
    start = np.array(forest.start, dtype=np.int64)
    sizes = np.diff(start)
    los, cuts = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for m in sorted(set(sizes.tolist()) - {0, 1}):
        lo, cut = _shape(m, forest.s)[3:5]
        off = start[:-1][sizes == m, None]
        los.append((off + lo).ravel())
        cuts.append((off + cut).ravel())
    return np.concatenate(los, dtype=np.int32), np.concatenate(cuts, dtype=np.int32)


def _concat_ranges(lo, sizes):
    """The positions [lo[i], lo[i] + sizes[i]) of every i, concatenated."""
    ends = np.cumsum(sizes)
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total) + np.repeat(lo - (ends - sizes), sizes)


def _ranked_groups(rows, start, size, values, sign):
    """The groups [start[i], start[i] + size[i]) of ``rows``, one after
    another, each in rank order of ``values`` (one per row) times its
    ``sign[i]``, ties by position: the order ``rank_order`` gives the
    group's signed values on its own.

    One ``rank_order`` of the values ranks both signs: position p's rank
    is ``rank[p]``, and among the negated values ``rank[n + p]``, the
    reverse of its rank but in the same order within its run of equal
    values.  With no negative sign the negated ranks are not made, and one
    group of all the rows is their rank order."""
    n = len(rows)
    order = rank_order(values)
    if len(size) == 1 and size[0] == n and sign[0] > 0:
        return rows[order]
    r = np.arange(n)
    member = _concat_ranges(start, size)
    key = np.repeat(np.arange(len(size)) * n, size)
    flip = sign < 0
    if flip.any():
        rank = np.empty(2 * n, dtype=np.int64)
        ranked = values[order]
        first = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1])))
        tie = np.diff(first, append=n)  # the lengths of the runs of equal values
        rank[n:][order] = n + r - np.repeat(2 * first + tie, tie)
        at = member + n * np.repeat(flip, size)
    else:
        rank = np.empty(n, dtype=np.int64)
        at = member
    rank[order] = r
    key += rank[at]
    return rows[member[np.argsort(key)]]


def _fill(forest) -> None:
    """Give every strip of the skeleton ``forest`` its structure over the
    points left of it, and add the structures' counters to the forest's.

    The strips, in ``_strip_ranges`` order, go through
    ``_build_substructure``: those of a d >= 3 forest in one call, as the
    trees of one forest over the remaining axes, and those of a d = 2
    forest in the chunks of ``_strip_chunks``, one block per chunk, with
    the columns of ``_strip_columns``.  A strip's ``prefix`` is its block
    or forest and its ``index`` its range or tree there: each chunk writes
    them with one scatter into an object array and one into an int array,
    which become the skeleton's lists once all are built.
    """
    if forest.d < 2:
        return
    n = len(forest.prefix)
    forest.prefix = forest.index = None  # replaced by the arrays' lists
    prefix = np.full(n, None, dtype=object)
    index = np.zeros(n, dtype=np.int32)
    struct = np.empty(1, dtype=object)  # a structure, scattered as itself
    columns = _strip_columns(forest)
    chunks = _strip_chunks(forest) if forest.d == 2 else [_strip_ranges(forest)]
    for lo, cut in chunks:
        struct[0] = forest._build_substructure(lo, cut, *columns)
        prefix[cut] = struct
        index[cut] = np.arange(len(cut), dtype=np.int32)
    forest.prefix = prefix.tolist()
    del prefix
    forest.index = index.tolist()


def _strip_columns(forest):
    """``(rank, ints)``: the columns of ``forest`` that
    ``_build_substructure`` takes with its strips, besides the forest's own.

    For d = 2 these are the int32 rank of each row's y among all the
    forest's rows, which orders each strip as ``rank_order`` orders it on
    its own, and the weights of ``_max_ints``.  A forest's rows rank once
    for all its blocks.  The rank array is allocated with ``ints``, before
    the ranking's temporaries, so that the two lie together under the
    blocks and free as one space.  A d >= 3 forest takes neither: its
    strips are ranked as one forest by ``_ranked_groups``.
    """
    if forest.d != 2:
        return None, None
    n = len(forest.weights_r)
    rank = np.empty(n, dtype=np.int32)
    ints = _max_ints(forest.weights_r, forest.mode)
    rank[rank_order(forest.coords_r[:, 1])] = np.arange(n, dtype=np.int32)
    return rank, ints


def _strip_chunks(forest):
    """Yield the strips of the d = 2 ``forest`` in ``_strip_ranges`` order,
    in chunks of at most ``_BATCH_CHUNK`` entries (a larger strip is a
    chunk of its own), as ``(lo, cut)`` arrays of positions in the
    forest's columns."""
    lo, cut = _strip_ranges(forest)
    ends = np.cumsum(cut - lo)  # entries up to and including each strip
    cuts = [0]  # the chunks' bounds, found before the first block is built
    while cuts[-1] < len(lo):
        a = cuts[-1]
        cuts.append(max(a + 1, int(np.searchsorted(
            ends, (ends[a - 1] if a else 0) + _BATCH_CHUNK, "right"))))
    del ends
    for a, b in zip(cuts, cuts[1:]):
        yield lo[a:b], cut[a:b]


def _scan_range(coords, colors, weights, start: int, stop: int, bounds, acc) -> None:
    """Add to ``acc`` the points at ranks [start, stop) inside ``bounds``,
    one closed (lo, hi) pair per axis, read as Python scalars."""
    for pos in range(start, stop):
        for axis, (lo, hi) in enumerate(bounds):
            v = coords.item(pos, axis)
            if v < lo or v > hi:
                break
        else:
            acc.add(colors.item(pos), weights.item(pos))


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


def offline_build_bound(n: int, s: int, d: int = 2, t: int = 0) -> tuple[int, int]:
    """(structures, entries): the most that one offline batch over n points
    builds, for d <= 2: a dominance sweep for t = 0, a planar three-sided
    batch for t = 1.

    A d = 1 sweep builds one structure over all n points.  A d = 2 sweep
    builds each strip [parent[c], c), 1 <= c < n, at most once, since the
    ranks x whose walk holds c form one run and queries are pinned in
    ascending rank.  The run: a walk step goes from a rank to the lo of the
    node in which that rank starts a strip other than the first, passing
    the nodes it starts as their first strip, so the walk to x holds the lo
    of every node containing x and nothing else.  The largest node whose
    lo is c is the strip c starts; hence c is on the walk to x exactly when
    x lies in that strip.  So a sweep builds at most n - 1 strips and at
    most the eager tree's entries, each strip holding its c - parent[c]
    points.  A three-sided batch sweeps both children of each swept node of
    its layer; the nodes of one depth are disjoint, and fewer than
    ceil_log2(n) + 1 depths hold inner nodes.
    """
    structures = min(n, 1) if d == 1 else max(n - 1, 0)
    return structures * (ceil_log(2, max(n, 2)) + 1) ** t, box_space_bound(n, s, d, t)


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


def build_1d(points, mode=COUNT) -> DominanceTree:
    """The 1-D structure: the d = 1 tree over a ``PointSet`` with d == 1 or
    an iterable of ``(x, color[, weight])`` tuples / ColoredPoints, whose
    ``PointSet`` checks them.  Its forest is one block, ``base``; it answers
    prefixes, ``query((q,))``, and ``build_box(points, bounded_axes=(0,))``
    intervals."""
    if isinstance(points, (list, tuple)) and not points:
        points = PointSet.empty(1, mode)
    ps = _coerce_points(points, mode=mode)
    if ps.d != 1:
        raise MalformedInputError(f"build_1d needs 1-D points, got d={ps.d}")
    return DominanceTree(ps, 2)


def build_dominance(points, d: int | None = None, s: int = 2, mode=COUNT) -> DominanceTree:
    """Build the dominance structure; d (when given) must match the data."""
    ps = _coerce_points(points, mode=mode)
    if d is not None and d != ps.d:
        raise MalformedInputError(f"requested d={d} but points have d={ps.d}")
    return DominanceTree(ps, s)
