"""One-dimensional color frequency reporting via the successor transform.

Every point of a color chain is mapped to (own rank, rank of the next point
of the same color), carrying the combined weight of the chain prefix.  The
quadrant ``rank < q and successor-rank >= q`` then contains at most one
mapped point per color: the rightmost point of that color below the query
bound, whose prefix weight is exactly the answer for the color.

The quadrant reports go through a heap-ordered binary index over the rank
axis (a static priority search tree), giving O(log n + k) index probes per
query.  Two-sided intervals additionally use the mirrored transform on
predecessor ranks to find the leftmost in-range point per color; the count
is the rank difference, which needs group (count) weights.
"""

from __future__ import annotations

import math
import operator
from array import array
from bisect import bisect_left

import numpy as np

from .core import (
    COUNT,
    CountMode,
    MalformedInputError,
    MalformedQueryError,
    PointSet,
    QuerySession,
    UnsupportedOperationError,
    count_le,
    count_lt,
    rank_order,
)

_SMALL = 8  # below this size a linear scan beats any index
# the lo/pos and skip columns of a flat heap of each size up to _SMALL,
# shared by every structure built on its own (and never written)
_FLAT = tuple(array("i", range(m)) for m in range(_SMALL + 1))
_ONES = tuple(array("i", [1]) * m for m in range(_SMALL + 1))
_INT32_MAX = 2**31 - 1
_COLOR_ERROR = "color ids must be below 2**31"


def _column(typecode: str, x: np.ndarray) -> array:
    """``x`` as an ``array(typecode)`` of the same item size, sized
    exactly: built from bytes an array over-allocates by 1/16, and a slice
    of it does not."""
    return array(typecode, x.tobytes())[:]


def _ints(typecode: str, values: list[int], error: str) -> array:
    """``values`` as an ``array(typecode)`` column, or ``error`` raised as a
    ``MalformedInputError`` when one of them does not fit."""
    try:
        return array(typecode, values)
    except OverflowError:
        raise MalformedInputError(error) from None


def _sort_charge(n: int) -> int:
    """Comparison charge we book for an n-element sort."""
    return n * max(1, (max(n, 1) - 1).bit_length())


def _heap(pri: list[int]) -> tuple:
    """The heap columns (lo, pri, pos, skip) over ``pri``, laid out as
    ``Frequency1D`` describes, and the build steps booked for them."""
    m = len(pri)
    if m <= _SMALL:
        return _FLAT[m], array("i", pri), _FLAT[m], _ONES[m], 0
    occ: dict[int, int] = {}
    steps = 0
    order = sorted(range(m), key=pri.__getitem__, reverse=True)
    for i in order:
        node, lo, hi = 1, 0, m
        while node in occ:
            mid = (lo + hi) >> 1
            if i < mid:
                node, hi = 2 * node, mid
            else:
                node, lo = 2 * node + 1, mid
            steps += 1
        occ[node] = i

    # preorder by an explicit stack; the nodes before the end of a
    # node's subtree are those starting below its hi
    los, his, poss = array("i"), [], array("i")
    stack = [(1, 0, m)]
    while stack:
        node, lo, hi = stack.pop()
        i = occ.get(node, -1)
        los.append(lo)
        his.append(hi)
        poss.append(i)
        if i >= 0:
            mid = (lo + hi) >> 1
            stack.append((2 * node + 1, mid, hi))
            if lo < mid:
                stack.append((2 * node, lo, mid))
    skip = np.searchsorted(los, his) - np.arange(len(his))
    pris = array("i", [-1 if i < 0 else pri[i] for i in poss])
    return los, pris, poss, _column("i", skip.astype(np.int32)), steps + _sort_charge(m)


def _report(m: int, heap: tuple, a: int, b: int, t: int) -> tuple[list[int], int]:
    """(hits, probes) for the positions in [a, b) with priority >= t in the
    ``(lo, pri, pos, skip)`` heap over m positions, visiting O(log m +
    output) nodes."""
    if a >= b or m == 0:
        return [], 0
    los, pri, pos, skip = heap
    if m <= _SMALL:
        return [i for i in range(a, b) if pri[i] >= t], b - a
    hits: list[int] = []
    probes = 0
    stack = [(0, m)]  # (preorder index, end of its range)
    while stack:
        k, hi = stack.pop()
        probes += 1
        i = pos[k]
        if i < 0 or pri[k] < t:
            continue
        if a <= i < b:
            hits.append(i)
        lo = los[k]
        mid = (lo + hi) >> 1
        right = k + 1  # the right child follows the left subtree, if any
        if lo < mid:
            if a < mid and lo < b:
                stack.append((k + 1, mid))
            right = k + 1 + skip[k + 1]
        if a < hi and mid < b:
            stack.append((right, hi))
    return hits, probes


class _Cells(dict):
    """Accumulator cells keyed by color, each None (empty) until set."""

    __slots__ = ()

    def __missing__(self, color):
        return None


class Frequency1D:
    """The 1-D structure: mapped chain points plus quadrant indexes, for one
    or more rank ranges held in one block.

    Range ``j`` owns the block positions [start[j], start[j+1]) and the
    heap nodes [node_start[j], node_start[j+1]); a structure built by
    ``Frequency1D(...)`` or ``build_1d`` is one range starting at 0, and
    ``_build_ranges`` builds many ranges as one block.  By block position:
    ``sorted_values``, ``colors`` and ``prefix_weight``, each range in rank
    order.  Each range also has its own build ops and ``_may_cancel`` flag.

    The successor ranks inside each range (``succ``; the range's size for
    none) are the priorities of a static max-heap per range, held in the
    columns ``lo``, ``pri``, ``pos`` and ``skip``.  Its implicit skeleton
    is the balanced binary split of the range; each rank descends from the
    root toward itself and occupies the first free node, in decreasing
    priority order.  A node's occupant therefore has priority >= everything
    below it, and an empty node has an empty subtree.

    The columns list in preorder (node, left subtree, right subtree) every
    occupied node and every non-empty child of one; the unoccupied
    ("dead") children include the right child [lo, lo+1) of a length-1
    node.  Per node, ``lo`` is the block position where its range starts,
    ``pri`` and ``pos`` its occupant's priority and block position (-1 when
    dead), and ``skip`` the number of nodes in its subtree, so
    ``k + skip[k]`` is the index just past it.  Positions are offset by the
    range's start and priorities are not, so range ``j`` reads the same as
    a structure of its own once ``start[j]`` is taken off ``lo`` and
    ``pos``.  ``lo`` never decreases in preorder.  A dead node's -1 is
    below every successor rank, so the prefix scan needs no other test;
    ``_report`` tells dead nodes by ``pos``, since the interval index has
    negative priorities.  A range of ``_SMALL`` or fewer positions is flat
    instead: every position is a node of its own (``lo`` and ``pos`` the
    position, ``skip`` 1), so a scan of it is the linear scan; a flat
    structure built on its own shares those columns with every other of
    its size.

    Every column is a typed ``array``, written by both builders alike: the
    four heap columns and ``colors`` are ``array('i')``, ``sorted_values``
    ``array('d')`` and count-mode ``prefix_weight`` ``array('q')``;
    semigroup prefixes are a list of objects.  An entry then costs bytes,
    not object slots: a count-mode tree with n=50k and s=16 holds about 56
    bytes of live heap per entry.  The scan pays for it: reading an element
    of an array costs about twice reading one of a tuple.  ``bisect``
    searches the ``array('d')`` inside one range about 3x faster than numpy
    searches a slice of it.  So a block is about a dozen objects, however
    many ranges it holds.  Color ids must be below 2**31 and count totals
    must fit int64; the builders raise ``MalformedInputError`` otherwise.

    The interval index, built on a one-range structure only, is
    ``_pred_index``, the same heap over the negated predecessor ranks as one
    ``(lo, pri, pos, skip)`` tuple of columns, plus ``prefix_below``
    (``array('q')``), the weight of each chain below each point.  The
    public methods read a one-range structure.
    """

    __slots__ = (
        "mode",
        "m",
        "sorted_values",
        "colors",
        "prefix_weight",
        "prefix_below",
        "start",
        "node_start",
        "lo",
        "pri",
        "pos",
        "skip",
        "_pred_index",
        "_ops",
        "_may_cancel",
    )

    def __init__(self, values, colors, weights=None, mode=COUNT, interval_index: bool = False):
        values = np.asarray(values, dtype=np.float64)
        colors_arr = np.asarray(colors)
        m = len(values)
        if values.ndim != 1:
            raise MalformedInputError("values must be one coordinate per point")
        if colors_arr.shape != (m,):
            raise MalformedInputError("need one color per value")
        if m and colors_arr.dtype.kind not in "iu":
            raise MalformedInputError("color ids must be integers")
        is_count = isinstance(mode, CountMode)
        if weights is None:
            wlist = [1] * m
        elif is_count:
            try:
                wlist = list(map(operator.index, weights))
            except TypeError:
                raise MalformedInputError("count-mode weights must be integers") from None
        else:
            wlist = list(weights)
        if len(wlist) != m:
            raise MalformedInputError("need one weight per value")
        # count totals of zero are never reported; only non-positive weights make them
        may_cancel = is_count and m > 0 and min(wlist) <= 0

        order = rank_order(values)
        ys = values[order]
        # NaN sorts last, so the two ends show any value that is not finite
        if m and not (math.isfinite(ys[0]) and math.isfinite(ys[-1])):
            raise MalformedInputError("coordinates must be finite")
        cols = colors_arr[order].tolist()
        if m and min(cols) < 0:
            raise MalformedInputError("color ids must be non-negative")
        w_by_rank = [wlist[i] for i in order]

        succ = [m] * m
        pref: list = [None] * m
        last: dict[int, int] = {}
        running: dict[int, object] = {}
        combine = mode.combine
        for r in range(m):
            c = cols[r]
            p = last.get(c, -1)
            if p >= 0:
                succ[p] = r
            last[c] = r
            prev = running.get(c)
            cur = w_by_rank[r] if prev is None else combine(prev, w_by_rank[r])
            running[c] = cur
            pref[r] = cur

        if is_count:
            pref = _ints("q", pref, "count-mode weights overflow int64 totals")
        *heap, steps = _heap(succ)
        self._set(mode, ys, _ints("i", cols, _COLOR_ERROR), pref, heap, (0, m),
                  (0, len(heap[0])), (2 * m + _sort_charge(m) + steps,), (may_cancel,))
        # predecessors and the weight below each point serve interval queries only
        if interval_index and is_count:
            pred = [-1] * m
            for r, nxt in enumerate(succ):
                if nxt < m:
                    pred[nxt] = r
            self.prefix_below = array("q", [0 if p < 0 else pref[p] for p in pred])
            *heap, steps = _heap([-p for p in pred])
            self._pred_index = tuple(heap)
            self._ops = (self._ops[0] + m + steps,)

    def _set(self, mode, ys, colors, pref, heap, start, node_start, ops, may_cancel) -> None:
        """Take the block's columns, the values ``ys`` as a float64 array;
        no interval index."""
        self.mode = mode
        self.m = len(ys)
        self.sorted_values = _column("d", ys)
        self.colors = colors
        self.prefix_weight = pref
        self.lo, self.pri, self.pos, self.skip = heap
        self.start = start
        self.node_start = node_start
        self._ops = ops
        self._may_cancel = may_cancel
        self.prefix_below = self._pred_index = None

    # -- rank space ----------------------------------------------------------

    @property
    def size(self) -> int:
        return self.m

    @property
    def entries(self) -> int:
        """Number of stored mapped points (space instrumentation)."""
        return self.m

    @property
    def build_ops(self) -> int:
        return sum(self._ops)

    @property
    def succ(self) -> list[int]:
        """Rank in its range of the next point of the same color (the
        range's size for none), by position."""
        out = [0] * self.m
        for p, i in zip(self.pri, self.pos):
            if i >= 0:
                out[i] = p
        return out

    # -- queries ---------------------------------------------------------------

    def query_prefix(self, q: float, session: QuerySession | None = None) -> list:
        """Per-color total weight of the points with coordinate <= q."""
        if q != q:
            raise MalformedQueryError("query bound is NaN")
        cells = _Cells()
        touched: list[int] = []
        probes, _ = self._scan_prefix(0, q, cells, touched, None)
        if session is not None:
            session.probes += probes
        return [(c, cells[c]) for c in touched]

    def _prefix_into(self, q: float, acc, session: QuerySession, j: int = 0) -> None:
        """``query_prefix`` on range ``j``, merged straight into the cells of
        ``acc``, a ``ColorAccumulator`` over every color of this structure."""
        probes, touches = self._scan_prefix(j, q, acc.slots, acc.touched, acc.mode.combine)
        session.probes += probes
        acc.touch_ops += touches

    def _scan_prefix(self, j: int, q: float, slots, touched: list, combine) -> tuple[int, int]:
        """Merge the per-color totals of range ``j``'s points <= q into ``slots``.

        With r those points' count, the quadrant ``rank < r <= succ``
        holds at most one point per color, so each color's cell is combined
        at most once.  A cell still None is set
        and its color appended to ``touched``; any other is replaced by
        ``combine(cell, weight)``.  Count totals of zero are left out.
        Colors were checked when the structure was built.  Returns (probes,
        touches).

        The scan walks the range's heap in preorder up to the first node
        whose range starts at or past block position ``rq`` = start + r: a
        node whose ``pri`` is below r (a dead one too) skips its subtree,
        and an occupant below ``rq`` is a hit.  It visits exactly the nodes
        that ``_report`` pops for the ranks [0, r) with priority >= r.
        """
        a = self.start[j]
        r = count_le(self.sorted_values, q, a, self.start[j + 1])
        rq = a + r
        pri, pos, skip = self.pri, self.pos, self.skip
        cols, pref, cancel = self.colors, self.prefix_weight, self._may_cancel[j]
        k = self.node_start[j]
        end = bisect_left(self.lo, rq, k, self.node_start[j + 1])
        probes = touches = 0
        while k < end:
            probes += 1
            if pri[k] < r:
                k += skip[k]
                continue
            i = pos[k]
            k += 1
            if i < rq:
                w = pref[i]
                if cancel and w == 0:
                    continue
                c = cols[i]
                cur = slots[c]
                if cur is None:
                    slots[c] = w
                    touched.append(c)
                else:
                    slots[c] = combine(cur, w)
                touches += 1
        return probes, touches

    def query_interval(self, lo: float, hi: float, session: QuerySession | None = None) -> list:
        """Per-color count of the points with coordinate in [lo, hi].

        Computed as a rank difference between the rightmost and leftmost
        in-range point of each color, which requires group weights.
        """
        if self._pred_index is None:
            raise UnsupportedOperationError(
                "interval queries need group weights and an interval index"
            )
        if lo != lo or hi != hi:
            raise MalformedQueryError(f"interval [{lo}, {hi}] has a NaN bound")
        if lo > hi:
            raise MalformedQueryError(f"interval [{lo}, {hi}] is inverted")
        rlo = count_lt(self.sorted_values, lo)
        rhi = count_le(self.sorted_values, hi)
        if rlo >= rhi:
            return []
        right, p1 = _report(self.m, (self.lo, self.pri, self.pos, self.skip), rlo, rhi, rhi)
        left, p2 = _report(self.m, self._pred_index, rlo, rhi, 1 - rlo)
        if session is not None:
            session.probes += p1 + p2
        cols, pref, below = self.colors, self.prefix_weight, self.prefix_below
        out: dict[int, int] = {}
        for i in right:
            out[cols[i]] = pref[i]
        for i in left:
            out[cols[i]] -= below[i]
        return [(c, w) for c, w in out.items() if w != 0]

    # -- introspection (tests, demos) -----------------------------------------

    def chain_of(self, color: int) -> list[tuple[float, float, object]]:
        """(value, successor value or +inf, prefix weight) triples for one color."""
        out = []
        succ = self.succ
        for r in range(self.m):
            if self.colors[r] == color:
                s = succ[r]
                nxt = float(self.sorted_values[s]) if s < self.m else math.inf
                out.append((float(self.sorted_values[r]), nxt, self.prefix_weight[r]))
        return out


def _weight_array(weights, mode) -> np.ndarray:
    """``weights`` as the 1-D array ``_build_ranges`` takes: int64 counts, or
    one object per weight, filled element by element so that tuple weights
    stay scalars."""
    if isinstance(mode, CountMode):
        return np.array(weights, dtype=np.int64)
    return np.fromiter(weights, dtype=object, count=len(weights))


def _interleave(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[0], b[0], a[1], b[1], ... of two int64 arrays of one length."""
    out = np.empty(2 * len(a), dtype=np.int64)
    out[0::2] = a
    out[1::2] = b
    return out


def _build_ranges(values, colors, weights, ranges, mode=COUNT) -> Frequency1D:
    """The structures of many non-empty rank ranges of one array, as one
    block built in one numpy pass.

    ``values``, ``colors`` and ``weights`` are 1-D arrays in one fixed
    order, the weights from ``_weight_array``; count weights come from a
    ``PointSet``, whose overflow guard keeps every prefix total exact.
    Range ``j`` of the block, once its start is taken off every position,
    equals field for field
    ``Frequency1D(values[lo:cut], colors[lo:cut], weights[lo:cut], mode)``
    for ``ranges[j] = (lo, cut)``; ``ranges`` is a sequence of pairs or a
    two-column array, which makes no Python object per range.
    """
    rank = np.empty(len(values), dtype=np.int64)
    rank[rank_order(values)] = np.arange(len(values))
    ranges = np.asarray(ranges, dtype=np.int64).reshape(-1, 2)
    los = ranges[:, 0]
    sizes = ranges[:, 1] - los
    nr = len(ranges)
    off = np.zeros(nr + 1, dtype=np.int64)
    np.cumsum(sizes, out=off[1:])
    size = int(off[-1])
    rid = np.repeat(np.arange(nr), sizes)
    pos = np.arange(size) - off[:-1][rid]  # rank inside the member's range

    # sort: by (range, rank in values), the order rank_order gives each slice
    idx = pos + los[rid]
    idx = idx[np.argsort(rid * len(values) + rank[idx])]
    ys = values[idx]
    cols = colors[idx]
    if cols.max() > _INT32_MAX:  # before cols enters an int64 key
        raise MalformedInputError(_COLOR_ERROR)
    w = weights[idx]
    del rank, idx  # temporaries go as soon as they are used, for peak memory

    # chains: group by (range, color) keeping rank order, link neighbours
    key = rid * (int(cols.max()) + 1) + cols
    grouped = np.argsort(key, kind="stable")
    same = key[grouped[1:]] == key[grouped[:-1]]
    earlier, later = grouped[:-1][same], grouped[1:][same]  # chain neighbours
    succ = sizes[rid]
    succ[earlier] = pos[later]
    if isinstance(mode, CountMode):
        wg = w[grouped]
        first = np.concatenate(([True], ~same))
        total = np.cumsum(wg)
        pref = np.empty_like(total)
        pref[grouped] = total - (total - wg)[first][np.cumsum(first) - 1]
        pref_col = _column("q", pref)
        del wg, first, total, pref
        may_cancel = (np.minimum.reduceat(w, off[:-1]) <= 0).tolist()
    else:
        # a chain's first entry keeps its weight; each later one combines
        # its predecessor's prefix with its weight, in chain order, as
        # Frequency1D does (where a None prefix starts afresh too)
        pref_col = w.tolist()
        combine = mode.combine
        for g, p in zip(later.tolist(), earlier.tolist()):
            prev = pref_col[p]
            if prev is not None:
                pref_col[g] = combine(prev, pref_col[g])
        may_cancel = [False] * nr
    del rid, pos, w, key, grouped, same, earlier, later

    # heap: place one depth at a time.  Positions are global (range offset
    # plus rank), so the nodes of one depth are disjoint segments [lo, hi);
    # each node's occupant is the max priority among its unplaced entries,
    # ties to the smallest position, as in the one-by-one insertion of
    # _heap (an occupied node passes each later entry on toward its
    # position, so a node takes the first entry of its segment to arrive).
    # A depth's segments are its layout nodes: those left unfilled are the
    # dead children, and only filled ones split further.
    depth_at = np.zeros(size, dtype=np.int64)
    indexed = sizes > _SMALL
    seg_lo, seg_hi = off[:-1][indexed], off[1:][indexed]
    # max key: max priority, then min position; placed entries drop to -1,
    # and the trailing -1 lets a segment end at ``size``
    key = np.append(succ * size + (size - 1 - np.arange(size)), -1)
    # per depth: (lo, hi, occupant or -1), after the flat nodes [p, p+1) of
    # the small ranges' positions p
    flat = np.flatnonzero(np.repeat(~indexed, sizes))
    levels = [(flat, flat + 1, flat)]
    depth = 0
    while len(seg_lo):
        # reduce over [lo, hi) and the gap after it, then drop the gaps
        best = np.maximum.reduceat(key, _interleave(seg_lo, seg_hi))[::2]
        filled = best >= 0
        occupant = np.where(filled, size - 1 - best % size, -1)
        placed = occupant[filled]
        key[placed] = -1
        depth_at[placed] = depth
        levels.append((seg_lo, seg_hi, occupant))
        lo_f, hi_f = seg_lo[filled], seg_hi[filled]
        mid = (lo_f + hi_f) >> 1
        seg_lo = _interleave(lo_f, mid)
        seg_hi = _interleave(mid, hi_f)
        wide = seg_hi > seg_lo
        seg_lo, seg_hi = seg_lo[wide], seg_hi[wide]
        depth += 1

    # preorder is the order by (lo, depth): node ranges nest or are
    # disjoint, and of two nodes starting at one lo the shallower is the
    # ancestor.  The nodes starting at one lo lie on one path at
    # consecutive depths, so a node's index is the number of nodes starting
    # below its lo plus its depth below the shallowest of them.  A node's
    # subtree ends where the nodes starting below its hi end, and a range's
    # nodes start at or past its first position.
    depth_n = np.repeat(np.arange(len(levels)), [len(level[0]) for level in levels])
    lo_n, hi_n, occ_n = (np.concatenate(column) for column in zip(*levels))
    del levels, key
    starts_below = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(np.bincount(lo_n, minlength=size), out=starts_below[1:])
    shallowest = np.full(size, depth)
    np.minimum.at(shallowest, lo_n, depth_n)
    pre = starts_below[lo_n] + depth_n - shallowest[lo_n]
    del depth_n, shallowest
    layout = np.empty((4, len(pre)), dtype=np.int32)  # in preorder
    node_lo, node_pri, node_pos, node_skip = layout
    node_lo[pre] = lo_n
    node_pos[pre] = occ_n
    node_skip[pre] = starts_below[hi_n] - pre
    del lo_n, hi_n, occ_n, pre
    node_pri[:] = np.where(node_pos >= 0, succ[node_pos], -1)

    # build counters, as Frequency1D and _heap book them
    charge = sizes * np.maximum(1, np.frexp(np.maximum(sizes - 1, 0))[1])  # _sort_charge
    steps = np.where(indexed, np.add.reduceat(depth_at, off[:-1]) + charge, 0)
    ops = 2 * sizes + charge + steps

    heap = [_column("i", column) for column in layout]
    block = Frequency1D.__new__(Frequency1D)
    block._set(mode, ys, _column("i", cols.astype(np.int32)), pref_col, heap,
               tuple(off.tolist()), tuple(starts_below[off].tolist()), tuple(ops.tolist()),
               tuple(may_cancel))
    return block


def build_1d(points, mode=COUNT) -> Frequency1D:
    """Build the 1-D structure from 1-D points.

    Accepts a ``PointSet`` with d == 1 or an iterable of ``(x, color[, weight])``
    tuples / ColoredPoints.  The interval index is built whenever the weight
    mode supports it.
    """
    if isinstance(points, PointSet):
        ps = points
    else:
        points = list(points)
        if not points:
            return Frequency1D(
                np.zeros(0), np.zeros(0, dtype=np.int64), mode=mode, interval_index=mode.is_group
            )
        ps = PointSet.from_points(points, mode=mode)
    if ps.d != 1:
        raise MalformedInputError(f"build_1d needs 1-D points, got d={ps.d}")
    return Frequency1D(
        ps.coords[:, 0], ps.colors, ps.weight_list(), mode=ps.mode, interval_index=ps.mode.is_group
    )
