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
# Batched builds (_build_ranges) take chunks of at most _BATCH_CHUNK entries,
# which bounds the numpy temporaries (an n=50k, s=16 tree peaks 30 MiB lower
# than with whole levels, at the same speed).  A chunk of fewer than
# _BATCH_MIN entries builds faster one Frequency1D at a time: the batched
# pass has a fixed cost near 0.4 ms, and the two break even at 200-380
# entries for ranges of 12-300 entries.
_BATCH_CHUNK = 1 << 14
_BATCH_MIN = 400


def _sort_charge(n: int) -> int:
    """Comparison charge we book for an n-element sort."""
    return n * max(1, (max(n, 1) - 1).bit_length())


class _PrioIndex:
    """Static max-heap over priorities, searchable by position.

    Positions are the integers [0, m).  The implicit skeleton is the
    balanced binary split of that range; each point descends from the root
    toward its position and occupies the first free node, in decreasing
    priority order.  A node's occupant therefore has priority >= everything
    below it, and an empty node has an empty subtree.

    ``report(a, b, t)`` returns all positions in [a, b) with priority >= t,
    visiting O(log m + output) nodes.
    """

    __slots__ = ("m", "pri", "occ", "build_steps")

    def __init__(self, pri: list[int]):
        self.m = m = len(pri)
        self.pri = pri
        self.build_steps = 0
        if m <= _SMALL:
            self.occ = None
            return
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
        self.occ = occ
        self.build_steps = steps + _sort_charge(m)

    def report(self, a: int, b: int, t: int) -> tuple[list[int], int]:
        """(hits, probes) for positions in [a, b) with priority >= t."""
        if a >= b or self.m == 0:
            return [], 0
        pri = self.pri
        if self.occ is None:
            hits = [i for i in range(a, b) if pri[i] >= t]
            return hits, b - a
        hits: list[int] = []
        probes = 0
        stack = [(1, 0, self.m)]
        occ = self.occ
        while stack:
            node, lo, hi = stack.pop()
            probes += 1
            i = occ.get(node)
            if i is None or pri[i] < t:
                continue
            if a <= i < b:
                hits.append(i)
            mid = (lo + hi) >> 1
            if lo < mid and a < mid and lo < b:
                stack.append((2 * node, lo, mid))
            if mid < hi and a < hi and mid < b:
                stack.append((2 * node + 1, mid, hi))
        return hits, probes


class Frequency1D:
    """The 1-D structure: mapped chain points plus quadrant indexes."""

    __slots__ = (
        "mode",
        "m",
        "sorted_values",
        "colors",
        "succ",
        "pred",
        "prefix_weight",
        "prefix_below",
        "_succ_index",
        "_pred_index",
        "build_ops",
        "_may_cancel",
    )

    def __init__(self, values, colors, weights=None, mode=COUNT, interval_index: bool = False):
        values = np.asarray(values, dtype=np.float64)
        colors_arr = np.asarray(colors, dtype=np.int64)
        m = len(values)
        if colors_arr.shape != (m,):
            raise MalformedInputError("need one color per value")
        self.mode = mode
        self.m = m
        self.build_ops = 0
        is_count = isinstance(mode, CountMode)
        if weights is None:
            wlist = [1] * m
        elif is_count:
            wlist = [int(w) for w in weights]
        else:
            wlist = list(weights)
        if len(wlist) != m:
            raise MalformedInputError("need one weight per value")
        # count totals of zero are never reported; only non-positive weights make them
        self._may_cancel = is_count and m > 0 and min(wlist) <= 0

        order = rank_order(values)
        self.sorted_values = values[order]
        self.sorted_values.setflags(write=False)
        cols = colors_arr[order].tolist()
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
        self.colors = cols
        self.succ = succ
        self.prefix_weight = pref

        self._succ_index = _PrioIndex(succ)
        self.build_ops = 2 * m + _sort_charge(m) + self._succ_index.build_steps
        # predecessors and the weight below each point serve interval queries only
        self.pred = self.prefix_below = self._pred_index = None
        if interval_index and is_count:
            pred = [-1] * m
            for r, nxt in enumerate(succ):
                if nxt < m:
                    pred[nxt] = r
            self.pred = pred
            self.prefix_below = [0 if p < 0 else pref[p] for p in pred]
            self._pred_index = _PrioIndex([-p for p in pred])
            self.build_ops += m + self._pred_index.build_steps

    # -- rank space ----------------------------------------------------------

    @property
    def size(self) -> int:
        return self.m

    @property
    def entries(self) -> int:
        """Number of stored mapped points (space instrumentation)."""
        return self.m

    # -- queries ---------------------------------------------------------------

    def query_prefix(self, q: float, session: QuerySession | None = None) -> list:
        """Per-color total weight of the points with coordinate <= q."""
        rq = count_le(self.sorted_values, q)
        if rq == 0:
            return []
        hits, probes = self._succ_index.report(0, rq, rq)
        if session is not None:
            session.probes += probes
        cols, pref = self.colors, self.prefix_weight
        if self._may_cancel:
            return [(cols[i], pref[i]) for i in hits if pref[i] != 0]
        return [(cols[i], pref[i]) for i in hits]

    def query_interval(self, lo: float, hi: float, session: QuerySession | None = None) -> list:
        """Per-color count of the points with coordinate in [lo, hi].

        Computed as a rank difference between the rightmost and leftmost
        in-range point of each color, which requires group weights.
        """
        if self._pred_index is None:
            raise UnsupportedOperationError(
                "interval queries need group weights and an interval index"
            )
        if lo > hi:
            raise MalformedQueryError(f"interval [{lo}, {hi}] is inverted")
        rlo = count_lt(self.sorted_values, lo)
        rhi = count_le(self.sorted_values, hi)
        if rlo >= rhi:
            return []
        right, p1 = self._succ_index.report(rlo, rhi, rhi)
        left, p2 = self._pred_index.report(rlo, rhi, 1 - rlo)
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
        for r in range(self.m):
            if self.colors[r] == color:
                s = self.succ[r]
                nxt = float(self.sorted_values[s]) if s < self.m else math.inf
                out.append((float(self.sorted_values[r]), nxt, self.prefix_weight[r]))
        return out


def _build_ranges(values, colors, weights, ranges, mode=COUNT) -> list:
    """Count-mode structures for many rank ranges of one array, batched.

    ``values``, ``colors`` and ``weights`` are arrays in one fixed order;
    the weights are int64 counts from a ``PointSet``, whose overflow guard
    keeps every prefix total exact.  Entry ``j`` of the result is None for
    an empty ``ranges[j] = (lo, cut)`` and otherwise equals, field for
    field, ``Frequency1D(values[lo:cut], colors[lo:cut], weights[lo:cut],
    mode)`` for the count mode ``mode``.
    Ranges are grouped into chunks of at most ``_BATCH_CHUNK`` entries (a
    larger range is a chunk of its own); a chunk below ``_BATCH_MIN``
    entries is built one structure at a time.
    """
    rank = np.empty(len(values), dtype=np.int64)
    rank[rank_order(values)] = np.arange(len(values))
    chunks: list[list[int]] = [[]]
    size = 0
    for j, (lo, cut) in enumerate(ranges):
        if cut <= lo:
            continue
        if chunks[-1] and size + cut - lo > _BATCH_CHUNK:
            chunks.append([])
            size = 0
        chunks[-1].append(j)
        size += cut - lo
    out: list = [None] * len(ranges)
    for chunk in chunks:
        spans = [ranges[j] for j in chunk]
        if sum(cut - lo for lo, cut in spans) < _BATCH_MIN:
            built = [Frequency1D(values[lo:cut], colors[lo:cut], weights[lo:cut], mode)
                     for lo, cut in spans]
        else:
            built = _build_chunk(values, colors, weights, mode, rank, spans)
        for j, f in zip(chunk, built):
            out[j] = f
    return out


def _build_chunk(values, colors, weights, mode, rank, spans) -> list:
    """The structures of the non-empty rank ranges ``spans`` in one numpy
    pass; ``rank`` maps each entry of ``values`` to its rank_order rank."""
    los = np.array([lo for lo, _ in spans], dtype=np.int64)
    sizes = np.array([cut for _, cut in spans], dtype=np.int64) - los
    nr = len(spans)
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
    w = weights[idx]

    # chains: group by (range, color) keeping rank order, link neighbours
    key = rid * (int(cols.max()) + 1) + cols
    grouped = np.argsort(key, kind="stable")
    same = key[grouped[1:]] == key[grouped[:-1]]
    succ = sizes[rid]
    succ[grouped[:-1][same]] = pos[grouped[1:][same]]
    wg = w[grouped]
    total = np.cumsum(wg)
    first = np.concatenate(([True], ~same))
    pref = np.empty_like(total)
    pref[grouped] = total - (total - wg)[first][np.cumsum(first) - 1]

    # heap: place one depth at a time.  Positions are global (range offset
    # plus rank), so the nodes of one depth are disjoint segments [lo, hi);
    # each node's occupant is the max priority among its unplaced entries,
    # ties to the smallest position, as in the one-by-one insertion of
    # _PrioIndex (an occupied node passes each later entry on toward its
    # position, so a node takes the first entry of its segment to arrive).
    node_at = np.zeros(size, dtype=np.int64)
    depth_at = np.zeros(size, dtype=np.int64)
    indexed = sizes > _SMALL
    seg_lo, seg_hi = off[:-1][indexed], off[1:][indexed]
    seg_node = np.ones(len(seg_lo), dtype=np.int64)
    # max key: max priority, then min position; placed entries drop to -1,
    # and the trailing -1 lets a segment end at ``size``
    key = np.append(succ * size + (size - 1 - np.arange(size)), -1)
    depth = 0
    while len(seg_lo):
        # reduce over [lo, hi) and the gap after it, then drop the gaps
        best = np.maximum.reduceat(key, np.column_stack((seg_lo, seg_hi)).ravel())[::2]
        filled = best >= 0
        best, seg_lo, seg_hi, seg_node = best[filled], seg_lo[filled], seg_hi[filled], seg_node[filled]
        placed = size - 1 - best % size
        key[placed] = -1
        node_at[placed] = seg_node
        depth_at[placed] = depth
        mid = (seg_lo + seg_hi) >> 1
        seg_lo = np.column_stack((seg_lo, mid)).ravel()
        seg_hi = np.column_stack((mid, seg_hi)).ravel()
        seg_node = np.column_stack((2 * seg_node, 2 * seg_node + 1)).ravel()
        wide = seg_hi > seg_lo
        seg_lo, seg_hi, seg_node = seg_lo[wide], seg_hi[wide], seg_node[wide]
        depth += 1

    # build counters, as Frequency1D and _PrioIndex book them
    charge = sizes * np.maximum(1, np.frexp(np.maximum(sizes - 1, 0))[1])  # _sort_charge
    steps = np.where(indexed, np.add.reduceat(depth_at, off[:-1]) + charge, 0)
    ops = 2 * sizes + charge + steps
    may_cancel = np.minimum.reduceat(w, off[:-1]) <= 0

    # materialise the lists and dicts the query path reads; one table of
    # int objects is shared by every structure of the chunk
    table = np.arange(max(int(sizes.max()), int(cols.max()), int(node_at.max())) + 1, dtype=object)
    ranks = table.tolist()
    ys.setflags(write=False)
    cols_l = table[cols].tolist()
    succ_l = table[succ].tolist()
    pref_l = pref.tolist()
    nodes_l = table[node_at].tolist()
    out = []
    for a, b, m, big, st, op, mc in zip(
        off.tolist(), off[1:].tolist(), sizes.tolist(), indexed.tolist(),
        steps.tolist(), ops.tolist(), may_cancel.tolist(),
    ):
        index = _PrioIndex.__new__(_PrioIndex)
        index.m = m
        index.pri = succ_l[a:b]
        index.occ = dict(zip(nodes_l[a:b], ranks)) if big else None  # node -> rank
        index.build_steps = st
        f = Frequency1D.__new__(Frequency1D)
        f.mode = mode
        f.m = m
        f.sorted_values = ys[a:b]
        f.colors = cols_l[a:b]
        f.succ = index.pri
        f.prefix_weight = pref_l[a:b]
        f.pred = f.prefix_below = f._pred_index = None
        f._succ_index = index
        f.build_ops = op
        f._may_cancel = mc
        out.append(f)
    return out


def build_1d(points, mode=COUNT, interval_index: bool | None = None) -> Frequency1D:
    """Build the 1-D structure from 1-D points.

    Accepts a ``PointSet`` with d == 1 or an iterable of ``(x, color[, weight])``
    tuples / ColoredPoints.  The interval index is built by default whenever
    the weight mode supports it.
    """
    if isinstance(points, PointSet):
        ps = points
    else:
        points = list(points)
        if not points:
            if interval_index is None:
                interval_index = mode.is_group
            return Frequency1D(
                np.zeros(0), np.zeros(0, dtype=np.int64), mode=mode,
                interval_index=interval_index,
            )
        ps = PointSet.from_points(points, mode=mode)
    if ps.d != 1:
        raise MalformedInputError(f"build_1d needs 1-D points, got d={ps.d}")
    if interval_index is None:
        interval_index = ps.mode.is_group
    return Frequency1D(
        ps.coords[:, 0], ps.colors, ps.weight_list(), mode=ps.mode, interval_index=interval_index
    )
