"""One-dimensional color frequency reporting via the successor transform.

Every point of a color chain is mapped to (own rank, rank of the next point
of the same color), carrying the combined weight of the chain prefix.  The
quadrant ``rank < q and successor-rank >= q`` then contains at most one
mapped point per color: the rightmost point of that color below the query
bound, whose prefix weight is exactly the answer for the color.

The quadrant reports go through a heap-ordered binary index over the rank
axis (a static priority search tree), giving O(log n + k) index probes per
query.  A block holds the indexes of many rank ranges: the strips of a tree,
or the trees of a d = 1 forest, such as ``build_1d``'s.  Points come in as
``PointSet`` columns, checked; the builder adds only the check that color
ids are below 2**31, which its widest color column holds.
"""

from __future__ import annotations

import operator
from array import array
from bisect import bisect_left, bisect_right

import numpy as np

from .core import (
    COUNT,
    INT64_MAX,
    ContractViolationError,
    CountMode,
    MalformedInputError,
    MalformedQueryError,
    QuerySession,
    rank_order,
)

_SMALL = 8  # below this size a linear scan beats any index
_INT32_MIN, _INT32_MAX = -(2**31), 2**31 - 1
_COLOR_ERROR = "color ids must be below 2**31"


def _zeros(typecode: str, n: int) -> array:
    """n zeros as an ``array(typecode)``, sized exactly (built from bytes,
    an array over-allocates by 1/16), and with no list of n ints made."""
    return array(typecode, [0]) * n


# the typecodes a column may take, narrowest first: for integers in
# [0, bound], and for integers in [-bound, bound]
_UNSIGNED, _SIGNED = "BHi", "hiq"
_LIMITS = {code: int(np.iinfo(code).max) for code in _UNSIGNED + _SIGNED}


def _typecode(bound, codes: str) -> str:
    """The first of ``codes`` whose items hold every integer of magnitude
    up to ``bound``, or the last of them, which the caller's own check
    covers."""
    return next((code for code in codes if bound <= _LIMITS[code]), codes[-1])


def _view(column: array) -> np.ndarray:
    """A numpy view of a typed column, to write it in place."""
    return np.frombuffer(column, dtype=column.typecode)


def _column(typecode: str, x: np.ndarray) -> array:
    """``x`` as an exactly sized ``array(typecode)``."""
    out = _zeros(typecode, len(x))
    _view(out)[:] = x
    return out


def _sort_charge(n: int) -> int:
    """Comparison charge we book for an n-element sort."""
    return n * max(1, (max(n, 1) - 1).bit_length())


class _Cells(dict):
    """Accumulator cells keyed by color, each None (empty) until set."""

    __slots__ = ()

    def __missing__(self, color):
        return None


class Frequency1D:
    """The 1-D block: mapped chain points plus quadrant indexes, for one or
    more rank ranges.  It has no public constructor: the strip trees and the
    offline sweeps hold blocks, and the d = 1 tree of ``build_1d`` is one.

    Range ``j`` owns the block positions [start[j], start[j+1]), and the
    heap nodes of the same indexes, one node per entry.  ``_build_ranges``
    builds every block, from the columns of a ``PointSet``, which checked
    the points.  By block position:
    ``sorted_values``, ``colors`` and ``prefix_weight``, each range in rank
    order.  Each range also has its own build ops (``_ops``) and
    ``_may_cancel`` flag.

    The successor ranks inside each range (``succ``; the range's size for
    none) are the priorities of a static max-heap per range, held in the
    columns ``lo``, ``pri``, ``pos`` and ``skip``.  Its implicit skeleton
    is the balanced binary split of the range; each rank descends from the
    root toward itself and occupies the first free node, in decreasing
    priority order, ties by position.  A node's occupant therefore has
    priority >= everything below it, and an empty node has an empty
    subtree.

    The columns list the occupied nodes in preorder (node, left subtree,
    right subtree); an empty node has nothing stored below it and is not
    stored either.  Per node, ``lo`` is the block position where its range
    starts, ``pri`` and ``pos`` its occupant's priority and block position,
    and ``skip`` the number of nodes in its subtree, so ``k + skip[k]`` is
    the index just past it.  Positions are offset by the range's start and
    priorities are not, so range ``j`` reads the same as a structure of its
    own once ``start[j]`` is taken off ``lo`` and ``pos``.  ``lo`` never
    decreases in preorder, and of the nodes starting at one ``lo`` the
    first is the shallowest.  The columns keep no node's ``hi``.  A range
    of ``_SMALL`` or fewer positions is flat instead: every position is a
    node of its own (``lo`` and ``pos`` the position, ``skip`` 1), so a
    scan of it is the linear scan.

    Every column is a typed ``array``, and each integer column by entry
    takes the narrowest typecode (``_typecode``) that holds a bound known
    before the block is allocated: the four heap columns ``'B'``, ``'H'``
    or ``'i'`` by the block's size, ``colors`` the same by the largest
    color id on input, and count-mode ``prefix_weight`` ``'h'``, ``'i'`` or
    ``'q'`` by the sum of |w| on input, which bounds every chain's total.
    ``sorted_values`` is ``array('d')`` and semigroup prefixes are a list
    of objects.  Per range, ``start`` is ``array('i')``, ``_ops``
    ``array('q')`` and ``_may_cancel`` ``array('b')``.  An entry then
    costs bytes, not object slots: a count-mode tree with n=20k, phi=16
    and s=16 has blocks of uint16 heap columns, uint8 colors and int16
    prefixes, 19 bytes of column buffers per entry and about 24 of live
    heap, and a block is about a dozen objects, however many ranges it
    holds.  Every prefix query reads the
    columns in one loop, ``_report_walk``, which scans the ranges of a
    whole strip-tree walk in turn, straight into the accumulator's cells.
    Its cost is per node visited: a box2x2 query (n=2000, s=8, max
    weights) visits about 160 nodes and merges about 115 hits in about
    35 us, some 0.2 us per node on a 2-vCPU machine.  Reading an element
    of an array costs about twice reading one of a tuple, whatever its
    typecode (36 against 18 ns on that machine; 28 ns for ``'B'``, whose
    values are cached ints), which is the price of the compact columns; a
    narrower column costs no more to read and leaves a smaller heap to
    walk.  ``bisect`` searches the ``array('d')``
    inside one range about 3x faster than numpy searches a slice of it.
    ``_build_ranges`` allocates a block's columns by entry before its
    temporaries, so that freeing those leaves no holes between blocks.
    Color ids must be below 2**31, or the build raises
    ``MalformedInputError``.  ``query_prefix`` reads range 0 on its own,
    for tests; queries reach the ranges through the trees that hold them.
    """

    __slots__ = (
        "mode",
        "m",
        "sorted_values",
        "colors",
        "prefix_weight",
        "start",
        "lo",
        "pri",
        "pos",
        "skip",
        "_ops",
        "_may_cancel",
    )

    def _set(self, mode, values, colors, pref, heap, start, ops, may_cancel) -> None:
        """Take the block's columns."""
        self.mode = mode
        self.m = len(values)
        self.sorted_values = values
        self.colors = colors
        self.prefix_weight = pref
        self.lo, self.pri, self.pos, self.skip = heap
        self.start = start
        self._ops = ops
        self._may_cancel = may_cancel

    # -- rank space ----------------------------------------------------------

    @property
    def stored_entries(self) -> int:
        """Number of stored mapped points (space instrumentation)."""
        return self.m

    @property
    def build_ops(self) -> int:
        return sum(self._ops)

    # -- queries ---------------------------------------------------------------

    def query_prefix(self, q: float, session: QuerySession | None = None) -> list:
        """Per-color total weight of the points of range 0 with coordinate
        <= q; probes land on ``session`` when one is given."""
        if session is not None and not isinstance(session, QuerySession):
            raise ContractViolationError(f"session: {type(session).__name__} is not a QuerySession")
        try:
            q = float(q)
        except (TypeError, ValueError, OverflowError):
            raise MalformedQueryError(f"query bound {q!r} is not a number") from None
        if q != q:
            raise MalformedQueryError("query bound is NaN")
        cells = _Cells()
        touched: list[int] = []
        probes, _ = _report_walk(((self, 0),), q, cells, touched, self.mode.combine)
        if session is not None:
            session.probes += probes
        return [(c, cells[c]) for c in touched]


def _report_walk(walk, q: float, slots, touched: list, combine) -> tuple[int, int]:
    """Merge the per-color totals of the points <= q of every (block, range)
    pair of ``walk``, in its order, into ``slots``; the one report loop of
    every prefix query.  Returns (probes, touches).

    With r the count of a range's points <= q, the quadrant ``rank < r <=
    succ`` holds at most one point per color, so each range combines each
    color's cell at most once.  A cell still None is set and its color
    appended to ``touched``; any other is merged with the weight ``w``:
    ``cur + w`` when ``combine`` is ``operator.add`` (count mode), the
    later weight only when ``w > cur`` when it is ``max`` (which is what
    ``max(cur, w)`` returns, ties to the earlier object), and
    ``combine(cur, w)`` otherwise.  Count totals of zero are left out.
    Colors were checked when the blocks were built.

    A range's scan walks its heap in preorder up to the first node whose
    range starts at or past block position ``rq`` = start + r: a node whose
    ``pri`` is below r skips its subtree, and an occupant below ``rq`` is a
    hit.  It visits exactly the nodes that a stack walk down from the root
    pops for the ranks [0, r) with priority >= r.  Consecutive pairs of one
    block share its columns, so a d = 2 walk, whose strips mostly lie in one
    block, reads them once.
    """
    add, top = combine is operator.add, combine is max
    probes = touches = 0
    block = None
    for f, j in walk:
        if f is not block:
            block = f
            values, lo, pri, pos, skip = f.sorted_values, f.lo, f.pri, f.pos, f.skip
            cols, pref, start, may_cancel = f.colors, f.prefix_weight, f.start, f._may_cancel
        a, b = start[j], start[j + 1]
        rq = bisect_right(values, q, a, b)
        r = rq - a
        cancel = may_cancel[j]
        k = a
        end = bisect_left(lo, rq, a, b)
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
                elif add:
                    slots[c] = cur + w
                elif top:
                    if w > cur:
                        slots[c] = w
                else:
                    slots[c] = combine(cur, w)
                touches += 1
    return probes, touches


def _max_ints(weights, mode):
    """``weights`` (a weight column) as an integer array when ``_build_ranges``
    may take its max path: ``mode.combine`` is ``max`` and every weight is
    a Python int, not a bool, that fits int64.  None otherwise, and the
    semigroup loop runs.  A forest checks this once for all its blocks and
    holds the array while they are built, as int32 when the weights fit."""
    if mode.combine is not max or not set(map(type, weights)) <= {int}:
        return None
    try:
        ints = np.fromiter(weights, dtype=np.int64, count=len(weights))
    except OverflowError:
        return None
    if len(ints) and _INT32_MIN <= ints.min() and ints.max() <= _INT32_MAX:
        return ints.astype(np.int32)
    return ints


def _interleave(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[0], b[0], a[1], b[1], ... of two int64 arrays of one length."""
    out = np.empty(2 * len(a), dtype=np.int64)
    out[0::2] = a
    out[1::2] = b
    return out


def _max_prefixes(w, ints, grouped, first):
    """The max prefixes of a block's chains, as a list by position, or None
    when the key below would overflow int64.

    ``w`` and ``ints`` are the weights by position, as objects and as
    integers; ``grouped`` lists the positions in chain order and ``first``
    flags each chain's first entry there.  One running max of ``chain *
    span + weight - low`` runs over the chain order, so a chain starts
    above everything before it; an entry where it rises strictly is a
    record, and each prefix is the weight object of the last record up to
    it: the first of the chain's largest weights so far, the object that
    ``max`` keeps.  No int object is made.
    """
    wg = ints[grouped].astype(np.int64, copy=False)
    low = int(wg.min())
    span = int(wg.max()) - low + 1
    chain = np.cumsum(first) - 1
    if (int(chain[-1]) + 1) * span > INT64_MAX:
        return None
    key = chain * span + (wg - low)
    record = np.concatenate(([True], key[1:] > np.maximum.accumulate(key)[:-1]))
    win = np.maximum.accumulate(np.where(record, np.arange(len(key)), 0))
    out = np.empty(len(key), dtype=object)
    out[grouped] = w[grouped[win]]
    return out.tolist()


def _place(pri, off, heap) -> np.ndarray:
    """Lay out the heap of every range [off[j], off[j+1]) of a block over
    the priorities ``pri`` (non-negative int64, by block position) in the
    typed columns ``heap`` (lo, pri, pos, skip), as ``Frequency1D``
    describes, one depth at a time.  Returns each range's depth steps, the
    levels its entries descend (0 for a flat range), as int64."""
    # Positions are global (range offset plus rank), so the nodes of one
    # depth are disjoint segments [lo, hi); each node's occupant is the max
    # priority among its unplaced entries, ties to the smallest position,
    # as in the one-by-one insertion (an occupied node passes each later
    # entry on toward its position, so a node takes the first entry of its
    # segment to arrive).  Only filled segments are nodes, and only they
    # split further, so each entry occupies exactly one node: by the
    # entry's position, its node's [lo, hi) and depth.  A small range's
    # positions p are flat nodes [p, p+1) at depth 0.
    size = len(pri)
    sizes = np.diff(off)
    depth_at = np.zeros(size, dtype=np.int64)
    node_lo = np.arange(size)
    node_hi = node_lo + 1
    indexed = sizes > _SMALL
    seg_lo, seg_hi = off[:-1][indexed], off[1:][indexed]
    # max key: max priority, then min position, the position in the low
    # bits.  Placed entries and a small range's entries are -1, so the
    # entries from a segment's lo up to the next one's are its own and -1s
    bits = max(size - 1, 1).bit_length()
    mask = (1 << bits) - 1
    key = pri << bits | (mask - np.arange(size))
    key[np.repeat(~indexed, sizes)] = -1
    won, won_lo, won_hi = [], [], []  # each depth's occupants and nodes
    while len(seg_lo):
        best = np.maximum.reduceat(key, seg_lo)
        filled = best >= 0
        placed = mask - (best[filled] & mask)
        seg_lo, seg_hi = seg_lo[filled], seg_hi[filled]
        key[placed] = -1
        won.append(placed)
        won_lo.append(seg_lo)
        won_hi.append(seg_hi)
        mid = (seg_lo + seg_hi) >> 1
        seg_lo, seg_hi = _interleave(seg_lo, mid), _interleave(mid, seg_hi)
        wide = seg_hi > seg_lo
        seg_lo, seg_hi = seg_lo[wide], seg_hi[wide]
    depth = len(won)
    if won:
        placed = np.concatenate(won)
        depth_at[placed] = np.repeat(np.arange(depth), [len(p) for p in won])
        node_lo[placed] = np.concatenate(won_lo)
        node_hi[placed] = np.concatenate(won_hi)
    del key, won, won_lo, won_hi

    # preorder is the order by (lo, depth): node ranges nest or are
    # disjoint, and of two nodes starting at one lo the shallower is the
    # ancestor.  The nodes starting at one lo lie on one path at
    # consecutive depths (an empty node, the only kind that could break the
    # path, is always the deepest at its lo, and is not stored), so a
    # node's index is the number of nodes starting below its lo plus its
    # depth below the shallowest of them.  A node's subtree ends where the
    # nodes starting below its hi end, and range j's nodes are
    # [off[j], off[j+1]), one per entry.
    starts_below = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(np.bincount(node_lo, minlength=size), out=starts_below[1:])
    shallowest = np.full(size, depth)
    np.minimum.at(shallowest, node_lo, depth_at)
    pre = starts_below[node_lo] + depth_at - shallowest[node_lo]
    del shallowest
    lo_col, pri_col, pos_col, skip_col = map(_view, heap)  # in preorder
    lo_col[pre] = node_lo
    pos_col[pre] = np.arange(size)
    skip_col[pre] = starts_below[node_hi] - pre
    del node_lo, node_hi, pre
    pri_col[:] = pri[pos_col]
    np.cumsum(depth_at, out=starts_below[1:])  # the depths summed per range
    return np.diff(starts_below[off])


def _build_ranges(values, colors, weights, ranges, mode=COUNT, rank=None,
                  ints=None) -> Frequency1D:
    """The structures of many rank ranges of one array, as one block built
    in one numpy pass: the builder of every ``Frequency1D``.

    ``values``, ``colors`` and ``weights`` are 1-D arrays in one fixed
    order, the weights ``PointSet.weights`` or a gather of it: int64
    counts, whose overflow guard keeps every prefix total exact, or
    objects.  Range ``j`` of the block holds the points [lo, cut) for
    ``ranges[j] = (lo, cut)``, laid out as ``Frequency1D`` describes;
    ``ranges`` is a sequence of pairs or a two-column array, which makes
    no Python object per range.  A range, or the whole block, may be
    empty.

    ``rank`` gives each value a rank that orders every range as
    ``rank_order`` orders it on its own: distinct inside a range, ascending
    with the value and, among equal values, with the position.
    ``dominance._fill`` passes the ranks of its skeleton's y column, ranked
    once per skeleton; without it the block ranks ``values`` itself.  The
    build then sorts two unique int64 keys with numpy's default sort: the
    entries by (range, rank), and the chains by (range, color, position).
    ``ints``, from ``_max_ints``, are the weights as integers when the max
    path applies: each chain's max prefixes are then one running max over
    the chain order, and the prefix column holds the weight objects that
    win, the earlier of equal ones, as ``max`` returns.  Count prefixes are
    one running sum; any other semigroup is combined in one Python loop.
    """
    ranges = np.asarray(ranges, dtype=np.int64).reshape(-1, 2)
    los = ranges[:, 0]
    sizes = ranges[:, 1] - los
    nr = len(ranges)
    off = np.zeros(nr + 1, dtype=np.int64)
    np.cumsum(sizes, out=off[1:])
    size = int(off[-1])
    # the block's columns by entry come before every temporary, which are
    # then freed above them, where the next build reuses the space, and not
    # in holes between blocks that stay resident.  Each integer column takes
    # the narrowest typecode for a bound known now: the block's size for
    # the heap, the largest color id on input, and for count prefixes the
    # sum of |w| on input (a float, exact below 2**53 and far above 2**31
    # past it), which bounds every chain's total
    top = int(colors.max(initial=0))
    if top > _INT32_MAX:  # before colors enter an int64 key
        raise MalformedInputError(_COLOR_ERROR)
    count = isinstance(mode, CountMode)
    bound = np.abs(weights).sum(dtype=np.float64) if count else 0
    ys_col, cols_col = _zeros("d", size), _zeros(_typecode(top, _UNSIGNED), size)
    heap = [_zeros(_typecode(size, _UNSIGNED), size) for _ in range(4)]  # lo, pri, pos, skip
    pref_col = _zeros(_typecode(bound, _SIGNED), size) if count else None
    if rank is None:
        rank = np.empty(len(values), dtype=np.int64)
        rank[rank_order(values)] = np.arange(len(values))
    rid = np.repeat(np.arange(nr), sizes)
    pos = np.arange(size) - off[:-1][rid]  # rank inside the member's range

    # sort: by (range, rank), the order rank_order gives each slice
    idx = pos + los[rid]
    idx = idx[np.argsort(rid * (int(rank.max(initial=0)) + 1) + rank[idx])]
    _view(ys_col)[:] = values[idx]
    cols = colors[idx]
    _view(cols_col)[:] = cols
    w = weights[idx]
    wints = None if ints is None else ints[idx]
    del rank, idx  # temporaries go as soon as they are used, for peak memory

    # chains: group by (range, color) keeping rank order, link neighbours.
    # The key is unique, and below size * 2**31 <= 2**62: range j's keys
    # are [off[j] * C, off[j+1] * C), by color, then by rank
    ncolors = top + 1
    grouped = np.argsort(off[:-1][rid] * ncolors + cols * sizes[rid] + pos)
    chain = (rid * ncolors + cols)[grouped]
    same = chain[1:] == chain[:-1]
    earlier, later = grouped[:-1][same], grouped[1:][same]  # chain neighbours
    succ = sizes[rid]
    succ[earlier] = pos[later]
    first = np.ones(size, dtype=bool)  # each chain's first, in chain order
    first[1:] = ~same
    may_cancel = np.zeros(nr, dtype=bool)
    if pref_col is not None:
        wg = w[grouped]
        total = np.cumsum(wg)
        _view(pref_col)[grouped] = total - (total - wg)[first][np.cumsum(first) - 1]
        del wg, total
        may_cancel[rid[w <= 0]] = True
    elif wints is not None and size:
        pref_col = _max_prefixes(w, wints, grouped, first)
    if pref_col is None:
        # a chain's first entry keeps its weight; each later one combines
        # its predecessor's prefix with its weight, in chain order (a None
        # prefix starts afresh)
        pref_col = w.tolist()
        combine = mode.combine
        for g, p in zip(later.tolist(), earlier.tolist()):
            prev = pref_col[p]
            if prev is not None:
                pref_col[g] = combine(prev, pref_col[g])
    del rid, pos, w, wints, grouped, chain, same, earlier, later, first

    depths = _place(succ, off, heap)
    del succ

    # build counters: a range's sort and two steps per entry, and for an
    # indexed range the sort by priority and one step per level descended
    indexed = sizes > _SMALL
    charge = sizes * np.maximum(1, np.frexp(np.maximum(sizes - 1, 0))[1])  # _sort_charge
    ops = 2 * sizes + charge + np.where(indexed, depths + charge, 0)

    block = Frequency1D.__new__(Frequency1D)
    block._set(mode, ys_col, cols_col, pref_col, heap,
               _column("i", off), _column("q", ops), _column("b", may_cancel))
    return block

