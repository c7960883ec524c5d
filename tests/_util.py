"""Shared helpers for the test suite."""

import math
from array import array
from bisect import bisect_left
from contextlib import ExitStack, contextmanager
from unittest import mock

import numpy as np

import colorfreq as cf
from colorfreq import boxes, dominance, freq1d, offline
from colorfreq.core import count_le, rank_order
from colorfreq.freq1d import _SMALL, _sort_charge

canon = cf.canonical_freq


def random_instance(rng, n=None, d=None, phi=None, grid_prob=0.5, mode=cf.COUNT):
    """A random PointSet with frequent duplicate coordinates."""
    if n is None:
        n = int(rng.integers(0, 400))
    if d is None:
        d = int(rng.integers(1, 4))
    if phi is None:
        phi = int(rng.integers(1, max(n, 1) + 1))
    grid = int(rng.integers(2, 2 * max(n, 1) + 2)) if rng.random() < grid_prob else None
    seed = int(rng.integers(0, 2**31))
    return cf.generate_points(n, d, phi, seed, mode=mode, grid=grid)


def random_query(rng, d, sides=None, lo=-50.0, hi=1100.0):
    if sides is None:
        sides = tuple(int(x) for x in rng.integers(1, 3, d))
    bounds = []
    for axis in range(d):
        if sides[axis] == 1:
            bounds.append((-np.inf, float(rng.uniform(lo, hi))))
        else:
            a, b = sorted(rng.uniform(lo, hi, 2))
            bounds.append((float(a), float(b)))
    return cf.BoxQuery(bounds)


def random_corner(rng, d, lo=-50.0, hi=1100.0):
    return cf.BoxQuery.dominance([float(x) for x in rng.uniform(lo, hi, d)])


def walk_ranks(tree, x, t=0):
    """The ranks c of tree ``t`` whose ranges [parent[c], c) tile [0, x),
    ascending: the ranks of ``tree._walk(x, t)``."""
    parent, walk = tree.parent[t], []
    while x:
        walk.append(x)
        x = parent[x]
    return walk[::-1]


# Nine-point planar instance mirroring the introductory picture: four red
# and three blue points inside (-inf,10] x (-inf,10], one green and one
# purple outside.
FIGURE_POINTS = [
    ((1.0, 1.0), 0),
    ((2.0, 8.0), 0),
    ((5.0, 5.0), 0),
    ((9.0, 2.0), 0),
    ((3.0, 3.0), 1),
    ((6.0, 7.0), 1),
    ((8.0, 9.0), 1),
    ((12.0, 4.0), 2),
    ((4.0, 12.0), 3),
]
FIGURE_QUERY = cf.BoxQuery.dominance((10.0, 10.0))
FIGURE_ANSWER = ((0, 4), (1, 3))  # (red, 4) and (blue, 3)


def figure_instance():
    return cf.PointSet.from_points(FIGURE_POINTS)


# -- the per-strip query path: the reference of the fused report kernel ---------
#
# Before the one kernel (``freq1d._report_walk``), every strip of a walk made
# its own ``_prefix_into`` -> ``_scan_prefix`` call, the merges went through
# ``mode.combine``, leaf and corner checks iterated numpy rows, and a box
# descended by recursion.  ``reference_queries()`` patches that path back in.


def _scan_prefix(f, j, q, slots, touched, combine):
    """(probes, touches) of range ``j`` of ``f`` for the bound q, merged into
    ``slots`` through ``combine``."""
    a, b = f.start[j], f.start[j + 1]
    r = count_le(f.sorted_values, q, a, b)
    rq = a + r
    pri, pos, skip = f.pri, f.pos, f.skip
    cols, pref, cancel = f.colors, f.prefix_weight, f._may_cancel[j]
    k = a
    end = bisect_left(f.lo, rq, a, b)
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


def _prefix_into(f, q, acc, session, j=0):
    probes, touches = _scan_prefix(f, j, q, acc.slots, acc.touched, acc.mode.combine)
    session.probes += probes
    acc.touch_ops += touches


def _scan_range(coords, colors, weights, start, stop, bounds, acc):
    for pos in range(start, stop):
        for v, (lo, hi) in zip(coords[pos], bounds):
            if v < lo or v > hi:
                break
        else:
            acc.add(int(colors[pos]), weights.item(pos))


def _answer(self, structs, rest, rq, session):
    acc = session.accumulator
    for struct, j in structs:
        session.substructure_queries += 1
        if isinstance(struct, cf.Frequency1D):
            _prefix_into(struct, rest[0], acc, session, j)
        else:
            struct._query_into(rest, session, j)
    if rq:
        session.substructure_queries += 1
        bounds = [(-np.inf, np.inf)] + [(-np.inf, c) for c in rest]
        _scan_range(self.coords_r, self.colors_r, self.weights_r, rq - 1, rq, bounds, acc)


def _query_into(self, corner, session, t=0):
    if self.d == 1:
        self._answer(((self.base, t),), corner, 0, session)
        return
    off = self.start[t]
    rq = count_le(self.sorted0, corner[0], off, self.start[t + 1])
    if rq == 0:
        return
    self._answer([(self.prefix[off + c], self.index[off + c]) for c in walk_ranks(self, rq - 1, t)],
                 corner[1:], off + rq, session)


def _query_rec(self, lv, layer, bounds, session):
    if lv == len(self.levels):
        session.fanout += 1
        self.forest._query_into(tuple(hi for _, hi in bounds), session, layer)
        return
    level = self.levels[lv]
    lo, hi = bounds[level.axis]
    if lo == -np.inf:
        self._query_rec(lv + 1, level.full_high[layer], bounds, session)
        return
    if hi == np.inf:
        nb = list(bounds)
        nb[level.axis] = (-np.inf, -lo)
        self._query_rec(lv + 1, level.full_low[layer], nb, session)
        return
    off = level.start[layer]
    node, steps = boxes._locate(level.vals, off, level.start[layer + 1], lo, hi)
    session.probes += steps
    if node is None:
        return
    mid = boxes._split_rank(*node)
    if mid is None:
        session.fanout += 1
        _scan_range(level.coords, level.colors, level.weights, off + node[0], off + node[1],
                    bounds, session.accumulator)
        return
    nb_low = list(bounds)
    nb_low[level.axis] = (-np.inf, -lo)
    self._query_rec(lv + 1, level.inner_low[off + mid], nb_low, session)
    nb_high = list(bounds)
    nb_high[level.axis] = (-np.inf, hi)
    self._query_rec(lv + 1, level.inner_high[off + mid], nb_high, session)


def _add(self, color, weight):
    if not 0 <= color < self.phi:
        raise cf.ContractViolationError(f"color {color} outside [0, {self.phi})")
    cur = self.slots[color]
    if cur is None:
        self.slots[color] = weight
        self.touched.append(color)
    else:
        self.slots[color] = self.mode.combine(cur, weight)
    self.touch_ops += 1


def _add_entries(self, entries):
    for c, w in entries:
        self.add(c, w)


def _drain_and_reset(self):
    out = []
    slots = self.slots
    self.drain_ops += len(self.touched)
    for c in self.touched:
        w = slots[c]
        slots[c] = None
        if self._count_mode and w == 0:
            continue
        out.append((c, w))
    self.touched = []
    return out


def _drain_into(self, other):
    entries = self.drain_and_reset()
    other.add_entries(entries)
    return len(entries)


@contextmanager
def reference_queries():
    """Every online and offline query of the block runs the per-strip path."""
    patches = [
        (cf.DominanceTree, "_answer", _answer),
        (cf.DominanceTree, "_query_into", _query_into),
        (cf.BoxTree, "_query_rec", _query_rec),
        (offline, "_scan_range", _scan_range),
        (cf.ColorAccumulator, "add", _add),
        (cf.ColorAccumulator, "add_entries", _add_entries),
        (cf.ColorAccumulator, "drain_and_reset", _drain_and_reset),
        (cf.ColorAccumulator, "drain_into", _drain_into),
    ]
    with ExitStack() as stack:
        for owner, attr, fn in patches:
            stack.enter_context(mock.patch.object(owner, attr, fn))
        yield


# -- the 1-D layout: a checker from its definition, and the one-by-one build -----


def block_1d(values, colors, weights=None, mode=cf.COUNT):
    """The one-range 1-D block over ``values`` (one coordinate per point),
    ``colors`` and ``weights``: the base of the d = 1 tree that ``build_1d``
    builds from their ``PointSet``, which checks them."""
    return cf.build_1d(cf.PointSet(np.asarray(values)[:, None], colors, weights, mode)).base


def succ(block):
    """Rank in its range of the next point of the same color (the range's
    size for none), by block position."""
    out = [0] * block.m
    for p, i in zip(block.pri, block.pos):
        out[i] = p
    return out


def chain_of(block, color):
    """(value, successor value or +inf, prefix weight) triples for one color
    of a one-range block."""
    out = []
    nxt = succ(block)
    for r in range(block.m):
        if block.colors[r] == color:
            s = nxt[r]
            after = float(block.sorted_values[s]) if s < block.m else math.inf
            out.append((float(block.sorted_values[r]), after, block.prefix_weight[r]))
    return out


def chains(colors):
    """(succ, pred) of the ranks of ``colors``: the next and the previous
    rank of the same color, len(colors) and -1 for none."""
    m = len(colors)
    succ, pred, last = [m] * m, [-1] * m, {}
    for r, c in enumerate(colors):
        if c in last:
            succ[last[c]] = r
            pred[r] = last[c]
        last[c] = r
    return succ, pred


def _check_heap(heap, a, b, pri):
    """Assert that nodes [a, b) of ``heap`` = (lo, pri, pos, skip) are the
    heap of the range [a, b) over the priorities ``pri`` (by rank in the
    range), as the ``Frequency1D`` docstring defines it; return its depth
    steps, the depths of its nodes summed."""
    lo, pri_col, pos, skip = (list(column[a:b]) for column in heap)
    m = b - a
    assert sorted(pos) == list(range(a, b))  # one node per entry
    assert pri_col == [pri[i - a] for i in pos]
    if m <= _SMALL:  # flat: every position a node of its own
        assert lo == pos == list(range(a, b)) and skip == [1] * m
        return 0
    assert skip[0] == m
    keys = []  # (lo, depth) in preorder

    def walk(k, node_lo, node_hi, depth):
        assert lo[k] == node_lo and node_lo <= pos[k] < node_hi
        keys.append((node_lo, depth))
        end, child = k + skip[k], k + 1
        if node_hi - node_lo > 1:
            mid = (node_lo + node_hi) >> 1
            for child_lo, child_hi in ((node_lo, mid), (mid, node_hi)):
                if child < end and lo[child] == child_lo:
                    # heap order: the occupant is the max priority of its
                    # subtree, ties to the smaller position
                    assert (pri_col[k], -pos[k]) > (pri_col[child], -pos[child])
                    walk(child, child_lo, child_hi, depth + 1)
                    child += skip[child]
        assert child == end  # skip is the subtree's size

    walk(0, a, b, 0)
    assert keys == sorted(keys)  # preorder is the order by (lo, depth)
    return sum(depth for _, depth in keys)


def check_block(block, parts):
    """Assert that ``block`` is laid out as the ``Frequency1D`` docstring
    defines it, range j over ``parts[j] = (values, colors, weights)``, the
    range's points in their order on input.  Every column is checked
    against the definition, not against another build: the values in rank
    order (ties by input order), each ``succ`` the next rank of its color,
    each prefix the running combine of its chain, the heap of each range,
    and the build counters."""
    mode = block.mode
    count = isinstance(mode, cf.CountMode)
    start = list(block.start)
    assert start[0] == 0 and len(start) == len(parts) + 1
    assert block.m == start[-1] == len(block.sorted_values) == len(block.colors)
    assert len(block.prefix_weight) == block.m and len(block._ops) == len(parts)
    heap = (block.lo, block.pri, block.pos, block.skip)
    for j, (values, colors, weights) in enumerate(parts):
        a, b = start[j], start[j + 1]
        m = b - a
        assert m == len(values) == len(colors) == len(weights)
        order = sorted(range(m), key=lambda i: values[i])
        assert list(block.sorted_values[a:b]) == [float(values[i]) for i in order]
        cols = [int(colors[i]) for i in order]
        assert list(block.colors[a:b]) == cols
        succ, pred = chains(cols)
        pref = []
        for r, p in enumerate(pred):  # a None prefix starts its chain afresh
            w = weights[order[r]]
            prev = None if p < 0 else pref[p]
            pref.append(w if prev is None else mode.combine(prev, w))
        assert list(block.prefix_weight[a:b]) == pref
        assert block._may_cancel[j] == (count and any(w <= 0 for w in weights))
        charge = _sort_charge(m)
        ops = 2 * m + charge
        steps = _check_heap(heap, a, b, succ)
        ops += steps + charge if m > _SMALL else 0
        assert block._ops[j] == ops


def check_typecodes(block, colors, weights):
    """Assert that each integer column by entry of ``block`` has the
    narrowest typecode that holds its bound on the block's input
    ``colors`` and ``weights``: the block's size for the heap columns, the
    largest color id for ``colors``, and the sum of |w| for count
    prefixes."""
    heap = freq1d._typecode(block.m, "BHi")
    assert [c.typecode for c in (block.lo, block.pri, block.pos, block.skip)] == [heap] * 4
    assert block.colors.typecode == freq1d._typecode(max(map(int, colors), default=0), "BHi")
    if isinstance(block.mode, cf.CountMode):
        bound = sum(abs(int(w)) for w in weights)
        assert block.prefix_weight.typecode == freq1d._typecode(bound, "hiq")


@contextmanager
def checked_blocks():
    """Every block built inside is checked by ``check_block`` over the
    points its call was given, and by ``check_typecodes`` over its input;
    yields the list of blocks checked."""
    build = freq1d._build_ranges
    seen = []

    def checked(values, colors, weights, ranges, *args, **kwargs):
        block = build(values, colors, weights, ranges, *args, **kwargs)
        weights = weights.tolist()
        check_typecodes(block, colors, weights)
        check_block(block, [(values[lo:cut], colors[lo:cut], weights[lo:cut])
                            for lo, cut in np.asarray(ranges).reshape(-1, 2).tolist()])
        seen.append(block)
        return block

    with mock.patch.object(freq1d, "_build_ranges", checked), \
            mock.patch.object(dominance, "_build_ranges", checked):
        yield seen


def _reference_heap(pri):
    """The heap columns (lo, pri, pos, skip) over ``pri`` by one-by-one
    insertion, and the build steps booked for them."""
    m = len(pri)
    if m <= _SMALL:
        return array("i", range(m)), array("i", pri), array("i", range(m)), array("i", [1] * m), 0
    occ = {}
    steps = 0
    for i in sorted(range(m), key=pri.__getitem__, reverse=True):
        node, lo, hi = 1, 0, m
        while node in occ:
            mid = (lo + hi) >> 1
            if i < mid:
                node, hi = 2 * node, mid
            else:
                node, lo = 2 * node + 1, mid
            steps += 1
        occ[node] = i
    # preorder by an explicit stack, occupied nodes only; the nodes before
    # the end of a node's subtree are those starting below its hi
    los, his, poss = array("i"), [], array("i")
    stack = [(1, 0, m)]
    while stack:
        node, lo, hi = stack.pop()
        los.append(lo)
        his.append(hi)
        poss.append(occ[node])
        mid = (lo + hi) >> 1
        if 2 * node + 1 in occ:
            stack.append((2 * node + 1, mid, hi))
        if 2 * node in occ:
            stack.append((2 * node, lo, mid))
    skip = (np.searchsorted(los, his) - np.arange(m)).tolist()
    return los, array("i", [pri[i] for i in poss]), poss, array("i", skip), \
        steps + _sort_charge(m)


def reference_1d(values, colors, weights=None, mode=cf.COUNT):
    """The one-range ``Frequency1D`` built one entry at a time: a chain loop
    over the ranks and the one-by-one heap insertion.  The reference of the
    numpy build."""
    values = np.asarray(values, dtype=np.float64)
    m = len(values)
    weights = [1] * m if weights is None else list(weights)
    order = rank_order(values).tolist()
    cols = [int(colors[i]) for i in order]
    succ, pref = [m] * m, [None] * m
    last, running = {}, {}
    for r, i in enumerate(order):
        c = cols[r]
        if c in last:
            succ[last[c]] = r
        last[c] = r
        prev = running.get(c)
        running[c] = pref[r] = weights[i] if prev is None else mode.combine(prev, weights[i])
    count = isinstance(mode, cf.CountMode)
    if count:
        pref = array("q", pref)
    *heap, steps = _reference_heap(succ)
    f = cf.Frequency1D.__new__(cf.Frequency1D)
    f._set(mode, array("d", values[order].tolist()), array("i", cols), pref, heap,
           array("i", [0, m]), array("q", [2 * m + _sort_charge(m) + steps]),
           array("b", [count and m > 0 and min(weights) <= 0]))
    return f


# -- offline batches, strip by strip and child by child ---------------------------
#
# Before a three-sided node was one sweep over a two-tree forest, each child
# of the node was a sweep of its own, a generator over a one-tree skeleton,
# and the node merged the two y-ordered answer streams in lockstep.  Here
# each sweep builds every strip on its own, by ``reference_1d`` at d = 2,
# when its walk enters it, and destroys it when the walk leaves it.


def reference_sweep(coords, colors, weights, mode, phi, qids, corners, sweep_axis, s,
                    summary, meter):
    """Generator over (qid, sweep coordinate, answer) of the d >= 2
    dominance batch with the corners ``corners`` (an (m, d) array, row i
    that of ``qids[i]``), ordered by the sweep coordinate, ties in input
    order."""
    coords = np.asarray(coords, dtype=np.float64)
    d = coords.shape[1]
    axes = [sweep_axis] + [a for a in range(d) if a != sweep_axis]
    jobs = sorted(((tuple(corner[a] for a in axes), qid)
                   for qid, corner in zip(qids, corners.tolist())), key=lambda job: job[0][0])
    skel = cf.DominanceTree._forest(coords[:, axes], colors, weights, s, phi, mode)
    summary.skeleton_nodes += skel.node_count
    session = cf.QuerySession(cf.ColorAccumulator(phi, mode))
    pinned = {}
    for corner, qid in jobs:
        rq = count_le(skel.sorted0, corner[0])
        pinned.setdefault(max(rq - 1, 0), []).append((corner, qid, rq))
    walk, live, sizes = [], [], []
    for x in sorted(pinned):
        nxt = walk_ranks(skel, x)
        keep = 0
        while keep < min(len(walk), len(nxt)) and walk[keep] == nxt[keep]:
            keep += 1
        while len(live) > keep:
            live.pop()
            meter.remove(sizes.pop())
            summary.total_destroyed += 1
        for c in nxt[keep:]:
            lo = skel.parent[0][c]
            if d == 2:
                struct = reference_1d(skel.coords_r[lo:c, 1], skel.colors_r[lo:c],
                                      skel.weights_r[lo:c].tolist(), mode)
            else:
                struct = skel._build_substructure(np.array([lo]), np.array([c]))
            entries = struct.stored_entries
            live.append((struct, 0))
            sizes.append(entries)
            summary.total_built += 1
            summary.entries_built += entries
            meter.add(entries)
        walk = nxt
        for corner, qid, rq in pinned[x]:
            session.reset()
            skel._answer(live, corner[1:], rq, session)
            yield qid, corner[0], session.accumulator.drain_and_reset()
    while live:
        live.pop()
        meter.remove(sizes.pop())
        summary.total_destroyed += 1


def reference_dominance(ps, queries, sweep_axis, s, sink):
    """``answer_offline_dominance`` (d >= 2) through ``reference_sweep``."""
    summary = cf.SweepSummary(ps.n, len(queries), ps.d, s, sweep_axis)
    meter = offline._LiveMeter()
    corners = np.array([q.corner() for _, q in queries], dtype=np.float64).reshape(-1, ps.d)
    last = -np.inf
    for qid, coord, entries in reference_sweep(
        ps.coords, ps.colors, ps.weights, ps.mode, ps.phi,
        [qid for qid, _ in queries], corners, sweep_axis, s, summary, meter,
    ):
        summary.emit_order_violations += coord < last
        last = coord
        summary.emitted += 1
        sink(qid, entries)
    summary.peak_live_entries = meter.peak
    return summary


def layer_half(coords, colors, weights, axis, lo, hi, low):
    """(coords, colors, weights) of the rows [lo, hi) of a layer's columns,
    ``axis`` negated when ``low``, so that a lower bound on it becomes an
    upper bound."""
    coords = coords[lo:hi].copy()
    if low:
        coords[:, axis] = -coords[:, axis]
    return coords, colors[lo:hi], weights[lo:hi]


def reference_3sided(ps, queries, s, sink):
    """``answer_offline_3sided`` with each placed node's children swept by
    two ``reference_sweep`` generators, the low child x-reflected, whose
    answer streams merge pairwise through one accumulator."""
    summary = cf.SweepSummary(ps.n, len(queries), 2, s, 1)
    meter = offline._LiveMeter()
    order = rank_order(ps.coords[:, 0])
    columns = ps.coords[order], ps.colors[order], ps.weights[order]
    vals = columns[0][:, 0].tolist()
    summary.skeleton_nodes += boxes._node_count(ps.n)

    def emit(qid, entries):
        summary.emitted += 1
        sink(qid, entries)

    placed = {}
    for i, (_, q) in enumerate(queries):
        node, steps = boxes._locate(vals, 0, ps.n, *q.bounds[0])
        if node is not None:
            node = (steps - (boxes._split_rank(*node) is not None), *node)
        placed.setdefault(node, []).append(i)
    y = [q.bounds[1][1] for _, q in queries]
    for i in sorted(placed.pop(None, []), key=y.__getitem__):
        emit(queries[i][0], [])
    acc = cf.ColorAccumulator(ps.phi, ps.mode)
    for (_, lo, hi), batch in sorted(placed.items()):
        mid = boxes._split_rank(lo, hi)
        if mid is None:
            for i in sorted(batch, key=y.__getitem__):
                _scan_range(*columns, lo, hi, queries[i][1].bounds, acc)
                emit(queries[i][0], acc.drain_and_reset())
            continue
        qids = [queries[i][0] for i in batch]
        x1 = np.array([queries[i][1].bounds[0][0] for i in batch])
        x2 = np.array([queries[i][1].bounds[0][1] for i in batch])
        ys = np.array([y[i] for i in batch])
        left = reference_sweep(*layer_half(*columns, 0, lo, mid, True), ps.mode, ps.phi,
                               qids, np.column_stack((-x1, ys)), 1, s, summary, meter)
        right = reference_sweep(*layer_half(*columns, 0, mid, hi, False), ps.mode, ps.phi,
                                qids, np.column_stack((x2, ys)), 1, s, summary, meter)
        last = -np.inf
        for (qid, coord, part_left), (other, _, part_right) in zip(left, right, strict=True):
            assert qid == other
            summary.emit_order_violations += coord < last
            last = coord
            acc.add_entries(part_left)
            acc.add_entries(part_right)
            touches = len(part_left) + len(part_right)
            summary.merge_entry_touches += touches
            summary.merge_touches_per_query.append(
                (qid, touches, len(part_left), len(part_right)))
            emit(qid, acc.drain_and_reset())
    summary.peak_live_entries = meter.peak
    return summary
