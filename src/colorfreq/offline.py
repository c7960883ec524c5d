"""Batched offline queries with low peak working space.

A sweep runs over a skeleton forest: the rank order and strip tree of one
tree or more, whose per-strip substructures are built only when a walk
enters their strip and destroyed once it has left, so the sweep never
holds more entries than its last walks cover.  Each query is pinned, in
every tree, to the rank just below its corner and answered the moment the
sweep reaches it, which makes the answer stream non-decreasing in the
sweep coordinate.  A dominance batch is a sweep over one tree.

Every pinned rank is known before the sweep starts, so a d = 2 sweep plans
its builds first (``_plan``): it lists the strips of all its trees in the
order their walks enter them and cuts that list into blocks, each built by
one ``_build_ranges`` call at the step its first strip enters and held
until its last strip pops.  A block takes strips of later steps only while
the entries held stay within the sweep's budget at every step: P, the sum
of the trees' last pinned ranks, or the larger peak of the batch it is
part of.  The walk to a rank x tiles [0, x), so P is what a sweep holds at
its last step anyway: blocks leave the peak unchanged.  A d >= 3 strip's
structure stores more entries than it has points, so there each strip is
a block of its own.

Three-sided batches in the plane ([x1,x2] x (-inf,y]) place each query at
the highest node of the box layer's split tree on x whose splitter falls in
its x-range and split it into two dominance queries over the node's
children, the low one x-reflected.  One sweep along y over the forest of
both children answers them, and each child's partial answer drains
straight into one merge accumulator, low child first: no subtraction
anywhere, so semigroup weights work.  The nodes are swept one after
another, and the batch's peak is the largest P among them, so each node's
sweep takes that as its budget.  Ties in a sweep coordinate keep the input
order of the queries.
"""

from __future__ import annotations

import operator
from array import array
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .core import (
    BoxQuery,
    ContractViolationError,
    INF,
    MalformedInputError,
    PointSet,
    QuerySession,
    UnsupportedShapeError,
    rank_order,
)
from .boxes import _locate, _node_count, _ranked_level, _split_rank
from .dominance import (
    ColorAccumulator,
    DominanceTree,
    _check_fanout,
    _ranked_groups,
    _scan_range,
    _shape,
    _strip_columns,
)

# A block of the offline sweep holds at most _BLOCK entries (a larger strip
# is a block of its own), and a step whose own strips hold more builds no
# strip of a later step: a block is built while its step's answers wait.
# A block of 50 entries takes about 0.2 ms to build, so fewer, larger
# blocks pay off.  Whole offline-3sided batches (seeds 101-103, caps
# interleaved in one process, 8 batches each on a shared 2-vCPU machine):
# with this cap a batch took 0.99-1.12 s at best (medians 1.15-1.20 s) and
# its 99th-percentile wait read 2.0-2.4 ms (medians); 8192 took 0.89-0.97 s
# (1.09-1.21 s) but waited 2.8-2.9 ms; 2048 took 1.09-1.19 s (1.27-1.50 s).
# Seed 101 makes 519 builds with this cap, 384 with 8192 and 821 with 2048.
_BLOCK = 1 << 12


@dataclass
class OfflineJob:
    """A batch of dominance queries plus the sink receiving each answer once."""

    points: PointSet
    queries: list  # (query id, BoxQuery) pairs
    sweep_axis: int = 0
    s: int = 2
    sink: Callable[[Any, list], None] | None = None


class _MergeLog:
    """The (query id, touches, k1, k2) of every merged query, in merge
    order, read as the list of those tuples.  It keeps them as columns, the
    ids in a list and the counts in unsigned 32-bit arrays (k1 and k2 are
    at most phi < 2**31), about 20 B a query where a tuple takes 80."""

    __slots__ = ("qids", "touches", "k1", "k2")
    __hash__ = None

    def __init__(self):
        self.qids = []
        self.touches, self.k1, self.k2 = array("I"), array("I"), array("I")

    def append(self, merged) -> None:
        qid, touches, k1, k2 = merged
        self.qids.append(qid)
        self.touches.append(touches)
        self.k1.append(k1)
        self.k2.append(k2)

    def __len__(self) -> int:
        return len(self.qids)

    def __iter__(self):
        return zip(self.qids, self.touches, self.k1, self.k2)

    def __eq__(self, other):
        if isinstance(other, (_MergeLog, list)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))


@dataclass
class SweepSummary:
    """Counters describing one completed offline job.

    ``merge_touches_per_query`` holds a three-sided batch's (query id,
    touches, k1, k2) per merged query, in merge order."""

    n: int
    m: int
    d: int
    s: int
    sweep_axis: int
    peak_live_entries: int = 0
    total_built: int = 0
    total_destroyed: int = 0
    entries_built: int = 0
    emitted: int = 0
    emit_order_violations: int = 0
    skeleton_nodes: int = 0
    merge_entry_touches: int = 0
    merge_touches_per_query: _MergeLog = field(default_factory=_MergeLog)


def peak_space_report(summary: SweepSummary) -> dict:
    """Read-only snapshot of the working-space and stream-order counters."""
    if not isinstance(summary, SweepSummary):
        raise MalformedInputError(f"summary must be a SweepSummary, not {type(summary).__name__}")
    return {
        "peakLiveEntries": summary.peak_live_entries,
        "totalBuilt": summary.total_built,
        "totalDestroyed": summary.total_destroyed,
        "emitOrderViolations": summary.emit_order_violations,
    }


class _LiveMeter:
    """Tracks the entries a batch's sweeps hold and their peak: a sweep
    adds a block when it builds it and removes it once its last strip has
    popped."""

    __slots__ = ("live", "peak")

    def __init__(self):
        self.live = 0
        self.peak = 0

    def add(self, entries: int):
        self.live += entries
        if self.live > self.peak:
            self.peak = self.live

    def remove(self, entries: int):
        self.live -= entries


def _plan(forest, xs, batched: bool, budget: int) -> list:
    """The builds of a sweep over the skeleton ``forest``, as blocks
    ``(build step, release step, lo, cut)`` in build order.

    ``xs[i]`` is an int64 array of tree i's pinned rank at each step,
    ascending.  Step t holds, for every tree i, the strips [lo, cut) of
    the walk to ``xs[i][t]``.  The walks that hold a strip are those to
    the ranks [cut, hi) of ``_shape``, so the steps whose walk holds it
    form one run: it enters at the first and pops at the step after the
    last (the number of steps when that is the last).  The strips
    are listed in the order they enter, at one step tree by tree, each
    tree's ascending.  A block's ``lo`` and ``cut`` are int64 arrays of its
    strips' bounds as positions of the forest's columns; it is built at the
    step its first strip enters and released at the step its last strip
    pops, before that step's builds.

    With ``batched`` (d = 2, where a strip holds its point count) the
    strips, of all trees alike, are cut greedily into blocks of at most
    ``_BLOCK`` entries.  A block takes the next strip only while the
    entries held, each block counted from its build step to its release
    step and each strip not yet placed as a block of its own, stay at or
    below ``budget`` at every step, and, when its build step's own strips
    exceed ``_BLOCK``, only a strip of that step.  The walk to a rank x
    tiles [0, x), so the last step's walks hold P, the sum of the trees'
    last pinned ranks, and a budget of at least P leaves the peak at the
    larger of the two.  Otherwise every strip is a block of its own.
    """
    steps = len(xs[0])
    los, cuts, enter, pops = [], [], [], []
    for x, off, m in zip(xs, forest.start, np.diff(forest.start).tolist()):
        lo, cut, hi = _shape(m, forest.s)[3:]
        first, last = np.searchsorted(x, cut), np.searchsorted(x, hi)
        held = first < last
        los.append(off + lo[held])
        cuts.append(off + cut[held])
        enter.append(first[held])
        pops.append(last[held])
    lo, cut, enter, pops = (np.concatenate(a) for a in (los, cuts, enter, pops))
    order = np.argsort(enter * forest.start[-1] + cut)  # by step, then position
    lo, cut, enter, pops = lo[order], cut[order], enter[order], pops[order].tolist()
    if not batched:
        return [(t, p, lo[k:k + 1], cut[k:k + 1])
                for k, (t, p) in enumerate(zip(enter.tolist(), pops))]

    size = (cut - lo).tolist()
    own = np.bincount(enter, cut - lo, steps).tolist()  # entries entering at each step
    enter = enter.tolist()
    # the entries each step can take beyond those held, each strip not yet
    # placed held over its run as a block of its own, as the walks hold it
    slack = (budget - np.sum(xs, axis=0)).tolist()
    blocks = []
    a = 0
    while a < len(cut):
        first, release, entries = enter[a], pops[a], size[a]
        ahead = own[first] <= _BLOCK
        # While a block is open, slack[u] on [first, release) also counts
        # the entries of its strips whose run holds u, which the block holds
        # anyway, so the block keeps the entries held within the budget
        # where slack[u] is at least its entries.  A strip taken later changes no
        # slack before its own step: ``lead``, the least slack before step
        # ``seen``, is final.
        for u in range(first, release):
            slack[u] += entries
        lead, seen = INF, first
        b = a + 1
        while b < len(cut) and entries + size[b] <= _BLOCK and (ahead or enter[b] == first):
            t, p, w = enter[b], pops[b], size[b]
            if t > seen:
                lead = min(lead, min(slack[seen:t]))
                seen = t
            # the block, grown by strip b, holds its entries from its build
            # step to the later of its release and strip b's pop
            if lead < entries + w:
                break
            if p < release and min(slack[p:release]) < entries + w:
                break
            if p > release and min(slack[max(release, t):p]) < entries:
                break
            for u in range(t, p):
                slack[u] += w
            release = max(release, p)
            entries += w
            b += 1
        slack[first:release] = [v - entries for v in slack[first:release]]
        blocks.append((first, release, lo[a:b], cut[a:b]))
        a = b
    return blocks


def _sweep_dominance(forest, rqs, rests, sessions, summary, meter, budget=0):
    """Generator over k: query k answered on every tree i of the d >= 2
    skeleton ``forest`` into the accumulator of ``sessions[i]``, which the
    caller drains before the next query; queries in order.

    Query k stands at ``rqs[i][k]`` points of tree i (an int64 array,
    ascending in k) and has the corner ``rests[i][k]`` on the axes after
    the first.  It is pinned in each tree to the rank just below (0 when
    none is); queries pinned alike in every tree form a run, which is one
    step of the sweep.  The strips are built in the blocks of ``_plan``,
    within the larger of ``budget`` and the entries the last step holds,
    one ``_build_substructure`` call each, written into the forest's
    ``prefix`` and ``index`` while held and cleared when released, and
    the meter and ``summary`` count them.  A d >= 3 strip stores more
    entries than it has points, so there each strip is a block of its own.
    """
    summary.skeleton_nodes += forest.node_count
    m = len(rqs[0])
    pinned = [np.maximum(rq - 1, 0) for rq in rqs]
    new = np.zeros(m, dtype=bool)
    for x in pinned:
        new |= np.diff(x, prepend=-1) != 0
    step_start = np.flatnonzero(new)
    xs = [x[step_start] for x in pinned]
    last = sum(int(x[-1]) for x in xs) if m else 0  # what the last step's walks hold
    plan = _plan(forest, xs, forest.d == 2, max(budget, last))
    xs = [x.tolist() for x in xs]
    step_start = step_start.tolist() + [m]

    prefix, index, offs = forest.prefix, forest.index, forest.start[:-1]
    rqs = [rq.tolist() for rq in rqs]
    columns = _strip_columns(forest)  # one y rank for all the sweep's blocks
    held: dict = {}  # block -> its structure

    def release(block):
        cuts = plan[block][3]
        for c in cuts.tolist():
            prefix[c] = None
        meter.remove(held.pop(block).stored_entries)
        summary.total_destroyed += len(cuts)

    b = 0  # the next block to build
    try:
        for t in range(len(step_start) - 1):
            for done in [done for done in held if plan[done][1] == t]:
                release(done)
            while b < len(plan) and plan[b][0] == t:
                _, _, lo, cut = plan[b]
                struct = forest._build_substructure(lo, cut, *columns)
                for j, c in enumerate(cut.tolist()):
                    prefix[c] = struct
                    index[c] = j
                held[b] = struct
                entries = struct.stored_entries
                summary.total_built += len(cut)
                summary.entries_built += entries
                meter.add(entries)
                b += 1

            walks = [forest._walk(x[t], i) for i, x in enumerate(xs)]
            for k in range(step_start[t], step_start[t + 1]):
                for off, walk, rq, rest, session in zip(offs, walks, rqs, rests, sessions):
                    session.reset()
                    r = rq[k]
                    forest._answer(walk, rest[k], off + r if r else 0, session)
                yield k
    finally:
        for done in list(held):
            release(done)


def _pairs(queries):
    """The (query id, query) pairs of a batch, each checked to be a pair."""
    try:
        queries = iter(queries)
    except TypeError:
        raise UnsupportedShapeError(f"{queries!r} is not a batch of queries") from None
    for pair in queries:
        try:
            qid, q = pair
        except (TypeError, ValueError):
            raise UnsupportedShapeError(f"{pair!r} is not a (query id, query) pair") from None
        yield qid, q


def _dominance_corners(queries, d) -> tuple[list, np.ndarray]:
    """(query ids, their corners as an (m, d) array)."""
    qids, corners = [], []
    for qid, q in _pairs(queries):
        if not isinstance(q, BoxQuery):
            raise UnsupportedShapeError("offline batches take BoxQuery objects")
        if q.dimension != d:
            raise UnsupportedShapeError(
                f"query {qid!r} has dimension {q.dimension}, dataset has {d}"
            )
        if q.has_lower_bounds():
            raise UnsupportedShapeError(f"query {qid!r} is not a dominance query")
        qids.append(qid)
        corners.append(q.corner())
    return qids, np.array(corners, dtype=np.float64).reshape(len(qids), d)


def answer_offline_dominance(job: OfflineJob) -> SweepSummary:
    """Answer a dominance batch with a build-and-destroy sweep.

    Emits (query id, frequency list) to the job sink in non-decreasing
    order of the corner's sweep-axis coordinate; returns the space and
    stream counters.  The sweep is ``_sweep_dominance`` over a skeleton of
    one tree; at d = 1 the skeleton is the whole structure, one 1-D block
    over all points, held for the batch.
    """
    if not isinstance(job, OfflineJob):
        raise MalformedInputError(f"job must be an OfflineJob, not {type(job).__name__}")
    ps = job.points
    if not isinstance(ps, PointSet):
        raise MalformedInputError(f"points must be a PointSet, not {type(ps).__name__}")
    try:
        operator.index(job.sweep_axis)
    except TypeError:
        raise MalformedInputError(f"sweep axis {job.sweep_axis!r} is not an integer") from None
    if not 0 <= job.sweep_axis < max(ps.d, 1):
        raise MalformedInputError(f"sweep axis {job.sweep_axis} outside [0, {ps.d})")
    _check_fanout(job.s, ps.n)
    qids, corners = _dominance_corners(job.queries, ps.d)
    summary = SweepSummary(ps.n, len(job.queries), ps.d, job.s, job.sweep_axis)
    meter = _LiveMeter()
    sink = job.sink or (lambda qid, entries: None)
    if not callable(sink):
        raise ContractViolationError(f"sink {sink!r} is not callable")

    axes = [job.sweep_axis] + [a for a in range(ps.d) if a != job.sweep_axis]
    order = rank_order(corners[:, job.sweep_axis])  # ties keep input order
    corners = corners[order][:, axes]
    qids = [qids[i] for i in order.tolist()]
    sweep = corners[:, 0].tolist()
    skel = DominanceTree._forest(ps.coords[:, axes], ps.colors, ps.weights, job.s, ps.phi, ps.mode)
    session = QuerySession(ColorAccumulator(ps.phi, ps.mode))
    acc = session.accumulator
    if ps.d == 1:
        steps = _sweep_line(skel, sweep, summary, meter, session)
    else:
        rq = np.searchsorted(np.asarray(skel.sorted0), corners[:, 0], "right")
        steps = _sweep_dominance(skel, [rq], [corners[:, 1:].tolist()], [session],
                                 summary, meter)
    last = -INF
    for k in steps:
        coord = sweep[k]
        if coord < last:
            summary.emit_order_violations += 1
        last = coord
        summary.emitted += 1
        sink(qids[k], acc.drain_and_reset())
    summary.peak_live_entries = meter.peak
    return summary


def _sweep_line(line, coords, summary, meter, session):
    """Generator over k: query k answered for ``coords[k]`` on the d = 1
    skeleton ``line`` into ``session``'s accumulator."""
    entries = line.stored_entries
    if line.start[-1]:
        summary.total_built += 1
        summary.entries_built += entries
        meter.add(entries)
    for k, coord in enumerate(coords):
        session.reset()
        line._query_into((coord,), session)
        yield k
    if line.start[-1]:
        meter.remove(entries)
        summary.total_destroyed += 1


def _children(coords, colors, weights, lo, mid, hi, s, phi, mode) -> DominanceTree:
    """The skeleton forest of the layer node [lo, hi) split at ``mid``, on
    (y, x), from the layer's columns: tree 0 is the low child with x
    negated, tree 1 the high child, each in rank order of y, ties by x
    rank."""
    rows = _ranked_groups(np.arange(lo, hi), np.array([0, mid - lo]),
                          np.array([mid - lo, hi - mid]), coords[lo:hi, 1], np.ones(2))
    child = coords[np.ix_(rows, [1, 0])]
    child[:mid - lo, 1] = -child[:mid - lo, 1]
    return DominanceTree._forest(child, colors[rows], weights[rows], s, phi, mode,
                                 [mid - lo, hi - mid])


def answer_offline_3sided(points: PointSet, queries, s: int, sink=None) -> SweepSummary:
    """Answer a batch of [x1,x2] x (-inf,y] queries in the plane.

    Each query is answered exactly once; the per-node merge touches every
    partial entry exactly once (``merge_entry_touches``).
    """
    ps = points
    if not isinstance(ps, PointSet):
        raise MalformedInputError(f"points must be a PointSet, not {type(ps).__name__}")
    if ps.d != 2:
        raise MalformedInputError(f"3-sided batches need planar data, got d={ps.d}")
    _check_fanout(s, ps.n)
    sink = sink or (lambda qid, entries: None)
    if not callable(sink):
        raise ContractViolationError(f"sink {sink!r} is not callable")
    # the batch as columns, query i in row i
    qids, x1s, x2s, ys = [], array("d"), array("d"), array("d")
    for qid, q in _pairs(queries):
        if not isinstance(q, BoxQuery) or q.dimension != 2:
            raise UnsupportedShapeError(f"query {qid!r} is not a planar box")
        (x1, x2), (ylo, y) = q.bounds
        if ylo != -INF:
            raise UnsupportedShapeError(f"query {qid!r} has a lower y bound")
        qids.append(qid)
        x1s.append(x1)
        x2s.append(x2)
        ys.append(y)

    summary = SweepSummary(ps.n, len(queries), 2, s, 1)
    meter = _LiveMeter()

    # the layer on x over all points: level 0 of a box's layout
    n = ps.n
    _, coords, colors, weights, vals = _ranked_level(
        ps.coords, ps.colors, ps.weights, np.arange(n),
        np.zeros(1, dtype=np.int64), np.array([n]), np.ones((1, 2)), 0)
    summary.skeleton_nodes += _node_count(n)

    def emit(qid, entries):
        summary.emitted += 1
        sink(qid, entries)

    # place queries at the highest node whose splitter rank falls strictly
    # inside their x-range, keyed (depth, lo, hi) for breadth-first order (a
    # split node's descent takes one step more than its depth); those with an
    # empty x-slab (node None) answer first
    placed: dict = {}
    for i in range(len(qids)):
        node, steps = _locate(vals, 0, n, x1s[i], x2s[i])
        if node is not None:
            node = (steps - (_split_rank(*node) is not None), *node)
        placed.setdefault(node, []).append(i)

    for i in sorted(placed.pop(None, []), key=ys.__getitem__):
        emit(qids[i], [])

    x1a, x2a, ya = np.asarray(x1s), np.asarray(x2s), np.asarray(ys)
    # the batch's peak: the most that the children of a split node hold at
    # its last query, the ranks up to its highest y in each
    peak = 0
    for (_, lo, hi), batch in placed.items():
        mid = _split_rank(lo, hi)
        if mid is not None:
            below = coords[lo:hi, 1] <= ya[batch].max()
            peak = max(peak, sum(max(int(np.count_nonzero(half)) - 1, 0)
                                 for half in (below[:mid - lo], below[mid - lo:])))
    acc = ColorAccumulator(ps.phi, ps.mode)
    parts = [QuerySession(ColorAccumulator(ps.phi, ps.mode)) for _ in range(2)]
    low, high = (part.accumulator for part in parts)
    for (_, lo, hi), batch in sorted(placed.items()):
        mid = _split_rank(lo, hi)
        if mid is None:
            for i in sorted(batch, key=ys.__getitem__):
                _scan_range(coords, colors, weights, lo, hi, [(x1s[i], x2s[i]), (-INF, ys[i])],
                            acc)
                emit(qids[i], acc.drain_and_reset())
            continue
        # the node's queries in y order, ties in input order, answered by
        # one sweep along y over both children: the low child takes the
        # corner (y, -x1), the high child (y, x2)
        rows = np.array(batch, dtype=np.int64)
        rows = rows[rank_order(ya[rows])]
        node_qids = [qids[i] for i in rows.tolist()]
        node_ys = ya[rows]
        forest = _children(coords, colors, weights, lo, mid, hi, s, ps.phi, ps.mode)
        sorted0 = np.asarray(forest.sorted0)
        rqs = [np.searchsorted(sorted0[a:b], node_ys, "right")
               for a, b in zip(forest.start, forest.start[1:])]
        rests = [(-x1a[rows])[:, None].tolist(), x2a[rows][:, None].tolist()]
        node_ys = node_ys.tolist()
        last_y = -INF
        for k in _sweep_dominance(forest, rqs, rests, parts, summary, meter, peak):
            # each child's part drains straight into the merge, low first
            k1 = low.drain_into(acc)
            k2 = high.drain_into(acc)
            qid, y = node_qids[k], node_ys[k]
            if y < last_y:
                summary.emit_order_violations += 1
            last_y = y
            summary.merge_entry_touches += k1 + k2
            summary.merge_touches_per_query.append((qid, k1 + k2, k1, k2))
            emit(qid, acc.drain_and_reset())
    summary.peak_live_entries = meter.peak
    return summary
