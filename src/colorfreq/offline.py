"""Batched offline queries with low peak working space.

Dominance batches: the strip-tree skeleton is built up front, but the
per-strip substructures are built only when the sweep's walk enters their
strip and destroyed once it has left, so the sweep never holds more
entries than its last walk covers.  Queries are pinned to the rank just
below their corner and answered the moment the sweep reaches it, which
makes the answer stream non-decreasing in the sweep coordinate.

Every pinned rank is known before the sweep starts, so a d = 2 sweep plans
its builds first (``_plan``): it lists the strips in the order its walks
enter them and cuts that list into blocks, each built by one
``_build_ranges`` call at the step its first strip enters and held until
its last strip pops.  A block takes strips of later steps only while the
entries held stay at or below the last pinned rank P at every step.  The
walk to a rank x tiles [0, x), so P is what a sweep holds at its last step
anyway: blocks leave the peak unchanged.  A d >= 3 strip's structure
stores more entries than it has points, so there each strip is a block of
its own.

Three-sided batches in the plane ([x1,x2] x (-inf,y]) place each query at
the highest node of the box layer's split tree on x whose splitter falls in
its x-range, split it into two dominance queries over the node's children
(the left one x-reflected), run both child batches as sweeps along y, and
merge the two y-ordered answer streams pairwise through one accumulator — no
subtraction anywhere, so semigroup weights work.  Ties in a sweep coordinate
keep the input order of the queries.
"""

from __future__ import annotations

import operator
from array import array
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .core import (
    BoxQuery,
    INF,
    MalformedInputError,
    PointSet,
    QuerySession,
    UnsupportedShapeError,
    rank_order,
)
from .boxes import _Layer, _node_count, _split_rank
from .dominance import ColorAccumulator, DominanceTree, _check_fanout, _strip_columns
from .freq1d import Frequency1D

# A block of the offline sweep holds at most _BLOCK entries (a larger strip
# is a block of its own), and a step whose own strips hold more builds no
# strip of a later step: a block is built while its step's answers wait.
# With a 16k cap, whole offline-3sided batches (seeds 101-103) read
# 99th-percentile waits of 3.7-4.2 ms against 3.2-3.6 ms with this one.
_BLOCK = 1 << 10


@dataclass
class OfflineJob:
    """A batch of dominance queries plus the sink receiving each answer once."""

    points: PointSet
    queries: list  # (query id, BoxQuery) pairs
    sweep_axis: int = 0
    s: int = 2
    sink: Callable[[Any, list], None] | None = None


@dataclass
class SweepSummary:
    """Counters describing one completed offline job."""

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
    merge_touches_per_query: list = field(default_factory=list)


def peak_space_report(summary: SweepSummary) -> dict:
    """Read-only snapshot of the working-space and stream-order counters."""
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


def _struct_entries(struct) -> int:
    if isinstance(struct, Frequency1D):
        return struct.entries
    return struct.stored_entries


def _plan(skel, xs, batched: bool) -> list:
    """The builds of a sweep over the ascending pinned ranks ``xs`` of the
    one-tree skeleton ``skel``, as blocks ``(build step, release step,
    cuts)`` in build order.

    Step t holds the strips [parent[c], c) of the walk to ``xs[t]``.  A
    strip enters at the first step whose walk holds it and pops at the
    first later step whose walk does not, or at ``len(xs)``, the end; the
    steps whose walk holds a strip form one run.  A block lists its strips'
    cuts c; it is built at the step its first strip enters and released at
    the step its last strip pops, before that step's builds.

    With ``batched`` (d = 2, where a strip holds its point count) the
    strips are cut greedily into blocks of at most ``_BLOCK`` entries.  A
    block takes the next strip only while the entries held, each block
    counted from its build step to its release step and each strip not yet
    placed as a block of its own, stay at or below ``xs[-1]`` at every step,
    and, when its build step's own strips exceed ``_BLOCK``, only a strip
    of that step.  Otherwise every strip is a block of its own.
    """
    parent = skel.parent[0]
    cuts, enter, pops = [], [], []
    walk: list = []
    live: list = []  # indexes into cuts of the current walk's strips
    for t, x in enumerate(xs):
        nxt = skel._walk_to(x)
        keep = 0
        while keep < min(len(walk), len(nxt)) and walk[keep] == nxt[keep]:
            keep += 1
        for k in live[keep:]:
            pops[k] = t
        del live[keep:]
        for c in nxt[keep:]:
            live.append(len(cuts))
            cuts.append(c)
            enter.append(t)
            pops.append(len(xs))
        walk = nxt
    if not batched:
        return [(enter[k], pops[k], cuts[k:k + 1]) for k in range(len(cuts))]

    size = [c - parent[c] for c in cuts]
    own = [0] * len(xs)  # entries of the strips entering at each step
    for t, w in zip(enter, size):
        own[t] += w
    # entries a step can take beyond those held; strips as blocks of their
    # own hold the walk, and the last walk holds xs[-1]
    slack = [xs[-1] - x for x in xs]
    blocks = []
    a = 0
    while a < len(cuts):
        first, release, entries = enter[a], pops[a], size[a]
        ahead = own[first] <= _BLOCK
        b = a + 1
        while b < len(cuts) and entries + size[b] <= _BLOCK and (ahead or enter[b] == first):
            t, p, w = enter[b], pops[b], size[b]
            # strip b is held from the block's build step, and the block
            # until the later of its release and strip b's pop
            if t > first and min(slack[first:t]) < w:
                break
            if p < release and min(slack[p:release]) < w:
                break
            if p > release and min(slack[release:p]) < entries:
                break
            for i in range(first, t):
                slack[i] -= w
            for i in range(p, release):
                slack[i] -= w
            for i in range(release, p):
                slack[i] -= entries
            release = max(release, p)
            entries += w
            b += 1
        blocks.append((first, release, cuts[a:b]))
        a = b
    return blocks


def _sweep_dominance(
    coords,
    colors,
    weights,
    mode,
    phi,
    qids,
    corners,
    sweep_axis,
    s,
    summary,
    meter,
):
    """Generator over (qid, sweep coordinate, frequency list), sweep-ordered.

    ``corners`` is an (m, d) array of corners in original axis order, row i
    that of ``qids[i]``; the sweep permutes the sweep axis to the front
    internally.
    """
    coords = np.asarray(coords, dtype=np.float64)
    n, d = coords.shape
    axes = [sweep_axis] + [a for a in range(d) if a != sweep_axis]
    # ties keep input order, which keeps paired sweeps in step
    order = rank_order(corners[:, sweep_axis])
    corners = corners[order][:, axes]
    skel = DominanceTree._skeleton(coords[:, axes], colors, weights, s=s, phi=phi, mode=mode)
    session = QuerySession(ColorAccumulator(phi, mode))
    acc = session.accumulator
    qids = [qids[i] for i in order.tolist()]
    sweep, *rest = corners.T.tolist()  # one list per axis

    if d == 1:
        # the skeleton is the whole structure: one 1-D structure over all points
        entries = skel.stored_entries
        if n:
            summary.total_built += 1
            summary.entries_built += entries
            meter.add(entries)
        for qid, coord in zip(qids, sweep):
            session.reset()
            skel._query_into((coord,), session)
            yield qid, coord, acc.drain_and_reset()
        if n:
            meter.remove(entries)
            summary.total_destroyed += 1
        return

    summary.skeleton_nodes += skel.node_count

    # pin each query to the rank x just below its corner (0 when none is);
    # the queries of one x form a run, which is one step of the sweep
    rq = np.searchsorted(np.asarray(skel.sorted0), corners[:, 0], "right")
    pinned = np.maximum(rq - 1, 0)
    step_start = np.flatnonzero(np.diff(pinned, prepend=-1)).tolist()
    xs = pinned[step_start].tolist()
    step_start.append(len(sweep))
    plan = _plan(skel, xs, d == 2)

    parent, prefix, index = skel.parent[0], skel.prefix, skel.index
    columns = _strip_columns(skel)  # one y rank for all the sweep's blocks
    held: dict = {}  # block -> its structure

    def release(block):
        cuts = plan[block][2]
        for c in cuts:
            prefix[c] = None
        meter.remove(_struct_entries(held.pop(block)))
        summary.total_destroyed += len(cuts)

    b = 0  # the next block to build
    try:
        for t, x in enumerate(xs):
            for done in [done for done in held if plan[done][1] == t]:
                release(done)
            while b < len(plan) and plan[b][0] == t:
                cuts = plan[b][2]
                struct = skel._build_substructure(
                    np.array([parent[c] for c in cuts], dtype=np.int64),
                    np.array(cuts, dtype=np.int64), *columns,
                )
                for j, c in enumerate(cuts):
                    prefix[c] = struct
                    index[c] = j
                held[b] = struct
                entries = _struct_entries(struct)
                summary.total_built += len(cuts)
                summary.entries_built += entries
                meter.add(entries)
                b += 1

            structs = [(prefix[c], index[c]) for c in skel._walk_to(x)]
            for k in range(step_start[t], step_start[t + 1]):
                session.reset()
                skel._answer(structs, [axis[k] for axis in rest], int(rq[k]), session)
                yield qids[k], sweep[k], acc.drain_and_reset()
    finally:
        for done in list(held):
            release(done)


def _dominance_corners(queries, d) -> tuple[list, np.ndarray]:
    """(query ids, their corners as an (m, d) array)."""
    qids, corners = [], []
    for qid, q in queries:
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
    stream counters.
    """
    ps = job.points
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
    last = -INF
    for qid, coord, entries in _sweep_dominance(
        ps.coords, ps.colors, ps.weight_list(), ps.mode, ps.phi,
        qids, corners, job.sweep_axis, job.s, summary, meter,
    ):
        if coord < last:
            summary.emit_order_violations += 1
        last = coord
        summary.emitted += 1
        sink(qid, entries)
    summary.peak_live_entries = meter.peak
    return summary


def answer_offline_3sided(points: PointSet, queries, s: int, sink=None) -> SweepSummary:
    """Answer a batch of [x1,x2] x (-inf,y] queries in the plane.

    Each query is answered exactly once; the per-node two-stream merge
    touches every partial entry exactly once (``merge_entry_touches``).
    """
    ps = points
    if ps.d != 2:
        raise MalformedInputError(f"3-sided batches need planar data, got d={ps.d}")
    _check_fanout(s, ps.n)
    sink = sink or (lambda qid, entries: None)
    # the batch as columns, query i in row i
    qids, x1s, x2s, ys = [], array("d"), array("d"), array("d")
    for qid, q in queries:
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

    layer = _Layer.ranked(0, ps.coords, ps.colors, ps.weight_list())
    summary.skeleton_nodes += _node_count(ps.n)

    def emit(qid, entries):
        summary.emitted += 1
        sink(qid, entries)

    # place queries at the highest node whose splitter rank falls strictly
    # inside their x-range, keyed (depth, lo, hi) for breadth-first order (a
    # split node's descent takes one step more than its depth); those with an
    # empty x-slab (node None) answer first
    placed: dict = {}
    for i in range(len(qids)):
        node, steps = layer.locate(x1s[i], x2s[i])
        if node is not None:
            node = (steps - (_split_rank(*node) is not None), *node)
        placed.setdefault(node, []).append(i)

    for i in sorted(placed.pop(None, []), key=ys.__getitem__):
        emit(qids[i], [])

    x1a, x2a, ya = np.asarray(x1s), np.asarray(x2s), np.asarray(ys)
    acc = ColorAccumulator(ps.phi, ps.mode)
    for (_, lo, hi), batch in sorted(placed.items()):
        mid = _split_rank(lo, hi)
        if mid is None:
            for i in sorted(batch, key=ys.__getitem__):
                layer.scan(lo, hi, [(x1s[i], x2s[i]), (-INF, ys[i])], acc)
                emit(qids[i], acc.drain_and_reset())
            continue
        rows = np.array(batch, dtype=np.int64)
        node_qids = [qids[i] for i in batch]
        gen_left = _sweep_dominance(
            *layer.low_half(lo, mid), ps.mode, ps.phi,
            node_qids, np.column_stack((-x1a[rows], ya[rows])), 1, s, summary, meter,
        )
        gen_right = _sweep_dominance(
            *layer.high_half(mid, hi), ps.mode, ps.phi,
            node_qids, np.column_stack((x2a[rows], ya[rows])), 1, s, summary, meter,
        )
        last_y = -INF
        while True:
            a = next(gen_left, None)
            b = next(gen_right, None)
            if a is None and b is None:
                break
            if a is None or b is None or a[0] != b[0]:
                raise AssertionError("child answer streams fell out of step")
            qid, y, part_left = a
            part_right = b[2]
            if y < last_y:
                summary.emit_order_violations += 1
            last_y = y
            acc.add_entries(part_left)
            acc.add_entries(part_right)
            touches = len(part_left) + len(part_right)
            summary.merge_entry_touches += touches
            summary.merge_touches_per_query.append(
                (qid, touches, len(part_left), len(part_right))
            )
            emit(qid, acc.drain_and_reset())
    summary.peak_live_entries = meter.peak
    return summary
