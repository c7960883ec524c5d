"""Batched offline queries with low peak working space.

Dominance batches: the strip-tree skeleton is built up front, but the
per-strip substructures are built only when the sweep enters their strip
and destroyed when it leaves, so each point sits in at most one live
substructure at any time.  Queries are pinned to the leaf strip holding
their corner and answered the moment the sweep reaches it, which makes the
answer stream non-decreasing in the sweep coordinate.

Three-sided batches in the plane ([x1,x2] x (-inf,y]) place each query at
the highest node of the box layer's split tree on x whose splitter falls in
its x-range, split it into two dominance queries over the node's children
(the left one x-reflected), run both child batches as sweeps along y, and
merge the two y-ordered answer streams pairwise through one accumulator — no
subtraction anywhere, so semigroup weights work.  Ties in a sweep coordinate
keep the input order of the queries.
"""

from __future__ import annotations

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
    count_le,
)
from .boxes import _Layer
from .dominance import ColorAccumulator, DominanceTree, _check_fanout, _walk
from .freq1d import Frequency1D


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
    """Tracks currently live substructure entries and their peak."""

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
    if struct is None:
        return 0
    if isinstance(struct, Frequency1D):
        return struct.entries
    return struct.stored_entries


def _sweep_dominance(
    coords,
    colors,
    weights,
    mode,
    phi,
    corner_queries,
    sweep_axis,
    s,
    summary,
    meter,
    check_disjoint=False,
):
    """Generator over (qid, sweep coordinate, frequency list), sweep-ordered.

    ``corner_queries`` holds (qid, corner) with corners in original axis
    order; the sweep permutes the sweep axis to the front internally.
    """
    coords = np.asarray(coords, dtype=np.float64)
    n, d = coords.shape
    axes = [sweep_axis] + [a for a in range(d) if a != sweep_axis]
    # a stable sort: ties keep input order, which keeps paired sweeps in step
    jobs = sorted(
        ((tuple(corner[a] for a in axes), qid) for qid, corner in corner_queries),
        key=lambda t: t[0][0],
    )
    skel = DominanceTree._skeleton(coords[:, axes], colors, weights, s=s, phi=phi, mode=mode)
    session = QuerySession(ColorAccumulator(phi, mode))
    acc = session.accumulator

    if d == 1:
        # the skeleton is the whole structure: one 1-D structure over all points
        entries = skel.stored_entries
        if n:
            summary.total_built += 1
            summary.entries_built += entries
            meter.add(entries)
        for corner, qid in jobs:
            session.reset()
            skel._query_into(corner, session)
            yield qid, corner[0], acc.drain_and_reset()
        if n:
            meter.remove(entries)
            summary.total_destroyed += 1
        return

    summary.skeleton_nodes += skel.node_count
    if skel.root is None:
        for corner, qid in jobs:
            yield qid, corner[0], []
        return

    # pin each query to its leaf strip; the leaf's path is kept from its first query
    pinned: dict[int, tuple] = {}  # leaf.lo -> (path, leaf, [(corner, qid, rq)])
    for corner, qid in jobs:
        rq = count_le(skel.sorted0, corner[0])
        path, leaf = _walk(skel.root, rq)
        pinned.setdefault(leaf.lo, (path, leaf, []))[2].append((corner, qid, rq))

    current: list = []  # (node, child index) path of the live substructures
    live: list = []  # the substructure built for each level of that path, or None
    live_ranges: list = []  # rank intervals of live substructures (debug only)

    def pop_level():
        struct = live.pop()
        if struct is not None:
            meter.remove(_struct_entries(struct))
            summary.total_destroyed += 1
        if check_disjoint:
            live_ranges.pop()

    try:
        for key in sorted(pinned):
            path, leaf, queries = pinned[key]
            keep = 0
            while keep < min(len(current), len(path)) and current[keep] == path[keep]:
                keep += 1
            while len(live) > keep:
                pop_level()
            for node, i in path[keep:]:
                cut = node.starts[i]
                struct = skel._build_substructure(node.lo, cut)
                if struct is not None:
                    entries = _struct_entries(struct)
                    summary.total_built += 1
                    summary.entries_built += entries
                    meter.add(entries)
                if check_disjoint:
                    span = (node.lo, cut)
                    for a, b in live_ranges:
                        if a < span[1] and span[0] < b and span[0] < span[1]:
                            raise AssertionError(f"live ranges overlap: {(a, b)} vs {span}")
                    live_ranges.append(span)
                live.append(struct)
            current = path

            for corner, qid, rq in queries:
                session.reset()
                skel._answer(live, corner[1:], leaf, rq, session)
                yield qid, corner[0], acc.drain_and_reset()
    finally:
        while live:
            pop_level()


def _dominance_corners(queries, d) -> list:
    corners = []
    for qid, q in queries:
        if not isinstance(q, BoxQuery):
            raise UnsupportedShapeError("offline batches take BoxQuery objects")
        if q.dimension != d:
            raise UnsupportedShapeError(
                f"query {qid!r} has dimension {q.dimension}, dataset has {d}"
            )
        if q.has_lower_bounds():
            raise UnsupportedShapeError(f"query {qid!r} is not a dominance query")
        corners.append((qid, q.corner()))
    return corners


def answer_offline_dominance(job: OfflineJob) -> SweepSummary:
    """Answer a dominance batch with a build-and-destroy sweep.

    Emits (query id, frequency list) to the job sink in non-decreasing
    order of the corner's sweep-axis coordinate; returns the space and
    stream counters.
    """
    ps = job.points
    if not 0 <= job.sweep_axis < max(ps.d, 1):
        raise MalformedInputError(f"sweep axis {job.sweep_axis} outside [0, {ps.d})")
    _check_fanout(job.s, ps.n)
    corners = _dominance_corners(job.queries, ps.d)
    summary = SweepSummary(ps.n, len(job.queries), ps.d, job.s, job.sweep_axis)
    meter = _LiveMeter()
    sink = job.sink or (lambda qid, entries: None)
    last = -INF
    for qid, coord, entries in _sweep_dominance(
        ps.coords, ps.colors, ps.weight_list(), ps.mode, ps.phi,
        corners, job.sweep_axis, job.s, summary, meter,
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
    shaped = []
    for qid, q in queries:
        if not isinstance(q, BoxQuery) or q.dimension != 2:
            raise UnsupportedShapeError(f"query {qid!r} is not a planar box")
        (x1, x2), (ylo, y) = q.bounds
        if ylo != -INF:
            raise UnsupportedShapeError(f"query {qid!r} has a lower y bound")
        shaped.append((qid, x1, x2, y))

    summary = SweepSummary(ps.n, len(queries), 2, s, 1)
    meter = _LiveMeter()

    layer = _Layer(0, ps.coords, ps.colors, ps.weight_list())
    summary.skeleton_nodes += len(layer.nodes)

    def emit(qid, entries):
        summary.emitted += 1
        sink(qid, entries)

    # place queries at the highest node whose splitter rank falls strictly
    # inside their x-range; those with an empty x-slab (node None) answer first
    placed: dict = {}
    for qid, x1, x2, y in shaped:
        node, _ = layer.locate(x1, x2)
        placed.setdefault(node, []).append((qid, x1, x2, y))

    for qid, x1, x2, y in sorted(placed.pop(None, []), key=lambda t: t[3]):
        emit(qid, [])

    acc = ColorAccumulator(ps.phi, ps.mode)
    for node in layer.nodes:
        batch = placed.get(node)
        if not batch:
            continue
        if node.is_leaf:
            for qid, x1, x2, y in sorted(batch, key=lambda t: t[3]):
                layer.scan(node, [(x1, x2), (-INF, y)], acc)
                emit(qid, acc.drain_and_reset())
            continue
        corners_left = [(qid, (-x1, y)) for qid, x1, x2, y in batch]
        corners_right = [(qid, (x2, y)) for qid, x1, x2, y in batch]
        gen_left = _sweep_dominance(
            *layer.low_half(node.lo, node.mid), ps.mode, ps.phi,
            corners_left, 1, s, summary, meter,
        )
        gen_right = _sweep_dominance(
            *layer.high_half(node.mid, node.hi), ps.mode, ps.phi,
            corners_right, 1, s, summary, meter,
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
