"""Shared helpers for the test suite."""

from bisect import bisect_left
from contextlib import ExitStack, contextmanager
from unittest import mock

import numpy as np

import colorfreq as cf
from colorfreq import boxes
from colorfreq.core import count_le

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
            acc.add(int(colors[pos]), weights[pos])


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
        self._answer(((self.base[t], 0),), corner, 0, session)
        return
    off = self.start[t]
    rq = count_le(self.sorted0, corner[0], off, self.start[t + 1])
    if rq == 0:
        return
    self._answer([(self.prefix[off + c], self.index[off + c]) for c in self._walk_to(rq - 1, t)],
                 corner[1:], off + rq, session)


def _query_rec(self, struct, bounds, session):
    if not isinstance(struct, boxes._Layer):
        session.fanout += 1
        self.forest._query_into(tuple(hi for _, hi in bounds), session, struct)
        return
    layer = struct
    lo, hi = bounds[layer.axis]
    if lo == -np.inf:
        self._query_rec(layer.full_high, bounds, session)
        return
    if hi == np.inf:
        nb = list(bounds)
        nb[layer.axis] = (-np.inf, -lo)
        self._query_rec(layer.full_low, nb, session)
        return
    node, steps = layer.locate(lo, hi)
    session.probes += steps
    if node is None:
        return
    mid = boxes._split_rank(*node)
    if mid is None:
        session.fanout += 1
        layer.scan(*node, bounds, session.accumulator)
        return
    nb_low = list(bounds)
    nb_low[layer.axis] = (-np.inf, -lo)
    self._query_rec(layer.inner_low[mid], nb_low, session)
    nb_high = list(bounds)
    nb_high[layer.axis] = (-np.inf, hi)
    self._query_rec(layer.inner_high[mid], nb_high, session)


def _layer_scan(self, lo, hi, bounds, acc):
    _scan_range(self.coords_r, self.colors_r, self.weights_r, lo, hi, bounds, acc)


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


@contextmanager
def reference_queries():
    """Every online and offline query of the block runs the per-strip path."""
    patches = [
        (cf.DominanceTree, "_answer", _answer),
        (cf.DominanceTree, "_query_into", _query_into),
        (cf.BoxTree, "_query_rec", _query_rec),
        (boxes._Layer, "scan", _layer_scan),
        (cf.ColorAccumulator, "add", _add),
        (cf.ColorAccumulator, "add_entries", _add_entries),
        (cf.ColorAccumulator, "drain_and_reset", _drain_and_reset),
    ]
    with ExitStack() as stack:
        for owner, attr, fn in patches:
            stack.enter_context(mock.patch.object(owner, attr, fn))
        yield
