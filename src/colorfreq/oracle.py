"""Brute-force reference answers.

A full scan over the point set, sharing only the core types with the real
structures so it stays an independent check.  Used as ground truth by the
test suite and by the CLI verifier.
"""

from __future__ import annotations

import numpy as np

from .core import BoxQuery, CountMode, MalformedInputError, MalformedQueryError, PointSet


def brute_force(points: PointSet, q: BoxQuery) -> list:
    """Exact per-color totals inside ``q`` by definition: one O(n*d) scan."""
    if not isinstance(points, PointSet):
        raise MalformedInputError(f"{points!r} is not a PointSet")
    if not isinstance(q, BoxQuery):
        raise MalformedQueryError(f"{q!r} is not a BoxQuery")
    mask = q.mask(points.coords)
    if not mask.any():
        return []
    colors = points.colors[mask]
    if isinstance(points.mode, CountMode):
        totals = np.zeros(points.phi, dtype=np.int64)
        np.add.at(totals, colors, points.weights[mask])
        present = np.flatnonzero(totals)
        return [(int(c), int(totals[c])) for c in present]
    combine = points.mode.combine
    acc: dict[int, object] = {}
    for i in np.flatnonzero(mask):
        c = int(points.colors[i])
        w = points.weights[i]
        acc[c] = w if c not in acc else combine(acc[c], w)
    return sorted(acc.items())

