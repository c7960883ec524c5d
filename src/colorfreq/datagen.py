"""Seeded random datasets and query batches.

Used by the CLI, the demos, and the tests.  A given seed reproduces the
same instance bit for bit.
"""

from __future__ import annotations

import operator

import numpy as np

from .core import BoxQuery, COUNT, CountMode, INF, ParameterError, PointSet

DOMAIN = 1000.0


def generate_points(
    n: int,
    d: int,
    phi: int,
    seed: int,
    mode=COUNT,
    equal_classes: bool = False,
    grid: int | None = None,
) -> PointSet:
    """Uniform random points with ``phi`` color classes.

    ``equal_classes`` deals colors round-robin so each class has within one
    of n/phi points (exactly n/phi when phi divides n).  ``phi >= n`` makes
    every color distinct.  ``grid`` snaps coordinates to integers in
    [0, grid), which produces duplicates on purpose.
    """
    try:
        n, d, phi = map(operator.index, (n, d, phi))
        grid = grid if grid is None else operator.index(grid)
        rng = np.random.default_rng(seed)
    except (TypeError, ValueError):
        raise ParameterError(f"n={n!r} d={d!r} phi={phi!r} grid={grid!r} seed={seed!r}: "
                             "not integers") from None
    if n < 0 or d < 1 or phi < 1:
        raise ParameterError(f"bad instance shape n={n} d={d} phi={phi}")
    if grid is not None and grid < 1:
        raise ParameterError(f"grid={grid} leaves no integer in [0, grid)")
    if grid is not None:
        coords = rng.integers(0, grid, size=(n, d)).astype(np.float64)
    else:
        coords = rng.uniform(0.0, DOMAIN, size=(n, d))
    if n == 0:
        colors = np.zeros(0, dtype=np.int64)
    elif phi >= n:
        colors = rng.permutation(n).astype(np.int64)
    elif equal_classes:
        base = np.arange(n, dtype=np.int64) % phi
        colors = rng.permutation(base)
    else:
        colors = rng.integers(0, phi, size=n).astype(np.int64)
    if isinstance(mode, CountMode):
        weights = np.ones(n, dtype=np.int64)
    else:
        weights = [int(w) for w in rng.integers(1, 1000, size=n)]
    labels = [f"c{i}" for i in range(int(colors.max()) + 1)] if n else None
    return PointSet(coords, colors, weights, mode=mode, labels=labels)


def generate_queries(
    m: int,
    d: int,
    seed: int,
    sides: tuple[int, ...] | None = None,
    lo: float = 0.0,
    hi: float = DOMAIN,
) -> list[BoxQuery]:
    """Random boxes; ``sides[axis]`` is 1 (upper bound only) or 2 (interval)."""
    try:
        m, d, lo, hi = operator.index(m), operator.index(d), float(lo), float(hi)
        sides = (1,) * d if sides is None else tuple(sides)
        rng = np.random.default_rng(seed)
    except (TypeError, ValueError):
        raise ParameterError(f"m={m!r} d={d!r} seed={seed!r} lo={lo!r} hi={hi!r} "
                             f"sides={sides!r}: not numbers and a sequence") from None
    if len(sides) != d or any(x not in (1, 2) for x in sides):
        raise ParameterError(f"sides must be d values from {{1,2}}, got {sides}")
    if m < 0:
        raise ParameterError(f"query count m={m} is negative")
    out = []
    for _ in range(m):
        bounds = []
        for axis in range(d):
            if sides[axis] == 1:
                bounds.append((-INF, float(rng.uniform(lo, hi))))
            else:
                a, b = sorted(rng.uniform(lo, hi, size=2))
                bounds.append((float(a), float(b)))
        out.append(BoxQuery(bounds))
    return out
