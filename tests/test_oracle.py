"""The brute-force oracle itself, validated on hand-computed micro-instances."""

import numpy as np
import pytest

import colorfreq as cf
from _util import FIGURE_ANSWER, FIGURE_QUERY, canon, figure_instance

INF = float("inf")


def test_micro_1d_all_sidedness():
    # points: 1:a  2:b  2:a  5:a  (duplicate coordinate on purpose)
    ps = cf.PointSet.from_points([(1.0, 0), (2.0, 1), (2.0, 0), (5.0, 0)])
    cases = [
        (cf.BoxQuery([(-INF, 2.0)]), ((0, 2), (1, 1))),   # upper only
        (cf.BoxQuery([(2.0, INF)]), ((0, 2), (1, 1))),    # lower only
        (cf.BoxQuery([(2.0, 5.0)]), ((0, 2), (1, 1))),    # interval
        (cf.BoxQuery([(-INF, INF)]), ((0, 3), (1, 1))),   # unbounded
        (cf.BoxQuery([(3.0, 4.0)]), ()),                  # empty gap
        (cf.BoxQuery([(5.0, 5.0)]), ((0, 1),)),           # degenerate hit
    ]
    for q, want in cases:
        assert canon(cf.brute_force(ps, q)) == want


def test_micro_2d_all_sidedness_patterns():
    # a:(0,0) (4,1)   b:(2,3)   c:(5,5)
    ps = cf.PointSet.from_points(
        [((0.0, 0.0), 0), ((4.0, 1.0), 0), ((2.0, 3.0), 1), ((5.0, 5.0), 2)]
    )
    cases = [
        (cf.BoxQuery([(-INF, 4.0), (-INF, 3.0)]), ((0, 2), (1, 1))),
        (cf.BoxQuery([(1.0, 4.0), (-INF, 3.0)]), ((0, 1), (1, 1))),
        (cf.BoxQuery([(-INF, 4.0), (1.0, 3.0)]), ((0, 1), (1, 1))),
        (cf.BoxQuery([(1.0, 4.0), (1.0, 3.0)]), ((0, 1), (1, 1))),
        (cf.BoxQuery([(0.0, 5.0), (0.0, 5.0)]), ((0, 2), (1, 1), (2, 1))),
        (cf.BoxQuery([(6.0, 7.0), (-INF, INF)]), ()),
    ]
    for q, want in cases:
        assert canon(cf.brute_force(ps, q)) == want


def test_figure_instance():
    ps = figure_instance()
    assert canon(cf.brute_force(ps, FIGURE_QUERY)) == FIGURE_ANSWER


def test_empty_points():
    ps = cf.PointSet.empty(2)
    assert cf.brute_force(ps, cf.BoxQuery.dominance((1.0, 1.0))) == []


def test_query_covering_everything_gives_totals():
    rng = np.random.default_rng(5)
    ps = cf.generate_points(120, 2, 7, seed=3)
    q = cf.BoxQuery([(-INF, INF), (-INF, INF)])
    got = dict(cf.brute_force(ps, q))
    totals = np.bincount(ps.colors, minlength=ps.phi)
    assert got == {c: int(totals[c]) for c in range(ps.phi) if totals[c]}
    assert sum(got.values()) == ps.n


def test_oracle_output_invariants():
    rng = np.random.default_rng(11)
    ps = cf.generate_points(200, 2, 9, seed=8, grid=40)
    for i in range(25):
        lo = sorted(rng.uniform(0, 40, 2))
        hi = sorted(rng.uniform(0, 40, 2))
        q = cf.BoxQuery([(lo[0], lo[1]), (hi[0], hi[1])])
        entries = cf.brute_force(ps, q)
        colors = [c for c, _ in entries]
        assert len(colors) == len(set(colors))
        assert all(w > 0 for _, w in entries)
        assert cf.freq_total(entries) == int(q.mask(ps.coords).sum())
