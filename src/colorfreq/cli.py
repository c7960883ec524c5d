"""Command-line front end.

Subcommands:
  gen          write a seeded random dataset and query file
  build-query  build a structure, answer a query file, stream the answers
  offline      answer a batch with the low-space sweep, stream the answers
  verify       cross-check structure answers against the brute-force scan
               (and a dominance structure's against the offline sweep's)
               and the space/probe counters against their bounds
  stats        build-only instrumentation report

All bound checks are operation counters, never wall-clock, so verify output
is reproducible bit for bit for a fixed seed and configuration.
"""

from __future__ import annotations

import argparse
import sys

from .boxes import BoxTree
from .core import (
    COUNT,
    CountMode,
    INF,
    MAX_SEMIGROUP,
    MalformedInputError,
    MalformedQueryError,
    ParameterError,
    PointSet,
    UnsupportedShapeError,
    canonical_freq,
    freq_total,
    read_dataset,
    read_queries,
    write_dataset,
    write_queries,
)
from .datagen import generate_points, generate_queries
from .dominance import (
    DominanceTree,
    box_fanout_bound,
    box_space_bound,
    dominance_query_bound,
    dominance_space_bound,
    offline_build_bound,
)
from .offline import OfflineJob, answer_offline_3sided, answer_offline_dominance
from .oracle import brute_force

def _mode_of(name: str):
    return COUNT if name == "count" else MAX_SEMIGROUP


def _parse_sides(text: str | None, d: int) -> tuple[int, ...] | None:
    if text is None:
        return None
    parts = text.split(",")
    if len(parts) != d or any(p.strip() not in ("1", "2") for p in parts):
        raise ParameterError(f"--sides needs {d} comma-separated values from {{1,2}}, got {text!r}")
    return tuple(int(p) for p in parts)


def _bounded_axes(queries, sides) -> tuple[int, ...]:
    if sides is not None:
        return tuple(i for i, v in enumerate(sides) if v == 2)
    axes = set()
    for q in queries:
        for i, (lo, _) in enumerate(q.bounds):
            if lo != -INF:
                axes.add(i)
    return tuple(sorted(axes))


def _build_structure(ps: PointSet, s: int, bounded_axes):
    if bounded_axes:
        return BoxTree(ps, s, bounded_axes)
    return DominanceTree(ps, s)


def _answer_line(ps: PointSet, qid, entries) -> str:
    parts = [f"{ps.label_of(c)}:{w}" for c, w in sorted(entries)]
    return " ".join([str(qid), str(len(entries))] + parts)


def _load(args):
    mode = _mode_of(args.weights)
    ps = read_dataset(args.dataset, d=args.dims, mode=mode)
    queries = read_queries(args.queries_file, d=ps.d)
    return ps, queries


def cmd_gen(args) -> int:
    mode = _mode_of(args.weights)
    ps = generate_points(
        args.points, args.dims, args.colors, args.seed,
        mode=mode, equal_classes=args.equal_classes, grid=args.grid,
    )
    sides = _parse_sides(args.sides, args.dims) or tuple([1] * args.dims)
    queries = generate_queries(args.queries, args.dims, args.seed + 1, sides)
    write_dataset(ps, f"{args.out}.points.txt")
    write_queries(queries, f"{args.out}.queries.txt")
    print(f"wrote {args.out}.points.txt ({ps.n} points, phi={ps.phi}) "
          f"and {args.out}.queries.txt ({len(queries)} queries)")
    return 0


def cmd_build_query(args) -> int:
    ps, queries = _load(args)
    sides = _parse_sides(args.sides, ps.d)
    struct = _build_structure(ps, args.fanout, _bounded_axes(queries, sides))
    session = struct.new_session()
    lines = []
    for qid, q in enumerate(queries):
        entries = struct.query(q, session)
        lines.append(_answer_line(ps, qid, entries))
    text = "\n".join(lines) + ("\n" if lines else "")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify(args) -> int:
    ps, queries = _load(args)
    sides = _parse_sides(args.sides, ps.d)
    bounded = _bounded_axes(queries, sides)
    struct = _build_structure(ps, args.fanout, bounded)
    session = struct.new_session()
    acc = session.accumulator

    mismatches = 0
    probe_violations = 0
    first_diff = None
    count_mode = isinstance(ps.mode, CountMode)
    path_bound = dominance_query_bound(ps.n, args.fanout, ps.d)
    online = {}
    for qid, q in enumerate(queries):
        touch_before, drain_before = acc.touch_ops, acc.drain_ops
        entries = struct.query(q, session)
        online[qid] = canonical_freq(entries)
        expected = brute_force(ps, q)
        if online[qid] != canonical_freq(expected):
            mismatches += 1
            if first_diff is None:
                first_diff = (qid, q, entries, expected)
        if count_mode and freq_total(entries) != int(ps.weights[q.mask(ps.coords)].sum()):
            mismatches += 1
            if first_diff is None:
                first_diff = (qid, q, entries, expected)
        if isinstance(struct, DominanceTree):
            if session.substructure_queries > path_bound:
                probe_violations += 1
            # colors touched, counting those whose total cancelled to 0
            touched = acc.drain_ops - drain_before
            if acc.touch_ops - touch_before > touched * path_bound:
                probe_violations += 1
        else:
            if session.fanout > box_fanout_bound(len(q.two_sided_axes())):
                probe_violations += 1

    if isinstance(struct, DominanceTree):
        # the offline sweep answers every query as the structure did
        offline = {}
        answer_offline_dominance(OfflineJob(
            ps, list(enumerate(queries)), 0, args.fanout,
            lambda qid, entries: offline.__setitem__(qid, canonical_freq(entries)),
        ))
        mismatches += sum(offline.get(qid) != want for qid, want in online.items())

    stored = struct.stored_entries
    if isinstance(struct, DominanceTree):
        space_bound = dominance_space_bound(ps.n, args.fanout, ps.d)
    else:
        space_bound = box_space_bound(ps.n, args.fanout, ps.d, len(struct.bounded_axes))
    space_ok = stored <= space_bound

    print(f"dataset: n={ps.n} d={ps.d} phi={ps.phi} mode={ps.mode.name}")
    print(f"structure: {'box' if bounded else 'dominance'} s={args.fanout} "
          f"boundedAxes={list(bounded)}")
    print(f"queries: {len(queries)}")
    print(f"{mismatches} mismatches")
    print(f"probe-bound violations: {probe_violations}")
    print(f"space: storedEntries={stored} bound={space_bound} "
          f"{'OK' if space_ok else 'EXCEEDED'}")
    if first_diff is not None:
        qid, q, got, want = first_diff
        print(f"first differing query #{qid}: {q}")
        print(f"  structure: {sorted(got)}")
        print(f"  oracle:    {sorted(want)}")
    ok = mismatches == 0 and probe_violations == 0 and space_ok
    return 0 if ok else 1


def cmd_offline(args) -> int:
    ps, queries = _load(args)
    sides = _parse_sides(args.sides, ps.d)
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout

    def sink(qid, entries):
        # written as each answer is produced, not after the batch
        out.write(_answer_line(ps, qid, entries) + "\n")

    three_sided = ps.d == 2 and (
        sides == (2, 1) or (sides is None and any(q.bounds[0][0] != -INF for q in queries))
    )
    try:
        if three_sided:
            summary = answer_offline_3sided(ps, list(enumerate(queries)), args.fanout, sink)
        else:
            job = OfflineJob(ps, list(enumerate(queries)), args.sweep_axis, args.fanout, sink)
            summary = answer_offline_dominance(job)
    finally:
        if out is not sys.stdout:
            out.close()
    print(
        f"emitted={summary.emitted} peakLiveEntries={summary.peak_live_entries} "
        f"totalBuilt={summary.total_built} totalDestroyed={summary.total_destroyed} "
        f"entriesBuilt={summary.entries_built} "
        f"emitOrderViolations={summary.emit_order_violations}",
        file=sys.stderr,
    )
    # every structure built is destroyed, and a d <= 2 sweep holds at most
    # n entries at once and builds within the offline bound; a d >= 3
    # sweep's strips store more than n
    planar = ps.d <= 2
    built, entries = offline_build_bound(ps.n, args.fanout, ps.d, int(three_sided))
    broken = [name for name, bad in (
        ("emitOrderViolations > 0", summary.emit_order_violations > 0),
        ("totalBuilt != totalDestroyed", summary.total_built != summary.total_destroyed),
        ("peakLiveEntries > n", planar and summary.peak_live_entries > ps.n),
        ("totalBuilt > build bound", planar and summary.total_built > built),
        ("entriesBuilt > build bound", planar and summary.entries_built > entries),
    ) if bad]
    if broken:
        print(f"offline contract violated: {', '.join(broken)}", file=sys.stderr)
    return 1 if broken else 0


def cmd_stats(args) -> int:
    mode = _mode_of(args.weights)
    ps = read_dataset(args.dataset, d=args.dims, mode=mode)
    sides = _parse_sides(args.sides, ps.d)
    bounded = tuple(i for i, v in enumerate(sides or ()) if v == 2)
    struct = _build_structure(ps, args.fanout, bounded)
    if isinstance(struct, DominanceTree):
        st = struct.stats()
        print(f"storedEntries {st.stored_entries}")
        print(f"height {st.height}")
        print(f"nodeCount {st.node_count}")
        print(f"buildOps {st.build_ops}")
    else:
        print(f"storedEntries {struct.stored_entries}")
        print(f"boundedAxes {list(struct.bounded_axes)}")
        print(f"buildOps {struct.build_ops}")
    return 0


def _add_common(p, with_fanout=True):
    p.add_argument("--dims", type=int, default=None, help="dimension d")
    p.add_argument("--weights", choices=("count", "semigroup"), default="count",
                   help="weight mode (semigroup = max over integer weights)")
    p.add_argument("--sides", default=None,
                   help="per-axis sidedness, e.g. 2,1 (2 = bounded on both sides)")
    if with_fanout:
        p.add_argument("--fanout", "-s", dest="fanout", type=int, default=4,
                       help="strip-tree fanout s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="colorfreq", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a dataset and query file")
    p.add_argument("--points", type=int, required=True, help="number of points n")
    p.add_argument("--queries", type=int, required=True, help="number of queries m")
    p.add_argument("--colors", type=int, default=8, help="color palette size")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--equal-classes", action="store_true",
                   help="deal colors evenly across points")
    p.add_argument("--grid", type=int, default=None,
                   help="snap coordinates to integers in [0, grid)")
    p.add_argument("--out", required=True, help="output path prefix")
    _add_common(p, with_fanout=False)
    p.set_defaults(func=cmd_gen, dims=2)

    for name, fn, needs_queries in (
        ("build-query", cmd_build_query, True),
        ("verify", cmd_verify, True),
        ("offline", cmd_offline, True),
    ):
        p = sub.add_parser(name)
        p.add_argument("dataset")
        p.add_argument("queries_file")
        _add_common(p)
        p.add_argument("--out", default=None)
        if name == "offline":
            p.add_argument("--sweep-axis", type=int, default=0)
        p.set_defaults(func=fn)

    p = sub.add_parser("stats", help="build-only instrumentation")
    p.add_argument("dataset")
    _add_common(p)
    p.set_defaults(func=cmd_stats)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MalformedInputError, MalformedQueryError, ParameterError,
            UnsupportedShapeError, OSError) as exc:
        print(f"colorfreq: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
