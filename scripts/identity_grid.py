"""One SHA-256 over the library's answers and counters on a fixed grid.

    python3 scripts/identity_grid.py [--quick] [--rev REV] [--expect IDENTITY.json]

The grid builds dominance trees, boxes, 1-D structures and offline batches
over n in {0, 1, 2, 3, 5, 17, 64, 300, 900}, d = 1-3 (no d = 3 at 900),
uniform and grid data (grid 4 and 11, so coordinates tie), s in {2, 4, 16}
up to n, and three weight modes: signed counts in [-2, 2] (totals cancel to
zero), ``MAX_SEMIGROUP`` over separately built ints, and order-sensitive
tuple concatenation (n <= 64).  Boxes run on every set of bounded axes (two
or more only up to n = 300 and not at s = 2 past 64, three only up to 64).
Three larger builds follow: an n=2000 box with max weights, an n=20000
dominance tree and an n=5000 three-sided batch.

Each record is one line hashed in order:
- per structure: ``stored_entries``, ``build_ops`` (and a tree's ``height``
  and ``node_count``);
- per query: the answer in drain order, ``probes``,
  ``substructure_queries``, ``fanout``, and the accumulator's
  ``touch_ops`` and ``drain_ops`` it added;
- per offline batch (``answer_offline_dominance`` on every sweep axis, and
  ``answer_offline_3sided`` for d = 2): the sink stream and every
  ``SweepSummary`` field.

Each record also goes into the hash of its section: the kind it is tagged
with (``tree``, ``box``, ``q``, ``offline``, ``3sided``, ``1d`` or
``prefix``), or ``larger`` for every record of the larger builds.

``--quick`` runs n <= 64 with fewer queries and no larger builds, a few
seconds.  ``--rev REV`` runs this script on a ``git archive`` of REV's
``src/`` instead of this checkout's, so that two commits hash one grid.
The script prints ``<records> records sha256 <hex>`` and then one
``<section> <hex>`` line per section.  With ``--expect FILE`` it exits 1,
naming the sections that moved, unless all of them equal the ``"quick"``
or ``"full"`` entry of that JSON file, ``{"records": ..., "sha256": ...,
"sections": {section: hex}}``; the repository's ``IDENTITY.json`` holds
today's values, and a change that moves an answer or a counter on purpose
updates it.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import io
import itertools
import json
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import colorfreq as cf  # noqa: E402

NS = (0, 1, 2, 3, 5, 17, 64, 300, 900)
QUICK = {"ns": (0, 1, 3, 17, 64), "queries": 6, "larger": False}
CONCAT = cf.SemigroupMode(lambda a, b: a + b, name="concat")


def _instance(n, d, phi, grid, mode_name, seed):
    """(PointSet, query coordinate range) of one grid cell."""
    rng = np.random.default_rng(seed)
    if grid:
        coords = rng.integers(0, grid, size=(n, d)).astype(np.float64)
        span = (-1.0, float(grid))
    else:
        coords = rng.uniform(0.0, 1000.0, size=(n, d))
        span = (-50.0, 1050.0)
    colors = rng.integers(0, phi, n)
    if mode_name == "count":
        ps = cf.PointSet(coords, colors, rng.integers(-2, 3, n), mode=cf.COUNT)
    elif mode_name == "max":
        # ints past the small-int cache, each its own object, ties included
        ps = cf.PointSet(coords, colors, [int(str(w)) for w in rng.integers(300, 310, n)],
                         mode=cf.MAX_SEMIGROUP)
    else:
        ps = cf.PointSet(coords, colors, [(int(w),) for w in rng.integers(0, 9, n)], mode=CONCAT)
    return ps, span


def _queries(rng, m, d, span, two_sided, grid):
    """m boxes, two-sided on the axes of ``two_sided``, else upper only;
    on grid data the bounds are grid values, so they meet ties."""
    out = []
    for _ in range(m):
        vals = rng.integers(int(span[0]), int(span[1]) + 1, 2 * d).astype(float) if grid \
            else rng.uniform(span[0], span[1], 2 * d)
        bounds = []
        for axis in range(d):
            a, b = sorted(vals[2 * axis:2 * axis + 2].tolist())
            bounds.append((a, b) if axis in two_sided else (-np.inf, b))
        out.append(cf.BoxQuery(bounds))
    return out


def _answers(struct, queries):
    """One record per query: the answer in drain order and every counter."""
    session = struct.new_session()
    acc = session.accumulator
    for q in queries:
        touch, drain = acc.touch_ops, acc.drain_ops
        got = struct.query(q, session)
        yield ("q", got, session.probes, session.substructure_queries, session.fanout,
               acc.touch_ops - touch, acc.drain_ops - drain)


def _summary(summary):
    return tuple(getattr(summary, f.name) for f in dataclasses.fields(summary))


def _offline(ps, queries, s):
    """Records of ``answer_offline_dominance`` on every sweep axis."""
    for axis in range(ps.d):
        stream = []
        job = cf.OfflineJob(ps, list(enumerate(queries)), sweep_axis=axis, s=s,
                            sink=lambda qid, ans: stream.append((qid, ans)))
        summary = cf.answer_offline_dominance(job)
        yield ("offline", axis, stream, _summary(summary))


def _three_sided(ps, queries, s):
    stream = []
    summary = cf.answer_offline_3sided(ps, list(enumerate(queries)), s,
                                       sink=lambda qid, ans: stream.append((qid, ans)))
    return ("3sided", stream, _summary(summary))


def _cell(n, d, grid, mode_name, s, seed, nq):
    """Every record of one grid cell."""
    phi = max(1, min(n, 7 if grid else 13))
    ps, span = _instance(n, d, phi, grid, mode_name, seed)
    rng = np.random.default_rng(seed + 1)
    corners = _queries(rng, nq, d, span, (), grid)
    tree = cf.DominanceTree(ps, s)
    st = tree.stats()
    yield ("tree", st.stored_entries, st.build_ops, st.height, st.node_count)
    yield from _answers(tree, corners)
    for k in range(1, d + 1):
        if (k >= 2 and (n > 300 or (s == 2 and n > 64))) or (k >= 3 and n > 64):
            continue
        for axes in itertools.combinations(range(d), k):
            box = cf.BoxTree(ps, s, bounded_axes=axes)
            yield ("box", axes, box.stored_entries, box.build_ops)
            yield from _answers(box, _queries(rng, nq, d, span, axes, grid))
    yield from _offline(ps, corners, s)
    if d == 1 and mode_name == "count":
        f = cf.build_1d(ps)
        yield ("1d", f.stored_entries, f.build_ops)
        session = cf.QuerySession()
        for q in _queries(rng, nq, 1, span, (0,), grid):
            (_, hi), = q.bounds
            got = f.query((hi,), session)
            yield ("prefix", got, session.probes)
    if d == 2:
        yield _three_sided(ps, _queries(rng, nq, 2, span, (0,), grid), s)


def records(ns=NS, queries: int = 20, larger: bool = True):
    """Every (section, record) of the grid over the sizes ``ns``, with
    ``queries`` queries per structure and the larger builds or not, each
    record a tuple tagged with its cell."""
    seed = 0
    for n in ns:
        for d, grid, mode_name in itertools.product((1, 2, 3), (None, 4, 11),
                                                    ("count", "max", "concat")):
            if (d == 3 and n > 300) or (mode_name == "concat" and n > 64):
                continue
            for s in (2, 4, 16):
                if s > max(2, n):
                    continue
                seed += 1
                cell = (n, d, grid, mode_name, s)
                for rec in _cell(n, d, grid, mode_name, s, seed, queries):
                    yield rec[0], cell + rec
    if not larger:
        return
    big = [("box", 2000, cf.MAX_SEMIGROUP, 8), ("tree", 20000, cf.COUNT, 16),
           ("3sided", 5000, cf.COUNT, 16)]
    for kind, n, mode, s in big:
        ps = cf.generate_points(n, 2, 64, 101, mode=mode)
        sides = (2, 2) if kind == "box" else (2, 1) if kind == "3sided" else (1, 1)
        qs = cf.generate_queries(300, 2, 1101, sides=sides)
        if kind == "box":
            box = cf.BoxTree(ps, s, bounded_axes=(0, 1))
            recs = [(box.stored_entries, box.build_ops), *_answers(box, qs)]
        elif kind == "tree":
            tree = cf.DominanceTree(ps, s)
            st = tree.stats()
            recs = [(st.stored_entries, st.build_ops, st.height, st.node_count),
                    *_answers(tree, qs)]
        else:
            recs = [_three_sided(ps, qs, s)]
        yield from (("larger", (kind, n) + rec) for rec in recs)


def digest(**grid) -> tuple[int, str, dict]:
    """(record count, SHA-256 hex, {section: SHA-256 hex}) of
    ``records(**grid)``: one hash over every record and one over each
    section's records, each in order."""
    whole, sections = hashlib.sha256(), {}
    count = 0
    for section, rec in records(**grid):
        line = repr(rec).encode() + b"\n"
        whole.update(line)
        sections.setdefault(section, hashlib.sha256()).update(line)
        count += 1
    return count, whole.hexdigest(), {k: h.hexdigest() for k, h in sorted(sections.items())}


def _at_rev(rev: str, quick: bool, expect: Path | None) -> int:
    """Run this script on a ``git archive`` of REV's ``src/``."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev, "src"], cwd=ROOT,
                         check=True, capture_output=True).stdout
    with tempfile.TemporaryDirectory(prefix="identity_grid_") as tmp:
        with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
            archive.extractall(tmp, filter="data")
        script = Path(tmp) / "scripts" / Path(__file__).name
        script.parent.mkdir()
        script.write_bytes(Path(__file__).read_bytes())
        cmd = [sys.executable, str(script)] + (["--quick"] if quick else [])
        if expect:
            cmd += ["--expect", str(expect.resolve())]
        return subprocess.run(cmd, cwd=tmp).returncode


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true", help="the small grid only, a few seconds")
    ap.add_argument("--rev", help="hash the grid on this git revision's src/ instead")
    ap.add_argument("--expect", type=Path,
                    help="exit 1 unless the records and hash equal this JSON file's entry")
    args = ap.parse_args(argv)
    if args.rev:
        return _at_rev(args.rev, args.quick, args.expect)
    grid = "quick" if args.quick else "full"
    count, hexdigest, sections = digest(**QUICK) if args.quick else digest()
    print(f"{count} records sha256 {hexdigest}")
    for section, h in sections.items():
        print(f"{section} {h}")
    if args.expect:
        want = json.loads(args.expect.read_text())[grid]
        moved = sorted(k for k in sections.keys() | want["sections"].keys()
                       if sections.get(k) != want["sections"].get(k))
        if moved or (count, hexdigest) != (want["records"], want["sha256"]):
            print(f"expected {want['records']} records sha256 {want['sha256']} "
                  f"for the {grid} grid; sections moved: {', '.join(moved) or 'none'}",
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
