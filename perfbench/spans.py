"""In-memory span recorder for the traced benchmark run.

The recorder patches library callables from outside (nothing under ``src/``
changes), records one span per call (name, start, end, parent, root) and
keeps per-name totals of duration and self time, where self time is a
span's duration minus the time its child spans cover.  ``restore`` puts the
original callables back.

Spans sit at the boundaries between the library's modules, which are the
benchmark's layers:

    freq1d     Frequency1D construction and prefix reports
    dominance  strip-tree build and query, ColorAccumulator merge and drain
    boxes      BoxTree build and query
    offline    answer_offline_3sided
    oracle     brute_force

``core`` holds only the shared types (PointSet, BoxQuery, QuerySession);
its work runs inside the spans above and has no span of its own.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter

# indexes into an open-span frame: [id, parent id, root id, name, start ns, child ns]
_ID, _PARENT, _ROOT, _NAME, _START, _CHILD = range(6)
SPAN_LIMIT = 250_000  # spans kept for the JSONL file, about 30 MB of it


class SpanRecorder:
    """Records spans around patched callables; single thread only.

    Totals cover every span; only the first SPAN_LIMIT spans are kept for
    the JSONL file, the rest are counted in ``dropped``.
    """

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, root, name, start_ns, end_ns)
        self.dropped = 0
        self.self_ns: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []
        self._next_id = 0
        self._patched: list[tuple] = []

    def begin(self, name: str) -> list:
        self._next_id += 1
        sid = self._next_id
        if self._stack:
            top = self._stack[-1]
            frame = [sid, top[_ID], top[_ROOT], name, 0, 0]
        else:
            frame = [sid, 0, sid, name, 0, 0]
        self._stack.append(frame)
        frame[_START] = time.perf_counter_ns()
        return frame

    def end(self, frame: list) -> None:
        end = time.perf_counter_ns()
        top = self._stack.pop()
        if top is not frame:
            raise RuntimeError(f"span {frame[_NAME]} closed out of order")
        name = frame[_NAME]
        dur = end - frame[_START]
        self.self_ns[name] += dur - frame[_CHILD]
        self.total_ns[name] += dur
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][_CHILD] += dur
        if len(self.spans) < SPAN_LIMIT:
            self.spans.append((frame[_ID], frame[_PARENT], frame[_ROOT], name, frame[_START], end))
        else:
            self.dropped += 1

    def wrap(self, owner, attr: str, name: str, pre=None, post=None) -> None:
        """Replace ``owner.attr`` by a wrapper recording a ``name`` span.

        ``pre(*args)`` runs before the call and its result is handed to
        ``post(state, result, *args)`` after it.  A call made directly
        inside a span of the same name (a layer calling itself, such as
        ``add_entries`` calling ``add``) records no span and runs no hooks:
        the enclosing span already covers it.
        """
        orig = getattr(owner, attr)
        stack, begin, end = self._stack, self.begin, self.end

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][_NAME] == name:
                return orig(*args, **kwargs)
            state = pre(*args, **kwargs) if pre else None
            frame = begin(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                end(frame)
            if post:
                post(state, result, *args, **kwargs)
            return result

        self._patched.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def durations_ns(self, name: str) -> list[int]:
        return [s[5] - s[4] for s in self.spans if s[3] == name]

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, root, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "trace": root,
                                     "name": name, "start_ns": start, "end_ns": end}))
                fh.write("\n")


def trace_colorfreq(rec: SpanRecorder, cf) -> None:
    """Patch the module-boundary callables of the ``colorfreq`` package ``cf``.

    Counters land in ``rec.counts``: ``freq1d.entries`` (entries built),
    ``freq1d.probes`` and ``freq1d.hits`` (index probes and reported
    entries of prefix reports) and ``acc.touches`` (accumulator merges).
    """
    counts = rec.counts

    def count_entries(_, __, struct, *args, **kwargs):
        counts["freq1d.entries"] += struct.m

    def probes_before(struct, q, session=None):
        return session.probes if session is not None else 0

    def count_report(before, hits, struct, q, session=None):
        if session is not None:
            counts["freq1d.probes"] += session.probes - before
        counts["freq1d.hits"] += len(hits)

    def touches_before(acc, *args):
        return acc.touch_ops

    def count_touches(before, _, acc, *args):
        counts["acc.touches"] += acc.touch_ops - before

    rec.wrap(cf.Frequency1D, "__init__", "freq1d.build", post=count_entries)
    rec.wrap(cf.Frequency1D, "query_prefix", "freq1d.report", pre=probes_before, post=count_report)
    # _init_from_parts is where every tree is built, including the inner
    # trees of BoxTree and the offline skeleton; _build_substructure is the
    # per-strip build the offline sweep calls directly.
    rec.wrap(cf.DominanceTree, "_init_from_parts", "dominance.build")
    rec.wrap(cf.DominanceTree, "_build_substructure", "dominance.build")
    # query is the public entry point; _query_into is the one BoxTree calls.
    rec.wrap(cf.DominanceTree, "query", "dominance.query")
    rec.wrap(cf.DominanceTree, "_query_into", "dominance.query")
    for method in ("add", "add_entries"):
        rec.wrap(cf.ColorAccumulator, method, "dominance.acc_merge",
                 pre=touches_before, post=count_touches)
    rec.wrap(cf.ColorAccumulator, "drain_and_reset", "dominance.acc_drain")
    rec.wrap(cf.BoxTree, "__init__", "boxes.build")
    rec.wrap(cf.BoxTree, "query", "boxes.query")
    rec.wrap(cf, "answer_offline_3sided", "offline.batch")
    rec.wrap(cf, "brute_force", "oracle.scan")
