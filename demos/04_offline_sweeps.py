"""Batched queries with low working space.

When all queries are known up front, the full structure never has to exist
at once: a sweep builds each per-strip substructure right before its
queries need it and destroys it right after.  The peak number of live
stored entries stays at most n in the plane, versus the full structure's
s-dependent footprint, and answers stream out sorted by the sweep
coordinate.
"""

import numpy as np

import colorfreq as cf

n, m, s = 2000, 300, 16
ps = cf.generate_points(n, 2, 40, seed=11)
rng = np.random.default_rng(13)
queries = [(i, cf.BoxQuery.dominance(c)) for i, c in enumerate(rng.uniform(0, 1000, (m, 2)))]

answers = {}
job = cf.OfflineJob(ps, queries, sweep_axis=0, s=s,
                    sink=lambda qid, entries: answers.__setitem__(qid, entries))
summary = cf.answer_offline_dominance(job)
report = cf.peak_space_report(summary)

full = cf.build_dominance(ps, 2, s=s)
print(f"offline dominance batch: n={n}, m={m}, s={s}")
print(f"  full structure entries:   {full.stored_entries}")
print(f"  peak live entries:        {report['peakLiveEntries']} (<= n = {n})")
print(f"  substructures built/destroyed: {report['totalBuilt']}/{report['totalDestroyed']}")
print(f"  emission order violations: {report['emitOrderViolations']}")

for qid, q in queries[:3]:
    assert sorted(answers[qid]) == sorted(full.query(q))
print("  spot-checked against the online structure")

# Three-sided batches: each query splits into two dominance queries whose
# y-ordered answer streams merge pairwise in one pass.
queries3 = [(i, cf.BoxQuery([tuple(sorted(rng.uniform(0, 1000, 2))), (-np.inf, rng.uniform(0, 1000))]))
            for i in range(150)]
got = {}
summary3 = cf.answer_offline_3sided(ps, queries3, s, lambda qid, e: got.__setitem__(qid, e))
bad = sum(1 for qid, q in queries3 if sorted(got[qid]) != sorted(cf.brute_force(ps, q)))
print(f"\n3-sided batch: m={len(queries3)}, mismatches vs oracle: {bad}")
print(f"  peak live entries: {summary3.peak_live_entries} (<= n = {n})")
print(f"  merge entry touches: {summary3.merge_entry_touches} "
      f"(k1+k2 summed: {sum(k1 + k2 for _, _, k1, k2 in summary3.merge_touches_per_query)})")

# Result 4 takes O(n^(1+eps) + m log n + K) time with s = n^eps: a sweep
# builds each strip at most once, so its builds stay within the eager
# tree's n*(s-1)*(log_s n + 1) entries.  The ratio below is reported, not
# bounded: the bound hides its constant.
print("\nentries built per n^(1+eps), s = n^eps, same batch:")
for eps in (1 / 2, 1 / 3, 1 / 4):
    s_eps = max(2, round(n ** eps))
    built = cf.answer_offline_dominance(cf.OfflineJob(ps, queries, 0, s_eps)).entries_built
    print(f"  eps=1/{round(1 / eps)}: s={s_eps:3d}  entries built {built:6d}  "
          f"n^(1+eps)={n ** (1 + eps):9.0f}  ratio {built / n ** (1 + eps):.3f}")
