"""Command-line interface: formats, determinism, verification."""

import io
import sys
from unittest import mock

import pytest

import colorfreq as cf
from colorfreq import boxes, cli
from colorfreq.cli import main
from _util import canon

INF = float("inf")


def run_cli(*argv, capsys=None):
    return main(list(argv))


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def gen_args(out, seed=7, n=80, m=20, extra=()):
    return [
        "gen", "--points", str(n), "--queries", str(m), "--dims", "2",
        "--colors", "6", "--seed", str(seed), "--out", str(out), *extra,
    ]


def test_gen_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(gen_args(a)) == 0
    assert main(gen_args(b)) == 0
    assert read(f"{a}.points.txt") == read(f"{b}.points.txt")
    assert read(f"{a}.queries.txt") == read(f"{b}.queries.txt")


def test_gen_distinct_colors_when_phi_equals_n(tmp_path):
    out = tmp_path / "g"
    main(["gen", "--points", "32", "--queries", "1", "--dims", "2",
          "--colors", "32", "--seed", "1", "--out", str(out)])
    labels = [line.split()[-1] for line in open(f"{out}.points.txt")]
    assert len(set(labels)) == 32


def test_gen_equal_classes(tmp_path):
    out = tmp_path / "e"
    main(["gen", "--points", "40", "--queries", "1", "--dims", "2",
          "--colors", "8", "--seed", "2", "--equal-classes", "--out", str(out)])
    labels = [line.split()[-1] for line in open(f"{out}.points.txt")]
    counts = {lab: labels.count(lab) for lab in set(labels)}
    assert set(counts.values()) == {5}


def test_verify_clean_and_corrupt(tmp_path, capsys):
    out = tmp_path / "v"
    main(gen_args(out))
    args = ["verify", f"{out}.points.txt", f"{out}.queries.txt", "--fanout", "4"]
    assert main(args) == 0
    report = capsys.readouterr().out
    assert "0 mismatches" in report
    assert main(args + ["--corrupt"]) == 1
    report = capsys.readouterr().out
    assert "first differing query" in report


def test_verify_counts_offline_disagreements(tmp_path, capsys):
    # a dominance structure's answers must equal the offline sweep's: one
    # corrupted offline answer is one mismatch
    out = tmp_path / "o"
    main(gen_args(out, seed=23))
    args = ["verify", f"{out}.points.txt", f"{out}.queries.txt", "--fanout", "4"]
    assert main(args) == 0
    assert "0 mismatches" in capsys.readouterr().out
    real = cli.answer_offline_dominance

    def corrupting(job):
        sink = job.sink
        job.sink = lambda qid, entries: sink(qid, (entries[1:] or [(0, 1)]) if qid == 0 else entries)
        return real(job)

    with mock.patch.object(cli, "answer_offline_dominance", corrupting):
        assert main(args) == 1
    assert "1 mismatches" in capsys.readouterr().out


def test_verify_weighted_counts(tmp_path, capsys):
    # the sum identity compares reported totals with the weight inside the box
    pts, qs = tmp_path / "w.points.txt", tmp_path / "w.queries.txt"
    pts.write_text("1 1 a 3\n2 5 b 1\n3 2 a -1\n4 4 c 2\n")
    qs.write_text("-inf 10 -inf 10\n-inf 2.5 -inf 3\n")
    assert main(["verify", str(pts), str(qs), "--fanout", "2"]) == 0
    assert "0 mismatches" in capsys.readouterr().out


def test_verify_touch_bound_counts_cancelled_colors(tmp_path, capsys):
    # both colors cancel to 0: nothing is reported, yet each was touched
    pts, qs = tmp_path / "c.points.txt", tmp_path / "c.queries.txt"
    pts.write_text("1 1 a 1\n2 1 a -1\n3 1 b 1\n4 1 b -1\n")
    qs.write_text("-inf 10 -inf 10\n")
    assert main(["verify", str(pts), str(qs), "--fanout", "2"]) == 0
    assert "probe-bound violations: 0" in capsys.readouterr().out


def test_verify_fanout_sweep(tmp_path, capsys):
    out = tmp_path / "s"
    main(gen_args(out, seed=11, n=120, m=25))
    for s in ("2", "4", "16"):
        assert main(["verify", f"{out}.points.txt", f"{out}.queries.txt",
                     "--fanout", s]) == 0
        assert "0 mismatches" in capsys.readouterr().out


def test_verify_deterministic_report(tmp_path, capsys):
    out = tmp_path / "r"
    main(gen_args(out, seed=13))
    capsys.readouterr()  # drop the gen banner
    args = ["verify", f"{out}.points.txt", f"{out}.queries.txt", "--fanout", "4"]
    main(args)
    first = capsys.readouterr().out
    main(args)
    second = capsys.readouterr().out
    assert first == second


def test_verify_box_queries(tmp_path, capsys):
    out = tmp_path / "b"
    main(gen_args(out, seed=17, extra=("--sides", "2,2")))
    assert main(["verify", f"{out}.points.txt", f"{out}.queries.txt",
                 "--fanout", "4", "--sides", "2,2"]) == 0
    assert "0 mismatches" in capsys.readouterr().out


def test_verify_box_fanout_bound_counts_the_query_two_sided_axes(tmp_path, capsys):
    # a box routing one-sided queries on its bounded axis through the split
    # still answers right, but fans out to 2 where 2^0 inner queries are allowed
    out = tmp_path / "f"
    main(gen_args(out, seed=19, extra=("--sides", "2,1")))
    queries = tmp_path / "f.one-sided.queries.txt"
    queries.write_text("-inf 900 -inf 900\n")
    args = ["verify", f"{out}.points.txt", str(queries), "--fanout", "4", "--sides", "2,1"]
    assert main(args) == 0
    assert "probe-bound violations: 0" in capsys.readouterr().out
    real = boxes.BoxTree._query_rec

    def split_route(self, lv, layer, bounds, session):
        axis = self.levels[lv].axis if lv < len(self.levels) else None
        if axis is not None and bounds[axis][0] == -INF:
            bounds = list(bounds)
            bounds[axis] = (-1e300, bounds[axis][1])
        real(self, lv, layer, bounds, session)

    with mock.patch.object(boxes.BoxTree, "_query_rec", split_route):
        assert main(args) == 1
    report = capsys.readouterr().out
    assert "0 mismatches" in report and "probe-bound violations: 1" in report


def test_build_query_stream_format(tmp_path):
    out = tmp_path / "q"
    main(gen_args(out, seed=19))
    answers = tmp_path / "ans.txt"
    assert main(["build-query", f"{out}.points.txt", f"{out}.queries.txt",
                 "--fanout", "4", "--out", str(answers)]) == 0
    ps = cf.read_dataset(f"{out}.points.txt", d=2)
    queries = cf.read_queries(f"{out}.queries.txt", d=2)
    lines = answers.read_text().splitlines()
    assert len(lines) == len(queries)
    for qid, line in enumerate(lines):
        toks = line.split()
        assert int(toks[0]) == qid
        k = int(toks[1])
        assert len(toks) == 2 + k
        got = {}
        for tok in toks[2:]:
            lab, cnt = tok.rsplit(":", 1)
            got[lab] = int(cnt)
        want = {
            ps.label_of(c): w for c, w in cf.brute_force(ps, queries[qid])
        }
        assert got == want


def test_offline_stream_matches_online(tmp_path, capsys):
    out = tmp_path / "o"
    main(gen_args(out, seed=23, n=150, m=30))
    stream = tmp_path / "stream.txt"
    assert main(["offline", f"{out}.points.txt", f"{out}.queries.txt",
                 "--fanout", "4", "--out", str(stream)]) == 0
    capsys.readouterr()
    answers = tmp_path / "ans.txt"
    main(["build-query", f"{out}.points.txt", f"{out}.queries.txt",
          "--fanout", "4", "--out", str(answers)])
    parse = lambda text: {
        line.split()[0]: tuple(sorted(line.split()[2:])) for line in text.splitlines()
    }
    assert parse(stream.read_text()) == parse(answers.read_text())


def test_offline_3sided_subcommand(tmp_path, capsys):
    out = tmp_path / "t"
    main(gen_args(out, seed=29, n=100, m=20, extra=("--sides", "2,1")))
    stream = tmp_path / "s3.txt"
    assert main(["offline", f"{out}.points.txt", f"{out}.queries.txt",
                 "--fanout", "4", "--sides", "2,1", "--out", str(stream)]) == 0
    ps = cf.read_dataset(f"{out}.points.txt", d=2)
    queries = cf.read_queries(f"{out}.queries.txt", d=2)
    for line in stream.read_text().splitlines():
        toks = line.split()
        qid, k = int(toks[0]), int(toks[1])
        want = {ps.label_of(c): w for c, w in cf.brute_force(ps, queries[qid])}
        got = dict((t.rsplit(":", 1)[0], int(t.rsplit(":", 1)[1])) for t in toks[2:])
        assert got == want and k == len(want)


def test_offline_exit_code_checks_the_sweep_contract(tmp_path, capsys, monkeypatch):
    # every structure built is destroyed, and a d <= 2 sweep or 3-sided
    # batch holds at most n entries at once and builds within the offline
    # bound; d >= 3 strips store more
    plain, three, cube = tmp_path / "p", tmp_path / "t", tmp_path / "c"
    main(gen_args(plain, seed=43, n=120, m=20))
    main(gen_args(three, seed=43, n=120, m=20, extra=("--sides", "2,1")))
    main(["gen", "--points", "120", "--queries", "20", "--dims", "3", "--colors", "6",
          "--seed", "43", "--out", str(cube)])
    runs = {
        "2": ["offline", f"{plain}.points.txt", f"{plain}.queries.txt", "--fanout", "4"],
        "2,1": ["offline", f"{three}.points.txt", f"{three}.queries.txt", "--fanout", "4",
                "--sides", "2,1"],
        "3": ["offline", f"{cube}.points.txt", f"{cube}.queries.txt", "--dims", "3",
              "--fanout", "4"],
    }
    capsys.readouterr()
    for run, argv in runs.items():
        assert main([*argv, "--out", str(tmp_path / "a.txt")]) == 0
        peak = int(capsys.readouterr().err.split("peakLiveEntries=")[1].split()[0])
        assert (peak > 120) == (run == "3")  # the d = 3 sweep is over n

    def skewed(real, changes):
        def run(*args):
            summary = real(*args)
            for name, value in changes.items():
                setattr(summary, name, value(summary))
            return summary
        return run

    built_more = {"total_destroyed": lambda s: s.total_built - 1}
    over_n = {"peak_live_entries": lambda s: s.n + 1}

    def over_bound(t):
        # a strip built twice (one build more than the bound, all of them
        # destroyed), or one entry more than the bound
        def bound(s, which):
            return cf.offline_build_bound(s.n, 4, s.d, t)[which] + 1
        return ({"total_built": lambda s: bound(s, 0), "total_destroyed": lambda s: bound(s, 0)},
                {"entries_built": lambda s: bound(s, 1)})

    (sweep_strips, sweep_entries), (batch_strips, batch_entries) = over_bound(0), over_bound(1)
    cases = [("2", "answer_offline_dominance", built_more, 1),
             ("2", "answer_offline_dominance", over_n, 1),
             ("2", "answer_offline_dominance", sweep_strips, 1),
             ("2", "answer_offline_dominance", sweep_entries, 1),
             ("2,1", "answer_offline_3sided", built_more, 1),
             ("2,1", "answer_offline_3sided", over_n, 1),
             ("2,1", "answer_offline_3sided", batch_strips, 1),
             ("2,1", "answer_offline_3sided", batch_entries, 1),
             ("3", "answer_offline_dominance", built_more, 1),
             ("3", "answer_offline_dominance", over_n, 0),
             ("3", "answer_offline_dominance", sweep_strips, 0),
             ("3", "answer_offline_dominance", sweep_entries, 0)]
    for run, entry, changes, code in cases:
        with monkeypatch.context() as patch:
            patch.setattr(cli, entry, skewed(getattr(cli, entry), changes))
            assert main([*runs[run], "--out", str(tmp_path / "a.txt")]) == code, (run, changes)
        err = capsys.readouterr().err
        assert ("offline contract violated" in err) == (code == 1)


def test_stats_subcommand(tmp_path, capsys):
    out = tmp_path / "st"
    main(gen_args(out, seed=31))
    assert main(["stats", f"{out}.points.txt", "--fanout", "4"]) == 0
    text = capsys.readouterr().out
    for key in ("storedEntries", "height", "nodeCount", "buildOps"):
        assert key in text


def test_semigroup_weights_flag(tmp_path, capsys):
    out = tmp_path / "w"
    main(["gen", "--points", "60", "--queries", "15", "--dims", "2", "--colors", "5",
          "--seed", "37", "--weights", "semigroup", "--out", str(out)])
    assert main(["verify", f"{out}.points.txt", f"{out}.queries.txt",
                 "--fanout", "4", "--weights", "semigroup"]) == 0
    assert "0 mismatches" in capsys.readouterr().out


def test_typed_errors_print_one_line(tmp_path, capsys):
    out = tmp_path / "e"
    main(gen_args(out, seed=41, n=60, m=10, extra=("--sides", "2,2")))
    capsys.readouterr()
    bad = tmp_path / "bad.points.txt"
    bad.write_text("1.0 2.0 a\n3.0 b\n")
    bad_weight = tmp_path / "weight.points.txt"
    bad_weight.write_text("1.0 2.0 a\n3.0 4.0 b 1.5\n")
    bad_coord = tmp_path / "coord.points.txt"
    bad_coord.write_text("foo 2.0 a\n")
    bad_bound = tmp_path / "bad.queries.txt"
    bad_bound.write_text("-inf 5.0 -inf 5.0\n-inf x -inf 5.0\n")
    files = [f"{out}.points.txt", f"{out}.queries.txt"]
    cases = [
        (["offline", *files, "--sides", "2,2"], "query 0 is not a dominance query"),
        (["build-query", *files, "--fanout", "1"], "fanout s=1 outside"),
        (["stats", str(bad)], ""),
        (["stats", str(bad_weight)], f"{bad_weight}:2: "),
        (["stats", str(bad_coord), "--dims", "2"], f"{bad_coord}:1: "),
        (["build-query", files[0], str(bad_bound)], f"{bad_bound}:2: "),
        (["build-query", *files, "--sides", "2,x"], "--sides needs 2 comma-separated values"),
        (["verify", *files, "--sides", "3,1"], "--sides needs 2 comma-separated values"),
        (gen_args(tmp_path / "neg", m=-1), "query count m=-1 is negative"),
        (gen_args(tmp_path / "grid", extra=("--grid", "0")), "grid=0 leaves no integer"),
        (["verify", str(tmp_path / "missing.txt"), files[1]], "No such file or directory"),
        (["stats", str(tmp_path)], "Is a directory"),
        (["offline", *files, "--out", str(tmp_path / "nowhere" / "out.txt")],
         "No such file or directory"),
    ]
    for argv, message in cases:
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("colorfreq: error: "), err
        assert message in err
