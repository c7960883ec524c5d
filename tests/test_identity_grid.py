"""scripts/identity_grid.py: its hashes, whole and per section, are a function
of answers and counters."""

import importlib.util
import json
from pathlib import Path

import colorfreq as cf

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "identity_grid.py"
spec = importlib.util.spec_from_file_location("identity_grid", SCRIPT)
identity_grid = importlib.util.module_from_spec(spec)
spec.loader.exec_module(identity_grid)

TINY = {"ns": (5,), "queries": 3, "larger": False}


def test_hash_is_stable_and_moves_with_a_counter(monkeypatch):
    count, first, sections = identity_grid.digest(**TINY)
    assert count > 300
    assert set(sections) == {"tree", "box", "q", "offline", "3sided", "1d", "prefix"}
    assert identity_grid.digest(**TINY) == (count, first, sections)

    drain = cf.ColorAccumulator.drain_and_reset

    def one_more_drain(self):
        self.drain_ops += 1
        return drain(self)

    # a query counter moves the query records, not the structures' records
    monkeypatch.setattr(cf.ColorAccumulator, "drain_and_reset", one_more_drain)
    patched, moved, patched_sections = identity_grid.digest(**TINY)
    assert patched == count and moved != first
    assert patched_sections["q"] != sections["q"]
    assert patched_sections["tree"] == sections["tree"]


def test_expect_exits_1_when_the_records_or_the_hash_differ(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(identity_grid, "QUICK", TINY)
    count, hexdigest, sections = identity_grid.digest(**TINY)
    expect = tmp_path / "IDENTITY.json"
    moved_q = {**sections, "q": "0" * 64}
    for records, sha, parts, moved in ((count, hexdigest, sections, None),
                                       (count, "0" * 64, sections, "none"),
                                       (count + 1, hexdigest, sections, "none"),
                                       (count, hexdigest, moved_q, "q")):
        expect.write_text(json.dumps({"quick": {"records": records, "sha256": sha,
                                                "sections": parts}}))
        assert identity_grid.main(["--quick", "--expect", str(expect)]) == (moved is not None)
        err = capsys.readouterr().err
        assert ("expected" in err) == (moved is not None)
        if moved:
            assert err.rstrip().endswith(f"sections moved: {moved}")


def test_the_quick_grid_equals_the_committed_identity(capsys):
    # answers and counters of the source tree against IDENTITY.json, the
    # check CI runs, so that a local run catches a moved section too
    expect = SCRIPT.parent.parent / "IDENTITY.json"
    assert identity_grid.main(["--quick", "--expect", str(expect)]) == 0
