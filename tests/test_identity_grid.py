"""scripts/identity_grid.py: its hash is a function of answers and counters."""

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
    count, first = identity_grid.digest(**TINY)
    assert count > 300
    assert identity_grid.digest(**TINY) == (count, first)

    drain = cf.ColorAccumulator.drain_and_reset

    def one_more_drain(self):
        self.drain_ops += 1
        return drain(self)

    monkeypatch.setattr(cf.ColorAccumulator, "drain_and_reset", one_more_drain)
    patched, moved = identity_grid.digest(**TINY)
    assert patched == count and moved != first


def test_expect_exits_1_when_the_records_or_the_hash_differ(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(identity_grid, "QUICK", TINY)
    count, hexdigest = identity_grid.digest(**TINY)
    expect = tmp_path / "IDENTITY.json"
    for records, sha, code in ((count, hexdigest, 0), (count, "0" * 64, 1), (count + 1, hexdigest, 1)):
        expect.write_text(json.dumps({"quick": {"records": records, "sha256": sha}}))
        assert identity_grid.main(["--quick", "--expect", str(expect)]) == code
        assert ("expected" in capsys.readouterr().err) == bool(code)
