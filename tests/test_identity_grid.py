"""scripts/identity_grid.py: its hash is a function of answers and counters."""

import importlib.util
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
