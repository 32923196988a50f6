"""The benchmark's span table must name functions that exist.

``benchmarks/run.py --trace 1`` wraps every entry of ``tracing.LAYERS`` and
fails with KeyError when a renamed or deleted function is still listed.
"""

import importlib

from conftest import ROOT


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    import tracing

    missing = []
    for entries in tracing.LAYERS.values():
        for entry in entries:
            parts = entry.split(".")
            owner = importlib.import_module("monosing." + parts[0])
            if len(parts) == 3:
                owner = vars(owner).get(parts[1])
            if owner is None or (len(parts) > 1 and parts[-1] not in vars(owner)):
                missing.append(entry)
    assert missing == []
