"""The benchmark's traced run finds every package call it wraps.

``perfbench/layers.py`` names each traced call by its owner and attribute,
and the tracer looks each one up with a bare ``getattr`` when tracing
starts. A package refactor that renames or moves one of them would only
show when ``perfbench/run.py --trace 1`` runs; this test shows it in the
suite.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_binding_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    bindings = layers.bindings()
    assert bindings
    missing = [
        f"{getattr(b.owner, '__name__', b.owner)}.{b.attr}"
        for b in bindings
        if not callable(getattr(b.owner, b.attr, None))
    ]
    assert missing == []
