"""Every library name the benchmark traces still exists.

The tier-1 suite never runs ``bench/``, so a deleted or renamed name would
break ``bench/run.py --trace 1`` without any test failing.  Each target of
``workloads.layer_targets()`` is resolved the way ``bench/spans.py``
resolves it: a method must be defined on the class itself, a module
attribute must be callable.
"""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_layer_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    targets = importlib.import_module("workloads").layer_targets()
    missing = [
        f"{t.owner.__name__}.{t.attr}"
        for t in targets
        if not (
            t.attr in t.owner.__dict__
            if isinstance(t.owner, type)
            else callable(getattr(t.owner, t.attr, None))
        )
    ]
    assert targets and missing == []
