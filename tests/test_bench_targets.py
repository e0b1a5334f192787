"""Every library name the benchmark traces still exists.

The tier-1 suite never runs ``bench/``, so a deleted or renamed name would
break ``bench/run.py --trace 1`` without any test failing.  Each target of
``workloads.layer_targets()`` is resolved the way ``bench/spans.py``
resolves it: a method must be defined on the class itself, a module
attribute must be callable.  The attributes the workloads read without
tracing them are pinned too.
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


def test_untraced_attributes_the_workloads_read():
    from cboost.backend import CachingBackend
    from cboost.decode import GenResult
    from cboost.toy_lm import ToyBackend, ToyLMParams

    result = GenResult((1, 2))
    assert result.tokens == (1, 2) and result.error is None
    assert CachingBackend(ToyBackend(ToyLMParams.zeros(3, 1))).hits == 0
