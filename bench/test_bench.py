"""Self-check of the benchmark harness.

    python -m pytest bench -q

A tiny-size run of every workload, traced and untraced, must report every
named metric with its unit and pass its correctness checks; the tracer's
self-time arithmetic is checked on hand-built spans.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import numpy as np
import pytest

import run
from spans import Target, Tracer, self_times
from workloads import WORKLOADS


def test_self_time_of_flat_and_nested_spans():
    # root [0, 10] with children [1, 3] and [4, 6]; [4, 6] has child [4.5, 5]
    start = np.array([0.0, 1.0, 4.0, 4.5])
    end = np.array([10.0, 3.0, 6.0, 5.0])
    parent = np.array([-1, 0, 0, 2])
    assert self_times(start, end, parent).tolist() == [6.0, 2.0, 1.5, 0.5]


def test_self_time_counts_overlapping_children_once_and_clips_them():
    # children [1, 3] and [2, 5] overlap; [8, 12] runs past its parent's end
    start = np.array([0.0, 1.0, 2.0, 8.0])
    end = np.array([10.0, 3.0, 5.0, 12.0])
    parent = np.array([-1, 0, 0, 0])
    assert self_times(start, end, parent).tolist() == [4.0, 2.0, 3.0, 4.0]


def test_slowest_of_passes_takes_each_ops_slowest_time():
    from workloads import Op

    passes = [
        [Op("a", 1.0, 2, 3), Op("b", 4.0)],
        [Op("a", 2.0, 2, 3), Op("b", 3.0)],
        [Op("b", 9.0)],  # a pass that ran other ops is left out
    ]
    slowest = run.slowest_of_passes(passes)
    assert [(op.kind, op.seconds, op.items, op.tokens) for op in slowest] == [("a", 2.0, 2, 3), ("b", 4.0, 0, 0)]
    assert passes[0][0].seconds == 1.0  # the recorded ops are left as they were


def test_tracer_patches_every_binding_and_restores_them():
    import cboost.boosting as boosting
    import cboost.dist as dist
    from cboost.backend import CachingBackend
    from cboost.toy_lm import ToyBackend, ToyLMParams

    original = dist.log_linear_mix
    tracer = Tracer()
    targets = [
        Target(boosting, "boosted_next_dist", "boosting.boosted_next_dist"),
        Target(dist, "log_linear_mix", "dist.log_linear_mix"),
    ]
    backend = CachingBackend(ToyBackend(ToyLMParams.zeros(4, 2)))
    spec = boosting.BoostSpec.fixed_k(1, -0.5)
    with tracer.patched(targets):
        assert boosting.log_linear_mix is dist.log_linear_mix is not original
        boosting.boosted_next_dist(backend, (1, 2, 3), spec)
        with tracer.paused():
            boosting.boosted_next_dist(backend, (1, 2, 3), spec)
    assert boosting.log_linear_mix is original and dist.log_linear_mix is original
    assert [tracer.names[i] for i in tracer.name] == ["boosting.boosted_next_dist", "dist.log_linear_mix"]
    assert list(tracer.parent) == [-1, 0]


def test_tracer_records_only_its_own_thread():
    import threading

    import cboost.dist as dist

    tracer = Tracer()
    with tracer.patched([Target(dist, "log_softmax", "dist.log_softmax")]):
        worker = threading.Thread(target=dist.log_softmax, args=(np.zeros(4),))
        worker.start()
        worker.join()
        assert len(tracer.start) == 0
        dist.log_softmax(np.zeros(4))
    assert len(tracer.start) == 1


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_metric(name, trace, capsys):
    workload = WORKLOADS[name](tiny=True)
    result = run.run_traced(workload, 3) if trace else run.run_untraced(workload, 3, 0.0, 0.0)
    run.emit(SimpleNamespace(seed=3, seconds=0.0, trace=trace), workload, result)
    lines = capsys.readouterr().out.strip().splitlines()
    line = json.loads(lines[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {n: m["unit"] for n, m in line["metrics"].items()} == dict(expected)
    assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())
    printed = {ln.split()[0]: ln.split()[2] for ln in lines if ln.count(" ") == 2}
    assert all(printed[n] == unit for n, unit in expected)
    if not trace:
        assert printed["failed_frac"] == "ratio"
    record = json.loads(next(ln for ln in lines if ln.startswith("record "))[len("record "):])
    assert record["digests_match"] and len(record["digest_pass0"]) == 64
    assert record["src_lines"] > 0


def test_benchmark_json_matches_the_harness():
    with open(f"{run.ROOT}/BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
