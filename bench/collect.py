#!/usr/bin/env python3
"""Run every workload of the benchmark over several seeds and summarize
each end-to-end metric.

    python3 bench/collect.py --runs 10 --traced --out baseline.json [--workload NAME ...]

For each workload, runs ``bench/run.py`` once per seed (seeds 1..runs),
one run at a time, and reports per metric the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread (quartile
distance over median) against the metric's bound in ``BENCHMARK.json``,
flagging every spread of a third of the bound or more.  ``--traced`` adds one traced run per workload, at the
first seed, and keeps its per-layer metrics and run record.  The summary
is printed and, with ``--out``, written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["record"] = next(
        (json.loads(line[len("record "):]) for line in lines if line.startswith("record ")), None
    )
    return result


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workload or [w["name"] for w in spec["workloads"]]
    summary = {}
    for name in names:
        runs = [run_once(spec, name, i + 1, 0) for i in range(args.runs)]
        entry = {
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "metrics": {},
            "record": runs[0]["record"] if runs else None,
        }
        if args.traced:
            traced = run_once(spec, name, 1, 1)
            entry["correct"] = entry["correct"] and traced["correct"]
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["traced_record"] = traced["record"]
        for metric in bounds if runs else ():
            s = summarize([r["metrics"][metric]["value"] for r in runs])
            s["bound"] = bounds[metric]
            s["unit"] = runs[0]["metrics"][metric]["unit"]
            entry["metrics"][metric] = s
            flag = "" if s["spread"] < bounds[metric] / 3 else "  <-- spread >= bound/3"
            print(f"{name:16s} {metric:14s} median {s['median']:.6g} {s['unit']:8s} "
                  f"spread {s['spread']:.4f} (bound {bounds[metric]}){flag}", flush=True)
        if runs:
            frac = sum(entry["failed"]) / sum(entry["attempted"])
            print(f"{name:16s} {'failed_frac':14s} {frac!r} ratio, all checks passed: {entry['correct']}", flush=True)
        summary[name] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(summary, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
