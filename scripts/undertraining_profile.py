#!/usr/bin/env python3
"""How the boosting gain depends on the training budget.

Sweeps SGD step counts on the copy-source task and reports, per budget:
the base test accuracy, the best boosted accuracy over a small (k, alpha)
grid, and the held-out loss profile gap between short and long contexts.
Undertrained models lean hardest on boosting; near convergence the base
model closes the gap on its own.

Run:
    python scripts/undertraining_profile.py --steps 4,8,16,64,256,1024 --out profile.csv
"""

import argparse
import csv

from cboost import ToyBackend, TrainConfig, loss_profile, make_copy_source_task, train_uniform_scalarization
from cboost.backend import CachingBackend
from cboost.tasks import eval_items


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--steps", default="4,8,16,64,256,1024")
    ap.add_argument("--offset", type=int, default=10)
    ap.add_argument("--max-context", type=int, default=12)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    task = make_copy_source_task(8, 200_000, args.offset, 0.7, args.seed, eval_len=1500)
    heldout = make_copy_source_task(8, 20_000, args.offset, 0.7, args.seed + 6, eval_len=0).train
    items = task.items

    alpha_grid = [-1.0, -0.75, -0.5, -0.25]
    k_grid = [2, 5, 9]
    rows = []
    for steps in (int(s) for s in args.steps.split(",")):
        params = train_uniform_scalarization(
            task.train, TrainConfig(max_context=args.max_context, steps=steps, seed=0)
        )
        backend = CachingBackend(ToyBackend(params))
        base = eval_items(backend, items, None, 0.0).accuracy
        boosted = max(
            eval_items(backend, items, k, a).accuracy
            for k in k_grid
            for a in alpha_grid
        )
        prof = loss_profile(params, heldout, args.max_context)
        gap = min(prof[k] for k in range(1, args.offset)) - prof[args.max_context]
        rows.append((steps, base, boosted, boosted - base, gap))
        print(
            f"steps={steps:6d} base={100 * base:6.2f}% boosted={100 * boosted:6.2f}% "
            f"gain={100 * (boosted - base):+6.2f} loss-gap(short-long)={gap:.4f} nats"
        )

    if args.out:
        with open(args.out, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["steps", "base_acc", "boosted_acc", "gain", "loss_gap_nats"])
            for row in rows:
                writer.writerow([row[0]] + [f"{x:.6f}" for x in row[1:]])
        print(f"profile -> {args.out}")


if __name__ == "__main__":
    main()
