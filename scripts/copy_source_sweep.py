#!/usr/bin/env python3
"""Desk-scale long-range benchmark: train on the copy-source stream, grid
search the boosting parameters on validation items, apply the best cell to
test items.

The stream copies the token from `--offset` positions back with probability
`--copy-prob`; the model only benefits from context longer than the offset,
so negative weight on a short-context expert should win the sweep.

Run:
    python scripts/copy_source_sweep.py --out sweep.csv
"""

import argparse
import csv

from cboost import ToyBackend, TrainConfig, grid_search, make_copy_source_task, train_uniform_scalarization
from cboost.backend import CachingBackend
from cboost.tasks import eval_items


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--vocab-size", type=int, default=8)
    ap.add_argument("--length", type=int, default=200_000)
    ap.add_argument("--offset", type=int, default=10)
    ap.add_argument("--copy-prob", type=float, default=0.7)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--train-steps", type=int, default=12)
    ap.add_argument("--max-context", type=int, default=12)
    ap.add_argument("--alpha-lo", type=float, default=-1.0)
    ap.add_argument("--alpha-hi", type=float, default=0.2)
    ap.add_argument("--alpha-step", type=float, default=0.05)
    ap.add_argument("--out", default=None, help="CSV for the full grid")
    args = ap.parse_args()

    task = make_copy_source_task(
        args.vocab_size, args.length, args.offset, args.copy_prob, args.seed, eval_len=2000
    )
    print(f"copy-event rate: {task.copy_event_rate:.4f}; items: {len(task.items)}")
    val = task.items[: len(task.items) // 2]
    test = task.items[len(task.items) // 2 :]

    cfg = TrainConfig(max_context=args.max_context, steps=args.train_steps, seed=0)
    params = train_uniform_scalarization(task.train, cfg)
    backend = CachingBackend(ToyBackend(params))

    n_alpha = int(round((args.alpha_hi - args.alpha_lo) / args.alpha_step)) + 1
    alpha_grid = [round(args.alpha_lo + i * args.alpha_step, 10) for i in range(n_alpha)]
    k_grid = list(range(1, args.max_context + 1))
    result = grid_search(backend, val, k_grid, alpha_grid)

    base = eval_items(backend, test, None, 0.0).accuracy
    boosted = eval_items(backend, test, result.k, result.alpha).accuracy
    print(f"best cell: k*={result.k} alpha*={result.alpha:g} (val acc {result.score:.4f})")
    print(f"test accuracy: base {100 * base:.2f}% -> boosted {100 * boosted:.2f}% "
          f"({100 * (boosted - base):+.2f} points)")

    if args.out:
        with open(args.out, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["k", "alpha", "val_accuracy"])
            for k, alpha, score in result.table:
                writer.writerow([k, alpha, f"{score:.6f}"])
        print(f"grid -> {args.out}")


if __name__ == "__main__":
    main()
