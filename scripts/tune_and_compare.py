#!/usr/bin/env python3
"""Coherence tuning before/after comparison.

Trains a copy-source model, distills its boosted version back into the
parameters, and reports the KL trace plus how the long/short likelihood
difference of self-generated text and the held-out loss profile move.

Run:
    python scripts/tune_and_compare.py --trace trace.csv
"""

import argparse

from cboost import (
    BoostSpec,
    ToyBackend,
    TrainConfig,
    TuneConfig,
    coherence_tune,
    loss_profile,
    make_copy_source_task,
    train_uniform_scalarization,
)
from cboost.boosting import MAX_CONTEXT
from cboost.decode import GenConfig, generate
from cboost.metrics import Corpus, Document, delta
from cboost.tuning import write_kl_trace


def self_generated_delta(params, short_len, n_docs=8, doc_len=125, seed=123):
    backend = ToyBackend(params)
    docs = []
    for i in range(n_docs):
        out = generate(backend, (0,), GenConfig(max_new_tokens=doc_len, mode="sample", seed=seed + i))
        docs.append(Document(tokens=out.tokens, prompt=(0,)))
    return delta(Corpus(docs), backend, short_len=short_len)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--train-steps", type=int, default=3000)
    ap.add_argument("--short-k", type=int, default=5)
    ap.add_argument("--alpha", type=float, default=-0.5)
    ap.add_argument("--tune-lr", type=float, default=2.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", default=None, help="CSV for the KL trace")
    args = ap.parse_args()

    task = make_copy_source_task(8, 200_000, 10, 0.7, seed=1, eval_len=0)
    heldout = make_copy_source_task(8, 20_000, 10, 0.7, seed=7, eval_len=0).train
    params = train_uniform_scalarization(
        task.train, TrainConfig(max_context=12, steps=args.train_steps, seed=args.seed)
    )

    spec = BoostSpec(weights={MAX_CONTEXT: 1.0 - args.alpha, args.short_k: args.alpha})
    pre_delta = self_generated_delta(params, short_len=args.short_k)
    pre_prof = loss_profile(params, heldout, 12)

    result = coherence_tune(
        params, TuneConfig(spec=spec, learning_rate=args.tune_lr, seed=args.seed)
    )
    post_delta = self_generated_delta(result.params, short_len=args.short_k)
    post_prof = loss_profile(result.params, heldout, 12)

    print(f"KL trace: {result.kl_trace[0]:.5f} -> {result.kl_trace[-1]:.5f} "
          f"over {len(result.kl_trace)} steps")
    print(f"self-generated delta (short_len={args.short_k}): "
          f"{pre_delta:.4f} -> {post_delta:.4f}")
    print(f"{'k':>4} {'loss before':>12} {'loss after':>12}")
    for k in range(1, 13):
        print(f"{k:>4} {pre_prof[k]:>12.4f} {post_prof[k]:>12.4f}")

    if args.trace:
        write_kl_trace(args.trace, result.kl_trace)
        print(f"trace -> {args.trace}")


if __name__ == "__main__":
    main()
