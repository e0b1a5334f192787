"""Coherence tuning: distill the boosted model back into the base model.

Each step samples sequences from the current model, computes boosted
next-token distributions at interior positions (treated as constants),
and takes one gradient step on the mean KL from those targets to the
base model's own predictions.  The boosted ensemble's behaviour is thus
baked into the parameters, removing the extra expert evaluations at
inference time.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .backend import Tokens, as_tokens
from .boosting import BoostSpec, boosted_next_dist_batch
from .errors import ContractError, NumericalGuardError
from .rng import named_rng
from .toy_lm import ToyBackend, ToyLMParams

log = logging.getLogger(__name__)


@dataclass
class TuneConfig:
    spec: BoostSpec
    steps: int = 32
    batch: int = 32
    seq_len: int = 32
    learning_rate: float = 2.0
    tail_positions: int | None = None  # None = use every interior position
    seed: int = 0

    def __post_init__(self):
        if min(self.steps, self.batch, self.seq_len) < 1:
            raise ContractError("steps, batch and seq_len must be positive")
        if self.seq_len < 2:
            raise ContractError("seq_len must be >= 2 to give interior positions")
        if self.learning_rate <= 0:
            raise ContractError("learning_rate must be positive")
        if not any(
            isinstance(key, (int, str)) and key != "max" and w < 0
            for key, w in self.spec.weights.items()
        ):
            log.warning("tuning spec has no negative short-context weight")


@dataclass
class TuneResult:
    params: ToyLMParams
    kl_trace: list[float]


def sample_sequences(
    params: ToyLMParams, batch: int, seq_len: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample (batch, seq_len) token arrays from the model, untruncated at
    temperature 1.  The first token of each sequence is uniform (the model
    needs at least one conditioning token)."""
    v = params.vocab_size
    seqs = np.empty((batch, seq_len), dtype=np.int64)
    seqs[:, 0] = rng.integers(0, v, size=batch)
    for t in range(1, seq_len):
        z = params.logits(seqs[:, t - 1 :: -1].T)
        z -= z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        u = rng.random(batch)
        seqs[:, t] = (np.cumsum(p, axis=1) < u[:, None]).sum(axis=1)
    return seqs


def _interior_positions(seq_len: int, tail: int | None) -> list[int]:
    ks = list(range(1, seq_len))  # context lengths
    if tail is not None:
        ks = ks[-tail:]
    return ks


def kl_and_gradient(
    params: ToyLMParams,
    contexts: Sequence[Tokens],
    target_logprobs: Sequence[np.ndarray],
) -> tuple[float, ToyLMParams]:
    """Mean KL(target || model) over contexts and its gradient.

    The targets are fixed log-probability vectors: the gradient flows only
    through the model side (d/dlogits = softmax(logits) - target).  When a
    target equals the model's own prediction bit-for-bit, the KL and the
    gradient are exactly zero.
    """
    if len(contexts) != len(target_logprobs):
        raise ContractError("one target distribution per context")
    if not contexts:
        raise ContractError("no positions")
    contexts = [as_tokens(c) for c in contexts]
    n = len(contexts)
    logp = ToyBackend(params).next_logprobs_batch(contexts)
    logt = np.asarray(target_logprobs, dtype=np.float64)
    target = np.exp(logt)
    total_kl = 0.0
    for t, lt, lp in zip(target, logt, logp):
        mask = t > 0
        total_kl += float(np.sum(t[mask] * (lt[mask] - lp[mask])))
    lengths = np.array([len(c) for c in contexts])
    recent = np.zeros((min(int(lengths.max()), params.lag_depth), n), dtype=np.int64)
    for i, ctx in enumerate(contexts):
        nearest = ctx[: -len(recent) - 1 : -1]
        recent[: len(nearest), i] = nearest
    grad = ToyLMParams.zeros(params.vocab_size, params.lag_depth)
    grad.add_logit_gradient(recent, (np.exp(logp) - target) / n, lengths)
    return total_kl / n, grad


def _step_positions(seqs: np.ndarray, tail: int | None) -> list[Tokens]:
    contexts = []
    ks = _interior_positions(seqs.shape[1], tail)
    for row in seqs:
        for k in ks:
            contexts.append(tuple(int(x) for x in row[:k]))
    return contexts


def coherence_tune(params: ToyLMParams, cfg: TuneConfig) -> TuneResult:
    """Run the self-distillation loop and return the tuned parameters with
    the per-step mean-KL trace.

    Targets are recomputed from the *current* parameters each step and
    treated as constants within the step.  Aborts with
    NumericalGuardError if the mean KL grows past 10x its initial value.
    """
    params = params.copy()
    rng = named_rng(cfg.seed, "coherence-tune-sampling")
    trace: list[float] = []
    for step in range(cfg.steps):
        seqs = sample_sequences(params, cfg.batch, cfg.seq_len, rng)
        contexts = _step_positions(seqs, cfg.tail_positions)
        targets = boosted_next_dist_batch(ToyBackend(params), contexts, cfg.spec)
        kl, grad = kl_and_gradient(params, contexts, targets)
        trace.append(kl)
        if kl > 10.0 * trace[0]:
            raise NumericalGuardError(
                f"mean KL diverged at step {step}: {kl:.6f} vs initial {trace[0]:.6f}"
            )
        params.bias -= cfg.learning_rate * grad.bias
        params.lag_tables -= cfg.learning_rate * grad.lag_tables
    return TuneResult(params=params, kl_trace=trace)


def kl_to_boosted(
    params: ToyLMParams, spec: BoostSpec, sequences: Sequence[Sequence[int]]
) -> float:
    """Mean KL(boosted || base) over the interior positions of the given
    sequences."""
    contexts: list[Tokens] = []
    for seq in sequences:
        seq = as_tokens(seq)
        if len(seq) < 2:
            raise ContractError("sequences must have length >= 2")
        contexts.extend(seq[:k] for k in range(1, len(seq)))
    targets = boosted_next_dist_batch(ToyBackend(params), contexts, spec)
    return kl_and_gradient(params, contexts, targets)[0]


def write_kl_trace(path: str, trace: Sequence[float]) -> None:
    """CSV trace: step, mean_kl."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["step", "mean_kl"])
        for i, kl in enumerate(trace):
            writer.writerow([i, f"{kl:.12g}"])
