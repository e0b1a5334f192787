"""Autoregressive generation: greedy, sampling and beam search, with
optional coherence boosting and short-context policies.

Every mode shares one per-step pipeline: boosted (or base) log-probs,
then temperature, then top-k/top-p truncation, in that order — truncation
applies to the boosted distribution, not to the raw model.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Literal, Sequence

import numpy as np

from .backend import Backend, Tokens, as_tokens
from .boosting import BoostSpec, boosted_next_dist, boosted_next_dist_batch
from .dist import Probs, apply_temperature, sample, truncate_top_k, truncate_top_p
from .errors import ContractError
from .rng import named_rng


@dataclass(frozen=True)
class GenConfig:
    max_new_tokens: int = 200
    mode: Literal["greedy", "sample", "beam"] = "greedy"
    temperature: float = 1.0
    top_p: float | None = None
    top_k: int | None = None
    beam_width: int | None = None
    stop_tokens: frozenset[int] = field(default_factory=frozenset)
    seed: int = 0
    boost: BoostSpec | None = None

    def __post_init__(self):
        if self.max_new_tokens < 0:
            raise ContractError("max_new_tokens must be >= 0")
        if not (np.isfinite(self.temperature) and self.temperature > 0):
            raise ContractError(f"temperature must be positive and finite, got {self.temperature}")
        if self.top_p is not None and not 0 < self.top_p <= 1:
            raise ContractError(f"top_p must be in (0, 1], got {self.top_p}")
        if self.top_k is not None and self.top_k < 1:
            raise ContractError(f"top_k must be >= 1, got {self.top_k}")
        if self.mode == "beam":
            if not self.beam_width or self.beam_width < 1:
                raise ContractError("beam mode requires beam_width >= 1")
        elif self.beam_width is not None:
            raise ContractError("beam_width is only valid in beam mode")
        object.__setattr__(self, "stop_tokens", frozenset(self.stop_tokens))


@dataclass
class GenResult:
    tokens: Tokens                 # newly generated tokens (prompt excluded)
    # Always None: a backend failure raises BackendError instead.  Kept
    # because the benchmark (bench/workloads.py) checks it on every output.
    error: str | None = None


def _step_probs(lp: np.ndarray, cfg: GenConfig) -> Probs:
    """One log-prob row through temperature, exp and top-k/top-p truncation."""
    probs = np.exp(apply_temperature(lp, cfg.temperature))
    if cfg.top_k is not None:
        probs = truncate_top_k(probs, cfg.top_k)
    if cfg.top_p is not None:
        probs = truncate_top_p(probs, cfg.top_p)
    return probs


def step_dist(backend: Backend, context: Sequence[int], cfg: GenConfig) -> Probs:
    """The per-step next-token distribution: boost, temperature, truncation."""
    if cfg.boost is not None:
        lp = boosted_next_dist(backend, context, cfg.boost)
    else:
        lp = backend.next_logprobs(context)
    return _step_probs(lp, cfg)


def step_dist_batch(backend: Backend, contexts: Sequence[Sequence[int]], cfg: GenConfig) -> np.ndarray:
    """Row i is step_dist(backend, contexts[i], cfg), bit for bit, from one
    batch call to the backend; shape (N, V)."""
    if cfg.boost is not None:
        lp = boosted_next_dist_batch(backend, contexts, cfg.boost)
    else:
        lp = backend.next_logprobs_batch(contexts)
    return np.array([_step_probs(row, cfg) for row in lp]).reshape(lp.shape)


def _window(context: Tokens, backend: Backend) -> Tokens:
    """Slide the context window so it fits the backend's budget."""
    limit = backend.info().max_context
    return context if len(context) <= limit else context[-limit:]


def generate(backend: Backend, prompt: Sequence[int], cfg: GenConfig) -> GenResult:
    """Append tokens until a stop token or max_new_tokens.

    Deterministic given cfg.seed.  A backend failure raises BackendError
    from the failing call, in every mode; no partial output is returned.
    """
    prompt = as_tokens(prompt)
    if not prompt:
        raise ContractError("prompt must be non-empty")
    if cfg.mode == "beam":
        return beam_search(backend, prompt, cfg)
    rng = named_rng(cfg.seed, "decode-sample")
    ctx = prompt
    out: list[int] = []
    for _ in range(cfg.max_new_tokens):
        probs = step_dist(backend, _window(ctx, backend), cfg)
        # ties resolve to the lowest token id
        tok = int(np.argmax(probs)) if cfg.mode == "greedy" else sample(probs, rng)
        out.append(tok)
        ctx = ctx + (tok,)
        if tok in cfg.stop_tokens:
            break
    return GenResult(tuple(out))


def generate_dialog(
    backend: Backend,
    conversation: Sequence[int],
    separator: int,
    alpha: float,
    cfg: GenConfig | None = None,
) -> GenResult:
    """Generate a response to ``conversation``.

    The long expert sees conversation + separator + response-so-far; the
    short expert sees only the response generated after the separator, so
    the mixture f_max * f_response^alpha penalizes (for alpha < 0) tokens
    that need no conversation context.  The first step has an empty
    response and is therefore unboosted.
    """
    if cfg is None:
        cfg = GenConfig(max_new_tokens=64)
    if cfg.mode == "beam":
        raise ContractError("dialog boosting uses greedy or sampled decoding")
    spec = BoostSpec.after_separator(separator, alpha)
    cfg = replace(cfg, boost=spec)
    prompt = as_tokens(conversation) + (separator,)
    return generate(backend, prompt, cfg)


def sequence_logprob(backend: Backend, prompt: Tokens, tokens: Tokens, cfg: GenConfig) -> float:
    """Total log-probability of ``tokens`` under the per-step pipeline,
    added in order; every step comes from one step_dist_batch call."""
    tokens = as_tokens(tokens)
    contexts = [_window(prompt + tokens[:i], backend) for i in range(len(tokens))]
    probs = step_dist_batch(backend, contexts, cfg)[np.arange(len(tokens)), list(tokens)]
    with np.errstate(divide="ignore"):
        return float(np.cumsum(np.log(probs))[-1]) if tokens else 0.0


def beam_search(backend: Backend, prompt: Sequence[int], cfg: GenConfig) -> GenResult:
    """Length-wise beam of width ``cfg.beam_width`` over summed per-step
    log-probs.

    Every step scores all live beams with one step_dist_batch call.  Ties
    break toward lexicographically smaller token sequences.  Within one
    beam the candidates share a prefix, so ranking them by (-total, token
    id) and keeping each beam's first ``beam_width`` is exact: any other
    candidate has ``beam_width`` candidates of its own beam ahead of it.
    The greedy continuation is kept as a floor candidate, so the result
    never scores below the greedy sequence.  A backend failure raises
    BackendError, inside the floor too.
    """
    prompt = as_tokens(prompt)
    if not prompt:
        raise ContractError("prompt must be non-empty")
    if cfg.mode != "beam":
        raise ContractError("beam_search needs a beam-mode config")
    beam_width = cfg.beam_width
    step_cfg = replace(cfg, mode="greedy", beam_width=None)

    # (total logprob, generated tokens, finished?)
    beams: list[tuple[float, Tokens, bool]] = [(0.0, (), False)]
    for _ in range(cfg.max_new_tokens):
        candidates = [b for b in beams if b[2]]
        live = [b for b in beams if not b[2]]
        probs = step_dist_batch(backend, [_window(prompt + t, backend) for _, t, _ in live], step_cfg)
        with np.errstate(divide="ignore"):
            totals = np.array([[total] for total, _, _ in live]) + np.log(probs)
        # each row's w-th largest total; the tokens at or above it (every
        # tie included) are ordered by a stable sort, so ties keep id order
        w = min(beam_width, totals.shape[1])
        cutoff = -np.partition(-totals, w - 1, axis=1)[:, w - 1 : w]
        for (_, toks, _), row, above in zip(live, totals, totals >= cutoff):
            kept = np.flatnonzero(above)
            for tok in kept[np.argsort(-row[kept], kind="stable")][:beam_width].tolist():
                if row[tok] > -np.inf:
                    candidates.append((float(row[tok]), toks + (tok,), tok in cfg.stop_tokens))
        candidates.sort(key=lambda c: (-c[0], c[1]))
        beams = candidates[:beam_width]
        if all(f for _, _, f in beams):
            break

    best_total, best_toks, _ = beams[0]
    greedy = generate(backend, prompt, step_cfg).tokens
    if sequence_logprob(backend, prompt, greedy, step_cfg) > best_total:
        best_toks = greedy
    return GenResult(best_toks)


def generation_record(
    record_id: str,
    prompt_tokens: Sequence[int],
    result: GenResult,
    text: str,
    config_hash: str,
) -> dict:
    """One JSONL generation record."""
    return {
        "id": record_id,
        "prompt_tokens": list(prompt_tokens),
        "output_tokens": list(result.tokens),
        "text": text,
        "config_hash": config_hash,
    }
