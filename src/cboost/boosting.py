"""Coherence-boosted next-token distributions and answer scores.

A boosted distribution is a log-linear (product-of-experts) mixture of the
same model evaluated at several context lengths:

    p(w) proportional to  prod_k  f_k(w | context)^weight_k

where f_k conditions on only the last k context tokens and the sentinel
length "max" denotes the full context.  Weights may be negative, which
penalizes tokens that are already predictable from the short context.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Mapping, Sequence

import numpy as np

from .backend import Backend, Tokens, _as_tuple, as_tokens
from .dist import LogProbs, log_linear_mix, uniform_logprobs
from .errors import ContractError

MAX_CONTEXT = "max"  # sentinel weight key: the full-context expert


@dataclass(frozen=True)
class AfterSeparator:
    """The short expert conditions on the tokens after the last occurrence
    of a separator (e.g. the response generated so far in a dialog)."""

    separator: int


# weight key for the short expert that an AfterSeparator policy defines
SHORT = "short"


@dataclass(frozen=True)
class BoostSpec:
    """Sparse expert weights, plus the policy choosing the "short" context.

    ``weights`` maps context lengths to real exponents; the full-context
    expert is stored under the key "max" like any other entry, and the
    short expert of an after-separator policy (the dialog suffix) under
    "short".  At most ``max_entries`` nonzero entries are allowed:
    evaluating the model is expensive, so mixtures stay sparse.
    """

    weights: Mapping[int | str, float]
    policy: AfterSeparator | None = None
    max_entries: int = 2

    def __post_init__(self):
        object.__setattr__(self, "weights", dict(self.weights))
        nonzero = 0
        for key, w in self.weights.items():
            if not np.isfinite(w):
                raise ContractError("boost weights must be finite")
            if w != 0:
                nonzero += 1
            if isinstance(key, bool) or not isinstance(key, (int, str)):
                raise ContractError(f"bad weight key {key!r}")
            if isinstance(key, int) and key < 1:
                raise ContractError("fixed context lengths must be >= 1")
            if isinstance(key, str) and key not in (MAX_CONTEXT, SHORT):
                raise ContractError(f"unknown sentinel weight key {key!r}")
            if key == SHORT and self.policy is None:
                raise ContractError('"short" entries need an after-separator policy')
        if nonzero > self.max_entries:
            raise ContractError(
                f"boost spec has {nonzero} nonzero entries, at most {self.max_entries} allowed"
            )

    @classmethod
    def fixed_k(cls, k: int, alpha: float) -> "BoostSpec":
        """Mixture f_max * f_k^alpha."""
        return cls(weights={MAX_CONTEXT: 1.0, k: alpha})

    @classmethod
    def after_separator(cls, separator: int, alpha: float) -> "BoostSpec":
        """Dialog-style mixture f_max * f_suffix^alpha."""
        return cls(weights={MAX_CONTEXT: 1.0, SHORT: alpha}, policy=AfterSeparator(separator))

    @classmethod
    def base_model(cls) -> "BoostSpec":
        return cls(weights={MAX_CONTEXT: 1.0})


def _suffix_length(context: Tokens, separator: int) -> int:
    """How many tokens follow the last separator in context."""
    for i in range(len(context) - 1, -1, -1):
        if context[i] == separator:
            return len(context) - 1 - i
    return len(context)  # no separator: the whole context is the "response"


def _plan(context: Tokens, spec: BoostSpec) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """The experts of ``context`` under ``spec``, as (how many of the
    context's last tokens each one reads, their weights), the full context
    first.  This is the one resolution rule.  Without an after-separator
    policy the plan depends on len(context) only."""
    n = len(context)
    if not n:
        raise ContractError("context must be non-empty")
    full_weight = 0.0
    keeps: list[int] = []
    weights: list[float] = []
    for key, w in spec.weights.items():
        if w == 0:
            continue
        if key == MAX_CONTEXT or (key != SHORT and key >= n):
            full_weight += w  # a fixed length >= n coincides with the full context
            continue
        m = _suffix_length(context, spec.policy.separator) if key == SHORT else key
        if m:  # an empty suffix: nothing generated yet, leave this step unboosted
            keeps.append(m)
            weights.append(w)
    if full_weight != 0.0:
        return (n, *keeps), (full_weight, *weights)
    return tuple(keeps), tuple(weights)


def resolve_expert_contexts(
    context: Sequence[int], spec: BoostSpec
) -> list[tuple[Tokens, float]]:
    """Resolve spec entries to (expert context, weight) pairs.

    Zero-weight entries are dropped.  Fixed lengths >= len(context) collapse
    into the full-context expert with weights summed, so the mixture never
    evaluates the same context twice.  Under an after-separator policy an
    empty suffix drops the short expert (the step is unboosted).  A tuple
    context is used as it is (``_as_tuple``).
    """
    context = _as_tuple(context)
    keeps, weights = _plan(context, spec)
    return [(context[-m:], w) for m, w in zip(keeps, weights)]


def boosted_next_dist(backend: Backend, context: Sequence[int], spec: BoostSpec) -> LogProbs:
    """Next-token log-probabilities under the boosted mixture.

    With all weight on a single expert at exponent 1 this is exactly that
    expert's distribution; with every weight zero it is uniform (an empty
    product).
    """
    experts = resolve_expert_contexts(context, spec)
    if not experts:
        return uniform_logprobs(backend.info().vocab_size)
    logprob_vecs = [backend.next_logprobs(ctx) for ctx, _ in experts]
    return log_linear_mix(logprob_vecs, [w for _, w in experts])


def boosted_next_dist_batch(
    backend: Backend, contexts: Sequence[Sequence[int]], spec: BoostSpec
) -> np.ndarray:
    """Row i is boosted_next_dist(backend, contexts[i], spec), bit for bit.

    A tuple context is used as it is (``_as_tuple``), and each context is
    planned once per distinct length, or per distinct context under an
    after-separator policy.  Every expert context of every row goes to
    the backend in one next_logprobs_batch call, in per-item order.  Rows
    whose plans have equal weights (the common case; a fixed k covering a
    context collapses its experts into one) are mixed by one row-wise
    log_linear_mix call.
    """
    contexts = list(map(_as_tuple, contexts))
    plan_keys = contexts if spec.policy is not None else map(len, contexts)
    plan_ids: dict = {}  # plan key -> index into plans
    plans: list[tuple[tuple[int, ...], tuple[float, ...]]] = []
    row_plan = []
    for key, c in zip(plan_keys, contexts):
        j = plan_ids.get(key)
        if j is None:
            j = plan_ids[key] = len(plans)
            plans.append(_plan(c, spec))
        row_plan.append(j)
    keeps = [plan[0] for plan in plans]
    flat = [c[-m:] for c, j in zip(contexts, row_plan) for m in keeps[j]]
    vecs = backend.next_logprobs_batch(flat)
    row_plan = np.asarray(row_plan, dtype=np.intp)
    sizes = np.asarray([len(k) for k in keeps], dtype=np.intp)[row_plan]
    starts = np.cumsum(sizes) - sizes  # row -> index of its first expert
    out = np.empty((len(contexts), backend.info().vocab_size))
    groups: dict[tuple[float, ...], list[int]] = {}
    for j, (_, weights) in enumerate(plans):
        groups.setdefault(weights, []).append(j)
    for weights, members in groups.items():
        rows = np.flatnonzero(np.isin(row_plan, members))
        if not weights:
            out[rows] = uniform_logprobs(out.shape[1])
            continue
        first = starts[rows]
        out[rows] = log_linear_mix([vecs[first + e] for e in range(len(weights))], weights)
    return out


@dataclass(frozen=True)
class MCScore:
    """Scores of one candidate answer: log-likelihood given the full
    context, given the premise-free context, and their combination
    full + alpha * short."""

    full_logprob: float
    short_logprob: float
    combined: float


def score_choice(
    backend: Backend,
    full_ctx: Sequence[int],
    premise_free_ctx: Sequence[int],
    answer: Sequence[int],
    alpha: float,
) -> MCScore:
    """Score one answer candidate by full-context and premise-free-context
    log-likelihoods, combined as full + alpha * short.

    alpha = 0 reproduces base-model ranking; alpha = -1 ranks by the
    pointwise mutual information between the premise and the answer.
    Both contexts must be non-empty, as the backend requires; the task
    harness substitutes an end-of-text token for an empty premise-free
    context before it calls this.
    """
    answer = as_tokens(answer)
    if not answer:
        raise ContractError("answer must be non-empty")
    full = backend.score_continuation(full_ctx, answer)
    short = backend.score_continuation(premise_free_ctx, answer)
    # alpha == 0 must reproduce the base path bit-for-bit (and never touch
    # a possibly infinite short score)
    combined = full if alpha == 0 else full + alpha * short
    return MCScore(full_logprob=full, short_logprob=short, combined=combined)


@dataclass
class GridSearchResult:
    k: int | None
    alpha: float
    score: float
    objective: str
    table: list[tuple[int | None, float, float]]  # (k, alpha, score) per cell


def grid_search(
    backend: Backend,
    dataset: Sequence,
    k_grid: Sequence[int | None],
    alpha_grid: Sequence[float],
    objective: Literal["accuracy", "nll"] = "accuracy",
    evaluate=None,
) -> GridSearchResult:
    """Exhaustive sweep over (k, alpha) cells, best cell by objective.

    ``evaluate(backend, dataset, k, alpha, objective) -> float`` defaults to
    tasks.evaluate_cell, which scores any task's items.
    Accuracy is maximized, NLL minimized.  Ties prefer smaller ``abs(alpha)``
    and then smaller k — the candidate closest to the base model.
    """
    if not len(dataset) or not len(k_grid) or not len(alpha_grid):
        raise ContractError("grid search needs a non-empty dataset and non-empty grids")
    if evaluate is None:
        from .tasks import evaluate_cell

        evaluate = evaluate_cell
    sign = 1.0 if objective == "accuracy" else -1.0
    table = []
    best = None
    for k in k_grid:
        for alpha in alpha_grid:
            score = evaluate(backend, dataset, k, alpha, objective)
            table.append((k, float(alpha), float(score)))
            rank = (sign * score, -abs(alpha), -(k if k is not None else 0))
            if best is None or rank > best[0]:
                best = (rank, k, float(alpha), float(score))
    _, k_star, alpha_star, score_star = best
    return GridSearchResult(
        k=k_star, alpha=alpha_star, score=score_star, objective=objective, table=table
    )
