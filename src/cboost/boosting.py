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
from operator import getitem
from typing import Literal, Mapping, Sequence

import numpy as np

from .backend import Backend, Tokens, _as_tuple, _as_tuples, as_tokens
from .dist import LogProbs, log_linear_mix, uniform_logprobs
from .errors import ContractError

MAX_CONTEXT = "max"  # sentinel weight key: the full-context expert


# weight key for the short expert of an after-separator spec
SHORT = "short"
# nonzero entries a spec may hold: evaluating the model is expensive, so
# mixtures stay sparse
MAX_EXPERTS = 2


@dataclass(frozen=True)
class BoostSpec:
    """Sparse expert weights, plus the separator choosing the "short" context.

    ``weights`` maps context lengths to real exponents; the full-context
    expert is stored under the key "max" like any other entry, and the
    short expert under "short": it conditions on the tokens after the last
    ``separator`` (e.g. the response generated so far in a dialog).  At
    most ``MAX_EXPERTS`` nonzero entries are allowed.
    """

    weights: Mapping[int | str, float]
    separator: int | None = None

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
            if key == SHORT and self.separator is None:
                raise ContractError('"short" entries need an after-separator policy')
        if nonzero > MAX_EXPERTS:
            raise ContractError(
                f"boost spec has {nonzero} nonzero entries, at most {MAX_EXPERTS} allowed"
            )

    @classmethod
    def fixed_k(cls, k: int, alpha: float) -> "BoostSpec":
        """Mixture f_max * f_k^alpha."""
        return cls(weights={MAX_CONTEXT: 1.0, k: alpha})

    @classmethod
    def after_separator(cls, separator: int, alpha: float) -> "BoostSpec":
        """Dialog-style mixture f_max * f_suffix^alpha."""
        return cls(weights={MAX_CONTEXT: 1.0, SHORT: alpha}, separator=separator)

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
    first.  This is the one resolution rule.  Without a separator the plan
    depends on len(context) only."""
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
        m = _suffix_length(context, spec.separator) if key == SHORT else key
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
    evaluates the same context twice.  Under an after-separator spec an
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

    A tuple context is used as it is (``_as_tuples``).  Each distinct
    length is planned once, or each distinct context under an
    after-separator spec, and plans with equal weights form a group (the
    common case; a fixed k covering a context collapses its experts into
    one).  Rows join their group through their plan key, and each expert
    cuts its rows' contexts with one slice per plan; an expert that reads
    every row's whole context passes the context tuples as they are.
    Every expert context goes to the backend in one next_logprobs_batch
    call, group by group and expert by expert, so a group's expert e is one
    block of rows, and one row-wise log_linear_mix call mixes each group's
    blocks.  When one group covers every row, its mix is the result, a
    fresh array like every result.
    """
    contexts = _as_tuples(contexts)
    keys = contexts if spec.separator is not None else list(map(len, contexts))
    firsts = dict(zip(keys, contexts))  # plan key -> a context with that key
    plans = {key: _plan(c, spec) for key, c in firsts.items()}
    groups: dict[tuple[float, ...], list] = {}  # weights -> plan keys
    for key, (_, weights) in plans.items():
        groups.setdefault(weights, []).append(key)
    if len(groups) == 1:
        members = [(slice(None), contexts, keys)]
    else:  # (rows, their contexts, their plan keys) of each group
        group_of = {key: g for g, group in enumerate(groups.values()) for key in group}
        ids = np.fromiter(map(group_of.__getitem__, keys), np.intp, len(keys))
        members = [(rows, [contexts[i] for i in rows], [keys[i] for i in rows])
                   for rows in (np.flatnonzero(ids == g) for g in range(len(groups)))]
    flat = []
    for (weights, group), (_, cs, ks) in zip(groups.items(), members):
        for e in range(len(weights)):
            reads = {key: plans[key][0][e] for key in group}  # last tokens expert e reads
            if all(m == len(firsts[key]) for key, m in reads.items()):
                flat += cs  # the whole contexts, as they are
            else:
                cuts = {key: slice(-m, None) for key, m in reads.items()}
                flat += map(getitem, cs, map(cuts.__getitem__, ks))
    vecs = backend.next_logprobs_batch(flat)
    v = backend.info().vocab_size
    mixes, s = [], 0  # s: the group's first row in vecs
    for weights, (_, cs, _) in zip(groups, members):
        n = len(cs)
        experts = [vecs[s + e * n : s + (e + 1) * n] for e in range(len(weights))]
        mixes.append(log_linear_mix(experts, weights) if weights else uniform_logprobs(v))
        s += len(weights) * n
    if len(mixes) == 1 and mixes[0].ndim == 2:  # one group's mix of every row, not a uniform vector
        return mixes[0]
    out = np.empty((len(contexts), v))
    for (rows, _, _), mix in zip(members, mixes):
        out[rows] = mix
    return out


@dataclass(frozen=True)
class MCScore:
    """Scores of one candidate answer: log-likelihood given the full
    context, given the premise-free context, and their combination
    full + alpha * short."""

    full_logprob: float
    short_logprob: float
    combined: float


def score_choices(
    backend: Backend,
    full_ctx: Sequence[int],
    premise_free_ctx: Sequence[int],
    answers: Sequence[Sequence[int]],
    alpha: float,
) -> list[MCScore]:
    """Score answer candidates by full-context and premise-free-context
    log-likelihoods, combined as full + alpha * short.

    alpha = 0 reproduces base-model ranking; alpha = -1 ranks by the
    pointwise mutual information between the premise and the answer.
    Every answer under both contexts takes one backend score_batch call.
    Both contexts must be non-empty, as the backend requires; the task
    harness substitutes an end-of-text token for an empty premise-free
    context before it calls this.
    """
    answers = [as_tokens(a) for a in answers]
    if not all(answers):
        raise ContractError("answer must be non-empty")
    pairs = [(ctx, a) for a in answers for ctx in (full_ctx, premise_free_ctx)]
    scores = backend.score_batch(pairs)
    # alpha == 0 must reproduce the base path bit-for-bit (and never touch
    # a possibly infinite short score)
    return [
        MCScore(full, short, full if alpha == 0 else full + alpha * short)
        for full, short in zip(scores[0::2], scores[1::2])
    ]


def score_choice(
    backend: Backend,
    full_ctx: Sequence[int],
    premise_free_ctx: Sequence[int],
    answer: Sequence[int],
    alpha: float,
) -> MCScore:
    """score_choices of the one answer candidate ``answer``."""
    return score_choices(backend, full_ctx, premise_free_ctx, [answer], alpha)[0]


@dataclass
class GridSearchResult:
    k: int | None
    alpha: float
    score: float
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
    return GridSearchResult(k=k_star, alpha=alpha_star, score=score_star, table=table)
