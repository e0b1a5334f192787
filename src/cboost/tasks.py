"""Task ingestion and evaluation protocols.

Last-token prediction, multiple choice, candidate-ranked fact completion,
the synthetic copy-source benchmark, and the summarization harness.  Task
files are JSONL with pre-rendered context strings; backends own all
tokenization.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .backend import Backend, Tokens, as_tokens, truncated_context
from .boosting import MAX_CONTEXT, BoostSpec, MCScore, boosted_next_dist_batch, score_choice
from .decode import GenConfig, generate_dialog
from .errors import ContractError
from .metrics import RougeScore, rouge
from .rng import named_rng

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class LastTokenItem:
    item_id: str
    context: Tokens
    target: int


@dataclass(frozen=True)
class MCItem:
    item_id: str
    full_context: str
    premise_free_context: str
    choices: tuple[str, ...]
    gold: int

    def __post_init__(self):
        if len(self.choices) < 2:
            raise ContractError(f"item {self.item_id}: need at least 2 choices")
        if not (0 <= self.gold < len(self.choices)):
            raise ContractError(f"item {self.item_id}: gold index out of range")


@dataclass(frozen=True)
class LamaItem:
    item_id: str
    prompt: str
    candidates: tuple[str, ...]
    gold: int

    def __post_init__(self):
        if len(self.candidates) < 2:
            raise ContractError(f"item {self.item_id}: need at least 2 candidates")
        if not (0 <= self.gold < len(self.candidates)):
            raise ContractError(f"item {self.item_id}: gold index out of range")


@dataclass(frozen=True)
class SummarizeItem:
    item_id: str
    article: str
    reference: str


@dataclass
class EvalResult:
    accuracy: float
    per_item: list[dict]
    params: dict

    @property
    def n_items(self) -> int:
        return len(self.per_item)

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "n_items": self.n_items,
            "params": self.params,
            "per_item": self.per_item,
        }


# ---------------------------------------------------------------------------
# Last-token prediction
# ---------------------------------------------------------------------------

def _last_token_spec(k: int | None, alpha: float) -> BoostSpec:
    """f_max * f_k^alpha: full weight 1, short weight alpha."""
    if k is None or alpha == 0:
        return BoostSpec.base_model()
    return BoostSpec(weights={MAX_CONTEXT: 1.0, int(k): float(alpha)})


def _last_token_dists(
    backend: Backend, items: Sequence[LastTokenItem], k: int | None, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """Boosted next-token log-probabilities of every item, (N, V), and the
    items' targets."""
    spec = _last_token_spec(k, alpha)
    lp = boosted_next_dist_batch(backend, [item.context for item in items], spec)
    return lp, np.array([item.target for item in items], dtype=np.int64)


def eval_last_token(
    backend: Backend, items: Sequence[LastTokenItem], k: int | None, alpha: float
) -> EvalResult:
    """Accuracy of argmax prediction under f_max * f_k^alpha."""
    if not items:
        raise ContractError("no items")
    lp, targets = _last_token_dists(backend, items, k, alpha)
    preds = lp.argmax(axis=1)  # ties to the lowest id
    hits = preds == targets
    per_item = [
        {
            "id": item.item_id,
            "pred": pred,
            "target": item.target,
            "correct": hit,
            "logprob_target": target_lp,
        }
        for item, pred, hit, target_lp in zip(
            items, preds.tolist(), hits.tolist(), lp[np.arange(len(items)), targets].tolist()
        )
    ]
    return EvalResult(
        accuracy=int(np.count_nonzero(hits)) / len(items),
        per_item=per_item,
        params={"k": k, "alpha": alpha, "task": "lasttoken"},
    )


# ---------------------------------------------------------------------------
# Multiple choice
# ---------------------------------------------------------------------------

def _check_premise_free_suffix(backend: Backend, item: MCItem) -> None:
    full = backend.encode(item.full_context)
    short = backend.encode(item.premise_free_context)
    if short and full[-len(short):] != short:
        log.warning(
            "item %s: premise-free context is not a token suffix of the full context",
            item.item_id,
        )


def _rank_choices(scores: list[MCScore]) -> int:
    combined = [s.combined for s in scores]
    best = max(combined)
    return combined.index(best)  # ties: lowest choice index


def eval_multiple_choice(
    backend: Backend, items: Sequence[MCItem], alpha: float
) -> EvalResult:
    """Pick the choice with the highest full + alpha * premise-free
    log-likelihood; ties go to the lowest index."""
    if not items:
        raise ContractError("no items")
    per_item = []
    correct = 0
    for item in items:
        _check_premise_free_suffix(backend, item)
        full_ctx = backend.encode(item.full_context)
        short_ctx = backend.encode(item.premise_free_context)
        scores = [
            score_choice(backend, full_ctx, short_ctx, backend.encode(choice), alpha)
            for choice in item.choices
        ]
        pred = _rank_choices(scores)
        hit = pred == item.gold
        correct += hit
        per_item.append(
            {
                "id": item.item_id,
                "pred": pred,
                "gold": item.gold,
                "correct": bool(hit),
                "scores": [
                    {"full": s.full_logprob, "short": s.short_logprob, "combined": s.combined}
                    for s in scores
                ],
            }
        )
    return EvalResult(
        accuracy=correct / len(items),
        per_item=per_item,
        params={"alpha": alpha, "task": "mc"},
    )


def eval_lama_style(
    backend: Backend, items: Sequence[LamaItem], k: int, alpha: float
) -> EvalResult:
    """Rank each item's candidates with the premise-free context set to the
    last k tokens of the prompt."""
    if not items:
        raise ContractError("no items")
    if k < 1:
        raise ContractError("k must be >= 1")
    per_item = []
    correct = 0
    for item in items:
        prompt = backend.encode(item.prompt)
        if not prompt:
            raise ContractError(f"item {item.item_id}: empty prompt")
        short_ctx = truncated_context(prompt, k)
        scores = [
            score_choice(backend, prompt, short_ctx, backend.encode(cand), alpha)
            for cand in item.candidates
        ]
        pred = _rank_choices(scores)
        hit = pred == item.gold
        correct += hit
        per_item.append(
            {
                "id": item.item_id,
                "pred": pred,
                "gold": item.gold,
                "correct": bool(hit),
                "scores": [
                    {"full": s.full_logprob, "short": s.short_logprob, "combined": s.combined}
                    for s in scores
                ],
            }
        )
    return EvalResult(
        accuracy=correct / len(items),
        per_item=per_item,
        params={"k": k, "alpha": alpha, "task": "lama"},
    )


def build_mc_item(
    item_id: str,
    premise: str,
    premise_free_context: str,
    choices: Sequence[str],
    gold: int,
    joiner: str = " ",
) -> MCItem:
    """Convenience constructor: the full context is the premise followed by
    the premise-free context, so the suffix property holds by construction.
    Task files normally carry both strings pre-rendered; this helps when
    building items from (premise, question-pattern) pairs."""
    premise = premise.strip()
    full = f"{premise}{joiner}{premise_free_context}" if premise else premise_free_context
    return MCItem(item_id, full, premise_free_context, tuple(choices), gold)


# ---------------------------------------------------------------------------
# Grid-search plumbing
# ---------------------------------------------------------------------------

def _listwise_nll(scores: list[MCScore], gold: int) -> float:
    combined = np.asarray([s.combined for s in scores])
    m = combined.max()
    return float(np.log(np.sum(np.exp(combined - m))) + m - combined[gold])


def evaluate_cell(
    backend: Backend,
    dataset: Sequence,
    k: int | None,
    alpha: float,
    objective: Literal["accuracy", "nll"] = "accuracy",
) -> float:
    """Score one (k, alpha) grid cell on a dataset, dispatching on item
    type.  Accuracy counts argmax hits; NLL is the mean negative
    log-probability of the gold target (boosted vocabulary distribution
    for last-token items, choice-normalized scores otherwise)."""
    first = dataset[0]
    if isinstance(first, LastTokenItem):
        if objective == "accuracy":
            return eval_last_token(backend, dataset, k, alpha).accuracy
        lp, targets = _last_token_dists(backend, dataset, k, alpha)
        return float(np.mean(-lp[np.arange(len(dataset)), targets]))
    if isinstance(first, MCItem):
        if objective == "accuracy":
            return eval_multiple_choice(backend, dataset, alpha).accuracy
        nll = []
        for item in dataset:
            full_ctx = backend.encode(item.full_context)
            short_ctx = backend.encode(item.premise_free_context)
            scores = [
                score_choice(backend, full_ctx, short_ctx, backend.encode(c), alpha)
                for c in item.choices
            ]
            nll.append(_listwise_nll(scores, item.gold))
        return float(np.mean(nll))
    if isinstance(first, LamaItem):
        if k is None:
            raise ContractError("candidate-ranking sweeps need a k grid")
        if objective == "accuracy":
            return eval_lama_style(backend, dataset, k, alpha).accuracy
        nll = []
        for item in dataset:
            prompt = backend.encode(item.prompt)
            short_ctx = truncated_context(prompt, k)
            scores = [
                score_choice(backend, prompt, short_ctx, backend.encode(c), alpha)
                for c in item.candidates
            ]
            nll.append(_listwise_nll(scores, item.gold))
        return float(np.mean(nll))
    raise ContractError(f"cannot evaluate items of type {type(first).__name__}")


# ---------------------------------------------------------------------------
# Synthetic copy-source benchmark
# ---------------------------------------------------------------------------

@dataclass
class CopySourceTask:
    train: Tokens
    items: list[LastTokenItem]
    copy_event_rate: float


def make_copy_source_task(
    vocab_size: int,
    length: int,
    copy_offset: int,
    copy_prob: float,
    seed: int,
    eval_len: int = 2000,
    context_len: int | None = None,
) -> CopySourceTask:
    """Generate a stream where token_t = token_{t-copy_offset} with
    probability copy_prob, else uniform.

    The first ``length`` tokens are the training corpus; items come from
    the continuation of the same process, at positions where the copy
    event actually fired (recorded at generation time), each with
    ``context_len`` (default copy_offset + 2) tokens of context.  With
    copy_prob = 0 there are no copy events and every eligible position
    becomes an item (the task is pure noise).
    """
    if not (0 <= copy_prob <= 1):
        raise ContractError("copy_prob must be in [0, 1]")
    if copy_offset < 1 or vocab_size < 2:
        raise ContractError("copy_offset must be >= 1 and vocab_size >= 2")
    if context_len is None:
        context_len = copy_offset + 2
    if context_len < copy_offset + 2:
        raise ContractError("context_len must be at least copy_offset + 2")
    total = length + eval_len
    rng = named_rng(seed, "copy-source-task")
    is_copy = rng.random(total) < copy_prob
    is_copy[:copy_offset] = False
    fresh = rng.integers(0, vocab_size, size=total)
    tokens = np.empty(total, dtype=np.int64)
    # each residue class mod copy_offset is an independent copy chain:
    # a copied token repeats the value drawn at the last non-copy position
    idx = np.arange(total)
    source = np.where(is_copy, -1, idx)
    for c in range(copy_offset):
        chain = source[c::copy_offset]
        tokens[c::copy_offset] = fresh[np.maximum.accumulate(chain)]
    train = tuple(int(t) for t in tokens[:length])
    considered = max(length - copy_offset, 1)
    rate = float(np.sum(is_copy[copy_offset:length])) / considered
    items = []
    for t in range(max(length, context_len), total):
        if is_copy[t] or copy_prob == 0:
            ctx = tuple(int(x) for x in tokens[t - context_len : t])
            items.append(
                LastTokenItem(item_id=f"copy-{t:07d}", context=ctx, target=int(tokens[t]))
            )
    return CopySourceTask(train=train, items=items, copy_event_rate=rate)


# ---------------------------------------------------------------------------
# Summarization harness
# ---------------------------------------------------------------------------

_SENTENCE_BOUNDARY = re.compile(r"(?<=[.!?])\s+")


def split_sentences(text: str) -> list[str]:
    """Deterministic sentence split on ./!/? followed by whitespace."""
    parts = [p.strip() for p in _SENTENCE_BOUNDARY.split(text)]
    return [p for p in parts if p]


@dataclass
class SummaryRow:
    item_id: str
    summary: str
    rouge1: RougeScore
    rouge2: RougeScore
    rougeL: RougeScore


@dataclass
class SummarizeReport:
    rows: list[SummaryRow]
    alpha: float
    sentence_count: int

    def mean_f1(self) -> dict[str, float]:
        return {
            "rouge1": float(np.mean([r.rouge1.f1 for r in self.rows])),
            "rouge2": float(np.mean([r.rouge2.f1 for r in self.rows])),
            "rougeL": float(np.mean([r.rougeL.f1 for r in self.rows])),
        }

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "sentence_count": self.sentence_count,
            "mean": self.mean_f1(),
            "rows": [
                {
                    "id": r.item_id,
                    "summary": r.summary,
                    "rouge1_f1": r.rouge1.f1,
                    "rouge2_f1": r.rouge2.f1,
                    "rougeL_f1": r.rougeL.f1,
                }
                for r in self.rows
            ],
        }


def render_summary_table(report: SummarizeReport, label: str = "model") -> str:
    mean = report.mean_f1()
    headers = ["system", "ROUGE-1", "ROUGE-2", "ROUGE-L"]
    row = [
        f"{label} (alpha={report.alpha:g})",
        f"{100 * mean['rouge1']:.3f}",
        f"{100 * mean['rouge2']:.3f}",
        f"{100 * mean['rougeL']:.3f}",
    ]
    widths = [max(len(h), len(v)) for h, v in zip(headers, row)]
    fmt = "  ".join(f"{{:>{w}}}" for w in widths)
    return fmt.format(*headers) + "\n" + fmt.format(*row)


def summarize_eval(
    backend: Backend,
    articles: Sequence[SummarizeItem],
    alpha: float,
    cfg: GenConfig | None = None,
    sentence_count: int = 3,
    separator_text: str = "TL;DR:",
) -> SummarizeReport:
    """Generate a summary per article by continuing after a separator,
    with the short expert conditioned on the summary generated so far;
    keep the first ``sentence_count`` sentences and score ROUGE-1/2/L
    against the reference."""
    if not articles:
        raise ContractError("no articles")
    if cfg is None:
        cfg = GenConfig(max_new_tokens=100)
    sep_tokens = backend.encode(separator_text)
    if not sep_tokens:
        raise ContractError("separator text tokenizes to nothing")
    rows = []
    for item in articles:
        conversation = backend.encode(item.article) + sep_tokens[:-1]
        if not conversation:
            raise ContractError(f"item {item.item_id}: empty article")
        result = generate_dialog(backend, conversation, sep_tokens[-1], alpha, cfg)
        kept = [t for t in result.tokens if t not in cfg.stop_tokens]
        text = backend.decode(kept)
        summary = " ".join(split_sentences(text)[:sentence_count])
        cand_words = summary.split()
        ref_words = item.reference.split()
        rows.append(
            SummaryRow(
                item_id=item.item_id,
                summary=summary,
                rouge1=rouge(cand_words, ref_words, 1),
                rouge2=rouge(cand_words, ref_words, 2),
                rougeL=rouge(cand_words, ref_words, "L"),
            )
        )
    return SummarizeReport(rows=rows, alpha=alpha, sentence_count=sentence_count)


# ---------------------------------------------------------------------------
# JSONL ingestion
# ---------------------------------------------------------------------------

def _read_jsonl(path: str) -> list[dict]:
    records = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ContractError(f"{path}:{lineno}: malformed JSON: {exc}") from exc
    if not records:
        raise ContractError(f"{path}: no records")
    return records


def read_last_token_items(path: str, backend: Backend) -> list[LastTokenItem]:
    """Schema: {"id", "context": str, "target": str}; the target must
    tokenize to exactly one token."""
    items = []
    for rec in _read_jsonl(path):
        context = backend.encode(rec["context"])
        if not context:
            raise ContractError(f"item {rec['id']}: empty context")
        target = backend.encode(rec["target"])
        if len(target) != 1:
            raise ContractError(
                f"item {rec['id']}: target must be a single token, got {len(target)}"
            )
        items.append(LastTokenItem(str(rec["id"]), context, target[0]))
    return items


def read_mc_items(path: str) -> list[MCItem]:
    """Schema: {"id", "full_context", "premise_free_context", "choices", "gold"}."""
    return [
        MCItem(
            str(rec["id"]),
            rec["full_context"],
            rec["premise_free_context"],
            tuple(rec["choices"]),
            int(rec["gold"]),
        )
        for rec in _read_jsonl(path)
    ]


def read_lama_items(path: str) -> list[LamaItem]:
    """Schema: {"id", "prompt", "candidates", "gold"}."""
    return [
        LamaItem(str(rec["id"]), rec["prompt"], tuple(rec["candidates"]), int(rec["gold"]))
        for rec in _read_jsonl(path)
    ]


def read_summarize_items(path: str) -> list[SummarizeItem]:
    """Schema: {"id", "article", "reference"}."""
    return [
        SummarizeItem(str(rec["id"]), rec["article"], rec["reference"])
        for rec in _read_jsonl(path)
    ]
