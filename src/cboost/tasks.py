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

from .backend import Backend, Tokens
from .boosting import BoostSpec, MCScore, boosted_next_dist_batch, score_choices
from .decode import GenConfig, generate_dialog
from .dist import logsumexp
from .errors import BackendError, ContractError
from .metrics import RougeScore, render_one_row_table, rouge
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


# ---------------------------------------------------------------------------
# Scoring one (k, alpha) cell
# ---------------------------------------------------------------------------

@dataclass
class EvalResult:
    accuracy: float
    per_item: list[dict]


def _last_token_spec(k: int | None, alpha: float) -> BoostSpec:
    """f_max * f_k^alpha: full weight 1, short weight alpha."""
    if alpha == 0:
        return BoostSpec.base_model()
    if k is None:
        raise ContractError("last-token boosting with alpha != 0 needs k")
    return BoostSpec.fixed_k(int(k), float(alpha))


def _choice_scores(
    backend: Backend, items: Sequence[MCItem | LamaItem], k: int | None, alpha: float
) -> list[list[MCScore]]:
    """score_choices of every item's answers, one backend score_batch call
    per item, so a call holds one item's rows.  An MC item pairs its
    full context with its premise-free context and ignores k; a LAMA item
    pairs its prompt with the prompt's last k tokens.  An empty
    premise-free context becomes one end-of-text token here, the only
    place that substitutes it.  An MC item's warnings are logged once per
    call, naming the item."""
    out = []
    for item in items:
        if isinstance(item, MCItem):
            full = backend.encode(item.full_context)
            short = backend.encode(item.premise_free_context)
            if not short:
                log.warning(
                    "item %s: empty premise-free context: substituting a single end-of-text token",
                    item.item_id,
                )
                short = (backend.eot_token_id,)
            elif full[-len(short):] != short:
                log.warning(
                    "item %s: premise-free context is not a token suffix of the full context",
                    item.item_id,
                )
            answers = item.choices
        else:
            if k is None or k < 1:
                raise ContractError("LAMA items need k >= 1")
            full = backend.encode(item.prompt)
            if not full:
                raise ContractError(f"item {item.item_id}: empty prompt")
            short = full[-k:]
            answers = item.candidates
        out.append(score_choices(backend, full, short, [backend.encode(a) for a in answers], alpha))
    return out


def _score_cell(
    backend: Backend, items: Sequence, k: int | None, alpha: float
) -> tuple[np.ndarray | list[list[MCScore]], np.ndarray, np.ndarray, np.ndarray]:
    """Scores of every item at one (k, alpha) cell, with each item's argmax
    prediction (ties to the lowest index), gold index and gold negative
    log-probability.  Last-token items score as the (N, V) boosted
    next-token log-probabilities; MC and LAMA items as the MCScore of every
    answer, their NLL normalized over the answers."""
    if not items:
        raise ContractError("no items")
    first = items[0]
    if isinstance(first, LastTokenItem):
        spec = _last_token_spec(k, alpha)
        lp = boosted_next_dist_batch(backend, [item.context for item in items], spec)
        gold = np.array([item.target for item in items], dtype=np.int64)
        return lp, lp.argmax(axis=1), gold, -lp[np.arange(len(items)), gold]
    if isinstance(first, (MCItem, LamaItem)):
        scores = _choice_scores(backend, items, k, alpha)
        preds, nll = [], []
        for item, answers in zip(items, scores):
            combined = [s.combined for s in answers]
            preds.append(combined.index(max(combined)))
            nll.append(logsumexp(np.asarray(combined)) - combined[item.gold])
        gold = np.array([item.gold for item in items], dtype=np.int64)
        return scores, np.array(preds, dtype=np.int64), gold, np.array(nll)
    raise ContractError(f"cannot evaluate items of type {type(first).__name__}")


def eval_items(
    backend: Backend, items: Sequence, k: int | None, alpha: float
) -> EvalResult:
    """Accuracy and per-item report records of one (k, alpha) cell."""
    scores, preds, gold, nll = _score_cell(backend, items, k, alpha)
    hits = preds == gold
    if isinstance(scores, np.ndarray):
        per_item = [
            {
                "id": item.item_id,
                "pred": pred,
                "target": item.target,
                "correct": hit,
                "logprob_target": lp,
            }
            for item, pred, hit, lp in zip(items, preds.tolist(), hits.tolist(), (-nll).tolist())
        ]
    else:
        per_item = [
            {
                "id": item.item_id,
                "pred": pred,
                "gold": item.gold,
                "correct": hit,
                "scores": [
                    {"full": s.full_logprob, "short": s.short_logprob, "combined": s.combined}
                    for s in answers
                ],
            }
            for item, pred, hit, answers in zip(items, preds.tolist(), hits.tolist(), scores)
        ]
    return EvalResult(accuracy=int(np.count_nonzero(hits)) / len(items), per_item=per_item)


def eval_last_token(
    backend: Backend, items: Sequence[LastTokenItem], k: int | None, alpha: float
) -> EvalResult:
    """Accuracy of argmax prediction under f_max * f_k^alpha; alpha != 0
    needs k."""
    return eval_items(backend, items, k, alpha)


def eval_multiple_choice(
    backend: Backend, items: Sequence[MCItem], alpha: float
) -> EvalResult:
    """Pick the choice with the highest full + alpha * premise-free
    log-likelihood; ties go to the lowest index."""
    return eval_items(backend, items, None, alpha)


def eval_lama_style(
    backend: Backend, items: Sequence[LamaItem], k: int, alpha: float
) -> EvalResult:
    """Rank each item's candidates with the premise-free context set to the
    last k tokens of the prompt."""
    return eval_items(backend, items, k, alpha)


def evaluate_cell(
    backend: Backend,
    dataset: Sequence,
    k: int | None,
    alpha: float,
    objective: Literal["accuracy", "nll"] = "accuracy",
) -> float:
    """Score one (k, alpha) grid cell on a dataset.  Accuracy counts argmax
    hits; NLL is the mean negative log-probability of the gold target
    (boosted vocabulary distribution for last-token items,
    choice-normalized scores otherwise)."""
    _, preds, gold, nll = _score_cell(backend, dataset, k, alpha)
    if objective == "accuracy":
        return int(np.count_nonzero(preds == gold)) / len(gold)
    return float(np.mean(nll))


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
) -> CopySourceTask:
    """Generate a stream where token_t = token_{t-copy_offset} with
    probability copy_prob, else uniform.

    The first ``length`` tokens are the training corpus; items come from
    the continuation of the same process, at positions where the copy
    event actually fired (recorded at generation time), each with
    copy_offset + 2 tokens of context.  With
    copy_prob = 0 there are no copy events and every eligible position
    becomes an item (the task is pure noise).
    """
    if not (0 <= copy_prob <= 1):
        raise ContractError("copy_prob must be in [0, 1]")
    if copy_offset < 1 or vocab_size < 2:
        raise ContractError("copy_offset must be >= 1 and vocab_size >= 2")
    context_len = copy_offset + 2
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


def render_summary_table(report: SummarizeReport) -> str:
    mean = report.mean_f1()
    return render_one_row_table(
        ["system", "ROUGE-1", "ROUGE-2", "ROUGE-L"],
        [f"model (alpha={report.alpha:g})"]
        + [f"{100 * mean[key]:.3f}" for key in ("rouge1", "rouge2", "rougeL")],
    )


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
    if sentence_count < 1:
        raise ContractError(f"sentence_count must be >= 1, got {sentence_count}")
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
        try:
            result = generate_dialog(backend, conversation, sep_tokens[-1], alpha, cfg)
        except BackendError as exc:
            raise BackendError(f"generation failed for item {item.item_id}: {exc}") from exc
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

def read_text(path: str) -> str:
    """The text of a UTF-8 input file; other bytes raise ContractError
    naming the file."""
    with open(path, encoding="utf-8") as f:
        try:
            return f.read()
        except UnicodeDecodeError as exc:
            raise ContractError(f"{path}: not UTF-8 text: {exc}") from None


def _read_jsonl(path: str) -> list[tuple[int, dict]]:
    """(line number, record) for every non-blank line of a JSONL file,
    except a leading {"manifest": ...} line such as ``cboost generate``
    writes."""
    records = []
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ContractError(f"{path}:{lineno}: malformed JSON: {exc}") from exc
        if not records and isinstance(rec, dict) and list(rec) == ["manifest"]:
            continue
        records.append((lineno, rec))
    if not records:
        raise ContractError(f"{path}: no records")
    return records


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


# field kind -> (what the field must be, test, conversion)
_FIELD_KINDS = {
    "id": ("a string or an integer", lambda v: isinstance(v, str) or _is_int(v), str),
    "text": ("a string", lambda v: isinstance(v, str), str),
    "index": ("an integer", _is_int, int),
    "texts": (
        "a list of strings",
        lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
        tuple,
    ),
    "tokens": (
        "a list of integers",
        lambda v: isinstance(v, list) and all(_is_int(x) for x in v),
        tuple,
    ),
}


def read_records(path: str, fields: Sequence[tuple[str, str]]) -> list[list]:
    """The listed (name, kind) fields of every record of a JSONL input
    file, checked and converted; a bad record raises ContractError naming
    the file, the line and the field."""
    out = []
    for lineno, rec in _read_jsonl(path):
        if not isinstance(rec, dict):
            raise ContractError(f"{path}:{lineno}: record is not a JSON object")
        values = []
        for name, kind in fields:
            if name not in rec:
                raise ContractError(f"{path}:{lineno}: missing field {name!r}")
            what, test, convert = _FIELD_KINDS[kind]
            if not test(rec[name]):
                raise ContractError(f"{path}:{lineno}: field {name!r} must be {what}")
            values.append(convert(rec[name]))
        out.append(values)
    return out


def read_last_token_items(path: str, backend: Backend) -> list[LastTokenItem]:
    """Schema: {"id", "context": str, "target": str}; the target must
    tokenize to exactly one token."""
    items = []
    for item_id, context_text, target_text in read_records(
        path, [("id", "id"), ("context", "text"), ("target", "text")]
    ):
        context = backend.encode(context_text)
        if not context:
            raise ContractError(f"item {item_id}: empty context")
        target = backend.encode(target_text)
        if len(target) != 1:
            raise ContractError(
                f"item {item_id}: target must be a single token, got {len(target)}"
            )
        items.append(LastTokenItem(item_id, context, target[0]))
    return items


def read_mc_items(path: str) -> list[MCItem]:
    """Schema: {"id", "full_context", "premise_free_context", "choices", "gold"}."""
    fields = [
        ("id", "id"), ("full_context", "text"), ("premise_free_context", "text"),
        ("choices", "texts"), ("gold", "index"),
    ]
    return [MCItem(*values) for values in read_records(path, fields)]


def read_lama_items(path: str) -> list[LamaItem]:
    """Schema: {"id", "prompt", "candidates", "gold"}."""
    fields = [("id", "id"), ("prompt", "text"), ("candidates", "texts"), ("gold", "index")]
    return [LamaItem(*values) for values in read_records(path, fields)]


def read_summarize_items(path: str) -> list[SummarizeItem]:
    """Schema: {"id", "article", "reference"}."""
    fields = [("id", "id"), ("article", "text"), ("reference", "text")]
    return [SummarizeItem(*values) for values in read_records(path, fields)]


def read_task_items(task: str, path: str, backend: Backend) -> list:
    """The items of a "lasttoken", "mc", "lama" or "summarize" task file;
    last-token items are tokenized by the backend."""
    if task == "lasttoken":
        return read_last_token_items(path, backend)
    readers = {"mc": read_mc_items, "lama": read_lama_items, "summarize": read_summarize_items}
    if task not in readers:
        raise ContractError(f"unknown task {task!r}")
    return readers[task](path)
