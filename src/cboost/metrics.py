"""Corpus and generation metrics.

Distributional metrics (perplexity, self-BLEU, Zipf, repetition), the
long-range coherence probes (LR_n, LTF, delta), and the reference-overlap
metrics (BLEU, NIST, ROUGE, Distinct-n, Entropy-n).

Overlap metrics work on any sequences of hashable items (token ids or
word strings).  Model-relative probes (perplexity, LTF, delta) always
query the *base* unboosted backend, even when the corpus was generated
with boosting — that is what makes them coherence probes rather than
self-scores.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Hashable, Literal, Sequence

import numpy as np

from .backend import Backend, Tokens, token_logprobs
from .errors import ContractError

Items = Sequence[Hashable]


@dataclass
class Document:
    """One document: token ids for model-relative metrics, or any hashable
    items (e.g. words) for purely lexical ones."""

    tokens: tuple
    prompt: tuple = ()   # conditioning prefix; never scored itself

    def __post_init__(self):
        self.tokens = tuple(self.tokens)
        self.prompt = tuple(self.prompt)
        if len(self.tokens) < 1:
            raise ContractError("documents must contain at least one token")


@dataclass
class Corpus:
    documents: list[Document]

    def __post_init__(self):
        if not self.documents:
            raise ContractError("corpus must be non-empty")

    @classmethod
    def from_token_seqs(cls, seqs: Sequence[Sequence]) -> "Corpus":
        return cls([Document(tuple(s)) for s in seqs])


# ---------------------------------------------------------------------------
# Lexical coherence
# ---------------------------------------------------------------------------

def lr_score(corpus: Corpus, n: int) -> float:
    """Long-range repetition: the fraction of distinct tokens whose first
    and last occurrences are at least n positions apart, macro-averaged as
    sum(R_n) / sum(S) over documents."""
    if n < 1:
        raise ContractError("n must be >= 1")
    r_total = 0
    s_total = 0
    for doc in corpus.documents:
        first: dict[int, int] = {}
        last: dict[int, int] = {}
        for i, tok in enumerate(doc.tokens):
            first.setdefault(tok, i)
            last[tok] = i
        s_total += len(first)
        r_total += sum(1 for t in first if last[t] - first[t] >= n)
    return r_total / s_total


def _token_logprobs(
    doc: Document, backend: Backend, short_len: int | None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Log-probabilities of every scored token of one document given its
    full context and, unless ``short_len`` is None, its last ``short_len``
    tokens: one next_logprobs_batch call per expert, the short one first,
    so that token_logprobs rejects a bad ``short_len`` before any row is
    scored."""
    seq = doc.prompt + doc.tokens
    # without a prompt the first token has no context to condition on
    start = len(doc.prompt) if doc.prompt else 1
    short = None if short_len is None else token_logprobs(backend, seq, start, short_len)
    return token_logprobs(backend, seq, start, backend.info().max_context), short


def _scored_corpus(
    corpus: Corpus, backend: Backend, short_len: int | None
) -> tuple[np.ndarray, np.ndarray | None]:
    """The ``_token_logprobs`` of every document, each expert's joined in
    document order; a corpus with no scored token at all is rejected."""
    full, short = zip(*(_token_logprobs(doc, backend, short_len) for doc in corpus.documents))
    full = np.concatenate(full)
    if not len(full):
        raise ContractError("no scorable tokens in corpus")
    return full, None if short_len is None else np.concatenate(short)


def _exp(logprobs: np.ndarray) -> np.ndarray:
    # math.exp, not np.exp: the two differ in the last bit on some inputs
    return np.asarray([math.exp(x) for x in logprobs.tolist()])


# ltf's likelihood thresholds: a token is long-dependent when it is likely
# given the full context and unlikely given the short one
LTF_LONG_THRESH = 0.20
LTF_SHORT_THRESH = 0.05


def _ltf(p_full: np.ndarray, p_short: np.ndarray) -> float:
    hits = int(np.sum((p_full >= LTF_LONG_THRESH) & (p_short < LTF_SHORT_THRESH)))
    return hits / len(p_full)


def _delta(p_full: np.ndarray, p_short: np.ndarray) -> float:
    return float(np.mean(p_full - p_short))


def _perplexity(full: np.ndarray) -> float:
    return float(np.exp(np.mean(-full)))


def ltf(corpus: Corpus, backend: Backend, short_len: int = 20) -> float:
    """Frequency of long-dependent tokens: likelihood >= LTF_LONG_THRESH
    given the full context but < LTF_SHORT_THRESH given only short_len
    tokens."""
    return _ltf(*map(_exp, _scored_corpus(corpus, backend, short_len)))


def delta(corpus: Corpus, backend: Backend, short_len: int = 20) -> float:
    """Mean over tokens of p(full context) - p(short context)."""
    return _delta(*map(_exp, _scored_corpus(corpus, backend, short_len)))


def corpus_perplexity(corpus: Corpus, backend: Backend) -> float:
    """exp(mean NLL) of corpus tokens under the full available context."""
    return _perplexity(_scored_corpus(corpus, backend, None)[0])


def zipf_coefficient(corpus: Corpus, min_count: int = 1) -> float:
    """Magnitude of the least-squares slope of log-frequency on log-rank
    over unigram counts.  ``min_count`` optionally drops rare ranks."""
    counts = Counter()
    for doc in corpus.documents:
        counts.update(doc.tokens)
    freqs = sorted((c for c in counts.values() if c >= min_count), reverse=True)
    if len(freqs) < 2:
        raise ContractError("need >= 2 ranks for a Zipf fit")
    x = np.log(np.arange(1, len(freqs) + 1, dtype=np.float64))
    y = np.log(np.asarray(freqs, dtype=np.float64))
    slope = np.polyfit(x, y, 1)[0]
    return float(abs(slope))


def ends_repeating(tokens: Tokens, min_copies: int = 3, max_span: int = 16) -> bool:
    """True when the document ends in >= min_copies back-to-back copies of
    some span of length 1..max_span."""
    if min_copies < 2 or max_span < 1:
        raise ContractError(
            f"repetition needs min_copies >= 2 and max_span >= 1, got {min_copies} and {max_span}"
        )
    n = len(tokens)
    for span in range(1, max_span + 1):
        if span * min_copies > n:
            break
        tail = tokens[-span:]
        if all(
            tokens[n - (c + 1) * span : n - c * span] == tail
            for c in range(1, min_copies)
        ):
            return True
    return False


def repetition_fraction(corpus: Corpus, min_copies: int = 3, max_span: int = 16) -> float:
    """Fraction of documents that end in a repeating span."""
    flagged = sum(ends_repeating(d.tokens, min_copies, max_span) for d in corpus.documents)
    return flagged / len(corpus.documents)


# ---------------------------------------------------------------------------
# Reference-overlap metrics
# ---------------------------------------------------------------------------

def _ngram_counts(seq: Items, n: int) -> Counter:
    return Counter(tuple(seq[i : i + n]) for i in range(len(seq) - n + 1))


def _clipped_counts(cand: Counter, references: Sequence[Items], n: int) -> dict:
    """Each candidate n-gram's count, clipped at its largest count in any
    one reference."""
    max_ref = Counter()
    for ref in references:
        max_ref |= _ngram_counts(tuple(ref), n)
    return {g: min(c, max_ref[g]) for g, c in cand.items()}


def _pooled_ngrams(corpus: Corpus, n: int) -> tuple[Counter, int]:
    """N-gram counts pooled across documents, and their total."""
    pooled = Counter()
    for doc in corpus.documents:
        pooled.update(_ngram_counts(doc.tokens, n))
    total = sum(pooled.values())
    if total == 0:
        raise ContractError(f"corpus has no {n}-grams")
    return pooled, total


def bleu(candidate: Items, references: Sequence[Items], max_n: int = 4) -> float:
    """Geometric mean of modified n-gram precisions times the brevity
    penalty; a precision with no match zeroes the score."""
    if not references:
        raise ContractError("bleu needs at least one reference")
    candidate = tuple(candidate)
    if not candidate:
        warnings.warn("bleu: empty candidate scores 0")
        return 0.0
    log_precisions = []
    for n in range(1, max_n + 1):
        cand = _ngram_counts(candidate, n)
        matches = float(sum(_clipped_counts(cand, references, n).values()))
        if matches == 0.0:
            return 0.0
        log_precisions.append(math.log(matches / sum(cand.values())))
    c = len(candidate)
    # closest reference length; ties prefer the shorter reference
    r = min((abs(len(tuple(ref)) - c), len(tuple(ref))) for ref in references)[1]
    bp = 1.0 if c > r else math.exp(1.0 - r / c)
    return bp * math.exp(sum(log_precisions) / max_n)


def self_bleu4(corpus: Corpus) -> float:
    """Mean BLEU-4 of each document against all the others as references,
    equal bit for bit to ``bleu(doc, others, max_n=4)`` per document.

    Each document's n-grams are counted once.  A gram's clip against the
    other documents is its largest count in any one of them: the top count
    over the corpus, or the runner-up for a document that holds the top
    count itself (after a tie at the top the two are equal)."""
    if len(corpus.documents) < 2:
        raise ContractError("self-BLEU needs at least two documents")
    docs = [d.tokens for d in corpus.documents]
    # None once a document has no clipped match at some n: it scores 0
    log_precisions: list[list[float] | None] = [[] for _ in docs]
    for n in range(1, 5):
        counts = [_ngram_counts(doc, n) for doc in docs]
        top, second = Counter(), Counter()
        for grams in counts:
            for g, c in grams.items():
                if c > top[g]:
                    second[g] = top[g]
                    top[g] = c
                elif c > second[g]:
                    second[g] = c
        for i, grams in enumerate(counts):
            if log_precisions[i] is None:
                continue
            clipped = (min(c, second[g] if c == top[g] else top[g]) for g, c in grams.items())
            matches = float(sum(clipped))
            if matches == 0.0:
                log_precisions[i] = None
            else:
                log_precisions[i].append(math.log(matches / sum(grams.values())))
    # the reference length: the closest other document's, ties to the shorter
    per_length = Counter(len(doc) for doc in docs)
    ns = sorted(per_length)
    closest = {}
    for i, n in enumerate(ns):
        near = [n] if per_length[n] > 1 else ns[max(i - 1, 0) : i] + ns[i + 1 : i + 2]
        closest[n] = min((abs(m - n), m) for m in near)[1]
    scores = []
    for doc, logs in zip(docs, log_precisions):
        if logs is None:
            scores.append(0.0)
            continue
        c, r = len(doc), closest[len(doc)]
        bp = 1.0 if c > r else math.exp(1.0 - r / c)
        scores.append(bp * math.exp(sum(logs) / 4))
    return float(np.mean(scores))


# NIST brevity penalty: factor 0.5 when the length ratio is 2/3
_NIST_BETA = math.log(0.5) / math.log(2.0 / 3.0) ** 2


def nist(
    candidates: Sequence[Items],
    multi_references: Sequence[Sequence[Items]],
    max_n: int = 5,
) -> float:
    """Corpus-level NIST: information-weighted n-gram co-occurrence.

    Info weights come from n-gram statistics of the pooled reference set:
    Info(w_1..w_n) = log2(count(w_1..w_{n-1}) / count(w_1..w_n)), with the
    unigram numerator equal to the total reference word count.  Matches
    are clipped per segment at the maximum count in any of its references.
    The brevity factor is exp(beta * ln(min(L_sys/L_ref, 1))^2).
    """
    if len(candidates) != len(multi_references):
        raise ContractError("need one reference list per candidate")
    if not candidates:
        raise ContractError("empty candidate list")
    ref_counts: list[Counter] = [Counter() for _ in range(max_n + 1)]
    total_ref_words = 0
    for refs in multi_references:
        for ref in refs:
            ref = tuple(ref)
            total_ref_words += len(ref)
            for n in range(1, max_n + 1):
                ref_counts[n].update(_ngram_counts(ref, n))
    if total_ref_words == 0:
        raise ContractError("references contain no words")

    def info(gram: tuple) -> float:
        n = len(gram)
        denom = ref_counts[n][gram]
        if denom == 0:
            return 0.0
        numer = total_ref_words if n == 1 else ref_counts[n - 1][gram[:-1]]
        if numer == 0:
            return 0.0
        return math.log2(numer / denom)

    score = 0.0
    for n in range(1, max_n + 1):
        num = 0.0
        den = 0
        for cand, refs in zip(candidates, multi_references):
            cand = tuple(cand)
            cand_counts = _ngram_counts(cand, n)
            den += sum(cand_counts.values())
            for g, matched in _clipped_counts(cand_counts, refs, n).items():
                if matched:
                    num += matched * info(g)
        if den:
            score += num / den
    l_sys = sum(len(tuple(c)) for c in candidates)
    n_refs = sum(len(refs) for refs in multi_references)
    l_ref = total_ref_words / n_refs * len(candidates)
    ratio = min(l_sys / l_ref, 1.0) if l_ref > 0 else 1.0
    bp = math.exp(_NIST_BETA * math.log(ratio) ** 2) if ratio > 0 else 0.0
    return score * bp


def distinct_n(corpus: Corpus, n: int) -> float:
    """Unique n-grams over total n-grams, pooled across documents."""
    pooled, total = _pooled_ngrams(corpus, n)
    return len(pooled) / total


def entropy_n(corpus: Corpus, n: int) -> float:
    """Shannon entropy (nats) of the pooled n-gram frequency distribution."""
    pooled, total = _pooled_ngrams(corpus, n)
    p = np.asarray(list(pooled.values()), dtype=np.float64) / total
    return float(-np.sum(p * np.log(p)))


@dataclass(frozen=True)
class RougeScore:
    precision: float
    recall: float
    f1: float


def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def _lcs_length(a: tuple, b: tuple) -> int:
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0] * (len(b) + 1)
        for j, y in enumerate(b, start=1):
            cur[j] = prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


def rouge(candidate: Items, reference: Items, variant: Literal[1, 2, "L"]) -> RougeScore:
    """ROUGE-1/2 n-gram overlap or ROUGE-L longest common subsequence."""
    candidate = tuple(candidate)
    reference = tuple(reference)
    if variant == "L":
        if not candidate or not reference:
            return RougeScore(0.0, 0.0, 0.0)
        lcs = _lcs_length(candidate, reference)
        p = lcs / len(candidate)
        r = lcs / len(reference)
        return RougeScore(p, r, _f1(p, r))
    n = int(variant)
    cand = _ngram_counts(candidate, n)
    ref = _ngram_counts(reference, n)
    cand_total = sum(cand.values())
    ref_total = sum(ref.values())
    if cand_total == 0 or ref_total == 0:
        return RougeScore(0.0, 0.0, 0.0)
    matches = sum(min(c, ref[g]) for g, c in cand.items())
    p = matches / cand_total
    r = matches / ref_total
    return RougeScore(p, r, _f1(p, r))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def render_one_row_table(headers: Sequence[str], row: Sequence[str]) -> str:
    """A header line over one row, each column right-aligned to its wider
    cell, columns two spaces apart."""
    widths = [max(len(h), len(v)) for h, v in zip(headers, row)]
    fmt = "  ".join(f"{{:>{w}}}" for w in widths)
    return fmt.format(*headers) + "\n" + fmt.format(*row)


@dataclass
class CoherenceReport:
    """The distributional metric set for one generated corpus."""

    ppl: float
    self_bleu4: float
    zipf: float
    repetition: float
    lr: dict[int, float]
    delta: float
    ltf: float
    short_len: int = 20

    def to_dict(self) -> dict:
        fields = asdict(self)
        fields.update((f"lr_{n}", v) for n, v in fields.pop("lr").items())
        return fields


def coherence_report(
    corpus: Corpus,
    backend: Backend,
    lr_ns: Sequence[int] = (50, 100),
    short_len: int = 20,
    repetition_min_copies: int = 3,
    repetition_max_span: int = 16,
    zipf_min_count: int = 1,
) -> CoherenceReport:
    """Every metric of the set; the model-relative ones (ppl, delta, ltf)
    share one scoring of each document, which runs after the corpus-only
    ones so that a bad bound is rejected before any backend work."""
    lexical = dict(
        self_bleu4=self_bleu4(corpus) if len(corpus.documents) > 1 else 1.0,
        zipf=zipf_coefficient(corpus, min_count=zipf_min_count),
        repetition=repetition_fraction(corpus, repetition_min_copies, repetition_max_span),
        lr={n: lr_score(corpus, n) for n in lr_ns},
    )
    full, short = _scored_corpus(corpus, backend, short_len)
    p_full, p_short = _exp(full), _exp(short)
    return CoherenceReport(
        ppl=_perplexity(full),
        **lexical,
        delta=_delta(p_full, p_short),
        ltf=_ltf(p_full, p_short),
        short_len=short_len,
    )


def render_coherence_table(report: CoherenceReport) -> str:
    """Aligned plain-text table with one row per corpus, columns matching
    the generation-metrics layout (percent columns scaled by 100), with
    one LR column per repetition distance in ascending order."""
    columns = [
        ("ppl", f"{report.ppl:.2f}"),
        ("BLEU-4", f"{report.self_bleu4:.2f}"),
        ("Zipf", f"{report.zipf:.2f}"),
        ("rep %", f"{100 * report.repetition:.2f}"),
        *((f"LR_{n} %", f"{100 * v:.2f}") for n, v in sorted(report.lr.items())),
        ("delta %", f"{100 * report.delta:.2f}"),
        ("LTF %", f"{100 * report.ltf:.2f}"),
    ]
    headers, values = zip(*columns)
    return render_one_row_table(["corpus", *headers], ["corpus", *values])


@dataclass
class DialogReport:
    """Reference-overlap metric set for response generation."""

    nist_2: float
    nist_4: float
    bleu_2: float
    bleu_4: float
    entropy_4: float
    distinct_1: float
    distinct_2: float
    avg_len: float

    def to_dict(self) -> dict:
        return asdict(self)


def dialog_report(
    candidates: Sequence[Items], multi_references: Sequence[Sequence[Items]]
) -> DialogReport:
    corpus = Corpus.from_token_seqs([tuple(c) for c in candidates if len(tuple(c))])
    mean_bleu = lambda n: float(
        np.mean([bleu(c, refs, max_n=n) for c, refs in zip(candidates, multi_references)])
    )
    return DialogReport(
        nist_2=nist(candidates, multi_references, max_n=2),
        nist_4=nist(candidates, multi_references, max_n=4),
        bleu_2=mean_bleu(2),
        bleu_4=mean_bleu(4),
        entropy_4=entropy_n(corpus, 4),
        distinct_1=distinct_n(corpus, 1),
        distinct_2=distinct_n(corpus, 2),
        avg_len=float(np.mean([len(tuple(c)) for c in candidates])),
    )


DIALOG_COLUMNS = ["NIST-2", "NIST-4", "BLEU-2", "BLEU-4", "Ent-4", "Dist-1", "Dist-2", "avg len"]


def render_dialog_table(report: DialogReport) -> str:
    values = [
        f"{report.nist_2:.2f}",
        f"{report.nist_4:.2f}",
        f"{100 * report.bleu_2:.2f}",
        f"{100 * report.bleu_4:.2f}",
        f"{report.entropy_4:.2f}",
        f"{100 * report.distinct_1:.2f}",
        f"{100 * report.distinct_2:.2f}",
        f"{report.avg_len:.2f}",
    ]
    return render_one_row_table(["system"] + DIALOG_COLUMNS, ["system"] + values)
