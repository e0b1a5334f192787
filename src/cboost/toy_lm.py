"""A small trainable autoregressive LM over lagged bigram tables.

The model's logits for a context w_1..w_n are

    bias[w] + sum_{j=1..min(n, lag_depth)} L_j[w_{n-j+1}, w]

where L_j is lag table j: an additive log-linear contribution from each of
the last ``lag_depth`` tokens, indexed by how far back they sit.  Truncating the
context to its last k tokens is exactly equivalent to zeroing the
contributions of lags > k, which makes short-context experts exact, and
the gradients are closed-form (softmax minus one-hot per prediction).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .backend import Backend, BackendInfo, Tokens, _as_tuple, as_tokens
from .dist import LogProbs, log_softmax
from .errors import ContractError
from .rng import named_rng

MAGIC = b"TLM1"


@dataclass
class ToyLMParams:
    bias: np.ndarray        # (V,)
    lag_tables: np.ndarray  # (lag_depth, V, V): [j-1][prev, next] in nats

    def __post_init__(self):
        self.bias = np.asarray(self.bias, dtype=np.float64)
        self.lag_tables = np.asarray(self.lag_tables, dtype=np.float64)
        if self.bias.ndim != 1 or self.lag_tables.ndim != 3:
            raise ContractError("bias must be (V,), lag_tables (M, V, V)")
        if self.lag_tables.shape[0] < 1:
            raise ContractError("lag depth must be at least 1")
        v = self.bias.shape[0]
        if self.lag_tables.shape[1:] != (v, v):
            raise ContractError("lag table shape does not match vocab size")
        if not (np.all(np.isfinite(self.bias)) and np.all(np.isfinite(self.lag_tables))):
            raise ContractError("parameters must be finite")

    @property
    def vocab_size(self) -> int:
        return self.bias.shape[0]

    @property
    def lag_depth(self) -> int:
        return self.lag_tables.shape[0]

    def copy(self) -> "ToyLMParams":
        return ToyLMParams(self.bias.copy(), self.lag_tables.copy())

    @classmethod
    def zeros(cls, vocab_size: int, lag_depth: int) -> "ToyLMParams":
        return cls(np.zeros(vocab_size), np.zeros((lag_depth, vocab_size, vocab_size)))

    def logits(self, recent) -> np.ndarray:
        """Next-token logits from a context's tokens, nearest first:
        ``recent[j]`` is the token j+1 positions back.  For one context,
        pass ``context[::-1]`` and get a (V,) vector; for N contexts of one
        length, pass a (lags, N) id array such as ``ids[:, ::-1].T`` and
        get (N, V).  Tokens past ``lag_depth`` have no effect.

        An id array gathers its table rows with ``take``, faster than fancy
        indexing at every vocabulary and row count measured; a context of
        Python ints indexes ``table[int]``, a view, faster for one context."""
        if not len(recent):
            raise ContractError("context must be non-empty")
        tables = self.lag_tables
        if isinstance(recent, np.ndarray):
            z = self.bias + tables[0].take(recent[0], axis=0)
            for table, tokens in zip(tables[1:], recent[1:]):
                z += table.take(tokens, axis=0)
            return z
        z = self.bias + tables[0][recent[0]]
        for table, tokens in zip(tables[1:], recent[1:]):
            z += table[tokens]
        return z

    def prefix_logprobs(self, recent: np.ndarray) -> Iterator[np.ndarray]:
        """``log_softmax(self.logits(recent[:k]))`` for k = 1..len(recent),
        each from the last by adding one lag, for a (lags, N) id array."""
        tables = self.lag_tables
        z = np.broadcast_to(self.bias, recent.shape[1:] + self.bias.shape).copy()
        for k, tokens in enumerate(recent):
            if k < len(tables):
                z += tables[k].take(tokens, axis=0)
            yield log_softmax(z)

    def add_logit_gradient(self, recent, g: np.ndarray, lengths: np.ndarray | None = None) -> None:
        """Accumulate into these parameters (as a gradient) ``g``, the (N, V)
        gradient of a loss with respect to the logits of N contexts given
        nearest first as for ``logits``: each row goes to the bias and to
        the lag-table rows of its context's tokens.  With ``lengths``,
        context i has only its first ``lengths[i]`` lags.  Each table cell
        takes its rows in row order."""
        self.bias += g.sum(axis=0)
        for j, (table, tokens) in enumerate(zip(self.lag_tables, recent)):
            if lengths is None:
                np.add.at(table, tokens, g)
            else:
                rows = lengths > j
                np.add.at(table, tokens[rows], g[rows])


@dataclass
class TrainConfig:
    """SGD settings.

    The default step budget is deliberately small: it leaves the model in
    the undertrained regime where long-range structure is only partially
    learned, which is the regime coherence boosting targets.  Pass more
    steps for a well-converged model.
    """

    max_context: int = 12
    learning_rate: float = 0.1
    steps: int = 12
    batch_size: int = 32
    seed: int = 0
    l2: float = 0.0

    def __post_init__(self):
        if self.max_context < 1 or self.max_context > 64:
            raise ContractError("max_context must be in [1, 64] at desk scale")
        if self.learning_rate <= 0:
            raise ContractError("learning_rate must be positive")
        if self.batch_size < 1 or self.steps < 0:
            raise ContractError("batch_size must be >= 1 and steps >= 0")
        if self.l2 < 0:
            raise ContractError("l2 must be non-negative")


@dataclass
class LossProfile:
    """Held-out NLL (nats/token) as a function of context length: entry
    k-1 is the mean loss predicting a token from its last k tokens."""

    per_length_nll: np.ndarray

    def __post_init__(self):
        self.per_length_nll = np.asarray(self.per_length_nll, dtype=np.float64)
        if not np.all(np.isfinite(self.per_length_nll)):
            raise ContractError("loss profile must be finite")

    def __getitem__(self, k: int) -> float:
        """Loss at context length k (1-based)."""
        return float(self.per_length_nll[k - 1])


def window_loss_and_gradient(
    params: ToyLMParams, window: Sequence[int]
) -> tuple[float, ToyLMParams]:
    """Mean NLL over all next-token predictions inside one window, plus its
    exact gradient in parameter shape.

    A window w_0..w_L yields L predictions; prediction t conditions on
    w_0..w_t, so every context length 1..L contributes once with equal
    weight — the uniform-scalarization inner term.
    """
    window = as_tokens(window)
    if len(window) < 2:
        raise ContractError("window must contain at least 2 tokens")
    v = params.vocab_size
    n_pred = len(window) - 1
    grad = ToyLMParams.zeros(v, params.lag_depth)
    loss = 0.0
    for t in range(n_pred):
        ctx = window[: t + 1]
        z = params.logits(ctx[::-1])
        m = z.max()
        e = np.exp(z - m)
        p = e / e.sum()
        target = window[t + 1]
        loss += float(np.log(e.sum()) + m - z[target])
        g = p.copy()
        g[target] -= 1.0
        g /= n_pred
        grad.bias += g
        for j in range(1, min(len(ctx), params.lag_depth) + 1):
            grad.lag_tables[j - 1][ctx[-j]] += g
    return loss / n_pred, grad


def train_uniform_scalarization(
    corpus: Sequence[int],
    cfg: TrainConfig,
    vocab_size: int | None = None,
    loss_trace: list[float] | None = None,
) -> ToyLMParams:
    """Fit parameters by SGD on windows of length max_context+1 sampled
    uniformly from the corpus stream.

    Each window contributes the mean NLL of all its next-token predictions
    (one per context length), so short and long contexts receive equal
    weight.  Deterministic given (corpus, cfg).  If ``loss_trace`` is a
    list, the per-step mean batch loss is appended to it.
    """
    corpus = as_tokens(corpus)
    m = cfg.max_context
    win = m + 1
    if len(corpus) < 10 * win:
        raise ContractError(
            f"corpus too short: need at least {10 * win} tokens, got {len(corpus)}"
        )
    v = int(max(corpus)) + 1 if vocab_size is None else vocab_size
    if v <= int(max(corpus)):
        raise ContractError("vocab_size smaller than largest corpus token id")
    params = ToyLMParams.zeros(v, m)
    rng = named_rng(cfg.seed, "toy-lm-train-windows")
    windows = np.asarray(corpus, dtype=np.int64)
    for _ in range(cfg.steps):
        starts = rng.integers(0, len(corpus) - win + 1, size=cfg.batch_size)
        batch = np.stack([windows[s : s + win] for s in starts])
        loss, grad = _batch_loss_and_gradient(params, batch)
        if loss_trace is not None:
            loss_trace.append(loss)
        lr = cfg.learning_rate
        params.bias -= lr * (grad.bias + 2.0 * cfg.l2 * params.bias)
        params.lag_tables -= lr * (grad.lag_tables + 2.0 * cfg.l2 * params.lag_tables)
    return params


def _batch_loss_and_gradient(
    params: ToyLMParams, batch: np.ndarray
) -> tuple[float, ToyLMParams]:
    """Vectorized mean window loss and gradient over a (B, win) batch."""
    b, win = batch.shape
    n_pred = win - 1
    grad = ToyLMParams.zeros(params.vocab_size, params.lag_depth)
    total = 0.0
    scale = 1.0 / (n_pred * b)
    rows = np.arange(b)
    for t in range(n_pred):
        # prediction t: context batch[:, :t+1], target batch[:, t+1]
        recent = batch[:, t::-1].T
        z = params.logits(recent)
        mx = z.max(axis=1, keepdims=True)
        e = np.exp(z - mx)
        sums = e.sum(axis=1, keepdims=True)
        p = e / sums
        targets = batch[:, t + 1]
        total += float(np.sum(np.log(sums[:, 0]) + mx[:, 0] - z[rows, targets]))
        g = p
        g[rows, targets] -= 1.0
        g *= scale
        grad.add_logit_gradient(recent, g)
    return total * scale, grad


def heldout_view(heldout: Sequence[int], lags: int) -> tuple[np.ndarray, np.ndarray]:
    """The held-out positions with ``lags`` tokens of history, as
    ``(recent, targets)``: ``targets`` holds the tokens at those positions,
    and ``recent`` the ids before each, nearest first, as a (lags, N) view
    of the stream: row j holds the tokens j+1 places back, the form
    ``ToyLMParams.logits`` takes."""
    tokens = np.asarray(heldout, dtype=np.int64)
    if len(tokens) <= lags:
        raise ContractError(
            f"held-out stream has {len(tokens)} tokens; needs at least {lags + 1} (lags + 1)"
        )
    recent = np.lib.stride_tricks.sliding_window_view(tokens[:-1], lags)[:, ::-1].T
    return recent, tokens[lags:]


def loss_profile(
    params: ToyLMParams, heldout: Sequence[int], max_context: int | None = None
) -> LossProfile:
    """Mean held-out NLL at every context length 1..max_context.

    All lengths are scored at the same positions (those with at least
    max_context tokens of history), so the profile isolates the effect of
    truncation.
    """
    m = params.lag_depth if max_context is None else max_context
    recent, targets = heldout_view(heldout, m)
    rows = np.arange(len(targets))
    losses = np.empty(m)
    for k, lf in enumerate(params.prefix_logprobs(recent)):
        losses[k] = float(np.mean(-lf[rows, targets]))
    return LossProfile(losses)


# ---------------------------------------------------------------------------
# Persistence: magic "TLM1", little-endian u32 vocab, u32 lag depth, then
# float64 arrays bias, lag table 1..M in row-major order.
# ---------------------------------------------------------------------------

def save_params(params: ToyLMParams, path: str) -> None:
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<II", params.vocab_size, params.lag_depth))
        f.write(params.bias.astype("<f8").tobytes())
        f.write(np.ascontiguousarray(params.lag_tables, dtype="<f8").tobytes())


def load_params(path: str) -> ToyLMParams:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != MAGIC:
        raise ContractError(f"not a toy LM parameter file: {path}")
    if len(blob) < 12:
        raise ContractError(f"corrupt parameter file: {len(blob) - 4} header bytes, expected 8")
    if (len(blob) - 12) % 8:
        raise ContractError(
            f"corrupt parameter file: body of {len(blob) - 12} bytes is not whole float64s"
        )
    v, m = struct.unpack("<II", blob[4:12])
    arr = np.frombuffer(blob[12:], dtype="<f8")
    expected = v + m * v * v
    if arr.size != expected:
        raise ContractError(f"corrupt parameter file: expected {expected} floats, got {arr.size}")
    bias = arr[:v].copy()
    tables = arr[v:].reshape(m, v, v).copy()
    return ToyLMParams(bias, tables)


# ---------------------------------------------------------------------------
# Tokenizer + backend wrapper
# ---------------------------------------------------------------------------

UNK_TOKEN = "<unk>"
EOT_TOKEN = "<eot>"


class WhitespaceTokenizer:
    """Whitespace tokenizer over a fixed word list, with reserved unknown
    (id 0) and end-of-text (id 1) tokens."""

    def __init__(self, words: Sequence[str]):
        self.id_to_word = [UNK_TOKEN, EOT_TOKEN] + list(words)
        if len(set(self.id_to_word)) != len(self.id_to_word):
            raise ContractError("duplicate words in tokenizer vocabulary")
        self.word_to_id = {w: i for i, w in enumerate(self.id_to_word)}

    @classmethod
    def from_corpus(cls, text: str) -> "WhitespaceTokenizer":
        words = sorted({w for w in text.split() if w not in (UNK_TOKEN, EOT_TOKEN)})
        return cls(words)

    @property
    def vocab_size(self) -> int:
        return len(self.id_to_word)

    @property
    def unk_id(self) -> int:
        return 0

    @property
    def eot_id(self) -> int:
        return 1

    def encode(self, text: str) -> Tokens:
        return tuple(self.word_to_id.get(w, 0) for w in text.split())

    def decode(self, tokens: Sequence[int]) -> str:
        return " ".join(self.id_to_word[t] for t in tokens)


def corpus_tokens(text: str, tokenizer: WhitespaceTokenizer) -> Tokens:
    """Tokenize a corpus file: one document per non-empty line, documents
    joined into a single stream by end-of-text separators."""
    docs = [tokenizer.encode(line) for line in text.splitlines() if line.strip()]
    if not docs:
        raise ContractError("empty corpus")
    out: list[int] = []
    for i, d in enumerate(docs):
        if i:
            out.append(tokenizer.eot_id)
        out.extend(d)
    return tuple(out)


class ToyBackend(Backend):
    """Backend view of a ToyLMParams model.

    ``max_context`` is the longest context the backend accepts; only the
    last ``params.lag_depth`` tokens influence the output, so the full-
    context expert coincides with the lag-depth truncation.
    """

    def __init__(
        self,
        params: ToyLMParams,
        tokenizer: WhitespaceTokenizer | None = None,
        max_context: int = 2**20,
        name: str = "toy",
    ):
        if tokenizer is not None and tokenizer.vocab_size != params.vocab_size:
            raise ContractError("tokenizer vocabulary does not match parameters")
        self.params = params
        self.tokenizer = tokenizer
        self._info = BackendInfo(params.vocab_size, max_context, name)

    def info(self) -> BackendInfo:
        return self._info

    def next_logprobs(self, context: Sequence[int]) -> LogProbs:
        """A tuple context is used as it is (``_as_tuple``); only the lag
        window is copied to ints, and the range check reads every token."""
        context = _as_tuple(context)
        self._check_context(context)
        self._check_ids([context])
        return log_softmax(self.params.logits(as_tokens(context[-self.params.lag_depth :][::-1])))

    def next_logprobs_batch(self, contexts: Sequence[Sequence[int]]) -> np.ndarray:
        """One ``ToyLMParams.logits`` call per lag window length, on the
        last ``lag_depth`` tokens of each context, so each row is
        bit-identical to next_logprobs.  Only those tokens are copied;
        the range check reads every token."""
        contexts = list(contexts)
        lag = self.params.lag_depth
        by_window: dict[int, list[int]] = {}
        for i, context in enumerate(contexts):
            self._check_context(context)
            by_window.setdefault(min(len(context), lag), []).append(i)
        self._check_ids(contexts)
        z = np.empty((len(contexts), self.params.vocab_size))
        for rows in by_window.values():
            ids = np.array([contexts[i][-lag:] for i in rows], dtype=np.int64)
            z[rows] = self.params.logits(ids[:, ::-1].T)
        return log_softmax(z)

    def _check_ids(self, contexts: list[Sequence[int]]) -> None:
        """Every token of every (non-empty) context, inside the lag window
        or not, must be a vocabulary id."""
        v = self.params.vocab_size
        if any(min(c) < 0 or max(c) >= v for c in contexts):
            raise ContractError("token id out of range for this backend")
