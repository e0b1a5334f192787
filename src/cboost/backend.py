"""Uniform access to autoregressive language models.

A backend answers two questions: the full-vocabulary next-token
log-probability vector for a context (or an (N, V) matrix of them for a
batch of contexts), and the total log-probability of a continuation given
a context.  Token sequences are tuples of ints; each
backend owns its tokenizer, so the rest of the toolkit never sees raw text.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dist import LogProbs
from .errors import ContractError

Tokens = tuple[int, ...]

DEFAULT_CACHE_CAPACITY = 2**20


@dataclass(frozen=True)
class BackendInfo:
    vocab_size: int
    max_context: int
    name: str

    def __post_init__(self):
        if self.vocab_size < 2:
            raise ContractError("vocab_size must be >= 2")
        if self.max_context < 2:
            raise ContractError("max_context must be >= 2")


def as_tokens(seq: Sequence[int]) -> Tokens:
    return tuple(map(int, seq))


def truncated_context(context: Sequence[int], k: int) -> Tokens:
    """The last min(k, len) tokens, order preserved.  This is the short
    expert's context: the model on a k-truncated context."""
    if k < 1:
        raise ContractError(f"context truncation length must be >= 1, got {k}")
    return as_tokens(context)[-k:]


class Backend:
    """Base class.  Subclasses implement info() and next_logprobs();
    next_logprobs_batch and score_continuation have generic
    implementations on top of it, which subclasses may override."""

    def info(self) -> BackendInfo:
        raise NotImplementedError

    def next_logprobs(self, context: Sequence[int]) -> LogProbs:
        """Normalized log-probabilities of the next token given context.

        Requires 0 < len(context) <= max_context; callers truncate first.
        """
        raise NotImplementedError

    def next_logprobs_batch(self, contexts: Sequence[Sequence[int]]) -> np.ndarray:
        """Row i is next_logprobs(contexts[i]), bit for bit; shape (N, V).

        The base class loops over next_logprobs.  Backends that can score
        many contexts at once override this.
        """
        rows = [self.next_logprobs(c) for c in contexts]
        if not rows:
            return np.empty((0, self.info().vocab_size))
        return np.stack(rows)

    def score_continuation(self, context: Sequence[int], continuation: Sequence[int]) -> float:
        """Sum over continuation tokens of log p(token | context so far)."""
        context = as_tokens(context)
        continuation = as_tokens(continuation)
        self._check_score_args(context, continuation)
        total = 0.0
        ctx = context
        for tok in continuation:
            total += float(self.next_logprobs(ctx)[tok])
            ctx = ctx + (tok,)
        return total

    def _check_context(self, context: Tokens) -> None:
        if len(context) == 0:
            raise ContractError("context must be non-empty")
        if len(context) > self.info().max_context:
            raise ContractError(
                f"context of length {len(context)} exceeds max_context "
                f"{self.info().max_context}; truncate first"
            )

    def _check_score_args(self, context: Tokens, continuation: Tokens) -> None:
        if len(context) < 1 or len(continuation) < 1:
            raise ContractError("context and continuation must be non-empty")
        if len(context) + len(continuation) > self.info().max_context:
            raise ContractError("context + continuation exceeds max_context")

    # Tokenization: ids <-> text.  Backends for raw token streams may leave
    # these unimplemented.
    def encode(self, text: str) -> Tokens:
        raise NotImplementedError

    def decode(self, tokens: Sequence[int]) -> str:
        raise NotImplementedError

    @property
    def eot_token_id(self) -> int:
        """End-of-text token, used as a stand-in context when a harness
        needs a non-empty conditioning sequence."""
        raise NotImplementedError


class CachingBackend(Backend):
    """Bounded LRU memoization of next_logprobs and score_continuation.

    Keys are exact token-id tuples.  The cache is internally synchronized:
    ``cboost serve`` answers each request on its own thread, and all of
    them share one instance.  Cached vectors
    are returned read-only, and must be identical to uncached results to
    the last bit.
    """

    def __init__(self, inner: Backend, capacity: int = DEFAULT_CACHE_CAPACITY):
        if capacity < 1:
            raise ContractError("cache capacity must be positive")
        self.inner = inner
        self.capacity = capacity
        self._logprobs: OrderedDict[Tokens, np.ndarray] = OrderedDict()
        self._scores: OrderedDict[tuple[Tokens, Tokens], float] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def info(self) -> BackendInfo:
        return self.inner.info()

    def next_logprobs(self, context: Sequence[int]) -> LogProbs:
        key = as_tokens(context)
        with self._lock:
            if key in self._logprobs:
                self.hits += 1
                self._logprobs.move_to_end(key)
                return self._logprobs[key]
        value = np.asarray(self.inner.next_logprobs(key), dtype=np.float64)
        value.setflags(write=False)
        with self._lock:
            self.misses += 1
            self._logprobs[key] = value
            if len(self._logprobs) > self.capacity:
                self._logprobs.popitem(last=False)
        return value

    def next_logprobs_batch(self, contexts: Sequence[Sequence[int]]) -> np.ndarray:
        """All rows are looked up under one lock; the misses are filled by
        one inner batch call.  Hits and misses count per row, as repeated
        next_logprobs calls would count them: a context repeated within
        the batch is one miss, then hits.  The result is read-only."""
        keys = [as_tokens(c) for c in contexts]
        rows: list[np.ndarray | None] = []
        missing: dict[Tokens, int] = {}  # miss key -> index into the fill
        repeats = 0  # missed rows whose key an earlier row of the batch missed
        with self._lock:
            for key in keys:
                value = self._logprobs.get(key)
                if value is not None:
                    self.hits += 1
                    self._logprobs.move_to_end(key)
                elif key in missing:
                    repeats += 1
                else:
                    missing[key] = len(missing)
                rows.append(value)
        if missing:
            filled = np.asarray(self.inner.next_logprobs_batch(list(missing)), dtype=np.float64)
            fresh = [row.copy() for row in filled]
            for value in fresh:
                value.setflags(write=False)
            with self._lock:
                self.misses += len(fresh)
                self.hits += repeats
                for key, value in zip(missing, fresh):
                    self._logprobs[key] = value
                    self._logprobs.move_to_end(key)
                while len(self._logprobs) > self.capacity:
                    self._logprobs.popitem(last=False)
            rows = [fresh[missing[key]] if row is None else row for key, row in zip(keys, rows)]
        out = np.array(rows) if rows else np.empty((0, self.info().vocab_size))
        out.setflags(write=False)
        return out

    def score_continuation(self, context: Sequence[int], continuation: Sequence[int]) -> float:
        key = (as_tokens(context), as_tokens(continuation))
        with self._lock:
            if key in self._scores:
                self.hits += 1
                self._scores.move_to_end(key)
                return self._scores[key]
        value = self.inner.score_continuation(*key)
        with self._lock:
            self.misses += 1
            self._scores[key] = value
            if len(self._scores) > self.capacity:
                self._scores.popitem(last=False)
        return value

    def encode(self, text: str) -> Tokens:
        return self.inner.encode(text)

    def decode(self, tokens: Sequence[int]) -> str:
        return self.inner.decode(tokens)

    @property
    def eot_token_id(self) -> int:
        return self.inner.eot_token_id
