"""Uniform access to autoregressive language models.

A backend answers two questions: the full-vocabulary next-token
log-probability vector for a context (or an (N, V) matrix of them for a
batch of contexts), and the total log-probability of a continuation given
a context.  Token sequences are tuples of ints; each
backend owns its tokenizer, so the rest of the toolkit never sees raw text.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from dataclasses import dataclass
from itertools import compress, count, repeat
from operator import is_not, not_
from typing import Sequence

import numpy as np

from .dist import LogProbs
from .errors import BackendError, ContractError

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


def token_logprobs_batch(
    backend: Backend, spans: Sequence[tuple[Sequence[int], int, int]]
) -> list[np.ndarray]:
    """For each span (seq, start, window), log p(seq[e] | seq[max(e - window,
    0):e]) for e = start .. len(seq) - 1.  Every span is checked before the
    backend runs, and all their rows come from one next_logprobs_batch call.
    This is the one token scorer behind score_batch, the server's /v1/score
    and /v1/score_batch and the likelihood probes."""
    spans = [(as_tokens(seq), start, window) for seq, start, window in spans]
    v = backend.info().vocab_size
    for seq, start, window in spans:
        if window < 1:
            raise ContractError(f"context truncation length must be >= 1, got {window}")
        if any(t < 0 or t >= v for t in seq[start:]):
            raise ContractError("token id out of range for this backend")
    contexts = [seq[max(e - window, 0) : e] for seq, start, window in spans
                for e in range(start, len(seq))]
    targets = np.asarray([t for seq, start, _ in spans for t in seq[start:]], dtype=np.int64)
    terms = backend.next_logprobs_batch(contexts)[np.arange(len(targets)), targets]
    out, s = [], 0
    for seq, start, _ in spans:
        out.append(terms[s : s + len(seq) - start])
        s += len(seq) - start
    return out


def token_logprobs(backend: Backend, seq: Sequence[int], start: int, window: int) -> np.ndarray:
    """token_logprobs_batch of the one span (seq, start, window)."""
    return token_logprobs_batch(backend, [(seq, start, window)])[0]


def scored_pairs(
    backend: Backend, pairs: Sequence[tuple[Sequence[int], Sequence[int]]]
) -> list[tuple[float, np.ndarray]]:
    """(logprob, per-token terms) of every (context, continuation) pair: the
    terms of each continuation token given the context so far, and their
    sum added in order.  Every pair is checked before the backend runs, and
    all of them take one next_logprobs_batch call."""
    pairs = [(as_tokens(c), as_tokens(k)) for c, k in pairs]
    for context, continuation in pairs:
        backend._check_score_args(context, continuation)
    window = backend.info().max_context
    terms = token_logprobs_batch(backend, [(c + k, len(c), window) for c, k in pairs])
    return [(float(np.cumsum(t)[-1]), t) for t in terms]


class Backend:
    """Base class.  Subclasses implement info() and next_logprobs();
    next_logprobs_batch, score_batch and score_continuation have generic
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

    def score_batch(self, pairs: Sequence[tuple[Sequence[int], Sequence[int]]]) -> list[float]:
        """score_continuation of every (context, continuation) pair, from
        one next_logprobs_batch call (``scored_pairs``)."""
        return [logprob for logprob, _ in scored_pairs(self, pairs)]

    def score_continuation(self, context: Sequence[int], continuation: Sequence[int]) -> float:
        """Sum over continuation tokens of log p(token | context so far),
        added in order: the one-pair case of score_batch."""
        return self.score_batch([(context, continuation)])[0]

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

    # Tokenization: ids <-> text through ``tokenizer``, any object with
    # encode, decode and eot_id.  Backends for raw token streams leave it
    # None and serve token ids only.
    tokenizer = None

    def encode(self, text: str) -> Tokens:
        return self._text_tokenizer().encode(text)

    def decode(self, tokens: Sequence[int]) -> str:
        return self._text_tokenizer().decode(tokens)

    @property
    def eot_token_id(self) -> int:
        """End-of-text token, used as a stand-in context when a harness
        needs a non-empty conditioning sequence; id 0 without a tokenizer."""
        return 0 if self.tokenizer is None else self.tokenizer.eot_id

    def _text_tokenizer(self):
        if self.tokenizer is None:
            raise ContractError(
                "this backend has no tokenizer, so it takes token ids only; "
                "for text inputs give a vocabulary file (--vocab)"
            )
        return self.tokenizer


def _as_tuple(seq: Sequence[int]) -> tuple:
    """``seq`` as a tuple: a tuple as it is, any other sequence through
    as_tokens.  A tuple of numpy ints or bools hashes and compares equal to
    its int form, so as a dict key it finds the same entry."""
    return seq if isinstance(seq, tuple) else as_tokens(seq)


def _as_tuples(seqs: Sequence[Sequence[int]]) -> list[tuple]:
    """``_as_tuple`` of every sequence, as a new list.  When all of them are
    tuples, one type check over the list stands in for the per-sequence
    calls."""
    seqs = list(seqs)
    return seqs if set(map(type, seqs)) <= {tuple} else list(map(_as_tuple, seqs))


class CachingBackend(Backend):
    """Bounded LRU memoization of next-token vectors and continuation scores.

    Keys are token-id tuples: a tuple is its own key, and any other
    sequence is normalized with ``as_tokens`` first (``_as_tuple``), so a
    list, an array and a tuple of numpy ints of the same ids share one
    entry.  A batch whose contexts are all tuples is checked once for that
    (``_as_tuples``) and used as it is.  Every entry point looks its keys
    up through ``_cached``, with a fill from the inner backend:
    next_logprobs from the inner next_logprobs, next_logprobs_batch from
    the inner next_logprobs_batch, and score_batch and score_continuation
    from the inner score_batch.  The cache is internally synchronized:
    ``cboost serve`` answers each request on its own thread, and all of
    them share one instance.  Cached vectors are returned read-only, and
    must be identical to uncached results to the last bit.  Every stored
    vector is the cache's own C-contiguous float64 copy, so an inner
    backend may reuse its output buffer.

    The cache keeps the keys and the matrix of its last
    next_logprobs_batch when that call was all hits.  The next batch with
    equal keys gets the same matrix back, counted as hits, with no store
    change, if no other access reached the stores in between: moving
    the same keys to the most recently used end again, in the same order,
    would leave the order as it is.  ``_accesses`` counts the lock
    sections of ``_cached``, which tells a batch that nothing came
    between its own lookup and the keeping.
    """

    def __init__(self, inner: Backend, capacity: int = DEFAULT_CACHE_CAPACITY):
        if capacity < 1:
            raise ContractError("cache capacity must be positive")
        self.inner = inner
        self.tokenizer = inner.tokenizer
        self.capacity = capacity
        self._logprobs: OrderedDict[Tokens, np.ndarray] = OrderedDict()
        self._scores: OrderedDict[tuple[Tokens, Tokens], float] = OrderedDict()
        self._lock = threading.Lock()
        self._accesses = 0
        # (_accesses right after it, keys, matrix) of the last all-hit batch
        self._last_batch: tuple[int, list, np.ndarray] | None = None
        self.hits = 0
        self.misses = 0

    def info(self) -> BackendInfo:
        return self.inner.info()

    def next_logprobs(self, context: Sequence[int]) -> LogProbs:
        return self._cached(self._logprobs, [_as_tuple(context)], self._fill_one)[0]

    def next_logprobs_batch(self, contexts: Sequence[Sequence[int]]) -> np.ndarray:
        """The misses are filled by one inner batch call.  The result is
        read-only.  A batch that repeats the keys of the last one, when it
        was all hits and no other access came since, gets the same matrix
        back (see the class docstring); the matrix it held is dropped
        before a new one is built."""
        keys = _as_tuples(contexts)
        with self._lock:
            # no local name for the kept tuple: it would outlive the drop
            if self._last_batch is not None and self._last_batch[:2] == (self._accesses, keys):
                self.hits += len(keys)
                return self._last_batch[2]
            self._last_batch = None
            after = self._accesses + 1  # the count once this call's lookup is done
        rows = self._cached(self._logprobs, keys, self._fill_batch)
        out = np.array(rows) if rows else np.empty((0, self.info().vocab_size))
        out.setflags(write=False)
        with self._lock:
            if self._accesses == after:  # one all-hit lookup, and nothing else
                self._last_batch = (after, keys, out)
        return out

    def score_batch(self, pairs: Sequence[tuple[Sequence[int], Sequence[int]]]) -> list[float]:
        """The misses are scored by one inner score_batch call."""
        keys = [(_as_tuple(c), _as_tuple(k)) for c, k in pairs]
        return self._cached(self._scores, keys, self.inner.score_batch)

    def score_continuation(self, context: Sequence[int], continuation: Sequence[int]) -> float:
        # the cache's own entry point, so that a tracer can wrap it
        return self.score_batch([(context, continuation)])[0]

    def _cached(self, store: OrderedDict, keys: list, fill) -> list:
        """The value of each key: hits come from ``store``, and the distinct
        misses, in first-seen order, from one ``fill(misses)`` call, which
        must return one value per miss, in that order (else BackendError,
        with nothing stored).  Hits and misses count per key, as one call
        per key would count them: a key repeated among the misses is one
        miss, then hits.  Every hit moves to the most recently used end in
        key order, and the misses follow in first-seen order.  The store
        then drops its least recently used entries down to ``capacity``.
        Each lock section adds one to ``_accesses``: an all-hit call takes
        one, a call with misses two.

        The lookups and moves map the store's own methods over the keys, so
        an all-hit call runs no Python code per key; no stored value is
        ever None, and values are told from None by identity, since
        ``==`` on an array does not give one bool."""
        with self._lock:
            self._accesses += 1
            values = list(map(store.get, keys))
            found = list(map(is_not, values, repeat(None)))
            hit_keys = keys if all(found) else list(compress(keys, found))
            deque(map(store.move_to_end, hit_keys), 0)
            self.hits += len(hit_keys)
        if len(hit_keys) == len(keys):
            return values
        # distinct misses in first-seen order -> index into the fill
        missing = dict(zip(dict.fromkeys(compress(keys, map(not_, found))), count()))
        fresh = fill(list(missing))
        if len(fresh) != len(missing):
            raise BackendError(
                f"backend returned {len(fresh)} values for {len(missing)} cache misses"
            )
        with self._lock:
            self._accesses += 1
            self.misses += len(missing)
            self.hits += len(keys) - len(hit_keys) - len(missing)  # repeated misses
            store.update(zip(missing, fresh))
            deque(map(store.move_to_end, missing), 0)
            while len(store) > self.capacity:
                store.popitem(last=False)
        if len(missing) == len(keys):  # every key a distinct miss
            return fresh
        return [value if ok else fresh[missing[key]] for key, value, ok in zip(keys, values, found)]

    def _fill_one(self, keys: list[Tokens]) -> list[np.ndarray]:
        value = np.array(self.inner.next_logprobs(keys[0]), dtype=np.float64, order="C")
        value.setflags(write=False)
        return [value]

    def _fill_batch(self, keys: list[Tokens]) -> list[np.ndarray]:
        filled = np.asarray(self.inner.next_logprobs_batch(keys), dtype=np.float64)
        rows = [row.copy() for row in filled]
        for row in rows:
            row.setflags(write=False)
        return rows
