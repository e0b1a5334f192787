import json
import shutil
import sys
import threading
import weakref
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cboost.backend import Backend, BackendInfo, CachingBackend, token_logprobs
from cboost.cli import load_backend, vocab_sidecar_path
from cboost.errors import BackendError, ContractError
from cboost.remote import RemoteBackend
from cboost.rng import named_rng
from cboost.toy_lm import ToyBackend, ToyLMParams, WhitespaceTokenizer, save_params

from conftest import CountingBackend
from test_boosting import SparseBackend


class TestBackendInfo:
    def test_valid(self):
        info = BackendInfo(vocab_size=8, max_context=64, name="x")
        assert info.vocab_size == 8

    def test_invalid(self):
        with pytest.raises(ContractError):
            BackendInfo(vocab_size=1, max_context=64, name="x")
        with pytest.raises(ContractError):
            BackendInfo(vocab_size=8, max_context=1, name="x")


class BareBackend(Backend):
    """A token-level backend that sets no tokenizer."""

    def info(self):
        return BackendInfo(4, 8, "bare")


class TestTokenizerRule:
    """Backend implements encode, decode and eot_token_id once, from its
    ``tokenizer``; subclasses only store one."""

    @pytest.mark.parametrize(
        "make",
        [
            BareBackend,
            lambda: ToyBackend(ToyLMParams.zeros(4, 1)),
            lambda: RemoteBackend("http://127.0.0.1:1"),  # never contacted
        ],
        ids=["bare", "toy", "remote"],
    )
    def test_without_tokenizer(self, make):
        backend = make()
        with pytest.raises(ContractError, match="--vocab"):
            backend.encode("a b")
        with pytest.raises(ContractError, match="--vocab"):
            backend.decode((0, 1))
        assert backend.eot_token_id == 0

    def test_with_tokenizer(self):
        tok = WhitespaceTokenizer(["a", "b"])
        backend = ToyBackend(ToyLMParams.zeros(tok.vocab_size, 1), tok)
        assert backend.encode("a b zzz") == (2, 3, 0)
        assert backend.decode((2, 3)) == "a b"
        assert backend.eot_token_id == tok.eot_id == 1
        cached = CachingBackend(backend)
        assert (cached.encode("b"), cached.decode((3,)), cached.eot_token_id) == ((3,), "b", 1)

    @pytest.mark.parametrize("kind", ["toy-sidecar", "toy", "remote-vocab", "remote"])
    def test_cache_takes_inner_tokenizer(self, tmp_path, kind):
        # load_backend wraps every backend in a CachingBackend, which
        # answers encode, decode and eot_token_id as its inner backend does
        vocab = tmp_path / "v.json"
        vocab.write_text(json.dumps(["a", "b"]))
        if kind.startswith("toy"):
            model = tmp_path / "m.tlm"
            save_params(ToyLMParams.zeros(4, 1), str(model))
            if kind == "toy-sidecar":
                shutil.copy(vocab, vocab_sidecar_path(str(model)))
            cached = load_backend(f"toy:{model}")
        else:  # never contacted
            cached = load_backend("remote:http://127.0.0.1:1", str(vocab) if kind == "remote-vocab" else None)
        inner = cached.inner
        assert cached.eot_token_id == inner.eot_token_id == (0 if inner.tokenizer is None else 1)
        if kind.endswith(("sidecar", "vocab")):
            assert cached.encode("a b zzz") == inner.encode("a b zzz") == (2, 3, 0)
            assert cached.decode((2, 3)) == inner.decode((2, 3)) == "a b"
            return
        for backend in (cached, inner):
            with pytest.raises(ContractError, match="--vocab"):
                backend.encode("a b")
            with pytest.raises(ContractError, match="--vocab"):
                backend.decode((0, 1))


class TestNextLogprobs:
    def test_zero_params_uniform(self, uniform_backend):
        lp = uniform_backend.next_logprobs((0, 1, 2))
        assert np.allclose(np.exp(lp), np.full(8, 1 / 8), atol=1e-12)

    def test_alternating_model_argmax(self, alternating_params):
        backend = ToyBackend(alternating_params)
        lp = backend.next_logprobs((1, 0))  # context ends in token 0
        assert int(np.argmax(lp)) == 1
        lp = backend.next_logprobs((0, 1))
        assert int(np.argmax(lp)) == 0

    def test_empty_context_rejected(self, uniform_backend):
        with pytest.raises(ContractError):
            uniform_backend.next_logprobs(())

    def test_context_too_long_rejected(self):
        backend = ToyBackend(ToyLMParams.zeros(4, 2), max_context=8)
        with pytest.raises(ContractError, match="truncate"):
            backend.next_logprobs(tuple([0] * 9))

    def test_out_of_range_token_rejected(self, uniform_backend):
        with pytest.raises(ContractError):
            uniform_backend.next_logprobs((0, 99))


class TestScoreContinuation:
    def test_single_token_equals_lookup(self, trained_backend):
        ctx = (1, 2, 3)
        got = trained_backend.score_continuation(ctx, (4,))
        assert got == float(trained_backend.next_logprobs(ctx)[4])

    def test_uniform_three_tokens(self, uniform_backend):
        got = uniform_backend.score_continuation((0,), (1, 2, 3))
        assert abs(got - 3 * np.log(1 / 8)) < 1e-12

    def test_two_token_chain_rule_oracle(self, trained_backend):
        ctx = (0, 1, 2)
        manual = float(trained_backend.next_logprobs(ctx)[5]) + float(
            trained_backend.next_logprobs(ctx + (5,))[3]
        )
        assert abs(trained_backend.score_continuation(ctx, (5, 3)) - manual) < 1e-12

    def test_chain_rule_decomposition(self, trained_backend):
        rng = named_rng(2, "chain-rule")
        for _ in range(100):
            ctx = tuple(int(t) for t in rng.integers(0, 8, size=rng.integers(1, 6)))
            a = tuple(int(t) for t in rng.integers(0, 8, size=rng.integers(1, 4)))
            b = tuple(int(t) for t in rng.integers(0, 8, size=rng.integers(1, 4)))
            whole = trained_backend.score_continuation(ctx, a + b)
            split = trained_backend.score_continuation(ctx, a) + trained_backend.score_continuation(
                ctx + a, b
            )
            assert abs(whole - split) < 1e-9

    def test_nonpositive(self, trained_backend):
        assert trained_backend.score_continuation((0, 1), (2, 3, 4)) <= 0.0

    def test_empty_parts_rejected(self, uniform_backend):
        with pytest.raises(ContractError):
            uniform_backend.score_continuation((), (1,))
        with pytest.raises(ContractError):
            uniform_backend.score_continuation((1,), ())

    def test_budget_overflow_rejected(self):
        backend = ToyBackend(ToyLMParams.zeros(4, 2), max_context=4)
        with pytest.raises(ContractError):
            backend.score_continuation((0, 1, 2), (3, 0))


def _per_token_gather(backend, seq, start, window):
    """The oracle for token_logprobs: one next_logprobs call per token."""
    return np.array(
        [backend.next_logprobs(seq[max(e - window, 0) : e])[seq[e]] for e in range(start, len(seq))]
    )


def _outcome(fn):
    """What fn returns, or the (type, message) of the ContractError it raises."""
    try:
        return fn()
    except ContractError as exc:
        return type(exc), str(exc)


@st.composite
def scorer_cases(draw):
    v = draw(st.integers(2, 9))
    seed = draw(st.integers(0, 2**16))
    kind = draw(st.sampled_from(["toy", "cached", "sparse"]))
    if kind == "sparse":
        backend = SparseBackend(v, seed)  # -inf entries, the generic batch loop
    else:
        rng = np.random.default_rng(seed)
        lags = draw(st.integers(1, 4))
        backend = ToyBackend(ToyLMParams(rng.normal(size=v) * 2, rng.normal(size=(lags, v, v)) * 2))
        if kind == "cached":
            backend = CachingBackend(backend)
    seq = tuple(draw(st.lists(st.integers(0, v - 1), min_size=1, max_size=12)))
    start = draw(st.one_of(st.sampled_from([0, 1]), st.integers(0, len(seq))))
    window = draw(st.integers(1, 15))  # shorter and longer than the sequence
    return backend, seq, start, window


class TestTokenLogprobs:
    @settings(max_examples=200, deadline=None)
    @given(scorer_cases())
    def test_equals_per_token_gather(self, case):
        backend, seq, start, window = case
        expected = _outcome(lambda: _per_token_gather(backend, seq, start, window))
        got = _outcome(lambda: token_logprobs(backend, seq, start, window))
        if isinstance(expected, tuple):  # start 0: the first token has no context
            assert got == expected
        else:
            assert got.shape == expected.shape
            assert np.array_equal(got, expected)

    @settings(max_examples=100, deadline=None)
    @given(scorer_cases())
    def test_score_continuation_adds_terms_in_order(self, case):
        backend, seq, start, _ = case
        if not 1 <= start < len(seq):
            return
        total = 0.0  # the per-token loop score_continuation replaced
        for e in range(start, len(seq)):
            total += float(backend.next_logprobs(seq[:e])[seq[e]])
        assert backend.score_continuation(seq[:start], seq[start:]) == total

    def test_out_of_range_target_rejected(self, uniform_backend):
        with pytest.raises(ContractError, match="out of range"):
            token_logprobs(uniform_backend, (0, 1, 8), 1, 4)
        with pytest.raises(ContractError, match="out of range"):
            uniform_backend.score_continuation((0,), (-1,))

    def test_window_below_one_rejected(self, uniform_backend):
        with pytest.raises(ContractError, match=">= 1"):
            token_logprobs(uniform_backend, (0, 1, 2), 1, 0)

    def test_one_batch_call(self, trained_params):
        calls = []
        backend = ToyBackend(trained_params)
        batch = backend.next_logprobs_batch
        backend.next_logprobs_batch = lambda contexts: calls.append(len(contexts)) or batch(contexts)
        backend.score_continuation((1, 2), (3, 4, 5))
        assert calls == [3]


def _score_backend(kind: str, v: int, seed: int, cached: bool) -> Backend:
    if kind == "sparse":
        backend = SparseBackend(v, seed)  # -inf entries, the generic batch loop
    else:
        rng = np.random.default_rng(seed)
        backend = ToyBackend(ToyLMParams(rng.normal(size=v) * 2, rng.normal(size=(2, v, v)) * 2))
    return CachingBackend(backend) if cached else backend


@st.composite
def score_batch_cases(draw):
    """(backend factory, pairs): pairs drawn with repeats from a small pool,
    and a pair, as a LAMA item's last-k context can be, whose short
    context equals its full one."""
    v = draw(st.integers(2, 6))
    args = (draw(st.sampled_from(["toy", "sparse"])), v, draw(st.integers(0, 2**16)),
            draw(st.booleans()))
    tokens = st.lists(st.integers(0, v - 1), min_size=1, max_size=5).map(tuple)
    pool = draw(st.lists(st.tuples(tokens, tokens), min_size=1, max_size=4))
    pairs = draw(st.lists(st.sampled_from(pool), max_size=10))
    return (lambda: _score_backend(*args)), pairs


class TestScoreBatch:
    @settings(max_examples=200, deadline=None)
    @given(score_batch_cases())
    def test_equals_per_pair_bit_for_bit(self, case):
        make, pairs = case
        per_pair, batched = make(), make()
        expected = [per_pair.score_continuation(c, k) for c, k in pairs]
        assert batched.score_batch(pairs) == expected
        if isinstance(batched, CachingBackend):
            assert (batched.hits, batched.misses) == (per_pair.hits, per_pair.misses)
            assert batched.score_batch(pairs) == expected  # now all hits
            assert batched.misses == per_pair.misses

    def test_sparse_scores_reach_minus_inf(self):
        backend = SparseBackend(6, seed=2)
        pairs = [((c,), (k, k)) for c in range(6) for k in range(6)]
        scores = backend.score_batch(pairs)
        assert -np.inf in scores
        assert scores == [backend.score_continuation(*pair) for pair in pairs]

    @staticmethod
    def _row_counted(backend):
        """``backend`` with its next_logprobs_batch calls' sizes logged."""
        calls = []
        batch = backend.next_logprobs_batch
        backend.next_logprobs_batch = lambda contexts: calls.append(len(contexts)) or batch(contexts)
        return backend, calls

    def test_one_backend_call_and_no_call_for_no_pairs(self, trained_params):
        backend, calls = self._row_counted(ToyBackend(trained_params))
        backend.score_batch([((1, 2), (3, 4, 5)), ((6,), (7,)), ((1, 2), (3, 4, 5))])
        assert calls == [7]
        assert CachingBackend(backend).score_batch([]) == []
        assert calls == [7]

    @pytest.mark.parametrize(
        "bad, match",
        [(((), (1,)), "non-empty"), (((1,), ()), "non-empty"), (((1,), (8,)), "out of range"),
         (((1, 2, 3), (4, 5)), "exceeds max_context")],
        ids=["empty-context", "empty-continuation", "out-of-range", "too-long"],
    )
    def test_every_pair_checked_before_the_backend_runs(self, bad, match):
        backend, calls = self._row_counted(ToyBackend(ToyLMParams.zeros(8, 2), max_context=4))
        with pytest.raises(ContractError, match=match):
            backend.score_batch([((1,), (2,)), bad])
        assert calls == []


class TestCachingBackend:
    def test_second_call_identical_and_free(self, trained_params):
        counting = CountingBackend(ToyBackend(trained_params))
        cached = CachingBackend(counting)
        first = cached.next_logprobs((1, 2, 3))
        calls_after_first = counting.logprob_calls
        second = cached.next_logprobs((1, 2, 3))
        assert counting.logprob_calls == calls_after_first
        assert np.array_equal(first, second)

    def test_cache_transparency_bit_identical(self, trained_params):
        plain = ToyBackend(trained_params)
        cached = CachingBackend(ToyBackend(trained_params))
        rng = named_rng(4, "cache-transparency")
        for _ in range(50):
            ctx = tuple(int(t) for t in rng.integers(0, 8, size=rng.integers(1, 8)))
            assert np.array_equal(plain.next_logprobs(ctx), cached.next_logprobs(ctx))
            cont = tuple(int(t) for t in rng.integers(0, 8, size=2))
            assert plain.score_continuation(ctx, cont) == cached.score_continuation(ctx, cont)

    def test_score_cached(self, trained_params):
        counting = CountingBackend(ToyBackend(trained_params))
        cached = CachingBackend(counting)
        a = cached.score_continuation((1, 2), (3,))
        assert counting.score_calls == 1
        b = cached.score_continuation((1, 2), (3,))
        assert counting.score_calls == 1
        assert a == b

    def test_lru_eviction(self, uniform_backend):
        counting = CountingBackend(uniform_backend)
        cached = CachingBackend(counting, capacity=2)
        cached.next_logprobs((0,))
        cached.next_logprobs((1,))
        cached.next_logprobs((2,))  # evicts (0,)
        n = counting.logprob_calls
        cached.next_logprobs((0,))
        assert counting.logprob_calls == n + 1

    def test_key_is_exact_token_sequence(self, uniform_backend):
        cached = CachingBackend(uniform_backend)
        a = cached.next_logprobs((0, 1))
        b = cached.next_logprobs((1, 0))
        assert a is not b

    def test_cached_array_readonly(self, trained_params):
        cached = CachingBackend(ToyBackend(trained_params))
        out = cached.next_logprobs((1,))
        with pytest.raises(ValueError):
            out[0] = 0.0

    def test_concurrent_queries_consistent(self, trained_params):
        cached = CachingBackend(ToyBackend(trained_params))
        contexts = [tuple(int(x) for x in np.random.default_rng(i).integers(0, 8, 5)) for i in range(16)]
        expected = {c: ToyBackend(trained_params).next_logprobs(c) for c in contexts}
        failures = []

        def worker():
            for c in contexts:
                if not np.array_equal(cached.next_logprobs(c), expected[c]):
                    failures.append(c)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures

    def test_bad_capacity(self, uniform_backend):
        with pytest.raises(ContractError):
            CachingBackend(uniform_backend, capacity=0)


class RecordingBackend(Backend):
    """Logs every call that reaches it, with its keys, in order."""

    def __init__(self, inner: Backend):
        self.inner = inner
        self.log = []

    def info(self):
        return self.inner.info()

    def next_logprobs(self, context):
        self.log.append(("next_logprobs", context))
        return self.inner.next_logprobs(context)

    def next_logprobs_batch(self, contexts):
        self.log.append(("next_logprobs_batch", list(contexts)))
        return self.inner.next_logprobs_batch(contexts)

    def score_batch(self, pairs):
        self.log.append(("score_batch", list(pairs)))
        return self.inner.score_batch(pairs)


class LRUModel:
    """The cache's contract as a plain OrderedDict LRU per store: a call's
    keys are looked up first, its distinct misses then go to the inner
    backend in one call, in first-seen order, and are inserted in that
    order before the least recently used entries are dropped."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.stores = {"rows": OrderedDict(), "scores": OrderedDict()}
        self.hits = self.misses = 0
        self.log = []

    def lookup(self, store_name, keys, method, batched):
        store = self.stores[store_name]
        missing = []
        for key in keys:
            if key in store:
                self.hits += 1
                store.move_to_end(key)
            elif key in missing:
                self.hits += 1
            else:
                self.misses += 1
                missing.append(key)
        if missing:
            self.log.append((method, missing) if batched else (method, missing[0]))
        for key in missing:
            store[key] = True
        while len(store) > self.capacity:
            store.popitem(last=False)


_key = st.lists(st.integers(0, 2), min_size=1, max_size=2).map(tuple)
# a key as a caller may give it: a tuple is its own key, a tuple of numpy
# ints finds the same entry, and a list or an array is normalized first
_formed_key = st.builds(
    lambda form, key: form(key),
    st.sampled_from([tuple, list, np.array, lambda key: tuple(map(np.int64, key))]),
    _key,
)
_cache_ops = st.lists(
    st.one_of(
        st.tuples(st.just("next_logprobs"), _formed_key),
        st.tuples(st.just("next_logprobs_batch"), st.lists(_formed_key, max_size=6)),
        st.tuples(st.just("score_continuation"), st.tuples(_formed_key, _formed_key)),
        st.tuples(st.just("score_batch"), st.lists(st.tuples(_formed_key, _formed_key), max_size=6)),
        # the last batch call again: all hits when its keys still fit
        st.tuples(st.just("again"), st.none()),
    ),
    max_size=30,
)


def _canonical(key) -> tuple:
    return tuple(map(int, key))


class TestCacheAgainstLRUModel:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6), _cache_ops)
    @example(4, [("next_logprobs_batch", [(1,), [2, 0], np.array([2, 0])]),
                 ("again", None),
                 ("next_logprobs_batch", [(np.int64(2), np.int64(0)), [1], (1,), (2, 0)]),
                 ("score_batch", [((1,), [2]), (np.array([1]), (2,))]),
                 ("again", None)])
    # an all-hit batch, then three repeats of it that the kept matrix answers
    @example(4, [("next_logprobs_batch", [(1,), [2, 0]]), ("again", None),
                 ("again", None), ("again", None), ("again", None)])
    # a single lookup of one of its keys, then a score batch, come between repeats
    @example(4, [("next_logprobs_batch", [(1,), (2, 0)]), ("again", None),
                 ("next_logprobs", [1]), ("again", None), ("again", None),
                 ("score_batch", [((1,), (2,))]),
                 ("next_logprobs_batch", [(1,), (2, 0)])])
    # one of its keys is evicted before the repeat, which must miss and refill
    @example(1, [("next_logprobs_batch", [(1,)]), ("again", None),
                 ("next_logprobs", (2,)), ("next_logprobs_batch", [(1,)]), ("again", None)])
    @example(2, [("next_logprobs_batch", [(1,), (2,)]), ("again", None),
                 ("next_logprobs", (0,)), ("next_logprobs_batch", [(1,), (2,)])])
    @example(3, [("next_logprobs_batch", [(0,), (1,), (2,)]), ("again", None),
                 ("next_logprobs_batch", [(2, 0)]), ("next_logprobs_batch", [(0,), (1,), (2,)]),
                 ("again", None)])
    # repeated keys inside the batch
    @example(4, [("next_logprobs_batch", [(1,), (1,), (2, 0), [1]]), ("again", None),
                 ("again", None), ("again", None)])
    # a call with misses keeps nothing: its misses went in after its hits
    @example(4, [("next_logprobs", (1,)), ("next_logprobs_batch", [(2,), (1,)]),
                 ("again", None), ("again", None)])
    def test_values_counts_and_inner_calls(self, trained_params, capacity, ops):
        plain = ToyBackend(trained_params)
        recording = RecordingBackend(ToyBackend(trained_params))
        cached = CachingBackend(recording, capacity=capacity)
        model = LRUModel(capacity)
        last_batch = None
        for method, arg in ops:
            if method == "again":
                if last_batch is None:
                    continue
                method, arg = last_batch
            if method == "next_logprobs":
                assert np.array_equal(cached.next_logprobs(arg), plain.next_logprobs(arg))
                model.lookup("rows", [_canonical(arg)], method, batched=False)
            elif method == "next_logprobs_batch":
                out = cached.next_logprobs_batch(arg)
                assert out.shape == (len(arg), 8)
                for row, ctx in zip(out, arg):
                    assert np.array_equal(row, plain.next_logprobs(ctx))
                model.lookup("rows", list(map(_canonical, arg)), method, batched=True)
                last_batch = method, arg
            elif method == "score_continuation":
                assert cached.score_continuation(*arg) == plain.score_continuation(*arg)
                model.lookup("scores", [tuple(map(_canonical, arg))], "score_batch", batched=True)
            else:
                assert cached.score_batch(arg) == [plain.score_continuation(*a) for a in arg]
                model.lookup("scores", [tuple(map(_canonical, a)) for a in arg], method, batched=True)
                last_batch = method, arg
            assert (cached.hits, cached.misses) == (model.hits, model.misses)
            assert recording.log == model.log
            assert list(cached._logprobs) == list(model.stores["rows"])
            assert list(cached._scores) == list(model.stores["scores"])


class WrongCountBackend(Backend):
    """A batch call returns ``extra`` more rows, or scores, than it was
    asked for (one fewer for extra = -1); next_logprobs is right."""

    def __init__(self, inner: Backend, extra: int):
        self.inner = inner
        self.extra = extra

    def info(self):
        return self.inner.info()

    def next_logprobs(self, context):
        return self.inner.next_logprobs(context)

    def next_logprobs_batch(self, contexts):
        rows = self.inner.next_logprobs_batch(list(contexts) + [(1,)] * max(self.extra, 0))
        return rows[: len(rows) + min(self.extra, 0)]

    def score_batch(self, pairs):
        scores = self.inner.score_batch(list(pairs) + [((1,), (1,))] * max(self.extra, 0))
        return scores[: len(scores) + min(self.extra, 0)]


class TestFillLengthCheck:
    """A fill that returns the wrong number of values is a backend fault,
    raised before anything is stored."""

    @pytest.mark.parametrize("extra", [-1, 1])
    @pytest.mark.parametrize("method", ["next_logprobs_batch", "score_batch"])
    def test_wrong_count_raises_and_stores_nothing(self, trained_params, method, extra):
        wrong = WrongCountBackend(ToyBackend(trained_params), 0)
        cached = CachingBackend(wrong)
        cached.next_logprobs_batch([(3,)])  # an entry in each store
        cached.score_batch([((3,), (4,))])
        wrong.extra = extra

        def stores():  # every key, in order, and the identity of its value
            return [[(k, id(v)) for k, v in store.items()] for store in (cached._logprobs, cached._scores)]

        before = stores()
        keys = [(1, 2), (2,), (1, 2)]
        arg = keys if method == "next_logprobs_batch" else [(k, (5,)) for k in keys]
        with pytest.raises(BackendError, match=f"returned {2 + extra} values for 2 cache misses"):
            getattr(cached, method)(arg)
        assert stores() == before
        assert cached.misses == 2


# every form of the context (1, 2): a tuple is its own key, and tuples of
# numpy ints or bools hash and compare equal to it; other sequences are
# normalized first
KEY_FORMS = [(1, 2), (np.int64(1), 2), (True, 2), [1, 2], np.array([1, 2])]


class TestCacheKeyRule:
    def _cached(self, trained_params):
        recording = RecordingBackend(ToyBackend(trained_params))
        return CachingBackend(recording), recording

    def test_next_logprobs_one_entry(self, trained_params):
        expected = ToyBackend(trained_params).next_logprobs((1, 2))
        cached, recording = self._cached(trained_params)
        for form in KEY_FORMS:
            assert np.array_equal(cached.next_logprobs(form), expected)
        assert recording.log == [("next_logprobs", (1, 2))]
        assert (cached.hits, cached.misses) == (len(KEY_FORMS) - 1, 1)
        assert list(cached._logprobs) == [(1, 2)]

    def test_next_logprobs_batch_one_entry(self, trained_params):
        expected = ToyBackend(trained_params).next_logprobs((1, 2))
        cached, recording = self._cached(trained_params)
        out = cached.next_logprobs_batch(KEY_FORMS)
        assert all(np.array_equal(row, expected) for row in out)
        assert recording.log == [("next_logprobs_batch", [(1, 2)])]
        per_item, _ = self._cached(trained_params)
        for form in KEY_FORMS:
            per_item.next_logprobs(form)
        assert (cached.hits, cached.misses) == (per_item.hits, per_item.misses)
        assert list(cached._logprobs) == [(1, 2)]

    def test_score_continuation_one_entry(self, trained_params):
        expected = ToyBackend(trained_params).score_continuation((1, 2), (1, 2))
        cached, recording = self._cached(trained_params)
        for form in KEY_FORMS:
            assert cached.score_continuation(form, form) == expected
        assert recording.log == [("score_batch", [((1, 2), (1, 2))])]
        assert (cached.hits, cached.misses) == (len(KEY_FORMS) - 1, 1)
        assert list(cached._scores) == [((1, 2), (1, 2))]


# ---------------------------------------------------------------------------
# Batched next-token scoring against the per-item path
# ---------------------------------------------------------------------------

def _contexts(vocab: int, max_len: int = 9):
    return st.lists(
        st.lists(st.integers(0, vocab - 1), min_size=1, max_size=max_len).map(tuple),
        max_size=12,
    )


class TestToyBackendBatch:
    @settings(max_examples=100, deadline=None)
    @given(_contexts(8))
    def test_rows_equal_per_item(self, trained_params, contexts):
        # mixed lengths: the rows come from several length groups
        backend = ToyBackend(trained_params)
        out = backend.next_logprobs_batch(contexts)
        assert out.shape == (len(contexts), 8)
        for row, ctx in zip(out, contexts):
            assert np.array_equal(row, backend.next_logprobs(ctx))

    def test_rows_equal_per_item_past_lag_depth(self):
        params = ToyLMParams(
            named_rng(5, "batch-bias").normal(size=5),
            named_rng(5, "batch-lags").normal(size=(2, 5, 5)),
        )
        backend = ToyBackend(params)
        contexts = [(1,), (2, 3), (4, 0, 1), (1, 2, 3, 4, 0), (3, 3, 3)]
        out = backend.next_logprobs_batch(contexts)
        for row, ctx in zip(out, contexts):
            assert np.array_equal(row, backend.next_logprobs(ctx))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**16),
        st.integers(1, 4),
        st.lists(st.integers(1, 200), min_size=1, max_size=10),
    )
    def test_rows_equal_per_item_up_to_200_tokens(self, seed, lags, lengths):
        # contexts far past the lag depth share a lag window length group;
        # tuples, lists and integer arrays are all token sequences
        rng = named_rng(seed, "batch-long")
        backend = ToyBackend(ToyLMParams(rng.normal(size=6), rng.normal(size=(lags, 6, 6))))
        contexts = [tuple(int(t) for t in rng.integers(0, 6, n)) for n in lengths]
        kinds = [tuple, list, np.array]
        out = backend.next_logprobs_batch([kinds[i % 3](c) for i, c in enumerate(contexts)])
        for row, ctx in zip(out, contexts):
            assert np.array_equal(row, backend.next_logprobs(ctx))

    @pytest.mark.parametrize(
        "bad",
        [(), tuple([0] * 9), (0, 99), (-1, 2), (99, 0, 1, 2), (-1, 0, 1, 2)],
        ids=[
            "empty", "too-long", "id-too-large", "id-negative",
            "id-too-large-past-lag", "id-negative-past-lag",
        ],
    )
    def test_per_item_contract_errors(self, bad):
        backend = ToyBackend(ToyLMParams.zeros(4, 2), max_context=8)
        with pytest.raises(ContractError) as per_item:
            backend.next_logprobs(bad)
        with pytest.raises(ContractError) as batched:
            backend.next_logprobs_batch([(1, 2), bad])
        assert str(batched.value) == str(per_item.value)

    def test_empty_batch(self, uniform_backend):
        assert uniform_backend.next_logprobs_batch([]).shape == (0, 8)


class TestCachingBackendBatch:
    @settings(max_examples=100, deadline=None)
    @given(_contexts(3, max_len=3))
    def test_counts_and_rows_match_per_item(self, trained_params, contexts):
        # a small vocabulary and short contexts make repeats common
        per_item = CachingBackend(ToyBackend(trained_params))
        expected = [per_item.next_logprobs(c) for c in contexts]
        batched = CachingBackend(ToyBackend(trained_params))
        out = batched.next_logprobs_batch(contexts)
        assert (batched.hits, batched.misses) == (per_item.hits, per_item.misses)
        for row, exp in zip(out, expected):
            assert np.array_equal(row, exp)

    def test_repeat_within_batch_is_one_miss_then_hits(self, trained_params):
        counting = CountingBackend(ToyBackend(trained_params))
        cached = CachingBackend(counting)
        cached.next_logprobs_batch([(1, 2), (3,), (1, 2), (1, 2)])
        assert (cached.misses, cached.hits) == (2, 2)
        assert counting.logprob_calls == 2
        cached.next_logprobs_batch([(3,), (1, 2)])
        assert (cached.misses, cached.hits) == (2, 4)
        assert counting.logprob_calls == 2

    def test_rows_read_only(self, trained_params):
        cached = CachingBackend(ToyBackend(trained_params))
        for _ in range(2):  # filled by misses, then served from hits
            out = cached.next_logprobs_batch([(1,), (2, 3)])
            with pytest.raises(ValueError):
                out[0, 0] = 0.0
        with pytest.raises(ValueError):
            cached.next_logprobs((1,))[0] = 0.0

    def test_eviction_at_capacity(self, uniform_backend):
        counting = CountingBackend(uniform_backend)
        cached = CachingBackend(counting, capacity=2)
        out = cached.next_logprobs_batch([(0,), (1,), (2,)])  # evicts (0,)
        assert out.shape == (3, 8)
        assert len(cached._logprobs) == 2
        n = counting.logprob_calls
        cached.next_logprobs_batch([(1,), (2,)])
        assert counting.logprob_calls == n
        cached.next_logprobs_batch([(0,)])
        assert counting.logprob_calls == n + 1
        assert len(cached._logprobs) == 2

    def test_concurrent_batches_count_every_key(self, trained_params):
        # threads share one cache, as the server's do: no lookup is lost
        # from the counts, every row is right and the bound holds
        toy = ToyBackend(trained_params)
        cached = CachingBackend(ToyBackend(trained_params), capacity=24)
        rng = named_rng(9, "concurrent-batches")
        batches = [[tuple(map(int, rng.integers(0, 3, rng.integers(1, 4)))) for _ in range(12)]
                   for _ in range(64)]
        expected = {c: toy.next_logprobs(c) for batch in batches for c in batch}
        failures = []

        def worker(mine):
            for batch in mine:
                out = cached.next_logprobs_batch(batch)
                if not all(np.array_equal(row, expected[c]) for row, c in zip(out, batch)):
                    failures.append(batch)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(batches[i::8],)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not failures
        assert cached.hits + cached.misses == sum(map(len, batches))
        assert len(cached._logprobs) <= 24

    def test_key_filled_meanwhile_moves_to_the_end(self, trained_params):
        # another caller fills (2,) while this call's fill runs, outside the
        # lock: the misses still end up most recently used, in order
        toy = ToyBackend(trained_params)

        class Meanwhile(Backend):
            def info(self):
                return toy.info()

            def next_logprobs(self, context):
                return toy.next_logprobs(context)

            def next_logprobs_batch(self, contexts):
                cached.next_logprobs((2,))
                cached.next_logprobs((3,))
                return toy.next_logprobs_batch(contexts)

        cached = CachingBackend(Meanwhile())
        out = cached.next_logprobs_batch([(2,), (1,)])
        assert list(cached._logprobs) == [(3,), (2,), (1,)]
        assert (cached.hits, cached.misses) == (0, 4)
        assert np.array_equal(out, toy.next_logprobs_batch([(2,), (1,)]))

    def test_shares_entries_with_per_item_calls(self, trained_params):
        counting = CountingBackend(ToyBackend(trained_params))
        cached = CachingBackend(counting)
        single = cached.next_logprobs((4, 5))
        out = cached.next_logprobs_batch([(4, 5)])
        assert counting.logprob_calls == 1
        assert np.array_equal(out[0], single)
        row = cached.next_logprobs_batch([(6,)])[0]
        assert np.array_equal(cached.next_logprobs((6,)), row)
        assert counting.logprob_calls == 2


class BufferBackend(Backend):
    """Answers next_logprobs in one output buffer that every call rewrites,
    returning the buffer itself or, with ``view``, a fresh view of it."""

    def __init__(self, inner: Backend, view: bool):
        self.inner = inner
        self.view = view
        self.buf = np.empty(inner.info().vocab_size)

    def info(self):
        return self.inner.info()

    def next_logprobs(self, context):
        self.buf[:] = self.inner.next_logprobs(context)
        return self.buf[:] if self.view else self.buf


class TestFillCopies:
    @pytest.mark.parametrize("view", [False, True], ids=["buffer", "view"])
    def test_inner_may_reuse_its_output_buffer(self, trained_params, view):
        toy = ToyBackend(trained_params)
        inner = BufferBackend(ToyBackend(trained_params), view)
        cached = CachingBackend(inner)
        first = cached.next_logprobs((0,)).copy()
        second = cached.next_logprobs((1,))
        assert np.array_equal(first, toy.next_logprobs((0,)))
        assert np.array_equal(second, toy.next_logprobs((1,)))
        assert np.array_equal(cached.next_logprobs((0,)), first)
        assert cached.misses == 2
        for row in cached._logprobs.values():
            assert row.dtype == np.float64 and row.flags.c_contiguous
            assert not row.flags.writeable
            assert not np.shares_memory(row, inner.buf)


class TestRepeatedBatch:
    def test_repeat_returns_the_kept_matrix(self, trained_params):
        counting = CountingBackend(ToyBackend(trained_params))
        cached = CachingBackend(counting)
        keys = [(1,), (2, 3), (1,)]
        cached.next_logprobs_batch(keys)  # misses: nothing kept
        first = cached.next_logprobs_batch(keys)  # all hits: kept
        calls, hits = counting.logprob_calls, cached.hits
        again = cached.next_logprobs_batch([(1,), [2, 3], np.array([1])])
        assert again is first
        assert (counting.logprob_calls, cached.hits) == (calls, hits + 3)
        assert not again.flags.writeable
        assert not any(np.shares_memory(again, row) for row in cached._logprobs.values())

    def test_kept_matrix_dropped_before_the_next_is_built(self, trained_params):
        toy = ToyBackend(trained_params)
        alive_during_fill = []

        class Probe(Backend):
            def info(self):
                return toy.info()

            def next_logprobs(self, context):
                return toy.next_logprobs(context)

            def next_logprobs_batch(self, contexts):
                alive_during_fill.append(ref is not None and ref() is not None)
                return toy.next_logprobs_batch(contexts)

        ref = None
        cached = CachingBackend(Probe())
        cached.next_logprobs_batch([(1,), (2,)])
        first = cached.next_logprobs_batch([(1,), (2,)])
        assert cached.next_logprobs_batch([(1,), (2,)]) is first
        ref = weakref.ref(first)
        del first
        assert ref() is not None  # the cache holds it
        cached.next_logprobs_batch([(3,)])  # a different batch, with a miss
        assert alive_during_fill == [False, False]
        assert ref() is None
        kept = cached.next_logprobs_batch([(3,)])  # all hits: kept
        ref = weakref.ref(kept)
        del kept
        cached.next_logprobs_batch([(1,)])  # a different all-hit batch
        assert ref() is None

    @pytest.mark.parametrize("capacity", [8, 64])
    def test_threads_repeating_a_common_batch(self, trained_params, capacity):
        # four threads, as the server's, each alternate one common batch
        # (twice, so kept matrices get asked for) and a batch of its own
        toy = ToyBackend(trained_params)
        cached = CachingBackend(ToyBackend(trained_params), capacity=capacity)
        common = [(7, t) for t in range(6)]
        own = [[(w, t, u) for t in range(2) for u in range(3)] for w in range(4)]
        expected = {tuple(b): toy.next_logprobs_batch(b).tobytes() for b in [common, *own]}
        rounds = 40
        if capacity == 64:  # above the 30 distinct keys: no eviction
            cached.next_logprobs_batch(common)  # so no two threads miss one key together
        asked = cached.hits + cached.misses
        failures = []

        def worker(mine):
            for _ in range(rounds):
                for batch in (common, common, mine, mine):
                    if cached.next_logprobs_batch(batch).tobytes() != expected[tuple(batch)]:
                        failures.append(batch)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(b,)) for b in own]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not failures
        assert cached.hits + cached.misses == asked + rounds * 4 * 2 * (len(common) + 6)
        assert len(cached._logprobs) <= capacity
        if capacity == 64:
            assert cached.misses == len(common) + sum(map(len, own))
