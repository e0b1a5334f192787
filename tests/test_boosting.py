from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cboost.backend import Backend, CachingBackend
from cboost.boosting import (
    MAX_CONTEXT,
    SHORT,
    AfterSeparator,
    BoostSpec,
    boosted_next_dist,
    boosted_next_dist_batch,
    grid_search,
    resolve_expert_contexts,
    score_choice,
)
from cboost.decode import GenConfig, generate
from cboost.errors import ContractError
from cboost.rng import named_rng
from cboost.tasks import eval_last_token
from cboost.toy_lm import ToyBackend, ToyLMParams

from conftest import SparseBackend, TableBackend


class TestBoostSpec:
    def test_entry_budget_enforced(self):
        with pytest.raises(ContractError, match="nonzero entries"):
            BoostSpec(weights={MAX_CONTEXT: 1.0, 1: -0.1, 2: -0.2})
        BoostSpec(weights={MAX_CONTEXT: 1.0, 1: -0.1, 2: -0.2}, max_entries=3)

    def test_zero_entries_do_not_count(self):
        BoostSpec(weights={MAX_CONTEXT: 1.0, 1: -0.1, 2: 0.0})

    def test_fixed_length_must_be_positive(self):
        with pytest.raises(ContractError):
            BoostSpec(weights={MAX_CONTEXT: 1.0, 0: -0.5})

    def test_short_key_needs_policy(self):
        with pytest.raises(ContractError):
            BoostSpec(weights={MAX_CONTEXT: 1.0, SHORT: -0.5})
        BoostSpec(weights={MAX_CONTEXT: 1.0, SHORT: -0.5}, policy=AfterSeparator(1))

    def test_weights_must_be_finite(self):
        with pytest.raises(ContractError):
            BoostSpec(weights={MAX_CONTEXT: float("inf")})

    def test_unknown_sentinel_rejected(self):
        with pytest.raises(ContractError):
            BoostSpec(weights={"mystery": 1.0})


class TestBoostedNextDist:
    def test_base_spec_bit_identical(self, trained_backend):
        ctx = (1, 2, 3, 4, 5)
        lp = boosted_next_dist(trained_backend, ctx, BoostSpec.base_model())
        assert np.array_equal(lp, trained_backend.next_logprobs(ctx))

    def test_hand_built_two_expert_case(self):
        backend = TableBackend(
            2, {(0, 1): [0.8, 0.2], (1,): [0.5, 0.5]}, max_context=16
        )
        spec = BoostSpec(weights={MAX_CONTEXT: 1.5, 1: -0.5})
        out = np.exp(boosted_next_dist(backend, (0, 1), spec))
        assert np.allclose(out, [0.8889, 0.1111], atol=1e-4)
        assert np.allclose(out, [8 / 9, 1 / 9], atol=1e-12)

    def test_expert_collapse_when_k_covers_context(self, trained_backend):
        ctx = (3, 1, 4)
        base = trained_backend.next_logprobs(ctx)
        for alpha in (-1.0, -0.5, 0.3, 0.9):
            spec = BoostSpec(weights={MAX_CONTEXT: 1.0 - alpha, 5: alpha})
            lp = boosted_next_dist(trained_backend, ctx, spec)
            assert np.max(np.abs(lp - base)) <= 1e-12

    def test_collapse_sums_weights(self, trained_backend):
        # k >= len(ctx): weights merge, here to 1.0, giving the base exactly
        ctx = (3, 1)
        spec = BoostSpec(weights={MAX_CONTEXT: 0.25, 7: 0.75})
        lp = boosted_next_dist(trained_backend, ctx, spec)
        assert np.array_equal(lp, trained_backend.next_logprobs(ctx))

    def test_all_zero_weights_uniform(self, trained_backend):
        spec = BoostSpec(weights={MAX_CONTEXT: 0.0})
        lp = boosted_next_dist(trained_backend, (1, 2, 3), spec)
        assert np.allclose(np.exp(lp), np.full(8, 1 / 8), atol=1e-12)

    def test_empty_context_rejected(self, trained_backend):
        with pytest.raises(ContractError):
            boosted_next_dist(trained_backend, (), BoostSpec.base_model())

    def test_continuous_in_alpha(self, trained_backend):
        ctx = tuple(int(t) for t in named_rng(8, "cont").integers(0, 8, size=12))
        C = 50.0  # Lipschitz bound from the clamp floor (|ln 1e-10| ~ 23)
        step = 1e-3
        prev = None
        for alpha in np.arange(-1.0, 0.0 + step, step):
            spec = BoostSpec(weights={MAX_CONTEXT: 1.0, 5: float(alpha)})
            p = np.exp(boosted_next_dist(trained_backend, ctx, spec))
            if prev is not None:
                assert np.max(np.abs(p - prev)) <= C * step
            prev = p

    def test_after_separator_policy(self, trained_backend):
        spec = BoostSpec.after_separator(separator=7, alpha=-0.5)
        ctx = (1, 2, 7, 3, 4)
        experts = resolve_expert_contexts(ctx, spec)
        assert (ctx, 1.0) in experts
        assert ((3, 4), -0.5) in experts

    def test_after_separator_empty_suffix_unboosted(self, trained_backend):
        spec = BoostSpec.after_separator(separator=7, alpha=-0.5)
        ctx = (1, 2, 7)
        lp = boosted_next_dist(trained_backend, ctx, spec)
        assert np.array_equal(lp, trained_backend.next_logprobs(ctx))


class TestScoreChoice:
    def test_alpha_zero_is_base_ranking(self, trained_backend):
        full = (1, 2, 3)
        short = (3,)
        s = score_choice(trained_backend, full, short, (4, 5), 0.0)
        assert s.combined == s.full_logprob

    def test_alpha_minus_one_is_pmi(self, trained_backend):
        full = (1, 2, 3)
        short = (3,)
        answer = (4, 5)
        s = score_choice(trained_backend, full, short, answer, -1.0)
        # independent two-pass scorer: walk the chain rule by hand twice
        def walk(ctx):
            total = 0.0
            c = ctx
            for t in answer:
                total += float(trained_backend.next_logprobs(c)[t])
                c = c + (t,)
            return total

        pmi = walk(full) - walk(short)
        assert abs(s.combined - pmi) <= 1e-12

    def test_additive_in_alpha(self, trained_backend):
        full, short, answer = (1, 2, 3), (3,), (4,)
        a1, a2 = -0.7, 0.3
        s1 = score_choice(trained_backend, full, short, answer, a1)
        s2 = score_choice(trained_backend, full, short, answer, a2)
        s12 = score_choice(trained_backend, full, short, answer, a1 + a2)
        assert abs(s1.combined + s2.combined - s1.full_logprob - s12.combined) <= 1e-12

    def test_combined_invariant(self, trained_backend):
        s = score_choice(trained_backend, (1, 2), (2,), (3,), -0.4)
        assert s.combined == s.full_logprob + (-0.4) * s.short_logprob

    def test_empty_premise_free_context_rejected(self, trained_backend):
        # the task harness substitutes the end-of-text token, not score_choice
        with pytest.raises(ContractError, match="non-empty"):
            score_choice(trained_backend, (1, 2), (), (3,), -1.0)

    def test_empty_answer_rejected(self, trained_backend):
        with pytest.raises(ContractError):
            score_choice(trained_backend, (1,), (1,), (), 0.0)


def flip_params_and_tokenizer():
    """Handcrafted model where the base ranking and the PMI ranking of two
    answers disagree."""
    from cboost.toy_lm import WhitespaceTokenizer

    tok = WhitespaceTokenizer(["p", "q", "x", "y"])  # ids: p=2 q=3 x=4 y=5
    v = tok.vocab_size
    dist_short = np.array([0.075, 0.075, 0.075, 0.075, 0.1, 0.6])  # f(.|q)
    dist_full = np.array([0.025, 0.025, 0.025, 0.025, 0.4, 0.5])  # f(.|p q)
    params = ToyLMParams.zeros(v, 2)
    params.lag_tables[0][3] = np.log(dist_short)  # lag 1 from q
    params.lag_tables[1][2] = np.log(dist_full) - np.log(dist_short)  # lag 2 from p
    return params, tok, dist_full, dist_short


class TestRankingFlip:
    def test_argmax_flips_between_base_and_pmi(self):
        params, tok, dist_full, dist_short = flip_params_and_tokenizer()
        backend = ToyBackend(params, tok)
        full = tok.encode("p q")
        short = tok.encode("q")
        x, y = tok.encode("x"), tok.encode("y")
        base_x = score_choice(backend, full, short, x, 0.0).combined
        base_y = score_choice(backend, full, short, y, 0.0).combined
        pmi_x = score_choice(backend, full, short, x, -1.0).combined
        pmi_y = score_choice(backend, full, short, y, -1.0).combined
        # brute-force oracle straight from the prescribed tables
        assert base_x < base_y  # 0.4 < 0.5
        assert pmi_x > pmi_y  # 4.0 > 0.833
        assert abs(pmi_x - np.log(dist_full[4] / dist_short[4])) < 1e-9
        assert abs(pmi_y - np.log(dist_full[5] / dist_short[5])) < 1e-9


class TestGridSearch:
    def test_alpha_zero_grid_returns_base(self, trained_backend, copy_task):
        items = copy_task.items[:40]
        res = grid_search(trained_backend, items, [1, 5, 9], [0.0])
        base = eval_last_token(trained_backend, items, None, 0.0).accuracy
        assert res.alpha == 0.0
        assert res.score == base

    def test_tie_breaks_prefer_small_alpha_then_small_k(self, trained_backend):
        constant = lambda backend, dataset, k, alpha, objective: 0.5
        res = grid_search(
            trained_backend, [object()], [3, 1], [-0.5, 0.25, -0.1],
            evaluate=constant,
        )
        assert res.alpha == -0.1
        assert res.k == 1

    def test_never_below_base_column(self, undertrained_params, copy_task):
        backend = ToyBackend(undertrained_params)
        items = copy_task.items[:60]
        res = grid_search(backend, items, [2, 6], [-0.5, 0.0])
        base_scores = [
            eval_last_token(backend, items, k, 0.0).accuracy for k in (2, 6)
        ]
        assert res.score >= max(base_scores)

    def test_nll_objective_minimizes(self, trained_backend, copy_task):
        items = copy_task.items[:30]
        res = grid_search(trained_backend, items, [5], [-0.5, 0.0], objective="nll")
        table = {(k, a): s for k, a, s in res.table}
        assert res.score == min(table.values())

    def test_empty_inputs_rejected(self, trained_backend):
        with pytest.raises(ContractError):
            grid_search(trained_backend, [], [1], [0.0])
        with pytest.raises(ContractError):
            grid_search(trained_backend, [object()], [], [0.0])


# ---------------------------------------------------------------------------
# Batched boosting against the per-item path
# ---------------------------------------------------------------------------

WEIGHTS = st.sampled_from([0.0, 1.0, -1.0, -0.5, 0.25, 1.5, -2.0])


# the forms a caller may pass a context in
CONTEXT_FORMS = st.sampled_from([
    tuple,
    list,
    lambda c: np.array(c, dtype=np.int64),
    lambda c: tuple(np.int64(t) for t in c),
])


@st.composite
def batch_cases(draw):
    """(vocab, seed, contexts of mixed lengths and forms, spec).  The
    short lengths reach past the longest context, so k >= len(context)
    collapses occur, and every weight may be zero or negative.  One spec
    in three is an after-separator spec, whose short expert reads the
    tokens after the last separator."""
    v = draw(st.integers(2, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    contexts = draw(
        st.lists(
            st.builds(
                lambda form, c: form(c),
                CONTEXT_FORMS,
                st.lists(st.integers(0, v - 1), min_size=1, max_size=7),
            ),
            min_size=1,
            max_size=10,
        )
    )
    ks = draw(st.lists(st.integers(1, 8), min_size=1, max_size=2, unique=True))
    weights = {MAX_CONTEXT: draw(WEIGHTS), **{k: draw(WEIGHTS) for k in ks}}
    if draw(st.integers(0, 2)) == 0:
        weights = {MAX_CONTEXT: weights[MAX_CONTEXT], SHORT: draw(WEIGHTS), ks[0]: weights[ks[0]]}
        spec = BoostSpec(weights, AfterSeparator(draw(st.integers(0, v - 1))), max_entries=3)
    else:
        spec = BoostSpec(weights=weights, max_entries=3)
    return v, seed, contexts, spec


def _outcome(fn):
    """The array fn returns, or the (type, message) of the ContractError it
    raises."""
    try:
        return fn()
    except ContractError as exc:
        return type(exc), str(exc)


def _assert_batch_matches_per_item(backend, contexts, spec):
    per_row = []
    for ctx in contexts:
        single = _outcome(lambda: boosted_next_dist(backend, ctx, spec))
        batched = _outcome(lambda: boosted_next_dist_batch(backend, [ctx], spec))
        if isinstance(single, tuple):
            assert batched == single
        else:
            assert batched.shape == (1, single.size)
            assert np.array_equal(batched[0], single)
        per_row.append(single)
    whole = _outcome(lambda: boosted_next_dist_batch(backend, contexts, spec))
    if any(isinstance(row, tuple) for row in per_row):
        # some row fails: the batch fails too (with the error of whichever
        # failing row's group it mixes first)
        assert isinstance(whole, tuple)
    else:
        assert np.array_equal(whole, np.stack(per_row))


class TestBoostedNextDistBatch:
    @settings(max_examples=150, deadline=None)
    @given(batch_cases())
    def test_equals_stacked_per_item_on_toy_models(self, case):
        v, seed, contexts, spec = case
        rng = np.random.default_rng(seed)
        params = ToyLMParams(rng.normal(size=v) * 2, rng.normal(size=(3, v, v)) * 2)
        _assert_batch_matches_per_item(ToyBackend(params), contexts, spec)
        _assert_batch_matches_per_item(CachingBackend(ToyBackend(params)), contexts, spec)

    @settings(max_examples=150, deadline=None)
    @given(batch_cases())
    def test_equals_stacked_per_item_with_zero_probabilities(self, case):
        v, seed, contexts, spec = case
        _assert_batch_matches_per_item(SparseBackend(v, seed), contexts, spec)
        _assert_batch_matches_per_item(CachingBackend(SparseBackend(v, seed)), contexts, spec)

    def test_all_zero_weights_uniform(self, trained_backend):
        spec = BoostSpec(weights={MAX_CONTEXT: 0.0, 3: 0.0})
        out = boosted_next_dist_batch(trained_backend, [(1, 2, 3), (4,)], spec)
        assert np.array_equal(out, np.full((2, 8), -np.log(8)))

    def test_collapse_and_mix_in_one_batch(self, trained_backend):
        # k=3 covers the first two contexts (one expert, weight 0.5) but
        # not the third (two experts): two groups, each bit-identical
        spec = BoostSpec(weights={MAX_CONTEXT: 1.0, 3: -0.5})
        contexts = [(1, 2), (5, 6, 7), (1, 2, 3, 4)]
        out = boosted_next_dist_batch(trained_backend, contexts, spec)
        for row, ctx in zip(out, contexts):
            assert np.array_equal(row, boosted_next_dist(trained_backend, ctx, spec))

    def test_empty_context_rejected(self, trained_backend):
        with pytest.raises(ContractError):
            boosted_next_dist_batch(trained_backend, [(1,), ()], BoostSpec.base_model())

    def test_one_backend_batch_call_in_per_item_order(self, trained_backend):
        seen = []

        class Recording(Backend):
            def info(self):
                return trained_backend.info()

            def next_logprobs_batch(self, contexts):
                seen.append(list(contexts))
                return trained_backend.next_logprobs_batch(contexts)

        spec = BoostSpec(weights={MAX_CONTEXT: 1.0, 2: -0.5})
        boosted_next_dist_batch(Recording(), [[1, 2, 3], (4, 5, 6)], spec)
        assert seen == [[(1, 2, 3), (2, 3), (4, 5, 6), (5, 6)]]


class TestTupleContextsPassThrough:
    """A tuple context is used as it is, not copied to Python ints: a tuple
    of numpy ints, a list and an array of the same ids give the same rows,
    expert contexts and generations as the int tuple, and the range check
    still reads every token."""

    V, LAGS = 16, 3

    @pytest.fixture(scope="class")
    def backend(self):
        rng = named_rng(17, "tuple-pass-through")
        params = ToyLMParams(rng.normal(size=self.V), rng.normal(size=(self.LAGS, self.V, self.V)))
        return ToyBackend(params)

    @staticmethod
    def forms(ids):
        """The same context as an int tuple (the reference), a tuple of
        np.int64, a list and an array."""
        return [
            tuple(ids),
            tuple(np.asarray(ids, dtype=np.int64)),
            list(ids),
            np.asarray(ids, dtype=np.int64),
        ]

    def contexts(self):
        rng = named_rng(18, "tuple-pass-through-contexts")
        return [tuple(rng.integers(0, self.V, size=n).tolist()) for n in (1, 2, 3, 5, 8, 8)]

    def test_next_logprobs_rows(self, backend):
        for ids in self.contexts():
            ref, *others = [backend.next_logprobs(c) for c in self.forms(ids)]
            for row in others:
                assert row.tobytes() == ref.tobytes()

    @pytest.mark.parametrize(
        "spec",
        [BoostSpec.fixed_k(2, -0.5), BoostSpec.fixed_k(6, 0.5), BoostSpec.after_separator(3, -0.3)],
        ids=["k2", "k6-collapse", "after-separator"],
    )
    def test_resolve_expert_contexts(self, backend, spec):
        for ids in self.contexts():
            ref, *others = [resolve_expert_contexts(c, spec) for c in self.forms(ids)]
            assert all(type(t) is int for ctx, _ in ref for t in ctx)
            for experts in others:
                assert experts == ref
                assert all(type(ctx) is tuple for ctx, _ in experts)
            boosted = [boosted_next_dist(backend, c, spec) for c in self.forms(ids)]
            assert all(b.tobytes() == boosted[0].tobytes() for b in boosted)

    @pytest.mark.parametrize(
        "cfg",
        [
            GenConfig(max_new_tokens=12, mode="greedy"),
            GenConfig(max_new_tokens=12, mode="sample", top_p=0.9, seed=4),
            GenConfig(max_new_tokens=5, mode="beam", beam_width=4),
        ],
        ids=["greedy", "top-p", "beam"],
    )
    def test_generate_tokens(self, backend, cfg):
        cfg = replace(cfg, boost=BoostSpec.fixed_k(2, -0.3))
        for ids in self.contexts()[:3]:
            ref, *others = [generate(backend, c, cfg).tokens for c in self.forms(ids)]
            assert type(ref) is tuple and all(type(t) is int for t in ref)
            assert others == [ref] * len(others)

    def test_bool_tokens_read_as_ints(self, backend):
        # a bool indexes a numpy table as a mask, so the lag window goes to ints
        for context in [(True,), (np.True_, False, True, True), (1, 0, True)]:
            want = backend.next_logprobs(tuple(int(t) for t in context))
            assert backend.next_logprobs(context).tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [99, -1])
    def test_out_of_range_id_before_the_lag_window(self, backend, bad):
        ids = (bad, 1, 2, 3, 4)  # the model reads only the last 3
        for context in (ids, tuple(np.asarray(ids, dtype=np.int64))):
            with pytest.raises(ContractError, match="token id out of range"):
                backend.next_logprobs(context)
            with pytest.raises(ContractError, match="token id out of range"):
                boosted_next_dist(backend, context, BoostSpec.fixed_k(2, -0.5))
