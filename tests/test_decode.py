from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cboost.backend import Backend, BackendInfo, CachingBackend, as_tokens
from cboost.boosting import MAX_CONTEXT, BoostSpec
from cboost.decode import (
    GenConfig,
    beam_search,
    generate,
    generate_dialog,
    generation_record,
    sequence_logprob,
    step_dist,
    step_dist_batch,
)
from cboost.dist import log_softmax
from cboost.errors import BackendError, ContractError
from cboost.rng import named_rng
from cboost.toy_lm import ToyBackend, ToyLMParams

from conftest import TableBackend


class FailingBackend(Backend):
    """A fixed next-token distribution until call ``fail_from`` of
    next_logprobs, which raises BackendError, as does every later call."""

    def __init__(self, fail_from):
        self.fail_from = fail_from
        self.calls = 0

    def info(self):
        return BackendInfo(4, 1024, "failing")

    def next_logprobs(self, context):
        self.calls += 1
        if self.calls >= self.fail_from:
            raise BackendError("boom")
        return np.log(np.array([0.7, 0.1, 0.1, 0.1]))


class TestGenerate:
    def test_greedy_alternating_chain(self, alternating_params):
        backend = ToyBackend(alternating_params)
        out = generate(backend, (0,), GenConfig(max_new_tokens=8, mode="greedy"))
        assert out.tokens == (1, 0, 1, 0, 1, 0, 1, 0)
        # argmax-chain oracle, step by step
        ctx = (0,)
        for tok in out.tokens:
            assert tok == int(np.argmax(backend.next_logprobs(ctx)))
            ctx = ctx + (tok,)

    def test_zero_alpha_boost_byte_identical(self, trained_backend):
        cfg_plain = GenConfig(max_new_tokens=24, mode="sample", seed=77)
        cfg_boost = GenConfig(
            max_new_tokens=24,
            mode="sample",
            seed=77,
            boost=BoostSpec(weights={MAX_CONTEXT: 1.0, 5: 0.0}),
        )
        a = generate(trained_backend, (1, 2, 3), cfg_plain)
        b = generate(trained_backend, (1, 2, 3), cfg_boost)
        assert a.tokens == b.tokens

    def test_determinism(self, trained_backend):
        cfg = GenConfig(max_new_tokens=32, mode="sample", temperature=0.9, seed=5)
        a = generate(trained_backend, (4, 2), cfg)
        b = generate(trained_backend, (4, 2), cfg)
        assert a.tokens == b.tokens

    def test_exact_length_without_stop(self, trained_backend):
        out = generate(trained_backend, (0,), GenConfig(max_new_tokens=17))
        assert len(out.tokens) == 17
        assert out.error is None

    def test_stop_token_halts(self, alternating_params):
        backend = ToyBackend(alternating_params)
        out = generate(
            backend, (0,), GenConfig(max_new_tokens=50, stop_tokens=frozenset({0}))
        )
        assert out.tokens[-1] == 0
        assert len(out.tokens) == 2  # generates 1 then 0

    def test_context_window_slides(self, trained_params):
        backend = ToyBackend(trained_params, max_context=16)
        out = generate(backend, tuple([1] * 12), GenConfig(max_new_tokens=30))
        assert len(out.tokens) == 30

    def test_backend_failure_raises(self):
        backend = FailingBackend(fail_from=4)
        with pytest.raises(BackendError, match="boom"):
            generate(backend, (0,), GenConfig(max_new_tokens=10))
        assert backend.calls == 4

    def test_empty_prompt_rejected(self, trained_backend):
        with pytest.raises(ContractError):
            generate(trained_backend, (), GenConfig())


class TestStepPipelineOrder:
    def test_temperature_applied_before_truncation(self):
        backend = TableBackend(3, {(0,): [0.55, 0.35, 0.10]})
        cfg = GenConfig(mode="sample", temperature=0.5, top_p=0.92)
        p = step_dist(backend, (0,), cfg)
        # sharpening first concentrates mass so top-p keeps only two tokens
        sq = np.array([0.55, 0.35, 0.10]) ** 2
        sharp = sq / sq.sum()
        expected = np.array([sharp[0], sharp[1], 0.0])
        expected /= expected.sum()
        assert p[2] == 0.0
        assert np.allclose(p, expected, atol=1e-12)
        # the reverse order would have kept all three tokens
        assert np.cumsum([0.55, 0.35, 0.10])[1] < 0.92

    def test_top_k_then_top_p(self):
        backend = TableBackend(4, {(0,): [0.4, 0.3, 0.2, 0.1]})
        cfg = GenConfig(mode="sample", top_k=3, top_p=0.5)
        p = step_dist(backend, (0,), cfg)
        assert p[3] == 0.0  # dropped by top-k
        assert np.count_nonzero(p) == 2  # then top-p keeps 0.4+0.3 renormalized


class TestGenConfig:
    def test_beam_mode_needs_width(self):
        with pytest.raises(ContractError):
            GenConfig(mode="beam")

    def test_width_only_in_beam_mode(self):
        with pytest.raises(ContractError):
            GenConfig(mode="greedy", beam_width=4)

    def test_negative_budget_rejected(self):
        with pytest.raises(ContractError):
            GenConfig(max_new_tokens=-1)

    @pytest.mark.parametrize("temperature", [0.0, -1.0, float("nan"), float("inf")])
    def test_temperature_positive_and_finite(self, temperature):
        with pytest.raises(ContractError, match="temperature"):
            GenConfig(temperature=temperature)

    @pytest.mark.parametrize("top_p", [0.0, -0.5, 1.5, float("nan")])
    def test_top_p_in_unit_interval(self, top_p):
        with pytest.raises(ContractError, match="top_p"):
            GenConfig(mode="sample", top_p=top_p)
        GenConfig(mode="sample", top_p=1.0)

    def test_top_k_at_least_one(self):
        with pytest.raises(ContractError, match="top_k"):
            GenConfig(mode="sample", top_k=0)
        GenConfig(mode="sample", top_k=1)


class TestDialog:
    def make_flip_backend(self):
        # conversation (0,), separator 2; step 1 unboosted picks token 0;
        # at step 2 the response-only expert flips the argmax
        return TableBackend(
            3,
            {
                (0, 2): [0.6, 0.3, 0.1],        # step 1, full context
                (0, 2, 0): [0.5, 0.4, 0.1],     # step 2, full context
                (0,): [0.6, 0.2, 0.2],          # step 2, response-so-far
            },
        )

    def test_alpha_zero_equals_plain_greedy(self, trained_backend):
        cfg = GenConfig(max_new_tokens=12)
        dialog = generate_dialog(trained_backend, (1, 2, 3), separator=7, alpha=0.0, cfg=cfg)
        plain = generate(trained_backend, (1, 2, 3, 7), cfg)
        assert dialog.tokens == plain.tokens

    def test_pmi_penalty_flips_second_step(self):
        backend = self.make_flip_backend()
        cfg = GenConfig(max_new_tokens=2)
        plain = generate_dialog(backend, (0,), separator=2, alpha=0.0, cfg=cfg)
        boosted = generate_dialog(backend, (0,), separator=2, alpha=-1.0, cfg=cfg)
        assert plain.tokens == (0, 0)
        assert boosted.tokens[0] == 0  # first step unboosted either way
        # exhaustive per-step enumeration of the boosted step-2 scores
        full = np.array([0.5, 0.4, 0.1])
        short = np.array([0.6, 0.2, 0.2])
        mixed = np.log(full) - np.log(short)
        assert boosted.tokens[1] == int(np.argmax(mixed)) == 1

    def test_first_step_unboosted_any_alpha(self):
        backend = self.make_flip_backend()
        cfg = GenConfig(max_new_tokens=1)
        for alpha in (0.0, -5.0, 3.0):
            out = generate_dialog(backend, (0,), separator=2, alpha=alpha, cfg=cfg)
            assert out.tokens == (0,)

    def test_default_budget(self, trained_backend):
        out = generate_dialog(trained_backend, (1, 2), separator=3, alpha=-0.3)
        assert len(out.tokens) == 64

    def test_beam_mode_rejected(self, trained_backend):
        with pytest.raises(ContractError):
            generate_dialog(
                trained_backend, (1,), 2, -0.5, GenConfig(mode="beam", beam_width=2)
            )


class TestBeam:
    @pytest.mark.parametrize("fail_from", [1, 3, 6, 7, 8, 9, 11])
    def test_backend_failure_raises(self, fail_from):
        # width 2, 3 tokens: calls 1-5 score the beam steps, 6-8 the greedy
        # floor's generation and 9-11 its sequence_logprob
        cfg = GenConfig(mode="beam", beam_width=2, max_new_tokens=3)
        assert beam_search(FailingBackend(fail_from=12), (0,), cfg).tokens == (0, 0, 0)
        backend = FailingBackend(fail_from)
        with pytest.raises(BackendError, match="boom"):
            beam_search(backend, (0,), cfg)
        assert backend.calls == fail_from

    def test_width_one_equals_greedy(self, trained_backend):
        cfg = GenConfig(mode="beam", beam_width=1, max_new_tokens=10)
        beam = beam_search(trained_backend, (2, 3), cfg)
        greedy = generate(trained_backend, (2, 3), GenConfig(max_new_tokens=10))
        assert beam.tokens == greedy.tokens

    def test_needs_beam_config(self, trained_backend):
        with pytest.raises(ContractError, match="beam-mode"):
            beam_search(trained_backend, (2, 3), GenConfig(max_new_tokens=3))

    def test_beam_beats_greedy_two_step(self):
        backend = TableBackend(
            2, {(0,): [0.6, 0.4], (0, 0): [0.5, 0.5], (0, 1): [0.1, 0.9]}
        )
        cfg = GenConfig(mode="beam", beam_width=2, max_new_tokens=2)
        out = beam_search(backend, (0,), cfg)
        # exhaustive path enumeration
        paths = {
            (0, 0): 0.6 * 0.5,
            (0, 1): 0.6 * 0.5,
            (1, 0): 0.4 * 0.1,
            (1, 1): 0.4 * 0.9,
        }
        assert out.tokens == max(sorted(paths), key=lambda p: paths[p])
        greedy_total = paths[(0, 0)]
        assert paths[out.tokens] > greedy_total

    def test_greedy_floor_when_beam_prunes_greedy_prefix(self):
        # beam 2 prunes the greedy prefix, whose continuation is far better
        backend = TableBackend(
            4,
            {
                (3,): [0.4, 0.35, 0.2, 0.05],
                (3, 0): [0.3, 0.25, 0.25, 0.2],
                (3, 1): [0.5, 0.45, 0.03, 0.02],
                (3, 0, 0): [0.97, 0.01, 0.01, 0.01],
            },
        )
        cfg = GenConfig(mode="beam", beam_width=2, max_new_tokens=3)
        out = beam_search(backend, (3,), cfg)
        greedy = generate(backend, (3,), GenConfig(max_new_tokens=3))
        assert greedy.tokens == (0, 0, 0)
        step_cfg = GenConfig(max_new_tokens=3)
        beam_total = sequence_logprob(backend, (3,), out.tokens, step_cfg)
        greedy_total = sequence_logprob(backend, (3,), greedy.tokens, step_cfg)
        assert beam_total >= greedy_total - 1e-12
        assert out.tokens == greedy.tokens  # the floor kicked in

    def test_never_below_greedy_on_random_models(self):
        rng = named_rng(31, "beam-dominance")
        for trial in range(25):
            table = {}
            v = 3
            def rand_dist():
                x = rng.random(v) + 0.05
                return x / x.sum()
            table[(0,)] = rand_dist()
            for a in range(v):
                table[(0, a)] = rand_dist()
                for b in range(v):
                    table[(0, a, b)] = rand_dist()
            backend = TableBackend(v, table)
            cfg = GenConfig(mode="beam", beam_width=2, max_new_tokens=3)
            out = beam_search(backend, (0,), cfg)
            greedy = generate(backend, (0,), GenConfig(max_new_tokens=3))
            step_cfg = GenConfig(max_new_tokens=3)
            assert sequence_logprob(backend, (0,), out.tokens, step_cfg) >= (
                sequence_logprob(backend, (0,), greedy.tokens, step_cfg) - 1e-12
            )

    def test_stop_tokens_finish_hypotheses(self, alternating_params):
        backend = ToyBackend(alternating_params)
        cfg = GenConfig(
            mode="beam", beam_width=2, max_new_tokens=20, stop_tokens=frozenset({0})
        )
        out = beam_search(backend, (0,), cfg)
        assert 0 in out.tokens
        assert out.tokens.index(0) == len(out.tokens) - 1

    def test_determinism(self, trained_backend):
        cfg = GenConfig(mode="beam", beam_width=3, max_new_tokens=8)
        a = beam_search(trained_backend, (1,), cfg)
        b = beam_search(trained_backend, (1,), cfg)
        assert a.tokens == b.tokens


# ---------------------------------------------------------------------------
# Batched beam search against the per-token oracle
# ---------------------------------------------------------------------------

def oracle_sequence_logprob(backend, prompt, tokens, cfg):
    """The per-step loop that sequence_logprob replaced."""
    total = 0.0
    ctx = prompt
    limit = backend.info().max_context
    for tok in tokens:
        probs = step_dist(backend, ctx[-limit:], cfg)
        p = probs[tok]
        total += float(np.log(p)) if p > 0 else -np.inf
        ctx = ctx + (tok,)
    return total


def oracle_beam_search(backend, prompt, beam_width, cfg):
    """The beam search that beam_search replaced: one step_dist call per
    live beam, one candidate per nonzero token of every beam, all sorted
    by (-total, tokens), and the greedy floor."""
    step_cfg = replace(cfg, mode="greedy", beam_width=None)
    limit = backend.info().max_context
    beams = [(0.0, (), False)]
    for _ in range(cfg.max_new_tokens):
        candidates = []
        for total, toks, finished in beams:
            if finished:
                candidates.append((total, toks, True))
                continue
            probs = step_dist(backend, (prompt + toks)[-limit:], step_cfg)
            for tok in np.flatnonzero(probs > 0):
                tok = int(tok)
                candidates.append(
                    (total + float(np.log(probs[tok])), toks + (tok,), tok in cfg.stop_tokens)
                )
        candidates.sort(key=lambda c: (-c[0], c[1]))
        beams = candidates[:beam_width]
        if all(f for _, _, f in beams):
            break
    best_total, best_toks, _ = beams[0]
    greedy = generate(backend, prompt, step_cfg)
    if oracle_sequence_logprob(backend, prompt, greedy.tokens, step_cfg) > best_total:
        return greedy.tokens
    return best_toks


class DrawnBackend(Backend):
    """One seeded draw of a next-token distribution per context.  With
    ``grid`` every probability is a multiple of 1/8, so many tokens tie
    exactly and most have probability zero (-inf log-probability)."""

    def __init__(self, vocab_size: int, seed: int, grid: bool, max_context: int):
        self._info = BackendInfo(vocab_size, max_context, "drawn")
        self.seed = seed
        self.grid = grid

    def info(self) -> BackendInfo:
        return self._info

    def next_logprobs(self, context):
        context = as_tokens(context)
        self._check_context(context)
        v = self._info.vocab_size
        rng = np.random.default_rng([self.seed, len(context), *context])
        if self.grid:
            with np.errstate(divide="ignore"):
                return np.log(np.bincount(rng.integers(0, v, 8), minlength=v) / 8)
        logits = rng.normal(size=v) * 2
        logits[rng.random(v) < 0.25] = -np.inf
        logits[rng.integers(v)] = 0.0  # at least one live token
        return log_softmax(logits)


@st.composite
def decode_cases(draw):
    """(backend, prompt, config) on a random model with V 2 to 12: exact
    ties, -inf entries, a sliding window, stop tokens, boosting with a
    fixed k and alpha < 0, temperature and top-k/top-p truncation."""
    v = draw(st.integers(2, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    max_context = draw(st.sampled_from([2, 3, 5, 64]))
    kind = draw(st.sampled_from(["grid", "sparse", "toy", "cached-toy"]))
    if kind in ("grid", "sparse"):
        backend = DrawnBackend(v, seed, kind == "grid", max_context)
    else:
        rng = np.random.default_rng(seed)
        params = ToyLMParams(rng.normal(size=v) * 2, rng.normal(size=(3, v, v)) * 2)
        backend = ToyBackend(params, max_context=max_context)
        if kind == "cached-toy":
            backend = CachingBackend(backend)
    prompt = tuple(draw(st.lists(st.integers(0, v - 1), min_size=1, max_size=6)))
    boost = draw(st.one_of(
        st.none(),
        st.builds(BoostSpec.fixed_k, st.integers(1, 3), st.sampled_from([-0.3, -1.0, -2.0])),
    ))
    cfg = GenConfig(
        max_new_tokens=draw(st.integers(0, 5)),
        temperature=draw(st.sampled_from([1.0, 1.0, 0.6, 1.7])),
        top_p=draw(st.sampled_from([None, None, 0.5, 0.9])),
        top_k=draw(st.one_of(st.none(), st.integers(1, v))),
        stop_tokens=frozenset(draw(st.lists(st.integers(0, v - 1), max_size=2))),
        boost=boost,
    )
    return backend, prompt, cfg


class TestBatchedBeamOracle:
    @settings(max_examples=300, deadline=None)
    @given(decode_cases(), st.integers(1, 5))
    def test_beam_equals_oracle(self, case, width):
        backend, prompt, cfg = case
        cfg = replace(cfg, mode="beam", beam_width=width)
        out = beam_search(backend, prompt, cfg)
        assert out.error is None
        assert out.tokens == oracle_beam_search(backend, prompt, width, cfg)

    @settings(max_examples=150, deadline=None)
    @given(decode_cases(), st.data())
    def test_step_dist_batch_rows_equal_step_dist(self, case, data):
        backend, prompt, cfg = case
        v = backend.info().vocab_size
        limit = backend.info().max_context
        contexts = data.draw(st.lists(
            st.lists(st.integers(0, v - 1), min_size=1, max_size=limit).map(tuple),
            min_size=0, max_size=6,
        ))
        rows = step_dist_batch(backend, contexts, cfg)
        assert rows.shape == (len(contexts), v)
        for row, ctx in zip(rows, contexts):
            assert row.tobytes() == step_dist(backend, ctx, cfg).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(decode_cases(), st.data())
    def test_sequence_logprob_equals_per_step_loop(self, case, data):
        # tokens are drawn freely, so some have probability zero (-inf)
        backend, prompt, cfg = case
        v = backend.info().vocab_size
        tokens = tuple(data.draw(st.lists(st.integers(0, v - 1), max_size=8)))
        got = sequence_logprob(backend, prompt, tokens, cfg)
        want = oracle_sequence_logprob(backend, prompt, tokens, cfg)
        assert np.array([got]).tobytes() == np.array([want]).tobytes()

    def test_cut_ranks_by_total_not_by_logprob(self):
        # After 30 uniform steps the beam's total is about -33, whose ulp is
        # wider than the gap between the last step's two best log-probs: both
        # candidates then have the same total, and the lower id must win as
        # in the oracle, although token 1 has the larger log-probability.
        steps = 30
        prompt = (2,)
        p0 = 0.4
        p1 = np.nextafter(np.nextafter(p0, 1.0), 1.0)
        last = prompt + (0,) * steps
        backend = TableBackend(3, {last: [p0, p1, 1.0 - p0 - p1]})
        cfg = GenConfig(mode="beam", beam_width=1, max_new_tokens=steps + 1)
        total = oracle_sequence_logprob(backend, prompt, (0,) * steps, GenConfig())
        assert np.log(p0) < np.log(p1) and total + np.log(p0) == total + np.log(p1)
        out = beam_search(backend, prompt, cfg)
        assert out.tokens == (0,) * steps + (0,)
        assert out.tokens == oracle_beam_search(backend, prompt, 1, cfg)

    def test_wide_ties_at_the_cutoff_go_to_lower_ids(self):
        # V=64 in three probability levels: the cutoff of a width-4 beam
        # falls inside a level of 34 tied tokens, of which only the lowest
        # ids (2 and 3) may survive.  Token 3 then has by far the best
        # continuation.  An unstable sort of a run this long and this mixed
        # does not keep ids in order.
        weights = np.ones(64)
        weights[[13, 44]] = 3.0
        weights[[2, 3, 5, 7, 15, 17, 19, 20, 21, 23, 24, 25, 26, 27, 28, 30, 33,
                 37, 39, 41, 42, 43, 47, 48, 49, 51, 55, 56, 57, 58, 59, 60, 61, 62]] = 2.0
        sure = np.full(64, 0.01 / 63)
        sure[7] = 0.99
        backend = TableBackend(64, {(0,): weights / weights.sum(), (0, 3): sure})
        cfg = GenConfig(mode="beam", beam_width=4, max_new_tokens=2)
        assert beam_search(backend, (0,), cfg).tokens == (3, 7)
        for width in (3, 4, 5, 6):
            cfg = replace(cfg, beam_width=width)
            out = beam_search(backend, (0,), cfg)
            assert out.tokens == oracle_beam_search(backend, (0,), width, cfg)

    def test_one_batch_call_per_beam_step(self, trained_backend):
        class Counting(Backend):
            batches = 0
            rows = 0

            def info(self):
                return trained_backend.info()

            def next_logprobs(self, context):
                return trained_backend.next_logprobs(context)

            def next_logprobs_batch(self, contexts):
                self.batches += 1
                self.rows += len(contexts)
                return trained_backend.next_logprobs_batch(contexts)

        n, width = 6, 3
        spec = BoostSpec.fixed_k(2, -0.5)
        counting = Counting()
        cfg = GenConfig(mode="beam", beam_width=width, max_new_tokens=n, boost=spec)
        out = beam_search(counting, (1, 2, 3), cfg)
        assert len(out.tokens) == n
        # one call per step, and one for the greedy floor's sequence_logprob
        assert counting.batches == n + 1
        # at most two experts per live beam per step, two per floor position
        assert counting.rows <= 2 * width * n + 2 * n


class TestRecord:
    def test_shape(self):
        from cboost.decode import GenResult

        rec = generation_record("g1", (1, 2), GenResult((3, 4)), "three four", "abc123")
        assert rec == {
            "id": "g1",
            "prompt_tokens": [1, 2],
            "output_tokens": [3, 4],
            "text": "three four",
            "config_hash": "abc123",
        }
