import csv
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cboost.boosting import MAX_CONTEXT, BoostSpec, boosted_next_dist
from cboost.dist import log_softmax
from cboost.errors import ContractError, NumericalGuardError
from cboost.rng import named_rng
from cboost.toy_lm import ToyBackend, ToyLMParams, TrainConfig, train_uniform_scalarization
from cboost.tuning import (
    TuneConfig,
    coherence_tune,
    kl_and_gradient,
    kl_to_boosted,
    sample_sequences,
    write_kl_trace,
)

BOOST = BoostSpec(weights={MAX_CONTEXT: 1.5, 5: -0.5})


def kl_objective(params, contexts, target_logprobs):
    """Independent evaluation of the mean-KL objective with frozen targets."""
    total = 0.0
    backend = ToyBackend(params)
    for ctx, logt in zip(contexts, target_logprobs):
        logp = backend.next_logprobs(ctx)
        t = np.exp(logt)
        mask = t > 0
        total += float(np.sum(t[mask] * (logt[mask] - logp[mask])))
    return total / len(contexts)


def per_context_kl_and_gradient(params, contexts, target_logprobs):
    """The per-context loop that kl_and_gradient replaced, kept as its
    bit-for-bit oracle: one forward, one KL term and one gradient scatter
    per context, in context order."""
    n = len(contexts)
    grad = ToyLMParams.zeros(params.vocab_size, params.lag_depth)
    total_kl = 0.0
    for ctx, logt in zip(contexts, target_logprobs):
        lags = range(1, min(len(ctx), params.lag_depth) + 1)
        z = params.bias.copy()
        for j in lags:
            z += params.lag_tables[j - 1][ctx[-j]]
        logp = log_softmax(z)
        target = np.exp(logt)
        mask = target > 0
        total_kl += float(np.sum(target[mask] * (logt[mask] - logp[mask])))
        g = (np.exp(logp) - target) / n
        grad.bias += g
        for j in lags:
            grad.lag_tables[j - 1][ctx[-j]] += g
    return total_kl / n, grad


class TestNoBoostNoOp:
    def test_params_unchanged_and_kl_zero(self, trained_params):
        cfg = TuneConfig(
            spec=BoostSpec.base_model(), steps=4, batch=4, seq_len=8, seed=1
        )
        result = coherence_tune(trained_params, cfg)
        assert np.array_equal(result.params.bias, trained_params.bias)
        assert np.array_equal(result.params.lag_tables, trained_params.lag_tables)
        assert all(kl == 0.0 for kl in result.kl_trace)


class TestGradient:
    def test_hand_built_two_token_model_fd(self):
        rng = named_rng(42, "tune-grad")
        params = ToyLMParams(rng.normal(size=2) * 0.3, rng.normal(size=(2, 2, 2)) * 0.3)
        contexts = [(0,), (1, 0), (0, 1)]
        backend = ToyBackend(params)
        targets = [boosted_next_dist(backend, c, BoostSpec(weights={MAX_CONTEXT: 1.5, 1: -0.5})) for c in contexts]
        _, grad = kl_and_gradient(params, contexts, targets)
        h = 1e-5
        for coord in [("bias", 0), ("bias", 1), ("lag", 0, 0, 1), ("lag", 1, 1, 0)]:
            plus, minus = params.copy(), params.copy()
            if coord[0] == "bias":
                plus.bias[coord[1]] += h
                minus.bias[coord[1]] -= h
                analytic = grad.bias[coord[1]]
            else:
                _, j, a, w = coord
                plus.lag_tables[j, a, w] += h
                minus.lag_tables[j, a, w] -= h
                analytic = grad.lag_tables[j, a, w]
            fd = (kl_objective(plus, contexts, targets) - kl_objective(minus, contexts, targets)) / (2 * h)
            assert abs(analytic - fd) / max(1e-8, abs(analytic), abs(fd)) <= 1e-5

    def test_fd_on_random_configurations(self):
        rng = named_rng(43, "tune-grad-sweep")
        for _ in range(5):
            v = int(rng.integers(2, 5))
            lags = int(rng.integers(1, 4))
            params = ToyLMParams(
                rng.normal(size=v) * 0.4, rng.normal(size=(lags, v, v)) * 0.4
            )
            contexts = [
                tuple(int(t) for t in rng.integers(0, v, size=rng.integers(1, lags + 2)))
                for _ in range(4)
            ]
            backend = ToyBackend(params)
            spec = BoostSpec(weights={MAX_CONTEXT: 1.5, 1: -0.5})
            targets = [boosted_next_dist(backend, c, spec) for c in contexts]
            _, grad = kl_and_gradient(params, contexts, targets)
            h = 1e-5
            count = 0
            while count < 10:
                if rng.random() < 0.3:
                    i = int(rng.integers(v))
                    analytic = grad.bias[i]
                    plus, minus = params.copy(), params.copy()
                    plus.bias[i] += h
                    minus.bias[i] -= h
                else:
                    j, a, w = (
                        int(rng.integers(lags)),
                        int(rng.integers(v)),
                        int(rng.integers(v)),
                    )
                    analytic = grad.lag_tables[j, a, w]
                    plus, minus = params.copy(), params.copy()
                    plus.lag_tables[j, a, w] += h
                    minus.lag_tables[j, a, w] -= h
                fd = (
                    kl_objective(plus, contexts, targets)
                    - kl_objective(minus, contexts, targets)
                ) / (2 * h)
                # 1e-6 floor absorbs pure FD cancellation noise when the true
                # gradient is exactly zero (single-lag models collapse the mix)
                assert abs(analytic - fd) / max(1e-6, abs(analytic), abs(fd)) <= 1e-5
                count += 1

    def test_stop_gradient_targets_are_inert(self, trained_params):
        contexts = [(0, 1, 2), (3,)]
        backend = ToyBackend(trained_params)
        targets = [boosted_next_dist(backend, c, BOOST) for c in contexts]
        kl_a, grad_a = kl_and_gradient(trained_params, contexts, targets)
        # perturb a copy of the parameters that produced the targets; the
        # materialized targets are what matters, so nothing changes
        perturbed = trained_params.copy()
        perturbed.lag_tables += 0.37
        kl_b, grad_b = kl_and_gradient(trained_params, contexts, targets)
        assert kl_a == kl_b
        assert np.array_equal(grad_a.bias, grad_b.bias)
        assert np.array_equal(grad_a.lag_tables, grad_b.lag_tables)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 2**16),
        st.integers(2, 6),
        st.integers(1, 4),
        st.lists(st.integers(1, 7), min_size=1, max_size=20),
    )
    def test_bit_identical_to_per_context_loop(self, seed, vocab, lags, lengths):
        # ragged contexts, some longer than the lag depth; small vocabularies
        # repeat tokens, so table cells take several rows each; some target
        # entries are exact zeros
        rng = named_rng(seed, "kl-oracle")
        params = ToyLMParams(rng.normal(size=vocab), rng.normal(size=(lags, vocab, vocab)))
        contexts = [tuple(int(t) for t in rng.integers(0, vocab, n)) for n in lengths]
        logits = rng.normal(size=(len(contexts), vocab)) * 3.0
        logits[rng.random(logits.shape) < 0.3] = -np.inf
        logits[:, 0] = 0.0
        targets = list(log_softmax(logits))
        kl, grad = kl_and_gradient(params, contexts, targets)
        ref_kl, ref_grad = per_context_kl_and_gradient(params, contexts, targets)
        assert kl == ref_kl
        assert np.array_equal(grad.bias, ref_grad.bias)
        assert np.array_equal(grad.lag_tables, ref_grad.lag_tables)

    def test_input_validation(self, trained_params):
        with pytest.raises(ContractError):
            kl_and_gradient(trained_params, [], [])
        with pytest.raises(ContractError):
            kl_and_gradient(trained_params, [(0,)], [])


class TestCoherenceTune:
    def test_determinism(self, trained_params):
        cfg = TuneConfig(spec=BOOST, steps=3, batch=4, seq_len=8, seed=5)
        a = coherence_tune(trained_params, cfg)
        b = coherence_tune(trained_params, cfg)
        assert np.array_equal(a.params.bias, b.params.bias)
        assert np.array_equal(a.params.lag_tables, b.params.lag_tables)
        assert a.kl_trace == b.kl_trace

    def test_divergence_guard_trips(self, copy_task):
        weak = train_uniform_scalarization(copy_task.train, TrainConfig())
        cfg = TuneConfig(spec=BOOST, learning_rate=20.0, seed=0)
        with pytest.raises(NumericalGuardError, match="diverged"):
            coherence_tune(weak, cfg)

    def test_tail_positions_restricts_contexts(self, trained_params):
        full = TuneConfig(spec=BOOST, steps=1, batch=2, seq_len=8, seed=2)
        tail = TuneConfig(spec=BOOST, steps=1, batch=2, seq_len=8, seed=2, tail_positions=2)
        a = coherence_tune(trained_params, full)
        b = coherence_tune(trained_params, tail)
        assert not np.array_equal(a.params.lag_tables, b.params.lag_tables)

    def test_warns_without_negative_short_weight(self, caplog):
        with caplog.at_level(logging.WARNING):
            TuneConfig(spec=BoostSpec(weights={MAX_CONTEXT: 1.0, 5: 0.5}))
        assert "negative short-context weight" in caplog.text

    def test_config_validation(self):
        with pytest.raises(ContractError):
            TuneConfig(spec=BOOST, seq_len=1)
        with pytest.raises(ContractError):
            TuneConfig(spec=BOOST, learning_rate=0.0)


class TestSampling:
    def test_shapes_and_determinism(self, trained_params):
        a = sample_sequences(trained_params, 4, 10, named_rng(1, "s"))
        b = sample_sequences(trained_params, 4, 10, named_rng(1, "s"))
        assert a.shape == (4, 10)
        assert np.array_equal(a, b)
        assert a.min() >= 0 and a.max() < trained_params.vocab_size


class TestKLToBoosted:
    def test_no_boost_zero(self, trained_params):
        seqs = sample_sequences(trained_params, 2, 8, named_rng(2, "k"))
        assert kl_to_boosted(trained_params, BoostSpec.base_model(), list(seqs)) == 0.0

    def test_hand_summed_two_positions(self, trained_params):
        seq = (1, 2, 3)
        backend = ToyBackend(trained_params)
        total = 0.0
        for k in (1, 2):
            ctx = seq[:k]
            logt = boosted_next_dist(backend, ctx, BOOST)
            logp = backend.next_logprobs(ctx)
            t = np.exp(logt)
            total += float(np.sum(t * (logt - logp)))
        assert abs(kl_to_boosted(trained_params, BOOST, [seq]) - total / 2) <= 1e-12

    def test_nonnegative(self, trained_params):
        seqs = sample_sequences(trained_params, 3, 10, named_rng(3, "k"))
        assert kl_to_boosted(trained_params, BOOST, list(seqs)) >= 0.0

    def test_short_sequence_rejected(self, trained_params):
        with pytest.raises(ContractError):
            kl_to_boosted(trained_params, BOOST, [(1,)])


class TestTrace:
    def test_csv_format(self, tmp_path):
        path = str(tmp_path / "trace.csv")
        write_kl_trace(path, [0.5, 0.25, 0.125])
        with open(path) as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["step", "mean_kl"]
        assert rows[1] == ["0", "0.5"]
        assert len(rows) == 4
