import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cboost.dist import (
    LOG_FLOOR,
    apply_temperature,
    kl_divergence,
    log_linear_mix,
    log_softmax,
    logsumexp,
    sample,
    softmax,
    truncate_top_k,
    truncate_top_p,
    uniform_logprobs,
)
from cboost.errors import ContractError
from cboost.rng import named_rng


def logv(values):
    """log with explicit -inf for zeros (quiet)."""
    with np.errstate(divide="ignore"):
        return np.log(np.asarray(values, dtype=np.float64))


def exp_normalize_oracle(logits):
    """Independent extended-precision exp-and-normalize."""
    import mpmath as mp

    mp.mp.dps = 60
    es = [mp.e ** mp.mpf(repr(x)) for x in logits]
    z = sum(es)
    return np.array([float(e / z) for e in es])


def product_mix_oracle(experts, weights):
    """Independent high-precision element-wise product of powers."""
    import mpmath as mp

    mp.mp.dps = 60
    n = len(experts[0])
    vals = []
    for i in range(n):
        v = mp.mpf(1)
        for e, w in zip(experts, weights):
            v *= mp.mpf(repr(e[i])) ** mp.mpf(repr(w))
        vals.append(v)
    z = sum(vals)
    return np.array([float(v / z) for v in vals])


class TestSoftmax:
    def test_symmetric(self):
        assert np.allclose(softmax([0.0, 0.0]), [0.5, 0.5], atol=1e-15)

    def test_analytic(self):
        assert np.allclose(softmax([np.log(3), 0.0]), [0.75, 0.25], atol=1e-12)

    def test_against_extended_precision_oracle(self):
        logits = [1.2, -0.4, 0.0]
        expected = exp_normalize_oracle(logits)
        # frozen from the oracle
        assert np.allclose(
            expected, [0.6652958335136345, 0.1343209122227548, 0.2003832542636107], atol=1e-15
        )
        assert np.allclose(softmax(logits), expected, atol=1e-12)

    def test_neg_inf_entries_get_zero(self):
        p = softmax([0.0, -np.inf, 0.0])
        assert p[1] == 0.0
        assert abs(p.sum() - 1.0) < 1e-12

    def test_all_neg_inf_degenerate(self):
        with pytest.raises(ContractError, match="degenerate"):
            softmax([-np.inf, -np.inf])

    def test_nan_rejected(self):
        with pytest.raises(ContractError):
            softmax([0.0, np.nan])

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=16))
    @settings(max_examples=100, deadline=None)
    def test_normalized_and_argmax_preserved(self, logits):
        p = softmax(logits)
        assert abs(p.sum() - 1.0) < 1e-9
        arr = np.asarray(logits)
        top = np.argsort(arr)[-2:]
        # argmax is only well-defined after rounding when the gap resolves
        if arr[top[1]] - arr[top[0]] > 1e-9:
            assert int(np.argmax(p)) == int(np.argmax(arr))


class TestLogLinearMix:
    def test_single_expert_identity_exact(self):
        p = log_softmax(np.array([0.3, -1.0, 2.0]))
        out = log_linear_mix([p], [1.0])
        assert np.array_equal(out, p)

    def test_zero_weight_drops_expert(self):
        p = log_softmax(np.array([0.3, -1.0, 2.0]))
        q = np.log([0.5, 0.25, 0.25])
        out = log_linear_mix([p, q], [1.0, 0.0])
        assert np.array_equal(out, p)

    def test_two_expert_product_oracle(self):
        p = np.log([0.8, 0.2])
        q = np.log([0.5, 0.5])
        out = np.exp(log_linear_mix([p, q], [1.5, -0.5]))
        expected = product_mix_oracle([[0.8, 0.2], [0.5, 0.5]], [1.5, -0.5])
        assert np.allclose(expected, [8 / 9, 1 / 9], atol=1e-15)
        assert np.allclose(out, expected, atol=1e-12)
        assert np.allclose(out, [0.8889, 0.1111], atol=1e-4)

    def test_basis_weight_recovers_expert(self):
        rng = named_rng(3, "mix-basis")
        experts = [log_softmax(rng.normal(size=6)) for _ in range(3)]
        for i in range(3):
            weights = [0.0] * 3
            weights[i] = 1.0
            out = log_linear_mix(experts, weights)
            assert np.max(np.abs(out - experts[i])) <= 1e-12

    def test_positive_weight_zero_prob_stays_zero(self):
        p = logv([0.5, 0.5, 0.0])
        q = np.log([0.2, 0.3, 0.5])
        out = log_linear_mix([p, q], [1.0, 0.5])
        assert out[2] == -np.inf

    def test_negative_weight_zero_prob_clamped_at_floor(self):
        p = np.log([0.4, 0.6])
        q = logv([1.0, 0.0])
        out = np.exp(log_linear_mix([p, q], [1.0, -0.5]))
        # manual: second token's q-logprob clamps to the floor
        z = np.array([np.log(0.4) - 0.5 * 0.0, np.log(0.6) - 0.5 * LOG_FLOOR])
        expected = np.exp(z - logsumexp(z))
        assert np.allclose(out, expected, atol=1e-12)

    def test_zero_under_both_sides_is_forced_zero(self):
        # token 1 has zero mass under the positive expert: the floored
        # negative expert cannot revive it
        p = logv([1.0, 0.0])
        q = logv([1.0, 0.0])
        out = log_linear_mix([p, q], [1.5, -0.5])
        assert out[1] == -np.inf

    def test_no_experts_rejected(self):
        with pytest.raises(ContractError):
            log_linear_mix([], [])

    def test_all_zero_weights_uniform(self):
        p = np.log([0.9, 0.1])
        out = log_linear_mix([p], [0.0])
        assert np.allclose(out, uniform_logprobs(2), atol=1e-15)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ContractError):
            log_linear_mix([np.log([0.5, 0.5]), np.log([0.3, 0.3, 0.4])], [1.0, 1.0])

    def test_scaling_all_weights_changes_distribution(self):
        p = np.log([0.8, 0.2])
        q = np.log([0.5, 0.5])
        base = np.exp(log_linear_mix([p, q], [1.5, -0.5]))
        scaled = np.exp(log_linear_mix([p, q], [3.0, -1.0]))
        assert not np.allclose(base, scaled, atol=1e-6)

    @given(st.floats(0.05, 20.0))
    @settings(max_examples=60, deadline=None)
    def test_single_expert_power_keeps_argmax(self, c):
        p = log_softmax(np.array([0.1, 1.4, -0.7, 0.9]))
        out = log_linear_mix([p], [c])
        assert int(np.argmax(out)) == int(np.argmax(p))

    def test_random_mixes_normalized(self):
        rng = named_rng(11, "mix-normalization")
        for _ in range(2000):
            n = int(rng.integers(2, 12))
            k = int(rng.integers(1, 4))
            experts = [log_softmax(rng.normal(size=n) * 3) for _ in range(k)]
            weights = rng.normal(size=k) * 2
            out = log_linear_mix(experts, list(weights))
            assert abs(logsumexp(out)) <= 1e-9


class TestTruncation:
    def test_top_p_full_mass_identity(self):
        d = np.array([0.6, 0.3, 0.1])
        assert np.allclose(truncate_top_p(d, 1.0), d, atol=1e-15)

    def test_top_p_drops_tail(self):
        out = truncate_top_p(np.array([0.6, 0.3, 0.1]), 0.9)
        assert np.allclose(out, [2 / 3, 1 / 3, 0.0], atol=1e-12)

    def test_top_p_single_token(self):
        out = truncate_top_p(np.array([0.6, 0.3, 0.1]), 0.5)
        assert np.allclose(out, [1.0, 0.0, 0.0], atol=1e-15)

    def test_top_p_bad_threshold(self):
        for p in (0.0, -0.5, 1.5):
            with pytest.raises(ContractError):
                truncate_top_p(np.array([1.0]), p)

    def test_top_k_identity(self):
        d = np.array([0.6, 0.3, 0.1])
        assert np.allclose(truncate_top_k(d, 3), d, atol=1e-15)

    def test_top_k_one(self):
        assert np.allclose(
            truncate_top_k(np.array([0.6, 0.3, 0.1]), 1), [1.0, 0.0, 0.0], atol=1e-15
        )

    def test_top_k_tie_keeps_lower_id(self):
        out = truncate_top_k(np.array([0.25, 0.25, 0.5]), 2)
        assert np.allclose(out, [1 / 3, 0.0, 2 / 3], atol=1e-12)

    def test_top_k_zero_rejected(self):
        with pytest.raises(ContractError):
            truncate_top_k(np.array([1.0]), 0)

    @given(st.integers(2, 10), st.floats(0.05, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_top_p_keeps_mass_at_least_p(self, n, p):
        rng = named_rng(n, "top-p-property")
        d = softmax(rng.normal(size=n) * 2)
        kept = truncate_top_p(d, p)
        # the kept (pre-renormalization) mass must reach p
        mass = d[kept > 0].sum()
        assert mass >= p - 1e-9
        assert abs(kept.sum() - 1.0) < 1e-12


class TestTemperature:
    def test_identity(self):
        p = log_softmax(np.array([0.2, -0.3, 1.0]))
        assert np.array_equal(apply_temperature(p, 1.0), p)

    def test_high_temperature_limit(self):
        p = np.log([0.75, 0.25])
        out = np.exp(apply_temperature(p, 1e6))
        assert np.allclose(out, [0.5, 0.5], atol=1e-5)

    def test_sharpening(self):
        p = np.log([0.75, 0.25])
        out = np.exp(apply_temperature(p, 0.5))
        assert np.allclose(out, [0.9, 0.1], atol=1e-12)

    def test_nonpositive_rejected(self):
        with pytest.raises(ContractError):
            apply_temperature(np.log([0.5, 0.5]), 0.0)

    def test_zero_prob_survives(self):
        p = logv([1.0, 0.0])
        out = apply_temperature(p, 0.7)
        assert out[1] == -np.inf


class TestKL:
    def test_self_zero(self):
        p = np.array([0.3, 0.7])
        assert kl_divergence(p, p) == 0.0

    def test_analytic_ln2(self):
        assert abs(kl_divergence(np.array([1.0, 0.0]), np.array([0.5, 0.5])) - np.log(2)) < 1e-15

    def test_direct_evaluation(self):
        got = kl_divergence(np.array([0.8, 0.2]), np.array([0.5, 0.5]))
        assert abs(got - 0.19274475702175743) < 1e-12
        assert abs(got - 0.19274) < 1e-5

    def test_support_violation_inf_with_warning(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = kl_divergence(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
        assert out == np.inf
        assert any("support" in str(w.message) for w in caught)

    def test_nonnegative_on_random_pairs(self):
        rng = named_rng(5, "kl-nonneg")
        for _ in range(10_000):
            n = int(rng.integers(2, 8))
            p = softmax(rng.normal(size=n) * 2)
            q = softmax(rng.normal(size=n) * 2)
            assert kl_divergence(p, q) >= -1e-15


class TestSample:
    def test_deterministic_given_seed(self):
        d = softmax(np.arange(6, dtype=float))
        a = [sample(d, named_rng(9, "s")) for _ in range(5)]
        b = [sample(d, named_rng(9, "s")) for _ in range(5)]
        assert a == b

    def test_distributionally_faithful(self):
        d = np.array([0.2, 0.5, 0.3])
        rng = named_rng(123, "sample-freq")
        counts = np.zeros(3)
        n = 20_000
        for _ in range(n):
            counts[sample(d, rng)] += 1
        assert np.max(np.abs(counts / n - d)) < 0.02

    def test_zero_probability_never_sampled(self):
        d = np.array([0.5, 0.0, 0.5])
        rng = named_rng(7, "sample-zero")
        assert all(sample(d, rng) != 1 for _ in range(2000))
