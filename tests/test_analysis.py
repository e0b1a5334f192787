import numpy as np
import pytest

from cboost.analysis import (
    boost_derivative_check,
    pareto_profile,
    render_pareto_table,
)
from cboost.errors import ContractError
from cboost.rng import named_rng
from cboost.toy_lm import (
    ToyBackend,
    ToyLMParams,
    TrainConfig,
    train_uniform_scalarization,
)


class TestDerivativeCheck:
    def test_k_equals_max_all_zero(self, trained_params, copy_heldout):
        rep = boost_derivative_check(trained_params, copy_heldout[:3000], k=12)
        assert rep.analytic_derivative == 0.0
        assert abs(rep.fd_derivative) <= 1e-6
        assert rep.mean_kl == 0.0
        assert rep.loss_full == rep.loss_short

    def test_uniform_model_zero(self, copy_heldout):
        params = ToyLMParams.zeros(8, 6)
        rep = boost_derivative_check(params, copy_heldout[:2000], k=2)
        assert abs(rep.analytic_derivative) <= 1e-12
        assert abs(rep.fd_derivative) <= 1e-9

    def test_copy_source_agreement_and_sign(self, trained_params, copy_heldout):
        rep = boost_derivative_check(trained_params, copy_heldout, k=5, h=1e-3)
        assert abs(rep.analytic_derivative - rep.fd_derivative) <= 1e-4
        assert rep.improvement_predicted == (rep.analytic_derivative < 0)
        assert (rep.fd_derivative < 0) == rep.improvement_predicted
        # short context below the copy offset: boosting should help here
        assert rep.improvement_predicted

    def test_identity_with_report_fields(self, trained_params, copy_heldout):
        rep = boost_derivative_check(trained_params, copy_heldout[:4000], k=3)
        assert rep.analytic_derivative == (rep.loss_full - rep.loss_short) + rep.mean_kl

    def test_probe_fields_present(self, trained_params, copy_heldout):
        rep = boost_derivative_check(trained_params, copy_heldout[:4000], k=5)
        assert set(rep.probe_nll) == {0.0, 0.05, 0.1}
        if rep.improvement_predicted:
            # first-order claim: reported, and on this model it holds
            assert rep.probe_improved

    def test_random_trained_models_agree(self):
        rng = named_rng(55, "analysis-random-models")
        for trial in range(3):
            v = int(rng.integers(3, 7))
            stream = tuple(int(t) for t in rng.integers(0, v, size=4000))
            params = train_uniform_scalarization(
                stream, TrainConfig(max_context=4, steps=40, seed=trial), vocab_size=v
            )
            heldout = tuple(int(t) for t in rng.integers(0, v, size=1500))
            k = int(rng.integers(1, 4))
            rep = boost_derivative_check(params, heldout, k=k, h=1e-3)
            assert abs(rep.analytic_derivative - rep.fd_derivative) <= 1e-4

    def test_h_validation(self, trained_params, copy_heldout):
        with pytest.raises(ContractError):
            boost_derivative_check(trained_params, copy_heldout[:2000], k=5, h=0.0)

    def test_k_validation(self, trained_params, copy_heldout):
        with pytest.raises(ContractError):
            boost_derivative_check(trained_params, copy_heldout[:2000], k=13)


class TestParetoProfile:
    def test_uniform_constant_row_zero_kl(self, copy_heldout):
        params = ToyLMParams.zeros(8, 5)
        prof = pareto_profile(params, copy_heldout[:2000])
        assert np.allclose(prof.losses.per_length_nll, np.log(8), atol=1e-12)
        assert np.allclose(prof.kl_from_max, 0.0, atol=1e-12)

    def test_copy_source_shape(self, trained_params, copy_heldout):
        prof = pareto_profile(trained_params, copy_heldout)
        losses = prof.losses.per_length_nll
        assert all(losses[k] < min(losses[:9]) for k in (10, 11))
        assert prof.kl_from_max[-1] == 0.0  # k = M diagonal
        assert np.all(prof.kl_from_max >= -1e-15)

    def test_matches_per_length_backend_forward(self, trained_params, copy_heldout):
        heldout = copy_heldout[:400]
        backend = ToyBackend(trained_params)
        pos = range(12, len(heldout))
        prof = pareto_profile(trained_params, heldout)
        full = np.array([backend.next_logprobs(heldout[p - 12 : p]) for p in pos])
        for k in range(1, 13):
            short = np.array([backend.next_logprobs(heldout[p - k : p]) for p in pos])
            nll = -short[np.arange(len(pos)), [heldout[p] for p in pos]]
            kl = np.sum(np.exp(full) * (full - short), axis=1)
            assert abs(prof.losses[k] - np.mean(nll)) <= 1e-12
            assert abs(prof.kl_from_max[k - 1] - np.mean(kl)) <= 1e-12

    def test_render_table(self, trained_params, copy_heldout):
        prof = pareto_profile(trained_params, copy_heldout[:3000])
        table = render_pareto_table(prof)
        lines = table.splitlines()
        assert "loss" in lines[0] and "KL" in lines[0]
        assert len(lines) == 1 + 12


class TestDerivativeRenderer:
    def test_aligned_rows(self, trained_params, copy_heldout):
        from cboost.analysis import render_derivative_report

        rep = boost_derivative_check(trained_params, copy_heldout[:3000], k=5)
        text = render_derivative_report(rep)
        assert "analytic derivative" in text
        assert "finite difference" in text
        assert len(text.splitlines()) == 9
