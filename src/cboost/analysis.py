"""Numerical verification of the boosted-ensemble improvement condition.

For the one-parameter family proportional to f_max^(1+t) * f_k^(-t), the
derivative of the held-out mean NLL at t = 0 equals

    (L_max - L_k) + mean KL(f_max || f_k)

so the boosted model improves on the full-context predictor to first
order exactly when the loss gap L_k - L_max exceeds the mean divergence
between the two experts.  This module computes both sides: the analytic
expression from losses and divergences, and a central finite difference
of the actual NLL curve.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .dist import log_softmax, logsumexp
from .errors import ContractError, NumericalGuardError
from .toy_lm import LossProfile, ToyLMParams, heldout_view

DEFAULT_PROBES = (0.05, 0.1)


@dataclass
class BoostDerivativeReport:
    k: int
    max_context: int
    loss_full: float            # held-out NLL of the full-context expert
    loss_short: float           # held-out NLL of the k-token expert
    mean_kl: float              # mean KL(full || short)
    analytic_derivative: float  # (loss_full - loss_short) + mean_kl
    fd_derivative: float
    h: float
    improvement_predicted: bool
    probe_nll: dict[float, float]  # exponent t -> held-out NLL, incl. t = 0
    probe_improved: bool

    def to_dict(self) -> dict:
        return {**asdict(self), "probe_nll": {str(t): v for t, v in self.probe_nll.items()}}


def boost_derivative_check(
    params: ToyLMParams,
    heldout: Sequence[int],
    k: int,
    h: float = 1e-3,
) -> BoostDerivativeReport:
    """Compare the analytic derivative of the boosted NLL at t = 0 with a
    central finite difference at step h, on held-out positions with full
    context available.  The full-context expert is the model's lag depth.

    ``improvement_predicted`` is the sign test (derivative < 0);
    ``probe_improved`` reports whether a direct NLL probe at a small
    positive exponent actually went below the base NLL.  The probe is a
    local first-order claim, so it is reported, not asserted.
    """
    if not (math.isfinite(h) and h > 0):
        raise ContractError(f"finite-difference step h must be finite and positive, got {h}")
    m = params.lag_depth
    if not (1 <= k <= m):
        raise ContractError(f"k must be in [1, {m}]")
    recent, targets = heldout_view(heldout, m)
    rows = np.arange(len(targets))
    lf_full = log_softmax(params.logits(recent))
    lf_short = log_softmax(params.logits(recent[:k]))
    loss_full = float(np.mean(-lf_full[rows, targets]))
    loss_short = float(np.mean(-lf_short[rows, targets]))
    p_full = np.exp(lf_full)
    mean_kl = float(np.mean(np.sum(p_full * (lf_full - lf_short), axis=1)))
    analytic = (loss_full - loss_short) + mean_kl

    def nll(t: float) -> float:
        # a t so large that the mix overflows is caught by the guard below
        with np.errstate(over="ignore", invalid="ignore"):
            mix = (1.0 + t) * lf_full - t * lf_short
            return float(np.mean(logsumexp(mix) - mix[rows, targets]))

    fd = (nll(h) - nll(-h)) / (2.0 * h)
    probe_nll = {0.0: nll(0.0)}
    for t in DEFAULT_PROBES:
        probe_nll[float(t)] = nll(float(t))
    if not all(map(math.isfinite, [fd, *probe_nll.values()])):
        raise NumericalGuardError(
            f"held-out NLL of the boosted mix is not finite near t = 0 (h={h:g})"
        )
    improvement = analytic < 0
    probe_improved = any(
        probe_nll[t] < probe_nll[0.0] for t in probe_nll if t != 0.0
    )
    return BoostDerivativeReport(
        k=k,
        max_context=m,
        loss_full=loss_full,
        loss_short=loss_short,
        mean_kl=mean_kl,
        analytic_derivative=analytic,
        fd_derivative=fd,
        h=h,
        improvement_predicted=improvement,
        probe_nll=probe_nll,
        probe_improved=probe_improved,
    )


@dataclass
class ParetoProfile:
    losses: LossProfile          # held-out NLL by context length 1..M
    kl_from_max: np.ndarray      # mean KL(f_max || f_k) for k = 1..M

    def to_dict(self) -> dict:
        return {
            "per_length_nll": [float(x) for x in self.losses.per_length_nll],
            "kl_from_max": [float(x) for x in self.kl_from_max],
        }


def pareto_profile(params: ToyLMParams, heldout: Sequence[int]) -> ParetoProfile:
    """Held-out loss at every context length 1..lag depth plus each
    length's divergence from the full-context expert; the raw material of
    the improvement condition, emitted for inspection."""
    m = params.lag_depth
    recent, targets = heldout_view(heldout, m)
    rows = np.arange(len(targets))
    lf_full = log_softmax(params.logits(recent))
    p_full = np.exp(lf_full)
    losses = np.empty(m)
    kls = np.empty(m)
    for k, lf_k in enumerate(params.prefix_logprobs(recent)):
        losses[k] = float(np.mean(-lf_k[rows, targets]))
        kls[k] = float(np.mean(np.sum(p_full * (lf_full - lf_k), axis=1)))
    return ParetoProfile(losses=LossProfile(losses), kl_from_max=kls)


def render_derivative_report(report: BoostDerivativeReport) -> str:
    rows = [
        ("short context k", str(report.k)),
        ("max context", str(report.max_context)),
        ("loss (full)", f"{report.loss_full:.6f}"),
        ("loss (short)", f"{report.loss_short:.6f}"),
        ("mean KL(full||short)", f"{report.mean_kl:.6f}"),
        ("analytic derivative", f"{report.analytic_derivative:+.6f}"),
        (f"finite difference (h={report.h:g})", f"{report.fd_derivative:+.6f}"),
        ("improvement predicted", str(report.improvement_predicted)),
        ("probe improved", str(report.probe_improved)),
    ]
    width = max(len(name) for name, _ in rows)
    return "\n".join(f"{name:<{width}}  {value}" for name, value in rows)


def render_pareto_table(profile: ParetoProfile) -> str:
    header = f"{'k':>4}  {'loss (nats)':>12}  {'KL(full||k)':>12}"
    lines = [header]
    for i, (loss, kl) in enumerate(
        zip(profile.losses.per_length_nll, profile.kl_from_max), start=1
    ):
        lines.append(f"{i:>4}  {loss:>12.6f}  {kl:>12.6f}")
    return "\n".join(lines)
