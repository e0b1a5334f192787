"""Exact probability-vector arithmetic.

All vectors are float64 numpy arrays over a fixed vocabulary, 1-D or
stacked as the rows of an (N, V) matrix; ``logsumexp``, ``log_softmax``
and ``log_linear_mix`` reduce along the last axis, so one kernel serves
both shapes.  Two conventions are used throughout:

* ``LogProbs`` — log-probabilities in nats, normalized so that
  ``logsumexp(v) == 0`` (within 1e-9).  ``-inf`` entries mark
  zero-probability tokens; NaN is never allowed.
* ``Probs`` — non-negative entries summing to 1 (within 1e-9).

``log_linear_mix`` has one zero-probability rule: a token is zero when a
positively weighted expert gives it zero, and a negatively weighted
expert is clamped from below at ``LOG_FLOOR``.

Everything here is pure and reentrant; arrays are never mutated in place.
"""

from __future__ import annotations

import math
import warnings
from typing import Sequence

import numpy as np

from .errors import ContractError

LogProbs = np.ndarray
Probs = np.ndarray

# Log-probability floor applied to negatively-weighted experts in
# log_linear_mix.  Remote backends may return truncated/quantized logprobs
# with hard zeros; the floor keeps negative powers finite and tunable.
LOG_FLOOR = float(np.log(1e-10))

# numpy pays about 0.1 us a row for a last-axis max at widths up to 32.  For
# many narrow rows a loop over the columns is several times faster: for
# 20,000 rows of 8, about 0.2 against 1.7 ms on a 2-vCPU VM with numpy
# 2.4.6.  Every other shape keeps the row-wise call.  At width 8 the column
# loop loses at 64 rows and ties at 96; BENCH_18.json records the crossovers.
NARROW_WIDTH = 8
MANY_ROWS = 128


def many_narrow_rows(rows: int, width: int) -> bool:
    """Whether ``rows`` rows of ``width`` entries are many narrow rows: at
    least MANY_ROWS rows of 1 to NARROW_WIDTH entries.  The width is tested
    first, so wide rows cost one comparison."""
    return 0 < width <= NARROW_WIDTH and rows >= MANY_ROWS


def _row_max(values: np.ndarray) -> np.ndarray:
    """``values.max(axis=-1, keepdims=True)`` exactly, as a new array;
    many narrow rows take it column by column (max does not round, and
    np.maximum propagates NaN as max does)."""
    if values.ndim != 2 or not many_narrow_rows(*values.shape):
        return values.max(axis=-1, keepdims=True)
    m = values[:, 0].copy()
    for j in range(1, values.shape[1]):
        np.maximum(m, values[:, j], out=m)
    return m[:, None]


def _shifted_logsumexp(values: np.ndarray, m: np.ndarray) -> np.ndarray:
    """m + log(sum(exp(values - m))) along the last axis, kept as a
    length-1 axis; ``m`` is each row's max, or 0 for an all -inf row."""
    return m + np.log(np.exp(values - m).sum(axis=-1, keepdims=True))


def _logsumexp(values: np.ndarray) -> np.ndarray:
    """logsumexp of a float64 array along its last axis, kept as a
    length-1 axis."""
    m = _row_max(values)
    empty = m == -np.inf
    if not empty.any():
        return _shifted_logsumexp(values, m)
    m[empty] = 0.0  # an all -inf row then sums to 0 and logs to -inf
    with np.errstate(divide="ignore"):
        return _shifted_logsumexp(values, m)


def logsumexp(values: np.ndarray) -> float | np.ndarray:
    """Stable log(sum(exp(values))) along the last axis; tolerates -inf
    entries.  A float for a vector, one value per row for a matrix."""
    out = _logsumexp(np.asarray(values, dtype=np.float64))[..., 0]
    return float(out) if out.ndim == 0 else out


def softmax(logits: Sequence[float] | np.ndarray) -> Probs:
    """Exponentiate-and-normalize.  -inf entries map to probability 0.

    Raises ContractError("degenerate distribution") when every entry is
    -inf, and on NaN input.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 1 or logits.size == 0:
        raise ContractError("softmax expects a non-empty 1-D vector")
    if np.any(np.isnan(logits)):
        raise ContractError("softmax input contains NaN")
    m = np.max(logits)
    if m == -np.inf:
        raise ContractError("degenerate distribution")
    e = np.exp(logits - m)
    return e / e.sum()


def log_softmax(logits: Sequence[float] | np.ndarray) -> LogProbs:
    """Normalize logits into log-probabilities (logsumexp shifted to 0),
    row by row for a matrix.

    Raises ContractError on NaN input and on a row that is all -inf.
    When every row's max is finite (no NaN, no all -inf row, no +inf),
    the fast path does the checked path's float operations and nothing
    else: -inf entries stay -inf because their row's logsumexp is finite.
    """
    logits = np.asarray(logits, dtype=np.float64)
    m = _row_max(logits)
    if np.isfinite(m).all():
        return logits - _shifted_logsumexp(logits, m)
    if np.isnan(logits).any():
        raise ContractError("log_softmax input contains NaN")
    z = _logsumexp(logits)
    if (z == -np.inf).any():
        raise ContractError("degenerate distribution")
    with np.errstate(invalid="ignore"):
        out = logits - z
    out[logits == -np.inf] = -np.inf
    return out


def log_linear_mix(experts: Sequence[LogProbs], weights: Sequence[float]) -> LogProbs:
    """Weighted product of experts, renormalized, in log space.

    The result is proportional to prod_i expert_i ** weight_i.  Tokens with
    probability zero under a positively-weighted expert keep probability
    zero.  Zero probability under a *negatively*-weighted expert would blow
    up to +inf; instead that expert's log-probs are clamped from below at
    ``LOG_FLOOR``.

    Zero-weight experts are dropped exactly, and a single expert with
    weight exactly 1.0 is returned unchanged (bit-identical).  Experts may
    be (N, V) matrices: row i of the result mixes row i of every expert
    with the same weights, bit-identical to mixing the rows one by one.
    """
    if len(experts) == 0:
        raise ContractError("log_linear_mix needs at least one expert")
    if len(experts) != len(weights):
        raise ContractError("experts and weights must have equal length")
    weights = [float(w) for w in weights]
    if not all(map(math.isfinite, weights)):
        raise ContractError("weights must be finite")
    shape = np.shape(experts[0])
    active = [(np.asarray(e, dtype=np.float64), w) for e, w in zip(experts, weights) if w != 0.0]
    for e, _ in active:
        if e.shape != shape:
            raise ContractError("experts must all have the same length")
    if not active:
        # prod of nothing: uniform
        return np.full(shape, -np.log(shape[-1]))
    if len(active) == 1 and active[0][1] == 1.0:
        return active[0][0].copy()

    forced_zero = None  # where a positively weighted expert gives zero
    total = np.zeros(shape)  # 0.0 + w * e: a -0.0 product sums to +0.0
    for e, w in active:
        if w > 0:
            zero = e == -np.inf
            forced_zero = zero if forced_zero is None else forced_zero | zero
        else:
            e = np.maximum(e, LOG_FLOOR)
        total = total + w * e
    if forced_zero is not None:
        total[forced_zero] = -np.inf
    return log_softmax(total)


def truncate_top_p(dist: Probs, p: float) -> Probs:
    """Keep the smallest prefix of probability-sorted tokens with cumulative
    mass >= p, zero the rest, renormalize.  Ties break toward lower ids."""
    if not (0.0 < p <= 1.0):
        raise ContractError(f"top-p threshold must be in (0, 1], got {p}")
    dist = np.asarray(dist, dtype=np.float64)
    # stable sort on -p: equal probabilities keep ascending id order
    order = np.argsort(-dist, kind="stable")
    csum = np.cumsum(dist[order])
    # float dust: 0.6 + 0.3 < 0.9 in binary; admit within 1e-12
    cut = int(np.searchsorted(csum, p - 1e-12)) + 1
    kept = order[:cut]
    out = np.zeros_like(dist)
    out[kept] = dist[kept]
    return out / out.sum()


def truncate_top_k(dist: Probs, k: int) -> Probs:
    """Keep the k highest-probability tokens (ties to lower id), renormalize."""
    if k <= 0:
        raise ContractError(f"top-k must be positive, got {k}")
    dist = np.asarray(dist, dtype=np.float64)
    if k >= dist.size:
        return dist.copy()
    order = np.argsort(-dist, kind="stable")
    kept = order[:k]
    out = np.zeros_like(dist)
    out[kept] = dist[kept]
    return out / out.sum()


def apply_temperature(logprobs: LogProbs, temperature: float) -> LogProbs:
    """Renormalized values/T; T=1 returns the input unchanged."""
    if temperature <= 0:
        raise ContractError(f"temperature must be positive, got {temperature}")
    logprobs = np.asarray(logprobs, dtype=np.float64)
    if temperature == 1.0:
        return logprobs
    with np.errstate(invalid="ignore"):
        scaled = logprobs / temperature
    scaled[logprobs == -np.inf] = -np.inf
    return log_softmax(scaled)


def kl_divergence(p: Probs, q: Probs) -> float:
    """KL(p || q) in nats.  Support violations return +inf with a warning."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ContractError("kl_divergence: shape mismatch")
    mask = p > 0
    if np.any(q[mask] == 0):
        warnings.warn("kl_divergence: support(p) not contained in support(q)")
        return float("inf")
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def sample(dist: Probs, rng: np.random.Generator) -> int:
    """Draw one token id from dist.  Deterministic given the generator state."""
    dist = np.asarray(dist, dtype=np.float64)
    csum = np.cumsum(dist)
    u = rng.random() * csum[-1]
    return min(int(np.searchsorted(csum, u, side="right")), dist.size - 1)


def uniform_logprobs(n: int) -> LogProbs:
    return np.full(n, -np.log(n))
