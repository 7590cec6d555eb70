"""Sanov-type rates for empirical unravelings on a common basis.

Draw n atoms i.i.d. from the sigma-side common-basis measure and form the
empirical barycenter. The probability that it lands in the open trace-norm
ball of radius epsilon around rho decays exponentially, with a rate that
approaches the BS relative entropy as n grows and epsilon shrinks. With
basis-supported sampling the event is a finite union of multinomial count
vectors, so small systems admit exact enumeration; a Monte Carlo estimator
covers spot checks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .commonbasis import CommonBasis, cb_measures, common_basis
from .errors import BudgetExceeded, DimMismatch
from .matcore import DEFAULT_TOLS, Tolerances
from .states import DensityMatrix, RngStream, require_faithful

__all__ = [
    "LdpExperiment",
    "make_experiment",
    "log_multinomial",
    "ball_probability_exact",
    "ball_probability_mc",
    "rate_curve",
    "tolerance_budget",
]

MAX_CELLS = 4
MAX_SAMPLES = 400
MAX_ENUMERATION = 20_000_000
CHUNK = 1 << 16


@dataclass(frozen=True)
class LdpExperiment:
    """A target pair, its common basis, and the sampling plan."""

    rho: DensityMatrix
    sigma: DensityMatrix
    cb: CommonBasis
    epsilon: float
    sample_sizes: tuple[int, ...]


def make_experiment(
    rho: DensityMatrix,
    sigma: DensityMatrix,
    epsilon: float,
    sample_sizes,
    tols: Tolerances | None = None,
) -> LdpExperiment:
    """Validate inputs and precompute the common basis."""
    tols = tols or DEFAULT_TOLS
    require_faithful(rho, "rho", tols)
    require_faithful(sigma, "sigma", tols)
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    sizes = tuple(int(n) for n in sample_sizes)
    if not sizes or any(n < 1 for n in sizes):
        raise ValueError(f"sample sizes must be positive, got {sizes}")
    cb = common_basis(rho, sigma, tols)
    return LdpExperiment(rho, sigma, cb, float(epsilon), sizes)


def log_multinomial(counts, weights) -> float:
    """Log of the multinomial pmf at the given counts, via log-gamma.

    Stable for sample sizes far beyond factorial range. Cells must carry
    strictly positive weights; counts are nonnegative integers.
    """
    c = np.asarray(counts)
    w = np.asarray(weights, dtype=float)
    if c.shape != w.shape:
        raise DimMismatch(f"counts shape {c.shape} vs weights shape {w.shape}")
    if (c < 0).any() or not np.issubdtype(c.dtype, np.integer):
        raise ValueError("counts must be nonnegative integers")
    if (w <= 0).any():
        raise ValueError("weights must be strictly positive")
    n = int(c.sum())
    return float(gammaln(n + 1) - gammaln(c + 1).sum() + (c * np.log(w)).sum())


def _enumeration_size(n: int, k: int) -> int:
    return math.comb(n + k - 1, k - 1)


def _compositions(n: int, k: int):
    """Yield all count vectors of n into k cells, lexicographically."""
    if k == 1:
        yield (n,)
        return
    for first in range(n, -1, -1):
        for rest in _compositions(n - first, k - 1):
            yield (first,) + rest


def _reference_weights(exp: LdpExperiment, override) -> np.ndarray:
    if override is not None:
        w = np.asarray(override, dtype=float)
        if w.shape != (exp.cb.dim,):
            raise DimMismatch(f"need {exp.cb.dim} weights, got shape {w.shape}")
        if (w <= 0).any() or abs(w.sum() - 1.0) > 1e-10:
            raise ValueError("reference weights must be positive and sum to 1")
        return w
    _, nu = cb_measures(exp.cb)
    return nu.weights


def _ball_mask(exp: LdpExperiment, counts: np.ndarray, n: int) -> np.ndarray:
    """Which count vectors put the empirical barycenter inside the ball."""
    d = exp.rho.dim
    proj = np.einsum("ik,jk->kij", exp.cb.psis, exp.cb.psis.conj()).reshape(d, d * d)
    emp = (counts / n) @ proj
    diff = emp.reshape(-1, d, d) - exp.rho.matrix
    tds = 0.5 * np.abs(np.linalg.eigvalsh(diff)).sum(axis=1)
    return tds < exp.epsilon


def ball_probability_exact(
    exp: LdpExperiment, n: int, reference_weights=None
) -> tuple[float, float]:
    """Exact probability that the n-sample empirical state hits the ball.

    Enumerates all count vectors of the multinomial draw, in chunks, and
    accumulates the log-probability logP by a max-shifted log-sum-exp.
    Returns (exp(logP), rate) with rate = -logP / n: the probability may
    underflow to 0.0 while the rate stays finite, and only an empty event
    yields an infinite rate. ``BudgetExceeded`` reports the enumeration size
    whenever the cell count or sample size leaves the supported range.
    """
    k = exp.cb.dim
    size = _enumeration_size(n, k)
    if k > MAX_CELLS or n > MAX_SAMPLES or size > MAX_ENUMERATION:
        raise BudgetExceeded(
            f"enumeration of {size} count vectors (n={n}, cells={k}) "
            f"exceeds the supported budget"
        )
    w = _reference_weights(exp, reference_weights)
    log_w = np.log(w)

    log_prob = -math.inf
    buf = []
    lg_n = gammaln(n + 1)

    def flush(chunk: list) -> float:
        counts = np.array(chunk, dtype=float)
        inside = _ball_mask(exp, counts, n)
        if not inside.any():
            return -math.inf
        c = counts[inside]
        logp = lg_n - gammaln(c + 1).sum(axis=1) + c @ log_w
        top = float(logp.max())
        return top + math.log(float(np.exp(logp - top).sum()))

    for combo in _compositions(n, k):
        buf.append(combo)
        if len(buf) == CHUNK:
            log_prob = float(np.logaddexp(log_prob, flush(buf)))
            buf = []
    if buf:
        log_prob = float(np.logaddexp(log_prob, flush(buf)))

    return math.exp(log_prob), -log_prob / n


def ball_probability_mc(
    exp: LdpExperiment,
    n: int,
    trials: int,
    rng: RngStream,
    reference_weights=None,
) -> tuple[float, float]:
    """Monte Carlo estimate of the ball probability with its binomial stderr."""
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    w = _reference_weights(exp, reference_weights)
    counts = rng.gen.multinomial(n, w, size=trials).astype(float)
    inside = _ball_mask(exp, counts, n)
    p_hat = float(inside.mean())
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / trials)
    return p_hat, stderr


def rate_curve(exp: LdpExperiment, reference_weights=None) -> list[tuple[int, float]]:
    """Exact finite-n rates for every planned sample size."""
    out = []
    for n in exp.sample_sizes:
        _, rate = ball_probability_exact(exp, n, reference_weights)
        out.append((n, rate))
    return out


def tolerance_budget(n: int, k: int, epsilon: float) -> float:
    """Disclosed gap budget between the finite-n rate and the limit.

    Stirling corrections for k cells contribute about 2k log(n) / n, and the
    open ball of radius epsilon shifts the optimizing state by order epsilon.
    """
    return 2.0 * k * math.log(n) / n + epsilon
