"""Sanov-type rates for empirical unravelings on a common basis.

Draw n atoms i.i.d. from the sigma-side common-basis measure and form the
empirical barycenter. The probability that it lands in the open trace-norm
ball of radius epsilon around rho decays exponentially, with a rate that
approaches the BS relative entropy as n grows and epsilon shrinks. With
basis-supported sampling the event is a finite union of multinomial count
vectors, so small systems admit exact enumeration; a Monte Carlo estimator
covers spot checks.

Membership screen. A count vector c lies in the ball when
``td = 0.5 * sum|eigvalsh(emp - rho)| < epsilon``, with emp the empirical
state. Most vectors are decided without that eigensolve. Let p be the
rho-side coefficients ``cb.rho_coeffs``, P_i = |psi_i><psi_i| and
delta = c/n - p. Then emp - rho = X - R with X = sum_i delta_i P_i and the
reconstruction residual R = rho - sum_i p_i P_i, so the two trace distances
differ by at most ||R||_1 / 2 <= sqrt(d) ||R||_F / 2. The Frobenius norm of X
needs no d x d matrix: ||X||_F^2 = delta^T G delta = Q with the real Gram
matrix G_ij = |<psi_i|psi_j>|^2. A traceless Hermitian X obeys
||X||_F / sqrt(2) <= td(X) <= sqrt(d) ||X||_F / 2 (equal at d = 2); the trace
t of X, bounded by |1 - sum_i p_i ||psi_i||^2| + max_i |1 - ||psi_i||^2|,
lowers the left side by at most |t|. Hence, with the slack

    s = sqrt(d) ||R||_F / 2 + max|t| + 16 d^2 (d + 1) u,

a vector with d (Q + e_Q) < 4 (epsilon - s)^2 is inside, one with
Q - e_Q >= 2 (epsilon + s)^2 is outside, and only the shell between goes
through the eigensolve. ||R||_F and max|t| are measured once per
experiment; u = 2^-53 is the unit roundoff. The rounding terms follow from
the standard model fl(a op b) = (a op b)(1 + e), |e| <= u, with every
number involved of modulus at most 1 (c/n, p, G and the entries of psi, P_i
and rho) and d basis vectors:

- e_Q = 32 (d + 3) u bounds the rounding of Q. Each Gram entry carries at
  most (4d + 11) u and the quadratic form 2d u, per unit of
  (sum_i |delta_i|)^2 <= (1 + sum_i p_i)^2 ~ 4; 4 (6d + 11) u < e_Q.
- The last term of s bounds the rest, in trace distance: forming delta
  (2u); forming emp - rho as the eigensolve sees it (d (d + 7) u in each
  eigenvalue, by Weyl); the eigensolve's backward error (LAPACK's Hermitian
  solvers return the exact eigenvalues of a matrix within p(d) u ||A||_2 of
  A, with ||emp - rho||_2 <= 1; we take p(d) = 8 d^2); summing the
  |eigenvalues| (d^2 u / 2); and rounding ||R||_F and max|t|
  ((d + 5) d^1.5 u / 2 and (2d + 4) u). With the per-eigenvalue errors
  summed over d eigenvalues and halved, the total is
  4.5 d^3 + 4 d^2 + 2d + 6 + (d + 5) d^1.5 / 2 units of u (402 at d = 4),
  below the 16 d^2 (d + 1) charged (1280 at d = 4) for every d; the
  headroom also covers the relative rounding of the two comparisons.

So the screen decides a vector only where the eigensolve test would decide
it the same way, and a tie on the sphere always reaches the eigensolve.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .commonbasis import CommonBasis, clamp_weights, common_basis
from .errors import BudgetExceeded, DimMismatch
from .matcore import DEFAULT_TOLS, Tolerances
from .states import DensityMatrix, RngStream, positive_count

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
    """A target pair, its common basis, and the sampling plan.

    The tables every rate of the experiment shares are derived once from
    these: the sigma-side weights, the projector rows |psi_i><psi_i|, the
    Gram matrix |<psi_i|psi_j>|^2 and the membership screen's rounding
    allowances (see the module docstring).
    """

    rho: DensityMatrix
    sigma: DensityMatrix
    cb: CommonBasis
    epsilon: float
    sample_sizes: tuple[int, ...]
    sigma_weights: np.ndarray = field(init=False, repr=False, compare=False)
    proj: np.ndarray = field(init=False, repr=False, compare=False)
    gram: np.ndarray = field(init=False, repr=False, compare=False)
    slack: float = field(init=False, repr=False, compare=False)
    q_round: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        psis, p = self.cb.psis, self.cb.rho_coeffs
        d = psis.shape[0]
        proj = np.einsum("ik,jk->kij", psis, psis.conj()).reshape(d, d * d)
        resid = float(np.linalg.norm(p @ proj - self.rho.matrix.reshape(-1)))
        norms2 = np.einsum("ik,ik->k", psis.conj(), psis).real
        t_max = abs(1.0 - float(p @ norms2)) + float(np.abs(1.0 - norms2).max())
        u = np.finfo(float).eps / 2  # unit roundoff
        tables = {
            "sigma_weights": clamp_weights(self.cb.sigma_coeffs),
            "proj": proj,
            "gram": np.abs(psis.conj().T @ psis) ** 2,
            "slack": 0.5 * math.sqrt(d) * resid + t_max + 16 * d * d * (d + 1) * u,
            "q_round": 32 * (d + 3) * u,
        }
        for name, value in tables.items():
            object.__setattr__(self, name, value)


def make_experiment(
    rho: DensityMatrix,
    sigma: DensityMatrix,
    epsilon: float,
    sample_sizes,
    tols: Tolerances = DEFAULT_TOLS,
) -> LdpExperiment:
    """Validate inputs and precompute the common basis."""
    cb = common_basis(rho, sigma, tols)  # checks the pair
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    sizes = tuple(positive_count(n, "sample size") for n in sample_sizes)
    if not sizes:
        raise ValueError("need at least one sample size")
    return LdpExperiment(rho, sigma, cb, float(epsilon), sizes)


def log_multinomial(counts, weights) -> float | np.ndarray:
    """Log of the multinomial pmf at the given counts, via log-gamma.

    ``counts`` is one count vector or an ``(..., k)`` array of them over the
    k cells of ``weights``; the result is a float, or one per vector.
    Stable for sample sizes far beyond factorial range. Cells must carry
    strictly positive weights; counts are nonnegative integers.
    """
    c = np.asarray(counts)
    w = np.asarray(weights, dtype=float)
    if c.shape[-1:] != w.shape:
        raise DimMismatch(f"counts shape {c.shape} vs weights shape {w.shape}")
    if (c < 0).any() or not np.issubdtype(c.dtype, np.integer):
        raise ValueError("counts must be nonnegative integers")
    if (w <= 0).any():
        raise ValueError("weights must be strictly positive")
    c = c.astype(float)
    n = c @ np.ones(w.size)  # exact row sums, faster than a sum over the short last axis
    return gammaln(n + 1) - gammaln(c + 1).sum(axis=-1) + c @ np.log(w)


def _enumeration_size(n: int, k: int) -> int:
    return math.comb(n + k - 1, k - 1)


def _compositions(n: int, k: int):
    """Yield all count vectors of n into k cells, lexicographically descending.

    The vectors come as int64 blocks of at most ``CHUNK`` rows. When they do
    not fit one block, the enumeration splits on its leading cells.
    """
    yield from _blocks([], np.array([n], np.int64), k)


def _blocks(prefix: list, rems: np.ndarray, cells: int):
    """Complete each prefix (a list of count columns) with every count
    vector of its remainder into ``cells`` cells, in blocks."""
    sizes = np.ones_like(rems)  # C(rem + cells - 1, cells - 1), exactly
    for i in range(1, cells):
        sizes = sizes * (rems + i) // i
    ends = np.cumsum(sizes)
    start = 0
    while start < len(rems):
        if sizes[start] > CHUNK:
            one = slice(start, start + 1)
            yield from _blocks(*_extend([c[one] for c in prefix], rems[one]), cells - 1)
            start += 1
            continue
        stop = int(np.searchsorted(ends, ends[start] - sizes[start] + CHUNK, "right"))
        cols, left = [c[start:stop] for c in prefix], rems[start:stop]
        for _ in range(cells - 1):
            cols, left = _extend(cols, left)
        yield np.stack(cols + [left], axis=1)
        start = stop


def _extend(prefix: list, rems: np.ndarray) -> tuple[list, np.ndarray]:
    """Append one cell to each prefix, counting down from its remainder to
    0; return the longer prefixes with what each leaves over."""
    reps = rems + 1
    left = np.arange(int(reps.sum())) - np.repeat(np.cumsum(reps) - reps, reps)
    cols = [np.repeat(c, reps) for c in prefix]
    return cols + [np.repeat(rems, reps) - left], left


def _reference_weights(exp: LdpExperiment, override) -> np.ndarray:
    if override is not None:
        w = np.asarray(override, dtype=float)
        if w.shape != (exp.cb.dim,):
            raise DimMismatch(f"need {exp.cb.dim} weights, got shape {w.shape}")
        if not ((w > 0).all() and abs(w.sum() - 1.0) <= 1e-10):  # NaN fails too
            raise ValueError("reference weights must be positive and sum to 1")
        return w
    return exp.sigma_weights


def _ball_mask(exp: LdpExperiment, counts: np.ndarray, n: int) -> np.ndarray:
    """Which count vectors put the empirical barycenter inside the ball.

    The Frobenius screen of the module docstring decides every vector it
    can; the eigensolve settles the shell it leaves. The shell's empirical
    states are summed cell by cell, so each row rounds the same whatever
    else shares its block (a BLAS product rounds a one-row block apart from
    a longer one, which could move a tie on the sphere by an ulp).
    """
    d = exp.rho.dim
    delta = counts / n - exp.cb.rho_coeffs
    q = ((delta @ exp.gram) * delta).sum(axis=1)
    below = max(exp.epsilon - exp.slack, 0.0)
    above = exp.epsilon + exp.slack
    inside = d * (q + exp.q_round) < 4.0 * below * below
    shell = ~inside & (q - exp.q_round < 2.0 * above * above)
    if shell.any():
        emp = ((counts[shell] / n)[:, :, None] * exp.proj).sum(axis=1)
        diff = emp.reshape(-1, d, d) - exp.rho.matrix
        tds = 0.5 * np.abs(np.linalg.eigvalsh(diff)).sum(axis=1)
        inside[shell] = tds < exp.epsilon
    return inside


def ball_probability_exact(
    exp: LdpExperiment, n: int, reference_weights=None
) -> tuple[float, float]:
    """Exact probability that the n-sample empirical state hits the ball.

    Enumerates all count vectors of the multinomial draw, in blocks, and
    accumulates the log-probability logP by a max-shifted log-sum-exp.
    Returns (exp(logP), rate) with rate = -logP / n: the probability may
    underflow to 0.0 while the rate stays finite, and only an empty event
    yields an infinite rate. ``BudgetExceeded`` reports the enumeration size
    whenever the cell count or sample size leaves the supported range.
    """
    n = positive_count(n, "sample size")
    k = exp.cb.dim
    size = _enumeration_size(n, k)
    if k > MAX_CELLS or n > MAX_SAMPLES or size > MAX_ENUMERATION:
        raise BudgetExceeded(
            f"enumeration of {size} count vectors (n={n}, cells={k}) "
            f"exceeds the supported budget"
        )
    w = _reference_weights(exp, reference_weights)

    log_prob = -math.inf
    for counts in _compositions(n, k):
        inside = _ball_mask(exp, counts, n)
        if not inside.any():
            continue
        logp = log_multinomial(counts[inside], w)
        top = float(logp.max())
        block = top + math.log(float(np.exp(logp - top).sum()))
        log_prob = float(np.logaddexp(log_prob, block))

    return math.exp(log_prob), -log_prob / n


def ball_probability_mc(
    exp: LdpExperiment,
    n: int,
    trials: int,
    rng: RngStream,
    reference_weights=None,
) -> tuple[float, float]:
    """Monte Carlo estimate of the ball probability with its binomial stderr."""
    n = positive_count(n, "sample size")
    trials = positive_count(trials, "trials")
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
    """Heuristic size of the gap between the finite-n rate and the BS entropy.

    Stirling corrections for k cells contribute about 2k log(n) / n, and the
    open ball of radius epsilon shifts the optimizing state by order epsilon.
    It is not a bound: the rate tends to I_eps, the smallest KL(q || nu) over
    weight vectors q whose barycenter lies in the ball, not to the BS
    entropy. Of 300 seeded d = 3 pairs (``RngStream(11)``, epsilon 0.05,
    n = 100), 2 exceed it, with gaps 0.32632 and 0.34684 against 0.32631.
    """
    return 2.0 * k * math.log(n) / n + epsilon
