"""Sanov-type rates for empirical unravelings on a common basis.

Draw n atoms i.i.d. from weights nu on the common basis, by default the
sigma-side measure, and form the empirical barycenter. The probability that
it lands in the open trace-norm ball of radius epsilon around rho decays
exponentially, with a rate that approaches the BS relative entropy as n grows
and epsilon shrinks. With basis-supported sampling the event is a finite
union of multinomial count vectors, so small systems admit exact
enumeration; a Monte Carlo estimator covers spot checks. ``LdpExperiment``
holds nu and checks it, epsilon and the plan when it is built; every rate
reads that one nu.

One pass per plan. ``ball_log_probabilities`` enumerates every sample size
of a plan together, from the plan itself as the first prefix column: each
block is k-major, a row holding every count vector's sample size over one
row per cell. The distinct sizes, ascending, are packed whole into blocks of
at most ``CHUNK`` vectors; a size with more is split over several on its
leading cells. Each block goes through the membership screen once, each
vector against its own size, and is cut where the size row changes, so each
size is summed over its own contiguous vectors: exactly as it would be alone
when it fits one block, while the pieces of a split size are combined by
``logaddexp``, which may round the total an ulp apart from a split at
another block size. ``ball_probability_exact`` is a plan of one size.
``CHUNK`` = 2^12 was measured against 2^11..2^16 (2 vCPUs with 2 MiB of L2
each, one BLAS thread, numpy 2.4.6): a d = 4 rate curve at n = 15, 30, 45,
60 took 3.8-3.9 ms against 8.3-8.9 ms at 2^16, and one k = 4, n = 400 rate
at epsilon 0.05 0.55-0.66 s against 1.0-1.1 s. Smaller blocks win, most
likely because their float temporaries (128 KiB each at d = 4) stay in
cache; below 2^12 the per-block Python work takes over (4.6-4.8 ms at 2^11).

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

from .commonbasis import CommonBasis, common_basis
from .ensembles import WEIGHT_SUM_TOL
from .errors import BudgetExceeded, DimMismatch
from .matcore import DEFAULT_TOLS, Tolerances, hold
from .states import DensityMatrix, RngStream, positive_count

__all__ = [
    "LdpExperiment",
    "make_experiment",
    "log_multinomial",
    "ball_log_probabilities",
    "ball_probability_exact",
    "ball_probability_mc",
    "rate_curve",
    "tolerance_budget",
]

MAX_CELLS = 4
MAX_SAMPLES = 400
CHUNK = 1 << 12


@dataclass(frozen=True, eq=False)
class LdpExperiment:
    """A target pair, its common basis, the sampling law and the plan.

    Atoms are drawn i.i.d. from ``reference_weights`` (nu), by default the
    basis's own clamped ``cb.sigma_weights``. The experiment checks itself
    however it is built: ``ValueError`` unless epsilon lies in (0, 1), the
    plan is a nonempty sequence of positive integer sizes, and nu is
    positive and sums to 1 within ``WEIGHT_SUM_TOL``; ``DimMismatch`` unless
    rho and sigma have the basis's dimension and nu has one weight per basis
    state. The tables every rate shares are derived once from these: log nu,
    the projector rows |psi_i><psi_i|, the Gram matrix |<psi_i|psi_j>|^2 and
    the membership screen's rounding allowances (see the module docstring).
    nu and the tables are kept as read-only copies (``hold``), as the
    screen's rounding proof needs.
    """

    rho: DensityMatrix
    sigma: DensityMatrix
    cb: CommonBasis
    epsilon: float
    sample_sizes: tuple[int, ...]
    reference_weights: np.ndarray | None = None
    log_weights: np.ndarray = field(init=False, repr=False)
    proj: np.ndarray = field(init=False, repr=False)
    gram: np.ndarray = field(init=False, repr=False)
    slack: float = field(init=False, repr=False)
    q_round: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        sizes = tuple(positive_count(n, "sample size") for n in self.sample_sizes)
        if not sizes:
            raise ValueError("need at least one sample size")
        psis, p, gram = self.cb.psis, self.cb.rho_coeffs, self.cb.gram
        d = psis.shape[0]
        if self.rho.dim != d or self.sigma.dim != d:
            raise DimMismatch(
                f"basis of dimension {d} for states of dimension "
                f"{self.rho.dim} and {self.sigma.dim}"
            )
        w = self.cb.sigma_weights if self.reference_weights is None else self.reference_weights
        w = np.array(w, dtype=float)
        if w.shape != (d,):
            raise DimMismatch(f"need {d} weights, got shape {w.shape}")
        if not ((w > 0).all() and abs(w.sum() - 1.0) <= WEIGHT_SUM_TOL):  # NaN fails too
            raise ValueError("reference weights must be positive and sum to 1")
        proj = np.einsum("ik,jk->kij", psis, psis.conj()).reshape(d, d * d)
        resid = float(np.linalg.norm(p @ proj - self.rho.matrix.reshape(-1)))
        norms2 = gram.diagonal().real
        t_max = abs(1.0 - float(p @ norms2)) + float(np.abs(1.0 - norms2).max())
        u = np.finfo(float).eps / 2  # unit roundoff
        tables = {
            "epsilon": float(self.epsilon),
            "sample_sizes": sizes,
            "reference_weights": w,
            "log_weights": np.log(w),
            "proj": proj,
            "gram": np.abs(gram) ** 2,
            "slack": 0.5 * math.sqrt(d) * resid + t_max + 16 * d * d * (d + 1) * u,
            "q_round": 32 * (d + 3) * u,
        }
        hold(self, **tables)


def make_experiment(
    rho: DensityMatrix, sigma: DensityMatrix, epsilon: float, sample_sizes,
    tols: Tolerances = DEFAULT_TOLS, reference_weights=None,
) -> LdpExperiment:
    """Build the common basis of (rho, sigma), which checks the pair, and the
    experiment on it, which checks epsilon, the plan and the reference
    weights nu (None samples from ``cb.sigma_weights``)."""
    cb = common_basis(rho, sigma, tols)  # checks the pair
    return LdpExperiment(rho, sigma, cb, epsilon, sample_sizes, reference_weights)


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
    return _log_pmf(c, n, np.log(w))


def _log_pmf(c: np.ndarray, n, log_w: np.ndarray) -> np.ndarray:
    """``log_multinomial`` without its checks: float counts ``c`` summing
    to ``n`` (one size for all rows, or one per row), log-weights ``log_w``."""
    return gammaln(n + 1) - gammaln(c + 1).sum(axis=-1) + c @ log_w


def _blocks(prefix: list, rems: np.ndarray, cells: int):
    """Complete each prefix (a list of columns) with every count vector of
    its remainder into ``cells`` cells. Yields k-major blocks of at most
    ``CHUNK`` vectors: one row per prefix column and per cell, one column
    per vector."""
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
        yield np.stack(cols + [left])
        start = stop


def _extend(prefix: list, rems: np.ndarray) -> tuple[list, np.ndarray]:
    """Append one cell to each prefix, counting down from its remainder to
    0; return the longer prefixes with what each leaves over."""
    reps = rems + 1
    left = np.arange(int(reps.sum())) - np.repeat(np.cumsum(reps) - reps, reps)
    cols = [np.repeat(c, reps) for c in prefix]
    return cols + [np.repeat(rems, reps) - left], left


def _ball_mask(exp: LdpExperiment, counts: np.ndarray, n) -> np.ndarray:
    """Which count vectors put the empirical barycenter inside the ball.

    ``n`` is the sample size of every row, or a column of one per row. The
    Frobenius screen of the module docstring decides every vector it can;
    the eigensolve settles the shell it leaves. The shell's empirical
    states are summed cell by cell, so each row rounds the same whatever
    else shares its block (a BLAS product rounds a one-row block apart from
    a longer one, which could move a tie on the sphere by an ulp).
    """
    d = exp.rho.dim
    freq = counts / n
    delta = (freq - exp.cb.rho_coeffs).T  # k-major, as ``_blocks`` lays counts out
    q = np.ones(d) @ ((exp.gram @ delta) * delta)  # every loop runs along the long axis
    below = max(exp.epsilon - exp.slack, 0.0)
    above = exp.epsilon + exp.slack
    inside = d * (q + exp.q_round) < 4.0 * below * below
    shell = ~inside & (q - exp.q_round < 2.0 * above * above)
    if shell.any():
        emp = (freq[shell][:, :, None] * exp.proj).sum(axis=1)
        diff = emp.reshape(-1, d, d) - exp.rho.matrix
        tds = 0.5 * np.abs(np.linalg.eigvalsh(diff)).sum(axis=1)
        inside[shell] = tds < exp.epsilon
    return inside


def ball_log_probabilities(exp: LdpExperiment, sample_sizes) -> list[float]:
    """Exact log-probability logP that the n-sample empirical state hits the
    ball, for every n of ``sample_sizes``, in their order.

    The whole plan is checked before anything is enumerated: every size
    must be a positive integer, and ``BudgetExceeded`` reports the
    enumeration size of the first that leaves the supported range. The
    distinct sizes are then enumerated in one pass of ``_blocks``, whose
    row 0 is every vector's size: each block is screened once, against its
    column of sizes, and its hits are split into runs where their size
    changes. Each size's vectors are summed by a max-shifted log-sum-exp,
    and the pieces of a size split over several blocks by ``logaddexp``. An
    empty event gives -inf.
    """
    sizes = [positive_count(n, "sample size") for n in sample_sizes]
    k = exp.cb.dim
    for n in sizes:
        if k > MAX_CELLS or n > MAX_SAMPLES:
            raise BudgetExceeded(
                f"enumeration of {math.comb(n + k - 1, k - 1)} count vectors (n={n}, cells={k}) "
                f"exceeds the supported budget"
            )

    plan = np.array(sorted(set(sizes)), np.int64)
    log_prob = dict.fromkeys(sizes, -math.inf)
    for block in _blocks([plan], plan, k):  # row 0, each vector's size, ascends
        row_n, counts = block[0], block[1:].T
        hits = np.flatnonzero(_ball_mask(exp, counts, row_n[:, None]))
        if not hits.size:
            continue
        for run in np.split(hits, np.flatnonzero(np.diff(row_n[hits])) + 1):
            n = int(row_n[run[0]])
            logp = _log_pmf(counts[run].astype(float), n, exp.log_weights)
            top = float(logp.max())
            total = top + math.log(float(np.exp(logp - top).sum()))
            log_prob[n] = float(np.logaddexp(log_prob[n], total))
    return [log_prob[n] for n in sizes]


def ball_probability_exact(exp: LdpExperiment, n: int) -> tuple[float, float]:
    """Exact probability that the n-sample empirical state hits the ball.

    A plan of one size for ``ball_log_probabilities``. Returns (exp(logP),
    rate) with rate = -logP / n: the probability may underflow to 0.0 while
    the rate stays finite, and only an empty event yields an infinite rate.
    ``BudgetExceeded`` reports the enumeration size whenever the cell count
    or sample size leaves the supported range.
    """
    n = positive_count(n, "sample size")
    (log_prob,) = ball_log_probabilities(exp, [n])
    return math.exp(log_prob), -log_prob / n


def ball_probability_mc(
    exp: LdpExperiment, n: int, trials: int, rng: RngStream
) -> tuple[float, float]:
    """Monte Carlo estimate of the ball probability with its binomial stderr,
    from ``trials`` draws of n atoms from ``exp.reference_weights``."""
    n = positive_count(n, "sample size")
    trials = positive_count(trials, "trials")
    counts = rng.gen.multinomial(n, exp.reference_weights, size=trials).astype(float)
    inside = _ball_mask(exp, counts, n)
    p_hat = float(inside.mean())
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / trials)
    return p_hat, stderr


def rate_curve(exp: LdpExperiment) -> list[tuple[int, float]]:
    """Exact finite-n rates for every planned sample size, from one
    ``ball_log_probabilities`` pass over the whole plan."""
    log_probs = ball_log_probabilities(exp, exp.sample_sizes)
    return [(n, -log_prob / n) for n, log_prob in zip(exp.sample_sizes, log_probs)]


def tolerance_budget(n: int, k: int, epsilon: float) -> float:
    """Heuristic size of the gap between the finite-n rate and the BS entropy.

    Stirling corrections for k cells contribute about 2k log(n) / n, and the
    open ball of radius epsilon shifts the optimizing state by order epsilon.
    It is not a bound: the rate tends to I_eps, the smallest KL(q || nu) over
    weight vectors q whose barycenter lies in the ball, not to the BS
    entropy. Of 300 seeded d = 3 pairs (``RngStream(11)``, epsilon 0.05,
    n = 100), 2 exceed it, with gaps 0.32632 and 0.34684 against 0.32631.
    No CLI output reports it; the benchmark's sanov gate (``perfbench``) calls it.
    """
    return 2.0 * k * math.log(n) / n + epsilon
