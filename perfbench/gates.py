"""Correctness gates for every benchmark operation, and their references.

Each ``check_*`` function takes plain numbers and arrays (the outputs of one
operation plus the inputs the benchmark generated) and returns a
``Verdict``: how many operations were attempted, one line per failed
operation, and the headroom of each gate (worst measured gap divided by the
gate's bound, so values above 1 fail). The bounds are the package's
acceptance criteria. References (``pair_reference``, ``scan_reference``,
``rate_reference``) are computed here with plain numpy and scipy,
independently of the package; the benchmark also times them, in the same
run as the package calls they check.

The self-test feeds deliberately corrupted outputs to these functions, so
every gate is shown to reject a wrong answer.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.special import gammaln, logsumexp

BS_UNR_TOL = 1e-8  # criterion 01: |bs - unr| / max(1, bs)
UMEGAKI_BS_TOL = 1e-9  # criterion 02: umegaki - bs
MAXF_TOL = 1e-8  # criterion 11: |max_f - basis f|
REFERENCE_TOL = 1e-9  # a divergence or rate against its direct numpy evaluation
SCAN_STEP_TOL = 1e-7  # criterion 08: largest step increase along a scan
BALL_MARGIN = 1e-9  # relative; count vectors this close to the sphere may fall either side


@dataclass
class Verdict:
    """``failures``: one line per failed operation. ``known``: outputs of a
    known program defect, listed in the workload by input and sample size;
    only the workload's untimed defect probe asks for them."""

    attempted: int
    failures: list[str] = field(default_factory=list)
    known: list[str] = field(default_factory=list)
    headroom: dict[str, float] = field(default_factory=dict)


def raised(attempted: int, exc: BaseException) -> Verdict:
    """Verdict for an operation whose call raised: all its items failed."""
    msg = f"raised {type(exc).__name__}: {exc}"
    return Verdict(attempted, [msg] * attempted)


# --- references -----------------------------------------------------------


def _hermitize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


def _fn(m: np.ndarray, f) -> np.ndarray:
    w, v = np.linalg.eigh(_hermitize(m))
    return (v * f(w)) @ v.conj().T


def umegaki_reference(rho: np.ndarray, sigma: np.ndarray) -> float:
    rho, sigma = _hermitize(rho), _hermitize(sigma)
    return float(np.trace(rho @ (_fn(rho, np.log) - _fn(sigma, np.log))).real)


def bs_reference(rho: np.ndarray, sigma: np.ndarray) -> float:
    rho, sigma = _hermitize(rho), _hermitize(sigma)
    sr = _fn(rho, np.sqrt)
    core = sr @ _fn(sigma, lambda x: 1.0 / x) @ sr
    return float(np.trace(rho @ _fn(core, np.log)).real)


# f(x) of the sweeps' generators, in the order Sweep uses them
F_GENERATORS = (lambda x: x * np.log(x), lambda x: x * x - x, lambda x: -np.log(x))


def pair_reference(rho: np.ndarray, sigma: np.ndarray) -> tuple[float, float, list[float]]:
    """Umegaki and BS entropy of one sweep pair, and its classical
    f-divergences sum_i sigma_i f(rho_i / sigma_i) on the common basis."""
    _, w_rho, w_sigma = basis_reference(rho, sigma)
    f_divs = [float(np.sum(w_sigma * f(w_rho / w_sigma))) for f in F_GENERATORS]
    return umegaki_reference(rho, sigma), bs_reference(rho, sigma), f_divs


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    return float(0.5 * np.abs(np.linalg.eigvalsh(_hermitize(a - b))).sum())


def lindblad_generator(h: np.ndarray, jumps, rates) -> np.ndarray:
    """Generator of d rho/dt = -i[H, rho] + sum_j g_j^2 (S rho S^dag - {S^dag S, rho}/2)
    on row-stacked states: vec(A X B) = (A kron B^T) vec(X)."""
    eye = np.eye(h.shape[0])
    gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for s, g in zip(jumps, rates):
        sds = s.conj().T @ s
        gen += g * g * (np.kron(s, s.conj()) - 0.5 * np.kron(sds, eye) - 0.5 * np.kron(eye, sds.T))
    return gen


def scan_reference(gen: np.ndarray, rho: np.ndarray, sigma: np.ndarray, times: np.ndarray) -> np.ndarray:
    """BS entropy of the pair at every time, each propagated by expm(t * gen)."""
    d = rho.shape[0]
    vecs0 = np.stack([rho.ravel(), sigma.ravel()], axis=1)
    out = []
    for t in times:
        r, s = (v.reshape(d, d) for v in (scipy.linalg.expm(t * gen) @ vecs0).T)
        out.append(bs_reference(r / np.trace(r).real, s / np.trace(s).real))
    return np.array(out)


def basis_reference(rho: np.ndarray, sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Common-basis projectors (k, d*d) and the rho- and sigma-side weights,
    from numpy.

    The basis vectors are rho u_i with u_i = rho^{-1/2} y_i, where y_i are the
    eigenvectors of rho^{-1/2} sigma rho^{-1/2} with eigenvalues kappa_i; their
    rho-side weights are |rho u_i|^2 / <u_i|rho|u_i>, and the sigma-side
    weights kappa_i times those.
    """
    rho, sigma = _hermitize(rho), _hermitize(sigma)
    inv_sqrt = _fn(rho, lambda x: 1.0 / np.sqrt(x))
    kappa, y = np.linalg.eigh(_hermitize(inv_sqrt @ sigma @ inv_sqrt))
    u = inv_sqrt @ y
    ru = rho @ u
    norms2 = np.einsum("ij,ij->j", ru.conj(), ru).real
    weights = norms2 / np.einsum("ij,ij->j", u.conj(), ru).real
    psis = ru / np.sqrt(norms2)
    proj = np.stack([np.outer(p, p.conj()).ravel() for p in psis.T])
    return proj, weights, kappa * weights


def all_counts(n: int, k: int) -> np.ndarray:
    """Every count vector of n draws into k cells (stars and bars)."""
    bars = np.array(list(itertools.combinations(range(n + k - 1), k - 1)), dtype=int)
    bars = bars.reshape(-1, k - 1)
    edges = np.column_stack(
        [np.full(len(bars), -1), bars, np.full(len(bars), n + k - 1)]
    )
    return np.diff(edges, axis=1) - 1


# --- gates ----------------------------------------------------------------


def check_pair(
    d_u: float,
    d_bs: float,
    d_unr: float,
    max_f: list[tuple[float, float]],
    reference: tuple[float, float, list[float]],
) -> Verdict:
    """One sweep pair: criteria 01, 02 and 11, plus umegaki, bs and each
    max_f against ``pair_reference``."""
    v = Verdict(1)
    values = [d_u, d_bs, d_unr] + [x for pair in max_f for x in pair]
    if not all(math.isfinite(x) for x in values):
        v.failures.append("non-finite divergence")
        return v
    u_ref, bs_ref, f_refs = reference
    v.headroom = {
        "bs_unr": abs(d_bs - d_unr) / max(1.0, d_bs) / BS_UNR_TOL,
        "umegaki_bs": (d_u - d_bs) / UMEGAKI_BS_TOL,
        "maxf": max(abs(a - b) for a, b in max_f) / MAXF_TOL,
        "umegaki_ref": abs(d_u - u_ref) / max(1.0, abs(d_u)) / REFERENCE_TOL,
        "bs_ref": abs(d_bs - bs_ref) / max(1.0, abs(d_bs)) / REFERENCE_TOL,
        "maxf_ref": max(abs(a - f) / max(1.0, abs(f)) for (a, _), f in zip(max_f, f_refs)) / MAXF_TOL,
    }
    for gate, h in v.headroom.items():
        if h > 1.0:
            v.failures.append(f"{gate} gate missed (headroom {h:.3g})")
            break
    return v


def check_scan(
    series: list[tuple[float, float]], times: np.ndarray, reference: np.ndarray
) -> Verdict:
    """One contraction scan: criterion 08, times echoed, and every point
    against ``scan_reference``, an independent propagation."""
    v = Verdict(1)
    ts = np.array([t for t, _ in series], dtype=float)
    vals = np.array([x for _, x in series], dtype=float)
    if ts.shape != times.shape or not np.array_equal(ts, times):
        v.failures.append(f"scan returned times {ts.tolist()}")
        return v
    if not np.isfinite(vals).all():
        v.failures.append("non-finite divergence along the scan")
        return v
    ref_gap = np.abs(vals - reference) / np.maximum(1.0, np.abs(reference))
    v.headroom = {
        "step_increase": float(np.diff(vals).max()) / SCAN_STEP_TOL,
        "scan_ref": float(ref_gap.max()) / REFERENCE_TOL,
    }
    for gate, h in v.headroom.items():
        if h > 1.0:
            v.failures.append(f"{gate} gate missed (headroom {h:.3g})")
            break
    return v


@dataclass(frozen=True)
class LdpReference:
    """What the benchmark knows about one ldp config, computed in set-up."""

    rho: np.ndarray
    bs: float
    epsilon: float
    proj: np.ndarray
    sigma_weights: np.ndarray

    @classmethod
    def build(cls, rho: np.ndarray, sigma: np.ndarray, epsilon: float) -> "LdpReference":
        proj, _, sigma_weights = basis_reference(rho, sigma)
        return cls(_hermitize(rho), bs_reference(rho, sigma), epsilon, proj, sigma_weights)

    def rate_bracket(self, n: int) -> tuple[float, float]:
        """Exact rates -log(P) / n of the ball grown and shrunk by BALL_MARGIN.

        P sums the multinomial probabilities, under the sigma-side weights, of
        every count vector whose empirical state lies within eps of rho. A
        correct rate lies between the two; the shrunk ball's rate is inf when
        no count vector lies strictly inside.
        """
        d = self.rho.shape[0]
        counts = all_counts(n, len(self.sigma_weights))
        emp = ((counts / n) @ self.proj).reshape(-1, d, d)
        tds = 0.5 * np.abs(np.linalg.eigvalsh(emp - self.rho)).sum(axis=1)
        logp = gammaln(n + 1) - gammaln(counts + 1).sum(axis=1) + counts @ np.log(self.sigma_weights)
        rates = []
        for scale in (1.0 + BALL_MARGIN, 1.0 - BALL_MARGIN):
            inside = tds < self.epsilon * scale
            rates.append(-logsumexp(logp[inside]) / n if inside.any() else math.inf)
        return rates[0], rates[1]


def rate_reference(ref: LdpReference, sizes: tuple[int, ...]) -> dict[int, tuple[float, float]]:
    """``rate_bracket`` at every sample size of one config."""
    return {n: ref.rate_bracket(n) for n in sizes}


def check_rates(
    ref: LdpReference,
    rows: list[tuple[int, float]],
    sizes: tuple[int, ...],
    budget,
    brackets: dict[int, tuple[float, float]],
    known_underflow: tuple[int, ...] = (),
) -> Verdict:
    """Rate points of one config against the exact reference and the budget.

    ``brackets`` is ``rate_reference`` of the config. A rate must lie within
    its bracket (to REFERENCE_TOL, relative to max(1, rate)); a finite rate
    must also lie within ``budget(n, k, eps)``, the program's documented
    tolerance, of the reference BS entropy. So an infinite rate passes only
    when no count vector lies strictly inside the ball. An infinite rate at a
    size in ``known_underflow`` whose event is not empty is the program's
    known underflow defect: it is listed in ``known``, not in ``failures``.
    """
    v = Verdict(len(sizes))
    got = dict(rows)
    if sorted(got) != sorted(sizes) or len(rows) != len(sizes):
        v.failures = [f"rate rows for n={sorted(got)}, expected {list(sizes)}"] * len(sizes)
        return v
    k = len(ref.sigma_weights)
    worst = 0.0
    for n in sizes:
        rate, (lo, hi) = got[n], brackets[n]
        if math.isnan(rate) or rate == -math.inf:
            v.failures.append(f"n={n}: rate is {rate}")
        elif rate == math.inf:
            if math.isfinite(hi):
                msg = f"n={n}: inf rate but the event is not empty (reference rate {hi:.6g}, eps={ref.epsilon})"
                (v.known if n in known_underflow else v.failures).append(msg)
        else:
            slack = REFERENCE_TOL * max(1.0, abs(rate))
            h = abs(rate - ref.bs) / budget(n, k, ref.epsilon)
            worst = max(worst, h)
            if not lo - slack <= rate <= hi + slack:
                v.failures.append(f"n={n}: rate {rate:.12g} outside the reference [{lo:.12g}, {hi:.12g}]")
            elif h > 1.0:
                v.failures.append(f"n={n}: |rate - bs| over budget (headroom {h:.3g})")
    v.headroom = {"rate": worst}
    return v
