"""Markovian open-system dynamics and its pure-state unraveling.

The master equation evolved here is

    d rho / dt = -i [H, rho]
                 + sum_j gamma_j^2 (S_j rho S_j^dag - {S_j^dag S_j, rho} / 2),

with Hermitian H, arbitrary jump operators S_j, and nonnegative coupling
rates gamma_j (units 1 / sqrt(time), so gamma^2 is a rate). Propagation uses
the matrix exponential of the vectorized generator, which is exact up to the
exponential's own roundoff at these dimensions. A contraction scan builds the
generator once and steps both states together, one exponential per distinct gap.

The stochastic counterpart is a diffusive (Brownian-noise) pure-state
equation, integrated by Euler-Maruyama:

    d psi = (-i H - 1/2 sum_j gamma_j^2 S_j^dag S_j) psi dt
            + i sum_j gamma_j S_j psi dX_j,    dX_j ~ N(0, dt).

This equation is linear, so paths preserve their norm only in mean. Each
step is renormalized for numerical conditioning, and the discarded squared
norms are accumulated as a per-trajectory likelihood weight: the flow's
state is the weighted average of the normalized projectors,

    rho_t = E[ w(t) |psi_t><psi_t| ],   w(t) = prod of squared step norms,

which reproduces the master equation up to O(dt) integrator bias plus Monte
Carlo error. Dropping the weights would tilt the drift at order one, not at
order dt, so they are not optional bookkeeping.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np
from scipy.linalg import expm

from .entropy import bs_entropy
from .errors import (
    DimMismatch,
    NotHermitian,
    StepExplosion,
    ValidationFailure,
    ValidationError,
    NotFaithful,
)
from .matcore import DEFAULT_TOLS, Tolerances, hermitize, hermiticity_defect
from .states import DensityMatrix, PureState, RngStream, validate_density
from .ensembles import DiscreteEnsemble, _merged_ensemble

__all__ = [
    "LindbladModel",
    "Trajectory",
    "lindblad_superop",
    "lindblad_evolve",
    "sse_trajectory",
    "evolve_ensemble",
    "contraction_scan",
]

TRACE_DRIFT_TOL = 1e-9


@dataclass(frozen=True)
class LindbladModel:
    """Generator data: Hamiltonian, jump operators, coupling rates."""

    hamiltonian: np.ndarray
    jumps: tuple[np.ndarray, ...] = ()
    rates: tuple[float, ...] = ()

    def __post_init__(self):
        h = np.ascontiguousarray(self.hamiltonian, dtype=complex)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise DimMismatch(f"Hamiltonian must be square, got shape {h.shape}")
        if not np.isfinite(h).all():
            raise NotHermitian("Hamiltonian has non-finite entries")
        defect = hermiticity_defect(h)
        if defect > DEFAULT_TOLS.tol_herm:
            raise NotHermitian(f"Hamiltonian defect {defect:.3e} exceeds tolerance")
        jumps = tuple(np.ascontiguousarray(s, dtype=complex) for s in self.jumps)
        for s in jumps:
            if s.shape != h.shape:
                raise DimMismatch(f"jump shape {s.shape} does not match {h.shape}")
            if not np.isfinite(s).all():
                raise ValueError("jump operator has non-finite entries")
        rates = tuple(float(g) for g in self.rates)
        if len(rates) != len(jumps):
            raise DimMismatch(f"{len(jumps)} jumps but {len(rates)} rates")
        if not all(math.isfinite(g) and g >= 0 for g in rates):
            raise ValueError(f"rates must be finite and nonnegative, got {rates}")
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "jumps", jumps)
        object.__setattr__(self, "rates", rates)

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]


@dataclass(frozen=True)
class Trajectory:
    """One stochastic pure-state path with its reproducibility record.

    ``log_weights[i]`` is the log likelihood weight accumulated up to
    ``times[i]``: twice the summed log of the pre-normalization step norms.
    Averages against the path measure weight state i by
    ``exp(log_weights[i])``; the array starts at 0 and has mean weight 1
    over trajectories at every fixed time.
    """

    times: np.ndarray
    states: tuple[PureState, ...]
    log_weights: np.ndarray
    seed: int
    stream_id: int


def _vec(mat: np.ndarray) -> np.ndarray:
    # column-major stacking: vec(A rho B) = (B^T kron A) vec(rho)
    return mat.flatten(order="F")


def _unvec(v: np.ndarray, n: int) -> np.ndarray:
    return v.reshape((n, n), order="F")


def lindblad_superop(model: LindbladModel) -> np.ndarray:
    """Dense n^2 x n^2 generator matrix acting on column-stacked states."""
    n = model.dim
    eye = np.eye(n)
    h = model.hamiltonian
    l = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for s, g in zip(model.jumps, model.rates):
        g2 = g * g
        sds = s.conj().T @ s
        l += g2 * (
            np.kron(s.conj(), s)
            - 0.5 * np.kron(eye, sds)
            - 0.5 * np.kron(sds.T, eye)
        )
    return l


def _checked_state(v: np.ndarray, n: int, t: float, tols: Tolerances | None):
    # drift is read off the raw propagated column, before renormalizing
    out = hermitize(_unvec(v, n))
    tr = float(np.real(np.trace(out)))
    if not abs(tr - 1.0) <= TRACE_DRIFT_TOL:  # a NaN trace fails here too
        raise ValidationFailure(
            f"trace drifted to {tr!r} at t={t} (budget {TRACE_DRIFT_TOL:.1e})"
        )
    try:
        return validate_density(out / tr, tols)
    except ValidationError as exc:
        raise ValidationFailure(f"evolved state invalid at t={t}: {exc}") from exc


def lindblad_evolve(
    model: LindbladModel,
    rho0: DensityMatrix,
    t: float,
    tols: Tolerances | None = None,
) -> DensityMatrix:
    """Propagate rho0 for time t >= 0 through the matrix exponential.

    The result is re-Hermitized and trace-renormalized (the raw trace drift
    must stay below 1e-9), then revalidated; any remaining invariant failure
    surfaces as ``ValidationFailure``.
    """
    if model.dim != rho0.dim:
        raise DimMismatch(f"model dim {model.dim} vs state dim {rho0.dim}")
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"time must be finite and nonnegative, got {t}")
    v = expm(t * lindblad_superop(model)) @ _vec(rho0.matrix)
    return _checked_state(v, model.dim, t, tols)


def _drift_matrix(model: LindbladModel) -> np.ndarray:
    d = -1j * model.hamiltonian.astype(complex)
    for s, g in zip(model.jumps, model.rates):
        d -= 0.5 * (g * g) * (s.conj().T @ s)
    return d


def _n_steps(t_final: float, dt: float) -> int:
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if t_final < dt:
        raise ValueError(f"t_final {t_final} is below one step dt={dt}")
    return int(round(t_final / dt))


def _sse_steps(
    model: LindbladModel,
    psi0: np.ndarray,
    noise: np.ndarray,
    dt: float,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Euler-Maruyama steps of a (batch, dim) block of trajectories.

    ``noise`` holds each trajectory's increments dX, shaped (batch, steps,
    n_jumps). After every step the renormalized block and the running log
    likelihood weights are yielded as fresh arrays; ``StepExplosion`` names
    the trajectory, the step and t.
    """
    steps = noise.shape[1]
    drift_t = _drift_matrix(model).T
    jump_ts = [s.T for s in model.jumps]
    p = psi0
    logw = np.zeros(p.shape[0])
    for step in range(steps):
        dp = dt * (p @ drift_t)
        for j, (st, g) in enumerate(zip(jump_ts, model.rates)):
            dp += (1j * g) * (p @ st) * noise[:, step, j][:, None]
        p = p + dp
        nrm = np.linalg.norm(p, axis=1)
        bad = ~((nrm >= 0.5) & (nrm <= 2.0))  # a NaN norm is bad too
        if bad.any():
            k = int(np.flatnonzero(bad)[0])
            raise StepExplosion(
                f"norm {nrm[k]:.3e} left [0.5, 2] at step {step} "
                f"(trajectory {k}, t={(step + 1) * dt:.6g})"
            )
        p = p / nrm[:, None]
        logw = logw + 2.0 * np.log(nrm)
        yield p, logw


def sse_trajectory(
    model: LindbladModel,
    psi0: PureState,
    t_final: float,
    dt: float,
    rng: RngStream,
) -> Trajectory:
    """Single Euler-Maruyama path of the diffusive unraveling.

    Runs round(t_final / dt) steps of size dt, renormalizing after each one
    and folding the discarded squared norm into the path's running log
    weight. A pre-normalization norm outside [0.5, 2] aborts with
    ``StepExplosion``; that window flags a step size too coarse for the
    model's rates. The path is a batch of one through the stepping loop of
    ``evolve_ensemble``, with the same noise consumption.
    """
    if model.dim != psi0.dim:
        raise DimMismatch(f"model dim {model.dim} vs state dim {psi0.dim}")
    steps = _n_steps(t_final, dt)
    noise = rng.gen.standard_normal((1, steps, len(model.jumps))) * math.sqrt(dt)
    states = [psi0]
    log_weights = [0.0]
    for p, logw in _sse_steps(model, psi0.amplitudes[None, :], noise, dt):
        states.append(PureState(p[0]))
        log_weights.append(float(logw[0]))
    times = dt * np.arange(steps + 1)
    return Trajectory(
        times, tuple(states), np.array(log_weights), rng.seed, rng.stream_id
    )


def evolve_ensemble(
    model: LindbladModel,
    mu0: DiscreteEnsemble,
    t: float,
    dt: float,
    n_per_atom: int,
    rng: RngStream,
) -> DiscreteEnsemble:
    """Unravel an ensemble: n_per_atom stochastic paths from every atom.

    Trajectory g (numbered globally across atoms) draws its noise from the
    stream (rng.seed, g), so runs are reproducible and order-independent;
    callers doing their own Monte Carlo alongside should keep clear of those
    stream ids. Each final atom carries its source weight over n_per_atom
    times the path's likelihood weight, normalized across the whole output;
    final states within ``TOL_MATCH`` of each other are merged into one atom
    with their summed weight, so a deterministic flow collapses to one atom
    per input atom.

    The barycenter of the result tracks ``lindblad_evolve`` of the input
    barycenter within Monte Carlo error O(1/sqrt(n_per_atom)) plus O(dt)
    integrator bias.
    """
    if model.dim != mu0.dim:
        raise DimMismatch(f"model dim {model.dim} vs ensemble dim {mu0.dim}")
    if n_per_atom < 1:
        raise ValueError(f"need at least one trajectory per atom, got {n_per_atom}")
    if t == 0.0:
        return mu0
    steps = _n_steps(t, dt)
    shape = (steps, len(model.jumps))

    finals, logws = [], []
    for a, (row, weight) in enumerate(zip(mu0.amps, mu0.weights)):
        streams = range(a * n_per_atom, (a + 1) * n_per_atom)
        noise = np.stack([rng.split(g).gen.standard_normal(shape) for g in streams])
        noise *= math.sqrt(dt)
        block = np.broadcast_to(row, (n_per_atom, model.dim))
        for last, logw in _sse_steps(model, block, noise, dt):
            pass  # only the final step is kept
        finals.append(last)
        logws.append((weight, logw))

    # common shift keeps exp() tame; it cancels in the final normalization
    shift = max(lw.max() for _, lw in logws)
    traj_w = np.concatenate([(w / n_per_atom) * np.exp(lw - shift) for w, lw in logws])
    return _merged_ensemble(np.concatenate(finals), traj_w)


def contraction_scan(
    model: LindbladModel,
    rho0: DensityMatrix,
    sigma0: DensityMatrix,
    times: np.ndarray,
    tols: Tolerances | None = None,
) -> list[tuple[float, float]]:
    """BS relative entropy of a co-evolved pair along the flow.

    Returns (t, d_bs) for every requested time. The generator is built once and
    both states are stepped together from each time to the next, one propagator
    per distinct gap, with the checks of ``lindblad_evolve`` at each point. Gaps
    within 4 ulps of the largest time differ by the grid's rounding only and
    share one propagator.
    Both states must stay faithful; a flow that drives one rank-deficient
    raises ``NotFaithful`` stamped with the failing time. Monotone decrease is
    the caller's check, not enforced here.
    """
    tols = tols or DEFAULT_TOLS
    ts = np.asarray(times, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise ValueError("times must be a nonempty 1-d array")
    if not np.isfinite(ts).all() or (ts < 0).any() or (np.diff(ts) <= 0).any():
        raise ValueError("times must be finite, nonnegative and strictly increasing")
    if not model.dim == rho0.dim == sigma0.dim:
        raise DimMismatch(f"model dim {model.dim} vs states {rho0.dim}, {sigma0.dim}")

    l = lindblad_superop(model)
    block = np.stack([_vec(rho0.matrix), _vec(sigma0.matrix)], axis=1)
    propagators: dict[float, np.ndarray] = {}
    rounding = 4 * np.spacing(ts.max())
    out = []
    for gap, t in zip(np.diff(ts, prepend=0.0).tolist(), ts.tolist()):
        if gap > 0:
            gap = next((g for g in propagators if abs(g - gap) <= rounding), gap)
            if gap not in propagators:
                propagators[gap] = expm(gap * l)
            block = propagators[gap] @ block
        rho_t, sigma_t = (_checked_state(v, model.dim, t, tols) for v in block.T)
        for name, state in (("rho", rho_t), ("sigma", sigma_t)):
            if state.min_eigenvalue <= tols.eps_faithful:
                raise NotFaithful(
                    f"{name} lost faithfulness at t={t:.6g} "
                    f"(smallest eigenvalue {state.min_eigenvalue:.3e})"
                )
        out.append((float(t), bs_entropy(rho_t, sigma_t, tols)))
    return out
