"""Markovian open-system dynamics and its pure-state unraveling.

The master equation evolved here is

    d rho / dt = -i [H, rho]
                 + sum_j gamma_j^2 (S_j rho S_j^dag - {S_j^dag S_j, rho} / 2),

with Hermitian H, arbitrary jump operators S_j, and nonnegative coupling
rates gamma_j (units 1 / sqrt(time), so gamma^2 is a rate, and must be
finite). Written with the drift D = -i H - 1/2 sum_j gamma_j^2 S_j^dag S_j,
the generator is L(rho) = D rho + rho D^dag + sum_j gamma_j^2 S_j rho S_j^dag.
The model builds D once, at construction, and keeps it read-only as
``LindbladModel.drift``; a model whose D is not finite is rejected there, so
the generator and the stochastic equation below read the one checked matrix.
Propagation uses the matrix exponential of the vectorized generator, which is
exact up to the exponential's own roundoff at these dimensions.

A contraction scan builds the generator once and steps both states together,
one exponential per distinct gap, propagating every point before checking
any. It then checks all 2P states of its P points with one stacked
eigensolve (``faithful_stack``) and takes the BS values from a second one
over the P cores sqrt(rho) sigma^{-1} sqrt(rho), each core its own member of
the stack. When any stacked check fails, the scan reruns the per-point chain
of ``lindblad_evolve``'s checks, ``require_faithful`` and ``bs_entropy``,
point by point in time order; that chain alone raises, so the error names
the earliest failing time exactly as a point-by-point scan would.

The stochastic counterpart is a diffusive (Brownian-noise) pure-state
equation, integrated by Euler-Maruyama:

    d psi = D psi dt + i sum_j gamma_j S_j psi dX_j,    dX_j ~ N(0, dt),

over round(t_final / dt) steps, for finite t_final >= dt > 0. A path keeps
its states as the rows of one ``(steps + 1, d)`` array, ``Trajectory.amps``.

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
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np
from scipy.linalg import expm

from .entropy import _bs_trace, bs_entropy
from .errors import (
    DimMismatch,
    NotHermitian,
    QunravelError,
    StepExplosion,
    ValidationFailure,
    ValidationError,
)
from .matcore import (
    DEFAULT_TOLS,
    SpectralDecomposition,
    Tolerances,
    hermitize,
    hermiticity_defect,
    is_square,
)
from .states import (
    DensityMatrix,
    PureState,
    RngStream,
    faithful_stack,
    require_faithful,
    validate_density,
)
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
    """Generator data: Hamiltonian, jump operators, coupling rates, and the
    drift D = -i H - 1/2 sum_j gamma_j^2 S_j^dag S_j built from them.

    A rate must be finite and nonnegative, and D must be finite; else
    ``ValueError`` names the rate, or the first jump whose term overflows D.
    The model keeps read-only copies of its arrays."""

    hamiltonian: np.ndarray
    jumps: tuple[np.ndarray, ...] = ()
    rates: tuple[float, ...] = ()
    drift: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        h = np.array(self.hamiltonian, dtype=complex, order="C")  # the caller's stays its own
        if not is_square(h.shape):
            raise DimMismatch(f"Hamiltonian must be square with d >= 1, got shape {h.shape}")
        if not np.isfinite(h).all():
            raise NotHermitian("Hamiltonian has non-finite entries")
        defect = hermiticity_defect(h)
        if defect > DEFAULT_TOLS.tol_herm:
            raise NotHermitian(f"Hamiltonian defect {defect:.3e} exceeds tolerance")
        jumps = tuple(np.array(s, dtype=complex, order="C") for s in self.jumps)
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
        drift = -1j * h
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
            for j, (s, g) in enumerate(zip(jumps, rates)):
                drift -= 0.5 * (g * g) * (s.conj().T @ s)
                if not np.isfinite(drift).all():
                    raise ValueError(f"jump {j} at rate {g!r} overflows the drift")
        for arr in (h, *jumps, drift):  # drift stays true to the data it was built from
            arr.flags.writeable = False
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "jumps", jumps)
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "drift", drift)

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]


@dataclass(frozen=True)
class Trajectory:
    """One stochastic pure-state path with its reproducibility record.

    Row i of ``amps`` is the unit state at ``times[i]``. ``log_weights[i]``
    is the log likelihood weight accumulated up to ``times[i]``: twice the
    summed log of the pre-normalization step norms. Averages against the
    path measure weight state i by ``exp(log_weights[i])``; the array starts
    at 0 and has mean weight 1 over trajectories at every fixed time.
    """

    times: np.ndarray
    amps: np.ndarray
    log_weights: np.ndarray
    seed: int
    stream_id: int

    @property
    def states(self) -> tuple[PureState, ...]:
        """The rows of ``amps`` as pure states, built on access."""
        return tuple(PureState(a) for a in self.amps)


def _vec(mat: np.ndarray) -> np.ndarray:
    # column-major stacking: vec(A rho B) = (B^T kron A) vec(rho)
    return mat.flatten(order="F")


def lindblad_superop(model: LindbladModel) -> np.ndarray:
    """Dense n^2 x n^2 generator matrix acting on column-stacked states,
    I kron D + conj(D) kron I + sum_j gamma_j^2 conj(S_j) kron S_j."""
    eye = np.eye(model.dim)
    d = model.drift
    l = np.kron(eye, d) + np.kron(d.conj(), eye)
    for s, g in zip(model.jumps, model.rates):
        l += (g * g) * np.kron(s.conj(), s)
    return l


def _checked_state(v: np.ndarray, n: int, t: float, tols: Tolerances | None):
    # drift is read off the raw propagated column, before renormalizing
    out = hermitize(v.reshape((n, n), order="F"))
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


def _n_steps(t_final: float, dt: float) -> int:
    if not (math.isfinite(t_final) and math.isfinite(dt)):
        raise ValueError(f"t_final and dt must be finite, got t_final={t_final}, dt={dt}")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if t_final < dt:
        raise ValueError(f"t_final {t_final} is below one step dt={dt}")
    steps = t_final / dt
    if not math.isfinite(steps):
        raise ValueError(f"t_final / dt overflows: t_final={t_final}, dt={dt}")
    return int(round(steps))


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
    drift_t = model.drift.T
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
    amps = np.empty((steps + 1, model.dim), dtype=complex)
    log_weights = np.zeros(steps + 1)
    amps[0] = psi0.amplitudes
    for i, (p, logw) in enumerate(_sse_steps(model, amps[:1], noise, dt), start=1):
        amps[i], log_weights[i] = p[0], logw[0]
    return Trajectory(dt * np.arange(steps + 1), amps, log_weights, rng.seed, rng.stream_id)


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
    for a, row in enumerate(mu0.amps):
        streams = range(a * n_per_atom, (a + 1) * n_per_atom)
        noise = np.stack([rng.split(g).gen.standard_normal(shape) for g in streams])
        noise *= math.sqrt(dt)
        block = np.broadcast_to(row, (n_per_atom, model.dim))
        for last, logw in _sse_steps(model, block, noise, dt):
            pass  # only the final step is kept
        finals.append(last)
        logws.append(logw)

    logw = np.concatenate(logws)
    # common shift keeps exp() tame; it cancels in the final normalization
    traj_w = np.repeat(mu0.weights / n_per_atom, n_per_atom) * np.exp(logw - logw.max())
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
    per distinct gap (see ``_propagate``). Every state then gets the checks of
    ``lindblad_evolve`` and of faithfulness, and every point its BS value,
    from two stacked eigensolves whatever the number of points.
    Both states must stay faithful; a flow that drives one rank-deficient
    raises ``NotFaithful`` stamped with the failing time. Any failure is
    reported by rerunning the checks point by point, so it names the earliest
    failing time. Monotone decrease is the caller's check, not enforced here.
    """
    tols = tols or DEFAULT_TOLS
    ts = np.asarray(times, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise ValueError("times must be a nonempty 1-d array")
    if not np.isfinite(ts).all() or (ts < 0).any() or (np.diff(ts) <= 0).any():
        raise ValueError("times must be finite, nonnegative and strictly increasing")
    if not model.dim == rho0.dim == sigma0.dim:
        raise DimMismatch(f"model dim {model.dim} vs states {rho0.dim}, {sigma0.dim}")

    n = model.dim
    blocks = _propagate(lindblad_superop(model), rho0, sigma0, ts)
    values = _stacked_bs_values(blocks, n, tols)
    if values is None:  # the per-point chain names the first failure
        values = [_point_bs_value(b, n, t, tols) for b, t in zip(blocks, ts.tolist())]
    return list(zip(ts.tolist(), values))


def _propagate(
    l: np.ndarray, rho0: DensityMatrix, sigma0: DensityMatrix, ts: np.ndarray
) -> np.ndarray:
    """Column-stacked rho and sigma at every time, shaped (points, n^2, 2).

    Both states step together from each time to the next, one propagator per
    distinct gap; gaps within 4 ulps of the largest time differ by the grid's
    rounding only and share one."""
    block = np.stack([_vec(rho0.matrix), _vec(sigma0.matrix)], axis=1)
    propagators: dict[float, np.ndarray] = {}
    rounding = 4 * np.spacing(ts.max())
    blocks = []
    for gap in np.diff(ts, prepend=0.0).tolist():
        if gap > 0:
            gap = next((g for g in propagators if abs(g - gap) <= rounding), gap)
            if gap not in propagators:
                propagators[gap] = expm(gap * l)
            block = propagators[gap] @ block
        blocks.append(block)
    return np.stack(blocks)


def _stacked_bs_values(blocks: np.ndarray, n: int, tols: Tolerances) -> list[float] | None:
    """BS value at every point from two stacked eigensolves, or None when any
    state fails a check of ``_point_bs_value``.

    The first eigensolve verifies all 2P states (trace drift, then those of
    ``validate_density`` and ``require_faithful``), the second the P cores
    sqrt(rho) sigma^{-1} sqrt(rho), each core still decomposed on its own."""
    p = blocks.shape[0]
    # (P, n^2, 2) -> the P rho, then the P sigma; undoing _vec is the transposed C reshape
    raw = blocks.transpose(2, 0, 1).reshape(2 * p, n, n).swapaxes(-1, -2)
    with np.errstate(all="ignore"):  # a non-finite state is the per-point chain's to report
        raw = hermitize(raw)
        tr = np.trace(raw, axis1=1, axis2=2).real
    if not (np.abs(tr - 1.0) <= TRACE_DRIFT_TOL).all():  # a NaN trace fails here too
        return None
    checked = faithful_stack(raw / tr[:, None, None], tols)
    if checked is None:
        return None
    m, (vals, vecs) = checked
    rho_eig = SpectralDecomposition(vals[:p], vecs[:p])
    sigma_eig = SpectralDecomposition(vals[p:], vecs[p:])
    try:
        return _bs_trace(m[:p], rho_eig, sigma_eig, tols).tolist()
    except QunravelError:
        return None


def _point_bs_value(block: np.ndarray, n: int, t: float, tols: Tolerances) -> float:
    """BS value of one propagated (n^2, 2) block, through the scalar checks."""
    rho_t, sigma_t = (_checked_state(v, n, t, tols) for v in block.T)
    require_faithful(rho_t, f"rho at t={t:.6g}", tols)
    require_faithful(sigma_t, f"sigma at t={t:.6g}", tols)
    return bs_entropy(rho_t, sigma_t, tols)
