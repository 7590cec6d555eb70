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

Flows are propagated on the real space of Hermitian matrices. The
orthonormal Hermitian frame of n x n matrices holds the n diagonal units
E_ii and, for each i < j, (E_ij + E_ji) / sqrt 2 and i (E_ji - E_ij) / sqrt 2.
With T the n^2 x n^2 matrix of its column-stacked units (T^H T = I), a
Hermitian X has real coordinates T^H vec(X). Every row and column of T has
at most two nonzeros, so both changes of coordinates are index gathers,
never a dense product with T. The generator L maps Hermitian matrices to
Hermitian matrices, so G = T^H L T is real, and a flow is exp(t G) on real
coordinates: a real matrix exponential, at about a quarter of the flops of
the complex one (scaling and squaring, Al-Mohy & Higham, SIAM J. Matrix
Anal. Appl. 31, 2009). Mapping real coordinates back writes entry (j, i) as
the exact conjugate of entry (i, j) and a real diagonal, so every propagated
state is Hermitian bit for bit and is checked as it stands. The imaginary
part of T^H L T is dropped only after a check (see ``_real_generator``).

One propagator, ``_propagate``, runs every flow: it checks the time grid and
the states' dimensions, builds the generator once, steps all its states
together in the real frame, with one propagator held at a time, and returns
every state at every time as a Hermitian matrix. A grid whose states hold
more than ``MAX_SCAN_ENTRIES`` matrix entries, or a model whose generator
does, raises ``BudgetExceeded`` before anything is built. ``lindblad_evolve``
is a one-state, one-point run of it. A contraction scan propagates its pair
to every point before checking any. It then checks all 2P states of its P
points, each divided by its trace, with one stacked eigensolve
(``herm_eig_stack``) and the faithfulness floor, and takes the BS values
from a second one over the P pair cores sigma^{-1/2} rho sigma^{-1/2}, built
in eigen-coordinates (see ``entropy``), each its own member of the stack.
When any stacked check fails, the scan reruns the per-point chain of
``lindblad_evolve``'s checks, ``require_faithful`` and ``bs_entropy``, point
by point in time order; that chain alone raises, so the error names the
earliest failing time as a point-by-point scan would.

The stochastic counterpart is a diffusive (Brownian-noise) pure-state
equation, integrated by Euler-Maruyama:

    d psi = D psi dt + i sum_j gamma_j S_j psi dX_j,    dX_j ~ N(0, dt),

over t_final / dt steps, for finite t_final >= dt > 0 whose ratio is a whole
number to within 1e-9 relative, so a run ends at t_final. A path keeps
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

import functools
import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np
from scipy.linalg import expm

from .entropy import _f_trace, _pair_core, bs_entropy
from .errors import (
    BudgetExceeded,
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
    herm_eig_stack,
    hermiticity_defect,
    hold,
    is_square,
)
from .states import (
    DensityMatrix,
    PureState,
    RngStream,
    positive_count,
    require_faithful,
    validate_density,
)
from .ensembles import DiscreteEnsemble, _merged_ensemble, _xlogx

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
# Largest imaginary entry of T^H L T that the real frame drops, relative to
# max(1, largest real entry); roundoff is about 1e-16 of that (``_real_generator``).
GENERATOR_DEFECT_TOL = 1e-10
# Most float64 words one unraveling call draws and keeps: its Gaussian
# increments (steps x paths x jumps) plus the path ``sse_trajectory`` stores.
# 5e7 float64 are 400 MB. Criterion 09 draws 1e7 (1e4 paths x 1e3 steps).
MAX_NOISE_DRAWS = 50_000_000
# Most matrix entries a flow holds: points x states x n^2 propagated, and n^4 in
# its n^2 x n^2 generator (so flows run at n <= 39). A scan takes about 160 B per
# state entry (frame coordinates, propagated matrices, the stacked eigensolves of
# its states and cores), 400 MB, and about 80 B per generator entry, 200 MB. It
# also bounds one sampled state: ``qunravel haar-experiment`` takes d^2 <= it.
MAX_SCAN_ENTRIES = 2_500_000
_R = math.sqrt(0.5)


@dataclass(frozen=True, eq=False)
class LindbladModel:
    """Generator data: Hamiltonian, jump operators, coupling rates, and the
    drift D = -i H - 1/2 sum_j gamma_j^2 S_j^dag S_j built from them.

    A rate must be finite and nonnegative, and D must be finite; else
    ``ValueError`` names the rate, or the first jump whose term overflows D.
    The model keeps read-only copies of its arrays (``hold``)."""

    hamiltonian: np.ndarray
    jumps: tuple[np.ndarray, ...] = ()
    rates: tuple[float, ...] = ()
    drift: np.ndarray = field(init=False, repr=False)

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
        hold(self, hamiltonian=h, jumps=jumps, rates=rates, drift=drift)

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]


@dataclass(frozen=True, eq=False)
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
        """The rows of ``amps`` as pure states, built on access, each its own copy."""
        return tuple(PureState(a) for a in self.amps)


def lindblad_superop(model: LindbladModel) -> np.ndarray:
    """Dense n^2 x n^2 generator matrix acting on column-stacked states,
    I kron D + conj(D) kron I + sum_j gamma_j^2 conj(S_j) kron S_j.

    It maps Hermitian matrices to Hermitian matrices for any drift D, since
    D X + X D^dag and S_j X S_j^dag are Hermitian whenever X is; flows use it
    in the real Hermitian frame (see the module docstring)."""
    eye = np.eye(model.dim)
    d = model.drift
    l = np.kron(eye, d) + np.kron(d.conj(), eye)
    for s, g in zip(model.jumps, model.rates):
        l += (g * g) * np.kron(s.conj(), s)
    return l


def _checked_state(mat: np.ndarray, t: float, tols: Tolerances) -> DensityMatrix:
    # mat is Hermitian bit for bit, as _propagate returns it; drift is read before renormalizing
    tr = float(np.real(np.trace(mat)))
    if not abs(tr - 1.0) <= TRACE_DRIFT_TOL:  # a NaN trace fails here too
        raise ValidationFailure(
            f"trace drifted to {tr!r} at t={t} (budget {TRACE_DRIFT_TOL:.1e})"
        )
    try:
        return validate_density(mat / tr, tols)
    except ValidationError as exc:
        raise ValidationFailure(f"evolved state invalid at t={t}: {exc}") from exc


def lindblad_evolve(
    model: LindbladModel,
    rho0: DensityMatrix,
    t: float,
    tols: Tolerances = DEFAULT_TOLS,
) -> DensityMatrix:
    """Propagate rho0 for time t >= 0 through the real matrix exponential.

    This is a one-state, one-point run of the scan's propagator
    (``_propagate``): the state is stepped as exp(t G) on its real
    coordinates in the Hermitian frame, so the result is Hermitian by
    construction. It is trace-renormalized (the raw trace drift must stay
    below 1e-9), then revalidated; any remaining invariant failure surfaces
    as ``ValidationFailure``. A time that is not finite and nonnegative is a
    ``ValueError``, a state of another dimension ``DimMismatch``.
    """
    return _checked_state(_propagate(model, (rho0,), [t])[0, 0], t, tols)


@functools.lru_cache(maxsize=None)
def _frame(n: int) -> np.ndarray:
    """Column-stacked positions that the Hermitian frame of n x n matrices
    reads: the n diagonal entries, then (i, j) and then (j, i) for every
    i < j in ``np.triu_indices`` order."""
    i, j = np.triu_indices(n, 1)
    pos = np.concatenate([np.arange(n) * (n + 1), i + n * j, j + n * i])
    pos.setflags(write=False)
    return pos


def _frame_rows(y: np.ndarray, n: int, phase: complex) -> np.ndarray:
    """Frame rows from rows ``y`` gathered at ``_frame(n)``: the diagonal
    rows, then (u + w) / sqrt 2 and phase (u - w) / sqrt 2, with u the (i, j)
    and w the (j, i) rows. ``phase = 1j`` applies T^H, ``phase = -1j`` T^T."""
    m = n * (n - 1) // 2
    d, u, w = y[:n], y[n : n + m], y[n + m :]
    return np.concatenate([d, _R * (u + w), (phase * _R) * (u - w)])


def _frame_coords(mats: np.ndarray, n: int) -> np.ndarray:
    """Re(T^H vec(X)), the real frame coordinates of the Hermitian parts of a
    stack of n x n matrices X: the frame along the first axis, then the stack
    axes reversed, as ``.T`` puts them."""
    cols, rows = np.divmod(_frame(n), n)  # column-stacked position i + n j is entry (i, j)
    return _frame_rows(mats[..., rows, cols].T, n, 1j).real


def _frame_vecs(c: np.ndarray, n: int) -> np.ndarray:
    """T c, a C-contiguous stack of Hermitian matrices, from coordinates laid
    out as ``_frame_coords`` returns them: entry (j, i) is the exact conjugate
    of entry (i, j), and the diagonal is real."""
    i, j = np.triu_indices(n, 1)
    s, ja = _R * c[n : n + i.size], 1j * (_R * c[n + i.size :])
    out = np.empty(c.shape[:0:-1] + (n, n), dtype=complex)
    out[..., np.arange(n), np.arange(n)] = c[:n].T
    out[..., i, j] = (s - ja).T
    out[..., j, i] = (s + ja).T
    return out


def _real_generator(l: np.ndarray, n: int) -> np.ndarray:
    """G = Re(T^H L T), the generator ``l`` on real frame coordinates.

    T^H L T is real whenever ``l`` maps Hermitian matrices to Hermitian
    matrices, which every ``lindblad_superop`` does in exact arithmetic. That
    includes the Hamiltonian defect up to ``tol_herm`` that ``LindbladModel``
    admits: it adds -i (H - H^dag) / 2 to D, which moves the trace (at a
    rate of at most n tol_herm) but not the Hermiticity of D X + X D^dag.
    So the imaginary part dropped here is roundoff, and ``ValidationFailure``
    is raised when it exceeds ``GENERATOR_DEFECT_TOL`` times max(1, largest
    |entry| of G). A dropped part E would in any case move the Hermitian
    part of exp(t (G + i E)) only at second order, O((t |E|)^2): its
    first-order term is anti-Hermitian.
    """
    pos = _frame(n)
    lt = _frame_rows(l[np.ix_(pos, pos)].T, n, -1j).T  # L T, rows still gathered
    k = _frame_rows(lt, n, 1j)
    g = np.ascontiguousarray(k.real)
    defect = float(np.abs(k.imag).max())
    bound = GENERATOR_DEFECT_TOL * max(1.0, float(np.abs(g).max()))
    if not defect <= bound:  # a NaN defect fails here too
        raise ValidationFailure(
            f"generator does not preserve Hermiticity: imaginary part {defect:.3e} "
            f"of its real-frame matrix exceeds {bound:.1e}"
        )
    return g


def _check_times(t_final: float, dt: float) -> None:
    """Finite t_final and a finite dt > 0, else ``ValueError``."""
    if not (math.isfinite(t_final) and math.isfinite(dt)):
        raise ValueError(f"t_final and dt must be finite, got t_final={t_final}, dt={dt}")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")


def _n_steps(t_final: float, dt: float, paths: int, jumps: int, kept: int = 0) -> int:
    """The whole number of steps t_final / dt, for finite t_final >= dt > 0
    whose ratio is within 1e-9 relative of an integer; else ``ValueError``.

    ``BudgetExceeded`` is raised, before anything is drawn or allocated, when
    the increments, steps x paths x jumps, plus ``kept`` stored float64 words
    per time exceed ``MAX_NOISE_DRAWS``; a jump-free model counts as one jump."""
    _check_times(t_final, dt)
    if t_final < dt:
        raise ValueError(f"t_final {t_final} is below one step dt={dt}")
    ratio = t_final / dt
    if not math.isfinite(ratio):
        raise ValueError(f"t_final / dt overflows: t_final={t_final}, dt={dt}")
    steps = round(ratio)
    if abs(ratio - steps) > 1e-9 * steps:
        raise ValueError(f"t_final={t_final} is not a whole number of steps dt={dt}")
    draws = steps * paths * max(jumps, 1)
    words = (steps + 1) * kept
    if draws + words > MAX_NOISE_DRAWS:
        stored = f" and {words} stored path words" if kept else ""
        raise BudgetExceeded(
            f"t_final={t_final}, dt={dt} takes {steps} steps: {draws} noise draws "
            f"over {paths} paths{stored} exceed the budget of {MAX_NOISE_DRAWS}"
        )
    return steps


def _sse_steps(
    model: LindbladModel,
    psi0: np.ndarray,
    noise: np.ndarray,
    dt: float,
    first: int = 0,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Euler-Maruyama steps of a (batch, dim) block of trajectories.

    ``noise`` holds each trajectory's increments dX, shaped (batch, steps,
    n_jumps). After every step the renormalized block and the running log
    likelihood weights are yielded as fresh arrays; ``StepExplosion`` names
    the trajectory (row k of the block is trajectory ``first + k``), the
    step and t.
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
                f"(trajectory {first + k}, t={(step + 1) * dt:.6g})"
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

    Runs t_final / dt steps of size dt (a whole number, see ``_n_steps``),
    renormalizing after each one and folding the discarded squared norm into
    the path's running log weight. A pre-normalization norm outside [0.5, 2]
    aborts with ``StepExplosion``; that window flags a step size too coarse
    for the model's rates. A run whose increments and stored path (2 dim + 2 float64
    per time) exceed ``MAX_NOISE_DRAWS`` raises ``BudgetExceeded`` before
    drawing or allocating anything. The path is a batch of one
    through the stepping loop of ``evolve_ensemble``, with the same noise
    consumption.
    """
    if model.dim != psi0.dim:
        raise DimMismatch(f"model dim {model.dim} vs state dim {psi0.dim}")
    steps = _n_steps(t_final, dt, 1, len(model.jumps), kept=2 * model.dim + 2)
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
    integrator bias. ``n_per_atom`` must be a positive integer, t / dt a
    whole number of steps unless t = 0 (which returns ``mu0``), and a run
    over ``MAX_NOISE_DRAWS`` increments (all paths of all atoms) raises
    ``BudgetExceeded`` before drawing any.
    """
    if model.dim != mu0.dim:
        raise DimMismatch(f"model dim {model.dim} vs ensemble dim {mu0.dim}")
    n_per_atom = positive_count(n_per_atom, "n_per_atom")
    _check_times(t, dt)  # dt is checked even when t = 0 needs no step
    if t == 0.0:
        return mu0
    steps = _n_steps(t, dt, len(mu0) * n_per_atom, len(model.jumps))
    noise = np.empty((n_per_atom, steps, len(model.jumps)))  # one atom's, refilled

    finals, logws = [], []
    for a, row in enumerate(mu0.amps):
        for i in range(n_per_atom):
            rng.split(a * n_per_atom + i).gen.standard_normal(out=noise[i])
        noise *= math.sqrt(dt)
        block = np.broadcast_to(row, (n_per_atom, model.dim))
        for last, logw in _sse_steps(model, block, noise, dt, a * n_per_atom):
            pass  # only the final step is kept
        finals.append(last)
        logws.append(logw)
    del noise  # the merge's screen never sits on top of the noise

    logw = np.concatenate(logws)
    # common shift keeps exp() tame; it cancels in the final normalization
    traj_w = np.repeat(mu0.weights / n_per_atom, n_per_atom) * np.exp(logw - logw.max())
    return _merged_ensemble(np.concatenate(finals), traj_w)


def contraction_scan(
    model: LindbladModel,
    rho0: DensityMatrix,
    sigma0: DensityMatrix,
    times: np.ndarray,
    tols: Tolerances = DEFAULT_TOLS,
) -> list[tuple[float, float]]:
    """BS relative entropy of a co-evolved pair along the flow.

    Returns (t, d_bs) for every requested time. Both states are propagated
    together in the real Hermitian frame (``_propagate``), so every propagated
    state is Hermitian by construction. Every state then gets the checks of
    ``lindblad_evolve`` and of faithfulness, and every point its BS value, from
    two stacked eigensolves whatever the number of points.
    Both states must stay faithful; a flow that drives one rank-deficient
    raises ``NotFaithful`` stamped with the failing time. Any failure is
    reported by rerunning the checks point by point, so it names the earliest
    failing time. A grid or a generator over ``MAX_SCAN_ENTRIES`` raises
    ``BudgetExceeded`` before anything is built. Monotone decrease is the
    caller's check, not enforced here.
    """
    mats = _propagate(model, (rho0, sigma0), times)
    ts = np.asarray(times, dtype=float).tolist()
    values = _stacked_bs_values(mats, tols)
    if values is None:  # the per-point chain names the first failure
        values = [_point_bs_value(pair, t, tols) for pair, t in zip(mats.swapaxes(0, 1), ts)]
    return list(zip(ts, values))


def _propagate(model: LindbladModel, states, times) -> np.ndarray:
    """Every state of ``states`` at every time of ``times``, as a C-contiguous
    ``(len(states), P, n, n)`` stack of Hermitian matrices.

    ``times`` must be a nonempty grid of finite, nonnegative, strictly
    increasing times (else ``ValueError``) and every state of the model's
    dimension (else ``DimMismatch``). The states step together on their real
    frame coordinates, from each time to the next, with one propagator held at
    a time: a gap within 4 ulps of the largest time of the held propagator's
    gap differs from it by the grid's rounding only and reuses it, and any
    other positive gap replaces it with its own. One ``(n^2, P, len(states))``
    array holds every point's coordinates; ``_frame_vecs`` writes them once,
    straight into the returned stack. A grid or a generator over
    ``MAX_SCAN_ENTRIES`` entries raises ``BudgetExceeded`` before anything is built."""
    ts = np.asarray(times, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise ValueError("times must be a nonempty 1-d array")
    if not np.isfinite(ts).all() or (ts < 0).any() or (np.diff(ts) <= 0).any():
        raise ValueError("times must be finite, nonnegative and strictly increasing")
    n = model.dim
    if any(s.dim != n for s in states):
        raise DimMismatch(f"model dim {n} vs states {', '.join(str(s.dim) for s in states)}")
    check_scan_budget(ts.size, len(states), n)
    g = _real_generator(lindblad_superop(model), n)
    block = _frame_coords(np.stack([s.matrix for s in states]), n)  # (n^2, states)
    coords = np.empty((n * n, ts.size, len(states)))
    rounding = float(4 * np.spacing(ts.max()))
    held_gap, held = math.inf, None
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite state fails its trace check
        for k, gap in enumerate(np.diff(ts, prepend=0.0).tolist()):
            if gap > 0:
                if not abs(gap - held_gap) <= rounding:
                    held_gap, held = gap, expm(gap * g)
                block = held @ block
            coords[:, k] = block
        return _frame_vecs(coords, n)


def check_scan_budget(points: int, states: int, n: int) -> None:
    """``BudgetExceeded`` when the n^2 x n^2 generator of dimension ``n``, or
    propagating ``states`` states of that dimension to ``points`` times, takes
    more than ``MAX_SCAN_ENTRIES`` matrix entries."""
    if n**4 > MAX_SCAN_ENTRIES:
        raise BudgetExceeded(
            f"the generator at dimension {n} takes {n**4} matrix entries, "
            f"over the budget of {MAX_SCAN_ENTRIES}"
        )
    entries = points * states * n * n
    if entries > MAX_SCAN_ENTRIES:
        raise BudgetExceeded(
            f"{points} points of {states} states at dimension {n} take {entries} "
            f"matrix entries, over the budget of {MAX_SCAN_ENTRIES}"
        )


def _stacked_bs_values(mats: np.ndarray, tols: Tolerances) -> list[float] | None:
    """BS value at every point of a ``(2, P, n, n)`` stack of rho and sigma
    from two stacked eigensolves, or None when any state fails a check of
    ``_point_bs_value``.

    The first eigensolve verifies all 2P states (trace drift, then those of
    ``validate_density`` and ``require_faithful``), the second the P cores
    B B^dag of ``_pair_core``, each core still decomposed on its own; BS's
    own sum, ``_f_trace`` with x log x, takes all P values at once. A state
    divided by its trace has unit trace, and a spectrum above
    ``eps_faithful >= 0`` clears ``PSD_FLOOR``, so the floor is the one
    bound of a state left to check after its eigensolve."""
    p = mats.shape[1]
    raw = mats.reshape(2 * p, *mats.shape[2:])  # the P rho, then the P sigma
    with np.errstate(all="ignore"):  # a non-finite state is the per-point chain's to report
        tr = np.trace(raw, axis1=1, axis2=2).real
    if not (np.abs(tr - 1.0) <= TRACE_DRIFT_TOL).all():  # a NaN trace fails here too
        return None
    try:
        vals, vecs = herm_eig_stack(raw / tr[:, None, None], tols)
        if not (vals[:, 0] > tols.eps_faithful).all():
            return None
        rho_eig = SpectralDecomposition(vals[:p], vecs[:p])
        sigma_eig = SpectralDecomposition(vals[p:], vecs[p:])
        return _f_trace(*_pair_core(rho_eig, sigma_eig, tols), _xlogx, tols).tolist()
    except QunravelError:
        return None


def _point_bs_value(pair: np.ndarray, t: float, tols: Tolerances) -> float:
    """BS value of one propagated point, its rho and sigma stacked as
    ``(2, n, n)``, through the scalar checks."""
    rho_t, sigma_t = (_checked_state(m, t, tols) for m in pair)
    require_faithful(rho_t, f"rho at t={t:.6g}", tols)
    require_faithful(sigma_t, f"sigma at t={t:.6g}", tols)
    return bs_entropy(rho_t, sigma_t, tols)
