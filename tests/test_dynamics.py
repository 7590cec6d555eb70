import dataclasses
import math
import re
import sys
import warnings

import numpy as np
import pytest

from qunravel import (
    DiscreteEnsemble,
    bs_entropy,
    LindbladModel,
    PureState,
    RngStream,
    cb_measures,
    common_basis,
    contraction_scan,
    evolve_ensemble,
    haar_pure,
    lindblad_evolve,
    lindblad_superop,
    realize,
    sample_faithful,
    sse_trajectory,
    trace_distance,
    validate_density,
)
import qunravel.dynamics as dynamics
import qunravel.entropy as entropy
import qunravel.matcore as matcore
from qunravel import DEFAULT_TOLS
from qunravel.errors import (
    BackendFailure,
    BudgetExceeded,
    DimMismatch,
    NotFaithful,
    NotHermitian,
    QunravelError,
    StepExplosion,
    ValidationFailure,
)

SM = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # qubit lowering operator
SZ = np.diag([1.0, -1.0]).astype(complex)
DAMPING = LindbladModel(np.zeros((2, 2)), (SM,), (1.0,))
DEPHASING = LindbladModel(np.zeros((2, 2)), (SZ,), (1.0,))
KET0 = PureState(np.array([1.0, 0.0], dtype=complex))
KET1 = PureState(np.array([0.0, 1.0], dtype=complex))


def random_model(dim, rng, n_jumps=1):
    h = rng.complex_normal((dim, dim))
    h = 0.5 * (h + h.conj().T)
    jumps = tuple(rng.complex_normal((dim, dim)) / math.sqrt(dim) for _ in range(n_jumps))
    rates = tuple(float(g) for g in rng.gen.uniform(0.2, 1.0, n_jumps))
    return LindbladModel(h, jumps, rates)


def test_model_validation():
    with pytest.raises(NotHermitian):
        LindbladModel(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(DimMismatch):
        LindbladModel(np.zeros((2, 2)), (np.zeros((3, 3)),), (1.0,))
    with pytest.raises(DimMismatch):
        LindbladModel(np.zeros((2, 2)), (SM,), ())
    with pytest.raises(ValueError):
        LindbladModel(np.zeros((2, 2)), (SM,), (-1.0,))


def test_superop_trivial_cases():
    free = LindbladModel(np.zeros((2, 2)))
    assert np.abs(lindblad_superop(free)).max() == 0.0


def test_superop_preserves_trace():
    rng = RngStream(81)
    for dim in (2, 3):
        model = random_model(dim, rng, 2)
        l = lindblad_superop(model)
        vec_eye = np.eye(dim).flatten(order="F")
        assert np.abs(vec_eye @ l).max() < 1e-12


def test_superop_matches_the_master_equation_on_random_blocks():
    rng = RngStream(83)
    for dim in (2, 3, 5):
        model = random_model(dim, rng, 2)
        x = rng.complex_normal((dim, dim))
        h = model.hamiltonian
        want = -1j * (h @ x - x @ h)
        for s, g in zip(model.jumps, model.rates):
            sds = s.conj().T @ s
            want += g * g * (s @ x @ s.conj().T - 0.5 * (sds @ x + x @ sds))
        got = lindblad_superop(model) @ x.flatten(order="F")
        assert np.abs(got - want.flatten(order="F")).max() < 1e-13


def test_superop_damping_action():
    l = lindblad_superop(DAMPING)
    v = l @ np.diag([0.0, 1.0]).flatten(order="F")
    assert np.allclose(v, np.diag([1.0, -1.0]).flatten(order="F"), atol=1e-14)


def test_evolve_time_zero_is_identity():
    rng = RngStream(82)
    rho = sample_faithful(2, rng)
    out = lindblad_evolve(DAMPING, rho, 0.0)
    assert np.abs(out.matrix - rho.matrix).max() < 1e-12


def test_evolve_damping_closed_form():
    rho0 = validate_density(np.diag([0.0, 1.0]))
    out = lindblad_evolve(DAMPING, rho0, 1.0)
    expected = np.diag([1.0 - math.exp(-1.0), math.exp(-1.0)])
    assert np.abs(out.matrix - expected).max() < 1e-9


def test_evolve_semigroup_property():
    rng = RngStream(83)
    model = random_model(3, rng)
    rho = sample_faithful(3, rng)
    one_shot = lindblad_evolve(model, rho, 1.3)
    stepped = lindblad_evolve(model, lindblad_evolve(model, rho, 0.5), 0.8)
    assert np.abs(one_shot.matrix - stepped.matrix).max() < 1e-9


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_evolve_rejects_non_finite_time(t):
    with pytest.raises(ValueError):
        lindblad_evolve(DAMPING, validate_density(np.eye(2) / 2), t)


def test_evolve_overflowing_time_fails_validation():
    # t * L overflows; the propagated state is non-finite and must not validate
    with pytest.raises(ValidationFailure):
        lindblad_evolve(DAMPING, validate_density(np.eye(2) / 2), 1e308)


STRONG_DAMPING = LindbladModel(np.zeros((2, 2)), (SM,), (math.sqrt(5.0),))


def test_evolve_time_that_overflows_the_generator_fails_validation():
    # 1e308 * G overflows here (entries of G reach 5), and numpy's overflow
    # warning must not escape before the trace check
    with pytest.raises(ValidationFailure, match=r"trace drifted to nan at t=1e\+308"):
        lindblad_evolve(STRONG_DAMPING, validate_density(np.eye(2) / 2), 1e308)


def test_scan_time_that_overflows_the_generator_fails_validation():
    rho, sigma = validate_density(np.eye(2) / 2), validate_density(np.diag([0.7, 0.3]))
    with pytest.raises(ValidationFailure, match=r"trace drifted to nan at t=1e\+308"):
        contraction_scan(STRONG_DAMPING, rho, sigma, [0.0, 1.0, 1e308])


def test_evolve_preserves_state_invariants():
    rng = RngStream(84)
    for _ in range(5):
        model = random_model(2, rng, 2)
        rho = sample_faithful(2, rng)
        for t in (0.1, 1.0, 10.0):
            out = lindblad_evolve(model, rho, t)
            assert np.trace(out.matrix).real == pytest.approx(1.0, abs=1e-9)
            assert out.min_eigenvalue > -1e-9


def test_sse_trajectory_record():
    traj = sse_trajectory(DAMPING, KET1, 0.1, 1e-3, RngStream(85, 0))
    assert len(traj.states) == 101
    assert len(traj.times) == 101
    assert len(traj.log_weights) == 101
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(0.1)
    assert traj.log_weights[0] == 0.0
    assert traj.seed == 85
    assert traj.stream_id == 0
    for s in traj.states:
        assert abs(np.linalg.norm(s.amplitudes) - 1.0) < 1e-9


def test_sse_trajectory_deterministic():
    a = sse_trajectory(DAMPING, KET1, 0.05, 1e-3, RngStream(86, 7))
    b = sse_trajectory(DAMPING, KET1, 0.05, 1e-3, RngStream(86, 7))
    for s, t in zip(a.states, b.states):
        assert np.array_equal(s.amplitudes, t.amplitudes)
    assert np.array_equal(a.log_weights, b.log_weights)


def test_sse_unitary_flow_norm_drift():
    # gamma = 0: deterministic Schroedinger steps; per-step norm drift is
    # second order in dt and the path weight stays at its starting point
    model = LindbladModel(np.array([[1.0, 0.2], [0.2, -1.0]], dtype=complex))
    plus = PureState(np.array([1.0, 1.0], dtype=complex) / math.sqrt(2))
    traj = sse_trajectory(model, plus, 1.0, 1e-4, RngStream(87))
    step_drift = np.abs(np.diff(traj.log_weights)) / 2.0
    assert step_drift.max() < 1e-6
    assert abs(traj.log_weights[-1]) < 1e-3


def test_sse_step_explosion():
    fast = LindbladModel(np.diag([30.0, -30.0]).astype(complex))
    with pytest.raises(StepExplosion):
        sse_trajectory(fast, KET1, 1.0, 0.1, RngStream(88))


def test_sse_step_explosion_names_step_and_time():
    fast = LindbladModel(np.zeros((2, 2)), (SM,), (50.0,))
    with pytest.raises(StepExplosion, match=r"at step 0 .*t=0\.1\)"):
        sse_trajectory(fast, KET1, 1.0, 0.1, RngStream(88))


def test_nan_norm_is_a_step_explosion():
    # a NaN drift makes the step norm NaN; the norm window must catch NaN, not
    # pass it on. The model rejects a non-finite drift, so one is written in after
    nan_drift = LindbladModel(np.zeros((2, 2)), (SM,), (1.0,))
    object.__setattr__(nan_drift, "drift", np.full((2, 2), complex("nan+nanj")))
    mu0 = DiscreteEnsemble((KET1,), np.array([1.0]))
    with pytest.raises(StepExplosion, match="norm nan"):
        sse_trajectory(nan_drift, KET1, 0.1, 0.01, RngStream(88))
    with pytest.raises(StepExplosion, match="norm nan"):
        evolve_ensemble(nan_drift, mu0, 0.1, 0.01, 3, RngStream(88))


def test_evolve_ensemble_step_explosion_names_the_global_trajectory():
    # |0> never moves under diag(0, 1), so only the paths of |1>, trajectories
    # 3-5, can explode: a step takes |1> to 2i dX |1>
    model = LindbladModel(np.zeros((2, 2)), (np.diag([0.0, 1.0]),), (2.0,))
    mu0 = DiscreteEnsemble((KET0, KET1), np.array([0.5, 0.5]))
    with pytest.raises(StepExplosion) as raised:
        evolve_ensemble(model, mu0, 0.5, 0.5, 3, RngStream(1))
    message = str(raised.value)
    g = int(re.search(r"trajectory (\d+)", message).group(1))
    assert g == 3
    # the named trajectory's own stream (seed, g) replays the exploding norm
    dx = RngStream(1).split(g).gen.standard_normal() * math.sqrt(0.5)
    assert f"norm {2.0 * abs(dx):.3e} left [0.5, 2] at step 0" in message


def test_model_rejects_jumps_whose_drift_overflows():
    # finite jumps whose S^dag S overflows: the drift is checked as it is built,
    # so the model names the first jump that overflows it, and numpy never warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^jump 0 at rate 1\.0 overflows the drift"):
            LindbladModel(np.zeros((2, 2)), (1e200 * SM, 1e200 * SZ), (1.0, 1.0))
        with pytest.raises(ValueError, match=r"^jump 1 at rate 1\.0 overflows the drift"):
            LindbladModel(np.zeros((2, 2)), (SM, 1e200 * SZ), (1.0, 1.0))


def test_model_builds_its_drift_once_and_read_only():
    model = random_model(3, RngStream(104), n_jumps=2)
    expected = -1j * model.hamiltonian
    for s, g in zip(model.jumps, model.rates):
        expected = expected - 0.5 * (g * g) * (s.conj().T @ s)
    assert np.array_equal(model.drift, expected)
    for arr in (model.hamiltonian, *model.jumps, model.drift):
        with pytest.raises(ValueError):
            arr[0, 0] = 0.0
    assert "drift" not in repr(model)
    # the model keeps copies, so a caller's later edit cannot leave D stale
    h = np.diag([1.0, -1.0]).astype(complex)
    jump = SM.copy()
    model = LindbladModel(h, (jump,), (1.0,))
    h[0, 0], jump[0, 1] = 5.0, 3.0
    assert model.hamiltonian[0, 0] == 1.0 and model.jumps[0][0, 1] == 1.0
    assert np.array_equal(model.drift, np.diag([-1j, 1j - 0.5]))
    with pytest.raises(TypeError):
        LindbladModel(np.zeros((2, 2)), drift=np.zeros((2, 2)))


def test_sse_trajectory_keeps_its_path_as_one_amplitude_array():
    traj = sse_trajectory(DAMPING, KET1, 0.1, 1e-3, RngStream(85, 0))
    assert traj.amps.shape == (101, 2)
    assert traj.amps.dtype == complex
    assert np.array_equal(traj.amps[0], KET1.amplitudes)
    states = traj.states  # built on access from the rows
    assert all(isinstance(s, PureState) for s in states)
    assert np.array_equal(np.array([s.amplitudes for s in states]), traj.amps)


def scalar_sse_reference(model, psi0, t_final, dt, rng):
    """One path stepped vector by vector: the scalar Euler-Maruyama loop."""
    steps = int(round(t_final / dt))
    noise = rng.gen.standard_normal((steps, len(model.jumps))) * math.sqrt(dt)
    drift = -1j * model.hamiltonian
    for s, g in zip(model.jumps, model.rates):
        drift = drift - 0.5 * (g * g) * (s.conj().T @ s)
    psi = psi0.amplitudes.copy()
    states, log_weights, logw = [psi], [0.0], 0.0
    for step in range(steps):
        dpsi = dt * (drift @ psi)
        for j, (s, g) in enumerate(zip(model.jumps, model.rates)):
            dpsi += (1j * g * noise[step, j]) * (s @ psi)
        psi = psi + dpsi
        nrm = float(np.linalg.norm(psi))
        psi = psi / nrm
        logw += 2.0 * math.log(nrm)
        states.append(psi)
        log_weights.append(logw)
    return np.array(states), np.array(log_weights)


def test_sse_trajectory_matches_scalar_reference():
    rng = RngStream(90)
    plus = PureState(np.ones(2, dtype=complex) / math.sqrt(2))
    cases = [(DAMPING, KET1), (DEPHASING, plus)]
    cases += [(random_model(d, rng, n_jumps=2), haar_pure(d, rng)) for d in (3, 4)]
    for k, (model, psi0) in enumerate(cases):
        traj = sse_trajectory(model, psi0, 0.3, 1e-3, RngStream(91, k))
        states, log_weights = scalar_sse_reference(model, psi0, 0.3, 1e-3, RngStream(91, k))
        got = np.array([s.amplitudes for s in traj.states])
        assert got.shape == states.shape == (301, model.dim)
        assert np.abs(got - states).max() <= 1e-12
        assert np.abs(traj.log_weights - log_weights).max() <= 1e-12


def test_sse_invalid_steps():
    with pytest.raises(ValueError):
        sse_trajectory(DAMPING, KET1, 1.0, -0.1, RngStream(89))
    with pytest.raises(ValueError):
        sse_trajectory(DAMPING, KET1, 1e-4, 1e-3, RngStream(89))


def test_evolve_ensemble_time_zero_unchanged():
    mu0 = DiscreteEnsemble((KET1,), np.array([1.0]))
    out = evolve_ensemble(DAMPING, mu0, 0.0, 1e-3, 10, RngStream(90))
    assert out is mu0


@pytest.mark.parametrize(
    "dt, message",
    [
        (-1.0, "dt must be positive"),
        (0.0, "dt must be positive"),
        (math.nan, "t_final and dt must be finite"),
        (math.inf, "t_final and dt must be finite"),
    ],
    ids=["negative", "zero", "nan", "inf"],
)
def test_evolve_ensemble_checks_dt_at_time_zero(dt, message):
    # t = 0 takes no step, but a step size that every t > 0 rejects is still an error
    mu0 = DiscreteEnsemble((KET1,), np.array([1.0]))
    with pytest.raises(ValueError, match=message):
        evolve_ensemble(DAMPING, mu0, 0.0, dt, 10, RngStream(90))


def test_evolve_ensemble_noiseless_collapses_to_one_atom():
    free = LindbladModel(np.diag([1.0, -1.0]).astype(complex))
    mu0 = DiscreteEnsemble((KET1,), np.array([1.0]))
    out = evolve_ensemble(free, mu0, 0.5, 1e-3, 50, RngStream(91))
    assert len(out.atoms) == 1
    assert out.weights[0] == pytest.approx(1.0)


def test_evolve_ensemble_matches_lindblad_flow():
    mu0 = DiscreteEnsemble((KET1,), np.array([1.0]))
    rho0 = validate_density(np.diag([0.0, 1.0]))
    target = lindblad_evolve(DAMPING, rho0, 1.0)
    out = evolve_ensemble(DAMPING, mu0, 1.0, 1e-3, 2000, RngStream(92))
    assert trace_distance(realize(out), target) < 0.03


def test_evolve_ensemble_error_decreases_with_trajectory_count():
    mu0 = DiscreteEnsemble((KET1,), np.array([1.0]))
    rho0 = validate_density(np.diag([0.0, 1.0]))
    target = lindblad_evolve(DAMPING, rho0, 1.0)
    for seed in (1, 2, 3):
        errs = []
        for n in (100, 2500):
            out = evolve_ensemble(DAMPING, mu0, 1.0, 2e-3, n, RngStream(seed))
            errs.append(trace_distance(realize(out), target))
        assert errs[1] < errs[0]


def test_evolve_ensemble_multi_atom_consistency():
    rng = RngStream(93)
    rho = sample_faithful(2, rng)
    sigma = sample_faithful(2, rng)
    mu0, _ = cb_measures(common_basis(rho, sigma))
    target = lindblad_evolve(DAMPING, realize(mu0), 0.6)
    out = evolve_ensemble(DAMPING, mu0, 0.6, 2e-3, 800, RngStream(94))
    assert trace_distance(realize(out), target) < 0.05


def test_evolve_ensemble_merges_paths_on_one_ray():
    # a jump proportional to the identity moves only the global phase and the
    # norm, so every path ends on the starting ray, equal up to roundoff
    noise_only = LindbladModel(np.zeros((2, 2)), (np.eye(2),), (1.0,))
    plus = PureState(np.array([1.0, 1.0], dtype=complex) / math.sqrt(2))
    mu0 = DiscreteEnsemble((plus,), np.array([1.0]))
    out = evolve_ensemble(noise_only, mu0, 0.5, 1e-2, 20, RngStream(1))
    assert len(out.atoms) == 1
    assert out.weights[0] == pytest.approx(1.0)
    assert abs(np.vdot(out.atoms[0].amplitudes, plus.amplitudes)) == pytest.approx(1.0)


def test_evolve_ensemble_merges_near_coincident_damped_paths():
    # two of these paths end 2.4e-11 apart (Fubini-Study), distinct bit for bit
    mu0 = DiscreteEnsemble((KET1,), np.array([1.0]))
    out = evolve_ensemble(DAMPING, mu0, 1.0, 1e-3, 10_000, RngStream(3193737770))
    assert len(out.atoms) == 9999
    rho0 = validate_density(np.diag([0.0, 1.0]))
    assert trace_distance(realize(out), lindblad_evolve(DAMPING, rho0, 1.0)) < 0.03


def test_merged_damped_paths_have_no_pair_within_tol_match():
    # the merge links every pair within TOL_MATCH, so its output passes the
    # constructor's pairwise screen that the merged ensemble skips
    from qunravel.ensembles import _near_pairs

    mu0 = DiscreteEnsemble((KET1,), np.array([1.0]))
    out = evolve_ensemble(DAMPING, mu0, 1.0, 1e-3, 10_000, RngStream(3193737770))
    assert list(_near_pairs(out.amps)) == []


def test_contraction_identical_inputs_zero_series():
    rng = RngStream(95)
    rho = sample_faithful(2, rng)
    series = contraction_scan(DEPHASING, rho, rho, np.linspace(0.0, 1.0, 5))
    for _, d in series:
        assert abs(d) < 1e-9


def test_contraction_unitary_flow_constant_series():
    model = LindbladModel(np.array([[1.0, 0.3], [0.3, -0.5]], dtype=complex))
    rng = RngStream(96)
    rho = sample_faithful(2, rng)
    sigma = sample_faithful(2, rng)
    series = contraction_scan(model, rho, sigma, np.linspace(0.0, 2.0, 9))
    values = [d for _, d in series]
    assert max(values) - min(values) < 1e-9


def test_contraction_dephasing_strictly_decreasing():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]])
    rho = validate_density((np.eye(2) + 0.8 * sx) / 2)
    sigma = validate_density((np.eye(2) + 0.8 * sy) / 2)
    series = contraction_scan(DEPHASING, rho, sigma, np.linspace(0.0, 2.0, 11))
    values = [d for _, d in series]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] < 0.05 * values[0]


def test_contraction_random_models_monotone():
    rng = RngStream(97)
    times = np.linspace(0.0, 2.0, 11)
    for _ in range(10):
        dim = int(rng.gen.integers(2, 4))
        model = random_model(dim, rng)
        rho = sample_faithful(dim, rng)
        sigma = sample_faithful(dim, rng)
        series = contraction_scan(model, rho, sigma, times)
        values = [d for _, d in series]
        for a, b in zip(values, values[1:]):
            assert b <= a + 1e-7


def test_contraction_reports_faithfulness_loss_with_time_stamp():
    strong = LindbladModel(np.zeros((2, 2)), (SM,), (math.sqrt(5.0),))
    rho = validate_density(np.eye(2) / 2)
    sigma = validate_density(np.diag([1.0 - 1e-10, 1e-10]))
    with pytest.raises(NotFaithful, match="t=2"):
        contraction_scan(strong, rho, sigma, np.array([0.5, 2.0]))


RHO3 = validate_density(np.eye(3) / 3)
KET_3D = PureState(np.array([1.0, 0.0, 0.0], dtype=complex))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: sse_trajectory(DAMPING, KET_3D, 1.0, 0.1, RngStream(99)),
            DimMismatch,
            "model dim 2 vs state dim 3",
        ),
        (
            lambda: evolve_ensemble(
                DAMPING, DiscreteEnsemble((KET_3D,), np.array([1.0])), 1.0, 0.1, 2, RngStream(99)
            ),
            DimMismatch,
            "model dim 2 vs ensemble dim 3",
        ),
        (
            lambda: dynamics._propagate(DAMPING, (validate_density(np.eye(2) / 2), RHO3), [1.0]),
            DimMismatch,
            "model dim 2 vs states 2, 3",
        ),
        (lambda: lindblad_evolve(DAMPING, RHO3, 1.0), DimMismatch, "model dim 2 vs states 3"),
        (
            lambda: dynamics._propagate(DAMPING, (validate_density(np.eye(2) / 2),), []),
            ValueError,
            "nonempty 1-d array",
        ),
        (
            lambda: contraction_scan(DEPHASING, RHO3, RHO3, np.zeros((0,))),
            ValueError,
            "nonempty 1-d array",
        ),
    ],
    ids=[
        "sse-trajectory", "evolve-ensemble", "propagate", "evolve", "propagate-empty",
        "scan-empty",
    ],
)
def test_flows_reject_mismatched_dimensions_and_empty_grids(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_contraction_rejects_bad_time_grids():
    rng = RngStream(98)
    rho = sample_faithful(2, rng)
    sigma = sample_faithful(2, rng)
    with pytest.raises(ValueError):
        contraction_scan(DEPHASING, rho, sigma, np.array([1.0, 0.5]))
    with pytest.raises(ValueError):
        contraction_scan(DEPHASING, rho, sigma, np.array([-1.0, 0.5]))
    for bad in (np.array([0.0, np.nan]), np.full(3, np.nan), np.array([0.0, np.inf])):
        with pytest.raises(ValueError, match="finite"):
            contraction_scan(DEPHASING, rho, sigma, bad)


@pytest.mark.parametrize(
    "times",
    [
        np.linspace(0.0, 2.0, 21),
        np.array([0.0, 0.03, 0.3, 0.31, 1.2, 1.9, 2.0]),
        np.array([0.7, 0.75, 1.1, 2.5]),
    ],
    ids=["uniform", "uneven", "late-start"],
)
def test_contraction_matches_per_point_evolution(times):
    rng = RngStream(99)
    for dim in (2, 3, 4):
        model = random_model(dim, rng, 2)
        rho = sample_faithful(dim, rng)
        sigma = sample_faithful(dim, rng)
        series = contraction_scan(model, rho, sigma, times)
        assert [t for t, _ in series] == times.tolist()
        for t, d in series:
            ref = bs_entropy(lindblad_evolve(model, rho, t), lindblad_evolve(model, sigma, t))
            assert abs(d - ref) <= 1e-12 * max(1.0, abs(ref))


def test_contraction_builds_one_generator_and_one_propagator_per_gap(monkeypatch):
    calls = {"superop": 0, "expm": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(dynamics, "lindblad_superop", counted("superop", lindblad_superop))
    monkeypatch.setattr(dynamics, "expm", counted("expm", dynamics.expm))
    rng = RngStream(100)
    times = np.linspace(0.0, 2.0, 21)
    contraction_scan(
        random_model(2, rng), sample_faithful(2, rng), sample_faithful(2, rng), times
    )
    assert calls["superop"] == 1
    # the 20 gaps hold 5 floats that differ only in their last bits
    assert calls["expm"] == 1


def test_a_grid_builds_one_propagator_per_run_of_near_equal_gaps(monkeypatch):
    built, expm = [], dynamics.expm
    monkeypatch.setattr(dynamics, "expm", lambda a: built.append(1) or expm(a))
    rng = RngStream(106)
    # 2000 distinct gaps, then a uniform tail whose gaps differ in their last bits
    ts = np.concatenate([[0.0], np.geomspace(1e-3, 1.0, 2000), np.linspace(1.0, 2.0, 201)[1:]])
    series = contraction_scan(
        random_model(2, rng), sample_faithful(2, rng), sample_faithful(2, rng), ts
    )
    assert len(series) == ts.size
    assert len(built) == 2001


def test_a_flow_holds_one_propagator_at_a_time():
    import tracemalloc

    # 2000 distinct gaps at d = 8: a 32 KB real propagator each, 65 MB if all were kept
    rng = RngStream(107)
    model, states = random_model(8, rng, 2), (sample_faithful(8, rng), sample_faithful(8, rng))
    ts = np.concatenate([[0.0], np.geomspace(1e-3, 2.0, 2000)])
    tracemalloc.start()
    try:
        dynamics._propagate(model, states, ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6


def test_a_generator_over_budget_raises_before_it_is_built(monkeypatch):
    built = []
    monkeypatch.setattr(dynamics, "lindblad_superop", built.append)
    # 39^4 generator entries fit the budget, 40^4 do not
    dynamics.check_scan_budget(1, 1, 39)
    model = LindbladModel(np.zeros((40, 40)))
    rho = validate_density(np.eye(40) / 40)
    with pytest.raises(BudgetExceeded, match="^the generator at dimension 40 takes 2560000 "):
        contraction_scan(model, rho, rho, np.array([0.0, 1.0]))
    with pytest.raises(BudgetExceeded, match="^the generator at dimension 40 "):
        lindblad_evolve(model, rho, 1.0)
    assert built == []


def test_contraction_grid_over_budget_raises_before_any_propagator(monkeypatch):
    built, expm = [], dynamics.expm
    monkeypatch.setattr(dynamics, "expm", lambda a: built.append(a) or np.eye(len(a)))
    rng = RngStream(102)
    rho, sigma = sample_faithful(2, rng), sample_faithful(2, rng)
    points = dynamics.MAX_SCAN_ENTRIES // (2 * 2 * 2) + 1
    with pytest.raises(BudgetExceeded, match=f"^{points} points of 2 states at dimension 2 "):
        contraction_scan(DEPHASING, rho, sigma, np.linspace(0.0, 2.0, points))
    assert built == []
    monkeypatch.setattr(dynamics, "expm", expm)
    monkeypatch.setattr(dynamics, "MAX_SCAN_ENTRIES", 2 * 2 * 2 * 21)
    assert len(contraction_scan(DEPHASING, rho, sigma, np.linspace(0.0, 2.0, 21))) == 21
    with pytest.raises(BudgetExceeded):
        contraction_scan(DEPHASING, rho, sigma, np.linspace(0.0, 2.0, 22))


def test_trace_drift_raises_with_time_stamp(monkeypatch):
    # a generator that leaks trace at rate 0.01, which no LindbladModel builds
    leaky = lambda model: lindblad_superop(model) - 0.01 * np.eye(model.dim**2)
    monkeypatch.setattr(dynamics, "lindblad_superop", leaky)
    rng = RngStream(101)
    rho = sample_faithful(2, rng)
    sigma = sample_faithful(2, rng)
    with pytest.raises(ValidationFailure, match=r"trace drifted .* at t=0\.5 "):
        contraction_scan(DEPHASING, rho, sigma, np.array([0.0, 0.5, 1.0]))
    with pytest.raises(ValidationFailure, match=r"trace drifted .* at t=0\.5 "):
        lindblad_evolve(DEPHASING, rho, 0.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_model_rejects_non_finite_entries(bad):
    h = np.array([[bad, 0.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(NotHermitian):
        LindbladModel(h)
    jump = SM.copy()
    jump[1, 0] = bad
    with pytest.raises(ValueError):
        LindbladModel(np.zeros((2, 2)), (jump,), (1.0,))
    with pytest.raises(ValueError):
        LindbladModel(np.zeros((2, 2)), (SM,), (bad,))


def test_evolve_ensemble_noiseless_keeps_input_atom_order():
    # a sorted merge would put |1> = (0, 1) before |0> = (1, 0)
    ket0 = PureState(np.array([1.0, 0.0], dtype=complex))
    mu0 = DiscreteEnsemble((ket0, KET1), np.array([0.3, 0.7]))
    out = evolve_ensemble(LindbladModel(SZ), mu0, 0.5, 1e-3, 5, RngStream(96))
    assert len(out) == 2
    assert abs(np.vdot(out.atoms[0].amplitudes, ket0.amplitudes)) == pytest.approx(1.0)
    assert abs(np.vdot(out.atoms[1].amplitudes, KET1.amplitudes)) == pytest.approx(1.0)
    assert np.allclose(out.weights, [0.3, 0.7], rtol=0, atol=1e-14)


@pytest.mark.parametrize(
    "t_final,dt", [(math.inf, 1e-3), (math.nan, 1e-3), (1.0, math.nan), (1.0, math.inf)]
)
def test_step_count_rejects_non_finite_times(t_final, dt):
    psi = haar_pure(2, RngStream(5))
    mu = DiscreteEnsemble((psi,), np.array([1.0]))
    with pytest.raises(ValueError, match="finite"):
        sse_trajectory(DAMPING, psi, t_final, dt, RngStream(6))
    with pytest.raises(ValueError, match="finite"):
        evolve_ensemble(DAMPING, mu, t_final, dt, 2, RngStream(6))


def count_calls(monkeypatch, fn):
    """Route ``fn``, under every name the package imported it as, through a
    counter; returns the list of recorded call arguments."""
    seen = []

    def counted(*args, **kwargs):
        seen.append(args)
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "qunravel" or name.startswith("qunravel."):
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    monkeypatch.setattr(mod, attr, counted)
    return seen


@pytest.mark.parametrize("points", [2, 21])
def test_passing_scan_runs_two_stacked_eigensolves_and_no_scalar_one(monkeypatch, points):
    rng = RngStream(102)
    model, rho, sigma = random_model(4, rng, 2), sample_faithful(4, rng), sample_faithful(4, rng)
    scalar = count_calls(monkeypatch, matcore.herm_eig)
    lapack = count_calls(monkeypatch, matcore._zheevd)  # every scalar eigensolve's binding
    stacked = count_calls(monkeypatch, matcore.herm_eig_stack)
    contraction_scan(model, rho, sigma, np.linspace(0.0, 2.0, points))
    assert scalar == [] and lapack == []
    # all 2P states, then the P pair cores, each core its own member of the stack
    assert [args[0].shape for args in stacked] == [(2 * points, 4, 4), (points, 4, 4)]


def corrupted_propagation(monkeypatch, faults):
    """Make the scan's propagation apply ``faults[k]`` to the (2, n, n) rho and
    sigma pair of point k."""
    orig = dynamics._propagate

    def propagate(*args):
        mats = orig(*args).copy()
        for k, fault in faults.items():
            mats[:, k] = fault(mats[:, k])
        return mats

    monkeypatch.setattr(dynamics, "_propagate", propagate)


def leak_trace(pair):
    return 1.01 * pair


def sigma_pure(pair):
    # sigma becomes |0><0|: unit trace and PSD, but not faithful
    pair[1] = np.diag([1.0, 0.0])
    return pair


def rho_not_psd(pair):
    pair[0] = np.diag([1.5, -0.5])
    return pair


@pytest.mark.parametrize(
    "first, later",
    [(leak_trace, sigma_pure), (sigma_pure, leak_trace), (rho_not_psd, sigma_pure)],
    ids=["drift-then-unfaithful", "unfaithful-then-drift", "not-psd-then-unfaithful"],
)
def test_failing_scan_raises_the_earliest_point_error_of_the_per_point_chain(
    monkeypatch, first, later
):
    rng = RngStream(103)
    rho, sigma = sample_faithful(2, rng), sample_faithful(2, rng)
    times = np.linspace(0.0, 1.0, 6)
    mats = dynamics._propagate(DEPHASING, (rho, sigma), times)
    with pytest.raises(QunravelError) as expected:
        dynamics._point_bs_value(first(mats[:, 2].copy()), float(times[2]), DEFAULT_TOLS)
    corrupted_propagation(monkeypatch, {2: first, 4: later})
    with pytest.raises(type(expected.value)) as raised:
        contraction_scan(DEPHASING, rho, sigma, times)
    assert str(raised.value) == str(expected.value)
    assert "t=0.4" in str(raised.value)


def strict_cores(decompose):
    """``decompose`` with no round-trip budget: a BS core fails its check."""
    return lambda mat, tols: decompose(mat, dataclasses.replace(tols, tol_recon=0.0))


@pytest.mark.parametrize("scalar_fails", [False, True], ids=["stacked-core", "every-core"])
def test_a_failing_stacked_core_falls_back_to_the_per_point_chain(monkeypatch, scalar_fails):
    rng = RngStream(104)
    rho, sigma = sample_faithful(2, rng), sample_faithful(2, rng)
    times = np.linspace(0.0, 1.0, 6)
    expected = contraction_scan(DEPHASING, rho, sigma, times)
    # the states' own eigensolves are bound in states and dynamics, not here
    monkeypatch.setattr(entropy, "herm_eig_stack", strict_cores(matcore.herm_eig_stack))
    if not scalar_fails:
        # the chain's scalar cores pass, so the scan returns its values
        chain = count_calls(monkeypatch, dynamics._point_bs_value)
        assert contraction_scan(DEPHASING, rho, sigma, times) == expected
        assert len(chain) == len(times)
        return
    monkeypatch.setattr(entropy, "_gram_eig", strict_cores(matcore._gram_eig))
    mats = dynamics._propagate(DEPHASING, (rho, sigma), times)
    with pytest.raises(BackendFailure) as chain:
        dynamics._point_bs_value(mats[:, 0], float(times[0]), DEFAULT_TOLS)
    assert "round trip off by" in str(chain.value)
    with pytest.raises(BackendFailure) as raised:
        contraction_scan(DEPHASING, rho, sigma, times)
    assert str(raised.value) == str(chain.value)


def test_model_rejects_a_rate_whose_square_overflows():
    rho = validate_density(np.eye(2) / 2)
    calls = [
        lambda m: lindblad_evolve(m, rho, 1.0),
        lambda m: contraction_scan(m, rho, rho, np.array([0.0, 1.0])),
        lambda m: sse_trajectory(m, KET1, 1.0, 1e-3, RngStream(7)),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(ValueError, match=r"rate 1e\+200 overflows"):
                call(LindbladModel(np.zeros((2, 2)), (SM,), (1e200,)))
    # the largest rate whose square is finite still builds a generator
    LindbladModel(np.zeros((2, 2)), (SM,), (1e154,))


def test_step_count_rejects_an_overflowing_quotient():
    psi = haar_pure(2, RngStream(5))
    mu = DiscreteEnsemble((psi,), np.array([1.0]))
    with pytest.raises(ValueError, match=r"t_final=1e\+308, dt=1e-10"):
        sse_trajectory(DAMPING, psi, 1e308, 1e-10, RngStream(6))
    with pytest.raises(ValueError, match=r"t_final=1e\+308, dt=1e-10"):
        evolve_ensemble(DAMPING, mu, 1e308, 1e-10, 2, RngStream(6))


def test_step_count_must_reach_t_final():
    # 1 / 0.03 = 33.33 steps: the run would end at t = 0.99, so it is refused
    mu = DiscreteEnsemble((KET1,), np.array([1.0]))
    message = r"t_final=1\.0 is not a whole number of steps dt=0\.03"
    with pytest.raises(ValueError, match=message):
        sse_trajectory(DAMPING, KET1, 1.0, 0.03, NoDraws())
    with pytest.raises(ValueError, match=message):
        evolve_ensemble(DAMPING, mu, 1.0, 0.03, 2, NoDraws())
    assert dynamics._n_steps(0.3, 1e-3, 1, 1) == 300
    assert 0.3 / 0.1 != 3  # a ratio off by roundoff still counts as whole
    assert dynamics._n_steps(0.3, 0.1, 1, 1) == 3


def test_lindblad_model_rejects_a_zero_by_zero_hamiltonian():
    with pytest.raises(DimMismatch, match=r"square with d >= 1, got shape \(0, 0\)"):
        LindbladModel(np.zeros((0, 0)))


@pytest.mark.parametrize("n", [2.5, math.nan, math.inf, 0, -1, True, "3"])
def test_evolve_ensemble_needs_a_positive_integral_path_count(n):
    mu0 = DiscreteEnsemble((KET1,), np.array([1.0]))
    message = re.escape(f"n_per_atom must be a positive integer, got {n!r}")
    with pytest.raises(ValueError, match=message):
        evolve_ensemble(DAMPING, mu0, 0.1, 1e-2, n, RngStream(97))


def test_integral_float_and_numpy_path_counts_count_as_integers():
    mu0 = DiscreteEnsemble((KET1,), np.array([1.0]))
    by_int = evolve_ensemble(DAMPING, mu0, 0.1, 1e-2, 3, RngStream(97))
    for n in (3.0, np.int64(3)):
        out = evolve_ensemble(DAMPING, mu0, 0.1, 1e-2, n, RngStream(97))
        assert np.array_equal(out.amps, by_int.amps)
        assert np.array_equal(out.weights, by_int.weights)


class NoDraws:
    """A stream that fails the test if any noise is drawn from it."""

    seed, stream_id = 0, 0

    class gen:
        @staticmethod
        def standard_normal(*args, **kwargs):
            raise AssertionError("noise was drawn")

    def split(self, stream_id):
        return self


@pytest.mark.parametrize("model", [DAMPING, LindbladModel(SZ)], ids=["one-jump", "jump-free"])
def test_a_run_over_the_noise_budget_raises_before_drawing(model):
    mu0 = DiscreteEnsemble((KET1,), np.array([1.0]))
    steps = r"t_final=1000000\.0, dt=1e-09 takes 1000000000000000 steps"
    with pytest.raises(BudgetExceeded, match=steps + r": 1000000000000000 noise draws"):
        sse_trajectory(model, KET1, 1e6, 1e-9, NoDraws())
    with pytest.raises(BudgetExceeded, match=steps + r": 2000000000000000 noise draws"):
        evolve_ensemble(model, mu0, 1e6, 1e-9, 2, NoDraws())


def test_the_noise_budget_counts_every_path_of_every_atom():
    # criterion 09 draws 1e4 paths x 1e3 steps x 1 jump
    assert 10_000 * 1000 <= dynamics.MAX_NOISE_DRAWS
    paths = dynamics.MAX_NOISE_DRAWS // 1000
    assert dynamics._n_steps(1.0, 1e-3, paths, 1) == 1000
    with pytest.raises(BudgetExceeded, match=f"over {paths + 1} paths"):
        dynamics._n_steps(1.0, 1e-3, paths + 1, 1)
    with pytest.raises(BudgetExceeded, match=f"over {paths} paths"):
        dynamics._n_steps(1.0, 1e-3, paths, 2)
    mu0 = DiscreteEnsemble((KET1, haar_pure(2, RngStream(98))), np.array([0.5, 0.5]))
    with pytest.raises(BudgetExceeded, match=f"over {2 * paths} paths"):
        evolve_ensemble(DAMPING, mu0, 1.0, 1e-3, paths, NoDraws())


def test_the_budget_counts_the_path_sse_trajectory_stores():
    # 1e7 steps draw 1e7 increments, within the budget, but the stored path
    # adds 6 float64 words (two complex amplitudes, time, log weight) per time
    assert dynamics._n_steps(10.0, 1e-6, 1, 1) == 10_000_000
    stored = re.escape(
        "t_final=10.0, dt=1e-06 takes 10000000 steps: 10000000 noise draws "
        "over 1 paths and 60000006 stored path words exceed the budget of 50000000"
    )
    with pytest.raises(BudgetExceeded, match=stored):
        sse_trajectory(DAMPING, KET1, 10.0, 1e-6, NoDraws())


def test_the_stored_path_budget_edge():
    # steps + 6 (steps + 1) words: 49999998 fit, one step more is 50000005
    assert dynamics._n_steps(7_142_856.0, 1.0, 1, 1, kept=6) == 7_142_856
    with pytest.raises(BudgetExceeded, match="and 42857148 stored path words"):
        dynamics._n_steps(7_142_857.0, 1.0, 1, 1, kept=6)


def test_unraveling_holds_its_noise_block_once():
    import tracemalloc

    # one atom, 2000 paths of 1000 steps with one jump: a 16 MB noise block,
    # filled in place and freed before the final states are merged
    mu = DiscreteEnsemble([haar_pure(2, RngStream(94))], [1.0])
    block = 2000 * 1000 * 8
    tracemalloc.start()
    try:
        evolve_ensemble(DAMPING, mu, 1.0, 1e-3, 2000, RngStream(95))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * block
