import math

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
from qunravel.errors import (
    DimMismatch,
    NotFaithful,
    NotHermitian,
    StepExplosion,
    ValidationFailure,
)

SM = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # qubit lowering operator
SZ = np.diag([1.0, -1.0]).astype(complex)
DAMPING = LindbladModel(np.zeros((2, 2)), (SM,), (1.0,))
DEPHASING = LindbladModel(np.zeros((2, 2)), (SZ,), (1.0,))
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
    # rates whose squares overflow make the drift, and so the step norm, NaN
    # (numpy warns on the way); the norm window must catch NaN, not pass it on
    huge = LindbladModel(np.zeros((2, 2)), (SM, SZ), (1e200, 1e200))
    mu0 = DiscreteEnsemble((KET1,), np.array([1.0]))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(StepExplosion, match="norm nan"):
            sse_trajectory(huge, KET1, 0.1, 0.01, RngStream(88))
        with pytest.raises(StepExplosion, match="norm nan"):
            evolve_ensemble(huge, mu0, 0.1, 0.01, 3, RngStream(88))


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
