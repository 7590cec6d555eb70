import numpy as np
import pytest

from qunravel import (
    GENERATORS,
    DiscreteEnsemble,
    PureState,
    RngStream,
    SpectralDecomposition,
    Tolerances,
    bs_entropy,
    canonical_phase,
    common_basis,
    fubini_study,
    haar_pure,
    make_experiment,
    max_f_divergence,
    sample_faithful,
    trace_distance,
    umegaki,
    unr_entropy,
    validate_density,
)
from qunravel import states
from qunravel.errors import (
    DimMismatch,
    NotFaithful,
    NotHermitian,
    NotPSD,
    NotTraceOne,
)
from qunravel.states import check_pair, require_faithful

KET0 = PureState(np.array([1.0, 0.0], dtype=complex))
KET1 = PureState(np.array([0.0, 1.0], dtype=complex))
PLUS = PureState(np.array([1.0, 1.0], dtype=complex) / np.sqrt(2))


def test_pure_state_requires_unit_norm():
    with pytest.raises(ValueError):
        PureState(np.array([1.0, 1.0], dtype=complex))
    with pytest.raises(DimMismatch):
        PureState(np.array([[1.0, 0.0]], dtype=complex))


@pytest.mark.parametrize(
    "norm,ok",
    [
        (1.0 + 0.9e-12, True),
        (1.0 - 0.9e-12, True),
        (1.0 + 1.1e-12, False),
        (1.0 - 1.1e-12, False),
        (np.nan, False),
        (np.inf, False),
    ],
)
def test_pure_state_and_ensemble_rows_share_one_unit_check(norm, ok):
    row = np.array([norm, 0.0], dtype=complex)
    outcomes = []
    for build in (lambda: PureState(row), lambda: DiscreteEnsemble(row[None], [1.0])):
        try:
            build()
            outcomes.append(None)
        except Exception as exc:  # the class is what is compared
            outcomes.append(type(exc))
    assert outcomes[0] is outcomes[1]
    assert outcomes[0] is (None if ok else ValueError)


def test_pure_state_projector():
    p = KET0.projector()
    assert np.allclose(p, np.diag([1.0, 0.0]))
    assert KET0.overlap(KET1) == 0


def test_validate_density_maximally_mixed():
    state = validate_density(np.eye(2) / 2)
    assert state.faithful
    assert state.min_eigenvalue == pytest.approx(0.5)


def test_validate_density_pure_projector_not_faithful():
    state = validate_density(np.diag([1.0, 0.0]))
    assert not state.faithful
    with pytest.raises(NotFaithful):
        require_faithful(state, "rho")


def test_validate_density_failures_name_first_violation():
    with pytest.raises(NotTraceOne):
        validate_density(np.diag([0.6, 0.5]))
    with pytest.raises(NotHermitian):
        validate_density(np.array([[0.5, 0.3], [0.0, 0.5]]))
    with pytest.raises(NotPSD):
        validate_density(np.diag([1.5, -0.5]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_validate_density_rejects_non_finite_entries(bad):
    with pytest.raises(NotHermitian):
        validate_density(np.full((2, 2), bad))
    m = np.eye(2, dtype=complex) / 2
    m[0, 1] = m[1, 0] = bad
    with pytest.raises(NotHermitian):
        validate_density(m)


def test_validated_state_carries_its_verified_spectrum():
    rng = RngStream(12)
    for dim in (1, 2, 5):
        state = sample_faithful(dim, rng)
        vals, vecs = state.eig
        assert np.all(np.diff(vals) >= 0)
        assert state.min_eigenvalue == vals[0]
        assert np.abs((vecs * vals) @ vecs.conj().T - state.matrix).max() < 1e-14
        assert np.abs(vecs.conj().T @ vecs - np.eye(dim)).max() < 1e-14


def test_validate_density_round_trip():
    rng = RngStream(11)
    for _ in range(10):
        state = sample_faithful(3, rng)
        again = validate_density(state.matrix)
        assert np.array_equal(again.matrix, state.matrix)


def test_trace_distance_basics():
    rho = validate_density(np.diag([0.75, 0.25]))
    sigma = validate_density(np.diag([0.5, 0.5]))
    assert trace_distance(rho, rho) == 0.0
    assert trace_distance(rho, sigma) == pytest.approx(0.25, abs=1e-14)
    p0 = validate_density(np.diag([1.0, 0.0]))
    p1 = validate_density(np.diag([0.0, 1.0]))
    assert trace_distance(p0, p1) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(DimMismatch):
        trace_distance(rho, validate_density(np.eye(3) / 3))


def test_trace_distance_triangle_inequality():
    rng = RngStream(12)
    for _ in range(50):
        a = sample_faithful(4, rng)
        b = sample_faithful(4, rng)
        c = sample_faithful(4, rng)
        assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-10


def test_fubini_study_reference_angles():
    assert fubini_study(KET0, KET1) == pytest.approx(np.pi / 2)
    assert fubini_study(KET0, PLUS) == pytest.approx(np.pi / 4)
    assert fubini_study(KET0, KET0) == 0.0


def test_fubini_study_phase_invariance():
    rng = RngStream(13)
    for _ in range(20):
        psi = haar_pure(5, rng)
        theta = rng.gen.uniform(0, 2 * np.pi)
        rotated = PureState(psi.amplitudes * np.exp(1j * theta))
        assert fubini_study(psi, rotated) < 1e-12


def test_fubini_study_symmetry_and_triangle():
    rng = RngStream(14)
    for _ in range(50):
        a = haar_pure(3, rng)
        b = haar_pure(3, rng)
        c = haar_pure(3, rng)
        assert fubini_study(a, b) == pytest.approx(fubini_study(b, a), abs=1e-12)
        assert fubini_study(a, c) <= fubini_study(a, b) + fubini_study(b, c) + 1e-10


def test_fubini_study_accurate_near_zero():
    # arccos of the overlap would return 0 or ~1e-8 here; the residual form keeps
    # the true size of a 1e-9 perturbation
    base = np.array([1.0, 0.0], dtype=complex)
    bumped = base + np.array([0.0, 1e-9], dtype=complex)
    bumped = bumped / np.linalg.norm(bumped)
    d = fubini_study(PureState(base), PureState(bumped))
    assert d == pytest.approx(1e-9, rel=1e-6)


def test_canonical_phase_pivot_real_positive():
    rng = RngStream(15)
    for _ in range(20):
        psi = haar_pure(4, rng)
        canon = canonical_phase(psi)
        pivot = canon.amplitudes[np.flatnonzero(np.abs(canon.amplitudes) > 1e-12)[0]]
        assert abs(pivot.imag) < 1e-14
        assert pivot.real > 0
        # idempotent, and phase rotations collapse to the same representative
        again = canonical_phase(canon)
        assert np.allclose(again.amplitudes, canon.amplitudes, atol=1e-14)
        rotated = canonical_phase(PureState(psi.amplitudes * np.exp(0.7j)))
        assert np.allclose(rotated.amplitudes, canon.amplitudes, atol=1e-12)


def test_validate_density_rejects_entries_that_overflow_once_hermitized():
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NotHermitian, match="overflows"):
            validate_density([[1e308, 1e308], [1e308, -1e308]])


def test_validate_density_bounds_fail_on_nan(monkeypatch):
    # with the decomposition stubbed out, the trace and PSD bounds alone must
    # reject a NaN, which compares False with either bound
    nan_spectrum = SpectralDecomposition(np.array([np.nan, 0.5]), np.eye(2, dtype=complex))
    monkeypatch.setattr(states, "herm_eig", lambda m, tols=None: nan_spectrum)
    with pytest.raises(NotPSD):
        validate_density(np.eye(2) / 2)
    with pytest.raises(NotTraceOne):
        validate_density(np.diag([np.nan, 0.5]))


def test_validated_state_equals_only_itself_and_hashes():
    m = np.diag([0.75, 0.25])
    rho, twin = validate_density(m), validate_density(m)
    assert rho == rho and not rho != rho
    assert rho != twin and not rho == twin
    assert rho != m.tolist()
    assert hash(rho) == hash(rho)
    assert len({rho, twin, rho}) == 2


def test_check_pair_is_the_contract_of_every_pair_entry_point():
    half = validate_density(np.eye(2) / 2)
    pure = validate_density(np.diag([1.0, 0.0]))
    third = validate_density(np.eye(3) / 3)
    slim = validate_density(np.diag([1.0 - 1e-13, 1e-13]))
    check_pair(half, half)
    check_pair(slim, half, Tolerances(eps_faithful=1e-14))
    callers = [
        check_pair,
        umegaki,
        bs_entropy,
        unr_entropy,
        common_basis,
        lambda r, s: max_f_divergence(r, s, GENERATORS["xlogx"]),
        lambda r, s: make_experiment(r, s, 0.1, (10,)),
    ]
    for fn in callers:
        with pytest.raises(DimMismatch, match="dimensions differ: 2 vs 3"):
            fn(half, third)
        for args, name in (((pure, half), "rho"), ((half, pure), "sigma"), ((slim, half), "rho")):
            with pytest.raises(NotFaithful, match=f"^{name} is not faithful"):
                fn(*args)


def test_rng_stream_determinism():
    a = RngStream(42, 3).gen.standard_normal(8)
    b = RngStream(42, 3).gen.standard_normal(8)
    assert np.array_equal(a, b)
    c = RngStream(42, 4).gen.standard_normal(8)
    assert not np.array_equal(a, c)
    d = RngStream(43, 3).gen.standard_normal(8)
    assert not np.array_equal(a, d)


def test_rng_stream_split_matches_direct_construction():
    root = RngStream(7)
    via_split = root.split(5).gen.standard_normal(4)
    direct = RngStream(7, 5).gen.standard_normal(4)
    assert np.array_equal(via_split, direct)


def test_haar_pure_norm_and_determinism():
    rng = RngStream(99)
    for _ in range(100):
        psi = haar_pure(6, rng)
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12
    again = haar_pure(6, RngStream(99))
    first = haar_pure(6, RngStream(99))
    assert np.array_equal(again.amplitudes, first.amplitudes)


def test_haar_pure_mean_projector_is_maximally_mixed():
    # unitary invariance forces E[|psi><psi|] = I/d
    rng = RngStream(100)
    acc = np.zeros((2, 2), dtype=complex)
    n = 20000
    for _ in range(n):
        psi = haar_pure(2, rng)
        acc += psi.projector()
    assert np.abs(acc / n - np.eye(2) / 2).max() < 0.01


def test_sample_faithful_properties():
    rng = RngStream(101)
    for dim in (2, 3, 8):
        state = sample_faithful(dim, rng)
        assert state.faithful
        assert state.min_eigenvalue > 1e-11
        assert np.trace(state.matrix).real == pytest.approx(1.0, abs=1e-12)
    again = sample_faithful(3, RngStream(101))
    first = sample_faithful(3, RngStream(101))
    assert np.array_equal(again.matrix, first.matrix)


def test_sample_faithful_mean_is_maximally_mixed():
    rng = RngStream(102)
    acc = np.zeros((2, 2), dtype=complex)
    n = 20000
    for _ in range(n):
        acc += sample_faithful(2, rng).matrix
    assert np.abs(acc / n - np.eye(2) / 2).max() < 0.01


def test_fs_angles_table_matches_fubini_study_on_near_identical_rays():
    from qunravel.states import fs_angles

    rng = RngStream(17)
    base = haar_pure(4, rng)
    rays = [base]
    for angle in (1e-11, 1e-9, 1e-7, 1e-4, 0.3, 1.2):
        # rotate base by `angle` toward a random direction orthogonal to it
        v = rng.complex_normal(4)
        v -= np.vdot(base.amplitudes, v) * base.amplitudes
        v /= np.linalg.norm(v)
        tilted = np.cos(angle) * base.amplitudes + np.sin(angle) * v
        rays.append(PureState(tilted * np.exp(1j * angle)))
    amps = np.stack([r.amplitudes for r in rays])
    table = fs_angles(amps[:, None], amps[None])
    assert table.shape == (len(rays), len(rays))
    for i, a in enumerate(rays):
        for j, b in enumerate(rays):
            one = fubini_study(a, b)
            assert abs(table[i, j] - one) <= 1e-12 * one + 1e-20
    # the arccos form is off by ~1e-9 at these angles, the atan2 form by ulps
    exact = [1e-11, 1e-9, 1e-7, 1e-4, 0.3, 1.2]
    assert np.allclose(table[0, 1:], exact, rtol=1e-12, atol=1e-15)
    assert np.allclose(fs_angles(amps, amps), 0.0, atol=1e-15)


def test_validated_state_is_read_only():
    m = np.diag([0.75, 0.25]).astype(complex)
    rho = validate_density(m)
    for arr in (rho.matrix, *rho.eig):
        with pytest.raises(ValueError):
            arr[0] = 0.5
    m[0, 0] = 0.5  # the caller's input stays its own
    assert rho.matrix[0, 0] == 0.75


@pytest.mark.parametrize(
    "row", [[1e308, 1e308], [1e200, 0.0], [1e308j, 1e308]], ids=["both", "square", "complex"]
)
def test_unit_check_of_a_row_whose_norm_overflows_raises_without_warning(row):
    # the suite turns RuntimeWarning into an error, so numpy's overflow warning would fail here
    amps = np.array(row, dtype=complex)
    with pytest.raises(ValueError, match="row 0 has norm .*inf"):
        PureState(amps)
    with pytest.raises(ValueError, match="row 0 has norm .*inf"):
        DiscreteEnsemble(amps[None], [1.0])


def test_unit_check_prints_the_norm_as_a_plain_float():
    with pytest.raises(ValueError) as raised:
        PureState(np.array([1e308, 1e308]))
    assert str(raised.value) == "row 0 has norm inf, not 1 within 1e-12"
    with pytest.raises(ValueError, match=r"^row 0 has norm 2\.0, not 1"):
        PureState(np.array([2.0, 0.0]))


@pytest.mark.parametrize(
    "call",
    [
        lambda: fubini_study(KET0, PureState(np.array([1.0, 0.0, 0.0]))),
        lambda: haar_pure(0, RngStream(122)),
        lambda: sample_faithful(0, RngStream(122)),
    ],
    ids=["fubini-study", "haar-pure", "sample-faithful"],
)
def test_dimension_mismatches_are_rejected(call):
    with pytest.raises(DimMismatch):
        call()
