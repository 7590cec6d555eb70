import math
import warnings

import numpy as np
import pytest

from qunravel import (
    DEFAULT_TOLS,
    GENERATORS,
    LindbladModel,
    herm_eig,
    herm_eig_stack,
    hermitize,
    spectral_fn,
    validate_density,
)
from qunravel import matcore
from qunravel.errors import BackendFailure, DomainViolation, NotHermitian
from qunravel.matcore import Tolerances, hermiticity_defect, populations

RNG = np.random.default_rng(20240817)


def random_hermitian(n, rng, scale=1.0):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return hermitize(scale * g)


def random_spd(n, rng):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return g @ g.conj().T + 0.1 * np.eye(n)


def test_default_tolerances():
    assert DEFAULT_TOLS.tol_herm == 1e-10
    assert DEFAULT_TOLS.tol_recon == 1e-10
    assert DEFAULT_TOLS.eps_faithful == 1e-12


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1e-12])
@pytest.mark.parametrize("field", ["tol_herm", "tol_recon", "eps_faithful"])
def test_tolerances_reject_a_field_that_is_not_finite_and_nonnegative(field, value):
    with pytest.raises(ValueError) as raised:
        Tolerances(**{field: value})
    assert str(raised.value) == f"{field} must be finite and >= 0, got {value!r}"


def test_tolerances_accept_zero_budgets():
    assert Tolerances(0.0, 0.0, 0.0) == Tolerances(tol_herm=0, tol_recon=0, eps_faithful=0)


def test_hermitize_fixes_roundoff():
    m = np.array([[1.0, 0.5 + 1e-13j], [0.5 - 3e-13j, 2.0]])
    h = hermitize(m)
    assert hermiticity_defect(h) == 0.0
    # already-Hermitian input is a fixed point
    assert np.array_equal(hermitize(h), h)


def test_hermiticity_defect_reports_largest_entry():
    m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    assert hermiticity_defect(m) == pytest.approx(1.0)
    assert hermiticity_defect(np.eye(3)) == 0.0


def test_hermiticity_defect_of_finite_entries_overflows_to_inf_without_warning():
    # M - M^dag overflows here; the defect is taken from exact halves instead
    h = [[0.0, 1e308], [-1e308, 0.0]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert hermiticity_defect(h) == math.inf
        with pytest.raises(NotHermitian):
            LindbladModel(np.array(h))


def test_herm_eig_round_trip():
    for n in (2, 3, 4, 8):
        for _ in range(20):
            m = random_hermitian(n, RNG)
            vals, vecs = herm_eig(m)
            assert np.all(np.diff(vals) >= 0)
            recon = (vecs * vals) @ vecs.conj().T
            assert np.linalg.norm(recon - m) < 1e-12 * n * max(1, np.linalg.norm(m))
            assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(n)) < 1e-12 * n


def test_herm_eig_rejects_non_hermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(NotHermitian):
        herm_eig(m)


def test_herm_eig_rejects_non_finite():
    m = np.array([[np.inf, 0.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(NotHermitian):
        herm_eig(m)


def test_herm_eig_large_norm_input():
    # inverse-scale matrices (norm ~ 1e10) must still pass the self-check
    m = random_spd(4, RNG) * 1e10
    vals, vecs = herm_eig(m)
    assert np.all(vals > 0)


def perturb_eigh(monkeypatch, perturb, info=0):
    """Make every call of the LAPACK ``zheevd`` binding return
    ``perturb(vals, vecs)`` and ``info``."""
    orig = matcore._zheevd

    def zheevd(m, **kwargs):
        vals, vecs, _ = orig(m, **kwargs)
        return (*perturb(vals, vecs), info)

    monkeypatch.setattr(matcore, "_zheevd", zheevd)


def test_herm_eig_rejects_a_round_trip_off_budget(monkeypatch):
    m = random_spd(4, RNG)
    perturb_eigh(monkeypatch, lambda vals, vecs: (vals * (1.0 + 1e-6), vecs))
    with pytest.raises(BackendFailure, match="eigendecomposition round trip off by"):
        herm_eig(m)


def test_herm_eig_rejects_non_orthonormal_columns_alone(monkeypatch):
    # the column of the zero eigenvalue drops out of V diag(w) V^dag, so
    # stretching it leaves the round trip exact and breaks only orthonormality
    m = np.diag([0.0, 1.0, 2.0]).astype(complex)

    def stretch(vals, vecs):
        assert vals[0] == 0.0
        vecs = vecs.copy()
        vecs[:, 0] *= 1.0 + 1e-6
        return vals, vecs

    perturb_eigh(monkeypatch, stretch)
    vals, vecs = matcore.lapack_eigh(m)
    assert np.array_equal((vecs * vals) @ vecs.conj().T, m)
    with pytest.raises(BackendFailure, match="eigenvector columns not orthonormal"):
        herm_eig(m)


@pytest.mark.parametrize(
    "m",
    [
        np.diag([1e308, 1e308]),
        np.array([[1e308, 1e308], [1e308, -1e308]]),
        np.full((3, 3), 1e160),
    ],
    ids=["diagonal", "symmetric", "norm-only"],
)
def test_herm_eig_rejects_input_that_overflows_once_hermitized(m):
    # finite input whose hermitized form or norm is not: no budget can verify it
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NotHermitian, match="overflows"):
            herm_eig(m)


@pytest.mark.parametrize(
    "m, hermitized",
    [
        ([[1e308, 1e308], [1e308, -1e308]], [[1e308, 1e308], [1e308, -1e308]]),
        (np.diag([1e308, 1e308]), np.diag([1e308, 1e308])),
        ([[0.0, 1e308], [-1e308, 0.0]], np.zeros((2, 2))),
    ],
    ids=["symmetric", "diagonal", "antisymmetric"],
)
def test_overflowing_input_raises_without_warnings(m, hermitized):
    # the sum and the difference are formed from exact halves, so nothing overflows
    m = np.array(m, dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for decompose in (herm_eig, validate_density):
            with pytest.raises(NotHermitian):
                decompose(m)
        assert np.array_equal(hermitize(m), hermitized)


def test_herm_eig_rejects_a_nan_decomposition(monkeypatch):
    # NaN compares False with any budget, so each check must be written to fail on it
    m = random_spd(3, RNG)
    perturb_eigh(monkeypatch, lambda vals, vecs: (np.full_like(vals, np.nan), vecs))
    with pytest.raises(BackendFailure, match="eigendecomposition round trip off by"):
        herm_eig(m)


@pytest.mark.parametrize("info", [-1, 2])
def test_herm_eig_raises_a_nonzero_info_as_backend_failure(monkeypatch, info):
    # the eigenpairs are exact, so only info can fail the decomposition
    perturb_eigh(monkeypatch, lambda vals, vecs: (vals, vecs), info)
    m = random_spd(3, RNG)
    for decompose in (herm_eig, lambda m: matcore.lapack_eigh(m, 0)):
        with pytest.raises(BackendFailure, match=rf"^eigensolver zheevd failed \(info {info}\)$"):
            decompose(m)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 16, 32, 33, 40])
def test_lapack_eigh_returns_what_numpy_returns_bit_for_bit(n):
    # same LAPACK routine, triangle and blocking as np.linalg.eigh and eigvalsh
    rng = np.random.default_rng(2000 + n)
    for m in (random_spd(n, rng), random_hermitian(n, rng)):
        vals, vecs = matcore.lapack_eigh(m)
        ref_vals, ref_vecs = np.linalg.eigh(m)
        assert np.array_equal(vals, ref_vals) and np.array_equal(vecs, ref_vecs)
        assert np.array_equal(matcore.lapack_eigh(m, 0)[0], np.linalg.eigvalsh(m))
    assert herm_eig(random_spd(n, rng)).eigenvectors.flags.c_contiguous


def test_spectral_fn_matches_scalar_on_diagonals():
    d = np.diag([0.5, 1.0, 2.0])
    out = spectral_fn(d, np.log, 0.0)
    assert np.allclose(np.diag(out), [np.log(0.5), 0.0, np.log(2.0)], atol=1e-14)
    assert np.allclose(out, np.diag(np.diag(out)), atol=1e-14)


def test_spectral_fn_commutes_with_conjugation():
    for _ in range(10):
        m = random_spd(3, RNG)
        vals, vecs = herm_eig(m)
        direct = spectral_fn(m, np.sqrt, 0.0)
        rebuilt = (vecs * np.sqrt(vals)) @ vecs.conj().T
        assert np.allclose(direct, rebuilt, atol=1e-10)


def test_spectral_fn_domain_violation():
    m = np.diag([1.0, -0.5])
    with pytest.raises(DomainViolation):
        spectral_fn(m, np.log, 0.0)


def test_spectral_fn_rejects_non_finite_values():
    # log explodes on an exact zero eigenvalue even with domain_min below it
    m = np.diag([1.0, 0.0])
    with pytest.raises(DomainViolation):
        spectral_fn(m, np.log, -1.0)


def test_spectral_fn_reciprocal_round_trip():
    for _ in range(20):
        m = random_spd(3, RNG)
        inv = spectral_fn(m, np.reciprocal, DEFAULT_TOLS.eps_faithful)
        assert np.allclose(inv @ m, np.eye(3), atol=1e-9)


def test_tolerance_overrides_flow_through():
    loose = Tolerances(tol_herm=1.0)
    m = np.array([[1.0, 0.1], [0.0, 1.0]], dtype=complex)
    # defect 0.1 passes with the loose bound and is symmetrized away
    vals, vecs = herm_eig(m, loose)
    assert np.isfinite(vals).all()
    with pytest.raises(NotHermitian):
        herm_eig(m)


def random_spd_stack(count, n, rng):
    return np.stack([random_spd(n, rng) for _ in range(count)])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 16, 32])
def test_herm_eig_stack_matches_herm_eig_bit_for_bit(n):
    rng = np.random.default_rng(1000 + n)
    mats = np.concatenate([random_spd_stack(6, n, rng), [random_hermitian(n, rng)]])
    vals, vecs = herm_eig_stack(mats)
    assert vals.shape == (7, n) and vecs.shape == (7, n, n)
    for m, w, v in zip(mats, vals, vecs):
        ref_w, ref_v = herm_eig(m)
        assert np.array_equal(w, ref_w)
        assert np.array_equal(v, ref_v)


def test_stacked_apply_and_hermitize_match_the_matrix_forms():
    mats = random_spd_stack(5, 4, np.random.default_rng(7))
    stacked = herm_eig_stack(mats)
    assert np.array_equal(hermitize(mats), np.stack([hermitize(m) for m in mats]))
    eps = DEFAULT_TOLS.eps_faithful
    for f in (np.sqrt, np.log, np.reciprocal, lambda x: x ** -0.5):
        expected = np.stack([herm_eig(m).apply(f, eps) for m in mats])
        assert np.allclose(stacked.apply(f, eps), expected, rtol=0, atol=1e-13)


def test_herm_eig_stack_rejects_a_non_stack():
    with pytest.raises(NotHermitian, match="stack of square matrices"):
        herm_eig_stack(np.eye(3))
    with pytest.raises(NotHermitian, match="stack of square matrices"):
        herm_eig_stack(np.ones((2, 3, 4)))


def corrupt(mats, index, value):
    bad = mats.copy()
    bad[index] = value
    return bad


@pytest.mark.parametrize("entry", [np.nan, np.inf])
def test_herm_eig_stack_names_the_first_non_finite_matrix(entry):
    mats = random_spd_stack(4, 3, np.random.default_rng(11))
    bad = mats.copy()
    bad[2, 0, 1] = entry
    bad[3, 1, 1] = entry
    with pytest.raises(NotHermitian, match=r"^matrix 2 of 4: matrix contains non-finite"):
        herm_eig_stack(bad)


def test_herm_eig_stack_names_the_non_hermitian_matrix():
    mats = random_spd_stack(4, 3, np.random.default_rng(12))
    mats[1, 0, 2] += 1e-6
    with pytest.raises(NotHermitian, match=r"^matrix 1 of 4: max \|M - M\^dag\| entry 1\.000e-06"):
        herm_eig_stack(mats)


def test_herm_eig_stack_names_the_matrix_that_overflows_once_hermitized():
    mats = corrupt(random_spd_stack(3, 2, np.random.default_rng(13)), 2, np.diag([1e308, 1e308]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotHermitian, match=r"^matrix 2 of 3: matrix norm overflows"):
            herm_eig_stack(mats)


def perturb_member(monkeypatch, index, perturb):
    """Make ``np.linalg.eigh`` return ``perturb(vals, vecs)`` for one matrix of a stack."""
    orig = np.linalg.eigh

    def eigh(m):
        vals, vecs = orig(m)
        vals, vecs = vals.copy(), vecs.copy()
        vals[index], vecs[index] = perturb(vals[index], vecs[index])
        return vals, vecs

    monkeypatch.setattr(np.linalg, "eigh", eigh)


def test_herm_eig_stack_names_the_matrix_with_a_round_trip_off_budget(monkeypatch):
    mats = random_spd_stack(5, 4, np.random.default_rng(14))
    perturb_member(monkeypatch, 3, lambda vals, vecs: (vals * (1.0 + 1e-6), vecs))
    with pytest.raises(BackendFailure, match="^matrix 3 of 5: eigendecomposition round trip off by"):
        herm_eig_stack(mats)


def test_herm_eig_stack_names_a_nan_decomposition(monkeypatch):
    mats = random_spd_stack(3, 3, np.random.default_rng(15))
    perturb_member(monkeypatch, 0, lambda vals, vecs: (np.full_like(vals, np.nan), vecs))
    with pytest.raises(BackendFailure, match="^matrix 0 of 3: eigendecomposition round trip off by"):
        herm_eig_stack(mats)


def test_herm_eig_stack_names_the_matrix_with_non_orthonormal_columns(monkeypatch):
    # as for herm_eig: stretching the zero eigenvalue's column breaks only orthonormality
    mats = corrupt(random_spd_stack(4, 3, np.random.default_rng(16)), 1, np.diag([0.0, 1.0, 2.0]))

    def stretch(vals, vecs):
        assert vals[0] == 0.0
        vecs[:, 0] *= 1.0 + 1e-6
        return vals, vecs

    perturb_member(monkeypatch, 1, stretch)
    with pytest.raises(BackendFailure, match=r"^matrix 1 of 4: eigenvector columns not orthonormal"):
        herm_eig_stack(mats)


@pytest.mark.parametrize("entry", [herm_eig, validate_density])
def test_a_zero_by_zero_matrix_is_not_a_square_matrix(entry):
    with pytest.raises(NotHermitian, match=r"expected a square matrix with d >= 1, got shape \(0, 0\)"):
        entry(np.zeros((0, 0)))


def test_herm_eig_stack_rejects_a_stack_of_zero_by_zero_matrices():
    with pytest.raises(NotHermitian, match=r"stack of square matrices with d >= 1, got shape \(3, 0, 0\)"):
        herm_eig_stack(np.zeros((3, 0, 0)))


def test_herm_eig_stack_names_matrix_0_before_a_later_non_finite_one():
    # each check runs over the whole stack; the first failing matrix is named
    mats = random_spd_stack(2, 3, np.random.default_rng(17))
    mats[0, 0, 1] += 1e-6
    mats[1, 2, 2] = np.nan
    with pytest.raises(NotHermitian, match=r"^matrix 0 of 2: max \|M - M\^dag\| entry 1\.000e-06"):
        herm_eig_stack(mats)


def test_herm_eig_stack_names_a_round_trip_failure_before_a_later_non_finite_matrix(monkeypatch):
    mats = random_spd_stack(2, 3, np.random.default_rng(18))
    mats[1, 0, 0] = np.nan
    perturb_member(monkeypatch, 0, lambda vals, vecs: (vals * (1.0 + 1e-6), vecs))
    with pytest.raises(BackendFailure, match="^matrix 0 of 2: eigendecomposition round trip off by"):
        herm_eig_stack(mats)


def spectral_sum_cases(dim, rng):
    """(M, A) pairs as the divergences meet them, with A a state: a state's
    spectrum against another state, and the max-f core sigma^-1/2 rho sigma^-1/2
    against sigma."""
    rho, sigma = (validate_density(m / np.trace(m).real) for m in random_spd_stack(2, dim, rng))
    inv_sqrt_s = sigma.eig.apply(lambda x: x ** -0.5, DEFAULT_TOLS.eps_faithful)
    core = hermitize(inv_sqrt_s @ rho.matrix @ inv_sqrt_s)
    return [(sigma.matrix, rho), (core, sigma)]


SCALAR_FUNCTIONS = {"log": np.log, **{name: g.f for name, g in GENERATORS.items()}}


def spectral_sum(decomposition, a, f):
    """Re Tr[A f(M)], the trace of f(M) with A, as the divergences take it:
    sum_i f(w_i) <v_i|A|v_i>, with f on M's spectrum (``mapped``) and the
    weights the ``populations`` of A's spectrum ``a`` in M's eigenbasis."""
    u = a.eigenvectors.conj().swapaxes(-1, -2) @ decomposition.eigenvectors
    weights = populations(a.eigenvalues, u)
    return (decomposition.mapped(f, DEFAULT_TOLS.eps_faithful) * weights).sum(-1)


@pytest.mark.parametrize("name", sorted(SCALAR_FUNCTIONS))
@pytest.mark.parametrize("dim", [2, 3, 4, 8, 32])
def test_spectral_sum_is_the_trace_of_the_matrix_function(dim, name):
    f = SCALAR_FUNCTIONS[name]
    eps = DEFAULT_TOLS.eps_faithful
    for m, a in spectral_sum_cases(dim, np.random.default_rng(100 + dim)):
        decomposition = herm_eig(m)
        expected = float(np.trace(a.matrix @ decomposition.apply(f, eps)).real)
        got = float(spectral_sum(decomposition, a.eig, f))
        assert abs(got - expected) <= 1e-13 * max(1.0, abs(expected))


@pytest.mark.parametrize("dim", [2, 8, 32])
def test_stacked_spectral_sum_equals_its_members_bit_for_bit(dim):
    # the stacked BS values of a contraction scan are these sums over a stack
    rng = np.random.default_rng(200 + dim)
    mats = random_spd_stack(6, dim, rng)
    others = np.stack([random_hermitian(dim, rng) for _ in mats])
    got = spectral_sum(herm_eig_stack(mats), herm_eig_stack(others), np.log)
    assert got.shape == (6,)
    for m, a, value in zip(mats, others, got):
        assert value == spectral_sum(herm_eig(m), herm_eig(a), np.log)


def domain_error(decomposition, f, domain_min):
    """The message ``apply`` raises."""
    with pytest.raises(DomainViolation) as info:
        decomposition.apply(f, domain_min)
    return str(info.value)


def test_apply_names_the_domain_violation():
    below = herm_eig(np.diag([-0.5, 0.25, 1.0]))
    message = domain_error(below, np.log, DEFAULT_TOLS.eps_faithful)
    assert message == "eigenvalue -5.000000e-01 lies below the domain minimum 1.000000e-12"
    pole = herm_eig(np.diag([1.0, 2.0, 3.0]))
    message = domain_error(pole, lambda x: 1.0 / (x - 2.0), 0.0)
    assert message == "scalar function returned a non-finite value on the spectrum"


def test_a_stack_reports_its_least_eigenvalue_below_the_domain():
    diagonals = ([0.5, 1.0], [-2.0, 1.0], [-0.5, 3.0])
    stack = herm_eig_stack(np.stack([np.diag(v) for v in diagonals]))
    message = domain_error(stack, np.log, 0.0)
    assert message == "eigenvalue -2.000000e+00 lies below the domain minimum 0.000000e+00"
