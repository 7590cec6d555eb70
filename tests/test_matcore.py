import warnings

import numpy as np
import pytest

from qunravel import (
    DEFAULT_TOLS,
    herm_eig,
    herm_inv,
    herm_log,
    herm_sqrt,
    hermitize,
    spectral_fn,
    validate_density,
)
from qunravel.errors import BackendFailure, DomainViolation, NotHermitian
from qunravel.matcore import Tolerances, hermiticity_defect

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


def perturb_eigh(monkeypatch, perturb):
    """Make every ``np.linalg.eigh`` call return ``perturb(vals, vecs)``."""
    orig = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: perturb(*orig(m)))


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
    vals, vecs = np.linalg.eigh(m)
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


def test_herm_sqrt_squares_back():
    for _ in range(20):
        m = random_spd(4, RNG)
        r = herm_sqrt(m)
        assert np.allclose(r @ r, m, atol=1e-9 * np.linalg.norm(m))
        assert np.all(np.linalg.eigvalsh(r) >= -1e-12)


def test_herm_sqrt_clips_tiny_negative_eigenvalues():
    m = np.diag([1.0, -1e-13])
    r = herm_sqrt(m)
    assert r[1, 1] == pytest.approx(0.0, abs=1e-12)


def test_herm_log_inverts_exp():
    vals = np.array([0.2, 1.0, 3.0])
    m = np.diag(vals)
    assert np.allclose(np.diag(herm_log(m)), np.log(vals), atol=1e-13)


def test_herm_log_rejects_singular():
    with pytest.raises(DomainViolation):
        herm_log(np.diag([1.0, 0.0]))


def test_herm_inv_round_trip():
    for _ in range(20):
        m = random_spd(3, RNG)
        inv = herm_inv(m)
        assert np.allclose(inv @ m, np.eye(3), atol=1e-9)


def test_tolerance_overrides_flow_through():
    loose = Tolerances(tol_herm=1.0)
    m = np.array([[1.0, 0.1], [0.0, 1.0]], dtype=complex)
    # defect 0.1 passes with the loose bound and is symmetrized away
    vals, vecs = herm_eig(m, loose)
    assert np.isfinite(vals).all()
    with pytest.raises(NotHermitian):
        herm_eig(m)
