import numpy as np
import pytest

from qunravel import (
    PureState,
    RngStream,
    basis_match,
    cb_measures,
    common_basis,
    dual_consistency,
    fubini_study,
    kl_divergence,
    realize,
    sample_faithful,
    spectral_fn,
    trace_distance,
    validate_density,
)
from qunravel.errors import DimMismatch, NotFaithful
from qunravel.matcore import DEFAULT_TOLS, Tolerances

KL_34_12 = 0.13081203594113697


def reconstruct(cb):
    psis = np.stack([p.amplitudes for p in cb.basis], axis=1)
    rho = (psis * cb.rho_coeffs) @ psis.conj().T
    sigma = (psis * cb.sigma_coeffs) @ psis.conj().T
    return rho, sigma


def test_rejects_dim_mismatch_and_rank_deficiency():
    rng = RngStream(41)
    rho = sample_faithful(2, rng)
    with pytest.raises(DimMismatch):
        common_basis(rho, sample_faithful(3, rng))
    singular = validate_density(np.diag([1.0, 0.0]))
    with pytest.raises(NotFaithful):
        common_basis(rho, singular)
    with pytest.raises(NotFaithful):
        common_basis(singular, rho)


@pytest.mark.parametrize(
    "call",
    [
        lambda cb2, cb3, rho3: dual_consistency(cb2, rho3),
        lambda cb2, cb3, rho3: basis_match(cb2, cb3),
    ],
    ids=["dual-consistency", "basis-match"],
)
def test_basis_diagnostics_reject_dim_mismatch(call):
    rng = RngStream(42)
    cb2 = common_basis(sample_faithful(2, rng), sample_faithful(2, rng))
    rho3 = sample_faithful(3, rng)
    cb3 = common_basis(rho3, sample_faithful(3, rng))
    with pytest.raises(DimMismatch, match="dimensions differ: 2 vs 3"):
        call(cb2, cb3, rho3)


def test_identical_inputs_give_equal_coefficients():
    rng = RngStream(42)
    for dim in (2, 3, 4):
        rho = sample_faithful(dim, rng)
        cb = common_basis(rho, rho)
        assert np.abs(cb.rho_coeffs - cb.sigma_coeffs).max() < 1e-9
        assert np.abs(cb.eigenvalues - 1.0).max() < 1e-9
        mu, nu = cb_measures(cb)
        assert kl_divergence(mu, nu) < 1e-12


def test_commuting_pair_reduces_to_shared_eigenbasis():
    rho = validate_density(np.diag([0.75, 0.25]))
    sigma = validate_density(np.diag([0.5, 0.5]))
    cb = common_basis(rho, sigma)
    # basis is the computational one up to phase; ascending eigenvalue order
    # puts the kappa = 2/3 ray (the rho-heavy one) first
    for p in cb.basis:
        assert np.abs(p.amplitudes).max() > 1.0 - 1e-9
    assert np.allclose(cb.rho_coeffs, [0.75, 0.25], atol=1e-9)
    assert np.allclose(cb.sigma_coeffs, [0.5, 0.5], atol=1e-9)
    assert np.allclose(cb.eigenvalues, [2.0 / 3.0, 2.0], atol=1e-9)
    mu, nu = cb_measures(cb)
    assert kl_divergence(mu, nu) == pytest.approx(KL_34_12, abs=1e-12)


def test_non_commuting_pair_gives_non_orthogonal_basis():
    sz = np.diag([1.0, -1.0])
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    rho = validate_density((np.eye(2) + 0.5 * sz) / 2)
    sigma = validate_density((np.eye(2) + 0.5 * sx) / 2)
    cb = common_basis(rho, sigma)
    overlap = abs(np.vdot(cb.basis[0].amplitudes, cb.basis[1].amplitudes))
    assert overlap > 0.01
    rec_rho, rec_sigma = reconstruct(cb)
    assert np.abs(rec_rho - rho.matrix).max() < 1e-10
    assert np.abs(rec_sigma - sigma.matrix).max() < 1e-10


def test_reconstruction_over_random_pairs():
    rng = RngStream(43)
    for dim in (2, 3, 4, 8):
        for _ in range(25):
            rho = sample_faithful(dim, rng)
            sigma = sample_faithful(dim, rng)
            cb = common_basis(rho, sigma)
            rec_rho, rec_sigma = reconstruct(cb)
            assert trace_distance(validate_density(rec_rho), rho) < 1e-9
            assert trace_distance(validate_density(rec_sigma), sigma) < 1e-9


def test_weights_are_probability_vectors():
    rng = RngStream(44)
    for _ in range(20):
        cb = common_basis(sample_faithful(4, rng), sample_faithful(4, rng))
        for w in (cb.rho_coeffs, cb.sigma_coeffs):
            assert w.min() > -1e-9
            assert w.max() < 1.0 + 1e-9
            assert w.sum() == pytest.approx(1.0, abs=1e-9)


def test_eigenvalue_bookkeeping():
    # sigma_i / rho_i reproduces the similarity spectrum
    rng = RngStream(45)
    for _ in range(20):
        cb = common_basis(sample_faithful(3, rng), sample_faithful(3, rng))
        ratio = cb.sigma_coeffs / cb.rho_coeffs
        assert np.abs(ratio * (1.0 / cb.eigenvalues) - 1.0).max() < 1e-9
        assert np.all(np.diff(cb.eigenvalues) >= -1e-12)


def test_biorthogonality_of_dual_family():
    rng = RngStream(46)
    for dim in (2, 4, 8):
        cb = common_basis(sample_faithful(dim, rng), sample_faithful(dim, rng))
        psis = np.stack([p.amplitudes for p in cb.basis], axis=1)
        gram = psis.conj().T @ cb.dual
        assert np.abs(gram - np.eye(dim)).max() < 1e-9


def test_dual_consistency_resolves_the_inverse():
    rng = RngStream(47)
    for dim in (2, 3, 4, 8):
        rho = sample_faithful(dim, rng)
        sigma = sample_faithful(dim, rng)
        cb = common_basis(rho, sigma)
        assert dual_consistency(cb, rho) < 1e-8 * dim


def test_dual_consistency_orthonormal_case():
    rho = validate_density(np.diag([0.75, 0.25]))
    sigma = validate_density(np.diag([0.5, 0.5]))
    cb = common_basis(rho, sigma)
    assert dual_consistency(cb, rho) < 1e-12
    # for the commuting pair the dual equals the basis scaled by 1/weight
    inv = spectral_fn(rho.matrix, np.reciprocal, DEFAULT_TOLS.eps_faithful)
    approx = (cb.dual / cb.rho_coeffs) @ cb.dual.conj().T
    assert np.abs(approx - inv).max() < 1e-12


def test_gram_matrix_full_rank():
    rng = RngStream(48)
    for _ in range(20):
        cb = common_basis(sample_faithful(4, rng), sample_faithful(4, rng))
        psis = np.stack([p.amplitudes for p in cb.basis], axis=1)
        gram = psis.conj().T @ psis
        assert abs(np.linalg.det(gram)) > 1e-12


def test_cb_measures_share_atoms_and_reconstruct():
    rng = RngStream(49)
    rho = sample_faithful(3, rng)
    sigma = sample_faithful(3, rng)
    cb = common_basis(rho, sigma)
    mu, nu = cb_measures(cb)
    assert mu.amps is nu.amps
    assert trace_distance(realize(mu), rho) < 1e-9
    assert trace_distance(realize(nu), sigma) < 1e-9


def test_basis_match_identity_and_reversal():
    rng = RngStream(50)
    rho = sample_faithful(3, rng)
    sigma = sample_faithful(3, rng)
    cb = common_basis(rho, sigma)
    assert basis_match(cb, cb) == [0, 1, 2]
    # swapping the roles reverses the ascending eigenvalue order
    swapped = common_basis(sigma, rho)
    perm = basis_match(cb, swapped)
    assert perm is not None
    assert sorted(perm) == [0, 1, 2]
    for i, j in enumerate(perm):
        assert fubini_study(cb.basis[i], swapped.basis[j]) < 1e-8


def test_swapped_roles_reverse_the_spectrum():
    rng = RngStream(51)
    rho = sample_faithful(2, rng)
    sigma = sample_faithful(2, rng)
    cb = common_basis(rho, sigma)
    assert np.diff(cb.eigenvalues).min() > 1e-6  # uniqueness needs a simple spectrum
    swapped = common_basis(sigma, rho)
    assert basis_match(cb, swapped) == [1, 0]
    assert np.abs(np.sort(1.0 / cb.eigenvalues) - swapped.eigenvalues).max() < 1e-8


def test_unitary_covariance():
    rng = RngStream(52)
    for _ in range(10):
        rho = sample_faithful(3, rng)
        sigma = sample_faithful(3, rng)
        cb = common_basis(rho, sigma)
        if np.diff(cb.eigenvalues).min() < 1e-6:
            continue
        g = rng.complex_normal((3, 3))
        u, _ = np.linalg.qr(g)
        rho_u = validate_density(u @ rho.matrix @ u.conj().T)
        sigma_u = validate_density(u @ sigma.matrix @ u.conj().T)
        cb_u = common_basis(rho_u, sigma_u)
        # each rotated basis ray appears in the covariant construction
        for p in cb.basis:
            vec = u @ p.amplitudes
            rotated = PureState(vec / np.linalg.norm(vec))
            assert min(fubini_study(rotated, q) for q in cb_u.basis) < 1e-7


def test_basis_match_returns_none_for_unrelated_bases():
    rng = RngStream(53)
    cb1 = common_basis(sample_faithful(2, rng), sample_faithful(2, rng))
    cb2 = common_basis(sample_faithful(2, rng), sample_faithful(2, rng))
    perm = basis_match(cb1, cb2)
    if perm is not None:  # unrelated random rays almost surely fail the 1e-8 gate
        for i, j in enumerate(perm):
            assert fubini_study(cb1.basis[i], cb2.basis[j]) <= 1e-8


def test_repeat_call_shares_one_read_only_basis():
    rng = RngStream(48)
    rho, sigma = sample_faithful(3, rng), sample_faithful(3, rng)
    cb = common_basis(rho, sigma)
    assert common_basis(rho, sigma) is cb
    assert common_basis(rho, sigma, DEFAULT_TOLS) is cb
    for arr in (cb.psis, cb.dual, cb.rho_coeffs, cb.sigma_coeffs, cb.eigenvalues):
        with pytest.raises(ValueError):
            arr[0] = 0.5


def test_basis_is_rebuilt_for_another_pair_or_tolerance():
    rng = RngStream(49)
    rho, sigma = sample_faithful(3, rng), sample_faithful(3, rng)
    twin = validate_density(rho.matrix)
    for args in ((rho, sigma, Tolerances(tol_recon=2e-10)), (sigma, rho), (twin, sigma)):
        cb = common_basis(rho, sigma)
        other = common_basis(*args)
        assert other is not cb
        if args[0] is sigma:
            assert np.allclose(np.sort(other.eigenvalues), np.sort(1.0 / cb.eigenvalues))
        else:
            assert np.array_equal(other.psis, cb.psis)
