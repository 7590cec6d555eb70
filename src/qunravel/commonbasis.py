"""Common basis of two faithful states.

Any pair of faithful density matrices (rho, sigma) can be written as convex
mixtures over one shared, generally non-orthogonal family of pure states:

    rho   = sum_i rho_i |psi_i><psi_i|,
    sigma = sum_i sigma_i |psi_i><psi_i|,

with probability vectors (rho_i) and (sigma_i). The family is obtained from
the Hermitian similarity transform of sigma by rho:

    A = rho^{-1/2} sigma rho^{-1/2} = sum_i kappa_i |y_i><y_i|,

with orthonormal y_i. Setting u_i = rho^{-1/2} y_i and psi_i proportional to
rho u_i yields the basis; the u_i themselves, rescaled to biorthogonality
<psi_i|dual_j> = delta_ij, are the dual family. The weight ratios reproduce
the spectrum: sigma_i / rho_i = kappa_i. Working with the Hermitian A rather
than the similar non-Hermitian rho^{-1} sigma keeps the eigenproblem
well-behaved and makes the rho-orthogonality <u_i|rho|u_j> = delta_ij
automatic, degenerate eigenvalues included.

No rho^{-1/2} is formed: in rho's eigenbasis A = C^dag C, with
C = W_sigma^{1/2} V_sigma^dag V_rho W_rho^{-1/2} from the states' verified
spectra, and the quadratic forms are squared column norms of y, C y and
W_rho^{1/2} y. The basis is kept as one d x d matrix ``psis`` whose columns
are the psi_i, next to the dual matrix and the two weight vectors; ``basis``
rebuilds the ``PureState`` objects for API callers. One pair of state
objects has one basis, built once (see ``entropy``).

When the spectrum of A is simple the basis is unique up to permutation and
phase, which ``basis_match`` recovers; with degeneracies the construction is
still deterministic but depends on the eigensolver's choice inside each
eigenspace.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .ensembles import DiscreteEnsemble, _greedy_plan
from .errors import BackendFailure, DimMismatch
from .matcore import DEFAULT_TOLS, Tolerances, herm_eig, hermitize, lapack_eigh, populations
from .states import DensityMatrix, PureState, canonical_rows, check_pair, fs_angles

__all__ = [
    "CommonBasis",
    "common_basis",
    "dual_consistency",
    "cb_measures",
    "basis_match",
]

WEIGHT_CLAMP = 1e-14
MATCH_TOL = 1e-8


@dataclass(frozen=True)
class CommonBasis:
    """Shared basis of a faithful pair, with weights and diagnostics.

    ``psis`` holds the unit vectors psi_i as columns, ``dual`` their
    unnormalized dual vectors as columns (biorthogonal:
    <psi_i|dual_j> = delta_ij), and ``eigenvalues`` the ascending spectrum
    kappa_i of rho^{-1/2} sigma rho^{-1/2}, aligned with the basis order so
    that sigma_i / rho_i = kappa_i.
    """

    psis: np.ndarray
    dual: np.ndarray
    rho_coeffs: np.ndarray
    sigma_coeffs: np.ndarray
    eigenvalues: np.ndarray

    @property
    def dim(self) -> int:
        return self.psis.shape[0]

    @property
    def basis(self) -> tuple[PureState, ...]:
        """The columns of ``psis`` as pure states."""
        return tuple(PureState(p) for p in self.psis.T)


def common_basis(
    rho: DensityMatrix, sigma: DensityMatrix, tols: Tolerances = DEFAULT_TOLS
) -> CommonBasis:
    """Construct the common basis of two faithful states.

    Raises ``DimMismatch`` on size disagreement and ``NotFaithful`` when
    either input is rank-deficient. The returned object is self-checked:
    biorthogonality, weight normalization, and basis non-degeneracy are
    verified before it leaves this function. A repeat call on the same two
    state objects with equal tolerances returns the same object, whose
    arrays are read-only.
    """
    return _common_basis(rho, sigma, tols)


@functools.lru_cache(maxsize=1)
def _common_basis(rho: DensityMatrix, sigma: DensityMatrix, tols: Tolerances) -> CommonBasis:
    check_pair(rho, sigma, tols)
    (w, v), c = rho.eig, sigma.eig.overlap(rho.eig, -0.5)
    kappa, y = herm_eig(hermitize(c.conj().T @ c), tols)  # A in rho's eigenbasis

    # there u_i = W^{-1/2} y_i, rho-orthonormal by construction, and rho u_i = W^{1/2} y_i
    cy = c @ y
    norms2 = populations(w, y)
    uru = np.einsum("ij,ij->j", y.conj(), y).real
    usu = np.einsum("ij,ij->j", cy.conj(), cy).real

    norms = np.sqrt(norms2)
    sw = np.sqrt(w)[:, None]
    psis = v @ (sw * y) / norms
    rho_coeffs = norms2 / uru
    sigma_coeffs = rho_coeffs * usu / uru
    dual = v @ (y / sw) * (norms / uru)

    cb = CommonBasis(
        psis=psis,
        dual=dual,
        rho_coeffs=rho_coeffs,
        sigma_coeffs=sigma_coeffs,
        eigenvalues=kappa,
    )
    _self_check(cb)
    for arr in (psis, dual, rho_coeffs, sigma_coeffs, kappa):
        arr.flags.writeable = False
    return cb


def _self_check(cb: CommonBasis) -> None:
    psis = cb.psis
    bio = psis.conj().T @ cb.dual
    bio_err = float(np.abs(bio - np.eye(cb.dim)).max())
    if not bio_err <= 1e-9:  # a NaN defect fails here too
        raise BackendFailure(f"dual basis not biorthogonal (defect {bio_err:.3e})")
    for label, w in (("rho", cb.rho_coeffs), ("sigma", cb.sigma_coeffs)):
        if w.min() < -1e-9 or abs(w.sum() - 1.0) > 1e-9:
            raise BackendFailure(
                f"{label} weights invalid (min {w.min():.3e}, sum {w.sum()!r})"
            )
    gram = psis.conj().T @ psis
    gram_min = float(lapack_eigh(gram, 0)[0][0])
    if gram_min <= 1e-14:
        raise BackendFailure(f"basis Gram matrix is rank-deficient ({gram_min:.3e})")


def dual_consistency(
    cb: CommonBasis, rho: DensityMatrix, tols: Tolerances = DEFAULT_TOLS
) -> float:
    """Frobenius error of rho^{-1} = sum_i (1/rho_i) |dual_i><dual_i|.

    A small value certifies that the dual family and the weights fit together
    as the inverse-state resolution; the caller compares it against 1e-8 * n.
    """
    if cb.dim != rho.dim:
        raise DimMismatch(f"dimensions differ: {cb.dim} vs {rho.dim}")
    inv = rho.eig.apply(np.reciprocal, tols.eps_faithful)
    approx = (cb.dual / cb.rho_coeffs) @ cb.dual.conj().T
    return float(np.linalg.norm(approx - inv))


def clamp_weights(w: np.ndarray) -> np.ndarray:
    """Common-basis weights clamped up to ``WEIGHT_CLAMP`` and renormalized,
    so a measure built on them stays strictly positive for divergence work."""
    w = np.maximum(w, WEIGHT_CLAMP)
    return w / w.sum()


def cb_measures(cb: CommonBasis) -> tuple[DiscreteEnsemble, DiscreteEnsemble]:
    """The two classical measures carried by the common basis.

    Both ensembles share one amplitude array (the phase-canonicalized basis
    states as rows) and carry the ``clamp_weights`` of their coefficients.
    """
    mu = DiscreteEnsemble(canonical_rows(cb.psis.T), clamp_weights(cb.rho_coeffs))
    nu = DiscreteEnsemble._distinct(mu.amps, clamp_weights(cb.sigma_coeffs))
    return mu, nu


def basis_match(a: CommonBasis, b: CommonBasis) -> Optional[list[int]]:
    """Permutation pi with b.basis[pi[i]] ~ a.basis[i], or None.

    Greedy assignment on the pairwise Fubini-Study table: repeatedly pair the
    globally closest unmatched rays, which is the walk of ``greedy_coupling``
    with unit masses. Succeeds only if every matched pair ends up within
    1e-8; with a simple spectrum this recovers the uniqueness of the basis up
    to permutation and phase.
    """
    if a.dim != b.dim:
        raise DimMismatch(f"dimensions differ: {a.dim} vs {b.dim}")
    table = fs_angles(a.psis.T[:, None], b.psis.T[None])
    plan = _greedy_plan(table, [1.0] * a.dim, [1.0] * b.dim)
    if any(table[i, j] > MATCH_TOL for i, j, _ in plan):
        return None
    return [j for _, j, _ in sorted(plan)]
