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
spectra, decomposed as the Gram product of C^dag (``matcore._gram_eig``),
and the quadratic forms are squared column norms of y, C y and
W_rho^{1/2} y. The basis is kept as one d x d matrix ``psis`` whose columns
are the psi_i, next to the dual matrix and the two weight vectors; ``basis``
rebuilds the ``PureState`` objects for API callers. One pair of state
objects has one basis, built once (see ``entropy``).

A basis is verified once, when it is constructed, on read-only copies of its
arrays, and keeps its clamped weights; ``cb_measures`` wraps its rows and
those weights unchecked, since the checks of ``CommonBasis`` imply every
``DiscreteEnsemble`` invariant.

When the spectrum of A is simple the basis is unique up to permutation and
phase, which ``basis_match`` recovers; with degeneracies the construction is
still deterministic but depends on the eigensolver's choice inside each
eigenspace.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .ensembles import DiscreteEnsemble, _greedy_plan
from .errors import BackendFailure, DimMismatch
from .matcore import (
    DEFAULT_TOLS, Tolerances, _gram_eig, hold, identity, lapack_eigh, populations,
)
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


@dataclass(frozen=True, eq=False)
class CommonBasis:
    """Shared basis of a faithful pair, with weights and diagnostics.

    ``psis`` holds the unit vectors psi_i as columns, ``dual`` their
    unnormalized dual vectors as columns (biorthogonal:
    <psi_i|dual_j> = delta_ij), and ``eigenvalues`` the ascending spectrum
    kappa_i of rho^{-1/2} sigma rho^{-1/2}, aligned with the basis order so
    that sigma_i / rho_i = kappa_i.

    A basis certifies itself when it is built, however it is built, and
    raises ``BackendFailure`` when a check fails (``DimMismatch`` when the
    arrays do not fit together):

    * biorthogonality of ``psis`` and ``dual`` within 1e-9;
    * both coefficient vectors nonnegative within 1e-9 and summing to 1
      within 1e-9 (a NaN fails both);
    * unit columns of ``psis``: every diagonal entry of the Gram matrix
      G = psis^dag psis within 1e-12 of 1, so each column, phase-rotated or
      not, passes ``check_unit_rows`` (norm 1 within 1e-12) with room for
      rounding;
    * the Gram floor, smallest eigenvalue of G above 1e-14. The 2 x 2
      principal submatrix of G on columns i, j has eigenvalues
      1 -+ |<psi_i|psi_j>|, and by Cauchy interlacing the smaller is at
      least the smallest eigenvalue of G. So 1 - cos(theta_ij) > 1e-14 for
      the Fubini-Study angle theta_ij of every pair of basis rays, which
      puts them at least about 1.4e-7 apart, far beyond ``TOL_MATCH`` =
      1e-10.

    These are every invariant of a ``DiscreteEnsemble`` on the basis rays,
    so ``cb_measures`` builds its two measures without checking them again.
    The basis keeps read-only copies of its five input arrays (``hold``), so
    it holds what it certified whatever the caller later does to its own.
    ``rho_weights`` and ``sigma_weights`` hold the ``clamp_weights`` of the
    two coefficient vectors, computed once here and read-only; every
    divergence on the basis reads them. So do G, as ``gram``, and its ascending
    spectrum from the Gram floor check, as ``gram_eigenvalues``.
    """

    psis: np.ndarray
    dual: np.ndarray
    rho_coeffs: np.ndarray
    sigma_coeffs: np.ndarray
    eigenvalues: np.ndarray
    rho_weights: np.ndarray = field(init=False, repr=False)
    sigma_weights: np.ndarray = field(init=False, repr=False)
    gram: np.ndarray = field(init=False, repr=False)
    gram_eigenvalues: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        names = ("psis", "dual", "rho_coeffs", "sigma_coeffs", "eigenvalues")
        hold(self, **{name: np.array(getattr(self, name)) for name in names})
        psis, d = self.psis, self.psis.shape[0]
        shapes = [a.shape for a in (psis, self.dual)]
        shapes += [v.shape for v in (self.rho_coeffs, self.sigma_coeffs, self.eigenvalues)]
        if d == 0 or shapes != [(d, d)] * 2 + [(d,)] * 3:
            raise DimMismatch(f"basis arrays do not fit one dimension: shapes {shapes}")
        bio_err = float(np.abs(psis.conj().T.dot(self.dual) - identity(d)).max())
        if not bio_err <= 1e-9:  # a NaN defect fails here too
            raise BackendFailure(f"dual basis not biorthogonal (defect {bio_err:.3e})")
        coeffs = np.array((self.rho_coeffs, self.sigma_coeffs))  # checked and clamped as one
        checks = zip(("rho", "sigma"), coeffs.min(1).tolist(), coeffs.sum(1).tolist())
        for label, lo, total in checks:
            if not (lo >= -1e-9 and abs(total - 1.0) <= 1e-9):  # NaN weights fail too
                raise BackendFailure(f"{label} weights invalid (min {lo:.3e}, sum {float(total)!r})")
        gram = psis.conj().T.dot(psis)
        unit_err = float(np.abs(gram.diagonal().real - 1.0).max())
        if not unit_err <= 1e-12:
            raise BackendFailure(f"basis columns are not unit vectors (|norm^2 - 1| {unit_err:.3e})")
        spectrum = lapack_eigh(gram, 0)[0]
        if not spectrum[0] > 1e-14:
            raise BackendFailure(f"basis Gram matrix is rank-deficient ({spectrum[0]:.3e})")
        rho_w, sigma_w = clamp_weights(coeffs)
        hold(self, rho_weights=rho_w, sigma_weights=sigma_w, gram=gram, gram_eigenvalues=spectrum)

    @property
    def dim(self) -> int:
        return self.psis.shape[0]

    @property
    def gram_condition_number(self) -> float:
        """Largest over smallest eigenvalue of the Gram matrix G."""
        return float(self.gram_eigenvalues[-1] / self.gram_eigenvalues[0])

    @property
    def basis(self) -> tuple[PureState, ...]:
        """The columns of ``psis`` as pure states, each holding its own copy."""
        return tuple(PureState(p) for p in self.psis.T)


def common_basis(
    rho: DensityMatrix, sigma: DensityMatrix, tols: Tolerances = DEFAULT_TOLS
) -> CommonBasis:
    """Construct the common basis of two faithful states.

    Raises ``DimMismatch`` on size disagreement and ``NotFaithful`` when
    either input is rank-deficient. The returned object has passed the
    checks of ``CommonBasis``. A repeat call on the same two state objects
    with equal tolerances returns the same object, whose arrays are
    read-only.
    """
    return _common_basis(rho, sigma, tols)


@functools.lru_cache(maxsize=1)
def _common_basis(rho: DensityMatrix, sigma: DensityMatrix, tols: Tolerances) -> CommonBasis:
    check_pair(rho, sigma, tols)
    (w, v), c = rho.eig, sigma.eig.overlap(rho.eig, -0.5)
    kappa, y = _gram_eig(c.conj().T, tols)  # A = C^dag C in rho's eigenbasis

    # there u_i = W^{-1/2} y_i, rho-orthonormal by construction, and rho u_i = W^{1/2} y_i
    cy = c.dot(y)
    norms2 = populations(w, y)
    uru = np.einsum("ij,ij->j", y.conj(), y).real
    usu = np.einsum("ij,ij->j", cy.conj(), cy).real

    norms = np.sqrt(norms2)
    sw = np.sqrt(w)[:, None]
    psis = v.dot(sw * y) / norms
    rho_coeffs = norms2 / uru
    sigma_coeffs = rho_coeffs * usu / uru
    dual = v.dot(y / sw) * (norms / uru)

    return CommonBasis(
        psis=psis,
        dual=dual,
        rho_coeffs=rho_coeffs,
        sigma_coeffs=sigma_coeffs,
        eigenvalues=kappa,
    )


def dual_consistency(
    cb: CommonBasis, rho: DensityMatrix, tols: Tolerances = DEFAULT_TOLS
) -> float:
    """||sum_i (1/rho_i) |dual_i><dual_i| - rho^{-1}||_F / ||rho^{-1}||_F.

    A small value certifies that the dual family and the weights fit together
    as the inverse-state resolution. Taken relative to ||rho^{-1}||_F, which
    grows as 1 / (least eigenvalue of rho), it reads at roundoff level however
    ill-conditioned rho is (4e-16 on a d = 4 pair at 1e-10).
    """
    if cb.dim != rho.dim:
        raise DimMismatch(f"dimensions differ: {cb.dim} vs {rho.dim}")
    inv = rho.eig.apply(np.reciprocal, tols.eps_faithful)
    approx = (cb.dual / cb.rho_coeffs) @ cb.dual.conj().T
    return float(np.linalg.norm(approx - inv) / np.linalg.norm(inv))


def clamp_weights(w: np.ndarray) -> np.ndarray:
    """Common-basis weights clamped up to ``WEIGHT_CLAMP`` and renormalized,
    so a measure built on them stays strictly positive for divergence work;
    of each row of a 2-D array, too."""
    w = np.maximum(w, WEIGHT_CLAMP)
    return w / w.sum(-1, keepdims=True)


def cb_measures(cb: CommonBasis) -> tuple[DiscreteEnsemble, DiscreteEnsemble]:
    """The two classical measures carried by the common basis.

    Both ensembles share one read-only, C-contiguous amplitude array that
    no caller holds (the phase-canonicalized basis states as rows) and carry
    the basis's ``rho_weights`` and ``sigma_weights``. The basis certified every
    invariant of a ``DiscreteEnsemble`` on them when it was built (see
    ``CommonBasis``), so neither measure is checked again.
    """
    amps = np.ascontiguousarray(canonical_rows(cb.psis.T), dtype=complex)
    amps.setflags(write=False)  # once for both; the basis's weights are read-only already
    return (
        DiscreteEnsemble._certified(amps, cb.rho_weights),
        DiscreteEnsemble._certified(amps, cb.sigma_weights),
    )


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
