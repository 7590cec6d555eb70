"""Dense Hermitian matrix kernel: eigendecompositions and spectral functions.

All matrix analysis used downstream (entropies, basis construction, flows)
funnels through this module, so numerical tolerances live in one place and
every decomposition is checked before anything is built on top of it.
Matrices are plain complex ``numpy`` arrays; dimensions stay small (tens,
not thousands), which keeps full dense eigensolves cheap enough to verify
on every call.

A verified ``SpectralDecomposition`` maps its own spectrum through scalar
functions, so one decomposition serves every function of a matrix (see
``entropy`` for what is shared). The matrix entry points (``spectral_fn``,
``herm_sqrt``, ...) decompose afresh.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import BackendFailure, DomainViolation, NotHermitian

__all__ = [
    "Tolerances",
    "DEFAULT_TOLS",
    "SpectralDecomposition",
    "hermitize",
    "hermiticity_defect",
    "herm_eig",
    "spectral_fn",
    "herm_sqrt",
    "herm_log",
    "herm_inv",
]


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances shared by validation and spectral routines.

    Attributes
    ----------
    tol_herm : float
        Max-entry bound on ``|M - M^dag|`` for Hermiticity checks.
    tol_recon : float
        Per-dimension Frobenius budget for eigendecomposition round trips.
    eps_faithful : float
        Eigenvalue floor below which a state counts as rank-deficient.
    """

    tol_herm: float = 1e-10
    tol_recon: float = 1e-10
    eps_faithful: float = 1e-12


DEFAULT_TOLS = Tolerances()


class SpectralDecomposition(NamedTuple):
    """Verified eigendecomposition, as returned by ``herm_eig``."""

    eigenvalues: np.ndarray  # real, ascending
    eigenvectors: np.ndarray  # orthonormal columns, same order

    def apply(self, f: Callable[[np.ndarray], np.ndarray], domain_min: float) -> np.ndarray:
        """``V f(diag) V^dag``, re-Hermitized, for a vectorized real f.

        An eigenvalue below ``domain_min``, or a non-finite value of f on the
        spectrum, raises ``DomainViolation`` naming the offender.
        """
        vals, vecs = self
        below = vals < domain_min
        if below.any():
            worst = float(vals[below].min())
            raise DomainViolation(
                f"eigenvalue {worst:.6e} lies below the domain minimum {domain_min:.6e}"
            )
        with np.errstate(divide="ignore", invalid="ignore"):
            fvals = np.asarray(f(vals), dtype=float)
        if not np.isfinite(fvals).all():
            raise DomainViolation("scalar function returned a non-finite value on the spectrum")
        return hermitize((vecs * fvals) @ vecs.conj().T)

    def sqrt(self, tols: Tolerances | None = None) -> np.ndarray:
        """Principal square root. Eigenvalues may sit a rounding error below zero
        (validated states allow down to ``-eps_faithful``); they clip to zero."""
        eps = (tols or DEFAULT_TOLS).eps_faithful
        return self.apply(lambda x: np.sqrt(np.clip(x, 0.0, None)), -eps)

    def log(self, tols: Tolerances | None = None) -> np.ndarray:
        """Logarithm; needs every eigenvalue above ``eps_faithful``."""
        return self.apply(np.log, (tols or DEFAULT_TOLS).eps_faithful)

    def inv(self, tols: Tolerances | None = None) -> np.ndarray:
        """Inverse; needs every eigenvalue above ``eps_faithful``. Accuracy
        degrades with the condition number, as for any floating-point inverse."""
        return self.apply(lambda x: 1.0 / x, (tols or DEFAULT_TOLS).eps_faithful)

    def inv_sqrt(self) -> np.ndarray:
        """``V diag(w)^{-1/2} V^dag`` of a positive spectrum, not re-Hermitized."""
        vals, vecs = self
        return (vecs / np.sqrt(vals)) @ vecs.conj().T


def _as_square(mat: np.ndarray) -> np.ndarray:
    m = np.asarray(mat, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotHermitian(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise NotHermitian("matrix contains non-finite entries")
    return m


def hermitize(mat: np.ndarray) -> np.ndarray:
    """Symmetrize roundoff: (M + M^dag)/2, summed as exact halves so finite M stays finite."""
    half = 0.5 * mat
    return half + half.conj().T


def hermiticity_defect(mat: np.ndarray) -> float:
    """Largest entry of |M - M^dag|."""
    m = np.asarray(mat)
    return float(np.abs(m - m.conj().T).max())


def _frobenius(a: np.ndarray) -> float:
    return math.sqrt(np.vdot(a, a).real)


def herm_eig(mat: np.ndarray, tols: Tolerances | None = None) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix, verified before returning.

    Eigenvalues come back ascending with orthonormal eigenvector columns in
    matching order. The decomposition is rejected (``BackendFailure``) if the
    round trip ``V diag(w) V^dag`` does not reproduce the input or the columns
    are not orthonormal. The round-trip budget scales with the matrix norm:
    backend accuracy is relative, and inputs here range from unit-trace states
    to their inverses. A matrix whose norm overflows double precision once
    hermitized cannot be verified and fails as ``NotHermitian``.
    """
    tols = tols or DEFAULT_TOLS
    half = 0.5 * _as_square(mat)  # exact halves: finite input overflows nowhere below
    half_h = half.conj().T
    defect = 2.0 * float(np.abs(half - half_h).max())  # a Python float doubles to inf silently
    if defect > tols.tol_herm:
        raise NotHermitian(
            f"max |M - M^dag| entry {defect:.3e} exceeds tol_herm={tols.tol_herm:.1e}"
        )
    m = half + half_h  # hermitize(m), reusing the halves
    norm = _frobenius(m)
    if not math.isfinite(norm):
        raise NotHermitian("matrix norm overflows double precision once hermitized")
    try:
        vals, vecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - backend dependent
        raise BackendFailure(f"eigensolver did not converge: {exc}") from exc

    n = m.shape[0]
    vh = vecs.conj().T
    scale = max(1.0, norm)
    recon_err = _frobenius((vecs * vals) @ vh - m)
    if not recon_err <= tols.tol_recon * n * scale:  # a NaN defect fails here too
        raise BackendFailure(
            f"eigendecomposition round trip off by {recon_err:.3e} "
            f"(budget {tols.tol_recon * n * scale:.3e})"
        )
    gram = vh @ vecs
    gram.flat[:: n + 1] -= 1.0
    ortho_err = _frobenius(gram)
    if not ortho_err <= 1e-12 * n:
        raise BackendFailure(f"eigenvector columns not orthonormal ({ortho_err:.3e})")
    return SpectralDecomposition(vals, vecs)


def spectral_fn(
    mat: np.ndarray,
    f: Callable[[np.ndarray], np.ndarray],
    domain_min: float,
    tols: Tolerances | None = None,
) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix (within ``tol_herm``)
    through its spectrum; see ``SpectralDecomposition.apply``."""
    return herm_eig(mat, tols).apply(f, domain_min)


def herm_sqrt(mat: np.ndarray, tols: Tolerances | None = None) -> np.ndarray:
    """Principal square root of a PSD matrix; see ``SpectralDecomposition.sqrt``."""
    return herm_eig(mat, tols).sqrt(tols)


def herm_log(mat: np.ndarray, tols: Tolerances | None = None) -> np.ndarray:
    """Matrix logarithm of a strictly positive matrix."""
    return herm_eig(mat, tols).log(tols)


def herm_inv(mat: np.ndarray, tols: Tolerances | None = None) -> np.ndarray:
    """Inverse of a strictly positive matrix via its spectrum. Callers guard
    conditioning through the faithfulness floor."""
    return herm_eig(mat, tols).inv(tols)
