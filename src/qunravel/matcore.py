"""Dense Hermitian matrix kernel: eigendecompositions and spectral functions.

All matrix analysis used downstream (entropies, basis construction, flows)
funnels through this module, so numerical tolerances live in one place and
every decomposition is checked before anything is built on top of it.
Matrices are plain complex ``numpy`` arrays; dimensions stay small (tens,
not thousands), which keeps full dense eigensolves cheap enough to verify
on every call.

A verified ``SpectralDecomposition`` maps its own spectrum through scalar
functions (``mapped``), so one decomposition serves every function of a
matrix, and ``overlap`` relates the eigenbases of two. f(M) is formed only
by ``apply`` on a verified spectrum or by ``spectral_fn``, which decomposes
afresh. A trace Re Tr[A f(M)] needs no f(M): it is sum_i f(w_i) <v_i|A|v_i>,
whose weights are ``populations`` when A is diagonal in a known basis.

``herm_eig`` runs its checks in two groups: before its eigensolve (square
with d >= 1, finite, Hermiticity defect, finite norm) and after it (round
trip, orthonormality). The finite and Hermiticity checks first read one
Frobenius sum each (``np.vdot``); only a sum that does not settle the bound
is followed by the exact entrywise reduction, whose verdict and message are
the check's. ``_gram_eig`` decomposes the Gram product hermitize(F F^dag) of
a pair's two cores (``entropy``, ``commonbasis``). ``hermitize`` adds each
entry to the conjugate of its mirror, and floating-point addition commutes,
so its output is exactly Hermitian, with a defect of exactly 0: ``_gram_eig``
runs every check of ``herm_eig`` but that one, and shares its eigensolve and
the checks after it (``_verified_eig``). Products of two 2-D operands on the
scalar path are ``ndarray.dot``: the same zgemm as ``@``, so the same bits,
with less dispatch at small d; stacked code keeps ``@``.

Each scalar eigensolve (``herm_eig``, ``_gram_eig``, the common basis's Gram
check, ``trace_distance``) calls ``lapack_eigh``: LAPACK
``zheevd`` on the lower triangle, as ``np.linalg.eigh`` calls it, bound
once from ``scipy.linalg.lapack`` to skip numpy's per-call wrapper.
``herm_eig_stack`` keeps numpy's batched ``eigh``, whose wrapper runs once
per stack, and returns the scalar path's eigenpairs bit for bit
(``test_herm_eig_stack_matches_herm_eig_bit_for_bit``, d = 1-32). One
vectorized pass decides every check for every matrix; ``herm_eig``'s checks
then name the first flagged matrix, prefixed with its index. ``hermitize``
and ``SpectralDecomposition`` work on a matrix and on a stack alike. A stack
of one costs about twice ``herm_eig`` at the small d where it is called most
(one BLAS thread, 2-vCPU x86 VM, best of 25 x 2000 calls at d = 2-8: 72-78 µs
against 35-42 µs; absolute times on that VM swing by up to 3x).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

import numpy as np
from scipy.linalg.lapack import zheevd as _zheevd

from .errors import BackendFailure, DomainViolation, NotHermitian

__all__ = [
    "Tolerances",
    "DEFAULT_TOLS",
    "SpectralDecomposition",
    "hermitize",
    "hermiticity_defect",
    "herm_eig",
    "herm_eig_stack",
    "spectral_fn",
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

    Every field must be finite and nonnegative, else ``ValueError`` names it:
    a NaN or infinite budget would switch its check off.
    """

    tol_herm: float = 1e-10
    tol_recon: float = 1e-10
    eps_faithful: float = 1e-12

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{f.name} must be finite and >= 0, got {value!r}")


DEFAULT_TOLS = Tolerances()


class SpectralDecomposition(NamedTuple):
    """Verified eigendecomposition, as returned by ``herm_eig``, or stacked
    ``(N, d)`` / ``(N, d, d)`` arrays of them from ``herm_eig_stack``; every
    method works on both shapes."""

    eigenvalues: np.ndarray  # real, ascending
    eigenvectors: np.ndarray  # orthonormal columns, same order

    def mapped(self, f: Callable[[np.ndarray], np.ndarray], domain_min: float) -> np.ndarray:
        """f of the spectrum, checked as ``apply`` says; the least eigenvalue is
        the first of the ascending spectrum (of each matrix of a stack)."""
        vals = self.eigenvalues
        lo = vals[0] if vals.ndim == 1 else vals[:, 0].min()
        if lo < domain_min:
            raise DomainViolation(
                f"eigenvalue {float(lo):.6e} lies below the domain minimum {domain_min:.6e}"
            )
        with np.errstate(divide="ignore", invalid="ignore"):
            fvals = np.asarray(f(vals), dtype=float)
        if not np.isfinite(fvals).all():
            raise DomainViolation("scalar function returned a non-finite value on the spectrum")
        return fvals

    def apply(self, f: Callable[[np.ndarray], np.ndarray], domain_min: float) -> np.ndarray:
        """``V f(diag) V^dag``, re-Hermitized, for a vectorized real f.

        An eigenvalue below ``domain_min``, or a non-finite value of f on the
        spectrum, raises ``DomainViolation`` naming the offender.
        """
        vecs = self.eigenvectors
        fvals = self.mapped(f, domain_min)
        return hermitize((vecs * fvals[..., None, :]) @ vecs.conj().swapaxes(-1, -2))

    def overlap(self, other: "SpectralDecomposition", p: float) -> np.ndarray:
        """W^{-p} V^dag V_other W_other^{p}, W the diagonals of two positive
        spectra: the overlap of the two eigenbases, with rows and columns scaled."""
        (w, v), (wo, vo) = self, other
        return (v.conj().swapaxes(-1, -2) @ vo) * (wo[..., None, :] / w[..., :, None]) ** p


def populations(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """sum_k p_k |U_ki|^2 for each column i: the diagonal of U^dag diag(p) U."""
    return (p[..., None, :] @ np.abs(u) ** 2)[..., 0, :]


def hermitize(mat: np.ndarray) -> np.ndarray:
    """Symmetrize roundoff: (M + M^dag)/2, summed as exact halves so finite M
    stays finite; of each matrix of a stack, too."""
    half = 0.5 * mat
    return half + half.conj().swapaxes(-1, -2)


def hermiticity_defect(mat: np.ndarray) -> float:
    """Largest entry of |M - M^dag|, taken from the exact halves so that a finite
    M overflows nowhere; inf when it exceeds double precision."""
    half = 0.5 * np.asarray(mat)
    # a Python float doubles to inf silently
    return 2.0 * float(np.abs(half - half.conj().T).max())


def hold(record, **values) -> None:
    """Set fields of a frozen checked record, each array among them or in a tuple
    field made read-only first. The arrays must be the record's own, never a caller's."""
    for name, value in values.items():
        for arr in value if isinstance(value, tuple) else (value,):
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)
        object.__setattr__(record, name, value)


@functools.lru_cache(maxsize=64)
def identity(n: int) -> np.ndarray:
    """The n x n real identity, built once per n and read-only."""
    eye = np.eye(n)
    eye.setflags(write=False)
    return eye


def _frobenius(a: np.ndarray) -> float:
    return math.sqrt(np.vdot(a, a).real)


def is_square(shape: tuple[int, ...]) -> bool:
    """Whether ``shape`` is that of a d x d matrix with d >= 1."""
    return len(shape) == 2 and shape[0] == shape[1] >= 1


def _require_finite(m: np.ndarray) -> None:
    """``NotHermitian`` unless every entry is finite. A finite sum of squares
    proves it; an infinite or NaN sum, which finite entries can give by
    overflow, is settled entry by entry."""
    if not math.isfinite(np.vdot(m, m).real) and not np.isfinite(m).all():
        raise NotHermitian("matrix contains non-finite entries")


def _finite_norm(m: np.ndarray) -> float:
    """Frobenius norm of the hermitized matrix, ``NotHermitian`` if it overflows."""
    norm = _frobenius(m)
    if not math.isfinite(norm):
        raise NotHermitian("matrix norm overflows double precision once hermitized")
    return norm


def _hermitized(mat: np.ndarray, tols: Tolerances) -> tuple[np.ndarray, float]:
    """The checks of ``herm_eig`` before ``eigh``: a square, finite matrix
    within ``tol_herm`` of Hermitian whose hermitized norm is finite. Returns
    the hermitized matrix and its Frobenius norm."""
    m = np.asarray(mat, dtype=complex)
    if not is_square(m.shape):
        raise NotHermitian(f"expected a square matrix with d >= 1, got shape {m.shape}")
    _require_finite(m)
    half = 0.5 * m
    half_h = half.conj().T
    gap = half - half_h  # (M - M^dag) / 2 from the exact halves, finite for finite M
    # ||M - M^dag||_F = 2 sqrt(sum |gap|^2) bounds every entry. Below half of
    # tol_herm, a margin for the sum's rounding and underflow, it settles the
    # bound; the test is strict, so a sum or a tol_herm**2 that overflows settles
    # nothing. Otherwise the largest entry decides, so the verdict is always its.
    tol = tols.tol_herm
    if not 16.0 * np.vdot(gap, gap).real + m.size * 2.0**-1069 < tol * tol:
        defect = 2.0 * float(np.abs(gap).max())  # a Python float doubles to inf silently
        if defect > tol:
            raise NotHermitian(f"max |M - M^dag| entry {defect:.3e} exceeds tol_herm={tol:.1e}")
    m = half + half_h  # hermitize(m), reusing the halves
    return m, _finite_norm(m)


def _check_eigenpairs(
    m: np.ndarray, norm: float, vals: np.ndarray, vecs: np.ndarray, tols: Tolerances
) -> None:
    """The checks of ``herm_eig`` after ``eigh``: round trip and orthonormality."""
    n = m.shape[0]
    vh = vecs.conj().T
    scale = max(1.0, norm)
    recon_err = _frobenius((vecs * vals).dot(vh) - m)
    if not recon_err <= tols.tol_recon * n * scale:  # a NaN defect fails here too
        raise BackendFailure(
            f"eigendecomposition round trip off by {recon_err:.3e} "
            f"(budget {tols.tol_recon * n * scale:.3e})"
        )
    ortho_err = _frobenius(vh.dot(vecs) - identity(n))
    if not ortho_err <= 1e-12 * n:
        raise BackendFailure(f"eigenvector columns not orthonormal ({ortho_err:.3e})")


def lapack_eigh(m: np.ndarray, compute_v: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Unverified eigenpairs of a Hermitian matrix: LAPACK ``zheevd`` on its lower
    triangle, called as by ``np.linalg.eigh`` (``compute_v=0``: ``eigvalsh``, whose
    blocking above d = 32 this workspace keeps). ``info != 0`` is ``BackendFailure``."""
    n = m.shape[0]
    vals, vecs, info = _zheevd(m, compute_v=compute_v, lower=1, lwork=n * (n + 2))
    if info != 0:
        raise BackendFailure(f"eigensolver zheevd failed (info {info})")
    return vals, vecs


def herm_eig(mat: np.ndarray, tols: Tolerances = DEFAULT_TOLS) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix, verified before returning.

    Eigenvalues come back ascending with orthonormal eigenvector columns in
    matching order. The input must be a finite d x d matrix, d >= 1, within
    ``tol_herm`` of Hermitian (else ``NotHermitian``). The decomposition is
    rejected (``BackendFailure``) if ``zheevd`` fails, the round trip
    ``V diag(w) V^dag`` misses the input or the columns are not orthonormal. The
    round-trip budget scales with the matrix norm: backend accuracy is
    relative, and inputs here range from unit-trace states to their inverses.
    A matrix whose norm overflows double precision once hermitized cannot be
    verified and fails as ``NotHermitian``.
    """
    return _verified_eig(*_hermitized(mat, tols), tols)


def _verified_eig(m: np.ndarray, norm: float, tols: Tolerances) -> SpectralDecomposition:
    """The eigensolve of ``herm_eig`` and ``_gram_eig`` on an exactly Hermitian
    ``m`` of Frobenius norm ``norm``, with the checks after it."""
    vals, vecs = lapack_eigh(m)
    vecs = np.ascontiguousarray(vecs)
    _check_eigenpairs(m, norm, vals, vecs, tols)
    return SpectralDecomposition(vals, vecs)


# ||F||_F^2 bounds every entry of F F^dag and every partial sum forming it, so
# below this, rounding included, the product of a factor overflows nowhere
_GRAM_SAFE = 2.0**1000


def _gram_eig(factor: np.ndarray, tols: Tolerances) -> SpectralDecomposition:
    """``herm_eig(hermitize(F F^dag))`` of a 2-D complex factor F, less the
    ``tol_herm`` test that hermitize's output passes exactly (see the module
    docstring); ``herm_eig`` would hermitize it again to the same bits, as
    halving is exact above the subnormal range. With ||F||_F^2 below
    ``_GRAM_SAFE`` the product is finite; otherwise it is formed with
    overflow ignored and read entry by entry, so a NaN, infinite or huge
    factor, or a hermitized norm that overflows, raises the ``NotHermitian``
    of ``herm_eig``, unwarned.
    """
    fh = factor.conj().T
    if np.vdot(factor, factor).real < _GRAM_SAFE:  # a NaN fails here too
        p = factor.dot(fh)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            p = factor.dot(fh)
        _require_finite(p)
    m = hermitize(p)
    return _verified_eig(m, _finite_norm(m), tols)


def herm_eig_stack(mats: np.ndarray, tols: Tolerances = DEFAULT_TOLS) -> SpectralDecomposition:
    """``herm_eig`` of every matrix of an ``(N, d, d)`` stack, in one ``eigh`` call.

    One vectorized pass decides the checks of ``herm_eig``, with the same
    budgets, for every matrix; a matrix failing one before ``eigh`` is
    decomposed as the identity. Each flagged matrix, in stack order, is then
    rechecked by ``herm_eig``'s own checks on its stacked eigenpairs, so the
    first failing matrix raises the error ``herm_eig`` raises, its message
    prefixed with the matrix's index. Returns ``(N, d)`` ascending
    eigenvalues and ``(N, d, d)`` eigenvectors; each pair is the one
    ``herm_eig`` returns for that matrix alone.
    """
    m = np.asarray(mats, dtype=complex)
    if m.ndim != 3 or not is_square(m.shape[1:]):
        raise NotHermitian(f"expected a stack of square matrices with d >= 1, got shape {m.shape}")
    n = m.shape[1]
    # overflow and NaN only flag a matrix here; the recheck below reports them
    with np.errstate(over="ignore", invalid="ignore"):
        half = 0.5 * m
        half_h = half.conj().swapaxes(-1, -2)
        h = half + half_h
        norms = np.linalg.norm(h, axis=(1, 2))
        # a non-finite entry makes its matrix's norm non-finite
        ok = (2.0 * np.abs(half - half_h).max(axis=(1, 2)) <= tols.tol_herm) & np.isfinite(norms)
        if not ok.all():
            h[~ok] = identity(n)
        try:
            vals, vecs = np.linalg.eigh(h)
        except np.linalg.LinAlgError as exc:
            raise BackendFailure(f"eigensolver did not converge on the stack: {exc}") from exc

        vh = vecs.conj().swapaxes(-1, -2)
        budget = tols.tol_recon * n * np.maximum(1.0, norms)
        ok &= np.linalg.norm((vecs * vals[:, None, :]) @ vh - h, axis=(1, 2)) <= budget
        ok &= np.linalg.norm(vh @ vecs - identity(n), axis=(1, 2)) <= 1e-12 * n
        for i in np.flatnonzero(~ok).tolist():
            try:
                _check_eigenpairs(*_hermitized(m[i], tols), vals[i], vecs[i], tols)
            except (NotHermitian, BackendFailure) as exc:
                raise type(exc)(f"matrix {i} of {len(m)}: {exc}") from None
    return SpectralDecomposition(vals, vecs)


def spectral_fn(
    mat: np.ndarray,
    f: Callable[[np.ndarray], np.ndarray],
    domain_min: float,
    tols: Tolerances = DEFAULT_TOLS,
) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix (within ``tol_herm``)
    through its spectrum; see ``SpectralDecomposition.apply``."""
    return herm_eig(mat, tols).apply(f, domain_min)
