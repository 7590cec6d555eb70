"""States, metrics, and reproducible sampling.

Pure states are unit vectors up to a global phase, density matrices are
validated Hermitian unit-trace PSD matrices, and every sampler draws from an
explicit, splittable random stream so that Monte Carlo runs are reproducible
and parallelizable without shared state.

Validation decomposes the matrix once through ``herm_eig``, and the state
carries that verified eigendecomposition (``DensityMatrix.eig``); the
divergences and the common basis work in its eigen-coordinates, and a
function of the state is ``state.eig.apply(f, domain_min)``. Results kept per
pair of states are described in ``entropy``.

Inside the package, families of pure states are amplitude arrays, one ray
per row: ``fs_angles`` broadcasts the Fubini-Study angle over them and
``canonical_rows`` fixes the phase of a whole block; ``fubini_study`` and
``canonical_phase`` are batches of one for API callers.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, NotFaithful, NotPSD, NotTraceOne
from .matcore import (
    DEFAULT_TOLS,
    SpectralDecomposition,
    Tolerances,
    herm_eig,
    hermitize,
    hold,
    lapack_eigh,
)

__all__ = [
    "PureState",
    "DensityMatrix",
    "RngStream",
    "validate_density",
    "trace_distance",
    "fubini_study",
    "canonical_phase",
    "haar_pure",
    "sample_faithful",
]

TRACE_TOL = 1e-10
PSD_FLOOR = -1e-12
PHASE_CUTOFF = 1e-12


def check_unit_rows(amps: np.ndarray) -> None:
    """The bounds of a pure state for every row of a ``(k, d)`` array: finite,
    and norm 1 within 1e-12, else ``ValueError`` naming the worst row."""
    if not np.isfinite(amps).all():
        raise ValueError("amplitudes are not all finite")
    # einsum, unlike np.linalg.norm, overflows to inf without a warning
    norms = np.sqrt(np.einsum("ij,ij->i", amps.conj(), amps).real)
    i = int(np.argmax(np.abs(norms - 1.0)))
    if abs(norms[i] - 1.0) > 1e-12:
        raise ValueError(f"row {i} has norm {float(norms[i])!r}, not 1 within 1e-12")


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit vector in C^n. Global phase is physically irrelevant but kept
    as stored; comparisons go through ``fubini_study`` or ``canonical_phase``.
    The state keeps its own read-only copy of the amplitudes (see ``hold``)."""

    amplitudes: np.ndarray

    def __post_init__(self):
        a = np.array(self.amplitudes, dtype=complex, order="C")
        if a.ndim != 1 or a.size == 0:
            raise DimMismatch(f"pure state must be a nonempty vector, got shape {a.shape}")
        check_unit_rows(a[None])
        hold(self, amplitudes=a)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def overlap(self, other: "PureState") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def projector(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())


@dataclass(frozen=True, init=False, eq=False)
class DensityMatrix:
    """Density matrix, validated where it is built, with its verified eigendecomposition.

    The constructor checks Hermiticity, unit trace, and positivity, in that
    order, so the failure names the first violated bound; non-square or
    non-finite input fails as ``NotHermitian``. It keeps a re-Hermitized copy
    as ``matrix``, the eigendecomposition ``herm_eig`` verified as ``eig``, and
    whether the smallest eigenvalue clears ``eps_faithful`` as ``faithful``; a
    caller sets neither, and the state keeps no ``tols``. A state equals and
    hashes as itself only; its arrays are read-only and its own (``hold``), so
    the spectrum, and every result kept for a pair of states, stay true to
    the matrix."""

    matrix: np.ndarray
    eig: SpectralDecomposition
    faithful: bool

    def __init__(self, matrix: np.ndarray, tols: Tolerances = DEFAULT_TOLS):
        m = np.asarray(matrix, dtype=complex)
        eig = herm_eig(m, tols)
        m = hermitize(m)  # the matrix herm_eig decomposed
        tr = float(np.real(np.trace(m)))
        if not abs(tr - 1.0) <= TRACE_TOL:  # a NaN trace fails here too
            raise NotTraceOne(f"trace {tr!r} deviates from 1 beyond {TRACE_TOL:.1e}")
        lo = float(eig.eigenvalues[0])
        if not lo >= PSD_FLOOR:
            raise NotPSD(f"smallest eigenvalue {lo:.3e} is below the floor {PSD_FLOOR:.1e}")
        hold(self, matrix=m, eig=eig, faithful=lo > tols.eps_faithful)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def min_eigenvalue(self) -> float:
        return float(self.eig.eigenvalues[0])


def validate_density(mat: np.ndarray, tols: Tolerances = DEFAULT_TOLS) -> DensityMatrix:
    """The checked state ``DensityMatrix(mat, tols)``."""
    return DensityMatrix(mat, tols)


def require_faithful(state: DensityMatrix, name: str, tols: Tolerances = DEFAULT_TOLS) -> None:
    """Raise ``NotFaithful`` naming the offending input if rank-deficient."""
    if state.min_eigenvalue <= tols.eps_faithful:
        raise NotFaithful(
            f"{name} is not faithful: smallest eigenvalue "
            f"{state.min_eigenvalue:.3e} <= {tols.eps_faithful:.1e}"
        )


def check_pair(rho: DensityMatrix, sigma: DensityMatrix, tols: Tolerances = DEFAULT_TOLS) -> None:
    """The contract of every divergence and of the common basis: equal
    dimensions (else ``DimMismatch``) and two faithful states."""
    if rho.dim != sigma.dim:
        raise DimMismatch(f"dimensions differ: {rho.dim} vs {sigma.dim}")
    require_faithful(rho, "rho", tols)
    require_faithful(sigma, "sigma", tols)


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Half the trace norm of rho - sigma. Symmetric, in [0, 1]."""
    if rho.dim != sigma.dim:
        raise DimMismatch(f"dimensions differ: {rho.dim} vs {sigma.dim}")
    diff = rho.matrix - sigma.matrix
    return float(0.5 * np.abs(lapack_eigh(diff, 0)[0]).sum())


def fs_angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Fubini-Study angles arccos |<a|b>| between the unit rows of ``a`` and
    ``b``, in [0, pi/2], broadcasting over every axis but the last.

    Computed as atan2 of the orthogonal residual against the overlap, which
    stays accurate for nearly identical rays where the arccos form loses all
    precision. ``fs_angles(x[:, None], y[None])`` is the table of all pairs.
    """
    ov = np.einsum("...i,...i->...", a.conj(), b)
    resid = b - ov[..., None] * a
    return np.arctan2(np.linalg.norm(resid, axis=-1), np.abs(ov))


def canonical_rows(amps: np.ndarray) -> np.ndarray:
    """Rotate the global phase of each unit row (or of one vector) so its first
    amplitude above 1e-12 is real positive (a unit vector of any practical size has one)."""
    at = np.argmax(np.abs(amps) > PHASE_CUTOFF, axis=-1)
    pivot = amps[at] if amps.ndim == 1 else amps[np.arange(len(amps)), at]
    return amps * (pivot.conj() / np.abs(pivot))[..., None]


def fubini_study(psi: PureState, phi: PureState) -> float:
    """Angle arccos |<psi|phi>| between rays, in [0, pi/2]; ``fs_angles`` of one pair."""
    if psi.dim != phi.dim:
        raise DimMismatch(f"dimensions differ: {psi.dim} vs {phi.dim}")
    return float(fs_angles(psi.amplitudes, phi.amplitudes))


def canonical_phase(psi: PureState) -> PureState:
    """Rotate the global phase so the first amplitude above 1e-12 is real positive."""
    return PureState(canonical_rows(psi.amplitudes))


def positive_count(n, what: str) -> int:
    """``n`` as an int when it is a positive integral number (``2.0`` and
    numpy integers are, a boolean or a string is not), else ``ValueError``
    naming ``what`` and ``n``. The one rule for every sample size, trial
    count and path count of the package."""
    try:
        size = int(n)
        integral = not isinstance(n, bool) and size == n
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral or size < 1:
        raise ValueError(f"{what} must be a positive integer, got {n!r}")
    return size


class RngStream:
    """Deterministic random stream addressed by (seed, stream_id).

    Two streams with the same address produce identical draws; distinct
    stream ids are statistically independent (counter-based splitting via
    ``SeedSequence`` spawn keys). Parallel tasks take one stream id each and
    never share a stream.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        self.gen = np.random.Generator(np.random.PCG64(seq))

    def split(self, stream_id: int) -> "RngStream":
        """Fresh stream with the same seed and the given id."""
        return RngStream(self.seed, stream_id)

    def complex_normal(self, shape) -> np.ndarray:
        """Standard complex Gaussian array (independent real and imaginary parts)."""
        re = self.gen.standard_normal(shape)
        im = self.gen.standard_normal(shape)
        return re + 1j * im

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


def haar_pure(dim: int, rng: RngStream) -> PureState:
    """Haar-random pure state: normalized standard complex Gaussian vector."""
    if dim < 1:
        raise DimMismatch(f"dimension must be positive, got {dim}")
    while True:
        v = rng.complex_normal(dim)
        nrm = float(np.linalg.norm(v))
        if nrm > 1e-12:
            return PureState(v / nrm)


MIX_TOWARD_UNIFORM = 0.02


def sample_faithful(dim: int, rng: RngStream, tols: Tolerances = DEFAULT_TOLS) -> DensityMatrix:
    """Random full-rank density matrix from a normalized Ginibre draw.

    The raw draw G G^dag / Tr[G G^dag] is mixed with the maximally mixed
    state at weight MIX_TOWARD_UNIFORM, which floors every eigenvalue at
    0.02 / dim. Raw Ginibre tails otherwise reach eigenvalues small enough
    that inverse-based identities lose absolute precision downstream.
    """
    if dim < 1:
        raise DimMismatch(f"dimension must be positive, got {dim}")
    g = rng.complex_normal((dim, dim))
    m = g @ g.conj().T
    m = m / np.real(np.trace(m))
    m = (1.0 - MIX_TOWARD_UNIFORM) * m + MIX_TOWARD_UNIFORM * np.eye(dim) / dim
    return validate_density(m, tols)
