"""Quantum relative entropies and channels.

Three divergences between faithful states, all in nats:

* ``umegaki``:    Tr[rho (log rho - log sigma)]
* ``bs_entropy``: Tr[rho log(sqrt(rho) sigma^{-1} sqrt(rho))]
* ``unr_entropy``: the smallest KL divergence among classical realizations of
  the pair by pure-state ensembles. It is attained on the common-basis
  measures, so it is evaluated exactly through that construction rather than
  by search, and it coincides with ``bs_entropy`` up to floating-point error.

The BS form is evaluated through the Hermitian product
sqrt(rho) sigma^{-1} sqrt(rho); the similar but non-Hermitian rho sigma^{-1}
is never diagonalized. ``max_f_divergence`` generalizes the BS construction
to arbitrary operator-convex generators with f(1) = 0. The generators
(``DivergenceGenerator``, ``GENERATORS``) belong to the classical layer in
``ensembles`` and are re-exported here; xlogx gives KL, and ``unr_entropy``
sums it over the clamped basis weights in the loop of ``f_divergence``.

Each divergence is a spectral sum on a verified spectrum
(``SpectralDecomposition.trace_with``), Tr[A f(M)] = sum_i f(w_i) <v_i|A|v_i>,
and no log or f matrix is built: Umegaki sums on the spectra the validated
states carry (``DensityMatrix.eig``), BS and max-f each on its core's. The
square roots and inverses in the cores also come from the states' spectra;
only each divergence's core is decomposed here. The BS formula is written
once, for one pair or a stack of pairs (``_bs_trace``): ``bs_entropy``
decomposes its core with ``herm_eig``, and ``contraction_scan`` the cores of
all its points with one ``herm_eig_stack``, each core its own member of the stack.

Per-pair sharing. Two constructions on a pair are needed by several callers
and are built once per pair of state objects: the common basis, from the
eigensolve of rho^{-1/2} sigma rho^{-1/2} (``unr_entropy``, then
``common_basis`` in ``qunravel entropy``), and the verified spectrum of the
max-f core sigma^{-1/2} rho sigma^{-1/2}, which every generator of
``max_f_divergence`` reads. Each is a ``functools.lru_cache(maxsize=1)``
function of ``(rho, sigma, tols)``. A ``DensityMatrix`` compares and hashes
by identity, so a hit needs the very same two state objects and equal
``Tolerances``; the one entry holds the latest pair only, failures are not
kept, and the arrays of states and bases are read-only, so a kept result
stays true to its inputs. The two caches are separate, and the BS core
sqrt(rho) sigma^{-1} sqrt(rho) is decomposed afresh on every call, so BS
against ``unr_entropy`` (acceptance criterion 01) and the maximal against
the basis f-divergence (criterion 11) still compare independent eigensolves.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .commonbasis import clamp_weights, common_basis
from .ensembles import GENERATORS, DivergenceGenerator, _f_sum
from .errors import (
    DimMismatch,
    NotOperatorConvex,
    NotTracePreserving,
)
from .matcore import (
    DEFAULT_TOLS, SpectralDecomposition, Tolerances, herm_eig, herm_eig_stack, hermitize
)
from .states import DensityMatrix, RngStream, check_pair, validate_density

__all__ = [
    "DivergenceGenerator",
    "GENERATORS",
    "KrausMap",
    "umegaki",
    "bs_entropy",
    "unr_entropy",
    "max_f_divergence",
    "apply_cptp",
    "random_cptp",
]


def umegaki(
    rho: DensityMatrix, sigma: DensityMatrix, tols: Tolerances | None = None
) -> float:
    """Umegaki relative entropy Tr[rho (log rho - log sigma)] in nats, as the
    spectral sums Tr[rho log rho] - Tr[rho log sigma] on the states' spectra."""
    tols = tols or DEFAULT_TOLS
    check_pair(rho, sigma, tols)
    r, eps = rho.matrix, tols.eps_faithful
    return float(rho.eig.trace_with(r, np.log, eps) - sigma.eig.trace_with(r, np.log, eps))


def bs_entropy(
    rho: DensityMatrix, sigma: DensityMatrix, tols: Tolerances | None = None
) -> float:
    """Belavkin-Staszewski relative entropy in nats.

    Tr[rho log(sqrt(rho) sigma^{-1} sqrt(rho))], summed as
    sum_i log(c_i) <v_i|rho|v_i> over the verified eigenpairs of the core;
    never below ``umegaki`` up to roundoff, with equality when the states commute.
    """
    tols = tols or DEFAULT_TOLS
    check_pair(rho, sigma, tols)
    return float(_bs_trace(rho.matrix, rho.eig, sigma.eig, tols))


def _bs_trace(
    rho: np.ndarray,
    rho_eig: SpectralDecomposition,
    sigma_eig: SpectralDecomposition,
    tols: Tolerances,
) -> np.ndarray:
    """Tr[rho log(sqrt(rho) sigma^{-1} sqrt(rho))] of one faithful pair (core
    by ``herm_eig``), or of each pair of a stack (cores by ``herm_eig_stack``),
    as the spectral sum of log on the core's spectrum."""
    sr = rho_eig.sqrt(tols)
    core = hermitize(sr @ sigma_eig.inv(tols) @ sr)
    decompose = herm_eig_stack if core.ndim == 3 else herm_eig
    return decompose(core, tols).trace_with(rho, np.log, tols.eps_faithful)


def unr_entropy(
    rho: DensityMatrix, sigma: DensityMatrix, tols: Tolerances | None = None
) -> float:
    """Unraveled relative entropy in nats.

    The infimum of KL(mu || nu) over pure-state ensemble pairs realizing
    (rho, sigma) is attained by the common-basis measures. Both live on the
    one common basis, so this is the KL divergence of their two weight
    vectors, the same number ``kl_divergence`` gives on ``cb_measures``.
    """
    cb = common_basis(rho, sigma, tols)  # checks the pair
    p, q = clamp_weights(cb.rho_coeffs), clamp_weights(cb.sigma_coeffs)
    return _f_sum(p, q, GENERATORS["xlogx"])


def max_f_divergence(
    rho: DensityMatrix,
    sigma: DensityMatrix,
    gen: DivergenceGenerator,
    tols: Tolerances | None = None,
) -> float:
    """Maximal quantum f-divergence Tr[sigma f(sigma^{-1/2} rho sigma^{-1/2})].

    Requires the generator's operator-convexity flag; equals the classical
    f-divergence of the common-basis measures. The generator xlogx reproduces
    ``bs_entropy``. Summed as sum_i f(c_i) <v_i|sigma|v_i> on the verified
    spectrum of the core, which every generator on the pair shares.
    """
    tols = tols or DEFAULT_TOLS
    check_pair(rho, sigma, tols)
    if not gen.operator_convex:
        raise NotOperatorConvex(
            f"generator {gen.name!r} is not marked operator convex"
        )
    core = _max_f_core(rho, sigma, tols)
    return float(core.trace_with(sigma.matrix, gen.f, tols.eps_faithful))


@functools.lru_cache(maxsize=1)
def _max_f_core(rho: DensityMatrix, sigma: DensityMatrix, tols: Tolerances):
    """Verified spectrum of sigma^{-1/2} rho sigma^{-1/2}; every generator on
    the pair is a function of it."""
    inv_sqrt_s = sigma.eig.inv_sqrt()
    return herm_eig(hermitize(inv_sqrt_s @ rho.matrix @ inv_sqrt_s), tols)


@dataclass(frozen=True)
class KrausMap:
    """CPTP map given by Kraus operators with sum_j K_j^dag K_j = I."""

    operators: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(np.ascontiguousarray(k, dtype=complex) for k in self.operators)
        if not ops:
            raise DimMismatch("a Kraus map needs at least one operator")
        shape = ops[0].shape
        if len(shape) != 2 or 0 in shape:
            raise DimMismatch(f"Kraus operators must be nonempty matrices, got shape {shape}")
        for k in ops:
            if k.shape != shape:
                raise DimMismatch(f"Kraus operator shapes differ: {k.shape} vs {shape}")
        total = sum(k.conj().T @ k for k in ops)
        defect = float(np.abs(total - np.eye(shape[1])).max())
        if not defect <= 1e-10:  # a NaN operator fails here too
            raise NotTracePreserving(
                f"sum K^dag K deviates from identity by {defect:.3e}"
            )
        object.__setattr__(self, "operators", ops)

    @property
    def dim_in(self) -> int:
        return self.operators[0].shape[1]

    @property
    def dim_out(self) -> int:
        return self.operators[0].shape[0]


def apply_cptp(
    phi: KrausMap, rho: DensityMatrix, tols: Tolerances | None = None
) -> DensityMatrix:
    """Push a state through the channel: sum_j K_j rho K_j^dag."""
    if phi.dim_in != rho.dim:
        raise DimMismatch(f"channel expects dim {phi.dim_in}, state has {rho.dim}")
    out = sum(k @ rho.matrix @ k.conj().T for k in phi.operators)
    return validate_density(hermitize(out), tols)


def random_cptp(dim_in: int, dim_out: int, n_kraus: int, rng: RngStream) -> KrausMap:
    """Random channel from the Ginibre construction.

    A (n_kraus * dim_out) x dim_in Ginibre block is orthonormalized column by
    column; its dim_out-row slices are the Kraus operators, trace preservation
    following from the orthonormal columns. Needs n_kraus * dim_out >= dim_in.
    """
    if n_kraus < 1:
        raise DimMismatch(f"need at least one Kraus operator, got {n_kraus}")
    if n_kraus * dim_out < dim_in:
        raise DimMismatch(
            f"{n_kraus} operators of shape ({dim_out}, {dim_in}) cannot be trace preserving"
        )
    g = rng.complex_normal((n_kraus * dim_out, dim_in))
    q, _ = np.linalg.qr(g, mode="reduced")
    ops = tuple(q[j * dim_out : (j + 1) * dim_out, :] for j in range(n_kraus))
    return KrausMap(ops)
