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

Every core is built in the eigen-coordinates of the states' verified spectra
(``DensityMatrix.eig``) from their overlap M = V_sigma^dag V_rho, and no matrix
function is formed (``SpectralDecomposition.overlap``). With
B = W_sigma^{-1/2} M W_rho^{1/2}, the BS core sqrt(rho) sigma^{-1} sqrt(rho) is
B^dag B in rho's eigenbasis and the max-f core sigma^{-1/2} rho sigma^{-1/2} is
B B^dag in sigma's. Each is hermitized and decomposed by its own ``herm_eig``;
Tr[A f(core)], A diagonal there, is sum_i f(c_i) (w_A @ |U|^2)_i
(``populations``). Umegaki needs no core. ``_bs_trace`` serves one pair and
the stack of ``contraction_scan`` alike.

Per-pair sharing. The common basis (``unr_entropy``, then ``common_basis``
in ``qunravel entropy``) and the max-f core with its weights, which every
generator reads, are each built once per pair of state objects by a
``functools.lru_cache(maxsize=1)`` function of ``(rho, sigma, tols)``. A
``DensityMatrix`` hashes by identity, so a hit needs the very same two state
objects and equal ``Tolerances``; the one entry holds the latest pair only,
failures are not kept, and the arrays of states and bases are read-only. The
BS core is decomposed afresh on every call and the basis decomposes its own
C^dag C (``commonbasis``), so criteria 01 (BS against ``unr_entropy``) and 11
(max-f against the basis f-divergence) still compare independent
eigensolves. BS and max-f are two Gram products of one B, so
``test_max_f_xlogx_reproduces_bs`` is a structural check of the two.
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
    DEFAULT_TOLS, SpectralDecomposition, Tolerances, herm_eig, herm_eig_stack, hermitize,
    populations,
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


def umegaki(rho: DensityMatrix, sigma: DensityMatrix, tols: Tolerances = DEFAULT_TOLS) -> float:
    """Umegaki relative entropy Tr[rho (log rho - log sigma)] in nats, as the
    sums sum_i w_i log w_i - sum_j log(s_j) <s_j|rho|s_j> on the states' spectra."""
    check_pair(rho, sigma, tols)
    (wr, vr), (ws, vs) = rho.eig, sigma.eig
    return float(wr @ np.log(wr) - np.log(ws) @ populations(wr, vr.conj().T @ vs))


def bs_entropy(rho: DensityMatrix, sigma: DensityMatrix, tols: Tolerances = DEFAULT_TOLS) -> float:
    """Belavkin-Staszewski relative entropy in nats.

    Tr[rho log(sqrt(rho) sigma^{-1} sqrt(rho))], summed as
    sum_i log(c_i) <u_i|rho|u_i> over the verified eigenpairs of the core;
    never below ``umegaki`` up to roundoff, with equality when the states commute.
    """
    check_pair(rho, sigma, tols)
    return float(_bs_trace(rho.eig, sigma.eig, tols))


def _bs_trace(
    rho_eig: SpectralDecomposition, sigma_eig: SpectralDecomposition, tols: Tolerances
) -> np.ndarray:
    """Tr[rho log(sqrt(rho) sigma^{-1} sqrt(rho))] of one faithful pair, or of each
    pair of a stack (cores by ``herm_eig_stack``): in rho's eigenbasis, where rho
    is diagonal, the core is B^dag B, B = W_sigma^{-1/2} M W_rho^{1/2}."""
    b = sigma_eig.overlap(rho_eig, 0.5)
    decompose = herm_eig_stack if b.ndim == 3 else herm_eig
    core = decompose(hermitize(b.conj().swapaxes(-1, -2) @ b), tols)
    weights = populations(rho_eig.eigenvalues, core.eigenvectors)
    return (core.mapped(np.log, tols.eps_faithful) * weights).sum(-1)


def unr_entropy(
    rho: DensityMatrix, sigma: DensityMatrix, tols: Tolerances = DEFAULT_TOLS
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
    tols: Tolerances = DEFAULT_TOLS,
) -> float:
    """Maximal quantum f-divergence Tr[sigma f(sigma^{-1/2} rho sigma^{-1/2})].

    Requires the generator's operator-convexity flag; equals the classical
    f-divergence of the common-basis measures. The generator xlogx reproduces
    ``bs_entropy``. Summed as sum_i f(c_i) <v_i|sigma|v_i> on the verified
    spectrum of the core, which every generator on the pair shares.
    """
    check_pair(rho, sigma, tols)
    if not gen.operator_convex:
        raise NotOperatorConvex(
            f"generator {gen.name!r} is not marked operator convex"
        )
    core, weights = _max_f_core(rho, sigma, tols)
    return float(core.mapped(gen.f, tols.eps_faithful) @ weights)


@functools.lru_cache(maxsize=1)
def _max_f_core(rho: DensityMatrix, sigma: DensityMatrix, tols: Tolerances):
    """Verified spectrum of sigma^{-1/2} rho sigma^{-1/2} in sigma's eigenbasis,
    B B^dag with B as in ``_bs_trace``, and the weights of Tr[sigma f(core)]
    on it; every generator on the pair is a function of the two."""
    b = sigma.eig.overlap(rho.eig, 0.5)
    core = herm_eig(hermitize(b @ b.conj().T), tols)
    return core, populations(sigma.eig.eigenvalues, core.eigenvectors)


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
    phi: KrausMap, rho: DensityMatrix, tols: Tolerances = DEFAULT_TOLS
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
