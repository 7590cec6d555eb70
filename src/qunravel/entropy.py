"""Quantum relative entropies and channels.

Three divergences between faithful states, all in nats:

* ``umegaki``:    Tr[rho (log rho - log sigma)]
* ``bs_entropy``: Tr[rho log(sqrt(rho) sigma^{-1} sqrt(rho))]
* ``unr_entropy``: the smallest KL divergence among classical realizations of
  the pair by pure-state ensembles. It is attained on the common-basis
  measures, so it is evaluated exactly through that construction rather than
  by search, and it coincides with ``bs_entropy`` up to floating-point error.

BS is the maximal f-divergence of f(x) = x log x (Hiai & Mosonyi, Rev. Math.
Phys. 29, 2017), Tr[sigma f(sigma^{-1/2} rho sigma^{-1/2})];
``max_f_divergence`` takes any operator-convex generator with f(1) = 0. The
generators (``DivergenceGenerator``, ``GENERATORS``) belong to the classical
layer in ``ensembles`` and are re-exported here. ``unr_entropy`` sums xlogx,
in the loop of ``f_divergence``, over the clamped weights that the common
basis verified once when it was built (``CommonBasis.rho_weights``).

A pair has one core, built in the eigen-coordinates of the states' verified
spectra (``DensityMatrix.eig``) from their overlap M = V_sigma^dag V_rho; no
matrix function is formed (``SpectralDecomposition.overlap``). With
B = W_sigma^{-1/2} M W_rho^{1/2}, the core sigma^{-1/2} rho sigma^{-1/2} is
B B^dag in sigma's eigenbasis, hermitized and decomposed by ``_gram_eig``
(``herm_eig`` less the Hermiticity test that hermitize passes by construction,
see ``matcore``; a stack's cores go to ``herm_eig_stack``), and
Tr[sigma f(core)] is sum_i f(c_i) (w_sigma @ |U|^2)_i (``populations``).
Umegaki needs no core. The other Gram product, sqrt(rho) sigma^{-1} sqrt(rho)
in rho's eigenbasis, is not formed: it carries sigma^{-1} there, and near
eigenvalues of 1e-10 its eigensolve can return a negative one. ``_pair_core``
serves one pair and, through ``_bs_values``, the stack of ``contraction_scan``.

Per-pair sharing. The common basis (``unr_entropy``, then ``common_basis``
in ``qunravel entropy``) and the core with its weights, which BS and every
generator read, are each built once per pair of state objects by a
``functools.lru_cache(maxsize=1)`` function of ``(rho, sigma, tols)`` that
runs ``check_pair`` before it builds. A ``DensityMatrix`` hashes by
identity, so a hit needs the very same two state objects, whose check
passed, and equal ``Tolerances``; the one entry holds the latest pair only,
failures are not kept, and the arrays of states and bases are read-only. So
neither BS nor max-f checks the pair itself, and one sum, ``_f_trace``,
gives Tr[sigma f(core)] for both and for each core of the scan's stack. The
basis decomposes its own C^dag C, rho^{-1/2} sigma rho^{-1/2} in rho's
eigenbasis (``commonbasis``), so criteria 01 (BS against ``unr_entropy``) and
11 (max-f against the basis f-divergence) compare eig(B B^dag) with
eig(C^dag C), independent eigensolves. BS is max-f with xlogx, one sum on
one core, so ``test_max_f_xlogx_reproduces_bs`` is a structural check.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .commonbasis import common_basis
from .ensembles import GENERATORS, DivergenceGenerator, _f_sum, _xlogx
from .errors import (
    DimMismatch,
    NotOperatorConvex,
    NotTracePreserving,
)
from .matcore import (
    DEFAULT_TOLS, SpectralDecomposition, Tolerances, _gram_eig, herm_eig_stack, hermitize,
    hold, populations,
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
    return float(wr @ np.log(wr) - np.log(ws) @ populations(wr, vr.conj().T.dot(vs)))


def bs_entropy(rho: DensityMatrix, sigma: DensityMatrix, tols: Tolerances = DEFAULT_TOLS) -> float:
    """Belavkin-Staszewski relative entropy Tr[rho log(sqrt(rho) sigma^{-1} sqrt(rho))]
    in nats, summed as sum_i c_i log(c_i) <v_i|sigma|v_i> on the verified pair
    core; never below ``umegaki`` up to roundoff, equal to it for commuting states."""
    return float(_f_trace(*_max_f_core(rho, sigma, tols), _xlogx, tols))


def _f_trace(core: SpectralDecomposition, weights: np.ndarray, f, tols: Tolerances) -> np.ndarray:
    """Tr[sigma f(core)] = sum_i f(c_i) <v_i|sigma|v_i>, summed alike on a
    pair's core and on each core of a stack."""
    return (core.mapped(f, tols.eps_faithful) * weights).sum(-1)


def _bs_values(rho_eig: SpectralDecomposition, sigma_eig: SpectralDecomposition, tols: Tolerances):
    """BS of one faithful pair's verified spectra, or of each pair of a stack:
    x log x summed on the pair core."""
    return _f_trace(*_pair_core(rho_eig, sigma_eig, tols), _xlogx, tols)


def _pair_core(rho_eig: SpectralDecomposition, sigma_eig: SpectralDecomposition, tols: Tolerances):
    """Verified spectrum of sigma^{-1/2} rho sigma^{-1/2} in sigma's eigenbasis,
    B B^dag with B = W_sigma^{-1/2} M W_rho^{1/2}, and the weights of
    Tr[sigma f(core)] on it, of one faithful pair or of each pair of a stack."""
    b = sigma_eig.overlap(rho_eig, 0.5)
    if b.ndim == 3:
        core = herm_eig_stack(hermitize(b @ b.conj().swapaxes(-1, -2)), tols)
    else:
        core = _gram_eig(b, tols)
    return core, populations(sigma_eig.eigenvalues, core.eigenvectors)


def unr_entropy(
    rho: DensityMatrix, sigma: DensityMatrix, tols: Tolerances = DEFAULT_TOLS
) -> float:
    """Unraveled relative entropy in nats.

    The infimum of KL(mu || nu) over pure-state ensemble pairs realizing
    (rho, sigma) is attained by the common-basis measures. Both live on the
    one common basis, so this is the KL divergence of the basis's two stored
    weight vectors, the same number ``kl_divergence`` gives on ``cb_measures``.
    """
    cb = common_basis(rho, sigma, tols)  # checks the pair
    return _f_sum(cb.rho_weights, cb.sigma_weights, GENERATORS["xlogx"])


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
    core, weights = _max_f_core(rho, sigma, tols)  # checks the pair
    if not gen.operator_convex:
        raise NotOperatorConvex(
            f"generator {gen.name!r} is not marked operator convex"
        )
    return float(_f_trace(core, weights, gen.f, tols))


@functools.lru_cache(maxsize=1)
def _max_f_core(rho: DensityMatrix, sigma: DensityMatrix, tols: Tolerances):
    """``_pair_core`` of a checked pair of states, kept for the latest pair."""
    check_pair(rho, sigma, tols)
    return _pair_core(rho.eig, sigma.eig, tols)


@dataclass(frozen=True, eq=False)
class KrausMap:
    """CPTP map by Kraus operators with sum_j K_j^dag K_j = I, kept as read-only copies."""

    operators: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(np.array(k, dtype=complex, order="C") for k in self.operators)
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
        hold(self, operators=ops)

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
    return validate_density(out, tols)  # which hermitizes it


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
