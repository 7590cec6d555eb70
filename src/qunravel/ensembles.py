"""Discrete ensembles of pure states and the classical layer on top of them.

An ensemble is a finitely supported probability measure on rays: atoms are
pure states, pairwise distinct in Fubini-Study distance, with nonnegative
weights summing to one. An ensemble stores only the atoms' amplitudes, as
the rows of one ``(k, d)`` array ``amps``, and its weights; everything here
reads that array, and ``atoms`` builds ``PureState`` objects on access for
API callers. Divergences between two ensembles are computed after moving
the weights of one onto the atom order of the other; atoms closer than
``TOL_MATCH`` count as the same ray.
Coarse-graining and couplings live here too, since both are purely
measure-level operations on angle tables.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

import numpy as np

from .errors import (
    AmbiguousMatch,
    DimMismatch,
    EmptyEnsemble,
    InvalidCoupling,
)
from .matcore import Tolerances, hermitize
from .states import (
    DensityMatrix,
    PureState,
    fs_angles,
    trace_distance,
    validate_density,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .entropy import DivergenceGenerator

__all__ = [
    "TOL_MATCH",
    "DiscreteEnsemble",
    "CoarseKernel",
    "realize",
    "kl_divergence",
    "f_divergence",
    "coarse_grain",
    "product_coupling",
    "greedy_coupling",
    "coupling_bound_check",
]

TOL_MATCH = 1e-10
WEIGHT_SUM_TOL = 1e-10
# |<a|b>| below this puts two rays about 1.4e-6 or more apart, far beyond TOL_MATCH
OVERLAP_SCREEN = 1.0 - 1e-12

# index pairs (i, j) with transported mass
Coupling = Sequence[tuple[int, int, float]]


def _near_pairs(amps: np.ndarray, tol: float) -> Iterator[tuple[int, int, float]]:
    """Row pairs i < j within Fubini-Study distance ``tol``, ordered by i then
    j, each with its distance."""
    # two-stage: a cheap overlap screen of the upper triangle in blocks, then
    # the accurate angle only for suspicious pairs
    block = 512
    for start in range(0, amps.shape[0], block):
        ov = np.abs(amps[start : start + block].conj() @ amps[start:].T)
        rows, cols = np.nonzero(ov >= OVERLAP_SCREEN)
        upper = rows < cols
        if upper.any():
            i, j = rows[upper] + start, cols[upper] + start
            angles = fs_angles(amps[i], amps[j])
            for a, b, d in zip(i.tolist(), j.tolist(), angles.tolist()):
                if d <= tol:
                    yield a, b, d


def _merge_coincident(
    amps: np.ndarray, weights: np.ndarray, tol: float = TOL_MATCH
) -> tuple[np.ndarray, np.ndarray]:
    """Merge every group of rows linked by distances within ``tol`` into its
    first row, which carries the group's summed weight."""
    root = list(range(len(amps)))

    def find(k: int) -> int:
        while root[k] != k:
            k = root[k]
        return k

    for i, j, _ in _near_pairs(amps, tol):
        lo, hi = sorted((find(i), find(j)))
        root[hi] = lo
    groups = np.array([find(k) for k in range(len(amps))])
    keep = np.flatnonzero(groups == np.arange(len(amps)))
    summed = np.bincount(groups, weights=weights)[keep]
    return amps[keep], summed


@dataclass(frozen=True, init=False)
class DiscreteEnsemble:
    """Finitely supported measure on pure states.

    Built from ``atoms``, a sequence of ``PureState``s or a ``(k, d)`` array
    of unit rows, and ``weights``. Invariants checked at construction: at
    least one atom, all atoms of one dimension, unit and pairwise distinct
    beyond ``TOL_MATCH``, weights nonnegative and summing to 1 within 1e-10.
    Only the amplitudes are stored, as the rows of ``amps``.
    """

    amps: np.ndarray
    weights: np.ndarray

    def __init__(self, atoms: "Sequence[PureState] | np.ndarray", weights):
        if isinstance(atoms, np.ndarray):
            amps = np.ascontiguousarray(atoms, dtype=complex)
        else:
            rows = [a.amplitudes for a in atoms]
            dims = sorted({r.size for r in rows})
            if len(dims) > 1:
                raise DimMismatch(f"atom dimensions differ: {dims}")
            amps = np.stack(rows) if rows else np.empty((0, 1))
        if amps.ndim != 2 or amps.shape[1] == 0:
            raise DimMismatch(f"atoms must form a (k, d) array with d >= 1, got {amps.shape}")
        if amps.shape[0] == 0:
            raise EmptyEnsemble("ensemble needs at least one atom")
        # PureState's bounds, for all rows in one pass
        if not np.isfinite(amps).all():
            raise ValueError("atoms have non-finite amplitudes")
        norms = np.linalg.norm(amps, axis=1)
        i = int(np.argmax(np.abs(norms - 1.0)))
        if abs(norms[i] - 1.0) > 1e-12:
            raise ValueError(f"atom {i} has norm {norms[i]!r}, not 1 within 1e-12")
        w = np.ascontiguousarray(weights, dtype=float)
        if w.ndim != 1 or w.size != len(amps):
            raise DimMismatch(f"got {w.size} weights for {len(amps)} atoms")
        if (w < 0).any():
            raise ValueError(f"negative weight {w.min()!r}")
        if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {w.sum()!r}, not 1")
        for i, j, d in _near_pairs(amps, TOL_MATCH):
            raise ValueError(
                f"atoms {i} and {j} coincide up to phase "
                f"(Fubini-Study distance {d:.3e} <= {TOL_MATCH:.1e})"
            )
        object.__setattr__(self, "amps", amps)
        object.__setattr__(self, "weights", w)

    @property
    def atoms(self) -> tuple[PureState, ...]:
        """The rows of ``amps`` as pure states, built on access."""
        return tuple(PureState(a) for a in self.amps)

    @property
    def dim(self) -> int:
        return self.amps.shape[1]

    def __len__(self) -> int:
        return self.amps.shape[0]


def realize(mu: DiscreteEnsemble, tols: Tolerances | None = None) -> DensityMatrix:
    """Barycenter sum_k w_k |psi_k><psi_k| as a validated density matrix."""
    mat = (mu.amps.T * mu.weights) @ mu.amps.conj()
    return validate_density(hermitize(mat), tols)


def _aligned_weights(
    mu: DiscreteEnsemble, nu: DiscreteEnsemble, tol: float = TOL_MATCH
) -> Optional[np.ndarray]:
    """mu's weights moved onto nu's atom order, or None when mu puts mass on a
    ray that nu lacks.

    Identity alignment is tried first (the common case: both ensembles share
    one array). Otherwise rays are matched through the overlap screen and
    their angles, and the match is rejected as ambiguous when an atom of
    either ensemble lies within the tolerance of two atoms of the other.
    """
    if mu.dim != nu.dim:
        raise DimMismatch(f"ensemble dimensions differ: {mu.dim} vs {nu.dim}")
    if mu.amps is nu.amps or (
        len(mu) == len(nu) and (fs_angles(mu.amps, nu.amps) <= tol).all()
    ):
        return mu.weights

    i, j = np.nonzero(np.abs(mu.amps.conj() @ nu.amps.T) >= OVERLAP_SCREEN)
    close = fs_angles(mu.amps[i], nu.amps[j]) <= tol
    i, j = i[close], j[close]
    for side, hits in (("mu", i), ("nu", j)):
        twice = np.flatnonzero(np.bincount(hits) > 1)
        if twice.size:
            raise AmbiguousMatch(
                f"{side} atom {twice[0]} lies within {tol:.1e} of several atoms"
            )
    if (np.delete(mu.weights, i) > 0.0).any():
        return None
    out = np.zeros(len(nu))
    out[j] = mu.weights[i]
    return out


def kl_divergence(mu: DiscreteEnsemble, nu: DiscreteEnsemble) -> float:
    """Kullback-Leibler divergence D(mu || nu) in nats.

    Atoms are aligned by ray; mass of mu outside the support of nu makes the
    divergence infinite. Atoms carrying zero mu-weight contribute nothing.
    """
    p = _aligned_weights(mu, nu)
    return math.inf if p is None else _kl_sum(p, nu.weights)


def _kl_sum(p: np.ndarray, q: np.ndarray) -> float:
    """``kl_divergence`` of two weight vectors on one atom list."""
    total = 0.0
    for w, v in zip(p, q):
        if w <= 0.0:
            continue
        if v <= 0.0:
            return math.inf
        total += w * math.log(w / v)
    return float(total)


def f_divergence(
    mu: DiscreteEnsemble, nu: DiscreteEnsemble, gen: "DivergenceGenerator"
) -> float:
    """Classical f-divergence sum_k nu_k f(mu_k / nu_k) after atom alignment.

    Conventions: cells with nu_k = 0 contribute 0 when mu_k = 0 and make the
    divergence infinite when mu_k > 0; cells with mu_k = 0 contribute
    nu_k * f(0+) through the generator's stored limit.
    """
    p = _aligned_weights(mu, nu)
    if p is None:
        return math.inf
    total = 0.0
    for w, q in zip(p, nu.weights):
        if q <= 0.0:
            if w > 0.0:
                return math.inf
            continue
        contrib = q * (gen.f_zero if w == 0.0 else float(gen.f(w / q)))
        if math.isinf(contrib):
            return math.inf
        total += contrib
    return float(total)


@dataclass(frozen=True)
class CoarseKernel:
    """Deterministic coarse-graining: atom index -> covering center.

    Built greedily in atom order, so every atom sits within ``radius`` of its
    center. ``centers`` holds the centers' amplitudes as rows. The kernel is
    index-based and can be replayed on any ensemble sharing the source atom
    list.
    """

    centers: np.ndarray
    assignment: tuple[int, ...]
    radius: float

    def apply(self, mu: DiscreteEnsemble) -> DiscreteEnsemble:
        if len(mu) != len(self.assignment):
            raise DimMismatch(
                f"kernel covers {len(self.assignment)} atoms, ensemble has {len(mu)}"
            )
        w = np.bincount(self.assignment, weights=mu.weights, minlength=len(self.centers))
        out = DiscreteEnsemble(self.centers, w)
        if mu.dim != out.dim:
            raise DimMismatch(f"kernel centers have dim {out.dim}, ensemble has {mu.dim}")
        dist = fs_angles(mu.amps, out.amps[list(self.assignment)])
        far = dist > self.radius + 1e-12
        if far.any():
            i = int(np.argmax(far))
            raise DimMismatch(
                f"atom {i} lies {dist[i]:.3e} from its center, beyond radius {self.radius}"
            )
        return out


def coarse_grain(
    mu: DiscreteEnsemble, radius: float
) -> tuple[CoarseKernel, DiscreteEnsemble]:
    """Greedy ball cover of the atoms; returns the kernel and the coarsened
    ensemble. The first uncovered atom in order opens a new center."""
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    centers: list[int] = []
    assignment: list[int] = []
    for i, row in enumerate(mu.amps):
        near = np.flatnonzero(fs_angles(row, mu.amps[centers]) <= radius)
        if near.size:
            assignment.append(int(near[0]))
        else:
            assignment.append(len(centers))
            centers.append(i)
    kernel = CoarseKernel(mu.amps[centers], tuple(assignment), float(radius))
    return kernel, kernel.apply(mu)


def product_coupling(mu: DiscreteEnsemble, nu: DiscreteEnsemble) -> list[tuple[int, int, float]]:
    """Independent coupling w_i * v_j, always valid."""
    out = []
    for i, wi in enumerate(mu.weights):
        for j, vj in enumerate(nu.weights):
            m = wi * vj
            if m > 0.0:
                out.append((i, j, float(m)))
    return out


def _greedy_plan(
    table: np.ndarray, rem_a: list[float], rem_b: list[float]
) -> list[tuple[int, int, float]]:
    """Walk the pairs of a distance table in ascending order (ties by index),
    each taking as much mass as both sides still have; ``rem_a`` and
    ``rem_b`` are drained in place."""
    out = []
    for flat in np.argsort(table, axis=None, kind="stable").tolist():
        i, j = divmod(flat, table.shape[1])
        m = min(rem_a[i], rem_b[j])
        if m > 0.0:
            out.append((i, j, m))
            rem_a[i] -= m
            rem_b[j] -= m
    return out


def greedy_coupling(mu: DiscreteEnsemble, nu: DiscreteEnsemble) -> list[tuple[int, int, float]]:
    """Transport plan built by draining the closest atom pairs first.

    Pairs are visited in ascending Fubini-Study distance (ties broken by
    index), each taking as much mass as both marginals still allow. A single
    pass drains everything, so the result is a valid coupling up to float
    dust.
    """
    if mu.dim != nu.dim:
        raise DimMismatch(f"ensemble dimensions differ: {mu.dim} vs {nu.dim}")
    table = fs_angles(mu.amps[:, None], nu.amps[None])
    return _greedy_plan(table, mu.weights.tolist(), nu.weights.tolist())


def coupling_bound_check(
    mu: DiscreteEnsemble, nu: DiscreteEnsemble, matching: Coupling
) -> tuple[float, float]:
    """Trace distance of the barycenters vs the coupling's transport cost.

    Returns ``(lhs, rhs)`` with lhs = d_TR(realize(mu), realize(nu)) and
    rhs = sum over the coupling of mass times Fubini-Study distance. The
    coupling is validated against both marginals first.
    """
    mu_marg = np.zeros(len(mu))
    nu_marg = np.zeros(len(nu))
    for i, j, m in matching:
        if not (0 <= i < len(mu)) or not (0 <= j < len(nu)):
            raise InvalidCoupling(f"pair ({i}, {j}) is out of range")
        if m < 0:
            raise InvalidCoupling(f"negative mass {m!r} on pair ({i}, {j})")
        mu_marg[i] += m
        nu_marg[j] += m
    if np.abs(mu_marg - mu.weights).max() > 1e-10:
        raise InvalidCoupling("left marginal does not reproduce mu")
    if np.abs(nu_marg - nu.weights).max() > 1e-10:
        raise InvalidCoupling("right marginal does not reproduce nu")

    lhs = trace_distance(realize(mu), realize(nu))
    i, j, m = zip(*matching)  # nonempty: the marginals above sum to 1
    rhs = np.dot(m, fs_angles(mu.amps[list(i)], nu.amps[list(j)]))
    return float(lhs), float(rhs)
