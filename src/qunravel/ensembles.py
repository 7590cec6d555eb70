"""Discrete ensembles of pure states and the classical layer on top of them.

An ensemble is a finitely supported probability measure on rays: atoms are
pure states, pairwise distinct in Fubini-Study distance, with nonnegative
weights summing to one. Divergences between two ensembles are computed after
aligning their atom lists; atoms closer than ``TOL_MATCH`` count as the same
ray. Coarse-graining and couplings live here too, since both are purely
measure-level operations.
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
    fubini_study,
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

# index pairs (i, j) with transported mass
Coupling = Sequence[tuple[int, int, float]]


def _atom_array(atoms: Sequence[PureState]) -> np.ndarray:
    return np.stack([a.amplitudes for a in atoms])


def _near_pairs(amps: np.ndarray, tol: float) -> Iterator[tuple[int, int, float]]:
    """Row pairs i < j within Fubini-Study distance ``tol``, ordered by i then
    j, each with its distance."""
    # two-stage: a cheap overlap screen of the upper triangle in blocks, then
    # the accurate angle only for suspicious pairs
    block = 512
    for start in range(0, amps.shape[0], block):
        ov = np.abs(amps[start : start + block].conj() @ amps[start:].T)
        rows, cols = np.nonzero(ov >= 1.0 - 1e-12)
        for r, c in zip(rows.tolist(), cols.tolist()):
            if r < c:
                i, j = start + r, start + c
                d = fubini_study(PureState(amps[i]), PureState(amps[j]))
                if d <= tol:
                    yield i, j, d


def _check_pairwise_distinct(amps: np.ndarray, tol: float) -> None:
    for i, j, d in _near_pairs(amps, tol):
        raise ValueError(
            f"atoms {i} and {j} coincide up to phase "
            f"(Fubini-Study distance {d:.3e} <= {tol:.1e})"
        )


def _merge_coincident(
    atoms: Sequence[PureState], weights: np.ndarray, tol: float = TOL_MATCH
) -> tuple[tuple[PureState, ...], np.ndarray]:
    """Merge every group of atoms linked by distances within ``tol`` into its
    first atom, which carries the group's summed weight."""
    root = list(range(len(atoms)))

    def find(k: int) -> int:
        while root[k] != k:
            k = root[k]
        return k

    for i, j, _ in _near_pairs(_atom_array(atoms), tol):
        lo, hi = sorted((find(i), find(j)))
        root[hi] = lo
    groups = np.array([find(k) for k in range(len(atoms))])
    keep = np.flatnonzero(groups == np.arange(len(atoms)))
    summed = np.bincount(groups, weights=weights)[keep]
    return tuple(atoms[k] for k in keep), summed


@dataclass(frozen=True)
class DiscreteEnsemble:
    """Finitely supported measure on pure states.

    Invariants checked at construction: at least one atom, all atoms of one
    dimension and pairwise distinct beyond ``TOL_MATCH``, weights nonnegative
    and summing to 1 within 1e-10.
    """

    atoms: tuple[PureState, ...]
    weights: np.ndarray

    def __post_init__(self):
        atoms = tuple(self.atoms)
        if not atoms:
            raise EmptyEnsemble("ensemble needs at least one atom")
        dim = atoms[0].dim
        for a in atoms:
            if a.dim != dim:
                raise DimMismatch(f"atom dimensions differ: {a.dim} vs {dim}")
        w = np.ascontiguousarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size != len(atoms):
            raise DimMismatch(
                f"got {w.size} weights for {len(atoms)} atoms"
            )
        if (w < 0).any():
            raise ValueError(f"negative weight {w.min()!r}")
        if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {w.sum()!r}, not 1")
        _check_pairwise_distinct(_atom_array(atoms), TOL_MATCH)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return self.atoms[0].dim

    def __len__(self) -> int:
        return len(self.atoms)


def realize(mu: DiscreteEnsemble, tols: Tolerances | None = None) -> DensityMatrix:
    """Barycenter sum_k w_k |psi_k><psi_k| as a validated density matrix."""
    if len(mu) == 0:  # unreachable through the constructor, kept defensive
        raise EmptyEnsemble("cannot realize an empty ensemble")
    amps = _atom_array(mu.atoms)
    mat = (amps.T * mu.weights) @ amps.conj()
    return validate_density(hermitize(mat), tols)


def _match_atoms(
    mu: DiscreteEnsemble, nu: DiscreteEnsemble, tol: float = TOL_MATCH
) -> list[Optional[int]]:
    """Map each mu-atom to the nu-atom representing the same ray, or None.

    Identity alignment is tried first (the common case: both ensembles share
    one atom list). Otherwise a per-atom nearest-neighbor search runs, and the
    match is rejected as ambiguous when two candidates or two claimants land
    within the tolerance.
    """
    if mu.dim != nu.dim:
        raise DimMismatch(f"ensemble dimensions differ: {mu.dim} vs {nu.dim}")
    if mu.atoms is nu.atoms:
        return list(range(len(mu)))
    if len(mu) == len(nu) and all(
        fubini_study(a, b) <= tol for a, b in zip(mu.atoms, nu.atoms)
    ):
        return list(range(len(mu)))

    mapping: list[Optional[int]] = []
    taken: dict[int, int] = {}
    for i, atom in enumerate(mu.atoms):
        hits = [j for j, b in enumerate(nu.atoms) if fubini_study(atom, b) <= tol]
        if len(hits) > 1:
            raise AmbiguousMatch(
                f"atom {i} matches {len(hits)} atoms within {tol:.1e}"
            )
        if hits:
            j = hits[0]
            if j in taken:
                raise AmbiguousMatch(
                    f"atoms {taken[j]} and {i} both match atom {j} within {tol:.1e}"
                )
            taken[j] = i
            mapping.append(j)
        else:
            mapping.append(None)
    return mapping


def kl_divergence(mu: DiscreteEnsemble, nu: DiscreteEnsemble) -> float:
    """Kullback-Leibler divergence D(mu || nu) in nats.

    Atoms are aligned by ray; mass of mu outside the support of nu makes the
    divergence infinite. Atoms carrying zero mu-weight contribute nothing.
    """
    mapping = _match_atoms(mu, nu)
    total = 0.0
    for i, w in enumerate(mu.weights):
        if w <= 0.0:
            continue
        j = mapping[i]
        if j is None or nu.weights[j] <= 0.0:
            return math.inf
        total += w * math.log(w / nu.weights[j])
    return float(total)


def f_divergence(
    mu: DiscreteEnsemble, nu: DiscreteEnsemble, gen: "DivergenceGenerator"
) -> float:
    """Classical f-divergence sum_k nu_k f(mu_k / nu_k) after atom alignment.

    Conventions: cells with nu_k = 0 contribute 0 when mu_k = 0 and make the
    divergence infinite when mu_k > 0; cells with mu_k = 0 contribute
    nu_k * f(0+) through the generator's stored limit.
    """
    mapping = _match_atoms(mu, nu)
    mu_on_nu = np.zeros(len(nu))
    for i, j in enumerate(mapping):
        if j is None:
            if mu.weights[i] > 0.0:
                return math.inf
        else:
            mu_on_nu[j] = mu.weights[i]

    total = 0.0
    for p, q in zip(mu_on_nu, nu.weights):
        if q <= 0.0:
            if p > 0.0:
                return math.inf
            continue
        contrib = q * (gen.f_zero if p == 0.0 else float(gen.f(p / q)))
        if math.isinf(contrib):
            return math.inf
        total += contrib
    return float(total)


@dataclass(frozen=True)
class CoarseKernel:
    """Deterministic coarse-graining: atom index -> covering center.

    Built greedily in atom order, so every atom sits within ``radius`` of its
    center. The kernel is index-based and can be replayed on any ensemble
    sharing the source atom list.
    """

    centers: tuple[PureState, ...]
    assignment: tuple[int, ...]
    radius: float

    def apply(self, mu: DiscreteEnsemble) -> DiscreteEnsemble:
        if len(mu) != len(self.assignment):
            raise DimMismatch(
                f"kernel covers {len(self.assignment)} atoms, ensemble has {len(mu)}"
            )
        for i, c in enumerate(self.assignment):
            d = fubini_study(mu.atoms[i], self.centers[c])
            if d > self.radius + 1e-12:
                raise DimMismatch(
                    f"atom {i} lies {d:.3e} from its center, beyond radius {self.radius}"
                )
        w = np.zeros(len(self.centers))
        for i, c in enumerate(self.assignment):
            w[c] += mu.weights[i]
        return DiscreteEnsemble(self.centers, w)


def coarse_grain(
    mu: DiscreteEnsemble, radius: float
) -> tuple[CoarseKernel, DiscreteEnsemble]:
    """Greedy ball cover of the atoms; returns the kernel and the coarsened
    ensemble. The first uncovered atom in order opens a new center."""
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    centers: list[PureState] = []
    assignment: list[int] = []
    for atom in mu.atoms:
        placed = False
        for c, center in enumerate(centers):
            if fubini_study(atom, center) <= radius:
                assignment.append(c)
                placed = True
                break
        if not placed:
            centers.append(atom)
            assignment.append(len(centers) - 1)
    kernel = CoarseKernel(tuple(centers), tuple(assignment), float(radius))
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


def greedy_coupling(mu: DiscreteEnsemble, nu: DiscreteEnsemble) -> list[tuple[int, int, float]]:
    """Transport plan built by draining the closest atom pairs first.

    Pairs are visited in ascending Fubini-Study distance (ties broken by
    index), each taking as much mass as both marginals still allow. A single
    pass drains everything, so the result is a valid coupling up to float
    dust.
    """
    if mu.dim != nu.dim:
        raise DimMismatch(f"ensemble dimensions differ: {mu.dim} vs {nu.dim}")
    pairs = sorted(
        ((fubini_study(a, b), i, j) for i, a in enumerate(mu.atoms) for j, b in enumerate(nu.atoms))
    )
    rem_mu = list(map(float, mu.weights))
    rem_nu = list(map(float, nu.weights))
    out = []
    for _, i, j in pairs:
        m = min(rem_mu[i], rem_nu[j])
        if m > 0.0:
            out.append((i, j, m))
            rem_mu[i] -= m
            rem_nu[j] -= m
    return out


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
    rhs = sum(m * fubini_study(mu.atoms[i], nu.atoms[j]) for i, j, m in matching)
    return float(lhs), float(rhs)
