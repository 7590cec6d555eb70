"""Discrete ensembles of pure states and the classical layer on top of them.

An ensemble is a finitely supported probability measure on rays: atoms are
pure states, pairwise distinct in Fubini-Study distance, with nonnegative
weights summing to one. An ensemble stores only the atoms' amplitudes, as
the rows of one ``(k, d)`` array ``amps``, and its weights; everything here
reads that array, and ``atoms`` builds ``PureState`` objects on access for
API callers. Divergences between two ensembles are computed after moving
the weights of one onto the atom order of the other; atoms closer than
``TOL_MATCH`` count as the same ray. KL is the f-divergence of the ``xlogx``
generator, and every divergence sums its cells in one loop (``_f_sum``);
``entropy`` takes the generators from here. One screen, ``_near_pairs``,
finds the rows within ``TOL_MATCH`` of each other in blocks of rows, and it
serves distinctness, merging and alignment alike: the constructor rejects a
support with a close pair, ``_merged_ensemble`` merges every such pair, and
the divergences match the atoms of two supports through it. Each support is
screened for distinctness once, or not at all where its builder proves it
(``DiscreteEnsemble._distinct``): ``_merged_ensemble``'s merge leaves no
close pair, and ``cb_measures`` reuses its first measure's screened rows.
Coarse-graining and couplings live here too,
since both are purely measure-level operations on angle tables.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .errors import (
    AmbiguousMatch,
    DimMismatch,
    EmptyEnsemble,
    InvalidCoupling,
)
from .matcore import DEFAULT_TOLS, Tolerances, hermitize
from .states import (
    DensityMatrix,
    PureState,
    canonical_rows,
    check_unit_rows,
    fs_angles,
    trace_distance,
    validate_density,
)

__all__ = [
    "TOL_MATCH",
    "DivergenceGenerator",
    "GENERATORS",
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


@dataclass(frozen=True)
class DivergenceGenerator:
    """Scalar generator of an f-divergence.

    ``f`` must vanish at 1 and act elementwise on numpy arrays. ``f_zero``
    stores the limit of f at 0+ explicitly (it can be infinite, which no
    floating-point probe would recover). ``operator_convex`` is a trust flag:
    the quantum maximal divergence refuses generators without it.
    """

    name: str
    f: Callable[[np.ndarray], np.ndarray]
    f_zero: float
    operator_convex: bool = False

    def __post_init__(self):
        at_one = float(np.asarray(self.f(np.float64(1.0))))
        if abs(at_one) > 1e-14:
            raise ValueError(f"generator {self.name!r} has f(1) = {at_one!r}, expected 0")


def _xlogx(x):
    return x * np.log(x)


def _x2mx(x):
    return x * x - x


def _neglog(x):
    return -np.log(x)


GENERATORS: dict[str, DivergenceGenerator] = {
    "xlogx": DivergenceGenerator("xlogx", _xlogx, f_zero=0.0, operator_convex=True),
    "x2mx": DivergenceGenerator("x2mx", _x2mx, f_zero=0.0, operator_convex=True),
    "neglog": DivergenceGenerator("neglog", _neglog, f_zero=np.inf, operator_convex=True),
}


def _near_pairs(
    a: np.ndarray, b: Optional[np.ndarray] = None
) -> Iterator[tuple[int, int, float]]:
    """Pairs (i, j) of a row i of ``a`` and a row j of ``b`` within
    Fubini-Study distance ``TOL_MATCH``, ordered by i then j, each with its
    distance; without ``b``, the pairs i < j of rows of ``a``."""
    # two-stage: a cheap overlap screen in blocks of at most 512 rows of a and
    # 2^19 overlaps, 8 MB (against the upper triangle when a meets itself), then
    # the accurate angle only for suspicious pairs
    other = a if b is None else b
    block = max(1, min(512, (1 << 19) // len(other)))
    for start in range(0, a.shape[0], block):
        cols_from = start if b is None else 0
        ov = np.abs(a[start : start + block].conj() @ other[cols_from:].T)
        i, j = np.nonzero(ov >= OVERLAP_SCREEN)
        i, j = i + start, j + cols_from
        if b is None:
            upper = i < j
            i, j = i[upper], j[upper]
        if i.size:
            angles = fs_angles(a[i], other[j])
            for p, q, d in zip(i.tolist(), j.tolist(), angles.tolist()):
                if d <= TOL_MATCH:
                    yield p, q, d


def _merge_coincident(amps: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge every group of rows linked by distances within ``TOL_MATCH`` into
    its first row, which carries the group's summed weight. Every pair within
    ``TOL_MATCH`` is linked, so no two of the returned rows are that close."""
    root = list(range(len(amps)))

    def find(k: int) -> int:
        while root[k] != k:
            k = root[k]
        return k

    for i, j, _ in _near_pairs(amps):
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
        if not isinstance(atoms, np.ndarray):
            rows = [a.amplitudes for a in atoms]
            dims = sorted({r.size for r in rows})
            if len(dims) > 1:
                raise DimMismatch(f"atom dimensions differ: {dims}")
            atoms = np.stack(rows) if rows else np.empty((0, 1))
        self._store(atoms, weights)
        for i, j, d in _near_pairs(self.amps):
            raise ValueError(
                f"atoms {i} and {j} coincide up to phase "
                f"(Fubini-Study distance {d:.3e} <= {TOL_MATCH:.1e})"
            )

    @classmethod
    def _distinct(cls, amps: np.ndarray, weights) -> "DiscreteEnsemble":
        """Every constructor check but the pairwise screen, for rows proven
        distinct beyond ``TOL_MATCH``; a checked array is stored as is."""
        ens = object.__new__(cls)
        ens._store(amps, weights)
        return ens

    def _store(self, amps: np.ndarray, weights) -> None:
        amps = np.ascontiguousarray(amps, dtype=complex)
        if amps.ndim != 2 or amps.shape[1] == 0:
            raise DimMismatch(f"atoms must form a (k, d) array with d >= 1, got {amps.shape}")
        if amps.shape[0] == 0:
            raise EmptyEnsemble("ensemble needs at least one atom")
        check_unit_rows(amps)
        w = np.ascontiguousarray(weights, dtype=float)
        if w.ndim != 1 or w.size != len(amps):
            raise DimMismatch(f"got {w.size} weights for {len(amps)} atoms")
        if not (w >= 0).all():  # a NaN weight fails here too
            raise ValueError(f"weights must be nonnegative, got {w.min()!r}")
        if not abs(w.sum() - 1.0) <= WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {w.sum()!r}, not 1")
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


def _merged_ensemble(rows: np.ndarray, weights: np.ndarray) -> DiscreteEnsemble:
    """Ensemble of unit ``rows``: phases fixed, rows within ``TOL_MATCH`` merged
    into the first of them with their ``weights`` summed, weights normalized."""
    canon = canonical_rows(rows)
    # exact duplicates (the noiseless case) merge in one sort, in order of first
    # occurrence; rows distinct but within TOL_MATCH are merged next
    _, first, label = np.unique(canon, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    summed = np.bincount(label.ravel(), weights=weights)[order]
    amps, summed = _merge_coincident(canon[first[order]], summed)
    return DiscreteEnsemble._distinct(amps, summed / summed.sum())


def realize(mu: DiscreteEnsemble, tols: Tolerances = DEFAULT_TOLS) -> DensityMatrix:
    """Barycenter sum_k w_k |psi_k><psi_k| as a validated density matrix."""
    mat = (mu.amps.T * mu.weights) @ mu.amps.conj()
    return validate_density(hermitize(mat), tols)


def _aligned_weights(mu: DiscreteEnsemble, nu: DiscreteEnsemble) -> Optional[np.ndarray]:
    """mu's weights moved onto nu's atom order, or None when mu puts mass on a
    ray that nu lacks.

    Only ensembles that share one array align without a screen (the common
    case, as ``cb_measures`` builds them). Otherwise rays are matched through
    ``_near_pairs``, and the match is rejected as ambiguous when an atom of
    either ensemble lies within the tolerance of two atoms of the other,
    whatever the lengths of the supports.
    """
    if mu.dim != nu.dim:
        raise DimMismatch(f"ensemble dimensions differ: {mu.dim} vs {nu.dim}")
    if mu.amps is nu.amps:
        return mu.weights

    pairs = np.array([(i, j) for i, j, _ in _near_pairs(mu.amps, nu.amps)], dtype=np.intp)
    i, j = pairs.reshape(-1, 2).T
    for side, hits in (("mu", i), ("nu", j)):
        twice = np.flatnonzero(np.bincount(hits) > 1)
        if twice.size:
            raise AmbiguousMatch(
                f"{side} atom {twice[0]} lies within {TOL_MATCH:.1e} of several atoms"
            )
    if (np.delete(mu.weights, i) > 0.0).any():
        return None
    out = np.zeros(len(nu))
    out[j] = mu.weights[i]
    return out


def kl_divergence(mu: DiscreteEnsemble, nu: DiscreteEnsemble) -> float:
    """Kullback-Leibler divergence D(mu || nu) in nats: ``f_divergence`` with
    the ``xlogx`` generator. Mass of mu outside the support of nu makes it
    infinite; atoms carrying zero mu-weight contribute nothing."""
    return f_divergence(mu, nu, GENERATORS["xlogx"])


def f_divergence(mu: DiscreteEnsemble, nu: DiscreteEnsemble, gen: DivergenceGenerator) -> float:
    """Classical f-divergence sum_k nu_k f(mu_k / nu_k) after atom alignment.

    Conventions: cells with nu_k = 0 contribute 0 when mu_k = 0 and make the
    divergence infinite when mu_k > 0; cells with mu_k = 0 contribute
    nu_k * f(0+) through the generator's stored limit.
    """
    p = _aligned_weights(mu, nu)
    return math.inf if p is None else _f_sum(p, nu.weights, gen)


def _f_sum(p: np.ndarray, q: np.ndarray, gen: DivergenceGenerator) -> float:
    """``f_divergence`` of two weight vectors on one atom list."""
    # a scalar loop: at the few cells of one pair it beats a masked numpy sum
    total = 0.0
    for w, v in zip(p.tolist(), q.tolist()):
        if v <= 0.0:
            if w > 0.0:
                return math.inf
            continue
        contrib = v * (gen.f_zero if w == 0.0 else float(gen.f(w / v)))
        if math.isinf(contrib):
            return math.inf
        total += contrib
    return total


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
    if not radius >= 0:  # a NaN radius fails here too
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
        if not m >= 0:  # a NaN mass fails here too
            raise InvalidCoupling(f"negative or NaN mass {m!r} on pair ({i}, {j})")
        mu_marg[i] += m
        nu_marg[j] += m
    if not np.abs(mu_marg - mu.weights).max() <= 1e-10:
        raise InvalidCoupling("left marginal does not reproduce mu")
    if not np.abs(nu_marg - nu.weights).max() <= 1e-10:
        raise InvalidCoupling("right marginal does not reproduce nu")

    lhs = trace_distance(realize(mu), realize(nu))
    i, j, m = zip(*matching)  # nonempty: the marginals above sum to 1
    rhs = np.dot(m, fs_angles(mu.amps[list(i)], nu.amps[list(j)]))
    return float(lhs), float(rhs)
