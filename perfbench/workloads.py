"""The benchmark's workloads: seeded inputs, timed calls and their gates.

Every workload is closed-loop: one caller in one process, and the next
operation starts when the previous one returns. A workload makes all of its
inputs from the seed with its own recipes; the package receives only the
generated matrices, models and config files. ``ops()`` yields ``Op``s. Their
``call`` runs the package and is the timed part. Their ``reference``
computes the same result independently, with the benchmark's own numpy code
in ``gates``; it is timed apart, right after the call, and ``check`` compares
the two. Building the inputs happens outside both timed regions.

Calls reach the package through module attributes (``Q.umegaki``), looked
up at call time, so the traced run sees the instrumented functions.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

import qunravel as Q
import qunravel.cli
import qunravel.ldp

import gates

MIX = 0.02  # weight of the maximally mixed state in every generated state
GENERATOR_NAMES = ("xlogx", "x2mx", "neglog")  # as gates.F_GENERATORS


@dataclass(frozen=True)
class Op:
    kind: str  # input class; latency medians are taken per kind
    items: int  # work units (pairs, scan points, paths, rate points)
    attempted: int  # operations this call counts for in fail_frac
    call: Callable[[], Any]
    reference: Callable[[], Any]
    check: Callable[[Any, Any], gates.Verdict]  # (call's output, reference's)
    extra: dict | None = None  # input facts the traced run needs


def _rng(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng([seed, *tag.encode()])


def ginibre_states(rng: np.random.Generator, dim: int, count: int) -> np.ndarray:
    """(count, dim, dim) faithful states: normalized G G^dag mixed 2 % to I/dim."""
    g = rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal((count, dim, dim))
    m = g @ g.conj().transpose(0, 2, 1)
    m /= np.trace(m, axis1=1, axis2=2).real[:, None, None]
    return (1.0 - MIX) * m + MIX * np.eye(dim) / dim


class Sweep:
    """Divergence identities on one fresh faithful pair per operation.

    Dimensions are cycled. Raw matrices come from the seed in blocks: the
    first block in set-up, later ones between operations, so no pair repeats
    within a run whatever the program's speed.
    """

    unit = "pairs"
    rate_name = "pairs_per_s"
    block = 64

    def __init__(self, name: str, seed: int, dims: tuple[int, ...], trace_ops: int):
        self.name = name
        self.seed = seed
        self.dims = dims
        self.trace_ops = trace_ops  # operations in the fixed traced work

    def setup(self, workdir: str) -> None:
        self.gens = [Q.GENERATORS[g] for g in GENERATOR_NAMES]
        self._rng = _rng(self.seed, self.name)
        self._buf = {d: [] for d in self.dims}
        for d in self.dims:
            self._refill(d)
        for d in self.dims:  # warm-up on a pair that is not reused
            self._pair_op(*ginibre_states(_rng(self.seed, "warm"), d, 2))

    def _refill(self, d: int) -> None:
        states = ginibre_states(self._rng, d, 2 * self.block)
        self._buf[d] = list(zip(states[0::2], states[1::2]))[::-1]

    def _next_pair(self, d: int):
        if not self._buf[d]:
            self._refill(d)
        return self._buf[d].pop()

    def _pair_op(self, r: np.ndarray, s: np.ndarray):
        rho = Q.validate_density(r)
        sigma = Q.validate_density(s)
        d_u = Q.umegaki(rho, sigma)
        d_bs = Q.bs_entropy(rho, sigma)
        d_unr = Q.unr_entropy(rho, sigma)
        mu, nu = Q.cb_measures(Q.common_basis(rho, sigma))
        max_f = [
            (Q.max_f_divergence(rho, sigma, g), Q.f_divergence(mu, nu, g))
            for g in self.gens
        ]
        return d_u, d_bs, d_unr, max_f

    def ops(self) -> Iterator[Op]:
        for d in itertools.cycle(self.dims):
            r, s = self._next_pair(d)
            yield Op(
                kind=f"d{d}",
                items=1,
                attempted=1,
                call=lambda r=r, s=s: self._pair_op(r, s),
                reference=lambda r=r, s=s: gates.pair_reference(r, s),
                check=lambda out, ref: gates.check_pair(*out, ref),
                extra={"pairs": 1},
            )


def random_model(rng: np.random.Generator, dim: int, n_jumps: int = 2):
    """Random Hermitian H and Gaussian jumps, rates in [0.2, 1) (criterion 08)."""
    cn = lambda shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    h = cn((dim, dim))
    h = 0.5 * (h + h.conj().T)
    jumps = tuple(cn((dim, dim)) / math.sqrt(dim) for _ in range(n_jumps))
    rates = tuple(float(g) for g in rng.uniform(0.2, 1.0, n_jumps))
    return Q.LindbladModel(h, jumps, rates)


class FlowScan:
    """21-point ``contraction_scan`` on t in [0, 2] of a fresh random 2-jump
    model and state pair per operation.

    Each model and pair is drawn from the seed just before its operation, so
    none repeats within a run. The reference propagates the same inputs with
    ``gates.scan_reference`` (own generator, ``scipy.linalg.expm`` per point)
    and the check compares every point.
    """

    unit = "scan points"
    rate_name = "scan_points_per_s"

    def __init__(self, name: str, seed: int, dims=(8,), points: int = 21, trace_ops: int = 8):
        self.name = name
        self.seed = seed
        self.trace_ops = trace_ops
        self.dims = dims
        self.times = np.linspace(0.0, 2.0, points)

    def setup(self, workdir: str) -> None:
        self._rng = _rng(self.seed, self.name)
        warm = _rng(self.seed, "warm")
        for d in self.dims:  # warm-up: a two-point scan per dimension
            r, s = ginibre_states(warm, d, 2)
            Q.contraction_scan(random_model(warm, d), Q.validate_density(r),
                               Q.validate_density(s), self.times[[0, -1]])

    def ops(self) -> Iterator[Op]:
        for d in itertools.cycle(self.dims):
            model = random_model(self._rng, d)
            r, s = ginibre_states(self._rng, d, 2)
            rho, sigma = Q.validate_density(r), Q.validate_density(s)
            yield Op(
                kind=f"d{d}",
                items=len(self.times),
                attempted=1,
                call=lambda m=model, r=rho, s=sigma: Q.contraction_scan(m, r, s, self.times),
                reference=lambda m=model, r=r, s=s: gates.scan_reference(
                    gates.lindblad_generator(m.hamiltonian, m.jumps, m.rates), r, s, self.times),
                check=lambda out, ref: gates.check_scan(out, self.times, ref),
                extra={"scan_points": len(self.times)},
            )


def _matrix_json(m: np.ndarray) -> dict:
    return {
        "dim": int(m.shape[0]),
        "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in m],
    }


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@dataclass(frozen=True)
class LdpCase:
    kind: str
    path: str
    sizes: tuple[int, ...]
    known_underflow: tuple[int, ...]  # sizes whose inf rate is the known defect
    ref: gates.LdpReference


class Sanov:
    """One in-process ``qunravel ldp`` call per config file.

    Per cycle: the criterion-10 pair diag(.75, .25) vs I/2 at eps 0.01 and
    n = 50..400; the underflow pair diag(.97, .03) vs diag(.03, .97) at eps
    0.01 and n = 50..200; and a random d=3 and a random d=4 pair at eps 0.05.
    Each config is written to a new file before its call. The two fixed pairs
    are conjugated by a fresh Haar unitary each time: their rates are
    unitarily invariant, so the experiment stays the same while no input
    repeats within a run.

    The underflow pair's n=400 point is the program's known underflow defect
    (an inf rate although the event is not empty). It is not among the timed
    operations, which must all pass; ``defect_probe`` runs it once per run,
    untimed, and reports it.
    """

    unit = "rate points"
    rate_name = "rate_points_per_s"
    fixed = (
        ("crit10", np.diag([0.75, 0.25]), np.eye(2) / 2, 0.01, (50, 100, 200, 400), ()),
        ("underflow", np.diag([0.97, 0.03]), np.diag([0.03, 0.97]), 0.01, (50, 100, 200), ()),
    )
    probe = ("underflow", np.diag([0.97, 0.03]), np.diag([0.03, 0.97]), 0.01, (400,), (400,))
    random_dims = ((3, 0.05, (15, 30, 45, 60)), (4, 0.05, (15, 30, 45, 60)))

    def __init__(self, name: str, seed: int, trace_ops: int = 32):
        self.name = name
        self.seed = seed
        self.trace_ops = trace_ops

    def setup(self, workdir: str) -> None:
        self.workdir = workdir
        self.csv = os.path.join(workdir, "rates.csv")
        self._rng = _rng(self.seed, self.name)
        kind, r, s, eps, sizes, known = self.fixed[0]
        self._run(self.write_case(kind, r, s, eps, sizes, known, "warm").path)

    def write_case(self, kind, r, s, eps, sizes, known, tag) -> LdpCase:
        r = np.asarray(r, dtype=complex)
        s = np.asarray(s, dtype=complex)
        path = os.path.join(self.workdir, f"ldp_{tag}_{kind}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"rho": _matrix_json(r), "sigma": _matrix_json(s),
                 "epsilon": eps, "sample_sizes": list(sizes)},
                fh,
            )
        return LdpCase(kind, path, sizes, known, gates.LdpReference.build(r, s, eps))

    def _cases(self) -> Iterator[tuple]:
        for kind, r, s, eps, sizes, known in self.fixed:
            u = haar_unitary(self._rng, r.shape[0])
            yield kind, u @ r @ u.conj().T, u @ s @ u.conj().T, eps, sizes, known
        for d, eps, sizes in self.random_dims:
            r, s = ginibre_states(self._rng, d, 2)
            yield f"d{d}", r, s, eps, sizes, ()

    def _run(self, path: str) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return Q.cli.main(["ldp", path, "--out", self.csv])

    def _check(self, case: LdpCase, code: int, brackets: dict) -> gates.Verdict:
        if code != 0:
            return gates.Verdict(len(case.sizes), [f"cli exit code {code}"] * len(case.sizes))
        with open(self.csv, encoding="utf-8") as fh:
            lines = fh.read().split()[1:]
        rows = [(int(f[0]), float(f[2])) for f in (line.split(",") for line in lines)]
        verdict = gates.check_rates(case.ref, rows, case.sizes, Q.ldp.tolerance_budget,
                                    brackets, case.known_underflow)
        verdict.failures = [f"{f} [{case.kind} pair]" for f in verdict.failures]
        verdict.known = [f"{f} [{case.kind} pair]" for f in verdict.known]
        return verdict

    def defect_probe(self) -> gates.Verdict:
        """The known-defect point, on a fresh conjugate of the underflow pair.

        ``known`` lists it while the program still returns an inf rate there;
        any other wrong answer is in ``failures``.
        """
        kind, r, s, eps, sizes, known = self.probe
        u = haar_unitary(self._rng, r.shape[0])
        case = self.write_case(kind, u @ r @ u.conj().T, u @ s @ u.conj().T, eps, sizes, known, "probe")
        code = self._run(case.path)
        return self._check(case, code, gates.rate_reference(case.ref, case.sizes))

    def ops(self) -> Iterator[Op]:
        for i in itertools.count():
            for spec in self._cases():
                case = self.write_case(*spec, tag=f"{i:06d}")
                k = len(case.ref.sigma_weights)
                yield Op(
                    kind=case.kind,
                    items=len(case.sizes),
                    attempted=len(case.sizes),
                    call=lambda c=case: self._run(c.path),
                    reference=lambda c=case: gates.rate_reference(c.ref, c.sizes),
                    check=lambda code, brackets, c=case: self._check(c, code, brackets),
                    extra={"count_vectors": sum(math.comb(n + k - 1, k - 1) for n in case.sizes)},
                )


WORKLOADS = {
    "sweep_small": lambda seed: Sweep("sweep_small", seed, (2, 3, 4, 8), trace_ops=800),
    "sweep_large": lambda seed: Sweep("sweep_large", seed, (32,), trace_ops=200),
    "flow_scan": lambda seed: FlowScan("flow_scan", seed),
    "sanov": lambda seed: Sanov("sanov", seed),
}
