"""End-to-end checks of the package's headline guarantees.

Every test prints one summary line, so running

    pytest tests/test_acceptance.py -v -s

doubles as a report. Budgeted sweeps time themselves and fail when they
run over.
"""
import math
import time

import numpy as np
import pytest

from qunravel import (
    GENERATORS,
    DiscreteEnsemble,
    LindbladModel,
    PureState,
    RngStream,
    apply_cptp,
    basis_match,
    bs_entropy,
    cb_measures,
    common_basis,
    contraction_scan,
    coupling_bound_check,
    coarse_grain,
    dual_consistency,
    evolve_ensemble,
    f_divergence,
    greedy_coupling,
    haar_pure,
    kl_divergence,
    lindblad_evolve,
    make_experiment,
    max_f_divergence,
    product_coupling,
    random_cptp,
    rate_curve,
    realize,
    sample_faithful,
    trace_distance,
    umegaki,
    unr_entropy,
    validate_density,
)

N_SWEEP = 10_000
KL_34_12 = 0.13081203594113697
DAMPING = LindbladModel(np.zeros((2, 2)), (np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),), (1.0,))


def report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} [{name}]: {status} ({detail})")
    return ok


def floored_simplex(dim, rng):
    w = rng.gen.dirichlet(np.ones(dim))
    return 0.9 * w + 0.1 / dim


def random_model(dim, rng, n_jumps=1):
    h = rng.complex_normal((dim, dim))
    h = 0.5 * (h + h.conj().T)
    jumps = tuple(rng.complex_normal((dim, dim)) / math.sqrt(dim) for _ in range(n_jumps))
    rates = tuple(float(g) for g in rng.gen.uniform(0.2, 1.0, n_jumps))
    return LindbladModel(h, jumps, rates)


@pytest.fixture(scope="module")
def haar_sweep():
    """(d_u, d_bs, d_unr) on N_SWEEP random faithful pairs per dimension."""
    rng = RngStream(7001)
    rows = {}
    t0 = time.perf_counter()
    for dim in (2, 3, 4, 8):
        block = np.empty((N_SWEEP, 3))
        for i in range(N_SWEEP):
            rho = sample_faithful(dim, rng)
            sigma = sample_faithful(dim, rng)
            block[i] = (
                umegaki(rho, sigma),
                bs_entropy(rho, sigma),
                unr_entropy(rho, sigma),
            )
        rows[dim] = block
    return rows, time.perf_counter() - t0


def test_criterion_01_bs_equals_unraveled(haar_sweep):
    rows, elapsed = haar_sweep
    worst = 0.0
    for block in rows.values():
        scaled = np.abs(block[:, 1] - block[:, 2]) / np.maximum(1.0, block[:, 1])
        worst = max(worst, float(scaled.max()))
    ok = worst <= 1e-8 and elapsed <= 300.0
    assert report(
        1, "bs matches unraveled divergence", ok,
        f"max scaled gap {worst:.2e} over 4x{N_SWEEP} pairs, sweep {elapsed:.1f}s",
    )


def test_criterion_02_umegaki_below_bs(haar_sweep):
    rows, _ = haar_sweep
    worst = -math.inf
    frac = 1.0
    for block in rows.values():
        worst = max(worst, float((block[:, 0] - block[:, 1]).max()))
        # random pairs never commute, so every sample counts toward the split
        frac = min(frac, float(((block[:, 1] - block[:, 0]) > 1e-6).mean()))
    ok = worst <= 1e-9 and frac >= 0.5
    assert report(
        2, "umegaki below bs with a real gap", ok,
        f"max d_u - d_bs = {worst:.2e}, min strict-gap fraction {frac:.3f}",
    )


def test_criterion_03_commuting_pairs_classical():
    rng = RngStream(7003)
    worst = 0.0
    for i in range(1000):
        dim = (2, 3, 4, 8)[i % 4]
        p = floored_simplex(dim, rng)
        q = floored_simplex(dim, rng)
        rho = validate_density(np.diag(p))
        sigma = validate_density(np.diag(q))
        kl = float(np.sum(p * np.log(p / q)))
        worst = max(
            worst,
            abs(umegaki(rho, sigma) - kl),
            abs(bs_entropy(rho, sigma) - kl),
        )
    ok = worst <= 1e-10
    assert report(
        3, "diagonal pairs collapse to classical kl", ok,
        f"max deviation {worst:.2e} over 1000 pairs",
    )


def test_criterion_04_common_basis_reconstruction():
    rng = RngStream(7004)
    t0 = time.perf_counter()
    worst_recon = 0.0
    worst_dual = 0.0
    matches = 0
    total = 1000
    for i in range(total):
        dim = (2, 3, 4, 8)[i % 4]
        while True:
            rho = sample_faithful(dim, rng)
            sigma = sample_faithful(dim, rng)
            cb = common_basis(rho, sigma)
            if np.diff(cb.eigenvalues).min() > 1e-6:
                break
        psis = np.stack([p.amplitudes for p in cb.basis], axis=1)
        for coeffs, target in ((cb.rho_coeffs, rho), (cb.sigma_coeffs, sigma)):
            recon = validate_density((psis * coeffs) @ psis.conj().T)
            worst_recon = max(worst_recon, trace_distance(recon, target))
        worst_dual = max(worst_dual, dual_consistency(cb, rho) / dim)
        gram = psis.conj().T @ psis
        assert np.linalg.matrix_rank(gram) == dim
        perm = basis_match(cb, common_basis(sigma, rho))
        if perm is not None and sorted(perm) == list(range(dim)):
            matches += 1
    elapsed = time.perf_counter() - t0
    ok = (
        worst_recon <= 1e-9
        and worst_dual <= 1e-8
        and matches == total
        and elapsed <= 120.0
    )
    assert report(
        4, "common basis reconstructs both states", ok,
        f"recon {worst_recon:.2e}, dual/dim {worst_dual:.2e}, "
        f"matches {matches}/{total}, {elapsed:.1f}s",
    )


def test_criterion_05_channel_contraction():
    rng = RngStream(7005)
    worst = -math.inf
    gens = [GENERATORS[k] for k in ("xlogx", "x2mx", "neglog")]
    for dim in (2, 3, 4):
        done = 0
        while done < 100:
            phi = random_cptp(dim, dim, 2, rng)
            rho = sample_faithful(dim, rng)
            sigma = sample_faithful(dim, rng)
            rho_out = apply_cptp(phi, rho)
            sigma_out = apply_cptp(phi, sigma)
            if not (rho_out.faithful and sigma_out.faithful):
                continue
            worst = max(worst, bs_entropy(rho_out, sigma_out) - bs_entropy(rho, sigma))
            for gen in gens:
                worst = max(
                    worst,
                    max_f_divergence(rho_out, sigma_out, gen)
                    - max_f_divergence(rho, sigma, gen),
                )
            done += 1
    ok = worst <= 1e-9
    assert report(
        5, "cptp maps never increase the divergences", ok,
        f"max increase {worst:.2e} over 300 channel triples x 4 quantities",
    )


def test_criterion_06_coarse_graining_contracts_kl():
    rng = RngStream(7006)
    worst = -math.inf
    for i in range(100):
        dim = (2, 3, 4)[i % 3]
        atoms = tuple(haar_pure(dim, rng) for _ in range(dim + 2))
        mu = DiscreteEnsemble(atoms, floored_simplex(dim + 2, rng))
        nu = DiscreteEnsemble(atoms, floored_simplex(dim + 2, rng))
        base = kl_divergence(mu, nu)
        for radius in (0.1, 0.5, 1.0):
            kernel, coarse_mu = coarse_grain(mu, radius)
            coarse_nu = kernel.apply(nu)
            worst = max(worst, kl_divergence(coarse_mu, coarse_nu) - base)
    ok = worst <= 1e-10
    assert report(
        6, "coarse graining never raises kl", ok,
        f"max increase {worst:.2e} over 100 pairs x 3 radii",
    )


def test_criterion_07_coupling_bounds_trace_distance():
    rng = RngStream(7007)
    worst = -math.inf
    for i in range(100):
        dim = (2, 3, 4)[i % 3]
        mu = DiscreteEnsemble(
            tuple(haar_pure(dim, rng) for _ in range(4)), floored_simplex(4, rng)
        )
        nu = DiscreteEnsemble(
            tuple(haar_pure(dim, rng) for _ in range(3)), floored_simplex(3, rng)
        )
        for plan in (product_coupling(mu, nu), greedy_coupling(mu, nu)):
            lhs, rhs = coupling_bound_check(mu, nu, plan)
            worst = max(worst, lhs - rhs)
    ok = worst <= 1e-10
    assert report(
        7, "transport cost dominates trace distance", ok,
        f"max lhs - rhs = {worst:.2e} over 100 pairs x 2 matchings",
    )


def test_criterion_08_lindblad_flow_monotone():
    rng = RngStream(7008)
    times = np.linspace(0.0, 2.0, 21)
    worst = -math.inf
    for i in range(50):
        dim = (2, 3, 4)[i % 3]
        model = random_model(dim, rng, n_jumps=2)
        rho = sample_faithful(dim, rng)
        sigma = sample_faithful(dim, rng)
        series = contraction_scan(model, rho, sigma, times)
        values = [d for _, d in series]
        worst = max(worst, max(b - a for a, b in zip(values, values[1:])))
    rho1 = lindblad_evolve(DAMPING, validate_density(np.diag([0.0, 1.0])), 1.0)
    closed = np.diag([1.0 - math.exp(-1.0), math.exp(-1.0)])
    damping_err = float(np.abs(rho1.matrix - closed).max())
    ok = worst <= 1e-7 and damping_err <= 1e-9
    assert report(
        8, "divergence falls along lindblad flows", ok,
        f"max step increase {worst:.2e} over 50 models, damping error {damping_err:.2e}",
    )


def test_criterion_09_unraveling_tracks_the_flow():
    t0 = time.perf_counter()
    mu0 = DiscreteEnsemble((PureState(np.array([0.0, 1.0], dtype=complex)),), np.array([1.0]))
    out = evolve_ensemble(DAMPING, mu0, 1.0, 1e-3, N_SWEEP, RngStream(7009))
    target = lindblad_evolve(DAMPING, validate_density(np.diag([0.0, 1.0])), 1.0)
    td = trace_distance(realize(out), target)
    elapsed = time.perf_counter() - t0
    ok = td <= 0.02 and elapsed <= 120.0
    assert report(
        9, "trajectory average matches the exact flow", ok,
        f"trace distance {td:.4f} from {N_SWEEP} paths, {elapsed:.1f}s",
    )


def test_criterion_10_sanov_rate_approaches_bs():
    t0 = time.perf_counter()
    rho = validate_density(np.diag([0.75, 0.25]))
    sigma = validate_density(np.eye(2) / 2)
    exp = make_experiment(rho, sigma, 0.01, (50, 100, 200, 400))
    curve = rate_curve(exp)
    gaps = [abs(rate - KL_34_12) for _, rate in curve]
    shrinking = all(b < a for a, b in zip(gaps, gaps[1:]))
    final_gap = gaps[-1]
    elapsed = time.perf_counter() - t0
    ok = final_gap <= 0.05 and shrinking and elapsed <= 60.0
    assert report(
        10, "finite-n rate converges to bs", ok,
        f"|rate(400) - {KL_34_12:.6f}| = {final_gap:.4f}, "
        f"gaps {['%.3g' % g for g in gaps]}, {elapsed:.1f}s",
    )


def test_criterion_11_max_f_equals_basis_f():
    rng = RngStream(7011)
    worst = 0.0
    gens = [GENERATORS[k] for k in ("xlogx", "x2mx", "neglog")]
    for dim in (2, 4):
        for _ in range(1000):
            rho = sample_faithful(dim, rng)
            sigma = sample_faithful(dim, rng)
            mu, nu = cb_measures(common_basis(rho, sigma))
            for gen in gens:
                gap = abs(
                    max_f_divergence(rho, sigma, gen) - f_divergence(mu, nu, gen)
                )
                worst = max(worst, gap)
    ok = worst <= 1e-8
    assert report(
        11, "operator f-divergence matches its basis form", ok,
        f"max gap {worst:.2e} over 2000 pairs x 3 generators",
    )
