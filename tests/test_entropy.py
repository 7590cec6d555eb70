import gc
import math
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import qunravel.commonbasis as commonbasis
import qunravel.entropy as entropy
import qunravel.matcore as matcore
from qunravel.ensembles import _near_pairs
from qunravel.matcore import DEFAULT_TOLS, Tolerances
from qunravel import (
    GENERATORS,
    DiscreteEnsemble,
    DivergenceGenerator,
    KrausMap,
    LindbladModel,
    RngStream,
    apply_cptp,
    bs_entropy,
    cb_measures,
    common_basis,
    contraction_scan,
    f_divergence,
    haar_pure,
    hermitize,
    kl_divergence,
    max_f_divergence,
    random_cptp,
    realize,
    sample_faithful,
    spectral_fn,
    umegaki,
    unr_entropy,
    validate_density,
)
from qunravel.errors import (
    DimMismatch,
    NotFaithful,
    NotOperatorConvex,
    NotTracePreserving,
)

KL_34_12 = 0.13081203594113697
# log 2 - h(1e-6) with h the binary entropy
UMEGAKI_NEAR_PURE = 0.6931323650498873

RHO_C = validate_density(np.diag([0.75, 0.25]))
SIGMA_C = validate_density(np.diag([0.5, 0.5]))


def test_zero_on_identical_states():
    rng = RngStream(61)
    for dim in (2, 3, 4):
        rho = sample_faithful(dim, rng)
        assert abs(umegaki(rho, rho)) < 1e-10
        assert abs(bs_entropy(rho, rho)) < 1e-10
        assert abs(unr_entropy(rho, rho)) < 1e-10
        for gen in GENERATORS.values():
            assert abs(max_f_divergence(rho, rho, gen)) < 1e-10


def test_commuting_pair_equals_classical_kl():
    for fn in (umegaki, bs_entropy, unr_entropy):
        assert fn(RHO_C, SIGMA_C) == pytest.approx(KL_34_12, abs=1e-12)


def test_umegaki_near_pure_closed_form():
    rho = validate_density(np.diag([1.0 - 1e-6, 1e-6]))
    assert umegaki(rho, SIGMA_C) == pytest.approx(UMEGAKI_NEAR_PURE, abs=1e-12)


def test_rejects_rank_deficient_input():
    pure = validate_density(np.diag([1.0, 0.0]))
    with pytest.raises(NotFaithful):
        umegaki(pure, SIGMA_C)
    with pytest.raises(NotFaithful):
        bs_entropy(SIGMA_C, pure)
    with pytest.raises(DimMismatch):
        umegaki(SIGMA_C, validate_density(np.eye(3) / 3))


def test_ordering_umegaki_below_bs():
    rng = RngStream(62)
    strict = 0
    total = 0
    for dim in (2, 3, 4):
        for _ in range(50):
            rho = sample_faithful(dim, rng)
            sigma = sample_faithful(dim, rng)
            d_u = umegaki(rho, sigma)
            d_bs = bs_entropy(rho, sigma)
            assert d_u <= d_bs + 1e-9
            total += 1
            strict += int(d_bs - d_u > 1e-6)
    # generic non-commuting pairs separate the two entropies
    assert strict / total >= 0.5


def test_bs_equals_unr_on_random_pairs():
    rng = RngStream(63)
    for dim in (2, 3, 4, 8):
        for _ in range(50):
            rho = sample_faithful(dim, rng)
            sigma = sample_faithful(dim, rng)
            d_bs = bs_entropy(rho, sigma)
            d_unr = unr_entropy(rho, sigma)
            assert abs(d_bs - d_unr) <= 1e-8 * max(1.0, d_bs)


def test_bs_unitary_invariance():
    rng = RngStream(64)
    for _ in range(10):
        rho = sample_faithful(3, rng)
        sigma = sample_faithful(3, rng)
        u, _ = np.linalg.qr(rng.complex_normal((3, 3)))
        rho_u = validate_density(u @ rho.matrix @ u.conj().T)
        sigma_u = validate_density(u @ sigma.matrix @ u.conj().T)
        assert bs_entropy(rho_u, sigma_u) == pytest.approx(
            bs_entropy(rho, sigma), abs=1e-9
        )


def test_bs_joint_convexity_spot_check():
    rng = RngStream(65)
    for _ in range(10):
        r1, r2 = sample_faithful(2, rng), sample_faithful(2, rng)
        s1, s2 = sample_faithful(2, rng), sample_faithful(2, rng)
        t = rng.gen.uniform(0.1, 0.9)
        rho_mix = validate_density(t * r1.matrix + (1 - t) * r2.matrix)
        sigma_mix = validate_density(t * s1.matrix + (1 - t) * s2.matrix)
        mixed = bs_entropy(rho_mix, sigma_mix)
        convex = t * bs_entropy(r1, s1) + (1 - t) * bs_entropy(r2, s2)
        assert mixed <= convex + 1e-9


def test_max_f_xlogx_reproduces_bs():
    rng = RngStream(66)
    gen = GENERATORS["xlogx"]
    for dim in (2, 3, 4):
        for _ in range(20):
            rho = sample_faithful(dim, rng)
            sigma = sample_faithful(dim, rng)
            assert max_f_divergence(rho, sigma, gen) == pytest.approx(
                bs_entropy(rho, sigma), abs=1e-9
            )


def test_max_f_chi_square_commuting():
    assert max_f_divergence(RHO_C, SIGMA_C, GENERATORS["x2mx"]) == pytest.approx(
        0.25, abs=1e-12
    )


def test_max_f_equals_classical_divergence_on_common_basis():
    rng = RngStream(67)
    for dim in (2, 4):
        for _ in range(30):
            rho = sample_faithful(dim, rng)
            sigma = sample_faithful(dim, rng)
            mu, nu = cb_measures(common_basis(rho, sigma))
            for gen in GENERATORS.values():
                quantum = max_f_divergence(rho, sigma, gen)
                classical = f_divergence(mu, nu, gen)
                assert abs(quantum - classical) <= 1e-8


@pytest.mark.parametrize("dim", [2, 3, 4, 8, 32])
def test_unr_entropy_is_the_kl_of_the_common_basis_measures(dim):
    # unr_entropy reads the two weight vectors directly; kl_divergence on
    # the validated measures must give the same number
    rng = RngStream(68)
    for _ in range(2 if dim == 32 else 10):
        rho = sample_faithful(dim, rng)
        sigma = sample_faithful(dim, rng)
        mu, nu = cb_measures(common_basis(rho, sigma))
        assert abs(unr_entropy(rho, sigma) - kl_divergence(mu, nu)) <= 1e-14


def test_generator_registry_contract():
    for gen in GENERATORS.values():
        assert gen.operator_convex
        assert abs(float(gen.f(np.float64(1.0)))) < 1e-14
    assert GENERATORS["neglog"].f_zero == math.inf
    with pytest.raises(ValueError):
        DivergenceGenerator("bad", lambda x: x, f_zero=1.0)


def test_max_f_refuses_unflagged_generator():
    shifted = DivergenceGenerator("abs1", lambda x: np.abs(x - 1.0), f_zero=1.0)
    with pytest.raises(NotOperatorConvex):
        max_f_divergence(RHO_C, SIGMA_C, shifted)


def test_max_f_reports_a_pair_error_before_the_generator_flag():
    # the pair is checked where its core is built, ahead of the flag, and a
    # failed check is not kept: the same call on the same states raises again
    pure = validate_density(np.diag([1.0, 0.0]))
    shifted = DivergenceGenerator("abs1", lambda x: np.abs(x - 1.0), f_zero=1.0)
    for _ in range(2):
        with pytest.raises(NotFaithful):
            max_f_divergence(pure, SIGMA_C, shifted)


def test_kraus_identity_channel():
    phi = KrausMap((np.eye(2),))
    rng = RngStream(68)
    rho = sample_faithful(2, rng)
    assert np.abs(apply_cptp(phi, rho).matrix - rho.matrix).max() < 1e-14


def test_kraus_validation():
    with pytest.raises(NotTracePreserving):
        KrausMap((0.5 * np.eye(2),))
    with pytest.raises(DimMismatch):
        KrausMap(())
    # the identity defect is NaN here, which a plain "defect > tol" lets through
    with pytest.raises(NotTracePreserving, match="by nan"):
        KrausMap((np.full((2, 2), np.nan),))


def test_pauli_twirl_depolarizes():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.diag([1.0, -1.0]).astype(complex)
    phi = KrausMap((0.5 * np.eye(2), 0.5 * sx, 0.5 * sy, 0.5 * sz))
    rng = RngStream(69)
    for _ in range(5):
        rho = sample_faithful(2, rng)
        out = apply_cptp(phi, rho)
        assert np.abs(out.matrix - np.eye(2) / 2).max() < 1e-12


def test_random_cptp_single_kraus_is_unitary():
    rng = RngStream(70)
    phi = random_cptp(3, 3, 1, rng)
    k = phi.operators[0]
    assert np.abs(k.conj().T @ k - np.eye(3)).max() < 1e-10


def test_random_cptp_trace_preserving_and_dpi():
    rng = RngStream(71)
    for dim in (2, 3, 4):
        for _ in range(20):
            phi = random_cptp(dim, dim, dim, rng)
            rho = sample_faithful(dim, rng)
            sigma = sample_faithful(dim, rng)
            rho_out = apply_cptp(phi, rho)
            sigma_out = apply_cptp(phi, sigma)
            assert np.trace(rho_out.matrix).real == pytest.approx(1.0, abs=1e-10)
            if not (rho_out.faithful and sigma_out.faithful):
                continue
            assert bs_entropy(rho_out, sigma_out) <= bs_entropy(rho, sigma) + 1e-9


def test_random_cptp_needs_enough_output_room():
    rng = RngStream(72)
    with pytest.raises(DimMismatch):
        random_cptp(4, 1, 2, rng)


def seeded_pairs(dims=(2, 3, 4, 8, 32), per_dim=4, seed=67):
    rng = RngStream(seed)
    for dim in dims:
        for _ in range(per_dim):
            yield sample_faithful(dim, rng), sample_faithful(dim, rng)


def eigen_coordinate_formulas(r, s):
    """Umegaki, BS, and the pair core with its weights, written out in the
    eigen-coordinates of fresh decompositions of r and s: M = V_s^dag V_r,
    B = W_s^-1/2 M W_r^1/2 and the core B B^dag, on which BS is the sum of
    x log x against sigma's weights."""
    (wr, vr), (ws, vs) = matcore.herm_eig(r), matcore.herm_eig(s)
    weigh = lambda p, u: (p[None, :] @ np.abs(u) ** 2)[0]
    d_u = wr @ np.log(wr) - np.log(ws) @ weigh(wr, vr.conj().T @ vs)
    b = (vs.conj().T @ vr) * (wr[None, :] / ws[:, None]) ** 0.5
    core, vecs = matcore.herm_eig(hermitize(b @ b.conj().T))
    weights = weigh(ws, vecs)
    d_bs = (core * np.log(core) * weights).sum()
    return float(d_u), float(d_bs), core, weights


def test_divergences_equal_their_formulas_from_fresh_decompositions():
    # the states' stored spectra must give what decomposing from scratch gives,
    # through the same eigen-coordinate formulas (the matrix formulas: the
    # tolerance test below)
    for rho, sigma in seeded_pairs():
        d_u, d_bs, _, _ = eigen_coordinate_formulas(rho.matrix, sigma.matrix)
        assert umegaki(rho, sigma) == d_u
        assert bs_entropy(rho, sigma) == d_bs


def test_divergences_equal_their_matrix_formulas():
    # Tr[rho (log rho - log sigma)], Tr[rho log(sqrt(rho) sigma^-1 sqrt(rho))] and
    # Tr[sigma f(sigma^-1/2 rho sigma^-1/2)], each built from matrix functions
    def fn(m, f):
        return spectral_fn(m, f, DEFAULT_TOLS.eps_faithful)

    for rho, sigma in seeded_pairs():
        r, s = rho.matrix, sigma.matrix
        expected = [np.trace(r @ (fn(r, np.log) - fn(s, np.log))).real]
        sr = fn(r, np.sqrt)
        expected.append(np.trace(r @ fn(hermitize(sr @ fn(s, np.reciprocal) @ sr), np.log)).real)
        isr = fn(s, lambda x: x ** -0.5)
        core = hermitize(isr @ r @ isr)
        got = [umegaki(rho, sigma), bs_entropy(rho, sigma)]
        for gen in GENERATORS.values():
            expected.append(np.trace(s @ spectral_fn(core, gen.f, 0.0)).real)
            got.append(max_f_divergence(rho, sigma, gen))
        for value, formula in zip(got, expected):
            assert abs(value - formula) <= 1e-12 * max(1.0, abs(formula))
        kappa = common_basis(rho, sigma).eigenvalues
        ir = fn(r, lambda x: x ** -0.5)
        assert np.abs(kappa - np.linalg.eigvalsh(hermitize(ir @ s @ ir))).max() <= 1e-12 * kappa[-1]


def count_eigensolves(monkeypatch):
    """Route herm_eig and _gram_eig, under every name the package imported them
    as, through a recorder of the matrices they are asked to decompose (for
    _gram_eig, the Gram product F F^dag of its factor), in call order."""
    seen = []
    modules = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "qunravel"]
    for orig, product in ((matcore.herm_eig, lambda m: m), (matcore._gram_eig, lambda f: f @ f.conj().T)):

        def counted(mat, tols=None, orig=orig, product=product):
            seen.append(np.array(product(mat), copy=True))
            return orig(mat, tols)

        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    monkeypatch.setattr(mod, attr, counted)
    return seen


def test_each_divergence_decomposes_only_its_core(monkeypatch):
    rng = RngStream(68)
    pairs = [(sample_faithful(d, rng), sample_faithful(d, rng)) for d in (2, 3, 8)]
    seen = count_eigensolves(monkeypatch)
    calls = [(umegaki, 0), (bs_entropy, 1), (unr_entropy, 1)]
    # BS and the generators share one spectrum of their core per pair
    calls += [(lambda r, s, g=g: max_f_divergence(r, s, g), 0) for g in GENERATORS.values()]
    for rho, sigma in pairs:
        for fn, expected in calls:
            seen.clear()
            fn(rho, sigma)
            assert len(seen) == expected
            for mat in seen:
                assert not np.array_equal(mat, rho.matrix)
                assert not np.array_equal(mat, sigma.matrix)


def benchmark_pair_op(r, s):
    """One pair the way the sweep benchmark and ``qunravel entropy`` use it."""
    rho, sigma = validate_density(r), validate_density(s)
    values = [umegaki(rho, sigma), bs_entropy(rho, sigma), unr_entropy(rho, sigma)]
    mu, nu = cb_measures(common_basis(rho, sigma))
    for gen in GENERATORS.values():
        values += [max_f_divergence(rho, sigma, gen), f_divergence(mu, nu, gen)]
    return values


def test_pair_op_decomposes_each_core_once(monkeypatch):
    rng = RngStream(69)
    seen = count_eigensolves(monkeypatch)
    for dim in (2, 3, 4, 8):
        r, s = sample_faithful(dim, rng).matrix, sample_faithful(dim, rng).matrix
        seen.clear()
        benchmark_pair_op(r, s)
        # two validations, then the core sigma^-1/2 rho sigma^-1/2 that BS and
        # max-f share and the basis's A = rho^-1/2 sigma rho^-1/2, each decomposed
        # on its own
        assert len(seen) == 4
        assert np.array_equal(seen[0], r) and np.array_equal(seen[1], s)
        assert not np.allclose(seen[2], seen[3])


def test_pair_op_checks_the_pair_once_per_build(monkeypatch):
    # umegaki checks its pair; BS and max-f rely on the check of the cached core
    # build, unr_entropy and cb_measures on that of the cached basis build
    calls = []
    orig = entropy.check_pair
    for mod in (entropy, commonbasis):
        monkeypatch.setattr(mod, "check_pair", lambda *a: calls.append(a) or orig(*a))
    rng = RngStream(70)
    for dim in (2, 3, 8):
        calls.clear()
        benchmark_pair_op(sample_faithful(dim, rng).matrix, sample_faithful(dim, rng).matrix)
        assert len(calls) == 3


def test_pair_op_makes_five_lapack_eigensolves_and_no_numpy_one(monkeypatch):
    # the four herm_eig calls and the basis Gram check each call zheevd once
    def numpy_eigensolve(*args, **kwargs):
        raise AssertionError("a sweep pair reached numpy's eigensolver")

    monkeypatch.setattr(np.linalg, "eigh", numpy_eigensolve)
    monkeypatch.setattr(np.linalg, "eigvalsh", numpy_eigensolve)
    calls = []
    orig = matcore._zheevd
    monkeypatch.setattr(matcore, "_zheevd", lambda m, **kw: calls.append(kw) or orig(m, **kw))
    rng = RngStream(73)
    for dim in (2, 3, 4, 8):
        r, s = sample_faithful(dim, rng).matrix, sample_faithful(dim, rng).matrix
        calls.clear()
        benchmark_pair_op(r, s)
        assert sorted(kw["compute_v"] for kw in calls) == [0] + [1] * 4


def test_memo_holds_only_the_latest_pair():
    rng = RngStream(70)
    rho, sigma = sample_faithful(3, rng), sample_faithful(3, rng)
    unr_entropy(rho, sigma)
    max_f_divergence(rho, sigma, GENERATORS["xlogx"])
    ref = weakref.ref(rho)
    other = sample_faithful(3, rng), sample_faithful(3, rng)
    unr_entropy(*other)
    max_f_divergence(*other, GENERATORS["xlogx"])
    del rho, sigma
    gc.collect()
    assert ref() is None


def test_max_f_core_is_rebuilt_for_another_pair_or_tolerance(monkeypatch):
    rng = RngStream(71)
    rho, sigma = sample_faithful(3, rng), sample_faithful(3, rng)
    twin = validate_density(rho.matrix)
    xlogx = GENERATORS["xlogx"]
    seen = count_eigensolves(monkeypatch)
    max_f_divergence(rho, sigma, xlogx)
    for args in (
        (sigma, rho),
        (rho, sigma, Tolerances(tol_recon=2e-10)),
        (twin, sigma),
        (rho, sigma),
    ):
        seen.clear()
        max_f_divergence(*args[:2], xlogx, *args[2:])
        assert len(seen) == 1
    seen.clear()
    max_f_divergence(rho, sigma, GENERATORS["neglog"], DEFAULT_TOLS)
    assert seen == []


def test_threads_on_different_pairs_get_their_own_results():
    rng = RngStream(72)
    pairs = [(sample_faithful(3, rng), sample_faithful(3, rng)) for _ in range(6)]
    xlogx = GENERATORS["xlogx"]
    expected = [
        (unr_entropy(*fresh), max_f_divergence(*fresh, xlogx))
        for fresh in ((validate_density(r.matrix), validate_density(s.matrix)) for r, s in pairs)
    ]
    mismatches = []

    def worker(k):
        for j in range(100):
            i = (k + j) % len(pairs)
            got = (unr_entropy(*pairs[i]), max_f_divergence(*pairs[i], xlogx))
            if got != expected[i]:
                mismatches.append((i, got))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert mismatches == []


def test_shared_results_equal_fresh_ones_bit_for_bit():
    # every call on fresh copies of the states misses both memos; the max-f
    # values also equal the generator's spectral sum on a fresh decomposition
    for rho, sigma in seeded_pairs(per_dim=2):
        fresh = lambda: (validate_density(rho.matrix), validate_density(sigma.matrix))
        shared = benchmark_pair_op(rho.matrix, sigma.matrix)
        expected = [umegaki(*fresh()), bs_entropy(*fresh()), unr_entropy(*fresh())]
        mu, nu = cb_measures(common_basis(*fresh()))
        _, _, core, weights = eigen_coordinate_formulas(rho.matrix, sigma.matrix)
        for gen in GENERATORS.values():
            maxf = max_f_divergence(*fresh(), gen)
            assert maxf == float((gen.f(core) * weights).sum())
            expected += [maxf, f_divergence(mu, nu, gen)]
        assert shared == expected


@settings(max_examples=30, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 3, 4]))
def test_property_shared_spectrum_and_divergence_order(seed, dim):
    rng = RngStream(seed)
    g = rng.complex_normal((dim, dim))
    m = g @ g.conj().T
    m = 0.98 * m / np.real(np.trace(m)) + 0.02 * np.eye(dim) / dim
    rho = validate_density(m)
    sigma = sample_faithful(dim, rng)
    vals, vecs = rho.eig
    assert np.abs((vecs * vals) @ vecs.conj().T - rho.matrix).max() < 1e-13
    bs = bs_entropy(rho, sigma)
    assert bs >= umegaki(rho, sigma) - 1e-9
    assert abs(bs - unr_entropy(rho, sigma)) <= 1e-8 * max(1.0, bs)


def test_channel_to_a_larger_output_space():
    # a qubit channel into d = 3: faithful outputs, and BS contracts through it
    rng = RngStream(11)
    phi = random_cptp(2, 3, 2, rng)
    assert (phi.dim_in, phi.dim_out) == (2, 3)
    rho, sigma = sample_faithful(2, rng), sample_faithful(2, rng)
    out_rho, out_sigma = apply_cptp(phi, rho), apply_cptp(phi, sigma)
    for out in (out_rho, out_sigma):
        assert out.dim == 3
        assert out.eig.eigenvalues[0] > 0.05
    assert bs_entropy(out_rho, out_sigma) <= bs_entropy(rho, sigma)


def test_kraus_map_rejects_an_empty_operator():
    with pytest.raises(DimMismatch, match=r"nonempty matrices, got shape \(0, 0\)"):
        KrausMap((np.zeros((0, 0)),))


def test_random_cptp_rejects_dimension_zero():
    with pytest.raises(DimMismatch):
        random_cptp(0, 1, 1, RngStream(41))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: KrausMap((np.eye(2), np.eye(3))), r"shapes differ: \(3, 3\) vs \(2, 2\)"),
        (
            lambda: apply_cptp(KrausMap((np.eye(3),)), SIGMA_C),
            "channel expects dim 3, state has 2",
        ),
        (lambda: random_cptp(2, 2, 0, RngStream(42)), "at least one Kraus operator, got 0"),
    ],
    ids=["kraus-shapes", "apply-cptp", "random-cptp-no-operator"],
)
def test_channels_reject_mismatched_dimensions(call, message):
    with pytest.raises(DimMismatch, match=message):
        call()


def edge_state(dim, lam, rng):
    """A state with smallest eigenvalue lam, the rest of its spectrum at least
    lam and Dirichlet-spread, in a Haar-random eigenbasis (QR of a complex
    Gaussian matrix, with the phases of R's diagonal taken into Q)."""
    q, r = np.linalg.qr(rng.complex_normal((dim, dim)))
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    w = np.empty(dim)
    w[0] = lam
    w[1:] = lam + (1.0 - dim * lam) * rng.gen.dirichlet(np.ones(dim - 1))
    return validate_density((u * w) @ u.conj().T)


@pytest.mark.parametrize("lam", [1e-6, 1e-8])
@pytest.mark.parametrize("dim", [2, 4, 8])
def test_criteria_01_and_11_hold_at_the_ill_conditioned_edge(dim, lam):
    # both states' smallest eigenvalue at lam, far below sample_faithful's
    # 0.02 / dim floor: the basis must build, and BS and max-f must still equal
    # their classical counterparts on it
    rng = RngStream(2026)
    for _ in range(40):
        rho, sigma = edge_state(dim, lam, rng), edge_state(dim, lam, rng)
        mu, nu = cb_measures(common_basis(rho, sigma))
        bs = bs_entropy(rho, sigma)
        assert abs(bs - unr_entropy(rho, sigma)) <= 1e-8 * max(1.0, bs)
        for gen in GENERATORS.values():
            f = f_divergence(mu, nu, gen)
            assert abs(max_f_divergence(rho, sigma, gen) - f) <= 1e-8 * max(1.0, abs(f))


def input_precision_tol(mu, nu, gen, slope, lam):
    """First-order error of Tr[sigma f(core)] that the inputs' precision
    allows. Entries rounded to unit roundoff u move each state's spectrum by
    at most d u (Weyl), which fixes an eigenvalue near lam only to d u / lam
    relative; so each core eigenvalue c_i = mu_i / nu_i is fixed to
    eps = 2 d u / lam relative (rho's part and sigma's), and each weight nu_i
    to eps, which moves sum_i nu_i f(c_i) by at most
    eps sum_i nu_i (|f(c_i)| + c_i |f'(c_i)|)."""
    c = mu.weights / nu.weights
    eps = 2 * mu.dim * (np.finfo(float).eps / 2) / lam
    return eps * sum(n * (abs(gen.f(x)) + x * abs(slope(x))) for n, x in zip(nu.weights, c))


@pytest.mark.parametrize("lam", [1e-10, 1e-11])
@pytest.mark.parametrize("dim", [2, 4, 8])
def test_the_far_ill_conditioned_edge_raises_nowhere(dim, lam):
    # smallest eigenvalues between 10 eps_faithful and 1e-10: both states are
    # valid and faithful, so BS, max-f and the scan must all finish, and
    # criteria 01 and 11 must hold within what the inputs' precision allows
    rng = RngStream(2026)
    zero = LindbladModel(np.zeros((dim, dim)))
    for _ in range(40):
        rho, sigma = edge_state(dim, lam, rng), edge_state(dim, lam, rng)
        mu, nu = cb_measures(common_basis(rho, sigma))
        bs = bs_entropy(rho, sigma)
        assert abs(bs - unr_entropy(rho, sigma)) <= 1e-8 * max(1.0, bs)
        for name, gen in GENERATORS.items():
            f = f_divergence(mu, nu, gen)
            tol = input_precision_tol(mu, nu, gen, GENERATOR_SLOPES[name], lam)
            assert abs(max_f_divergence(rho, sigma, gen) - f) <= tol
        contraction_scan(zero, rho, sigma, np.linspace(0.0, 0.5, 6))


@settings(max_examples=60, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 8),
    lam=st.sampled_from([None, 1e-4, 1e-6, 1e-8]),
)
def test_property_common_basis_measures_pass_every_ensemble_check(seed, dim, lam):
    # cb_measures runs no ensemble check: the basis's own checks must imply them
    rng = RngStream(seed)
    if lam is None:
        rho, sigma = sample_faithful(dim, rng), sample_faithful(dim, rng)
    else:
        rho, sigma = edge_state(dim, lam, rng), edge_state(dim, lam, rng)
    mu, nu = cb_measures(common_basis(rho, sigma))
    for m in (mu, nu):
        checked = DiscreteEnsemble(m.amps, m.weights)
        assert np.array_equal(checked.amps, m.amps)
        assert np.array_equal(checked.weights, m.weights)
    assert list(_near_pairs(mu.amps)) == []
    assert unr_entropy(rho, sigma) == kl_divergence(mu, nu)


# f' of each generator, for the first-order error bound below
GENERATOR_SLOPES = {
    "xlogx": lambda x: math.log(x) + 1.0,
    "x2mx": lambda x: 2.0 * x - 1.0,
    "neglog": lambda x: -1.0 / x,
}


def spectral_sum_tol(rho, sigma, f, slope):
    """First-order bound on the error of Tr[A f(core)], Tr A = 1, for either
    pair core (spectrum within [lo, hi] = [min rho / max sigma, max rho / min
    sigma]) when each of the three decompositions meets its ``herm_eig``
    round-trip budget, tol_recon * d * max(1, ||M||_F): the core's own budget,
    plus the states' budgets carried into the core through sigma^-1 and
    sqrt(rho), moves its spectrum by at most delta, and the sum by delta times
    the largest |f'| on [lo, hi] (f is convex, so that is at an end); the
    states' budgets move the weights, which sum to Tr A, by at most
    tol_recon * d, and the sum by that times the largest |f|."""
    d, eta = rho.dim, DEFAULT_TOLS.tol_recon * rho.dim
    (r_lo, r_hi), (s_lo, s_hi) = (s.eig.eigenvalues[[0, -1]] for s in (rho, sigma))
    lo, hi = r_lo / s_hi, r_hi / s_lo
    delta = eta * (max(1.0, math.sqrt(d) * hi) + d * hi * (s_hi / s_lo + math.sqrt(r_hi / r_lo)))
    return delta * max(abs(slope(lo)), abs(slope(hi))) + eta * max(1.0, abs(f(lo)), abs(f(hi)))


@st.composite
def realizing_pairs(draw):
    """Two Dirichlet weight vectors on one support of d to 3d - 1 Haar atoms."""
    dim = draw(st.sampled_from([2, 3, 4, 8]))
    k = draw(st.integers(dim, 3 * dim - 1))
    rng = RngStream(draw(st.integers(0, 2**32 - 1)))
    atoms = np.stack([haar_pure(dim, rng).amplitudes for _ in range(k)])
    mu = DiscreteEnsemble(atoms, rng.gen.dirichlet(np.ones(k)))
    nu = DiscreteEnsemble(atoms, rng.gen.dirichlet(np.ones(k)))
    rho, sigma = realize(mu), realize(nu)
    assume(rho.faithful and sigma.faithful)
    return mu, nu, rho, sigma


@settings(max_examples=60, deadline=None, database=None)
@given(pair=realizing_pairs())
def test_property_every_realizing_pair_pays_at_least_bs(pair):
    mu, nu, rho, sigma = pair
    tol = spectral_sum_tol(rho, sigma, math.log, lambda x: 1.0 / x)
    assert kl_divergence(mu, nu) >= bs_entropy(rho, sigma) - tol


@settings(max_examples=60, deadline=None, database=None)
@given(pair=realizing_pairs())
def test_property_every_realizing_pair_pays_at_least_max_f(pair):
    mu, nu, rho, sigma = pair
    assert GENERATOR_SLOPES.keys() == GENERATORS.keys()
    for name, gen in GENERATORS.items():
        tol = spectral_sum_tol(rho, sigma, gen.f, GENERATOR_SLOPES[name])
        assert f_divergence(mu, nu, gen) >= max_f_divergence(rho, sigma, gen) - tol
