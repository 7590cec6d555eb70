import math

import numpy as np
import pytest

from qunravel import (
    DiscreteEnsemble,
    GENERATORS,
    LindbladModel,
    PureState,
    RngStream,
    cb_measures,
    coarse_grain,
    common_basis,
    coupling_bound_check,
    evolve_ensemble,
    f_divergence,
    fubini_study,
    greedy_coupling,
    haar_pure,
    kl_divergence,
    make_experiment,
    product_coupling,
    realize,
    sample_faithful,
    trace_distance,
    unr_entropy,
)
import qunravel.ensembles as ensembles
from qunravel.ensembles import _merge_coincident
from qunravel.errors import DimMismatch, EmptyEnsemble, InvalidCoupling

KET0 = PureState(np.array([1.0, 0.0], dtype=complex))
KET1 = PureState(np.array([0.0, 1.0], dtype=complex))
PLUS = PureState(np.array([1.0, 1.0], dtype=complex) / np.sqrt(2))

# closed form: 3/4 log(3/2) + 1/4 log(1/2)
KL_34_12 = 0.13081203594113697


def random_ensemble(dim, k, rng):
    atoms = tuple(haar_pure(dim, rng) for _ in range(k))
    w = rng.gen.dirichlet(np.ones(k))
    return DiscreteEnsemble(atoms, w)


def test_constructor_invariants():
    with pytest.raises(EmptyEnsemble):
        DiscreteEnsemble((), np.array([]))
    with pytest.raises(ValueError):
        DiscreteEnsemble((KET0, KET1), np.array([0.7, 0.7]))
    with pytest.raises(ValueError):
        DiscreteEnsemble((KET0, KET1), np.array([1.5, -0.5]))
    with pytest.raises(DimMismatch):
        DiscreteEnsemble((KET0,), np.array([0.5, 0.5]))
    with pytest.raises(DimMismatch):
        DiscreteEnsemble(
            (KET0, PureState(np.array([1.0, 0, 0], dtype=complex))),
            np.array([0.5, 0.5]),
        )


def test_constructor_rejects_duplicate_rays():
    phase_copy = PureState(KET0.amplitudes * np.exp(0.3j))
    with pytest.raises(ValueError):
        DiscreteEnsemble((KET0, phase_copy), np.array([0.5, 0.5]))


def test_array_input_matches_pure_state_input():
    rng = RngStream(32)
    for dim, k in ((2, 3), (3, 5), (4, 4)):
        atoms = tuple(haar_pure(dim, rng) for _ in range(k))
        amps = np.stack([a.amplitudes for a in atoms])
        w_mu = rng.gen.dirichlet(np.ones(k))
        w_nu = rng.gen.dirichlet(np.ones(k))
        from_states = DiscreteEnsemble(atoms, w_mu), DiscreteEnsemble(atoms, w_nu)
        from_array = DiscreteEnsemble(amps, w_mu), DiscreteEnsemble(amps, w_nu)
        for s, a in zip(from_states, from_array):
            assert np.array_equal(a.amps, s.amps)
            assert np.array_equal(a.weights, s.weights)
            assert np.array_equal(realize(a).matrix, realize(s).matrix)
            built = [x.amplitudes for x in a.atoms]
            assert [np.array_equal(x, y.amplitudes) for x, y in zip(built, atoms)] == [True] * k
        assert kl_divergence(*from_array) == kl_divergence(*from_states)
        assert kl_divergence(from_array[0], from_states[1]) == kl_divergence(*from_states)


@pytest.mark.parametrize(
    "rows, weights, error",
    [
        (np.array([[np.nan, 0.0], [0.0, 1.0]]), [0.5, 0.5], ValueError),
        (np.array([[1.0, 0.0], [np.inf, 1.0]]), [0.5, 0.5], ValueError),
        (np.array([[1.0, 1.0], [0.0, 1.0]]), [0.5, 0.5], ValueError),
        (np.array([[1.0 + 2e-12, 0.0]]), [1.0], ValueError),
        (np.array([[1.0, 0.0], [1j, 0.0]]), [0.5, 0.5], ValueError),
        (np.ones((1, 1, 2)) / np.sqrt(2), [1.0], DimMismatch),
        (np.empty((1, 0)), [1.0], DimMismatch),
        (np.eye(2), [1.0], DimMismatch),
        (np.empty((0, 2)), [], EmptyEnsemble),
    ],
    ids=[
        "nan", "inf", "non-unit", "norm-off-by-2e-12", "same-ray", "3-d",
        "no-columns", "weights-too-few", "no-rows",
    ],
)
def test_array_input_raises_like_the_pure_state_path(rows, weights, error):
    with pytest.raises(error):
        DiscreteEnsemble(rows, np.array(weights))
    with pytest.raises(error):
        DiscreteEnsemble(tuple(PureState(r) for r in rows), np.array(weights))


def test_nan_weights_are_rejected():
    # NaN compares False with any bound, so the weight checks must fail on it
    amps = np.stack([KET0.amplitudes, KET1.amplitudes])
    for build in (DiscreteEnsemble, DiscreteEnsemble._distinct):
        with pytest.raises(ValueError):
            build(amps, np.array([np.nan, np.nan]))
        with pytest.raises(ValueError):
            build(amps, np.array([np.nan, 1.0]))


def test_distinct_path_skips_only_the_pair_screen():
    same_ray = np.stack([KET0.amplitudes, 1j * KET0.amplitudes])
    assert len(DiscreteEnsemble._distinct(same_ray, np.array([0.5, 0.5]))) == 2
    for rows, weights, error in (
        (np.array([[np.nan, 0.0], [0.0, 1.0]]), [0.5, 0.5], ValueError),
        (np.array([[1.0, 1.0], [0.0, 1.0]]), [0.5, 0.5], ValueError),
        (np.array([[1.0, 0.0], [0.0, 1.0]]), [0.7, 0.7], ValueError),
        (np.array([[1.0, 0.0], [0.0, 1.0]]), [1.5, -0.5], ValueError),
        (np.eye(2), [1.0], DimMismatch),
        (np.empty((0, 2)), [], EmptyEnsemble),
    ):
        with pytest.raises(error):
            DiscreteEnsemble._distinct(rows, np.array(weights))


def test_each_support_is_screened_once(monkeypatch):
    calls = []
    screen = ensembles._near_pairs

    def counted(amps):
        calls.append(len(amps))
        return screen(amps)

    monkeypatch.setattr(ensembles, "_near_pairs", counted)
    rng = RngStream(35)
    mu, nu = cb_measures(common_basis(sample_faithful(3, rng), sample_faithful(3, rng)))
    assert calls == [3]
    assert nu.amps is mu.amps
    model = LindbladModel(np.zeros((2, 2)), (np.array([[0.0, 1.0], [0.0, 0.0]]),), (1.0,))
    mu0 = DiscreteEnsemble((KET1, PLUS), np.array([0.4, 0.6]))
    calls.clear()
    out = evolve_ensemble(model, mu0, 0.05, 0.01, 20, RngStream(36))
    assert calls == [len(out)] == [40]


def test_array_input_needs_one_row_per_atom():
    # a single state passed as a 1-d vector is not a (k, d) array
    with pytest.raises(DimMismatch):
        DiscreteEnsemble(KET0.amplitudes, np.array([1.0]))


def test_core_paths_build_no_pure_state(monkeypatch):
    rng = RngStream(33)
    rho = sample_faithful(3, rng)
    sigma = sample_faithful(3, rng)
    mu0 = DiscreteEnsemble((KET0, PLUS), np.array([0.4, 0.6]))
    model = LindbladModel(np.diag([1.0, -1.0]), (np.array([[0.0, 1.0], [0.0, 0.0]]),), (0.5,))
    built = []
    post_init = PureState.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(PureState, "__post_init__", counted)
    unr_entropy(rho, sigma)
    cb_measures(common_basis(rho, sigma))
    make_experiment(rho, sigma, 0.05, [10, 20])
    out = evolve_ensemble(model, mu0, 0.05, 0.01, 4, RngStream(34))
    assert built == []
    # the counter does see the atoms once they are asked for
    assert len(out.atoms) == len(built) == len(out)


def test_merge_coincident_sums_weights_along_chains():
    # KET0 tilted in steps of 0.6e-10: neighbours lie within TOL_MATCH, the
    # chain's ends (1.2e-10 apart) do not, and all three become one atom
    def tilted(angle):
        return PureState(np.array([math.cos(angle), math.sin(angle)], dtype=complex))

    atoms = [tilted(0.0), KET1, tilted(0.6e-10), PLUS, tilted(1.2e-10)]
    assert fubini_study(atoms[0], atoms[4]) > 1e-10
    amps = np.stack([a.amplitudes for a in atoms])
    merged, weights = _merge_coincident(amps, np.array([0.1, 0.2, 0.3, 0.15, 0.25]))
    # each group keeps its first row, bit for bit
    assert np.array_equal(merged, amps[[0, 1, 3]])
    assert len(merged) == 3
    assert np.allclose(weights, [0.65, 0.2, 0.15], rtol=0, atol=1e-15)
    DiscreteEnsemble(merged, weights)


def test_realize_single_atom():
    mu = DiscreteEnsemble((PLUS,), np.array([1.0]))
    assert np.allclose(realize(mu).matrix, PLUS.projector(), atol=1e-14)


def test_realize_computational_mixture():
    mu = DiscreteEnsemble((KET0, KET1), np.array([0.5, 0.5]))
    assert np.allclose(realize(mu).matrix, np.eye(2) / 2, atol=1e-14)


def test_realize_non_orthogonal_mixture():
    mu = DiscreteEnsemble((KET0, PLUS), np.array([0.5, 0.5]))
    expected = np.array([[0.75, 0.25], [0.25, 0.25]])
    assert np.allclose(realize(mu).matrix, expected, atol=1e-14)


def test_realize_is_affine_in_the_weights():
    rng = RngStream(21)
    atoms = tuple(haar_pure(3, rng) for _ in range(5))
    w1 = rng.gen.dirichlet(np.ones(5))
    w2 = rng.gen.dirichlet(np.ones(5))
    t = 0.3
    mixed = DiscreteEnsemble(atoms, t * w1 + (1 - t) * w2)
    direct = t * realize(DiscreteEnsemble(atoms, w1)).matrix + (1 - t) * realize(
        DiscreteEnsemble(atoms, w2)
    ).matrix
    assert np.abs(realize(mixed).matrix - direct).max() < 1e-12


def test_kl_divergence_closed_form():
    atoms = (KET0, KET1)
    mu = DiscreteEnsemble(atoms, np.array([0.75, 0.25]))
    nu = DiscreteEnsemble(atoms, np.array([0.5, 0.5]))
    assert kl_divergence(mu, nu) == pytest.approx(KL_34_12, abs=1e-14)
    assert kl_divergence(mu, mu) == 0.0


def test_kl_divergence_gibbs():
    rng = RngStream(22)
    for _ in range(30):
        atoms = tuple(haar_pure(2, rng) for _ in range(4))
        mu = DiscreteEnsemble(atoms, rng.gen.dirichlet(np.ones(4)))
        nu = DiscreteEnsemble(atoms, rng.gen.dirichlet(np.ones(4)))
        d = kl_divergence(mu, nu)
        assert d >= 0.0
        if d < 1e-12:
            assert np.abs(mu.weights - nu.weights).max() < 1e-6


def test_kl_divergence_unmatched_atom_is_infinite():
    mu = DiscreteEnsemble((KET0, PLUS), np.array([0.5, 0.5]))
    nu = DiscreteEnsemble((KET0, KET1), np.array([0.5, 0.5]))
    assert kl_divergence(mu, nu) == math.inf
    # zero-weight atoms outside the support cost nothing
    mu0 = DiscreteEnsemble((KET0, PLUS), np.array([1.0, 0.0]))
    assert kl_divergence(mu0, nu) == pytest.approx(math.log(2), abs=1e-14)


def test_f_divergence_xlogx_matches_kl():
    rng = RngStream(23)
    gen = GENERATORS["xlogx"]
    for _ in range(20):
        atoms = tuple(haar_pure(3, rng) for _ in range(5))
        mu = DiscreteEnsemble(atoms, rng.gen.dirichlet(np.ones(5)))
        nu = DiscreteEnsemble(atoms, rng.gen.dirichlet(np.ones(5)))
        assert f_divergence(mu, nu, gen) == pytest.approx(kl_divergence(mu, nu), abs=1e-12)


def test_kl_is_exactly_the_xlogx_f_divergence():
    xlogx = GENERATORS["xlogx"]
    rng = RngStream(10)
    pairs = []
    for dim in (2, 3, 4, 8):
        for _ in range(25):
            rho, sigma = sample_faithful(dim, rng), sample_faithful(dim, rng)
            pairs.append(cb_measures(common_basis(rho, sigma)))
    nu = DiscreteEnsemble((KET0, KET1), np.array([0.25, 0.75]))
    pairs += [
        # zero mu-cells, in nu's atom order and reversed
        (DiscreteEnsemble((KET0, KET1), np.array([1.0, 0.0])), nu),
        (DiscreteEnsemble((KET1, KET0), np.array([0.0, 1.0])), nu),
        # a cell empty on both sides
        (
            DiscreteEnsemble((KET0, KET1), np.array([1.0, 0.0])),
            DiscreteEnsemble((KET0, KET1), np.array([1.0, 0.0])),
        ),
        # unmatched atoms: without mu-mass, and carrying it
        (DiscreteEnsemble((KET0, PLUS), np.array([1.0, 0.0])), nu),
        (DiscreteEnsemble((KET0, PLUS), np.array([0.5, 0.5])), nu),
    ]
    for mu, nu in pairs:
        assert kl_divergence(mu, nu) == f_divergence(mu, nu, xlogx)
    assert kl_divergence(*pairs[-1]) == math.inf


def test_f_divergence_chi_square_closed_form():
    atoms = (KET0, KET1)
    mu = DiscreteEnsemble(atoms, np.array([0.75, 0.25]))
    nu = DiscreteEnsemble(atoms, np.array([0.5, 0.5]))
    # sum q (p/q)^2 - p = 9/8 + 1/8 - 1
    assert f_divergence(mu, nu, GENERATORS["x2mx"]) == pytest.approx(0.25, abs=1e-14)
    assert f_divergence(mu, mu, GENERATORS["x2mx"]) == 0.0


def test_f_divergence_neglog_zero_handling():
    atoms = (KET0, KET1)
    nu = DiscreteEnsemble(atoms, np.array([0.5, 0.5]))
    mu = DiscreteEnsemble(atoms, np.array([1.0, 0.0]))
    # -log generator blows up on an empty mu-cell that nu charges
    assert f_divergence(mu, nu, GENERATORS["neglog"]) == math.inf
    assert f_divergence(mu, nu, GENERATORS["xlogx"]) == pytest.approx(math.log(2))


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_a_cell_that_nu_leaves_empty_and_mu_charges_is_infinite(name):
    # the cell mu leaves empty and nu charges is test_f_divergence_neglog_zero_handling's
    mu = DiscreteEnsemble((KET0, KET1), np.array([0.5, 0.5]))
    nu = DiscreteEnsemble((KET0, KET1), np.array([1.0, 0.0]))
    assert f_divergence(mu, nu, GENERATORS[name]) == math.inf


def test_coarse_grain_identity_below_min_distance():
    mu = DiscreteEnsemble((KET0, KET1, PLUS), np.array([0.2, 0.3, 0.5]))
    kernel, out = coarse_grain(mu, 1e-6)
    assert kernel.assignment == (0, 1, 2)
    assert len(out) == 3
    assert np.array_equal(out.weights, mu.weights)


def test_coarse_grain_full_collapse():
    mu = DiscreteEnsemble((KET0, KET1, PLUS), np.array([0.2, 0.3, 0.5]))
    kernel, out = coarse_grain(mu, np.pi / 2)
    assert len(out) == 1
    assert out.weights[0] == pytest.approx(1.0)
    # first-seen atom is the representative
    assert fubini_study(out.atoms[0], KET0) < 1e-12


def test_coarse_grain_rejects_a_nan_radius():
    mu = DiscreteEnsemble((KET0, KET1), np.array([0.4, 0.6]))
    with pytest.raises(ValueError, match="radius must be nonnegative, got nan"):
        coarse_grain(mu, float("nan"))


TWO_ATOMS = DiscreteEnsemble((KET0, KET1), np.array([0.5, 0.5]))
QUTRIT_ATOMS = DiscreteEnsemble(np.eye(3, dtype=complex)[:2], np.array([0.5, 0.5]))


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: ensembles.CoarseKernel(KET0.amplitudes[None], (0,), 0.0).apply(TWO_ATOMS),
            "kernel covers 1 atoms, ensemble has 2",
        ),
        (
            lambda: ensembles.CoarseKernel(QUTRIT_ATOMS.amps, (0, 1), 0.0).apply(TWO_ATOMS),
            "kernel centers have dim 3, ensemble has 2",
        ),
        (
            lambda: ensembles.CoarseKernel(TWO_ATOMS.amps, (0, 0), 0.1).apply(TWO_ATOMS),
            "atom 1 lies 1.571e[+]00 from its center, beyond radius 0.1",
        ),
        (lambda: greedy_coupling(TWO_ATOMS, QUTRIT_ATOMS), "dimensions differ: 2 vs 3"),
        # the alignment before every divergence
        (lambda: kl_divergence(QUTRIT_ATOMS, TWO_ATOMS), "dimensions differ: 3 vs 2"),
    ],
    ids=[
        "kernel-atom-count", "kernel-center-dim", "kernel-radius", "greedy-coupling",
        "aligned-weights",
    ],
)
def test_measure_operations_reject_mismatched_supports(call, message):
    with pytest.raises(DimMismatch, match=message):
        call()


def test_coarse_grain_kernel_replays_on_shared_atoms():
    rng = RngStream(24)
    atoms = tuple(haar_pure(2, rng) for _ in range(12))
    mu = DiscreteEnsemble(atoms, rng.gen.dirichlet(np.ones(12)))
    nu = DiscreteEnsemble(atoms, rng.gen.dirichlet(np.ones(12)))
    for radius in (0.1, 0.5, 1.0):
        kernel, mu_c = coarse_grain(mu, radius)
        nu_c = kernel.apply(nu)
        assert kl_divergence(mu_c, nu_c) <= kl_divergence(mu, nu) + 1e-10


def test_classical_dpi_for_registry_generators():
    rng = RngStream(25)
    for _ in range(20):
        atoms = tuple(haar_pure(2, rng) for _ in range(8))
        mu = DiscreteEnsemble(atoms, rng.gen.dirichlet(np.ones(8)))
        nu = DiscreteEnsemble(atoms, rng.gen.dirichlet(np.ones(8)))
        kernel, mu_c = coarse_grain(mu, 0.4)
        nu_c = kernel.apply(nu)
        for gen in GENERATORS.values():
            before = f_divergence(mu, nu, gen)
            after = f_divergence(mu_c, nu_c, gen)
            assert after <= before + 1e-10


def test_product_coupling_marginals():
    rng = RngStream(26)
    mu = random_ensemble(2, 3, rng)
    nu = random_ensemble(2, 4, rng)
    plan = product_coupling(mu, nu)
    lhs, rhs = coupling_bound_check(mu, nu, plan)
    assert lhs <= rhs + 1e-10


def test_greedy_coupling_is_valid():
    rng = RngStream(27)
    for _ in range(25):
        mu = random_ensemble(3, 4, rng)
        nu = random_ensemble(3, 4, rng)
        greedy = greedy_coupling(mu, nu)
        lhs, rhs_greedy = coupling_bound_check(mu, nu, greedy)
        assert lhs <= rhs_greedy + 1e-10


def test_coupling_bound_identity_matching():
    rng = RngStream(28)
    mu = random_ensemble(2, 3, rng)
    plan = [(i, i, float(w)) for i, w in enumerate(mu.weights)]
    lhs, rhs = coupling_bound_check(mu, mu, plan)
    assert lhs == 0.0
    assert rhs < 1e-12  # angle of a ray with itself is zero only up to roundoff


def test_coupling_bound_singletons_sine_identity():
    # for two pure states the trace distance is exactly sin of the angle
    rng = RngStream(29)
    for _ in range(20):
        a = haar_pure(4, rng)
        b = haar_pure(4, rng)
        mu = DiscreteEnsemble((a,), np.array([1.0]))
        nu = DiscreteEnsemble((b,), np.array([1.0]))
        lhs, rhs = coupling_bound_check(mu, nu, [(0, 0, 1.0)])
        angle = fubini_study(a, b)
        assert lhs == pytest.approx(math.sin(angle), abs=1e-12)
        assert lhs <= rhs + 1e-12


def test_coupling_bound_rejects_bad_marginals():
    mu = DiscreteEnsemble((KET0, KET1), np.array([0.5, 0.5]))
    with pytest.raises(InvalidCoupling):
        coupling_bound_check(mu, mu, [(0, 0, 1.0)])
    with pytest.raises(InvalidCoupling, match="right marginal does not reproduce nu"):
        coupling_bound_check(mu, mu, [(0, 0, 0.5), (1, 0, 0.5)])
    with pytest.raises(InvalidCoupling):
        coupling_bound_check(mu, mu, [(0, 0, 0.5), (1, 1, 0.5), (0, 1, -0.1)])
    with pytest.raises(InvalidCoupling):
        coupling_bound_check(mu, mu, [(0, 5, 0.5), (1, 1, 0.5)])


def test_atom_support_spans_space_for_faithful_realization():
    # a faithful barycenter needs n linearly independent atoms
    rng = RngStream(30)
    for _ in range(10):
        atoms = tuple(haar_pure(3, rng) for _ in range(6))
        mu = DiscreteEnsemble(atoms, rng.gen.dirichlet(np.ones(6)))
        rho = realize(mu)
        if rho.faithful:
            amps = np.stack([a.amplitudes for a in atoms])
            assert np.linalg.matrix_rank(amps) == 3


def test_trace_distance_of_realizations_vs_weight_difference():
    # same atoms: trace distance bounded by half the weight l1 distance
    rng = RngStream(31)
    atoms = tuple(haar_pure(2, rng) for _ in range(5))
    w1 = rng.gen.dirichlet(np.ones(5))
    w2 = rng.gen.dirichlet(np.ones(5))
    mu = DiscreteEnsemble(atoms, w1)
    nu = DiscreteEnsemble(atoms, w2)
    td = trace_distance(realize(mu), realize(nu))
    assert td <= 0.5 * np.abs(w1 - w2).sum() + 1e-12


def _tilted(angle):
    return PureState(np.array([math.cos(angle), math.sin(angle)], dtype=complex))


def test_alignment_rejects_atom_near_two_atoms():
    # the mu atom sits 0.6e-10 from both ends of a nu pair 1.2e-10 apart
    from qunravel.errors import AmbiguousMatch

    mu = DiscreteEnsemble((_tilted(0.6e-10), KET1), np.array([0.5, 0.5]))
    nu = DiscreteEnsemble((_tilted(0.0), _tilted(1.2e-10), PLUS), np.array([0.3, 0.3, 0.4]))
    with pytest.raises(AmbiguousMatch):
        kl_divergence(mu, nu)
    with pytest.raises(AmbiguousMatch):
        f_divergence(mu, nu, GENERATORS["xlogx"])


def test_alignment_rejects_two_atoms_near_one_atom():
    # both mu atoms match nu's first atom; nu's second atom (KET1) matches none
    from qunravel.errors import AmbiguousMatch

    mu = DiscreteEnsemble((_tilted(0.0), _tilted(1.2e-10)), np.array([0.5, 0.5]))
    nu = DiscreteEnsemble((_tilted(0.6e-10), KET1), np.array([0.5, 0.5]))
    with pytest.raises(AmbiguousMatch):
        kl_divergence(mu, nu)
    with pytest.raises(AmbiguousMatch):
        f_divergence(mu, nu, GENERATORS["x2mx"])


def test_same_length_supports_matched_row_by_row_are_still_ambiguous():
    # row k of mu lies within TOL_MATCH of row k of nu, but mu's first atom
    # (0.75e-10) lies as close to nu's second (1.5e-10): equal lengths are no
    # shortcut past the ambiguity rule, as a zero-weight third atom shows
    from qunravel.errors import AmbiguousMatch

    nu = DiscreteEnsemble((_tilted(0.0), _tilted(1.5e-10)), np.array([0.5, 0.5]))
    mu = DiscreteEnsemble((_tilted(0.75e-10), _tilted(2.0e-10)), np.array([0.5, 0.5]))
    padded = DiscreteEnsemble((*nu.atoms, PLUS), np.array([0.5, 0.5, 0.0]))
    for other in (nu, padded):
        with pytest.raises(AmbiguousMatch, match="mu atom 0 lies within"):
            kl_divergence(mu, other)
        with pytest.raises(AmbiguousMatch, match="mu atom 0 lies within"):
            f_divergence(mu, other, GENERATORS["x2mx"])


def test_alignment_moves_weights_onto_the_other_atom_order():
    # the same rays in reverse order, one with a global phase: weights follow
    # the rays, not the positions
    mu = DiscreteEnsemble((KET0, PLUS), np.array([0.75, 0.25]))
    nu = DiscreteEnsemble(
        (PureState(PLUS.amplitudes * np.exp(0.4j)), KET0), np.array([0.4, 0.6])
    )
    expected = 0.25 * math.log(0.25 / 0.4) + 0.75 * math.log(0.75 / 0.6)
    assert kl_divergence(mu, nu) == pytest.approx(expected, abs=1e-14)
    lost = DiscreteEnsemble((KET1, PLUS), np.array([0.75, 0.25]))
    assert kl_divergence(lost, nu) == math.inf
    assert f_divergence(lost, nu, GENERATORS["xlogx"]) == math.inf


def test_coupling_bound_check_rejects_a_nan_mass():
    mu = DiscreteEnsemble((KET0, KET1), np.array([0.5, 0.5]))
    with pytest.raises(InvalidCoupling, match="NaN mass nan on pair"):
        coupling_bound_check(mu, mu, [(0, 0, math.nan), (1, 1, 0.5)])


def unit_rows(rng, k, d):
    v = rng.standard_normal((k, d)) + 1j * rng.standard_normal((k, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def tilted(row, angle, rng):
    """Two rays at Fubini-Study distance ``angle`` from the unit ``row``, on
    opposite sides of it (``2 * angle`` apart), phase rotated."""
    w = rng.standard_normal(row.size) + 1j * rng.standard_normal(row.size)
    w -= np.vdot(row, w) * row
    w /= np.linalg.norm(w)
    return [(math.cos(angle) * row + s * math.sin(angle) * w) * np.exp(0.7j) for s in (1, -1)]


def cross_pairs_by_full_table(a, b):
    """The screen of both supports as one unblocked overlap table."""
    i, j = np.nonzero(np.abs(a.conj() @ b.T) >= ensembles.OVERLAP_SCREEN)
    close = ensembles.fs_angles(a[i], b[j]) <= ensembles.TOL_MATCH
    return list(zip(i[close].tolist(), j[close].tolist()))


def test_blocked_cross_screen_finds_the_pairs_of_the_full_table():
    # planted pairs on both sides of the 512-row block boundary; two tilts
    # pass the overlap screen but not TOL_MATCH
    rng = np.random.default_rng(44)
    a, b = unit_rows(rng, 1100, 4), unit_rows(rng, 900, 4)
    for i, j, angle in ((3, 800, 0.0), (511, 10, 3e-11), (512, 11, 9e-11), (1099, 0, 5e-7), (700, 450, 2e-10)):
        b[j] = tilted(a[i], angle, rng)[0]
    pairs = [(i, j) for i, j, _ in ensembles._near_pairs(a, b)]
    assert pairs == cross_pairs_by_full_table(a, b) == [(3, 800), (511, 10), (512, 11)]

    nu = DiscreteEnsemble(b, np.full(900, 1 / 900))
    assert kl_divergence(DiscreteEnsemble(a, np.full(1100, 1 / 1100)), nu) == math.inf
    inside = DiscreteEnsemble(a[[3, 511, 512]], np.array([0.5, 0.25, 0.25]))
    expected = 0.5 * math.log(450) + 0.5 * math.log(225)
    assert kl_divergence(inside, nu) == pytest.approx(expected, rel=1e-14)

    # two rays of nu within TOL_MATCH of a[600], 1.2e-10 apart
    b[20], b[21] = tilted(a[600], 6e-11, rng)
    assert [(i, j) for i, j, _ in ensembles._near_pairs(a, b)] == cross_pairs_by_full_table(a, b)
    twin = DiscreteEnsemble(b, np.full(900, 1 / 900))
    with pytest.raises(ensembles.AmbiguousMatch, match="mu atom 600 lies within"):
        kl_divergence(DiscreteEnsemble(a, np.full(1100, 1 / 1100)), twin)


def test_matching_reversed_supports_builds_no_full_overlap_table():
    import tracemalloc

    amps = unit_rows(np.random.default_rng(45), 3000, 4)
    w = np.random.default_rng(46).dirichlet(np.ones(3000))
    mu = DiscreteEnsemble(amps, w)
    nu = DiscreteEnsemble(amps[::-1].copy(), w[::-1].copy())
    tracemalloc.start()
    try:
        assert kl_divergence(mu, nu) == 0.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one 3000 x 3000 complex table alone is 144 MB
    assert peak < 100e6
