import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gammaln

import qunravel.ldp as ldp

from qunravel import (
    RngStream,
    ball_probability_exact,
    ball_probability_mc,
    bs_entropy,
    cb_measures,
    log_multinomial,
    make_experiment,
    rate_curve,
    sample_faithful,
    tolerance_budget,
    validate_density,
)
from qunravel.errors import BudgetExceeded, DimMismatch, NotFaithful

KL_34_12 = 0.13081203594113697  # sum p_i log(p_i / q_i) for (3/4, 1/4) vs (1/2, 1/2)

RHO_C = validate_density(np.diag([0.75, 0.25]))
SIGMA_C = validate_density(np.eye(2) / 2)


def qubit_experiment(epsilon, sizes=(50, 100, 200, 400), reference_weights=None):
    return make_experiment(RHO_C, SIGMA_C, epsilon, sizes, reference_weights=reference_weights)


def test_log_multinomial_oracles():
    assert log_multinomial(np.array([1, 1]), [0.5, 0.5]) == pytest.approx(
        -0.6931471805599453, abs=1e-14
    )
    # all mass in one cell: pmf is w1^n
    for n in (1, 5, 40):
        got = log_multinomial(np.array([n, 0, 0]), [0.3, 0.5, 0.2])
        assert got == pytest.approx(n * math.log(0.3), abs=1e-12)
    assert log_multinomial(np.array([0, 0]), [0.5, 0.5]) == 0.0


def test_log_multinomial_rejects():
    with pytest.raises(DimMismatch):
        log_multinomial(np.array([1, 2, 3]), [0.5, 0.5])
    with pytest.raises(DimMismatch):
        log_multinomial(np.ones((2, 3), dtype=int), [0.5, 0.5])
    with pytest.raises(ValueError):
        log_multinomial(np.array([-1, 3]), [0.5, 0.5])
    with pytest.raises(ValueError):
        log_multinomial(np.array([[1, 1], [-1, 3]]), [0.5, 0.5])
    with pytest.raises(ValueError):
        log_multinomial(np.array([1.0, 1.0]), [0.5, 0.5])
    with pytest.raises(ValueError):
        log_multinomial(np.array([1, 1]), [1.0, 0.0])


def test_log_multinomial_takes_a_stack_of_count_vectors():
    counts = np.array([[[3, 1, 0], [0, 0, 4]], [[2, 2, 0], [1, 1, 2]]])
    w = [0.3, 0.5, 0.2]
    got = log_multinomial(counts, w)
    assert got.shape == (2, 2)
    for idx in np.ndindex(2, 2):
        c = counts[idx].tolist()
        ref = math.lgamma(sum(c) + 1) - sum(
            math.lgamma(ci + 1) - ci * math.log(wi) for ci, wi in zip(c, w)
        )
        assert got[idx] == pytest.approx(ref, abs=1e-13)
        assert got[idx] == pytest.approx(log_multinomial(counts[idx], w), abs=1e-13)


def test_make_experiment_fields_and_validation():
    exp = qubit_experiment(0.1, sizes=[10, 20])
    assert exp.cb.dim == 2
    assert exp.epsilon == 0.1
    assert exp.sample_sizes == (10, 20)
    with pytest.raises(ValueError):
        qubit_experiment(0.0)
    with pytest.raises(ValueError):
        qubit_experiment(1.0)
    with pytest.raises(ValueError):
        qubit_experiment(0.1, sizes=())
    with pytest.raises(ValueError):
        qubit_experiment(0.1, sizes=(0,))
    with pytest.raises(NotFaithful):
        make_experiment(validate_density(np.diag([1.0, 0.0])), SIGMA_C, 0.1, (10,))


def test_exact_small_sample_oracle():
    # n = 4, ball radius 0.1 around diag(3/4, 1/4): only counts (3, 1) land
    # inside, so the probability is C(4,3) / 2^4
    exp = qubit_experiment(0.1)
    prob, rate = ball_probability_exact(exp, 4)
    assert prob == pytest.approx(0.25, abs=1e-14)
    assert rate == pytest.approx(math.log(4.0) / 4.0, abs=1e-12)


def test_exact_empty_ball():
    # strict inequality: at n = 50 no integer count lands within 0.01
    exp = qubit_experiment(0.01)
    prob, rate = ball_probability_exact(exp, 50)
    assert prob == 0.0
    assert math.isinf(rate)


def test_exact_ball_covering_everything():
    exp = qubit_experiment(0.9)
    prob, rate = ball_probability_exact(exp, 30)
    assert prob == pytest.approx(1.0, abs=1e-12)
    assert rate == pytest.approx(0.0, abs=1e-12)


def test_exact_identical_pair_small_rate():
    rho = validate_density(np.diag([0.6, 0.4]))
    exp = make_experiment(rho, rho, 0.5, (10,))
    _, rate = ball_probability_exact(exp, 10)
    assert rate <= 0.05


def test_exact_sums_to_one_over_all_counts():
    # a radius covering every empirical state turns the enumeration into a
    # full pmf sum, a direct completeness check of the count generator
    rho = validate_density(np.diag([0.5, 0.3, 0.2]))
    exp = make_experiment(rho, rho, 0.99, (6,))
    prob, _ = ball_probability_exact(exp, 6)
    assert prob == pytest.approx(1.0, abs=1e-12)


def test_exact_chunked_enumeration():
    # three cells at n = 400 force several enumeration chunks
    rho = validate_density(np.diag([0.5, 0.3, 0.2]))
    exp = make_experiment(rho, rho, 0.5, (400,))
    prob, rate = ball_probability_exact(exp, 400)
    assert 0.99 < prob <= 1.0 + 1e-12
    assert 0.0 <= rate < 1e-3


def test_exact_budget_guards():
    exp = qubit_experiment(0.1)
    with pytest.raises(BudgetExceeded, match=r"enumeration of 402 count vectors \(n=401, cells=2\)"):
        ball_probability_exact(exp, 401)
    rng = RngStream(111)
    wide = make_experiment(sample_faithful(5, rng), sample_faithful(5, rng), 0.1, (10,))
    with pytest.raises(BudgetExceeded, match=r"enumeration of 1001 count vectors \(n=10, cells=5\)"):
        ball_probability_exact(wide, 10)


def test_mc_matches_exact():
    exp = qubit_experiment(0.15)
    prob, _ = ball_probability_exact(exp, 50)
    p_hat, stderr = ball_probability_mc(exp, 50, 4000, RngStream(112))
    assert stderr > 0.0
    assert abs(p_hat - prob) <= 4.0 * stderr


def test_mc_reproducible_and_degenerate_stderr():
    exp = qubit_experiment(0.15)
    a = ball_probability_mc(exp, 50, 500, RngStream(113, 5))
    b = ball_probability_mc(exp, 50, 500, RngStream(113, 5))
    assert a == b
    sure = qubit_experiment(0.9)
    p_hat, stderr = ball_probability_mc(sure, 30, 200, RngStream(114))
    assert p_hat == 1.0
    assert stderr == 0.0
    with pytest.raises(ValueError):
        ball_probability_mc(exp, 50, 0, RngStream(115))


def test_rate_curve_gap_shrinks():
    exp = qubit_experiment(0.01, sizes=(100, 200, 400))
    curve = rate_curve(exp)
    assert [n for n, _ in curve] == [100, 200, 400]
    gaps = [abs(rate - KL_34_12) for _, rate in curve]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.05


def test_rate_with_perturbed_reference():
    # sampling from tilted weights moves the decay rate to the classical
    # divergence against those weights, within the disclosed budget
    exp = qubit_experiment(0.01, sizes=(400,))
    ref = np.array([0.55, 0.45])
    _, rate = ball_probability_exact(qubit_experiment(0.01, (400,), ref), 400)
    kl = 0.75 * math.log(0.75 / 0.55) + 0.25 * math.log(0.25 / 0.45)
    budget = tolerance_budget(400, 2, 0.01)
    assert rate >= kl - budget
    assert rate <= kl + budget
    d_bs = bs_entropy(RHO_C, SIGMA_C)
    assert abs(d_bs - KL_34_12) < 1e-12
    assert ball_probability_exact(exp, 400)[1] >= d_bs - budget


def test_reference_weight_validation():
    # the experiment checks its reference weights when it is built, before any rate
    with pytest.raises(DimMismatch):
        ball_probability_exact(qubit_experiment(0.1, (10,), [0.2, 0.3, 0.5]), 10)
    with pytest.raises(ValueError):
        ball_probability_exact(qubit_experiment(0.1, (10,), [0.7, 0.2]), 10)
    with pytest.raises(ValueError):
        ball_probability_exact(qubit_experiment(0.1, (10,), [1.0, 0.0]), 10)
    # NaN compares False both ways; the bound must reject it, not pass it on to
    # the log (a RuntimeWarning, which the suite makes an error) or to numpy's sampler
    with pytest.raises(ValueError, match="positive and sum to 1"):
        ball_probability_exact(qubit_experiment(0.1, (10,), [np.nan, np.nan]), 10)
    with pytest.raises(ValueError, match="positive and sum to 1"):
        ball_probability_mc(qubit_experiment(0.1, (10,), [np.nan, np.nan]), 10, 5, RngStream(3))


@pytest.mark.parametrize(
    "epsilon, sizes, weights, error, message",
    [
        (5.0, (10,), None, ValueError, "epsilon must lie in"),
        (-1.0, (10,), None, ValueError, "epsilon must lie in"),
        (0.1, (), None, ValueError, "need at least one sample size"),
        (0.1, (0,), None, ValueError, "sample size must be a positive integer"),
        (0.1, (10,), [np.nan, np.nan], ValueError, "positive and sum to 1"),
        (0.1, (10,), [0.2, 0.3, 0.5], DimMismatch, "need 2 weights"),
    ],
    ids=["epsilon-5", "epsilon-negative", "empty-plan", "size-0", "nan-weights", "three-weights"],
)
def test_a_directly_built_experiment_checks_what_make_experiment_checks(
    epsilon, sizes, weights, error, message
):
    cb = make_experiment(RHO_C, SIGMA_C, 0.1, (10,)).cb
    with pytest.raises(error, match=message) as direct:
        ldp.LdpExperiment(RHO_C, SIGMA_C, cb, epsilon, sizes, weights)
    with pytest.raises(error) as made:
        make_experiment(RHO_C, SIGMA_C, epsilon, sizes, reference_weights=weights)
    assert str(made.value) == str(direct.value)


def test_an_experiment_rejects_a_basis_of_another_dimension():
    rng = RngStream(12)
    cb3 = make_experiment(sample_faithful(3, rng), sample_faithful(3, rng), 0.1, (10,)).cb
    with pytest.raises(DimMismatch, match="^basis of dimension 3 for states of dimension 2 and 2$"):
        ldp.LdpExperiment(RHO_C, SIGMA_C, cb3, 0.1, (10,))


def test_an_experiment_keeps_a_read_only_copy_of_its_reference_weights():
    ref = np.array([0.55, 0.45])
    exp = qubit_experiment(0.01, (400,), ref)
    ref[:] = [0.9, 0.1]
    assert np.array_equal(exp.reference_weights, [0.55, 0.45]) and ref.flags.writeable
    assert np.array_equal(exp.log_weights, np.log([0.55, 0.45]))
    with pytest.raises(ValueError):
        exp.reference_weights[0] = 0.5
    default = qubit_experiment(0.01, (400,))
    assert np.array_equal(default.reference_weights, default.cb.sigma_weights)


def test_type_class_asymptotics():
    # the dominant count vector obeys -log pmf / n = KL + (k-1)/(2n) log n
    # up to O(1/n)
    n = 400
    got = -log_multinomial(np.array([300, 100]), [0.5, 0.5]) / n
    predicted = KL_34_12 + (2 - 1) / (2.0 * n) * math.log(n)
    assert abs(got - predicted) <= 5.0 / n


def test_tolerance_budget_formula():
    assert tolerance_budget(100, 3, 0.05) == pytest.approx(
        6.0 * math.log(100.0) / 100.0 + 0.05, abs=1e-15
    )
    assert tolerance_budget(400, 2, 0.01) < tolerance_budget(100, 2, 0.01) + 0.0


def test_exact_rate_stays_finite_when_the_probability_underflows():
    # P(ball) at n=400 is about 1e-560, below the smallest double: the
    # probability reads 0.0 but the rate comes from the log-probability
    rho = validate_density(np.diag([0.97, 0.03]))
    sigma = validate_density(np.diag([0.03, 0.97]))
    exp = make_experiment(rho, sigma, 0.01, (50, 400))
    prob, rate = ball_probability_exact(exp, 400)
    assert prob == 0.0
    assert 3.2052 <= rate <= 3.2220  # exact enumeration: [3.20529, 3.22193]
    assert abs(rate - bs_entropy(rho, sigma)) <= tolerance_budget(400, 2, 0.01)
    # at n=50 no count vector lies inside the ball: the event is empty
    assert ball_probability_exact(exp, 50) == (0.0, math.inf)


def barycenter_offsets(exp, counts, n):
    """Empirical state minus rho for every count vector."""
    d = exp.rho.dim
    proj = np.einsum("ik,jk->kij", exp.cb.psis, exp.cb.psis.conj()).reshape(d, d * d)
    emp = (counts / n) @ proj
    return emp.reshape(-1, d, d) - exp.rho.matrix


def eigvalsh_ball_mask(exp, counts, n):
    """Ball membership with one eigensolve per count vector: the test the
    Frobenius screen must reproduce exactly."""
    diff = barycenter_offsets(exp, counts, n)
    tds = 0.5 * np.abs(np.linalg.eigvalsh(diff)).sum(axis=1)
    return tds < exp.epsilon


def stars_and_bars(n, k):
    """Every count vector of n into k cells, lexicographically descending."""
    rows = []
    for bars in itertools.combinations(range(n + k - 1), k - 1):
        edges = (-1,) + bars + (n + k - 1,)
        rows.append([b - a - 1 for a, b in zip(edges, edges[1:])])
    return np.array(rows[::-1], dtype=np.int64).reshape(-1, k)


def reference_rate(exp, n):
    """The rate from the eigensolve mask over one block of every count vector."""
    counts = stars_and_bars(n, exp.cb.dim).astype(float)
    c = counts[eigvalsh_ball_mask(exp, counts, n)]
    if not len(c):
        return math.inf
    log_w = np.log(cb_measures(exp.cb)[1].weights)
    logp = gammaln(n + 1) - gammaln(c + 1).sum(axis=1) + c @ log_w
    top = float(logp.max())
    return -(top + math.log(float(np.exp(logp - top).sum()))) / n


def compositions(n, k):
    """Every count vector of n into k cells, as the int64 ``(rows, k)``
    transposed views of the k-major blocks ``ldp._blocks`` yields for one size."""
    return [block.T for block in ldp._blocks([], np.array([n], np.int64), k)]


def seeded_experiments(dim, epsilon, count, seed):
    rng = RngStream(seed, dim)
    for _ in range(count):
        yield make_experiment(sample_faithful(dim, rng), sample_faithful(dim, rng), epsilon, (1,))


def counting_eigvalsh(monkeypatch):
    """Patch np.linalg.eigvalsh to record every batch it is given."""
    seen = []
    solve = np.linalg.eigvalsh

    def record(a):
        seen.append(np.array(a))
        return solve(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", record)
    return seen


@pytest.mark.parametrize(
    "n,k", [(0, 1), (7, 1), (0, 2), (9, 2), (0, 3), (8, 3), (0, 4), (6, 4), (15, 4)]
)
def test_compositions_match_stars_and_bars(n, k):
    blocks = compositions(n, k)
    assert all(b.dtype == np.int64 for b in blocks)
    got = np.concatenate(blocks)
    np.testing.assert_array_equal(got, stars_and_bars(n, k))
    assert (got.sum(axis=1) == n).all()


def test_compositions_blocks_concatenate_to_one(monkeypatch):
    cases = [(9, 2), (8, 3), (15, 4), (0, 3)]
    whole = {}
    for n, k in cases:
        (whole[n, k],) = compositions(n, k)
    for chunk in (1, 5, 64):
        monkeypatch.setattr(ldp, "CHUNK", chunk)
        for n, k in cases:
            blocks = compositions(n, k)
            assert max(len(b) for b in blocks) <= chunk
            np.testing.assert_array_equal(np.concatenate(blocks), whole[n, k])


def test_compositions_split_beyond_one_chunk():
    # C(402, 2) = 80601 count vectors do not fit one CHUNK
    blocks = compositions(400, 3)
    assert len(blocks) > 1
    assert max(len(b) for b in blocks) <= ldp.CHUNK
    np.testing.assert_array_equal(np.concatenate(blocks), stars_and_bars(400, 3))


@pytest.mark.parametrize("dim,n", [(2, 400), (3, 60), (4, 30)])
@pytest.mark.parametrize("epsilon", [0.01, 0.05, 0.2])
def test_screen_matches_eigvalsh_mask(dim, n, epsilon):
    counts = stars_and_bars(n, dim)
    for exp in seeded_experiments(dim, epsilon, 6, seed=131):
        got = ldp._ball_mask(exp, counts, n)
        np.testing.assert_array_equal(got, eigvalsh_ball_mask(exp, counts, n))


def test_screen_sends_sphere_ties_to_the_eigensolve(monkeypatch):
    # (37, 13) of n = 50 puts the barycenter at td = 0.01 from
    # diag(3/4, 1/4): on the sphere, so outside the open ball
    exp = qubit_experiment(0.01)
    tie = np.array([[37, 13]])
    assert not eigvalsh_ball_mask(exp, tie, 50)[0]
    seen = counting_eigvalsh(monkeypatch)
    assert not ldp._ball_mask(exp, tie, 50)[0]
    assert sum(len(a) for a in seen) == 1


@pytest.mark.parametrize("dim,n", [(2, 50), (3, 30)])
def test_screen_never_decides_a_vector_on_the_sphere(dim, n, monkeypatch):
    # put the sphere exactly through one count vector after another: the
    # screen must hand that vector to the eigensolve. The tie itself may
    # round either way by an ulp; every other vector keeps its membership.
    (probe,) = seeded_experiments(dim, 0.5, 1, seed=132)
    counts = stars_and_bars(n, dim)
    offsets = barycenter_offsets(probe, counts, n)
    tds = 0.5 * np.abs(np.linalg.eigvalsh(offsets)).sum(axis=1)
    seen = counting_eigvalsh(monkeypatch)
    ties = [j for j in range(0, len(counts), len(counts) // 25) if 0.0 < tds[j] < 1.0]
    assert len(ties) > 20
    for j in ties:
        exp = make_experiment(probe.rho, probe.sigma, float(tds[j]), (n,))
        seen.clear()
        mask = ldp._ball_mask(exp, counts, n)
        reached = np.concatenate(seen)
        assert np.isclose(reached, offsets[j], rtol=0.0, atol=1e-15).all(axis=(1, 2)).any()
        rest = np.arange(len(counts)) != j
        np.testing.assert_array_equal(mask[rest], eigvalsh_ball_mask(exp, counts, n)[rest])


def test_screen_leaves_few_vectors_to_the_eigensolve(monkeypatch):
    n = 60
    total = math.comb(n + 3, 3)
    for exp in seeded_experiments(4, 0.05, 3, seed=133):
        seen = counting_eigvalsh(monkeypatch)
        _, rate = ball_probability_exact(exp, n)
        monkeypatch.undo()
        assert sum(len(a) for a in seen) < 0.05 * total
        assert rate == reference_rate(exp, n)


def test_exact_rates_equal_the_eigensolve_reference():
    # every ball here lies within one block of its enumeration, so the arithmetic is the same
    crit10 = qubit_experiment(0.01)
    for n in (50, 100, 200, 400):
        assert ball_probability_exact(crit10, n)[1] == reference_rate(crit10, n)
    for dim, n in ((3, 45), (4, 30)):
        for exp in seeded_experiments(dim, 0.05, 2, seed=134):
            assert ball_probability_exact(exp, n)[1] == reference_rate(exp, n)


@settings(max_examples=200, deadline=None)
@given(
    spectrum=st.lists(st.integers(-10**6, 10**6), min_size=2, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_property_trace_norm_within_frobenius_bounds(spectrum, seed):
    # the screen rests on sqrt(2) ||X||_F <= ||X||_1 <= sqrt(d) ||X||_F for
    # traceless Hermitian X, with equality on the left at d = 2
    dim = len(spectrum)
    lam = 1e-6 * (np.array(spectrum) - np.mean(spectrum))
    q, _ = np.linalg.qr(RngStream(seed).complex_normal((dim, dim)))
    x = (q * lam) @ q.conj().T
    x = 0.5 * (x + x.conj().T)
    fro = float(np.linalg.norm(x))
    trace_norm = float(np.abs(np.linalg.eigvalsh(x)).sum())
    slack = 1e-12 * fro
    assert math.sqrt(2.0) * fro <= trace_norm + slack
    assert trace_norm <= math.sqrt(dim) * fro + slack
    if dim == 2:
        assert abs(trace_norm - math.sqrt(2.0) * fro) <= slack


@pytest.mark.parametrize("n", [0, -1, 2.5, math.nan, math.inf, "4", True])
def test_every_entry_point_needs_a_positive_integral_sample_size(n):
    exp = qubit_experiment(0.1)
    rng = RngStream(43)
    for call in (
        lambda: make_experiment(RHO_C, SIGMA_C, 0.1, [10, n]),
        lambda: ball_probability_exact(exp, n),
        lambda: ball_probability_mc(exp, n, 10, rng),
    ):
        with pytest.raises(ValueError, match=re.escape(f"positive integer, got {n!r}")):
            call()


def test_integral_float_and_numpy_sample_sizes_count_as_integers():
    exp = make_experiment(RHO_C, SIGMA_C, 0.1, [4.0, np.int64(6)])
    assert exp.sample_sizes == (4, 6) and all(type(n) is int for n in exp.sample_sizes)
    assert ball_probability_exact(exp, 4.0) == ball_probability_exact(exp, 4)


@pytest.mark.parametrize("trials", [2.5, math.nan, math.inf, 0, -1, True, "3"])
def test_monte_carlo_needs_a_positive_integral_trial_count(trials):
    message = re.escape(f"trials must be a positive integer, got {trials!r}")
    with pytest.raises(ValueError, match=message):
        ball_probability_mc(qubit_experiment(0.1), 10, trials, RngStream(44))


def test_integral_float_and_numpy_trial_counts_count_as_integers():
    exp = qubit_experiment(0.1)
    by_int = ball_probability_mc(exp, 10, 3, RngStream(45))
    assert ball_probability_mc(exp, 10, 3.0, RngStream(45)) == by_int
    assert ball_probability_mc(exp, 10, np.int64(3), RngStream(45)) == by_int


def recording_ball_mask(monkeypatch):
    """Patch ``ldp._ball_mask`` to record the row count of every block."""
    rows = []
    mask = ldp._ball_mask

    def record(exp, counts, n):
        rows.append(len(counts))
        return mask(exp, counts, n)

    monkeypatch.setattr(ldp, "_ball_mask", record)
    return rows


def test_a_plan_equals_each_size_run_alone_bit_for_bit():
    # unsorted and repeated sizes; at k = 4 the C(48, 3) = 17296 vectors
    # of n = 45 span several blocks
    plan = (45, 15, 45, 30)
    assert math.comb(45 + 3, 3) > ldp.CHUNK
    finite = 0
    for dim in (2, 3, 4):
        tilted = np.arange(1.0, dim + 1) / (dim * (dim + 1) / 2)
        for exp in seeded_experiments(dim, 0.2, 2, seed=135):
            for weights in (None, tilted):
                run = make_experiment(exp.rho, exp.sigma, 0.2, plan, reference_weights=weights)
                logs = ldp.ball_log_probabilities(run, plan)
                assert len(logs) == len(plan) and logs[0] == logs[2]
                for n, log_prob in zip(plan, logs):
                    alone = ball_probability_exact(run, n)
                    assert (math.exp(log_prob), -log_prob / n) == alone
                    finite += math.isfinite(log_prob)
    assert finite >= 40


def test_rate_curve_is_one_pass_over_its_plan(monkeypatch):
    rows = recording_ball_mask(monkeypatch)
    exp = qubit_experiment(0.05, sizes=(400, 15, 60, 15))
    curve = rate_curve(exp)
    assert [n for n, _ in curve] == [400, 15, 60, 15]
    assert rows == [401 + 16 + 61]  # the distinct sizes share one block
    monkeypatch.undo()
    for n, rate in curve:
        assert rate == ball_probability_exact(exp, n)[1]


def test_plan_blocks_stay_within_chunk(monkeypatch):
    plan = (15, 30, 45, 60)
    (exp,) = seeded_experiments(4, 0.05, 1, seed=136)
    rows = recording_ball_mask(monkeypatch)
    ldp.ball_log_probabilities(exp, plan)
    assert len(rows) > 1
    assert max(rows) <= ldp.CHUNK
    assert sum(rows) == sum(math.comb(n + 3, 3) for n in plan)  # every vector once


def test_a_plan_is_checked_whole_before_any_enumeration(monkeypatch):
    exp = qubit_experiment(0.1)
    rows = recording_ball_mask(monkeypatch)
    with pytest.raises(BudgetExceeded, match=r"\(n=401, cells=2\)"):
        ldp.ball_log_probabilities(exp, [50, 401])
    with pytest.raises(ValueError, match="positive integer, got 0"):
        ldp.ball_log_probabilities(exp, [50, 0])
    assert rows == []
    assert ldp.ball_log_probabilities(exp, []) == []
