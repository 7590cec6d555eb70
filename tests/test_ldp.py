import math

import numpy as np
import pytest

from qunravel import (
    RngStream,
    ball_probability_exact,
    ball_probability_mc,
    bs_entropy,
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


def qubit_experiment(epsilon, sizes=(50, 100, 200, 400)):
    return make_experiment(RHO_C, SIGMA_C, epsilon, sizes)


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
    with pytest.raises(ValueError):
        log_multinomial(np.array([-1, 3]), [0.5, 0.5])
    with pytest.raises(ValueError):
        log_multinomial(np.array([1.0, 1.0]), [0.5, 0.5])
    with pytest.raises(ValueError):
        log_multinomial(np.array([1, 1]), [1.0, 0.0])


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
    with pytest.raises(BudgetExceeded):
        ball_probability_exact(exp, 401)
    rng = RngStream(111)
    wide = make_experiment(sample_faithful(5, rng), sample_faithful(5, rng), 0.1, (10,))
    with pytest.raises(BudgetExceeded):
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
    _, rate = ball_probability_exact(exp, 400, reference_weights=ref)
    kl = 0.75 * math.log(0.75 / 0.55) + 0.25 * math.log(0.25 / 0.45)
    budget = tolerance_budget(400, 2, 0.01)
    assert rate >= kl - budget
    assert rate <= kl + budget
    d_bs = bs_entropy(RHO_C, SIGMA_C)
    assert abs(d_bs - KL_34_12) < 1e-12
    assert ball_probability_exact(exp, 400)[1] >= d_bs - budget


def test_reference_weight_validation():
    exp = qubit_experiment(0.1)
    with pytest.raises(DimMismatch):
        ball_probability_exact(exp, 10, reference_weights=[0.2, 0.3, 0.5])
    with pytest.raises(ValueError):
        ball_probability_exact(exp, 10, reference_weights=[0.7, 0.2])
    with pytest.raises(ValueError):
        ball_probability_exact(exp, 10, reference_weights=[1.0, 0.0])


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
