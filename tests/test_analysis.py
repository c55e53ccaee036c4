import numpy as np
import pytest

from tlspr.analysis import (
    ErrorAnalysisInputs,
    IllConditionedError,
    d_diagonal,
    expected_squared_errors,
    expected_tls_errors,
    finite_difference_jacobians,
    first_order_errors,
    ml_parameters,
    predicted_perturbation,
    solve_matrices,
)
from tlspr.core import make_rng


def _instance(seed, n=12, m=96):
    rng = make_rng(seed)
    a = rng.normal(size=(m, n))
    x = rng.normal(size=n)
    y = (a @ x) ** 2
    return rng, a, x, y


def _errors(rng, a, y, sens_db, meas_db):
    e_a = rng.normal(size=a.shape)
    e_y = rng.normal(size=y.shape)
    e_a *= np.linalg.norm(a) * 10.0 ** (-sens_db / 20.0) / np.linalg.norm(e_a)
    e_y *= np.linalg.norm(y) * 10.0 ** (-meas_db / 20.0) / np.linalg.norm(e_y)
    return e_a, e_y


def test_zero_errors_give_zero_predictions():
    _, a, x, y = _instance(1)
    pred = first_order_errors(ErrorAnalysisInputs(a, y, x, np.zeros_like(a), np.zeros_like(y), 1.0))
    assert pred.e_tls == 0.0 and pred.e_ls == 0.0


def test_small_ratio_collapses_to_ls():
    rng, a, x, y = _instance(2)
    e_a, e_y = _errors(rng, a, y, 30.0, 30.0)
    pred = first_order_errors(ErrorAnalysisInputs(a, y, x, e_a, e_y, 1e-12))
    assert abs(pred.e_tls - pred.e_ls) <= 1e-6 * pred.e_ls


def test_proportional_error_model_equalizes():
    _, a, x, y = _instance(3)
    # errors proportional to the clean data: both predictors collapse to
    # |r_y/2 - r_a| * ||x||, hence are equal (identically zero for the
    # r_y = 2 r_a pair below)
    for r_y, r_a in ((0.02, 0.01), (0.02, 0.03)):
        e_y = r_y * y
        e_a = r_a * a
        pred = first_order_errors(ErrorAnalysisInputs(a, y, x, e_a, e_y, 1.0))
        expected = abs(r_y / 2.0 - r_a) * np.linalg.norm(x)
        assert abs(pred.e_tls - pred.e_ls) <= 1e-9 * max(pred.e_ls, 1e-6)
        assert abs(pred.e_tls - expected) <= 1e-9 * max(expected, 1e-6)


def test_homogeneous_degree_one_in_errors():
    rng, a, x, y = _instance(4)
    e_a, e_y = _errors(rng, a, y, 35.0, 40.0)
    p1 = first_order_errors(ErrorAnalysisInputs(a, y, x, e_a, e_y, 0.7))
    p2 = first_order_errors(ErrorAnalysisInputs(a, y, x, 2.0 * e_a, 2.0 * e_y, 0.7))
    assert abs(p2.e_tls - 2.0 * p1.e_tls) <= 1e-9 * p1.e_tls
    assert abs(p2.e_ls - 2.0 * p1.e_ls) <= 1e-9 * p1.e_ls


def test_relative_variants():
    rng, a, x, y = _instance(5)
    e_a, e_y = _errors(rng, a, y, 30.0, 30.0)
    pred = first_order_errors(ErrorAnalysisInputs(a, y, x, e_a, e_y, 1.0))
    assert abs(pred.rel_e_tls - pred.e_tls / np.linalg.norm(x)) <= 1e-15
    assert pred.e_tls >= 0.0 and pred.e_ls >= 0.0


def test_rejects_complex_inputs():
    rng, a, x, y = _instance(6)
    bad = a.astype(complex)
    bad[0, 0] += 1j
    with pytest.raises(ValueError):
        ErrorAnalysisInputs(bad, y, x, np.zeros_like(a), np.zeros_like(y), 1.0)


def test_accepts_complex_dtype_with_zero_imag():
    _, a, x, y = _instance(7)
    inputs = ErrorAnalysisInputs(
        a.astype(complex), y, x.astype(complex), np.zeros_like(a), np.zeros_like(y), 1.0
    )
    pred = first_order_errors(inputs)
    assert pred.e_tls == 0.0


def test_rejects_nonpositive_measurements():
    _, a, x, y = _instance(8)
    y_bad = y.copy()
    y_bad[0] = 0.0
    with pytest.raises(ValueError):
        ErrorAnalysisInputs(a, y_bad, x, np.zeros_like(a), np.zeros_like(y), 1.0)


def test_ill_conditioned_rejected():
    rng = make_rng(9)
    m, n = 20, 4
    a = rng.normal(size=(m, n))
    a[:, 1] = a[:, 0]  # rank deficient
    x = rng.normal(size=n)
    y = (a @ x) ** 2 + 1.0
    with pytest.raises(IllConditionedError):
        first_order_errors(
            ErrorAnalysisInputs(a, y, x, np.zeros_like(a), 0.1 * np.ones(m), 1.0)
        )


def test_d_diagonal_range():
    y = np.array([0.0, 1.0, 100.0])
    d = d_diagonal(y, 5.0, 0.3)
    assert np.all(d > 0.0) and np.all(d <= 1.0)
    assert np.array_equal(d_diagonal(y, 5.0, 0.0), np.ones(3))


def test_expected_squared_additivity():
    _, a, x, y = _instance(10)
    both = expected_squared_errors(a, y, x, 1.3, 2e-4, 3e-3)
    only_delta = expected_squared_errors(a, y, x, 1.3, 2e-4, 0.0)
    only_eta = expected_squared_errors(a, y, x, 1.3, 0.0, 3e-3)
    assert abs(both[0] - (only_delta[0] + only_eta[0])) <= 1e-15 * both[0]
    assert abs(both[1] - (only_delta[1] + only_eta[1])) <= 1e-15 * both[1]
    zero = expected_squared_errors(a, y, x, 1.3, 0.0, 0.0)
    assert zero == (0.0, 0.0)


def _expected_reference(a, y, x, ratio, s2_delta, s2_eta, ls=False):
    # The expectation as written when each call solved the TLS and the LS
    # system separately.
    x_norm_sq = float(np.linalg.norm(x)) ** 2
    w = y if ls else y * (1.0 / (1.0 + 4.0 * ratio * x_norm_sq * y))
    r = np.linalg.solve(a.T @ (w[:, None] * a), a.T * w[None, :])
    return s2_delta * x_norm_sq * float(np.sum(r * r)) + 0.25 * s2_eta * float(np.sum((r * r) / y[None, :]))


def test_expected_tls_errors_keep_the_arithmetic_of_both_solves():
    _, a, x, y = _instance(12)
    ratios = list(10.0 ** np.linspace(-3.0, 3.0, 13))
    got = expected_tls_errors(a, y, x, ratios + [0.0], 2e-4, 3e-3)
    want = [_expected_reference(a, y, x, r, 2e-4, 3e-3) for r in ratios]
    want.append(_expected_reference(a, y, x, 0.0, 2e-4, 3e-3, ls=True))
    assert np.array_equal(np.array(got).view(np.uint64), np.array(want).view(np.uint64))
    pair = expected_squared_errors(a, y, x, ratios[4], 2e-4, 3e-3)
    assert pair == (want[4], want[-1])
    with pytest.raises(ValueError):
        expected_tls_errors(a, y, x, ratios, -1.0, 3e-3)


def test_expected_squared_monte_carlo():
    rng, a, x, y = _instance(11, n=10, m=80)
    s2_delta, s2_eta = 4e-4, 2e-3
    r_tls, r_ls = solve_matrices(a, y, x, 1.0)
    draws = 800
    sq_tls = np.empty(draws)
    sq_ls = np.empty(draws)
    for i in range(draws):
        e_a = rng.normal(size=a.shape) * np.sqrt(s2_delta)
        e_y = rng.normal(size=y.shape) * np.sqrt(s2_eta)
        w = (e_y / (2.0 * y)) * (a @ x) - e_a @ x
        sq_tls[i] = np.sum((r_tls @ w) ** 2)
        sq_ls[i] = np.sum((r_ls @ w) ** 2)
    e_tls, e_ls = expected_squared_errors(a, y, x, 1.0, s2_delta, s2_eta)
    assert abs(sq_tls.mean() - e_tls) <= 4.0 * sq_tls.std() / np.sqrt(draws)
    assert abs(sq_ls.mean() - e_ls) <= 4.0 * sq_ls.std() / np.sqrt(draws)


def test_ml_parameters():
    params = ml_parameters(0.01, 0.04)
    assert params.lambda_a == 100.0
    assert params.lambda_y == 25.0
    eq = ml_parameters(0.5, 0.5)
    assert eq.lambda_a == eq.lambda_y
    rng = make_rng(12)
    for _ in range(20):
        s2d = float(10.0 ** rng.uniform(-4, 0))
        s2e = float(10.0 ** rng.uniform(-4, 0))
        p = ml_parameters(s2d, s2e)
        assert abs(p.lambda_y / p.lambda_a - s2d / s2e) <= 1e-12 * (s2d / s2e)
    with pytest.raises(ValueError):
        ml_parameters(0.0, 1.0)


def test_finite_difference_jacobian_validates_predictions():
    rng = make_rng(13)
    n, m = 3, 8
    a = rng.normal(size=(m, n))
    x = rng.normal(size=n)
    y = (a @ x) ** 2
    e_a, e_y = _errors(rng, a, y, 60.0, 60.0)
    for method in ("ls", "tls"):
        j_a, j_y = finite_difference_jacobians(a, y, x, 1.0, 1.0, h=1e-4, method=method)
        fd_norm = np.linalg.norm(predicted_perturbation(j_a, j_y, e_a, e_y))
        pred = first_order_errors(ErrorAnalysisInputs(a, y, x, e_a, e_y, 1.0))
        formula = pred.e_tls if method == "tls" else pred.e_ls
        assert abs(fd_norm - formula) <= 0.05 * formula
        # step halving changes the estimate by <= 1%
        j_a2, j_y2 = finite_difference_jacobians(a, y, x, 1.0, 1.0, h=5e-5, method=method)
        fd_half = np.linalg.norm(predicted_perturbation(j_a2, j_y2, e_a, e_y))
        assert abs(fd_half - fd_norm) <= 0.01 * fd_norm
        # zero perturbation direction maps to zero predicted change
        zero = predicted_perturbation(j_a, j_y, np.zeros_like(a), np.zeros_like(y))
        assert np.linalg.norm(zero) == 0.0


def test_finite_difference_rejects_unknown_method():
    _, a, x, y = _instance(14, n=2, m=4)
    with pytest.raises(ValueError):
        finite_difference_jacobians(a, y, x, 1.0, 1.0, method="newton")
