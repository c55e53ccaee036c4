import numpy as np
import pytest

from tlspr import correction, cubic
from tlspr.core import inner, inner_rows, make_rng
from tlspr.correction import (
    CorrectionParams,
    apply_corrections,
    correct_sensing_vector,
    reconstruct_from_nu,
    sweep_corrections,
)

import oracles
from oracles import (
    _positive_roots_reference,
    correct_sensing_vector_reference,
    correction_objective,
    grid_min,
    sweep_corrections_reference,
)


def _random_instance(rng, n_max=4, scale=1.0):
    n = int(rng.integers(1, n_max + 1))
    a = scale * (rng.normal(size=n) + 1j * rng.normal(size=n))
    x = scale * (rng.normal(size=n) + 1j * rng.normal(size=n))
    clean = abs(inner(a, x)) ** 2
    y = float(clean * (1.0 + 0.5 * rng.normal()))
    params = CorrectionParams(
        lambda_a=1.0, lambda_y=float(10.0 ** rng.uniform(-2, 2))
    )
    return a, x, y, params


def test_reconstruct_identity():
    rng = make_rng(1)
    a = rng.normal(size=4) + 1j * rng.normal(size=4)
    x = rng.normal(size=4) + 1j * rng.normal(size=4)
    nu = inner(a, x)
    assert np.allclose(reconstruct_from_nu(a, x, nu), a)


def test_reconstruct_first_coordinate():
    x = np.array([1.0, 0.0], dtype=complex)
    a = np.array([3.0, 5.0j], dtype=complex)
    v = reconstruct_from_nu(a, x, 1.0 + 0.0j)
    assert np.allclose(v, [1.0, 5.0j])


def test_reconstruct_postconditions():
    rng = make_rng(2)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        nu = complex(rng.normal(), rng.normal())
        v = reconstruct_from_nu(a, x, nu)
        assert abs(inner(v, x) - nu) <= 1e-9 * (1.0 + abs(nu))
        # difference parallel to x: zero component orthogonal to x
        diff = v - a
        ortho = diff - (np.vdot(x, diff) / np.vdot(x, x).real) * x
        assert np.linalg.norm(ortho) <= 1e-10 * max(1.0, np.linalg.norm(a))


def test_reconstruct_zero_x_rejected():
    with pytest.raises(ValueError):
        reconstruct_from_nu(np.ones(2, dtype=complex), np.zeros(2, dtype=complex), 1.0)


def test_exact_measurement_needs_no_correction():
    rng = make_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        y = abs(inner(a, x)) ** 2
        res = correct_sensing_vector(a, y, x, CorrectionParams(1.0, 1.0))
        assert res.objective_value <= 1e-20 * max(1.0, y**2)
        assert np.allclose(res.corrected, a, atol=1e-10)


def test_one_dimensional_real_instance():
    # x = e1, a = 2 e1, y = 0, lambda_a = lambda_y = 1:
    # f(nu) = (2 - nu)^2 + nu^4 on the real axis, minimized at the positive
    # root of 2 nu^3 + nu - 2 = 0.
    from scipy.optimize import minimize_scalar

    x = np.array([1.0, 0.0], dtype=complex)
    a = np.array([2.0, 0.0], dtype=complex)
    res = correct_sensing_vector(a, 0.0, x, CorrectionParams(1.0, 1.0))
    opt = minimize_scalar(lambda t: (2.0 - t) ** 2 + t**4, bounds=(0.0, 2.0), method="bounded")
    assert abs(res.nu - opt.x) < 1e-5
    assert abs(res.nu - 0.8351) < 1e-3
    roots = np.roots([2.0, 0.0, 1.0, -2.0])
    real_pos = [r.real for r in roots if abs(r.imag) < 1e-9 and r.real > 0]
    assert len(real_pos) == 1
    assert abs(res.nu - real_pos[0]) < 1e-9


def test_candidate_phase_structure():
    # The minimizer, like every stationary nu, lies on the line through
    # phase(gamma).
    rng = make_rng(4)
    for _ in range(200):
        a, x, y, params = _random_instance(rng)
        gamma = -params.lambda_a * inner(a, x)
        nu = correct_sensing_vector(a, y, x, params).nu
        if gamma == 0 or nu == 0:
            continue
        ratio = (nu / abs(nu)) / (gamma / abs(gamma))
        assert min(abs(ratio - 1.0), abs(ratio + 1.0)) < 1e-9


def test_stationarity_of_result():
    rng = make_rng(5)
    for _ in range(200):
        a, x, y, params = _random_instance(rng)
        res = correct_sensing_vector(a, y, x, params)
        v = res.corrected
        nu = inner(v, x)
        grad = params.lambda_a * (v - a) + 2.0 * params.lambda_y * (
            abs(nu) ** 2 - y
        ) * np.conj(nu) * x
        bound = 1e-7 * params.lambda_a * (1.0 + np.linalg.norm(a))
        assert np.linalg.norm(grad) <= bound


def test_correction_parallel_to_x():
    rng = make_rng(6)
    for _ in range(100):
        a, x, y, params = _random_instance(rng)
        res = correct_sensing_vector(a, y, x, params)
        diff = res.corrected - a
        ortho = diff - (np.vdot(x, diff) / np.vdot(x, x).real) * x
        assert np.linalg.norm(ortho) <= 1e-10 * max(np.linalg.norm(a), 1.0)


def test_never_worse_than_no_correction():
    rng = make_rng(7)
    for _ in range(200):
        a, x, y, params = _random_instance(rng)
        res = correct_sensing_vector(a, y, x, params)
        f_uncorrected = params.lambda_y * (y - abs(inner(a, x)) ** 2) ** 2
        assert res.objective_value <= f_uncorrected + 1e-12 * (1.0 + f_uncorrected)


def test_monotone_limit_large_lambda_a():
    rng = make_rng(8)
    for _ in range(30):
        a, x, y, _ = _random_instance(rng)
        base = CorrectionParams(lambda_a=1.0, lambda_y=1.0)
        huge = CorrectionParams(lambda_a=1e6, lambda_y=1.0)
        norm_base = np.linalg.norm(correct_sensing_vector(a, y, x, base).corrected - a)
        norm_huge = np.linalg.norm(correct_sensing_vector(a, y, x, huge).corrected - a)
        if norm_base > 1e-12:
            assert norm_huge <= 1e-2 * norm_base


def test_result_nu_consistency():
    rng = make_rng(9)
    for _ in range(50):
        a, x, y, params = _random_instance(rng)
        res = correct_sensing_vector(a, y, x, params)
        assert abs(inner(res.corrected, x) - res.nu) <= 1e-9 * (1.0 + abs(res.nu))
        assert res.objective_value >= 0.0


def test_orthogonal_gamma_zero_path():
    # a orthogonal to x, y large: candidates are 0 and +/- sqrt(-beta/alpha).
    x = np.array([1.0, 0.0], dtype=complex)
    a = np.array([0.0, 2.0], dtype=complex)
    params = CorrectionParams(1.0, 1.0)
    y = 4.0
    # alpha = 2, beta = 1 - 8 = -7: roots 0 and +/- sqrt(3.5)
    assert np.allclose(_positive_roots_reference(2.0, -7.0, 0.0), [np.sqrt(3.5)], rtol=1e-9, atol=0)
    res = correct_sensing_vector(a, y, x, params)
    # correcting toward |nu|^2 = y is cheaper than leaving the misfit
    assert abs(abs(res.nu) - np.sqrt(3.5)) < 1e-9


@pytest.mark.parametrize("scale", [1.0, 1e-9, 1e-13, 1e-15])
def test_candidates_contain_the_minimizer_at_any_signal_scale(scale):
    # An absolute root tolerance once left only nu = 0 in the list of
    # stationary nu below signal scale ~1e-12, while the sweep returned the
    # nonzero minimizer.  The list is phase(gamma) times the real roots of
    # the plus cubic, taken here from the frozen enumeration.
    rng = make_rng(20_017)
    n = 8
    for _ in range(20):
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        x = scale * (rng.normal(size=n) + 1j * rng.normal(size=n))
        y = 1.5 * abs(inner(a, x)) ** 2
        params = CorrectionParams(1.0 / n, 1.0 / inner(x, x).real ** 2)
        res = correct_sensing_vector(a, y, x, params)
        roots = sweep_corrections_reference(a[None, :], [y], x, params.lambda_a, params.lambda_y)[2][0]
        nu_a = inner(a, x)
        cands = -nu_a / abs(nu_a) * roots[~np.isnan(roots)]
        assert res.nu != 0.0
        assert np.min(np.abs(cands - res.nu)) <= 1e-12 * abs(res.nu)


def test_negative_measurement_supported():
    rng = make_rng(10)
    for _ in range(50):
        a, x, _, params = _random_instance(rng)
        y = -abs(rng.normal()) * 2.0
        res = correct_sensing_vector(a, y, x, params)
        probe = correction_objective(a, res.corrected, y, x, params.lambda_a, params.lambda_y)
        assert abs(probe - res.objective_value) <= 1e-9 * (1.0 + probe)


def test_objective_reduction_formula_matches_vector_evaluation():
    rng = make_rng(11)
    for _ in range(100):
        a, x, y, params = _random_instance(rng)
        nu = complex(rng.normal(), rng.normal())
        v = reconstruct_from_nu(a, x, nu)
        full = correction_objective(a, v, y, x, params.lambda_a, params.lambda_y)
        norm_sq = float(np.vdot(x, x).real)
        reduced = params.lambda_a * abs(nu - inner(a, x)) ** 2 / norm_sq + params.lambda_y * (
            y - abs(nu) ** 2
        ) ** 2
        assert abs(full - reduced) <= 1e-9 * (1.0 + abs(full))


def test_sweep_matches_scalar_path():
    # correct_sensing_vector is the one-row sweep mapped to a full vector,
    # bit for bit, on random rows and on the last 8 rows, which are
    # orthogonal to x; the full sweep agrees to rounding.
    rng = make_rng(12)
    n, m = 5, 40
    for scale in (1e-15, 1e-9, 1.0, 1e3):
        a = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
        x = scale * (rng.normal(size=n) + 1j * rng.normal(size=n))
        x[-2:] = 0.0
        a[-8:, :-2] = 0.0
        norm_sq = float(np.vdot(x, x).real)
        y = np.abs(a.conj() @ x) ** 2 * (1.0 + 0.3 * rng.normal(size=m))
        y[-8:] = norm_sq * rng.uniform(-1.0, 1.0, size=8)
        params = CorrectionParams(0.7, 2.3 / norm_sq**2)
        nu_star, f_star = sweep_corrections(a, y, x, params.lambda_a, params.lambda_y)
        corrected = apply_corrections(a, x, nu_star)
        for i in range(m):
            res = correct_sensing_vector(a[i], y[i], x, params)
            nu_row, f_row = sweep_corrections(a[i][None, :], [y[i]], x, params.lambda_a, params.lambda_y)
            v_row = reconstruct_from_nu(a[i], x, nu_row[0])
            assert np.array_equal(np.array([res.nu]).view(np.uint64), nu_row.view(np.uint64))
            assert np.array_equal(np.array([res.objective_value]).view(np.uint64), f_row.view(np.uint64))
            assert np.array_equal(res.corrected.view(np.uint64), v_row.view(np.uint64))
            assert abs(f_star[i] - res.objective_value) <= 1e-9 * (1.0 + res.objective_value)
            assert np.allclose(corrected[i], res.corrected, atol=1e-9)


def test_one_correction_solves_one_cubic(monkeypatch):
    calls = {"root": 0, "enumeration": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    root = counted("root", cubic.smallest_real_root_into)
    enumeration = counted("enumeration", cubic.depressed_roots_batch)
    for module in (cubic, correction):
        monkeypatch.setattr(module, "smallest_real_root_into", root)
        monkeypatch.setattr(module, "depressed_roots_batch", enumeration)
    rng = make_rng(15)
    a, x, y, params = _random_instance(rng)
    correct_sensing_vector(a, y, x, params)
    assert calls == {"root": 1, "enumeration": 0}


def test_grid_oracle_small_batch():
    rng = make_rng(13)
    for _ in range(25):
        a, x, y, params = _random_instance(rng, scale=0.6)
        res = correct_sensing_vector(a, y, x, params)
        nu_a = inner(a, x)
        radius = 3.0 * (abs(nu_a) + np.sqrt(max(y, 0.0))) + 1.0
        oracle = grid_min(
            nu_a, y, params.lambda_a, params.lambda_y,
            float(np.vdot(x, x).real), radius, 1e-3,
        )
        assert res.objective_value <= oracle + 1e-6


def test_grid_min_matches_point_loop():
    rng = make_rng(14)
    for _ in range(5):
        nu_a = complex(rng.normal(), rng.normal())
        y, lam_a, lam_y, norm_sq = (float(v) for v in np.abs(rng.normal(size=4)) + 0.1)
        radius, step = 1.5, 0.05
        axis = np.arange(-radius, radius + step, step)
        want = min(
            lam_a * abs(complex(re, im) - nu_a) ** 2 / norm_sq + lam_y * (y - re * re - im * im) ** 2
            for re in axis
            for im in axis
        )
        got = grid_min(nu_a, y, lam_a, lam_y, norm_sq, radius, step)
        assert abs(got - want) <= 1e-12 * (1.0 + want)


@pytest.mark.parametrize("block", [oracles._GRID_BLOCK, 1])
def test_pruned_grid_min_equals_the_dense_scan(monkeypatch, block):
    # The dense scan forms every row as the pruned scan does; block = 1 puts
    # one row in each block, so that the scan stops as early as it can.
    monkeypatch.setattr(oracles, "_GRID_BLOCK", block)
    rng = make_rng(16)
    for _ in range(60):
        a, x, y, params = _random_instance(rng, scale=0.6)
        nu_a, norm_sq = inner(a, x), float(np.vdot(x, x).real)
        lam_a, lam_y = params.lambda_a, params.lambda_y
        radius = 3.0 * (abs(nu_a) + np.sqrt(max(y, 0.0))) + 1.0
        step = radius / float(rng.integers(20, 200))
        axis = np.arange(-radius, radius + step, step)
        root_y = np.sqrt(lam_y)
        row_pert = lam_a * (axis - nu_a.real) ** 2 / norm_sq
        col_pert = lam_a * (axis - nu_a.imag) ** 2 / norm_sq
        table = np.square(root_y * (y - axis**2)[:, None] - root_y * axis**2) + col_pert
        dense = float((table.min(axis=1) + row_pert).min())
        assert grid_min(nu_a, y, lam_a, lam_y, norm_sq, radius, step) == dense


def test_never_worse_than_frozen_scalar_algorithm():
    # Criterion-02 instances with x scaled by 10^U(-3, 3); the reference is
    # the scalar algorithm with two complex cubic solves per measurement.
    rng = make_rng(20_012)
    for _ in range(3000):
        n = int(rng.integers(1, 5))
        a = 0.35 * (rng.normal(size=n) + 1j * rng.normal(size=n))
        x = 0.35 * (rng.normal(size=n) + 1j * rng.normal(size=n)) * 10.0 ** rng.uniform(-3, 3)
        y = float(abs(inner(a, x)) ** 2 * (1.0 + 0.6 * rng.normal()))
        params = CorrectionParams(lambda_a=1.0, lambda_y=float(10.0 ** rng.uniform(-2, 2)))
        res = correct_sensing_vector(a, y, x, params)
        _, f_ref = correct_sensing_vector_reference(a, y, x, params.lambda_a, params.lambda_y)
        assert res.objective_value <= f_ref * (1.0 + 1e-9)


def _orthogonal_block(rng, m):
    # a_m orthogonal to x exactly: disjoint supports make every inner(a_m, x)
    # an exact zero.  y spans both signs of beta = lambda_a - 2 lambda_y y ||x||^2.
    x = np.zeros(4, dtype=complex)
    x[:2] = rng.normal(size=2) + 1j * rng.normal(size=2)
    a = np.zeros((m, 4), dtype=complex)
    a[:, 2:] = rng.normal(size=(m, 2)) + 1j * rng.normal(size=(m, 2))
    norm_sq = float(np.vdot(x, x).real)
    y = norm_sq * rng.uniform(-1.0, 1.0, size=m)
    return a, y, x, 0.25, 1.0 / norm_sq**2


def test_sweep_matches_frozen_candidate_enumeration():
    rng = make_rng(20_014)
    blocks = []
    for _ in range(60):
        n = int(rng.integers(1, 9))
        a = rng.normal(size=(2000, n)) + 1j * rng.normal(size=(2000, n))
        x = (rng.normal(size=n) + 1j * rng.normal(size=n)) * 10.0 ** rng.uniform(-3, 3)
        # The factor's lower tail gives y <= 0 rows.
        y = np.abs(inner_rows(a, x)) ** 2 * (1.0 + 0.6 * rng.normal(size=2000))
        norm_sq = float(np.vdot(x, x).real)
        blocks.append((a, y, x, 1.0 / n, float(10.0 ** rng.uniform(-2, 2)) / norm_sq**2))
    blocks.append(_orthogonal_block(rng, 200))
    rows = counts = 0
    for a, y, x, lam_a, lam_y in blocks:
        nu_star, f_star = sweep_corrections(a, y, x, lam_a, lam_y)
        nu_ref, f_ref, roots = sweep_corrections_reference(a, y, x, lam_a, lam_y)
        exact = ~np.any(np.abs(roots) <= 1e-12, axis=1)
        assert np.array_equal(nu_star[exact].view(np.uint64), nu_ref[exact].view(np.uint64))
        assert np.array_equal(f_star[exact].view(np.uint64), f_ref[exact].view(np.uint64))
        # Rows whose reference roots fell under the positivity tolerance only
        # need to do no worse; where a_m is orthogonal to x the two minimizers
        # +/- sqrt(-p) tie up to rounding.
        assert np.all(f_star[~exact] <= f_ref[~exact] * (1.0 + 1e-15))
        rows += int(exact.sum())
        counts += np.array([np.sum(np.isnan(roots[:, 1])), np.sum(~np.isnan(roots[:, 1])),
                            np.sum(y <= 0.0)])
    assert rows >= 100_000
    assert np.all(counts > 0)  # one-root, three-root and y <= 0 rows all occur


def test_orthogonal_rows_take_the_smallest_root_on_phase_zero():
    a, y, x, lam_a, lam_y = _orthogonal_block(make_rng(20_015), 400)
    nu_star, f_star = sweep_corrections(a, y, x, lam_a, lam_y)
    _, f_ref, _ = sweep_corrections_reference(a, y, x, lam_a, lam_y)
    norm_sq = float(np.vdot(x, x).real)
    p = (lam_a - 2.0 * lam_y * norm_sq * y) / (2.0 * lam_y * norm_sq)
    assert np.any(p < 0.0) and np.any(p >= 0.0)
    assert np.allclose(nu_star, -np.sqrt(np.maximum(-p, 0.0)), rtol=1e-14, atol=0)
    assert np.all(f_star <= f_ref * (1.0 + 1e-15))


@pytest.mark.parametrize("scale", [1e-9, 1e-12, 1e-13, 1e-15])
def test_sweep_finds_the_minimizer_at_small_signal_scale(scale):
    # An absolute root tolerance once discarded the minimizer below x ~ 1e-12.
    rng = make_rng(20_016)
    n, m = 8, 2000
    a = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    x = scale * (rng.normal(size=n) + 1j * rng.normal(size=n))
    c = np.abs(inner_rows(a, x))
    y = c**2 * rng.uniform(0.2, 2.0, size=m)
    norm_sq = float(np.vdot(x, x).real)
    lam_a, lam_y = 1.0 / n, 1.0 / norm_sq**2
    _, f_star = sweep_corrections(a, y, x, lam_a, lam_y)
    # Along nu = phase(gamma) * t, f' < 0 for t < -max(c, sqrt(y)), and a
    # minimizer has t <= 0; scan that interval densely, 250 rows at a time.
    grid = np.linspace(-1.0, 0.0, 4001)
    for rows in np.array_split(np.arange(m), 8):
        t = np.maximum(c[rows], np.sqrt(y[rows]))[:, None] * grid
        f = lam_a * (t + c[rows, None]) ** 2 / norm_sq + lam_y * (y[rows, None] - t * t) ** 2
        assert np.all(f_star[rows] <= f.min(axis=1) * (1.0 + 1e-6))


def test_rejects_zero_x():
    with pytest.raises(ValueError):
        correct_sensing_vector(
            np.ones(3, dtype=complex), 1.0, np.zeros(3, dtype=complex), CorrectionParams(1, 1)
        )


def test_rejects_nonfinite():
    x = np.ones(2, dtype=complex)
    with pytest.raises(ValueError):
        correct_sensing_vector(np.array([np.nan, 0], dtype=complex), 1.0, x, CorrectionParams(1, 1))
    with pytest.raises(ValueError):
        correct_sensing_vector(np.ones(2, dtype=complex), np.inf, x, CorrectionParams(1, 1))


def test_params_validation():
    with pytest.raises(ValueError):
        CorrectionParams(0.0, 1.0)
    with pytest.raises(ValueError):
        CorrectionParams(1.0, -2.0)
