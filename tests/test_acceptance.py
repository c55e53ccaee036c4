"""Acceptance criteria, one test per criterion.

Each test prints a single `[criterion NN] name: PASS/FAIL` line (visible with
``pytest -s``) and then asserts, so the full suite both reports and gates.
Tolerances are pinned here; Monte-Carlo criteria use frozen seeds.
"""

import os
import time

import numpy as np

from tlspr.analysis import (
    ErrorAnalysisInputs,
    expected_squared_errors,
    first_order_errors,
    solve_matrices,
)
from tlspr.cli import ExperimentConfig, _strip_wall_time, run_sweep
from tlspr.core import complex_gaussian_vector, inner, make_rng
from tlspr.correction import CorrectionParams, correct_sensing_vector, reconstruct_from_nu
from tlspr.cubic import all_roots, residual_scale
from tlspr.metrics import rel_dist
from tlspr.models import CdpConfig, cdp_ensemble, gaussian_ensemble, octanary_pattern, synthesize_measurements
from tlspr.noise import NoiseSpec, inject
from tlspr.solvers import (
    SolverConfig,
    ls_gradient,
    objective_ls,
    solve_ls,
    solve_tls,
    spectral_init,
    tls_objective_gradient,
)
from tlspr.correction import sweep_corrections

from oracles import correction_objective, grid_min, wirtinger_gradient_fd


def _report(number: int, name: str, ok: bool):
    print(f"[criterion {number:02d}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


# ---------------------------------------------------------------------------
# 1. exact recovery


def test_criterion_01_exact_recovery():
    t0 = time.time()
    hits_ls = hits_tls = 0
    trials = 20
    for seed in range(trials):
        rng = make_rng(42 + seed)
        x = complex_gaussian_vector(rng, 64)
        ens = gaussian_ensemble(rng, 64, 512)
        y = synthesize_measurements(ens, x)
        x0 = spectral_init(y, ens)
        cfg = dict(threshold=1e-14, max_iters=8000)
        res_ls = solve_ls(y, ens, SolverConfig(mode="ls", **cfg), x0=x0)
        res_tls = solve_tls(y, ens, SolverConfig(mode="tls", **cfg), x0=x0)
        hits_ls += rel_dist(x, res_ls.x_hat) < 1e-5
        hits_tls += rel_dist(x, res_tls.x_hat) < 1e-5
    elapsed = time.time() - t0
    ok = hits_ls >= 19 and hits_tls >= 19 and elapsed < 120.0
    print(f"  ls {hits_ls}/{trials}, tls {hits_tls}/{trials}, {elapsed:.1f}s")
    _report(1, "clean Gaussian exact recovery", ok)


# ---------------------------------------------------------------------------
# 2. closed-form correction vs dense grid oracle


def test_criterion_02_correction_grid_oracle():
    rng = make_rng(20_002)
    failures = 0
    for _ in range(500):
        n = int(rng.integers(1, 5))
        a = 0.35 * (rng.normal(size=n) + 1j * rng.normal(size=n))
        x = 0.35 * (rng.normal(size=n) + 1j * rng.normal(size=n))
        clean = abs(inner(a, x)) ** 2
        y = float(clean * (1.0 + 0.6 * rng.normal()))
        ratio = float(10.0 ** rng.uniform(-2, 2))
        params = CorrectionParams(lambda_a=1.0, lambda_y=ratio)
        res = correct_sensing_vector(a, y, x, params)
        nu_a = inner(a, x)
        norm_sq = float(np.vdot(x, x).real)
        # sampled equivalence of the reduced objective used by the scan
        for _ in range(20):
            nu_probe = complex(rng.normal(), rng.normal())
            v = reconstruct_from_nu(a, x, nu_probe)
            full = correction_objective(a, v, y, x, params.lambda_a, params.lambda_y)
            reduced = params.lambda_a * abs(nu_probe - nu_a) ** 2 / norm_sq + params.lambda_y * (
                y - abs(nu_probe) ** 2
            ) ** 2
            assert abs(full - reduced) <= 1e-9 * (1.0 + abs(full))
        radius = 3.0 * (abs(nu_a) + np.sqrt(max(y, 0.0))) + 1.0
        oracle = grid_min(nu_a, y, params.lambda_a, params.lambda_y, norm_sq, radius, 1e-3)
        if not res.objective_value <= oracle + 1e-6:
            failures += 1
    _report(2, "correction matches dense grid oracle (500 instances)", failures == 0)


# ---------------------------------------------------------------------------
# 3. cubic residual bound


def test_criterion_03_cubic_residuals():
    rng = make_rng(30_003)
    failures = 0
    for _ in range(10_000):
        a, b, c, d = rng.normal(size=4) * 10.0 ** rng.integers(-3, 4, size=4)
        if a == 0.0:
            a = 1.0
        for z in all_roots(a, b, c, d):
            residual = abs(((a * z + b) * z + c) * z + d)
            if residual > 1e-8 * residual_scale(a, b, c, d, z):
                failures += 1
    _report(3, "cubic solver residual bound (10^4 cubics)", failures == 0)


# ---------------------------------------------------------------------------
# 4. gradient correctness


def test_criterion_04_gradient_finite_differences():
    rng = make_rng(40_004)
    n, m = 6, 24
    worst = 0.0
    for _ in range(50):
        a = rng.normal(size=(m, n))
        x_true = rng.normal(size=n)
        y = (a @ x_true) ** 2 * (1.0 + 0.1 * rng.normal(size=m))
        point = (x_true + 0.3 * rng.normal(size=n)).astype(np.complex128)
        lam_a = float(10.0 ** rng.uniform(-1, 1))
        lam_y = float(10.0 ** rng.uniform(-1, 1))
        ac = a.astype(np.complex128)

        fd_ls = wirtinger_gradient_fd(lambda v: objective_ls(v, ac, y), point, h=1e-6)
        g_ls = ls_gradient(point, ac, y)
        worst = max(worst, np.linalg.norm(fd_ls - g_ls) / np.linalg.norm(fd_ls))

        def tls_obj(v):
            _, f_star = sweep_corrections(ac, y, v, lam_a, lam_y)
            return float(np.sum(f_star)) / (2 * m)

        fd_tls = wirtinger_gradient_fd(tls_obj, point, h=1e-6)
        g_tls = tls_objective_gradient(point, ac, y, lam_a, lam_y)
        worst = max(worst, np.linalg.norm(fd_tls - g_tls) / np.linalg.norm(fd_tls))
    print(f"  worst relative gradient error {worst:.2e}")
    _report(4, "LS/TLS gradients match finite differences", worst <= 1e-4)


# ---------------------------------------------------------------------------
# 5 & 6. noisy Gaussian trends


def _trend_trial(seed, meas_db, sens_db):
    rng = make_rng(seed)
    n, m = 100, 1600
    x = complex_gaussian_vector(rng, n)
    ens = gaussian_ensemble(rng, n, m)
    y = synthesize_measurements(ens, x)
    spec = NoiseSpec(measurement_snr_db=meas_db, sensing_snr_db=sens_db)
    y2, a2 = inject(rng, y, ens, spec)
    x0 = spectral_init(y2, a2)
    res_tls = solve_tls(y2, a2, SolverConfig(mode="tls"), x0=x0)
    res_ls = solve_ls(y2, a2, SolverConfig(mode="ls"), x0=x0)
    return rel_dist(x, res_ls.x_hat) - rel_dist(x, res_tls.x_hat)


def test_criterion_05_tls_beats_ls_at_low_sensing_snr():
    t0 = time.time()
    diffs = [_trend_trial(50_000 + t, 20.0, 10.0) for t in range(50)]
    elapsed = time.time() - t0
    mean_gain = float(np.mean(diffs))
    print(f"  mean(rel_ls - rel_tls) = {mean_gain:+.4f}, {elapsed:.0f}s")
    _report(5, "TLS beats LS at meas 20 dB / sensing 10 dB", mean_gain > 0.0 and elapsed < 600.0)


def test_criterion_06_ls_beats_tls_at_high_sensing_snr():
    diffs = [_trend_trial(60_000 + t, 20.0, 30.0) for t in range(50)]
    mean_gain = float(np.mean(diffs))
    print(f"  mean(rel_ls - rel_tls) = {mean_gain:+.4f}")
    _report(6, "LS at least as good at sensing 30 dB", mean_gain <= 0.0)


# ---------------------------------------------------------------------------
# 7. weight-ratio sweep minima


def test_criterion_07_ml_parameter_sweep():
    combos = [(40.0, 20.0), (40.0, 40.0), (20.0, 40.0), (30.0, 35.0)]
    n, m = 40, 320
    failures = 0
    for c_idx, (sens_db, meas_db) in enumerate(combos):
        for run in range(10):
            rng = make_rng(70_007 + 1000 * c_idx + run)
            a = rng.normal(size=(m, n))
            x = rng.normal(size=n)
            y = (a @ x) ** 2
            s2_delta = float(np.sum(a * a)) * 10.0 ** (-sens_db / 10.0) / (m * n)
            s2_eta = float(np.sum(y * y)) * 10.0 ** (-meas_db / 10.0) / m
            optimal = s2_delta / s2_eta
            grid = optimal * 10.0 ** np.linspace(-2.0, 2.0, 41)
            vals = [expected_squared_errors(a, y, x, r, s2_delta, s2_eta)[0] for r in grid]
            k = int(np.argmin(vals))
            if abs(np.log10(grid[k]) - np.log10(optimal)) > 0.1 + 1e-9:
                failures += 1
    _report(7, "expected-error minimum at the ML weight ratio (4 SNR combos x 10 runs)", failures == 0)


# ---------------------------------------------------------------------------
# 8. expected squared error Monte Carlo


def test_criterion_08_expected_squared_monte_carlo():
    rng = make_rng(80_008)
    n, m = 20, 160
    a = rng.normal(size=(m, n))
    x = rng.normal(size=n)
    y = (a @ x) ** 2
    s2_delta, s2_eta = 2.5e-4, 1.5e-3
    r_tls, r_ls = solve_matrices(a, y, x, 1.0)
    draws = 2000
    sq_tls = np.empty(draws)
    sq_ls = np.empty(draws)
    for i in range(draws):
        e_a = rng.normal(size=(m, n)) * np.sqrt(s2_delta)
        e_y = rng.normal(size=m) * np.sqrt(s2_eta)
        w = (e_y / (2.0 * y)) * (a @ x) - e_a @ x
        sq_tls[i] = np.sum((r_tls @ w) ** 2)
        sq_ls[i] = np.sum((r_ls @ w) ** 2)
    e_tls, e_ls = expected_squared_errors(a, y, x, 1.0, s2_delta, s2_eta)
    z_tls = abs(sq_tls.mean() - e_tls) / (sq_tls.std(ddof=1) / np.sqrt(draws))
    z_ls = abs(sq_ls.mean() - e_ls) / (sq_ls.std(ddof=1) / np.sqrt(draws))
    print(f"  z_tls = {z_tls:.2f}, z_ls = {z_ls:.2f}")
    _report(8, "Monte-Carlo mean within 3 standard errors (2000 draws)", z_tls <= 3.0 and z_ls <= 3.0)


# ---------------------------------------------------------------------------
# 9. first-order accuracy improves with SNR


def test_criterion_09_first_order_accuracy_decay():
    n, ratio, trials = 100, 8, 20
    means_tls, means_ls = [], []
    for sens_db in (20.0, 35.0, 50.0):
        meas_db = 2.0 * sens_db
        gaps_tls, gaps_ls = [], []
        for t in range(trials):
            rng = make_rng(90_009 + int(sens_db) * 1000 + t)
            m = ratio * n
            x = rng.normal(size=n).astype(np.complex128)
            ens = gaussian_ensemble(rng, n, m, real_mode=True)
            y = synthesize_measurements(ens, x)
            spec = NoiseSpec(measurement_snr_db=meas_db, sensing_snr_db=sens_db)
            y2, a2 = inject(rng, y, ens, spec)
            x0 = spectral_init(y2, a2)
            lam_a = 1.0 / n
            lam_y = 1.0 / float(np.linalg.norm(x0)) ** 4
            cfg = dict(threshold=1e-10, max_iters=4000)
            res_tls = solve_tls(y2, a2, SolverConfig(mode="tls", step_size=1.0 / lam_a, **cfg), x0=x0)
            res_ls = solve_ls(y2, a2, SolverConfig(mode="ls", step_size=0.05, **cfg), x0=x0)
            pred = first_order_errors(
                ErrorAnalysisInputs(
                    ens.vectors.real,
                    y.values,
                    x.real,
                    (a2.vectors - ens.vectors).real,
                    y2.values - y.values,
                    lam_y / lam_a,
                )
            )
            gaps_tls.append(abs(rel_dist(x, res_tls.x_hat) - pred.rel_e_tls))
            gaps_ls.append(abs(rel_dist(x, res_ls.x_hat) - pred.rel_e_ls))
        means_tls.append(float(np.mean(gaps_tls)))
        means_ls.append(float(np.mean(gaps_ls)))
    print(f"  tls gaps {means_tls}")
    print(f"  ls gaps {means_ls}")
    ok = means_tls[0] > means_tls[1] > means_tls[2] and means_ls[0] > means_ls[1] > means_ls[2]
    _report(9, "prediction accuracy improves with SNR for both solvers", ok)


# ---------------------------------------------------------------------------
# 10. handcrafted error reversal


def _handcrafted_trial(seed, model):
    rng = make_rng(seed)
    n, m = 100, 800
    x = complex_gaussian_vector(rng, n)
    ens = gaussian_ensemble(rng, n, m)
    y = synthesize_measurements(ens, x)
    spec = NoiseSpec(measurement_snr_db=25.0, sensing_snr_db=100.0, model=model)
    y2, a2 = inject(rng, y, ens, spec, x_sharp=x)
    x0 = spectral_init(y2, a2)
    lam_a = 1.0 / n
    cfg = dict(threshold=1e-9, max_iters=2500)
    res_tls = solve_tls(y2, a2, SolverConfig(mode="tls", step_size=0.2 / lam_a, **cfg), x0=x0)
    res_ls = solve_ls(y2, a2, SolverConfig(mode="ls", **cfg), x0=x0)
    return rel_dist(x, res_ls.x_hat) - rel_dist(x, res_tls.x_hat)


def test_criterion_10_handcrafted_reversal():
    hand = [_handcrafted_trial(100_010 + t, "handcrafted") for t in range(30)]
    gauss = [_handcrafted_trial(100_510 + t, "gaussian") for t in range(30)]
    mean_hand = float(np.mean(hand))
    mean_gauss = float(np.mean(gauss))
    print(f"  handcrafted {mean_hand:+.4f}, gaussian {mean_gauss:+.4f}")
    _report(10, "handcrafted errors reverse the measurement-only ranking", mean_hand > 0.0 and mean_gauss < 0.0)


# ---------------------------------------------------------------------------
# 11. coded diffraction model


def test_criterion_11_cdp_sanity_and_recovery():
    p = octanary_pattern(make_rng(110_011), 100_000)
    moment = float(np.mean(np.abs(p) ** 2))
    moment_ok = 0.97 <= moment <= 1.03
    hits_ls = hits_tls = 0
    trials = 20
    for seed in range(trials):
        rng = make_rng(111_011 + seed)
        x = complex_gaussian_vector(rng, 64)
        ens = cdp_ensemble(rng, CdpConfig(n=64, l=8))
        y = synthesize_measurements(ens, x)
        x0 = spectral_init(y, ens)
        cfg = dict(threshold=1e-14, max_iters=10_000)
        hits_ls += rel_dist(x, solve_ls(y, ens, SolverConfig(mode="ls", **cfg), x0=x0).x_hat) < 1e-4
        hits_tls += rel_dist(x, solve_tls(y, ens, SolverConfig(mode="tls", **cfg), x0=x0).x_hat) < 1e-4
    print(f"  E|p|^2 = {moment:.4f}, ls {hits_ls}/{trials}, tls {hits_tls}/{trials}")
    ok = moment_ok and hits_ls >= 18 and hits_tls >= 18
    _report(11, "octanary moment and clean CDP recovery", ok)


# ---------------------------------------------------------------------------
# 12. sweep determinism across runs and worker counts


def test_criterion_12_sweep_determinism(tmp_path):
    cfg = ExperimentConfig(
        seed=120_012,
        n=24,
        ratios=(4,),
        trials=3,
        max_iters=150,
        measurement_snr_db=(25.0,),
        sensing_snr_db=(15.0,),
    )
    outputs = []
    old = os.environ.get("TLSPR_WORKERS")
    try:
        for idx, workers in enumerate(("1", "1", "2")):
            os.environ["TLSPR_WORKERS"] = workers
            path = run_sweep(cfg, output=str(tmp_path / f"run{idx}.csv"))
            outputs.append(_strip_wall_time(open(path).read()))
    finally:
        if old is None:
            os.environ.pop("TLSPR_WORKERS", None)
        else:
            os.environ["TLSPR_WORKERS"] = old
    ok = outputs[0] == outputs[1] == outputs[2]
    _report(12, "sweep output identical across runs and worker counts", ok)
