import tracemalloc

import numpy as np
import pytest

from tlspr.core import complex_gaussian_vector, inner, make_rng
from tlspr.correction import apply_corrections, sweep_corrections
from tlspr.metrics import rel_dist
from tlspr.models import CdpConfig, cdp_ensemble, gaussian_ensemble, synthesize_measurements
from tlspr.noise import NoiseSpec, inject
from tlspr.solvers import (
    SolverConfig,
    SolverError,
    ls_gradient,
    objective_ls,
    objective_tls,
    project_real_binary,
    solve_ls,
    solve_tls,
    spectral_init,
    tls_objective_gradient,
)

from oracles import solve_ls_reference, solve_tls_reference, wirtinger_gradient_fd


def _clean_instance(seed, n, m, real_mode=False):
    rng = make_rng(seed)
    if real_mode:
        x = rng.normal(size=n).astype(np.complex128)
    else:
        x = complex_gaussian_vector(rng, n)
    ens = gaussian_ensemble(rng, n, m, real_mode=real_mode)
    y = synthesize_measurements(ens, x)
    return x, ens, y


# ---------------------------------------------------------------------------
# spectral initialization


def test_spectral_init_correlation():
    hits = 0
    for seed in range(50):
        x, ens, y = _clean_instance(31337 + seed, 32, 512)
        x0 = spectral_init(y, ens)
        corr = abs(np.vdot(x0, x)) / (np.linalg.norm(x0) * np.linalg.norm(x))
        hits += corr >= 0.8
    assert hits >= 45  # >= 90% of 50 seeded trials


def test_spectral_init_scaling_in_y():
    x, ens, y = _clean_instance(1, 16, 128)
    x0 = spectral_init(y, ens)
    x0_scaled = spectral_init(y.values * 4.0, ens)
    # direction unchanged, scale multiplied by sqrt(4) = 2
    assert np.allclose(x0_scaled, 2.0 * x0, rtol=1e-12)


def test_spectral_init_n_equals_one():
    rng = make_rng(2)
    ens = gaussian_ensemble(rng, 1, 8)
    y = synthesize_measurements(ens, np.array([2.0 + 0j]))
    x0 = spectral_init(y, ens)
    expect = np.sqrt(np.sum(y.values) / (2.0 * 8))
    assert abs(abs(x0[0]) - expect) <= 1e-12


def test_spectral_init_zero_measurements():
    ens = gaussian_ensemble(make_rng(3), 4, 8)
    with pytest.raises(ValueError):
        spectral_init(np.zeros(8), ens)


def test_spectral_init_real_data_stays_real():
    x, ens, y = _clean_instance(4, 12, 96, real_mode=True)
    x0 = spectral_init(y, ens)
    assert np.all(x0.imag == 0.0)


# ---------------------------------------------------------------------------
# objectives and gradients


def test_objective_tls_zero_at_truth():
    x, ens, y = _clean_instance(5, 8, 32)
    val = objective_tls(x, ens.vectors, ens.vectors, y.values, 1.0, 1.0)
    assert val <= 1e-18 * max(1.0, float(np.max(y.values)) ** 2)


def test_objective_tls_norm_arithmetic():
    x, ens, y = _clean_instance(6, 8, 32)
    shifted = ens.vectors.copy()
    shifted[:, 0] += 1.0  # each row moved by a unit basis vector
    lam_a = 0.37
    val = objective_tls(x, shifted, ens.vectors, y.values, lam_a, 0.0)
    assert abs(val - lam_a / 2.0) <= 1e-12


def test_objective_tls_matches_loop():
    rng = make_rng(7)
    n, m = 5, 11
    a = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    v = a + 0.1 * (rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n)))
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    y = rng.normal(size=m) ** 2
    lam_a, lam_y = 0.9, 1.7
    total = 0.0
    for i in range(m):
        diff = v[i] - a[i]
        total += lam_a * float(np.real(np.sum(diff.conj() * diff)))
        total += lam_y * (y[i] - abs(inner(v[i], x)) ** 2) ** 2
    expect = total / (2.0 * m)
    got = objective_tls(x, v, a, y, lam_a, lam_y)
    assert abs(got - expect) <= 1e-12 * max(1.0, expect)


def test_ls_gradient_zero_at_truth():
    x, ens, y = _clean_instance(8, 10, 60)
    g = ls_gradient(x, ens, y)
    assert np.linalg.norm(g) <= 1e-10 * np.linalg.norm(x) ** 3


def test_ls_gradient_zero_signal():
    x, ens, y = _clean_instance(9, 6, 24)
    g = ls_gradient(np.zeros(6, dtype=complex), ens, y)
    assert np.all(g == 0.0)


def test_ls_gradient_matches_finite_differences():
    rng = make_rng(10)
    n, m = 6, 24
    a = rng.normal(size=(m, n))
    x_point = rng.normal(size=n).astype(np.complex128)
    y = (a @ rng.normal(size=n)) ** 2

    def obj(v):
        return objective_ls(v, a.astype(complex), y)

    fd = wirtinger_gradient_fd(obj, x_point, h=1e-6)
    g = ls_gradient(x_point, a.astype(complex), y)
    assert np.linalg.norm(fd - g) <= 1e-4 * np.linalg.norm(fd)


def test_tls_objective_gradient_matches_finite_differences():
    rng = make_rng(11)
    n, m = 6, 24
    a = rng.normal(size=(m, n))
    x_point = rng.normal(size=n).astype(np.complex128)
    y = (a @ rng.normal(size=n)) ** 2 * (1 + 0.2 * rng.normal(size=m))
    lam_a, lam_y = 0.8, 1.9

    def obj(v):
        _, f_star = sweep_corrections(a.astype(complex), y, v, lam_a, lam_y)
        return float(np.sum(f_star)) / (2 * m)

    fd = wirtinger_gradient_fd(obj, x_point, h=1e-6)
    g = tls_objective_gradient(x_point, a.astype(complex), y, lam_a, lam_y)
    assert np.linalg.norm(fd - g) <= 1e-4 * np.linalg.norm(fd)


def test_tls_gradient_vanishes_at_truth_on_clean_data():
    x, ens, y = _clean_instance(12, 8, 48)
    lam_a, lam_y = 1.0 / 8, 1.0 / np.linalg.norm(x) ** 4
    g = tls_objective_gradient(x, ens, y, lam_a, lam_y)
    assert np.linalg.norm(g) <= 1e-10 * max(1.0, lam_y * np.linalg.norm(x) ** 3)


# ---------------------------------------------------------------------------
# projection


def test_project_real_binary_examples():
    out = project_real_binary(np.array([0.5, -0.3 + 0.4j]))
    assert np.allclose(out, [0.5, 0.5])
    out = project_real_binary(np.array([2.0, -3.0], dtype=complex))
    assert np.allclose(out, [1.0, 1.0])
    binary = np.array([1.0, 0.0, 1.0], dtype=complex)
    assert np.array_equal(project_real_binary(binary), binary)


# ---------------------------------------------------------------------------
# solve_ls


def test_solve_ls_zero_iters_returns_init():
    x, ens, y = _clean_instance(13, 6, 48)
    x0 = np.ones(6, dtype=complex)
    res = solve_ls(y, ens, SolverConfig(mode="ls", max_iters=0), x0=x0)
    assert np.array_equal(res.x_hat, x0)
    assert not res.converged
    assert res.iterations == 0
    assert res.objective_trace.size == 0


def test_solve_ls_clean_recovery():
    x, ens, y = _clean_instance(14, 64, 512)
    cfg = SolverConfig(mode="ls", threshold=1e-13, max_iters=5000)
    res = solve_ls(y, ens, cfg)
    assert rel_dist(x, res.x_hat) < 1e-5
    assert res.converged


def test_solve_ls_measurement_scaling():
    x, ens, y = _clean_instance(15, 32, 256)
    cfg = SolverConfig(mode="ls", threshold=1e-14, max_iters=6000)
    res = solve_ls(y.values * 2.0, ens, cfg)
    assert rel_dist(np.sqrt(2.0) * x, res.x_hat) < 1e-4


def test_solve_ls_mode_guard():
    x, ens, y = _clean_instance(16, 4, 16)
    with pytest.raises(ValueError):
        solve_ls(y, ens, SolverConfig(mode="tls"))


def test_solve_ls_divergence_reported():
    x, ens, y = _clean_instance(17, 8, 32)
    cfg = SolverConfig(mode="ls", step_size=1e9, max_iters=200)
    with pytest.raises(SolverError):
        solve_ls(y, ens, cfg)


def test_solve_ls_phase_equivariance():
    x, ens, y = _clean_instance(18, 16, 128)
    x0 = spectral_init(y, ens)
    cfg = SolverConfig(mode="ls", max_iters=300, threshold=1e-12)
    base = solve_ls(y, ens, cfg, x0=x0)
    rotated = solve_ls(y, ens, cfg, x0=np.exp(0.77j) * x0)
    assert rel_dist(base.x_hat, rotated.x_hat) <= 1e-8


def test_solve_ls_trace_finite_nonnegative():
    x, ens, y = _clean_instance(19, 12, 96)
    res = solve_ls(y, ens, SolverConfig(mode="ls", max_iters=100))
    assert np.all(np.isfinite(res.objective_trace))
    assert np.all(res.objective_trace >= 0.0)
    assert res.corrected_ensemble is None


# ---------------------------------------------------------------------------
# solve_tls


def test_solve_tls_clean_fixed_point():
    x, ens, y = _clean_instance(20, 8, 64)
    lam_a = 1.0 / 8
    lam_y = 1.0 / np.linalg.norm(x) ** 4
    nu_star, _ = sweep_corrections(ens.vectors, y.values, x, lam_a, lam_y)
    corrected = apply_corrections(ens.vectors, x, nu_star)
    assert np.allclose(corrected, ens.vectors, atol=1e-9)
    assert objective_tls(x, corrected, ens.vectors, y.values, lam_a, lam_y) <= 1e-16


def test_solve_tls_clean_recovery():
    x, ens, y = _clean_instance(21, 64, 512)
    cfg = SolverConfig(mode="tls", threshold=1e-13, max_iters=5000)
    res = solve_tls(y, ens, cfg)
    assert rel_dist(x, res.x_hat) < 1e-5
    assert res.corrected_ensemble is not None
    assert res.corrected_ensemble.noise_tag == "corrected"


def test_solve_tls_zero_iters():
    x, ens, y = _clean_instance(22, 6, 48)
    x0 = np.ones(6, dtype=complex)
    res = solve_tls(y, ens, SolverConfig(mode="tls", max_iters=0), x0=x0)
    assert np.array_equal(res.x_hat, x0)
    assert res.corrected_ensemble is not None
    assert np.array_equal(res.corrected_ensemble.vectors, ens.vectors)


def test_solve_tls_sweep_never_increases_objective():
    rng = make_rng(23)
    n, m = 10, 80
    x_true = complex_gaussian_vector(rng, n)
    ens = gaussian_ensemble(rng, n, m)
    y = synthesize_measurements(ens, x_true).values + rng.normal(size=m) * 5.0
    lam_a, lam_y = 1.0 / n, 1.0 / np.linalg.norm(x_true) ** 4
    x_probe = x_true + 0.3 * complex_gaussian_vector(rng, n)
    prev_vectors = ens.vectors
    for _ in range(4):
        before = objective_tls(x_probe, prev_vectors, ens.vectors, y, lam_a, lam_y)
        nu_star, _ = sweep_corrections(ens.vectors, y, x_probe, lam_a, lam_y)
        new_vectors = apply_corrections(ens.vectors, x_probe, nu_star)
        after = objective_tls(x_probe, new_vectors, ens.vectors, y, lam_a, lam_y)
        assert after <= before + 1e-12
        prev_vectors = new_vectors
        x_probe = x_probe + 0.05 * complex_gaussian_vector(rng, n)


def test_solve_tls_corrections_shrink_with_huge_lambda_a():
    rng = make_rng(24)
    x, ens, y = _clean_instance(24, 16, 128)
    y_noisy = y.values + rng.normal(size=128) * np.linalg.norm(y.values) / (10 * np.sqrt(128))
    x0 = spectral_init(y_noisy, ens)
    cfg = SolverConfig(mode="tls", lambda_a_dag=1e8, step_size=0.02, threshold=1e-30, max_iters=400)
    res = solve_tls(y_noisy, ens, cfg, x0=x0)
    row_norm = np.linalg.norm(ens.vectors, axis=1)
    corr_norm = np.linalg.norm(res.corrected_ensemble.vectors - ens.vectors, axis=1)
    assert np.all(corr_norm <= 1e-3 * row_norm)
    cfg_ls = SolverConfig(mode="ls", step_size=0.02, threshold=1e-30, max_iters=400)
    res_ls = solve_ls(y_noisy, ens, cfg_ls, x0=x0)
    assert rel_dist(res_ls.x_hat, res.x_hat) <= 1e-3


def test_solve_tls_zero_norm_iterate_aborts():
    x, ens, y = _clean_instance(25, 4, 16)
    with pytest.raises(SolverError):
        solve_tls(y, ens, SolverConfig(mode="tls"), x0=np.zeros(4, dtype=complex))


def test_solve_tls_trace_finite():
    rng = make_rng(26)
    x, ens, y = _clean_instance(26, 12, 96)
    y_noisy = y.values * (1.0 + 0.05 * rng.normal(size=96))
    res = solve_tls(y_noisy, ens, SolverConfig(mode="tls", max_iters=150))
    assert np.all(np.isfinite(res.objective_trace))
    assert np.all(res.objective_trace >= 0.0)


def test_solve_tls_trace_matches_public_objective():
    rng = make_rng(29)
    x_true, ens, y = _clean_instance(29, 10, 80)
    y_noisy = y.values * (1.0 + 0.1 * rng.normal(size=80))
    x0 = spectral_init(y_noisy, ens)
    cfg = SolverConfig(mode="tls", max_iters=40, threshold=1e-30)
    res = solve_tls(y_noisy, ens, cfg, x0=x0)
    lam_a = 1.0 / 10
    lam_y = 1.0 / float(np.vdot(x0, x0).real) ** 2
    recomputed = objective_tls(
        res.x_hat, res.corrected_ensemble.vectors, ens.vectors, y_noisy, lam_a, lam_y
    )
    assert abs(recomputed - res.objective_trace[-1]) <= 1e-12 * max(1.0, recomputed)


def test_real_binary_projection_recovery():
    rng = make_rng(27)
    n, m = 36, 288
    x = (rng.random(n) < 0.5).astype(np.complex128)
    ens = gaussian_ensemble(rng, n, m)
    y = synthesize_measurements(ens, x)
    x0 = spectral_init(y, ens)
    for mode, solver in (("ls", solve_ls), ("tls", solve_tls)):
        cfg = SolverConfig(mode=mode, projection="real_binary", threshold=1e-12, max_iters=4000)
        res = solver(y, ens, cfg, x0=x0)
        assert np.all(res.x_hat.imag == 0.0)
        assert np.all(res.x_hat.real <= 1.0 + 1e-12)
        assert rel_dist(x, res.x_hat) < 1e-4


def test_all_zero_measurements_fall_back_to_seeded_init():
    ens = gaussian_ensemble(make_rng(28), 6, 24)
    y = np.zeros(24)
    res_a = solve_ls(y, ens, SolverConfig(mode="ls", max_iters=3))
    res_b = solve_ls(y, ens, SolverConfig(mode="ls", max_iters=3))
    assert np.array_equal(res_a.x_hat, res_b.x_hat)
    assert np.all(np.isfinite(res_a.x_hat.view(np.float64)))


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(mode="nope")
    with pytest.raises(ValueError):
        SolverConfig(threshold=0.0)
    with pytest.raises(ValueError):
        SolverConfig(step_size=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(lambda_a_dag=0.0)
    with pytest.raises(ValueError):
        SolverConfig(projection="clamp")


# ---------------------------------------------------------------------------
# input validation at the solver boundary


@pytest.mark.parametrize("solver", [solve_ls, solve_tls])
def test_solver_rejects_measurement_count_mismatch(solver):
    x, ens, y = _clean_instance(30, 6, 48)
    cfg = SolverConfig(mode=solver.__name__[len("solve_"):])
    with pytest.raises(ValueError, match="ensemble has M = 48"):
        solver(y.values[:1], ens, cfg, x0=x)


@pytest.mark.parametrize("solver", [solve_ls, solve_tls])
def test_solver_rejects_x0_of_wrong_length(solver):
    x, ens, y = _clean_instance(31, 6, 48)
    cfg = SolverConfig(mode=solver.__name__[len("solve_"):])
    with pytest.raises(ValueError, match="x0 has length 5"):
        solver(y, ens, cfg, x0=x[:5])


@pytest.mark.parametrize("solver", [solve_ls, solve_tls])
def test_solver_rejects_non_finite_x0(solver):
    x, ens, y = _clean_instance(32, 6, 48)
    x0 = x.copy()
    x0[2] = np.nan
    cfg = SolverConfig(mode=solver.__name__[len("solve_"):], max_iters=0)
    with pytest.raises(ValueError, match="x0 contains non-finite entries"):
        solver(y, ens, cfg, x0=x0)


# ---------------------------------------------------------------------------
# the solver loops against the frozen two-array loops


# Tuned steps of the solvers module docstring; the TLS ones in units of 1/lambda_a.
_TUNED_MU = {("ls", "none"): 0.02, ("tls", "none"): 0.5, ("ls", "real_binary"): 0.005, ("tls", "real_binary"): 0.4}


def _oracle_instances():
    """(y, ensemble, projection) for 24 seeded noisy instances: complex
    Gaussian, CDP, and real-binary signals on Gaussian ensembles."""
    spec = NoiseSpec(measurement_snr_db=20.0, sensing_snr_db=10.0)
    for seed in range(24):
        rng = make_rng(4000 + seed)
        kind = seed % 3
        if kind == 1:
            ens = cdp_ensemble(rng, CdpConfig(n=16, l=6))
            x = complex_gaussian_vector(rng, 16)
        else:
            ens = gaussian_ensemble(rng, 16, 128)
            x = complex_gaussian_vector(rng, 16)
            if kind == 2:
                x = (rng.random(16) < 0.5).astype(np.complex128)
        y, noisy = inject(rng, synthesize_measurements(ens, x), ens, spec)
        yield y, noisy, "real_binary" if kind == 2 else "none"


def test_solvers_match_frozen_two_array_loops():
    for y, ens, projection in _oracle_instances():
        x0 = spectral_init(y, ens)
        yv, vectors = y.values, ens.vectors
        for mode, solver in (("ls", solve_ls), ("tls", solve_tls)):
            cfg = SolverConfig(mode=mode, projection=projection)
            res = solver(y, ens, cfg, x0=x0)
            mu = _TUNED_MU[mode, projection]
            binary = projection == "real_binary"
            if mode == "ls":
                x_ref, iters = solve_ls_reference(
                    yv, vectors, x0, mu, cfg.threshold, cfg.max_iters, real_binary=binary
                )
            else:
                lam_a = 1.0 / vectors.shape[1]
                x_ref, iters, corrected = solve_tls_reference(
                    yv, vectors, x0, mu / lam_a, lam_a, cfg.threshold, cfg.max_iters,
                    sweep_corrections, real_binary=binary,
                )
                assert np.allclose(res.corrected_ensemble.vectors, corrected, rtol=1e-12, atol=0)
            assert res.iterations == iters, (mode, projection)
            assert np.linalg.norm(res.x_hat - x_ref) <= 1e-12 * np.linalg.norm(x_ref)


# ---------------------------------------------------------------------------
# memory: products read the one stored ensemble, no conjugate copy


def _peak_bytes(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_solver_peak_allocation_stays_below_one_ensemble():
    n, m = 128, 1024
    x, ens, y = _clean_instance(33, n, m)
    ens_bytes = 16 * m * n
    assert _peak_bytes(spectral_init, y, ens) < 0.25 * ens_bytes
    assert _peak_bytes(solve_ls, y, ens, SolverConfig(mode="ls", max_iters=5)) < 0.25 * ens_bytes
    # solve_tls returns a corrected ensemble: one M x N result, copied once
    # by the SensingEnsemble container.
    assert _peak_bytes(solve_tls, y, ens, SolverConfig(mode="tls", max_iters=5)) < 2.25 * ens_bytes


def test_real_data_check_makes_no_ensemble_sized_temporary():
    # Deciding whether the data are real reads the imaginary parts in place;
    # an M x N boolean temporary alone would be 1/16 of an ensemble.  The
    # solvers' own length-M work vectors are 1/N = 0.008 ensemble each.
    n, m = 128, 1024
    x, ens, y = _clean_instance(33, n, m)
    ens_bytes = 16 * m * n
    assert _peak_bytes(ens.is_real) < 0.01 * ens_bytes
    assert _peak_bytes(spectral_init, y, ens) < 0.04 * ens_bytes
    assert _peak_bytes(solve_ls, y, ens, SolverConfig(mode="ls", max_iters=5)) < 0.04 * ens_bytes
