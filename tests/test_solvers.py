from dataclasses import replace

import numpy as np
import pytest

from tlspr import solvers
from tlspr.core import complex_gaussian_vector, inner, inner_rows, make_rng
from tlspr.correction import apply_corrections, sweep_corrections
from tlspr.metrics import rel_dist
from tlspr.models import CdpConfig, cdp_ensemble, gaussian_ensemble, synthesize_measurements
from tlspr.noise import NoiseSpec, error_variance, inject
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

from oracles import (
    peak_bytes,
    reduced_gradient_reference,
    reduced_objective_reference,
    solve_ls_cg_reference,
    solve_ls_exact_reference,
    solve_ls_reference,
    solve_tls_reference,
    solve_tls_search_reference,
    spectral_init_reference,
    wirtinger_gradient_fd,
    wolfe_ratios,
)


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


def _noisy_spectral_instance(m, n, real_mode):
    """Measurements with additive noise, some of them negative."""
    x, ens, y = _clean_instance(50 + n, n, m, real_mode=real_mode)
    yv = y.values + 0.5 * y.values.mean() * make_rng(m + n).normal(size=m)
    assert np.any(yv < 0.0)
    return ens, yv


def _count_matrix_free_products(monkeypatch):
    calls = []

    def counted(vectors, x, out=None):
        calls.append(1)
        return inner_rows(vectors, x, out=out)

    monkeypatch.setattr(solvers, "inner_rows", counted)
    return calls


# (M, N, power_iters, builds the N x N matrix): the rule is N^2 <= M and
# N <= 2 * power_iters, and each shape pair sits on either side of it.
# M = 300 leaves a last block of 300 mod 16 = 12 rows.
_SPECTRAL_CASES = [
    (4096, 32, 50, True),
    (256, 16, 50, True),
    (300, 16, 50, True),
    (512, 64, 50, False),
    (1024, 128, 50, False),
    (255, 16, 50, False),
    (256, 16, 8, True),
    (256, 16, 7, False),
]


@pytest.mark.parametrize("real_mode", [False, True])
@pytest.mark.parametrize("m, n, power_iters, builds_matrix", _SPECTRAL_CASES)
def test_spectral_init_matches_frozen_matrix_free_iteration(
    m, n, power_iters, builds_matrix, real_mode, monkeypatch
):
    ens, yv = _noisy_spectral_instance(m, n, real_mode)
    ref = spectral_init_reference(yv, ens.vectors, power_iters)
    calls = _count_matrix_free_products(monkeypatch)
    got = spectral_init(yv, ens, power_iters)
    assert len(calls) == (0 if builds_matrix else power_iters)
    if builds_matrix:
        # Same iterate in exact arithmetic, summed in another order.
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
    else:
        assert np.array_equal(got, ref)
    if real_mode:
        assert np.all(got.imag == 0.0)


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


def _gradient_instances():
    """(x, ensemble, y) at a spectral start: noisy complex Gaussian, CDP and
    real Gaussian data."""
    spec = NoiseSpec(measurement_snr_db=20.0, sensing_snr_db=10.0)
    for kind in ("gaussian", "cdp", "real"):
        rng = make_rng(4100 + len(kind))
        if kind == "cdp":
            ens = cdp_ensemble(rng, CdpConfig(n=16, l=6))
            x = complex_gaussian_vector(rng, 16)
        else:
            ens = gaussian_ensemble(rng, 16, 128, real_mode=kind == "real")
            x = rng.normal(size=16).astype(np.complex128) if kind == "real" else complex_gaussian_vector(rng, 16)
        y, noisy = inject(rng, synthesize_measurements(ens, x), ens, spec)
        yield spectral_init(y, noisy), noisy, y


def test_tls_objective_gradient_matches_the_materialized_corrected_ensemble():
    # The gradient as corrected.T @ w over the materialized ensemble, the
    # form the solver's gradient helper replaced.
    for x, ens, y in _gradient_instances():
        vectors, yv = ens.vectors, y.values
        m, n = vectors.shape
        lam_a, lam_y = 1.0 / n, 1.0 / np.linalg.norm(x) ** 4
        nu_star, _ = sweep_corrections(vectors, yv, x, lam_a, lam_y)
        w = lam_y * (np.abs(nu_star) ** 2 - yv) * nu_star / m
        want = apply_corrections(vectors, x, nu_star).T @ w
        got = tls_objective_gradient(x, ens, y, lam_a, lam_y)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


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


def test_corrected_ensemble_is_built_once():
    x, ens, y = _clean_instance(22, 6, 48)
    res = solve_tls(y, ens, SolverConfig(mode="tls", max_iters=3))
    assert res.corrected_ensemble is res.corrected_ensemble


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


@pytest.mark.parametrize(
    "field, value",
    [
        ("lambda_a_dag", np.inf),
        ("lambda_y_dag", np.inf),
        ("lambda_a_dag", np.nan),
        ("lambda_y_dag", 0.0),
        ("threshold", np.inf),
        ("threshold", 0.0),
        ("step_size", np.inf),
        ("step_size", -1.0),
        ("max_iters", 2.5),
        ("max_iters", True),
        ("max_iters", -1),
        ("power_iters", 2.5),
        ("power_iters", False),
        ("power_iters", 0),
    ],
)
def test_solver_config_rejects_non_finite_weights_and_non_integer_counts(field, value):
    with pytest.raises(ValueError, match=field):
        SolverConfig(**{field: value})


def test_solver_config_takes_any_integer_count():
    cfg = SolverConfig(max_iters=np.int64(3), power_iters=np.int32(2), step_size=None)
    x, ens, y = _clean_instance(29, 6, 48)
    assert solve_ls(y, ens, replace(cfg, mode="ls")).iterations <= 3


@pytest.mark.parametrize("solver", [solve_ls, solve_tls])
def test_raw_arrays_and_containers_solve_bit_for_bit(solver):
    # Without x0, so spectral_init runs on both paths too.
    x, ens, y = _clean_instance(35, 8, 64)
    y_obs, ens_obs = inject(make_rng(36), y, ens, NoiseSpec(measurement_snr_db=20.0, sensing_snr_db=10.0))
    cfg = SolverConfig(mode=solver.__name__[len("solve_"):])
    boxed = solver(y_obs, ens_obs, cfg)
    raw = solver(y_obs.values.copy(), ens_obs.vectors.copy(), cfg)
    assert raw.iterations == boxed.iterations and raw.converged == boxed.converged
    assert raw.x_hat.tobytes() == boxed.x_hat.tobytes()
    assert raw.objective_trace.tobytes() == boxed.objective_trace.tobytes()
    if solver is solve_tls:
        assert raw.corrected_ensemble.vectors.tobytes() == boxed.corrected_ensemble.vectors.tobytes()


_STEP_POLICIES = ["searched", "explicit", "real_binary"]


def _policy_config(mode, policy, n, **fields):
    """SolverConfig of ``mode`` for a step policy: the default searched
    step, the tuned explicit step of ``_TUNED_MU`` (N = ``n``) or the fixed
    step of real-binary projection."""
    if policy == "explicit":
        fields["step_size"] = _TUNED_MU[mode, "none"] * (n if mode == "tls" else 1.0)
    elif policy == "real_binary":
        fields["projection"] = "real_binary"
    return SolverConfig(mode=mode, **fields)


def _stop_rule_instance():
    rng = make_rng(33)
    ens = gaussian_ensemble(rng, 8, 64)
    x = complex_gaussian_vector(rng, 8)
    y, noisy = inject(rng, synthesize_measurements(ens, x), ens, NoiseSpec(20.0, 10.0))
    return y, noisy, spectral_init(y, noisy)


@pytest.mark.parametrize("policy", _STEP_POLICIES)
@pytest.mark.parametrize("solver", [solve_ls, solve_tls])
def test_both_solvers_stop_by_one_rule(solver, policy):
    # converged holds exactly when the trace has two entries and its last
    # change is below threshold; the run stops at the first such change.
    y, noisy, x0 = _stop_rule_instance()
    mode = solver.__name__[len("solve_"):]
    outcomes = set()
    for threshold in (1e300, 1e-1, 1e-4, 1e-8, 1e-300):
        for max_iters in (0, 1, 2, 3, 25, 2500):
            cfg = _policy_config(mode, policy, 8, threshold=threshold, max_iters=max_iters)
            res = solver(y, noisy, cfg, x0=x0)
            changes = np.abs(np.diff(res.objective_trace))
            assert res.iterations == len(res.objective_trace) <= max_iters
            assert res.converged == (len(changes) > 0 and changes[-1] < threshold)
            assert np.all(changes[:-1] >= threshold)
            if not res.converged:
                assert res.iterations == max_iters
            if max_iters == 0:
                assert res.objective_trace.size == 0 and not res.converged
            outcomes.add((res.converged, res.iterations == max_iters))
    # Runs converged before the cap and runs capped unconverged both occurred.
    assert {(True, False), (False, True)} <= outcomes


@pytest.mark.parametrize("max_iters", [0, 1, 3, 2500])
@pytest.mark.parametrize("policy", _STEP_POLICIES)
@pytest.mark.parametrize("solver", [solve_ls, solve_tls])
def test_both_solvers_take_one_product_before_the_loop_and_one_per_iteration(solver, policy, max_iters, monkeypatch):
    # inner_rows(A, x) once before the loop, then inner_rows(A, d) or
    # inner_rows(A, x_new) once per iteration; the other product of an
    # iteration is the gradient's A^T w.
    y, noisy, x0 = _stop_rule_instance()
    cfg = _policy_config(solver.__name__[len("solve_"):], policy, 8, max_iters=max_iters)
    calls = _count_matrix_free_products(monkeypatch)
    res = solver(y, noisy, cfg, x0=x0)
    assert len(calls) == 1 + res.iterations
    if max_iters < 2500:
        assert res.iterations == max_iters


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
            # The fixed-step loop runs for an explicit step; the default LS
            # step without projection is the exact line search, checked below.
            mu = _TUNED_MU[mode, projection]
            lam_a = 1.0 / vectors.shape[1]
            cfg = SolverConfig(mode=mode, projection=projection, step_size=mu if mode == "ls" else mu / lam_a)
            res = solver(y, ens, cfg, x0=x0)
            binary = projection == "real_binary"
            if mode == "ls":
                x_ref, iters = solve_ls_reference(
                    yv, vectors, x0, mu, cfg.threshold, cfg.max_iters, real_binary=binary
                )
            else:
                x_ref, iters, corrected = solve_tls_reference(
                    yv, vectors, x0, mu / lam_a, lam_a, cfg.threshold, cfg.max_iters,
                    sweep_corrections, real_binary=binary,
                )
                assert np.allclose(res.corrected_ensemble.vectors, corrected, rtol=1e-12, atol=0)
            assert res.iterations == iters, (mode, projection)
            assert np.linalg.norm(res.x_hat - x_ref) <= 1e-12 * np.linalg.norm(x_ref)


def _orthogonal_start_instance(seed, binary):
    """(y, ensemble, x0) where x0 lives on the first half of the coordinates
    and a quarter of the rows on the second half, so inner(a_m, x0) = 0
    exactly on those rows; with ``binary`` a real-binary signal and x0."""
    rng = make_rng(seed)
    n, m = 16, 128
    ens = gaussian_ensemble(rng, n, m)
    x = (rng.random(n) < 0.5).astype(np.complex128) if binary else complex_gaussian_vector(rng, n)
    y, noisy = inject(rng, synthesize_measurements(ens, x), ens, NoiseSpec(measurement_snr_db=20.0, sensing_snr_db=10.0))
    vectors = noisy.vectors.copy()
    vectors[: m // 4, : n // 2] = 0.0
    x0 = np.zeros(n, dtype=np.complex128)
    x0[: n // 2] = np.ones(n // 2) if binary else complex_gaussian_vector(rng, n // 2)
    return y, vectors, x0


@pytest.mark.parametrize("binary", [False, True])
@pytest.mark.parametrize("max_iters", [1, 2500])
def test_solve_tls_matches_frozen_loop_from_rows_orthogonal_to_x0(binary, max_iters):
    y, vectors, x0 = _orthogonal_start_instance(4200 + binary, binary)
    assert np.sum(inner_rows(vectors, x0) == 0) == vectors.shape[0] // 4
    projection = "real_binary" if binary else "none"
    lam_a = 1.0 / vectors.shape[1]
    # The fixed-step loop runs for real_binary and for an explicit step; the
    # default step without projection is the line search, checked below.
    step = None if binary else _TUNED_MU["tls", projection] / lam_a
    cfg = SolverConfig(mode="tls", projection=projection, step_size=step, max_iters=max_iters)
    res = solve_tls(y, vectors, cfg, x0=x0)
    x_ref, iters, corrected = solve_tls_reference(
        y.values, vectors, x0, _TUNED_MU["tls", projection] / lam_a, lam_a, cfg.threshold, max_iters,
        sweep_corrections, real_binary=binary,
    )
    assert res.iterations == iters
    assert (iters == 1) == (max_iters == 1)
    assert np.linalg.norm(res.x_hat - x_ref) <= 1e-12 * np.linalg.norm(x_ref)
    # Row by row: at convergence some corrected entries nearly cancel, and
    # rounding differences in x_hat (~1e-13) show there at 2.5e-12 relative.
    diff = np.linalg.norm(res.corrected_ensemble.vectors - corrected, axis=1)
    assert np.all(diff <= 1e-12 * np.linalg.norm(corrected, axis=1))


def test_solve_ls_default_matches_exact_line_search_loop():
    # First measured run: equal iteration counts on all 16 instances and
    # x_hat within 3.0e-14 relative at worst.
    for y, ens, projection in _oracle_instances():
        if projection != "none":
            continue
        x0 = spectral_init(y, ens)
        cfg = SolverConfig(mode="ls")
        res = solve_ls(y, ens, cfg, x0=x0)
        x_ref, iters = solve_ls_cg_reference(y.values, ens.vectors, x0, cfg.threshold, cfg.max_iters)
        assert res.iterations == iters
        assert np.linalg.norm(res.x_hat - x_ref) <= 1e-12 * np.linalg.norm(x_ref)


def test_solve_ls_conjugate_directions_halve_the_steepest_descent_iterations():
    # First measured run: 532 against 2242 iterations (0.24x), final
    # objectives within 6.5e-7 relative of steepest descent's, all lower.
    total, total_sd = 0, 0
    for y, ens, projection in _oracle_instances():
        if projection != "none":
            continue
        x0 = spectral_init(y, ens)
        cfg = SolverConfig(mode="ls")
        res = solve_ls(y, ens, cfg, x0=x0)
        x_sd, iters_sd = solve_ls_exact_reference(y.values, ens.vectors, x0, cfg.threshold, cfg.max_iters)
        total, total_sd = total + res.iterations, total_sd + iters_sd
        objective_sd = objective_ls(x_sd, ens, y)
        assert abs(res.objective_trace[-1] - objective_sd) <= 1e-6 * objective_sd
    assert total <= 0.5 * total_sd


# ---------------------------------------------------------------------------
# the exact least squares step


def _quartic(r, nu, nu_g, t):
    """sum (|nu - t nu_g|^2 - y)^2 with r = |nu|^2 - y, summed directly."""
    b = -2.0 * np.real(np.conj(nu) * nu_g)
    c = np.abs(nu_g) ** 2
    return np.sum((r[:, None] + b[:, None] * t + c[:, None] * t * t) ** 2, axis=0)


def test_exact_step_is_no_worse_than_a_dense_grid():
    rng = make_rng(61)
    for trial in range(100):
        m = int(rng.integers(1, 40))
        nu = complex_gaussian_vector(rng, m) * 10.0 ** rng.uniform(-3, 3)
        nu_g = complex_gaussian_vector(rng, m) * 10.0 ** rng.uniform(-3, 3)
        if trial % 2:
            r = rng.normal(size=m) * 10.0 ** rng.uniform(-3, 3)
        else:  # r = |nu|^2 - y for positive y
            r = np.abs(nu) ** 2 - np.abs(nu) ** 2 * rng.uniform(0.0, 2.0, m)
        t = solvers._exact_step(r, nu, nu_g, np.empty(2 * m), np.empty(m))
        # Every stationary point lies within the Cauchy bound of the cubic.
        c = np.abs(nu_g) ** 2
        b = -2.0 * np.real(np.conj(nu) * nu_g)
        coeffs = np.array([1.5 * b @ c, 0.5 * b @ b + r @ c, 0.5 * r @ b]) / (c @ c)
        bound = 1.0 + np.max(np.abs(coeffs))
        # The whole range, and finer around t itself.
        grid = np.concatenate([np.linspace(-bound, bound, 20_001), t + np.linspace(-1e-3, 1e-3, 2001) * abs(t)])
        best = _quartic(r, nu, nu_g, grid).min()
        got = _quartic(r, nu, nu_g, np.array([t]))[0]
        assert got <= best * (1.0 + 1e-12) + 1e-12 * (r @ r)


def test_exact_step_is_zero_along_a_zero_gradient():
    m = 8
    nu = complex_gaussian_vector(make_rng(62), m)
    r = np.abs(nu) ** 2
    assert solvers._exact_step(r, nu, np.zeros(m, dtype=complex), np.empty(2 * m), np.empty(m)) == 0.0


def test_pr_direction_restarts_at_the_gradient():
    rng = make_rng(64)
    g, d_prev = complex_gaussian_vector(rng, 8), complex_gaussian_vector(rng, 8)
    # First iteration, and a zero previous gradient.
    assert np.array_equal(solvers._pr_direction(g, None, None), g)
    assert np.array_equal(solvers._pr_direction(g, np.zeros(8, dtype=complex), d_prev), g)
    # The PR+ beta is negative: Re<g - 2g, g> < 0.
    assert np.array_equal(solvers._pr_direction(g, 2.0 * g, d_prev), g)
    # beta = 1 with g_prev orthogonal to g, but d = g + d_prev points uphill.
    e0, e1 = np.eye(2, dtype=complex)
    assert np.array_equal(solvers._pr_direction(e0, e1, -2.0 * e0), e0)
    # Otherwise d = g + beta d_prev.
    assert np.allclose(solvers._pr_direction(e0, e1, 1j * e1), e0 + 1j * e1, rtol=0, atol=1e-15)


def test_solve_ls_from_an_exact_solution_takes_zero_steps():
    x, ens, _ = _clean_instance(63, 16, 128)
    nu = inner_rows(ens.vectors, x)
    # Measurements in the solver's own arithmetic, so that r and g are zero.
    y = nu.real * nu.real + nu.imag * nu.imag
    res = solve_ls(y, ens, SolverConfig(mode="ls"), x0=x)
    assert res.converged and res.iterations == 2
    assert np.array_equal(res.x_hat, x)
    assert np.array_equal(res.objective_trace, [0.0, 0.0])


def _noisy_shape_instances(shape):
    """(y, noisy ensemble) for three seeds at a benchmark workload's shape:
    sweep-paper (N=64, M/N=8), sweep-tall (N=32, M/N=128) or cdp (N=128,
    L=8), at 20 dB measurement and 10 dB sensing SNR."""
    spec = NoiseSpec(measurement_snr_db=20.0, sensing_snr_db=10.0)
    for seed in range(3):
        rng = make_rng(6400 + seed)
        if shape == "cdp":
            n, ens = 128, cdp_ensemble(rng, CdpConfig(n=128, l=8))
        else:
            n = 64 if shape == "sweep-paper" else 32
            ens = gaussian_ensemble(rng, n, n * (8 if shape == "sweep-paper" else 128))
        x = complex_gaussian_vector(rng, n)
        yield inject(rng, synthesize_measurements(ens, x), ens, spec)


@pytest.mark.parametrize("shape", ["sweep-paper", "sweep-tall", "cdp"])
def test_solve_ls_trace_ends_at_the_objective_of_x_hat(shape):
    # The solver follows nu = inner_rows(A, x) by nu - t inner_rows(A, d)
    # without refreshing it; the last traced loss is still the objective.
    for y, noisy in _noisy_shape_instances(shape):
        res = solve_ls(y, noisy, SolverConfig(mode="ls"))
        assert res.converged
        objective = objective_ls(res.x_hat, noisy, y)
        assert abs(res.objective_trace[-1] - objective) <= 1e-12 * objective


def test_solve_ls_trace_is_the_public_objective():
    # objective_ls reads the solver's own row model, so after a fixed step,
    # which reads nu = inner_rows(A, x_hat) afresh, the two agree bit for
    # bit; the searched step follows nu by nu - t inner_rows(A, d).
    for y, ens, projection in _oracle_instances():
        x0 = spectral_init(y, ens)
        fixed = _policy_config("ls", "explicit" if projection == "none" else projection, 16)
        res = solve_ls(y, ens, fixed, x0=x0)
        assert objective_ls(res.x_hat, ens, y) == res.objective_trace[-1]
        if projection == "none":
            res = solve_ls(y, ens, SolverConfig(), x0=x0)
            objective = objective_ls(res.x_hat, ens, y)
            # First measured run: within 8.3e-16 relative.
            assert abs(res.objective_trace[-1] - objective) <= 1e-14 * objective


@pytest.mark.parametrize("shape", ["sweep-paper", "sweep-tall", "cdp"])
def test_solve_ls_trace_never_increases(shape):
    # Every conjugate direction is a descent direction and the exact step
    # is no worse than t = 0.
    for y, noisy in _noisy_shape_instances(shape):
        trace = solve_ls(y, noisy, SolverConfig(mode="ls")).objective_trace
        assert np.all(trace[1:] <= trace[:-1] * (1.0 + 1e-12))


# ---------------------------------------------------------------------------
# the TLS line search on the reduced objective


def _default_weights(x0, noisy):
    """lambda_a and lambda_y of a default-weight TLS solve started at x0."""
    return 1.0 / noisy.vectors.shape[1], 1.0 / float(np.vdot(x0, x0).real) ** 2


@pytest.mark.parametrize("shape", ["sweep-paper", "sweep-tall", "cdp"])
def test_solve_tls_trace_never_increases_and_ends_at_the_objective_of_x_hat(shape):
    # Each trace entry is J at a new iterate, and the returned ensemble holds
    # the corrections there.
    for y, noisy in _noisy_shape_instances(shape):
        x0 = spectral_init(y, noisy)
        res = solve_tls(y, noisy, SolverConfig(), x0=x0)
        assert res.converged
        trace = res.objective_trace
        assert np.all(trace[1:] <= trace[:-1])
        lam_a, lam_y = _default_weights(x0, noisy)
        objective = objective_tls(res.x_hat, res.corrected_ensemble, noisy, y, lam_a, lam_y)
        assert abs(trace[-1] - objective) <= 1e-12 * objective
        assert trace[0] <= reduced_objective_reference(x0, noisy.vectors, y.values, lam_a, lam_y, sweep_corrections)


@pytest.mark.parametrize("shape", ["sweep-paper", "sweep-tall", "cdp"])
def test_solve_tls_default_steps_meet_the_strong_wolfe_conditions(shape):
    # The iterates of a run are the x_hat of runs capped at 1, 2, ...
    # iterations; J and its slope along each move are recomputed from
    # scratch.  First measured run: decrease ratios >= 0.297 and curvature
    # ratios <= 0.0984.  The 1e-6 covers rounding between the solver's J'
    # and the reference's.
    for y, noisy in _noisy_shape_instances(shape):
        x0 = spectral_init(y, noisy)
        iters = solve_tls(y, noisy, SolverConfig(), x0=x0).iterations
        iterates = [x0] + [solve_tls(y, noisy, SolverConfig(max_iters=k), x0=x0).x_hat for k in range(1, iters + 1)]
        ratios = wolfe_ratios(iterates, noisy.vectors, y.values, *_default_weights(x0, noisy), sweep_corrections)
        assert len(ratios) == iters
        for decrease, curvature in ratios:
            assert decrease >= solvers._DECREASE
            assert curvature <= solvers._CURVATURE * (1.0 + 1e-6)


def test_solve_tls_line_search_agrees_with_the_fixed_step_at_a_tight_threshold():
    # First measured run at threshold 1e-13: on 5 of the 6 instances the two
    # end within 3.9e-5 of each other, the line search at a J lower by
    # 3e-12 to 4e-10 relative, in 10-46 against 60-683 iterations.  On
    # sweep-paper seed 6400 they end in two different stationary points,
    # 0.056 apart, the line search's J 9.5e-5 relative above the fixed
    # step's: it follows another path than the fixed step's near-gradient
    # flow, and J is not convex.
    others = 0
    for shape in ("sweep-paper", "sweep-tall"):
        for y, noisy in _noisy_shape_instances(shape):
            x0 = spectral_init(y, noisy)
            lam_a, lam_y = _default_weights(x0, noisy)
            args = (noisy.vectors, y.values, lam_a, lam_y, sweep_corrections)
            searched = solve_tls(y, noisy, SolverConfig(threshold=1e-13), x0=x0)
            fixed = solve_tls(y, noisy, SolverConfig(threshold=1e-13, step_size=0.5 / lam_a), x0=x0)
            assert searched.converged and fixed.converged
            assert searched.iterations <= fixed.iterations / 5
            j_searched = reduced_objective_reference(searched.x_hat, *args)
            j_fixed = reduced_objective_reference(fixed.x_hat, *args)
            if rel_dist(fixed.x_hat, searched.x_hat) <= 1e-4:
                assert j_searched <= j_fixed
            else:
                others += 1
                # Both stationary: the gradient is as small as the fixed step's.
                grads = [np.linalg.norm(reduced_gradient_reference(r.x_hat, *args)) for r in (searched, fixed)]
                assert grads[0] <= 10.0 * grads[1]
                assert abs(j_searched - j_fixed) <= 1e-4 * j_fixed
    assert others <= 1


@pytest.mark.parametrize("max_iters", [1, 3, 2500])
def test_solve_tls_default_matches_the_plain_line_search_loop(max_iters):
    # The reference recomputes every trial from x - t d by an ensemble
    # product and a fresh sweep.  First measured run, on the 16 unprojected
    # oracle instances and the orthogonal start: equal iteration counts,
    # x_hat within 3.3e-12 relative and the traces within 4.0e-13.
    cases = [(y, ens.vectors, spectral_init(y, ens)) for y, ens, projection in _oracle_instances() if projection == "none"]
    cases.append(_orthogonal_start_instance(4200, False))
    for y, vectors, x0 in cases:
        cfg = SolverConfig(max_iters=max_iters)
        res = solve_tls(y, vectors, cfg, x0=x0)
        x_ref, iters, trace = solve_tls_search_reference(
            y.values, vectors, x0, 1.0 / vectors.shape[1], cfg.threshold, max_iters, sweep_corrections
        )
        assert res.iterations == iters
        assert np.linalg.norm(res.x_hat - x_ref) <= 1e-11 * np.linalg.norm(x_ref)
        assert np.all(np.abs(res.objective_trace - trace) <= 1e-12 * trace)


@pytest.mark.parametrize("n, ratio", [(64, 8), (32, 128)])
def test_solve_tls_converges_at_the_ml_weight_ratio(n, ratio):
    # lambda_y_dag = (sigma_delta^2 / sigma_eta^2) ||x0||^4 / N makes
    # lambda_y / lambda_a the ML ratio, 12-25x below the default; the fixed
    # step 0.5/lambda_a diverges there (2500 iterations, rel_dist 2.5-45).
    # First measured run: 4-13 iterations, rel_dist 0.047-0.262 against LS's
    # 0.090-0.273, at most 1.003x LS's.
    for seed in (1, 2, 3):
        rng = make_rng(seed)
        ens = gaussian_ensemble(rng, n, n * ratio)
        x = complex_gaussian_vector(rng, n)
        y = synthesize_measurements(ens, x)
        y_obs, ens_obs = inject(rng, y, ens, NoiseSpec(measurement_snr_db=20.0, sensing_snr_db=10.0))
        x0 = spectral_init(y_obs, ens_obs)
        var_delta, var_eta = error_variance(ens.vectors, 10.0), error_variance(y.values, 20.0)
        lambda_y_dag = (var_delta / var_eta) * float(np.vdot(x0, x0).real) ** 2 / n
        tls = solve_tls(y_obs, ens_obs, SolverConfig(lambda_y_dag=lambda_y_dag), x0=x0)
        ls = solve_ls(y_obs, ens_obs, SolverConfig(mode="ls"), x0=x0)
        assert tls.converged and tls.iterations <= 50
        assert rel_dist(x, tls.x_hat) <= 1.05 * rel_dist(x, ls.x_hat)


def test_reduced_line_slope_is_one_sided_on_rows_orthogonal_to_x0():
    # On the rows with c = inner(a_m, x0) = 0, c(t) = t |inner(a_m, d)| for
    # t > 0, so J'(0) is a derivative from the right, not the
    # Re(conj(phase) nu_d) of phase = 1; elsewhere J' matches central
    # differences of J.
    y, vectors, x0 = _orthogonal_start_instance(4200, False)
    yv = y.values
    norm_sq = float(np.vdot(x0, x0).real)
    lam_a, lam_y = 1.0 / vectors.shape[1], 1.0 / norm_sq**2
    d = tls_objective_gradient(x0, vectors, yv, lam_a, lam_y)
    nu_d = inner_rows(vectors, d)
    re_xd, dd = float(np.vdot(x0, d).real), float(np.vdot(d, d).real)
    with np.errstate(divide="ignore", invalid="ignore"):
        along = solvers._TLSRows(vectors, yv, inner_rows(vectors, x0), lam_a, lam_y, norm_sq, 1.0)
        zero = along.line.c == 0.0
        assert np.count_nonzero(zero) == vectors.shape[0] // 4
        # The right derivative against the naive one that took phase = 1.
        j0, slope0 = along._at(0.0, nu_d, re_xd, dd, norm_sq)
        kink = lam_a * float(along.s[zero] @ (np.abs(nu_d[zero]) - nu_d[zero].real)) / (yv.shape[0] * norm_sq)

        def j(t):
            return along._at(t, nu_d, re_xd, dd, norm_sq)[0]

        t_min = 0.5 / lam_a / norm_sq  # the tuned step
        h = 1e-4 * t_min
        forward = (-3.0 * j0 + 4.0 * j(h) - j(2.0 * h)) / (2.0 * h)
        # First measured run: 2.8e-10 relative, against 2.6e-2 for phase = 1.
        assert abs(slope0 - forward) <= 1e-6 * abs(slope0)
        assert abs(slope0 - kink - forward) >= 1e-2 * abs(slope0)
        assert j0 == reduced_objective_reference(x0, vectors, yv, lam_a, lam_y, sweep_corrections)
        for t in (0.1 * t_min, t_min, 3.0 * t_min):
            j_t, slope = along._at(t, nu_d, re_xd, dd, norm_sq)
            e = 1e-5 * t  # first measured run: within 9.4e-9 relative
            central = (j(t + e) - j(t - e)) / (2.0 * e)
            assert abs(slope - central) <= 1e-6 * abs(slope)
            x_t = x0 - t * d
            assert abs(j_t - reduced_objective_reference(x_t, vectors, yv, lam_a, lam_y, sweep_corrections)) <= 1e-12 * j_t
    res = solve_tls(y, vectors, SolverConfig(), x0=x0)
    assert res.converged and np.all(res.objective_trace[1:] <= res.objective_trace[:-1])
    assert res.objective_trace[0] < j0


# ---------------------------------------------------------------------------
# memory: products read the one stored ensemble, no conjugate copy


def test_solver_peak_allocation_stays_below_one_ensemble():
    n, m = 128, 1024
    x, ens, y = _clean_instance(33, n, m)
    ens_bytes = 16 * m * n
    assert peak_bytes(spectral_init, y, ens) < 0.25 * ens_bytes
    assert peak_bytes(solve_ls, y, ens, SolverConfig(mode="ls", max_iters=5)) < 0.25 * ens_bytes
    # solve_tls returns a corrected ensemble, one M x N result.
    assert peak_bytes(solve_tls, y, ens, SolverConfig(mode="tls", max_iters=5)) < 2.25 * ens_bytes


def test_real_data_check_makes_no_ensemble_sized_temporary():
    # Deciding whether the data are real reads the imaginary parts in place;
    # an M x N boolean temporary alone would be 1/16 of an ensemble.  The
    # solvers' own length-M work vectors are 1/N = 0.008 ensemble each.
    n, m = 128, 1024
    x, ens, y = _clean_instance(33, n, m)
    ens_bytes = 16 * m * n
    assert peak_bytes(ens.is_real) < 0.01 * ens_bytes
    assert peak_bytes(spectral_init, y, ens) < 0.04 * ens_bytes
    assert peak_bytes(solve_ls, y, ens, SolverConfig(mode="ls", max_iters=5)) < 0.04 * ens_bytes


def test_spectral_matrix_path_allocates_less_than_its_work_vectors():
    # At M = 4096, N = 32 the matrix-free loop's two length-M work vectors
    # alone are 2/N = 0.0625 ensemble; the N x N path keeps a few N x N
    # arrays.
    n, m = 32, 4096
    x, ens, y = _clean_instance(34, n, m)
    assert peak_bytes(spectral_init, y, ens) < 0.04 * 16 * m * n


def test_tls_objective_gradient_makes_no_ensemble_sized_temporary():
    # First measured run: 0.062 ensemble, the sweep's length-M buffers; the
    # materialized corrected ensemble took 1.15.
    n, m = 128, 1024
    x, ens, y = _clean_instance(33, n, m)
    x0 = spectral_init(y, ens)
    lam_a, lam_y = 1.0 / n, 1.0 / np.linalg.norm(x0) ** 4
    assert peak_bytes(tls_objective_gradient, x0, ens, y, lam_a, lam_y) < 0.07 * 16 * m * n


def test_solve_tls_returns_its_corrected_ensemble_without_a_copy():
    n, m = 128, 1024
    x, ens, y = _clean_instance(33, n, m)
    peak = peak_bytes(solve_tls, y, ens, SolverConfig(mode="tls", max_iters=5))
    assert peak < 1.25 * 16 * m * n


def test_solve_tls_holds_its_corrections_as_factors():
    # Unread, the corrected ensemble is never built: first measured run
    # 0.077 ensemble, the solve's length-M buffers.
    n, m = 128, 1024
    x, ens, y = _clean_instance(33, n, m)
    assert peak_bytes(solve_tls, y, ens, SolverConfig(mode="tls", max_iters=5)) < 0.09 * 16 * m * n
