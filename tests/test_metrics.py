import numpy as np
import pytest

from tlspr.cli import ExperimentConfig, _simulate
from tlspr.core import DimensionMismatchError, make_rng
from tlspr.metrics import dist, optimal_phase, recon_snr_db, rel_corr, rel_dist
from tlspr.solvers import solve_tls

from oracles import min_over_phase_grid


def test_dist_identity_and_phase():
    rng = make_rng(1)
    x = rng.normal(size=12) + 1j * rng.normal(size=12)
    assert dist(x, x) == 0.0
    assert dist(x, np.exp(1.3j) * x) <= 1e-12
    assert dist(x, -x) <= 1e-12


def test_dist_symmetry_and_invariance():
    rng = make_rng(2)
    for _ in range(30):
        u = rng.normal(size=6) + 1j * rng.normal(size=6)
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        assert abs(dist(u, v) - dist(v, u)) <= 1e-12
        phi = float(rng.uniform(0, 2 * np.pi))
        assert abs(dist(u, np.exp(1j * phi) * v) - dist(u, v)) <= 1e-9


def test_dist_closed_form_identity():
    rng = make_rng(3)
    for _ in range(50):
        u = rng.normal(size=5) + 1j * rng.normal(size=5)
        v = rng.normal(size=5) + 1j * rng.normal(size=5)
        lhs = dist(u, v) ** 2 + 2.0 * abs(np.vdot(u, v))
        rhs = np.linalg.norm(u) ** 2 + np.linalg.norm(v) ** 2
        assert abs(lhs - rhs) <= 1e-9 * rhs


def test_dist_matches_phase_grid_oracle():
    rng = make_rng(4)
    for _ in range(10):
        u = rng.normal(size=7) + 1j * rng.normal(size=7)
        v = rng.normal(size=7) + 1j * rng.normal(size=7)
        assert abs(dist(u, v) - min_over_phase_grid(u, v)) <= 1e-6


def test_dist_shape_mismatch():
    with pytest.raises(DimensionMismatchError):
        dist(np.ones(2, dtype=complex), np.ones(3, dtype=complex))


def test_rel_dist_and_snr():
    rng = make_rng(5)
    x = rng.normal(size=8) + 1j * rng.normal(size=8)
    # rel_dist 0.1 <-> 20 dB
    v = x * (1.0 + 0.0j)
    u = x + 0.1 * np.linalg.norm(x) * _unit_orthogonal(rng, x)
    r = rel_dist(x, u)
    assert abs(recon_snr_db(x, u) + 20.0 * np.log10(r)) <= 1e-12
    assert abs(rel_dist(x, np.zeros_like(x)) - 1.0) <= 1e-12
    assert recon_snr_db(x, np.zeros_like(x)) == 0.0
    assert recon_snr_db(x, v) == float("inf")


def _unit_orthogonal(rng, x):
    v = rng.normal(size=x.shape[0]) + 1j * rng.normal(size=x.shape[0])
    v = v - (np.vdot(x, v) / np.vdot(x, x)) * x
    return v / np.linalg.norm(v)


def test_rel_dist_rejects_zero_truth():
    with pytest.raises(ValueError):
        rel_dist(np.zeros(3, dtype=complex), np.ones(3, dtype=complex))


def test_optimal_phase_aligns():
    rng = make_rng(6)
    for _ in range(20):
        x = rng.normal(size=5) + 1j * rng.normal(size=5)
        phi_true = float(rng.uniform(0, 2 * np.pi))
        x_hat = np.exp(-1j * phi_true) * x
        phi = optimal_phase(x, x_hat)
        assert np.linalg.norm(x - np.exp(1j * phi) * x_hat) <= 1e-9


def test_rel_corr_zero_cases():
    rng = make_rng(7)
    a = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
    x = rng.normal(size=4) + 1j * rng.normal(size=4)
    assert rel_corr(a, x, a, x) <= 1e-12
    assert rel_corr(a, x, a, np.exp(0.9j) * x) <= 1e-12


def test_rel_corr_phase_invariance_of_solution():
    rng = make_rng(8)
    a = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
    a_dag = a + 0.1 * (rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3)))
    x = rng.normal(size=3) + 1j * rng.normal(size=3)
    x_dag = x + 0.05 * (rng.normal(size=3) + 1j * rng.normal(size=3))
    base = rel_corr(a, x, a_dag, x_dag)
    rotated = rel_corr(a, x, a_dag, np.exp(2.1j) * x_dag)
    assert abs(base - rotated) <= 1e-9


def test_rel_corr_beats_phase_grid():
    rng = make_rng(9)
    a = rng.normal(size=(8, 4)) + 1j * rng.normal(size=(8, 4))
    a_dag = a + 0.2 * (rng.normal(size=(8, 4)) + 1j * rng.normal(size=(8, 4)))
    x = rng.normal(size=4) + 1j * rng.normal(size=4)
    x_dag = x + 0.1 * (rng.normal(size=4) + 1j * rng.normal(size=4))
    got = rel_corr(a, x, a_dag, x_dag)
    # the closed-form phase is the distance minimizer; evaluating the metric
    # at any grid phase cannot produce a smaller aligned distance to x
    phis = np.linspace(0, 2 * np.pi, 10_000, endpoint=False)
    best_phi = min(phis, key=lambda p: np.linalg.norm(x - np.exp(1j * p) * x_dag))
    ref = a.conj() @ x
    alt = np.linalg.norm(ref - a_dag.conj() @ (np.exp(1j * best_phi) * x_dag)) / np.linalg.norm(ref)
    assert got <= alt + 1e-6


def test_rel_corr_zero_denominator():
    a = np.ones((2, 2), dtype=complex)
    x = np.array([1.0, -1.0], dtype=complex)  # all inner products vanish
    with pytest.raises(ValueError):
        rel_corr(a, x, a, x)


@pytest.mark.parametrize("model, n, ratio", [("gaussian", 64, 8), ("gaussian", 32, 128), ("cdp", 128, 8)],
                         ids=["sweep-paper", "sweep-tall", "solve-cdp"])
@pytest.mark.parametrize("fixed", [False, True], ids=["searched", "fixed"])
def test_rel_corr_of_the_factors_matches_the_materialized_rows(model, n, ratio, fixed):
    config = ExperimentConfig(n=n, model=model, max_iters=100, step_size_tls=0.5 * n if fixed else None)
    x, y, ens_obs, ens = _simulate(make_rng(ratio * n), config, ratio, 20.0, 10.0)
    res = solve_tls(y, ens_obs, config.solver_config("tls"))
    want = rel_corr(ens, x, res.corrected_ensemble, res.x_hat)
    assert abs(rel_corr(ens, x, res.corrections, res.x_hat) - want) <= 1e-12 * want
