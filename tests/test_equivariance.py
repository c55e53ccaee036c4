"""Symmetries of the LS and TLS solves.

Both objectives stay the same when x takes a global phase, when the rows of
(A, y) are reordered, and when A and x are conjugated together, and the LS
loss also when A -> 4 A and x -> x / 4.  So a solve started from the
transformed x0 should end at the transformed x_hat.  Reordered sums round
differently, and LS, whose absolute stopping rule watches an objective of
order ||x||^4, may stop an iteration or two apart; each bound below is set
from the first run on these instances, with that run's worst relative
change and iteration difference over six seeds beside it.

Real-binary projection maps every start to |x0| clamped, so the phase
transform does not apply to it.  The TLS weights (lambda_a = lambda_a_dag / N)
and the fixed steps are not in A's units, so only LS's searched step is
checked under scaling, where it is exact: every product then moves by a
power of two.
"""

import numpy as np
import pytest

from tlspr.core import complex_gaussian_vector, make_rng
from tlspr.models import gaussian_ensemble, synthesize_measurements
from tlspr.noise import NoiseSpec, inject
from tlspr.solvers import SolverConfig, solve_ls, solve_tls, spectral_init

N, M, THRESHOLD, SEEDS = 16, 128, 1e-12, range(6)
PHASE = np.exp(0.7j)

# (solver, step policy): (bound on ||x_hat' - T(x_hat)|| / ||x_hat||, most
# iterations apart) over the phase, permutation and conjugation transforms,
# about four times the first run's worst, whose figures follow each entry.
# Conjugation came out exact (0) in that run; another BLAS kernel may round
# it as a reordered sum, so it shares the bound.
_BOUNDS = {
    ("tls", "searched"): (2e-10, 1),  # 5.4e-11, 0 apart
    ("tls", "explicit"): (3e-14, 1),  # 7.8e-15, 0
    ("tls", "real_binary"): (3e-14, 1),  # 7.5e-15, 0
    ("ls", "searched"): (5e-15, 1),  # 1.3e-15, 0
    ("ls", "explicit"): (6e-8, 8),  # 1.6e-8, 5
    ("ls", "real_binary"): (8e-12, 2),  # 1.9e-12, 1
}
_SOLVERS = {"tls": solve_tls, "ls": solve_ls}


def _instance(seed, binary):
    """y, the rows of A and x0 of a noisy (20/10 dB) complex Gaussian
    instance; ``binary`` draws a real-binary signal."""
    rng = make_rng(8100 + seed)
    ens = gaussian_ensemble(rng, N, M)
    x = (rng.random(N) < 0.5).astype(np.complex128) if binary else complex_gaussian_vector(rng, N)
    y, noisy = inject(rng, synthesize_measurements(ens, x), ens, NoiseSpec(20.0, 10.0))
    return y.values, noisy.vectors, spectral_init(y, noisy)


def _config(mode, policy):
    """The searched step, the tuned step given explicitly (0.5 / lambda_a
    for TLS, with lambda_a = 1 / N, and 0.02 for LS), or real-binary
    projection."""
    fields = {"threshold": THRESHOLD}
    if policy == "explicit":
        fields["step_size"] = 0.5 * N if mode == "tls" else 0.02
    elif policy == "real_binary":
        fields["projection"] = "real_binary"
    return SolverConfig(mode=mode, **fields)


def _transforms(y, a, x0, seed, policy):
    """name: (y', A', x0', the map T that x_hat should follow)."""
    perm = make_rng(seed).permutation(M)
    out = {
        "permute rows": (y[perm], a[perm], x0, lambda v: v),
        "conjugate": (y, a.conj(), x0.conj(), np.conj),
    }
    if policy != "real_binary":
        out["phase"] = (y, a, PHASE * x0, lambda v: PHASE * v)
    return out


@pytest.mark.parametrize("policy", ["searched", "explicit", "real_binary"])
@pytest.mark.parametrize("mode", ["tls", "ls"])
def test_solves_follow_phase_permutation_and_conjugation(mode, policy):
    solve, cfg = _SOLVERS[mode], _config(mode, policy)
    bound, iterations_apart = _BOUNDS[mode, policy]
    for seed in SEEDS:
        y, a, x0 = _instance(seed, policy == "real_binary")
        base = solve(y, a, cfg, x0=x0)
        for name, (y_t, a_t, x0_t, follow) in _transforms(y, a, x0, seed, policy).items():
            res = solve(y_t, a_t, cfg, x0=x0_t)
            change = np.linalg.norm(res.x_hat - follow(base.x_hat)) / np.linalg.norm(base.x_hat)
            assert change <= bound, (seed, name, change)
            assert abs(res.iterations - base.iterations) <= iterations_apart, (seed, name)


def test_ls_searched_step_is_exactly_scale_equivariant():
    # y is unchanged and inner(4 a_m, x / 4) = inner(a_m, x) exactly, so every
    # iterate is the unscaled one over 4, bit for bit.
    cfg = _config("ls", "searched")
    for seed in SEEDS:
        y, a, x0 = _instance(seed, False)
        base = solve_ls(y, a, cfg, x0=x0)
        res = solve_ls(y, 4.0 * a, cfg, x0=x0 / 4.0)
        assert res.iterations == base.iterations
        assert res.x_hat.tobytes() == (base.x_hat / 4.0).tobytes()
        assert res.objective_trace.tobytes() == base.objective_trace.tobytes()
