"""Spectral initialization, Wirtinger-flow least squares, and the total
least squares solver with alternating sensing-vector correction.

Both solvers minimize measurement misfit by gradient steps

    x <- x - (mu / ||x0||^2) * g(x),
    g(x) = (1/2M) sum_m 2*(|inner(v_m, x)|^2 - y_m) * inner(v_m, x) * v_m,

where v_m is the raw sensing vector for least squares and the corrected
vector for total least squares (corrected in closed form before every step).
||x0|| is frozen at initialization.  The least squares convergence objective
is the (1/2M)-normalized misfit; the total least squares objective adds the
lambda_a-weighted correction norms (the objective J tracked by the
convergence test).  Iteration stops when the objective changes by less than
``threshold`` between consecutive iterates or at ``max_iters``.

One iteration of either solver costs two products with the one stored
(M, N) ensemble A and no copy of it: inner(a_m, x) for all rows as
conj(A @ conj(x)) (:func:`~tlspr.core.inner_rows`), and the gradient as
A^T w.  The TLS correction enters both only through length-M vectors.

Defaults follow the tuned values for the Gaussian measurement model:
mu = 0.5/lambda_a for TLS and mu = 0.02 for LS, with lambda_a =
lambda_a_dag/N and lambda_y = lambda_y_dag/||x0||^4 (both daggers default 1).
In real-binary projection mode the tuned steps are 0.4/lambda_a and 0.005.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MeasurementSet, SensingEnsemble, as_cvector, inner_rows, make_rng
from .correction import apply_corrections, sweep_corrections

# Fixed internal seeds: power-method start vector and the fallback
# initialization used when the spectral method is degenerate.
_SPECTRAL_START_SEED = 0x5066_494E
_FALLBACK_INIT_SEED = 0xFA11_BACC

PROJECTIONS = ("none", "real_binary")
MODES = ("ls", "tls")


class SolverError(RuntimeError):
    """Iteration produced a non-finite objective or a zero-norm iterate."""


@dataclass(frozen=True)
class SolverConfig:
    mode: str = "tls"
    lambda_a_dag: float = 1.0
    lambda_y_dag: float = 1.0
    step_size: float | None = None  # None: tuned default for mode/projection
    threshold: float = 1e-6
    max_iters: int = 2500
    power_iters: int = 50
    projection: str = "none"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.projection not in PROJECTIONS:
            raise ValueError(f"unknown projection {self.projection!r}")
        if not (self.lambda_a_dag > 0 and self.lambda_y_dag > 0):
            raise ValueError("regularization weights must be > 0")
        if self.step_size is not None and not (self.step_size > 0):
            raise ValueError("step_size must be > 0")
        if not (self.threshold > 0):
            raise ValueError("threshold must be > 0")
        if self.max_iters < 0 or self.power_iters < 1:
            raise ValueError("max_iters must be >= 0 and power_iters >= 1")


@dataclass(frozen=True)
class SolveResult:
    x_hat: np.ndarray
    corrected_ensemble: SensingEnsemble | None
    objective_trace: np.ndarray
    iterations: int
    converged: bool


def _as_vectors(ensemble) -> np.ndarray:
    if isinstance(ensemble, SensingEnsemble):
        return ensemble.vectors
    arr = np.asarray(ensemble, dtype=np.complex128)
    if arr.ndim != 2:
        raise ValueError("ensemble must be a (M, N) array")
    return arr


def _as_values(y) -> np.ndarray:
    if isinstance(y, MeasurementSet):
        return y.values
    return np.asarray(y, dtype=np.float64)


def spectral_init(y, ensemble, power_iters: int = 50) -> np.ndarray:
    """Leading eigenvector of sum_m y_m a_m a_m^* by power iteration.

    The matrix is only applied (two matrix-vector products per iteration),
    never materialized.  The eigenvector is scaled by the norm estimate
    sqrt(sum_m y_m / (2M)).  Real-valued data yields a real start vector so
    the iteration stays real.
    """
    vectors = _as_vectors(ensemble)
    yv = _as_values(y)
    if yv.shape[0] != vectors.shape[0]:
        raise ValueError("measurement count does not match ensemble")
    if np.all(yv == 0.0):
        raise ValueError("all measurements are zero; spectral init undefined")
    total = float(np.sum(yv))
    if total <= 0.0:
        raise ValueError("measurements sum to a nonpositive value")
    n = vectors.shape[1]
    real_data = not vectors.imag.any()
    rng = make_rng(_SPECTRAL_START_SEED)
    u = rng.normal(size=n).astype(np.complex128)
    if not real_data:
        u = u + 1j * rng.normal(size=n)
    u /= np.linalg.norm(u)
    for _ in range(power_iters):
        t = inner_rows(vectors, u)
        u = vectors.T @ (yv * t)
        nrm = np.linalg.norm(u)
        if nrm == 0.0:
            u = rng.normal(size=n).astype(np.complex128)
            if not real_data:
                u = u + 1j * rng.normal(size=n)
            nrm = np.linalg.norm(u)
        u /= nrm
    scale = np.sqrt(total / (2.0 * yv.shape[0]))
    return scale * u


def fallback_init(n: int, real_mode: bool = False) -> np.ndarray:
    """Deterministic random unit vector used when spectral init fails."""
    rng = make_rng(_FALLBACK_INIT_SEED)
    v = rng.normal(size=n).astype(np.complex128)
    if not real_mode:
        v = v + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def project_real_binary(x: np.ndarray) -> np.ndarray:
    """Elementwise |x_i| clamped to at most one, imaginary part dropped."""
    return np.minimum(np.abs(x), 1.0).astype(np.complex128)


def ls_gradient(x, ensemble, y) -> np.ndarray:
    """Wirtinger gradient of the (1/2M)-normalized least squares misfit."""
    vectors = _as_vectors(ensemble)
    yv = _as_values(y)
    x = np.asarray(x, dtype=np.complex128)
    if vectors.shape[1] != x.shape[0] or vectors.shape[0] != yv.shape[0]:
        raise ValueError("dimension mismatch")
    nu = inner_rows(vectors, x)
    w = (np.abs(nu) ** 2 - yv) * nu / yv.shape[0]
    return vectors.T @ w


def objective_ls(x, ensemble, y) -> float:
    """(1/2M) sum (y_m - |inner(a_m, x)|^2)^2."""
    vectors = _as_vectors(ensemble)
    yv = _as_values(y)
    nu = inner_rows(vectors, np.asarray(x, dtype=np.complex128))
    return float(np.sum((yv - np.abs(nu) ** 2) ** 2) / (2.0 * yv.shape[0]))


def objective_tls(x, corrected, original, y, lambda_a: float, lambda_y: float) -> float:
    """(1/2M) sum lambda_a ||a_m - v_m||^2 + lambda_y (y_m - |inner(v_m, x)|^2)^2."""
    v = _as_vectors(corrected)
    a = _as_vectors(original)
    yv = _as_values(y)
    if v.shape != a.shape or v.shape[0] != yv.shape[0]:
        raise ValueError("dimension mismatch")
    nu = inner_rows(v, np.asarray(x, dtype=np.complex128))
    corr = np.sum(np.abs(v - a) ** 2, axis=1)
    misfit = (yv - np.abs(nu) ** 2) ** 2
    return float(np.sum(lambda_a * corr + lambda_y * misfit) / (2.0 * yv.shape[0]))


def tls_objective_gradient(x, ensemble, y, lambda_a: float, lambda_y: float) -> np.ndarray:
    """Gradient of (1/2M) sum_m min_v f_m(v; x) with respect to x.

    By the envelope theorem the inner minimizers are held fixed, giving
    lambda_y * (1/2M) sum 2*(|inner(v_m, x)|^2 - y_m)*inner(v_m, x)*v_m with
    v_m the corrected vectors at x.
    """
    vectors = _as_vectors(ensemble)
    yv = _as_values(y)
    x = np.asarray(x, dtype=np.complex128)
    nu_star, _ = sweep_corrections(vectors, yv, x, lambda_a, lambda_y)
    corrected = apply_corrections(vectors, x, nu_star)
    w = lambda_y * (np.abs(nu_star) ** 2 - yv) * nu_star / yv.shape[0]
    return corrected.T @ w


def _start(y, ensemble, cfg: SolverConfig, x0, mode: str):
    """Checked inputs, initial iterate, its squared norm, lambda_a and the
    scaled step, shared by both solvers."""
    if cfg.mode != mode:
        raise ValueError(f"cfg.mode must be {mode!r}")
    vectors = _as_vectors(ensemble)
    yv = _as_values(y)
    m, n = vectors.shape
    if yv.shape != (m,):
        raise ValueError(f"measurements have shape {yv.shape}, ensemble has M = {m}")
    if x0 is not None:
        x = as_cvector(x0, "x0").copy()
        if x.shape[0] != n:
            raise ValueError(f"x0 has length {x.shape[0]}, ensemble has N = {n}")
    else:
        try:
            x = spectral_init(yv, vectors, cfg.power_iters)
        except ValueError:
            x = fallback_init(n, real_mode=not vectors.imag.any())
    binary = cfg.projection == "real_binary"
    if binary:
        x = project_real_binary(x)
    norm0_sq = float(np.vdot(x, x).real)
    if norm0_sq == 0.0:
        raise SolverError("initial iterate has zero norm")
    lambda_a = cfg.lambda_a_dag / n
    if cfg.step_size is not None:
        mu = cfg.step_size
    elif mode == "tls":
        mu = (0.4 if binary else 0.5) / lambda_a
    else:
        mu = 0.005 if binary else 0.02
    return vectors, yv, x, norm0_sq, lambda_a, mu / norm0_sq


def solve_ls(y, ensemble, cfg: SolverConfig, x0=None) -> SolveResult:
    """Wirtinger-flow least squares solve."""
    vectors, yv, x, _, _, step = _start(y, ensemble, cfg, x0, "ls")
    m = yv.shape[0]
    trace = []
    converged = False
    # Residual r = |nu|^2 - y of the current iterate: its loss and next step.
    nu = inner_rows(vectors, x)
    r = nu.real**2 + nu.imag**2 - yv
    for it in range(cfg.max_iters):
        x = x - (step / m) * (vectors.T @ (r * nu))
        if cfg.projection == "real_binary":
            x = project_real_binary(x)
        nu = inner_rows(vectors, x)
        with np.errstate(over="ignore", invalid="ignore"):
            r = nu.real**2 + nu.imag**2 - yv
            loss = float(r @ r) / (2.0 * m)
        if not np.isfinite(loss):
            raise SolverError(f"objective became non-finite at iteration {it + 1}")
        trace.append(loss)
        if it and abs(loss - trace[-2]) < cfg.threshold:
            converged = True
            break
    return SolveResult(
        x_hat=x,
        corrected_ensemble=None,
        objective_trace=np.asarray(trace),
        iterations=len(trace),
        converged=converged,
    )


def solve_tls(y, ensemble, cfg: SolverConfig, x0=None) -> SolveResult:
    """Alternating closed-form correction sweeps and gradient steps.

    Each iteration (a) corrects every sensing vector in closed form at the
    current x, then (b) takes one gradient step on x with the corrected
    vectors held fixed.  Convergence is declared on the change of the full
    objective J (correction norms plus weighted misfit).  The returned
    ensemble holds the corrections from the final sweep.
    """
    vectors, yv, x, norm0_sq, lambda_a, step = _start(y, ensemble, cfg, x0, "tls")
    model_tag = ensemble.model_tag if isinstance(ensemble, SensingEnsemble) else "external"
    m = yv.shape[0]
    lambda_y = cfg.lambda_y_dag / norm0_sq**2
    trace = []
    converged = False
    sweep_shift = np.zeros(m, dtype=np.complex128)
    sweep_x = x
    nu_a = inner_rows(vectors, x)
    for it in range(cfg.max_iters):
        norm_x_sq = float(np.vdot(x, x).real)
        if norm_x_sq == 0.0:
            raise SolverError(f"iterate collapsed to zero norm at iteration {it + 1}")
        # (a) closed-form correction sweep at the current x.
        nu_star, _ = sweep_corrections(vectors, yv, x, lambda_a, lambda_y, nu_a=nu_a)
        sweep_shift = np.conj(nu_star - nu_a) / norm_x_sq
        sweep_x = x
        corr_term = lambda_a * float(np.sum(np.abs(nu_star - nu_a) ** 2)) / norm_x_sq / (2.0 * m)
        # (b) one gradient step with the corrected vectors fixed.
        w = (np.abs(nu_star) ** 2 - yv) * nu_star / m
        grad = vectors.T @ w + np.sum(w * sweep_shift) * x
        x_new = x - step * grad
        if cfg.projection == "real_binary":
            x_new = project_real_binary(x_new)
        nu_a_new = inner_rows(vectors, x_new)
        # inner(v_m, x_new) for the swept v_m = a_m + shift_m * x.
        nu_corr_new = nu_a_new + np.conj(sweep_shift) * np.vdot(x, x_new)
        with np.errstate(over="ignore", invalid="ignore"):
            data_term = lambda_y * float(np.sum((yv - np.abs(nu_corr_new) ** 2) ** 2)) / (2.0 * m)
        loss = corr_term + data_term
        if not np.isfinite(loss):
            raise SolverError(f"objective became non-finite at iteration {it + 1}")
        trace.append(loss)
        x = x_new
        nu_a = nu_a_new
        if it and abs(loss - trace[-2]) < cfg.threshold:
            converged = True
            break
    corrected = np.outer(sweep_shift, sweep_x)
    corrected += vectors
    return SolveResult(
        x_hat=x,
        corrected_ensemble=SensingEnsemble(corrected, model_tag=model_tag, noise_tag="corrected"),
        objective_trace=np.asarray(trace),
        iterations=len(trace),
        converged=converged,
    )
