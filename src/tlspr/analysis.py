"""First-order reconstruction-error predictors for the real-valued problem.

With clean sensing matrix A (M x N), clean measurements y_m = <a_m, x#>^2,
error blocks E_A (M x N) and E_Y (M diagonal entries), and the weight ratio
rho = lambda_y / lambda_a, define

    d_m = 1 / (1 + 4 * rho * ||x#||^2 * y_m)            (diagonal of D)
    w   = ((2Y)^{-1} E_Y A - E_A) x#

The first-order reconstruction errors of the two solvers are

    e_tls = || (A^T Y D A)^{-1} A^T Y D w ||
    e_ls  = || (A^T Y A)^{-1} A^T Y w ||

and under independent zero-mean Gaussian errors (variance sigma_delta^2 per
sensing entry, sigma_eta^2 per measurement) the expected squared errors are

    E[e^2] = sigma_delta^2 ||x#||^2 ||R||_F^2 + (sigma_eta^2 / 4) ||R Y^{-1/2}||_F^2

with R the corresponding solve matrix ((A^T Y D A)^{-1} A^T Y D for TLS, the
D-free analogue for LS).

Everything here is real-valued; complex inputs are rejected rather than
extrapolated.  All solves go through factorizations with an explicit
condition-number gate (no explicit inversion).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DimensionMismatchError, _check_positive, _finite_array
from .solvers import SolverConfig, solve_ls, solve_tls

COND_LIMIT = 1e12


class IllConditionedError(RuntimeError):
    """Normal matrix condition number exceeds COND_LIMIT."""


def _real(arr, name: str, shape: tuple) -> np.ndarray:
    """``arr`` as a float64 array of ``shape`` (None: any length) whose entries
    are finite, with a zero imaginary part if it has one."""
    a = np.asarray(arr)
    if np.iscomplexobj(a) and np.any(a.imag != 0):
        raise ValueError(f"{name} must be real-valued")
    a = _finite_array(a.real, np.float64, len(shape), name)
    if any(k not in (None, got) for k, got in zip(shape, a.shape)):
        raise DimensionMismatchError(f"{name} has shape {a.shape}, expected {shape} (None: any)")
    return a


def _real_problem(a_clean, y_clean, x_sharp, positive_y: bool = False):
    """The checked (M, N) ``a_clean``, (M,) ``y_clean`` and (N,) ``x_sharp``;
    ``positive_y`` for a predictor, which divides by y_clean."""
    a = _real(a_clean, "a_clean", (None, None))
    m, n = a.shape
    y = _real(y_clean, "y_clean", (m,))
    x = _real(x_sharp, "x_sharp", (n,))
    if positive_y and np.any(y <= 0):
        raise ValueError("all clean measurements y_clean must be > 0")
    return a, y, x


@dataclass(frozen=True)
class ErrorAnalysisInputs:
    a_clean: np.ndarray  # (M, N) real sensing matrix
    y_clean: np.ndarray  # (M,) clean measurements, all > 0
    x_sharp: np.ndarray  # (N,) real ground truth
    e_a: np.ndarray  # (M, N) sensing errors
    e_y: np.ndarray  # (M,) measurement errors (diagonal)
    lambda_ratio: float  # lambda_y / lambda_a, >= 0

    def __post_init__(self):
        a, y, x = _real_problem(self.a_clean, self.y_clean, self.x_sharp, positive_y=True)
        ea = _real(self.e_a, "e_a", a.shape)
        ey = _real(self.e_y, "e_y", y.shape)
        _check_positive(allow_zero=True, lambda_ratio=self.lambda_ratio)
        for name, val in (("a_clean", a), ("y_clean", y), ("x_sharp", x), ("e_a", ea), ("e_y", ey)):
            object.__setattr__(self, name, val)


@dataclass(frozen=True)
class ErrorPrediction:
    e_tls: float
    e_ls: float
    rel_e_tls: float
    rel_e_ls: float


def _gated_solve(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise IllConditionedError(f"normal matrix condition number {cond:.3g} exceeds {COND_LIMIT:g}")
    return np.linalg.solve(gram, rhs)


def d_diagonal(y_clean: np.ndarray, x_norm_sq: float, lambda_ratio: float) -> np.ndarray:
    """Diagonal of D; entries lie in (0, 1] for nonnegative inputs."""
    return 1.0 / (1.0 + 4.0 * lambda_ratio * x_norm_sq * np.asarray(y_clean, dtype=np.float64))


def first_order_errors(inputs: ErrorAnalysisInputs) -> ErrorPrediction:
    """Evaluate the predictor formulas for one realized error pair."""
    a, y, x = inputs.a_clean, inputs.y_clean, inputs.x_sharp
    x_norm = float(np.linalg.norm(x))
    d = d_diagonal(y, x_norm**2, inputs.lambda_ratio)
    w = (inputs.e_y / (2.0 * y)) * (a @ x) - inputs.e_a @ x
    yd = y * d
    e_tls = float(np.linalg.norm(_gated_solve(a.T @ (yd[:, None] * a), a.T @ (yd * w))))
    e_ls = float(np.linalg.norm(_gated_solve(a.T @ (y[:, None] * a), a.T @ (y * w))))
    return ErrorPrediction(e_tls, e_ls, e_tls / x_norm, e_ls / x_norm)


def _solve_matrices(a, y, x, lambda_ratios):
    """The TLS map R of checked inputs at each ratio in ``lambda_ratios``, one
    at a time.  At ratio 0, D = I and R is the LS map, bit for bit."""
    x_norm_sq = float(np.linalg.norm(x)) ** 2
    for ratio in lambda_ratios:
        _check_positive(allow_zero=True, lambda_ratio=ratio)
        yd = y * d_diagonal(y, x_norm_sq, ratio)
        yield _gated_solve(a.T @ (yd[:, None] * a), a.T * yd[None, :])


def solve_matrices(
    a_clean: np.ndarray, y_clean: np.ndarray, x_sharp: np.ndarray, lambda_ratio: float
) -> tuple[np.ndarray, np.ndarray]:
    """The (N, M) maps R such that e = ||R w|| for TLS and LS."""
    return tuple(_solve_matrices(*_real_problem(a_clean, y_clean, x_sharp), (lambda_ratio, 0.0)))


def expected_squared_errors(
    a_clean: np.ndarray,
    y_clean: np.ndarray,
    x_sharp: np.ndarray,
    lambda_ratio: float,
    sigma_delta_sq: float,
    sigma_eta_sq: float,
) -> tuple[float, float]:
    """Closed-form E[e_tls^2], E[e_ls^2] under iid Gaussian error draws."""
    ratios = (lambda_ratio, 0.0)
    return tuple(expected_tls_errors(a_clean, y_clean, x_sharp, ratios, sigma_delta_sq, sigma_eta_sq))


def expected_tls_errors(
    a_clean: np.ndarray,
    y_clean: np.ndarray,
    x_sharp: np.ndarray,
    lambda_ratios,
    sigma_delta_sq: float,
    sigma_eta_sq: float,
) -> list[float]:
    """E[e_tls^2] of :func:`expected_squared_errors` at each weight ratio in
    ``lambda_ratios``, with no LS solve; at ratio 0 it is E[e_ls^2]."""
    _check_positive(allow_zero=True, sigma_delta_sq=sigma_delta_sq, sigma_eta_sq=sigma_eta_sq)
    a, y, x = _real_problem(a_clean, y_clean, x_sharp, positive_y=True)
    x_norm_sq = float(np.linalg.norm(x)) ** 2
    out = []
    for r in _solve_matrices(a, y, x, lambda_ratios):
        sensing_term = sigma_delta_sq * x_norm_sq * float(np.sum(r * r))
        meas_term = 0.25 * sigma_eta_sq * float(np.sum((r * r) / y[None, :]))
        out.append(sensing_term + meas_term)
    return out


def ml_parameters(sigma_delta_sq: float, sigma_eta_sq: float):
    """Maximum-likelihood weights: lambda_a = 1/sigma_delta^2, lambda_y = 1/sigma_eta^2."""
    from .correction import CorrectionParams

    _check_positive(sigma_delta_sq=sigma_delta_sq, sigma_eta_sq=sigma_eta_sq)
    return CorrectionParams(lambda_a=1.0 / sigma_delta_sq, lambda_y=1.0 / sigma_eta_sq)


def finite_difference_jacobians(
    a_clean: np.ndarray,
    y_clean: np.ndarray,
    x_sharp: np.ndarray,
    lambda_a: float,
    lambda_y: float,
    h: float = 1e-4,
    method: str = "tls",
    step_size: float | None = None,
    max_iters: int = 20000,
    threshold: float = 1e-22,
) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference sensitivities of the solver output at the clean point.

    Returns ``(j_a, j_y)`` with ``j_a`` of shape (N, M*N) holding
    d x_hat / d a_{m,j} column-blocks per measurement and ``j_y`` of shape
    (N, M).  Intended as a validation oracle on tiny real instances: each
    perturbed problem is re-solved from the ground truth so the solver tracks
    the perturbed argmin branch.
    """
    a, y, x = _real_problem(a_clean, y_clean, x_sharp)
    _check_positive(lambda_a=lambda_a, lambda_y=lambda_y, h=h)
    a, y, x0 = a.copy(), y.copy(), x.astype(np.complex128)
    m, n = a.shape
    if method not in ("tls", "ls"):
        raise ValueError("method must be 'tls' or 'ls'")
    if step_size is None:
        step_size = 0.5 / lambda_a if method == "tls" else 0.02
    weights = {}
    if method == "tls":
        weights = dict(lambda_a_dag=lambda_a * n, lambda_y_dag=lambda_y * float(np.linalg.norm(x0)) ** 4)
    cfg = SolverConfig(step_size=step_size, threshold=threshold, max_iters=max_iters, **weights)
    solve = solve_tls if method == "tls" else solve_ls

    def central_difference(arr: np.ndarray, index) -> np.ndarray:
        """d x_hat / d arr[index], with ``arr`` one of ``a`` and ``y``."""
        orig = arr[index]
        arr[index] = orig + h
        plus = solve(y, a.astype(np.complex128), cfg, x0=x0).x_hat.real
        arr[index] = orig - h
        minus = solve(y, a.astype(np.complex128), cfg, x0=x0).x_hat.real
        arr[index] = orig
        return (plus - minus) / (2.0 * h)

    j_a = np.zeros((n, m * n))
    j_y = np.zeros((n, m))
    for k in range(m):
        for j in range(n):
            j_a[:, k * n + j] = central_difference(a, (k, j))
        j_y[:, k] = central_difference(y, k)
    return j_a, j_y


def predicted_perturbation(j_a: np.ndarray, j_y: np.ndarray, e_a: np.ndarray, e_y: np.ndarray) -> np.ndarray:
    """Apply stacked Jacobian blocks to an error realization."""
    j_y = _real(j_y, "j_y", (None, None))
    n, m = j_y.shape
    j_a = _real(j_a, "j_a", (n, m * n))
    return j_a @ _real(e_a, "e_a", (m, n)).ravel() + j_y @ _real(e_y, "e_y", (m,))
