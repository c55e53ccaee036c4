"""Closed-form per-measurement sensing-vector correction.

For a fixed signal estimate ``x`` each sensing vector ``a_m`` is replaced by
the global minimizer of

    f_m(v) = lambda_a * ||a_m - v||^2 + lambda_y * (y_m - |inner(v, x)|^2)^2 .

The minimizer differs from ``a_m`` only along ``x``, so it is fully described
by the scalar nu = inner(v, x).  Its stationary values are phase(gamma) * t
over the real roots t of the plus cubic

    alpha t^3 + beta t + |gamma| = 0,
    alpha = 2 lambda_y ||x||^2,
    beta  = lambda_a - 2 lambda_y y_m ||x||^2,
    gamma = -lambda_a inner(a_m, x);

the paper's second, minus cubic (on the antipodal phase) has exactly the
roots -t.  When gamma = 0 (a_m orthogonal to x) the phase is arbitrary and
taken as zero.

The global minimizer is the smallest real root t_0 of the plus cubic.  With
c = |inner(a_m, x)|, along that line

    f_m = f(t) = lambda_a (t + c)^2 / ||x||^2 + lambda_y (y_m - t^2)^2 ,

and f(s) - f(-s) = 4 lambda_a c s / ||x||^2 >= 0 for s >= 0, so a minimizer
has t <= 0.  f' is 2 / ||x||^2 times the cubic, which is >= 0 at t = 0 and
whose roots sum to 0 and multiply to -|gamma| / alpha <= 0.  For c > 0 it
thus has exactly one negative root, t_0: f falls up to t_0 and rises on
(t_0, 0].  For c = 0, f is even and t_0 = -sqrt(-beta/alpha) (or 0 when
beta >= 0) is a minimizer.

:func:`sweep_corrections` corrects all measurements at once and
:func:`correct_sensing_vector` is its one-measurement view;
:func:`stationary_candidates` lists the stationary nu of one measurement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DimensionMismatchError, inner, inner_rows
from .cubic import POSITIVE_TOL, depressed_roots_batch, smallest_real_root


@dataclass(frozen=True)
class CorrectionParams:
    """Weights of the perturbation and data-misfit terms."""

    lambda_a: float
    lambda_y: float

    def __post_init__(self):
        for name in ("lambda_a", "lambda_y"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be finite and > 0, got {v!r}")


@dataclass(frozen=True)
class CorrectionResult:
    corrected: np.ndarray
    nu: complex
    objective_value: float
    candidates_evaluated: int


def reconstruct_from_nu(a_m: np.ndarray, x: np.ndarray, nu: complex) -> np.ndarray:
    """Vector v with inner(v, x) = nu that differs from a_m only along x."""
    a_m = np.asarray(a_m, dtype=np.complex128)
    x = np.asarray(x, dtype=np.complex128)
    if a_m.shape != x.shape:
        raise DimensionMismatchError(f"shape mismatch: {a_m.shape} vs {x.shape}")
    norm_sq = float(np.vdot(x, x).real)
    if norm_sq == 0.0:
        raise ValueError("x must be nonzero")
    shift = np.conj(nu - inner(a_m, x)) / norm_sq
    return a_m + shift * x


def objective_on_vector(a_m, v, y_m: float, x, params: CorrectionParams) -> float:
    """f_m evaluated on a full candidate vector v."""
    a_m = np.asarray(a_m, dtype=np.complex128)
    v = np.asarray(v, dtype=np.complex128)
    diff = v - a_m
    misfit = y_m - abs(inner(v, np.asarray(x, dtype=np.complex128))) ** 2
    return params.lambda_a * float(np.vdot(diff, diff).real) + params.lambda_y * misfit**2


def stationary_candidates(a_m, y_m: float, x, params: CorrectionParams) -> np.ndarray:
    """All candidate values of nu = inner(v, x) for one measurement, as a
    complex array: the stationary values phase(gamma) * t for the real roots
    |t| > POSITIVE_TOL of the plus cubic, plus nu = 0 where gamma = 0 or
    where no root cleared that tolerance."""
    nu_a = inner(a_m, x)
    alpha = 2.0 * params.lambda_y * inner(x, x).real
    gamma_abs = params.lambda_a * abs(nu_a)
    roots = depressed_roots_batch(alpha, [params.lambda_a - alpha * y_m], [gamma_abs])[0]
    t = roots[np.abs(roots) > POSITIVE_TOL]
    if gamma_abs == 0.0 or t.size == 0:
        t = np.append(t, 0.0)
    return (-nu_a / abs(nu_a) if nu_a != 0 else 1.0) * t


def correct_sensing_vector(a_m, y_m: float, x, params: CorrectionParams) -> CorrectionResult:
    """Globally minimize f_m over corrected vectors: a one-row
    :func:`sweep_corrections` mapped to a full vector by :func:`reconstruct_from_nu`."""
    a_m = np.asarray(a_m, dtype=np.complex128)
    x = np.asarray(x, dtype=np.complex128)
    if a_m.shape != x.shape:
        raise DimensionMismatchError(f"shape mismatch: {a_m.shape} vs {x.shape}")
    if not (np.all(np.isfinite(a_m)) and np.all(np.isfinite(x)) and np.isfinite(y_m)):
        raise ValueError("inputs must be finite")
    nu_star, f_star = sweep_corrections(a_m[None, :], [y_m], x, params.lambda_a, params.lambda_y)
    return CorrectionResult(
        corrected=reconstruct_from_nu(a_m, x, nu_star[0]),
        nu=complex(nu_star[0]),
        objective_value=float(f_star[0]),
        candidates_evaluated=stationary_candidates(a_m, y_m, x, params).size,
    )


def sweep_corrections(
    vectors: np.ndarray,
    y: np.ndarray,
    x: np.ndarray,
    lambda_a: float,
    lambda_y: float,
    nu_a: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Correct all M sensing vectors at once for a fixed x.

    Parameters
    ----------
    vectors : (M, N) complex array of sensing vectors (rows).
    y : (M,) measurements.
    x : (N,) current signal estimate, nonzero.
    nu_a : optional precomputed inner(a_m, x) per row.

    Returns ``(nu_star, f_star)``: the optimal nu per measurement, phase(gamma)
    times the smallest real root of the plus cubic, and the attained f_m
    values.  The corrected vectors themselves are
    ``vectors + outer(conj(nu_star - nu_a) / ||x||^2, x)``
    (see :func:`apply_corrections`); callers that only need inner products
    with x can work with nu_star directly since inner(v_m, x) = nu_star_m.
    """
    vectors = np.asarray(vectors, dtype=np.complex128)
    y = np.asarray(y, dtype=np.float64)
    x = np.asarray(x, dtype=np.complex128)
    norm_sq = float(np.vdot(x, x).real)
    if norm_sq == 0.0:
        raise ValueError("x must be nonzero")
    if nu_a is None:
        nu_a = inner_rows(vectors, x)
    alpha = 2.0 * lambda_y * norm_sq
    nu_a_abs = np.abs(nu_a)
    t0 = smallest_real_root(alpha, lambda_a - alpha * y, lambda_a * nu_a_abs)
    # Phase of gamma = -lambda_a * nu_a; zero maps to phase 0 like np.angle.
    safe = np.where(nu_a == 0, 1.0, -nu_a)
    phase = safe / np.abs(safe)
    # |phase * t0 - nu_a| = |t0 + |nu_a||, since phase = -nu_a / |nu_a|.
    f_star = lambda_a * ((t0 + nu_a_abs) ** 2 / norm_sq) + lambda_y * (y - t0 * t0) ** 2
    return phase * t0, f_star


def apply_corrections(vectors: np.ndarray, x: np.ndarray, nu_star: np.ndarray) -> np.ndarray:
    """Materialize the corrected ensemble for the sweep output."""
    norm_sq = float(np.vdot(x, x).real)
    nu_a = inner_rows(vectors, x)
    shift = np.conj(nu_star - nu_a) / norm_sq
    return vectors + np.outer(shift, x)
