"""Closed-form per-measurement sensing-vector correction.

For a fixed signal estimate ``x`` each sensing vector ``a_m`` is replaced by
the global minimizer of

    f_m(v) = lambda_a * ||a_m - v||^2 + lambda_y * (y_m - |inner(v, x)|^2)^2 .

The minimizer differs from ``a_m`` only along ``x``, so it is fully described
by the scalar nu = inner(v, x).  Stationarity of f_m reduces to the pair of
depressed cubics

    alpha r^3 + beta r +/- |gamma| = 0,
    alpha = 2 lambda_y ||x||^2,
    beta  = lambda_a - 2 lambda_y y_m ||x||^2,
    gamma = -lambda_a inner(a_m, x),

whose positive real roots, rotated onto the phase of gamma (plus cubic) or
its antipode (minus cubic), enumerate every candidate nu.  Since r is a root
of the minus cubic exactly when -r is a root of the plus cubic, one real
solve suffices: the candidates are phase(gamma) * t over the nonzero real
roots t of the plus cubic alone.  Along that line |nu - inner(a_m, x)| =
|t + |inner(a_m, x)||, so f_m is evaluated on t in real arithmetic, and the
best candidate yields the global minimum.

When gamma = 0 (a_m orthogonal to x) the phase is arbitrary; candidates are
placed on phase zero and nu = 0 is added, since the stationarity equation
degenerates to alpha r^3 + beta r = 0.

:func:`sweep_corrections` corrects all measurements at once;
:func:`stationary_candidates` and :func:`correct_sensing_vector` are its
single-measurement views.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DimensionMismatchError, inner, inner_rows
from .cubic import POSITIVE_TOL, depressed_roots_batch

# Ties in the candidate objective within this relative margin are broken by
# the smaller perturbation ||v - a_m||.
TIE_REL_TOL = 1e-12


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


def _sweep_one(a_m, y_m: float, x, params: CorrectionParams):
    row = np.asarray(a_m, dtype=np.complex128)[None, :]
    y = np.array([y_m], dtype=np.float64)
    return sweep_corrections(row, y, x, params.lambda_a, params.lambda_y, candidates=True)


def stationary_candidates(a_m, y_m: float, x, params: CorrectionParams) -> np.ndarray:
    """All candidate values of nu = inner(v, x) for one measurement, as a
    complex array: the stationary values, plus nu = 0 where gamma = 0 or
    where no root cleared the positivity tolerance."""
    cands = _sweep_one(a_m, y_m, x, params)[2][0]
    return cands[~np.isnan(cands)]


def correct_sensing_vector(a_m, y_m: float, x, params: CorrectionParams) -> CorrectionResult:
    """Globally minimize f_m over corrected vectors; see the module docstring.

    A one-row :func:`sweep_corrections`: the best candidate nu, ties broken
    toward the smaller perturbation, mapped to a full vector with
    :func:`reconstruct_from_nu`.
    """
    a_m = np.asarray(a_m, dtype=np.complex128)
    x = np.asarray(x, dtype=np.complex128)
    if a_m.shape != x.shape:
        raise DimensionMismatchError(f"shape mismatch: {a_m.shape} vs {x.shape}")
    if not (np.all(np.isfinite(a_m)) and np.all(np.isfinite(x)) and np.isfinite(y_m)):
        raise ValueError("inputs must be finite")
    nu_star, f_star, cands = _sweep_one(a_m, y_m, x, params)
    return CorrectionResult(
        corrected=reconstruct_from_nu(a_m, x, nu_star[0]),
        nu=complex(nu_star[0]),
        objective_value=float(f_star[0]),
        candidates_evaluated=int(np.count_nonzero(~np.isnan(cands[0]))),
    )


def sweep_corrections(
    vectors: np.ndarray,
    y: np.ndarray,
    x: np.ndarray,
    lambda_a: float,
    lambda_y: float,
    nu_a: np.ndarray | None = None,
    *,
    candidates: bool = False,
) -> tuple[np.ndarray, ...]:
    """Correct all M sensing vectors at once for a fixed x.

    Parameters
    ----------
    vectors : (M, N) complex array of sensing vectors (rows).
    y : (M,) measurements.
    x : (N,) current signal estimate, nonzero.
    nu_a : optional precomputed inner(a_m, x) per row.
    candidates : also return the (M, 4) complex array of candidate nus
        that were evaluated, NaN in the slots that were not.

    Returns ``(nu_star, f_star)``: the optimal nu per measurement and the
    attained f_m values.  The corrected vectors themselves are
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
    beta = lambda_a - 2.0 * lambda_y * norm_sq * y
    nu_a_abs = np.abs(nu_a)
    gamma_abs = lambda_a * nu_a_abs
    # Phase of gamma = -lambda_a * nu_a; zero maps to phase 0 like np.angle.
    safe = np.where(nu_a == 0, 1.0, -nu_a)
    phase = safe / np.abs(safe)

    # Candidate nus are phase * t, shape (M, 4): the nonzero real roots t of
    # the plus cubic, and the nu = 0 slot, valid where gamma = 0 or as
    # fallback when every root was filtered out.
    roots = depressed_roots_batch(alpha, beta, gamma_abs)
    nonzero = np.abs(roots) > POSITIVE_TOL
    fallback = (gamma_abs == 0.0) | ~nonzero.any(axis=1)
    valid = np.column_stack([nonzero, fallback])
    t = np.column_stack([np.where(nonzero, roots, 0.0), np.zeros(len(y))])

    # |phase * t - nu_a| = |t + |nu_a||, since phase = -nu_a / |nu_a|.
    pert_sq = (t + nu_a_abs[:, None]) ** 2 / norm_sq
    fvals = lambda_a * pert_sq + lambda_y * (y[:, None] - t * t) ** 2
    fvals = np.where(valid, fvals, np.inf)

    fmin = fvals.min(axis=1)
    tie = fvals <= fmin[:, None] * (1.0 + TIE_REL_TOL) + 1e-300
    pert_for_tie = np.where(tie, pert_sq, np.inf)
    pick = pert_for_tie.argmin(axis=1)
    rows = np.arange(len(y))
    nu_star = phase * t[rows, pick]
    f_star = fvals[rows, pick]
    if candidates:
        return nu_star, f_star, np.where(valid, phase[:, None] * t, np.nan)
    return nu_star, f_star


def apply_corrections(vectors: np.ndarray, x: np.ndarray, nu_star: np.ndarray) -> np.ndarray:
    """Materialize the corrected ensemble for the sweep output."""
    norm_sq = float(np.vdot(x, x).real)
    nu_a = inner_rows(vectors, x)
    shift = np.conj(nu_star - nu_a) / norm_sq
    return vectors + np.outer(shift, x)
