"""Independent reference implementations used to check the package, and
the allocation meter of the memory tests.

Everything here is deliberately naive (loops, dense scans, finite
differences) and shares no code with the production paths it validates.
"""

from __future__ import annotations

import json
import struct
import tracemalloc
from pathlib import Path

import numpy as np

def inner_loop(a, b) -> complex:
    """Summation-loop inner product, conjugating the first argument."""
    total = 0.0 + 0.0j
    for ai, bi in zip(a, b):
        total += complex(ai).conjugate() * complex(bi)
    return total


def complex_gaussian_vector_reference(rng, n, scale=1.0) -> np.ndarray:
    """Frozen copy of the complex Gaussian vector as it was drawn by two
    scaled normal draws: ``normal(0, scale, n) + 1j * normal(0, scale, n)``."""
    return rng.normal(0.0, scale, size=n) + 1j * rng.normal(0.0, scale, size=n)


def complex_normal_two_buffers(rng, shape, real_mode: bool = False) -> np.ndarray:
    """Frozen copy of the complex draw as it was made through a second,
    full-size float64 buffer: ``normal(size=shape) + 1j * normal(size=shape)``
    (real mode: the first draw only, with zero imaginary parts)."""
    out = np.zeros(shape, dtype=np.complex128) if real_mode else np.empty(shape, dtype=np.complex128)
    draws = np.empty(shape)
    out.real = rng.standard_normal(out=draws)
    if not real_mode:
        out.imag = rng.standard_normal(out=draws)
    return out


def dft_matrix(n: int) -> np.ndarray:
    """Direct double-loop unnormalized DFT matrix."""
    out = np.empty((n, n), dtype=np.complex128)
    for k in range(n):
        for j in range(n):
            out[k, j] = np.exp(-2j * np.pi * k * j / n)
    return out


def measurements_loop(vectors, x) -> np.ndarray:
    """Per-entry loop evaluation of |<a_m, x>|^2."""
    m = len(vectors)
    out = np.empty(m)
    for i in range(m):
        out[i] = abs(inner_loop(vectors[i], x)) ** 2
    return out


def correction_objective(a_m, v, y_m, x, lam_a, lam_y) -> float:
    """f_m evaluated from scratch on a full vector."""
    diff = np.asarray(v) - np.asarray(a_m)
    misfit = y_m - abs(inner_loop(v, x)) ** 2
    return lam_a * float(np.real(np.sum(diff.conj() * diff))) + lam_y * misfit**2


_GRID_BLOCK = 1 << 17  # grid points per block; 1 MB stays in cache


def grid_min(nu_a, y, lam_a, lam_y, norm_x_sq, radius, step) -> float:
    """The least f_m over the square grid of nu with spacing ``step`` on
    [-radius, radius]^2 around zero, in numpy, vectorized over blocks of rows.

    Every value on row i is >= fl(min(col_pert) + row_pert[i]), because the
    squared term is >= 0 and rounding is monotone.  So rows are visited in
    ascending bound, and the scan stops at the first block whose smallest
    bound exceeds the best value so far.  Each row is evaluated as in a
    dense scan, so the minimum is the dense scan's, bit for bit.
    """
    axis = np.arange(-radius, radius + step, step)
    # f(re, im) = row_pert(re) + col_pert(im) + (row_misfit(re) - im_sq(im))^2
    # with sqrt(lam_y) folded into the misfit terms.
    root_y = np.sqrt(lam_y)
    row_pert = lam_a * (axis - nu_a.real) ** 2 / norm_x_sq
    col_pert = lam_a * (axis - nu_a.imag) ** 2 / norm_x_sq
    row_misfit = root_y * (y - axis**2)
    im_sq = root_y * axis**2
    bound = col_pert.min() + row_pert
    order = np.argsort(bound)
    rows = max(1, _GRID_BLOCK // axis.size)
    buf = np.empty((rows, axis.size))
    best = np.inf
    for start in range(0, axis.size, rows):
        picked = order[start : start + rows]
        if bound[picked[0]] > best:
            break
        block = buf[: picked.size]
        np.subtract(row_misfit[picked, None], im_sq, out=block)
        np.square(block, out=block)
        block += col_pert
        best = min(best, float((block.min(axis=1) + row_pert[picked]).min()))
    return best


# Frozen copy of the scalar correction algorithm the package shipped before
# its sweep moved to one real cubic per measurement: complex closed-form
# roots of the plus and minus cubics, an imaginary-part filter, de-duplication
# and a candidate loop on full vectors.  Regression reference only.
_OMEGA = complex(-0.5, 0.5 * np.sqrt(3.0))


def _cubic_roots_reference(a, b, c, d) -> np.ndarray:
    a, b, c, d = complex(a), complex(b), complex(c), complex(d)
    coeffs = np.array([a, b, c, d], dtype=np.complex128)
    psi0 = b * b - 3.0 * a * c
    psi1 = 2.0 * b**3 - 9.0 * a * b * c + 27.0 * a * a * d
    scale = max(abs(psi0) ** 1.5, abs(psi1))
    disc_root = np.sqrt(complex(psi1 * psi1 - 4.0 * psi0**3))
    plus = 0.5 * (psi1 + disc_root)
    minus = 0.5 * (psi1 - disc_root)
    half = plus if abs(plus) >= abs(minus) else minus
    if abs(half) <= 1e-14 * scale or scale == 0.0:
        return np.full(3, -b / (3.0 * a), dtype=np.complex128)
    ks = half ** (1.0 / 3.0) * np.array([1.0, _OMEGA, _OMEGA**2], dtype=np.complex128)
    roots = _polish_reference(coeffs, -(b + ks + psi0 / ks) / (3.0 * a))
    top = max(abs(a), abs(b), abs(c), abs(d))
    if any(abs(((a * z + b) * z + c) * z + d) > 0.5e-8 * top * max(1.0, abs(z)) ** 3 for z in roots):
        roots = _polish_reference(coeffs, np.roots(coeffs).astype(np.complex128))
    return roots


def _polish_reference(coeffs, roots):
    a, b, c, d = coeffs
    for _ in range(2):
        p = ((a * roots + b) * roots + c) * roots + d
        dp = (3.0 * a * roots + 2.0 * b) * roots + c
        safe = np.abs(dp) > 0
        candidate = np.where(safe, roots - p / np.where(safe, dp, 1.0), roots)
        p_new = ((a * candidate + b) * candidate + c) * candidate + d
        roots = np.where(np.abs(p_new) < np.abs(p), candidate, roots)
    return roots


def _positive_roots_reference(alpha, beta, const) -> list[float]:
    out = sorted(
        z.real
        for z in _cubic_roots_reference(alpha, 0.0, beta, const)
        if abs(z.imag) <= 1e-9 * max(1.0, abs(z.real)) and z.real > 1e-12
    )
    merged: list[float] = []
    for r in out:
        if not (merged and abs(r - merged[-1]) <= 1e-9 * max(abs(r), abs(merged[-1]))):
            merged.append(r)
    return merged


def correct_sensing_vector_reference(a_m, y_m, x, lam_a, lam_y):
    """Best corrected vector and its objective value, by the frozen algorithm."""
    a_m = np.asarray(a_m, dtype=np.complex128)
    x = np.asarray(x, dtype=np.complex128)
    norm_sq = float(np.vdot(x, x).real)
    nu_a = complex(np.vdot(a_m, x))
    alpha = 2.0 * lam_y * norm_sq
    beta = lam_a - 2.0 * lam_y * y_m * norm_sq
    gamma = -lam_a * nu_a
    phase = np.exp(1j * np.angle(gamma))
    cands = [phase * r for r in _positive_roots_reference(alpha, beta, abs(gamma))]
    cands += [-phase * r for r in _positive_roots_reference(alpha, beta, -abs(gamma))]
    if gamma == 0 or not cands:
        cands.append(0.0 + 0.0j)
    best = None
    for nu in cands:
        v = a_m + np.conj(nu - nu_a) / norm_sq * x
        diff = v - a_m
        fval = lam_a * float(np.vdot(diff, diff).real) + lam_y * (y_m - abs(np.vdot(v, x)) ** 2) ** 2
        pert = float(np.linalg.norm(diff))
        if (
            best is None
            or fval < best[0] * (1.0 - 1e-12)
            or (fval <= best[0] * (1.0 + 1e-12) and pert < best[1])
        ):
            best = (fval, pert, v)
    return best[2], best[0]


# Frozen copy of the correction sweep the package shipped before it took the
# smallest real root of the plus cubic directly: all real roots of that cubic
# (Viete or Kahan's Cardano, one guarded Newton step), the nonzero ones and a
# nu = 0 slot as candidates, f_m evaluated on each, ties broken toward the
# smaller perturbation.  Regression reference only.
def real_roots_reference(alpha, beta, const) -> np.ndarray:
    p = np.asarray(beta, dtype=np.float64) / alpha
    q = np.asarray(const, dtype=np.float64) / alpha
    disc = (0.5 * q) ** 2 + (p / 3.0) ** 3
    roots = np.full((p.shape[0], 3), np.nan)
    is_three = (disc <= 0.0) & (p < 0.0)
    three = np.flatnonzero(is_three)
    if three.size:
        p3, q3 = p[three], q[three]
        m = 2.0 * np.sqrt(p3 / -3.0)
        theta = np.arccos(np.clip(3.0 * q3 / (p3 * m), -1.0, 1.0)) / 3.0
        low = m * np.cos(theta - 4.0 * np.pi / 3.0)
        high = m * np.cos(theta)
        roots[three, 0] = low
        roots[three, 1] = -q3 / (low * high)
        roots[three, 2] = high
    one = np.flatnonzero(~is_three)
    if one.size:
        p1, q1 = p[one], q[one]
        big = np.cbrt(0.5 * np.abs(q1) + np.sqrt(np.maximum(disc[one], 0.0)))
        big[big == 0.0] = 1.0
        small = p1 / (3.0 * big)
        roots[one, 0] = -q1 / (big * big + p1 / 3.0 + small * small)
    p, q = p[:, None], q[:, None]
    f = (roots * roots + p) * roots + q
    df = 3.0 * roots * roots + p
    step = roots - f / np.where(df != 0.0, df, np.inf)
    f_step = (step * step + p) * step + q
    return np.where(np.abs(f_step) < np.abs(f), step, roots)


# Frozen copy of the batch enumeration of all real roots the package shipped
# before its batch became a per-row map of the least squares step's scalar
# routine: the smallest real root (column 0 of real_roots_reference, which
# the package's batched root matches bit for bit), then the cubic deflated by
# it, the middle root from the product of the roots, one guarded Newton step
# on both upper roots, and a sort clamped to the lowest root.  Regression
# reference only.
def depressed_roots_batch_reference(alpha, beta, const) -> np.ndarray:
    low = real_roots_reference(alpha, beta, const)[:, 0]
    p = np.asarray(beta, dtype=np.float64) / alpha
    q = np.asarray(const, dtype=np.float64) / alpha
    three = np.flatnonzero(((0.5 * q) ** 2 + (p / 3.0) ** 3 <= 0.0) & (p < 0.0))
    t0, p3, q3 = low[three], p[three][:, None], q[three][:, None]
    high = 0.5 * (np.sqrt(np.maximum(-3.0 * t0 * t0 - 4.0 * p[three], 0.0)) - t0)
    upper = np.column_stack([-q[three] / (t0 * high), high])
    with np.errstate(divide="ignore", invalid="ignore"):
        f = (upper * upper + p3) * upper + q3
        step = upper - f / (upper * 3.0 * upper + p3)
        f_step = (step * step + p3) * step + q3
        upper = np.where(np.abs(f_step) < np.abs(f), step, upper)
    roots = np.full((low.size, 3), np.nan)
    roots[:, 0] = low
    roots[three, 1:] = np.maximum(np.sort(upper, axis=1), t0[:, None])
    return roots


def sweep_corrections_reference(vectors, y, x, lambda_a, lambda_y):
    """``(nu_star, f_star, roots)`` by candidate enumeration; ``roots`` are
    the (M, 3) real roots of the plus cubic, NaN-padded."""
    y = np.asarray(y, dtype=np.float64)
    x = np.asarray(x, dtype=np.complex128)
    norm_sq = float(np.vdot(x, x).real)
    nu_a = np.conj(np.asarray(vectors, dtype=np.complex128) @ np.conj(x))
    alpha = 2.0 * lambda_y * norm_sq
    beta = lambda_a - 2.0 * lambda_y * norm_sq * y
    nu_a_abs = np.abs(nu_a)
    gamma_abs = lambda_a * nu_a_abs
    safe = np.where(nu_a == 0, 1.0, -nu_a)
    phase = safe / np.abs(safe)
    roots = real_roots_reference(alpha, beta, gamma_abs)
    nonzero = np.abs(roots) > 1e-12
    fallback = (gamma_abs == 0.0) | ~nonzero.any(axis=1)
    valid = np.column_stack([nonzero, fallback])
    t = np.column_stack([np.where(nonzero, roots, 0.0), np.zeros(len(y))])
    pert_sq = (t + nu_a_abs[:, None]) ** 2 / norm_sq
    fvals = lambda_a * pert_sq + lambda_y * (y[:, None] - t * t) ** 2
    fvals = np.where(valid, fvals, np.inf)
    fmin = fvals.min(axis=1)
    tie = fvals <= fmin[:, None] * (1.0 + 1e-12) + 1e-300
    pick = np.where(tie, pert_sq, np.inf).argmin(axis=1)
    rows = np.arange(len(y))
    return phase * t[rows, pick], fvals[rows, pick], roots


def _project_real_binary_reference(x):
    return np.minimum(np.abs(x), 1.0).astype(np.complex128)


def solve_ls_reference(y, vectors, x0, mu, threshold, max_iters, real_binary=False):
    """Frozen two-array least squares loop: products with a conjugate copy of
    the ensemble and with its transpose, |nu|^2 as abs(nu)**2.

    Returns ``(x_hat, iterations)``; ``mu`` is the unscaled step size.
    """
    x = np.array(x0, dtype=np.complex128)
    if real_binary:
        x = _project_real_binary_reference(x)
    step = mu / float(np.vdot(x, x).real)
    m = y.shape[0]
    conj_vectors = vectors.conj()
    loss_prev = None
    iterations = 0
    nu = conj_vectors @ x
    for it in range(max_iters):
        w = (np.abs(nu) ** 2 - y) * nu / m
        x = x - step * (vectors.T @ w)
        if real_binary:
            x = _project_real_binary_reference(x)
        nu = conj_vectors @ x
        loss = float(np.sum((y - np.abs(nu) ** 2) ** 2) / (2.0 * m))
        iterations = it + 1
        if loss_prev is not None and abs(loss - loss_prev) < threshold:
            break
        loss_prev = loss
    return x, iterations


def _line_search_reference(r, nu, nu_d):
    """The t minimizing sum (r + b t + c t^2)^2, with b = -2 Re(conj(nu) nu_d)
    and c = |nu_d|^2: the real root (by ``np.roots``) of its derivative that
    gives the least quartic, or 0 when c = 0."""
    b = -2.0 * np.real(np.conj(nu) * nu_d)
    c = np.abs(nu_d) ** 2
    if not np.any(c != 0.0):
        return 0.0
    deriv = [2.0 * np.sum(c * c), 3.0 * np.sum(b * c), np.sum(b * b + 2.0 * r * c), np.sum(r * b)]
    roots = np.roots(deriv)
    real = roots.real[np.abs(roots.imag) <= 1e-9 * np.maximum(1.0, np.abs(roots))]
    if real.size == 0:
        real = roots.real[np.argsort(np.abs(roots.imag))[:1]]
    return min(real, key=lambda s: float(np.sum((r + b * s + c * s * s) ** 2)))


def solve_ls_exact_reference(y, vectors, x0, threshold, max_iters):
    """Plain exact-line-search least squares loop: each iteration recomputes
    nu = conj(A) x directly, forms g = A^T ((|nu|^2 - y) nu) and steps to
    the minimizer of sum (r + b t + c t^2)^2 over t, taken from the real
    roots (by ``np.roots``) of its derivative and compared by the quartic
    itself.  Returns ``(x_hat, iterations)``.
    """
    x = np.array(x0, dtype=np.complex128)
    m = y.shape[0]
    conj_vectors = vectors.conj()
    loss_prev = None
    iterations = 0
    for it in range(max_iters):
        nu = conj_vectors @ x
        r = np.abs(nu) ** 2 - y
        g = vectors.T @ (r * nu)
        t = _line_search_reference(r, nu, conj_vectors @ g)
        x = x - t * g
        nu = conj_vectors @ x
        loss = float(np.sum((y - np.abs(nu) ** 2) ** 2) / (2.0 * m))
        iterations = it + 1
        if loss_prev is not None and abs(loss - loss_prev) < threshold:
            break
        loss_prev = loss
    return x, iterations


def solve_ls_cg_reference(y, vectors, x0, threshold, max_iters):
    """Plain conjugate-direction least squares loop, as
    :func:`solve_ls_exact_reference` but stepping along the Polak-Ribiere+
    direction d = g + beta d_prev, beta = max(0, Re<g - g_prev, g> /
    ||g_prev||^2), restarted at d = g on the first iteration, when
    ||g_prev|| = 0 and when Re<g, d> <= 0.  Returns ``(x_hat, iterations)``.
    """
    x = np.array(x0, dtype=np.complex128)
    m = y.shape[0]
    conj_vectors = vectors.conj()
    loss_prev = g_prev = d = None
    iterations = 0
    for it in range(max_iters):
        nu = conj_vectors @ x
        r = np.abs(nu) ** 2 - y
        g = vectors.T @ (r * nu)
        if g_prev is None or np.linalg.norm(g_prev) == 0.0:
            d = g
        else:
            beta = max(0.0, float(np.real(np.vdot(g - g_prev, g))) / np.linalg.norm(g_prev) ** 2)
            d = g + beta * d
            if np.real(np.vdot(g, d)) <= 0.0:
                d = g
        g_prev = g
        t = _line_search_reference(r, nu, conj_vectors @ d)
        x = x - t * d
        nu = conj_vectors @ x
        loss = float(np.sum((y - np.abs(nu) ** 2) ** 2) / (2.0 * m))
        iterations = it + 1
        if loss_prev is not None and abs(loss - loss_prev) < threshold:
            break
        loss_prev = loss
    return x, iterations


def solve_tls_reference(y, vectors, x0, mu, lambda_a, threshold, max_iters, sweep, real_binary=False):
    """Frozen two-array total least squares loop, as :func:`solve_ls_reference`.

    ``sweep`` is the package's correction sweep, passed in, so this checks
    the iteration around it, not the correction.  ``mu`` is the
    unscaled step size and ``lambda_y`` follows from ``||x0||`` as in the
    solver.  Returns ``(x_hat, iterations, corrected_vectors)``.
    """
    x = np.array(x0, dtype=np.complex128)
    if real_binary:
        x = _project_real_binary_reference(x)
    norm0_sq = float(np.vdot(x, x).real)
    lambda_y = 1.0 / norm0_sq**2
    step = mu / norm0_sq
    m = y.shape[0]
    conj_vectors = vectors.conj()
    loss_prev = None
    iterations = 0
    sweep_shift = np.zeros(m, dtype=np.complex128)
    sweep_x = x
    nu_a = conj_vectors @ x
    for it in range(max_iters):
        norm_x_sq = float(np.vdot(x, x).real)
        nu_star, _ = sweep(vectors, y, x, lambda_a, lambda_y, nu_a=nu_a)
        sweep_shift = np.conj(nu_star - nu_a) / norm_x_sq
        sweep_x = x
        corr_term = lambda_a * float(np.sum(np.abs(nu_star - nu_a) ** 2)) / norm_x_sq / (2.0 * m)
        w = (np.abs(nu_star) ** 2 - y) * nu_star / m
        grad = vectors.T @ w + np.sum(w * sweep_shift) * x
        x_new = x - step * grad
        if real_binary:
            x_new = _project_real_binary_reference(x_new)
        nu_a_new = conj_vectors @ x_new
        nu_corr_new = nu_a_new + np.conj(sweep_shift) * np.vdot(x, x_new)
        data_term = lambda_y * float(np.sum((y - np.abs(nu_corr_new) ** 2) ** 2)) / (2.0 * m)
        loss = corr_term + data_term
        iterations = it + 1
        x = x_new
        nu_a = nu_a_new
        if loss_prev is not None and abs(loss - loss_prev) < threshold:
            break
        loss_prev = loss
    return x, iterations, vectors + np.outer(sweep_shift, sweep_x)


def _cubic_min_reference(a, b):
    """Frozen minimizer of the cubic through (t, J, J') at ``a`` and ``b``
    (Nocedal & Wright, eq. 3.59); NaN when it has none."""
    (ta, fa, ga), (tb, fb, gb) = a, b
    if ta == tb:
        return np.nan
    d1 = ga + gb - 3.0 * (fa - fb) / (ta - tb)
    rad = d1 * d1 - ga * gb
    if not (rad >= 0.0 and np.isfinite(rad)):
        return np.nan
    d2 = np.copysign(np.sqrt(rad), tb - ta)
    den = gb - ga + 2.0 * d2
    return tb - (tb - ta) * (gb + d2 - d1) / den if den != 0.0 else np.nan


def _next_trial_reference(prev, lo, hi):
    """Frozen trial rule: without a bracket end ``hi`` the cubic minimizer
    through ``prev`` and ``lo`` clamped to [1.1, 4] times lo's step (4 times
    when there is none); with one, the minimizer through lo and hi if it
    keeps a tenth of the bracket from either end, else its midpoint."""
    if hi is None:
        t = _cubic_min_reference(prev, lo)
        return 4.0 * lo[0] if np.isnan(t) else min(max(t, 1.1 * lo[0]), 4.0 * lo[0])
    t = _cubic_min_reference(lo, hi)
    low, high = min(lo[0], hi[0]), max(lo[0], hi[0])
    margin = 0.1 * (high - low)
    return t if low + margin <= t <= high - margin else 0.5 * (low + high)


def solve_tls_search_reference(y, vectors, x0, lambda_a, threshold, max_iters, sweep):
    """Plain line-searched total least squares loop, as
    :func:`solve_ls_cg_reference` but on the reduced objective
    J(x) = (1/2M) sum_m min_v f_m: each iteration sweeps at x from scratch,
    steps along the Polak-Ribiere+ direction d of the swept gradient, and
    searches J(x - t d) for a strong Wolfe point (decrease 1e-4, curvature
    0.1, at most 30 trials, from the last accepted step or the tuned step
    0.5 / lambda_a / ||x0||^2), every trial recomputed from x - t d by an
    ensemble product and ``sweep``, the package's correction sweep passed
    in.  J' is (1/2M) sum_m d f_m / dt at fixed roots, with the derivative
    of |inner(a_m, x - t d)| taken from the right where it is zero.  A
    search with no trial of sufficient decrease leaves x where it is.
    ``lambda_y`` follows from ``||x0||`` as in the solver.  Returns
    ``(x_hat, iterations, objective_trace)``.
    """
    x = np.array(x0, dtype=np.complex128)
    m = y.shape[0]
    conj_vectors = vectors.conj()
    norm0_sq = float(np.vdot(x, x).real)
    lambda_y = 1.0 / norm0_sq**2

    def j_and_slope(t, d):
        x_t = x - t * d
        n_t = float(np.vdot(x_t, x_t).real)
        if not 0.0 < n_t < np.inf:
            return np.inf, np.nan
        nu_t, nu_d = conj_vectors @ x_t, conj_vectors @ d
        nu_star, f_star = sweep(vectors, y, x_t, lambda_a, lambda_y, nu_a=nu_t)
        c = np.abs(nu_t)
        phase = np.where(c > 0.0, -nu_t / np.where(c > 0.0, c, 1.0), 1.0)
        s = np.real(np.conj(phase) * (nu_star - nu_t))
        dc = np.where(c > 0.0, np.real(np.conj(phase) * nu_d), np.abs(nu_d))
        dn = 2.0 * (t * float(np.vdot(d, d).real) - float(np.vdot(x, d).real))
        slope = lambda_a * (np.sum(2.0 * s * dc) / n_t - np.sum(s * s) * dn / n_t**2) / (2.0 * m)
        return float(np.sum(f_star)) / (2.0 * m), slope

    trace, g_prev, d, last_step = [], None, None, 0.0
    for _ in range(max_iters):
        nu_a = conj_vectors @ x
        nu_star, _ = sweep(vectors, y, x, lambda_a, lambda_y, nu_a=nu_a)
        w = (np.abs(nu_star) ** 2 - y) * nu_star / m
        g = vectors.T @ w + np.sum(w * np.conj(nu_star - nu_a)) / float(np.vdot(x, x).real) * x
        if g_prev is None or np.linalg.norm(g_prev) == 0.0:
            d = g
        else:
            beta = max(0.0, float(np.real(np.vdot(g - g_prev, g))) / np.linalg.norm(g_prev) ** 2)
            d = g + beta * d
            if np.real(np.vdot(g, d)) <= 0.0:
                d = g
        g_prev = g
        f0, g0 = j_and_slope(0.0, d)
        lo = (0.0, f0, g0)
        if g0 < 0.0:
            t = last_step if last_step > 0.0 else 0.5 / lambda_a / norm0_sq
            prev = hi = None
            for _ in range(30):
                f, slope = j_and_slope(t, d)
                if not (f <= f0 + 1e-4 * t * g0 and f < lo[1]):
                    hi = (t, f, slope)
                elif abs(slope) <= -0.1 * g0:
                    lo = (t, f, slope)
                    break
                else:
                    if slope * ((np.inf if hi is None else hi[0]) - t) >= 0.0:
                        hi = lo
                    prev, lo = lo, (t, f, slope)
                t = _next_trial_reference(prev, lo, hi)
        last_step = lo[0]
        x = x - lo[0] * d
        trace.append(lo[1])
        if len(trace) > 1 and abs(trace[-1] - trace[-2]) < threshold:
            break
    return x, len(trace), np.asarray(trace)


def reduced_objective_reference(x, vectors, y, lambda_a, lambda_y, sweep) -> float:
    """J(x) = (1/2M) sum_m min_v f_m recomputed from scratch: inner(a_m, x)
    as conj(A) x, and the attained f_m from ``sweep``, the package's
    correction sweep passed in."""
    x = np.asarray(x, dtype=np.complex128)
    nu_a = np.conj(vectors) @ x
    _, f_star = sweep(vectors, y, x, lambda_a, lambda_y, nu_a=nu_a)
    return float(np.sum(f_star)) / (2.0 * len(y))


def reduced_gradient_reference(x, vectors, y, lambda_a, lambda_y, sweep) -> np.ndarray:
    """Wirtinger gradient dJ/d conj(x) of :func:`reduced_objective_reference`
    with the corrected vectors v_m held fixed (envelope theorem):
    lambda_y (1/M) sum (|inner(v_m, x)|^2 - y_m) inner(v_m, x) v_m."""
    x = np.asarray(x, dtype=np.complex128)
    nu_a = np.conj(vectors) @ x
    nu_star, _ = sweep(vectors, y, x, lambda_a, lambda_y, nu_a=nu_a)
    w = (np.abs(nu_star) ** 2 - y) * nu_star / len(y)
    shift = np.conj(nu_star - nu_a) / float(np.vdot(x, x).real)
    return lambda_y * (vectors.T @ w + np.sum(w * shift) * x)


def wolfe_ratios(iterates, vectors, y, lambda_a, lambda_y, sweep):
    """For each move x_k -> x_{k+1} between consecutive ``iterates``, with
    phi(s) = J(x_k - s p) and p = x_k - x_{k+1}, the pair
    ((phi(1) - phi(0)) / phi'(0), |phi'(1)| / |phi'(0)|), from
    :func:`reduced_objective_reference` and, as phi'(s) = -2 Re<grad, p>,
    :func:`reduced_gradient_reference`.  A step meets the strong Wolfe
    conditions with constants c1 < c2 when the first ratio is >= c1 and the
    second <= c2.  Moves with p = 0 are skipped."""
    out = []
    for x, x_next in zip(iterates[:-1], iterates[1:]):
        p = x - x_next
        if not np.any(p):
            continue
        args = (vectors, y, lambda_a, lambda_y, sweep)
        slope0 = -2.0 * float(np.vdot(reduced_gradient_reference(x, *args), p).real)
        slope1 = -2.0 * float(np.vdot(reduced_gradient_reference(x_next, *args), p).real)
        drop = reduced_objective_reference(x_next, *args) - reduced_objective_reference(x, *args)
        out.append((drop / slope0, abs(slope1) / abs(slope0)))
    return out


def spectral_init_reference(y, vectors, power_iters=50, start_seed=0x5066_494E):
    """Frozen matrix-free power iteration of the spectral initialization:
    each iteration applies A^T diag(y) conj(A) by two products over the
    ensemble, conj(A conj(u)) and A^T w.  ``start_seed`` is the solvers'
    fixed start-vector seed."""
    y = np.asarray(y, dtype=np.float64)
    n = vectors.shape[1]
    real_data = not vectors.imag.any()
    rng = np.random.Generator(np.random.PCG64(start_seed))
    u = rng.normal(size=n).astype(np.complex128)
    if not real_data:
        u = u + 1j * rng.normal(size=n)
    u /= np.linalg.norm(u)
    for _ in range(power_iters):
        t = np.conj(vectors @ np.conj(u))
        u = vectors.T @ (y * t)
        nrm = np.linalg.norm(u)
        if nrm == 0.0:
            u = rng.normal(size=n).astype(np.complex128)
            if not real_data:
                u = u + 1j * rng.normal(size=n)
            nrm = np.linalg.norm(u)
        u /= nrm
    return np.sqrt(float(np.sum(y)) / (2.0 * y.shape[0])) * u


def save_reference(obj, path) -> None:
    """Frozen container writer that builds each payload by interleaving the
    real and imaginary parts into a new float64 buffer.  Ensembles and
    measurement sets are told apart by their ``vectors`` / ``values``
    attribute; anything else is a signal."""
    path = Path(path)
    if hasattr(obj, "vectors"):
        arr = obj.vectors
        header = {"format_version": 1, "kind": "ensemble", "n": arr.shape[1], "m": arr.shape[0],
                  "model_tag": obj.model_tag, "noise_tag": obj.noise_tag, "dtype": "float64-le"}
    elif hasattr(obj, "values"):
        arr = obj.values
        header = {"format_version": 1, "kind": "measurements", "m": arr.shape[0],
                  "ensemble_ref": obj.ensemble_ref, "dtype": "float64-le"}
    else:
        arr = np.asarray(obj, dtype=np.complex128)
        header = {"format_version": 1, "kind": "signal", "n": int(arr.shape[0]), "dtype": "float64-le"}
    if path.suffix == ".json":
        if header["kind"] == "measurements":
            header["data"] = [float(v) for v in arr]
        elif header["kind"] == "ensemble":
            header["data"] = [[[float(v.real), float(v.imag)] for v in row] for row in arr]
        else:
            header["data"] = [[float(v.real), float(v.imag)] for v in arr]
        path.write_text(json.dumps(header))
        return
    if header["kind"] == "measurements":
        flat = arr.astype("<f8")
    else:
        flat = np.empty(2 * arr.size, dtype="<f8")
        flat[0::2] = arr.real.ravel()
        flat[1::2] = arr.imag.ravel()
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(b"TLSPRBIN")
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(flat.tobytes())


def load_reference(path):
    """Frozen binary container reader: ``(header, array)`` with the payload
    taken from the whole file's bytes and complex values formed from its
    interleaved halves."""
    raw = Path(path).read_bytes()
    (hlen,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12 : 12 + hlen].decode("utf-8"))
    flat = np.frombuffer(raw[12 + hlen :], dtype="<f8").astype(np.float64)
    if header["kind"] == "measurements":
        return header, flat
    shape = (header["m"], header["n"]) if header["kind"] == "ensemble" else (header["n"],)
    return header, (flat[0::2] + 1j * flat[1::2]).reshape(shape)


def wirtinger_gradient_fd(func, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference Wirtinger gradient of a real scalar function.

    Uses d/d conj(z) = (d/d Re + 1j * d/d Im) / 2 per coordinate.
    """
    n = x.shape[0]
    grad = np.zeros(n, dtype=np.complex128)
    for i in range(n):
        e = np.zeros(n, dtype=np.complex128)
        e[i] = h
        d_re = (func(x + e) - func(x - e)) / (2.0 * h)
        d_im = (func(x + 1j * e) - func(x - 1j * e)) / (2.0 * h)
        grad[i] = 0.5 * (d_re + 1j * d_im)
    return grad


def min_over_phase_grid(x_sharp, x_hat, angles: int = 10_000) -> float:
    """Brute-force min over a phase grid of ||x_sharp - exp(j phi) x_hat||."""
    phis = np.linspace(0.0, 2.0 * np.pi, angles, endpoint=False)
    best = np.inf
    for phi in phis:
        best = min(best, float(np.linalg.norm(x_sharp - np.exp(1j * phi) * x_hat)))
    return best


def peak_bytes(fn, *args, **kwargs) -> int:
    """Peak bytes that ``fn(*args, **kwargs)`` holds beyond what was allocated
    before it, as traced by ``tracemalloc``."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
