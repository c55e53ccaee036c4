"""Independent reference implementations used to check the package.

Everything here is deliberately naive (loops, dense scans, finite
differences) and shares no code with the production paths it validates.
"""

from __future__ import annotations

import numpy as np

try:
    from numba import njit

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover
    _HAVE_NUMBA = False


def inner_loop(a, b) -> complex:
    """Summation-loop inner product, conjugating the first argument."""
    total = 0.0 + 0.0j
    for ai, bi in zip(a, b):
        total += complex(ai).conjugate() * complex(bi)
    return total


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


if _HAVE_NUMBA:

    @njit(cache=True)
    def _grid_scan(nu_a_re, nu_a_im, y, lam_a, lam_y, norm_x_sq, radius, step):
        best = np.inf
        count = int(np.ceil(2.0 * radius / step)) + 1
        for i in range(count):
            re = -radius + i * step
            dre = re - nu_a_re
            re_sq = re * re
            for k in range(count):
                im = -radius + k * step
                dim = im - nu_a_im
                misfit = y - (re_sq + im * im)
                f = lam_a * (dre * dre + dim * dim) / norm_x_sq + lam_y * misfit * misfit
                if f < best:
                    best = f
        return best

    def grid_min(nu_a, y, lam_a, lam_y, norm_x_sq, radius, step) -> float:
        return float(
            _grid_scan(nu_a.real, nu_a.imag, float(y), lam_a, lam_y, norm_x_sq, radius, step)
        )

else:  # pragma: no cover - numpy fallback, vectorized over blocks of rows

    _GRID_BLOCK = 1 << 17  # grid points per block; 1 MB stays in cache

    def grid_min(nu_a, y, lam_a, lam_y, norm_x_sq, radius, step) -> float:
        axis = np.arange(-radius, radius + step, step)
        # f(re, im) = row_pert(re) + col_pert(im) + (row_misfit(re) - im_sq(im))^2
        # with sqrt(lam_y) folded into the misfit terms.
        root_y = np.sqrt(lam_y)
        row_pert = lam_a * (axis - nu_a.real) ** 2 / norm_x_sq
        col_pert = lam_a * (axis - nu_a.imag) ** 2 / norm_x_sq
        row_misfit = root_y * (y - axis**2)
        im_sq = root_y * axis**2
        rows = max(1, _GRID_BLOCK // axis.size)
        buf = np.empty((rows, axis.size))
        best = np.inf
        for start in range(0, axis.size, rows):
            block = buf[: min(rows, axis.size - start)]
            np.subtract(row_misfit[start : start + rows, None], im_sq, out=block)
            np.square(block, out=block)
            block += col_pert
            best = min(best, float((block.min(axis=1) + row_pert[start : start + rows]).min()))
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
