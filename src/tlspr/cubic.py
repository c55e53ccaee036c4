"""Closed-form cubic root finding.

For a*x^3 + b*x^2 + c*x + d = 0 (a != 0) the three roots are

    x_k = -(b + t^k * psi3 + psi0 / (t^k * psi3)) / (3a),   k = 0, 1, 2

with psi0 = b^2 - 3ac, psi1 = 2b^3 - 9abc + 27a^2 d,
psi3 = cbrt((psi1 + sqrt(psi1^2 - 4 psi0^3)) / 2) and t the primitive cube
root of unity.  :func:`all_roots` computes them in complex arithmetic, so
complex coefficients and the casus irreducibilis need no special casing.

The sensing-vector correction only needs the smallest real root of real
depressed cubics alpha*t^3 + beta*t + const, which
:func:`smallest_real_root` finds in real arithmetic.  With p = beta/alpha,
q = const/alpha and discriminant D = (q/2)^2 + (p/3)^3:

* D <= 0 and p < 0 (three real roots): the lowest of Viete's trigonometric
  roots t_k = m cos(theta/3 - 2 pi k/3), m = 2 sqrt(-p/3),
  cos(theta) = 3q / (p m), which is t_2.
* otherwise (one real root): Cardano's formula arranged without
  cancellation, t = -q / (A^2 + p/3 + B^2) with A = cbrt(|q|/2 + sqrt(D))
  and B = p / (3A) (W. Kahan, "To solve a real cubic equation", 1986).
"""

from __future__ import annotations

import numpy as np

# Primitive cube root of unity.
_OMEGA = complex(-0.5, 0.5 * np.sqrt(3.0))

# Positive roots must exceed this; smaller magnitudes are treated as zero.
POSITIVE_TOL = 1e-12
# Relative spacing under which two roots are merged as one.
MERGE_TOL = 1e-9


def all_roots(a: complex, b: complex, c: complex, d: complex) -> np.ndarray:
    """All three roots of a*x^3 + b*x^2 + c*x + d, as a complex array."""
    if a == 0:
        raise ValueError("leading coefficient must be nonzero")
    a = complex(a)
    b = complex(b)
    c = complex(c)
    d = complex(d)
    psi0 = b * b - 3.0 * a * c
    psi1 = 2.0 * b**3 - 9.0 * a * b * c + 27.0 * a * a * d
    scale = max(abs(psi0) ** 1.5, abs(psi1))
    disc_root = np.sqrt(complex(psi1 * psi1 - 4.0 * psi0**3))
    # The two branches multiply to psi0^3; the larger one avoids cancellation.
    plus = 0.5 * (psi1 + disc_root)
    minus = 0.5 * (psi1 - disc_root)
    half = plus if abs(plus) >= abs(minus) else minus
    if abs(half) <= 1e-14 * scale or scale == 0.0:
        # psi0 = psi1 = 0: triple root at -b/(3a).
        return np.full(3, -b / (3.0 * a), dtype=np.complex128)
    psi3 = half ** (1.0 / 3.0)
    ks = psi3 * np.array([1.0, _OMEGA, _OMEGA**2], dtype=np.complex128)
    coeffs = np.array([a, b, c, d], dtype=np.complex128)
    roots = _polish(coeffs, -(b + ks + psi0 / ks) / (3.0 * a))
    if not _residuals_ok(coeffs, roots):
        # Extreme coefficient ratios can collapse nearby roots through
        # discriminant cancellation; companion-matrix eigenvalues recover them.
        roots = _polish(coeffs, np.roots(coeffs).astype(np.complex128))
    return roots


def _residuals_ok(coeffs: np.ndarray, roots: np.ndarray) -> bool:
    a, b, c, d = coeffs
    scale = max(abs(a), abs(b), abs(c), abs(d))
    for z in roots:
        bound = 0.5e-8 * scale * max(1.0, abs(z)) ** 3
        if abs(((a * z + b) * z + c) * z + d) > bound:
            return False
    return True


def _polish(coeffs: np.ndarray, roots: np.ndarray, steps: int = 2) -> np.ndarray:
    """Guarded Newton refinement; wildly scaled coefficients otherwise lose
    several digits to cancellation in the closed form."""
    a, b, c, d = coeffs
    for _ in range(steps):
        p = ((a * roots + b) * roots + c) * roots + d
        dp = (3.0 * a * roots + 2.0 * b) * roots + c
        safe = np.abs(dp) > 0
        candidate = np.where(safe, roots - p / np.where(safe, dp, 1.0), roots)
        p_new = ((a * candidate + b) * candidate + c) * candidate + d
        roots = np.where(np.abs(p_new) < np.abs(p), candidate, roots)
    return roots


def residual_scale(a, b, c, d, root) -> float:
    """Bound scale used in tests: max coefficient times max(1, |x|)^3."""
    coeff = max(abs(a), abs(b), abs(c), abs(d))
    return coeff * max(1.0, abs(root)) ** 3


def positive_real_roots(alpha: float, beta: float, gamma_const: float) -> np.ndarray:
    """Positive real roots of the depressed cubic alpha*r^3 + beta*r + gamma_const.

    Roots below POSITIVE_TOL are discarded; near-coincident roots are merged.
    Requires alpha > 0.
    """
    roots = depressed_roots_batch(alpha, [beta], [gamma_const])[0]
    merged: list[float] = []
    for r in roots[roots > POSITIVE_TOL]:
        if merged and abs(r - merged[-1]) <= MERGE_TOL * max(abs(r), abs(merged[-1])):
            continue
        merged.append(float(r))
    return np.asarray(merged, dtype=np.float64)


def _newton_step(t: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """One Newton step on t^3 + p t + q, kept only where it lowers |residual|."""
    f = (t * t + p) * t + q
    df = 3.0 * t * t + p
    step = t - f / np.where(df != 0.0, df, np.inf)
    f_step = (step * step + p) * step + q
    return np.where(np.abs(f_step) < np.abs(f), step, t)


def smallest_real_root(alpha: float, beta: np.ndarray, const: np.ndarray) -> np.ndarray:
    """Smallest real root of alpha*t^3 + beta_i*t + const_i for a whole batch,
    as a (len(beta),) float64 array; alpha is a shared positive scalar.  See
    the module docstring for the closed forms; the root then takes one
    guarded Newton step."""
    if not (alpha > 0):
        raise ValueError("alpha must be > 0")
    p = np.asarray(beta, dtype=np.float64) / alpha
    q = np.asarray(const, dtype=np.float64) / alpha
    t = np.empty_like(p)

    # numpy's (p/3)**3 leaves its vectorized pow for p < 0 and is ~100x
    # slower than c*c*c, which is within 5e-16 |c|^3 of it.  Rows where c*c*c
    # gives D < -1e-15 |c|^3, clear of underflow, have three real roots for
    # certain; the others take D exactly as depressed_roots_batch does.
    c = p / 3.0
    cube = c * c * c
    sure = ((0.5 * q) ** 2 + cube < 1e-15 * cube) & (cube < -1e-290)
    rest = np.flatnonzero(~sure)
    disc = (0.5 * q[rest]) ** 2 + c[rest] ** 3
    is_three = (disc <= 0.0) & (p[rest] < 0.0)
    three = np.concatenate([np.flatnonzero(sure), rest[is_three]])
    if three.size:
        p3, q3 = p[three], q[three]
        m = 2.0 * np.sqrt(p3 / -3.0)
        theta = np.arccos(np.clip(3.0 * q3 / (p3 * m), -1.0, 1.0)) / 3.0
        t[three] = m * np.cos(theta - 4.0 * np.pi / 3.0)

    one = rest[~is_three]
    if one.size:
        p1, q1 = p[one], q[one]
        big = np.cbrt(0.5 * np.abs(q1) + np.sqrt(np.maximum(disc[~is_three], 0.0)))
        # big = 0 only for p = q = 0, where any big > 0 gives the root t = 0.
        big[big == 0.0] = 1.0
        small = p1 / (3.0 * big)
        t[one] = -q1 / (big * big + p1 / 3.0 + small * small)

    return _newton_step(t, p, q)


def depressed_roots_batch(alpha: float, beta: np.ndarray, const: np.ndarray) -> np.ndarray:
    """Real roots of alpha*t^3 + beta_i*t + const_i for a whole batch at once.

    Returns an (len(beta), 3) float64 array whose rows hold the real roots in
    ascending order, padded with NaN where a cubic has only one.  alpha is a
    shared positive scalar.  Column 0 is :func:`smallest_real_root`; the
    cubic deflated by it leaves a quadratic for the other two roots.
    """
    low = smallest_real_root(alpha, beta, const)
    p = np.asarray(beta, dtype=np.float64) / alpha
    q = np.asarray(const, dtype=np.float64) / alpha
    # With three real roots, low < 0 and the other two solve t^2 + low t +
    # low^2 + p = 0: the larger one has no cancellation, and the middle one
    # from the product of the roots, -q, stays accurate when it is tiny.
    three = np.flatnonzero(((0.5 * q) ** 2 + (p / 3.0) ** 3 <= 0.0) & (p < 0.0))
    t0, p3, q3 = low[three], p[three], q[three]
    high = 0.5 * (np.sqrt(np.maximum(-3.0 * t0 * t0 - 4.0 * p3, 0.0)) - t0)
    roots = np.full((low.size, 3), np.nan)
    roots[:, 0] = low
    upper = _newton_step(np.column_stack([-q3 / (t0 * high), high]), p3[:, None], q3[:, None])
    # Rounding can swap roots that nearly coincide; keep each row ascending.
    roots[three, 1:] = np.maximum(np.sort(upper, axis=1), t0[:, None])
    return roots
