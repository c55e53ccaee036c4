"""Closed-form cubic root finding.

For a*x^3 + b*x^2 + c*x + d = 0 (a != 0) the three roots are

    x_k = -(b + t^k * psi3 + psi0 / (t^k * psi3)) / (3a),   k = 0, 1, 2

with psi0 = b^2 - 3ac, psi1 = 2b^3 - 9abc + 27a^2 d,
psi3 = cbrt((psi1 + sqrt(psi1^2 - 4 psi0^3)) / 2) and t the primitive cube
root of unity.  :func:`all_roots` computes them in complex arithmetic, so
complex coefficients and the casus irreducibilis need no special casing.

The solvers take real roots of depressed cubics t^3 + p t + q in two places:
the correction takes the smallest real root of one cubic per measurement,
batched by :func:`smallest_real_root_into`, and the least squares step the
least-loss one of the real roots :func:`depressed_real_roots` gives.  Both
take D = (q/2)^2 + (p/3)^3 with (p/3)^3 by pow, so that their root counts
part only where D is rounding noise, and the same closed forms:

* D <= 0 and p < 0 (three real roots): the lowest of Viete's trigonometric
  roots t_k = m cos(theta/3 - 2 pi k/3), m = 2 sqrt(-p/3),
  cos(theta) = 3q / (p m), which is t_2.
* otherwise (one real root): Cardano's formula arranged without
  cancellation, t = -q / (A^2 + p/3 + B^2) with A = cbrt(|q|/2 + sqrt(D))
  and B = p / (3A) (W. Kahan, "To solve a real cubic equation", 1986).

Each root then takes one guarded Newton step.
"""

from __future__ import annotations

import math

import numpy as np

# Primitive cube root of unity.
_OMEGA = complex(-0.5, 0.5 * np.sqrt(3.0))


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


def _polish(coeffs: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Two guarded Newton steps; wildly scaled coefficients otherwise lose
    several digits to cancellation in the closed form."""
    a, b, c, d = coeffs
    for _ in range(2):
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


def _newton_step(t: np.ndarray, p, q, work: np.ndarray, keep: np.ndarray) -> None:
    """One Newton step on t^3 + p t + q, in place, kept only where it lowers
    |residual|.  ``work`` is a float array of shape (3, len(t)) and
    ``keep`` a bool array of t's length.  Where the derivative is zero the
    step is non-finite, its residual is not lower, and t stays (call under
    ``np.errstate(divide="ignore", invalid="ignore")``)."""
    f, f_step, step = work
    np.multiply(t, t, out=f)
    f += p
    f *= t
    f += q
    np.multiply(t, 3.0, out=step)
    step *= t
    step += p
    np.divide(f, step, out=step)
    np.subtract(t, step, out=step)
    np.multiply(step, step, out=f_step)
    f_step += p
    f_step *= step
    f_step += q
    np.abs(work[:2], out=work[:2])
    np.less(f_step, f, out=keep)
    np.copyto(t, step, where=keep)


def root_workspace(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Scratch of :func:`smallest_real_root_into` for M cubics: five float
    rows and two bool rows of length M, reusable from one call to the next."""
    return np.empty((5, m)), np.empty((2, m), dtype=bool)


def smallest_real_root_into(t: np.ndarray, alpha: float, rows: np.ndarray, masks: np.ndarray) -> None:
    """Smallest real root of alpha*t^3 + beta_i*t + const_i, alpha > 0 shared,
    with beta = ``rows[0]`` and const = ``rows[1]``, written into ``t``; ``rows``
    and ``masks`` are the scratch of :func:`root_workspace` and are overwritten.

    Viete's root and the Newton step run in place on all rows; only the rows
    whose branch needs the exact discriminant are gathered.  Rows outside
    Viete's branch make invalid operations, so call under
    ``np.errstate(divide="ignore", invalid="ignore")``.
    """
    if not (alpha > 0):
        raise ValueError("alpha must be > 0")
    p, q, c, a, b = rows
    sure, spare = masks
    np.divide(rows[:2], alpha, out=rows[:2])
    # numpy's (p/3)**3 leaves its vectorized pow for p < 0 and is ~100x
    # slower than c*c*c, which is within 5e-16 |c|^3 of it.  Rows where c*c*c
    # gives D < -1e-15 |c|^3, clear of underflow, have three real roots for
    # certain; the others take D exactly as depressed_real_roots does.
    np.divide(p, 3.0, out=c)
    np.multiply(c, c, out=a)
    a *= c
    np.less(a, -1e-290, out=spare)
    np.multiply(q, 0.5, out=b)
    np.square(b, out=b)
    b += a
    a *= 1e-15
    np.less(b, a, out=sure)
    sure &= spare
    rest = np.flatnonzero(np.logical_not(sure, out=sure))
    pqc = rows[:3, rest]
    disc = (0.5 * pqc[1]) ** 2 + pqc[2] ** 3
    is_one = ~((disc <= 0.0) & (pqc[0] < 0.0))

    # Viete's lowest root m cos(theta - 4 pi/3), m = 2 sqrt(-p/3),
    # cos(theta) = 3q / (p m), on every row; one-root rows are replaced.
    np.divide(p, -3.0, out=a)
    np.sqrt(a, out=a)
    a *= 2.0
    np.multiply(q, 3.0, out=b)
    np.multiply(p, a, out=c)
    b /= c
    # np.clip's Python wrapper costs more than these two passes at small M.
    np.maximum(b, -1.0, out=b)
    np.minimum(b, 1.0, out=b)
    np.arccos(b, out=b)
    b /= 3.0
    b -= 4.0 * np.pi / 3.0
    np.cos(b, out=b)
    np.multiply(a, b, out=t)

    one = rest[is_one]
    if one.size:
        # Kahan's form; D >= 0 on these rows.
        p1, q1, c1 = pqc[:, is_one]
        big = np.cbrt(0.5 * np.abs(q1) + np.sqrt(disc[is_one]))
        # big = 0 only for p = q = 0, where any big > 0 gives the root t = 0.
        big[big == 0.0] = 1.0
        small = p1 / (3.0 * big)
        t[one] = -q1 / (big * big + c1 + small * small)

    _newton_step(t, p, q, rows[2:], spare)


def _newton_scalar(t: float, p: float, q: float) -> float:
    """:func:`_newton_step` for one root."""
    f = (t * t + p) * t + q
    df = 3.0 * t * t + p
    if df == 0.0:
        return t
    step = t - f / df
    return step if abs((step * step + p) * step + q) < abs(f) else t


def depressed_real_roots(p: float, q: float) -> tuple[float, ...]:
    """Real roots of one depressed cubic t^3 + p*t + q with finite p and q,
    ascending: one or three floats, from the closed forms and the guarded
    Newton step of :func:`smallest_real_root_into`, in ``math`` arithmetic (a
    length-1 batch costs ~100x more in numpy call overhead).  t is first
    scaled by a power of two that brings p and q near one, which is exact
    and keeps every intermediate clear of overflow and underflow."""
    if p == 0.0 and q == 0.0:
        return (0.0,)
    k = math.frexp(max(math.sqrt(abs(p)), math.cbrt(abs(q))))[1]
    p, q = math.ldexp(p, -2 * k), math.ldexp(q, -3 * k)
    half, third = 0.5 * q, p / 3.0
    # third**3, not third*third*third, like smallest_real_root_into: the root
    # counts then differ only where the discriminant is rounding noise.
    disc = half * half + third**3
    if disc <= 0.0 and p < 0.0:
        m = 2.0 * math.sqrt(-third)
        theta = math.acos(min(max(3.0 * q / (p * m), -1.0), 1.0)) / 3.0
        low = _newton_scalar(m * math.cos(theta - 4.0 * math.pi / 3.0), p, q)
        # low < 0 and the others solve t^2 + low t + low^2 + p = 0: high has no
        # cancellation, mid comes from the product -q of the roots, and both
        # are sorted above low, as rounding can swap roots that nearly meet.
        high = 0.5 * (math.sqrt(max(-3.0 * low * low - 4.0 * p, 0.0)) - low)
        mid, high = sorted((_newton_scalar(-q / (low * high), p, q), _newton_scalar(high, p, q)))
        roots = (low, max(mid, low), max(high, low))
    else:
        big = math.cbrt(0.5 * abs(q) + math.sqrt(max(disc, 0.0)))
        small = p / (3.0 * big)
        roots = (_newton_scalar(-q / (big * big + third + small * small), p, q),)
    return tuple(math.ldexp(t, k) for t in roots)


def depressed_roots_batch(alpha: float, beta: np.ndarray, const: np.ndarray) -> np.ndarray:
    """Real roots of alpha*t^3 + beta_i*t + const_i, alpha > 0 shared, as an
    (len(beta), 3) array: row i is :func:`depressed_real_roots` of beta_i/alpha
    and const_i/alpha, NaN-padded, and all NaN where either is not finite."""
    if not (alpha > 0):
        raise ValueError("alpha must be > 0")
    p = np.asarray(beta, dtype=np.float64) / alpha
    q = np.asarray(const, dtype=np.float64) / alpha
    roots = np.full((p.shape[0], 3), np.nan)
    for i in np.flatnonzero(np.isfinite(p) & np.isfinite(q)):
        found = depressed_real_roots(float(p[i]), float(q[i]))
        roots[i, : len(found)] = found
    return roots
