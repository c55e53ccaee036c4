"""Spectral initialization, Wirtinger-flow least squares, and the total
least squares solver with alternating sensing-vector correction.

Both solvers minimize measurement misfit by steps on x along

    g(x) = (1/2M) sum_m 2*(|inner(v_m, x)|^2 - y_m) * inner(v_m, x) * v_m,

where v_m is the raw sensing vector for least squares and the corrected
vector for total least squares (corrected in closed form before every step).
The least squares convergence objective is the (1/2M)-normalized misfit;
the total least squares objective adds the lambda_a-weighted correction
norms (the objective J tracked by the convergence test).  Iteration stops
when the objective changes by less than ``threshold`` between consecutive
iterates or at ``max_iters``.

One iteration of either solver costs two products with the one stored
(M, N) ensemble A and no copy of it: inner(a_m, x) (or inner(a_m, d) for a
search direction d) for all rows as conj(A @ conj(x))
(:func:`~tlspr.core.inner_rows`), and the gradient as A^T w.  The TLS
correction enters both only through length-M vectors: the correction of
every row lies on the real line through inner(a_m, x) and zero, so the
sweep, the gradient weights and both terms of J are real arithmetic on
|inner(a_m, x)| and the smallest root t0 (see :func:`solve_tls`), in
in-place passes over length-M buffers made once per solve, and no f_m is
evaluated.

Both start from :func:`spectral_init`, power iteration on
Y = A^T diag(y) conj(A).  When N^2 <= M and N <= 2 * power_iters, Y is built
once as an N x N matrix (M N^2 multiply-adds) and an iteration costs N^2;
otherwise every iteration applies Y matrix-free at 2 M N.

With the default step and no projection both solvers step along
Polak-Ribiere+ conjugate directions d = g + beta d_prev (Gilbert & Nocedal,
"Global convergence properties of conjugate gradient methods for
optimization", 1992).  Along d the LS loss is a quartic in the step, whose
minimizer is a root of one real cubic (Jiang, Rajan & Liu, "Wirtinger flow
method with optimal stepsize for phase retrieval", 2016); LS needs 0.24x the
iterations of the same exact step along g.  TLS searches the reduced
objective J(x) = (1/2M) sum_m min_v f_m of variable projection (Golub &
Pereyra, 1973 and 2003) for a step meeting the strong Wolfe conditions,
at one correction sweep per trial step and no ensemble product, and needs
about a quarter to an eighth of the iterations of its fixed step.

Otherwise the step is fixed: x <- x - (mu / ||x0||^2) g(x), ||x0|| frozen at
initialization.  The tuned TLS step is mu = 0.5/lambda_a for the Gaussian
measurement model (0.4/lambda_a in real-binary projection mode), with
lambda_a = lambda_a_dag/N and lambda_y = lambda_y_dag/||x0||^4 (both daggers
default 1); it ignores lambda_y and diverges at the maximum-likelihood
weight ratio.  The LS step with projection is 0.005.  An explicit step is
used as given.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .core import SensingEnsemble, _complex_normal, _Owned, as_cvector, inner_rows, make_rng
from .core import _check_positive, _checked, ensemble_array, measurement_array  # the input gate
from .correction import LineRoots, _moved_rows, _norm_sq
# Not called here; bench/harness.py traces the sweep under this name.
from .correction import sweep_corrections  # noqa: F401
from .cubic import depressed_real_roots

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
    # None: both solvers step along Polak-Ribiere+ conjugate directions at
    # two products per iteration, LS to the exact minimizer of its loss and
    # TLS to a strong Wolfe point of its reduced objective; with projection,
    # TLS takes its tuned fixed step 0.4/lambda_a and LS 0.005.  An
    # explicit step is a fixed step, used as given.
    step_size: float | None = None
    threshold: float = 1e-6
    max_iters: int = 2500
    power_iters: int = 50
    projection: str = "none"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.projection not in PROJECTIONS:
            raise ValueError(f"unknown projection {self.projection!r}")
        step = {} if self.step_size is None else {"step_size": self.step_size}
        _check_positive(lambda_a_dag=self.lambda_a_dag, lambda_y_dag=self.lambda_y_dag, **step,
                        threshold=self.threshold)
        for name, least in (("max_iters", 0), ("power_iters", 1)):
            value = getattr(self, name)
            integral = hasattr(type(value), "__index__") and not isinstance(value, bool)
            if not (integral and operator.index(value) >= least):
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True)
class SolveResult:
    x_hat: np.ndarray
    corrected_ensemble: SensingEnsemble | None
    objective_trace: np.ndarray
    iterations: int
    converged: bool


def spectral_init(y, ensemble, power_iters: int = 50) -> np.ndarray:
    """Leading eigenvector of Y = sum_m y_m a_m a_m^* = A^T diag(y) conj(A)
    by power iteration, u <- Y u / ||Y u||.

    When N^2 <= M and N <= 2 * power_iters, Y is built once as an N x N
    matrix, at M N^2 multiply-adds (no more than the 2 M N per iteration of
    applying it matrix-free), and each iteration then costs N^2.  Otherwise
    Y is only applied, with two matrix-vector products over the ensemble per
    iteration, and never materialized.  The eigenvector is scaled by the
    norm estimate sqrt(sum_m y_m / (2M)).  Real-valued data yields a real
    start vector so the iteration stays real.
    """
    vectors = ensemble_array(ensemble)
    yv = measurement_array(y, vectors.shape[0])
    if np.all(yv == 0.0):
        raise ValueError("all measurements are zero; spectral init undefined")
    total = float(np.sum(yv))
    if total <= 0.0:
        raise ValueError("measurements sum to a nonpositive value")
    m, n = vectors.shape
    spectral = _spectral_matrix(vectors, yv) if n * n <= m and n <= 2 * power_iters else None
    real_data = not vectors.imag.any()
    rng = make_rng(_SPECTRAL_START_SEED)
    u = _complex_normal(rng, n, real_data)
    u /= np.linalg.norm(u)
    for _ in range(power_iters):
        if spectral is None:
            t = inner_rows(vectors, u)
            u = vectors.T @ (yv * t)
        else:
            u = spectral @ u
        nrm = np.linalg.norm(u)
        if nrm == 0.0:
            u = _complex_normal(rng, n, real_data)
            nrm = np.linalg.norm(u)
        u /= nrm
    scale = np.sqrt(total / (2.0 * yv.shape[0]))
    return scale * u


def _spectral_matrix(vectors: np.ndarray, yv: np.ndarray) -> np.ndarray:
    """The N x N matrix A^T diag(y) conj(A), summed over blocks of N rows, so
    that no temporary is larger than the matrix itself."""
    m, n = vectors.shape
    spectral = np.zeros((n, n), dtype=np.complex128)
    part = np.empty_like(spectral)
    scaled = np.empty_like(spectral)
    for start in range(0, m, n):
        block = vectors[start : start + n]
        s = np.conjugate(block, out=scaled[: block.shape[0]])
        # Scale the float64 view in place; a complex product would cast y.
        halves = s.view(np.float64)
        halves *= yv[start : start + n, None]
        spectral += np.matmul(block.T, s, out=part)
    return spectral


def fallback_init(n: int, real_mode: bool = False) -> np.ndarray:
    """Deterministic random unit vector used when spectral init fails."""
    v = _complex_normal(make_rng(_FALLBACK_INIT_SEED), n, real_mode)
    return v / np.linalg.norm(v)


def project_real_binary(x: np.ndarray) -> np.ndarray:
    """Elementwise |x_i| clamped to at most one, imaginary part dropped."""
    return np.minimum(np.abs(x), 1.0).astype(np.complex128)


def ls_gradient(x, ensemble, y) -> np.ndarray:
    """Wirtinger gradient of the (1/2M)-normalized least squares misfit."""
    vectors, yv, x = _checked(x, ensemble, y)
    nu = inner_rows(vectors, x)
    w = (np.abs(nu) ** 2 - yv) * nu / yv.shape[0]
    return vectors.T @ w


def objective_ls(x, ensemble, y) -> float:
    """(1/2M) sum (y_m - |inner(a_m, x)|^2)^2."""
    vectors, yv, x = _checked(x, ensemble, y)
    nu = inner_rows(vectors, x)
    return float(np.sum((yv - np.abs(nu) ** 2) ** 2) / (2.0 * yv.shape[0]))


def objective_tls(x, corrected, original, y, lambda_a: float, lambda_y: float) -> float:
    """(1/2M) sum lambda_a ||a_m - v_m||^2 + lambda_y (y_m - |inner(v_m, x)|^2)^2."""
    v, yv, x = _checked(x, corrected, y, "corrected")
    a = ensemble_array(original, "original")
    if v.shape != a.shape:
        raise ValueError(f"corrected has shape {v.shape}, original has shape {a.shape}")
    _check_positive(allow_zero=True, lambda_a=lambda_a, lambda_y=lambda_y)
    nu = inner_rows(v, x)
    corr = np.sum(np.abs(v - a) ** 2, axis=1)
    misfit = (yv - np.abs(nu) ** 2) ** 2
    return float(np.sum(lambda_a * corr + lambda_y * misfit) / (2.0 * yv.shape[0]))


def tls_objective_gradient(x, ensemble, y, lambda_a: float, lambda_y: float) -> np.ndarray:
    """Gradient of (1/2M) sum_m min_v f_m(v; x) with respect to x.

    By the envelope theorem the inner minimizers are held fixed, giving
    lambda_y * (1/2M) sum 2*(|inner(v_m, x)|^2 - y_m)*inner(v_m, x)*v_m with
    v_m the corrected vectors at x: lambda_y times the step direction of
    :func:`solve_tls`, computed by the same :func:`_tls_gradient`.
    """
    vectors, yv, x = _checked(x, ensemble, y)
    _check_positive(lambda_a=lambda_a, lambda_y=lambda_y)
    norm_sq = _norm_sq(x)
    m = yv.shape[0]
    line = LineRoots(m)
    w = np.empty(m, dtype=np.complex128)
    with np.errstate(divide="ignore", invalid="ignore"):
        grad = _tls_gradient(vectors, yv, x, norm_sq, inner_rows(vectors, x), lambda_a, lambda_y, line, w)
    return lambda_y * grad


def _tls_gradient(vectors, yv, x, norm_sq, nu_a, lambda_a, lambda_y, line: LineRoots, w) -> np.ndarray:
    """Correct every row at x (``nu_a`` = inner_rows(A, x)) and return the
    gradient g(x) of :func:`_swept_gradient`.  Leaves t0 + c in ``line.c``
    and overwrites ``w``."""
    line.solve(nu_a, yv, lambda_a, lambda_y, norm_sq)
    return _swept_gradient(vectors, yv, x, norm_sq, line, np.add(line.c, line.t0, out=line.c), w)


def _swept_gradient(vectors, yv, x, norm_sq, line: LineRoots, s, w) -> np.ndarray:
    """The gradient g(x) of the module docstring with the rows corrected by
    the sweep in ``line`` held fixed, given s = t0 + c.  A corrected row is
    v_m = a_m + conj(phase) s x / ||x||^2 with inner(v_m, x) = phase t0, so
    g = A^T (k phase) + (sum k s / ||x||^2) x with the real
    k = (t0^2 - y) t0 / M.  Overwrites ``w`` and ``line.rows[0]``."""
    t0, k = line.t0, line.rows[0]
    np.multiply(t0, t0, out=k)
    k -= yv
    k *= t0
    np.multiply(line.phase, k, out=w)
    grad = vectors.T @ w
    grad += (float(k @ s) / norm_sq) * x
    grad /= yv.shape[0]
    return grad


def _start(y, ensemble, cfg: SolverConfig, x0, mode: str):
    """Checked inputs, initial iterate, its squared norm, lambda_a and the
    scaled step, shared by both solvers."""
    if cfg.mode != mode:
        raise ValueError(f"cfg.mode must be {mode!r}")
    vectors = ensemble_array(ensemble)
    m, n = vectors.shape
    yv = measurement_array(y, m)
    if x0 is not None:
        x = as_cvector(x0, "x0", n).copy()
    else:
        try:  # the inputs as passed, so that a container is not checked twice
            x = spectral_init(y, ensemble, cfg.power_iters)
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
        mu = 0.005  # used with projection only; LS otherwise searches its step
    return vectors, yv, x, norm0_sq, lambda_a, mu / norm0_sq


def _exact_step(r, nu, nu_d, work, tmp) -> float:
    """The step t that minimizes the least squares loss at x - t d exactly.

    With nu = inner_rows(A, x), r = |nu|^2 - y and nu_d = inner_rows(A, d),
    the loss times 2M is the quartic sum (r + b t + c t^2)^2, where
    b = -2 Re(conj(nu) nu_d) and c = |nu_d|^2.  Its derivative over 4,
    sum c^2 t^3 + 1.5 sum b c t^2 + sum (b^2/2 + r c) t + sum r b/2, is
    depressed and solved by :func:`~tlspr.cubic.depressed_real_roots`, and
    the root of least loss is kept.  A loss constant along d (d = 0 included)
    gives t = 0; non-finite coefficients give NaN.  ``work`` (2M floats) and
    ``tmp`` (M floats) are scratch.
    """
    m = r.shape[0]
    half_b, c = work[:m], work[m:]  # half_b = -b/2
    np.multiply(nu.real, nu_d.real, out=half_b)
    np.multiply(nu.imag, nu_d.imag, out=tmp)
    half_b += tmp
    np.multiply(nu_d.real, nu_d.real, out=c)
    np.multiply(nu_d.imag, nu_d.imag, out=tmp)
    c += tmp
    cc = float(c.dot(c))
    if cc == 0.0:
        return 0.0
    bc, bb, rc, rb = float(half_b.dot(c)), float(half_b.dot(half_b)), float(r.dot(c)), float(r.dot(half_b))
    # The monic derivative t^3 + 3 h t^2 + k t - rb/cc, shifted by t = s - h.
    h, k = -bc / cc, (2.0 * bb + rc) / cc
    p, q = k - 3.0 * h * h, (2.0 * h * h - k) * h - rb / cc
    if not (math.isfinite(p) and math.isfinite(q)):
        return math.nan

    def loss(t):  # minus the constant sum r^2
        return (((cc * t - 4.0 * bc) * t + 2.0 * (2.0 * bb + rc)) * t - 4.0 * rb) * t

    return min((s - h for s in depressed_real_roots(p, q)), key=loss)


def _record(trace: list, loss: float, threshold: float) -> bool:
    """Both solvers' stopping rule: append ``loss`` to ``trace`` and return whether it
    moved by less than ``threshold`` from the previous entry.  Non-finite raises SolverError."""
    if not math.isfinite(loss):
        raise SolverError(f"objective became non-finite at iteration {len(trace) + 1}")
    trace.append(loss)
    return len(trace) > 1 and abs(loss - trace[-2]) < threshold


def _pr_direction(g, g_prev, d_prev) -> np.ndarray:
    """The Polak-Ribiere+ search direction d = g + beta d_prev, with
    beta = max(0, Re<g - g_prev, g> / ||g_prev||^2).

    Returns g itself (a restart) on the first iteration (``g_prev`` None),
    when ||g_prev|| = 0, when beta would be <= 0, and when Re<g, d> <= 0, so
    that x - t d descends for small t > 0.
    """
    if g_prev is None:
        return g
    gg_prev = np.vdot(g_prev, g_prev).real
    if gg_prev == 0.0:
        return g
    gg = np.vdot(g, g).real
    beta = (gg - np.vdot(g_prev, g).real) / gg_prev
    if not beta > 0.0:
        return g
    # Re<g, d> = ||g||^2 + beta Re<g, d_prev>, about ||g||^2 after an exact step.
    if not gg + beta * np.vdot(g, d_prev).real > 0.0:
        return g
    return g + beta * d_prev


def solve_ls(y, ensemble, cfg: SolverConfig, x0=None) -> SolveResult:
    """Wirtinger-flow least squares solve.

    With the default step and no projection every iteration moves to the
    exact minimizer of the loss along the Polak-Ribiere+ conjugate direction
    d (:func:`_pr_direction`, :func:`_exact_step`), and nu follows x as
    nu - t inner_rows(A, d).  Otherwise every iteration takes the fixed
    gradient step of the module docstring.
    """
    vectors, yv, x, _, _, step = _start(y, ensemble, cfg, x0, "ls")
    exact = cfg.step_size is None and cfg.projection == "none"
    m = yv.shape[0]
    step_m = step / m
    trace = []
    converged = False
    # Residual r = |nu|^2 - y of the current iterate, its loss and its
    # gradient g = A^T (r nu), kept in place with the weights w = r nu.
    r, imag_sq = np.empty(m), np.empty(m)
    w = np.empty(m, dtype=np.complex128)
    nu_d = np.empty(m, dtype=np.complex128) if exact else None
    g_prev = d = None

    def residual(nu):
        np.multiply(nu.real, nu.real, out=r)
        np.multiply(nu.imag, nu.imag, out=imag_sq)
        np.add(r, imag_sq, out=r)
        np.subtract(r, yv, out=r)

    with np.errstate(over="ignore", invalid="ignore"):
        nu = inner_rows(vectors, x)
        residual(nu)
        while not converged and len(trace) < cfg.max_iters:
            # w = r nu part by part: a float-complex product would cast r
            # into an M-sized buffer.
            np.multiply(nu.real, r, out=w.real)
            np.multiply(nu.imag, r, out=w.imag)
            g = vectors.T @ w
            if exact:
                d = _pr_direction(g, g_prev, d)
                g_prev = g
                inner_rows(vectors, d, out=nu_d)
                # w is spent once g is formed; its float64 view holds b and c.
                t = _exact_step(r, nu, nu_d, w.view(np.float64), imag_sq)
                x -= t * d
                nu_d *= t
                nu -= nu_d
            else:
                x = x - step_m * g
                if cfg.projection == "real_binary":
                    x = project_real_binary(x)
                nu = inner_rows(vectors, x)
            residual(nu)
            converged = _record(trace, float(r @ r) / (2.0 * m), cfg.threshold)
    return SolveResult(
        x_hat=x,
        corrected_ensemble=None,
        objective_trace=np.asarray(trace),
        iterations=len(trace),
        converged=converged,
    )


# Strong Wolfe constants of the TLS line search, sufficient decrease and
# curvature (Nocedal & Wright, "Numerical Optimization", 2006, ch. 3), and
# the most J evaluations one search takes.
_DECREASE, _CURVATURE, _SEARCH_EVALS = 1e-4, 0.1, 30


class _ReducedLine:
    """The reduced objective J(x) = (1/2M) sum_m min_v f_m at the current
    iterate x and along x - t d, in length-M buffers that every iteration of
    one solve reuses.

    Along the line inner(a_m, x - t d) = nu_a - t nu_d and
    n(t) = ||x - t d||^2 = ||x||^2 - 2t Re<x, d> + t^2 ||d||^2, so a point
    costs one :meth:`LineRoots.solve` and O(M) work, with no ensemble
    product.  With s = t0 + c and r = t0^2 - y there,
    J(t) = (1/2M) sum lambda_a s^2 / n + lambda_y r^2.  f_m does not move
    with t0 at its minimizer (the envelope theorem), so

        J'(t) = lambda_a / (M n) (sum s c' - (t ||d||^2 - Re<x, d>) sum s^2 / n),

    where c' = Re(conj(phase) nu_d) is the derivative of c = |nu_a - t nu_d|.
    On a row with c = 0, c is |t' - t| |nu_d| near t and c' = |nu_d| is its
    derivative from the right, the side the search moves to.

    Holds inner_rows(A, x) in ``nu_a``, ||x||^2 in ``norm_sq``, J(x) in
    ``value``, the sweep at x in ``line`` and s there in ``s``.
    """

    def __init__(self, nu_a, yv, lambda_a: float, lambda_y: float, norm_sq: float, first_step: float):
        m = yv.shape[0]
        self.yv, self.lambda_a, self.lambda_y = yv, lambda_a, lambda_y
        self.line = LineRoots(m)
        self.s, self.work = np.empty(m), np.empty(m)
        self.nu_a, self.nu_t = nu_a, np.empty_like(nu_a)
        self.value = self._sweep(nu_a, norm_sq)
        # The last search's step, and the step tried first without one.
        self.step, self.first_step = 0.0, first_step

    def _sweep(self, nu, norm_sq: float) -> float:
        """Correct every row at inner products ``nu`` and squared norm
        ``norm_sq``, and return J there."""
        line = self.line
        line.solve(nu, self.yv, self.lambda_a, self.lambda_y, norm_sq)
        s = np.add(line.t0, line.c, out=self.s)
        r = np.multiply(line.t0, line.t0, out=self.work)
        r -= self.yv
        self.norm_sq, self.ss = norm_sq, float(s @ s)
        return (self.lambda_a * self.ss / norm_sq + self.lambda_y * float(r @ r)) / (2.0 * r.shape[0])

    def _slope(self, nu_d, half_dn: float) -> float:
        """J' at the last sweep, where d||x - t d||^2/dt = 2 ``half_dn``."""
        line, s, sc = self.line, self.s, self.work
        np.multiply(s, line.phase.real, out=sc)
        sdc = float(sc @ nu_d.real)
        np.multiply(s, line.phase.imag, out=sc)
        sdc += float(sc @ nu_d.imag)
        if np.count_nonzero(line.c) < line.c.size:
            zero = line.c == 0.0  # phase = 1 there
            sdc += float(s[zero] @ (np.abs(nu_d[zero]) - nu_d[zero].real))
        return self.lambda_a * (sdc - half_dn * self.ss / self.norm_sq) / (s.shape[0] * self.norm_sq)

    def _at(self, t: float, nu_d, re_xd: float, dd: float, norm_sq: float) -> tuple[float, float]:
        """(J, J') at x - t d, where ||x||^2 = ``norm_sq``; a non-positive
        norm gives J = inf."""
        norm_t = norm_sq + t * (t * dd - 2.0 * re_xd)
        if not 0.0 < norm_t < math.inf:
            return math.inf, math.nan
        nu = np.multiply(nu_d, -t, out=self.nu_t)
        nu += self.nu_a
        return self._sweep(nu, norm_t), self._slope(nu_d, t * dd - re_xd)

    def search(self, nu_d, re_xd: float, dd: float) -> None:
        """Move to x - t d for a t > 0 with J(t) <= J(0) + 1e-4 t J'(0) and
        |J'(t)| <= 0.1 |J'(0)|, given ``nu_d`` = inner_rows(A, d),
        ``re_xd`` = Re<x, d> and ``dd`` = ||d||^2; ``step`` then holds t.

        The first trial is the last search's step, or ``first_step``
        without one.  Trials grow, by cubic extrapolation, until J' >= 0 or
        J rises; then cubic interpolation narrows that bracket
        (:func:`_next_trial`).  When no trial meets both conditions within
        ``_SEARCH_EVALS``, the best one that meets the first is taken; with
        none, t = 0 and x stays where it is.
        """
        f0, norm_sq = self.value, self.norm_sq
        g0 = self._slope(nu_d, -re_xd)
        lo = (0.0, f0, g0)
        at = 0.0  # the t of the sweep in ``line``
        if g0 < 0.0:
            t = self.step if self.step > 0.0 else self.first_step
            prev = hi = None
            for _ in range(_SEARCH_EVALS):
                f, g = self._at(t, nu_d, re_xd, dd, norm_sq)
                at = t
                if not (f <= f0 + _DECREASE * t * g0 and f < lo[1]):
                    hi = (t, f, g)
                elif abs(g) <= -_CURVATURE * g0:
                    lo = (t, f, g)
                    break
                else:
                    if g * ((math.inf if hi is None else hi[0]) - t) >= 0.0:
                        hi = lo
                    prev, lo = lo, (t, f, g)
                t = _next_trial(prev, lo, hi)
        if at != lo[0]:
            if lo[0] > 0.0:
                self._at(lo[0], nu_d, re_xd, dd, norm_sq)
            else:
                self._sweep(self.nu_a, norm_sq)
        self.step, self.value = lo[0], lo[1]
        if lo[0] > 0.0:
            self.nu_a, self.nu_t = self.nu_t, self.nu_a


def _next_trial(prev, lo, hi) -> float:
    """The next trial step from (t, J, J') at the best point ``lo``, the
    point ``prev`` it replaced and the bracket's other end ``hi`` (None
    before one is found): the minimizer of the cubic through lo and hi, kept
    at least a tenth of the bracket from either end, or without hi the one
    through prev and lo, kept within [1.1, 4] times lo's step."""
    if hi is None:
        t = _cubic_min(prev, lo)
        return 4.0 * lo[0] if math.isnan(t) else min(max(t, 1.1 * lo[0]), 4.0 * lo[0])
    t = _cubic_min(lo, hi)
    low, high = min(lo[0], hi[0]), max(lo[0], hi[0])
    margin = 0.1 * (high - low)
    return t if low + margin <= t <= high - margin else 0.5 * (low + high)


def _cubic_min(a, b) -> float:
    """The minimizer of the cubic through (t, J, J') at ``a`` and ``b``
    (Nocedal & Wright, eq. 3.59); NaN when it has none."""
    (ta, fa, ga), (tb, fb, gb) = a, b
    if ta == tb:
        return math.nan
    d1 = ga + gb - 3.0 * (fa - fb) / (ta - tb)
    rad = d1 * d1 - ga * gb
    if not (rad >= 0.0 and math.isfinite(rad)):
        return math.nan
    d2 = math.copysign(math.sqrt(rad), tb - ta)
    den = gb - ga + 2.0 * d2
    return tb - (tb - ta) * (gb + d2 - d1) / den if den != 0.0 else math.nan


def solve_tls(y, ensemble, cfg: SolverConfig, x0=None) -> SolveResult:
    """Alternating closed-form correction sweeps and steps on x.

    Each iteration (a) corrects every sensing vector in closed form at the
    current x, then (b) steps on x with the corrected vectors held fixed
    (:func:`_tls_gradient`).

    With the default step and no projection the step goes along the
    Polak-Ribiere+ direction d of that gradient (:func:`_pr_direction`) to a
    t meeting the strong Wolfe conditions on the reduced objective
    J(x - t d) (:class:`_ReducedLine`).  The sweep at the accepted point is
    the next iteration's (a), the trace holds J at each new iterate, and the
    returned ensemble holds the corrections at ``x_hat``.

    Otherwise every iteration takes the fixed step of the module docstring;
    the trace then holds the objective with the last sweep's corrections at
    the new iterate, and the returned ensemble those corrections.
    """
    vectors, yv, x, norm0_sq, lambda_a, step = _start(y, ensemble, cfg, x0, "tls")
    model_tag = ensemble.model_tag if isinstance(ensemble, SensingEnsemble) else "external"
    m = yv.shape[0]
    lambda_y = cfg.lambda_y_dag / norm0_sq**2
    searched = cfg.step_size is None and cfg.projection == "none"
    trace = []
    converged = False
    # u = nu_star - nu_a = phase (t0 + c) of the corrections returned; zero
    # before a sweep.
    u = np.zeros(m, dtype=np.complex128)
    sweep_x, sweep_norm_sq = x, norm0_sq
    w = np.empty(m, dtype=np.complex128)
    nu_a = inner_rows(vectors, x)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if searched:
            along = _ReducedLine(nu_a, yv, lambda_a, lambda_y, norm0_sq, step)
            line = along.line
            nu_d = np.empty(m, dtype=np.complex128)
            g_prev = d = None
        else:
            line = LineRoots(m)
        while not converged and len(trace) < cfg.max_iters:
            if searched:
                grad = _swept_gradient(vectors, yv, x, along.norm_sq, line, along.s, w)
                d = _pr_direction(grad, g_prev, d)
                g_prev = grad
                inner_rows(vectors, d, out=nu_d)
                along.search(nu_d, float(np.vdot(x, d).real), float(np.vdot(d, d).real))
                x -= along.step * d
                loss = along.value
            else:
                norm_x_sq = float(np.vdot(x, x).real)
                if norm_x_sq == 0.0:
                    raise SolverError(f"iterate collapsed to zero norm at iteration {len(trace) + 1}")
                # (a) closed-form correction sweep at the current x and (b) one
                # gradient step with the corrected vectors fixed.
                grad = _tls_gradient(vectors, yv, x, norm_x_sq, nu_a, lambda_a, lambda_y, line, w)
                g = line.c  # t0 + c
                corr_term = lambda_a * float(g @ g) / norm_x_sq / (2.0 * m)
                u = np.multiply(line.phase, g, out=line.phase)
                sweep_x, sweep_norm_sq = x, norm_x_sq
                x_new = x - step * grad
                if cfg.projection == "real_binary":
                    x_new = project_real_binary(x_new)
                # nu_a is spent once u is formed; it now takes inner(a_m, x_new).
                inner_rows(vectors, x_new, out=nu_a)
                # inner(v_m, x_new) for the swept v_m = a_m + conj(u_m) x / ||x||^2.
                np.multiply(u, np.vdot(x, x_new) / norm_x_sq, out=w)
                w += nu_a
                r = np.abs(w, out=line.rows[0])
                r *= r
                r -= yv
                loss = corr_term + lambda_y * float(r @ r) / (2.0 * m)
                x = x_new
            converged = _record(trace, loss, cfg.threshold)
    if searched and trace:
        u, sweep_x, sweep_norm_sq = np.multiply(line.phase, along.s, out=w), x, along.norm_sq
    corrected = _moved_rows(vectors, sweep_x, u, sweep_norm_sq)
    return SolveResult(
        x_hat=x,
        corrected_ensemble=SensingEnsemble(_Owned(corrected), model_tag=model_tag, noise_tag="corrected"),
        objective_trace=np.asarray(trace),
        iterations=len(trace),
        converged=converged,
    )
