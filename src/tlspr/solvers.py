"""Spectral initialization and the least squares (LS) and total least
squares (TLS) solvers: one descent loop over two per-row models.

Both solvers minimize measurement misfit by steps on x along

    g(x) = (1/2M) sum_m 2*(|inner(v_m, x)|^2 - y_m) * inner(v_m, x) * v_m,

where v_m is the raw sensing vector for LS and for TLS the vector corrected
in closed form at x.  Both run :func:`_descend`; they differ only in the
per-row model it runs over.  LS's (:class:`_LSRows`) holds the residual
|inner(a_m, x)|^2 - y_m, and its objective is the (1/2M)-normalized misfit.
TLS's (:class:`_TLSRows`) holds the reduced objective
J(x) = (1/2M) sum_m min_v f_m of variable projection (Golub & Pereyra, 1973
and 2003), which adds the lambda_a-weighted correction norms and tends to
LS's as lambda_a grows.  Iteration stops when the objective changes by less
than ``threshold`` between consecutive iterates or at ``max_iters``.  The
models are the only code of each objective and gradient: the public
:func:`objective_ls`, :func:`ls_gradient` and :func:`tls_objective_gradient`
build one at x and read it.

The loop has two step policies.  With the default step and no projection it
searches along Polak-Ribiere+ conjugate directions d = g + beta d_prev
(Gilbert & Nocedal, "Global convergence properties of conjugate gradient
methods for optimization", 1992).  Along d the LS loss is a quartic in the
step, whose minimizer is a root of one real cubic (Jiang, Rajan & Liu,
"Wirtinger flow method with optimal stepsize for phase retrieval", 2016);
LS needs 0.24x the iterations of the same exact step along g.  TLS takes a
step meeting the strong Wolfe conditions on J, at one correction sweep per
trial step and no ensemble product, and needs about a quarter to an eighth
of the iterations of its fixed step.

Otherwise the step is fixed: x <- x - (mu / ||x0||^2) g(x), ||x0|| frozen at
initialization, then projected in real-binary mode.  The tuned TLS step is
mu = 0.5/lambda_a for the Gaussian measurement model (0.4/lambda_a in
real-binary projection mode), with lambda_a = lambda_a_dag/N and
lambda_y = lambda_y_dag/||x0||^4 (both daggers default 1); it ignores
lambda_y and diverges at the maximum-likelihood weight ratio.  The LS step
with projection is 0.005.  An explicit step is used as given.

An iteration under either policy costs two products with the one stored
(M, N) ensemble A and no copy of it: inner(a_m, d) or inner(a_m, x) for all
rows as conj(A @ conj(.)) (:func:`~tlspr.core.inner_rows`), and the
gradient as A^T w.  The TLS corrections enter both only through length-M
vectors: the correction of every row lies on the real line through
inner(a_m, x) and zero, so the sweep, the gradient weights and both terms
of J are real arithmetic on |inner(a_m, x)| and the smallest root t0, in
in-place passes over length-M buffers made once per solve.  Both solvers
start from :func:`spectral_init`.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .core import SensingEnsemble, _complex_normal, _is_real, as_cvector, inner_rows, make_rng
from .core import _check_positive, _checked, ensemble_array, measurement_array  # the input gate
from .correction import CorrectedRows, LineRoots, _norm_sq
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
    # None: whichever solver is called; "ls" or "tls" checks that it is that one.
    mode: str | None = None
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
        if self.mode is not None and self.mode not in MODES:
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
    """What a solve returns.  A TLS solve's corrections are kept as factors
    in ``corrections`` (:class:`~tlspr.correction.CorrectedRows`; None
    after LS): its length-M shifts and the point of the last sweep, next to
    the ensemble the solve read.  ``corrected_ensemble`` builds the (M, N)
    corrected rows from them on first read and keeps them; LS gives None.
    The rows are read from that ensemble as it is then: a
    :class:`~tlspr.core.SensingEnsemble`'s rows are read-only, but a raw
    writable array changed after the solve is read as changed."""

    x_hat: np.ndarray
    corrections: CorrectedRows | None
    objective_trace: np.ndarray
    iterations: int
    converged: bool

    @functools.cached_property
    def corrected_ensemble(self) -> SensingEnsemble | None:
        return None if self.corrections is None else self.corrections.ensemble()


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
    real_data = _is_real(vectors)
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
    return _LSRows(vectors, yv, inner_rows(vectors, x)).gradient(x, 0) / yv.shape[0]


def objective_ls(x, ensemble, y) -> float:
    """(1/2M) sum (y_m - |inner(a_m, x)|^2)^2."""
    vectors, yv, x = _checked(x, ensemble, y)
    return _LSRows(vectors, yv, inner_rows(vectors, x)).loss


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
    :func:`solve_tls`, from the same sweep and gradient (:class:`_TLSRows`).
    """
    vectors, yv, x = _checked(x, ensemble, y)
    _check_positive(lambda_a=lambda_a, lambda_y=lambda_y)
    rows = _TLSRows(vectors, yv, inner_rows(vectors, x), lambda_a, lambda_y, _norm_sq(x), 0.0)
    return lambda_y * rows.gradient(x, 0)


def _start(y, ensemble, cfg: SolverConfig, x0, mode: str):
    """Checked inputs, the initial iterate x, inner_rows(A, x) (the one
    product before the loop), ||x||^2, lambda_a and the scaled fixed step,
    shared by both solvers."""
    if cfg.mode not in (None, mode):
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
            x = fallback_init(n, real_mode=_is_real(vectors))
    x = _feasible(x, cfg)
    norm0_sq = float(np.vdot(x, x).real)
    if norm0_sq == 0.0:
        raise SolverError("initial iterate has zero norm")
    lambda_a = cfg.lambda_a_dag / n
    if cfg.step_size is not None:
        mu = cfg.step_size
    elif mode == "tls":
        mu = (0.4 if cfg.projection == "real_binary" else 0.5) / lambda_a
    else:
        mu = 0.005  # used with projection only; LS otherwise searches its step
    return vectors, yv, x, inner_rows(vectors, x), norm0_sq, lambda_a, mu / norm0_sq


def _feasible(x, cfg: SolverConfig) -> np.ndarray:
    """``x`` itself, or in real-binary projection mode :func:`project_real_binary` of it."""
    return project_real_binary(x) if cfg.projection == "real_binary" else x


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


def _descend(rows, x, cfg: SolverConfig, step: float) -> SolveResult:
    """The loop of both solvers, from x over the per-row model ``rows``
    (:class:`_LSRows` or :class:`_TLSRows`) that holds inner_rows(A, x) in
    ``rows.nu``.

    Each iteration takes the model's gradient g at x.  With no explicit step
    and no projection the model then searches the Polak-Ribiere+ direction d
    (:func:`_pr_direction`) for x - t d, given inner_rows(A, d); otherwise x
    takes the fixed step x - ``step`` g, projected in real-binary mode, and
    the model reads its loss from inner_rows(A, x).  :func:`_record` traces
    the loss and stops the loop.  With no iteration nothing is corrected.
    """
    searched = cfg.step_size is None and cfg.projection == "none"
    trace, converged = [], False
    g_prev = d = None
    nu_d = np.empty_like(rows.nu) if searched else None
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while not converged and len(trace) < cfg.max_iters:
            g = rows.gradient(x, len(trace) + 1)
            if searched:
                d = _pr_direction(g, g_prev, d)
                g_prev = g
                x -= rows.line_step(x, d, inner_rows(rows.vectors, d, out=nu_d)) * d
            else:
                x_new = _feasible(x - step * g, cfg)
                inner_rows(rows.vectors, x_new, out=rows.nu)
                rows.moved(x, x_new)
                x = x_new
            converged = _record(trace, rows.loss, cfg.threshold)
    return SolveResult(x_hat=x, corrections=rows.corrections(x, moved=bool(trace)),
                       objective_trace=np.asarray(trace), iterations=len(trace), converged=converged)


def solve_ls(y, ensemble, cfg: SolverConfig, x0=None) -> SolveResult:
    """Wirtinger-flow least squares solve: :func:`_descend` over the
    residuals of :class:`_LSRows`, whose searched step is the exact
    minimizer of the loss along d (:func:`_exact_step`)."""
    vectors, yv, x, nu, _, _, step = _start(y, ensemble, cfg, x0, "ls")
    # The rows' gradient A^T (r nu) leaves out the 1/M of g.
    return _descend(_LSRows(vectors, yv, nu), x, cfg, step / yv.shape[0])


def solve_tls(y, ensemble, cfg: SolverConfig, x0=None) -> SolveResult:
    """Alternating closed-form correction sweeps and steps on x:
    :func:`_descend` over the reduced objective of :class:`_TLSRows`.

    Each iteration (a) corrects every sensing vector in closed form at the
    current x, then (b) steps on x along the gradient with the corrected
    vectors held fixed (:meth:`_TLSRows.gradient`).  The searched step ends
    at a strong Wolfe point of J(x - t d) (:meth:`_TLSRows.line_step`),
    whose sweep is the next iteration's (a); the trace holds J at each new
    iterate and the returned ``corrections`` are those at ``x_hat``.  After a
    fixed step both hold the last sweep's corrections, at the new iterate.
    """
    vectors, yv, x, nu, norm0_sq, lambda_a, step = _start(y, ensemble, cfg, x0, "tls")
    model_tag = ensemble.model_tag if isinstance(ensemble, SensingEnsemble) else "external"
    rows = _TLSRows(vectors, yv, nu, lambda_a, cfg.lambda_y_dag / norm0_sq**2, norm0_sq, step, model_tag)
    return _descend(rows, x, cfg, step)


class _LSRows:
    """The per-row model of :func:`solve_ls` for :func:`_descend`: the
    residual r = |nu|^2 - y of nu = inner_rows(A, x), kept in place with
    the gradient weights w = r nu in buffers made once per solve."""

    def __init__(self, vectors, yv, nu):
        self.vectors, self.yv, self.nu = vectors, yv, nu
        self.r, self.tmp, self.w = np.empty(yv.shape[0]), np.empty(yv.shape[0]), np.empty_like(nu)
        self.moved()

    def moved(self, *_) -> None:
        """r and the loss at the iterate of ``nu``."""
        nu, r = self.nu, self.r
        np.multiply(nu.real, nu.real, out=r)
        np.multiply(nu.imag, nu.imag, out=self.tmp)
        np.add(r, self.tmp, out=r)
        np.subtract(r, self.yv, out=r)
        self.loss = float(r @ r) / (2.0 * r.shape[0])

    def gradient(self, x, iteration: int) -> np.ndarray:
        """A^T (r nu), the gradient g of the module docstring times M."""
        # w = r nu part by part: a float-complex product would cast r into
        # an M-sized buffer.
        np.multiply(self.nu.real, self.r, out=self.w.real)
        np.multiply(self.nu.imag, self.r, out=self.w.imag)
        return self.vectors.T @ self.w

    def line_step(self, x, d, nu_d) -> float:
        """The exact minimizer t along d (:func:`_exact_step`), with nu
        moved to nu - t ``nu_d``; scales ``nu_d`` by t."""
        # w is spent once g is formed; its float64 view holds b and c.
        t = _exact_step(self.r, self.nu, nu_d, self.w.view(np.float64), self.tmp)
        nu_d *= t
        self.nu -= nu_d
        self.moved()
        return t

    def corrections(self, x, moved: bool) -> None:
        return None


# Strong Wolfe constants of the TLS line search, sufficient decrease and
# curvature (Nocedal & Wright, "Numerical Optimization", 2006, ch. 3), and
# the most J evaluations one search takes.
_DECREASE, _CURVATURE, _SEARCH_EVALS = 1e-4, 0.1, 30


class _TLSRows:
    """The per-row model of :func:`solve_tls` for :func:`_descend`: the
    reduced objective J(x) = (1/2M) sum_m min_v f_m at the current iterate x
    and along x - t d, in length-M buffers that every iteration of one solve
    reuses.

    Along the line inner(a_m, x - t d) = nu - t nu_d and
    n(t) = ||x - t d||^2 = ||x||^2 - 2t Re<x, d> + t^2 ||d||^2, so a point
    costs one :meth:`LineRoots.solve` and O(M) work, with no ensemble
    product.  With s = t0 + c and r = t0^2 - y there,
    J(t) = (1/2M) sum lambda_a s^2 / n + lambda_y r^2.  f_m does not move
    with t0 at its minimizer (the envelope theorem), so

        J'(t) = lambda_a / (M n) (sum s c' - (t ||d||^2 - Re<x, d>) sum s^2 / n),

    where c' = Re(conj(phase) nu_d) is the derivative of c = |nu - t nu_d|.
    On a row with c = 0, c is |t' - t| |nu_d| near t and c' = |nu_d| is its
    derivative from the right, the side the search moves to.

    Holds inner_rows(A, x) in ``nu``, ||x||^2 in ``norm_sq``, the sweep at x
    in ``line``, s there in ``s``, its correction term
    lambda_a sum s^2 / ||x||^2 in ``corr`` and J(x) in ``loss``.  A searched
    step leaves the sweep at the new iterate; a fixed step leaves it
    ``behind``, at the iterate it stepped from, and the next gradient sweeps
    afresh.  The sweep's scratch row ``line.rows[0]`` and ``nu_t`` are free
    between sweeps: a trial step writes ``nu_t`` before it reads it.
    """

    def __init__(self, vectors, yv, nu, lambda_a: float, lambda_y: float, norm_sq: float,
                 first_step: float, model_tag: str = "external"):
        m = yv.shape[0]
        self.vectors, self.yv, self.model_tag = vectors, yv, model_tag
        self.lambda_a, self.lambda_y = lambda_a, lambda_y
        self.line = LineRoots(m)
        self.s = np.empty(m)
        self.nu, self.nu_t = nu, np.empty_like(nu)
        with np.errstate(divide="ignore", invalid="ignore"):  # see LineRoots.solve
            self.loss = self._sweep(nu, norm_sq)
        # The last search's step, and the step tried first without one.
        self.step, self.first_step = 0.0, first_step
        self.behind = None

    def _sweep(self, nu, norm_sq: float) -> float:
        """Correct every row at inner products ``nu`` and squared norm
        ``norm_sq``, and return J there."""
        line = self.line
        line.solve(nu, self.yv, self.lambda_a, self.lambda_y, norm_sq)
        s = np.add(line.t0, line.c, out=self.s)
        r = np.multiply(line.t0, line.t0, out=line.rows[0])
        r -= self.yv
        self.norm_sq, self.ss = norm_sq, float(s @ s)
        self.corr = self.lambda_a * self.ss / norm_sq
        return (self.corr + self.lambda_y * float(r @ r)) / (2.0 * r.shape[0])

    def gradient(self, x, iteration: int) -> np.ndarray:
        """The gradient g(x) of the module docstring with the rows of the
        sweep at x held fixed, after a sweep at x if the last one is behind
        it.  A corrected row is v_m = a_m + conj(phase) s x / ||x||^2 with
        inner(v_m, x) = phase t0, so g = A^T (k phase) + (sum k s / ||x||^2) x
        with the real k = (t0^2 - y) t0 / M."""
        if self.behind is not None:
            norm_sq = float(np.vdot(x, x).real)
            if norm_sq == 0.0:
                raise SolverError(f"iterate collapsed to zero norm at iteration {iteration}")
            self._sweep(self.nu, norm_sq)
            self.behind = None
        t0, k = self.line.t0, self.line.rows[0]
        np.multiply(t0, t0, out=k)
        k -= self.yv
        k *= t0
        grad = self.vectors.T @ np.multiply(self.line.phase, k, out=self.nu_t)
        grad += (float(k @ self.s) / self.norm_sq) * x
        grad /= self.yv.shape[0]
        return grad

    def _slope(self, nu_d, half_dn: float) -> float:
        """J' at the last sweep, where d||x - t d||^2/dt = 2 ``half_dn``."""
        line, s = self.line, self.s
        sc = line.rows[0]
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
        nu += self.nu
        return self._sweep(nu, norm_t), self._slope(nu_d, t * dd - re_xd)

    def line_step(self, x, d, nu_d) -> float:
        """Move to and return the t > 0 of x - t d with
        J(t) <= J(0) + 1e-4 t J'(0) and |J'(t)| <= 0.1 |J'(0)|, given
        ``nu_d`` = inner_rows(A, d); ``step`` keeps it.

        The first trial is the last search's step, or ``first_step``
        without one.  Trials grow, by cubic extrapolation, until J' >= 0 or
        J rises; then cubic interpolation narrows that bracket
        (:func:`_next_trial`).  When no trial meets both conditions within
        ``_SEARCH_EVALS``, the best one that meets the first is taken; with
        none, t = 0 and x stays where it is.
        """
        f0, norm_sq = self.loss, self.norm_sq
        re_xd, dd = float(np.vdot(x, d).real), float(np.vdot(d, d).real)
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
                self._sweep(self.nu, norm_sq)
        self.step, self.loss = lo[0], lo[1]
        if lo[0] > 0.0:
            self.nu, self.nu_t = self.nu_t, self.nu
        return self.step

    def moved(self, x, x_new) -> None:
        """The loss at x_new, with inner_rows(A, x_new) in ``nu``, of the
        rows the sweep at x corrected: v_m = a_m + conj(u_m) x / ||x||^2 with
        u = phase s, so inner(v_m, x_new) = inner(a_m, x_new) + u_m <x, x_new> / ||x||^2."""
        m = self.yv.shape[0]
        v_x = np.multiply(self.line.phase, self.s, out=self.nu_t)
        v_x *= np.vdot(x, x_new) / self.norm_sq
        v_x += self.nu
        r = np.abs(v_x, out=self.line.rows[0])
        r *= r
        r -= self.yv
        self.loss = self.corr / (2.0 * m) + self.lambda_y * float(r @ r) / (2.0 * m)
        self.behind = x

    def corrections(self, x, moved: bool) -> CorrectedRows:
        """The rows of the last sweep, a_m + conj(u_m) x / ||x||^2 at its x, as factors."""
        u = np.multiply(self.line.phase, self.s, out=self.nu_t) if moved else np.zeros_like(self.nu_t)
        x_c = x if self.behind is None else self.behind
        return CorrectedRows(self.vectors, u, x_c, self.norm_sq, self.model_tag)


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

