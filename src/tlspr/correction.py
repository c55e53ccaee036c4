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
:func:`correct_sensing_vector` is its one-measurement view.  Both the sweep
and the TLS solver read one record per row from :class:`LineRoots`: c, t_0,
the shift s = t_0 + c along the line, the phase and which rows have c = 0.
It fills them in real arithmetic with a fixed number of in-place passes over
length-M buffers that a solver reuses from one iteration to the next.
"""

from __future__ import annotations

import cmath
import numbers
from dataclasses import dataclass

import numpy as np

from .core import SensingEnsemble, _check_positive, _checked, _Owned, as_cvector, ensemble_array, inner, inner_rows
from .core import measurement_array
# Not called here; bench/harness.py traces the cubic under this name.
from .cubic import depressed_roots_batch  # noqa: F401
from .cubic import root_workspace, smallest_real_root_into


@dataclass(frozen=True)
class CorrectionParams:
    """Weights of the perturbation and data-misfit terms."""

    lambda_a: float
    lambda_y: float

    def __post_init__(self):
        _check_positive(lambda_a=self.lambda_a, lambda_y=self.lambda_y)


@dataclass(frozen=True)
class CorrectionResult:
    corrected: np.ndarray
    nu: complex
    objective_value: float


def _norm_sq(x: np.ndarray) -> float:
    """||x||^2 of a signal the correction divides by; zero raises."""
    norm_sq = float(np.vdot(x, x).real)
    if norm_sq == 0.0:
        raise ValueError("x must be nonzero")
    return norm_sq


_BLOCK_ROWS = 32  # rows per block of the corrected-row builder


def _moved_rows(vectors: np.ndarray, x: np.ndarray, delta: np.ndarray, norm_sq: float, out=None) -> np.ndarray:
    """The rows v_m = vectors_m + conj(delta_m) x / norm_sq, so inner(v_m, x) =
    inner(vectors_m, x) + delta_m at norm_sq = ||x||^2, written into ``out``
    (a new array when None) ``_BLOCK_ROWS`` rows at a time; ``delta`` is only
    read.  numpy buffers a broadcast product of short rows, and the blocks
    keep that buffer to a few blocks' size, not half the result's."""
    shift = np.conjugate(delta)
    shift /= norm_sq
    rows = np.empty(vectors.shape, dtype=np.complex128) if out is None else out
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = rows[start : start + _BLOCK_ROWS]
        np.multiply(shift[start : start + _BLOCK_ROWS, None], x[None, :], out=block)  # np.outer without its wrapper
        block += vectors[start : start + _BLOCK_ROWS]
    return rows


class CorrectedRows:
    """The corrected ensemble of a TLS solve as factors: the rows
    v_m = a_m + conj(u_m) x / ||x||^2 of :func:`_moved_rows`, held as the
    observed rows a_m (``vectors``, not copied), the per-row shifts ``u``,
    the point ``x`` of the sweep that made them (copied) and ``norm_sq`` =
    ||x||^2.  It never holds all M x N corrected entries at once:
    :meth:`inner_rows` reads the observed rows in one product, and
    :meth:`row_blocks` and :meth:`ensemble` build rows with
    :func:`_moved_rows`, bit for bit as one broadcast product would.
    ``shape``, ``m``, ``n``, ``model_tag`` and ``noise_tag`` are those of
    the ensemble it stands for."""

    noise_tag = "corrected"

    def __init__(self, vectors: np.ndarray, u: np.ndarray, x: np.ndarray, norm_sq: float, model_tag: str):
        self.vectors, self.u, self.x, self.norm_sq = vectors, u, x.copy(), norm_sq
        self.model_tag = model_tag
        self.shape = self.m, self.n = vectors.shape

    def inner_rows(self, z: np.ndarray) -> np.ndarray:
        """inner(v_m, z) for every corrected row: inner(a_m, z) + u_m <x, z> / ||x||^2."""
        nu = inner_rows(self.vectors, z)
        nu += self.u * (np.vdot(self.x, z) / self.norm_sq)
        return nu

    def row_blocks(self):
        """The corrected rows in blocks of ``_BLOCK_ROWS`` (the last one
        shorter), each built from ``u`` in place into one buffer that every
        block reuses: a block is valid until the next one is requested, so a
        caller that keeps one copies it first."""
        buffer = np.empty((min(self.m, _BLOCK_ROWS), self.n), dtype=np.complex128)
        for start in range(0, self.m, _BLOCK_ROWS):
            rows = self.vectors[start : start + _BLOCK_ROWS]
            yield _moved_rows(rows, self.x, self.u[start : start + _BLOCK_ROWS], self.norm_sq, out=buffer[: len(rows)])

    def ensemble(self) -> SensingEnsemble:
        """All corrected rows as one new ensemble."""
        rows = _moved_rows(self.vectors, self.x, self.u, self.norm_sq)
        return SensingEnsemble(_Owned(rows), model_tag=self.model_tag, noise_tag=self.noise_tag)


def reconstruct_from_nu(a_m: np.ndarray, x: np.ndarray, nu: complex) -> np.ndarray:
    """Vector v with inner(v, x) = nu that differs from a_m only along x."""
    a_m = as_cvector(a_m, "a_m")
    x = as_cvector(x, "x", a_m.shape[0])
    if not (isinstance(nu, numbers.Number) and cmath.isfinite(nu)):
        raise ValueError(f"nu must be a finite complex scalar, got {nu!r}")
    return _reconstructed(a_m, x, complex(nu), _norm_sq(x))


def _reconstructed(a_m: np.ndarray, x: np.ndarray, nu: complex, norm_sq: float) -> np.ndarray:
    """:func:`reconstruct_from_nu` of checked input."""
    return _moved_rows(a_m[None, :], x, np.array([nu - inner(a_m, x)]), norm_sq)[0]


def correct_sensing_vector(a_m, y_m: float, x, params: CorrectionParams) -> CorrectionResult:
    """Globally minimize f_m over corrected vectors: a one-row
    :func:`sweep_corrections` mapped to a full vector by :func:`reconstruct_from_nu`,
    each input checked once."""
    a_m, y = as_cvector(a_m, "a_m"), measurement_array([y_m], name="y_m")
    x = as_cvector(x, "x", a_m.shape[0])
    norm_sq = _norm_sq(x)
    nu_star, f_star = _swept(inner_rows(a_m[None, :], x), y, params.lambda_a, params.lambda_y, norm_sq)
    nu = complex(nu_star[0])
    return CorrectionResult(corrected=_reconstructed(a_m, x, nu, norm_sq), nu=nu, objective_value=float(f_star[0]))


class LineRoots:
    """The per-row record of one sweep, in length-M buffers reused from one
    sweep to the next.  With c = |inner(a_m, x)|, :meth:`solve` leaves
    ``t0`` the smallest real root of the plus cubic, ``s`` the shift
    t0 + c, ``phase`` = -inner(a_m, x) / c (1 where c = 0) and ``zero`` the
    mask of the rows with c = 0 (None when there are none), so that
    nu_star = phase * t0 and nu_star - inner(a_m, x) = phase * s.  ``rows``
    and ``masks`` are the cubic's own scratch."""

    def __init__(self, m: int):
        self.t0, self.s = np.empty(m), np.empty(m)
        self.phase = np.empty(m, dtype=np.complex128)
        self.rows, self.masks = root_workspace(m)

    # The root and the rows with nu_a = 0 make invalid operations.
    @np.errstate(divide="ignore", invalid="ignore")
    def solve(self, nu_a, y, lambda_a: float, lambda_y: float, norm_sq: float) -> None:
        """Fill the buffers for the rows with inner(a_m, x) = ``nu_a`` at
        ||x||^2 = ``norm_sq``."""
        alpha = 2.0 * lambda_y * norm_sq
        c = np.abs(nu_a, out=self.s)  # s holds c until t0 is added to it
        beta, const = self.rows[0], self.rows[1]
        np.multiply(y, -alpha, out=beta)
        beta += lambda_a
        np.multiply(c, lambda_a, out=const)
        smallest_real_root_into(self.t0, alpha, self.rows, self.masks)
        # -nu_a * (1/c): bit for bit numpy's complex quotient -nu_a / (c + 0j).
        np.multiply(nu_a, np.divide(-1.0, c, out=self.rows[0]), out=self.phase)
        self.zero = c == 0.0 if np.count_nonzero(c) < c.size else None
        if self.zero is not None:
            np.copyto(self.phase, 1.0, where=self.zero)
        c += self.t0


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
    vectors, y, x = _checked(x, vectors, y, "vectors")
    _check_positive(lambda_a=lambda_a, lambda_y=lambda_y)
    norm_sq = _norm_sq(x)
    nu_a = inner_rows(vectors, x) if nu_a is None else as_cvector(nu_a, "nu_a", y.shape[0])
    return _swept(nu_a, y, lambda_a, lambda_y, norm_sq)


def _swept(nu_a: np.ndarray, y: np.ndarray, lambda_a: float, lambda_y: float, norm_sq: float):
    """:func:`sweep_corrections` of checked input, given nu_a = inner(a_m, x)
    and ||x||^2 = ``norm_sq``."""
    line = LineRoots(y.shape[0])
    line.solve(nu_a, y, lambda_a, lambda_y, norm_sq)
    t0 = line.t0
    # |phase * t0 - nu_a| = |t0 + |nu_a|| = |s|, since phase = -nu_a / |nu_a|.
    f_star = lambda_a * (line.s ** 2 / norm_sq) + lambda_y * (y - t0 * t0) ** 2
    return line.phase * t0, f_star


def apply_corrections(vectors: np.ndarray, x: np.ndarray, nu_star: np.ndarray) -> np.ndarray:
    """Materialize the corrected ensemble for the sweep output."""
    vectors = ensemble_array(vectors, "vectors")
    m, n = vectors.shape
    x = as_cvector(x, "x", n)
    nu_star = as_cvector(nu_star, "nu_star", m)
    return _moved_rows(vectors, x, nu_star - inner_rows(vectors, x), _norm_sq(x))
