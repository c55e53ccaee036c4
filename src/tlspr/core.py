"""Complex vector primitives, seeded randomness and the shared data containers.

Conventions used throughout the package:

* Complex data is stored as ``numpy.complex128`` (two little-endian float64
  per entry, real part first).
* The inner product conjugates its FIRST argument,
  ``inner(a, b) = sum(conj(a_i) * b_i)``.  Every formula in the package is
  written against this convention.
* Randomness comes from numpy's PCG64 generator.  A sweep seeds trial t of
  combination c as ``seed + 100003 * c + t`` (:func:`trial_rng`), so
  individual trials can be reproduced in isolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ModelTag = str  # one of MODEL_TAGS
NoiseTag = str  # one of NOISE_TAGS

MODEL_TAGS = ("gaussian", "cdp", "external")
NOISE_TAGS = ("clean", "noisy", "corrected")


class DimensionMismatchError(ValueError):
    """Operands have incompatible shapes."""


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic generator for ``seed``; same seed gives the same stream."""
    return np.random.Generator(np.random.PCG64(int(seed)))


def _trial_seed(base_seed: int, trial_index: int, combination: int = 0) -> int:
    """The seed ``base_seed + 100003 * combination + trial_index`` of :func:`trial_rng`."""
    if trial_index < 0 or combination < 0:
        raise ValueError("trial_index and combination must be nonnegative")
    return int(base_seed) + 100003 * int(combination) + int(trial_index)


def trial_rng(base_seed: int, trial_index: int, combination: int = 0) -> np.random.Generator:
    """The generator of trial ``trial_index`` of combination ``combination`` in a sweep seeded ``base_seed``."""
    return make_rng(_trial_seed(base_seed, trial_index, combination))


def _is_integer(value) -> bool:
    """Whether ``value`` is an integer other than a bool, such as an int or an ``np.int64``."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_positive(allow_zero: bool = False, **scalars) -> None:
    """Raise a ValueError naming the first of ``scalars`` not finite and > 0 (>= 0 with ``allow_zero``)."""
    for name, value in scalars.items():
        if not ((value >= 0 if allow_zero else value > 0) and value < math.inf):
            raise ValueError(f"{name} must be finite and {'>=' if allow_zero else '>'} 0, got {value!r}")


def as_cvector(x, name: str = "vector", n: int | None = None) -> np.ndarray:
    """Validate and return `x` as a 1-D complex128 array.

    Rejects empty vectors, non-finite entries (NaN/Inf in either the real
    or the imaginary part) and, given ``n``, a length other than ``n``.
    """
    arr = _finite_array(x, np.complex128, 1, name)
    if n is not None and arr.shape[0] != n:
        raise DimensionMismatchError(f"{name} has length {arr.shape[0]}, expected {n}")
    return arr


def complex_gaussian_vector(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    """Vector of ``n`` entries with independent real/imag parts N(0, scale^2).

    Note E|z|^2 = 2 * scale^2 under this parameterization.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_positive(scale=scale)
    return scale * _complex_normal(rng, n)


_DRAW_BLOCK = 8192  # float64 draws per block: 64 KiB


def _complex_normal(rng: np.random.Generator, shape, real_mode: bool = False) -> np.ndarray:
    """Complex128 array of the draws ``normal(size=shape) + 1j *
    normal(size=shape)``, bit for bit (real mode: the first draw only, with
    zero imaginary parts), drawn straight into the result.

    The real draws, then the imaginary ones, go through one buffer of
    ``_DRAW_BLOCK`` floats, block by block, to the even and then the odd
    float64 slots of the result.  Drawn in blocks, the generator consumes the
    same stream as in one draw, and no array of the result's size is made
    beside it."""
    size = int(np.prod(shape))
    # Made before the result: made after it, the buffer changed glibc's heap
    # layout so that each sweep-paper bench trial faulted ~250 pages back in.
    block = np.empty(min(size, _DRAW_BLOCK))
    out = np.empty(shape, dtype=np.complex128)
    slots = out.reshape(-1).view(np.float64)
    for part in (0,) if real_mode else (0, 1):
        for lo in range(0, size, _DRAW_BLOCK):
            draws = rng.standard_normal(out=block[: size - lo])
            slots[2 * lo + part : 2 * (lo + len(draws)) : 2] = draws
    if real_mode:
        slots[1::2] = 0.0
    return out


def inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Inner product conjugating the first argument: sum(conj(a_i) * b_i)."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shape mismatch: {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


_ROW_BLOCK_BYTES = 512 * 1024  # bytes of rows per product of inner_rows, in a multiple of 8 rows, at least 8


def inner_rows(vectors: np.ndarray, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """inner(a_m, x) for every row a_m of ``vectors``, as conj(vectors @ conj(x)),
    which reads the stored rows without making a conjugate copy of them.
    ``out``, if given, is a complex128 array of length M that receives it.

    Row-major rows of at least twice ``_ROW_BLOCK_BYTES`` are read in one
    product per block of about that size, the last block first; the last
    block also takes the rows left over, so that no block is a single row,
    which BLAS would take as a dot product rounded otherwise.  The A^T w
    that alternates with this product in every solver iteration reads A
    from its first row to its last, so each product starts on the rows the
    other just read, still in cache.  Every entry is the same BLAS dot
    product as in one call over all rows, so the result is the same bit for
    bit.  Fewer rows, or rows stored otherwise, are read in one product: a
    threaded BLAS may split a column-major product over its columns, which a
    block would round otherwise."""
    xc = np.conj(x)
    if vectors.nbytes < 2 * _ROW_BLOCK_BYTES or not vectors.flags.c_contiguous:
        nu = np.matmul(vectors, xc, out=out)
    else:
        m = vectors.shape[0]
        rows = max(8, _ROW_BLOCK_BYTES // (8 * vectors.itemsize * vectors.shape[1]) * 8)
        nu = np.empty(m, np.result_type(vectors, xc)) if out is None else out
        hi = m
        for lo in range(max(m // rows - 1, 0) * rows, -1, -rows):
            np.matmul(vectors[lo:hi], xc, out=nu[lo:hi])
            hi = lo
    return np.conjugate(nu, out=nu)


class _Owned:
    """An array the library has just built, or one another container already
    holds, and no caller can write to.  A container given one keeps the array
    itself instead of the snapshot copy it takes of any other input."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array


def _kept(data, dtype) -> np.ndarray:
    """The array a container keeps for ``data``: the array of an
    :class:`_Owned` itself, anything else copied."""
    if isinstance(data, _Owned):
        return np.asarray(data.array, dtype=dtype)
    return np.array(data, dtype=dtype, copy=True)


def _all_finite(arr: np.ndarray) -> bool:
    """Whether every entry of a non-empty ``arr`` is finite.  A NaN or an
    infinity shows as a non-finite min or max of its float64 view, so no
    temporary of the array's size is made when it is contiguous."""
    flat = arr.ravel(order="K").view(np.float64)
    return bool(np.isfinite(flat.min()) and np.isfinite(flat.max()))


def _is_real(arr: np.ndarray) -> bool:
    """Whether every imaginary part of ``arr`` is zero, read in place; a complex first entry answers at once."""
    return not (arr.flat[0].imag or arr.imag.any())


def _finite_array(data, dtype, ndim: int, name: str, verb: str = "contains") -> np.ndarray:
    """``data`` as a non-empty ``ndim``-D ``dtype`` array of finite entries, else a ValueError."""
    arr = np.asarray(data, dtype=dtype)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-D, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must not be empty, got shape {arr.shape}")
    if not _all_finite(arr):
        raise ValueError(f"{name} {verb} non-finite entries")
    return arr


@dataclass(frozen=True)
class SensingEnsemble:
    """M sensing vectors of common dimension N, stored as rows of ``vectors``.

    ``model_tag`` records the generating model, ``noise_tag`` the provenance
    (clean / noisy / corrected).
    """

    vectors: np.ndarray
    model_tag: ModelTag = "external"
    noise_tag: NoiseTag = "clean"

    def __post_init__(self):
        arr = ensemble_array(_kept(self.vectors, np.complex128))
        if self.model_tag not in MODEL_TAGS:
            raise ValueError(f"unknown model_tag {self.model_tag!r}")
        if self.noise_tag not in NOISE_TAGS:
            raise ValueError(f"unknown noise_tag {self.noise_tag!r}")
        object.__setattr__(self, "vectors", arr)
        self.vectors.setflags(write=False)

    @property
    def m(self) -> int:
        return self.vectors.shape[0]

    @property
    def n(self) -> int:
        return self.vectors.shape[1]

    def is_real(self) -> bool:
        return _is_real(self.vectors)


@dataclass(frozen=True)
class MeasurementSet:
    """M real measurement values paired with the ensemble that produced them."""

    values: np.ndarray
    ensemble_ref: str = ""

    def __post_init__(self):
        arr = measurement_array(_kept(self.values, np.float64), name="measurements")
        object.__setattr__(self, "values", arr)
        self.values.setflags(write=False)

    @property
    def m(self) -> int:
        return self.values.shape[0]


def ensemble_array(ensemble, name: str = "ensemble") -> np.ndarray:
    """The (M, N) complex128 rows of ``ensemble``: a :class:`SensingEnsemble`'s own
    array, or any other input converted and checked as that class checks it."""
    if isinstance(ensemble, SensingEnsemble):
        return ensemble.vectors
    return _finite_array(ensemble, np.complex128, 2, name)


def measurement_array(y, m: int | None = None, name: str = "measurements y") -> np.ndarray:
    """The float64 values of ``y``: a :class:`MeasurementSet`'s own array, or any
    other input converted and checked as that class checks it; ``m`` of them."""
    arr = y.values if isinstance(y, MeasurementSet) else _finite_array(y, np.float64, 1, name, "contain")
    if m is not None and arr.shape[0] != m:
        raise DimensionMismatchError(f"{name} have shape {arr.shape}, ensemble has M = {m}")
    return arr


def _checked(x, ensemble, y, name: str = "ensemble"):
    """The rows of ``ensemble``, the values of ``y`` and the signal ``x``,
    each checked against the others' dimensions."""
    vectors = ensemble_array(ensemble, name)
    m, n = vectors.shape
    return vectors, measurement_array(y, m), as_cvector(x, "x", n)
