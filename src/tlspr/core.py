"""Complex vector primitives, seeded randomness and the shared data containers.

Conventions used throughout the package:

* Complex data is stored as ``numpy.complex128`` (two little-endian float64
  per entry, real part first).
* The inner product conjugates its FIRST argument,
  ``inner(a, b) = sum(conj(a_i) * b_i)``.  Every formula in the package is
  written against this convention.
* Randomness comes from numpy's PCG64 generator.  Per-trial streams are
  derived as ``base_seed + trial_index`` so individual trials can be
  reproduced in isolation.
"""

from __future__ import annotations

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


def trial_rng(base_seed: int, trial_index: int) -> np.random.Generator:
    """Generator for one trial, derived as ``base_seed + trial_index``."""
    if trial_index < 0:
        raise ValueError("trial_index must be nonnegative")
    return make_rng(int(base_seed) + int(trial_index))


def as_cvector(x, name: str = "vector") -> np.ndarray:
    """Validate and return `x` as a 1-D complex128 array.

    Rejects empty vectors and non-finite entries (NaN/Inf in either the real
    or the imaginary part).
    """
    arr = np.asarray(x, dtype=np.complex128)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must have length > 0")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def complex_gaussian_vector(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    """Vector of ``n`` entries with independent real/imag parts N(0, scale^2).

    Note E|z|^2 = 2 * scale^2 under this parameterization.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (scale > 0):
        raise ValueError("scale must be > 0")
    z = rng.normal(0.0, scale, size=n) + 1j * rng.normal(0.0, scale, size=n)
    return z


def inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Inner product conjugating the first argument: sum(conj(a_i) * b_i)."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shape mismatch: {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


def inner_rows(vectors: np.ndarray, x: np.ndarray) -> np.ndarray:
    """inner(a_m, x) for every row a_m of ``vectors``, as conj(vectors @ conj(x)),
    which reads the stored rows without making a conjugate copy of them."""
    nu = vectors @ np.conj(x)
    return np.conjugate(nu, out=nu)


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
        arr = np.array(self.vectors, dtype=np.complex128, copy=True)
        if arr.ndim != 2:
            raise ValueError(f"ensemble must be 2-D (M, N), got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("ensemble requires M >= 1 and N >= 1")
        if not np.all(np.isfinite(arr)):
            raise ValueError("ensemble contains non-finite entries")
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
        return not self.vectors.imag.any()


@dataclass(frozen=True)
class MeasurementSet:
    """M real measurement values paired with the ensemble that produced them."""

    values: np.ndarray
    ensemble_ref: str = ""

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.float64, copy=True)
        if arr.ndim != 1:
            raise ValueError(f"measurements must be 1-D, got shape {arr.shape}")
        if arr.size < 1:
            raise ValueError("measurements require M >= 1")
        if not np.all(np.isfinite(arr)):
            raise ValueError("measurements contain non-finite entries")
        object.__setattr__(self, "values", arr)
        self.values.setflags(write=False)

    @property
    def m(self) -> int:
        return self.values.shape[0]
