"""Measurement-model synthesis: Gaussian and coded diffraction ensembles.

The forward model is y_m = |inner(a_m, x)|^2 with the package's
conjugate-first inner product.  The DFT convention is the unnormalized
forward transform with entries exp(-2j*pi*k*n/N) (numpy's default), so for
the all-ones modulation pattern the measurements of one pattern block are the
power spectrum of x and sum to N*||x||^2 (Parseval for this normalization).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MeasurementSet, SensingEnsemble, _complex_normal, _Owned, as_cvector, ensemble_array, inner_rows


@dataclass(frozen=True)
class CdpConfig:
    """Dimensions of a coded diffraction ensemble: M = l * n measurements."""

    n: int
    l: int

    def __post_init__(self):
        if self.n < 1 or self.l < 1:
            raise ValueError("n and l must be >= 1")


def gaussian_ensemble(
    rng: np.random.Generator, n: int, m: int, real_mode: bool = False
) -> SensingEnsemble:
    """iid Gaussian sensing vectors.

    Complex mode draws each entry as N(0,1) + 1j*N(0,1); real mode draws
    N(0,1) with zero imaginary part.
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    a = _complex_normal(rng, (m, n), real_mode)
    return SensingEnsemble(_Owned(a), model_tag="gaussian", noise_tag="clean")


def octanary_pattern(rng: np.random.Generator, n: int) -> np.ndarray:
    """One modulation pattern with iid entries p = q1 * q2.

    q1 is uniform on {1, -1, 1j, -1j}; q2 equals sqrt(2)/2 with probability
    0.8 and sqrt(3) with probability 0.2, so E|p|^2 = 1.
    """
    q1 = np.array([1.0, -1.0, 1.0j, -1.0j], dtype=np.complex128)[rng.integers(0, 4, size=n)]
    q2 = np.where(rng.random(size=n) < 0.8, np.sqrt(2.0) / 2.0, np.sqrt(3.0))
    return q1 * q2


def cdp_ensemble(rng: np.random.Generator, cfg: CdpConfig) -> SensingEnsemble:
    """Coded diffraction ensemble of M = l*n rows.

    Row (pattern l, frequency k) is conj(p_l) * conj(dft_row_k), so
    inner(a_m, x) equals entry k of the unnormalized DFT of p_l * x.
    """
    n = cfg.n
    # dft[k, j] = exp(-2j pi k j / n); rows are the analysis vectors.
    k = np.arange(n)
    dft = np.exp(-2j * np.pi * np.outer(k, k) / n)
    dft_conj = np.conjugate(dft, out=dft)
    rows = np.empty((cfg.l * n, n), dtype=np.complex128)
    for start in range(0, cfg.l * n, n):
        p = octanary_pattern(rng, n)
        np.multiply(dft_conj, np.conj(p)[None, :], out=rows[start : start + n])
    return SensingEnsemble(_Owned(rows), model_tag="cdp", noise_tag="clean")


def cdp_measure(vectors_or_patterns, x: np.ndarray) -> np.ndarray:
    """Reference forward map for CDP: |fft(p_l * x)|^2 stacked over patterns."""
    patterns = ensemble_array(vectors_or_patterns, "vectors_or_patterns")
    x = as_cvector(x, "x", patterns.shape[1])
    return np.concatenate([np.abs(np.fft.fft(p * x)) ** 2 for p in patterns])


def synthesize_measurements(ensemble: SensingEnsemble | np.ndarray, x: np.ndarray) -> MeasurementSet:
    """Clean quadratic measurements y_m = |inner(a_m, x)|^2."""
    vectors = ensemble_array(ensemble)
    x = as_cvector(x, "x", vectors.shape[1])
    values = np.abs(inner_rows(vectors, x)) ** 2
    return MeasurementSet(_Owned(values))
