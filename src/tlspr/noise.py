"""Error injection for measurements and sensing vectors at exact SNR.

SNR is the Frobenius-norm ratio in dB: a target of S means the injected error
block E satisfies -20*log10(||E||_F / ||clean||_F) = S exactly -- errors are
drawn at unit scale and then rescaled, which removes the nuisance variance a
draw-to-target-in-expectation scheme would add.

Two models are provided:

* ``gaussian``: iid real Gaussian errors on measurements, iid complex (or
  real in real mode) Gaussian errors on sensing vector entries.
* ``handcrafted``: the same draws but with row m pre-amplified by
  1 + 4*||x#||^2*y_m before the SNR rescaling, which loads the error onto
  rows with large clean measurements.  This model needs the ground-truth
  signal norm and the error-free measurements, so it is simulation-only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MeasurementSet, SensingEnsemble, _complex_normal, _Owned

NOISE_MODELS = ("gaussian", "handcrafted")


@dataclass(frozen=True)
class NoiseSpec:
    """Target SNRs in dB; ``None`` leaves the corresponding block untouched."""

    measurement_snr_db: float | None = None
    sensing_snr_db: float | None = None
    model: str = "gaussian"
    real_mode: bool = False

    def __post_init__(self):
        if self.measurement_snr_db is None and self.sensing_snr_db is None:
            raise ValueError("at least one SNR target must be present")
        if self.model not in NOISE_MODELS:
            raise ValueError(f"unknown noise model {self.model!r}")


def snr_db(clean: np.ndarray, error: np.ndarray) -> float:
    """Achieved SNR: -20*log10(||error||_F / ||clean||_F)."""
    return -20.0 * np.log10(np.linalg.norm(error) / np.linalg.norm(clean))


def snr_scale(target_db: float) -> float:
    """Error-to-clean Frobenius-norm ratio 10^(-dB/20) at the SNR ``target_db``;
    ``snr_scale(2 * target_db)`` is the energy ratio 10^(-dB/10) bit for bit."""
    return 10.0 ** (-target_db / 20.0)


def _rescale(error: np.ndarray, clean: np.ndarray, target_db: float) -> np.ndarray:
    """``error`` scaled in place to the SNR ``target_db`` against ``clean``."""
    clean_norm = np.linalg.norm(clean)
    if clean_norm == 0.0:
        raise ValueError("cannot hit a finite SNR target on zero-norm clean data")
    err_norm = np.linalg.norm(error)
    if err_norm == 0.0:
        raise ValueError("drawn error has zero norm")
    error *= clean_norm * snr_scale(target_db) / err_norm
    return error


def error_variance(clean: np.ndarray, target_db: float | None) -> float:
    """Per-entry variance ||clean||_F^2 10^(-dB/10) / clean.size of an iid
    error block at the SNR ``target_db`` against ``clean``; 0 for no target.
    The energy sums |c|^2, which for real input is c*c bit for bit."""
    if target_db is None:
        return 0.0
    return float(np.sum((clean * clean.conj()).real)) * snr_scale(2 * target_db) / clean.size


def real_errors_at_snr(rng: np.random.Generator, a: np.ndarray, y: np.ndarray, meas_db, sens_db):
    """iid real Gaussian errors ``(e_a, e_y)``, drawn in that order and rescaled
    to ``sens_db`` and ``meas_db``.  No target, or an all-zero clean block,
    gets a zero error (:func:`inject` raises on the latter)."""
    errors = rng.normal(size=a.shape), rng.normal(size=y.shape)
    for error, clean, target_db in zip(errors, (a, y), (sens_db, meas_db)):
        if target_db is None or not np.any(clean):
            error[...] = 0.0
        else:
            _rescale(error, clean, target_db)
    return errors


def handcrafted_row_scales(clean_y: np.ndarray, x_norm_sq: float) -> np.ndarray:
    """Per-row amplification 1 + 4*||x#||^2*y_m applied before rescaling."""
    return 1.0 + 4.0 * x_norm_sq * np.asarray(clean_y, dtype=np.float64)


def inject(
    rng: np.random.Generator,
    clean_y: MeasurementSet,
    clean_a: SensingEnsemble,
    spec: NoiseSpec,
    x_sharp: np.ndarray | None = None,
) -> tuple[MeasurementSet, SensingEnsemble]:
    """Errors of ``spec.model`` at the exact target SNRs, the measurement
    errors drawn first.  Handcrafted errors, amplified by
    :func:`handcrafted_row_scales`, need the ground truth ``x_sharp``."""
    if spec.model == "handcrafted" and x_sharp is None:
        raise ValueError("handcrafted errors need the ground-truth signal")
    if clean_y.m != clean_a.m:
        raise ValueError(f"clean_y holds {clean_y.m} measurements, clean_a has {clean_a.m} rows")
    e_y = rng.normal(size=clean_y.m)
    e_a = _complex_normal(rng, (clean_y.m, clean_a.n), spec.real_mode)
    if spec.model == "handcrafted":
        scales = handcrafted_row_scales(clean_y.values, float(np.vdot(x_sharp, x_sharp).real))
        e_y *= scales
        e_a *= scales[:, None]
    y_out = clean_y.values
    a_out = clean_a.vectors
    # The scaled draws become the noisy data in place.
    if spec.measurement_snr_db is not None:
        y_out = _rescale(e_y, clean_y.values, spec.measurement_snr_db)
        y_out += clean_y.values
    if spec.sensing_snr_db is not None:
        a_out = _rescale(e_a, clean_a.vectors, spec.sensing_snr_db)
        a_out += clean_a.vectors
    return (
        MeasurementSet(_Owned(y_out), ensemble_ref=clean_y.ensemble_ref),
        SensingEnsemble(_Owned(a_out), model_tag=clean_a.model_tag, noise_tag="noisy"),
    )
