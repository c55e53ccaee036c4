"""Phase-invariant reconstruction distances and correction quality.

dist(u, v) = min over phases phi of ||u - exp(j*phi)*v||, which has the
closed form sqrt(||u||^2 + ||v||^2 - 2*|inner(u, v)|); the minimizing phase
is the phase of inner(v, u) (phase 0 when that inner product vanishes).
"""

from __future__ import annotations

import numpy as np

from .core import DimensionMismatchError, SensingEnsemble, as_cvector, ensemble_array, inner, inner_rows
from .correction import CorrectedRows


def dist(x_sharp: np.ndarray, x_hat: np.ndarray) -> float:
    """min_phi ||x_sharp - exp(j*phi) * x_hat||_2.

    Evaluated as the aligned difference ||x_sharp - exp(j*phi*)*x_hat|| at the
    optimal phase, which agrees with the closed form
    sqrt(||x_sharp||^2 + ||x_hat||^2 - 2|inner(x_sharp, x_hat)|) but stays
    accurate when the two vectors nearly coincide (the closed form cancels
    catastrophically near zero).
    """
    x_sharp = as_cvector(x_sharp, "x_sharp")
    x_hat = as_cvector(x_hat, "x_hat", x_sharp.shape[0])
    ip = np.vdot(x_hat, x_sharp)
    rot = ip / abs(ip) if ip != 0 else 1.0
    return float(np.linalg.norm(x_sharp - rot * x_hat))


def optimal_phase(x_sharp: np.ndarray, x_hat: np.ndarray) -> float:
    """Phase phi minimizing ||x_sharp - exp(j*phi)*x_hat||; 0 if degenerate."""
    ip = inner(x_hat, x_sharp)
    if ip == 0:
        return 0.0
    return float(np.angle(ip))


def rel_dist(x_sharp: np.ndarray, x_hat: np.ndarray) -> float:
    """dist normalized by the ground-truth norm."""
    denom = np.linalg.norm(x_sharp)
    if denom == 0.0:
        raise ValueError("ground truth must be nonzero")
    return dist(x_sharp, x_hat) / float(denom)


def recon_snr_db(x_sharp: np.ndarray, x_hat: np.ndarray) -> float:
    """-20*log10(rel_dist); +inf for an exact match."""
    r = rel_dist(x_sharp, x_hat)
    if r == 0.0:
        return float("inf")
    return -20.0 * float(np.log10(r))


def rel_corr(
    a_sharp: SensingEnsemble | np.ndarray,
    x_sharp: np.ndarray,
    a_dag: SensingEnsemble | CorrectedRows | np.ndarray,
    x_dag: np.ndarray,
) -> float:
    """Relative sensing-vector correction error along the recovered direction.

    With phi aligning x_dag to x_sharp and yv(a, x) the vector of inner
    products [inner(a_1, x), ..., inner(a_M, x)], returns
    ||yv(a_sharp, x_sharp) - yv(a_dag, exp(j*phi)*x_dag)|| / ||yv(a_sharp, x_sharp)||.
    ``a_dag`` may be a TLS solve's ``corrections``, whose inner products
    are read without building the corrected rows.
    """
    va = ensemble_array(a_sharp, "a_sharp")
    rows = a_dag if isinstance(a_dag, CorrectedRows) else ensemble_array(a_dag, "a_dag")
    if va.shape != rows.shape:
        raise DimensionMismatchError(f"a_sharp has shape {va.shape}, a_dag has shape {rows.shape}")
    x_sharp = as_cvector(x_sharp, "x_sharp", va.shape[1])
    x_dag = as_cvector(x_dag, "x_dag", va.shape[1])
    phi = optimal_phase(x_sharp, x_dag)
    ref = inner_rows(va, x_sharp)
    z = np.exp(1j * phi) * x_dag
    got = rows.inner_rows(z) if isinstance(rows, CorrectedRows) else inner_rows(rows, z)
    denom = np.linalg.norm(ref)
    if denom == 0.0:
        raise ValueError("reference inner products have zero norm")
    return float(np.linalg.norm(ref - got) / denom)
