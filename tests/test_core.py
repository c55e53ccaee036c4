import tracemalloc
import warnings

import numpy as np
import pytest

from tlspr.core import (
    DimensionMismatchError,
    MeasurementSet,
    SensingEnsemble,
    complex_gaussian_vector,
    ensemble_array,
    inner,
    make_rng,
    measurement_array,
    trial_rng,
)
from tlspr.metrics import dist, rel_corr, rel_dist
from tlspr.models import gaussian_ensemble, synthesize_measurements
from tlspr.solvers import (
    SolverConfig,
    ls_gradient,
    objective_ls,
    objective_tls,
    solve_ls,
    solve_tls,
    spectral_init,
    tls_objective_gradient,
)

from oracles import inner_loop


def test_gaussian_vector_deterministic():
    a = complex_gaussian_vector(make_rng(123), 3)
    b = complex_gaussian_vector(make_rng(123), 3)
    assert np.array_equal(a, b)


def test_gaussian_vector_stream_reproducible():
    r1, r2 = make_rng(9), make_rng(9)
    seq1 = [complex_gaussian_vector(r1, 5) for _ in range(4)]
    seq2 = [complex_gaussian_vector(r2, 5) for _ in range(4)]
    for a, b in zip(seq1, seq2):
        assert np.array_equal(a, b)


def test_gaussian_vector_second_moment():
    z = complex_gaussian_vector(make_rng(1), 10_000)
    mean_sq = np.mean(np.abs(z) ** 2)
    assert 1.8 <= mean_sq <= 2.2


def test_gaussian_vector_scale():
    z = complex_gaussian_vector(make_rng(2), 20_000, scale=0.5)
    assert 0.45 <= np.mean(np.abs(z) ** 2) <= 0.55


def test_gaussian_vector_rejects_bad_args():
    with pytest.raises(ValueError):
        complex_gaussian_vector(make_rng(0), 1, scale=0.0)
    with pytest.raises(ValueError):
        complex_gaussian_vector(make_rng(0), 0)


def test_trial_rng_offsets():
    assert np.array_equal(
        complex_gaussian_vector(trial_rng(100, 3), 4),
        complex_gaussian_vector(make_rng(103), 4),
    )
    with pytest.raises(ValueError):
        trial_rng(5, -1)


def test_inner_basis_vectors():
    e1 = np.array([1.0, 0.0], dtype=complex)
    assert inner(e1, e1) == 1.0
    assert inner(1j * e1, e1) == -1j


def test_inner_matches_loop_oracle():
    rng = make_rng(4)
    for _ in range(20):
        n = int(rng.integers(1, 30))
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        b = rng.normal(size=n) + 1j * rng.normal(size=n)
        expect = inner_loop(a, b)
        got = inner(a, b)
        assert abs(got - expect) <= 1e-12 * max(1.0, abs(expect))


def test_inner_self_is_real_nonnegative():
    rng = make_rng(5)
    for _ in range(50):
        a = rng.normal(size=8) + 1j * rng.normal(size=8)
        v = inner(a, a)
        assert abs(v.imag) <= 1e-12 * abs(v)
        assert v.real >= 0.0


def test_inner_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        inner(np.ones(3, dtype=complex), np.ones(4, dtype=complex))


def test_ensemble_validation():
    rng = make_rng(6)
    arr = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    ens = SensingEnsemble(arr, model_tag="gaussian")
    assert ens.m == 4 and ens.n == 3
    with pytest.raises(ValueError):
        SensingEnsemble(np.empty((0, 3), dtype=complex))
    with pytest.raises(ValueError):
        SensingEnsemble(arr, model_tag="bogus")
    bad = arr.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        SensingEnsemble(bad)


def test_ensemble_immutable():
    ens = SensingEnsemble(np.ones((2, 2), dtype=complex))
    with pytest.raises(ValueError):
        ens.vectors[0, 0] = 5.0


def test_measurements_validation():
    ms = MeasurementSet([1.0, 2.0, -0.5])
    assert ms.m == 3
    with pytest.raises(ValueError):
        MeasurementSet([])
    with pytest.raises(ValueError):
        MeasurementSet([1.0, np.inf])


def test_ensemble_keeps_a_snapshot_of_the_callers_array():
    arr = np.ones((3, 2), dtype=complex)
    values = np.ones(3)
    ens = SensingEnsemble(arr)
    ms = MeasurementSet(values)
    arr[0, 0] = 7.0
    values[0] = 7.0
    assert np.all(ens.vectors == 1.0)
    assert np.all(ms.values == 1.0)


def test_public_construction_peaks_at_its_one_copy():
    # The snapshot copy is one ensemble; the finiteness check adds no
    # temporary of the ensemble's size.
    rng = make_rng(7)
    m, n = 1024, 128
    arr = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ens = SensingEnsemble(arr)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert not np.shares_memory(ens.vectors, arr)
    assert peak < 1.01 * 16 * m * n


# ---------------------------------------------------------------------------
# one input gate: every public entry point checks raw arrays as the containers do


def _gate_instance():
    rng = make_rng(8)
    x = complex_gaussian_vector(rng, 4)
    ens = gaussian_ensemble(rng, 4, 20)
    return x, ens, synthesize_measurements(ens, x)


_X, _ENS, _Y = _gate_instance()

# Entry point -> (call on measurements y, ensemble a and signal x; the name
# each of y, a and x has in the call's signature).
_GATED = {
    "spectral_init": (lambda y, a, x: spectral_init(y, a), {"y": "y", "a": "ensemble"}),
    "solve_tls": (
        lambda y, a, x: solve_tls(y, a, SolverConfig(mode="tls"), x0=x),
        {"y": "y", "a": "ensemble", "x": "x0"},
    ),
    "solve_ls": (
        lambda y, a, x: solve_ls(y, a, SolverConfig(mode="ls"), x0=x),
        {"y": "y", "a": "ensemble", "x": "x0"},
    ),
    "ls_gradient": (lambda y, a, x: ls_gradient(x, a, y), {"y": "y", "a": "ensemble", "x": "x"}),
    "objective_ls": (lambda y, a, x: objective_ls(x, a, y), {"y": "y", "a": "ensemble", "x": "x"}),
    "objective_tls": (
        lambda y, a, x: objective_tls(x, a, _ENS, y, 0.25, 1.0),
        {"y": "y", "a": "corrected", "x": "x"},
    ),
    "tls_objective_gradient": (
        lambda y, a, x: tls_objective_gradient(x, a, y, 0.25, 1.0),
        {"y": "y", "a": "ensemble", "x": "x"},
    ),
    "rel_corr": (lambda y, a, x: rel_corr(a, x, _ENS, _X), {"a": "a_sharp", "x": "x_sharp"}),
    "synthesize_measurements": (lambda y, a, x: synthesize_measurements(a, x), {"a": "ensemble", "x": "x"}),
    "dist": (lambda y, a, x: dist(x, _X), {"x": "x_sharp"}),
    "rel_dist": (lambda y, a, x: rel_dist(_X, x), {"x": "x_hat"}),
}


def _with_entry(arr, index, value):
    arr = arr.copy()
    arr[index] = value
    return arr


# Case -> (the argument it spoils, the spoiled y, a and x).
_BAD_INPUTS = {
    "nan measurement": ("y", _with_entry(_Y.values, 3, np.nan), _ENS.vectors, _X),
    "inf ensemble entry": ("a", _Y.values, _with_entry(_ENS.vectors, (2, 1), np.inf), _X),
    "1-D ensemble": ("a", _Y.values, _ENS.vectors.ravel(), _X),
    "16 measurements for 20 rows": ("y", _Y.values[:16], _ENS.vectors, _X),
    "nan signal": ("x", _Y.values, _ENS.vectors, _with_entry(_X, 0, np.nan)),
}


@pytest.mark.parametrize(
    "entry, case",
    [(e, c) for e, (_, names) in _GATED.items() for c, (slot, *_) in _BAD_INPUTS.items() if slot in names],
)
def test_every_entry_point_rejects_bad_raw_input_naming_the_argument(entry, case):
    call, names = _GATED[entry]
    slot, y, a, x = _BAD_INPUTS[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a NaN result with a RuntimeWarning is no rejection
        with pytest.raises(ValueError, match=rf"\b{names[slot]}\b"):
            call(y, a, x)


@pytest.mark.parametrize("entry", list(_GATED))
def test_every_entry_point_takes_raw_arrays_and_containers_alike(entry):
    call, _ = _GATED[entry]
    raw, boxed = call(_Y.values.copy(), _ENS.vectors.copy(), _X), call(_Y, _ENS, _X)
    if hasattr(raw, "x_hat"):
        raw, boxed = raw.x_hat, boxed.x_hat
    elif hasattr(raw, "values"):
        raw, boxed = raw.values, boxed.values
    assert np.asarray(raw).tobytes() == np.asarray(boxed).tobytes()


def test_containers_run_the_entry_points_checks():
    with pytest.raises(ValueError, match="ensemble contains non-finite entries"):
        SensingEnsemble(_BAD_INPUTS["inf ensemble entry"][2])
    with pytest.raises(ValueError, match="ensemble must be 2-D"):
        SensingEnsemble(_BAD_INPUTS["1-D ensemble"][2])
    with pytest.raises(ValueError, match="measurements contain non-finite entries"):
        MeasurementSet(_BAD_INPUTS["nan measurement"][1])
    # A container comes back as is: no copy.
    assert ensemble_array(_ENS) is _ENS.vectors
    assert measurement_array(_Y, 20) is _Y.values
