import tracemalloc
import warnings

import numpy as np
import pytest

import tlspr
from tlspr.analysis import (
    ErrorAnalysisInputs,
    expected_squared_errors,
    expected_tls_errors,
    finite_difference_jacobians,
    first_order_errors,
    ml_parameters,
    predicted_perturbation,
    solve_matrices,
)
from tlspr import core
from tlspr.core import (
    DimensionMismatchError,
    MeasurementSet,
    SensingEnsemble,
    _is_real,
    complex_gaussian_vector,
    ensemble_array,
    inner,
    inner_rows,
    make_rng,
    measurement_array,
    trial_rng,
)
from tlspr.correction import (
    CorrectionParams,
    apply_corrections,
    correct_sensing_vector,
    reconstruct_from_nu,
    sweep_corrections,
)
from tlspr.metrics import dist, rel_corr, rel_dist
from tlspr.models import cdp_measure, gaussian_ensemble, synthesize_measurements
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

from oracles import complex_gaussian_vector_reference, inner_loop


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


@pytest.mark.parametrize("n", [1, 5, 64, 8193])
def test_gaussian_vector_matches_frozen_scaled_normal_draws(n):
    # Bit for bit, and the generator is left where the frozen draw leaves it.
    for seed in range(20):
        for scale in (1.0, 0.3, 7.0, 1e-3):
            rng, ref_rng = make_rng(seed), make_rng(seed)
            got = complex_gaussian_vector(rng, n, scale)
            assert got.tobytes() == complex_gaussian_vector_reference(ref_rng, n, scale).tobytes()
            assert rng.standard_normal() == ref_rng.standard_normal()


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


def _spied_products(monkeypatch) -> list:
    """The (address, rows) of the first operand of each ``np.matmul`` call from now on."""
    calls, matmul = [], np.matmul

    def spy(a, b, **kwargs):
        calls.append((a.ctypes.data, a.shape[0]))
        return matmul(a, b, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    return calls


def _block_rows(n: int, itemsize: int = 16) -> int:
    return max(8, core._ROW_BLOCK_BYTES // (8 * itemsize * n) * 8)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("kind", ["complex", "real-valued", "float64"])
@pytest.mark.parametrize("n", [1, 3, 7, 128, 257])
def test_inner_rows_in_blocks_is_one_product_bit_for_bit(monkeypatch, n, kind, order):
    rng = make_rng(n)
    dtype = np.float64 if kind == "float64" else np.complex128
    row_bytes = np.dtype(dtype).itemsize * n
    rows = _block_rows(n, np.dtype(dtype).itemsize)
    blocks = -(-2 * core._ROW_BLOCK_BYTES // (rows * row_bytes))  # the fewest of at least twice the block bytes
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    # One row and five rows left over after the full blocks.
    for m in (blocks * rows + 1, blocks * rows + 5):
        vectors = rng.normal(size=(m, n)) + (1j * rng.normal(size=(m, n)) if kind == "complex" else 0.0)
        vectors = np.asarray(vectors, dtype=dtype, order=order)
        expect = np.conj(vectors @ np.conj(x)).view(np.uint64)
        calls = _spied_products(monkeypatch)
        assert np.array_equal(inner_rows(vectors, x).view(np.uint64), expect)
        out = np.empty(m, dtype=np.complex128)
        assert inner_rows(vectors, x, out=out) is out
        assert np.array_equal(out.view(np.uint64), expect)
        monkeypatch.undo()
        if not vectors.flags.c_contiguous:  # an (M, 1) array is row-major in either order
            assert calls == [(vectors.ctypes.data, m)] * 2
            continue
        # Row-major rows: the last block first, and it takes the leftover rows.
        starts = [vectors.ctypes.data + k * rows * vectors.strides[0] for k in reversed(range(blocks))]
        sizes = [m - (blocks - 1) * rows] + [rows] * (blocks - 1)
        assert calls == list(zip(starts, sizes)) * 2


@pytest.mark.parametrize(
    "n, m",
    [(64, 512), (64, 1023), (128, 511), (1, 65535), (70000, 2)],
    ids=["sweep-paper", "under-two-blocks-64", "under-two-blocks-128", "under-two-blocks-1", "fewer-rows-than-8"],
)
def test_inner_rows_of_one_block_is_one_product(monkeypatch, n, m):
    # 512 x 64 is the sweep-paper bench's ensemble; a block holds at least 8 rows.
    rng = make_rng(m)
    vectors = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    calls = _spied_products(monkeypatch)
    got = inner_rows(vectors, x)
    monkeypatch.undo()
    assert calls == [(vectors.ctypes.data, m)]
    assert np.array_equal(got.view(np.uint64), np.conj(vectors @ np.conj(x)).view(np.uint64))


def test_ensemble_validation():
    rng = make_rng(6)
    arr = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    ens = SensingEnsemble(arr, model_tag="gaussian")
    assert ens.m == 4 and ens.n == 3
    with pytest.raises(ValueError):
        SensingEnsemble(np.empty((0, 3), dtype=complex))
    with pytest.raises(ValueError, match="unknown model_tag 'bogus'"):
        SensingEnsemble(arr, model_tag="bogus")
    with pytest.raises(ValueError, match="unknown noise_tag 'bogus'"):
        SensingEnsemble(arr, noise_tag="bogus")
    bad = arr.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        SensingEnsemble(bad)


def test_is_real_reads_past_a_real_first_entry():
    rng = make_rng(7)
    arr = rng.normal(size=(5, 3)) + 0j
    assert _is_real(arr) and _is_real(arr.real)
    late = arr.copy()
    late[4, 2] += 1e-300j
    assert not _is_real(late) and not _is_real(late.T)
    first = arr.copy()
    first[0, 0] += 1j
    assert not _is_real(first)


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
_NU_STAR = sweep_corrections(_ENS.vectors, _Y.values, _X, 0.25, 1.0)[0]

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
    "sweep_corrections": (
        lambda y, a, x: sweep_corrections(a, y, x, 0.25, 1.0),
        {"y": "y", "a": "vectors", "x": "x"},
    ),
    "apply_corrections": (lambda y, a, x: apply_corrections(a, x, _NU_STAR), {"a": "vectors", "x": "x"}),
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


def _rejects_naming(name, call, *args):
    """``call(*args)`` raises a ValueError whose message names ``name``; a NaN
    result with a RuntimeWarning is no rejection."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"\b{name}\b"):
            call(*args)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda nu: apply_corrections(_ENS.vectors, _X, nu), "nu_star"),
        (lambda nu: sweep_corrections(_ENS.vectors, _Y.values, _X, 0.25, 1.0, nu_a=nu), "nu_a"),
    ],
    ids=["apply_corrections", "sweep_corrections"],
)
@pytest.mark.parametrize("nu", [_with_entry(_NU_STAR, 5, np.nan), _NU_STAR[:16]], ids=["nan", "16 for 20 rows"])
def test_per_row_values_are_gated_like_measurements(call, name, nu):
    _rejects_naming(name, call, nu)


# ---------------------------------------------------------------------------
# one-row correction calls and the CDP reference map: a row a_m, a scalar and x

_ROW = _ENS.vectors[3]

# Entry point -> (call on a row, a scalar and a signal; the name each has in
# the call's signature).
_ONE_ROW = {
    "correct_sensing_vector": (
        lambda r, v, x: correct_sensing_vector(r, v, x, CorrectionParams(0.25, 1.0)),
        {"row": "a_m", "value": "y_m", "x": "x"},
    ),
    "reconstruct_from_nu": (lambda r, v, x: reconstruct_from_nu(r, x, v), {"row": "a_m", "value": "nu", "x": "x"}),
    "cdp_measure": (lambda r, v, x: cdp_measure([r], x), {"row": "vectors_or_patterns", "x": "x"}),
}

# Case -> (the argument it spoils, the spoiled row, scalar and signal).
_BAD_ROWS = {
    "nan row entry": ("row", _with_entry(_ROW, 1, np.nan), 1.0, _X),
    "2-D row": ("row", np.stack([_ROW, _ROW]), 1.0, _X),
    "nan scalar": ("value", _ROW, np.nan, _X),
    "two values for a scalar": ("value", _ROW, np.array([1.0, 2.0]), _X),
    "inf signal": ("x", _ROW, 1.0, _with_entry(_X, 2, np.inf)),
    "signal of 3 for rows of 4": ("x", _ROW, 1.0, _X[:3]),
}


@pytest.mark.parametrize(
    "entry, case",
    [(e, c) for e, (_, names) in _ONE_ROW.items() for c, (slot, *_) in _BAD_ROWS.items() if slot in names],
)
def test_one_row_calls_reject_bad_input_naming_the_argument(entry, case):
    call, names = _ONE_ROW[entry]
    slot, *args = _BAD_ROWS[case]
    _rejects_naming(names[slot], call, *args)


# ---------------------------------------------------------------------------
# the real-valued analysis entry points


def _real_instance():
    rng = make_rng(21)
    a = rng.normal(size=(12, 3))
    x = rng.normal(size=3)
    y = (a @ x) ** 2
    e_a, e_y = 1e-3 * rng.normal(size=a.shape), 1e-3 * rng.normal(size=y.shape)
    return a, y, x, e_a, e_y, rng.normal(size=(3, 36)), rng.normal(size=(3, 12))


_A, _YA, _XA, _EA, _EY, _JA, _JY = _real_instance()

# Entry point -> call on a_clean, y_clean and x_sharp.
_ANALYSIS = {
    "ErrorAnalysisInputs": lambda a, y, x: ErrorAnalysisInputs(a, y, x, _EA, _EY, 0.5),
    "first_order_errors": lambda a, y, x: first_order_errors(ErrorAnalysisInputs(a, y, x, _EA, _EY, 0.5)),
    "solve_matrices": lambda a, y, x: solve_matrices(a, y, x, 0.5),
    "expected_squared_errors": lambda a, y, x: expected_squared_errors(a, y, x, 0.5, 1e-4, 1e-3),
    "expected_tls_errors": lambda a, y, x: expected_tls_errors(a, y, x, [0.5, 2.0], 1e-4, 1e-3),
    "finite_difference_jacobians": lambda a, y, x: finite_difference_jacobians(a, y, x, 1.0, 1.0, max_iters=50),
}

# Case -> (the argument it spoils, the spoiled a_clean, y_clean and x_sharp).
_BAD_REAL = {
    "nan in a_clean": ("a_clean", _with_entry(_A, (4, 1), np.nan), _YA, _XA),
    "1-D a_clean": ("a_clean", _A.ravel(), _YA, _XA),
    "nonzero imaginary y_clean": ("y_clean", _A, _YA + 1e-3j, _XA),
    "10 y_clean for 12 rows": ("y_clean", _A, _YA[:10], _XA),
    "inf x_sharp": ("x_sharp", _A, _YA, _with_entry(_XA, 0, np.inf)),
}


@pytest.mark.parametrize("entry", list(_ANALYSIS))
@pytest.mark.parametrize("case", list(_BAD_REAL))
def test_analysis_entry_points_reject_bad_input_naming_the_argument(entry, case):
    name, *arrays = _BAD_REAL[case]
    _rejects_naming(name, _ANALYSIS[entry], *arrays)


# Entry point -> call on the error blocks e_a and e_y.
_ERROR_BLOCKS = {
    "ErrorAnalysisInputs": lambda ea, ey: ErrorAnalysisInputs(_A, _YA, _XA, ea, ey, 0.5),
    "predicted_perturbation": lambda ea, ey: predicted_perturbation(_JA, _JY, ea, ey),
}

_BAD_BLOCKS = {
    "e_a of shape (12, 2)": ("e_a", _EA[:, :2], _EY),
    "nonzero imaginary e_a": ("e_a", _EA + 1e-3j, _EY),
    "nan e_y": ("e_y", _EA, _with_entry(_EY, 7, np.nan)),
}


@pytest.mark.parametrize("entry", list(_ERROR_BLOCKS))
@pytest.mark.parametrize("case", list(_BAD_BLOCKS))
def test_error_blocks_are_checked_naming_the_argument(entry, case):
    name, e_a, e_y = _BAD_BLOCKS[case]
    _rejects_naming(name, _ERROR_BLOCKS[entry], e_a, e_y)


# ---------------------------------------------------------------------------
# scalar weights and variances: finite and > 0, or >= 0 where zero is meaningful

_STRICT = (np.nan, np.inf, -1.0, 0.0)
_ZERO_OK = (np.nan, np.inf, -1.0)

# (entry point, argument) -> (call on the scalar, the values it rejects).
_SCALARS = {
    ("sweep_corrections", "lambda_a"): (lambda v: sweep_corrections(_ENS.vectors, _Y.values, _X, v, 1.0), _STRICT),
    ("sweep_corrections", "lambda_y"): (lambda v: sweep_corrections(_ENS.vectors, _Y.values, _X, 1.0, v), _STRICT),
    ("tls_objective_gradient", "lambda_a"): (lambda v: tls_objective_gradient(_X, _ENS, _Y, v, 1.0), _STRICT),
    ("tls_objective_gradient", "lambda_y"): (lambda v: tls_objective_gradient(_X, _ENS, _Y, 1.0, v), _STRICT),
    ("objective_tls", "lambda_a"): (lambda v: objective_tls(_X, _ENS, _ENS, _Y, v, 1.0), _ZERO_OK),
    ("objective_tls", "lambda_y"): (lambda v: objective_tls(_X, _ENS, _ENS, _Y, 1.0, v), _ZERO_OK),
    ("expected_squared_errors", "sigma_delta_sq"): (
        lambda v: expected_squared_errors(_A, _YA, _XA, 0.5, v, 1e-3),
        _ZERO_OK,
    ),
    ("expected_squared_errors", "sigma_eta_sq"): (
        lambda v: expected_squared_errors(_A, _YA, _XA, 0.5, 1e-4, v),
        _ZERO_OK,
    ),
    ("expected_tls_errors", "lambda_ratio"): (
        lambda v: expected_tls_errors(_A, _YA, _XA, [0.5, v], 1e-4, 1e-3),
        _ZERO_OK,
    ),
    ("ErrorAnalysisInputs", "lambda_ratio"): (lambda v: ErrorAnalysisInputs(_A, _YA, _XA, _EA, _EY, v), (np.inf,)),
    ("ml_parameters", "sigma_delta_sq"): (lambda v: ml_parameters(v, 1e-3), _STRICT),
    ("ml_parameters", "sigma_eta_sq"): (lambda v: ml_parameters(1e-4, v), _STRICT),
    ("finite_difference_jacobians", "lambda_a"): (
        lambda v: finite_difference_jacobians(_A, _YA, _XA, v, 1.0, max_iters=50),
        _STRICT,
    ),
    ("finite_difference_jacobians", "lambda_y"): (
        lambda v: finite_difference_jacobians(_A, _YA, _XA, 1.0, v, max_iters=50),
        _STRICT,
    ),
    ("finite_difference_jacobians", "h"): (
        lambda v: finite_difference_jacobians(_A, _YA, _XA, 1.0, 1.0, h=v, max_iters=50),
        _STRICT,
    ),
}


@pytest.mark.parametrize(
    "entry, name, value",
    [(e, n, v) for (e, n), (_, bad) in _SCALARS.items() for v in bad],
)
def test_weights_and_variances_are_finite_and_positive(entry, name, value):
    _rejects_naming(name, _SCALARS[entry, name][0], value)


# ---------------------------------------------------------------------------
# every public callable is in a gate table above, or here with the reason it
# needs no row

_NOT_GATED = {
    "all_roots": "scalar cubic coefficients",
    "load": "a path; the file's payload is checked as the containers check it",
    "save": "a path and a container",
    "make_rng": "a seed",
    "trial_rng": "seeds and indices",
    "complex_gaussian_vector": "a generator, a length and a scale",
    "gaussian_ensemble": "a generator and integer dimensions",
    "cdp_ensemble": "a generator and a CdpConfig",
    "inject": "takes only containers, which ran the gate when they were built",
    "inner": "the inner-product primitive: numpy semantics, NaN in, NaN out",
    "project_real_binary": "an elementwise map the solvers apply to every iterate",
    "recon_snr_db": "rel_dist of its arguments, which is gated",
    "SensingEnsemble": "a container: test_containers_run_the_entry_points_checks",
    "MeasurementSet": "a container: test_containers_run_the_entry_points_checks",
    "SolverConfig": "a record whose fields run core._check_positive",
    "CorrectionParams": "a record whose fields run core._check_positive",
    "CdpConfig": "a record of integer dimensions",
    "NoiseSpec": "a record of SNR targets and a model name",
    "SolveResult": "an output record",
    "CorrectionResult": "an output record",
    "ErrorPrediction": "an output record",
}


def test_every_public_callable_is_gated_or_exempt():
    tables = {*_GATED, *_ONE_ROW, *_ANALYSIS, *_ERROR_BLOCKS, *(entry for entry, _ in _SCALARS)}
    public = [
        name
        for name in tlspr.__all__
        if callable(obj := getattr(tlspr, name)) and not (isinstance(obj, type) and issubclass(obj, Exception))
    ]
    assert set(_NOT_GATED) <= set(public)
    assert [name for name in public if (name in tables) == (name in _NOT_GATED)] == []
