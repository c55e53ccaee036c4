import tracemalloc

import numpy as np
import pytest

from tlspr.core import (
    DimensionMismatchError,
    MeasurementSet,
    SensingEnsemble,
    complex_gaussian_vector,
    inner,
    make_rng,
    trial_rng,
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
