import warnings

import numpy as np
import pytest

from tlspr.core import MeasurementSet, complex_gaussian_vector, make_rng
from tlspr.models import gaussian_ensemble, synthesize_measurements
from tlspr.noise import (
    NoiseSpec,
    error_variance,
    handcrafted_row_scales,
    inject,
    snr_db,
    snr_scale,
)

from oracles import peak_bytes


def _clean_instance(seed, n=20, m=120, real_mode=False):
    rng = make_rng(seed)
    if real_mode:
        x = rng.normal(size=n).astype(np.complex128)
    else:
        x = complex_gaussian_vector(rng, n)
    ens = gaussian_ensemble(rng, n, m, real_mode=real_mode)
    y = synthesize_measurements(ens, x)
    return rng, x, ens, y


def test_spec_requires_an_snr():
    with pytest.raises(ValueError):
        NoiseSpec()
    with pytest.raises(ValueError):
        NoiseSpec(measurement_snr_db=10.0, model="bogus")


def test_gaussian_exact_snr():
    rng, x, ens, y = _clean_instance(1)
    spec = NoiseSpec(measurement_snr_db=40.0, sensing_snr_db=17.5)
    y2, a2 = inject(rng, y, ens, spec)
    assert abs(snr_db(y.values, y2.values - y.values) - 40.0) <= 1e-9
    assert abs(snr_db(ens.vectors, a2.vectors - ens.vectors) - 17.5) <= 1e-9
    assert a2.noise_tag == "noisy"


def test_gaussian_none_leaves_block_unchanged():
    rng, x, ens, y = _clean_instance(2)
    spec = NoiseSpec(measurement_snr_db=None, sensing_snr_db=25.0)
    y2, a2 = inject(rng, y, ens, spec)
    assert np.array_equal(y2.values, y.values)
    assert not np.array_equal(a2.vectors, ens.vectors)
    spec2 = NoiseSpec(measurement_snr_db=25.0, sensing_snr_db=None)
    y3, a3 = inject(make_rng(3), y, ens, spec2)
    assert np.array_equal(a3.vectors, ens.vectors)


def test_measurement_errors_real_sensing_errors_complex():
    rng, x, ens, y = _clean_instance(4)
    spec = NoiseSpec(measurement_snr_db=20.0, sensing_snr_db=20.0)
    y2, a2 = inject(rng, y, ens, spec)
    e_a = a2.vectors - ens.vectors
    assert np.all(np.isreal(y2.values))
    assert np.any(e_a.imag != 0.0)


def test_real_mode_sensing_errors_real():
    rng, x, ens, y = _clean_instance(5, real_mode=True)
    spec = NoiseSpec(measurement_snr_db=20.0, sensing_snr_db=20.0, real_mode=True)
    y2, a2 = inject(rng, y, ens, spec)
    assert np.all((a2.vectors - ens.vectors).imag == 0.0)


def test_different_seeds_same_snr_different_draws():
    _, x, ens, y = _clean_instance(6)
    spec = NoiseSpec(measurement_snr_db=30.0, sensing_snr_db=15.0)
    y_a, a_a = inject(make_rng(100), y, ens, spec)
    y_b, a_b = inject(make_rng(200), y, ens, spec)
    assert not np.array_equal(y_a.values, y_b.values)
    assert not np.array_equal(a_a.vectors, a_b.vectors)
    for pair in ((y_a, y_b),):
        for yy in pair:
            assert abs(snr_db(y.values, yy.values - y.values) - 30.0) <= 1e-9


def test_zero_norm_clean_rejected():
    from tlspr.core import MeasurementSet, SensingEnsemble

    y = MeasurementSet(np.zeros(4))
    ens = SensingEnsemble(np.ones((4, 2), dtype=complex))
    with pytest.raises(ValueError):
        inject(make_rng(0), y, ens, NoiseSpec(measurement_snr_db=10.0))


def test_handcrafted_row_scale_values():
    assert handcrafted_row_scales(np.array([1.0]), 1.0)[0] == 5.0
    assert handcrafted_row_scales(np.array([0.0]), 7.0)[0] == 1.0


def test_handcrafted_exact_snr_and_norm_parity():
    rng, x, ens, y = _clean_instance(7)
    spec_h = NoiseSpec(measurement_snr_db=22.0, sensing_snr_db=13.0, model="handcrafted")
    spec_g = NoiseSpec(measurement_snr_db=22.0, sensing_snr_db=13.0, model="gaussian")
    y_h, a_h = inject(make_rng(50), y, ens, spec_h, x_sharp=x)
    y_g, a_g = inject(make_rng(51), y, ens, spec_g)
    assert abs(snr_db(y.values, y_h.values - y.values) - 22.0) <= 1e-9
    assert abs(snr_db(ens.vectors, a_h.vectors - ens.vectors) - 13.0) <= 1e-9
    # same SNR target, equal Frobenius error norms between the two models
    eh = np.linalg.norm(a_h.vectors - ens.vectors)
    eg = np.linalg.norm(a_g.vectors - ens.vectors)
    assert abs(eh - eg) <= 1e-9 * eh


def test_handcrafted_loads_error_on_large_rows():
    rng, x, ens, y = _clean_instance(8, n=10, m=1000)
    spec = NoiseSpec(measurement_snr_db=20.0, sensing_snr_db=20.0, model="handcrafted")
    _, a_h = inject(rng, y, ens, spec, x_sharp=x)
    row_err = np.linalg.norm(a_h.vectors - ens.vectors, axis=1)
    corr = np.corrcoef(y.values, row_err)[0, 1]
    assert corr > 0.0


def test_inject_dispatch():
    rng, x, ens, y = _clean_instance(9)
    spec = NoiseSpec(measurement_snr_db=30.0, model="handcrafted")
    with pytest.raises(ValueError):
        inject(rng, y, ens, spec)  # missing ground truth
    y2, _ = inject(rng, y, ens, spec, x_sharp=x)
    assert abs(snr_db(y.values, y2.values - y.values) - 30.0) <= 1e-9


def _old_draw(rng, shape, real_mode):
    """The complex draw as formed before it went through one float buffer."""
    if real_mode:
        return rng.normal(size=shape).astype(np.complex128)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _bitwise_equal(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("real_mode", [False, True])
def test_seeded_data_is_bitwise_unchanged(real_mode):
    n, m = 12, 96
    ens = gaussian_ensemble(make_rng(91), n, m, real_mode=real_mode)
    assert _bitwise_equal(ens.vectors, _old_draw(make_rng(91), (m, n), real_mode))
    x = complex_gaussian_vector(make_rng(92), n)
    y = synthesize_measurements(ens, x)
    for model in ("gaussian", "handcrafted"):
        spec = NoiseSpec(measurement_snr_db=20.0, sensing_snr_db=10.0, model=model, real_mode=real_mode)
        y_noisy, a_noisy = inject(make_rng(93), y, ens, spec, x_sharp=x)
        rng = make_rng(93)
        e_y, e_a = rng.normal(size=m), _old_draw(rng, (m, n), real_mode)
        if model == "handcrafted":
            scales = handcrafted_row_scales(y.values, float(np.vdot(x, x).real))
            e_y, e_a = e_y * scales, e_a * scales[:, None]
        for clean, error, db, got in ((y.values, e_y, 20.0, y_noisy.values), (ens.vectors, e_a, 10.0, a_noisy.vectors)):
            factor = np.linalg.norm(clean) * 10.0 ** (-db / 20.0) / np.linalg.norm(error)
            assert _bitwise_equal(got, clean + error * factor)


def test_data_generation_makes_no_complex_temporary():
    # The result is one ensemble and the float draw buffer half of one; a
    # complex temporary beside them took the peak to 2.07 ensembles.
    n, m = 128, 1024
    ens_bytes = 16 * m * n
    ens = gaussian_ensemble(make_rng(94), n, m)
    x = complex_gaussian_vector(make_rng(95), n)
    y = synthesize_measurements(ens, x)
    for real_mode in (False, True):
        assert peak_bytes(gaussian_ensemble, make_rng(94), n, m, real_mode=real_mode) < 1.52 * ens_bytes
        for model in ("gaussian", "handcrafted"):
            spec = NoiseSpec(20.0, 10.0, model=model, real_mode=real_mode)
            assert peak_bytes(inject, make_rng(96), y, ens, spec, x_sharp=x) < 1.52 * ens_bytes


def test_error_variance_sums_the_energy_of_complex_entries():
    rng = make_rng(17)
    clean = rng.normal(size=(512, 64)) + 1j * rng.normal(size=(512, 64))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        var = error_variance(clean, 10.0)
    assert var == pytest.approx(np.sum(np.abs(clean) ** 2) * 0.1 / clean.size, rel=1e-12)
    assert var == pytest.approx(0.2, rel=0.01)
    real = clean.real.copy()
    assert error_variance(real, 10.0) == float(np.sum(real * real)) * snr_scale(20.0) / real.size


@pytest.mark.parametrize("sensing_snr_db", [None, 10.0])
def test_inject_rejects_a_measurement_count_other_than_m_before_drawing(sensing_snr_db):
    rng, x, ens, y = _clean_instance(10, n=4, m=20)
    short = MeasurementSet(y.values[:16])
    spec = NoiseSpec(measurement_snr_db=20.0, sensing_snr_db=sensing_snr_db)
    rng = make_rng(11)
    with pytest.raises(ValueError, match="16 measurements, clean_a has 20 rows"):
        inject(rng, short, ens, spec)
    # No draw was taken: the stream is where a fresh generator starts.
    assert rng.bit_generator.state == make_rng(11).bit_generator.state
