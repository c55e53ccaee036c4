import json
import struct

import numpy as np
import pytest

from tlspr.core import MeasurementSet, SensingEnsemble, make_rng
from tlspr.serialization import FileFormatError, load, save

from oracles import load_reference, peak_bytes, save_reference


def _random_objects(rng, count):
    out = []
    for _ in range(count):
        kind = rng.integers(0, 3)
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 7))
        if kind == 0:
            out.append(rng.normal(size=n) + 1j * rng.normal(size=n))
        elif kind == 1:
            out.append(
                SensingEnsemble(
                    rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n)),
                    model_tag="gaussian",
                    noise_tag="noisy",
                )
            )
        else:
            out.append(MeasurementSet(rng.normal(size=m), ensemble_ref="abc"))
    return out


@pytest.mark.parametrize("suffix", [".tlspr", ".json"])
def test_roundtrip_100_random_objects(tmp_path, suffix):
    rng = make_rng(10)
    for i, obj in enumerate(_random_objects(rng, 100)):
        path = tmp_path / f"obj{i}{suffix}"
        save(obj, path)
        back = load(path)
        if isinstance(obj, SensingEnsemble):
            assert isinstance(back, SensingEnsemble)
            assert np.array_equal(back.vectors, obj.vectors)
            assert back.model_tag == obj.model_tag
            assert back.noise_tag == obj.noise_tag
        elif isinstance(obj, MeasurementSet):
            assert isinstance(back, MeasurementSet)
            assert np.array_equal(back.values, obj.values)
            assert back.ensemble_ref == obj.ensemble_ref
        else:
            assert np.array_equal(back, obj)


def test_mismatched_m_errors(tmp_path):
    path = tmp_path / "bad.tlspr"
    ms = MeasurementSet(np.arange(4.0))
    save(ms, path)
    raw = bytearray(path.read_bytes())
    (hlen,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12 : 12 + hlen].decode())
    header["m"] = 7
    blob = json.dumps(header).encode()
    path.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + hlen :])
    with pytest.raises(FileFormatError):
        load(path)


def test_empty_vector_errors(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"format_version": 1, "kind": "signal", "n": 0, "data": []}))
    with pytest.raises(FileFormatError):
        load(path)


@pytest.mark.parametrize(
    "header",
    [
        [1, "signal"],
        {"format_version": 1, "kind": "signal", "data": [[1, 0]]},
        {"format_version": 1, "kind": "ensemble", "m": "two", "n": 1, "data": [[[1, 0]]]},
    ],
)
def test_malformed_header_errors(tmp_path, header):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(header))
    with pytest.raises(FileFormatError, match="header (is not|lacks)"):
        load(path)


def test_bad_magic_errors(tmp_path):
    path = tmp_path / "junk.tlspr"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 20)
    with pytest.raises(FileFormatError):
        load(path)


def test_unknown_version_errors(tmp_path):
    path = tmp_path / "v9.json"
    path.write_text(json.dumps({"format_version": 9, "kind": "signal", "n": 1, "data": [[1, 0]]}))
    with pytest.raises(FileFormatError):
        load(path)


def test_truncated_payload_errors(tmp_path):
    path = tmp_path / "short.tlspr"
    save(np.array([1 + 2j, 3 + 4j]), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(FileFormatError):
        load(path)


def test_ensemble_load_builds_its_complex_array_once(tmp_path):
    # The file bytes and the loaded ensemble, one ensemble each; forming
    # re + 1j*im from strided halves took the peak to 3.06 ensembles.
    m, n = 1024, 128
    rng = make_rng(12)
    ens = SensingEnsemble(rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n)))
    path = tmp_path / "ens.tlspr"
    save(ens, path)
    back = load(path)
    raw = np.frombuffer(path.read_bytes()[-16 * m * n :], dtype="<f8")
    assert np.array_equal(back.vectors, (raw[0::2] + 1j * raw[1::2]).reshape(m, n))
    assert peak_bytes(load, path) < 2.05 * 16 * m * n


def _reference_inputs(rng):
    """Random objects plus a strided signal view, a read-only signal,
    ensembles of shape 1x1 and 1xN (an ensemble's array is always read-only)
    and a one-value measurement set."""
    wide = rng.normal(size=10) + 1j * rng.normal(size=10)
    frozen = rng.normal(size=4) + 1j * rng.normal(size=4)
    frozen.setflags(write=False)
    row = rng.normal(size=(1, 7)) + 1j * rng.normal(size=(1, 7))
    return _random_objects(rng, 40) + [
        wide[1::3],
        frozen,
        SensingEnsemble(np.array([[0.5 - 2j]]), model_tag="cdp", noise_tag="corrected"),
        SensingEnsemble(row),
        MeasurementSet(np.array([3.25]), ensemble_ref="one"),
    ]


@pytest.mark.parametrize("suffix", [".tlspr", ".json"])
def test_save_writes_the_reference_bytes(tmp_path, suffix):
    for i, obj in enumerate(_reference_inputs(make_rng(13))):
        ours, ref = tmp_path / f"ours{i}{suffix}", tmp_path / f"ref{i}{suffix}"
        save(obj, ours)
        save_reference(obj, ref)
        assert ours.read_bytes() == ref.read_bytes(), i


def test_load_returns_the_reference_arrays(tmp_path):
    for i, obj in enumerate(_reference_inputs(make_rng(14))):
        path = tmp_path / f"obj{i}.tlspr"
        save_reference(obj, path)
        header, expected = load_reference(path)
        back = load(path)
        if header["kind"] == "ensemble":
            assert (back.model_tag, back.noise_tag) == (header["model_tag"], header["noise_tag"])
            back = back.vectors
        elif header["kind"] == "measurements":
            assert back.ensemble_ref == header["ensemble_ref"]
            back = back.values
        assert back.dtype == expected.dtype and back.dtype.isnative
        assert back.shape == expected.shape
        assert np.array_equal(back, expected)


@pytest.mark.parametrize(
    "obj, cut",
    [
        (SensingEnsemble(np.arange(12.0).reshape(3, 4) * (1 - 1j)), 3),
        (MeasurementSet(np.arange(1.0, 6.0)), 5),
    ],
)
def test_payload_of_partial_doubles_errors_with_the_path(tmp_path, obj, cut):
    path = tmp_path / "cut.tlspr"
    save(obj, path)
    path.write_bytes(path.read_bytes()[:-cut])
    with pytest.raises(FileFormatError, match=str(path)):
        load(path)


@pytest.mark.parametrize("suffix", [".tlspr", ".json"])
def test_other_dtype_errors(tmp_path, suffix):
    path = tmp_path / f"f32{suffix}"
    # Eight float32 values fill the bytes of the four doubles the header's m
    # promises, so only the dtype tells that they are not doubles.
    values = np.arange(1.0, 9.0)
    header = {"format_version": 1, "kind": "measurements", "m": 4, "dtype": "float32-le"}
    if suffix == ".json":
        path.write_text(json.dumps({**header, "data": values[:4].tolist()}))
    else:
        blob = json.dumps(header).encode()
        path.write_bytes(b"TLSPRBIN" + struct.pack("<I", len(blob)) + blob + values.astype("<f4").tobytes())
    with pytest.raises(FileFormatError, match="unsupported dtype 'float32-le'"):
        load(path)


def test_load_allocates_only_the_returned_ensemble(tmp_path):
    m, n = 1024, 128
    rng = make_rng(15)
    path = tmp_path / "ens.tlspr"
    save(SensingEnsemble(rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))), path)
    assert peak_bytes(load, path) < 1.05 * 16 * m * n


def test_save_writes_the_ensemble_without_a_copy(tmp_path):
    m, n = 1024, 128
    rng = make_rng(16)
    ens = SensingEnsemble(rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n)))
    assert peak_bytes(save, ens, tmp_path / "ens.tlspr") < 0.05 * 16 * m * n


def _write_by_hand(path, header, payload):
    """A container whose payload ``save`` would refuse to write."""
    header = {"format_version": 1, **header, "dtype": "float64-le"}
    payload = np.asarray(payload, dtype=np.float64)
    if path.suffix == ".json":
        dims = [header[key] for key in ("m", "n") if key in header]
        data = payload if header["kind"] == "measurements" else payload.reshape(*dims, 2)
        path.write_text(json.dumps({**header, "data": data.tolist()}))
    else:
        blob = json.dumps(header).encode()
        path.write_bytes(b"TLSPRBIN" + struct.pack("<I", len(blob)) + blob + payload.astype("<f8").tobytes())


@pytest.mark.parametrize("suffix", [".tlspr", ".json"])
@pytest.mark.parametrize(
    "header, message",
    [
        ({"kind": "signal", "n": 2}, "signal contains non-finite entries"),
        ({"kind": "ensemble", "m": 1, "n": 2}, "ensemble contains non-finite entries"),
        ({"kind": "measurements", "m": 4}, "measurements contain non-finite entries"),
    ],
)
def test_nonfinite_payload_errors_with_the_path(tmp_path, suffix, header, message):
    for bad in (np.nan, np.inf):
        path = tmp_path / f"bad{suffix}"
        _write_by_hand(path, header, [bad, 0.0, 1.0, 0.0])
        with pytest.raises(FileFormatError) as info:
            load(path)
        assert str(info.value) == f"{path}: {message}"
