import json
import struct

import numpy as np
import pytest

from tlspr.core import MeasurementSet, SensingEnsemble, make_rng
from tlspr.serialization import FileFormatError, load, save

from oracles import peak_bytes


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
