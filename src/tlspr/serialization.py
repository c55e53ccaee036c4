"""File container for signals, sensing ensembles and measurement sets.

Binary layout (default, used for any path not ending in ``.json``):

    bytes 0..7    magic ``b"TLSPRBIN"``
    bytes 8..11   uint32 little-endian header length H
    bytes 12..12+H-1  UTF-8 JSON header
    remainder     float64 little-endian payload

Header keys: ``format_version`` (currently 1), ``kind`` (``signal`` /
``ensemble`` / ``measurements``), ``n``, ``m`` (absent for signals),
``model_tag`` and ``noise_tag`` (ensembles), ``ensemble_ref`` (measurements)
and ``dtype`` (always ``float64-le``).

Payloads: signals and ensembles store interleaved (re, im) pairs in row-major
order (2*N respectively 2*M*N doubles); measurement sets store M doubles.

A JSON variant is written when the path ends in ``.json``: the same header
keys plus a ``data`` field holding nested ``[re, im]`` pairs (signals: list of
pairs; ensembles: list of rows of pairs; measurements: plain list of floats).
Round-trips are bit-exact for finite values in both formats.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .core import MeasurementSet, SensingEnsemble, _Owned, as_cvector

_MAGIC = b"TLSPRBIN"
FORMAT_VERSION = 1


class FileFormatError(ValueError):
    """File is not a valid container or is inconsistent with its header."""


def _header(obj) -> dict:
    if isinstance(obj, SensingEnsemble):
        return {
            "format_version": FORMAT_VERSION,
            "kind": "ensemble",
            "n": obj.n,
            "m": obj.m,
            "model_tag": obj.model_tag,
            "noise_tag": obj.noise_tag,
            "dtype": "float64-le",
        }
    if isinstance(obj, MeasurementSet):
        return {
            "format_version": FORMAT_VERSION,
            "kind": "measurements",
            "m": obj.m,
            "ensemble_ref": obj.ensemble_ref,
            "dtype": "float64-le",
        }
    arr = as_cvector(obj, "signal")
    return {
        "format_version": FORMAT_VERSION,
        "kind": "signal",
        "n": int(arr.shape[0]),
        "dtype": "float64-le",
    }


def _payload(obj) -> np.ndarray:
    if isinstance(obj, SensingEnsemble):
        flat = np.empty(2 * obj.m * obj.n, dtype="<f8")
        flat[0::2] = obj.vectors.real.ravel()
        flat[1::2] = obj.vectors.imag.ravel()
        return flat
    if isinstance(obj, MeasurementSet):
        return obj.values.astype("<f8")
    arr = as_cvector(obj, "signal")
    flat = np.empty(2 * arr.shape[0], dtype="<f8")
    flat[0::2] = arr.real
    flat[1::2] = arr.imag
    return flat


def save(obj, path) -> None:
    """Write a signal (1-D complex array), SensingEnsemble or MeasurementSet.

    Paths ending in ``.json`` use the JSON variant, anything else the binary
    container.
    """
    path = Path(path)
    header = _header(obj)
    if path.suffix == ".json":
        header["data"] = _json_data(obj)
        path.write_text(json.dumps(header))
        return
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(_payload(obj).tobytes())


def _json_data(obj):
    if isinstance(obj, SensingEnsemble):
        return [[[float(v.real), float(v.imag)] for v in row] for row in obj.vectors]
    if isinstance(obj, MeasurementSet):
        return [float(v) for v in obj.values]
    arr = as_cvector(obj, "signal")
    return [[float(v.real), float(v.imag)] for v in arr]


def load(path):
    """Read a container written by :func:`save`; returns the stored object."""
    path = Path(path)
    if path.suffix == ".json":
        try:
            header = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise FileFormatError(f"{path}: invalid JSON container: {exc}") from exc
        return _from_header(header, path, header.get("data"))
    raw = path.read_bytes()
    if len(raw) < len(_MAGIC) + 4 or raw[: len(_MAGIC)] != _MAGIC:
        raise FileFormatError(f"{path}: not a TLSPRBIN container")
    (hlen,) = struct.unpack("<I", raw[len(_MAGIC) : len(_MAGIC) + 4])
    start = len(_MAGIC) + 4
    if len(raw) < start + hlen:
        raise FileFormatError(f"{path}: truncated header")
    try:
        header = json.loads(raw[start : start + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FileFormatError(f"{path}: malformed header: {exc}") from exc
    # A view of the payload bytes; slicing ``raw`` would copy them.
    payload = np.frombuffer(raw, dtype="<f8", offset=start + hlen)
    return _from_header(header, path, payload)


def _from_header(header: dict, path: Path, data):
    if header.get("format_version") != FORMAT_VERSION:
        raise FileFormatError(f"{path}: unsupported format_version {header.get('format_version')!r}")
    kind = header.get("kind")
    if kind == "signal":
        n = int(header["n"])
        values = _to_complex(data, 1, n, path)
        if n < 1:
            raise FileFormatError(f"{path}: empty signal")
        return values.reshape(n)
    if kind == "ensemble":
        m, n = int(header["m"]), int(header["n"])
        if m < 1 or n < 1:
            raise FileFormatError(f"{path}: ensemble requires m >= 1 and n >= 1")
        values = _to_complex(data, m, n, path)
        return SensingEnsemble(
            _Owned(values.reshape(m, n)),
            model_tag=header.get("model_tag", "external"),
            noise_tag=header.get("noise_tag", "clean"),
        )
    if kind == "measurements":
        m = int(header["m"])
        # A copy: a view of the payload bytes need not be 8-byte aligned.
        arr = np.array(data, dtype=np.float64).ravel()
        if arr.size != m:
            raise FileFormatError(f"{path}: header says m={m} but payload has {arr.size} values")
        if m < 1:
            raise FileFormatError(f"{path}: empty measurement set")
        return MeasurementSet(_Owned(arr), ensemble_ref=header.get("ensemble_ref", ""))
    raise FileFormatError(f"{path}: unknown kind {kind!r}")


def _to_complex(data, m: int, n: int, path: Path) -> np.ndarray:
    if data is None:
        raise FileFormatError(f"{path}: missing payload")
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 1:  # binary payload: interleaved pairs
        if arr.size != 2 * m * n:
            raise FileFormatError(
                f"{path}: header promises {m}x{n} complex values, payload has {arr.size} doubles"
            )
    # JSON payload: nested [re, im] pairs
    elif arr.shape[-1] != 2 or arr.size != 2 * m * n:
        raise FileFormatError(f"{path}: JSON data does not match header dimensions {m}x{n}")
    # Both hold (re, im) pairs in the order of complex128 memory.
    out = np.empty(m * n, dtype=np.complex128)
    out.view(np.float64)[:] = arr.reshape(-1)
    return out
