"""File container for signals, sensing ensembles and measurement sets.

Binary layout (default, used for any path not ending in ``.json``):

    bytes 0..7    magic ``b"TLSPRBIN"``
    bytes 8..11   uint32 little-endian header length H
    bytes 12..12+H-1  UTF-8 JSON header
    remainder     float64 little-endian payload

Header keys: ``format_version`` (currently 1), ``kind`` (``signal`` /
``ensemble`` / ``measurements``), ``n``, ``m`` (absent for signals),
``model_tag`` and ``noise_tag`` (ensembles), ``ensemble_ref`` (measurements)
and ``dtype`` (always ``float64-le``; a file claiming any other is rejected).

Payloads: signals and ensembles store interleaved (re, im) pairs in row-major
order (2*N respectively 2*M*N doubles), which is the memory of a row-major
little-endian complex128 array; measurement sets store M doubles.  The
payload goes straight between the file and the array's memory: :func:`save`
writes the array's own buffer and :func:`load` reads into the one array it
returns, so neither copies it.  A corrected ensemble held as factors
(:class:`~tlspr.correction.CorrectedRows`) is written as it is built, one
block of rows at a time, to the same bytes.  The file stays little-endian on
any host; a big-endian host swaps the bytes in memory.  :func:`load` checks the payload
size the header promises against the size of the file before it allocates.

A JSON variant is written when the path ends in ``.json``: the same header
keys plus a ``data`` field holding nested ``[re, im]`` pairs (signals: list of
pairs; ensembles: list of rows of pairs; measurements: plain list of floats).
Round-trips are bit-exact for finite values in both formats; :func:`load`
rejects a non-finite value.
"""

from __future__ import annotations

import json
import math
import os
import struct
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from .core import MeasurementSet, SensingEnsemble, _Owned, as_cvector
from .correction import CorrectedRows

_MAGIC = b"TLSPRBIN"
FORMAT_VERSION = 1
_DTYPE = "float64-le"
# Per kind: the header's dimension keys, the payload's dtype in the file and
# the dtype of the array ``load`` returns.
_KINDS = {
    "signal": (("n",), "<c16", np.complex128),
    "ensemble": (("m", "n"), "<c16", np.complex128),
    "measurements": (("m",), "<f8", np.float64),
}


class FileFormatError(ValueError):
    """File is not a valid container or is inconsistent with its header."""


def _contents(obj) -> tuple[dict, Iterator[np.ndarray]]:
    """The header of ``obj`` and its values as blocks of the payload's
    C-contiguous little-endian array: ``obj``'s own memory whenever it
    already is one, and the row blocks of a :class:`CorrectedRows`."""
    if isinstance(obj, (SensingEnsemble, CorrectedRows)):
        fields = {"kind": "ensemble", "n": obj.n, "m": obj.m,
                  "model_tag": obj.model_tag, "noise_tag": obj.noise_tag}
        blocks = obj.row_blocks() if isinstance(obj, CorrectedRows) else [obj.vectors]
    elif isinstance(obj, MeasurementSet):
        fields = {"kind": "measurements", "m": obj.m, "ensemble_ref": obj.ensemble_ref}
        blocks = [obj.values]
    else:
        values = as_cvector(obj, "signal")
        fields = {"kind": "signal", "n": int(values.shape[0])}
        blocks = [values]
    header = {"format_version": FORMAT_VERSION, **fields, "dtype": _DTYPE}
    file_dtype = _KINDS[fields["kind"]][1]
    return header, (np.ascontiguousarray(block, dtype=file_dtype) for block in blocks)


def save(obj, path) -> None:
    """Write a signal (1-D complex array), SensingEnsemble or MeasurementSet,
    or the corrected ensemble a TLS solve holds as
    :class:`~tlspr.correction.CorrectedRows`, which is written a block of
    rows at a time.

    Paths ending in ``.json`` use the JSON variant, anything else the binary
    container.
    """
    path = Path(path)
    header, blocks = _contents(obj)
    if path.suffix == ".json":
        header["data"] = []
        for values in blocks:
            if values.dtype.kind == "c":
                values = values.view("<f8").reshape(*values.shape, 2)
            header["data"] += values.tolist()
        path.write_text(json.dumps(header))
        return
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC + struct.pack("<I", len(blob)) + blob)
        for values in blocks:
            fh.write(values)


def load(path):
    """Read a container written by :func:`save`; returns the stored object.

    Raises :class:`FileFormatError`, naming the file, for a malformed file
    and for values the object rejects, non-finite ones included."""
    path = Path(path)
    if path.suffix == ".json":
        try:
            header = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise FileFormatError(f"{path}: invalid JSON container: {exc}") from exc
        shape = _shape(header, path)
        values = _json_values(header.get("data"), shape, header["kind"], path)
    else:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            header = _binary_header(fh, size, path)
            shape = _shape(header, path)
            values = _read_payload(fh, size - fh.tell(), shape, header["kind"], path)
    kind = header["kind"]
    try:
        if kind == "ensemble":
            return SensingEnsemble(
                _Owned(values),
                model_tag=header.get("model_tag", "external"),
                noise_tag=header.get("noise_tag", "clean"),
            )
        if kind == "measurements":
            return MeasurementSet(_Owned(values), ensemble_ref=header.get("ensemble_ref", ""))
        return as_cvector(values, "signal")
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def _binary_header(fh, size: int, path: Path) -> dict:
    prefix = fh.read(len(_MAGIC) + 4)
    if len(prefix) < len(_MAGIC) + 4 or prefix[: len(_MAGIC)] != _MAGIC:
        raise FileFormatError(f"{path}: not a TLSPRBIN container")
    (hlen,) = struct.unpack("<I", prefix[len(_MAGIC) :])
    if size < len(prefix) + hlen:
        raise FileFormatError(f"{path}: truncated header")
    try:
        return json.loads(fh.read(hlen).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FileFormatError(f"{path}: malformed header: {exc}") from exc


def _shape(header, path: Path) -> tuple[int, ...]:
    """The shape of the array the header describes, after checking the
    header's version, dtype, kind and dimensions."""
    if not isinstance(header, dict):
        raise FileFormatError(f"{path}: header is not a JSON object")
    if header.get("format_version") != FORMAT_VERSION:
        raise FileFormatError(f"{path}: unsupported format_version {header.get('format_version')!r}")
    if header.get("dtype", _DTYPE) != _DTYPE:
        raise FileFormatError(f"{path}: unsupported dtype {header['dtype']!r}, expected {_DTYPE!r}")
    kind = header.get("kind")
    if kind not in _KINDS:
        raise FileFormatError(f"{path}: unknown kind {kind!r}")
    try:
        shape = tuple(int(header[key]) for key in _KINDS[kind][0])
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"{path}: {kind} header lacks a valid dimension: {exc!r}") from exc
    if min(shape) < 1:
        raise FileFormatError(f"{path}: empty {kind}, header dimensions {shape}")
    return shape


def _read_payload(fh, remaining: int, shape: tuple[int, ...], kind: str, path: Path) -> np.ndarray:
    """Read the payload into a new array, after checking that the file holds
    exactly the bytes the header promises."""
    file_dtype, dtype = _KINDS[kind][1:]
    nbytes = np.dtype(file_dtype).itemsize * math.prod(shape)
    if remaining != nbytes:
        raise FileFormatError(
            f"{path}: header promises a {'x'.join(map(str, shape))} {kind} "
            f"({nbytes // 8} doubles), payload has {remaining} bytes"
        )
    values = np.empty(shape, dtype=file_dtype)
    if fh.readinto(values) != nbytes:
        raise FileFormatError(f"{path}: payload ended early")
    # A no-op on a little-endian host; a big-endian one swaps the bytes.
    return values.astype(dtype, copy=False)


def _json_values(data, shape: tuple[int, ...], kind: str, path: Path) -> np.ndarray:
    if data is None:
        raise FileFormatError(f"{path}: missing payload")
    arr = np.array(data, dtype=np.float64)
    if kind == "measurements":
        if arr.size != shape[0]:
            raise FileFormatError(f"{path}: header says m={shape[0]} but payload has {arr.size} values")
        return arr.reshape(shape)
    # Nested [re, im] pairs, in the order of complex128 memory.
    if arr.shape[-1:] != (2,) or arr.size != 2 * math.prod(shape):
        raise FileFormatError(f"{path}: JSON data does not match header dimensions {shape}")
    return arr.reshape(-1).view(np.complex128).reshape(shape)
