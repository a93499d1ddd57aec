"""Versioned binary container for checkpoints and prepared-dataset dumps.

Layout: magic | u16 version | u32 header length | canonical-JSON header |
concatenated little-endian array bytes | sha256 of everything before it.
Writes are atomic (temp file + rename) and byte-reproducible: the header
JSON is canonical (sorted keys, no whitespace) and arrays are stored in the
listed order, C-contiguous, little-endian, in their native width.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import tempfile

import numpy as np

from .errors import CheckpointError

MAGIC = b"TBHV"
VERSION = 1

_DTYPES = {"<f4", "<f8", "<i8"}


def _canonical_dtype(arr):
    dt = arr.dtype.newbyteorder("<")
    s = dt.str
    if s not in _DTYPES:
        raise CheckpointError(f"unsupported array dtype {arr.dtype}")
    return s


def require_keys(path, mapping, keys, what):
    """Raise CheckpointError naming every one of `keys` absent from `mapping`."""
    missing = [k for k in keys if k not in mapping]
    if missing:
        raise CheckpointError(
            f"{path}: {what} lacks {', '.join(repr(k) for k in missing)}"
        )


def require_str_list(path, value, what):
    """Return `value` as a list, raising CheckpointError naming `what` unless
    it is a JSON list of strings."""
    if not isinstance(value, list):
        raise CheckpointError(f"{path}: {what} is {value!r}, not a list of strings")
    for i, v in enumerate(value):
        if not isinstance(v, str):
            raise CheckpointError(f"{path}: {what}[{i}] is {v!r}, not a string")
    return list(value)


def require_int(path, value, what, minimum):
    """Return `value`, raising CheckpointError naming `what` unless it is a
    JSON int (not a bool) >= `minimum`."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise CheckpointError(f"{path}: {what} is {value!r}, not an int >= {minimum}")
    return value


def _check_header(path, header):
    """Raise CheckpointError unless `header` has the layout write_container emits."""
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: container header is not a JSON object")
    require_keys(path, header, ("kind", "meta", "arrays"), "container header")
    if not isinstance(header["meta"], dict) or not isinstance(header["arrays"], list):
        raise CheckpointError(f"{path}: container header 'meta' or 'arrays' is malformed")
    for i, entry in enumerate(header["arrays"]):
        if not isinstance(entry, dict):
            raise CheckpointError(f"{path}: array entry {i} is not a JSON object")
        require_keys(path, entry, ("name", "dtype", "shape"), f"array entry {i}")
        dtype, shape = entry["dtype"], entry["shape"]
        if not (
            isinstance(entry["name"], str)
            and isinstance(dtype, str) and dtype in _DTYPES
            and isinstance(shape, list)
            and all(type(n) is int and n >= 0 for n in shape)
        ):
            raise CheckpointError(
                f"{path}: array entry {i} has name {entry['name']!r}, "
                f"dtype {dtype!r}, shape {shape!r}"
            )


def write_container(path, kind, meta, arrays):
    """Write `arrays` (ordered name -> ndarray) plus a JSON-able `meta`."""
    entries = []
    blobs = []
    for name, arr in arrays.items():
        dt = _canonical_dtype(arr)
        data = np.ascontiguousarray(arr, dtype=np.dtype(dt))
        entries.append({"name": name, "dtype": dt, "shape": list(arr.shape)})
        blobs.append(data.tobytes())
    header = json.dumps(
        {"kind": kind, "meta": meta, "arrays": entries},
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")

    payload = bytearray()
    payload += MAGIC
    payload += struct.pack("<H", VERSION)
    payload += struct.pack("<I", len(header))
    payload += header
    for blob in blobs:
        payload += blob
    digest = hashlib.sha256(bytes(payload)).digest()
    payload += digest

    path = os.fspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)) or ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(bytes(payload))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_container(path):
    """Read back (kind, meta, arrays). Verifies magic, version, checksum."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot read ({exc.strerror or exc})") from exc
    if len(raw) < len(MAGIC) + 6 + 32 or raw[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: not a container file")
    body, digest = raw[:-32], raw[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise CheckpointError(f"{path}: checksum mismatch, file is corrupt")
    off = len(MAGIC)
    (version,) = struct.unpack_from("<H", body, off)
    off += 2
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported container version {version}")
    (hlen,) = struct.unpack_from("<I", body, off)
    off += 4
    try:
        header = json.loads(body[off:off + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: unreadable header ({exc})") from exc
    off += hlen
    _check_header(path, header)
    arrays = {}
    for entry in header["arrays"]:
        dt = np.dtype(entry["dtype"])
        shape = tuple(entry["shape"])
        nbytes = dt.itemsize * int(np.prod(shape, dtype=np.int64)) if shape else dt.itemsize
        chunk = body[off:off + nbytes]
        if len(chunk) != nbytes:
            raise CheckpointError(f"{path}: truncated array {entry['name']}")
        arrays[entry["name"]] = np.frombuffer(chunk, dtype=dt).reshape(shape).copy()
        off += nbytes
    if off != len(body):
        raise CheckpointError(f"{path}: trailing bytes after arrays")
    return header["kind"], header["meta"], arrays
