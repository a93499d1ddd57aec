"""Versioned binary container for checkpoints and prepared-dataset dumps.

Layout: magic | u16 version | u32 header length | canonical-JSON header |
concatenated little-endian array bytes | sha256 of everything before it.
Writes are atomic (temp file + rename) and byte-reproducible: the header
JSON is canonical (sorted keys, no whitespace) and arrays are stored in the
listed order, C-contiguous, little-endian, in their native width. The
header and each array buffer are hashed and written as they are, without
joining them into one payload; a read hashes a memoryview of the file and
copies each array out of it once. Loaders check what they read with the
`require_*` functions; `require_arrays` is the one rule for stored arrays.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import tempfile

import numpy as np

from .errors import CheckpointError

MAGIC = b"TBHV"
VERSION = 1

_DTYPES = {"<f4", "<f8", "<i8"}
_MAX_BYTES = np.iinfo(np.intp).max     # numpy's bound on an array's size in bytes


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


def require_arrays(path, arrays, expected, what):
    """Raise CheckpointError unless `arrays` holds exactly the names in
    `expected` (name -> (shape, dtype)), each of that shape and dtype and,
    if float, finite. A shape may start with a named length, such as
    "train": every array whose shape starts with it has the length of the
    first such array on that axis."""
    missing = sorted(expected.keys() - arrays.keys())
    extra = sorted(arrays.keys() - expected.keys())
    if missing or extra:
        raise CheckpointError(
            f"{path}: {what} set mismatch (missing {missing}, unexpected {extra})"
        )
    lengths = {}
    for name, (shape, dtype) in expected.items():
        value = arrays[name]
        if shape and isinstance(shape[0], str):
            shape = (lengths.setdefault(shape[0], len(value) if value.ndim else 0), *shape[1:])
        if value.shape != shape:
            problem = f"has shape {value.shape}, expected {shape}"
        elif value.dtype != dtype:
            problem = f"stored as {value.dtype}, not {np.dtype(dtype)}"
        elif value.dtype.kind == "f" and not np.isfinite(value).all():
            problem = "has non-finite values"
        else:
            continue
        raise CheckpointError(f"{path}: {what} {name!r} {problem}")


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
            and math.prod(n for n in shape if n) * np.dtype(dtype).itemsize <= _MAX_BYTES
        ):
            raise CheckpointError(
                f"{path}: array entry {i} has name {entry['name']!r}, "
                f"dtype {dtype!r}, shape {shape!r}"
            )


def write_container(path, kind, meta, arrays):
    """Write `arrays` (ordered name -> ndarray) plus a JSON-able `meta`."""
    entries = []
    buffers = []
    for name, arr in arrays.items():
        dt = _canonical_dtype(arr)
        buffers.append(np.ascontiguousarray(arr, dtype=np.dtype(dt)))
        entries.append({"name": name, "dtype": dt, "shape": list(arr.shape)})
    header = json.dumps(
        {"kind": kind, "meta": meta, "arrays": entries},
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    parts = [MAGIC + struct.pack("<HI", VERSION, len(header)) + header, *buffers]
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)

    path = os.fspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)) or ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            for part in parts:
                fh.write(part)
            fh.write(digest.digest())
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
    body = memoryview(raw)[:-32]
    if hashlib.sha256(body).digest() != raw[-32:]:
        raise CheckpointError(f"{path}: checksum mismatch, file is corrupt")
    version, hlen = struct.unpack_from("<HI", body, len(MAGIC))
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported container version {version}")
    off = len(MAGIC) + 6
    try:
        header = json.loads(bytes(body[off:off + hlen]).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: unreadable header ({exc})") from exc
    off += hlen
    _check_header(path, header)
    arrays = {}
    for entry in header["arrays"]:
        dt = np.dtype(entry["dtype"])
        shape = tuple(entry["shape"])
        nbytes = dt.itemsize * math.prod(shape)
        chunk = body[off:off + nbytes]
        if len(chunk) != nbytes:
            raise CheckpointError(f"{path}: truncated array {entry['name']}")
        arrays[entry["name"]] = np.frombuffer(chunk, dtype=dt).reshape(shape).copy()
        off += nbytes
    if off != len(body):
        raise CheckpointError(f"{path}: trailing bytes after arrays")
    return header["kind"], header["meta"], arrays
