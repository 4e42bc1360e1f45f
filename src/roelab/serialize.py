"""File formats: binary block operators, JSON spaces, maps, and reports.

A space is written by ``FiniteMetricSpace.to_json``: a graph metric as
its edge list ``{"n", "edges"}``, any other space as its matrix
``{"n", "dist"}``.  A space is read from an object with exactly one of
the two, and a map object embeds its source and target spaces the same way.

Binary operator layout (all integers little-endian uint32, floats
little-endian float64):

    bytes 0..6   magic "ROELAB2"
    byte  7      flags; bit 0 set means source and target differ, and
                 no other bit may be set
    uint32       n_target, then n_target fiber dimensions
    [uint32      n_source, then n_source fiber dimensions]   (flag bit 0)
    payload      the operator's matrix, target.total_dim rows of
                 source.total_dim entries, row-major in coordinate order,
                 each entry as a (re, im) float64 pair

The metric itself is not stored; readers supply the base space(s), and
the fiber dimensions recorded in the file must match their point counts.
Writing is bit-exact: reading back yields the identical matrix, signed
zeros included.  A file that ends inside the header or the payload is
refused with a message saying where, and one whose flags byte sets any
bit but bit 0 with a message naming the byte.  A reader holds a single
copy of the payload: the file is sized by `os.fstat`, its header read in
small pieces and checked against that size before anything is allocated
for the payload, which is then read straight into the operator's matrix
and scanned once for the entry rule (`check_entries`).  A pipe cannot be
sized before it is read, so it is read whole and its payload copied from
those bytes.

Reports: `report_bytes` encodes a report as one line of JSON with
sorted keys; space and map files go through it too (`write_report`).
json walks the report itself and calls one hook, `_report_value`, for
what it does not know; no Python walk comes first.  A report dataclass
is the dict of its fields by name, so a field's name is its report key.
A map inside a report is its table (``[0, 0, 1]``, not the file form
with embedded spaces), numpy arrays and scalars become lists and
numbers, and a `witness` is ``{"A", "B"}`` or null.  Anything else json
does not know is a TypeError.
"""

from __future__ import annotations

import io
import json
import os
import stat
import struct
from dataclasses import fields, is_dataclass

import numpy as np

from .maps import PointMap
from .operators import BlockOperator, FiberedSpace, check_entries
from .spaces import FiniteMetricSpace

__all__ = [
    "MAGIC",
    "write_operator",
    "read_operator",
    "load_space",
    "save_space",
    "load_map",
    "save_map",
    "report_bytes",
    "write_report",
]

MAGIC = b"ROELAB2"
_FLAG_RECTANGULAR = 1


def write_operator(path, op: BlockOperator) -> None:
    with open(path, "wb") as fh:
        rectangular = op.source != op.target
        fh.write(MAGIC)
        fh.write(struct.pack("<B", _FLAG_RECTANGULAR if rectangular else 0))
        fh.write(struct.pack("<I", op.target.base.n))
        fh.write(np.asarray(op.target.fiber_dims, dtype="<u4").tobytes())
        if rectangular:
            fh.write(struct.pack("<I", op.source.base.n))
            fh.write(np.asarray(op.source.fiber_dims, dtype="<u4").tobytes())
        fh.write(op.matrix.astype("<c16", copy=False).data)


def read_operator(
    path,
    target_base: FiniteMetricSpace,
    source_base: FiniteMetricSpace | None = None,
) -> BlockOperator:
    """Read a binary operator; bases must be supplied by the caller.

    For square operators (flag clear) only target_base is needed; a
    rectangular file requires source_base as well.  A regular file's
    payload is read once, into the operator's own matrix; a pipe is read
    whole first (module docstring).
    """
    with open(path, "rb") as fh:
        status = os.fstat(fh.fileno())
        if stat.S_ISREG(status.st_mode):
            return _read_operator(fh, status.st_size, target_base, source_base)
        raw = fh.read()
    return _read_operator(io.BytesIO(raw), len(raw), target_base, source_base)


def _read_operator(fh, size: int, target_base, source_base) -> BlockOperator:
    """`read_operator` on a binary file object, at its start, of `size` bytes."""
    magic = fh.read(len(MAGIC))
    if magic != MAGIC:
        raise ValueError(f"not a {MAGIC.decode()} file: bad magic {magic!r}")

    def take(count: int) -> bytes:
        # sized before each read, so a cut file gets this message, not struct's
        if size < fh.tell() + count:
            raise ValueError(f"operator file ends inside its header ({size} bytes)")
        return fh.read(count)

    def read_dims(base: FiniteMetricSpace):
        (n,) = struct.unpack("<I", take(4))
        if n != base.n:
            raise ValueError(f"file records {n} points, supplied space has {base.n}")
        return np.frombuffer(take(4 * n), dtype="<u4").astype(np.int64)

    (flags,) = take(1)
    if flags & ~_FLAG_RECTANGULAR:
        raise ValueError(f"unknown flag bits in operator file: flags byte {flags:#04x}")
    rectangular = bool(flags & _FLAG_RECTANGULAR)
    dims_t = read_dims(target_base)
    if rectangular:
        if source_base is None:
            raise ValueError("rectangular operator file needs an explicit source space")
        dims_s = read_dims(source_base)
    else:
        if source_base is not None and source_base != target_base:
            raise ValueError("square operator file, but a different source space was supplied")
        dims_s = dims_t

    expected = int(dims_t.sum()) * int(dims_s.sum())

    def need_payload(held: int) -> None:
        if held != 16 * expected:  # by bytes, so a cut inside a float64 counts too
            raise ValueError(
                f"payload holds {held} bytes, expected {16 * expected} ({expected} complex entries)"
            )

    need_payload(size - fh.tell())  # before the fibered spaces allocate for the claimed dimensions
    target = FiberedSpace(target_base, dims_t)
    source = FiberedSpace(source_base, dims_s) if rectangular else target
    # the bytes themselves, so -0.0 stays -0.0; no copy where "<c16" is native
    matrix = np.empty((target.total_dim, source.total_dim), dtype="<c16")
    need_payload(fh.readinto(matrix))  # short only if the file shrank after it was sized
    matrix = matrix.astype(complex, copy=False)
    check_entries(matrix)
    return BlockOperator(source, target, matrix, _checked=True)


def load_space(path) -> FiniteMetricSpace:
    with open(path) as fh:
        return FiniteMetricSpace.from_json(json.load(fh))


def save_space(path, space: FiniteMetricSpace) -> None:
    write_report(path, space.to_json())


def load_map(path) -> PointMap:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"map JSON must be an object, got {data!r}")
    for key in ("source", "target", "table"):
        if key not in data:
            raise ValueError(f"map JSON is missing {key!r}")
    source = FiniteMetricSpace.from_json(data["source"])
    target = FiniteMetricSpace.from_json(data["target"])
    return PointMap(source, target, data["table"])


def save_map(path, f: PointMap) -> None:
    write_report(path, f.to_json())


def _report_value(value):
    """json's hook for a value it does not walk itself: a dataclass as the
    dict of its fields by name (one level; json walks what it returns), a
    map as its table, an array or numpy scalar as a list or number."""
    if is_dataclass(value):
        return {f.name: getattr(value, f.name) for f in fields(value)}
    if isinstance(value, PointMap):
        return value.values.tolist()
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def report_bytes(data) -> bytes:
    """Canonical JSON bytes of a report (a dict or a report dataclass):
    sorted keys, one line, trailing newline.  Without indentation json
    takes its C encoder.

    ValueError on a NaN or infinite number, which JSON cannot represent,
    ending with the number (": inf"); TypeError on an object that is not
    a report value (module docstring).
    """
    try:
        text = json.dumps(data, sort_keys=True, allow_nan=False, default=_report_value)
    except ValueError:
        # the C encoder's message leaves out the number; json's pure-Python
        # encoder, taken on refusal only, names the first one in key order
        "".join(json.JSONEncoder(sort_keys=True, allow_nan=False, default=_report_value).iterencode(data))
        raise
    return (text + "\n").encode()


def write_report(path, data) -> None:
    payload = report_bytes(data)  # before opening, so a rejected report leaves no file
    with open(path, "wb") as fh:
        fh.write(payload)
