"""File formats: binary block operators, JSON spaces, maps, and reports.

A space is written by ``FiniteMetricSpace.to_json``: a graph metric as
its edge list ``{"n", "edges"}``, any other space as its matrix
``{"n", "dist"}``.  Both forms are read, and a map embeds its source and
target spaces in the same way.

Binary operator layout (all integers little-endian uint32, floats
little-endian float64):

    bytes 0..6   magic "ROELAB1"
    byte  7      flags; bit 0 set means source and target differ
    uint32       n_target, then n_target fiber dimensions
    [uint32      n_source, then n_source fiber dimensions]   (flag bit 0)
    payload      blocks in row-major point order (y outer, x inner), each
                 block row-major, each entry as a (re, im) float64 pair

The metric itself is not stored; readers supply the base space(s), and
the fiber dimensions recorded in the file must match their point counts.
Writing is bit-exact: reading back yields the identical matrix, signed
zeros included.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .maps import PointMap
from .operators import BlockOperator, FiberedSpace
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

MAGIC = b"ROELAB1"
_FLAG_RECTANGULAR = 1


def _payload_index(target: FiberedSpace, source: FiberedSpace) -> np.ndarray:
    """Payload position of every matrix entry, as a (target, source) array.

    Blocks are laid out y outer, x inner, each row-major: block (y, x)
    starts at offset_y * total_source + d_y * offset_x.
    """
    y, x = target.coord_point, source.coord_point
    row_in_block = np.arange(target.total_dim) - target.offsets[y]
    col_in_block = np.arange(source.total_dim) - source.offsets[x]
    return (
        (target.offsets[y] * source.total_dim)[:, None]
        + target.fiber_dims[y][:, None] * source.offsets[x][None, :]
        + row_in_block[:, None] * source.fiber_dims[x][None, :]
        + col_in_block[None, :]
    )


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
        payload = np.empty(op.matrix.size, dtype="<c16")
        payload[_payload_index(op.target, op.source)] = op.matrix
        fh.write(payload.tobytes())


def read_operator(
    path,
    target_base: FiniteMetricSpace,
    source_base: FiniteMetricSpace | None = None,
) -> BlockOperator:
    """Read a binary operator; bases must be supplied by the caller.

    For square operators (flag clear) only target_base is needed; a
    rectangular file requires source_base as well.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[: len(MAGIC)] != MAGIC:
        raise ValueError(f"not a {MAGIC.decode()} file: bad magic {raw[:7]!r}")
    pos = len(MAGIC)
    (flags,) = struct.unpack_from("<B", raw, pos)
    pos += 1
    rectangular = bool(flags & _FLAG_RECTANGULAR)

    def read_dims(base: FiniteMetricSpace, nonlocal_pos):
        (n,) = struct.unpack_from("<I", raw, nonlocal_pos)
        nonlocal_pos += 4
        if n != base.n:
            raise ValueError(f"file records {n} points, supplied space has {base.n}")
        dims = np.frombuffer(raw, dtype="<u4", count=n, offset=nonlocal_pos).astype(np.int64)
        nonlocal_pos += 4 * n
        return dims, nonlocal_pos

    dims_t, pos = read_dims(target_base, pos)
    if rectangular:
        if source_base is None:
            raise ValueError("rectangular operator file needs an explicit source space")
        dims_s, pos = read_dims(source_base, pos)
    else:
        if source_base is not None and source_base != target_base:
            raise ValueError("square operator file, but a different source space was supplied")
        dims_s = dims_t

    # checked before the fibered spaces allocate for the claimed dimensions
    expected = int(dims_t.sum()) * int(dims_s.sum())
    if len(raw) - pos != 16 * expected:  # by bytes, so a cut inside a float64 counts too
        raise ValueError(
            f"payload holds {len(raw) - pos} bytes, expected {16 * expected} "
            f"({expected} complex entries)"
        )
    target = FiberedSpace(target_base, dims_t)
    source = FiberedSpace(source_base, dims_s) if rectangular else target
    flat = np.frombuffer(raw, dtype="<c16", offset=pos)  # re + 1j * im would turn -0.0 into +0.0
    return BlockOperator(source, target, flat[_payload_index(target, source)])


def load_space(path) -> FiniteMetricSpace:
    with open(path) as fh:
        return FiniteMetricSpace.from_json(json.load(fh))


def save_space(path, space: FiniteMetricSpace) -> None:
    write_report(path, space.to_json())


def load_map(path) -> PointMap:
    with open(path) as fh:
        data = json.load(fh)
    for key in ("source", "target", "table"):
        if key not in data:
            raise ValueError(f"map JSON is missing {key!r}")
    source = FiniteMetricSpace.from_json(data["source"])
    target = FiniteMetricSpace.from_json(data["target"])
    return PointMap(source, target, data["table"])


def save_map(path, f: PointMap) -> None:
    write_report(path, f.to_json())


def report_bytes(data: dict) -> bytes:
    """Canonical JSON bytes: sorted keys, fixed indentation, trailing newline.

    ValueError on a NaN or infinite number, which JSON cannot represent.
    """
    return (json.dumps(data, sort_keys=True, indent=2, allow_nan=False) + "\n").encode()


def write_report(path, data: dict) -> None:
    payload = report_bytes(data)  # before opening, so a rejected report leaves no file
    with open(path, "wb") as fh:
        fh.write(payload)
