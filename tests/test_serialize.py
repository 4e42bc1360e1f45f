"""File formats: binary operators, JSON spaces and maps, reports."""

import dataclasses
import json
import struct
import tracemalloc

import numpy as np
import pytest

from roelab import cli
from roelab.concentration import concentration_witness
from roelab.covering import covering_unitary, outer_roundtrip
from roelab.extraction import extract_pair
from roelab.fixtures import noisy_covering_unitary, standard_pair
from roelab.locality import quasi_locality_violation
from roelab.maps import PointMap
from roelab.operators import BlockOperator, FiberedSpace
from roelab.serialize import (
    load_map,
    load_space,
    read_operator,
    report_bytes,
    save_map,
    save_space,
    write_operator,
    write_report,
)
from roelab.spaces import FiniteMetricSpace, path_space

from conftest import random_fibered, random_graph_space, random_operator


def decode_by_hand(raw):
    """Independent decoder following the declared layout byte by byte:
    the header, then the matrix row by row, each entry a (re, im) pair."""
    assert raw[:7] == b"ROELAB2"
    pos = 7
    (flags,) = struct.unpack_from("<B", raw, pos)
    pos += 1
    (n_t,) = struct.unpack_from("<I", raw, pos)
    pos += 4
    dims_t = list(struct.unpack_from(f"<{n_t}I", raw, pos))
    pos += 4 * n_t
    if flags & 1:
        (n_s,) = struct.unpack_from("<I", raw, pos)
        pos += 4
        dims_s = list(struct.unpack_from(f"<{n_s}I", raw, pos))
        pos += 4 * n_s
    else:
        n_s, dims_s = n_t, dims_t
    rows, cols = sum(dims_t), sum(dims_s)
    floats = struct.unpack_from(f"<{2 * rows * cols}d", raw, pos)
    pos += 16 * rows * cols
    assert pos == len(raw)
    matrix = np.array(floats[0::2]) + 1j * np.array(floats[1::2])
    return dims_t, dims_s, matrix.reshape(rows, cols)


def test_square_roundtrip_bit_exact(rng, tmp_path):
    X = random_graph_space(rng, 5, extra_edges=2)
    fib = random_fibered(rng, X)
    T = random_operator(rng, fib, fib)
    path = tmp_path / "op.bin"
    write_operator(path, T)
    back = read_operator(path, X)
    assert back.source == fib and back.target == fib
    assert (back.matrix == T.matrix).all()  # float64 roundtrip is exact


def test_rectangular_roundtrip(rng, tmp_path):
    X, Y = path_space(6), path_space(4)
    src = random_fibered(rng, X)
    tgt = random_fibered(rng, Y)
    T = random_operator(rng, src, tgt)
    path = tmp_path / "rect.bin"
    write_operator(path, T)
    back = read_operator(path, Y, X)
    assert (back.matrix == T.matrix).all()
    with pytest.raises(ValueError, match="source space"):
        read_operator(path, Y)


@pytest.mark.parametrize("rectangular", [False, True])
def test_roundtrip_keeps_every_bit(rectangular, tmp_path):
    # signed zeros in either part, the smallest subnormal, the largest magnitudes
    parts = [0.0, -0.0, 5e-324, -5e-324, 1e149, -1e149, 1.0]
    X, Y = path_space(4), path_space(3)
    tgt = FiberedSpace(Y, [1, 3, 3])
    src = FiberedSpace(X, [2, 1, 3, 2]) if rectangular else tgt
    # set the parts directly: re + 1j * im would already turn -0.0 into 0.0
    values = np.empty(len(parts) ** 2, dtype=complex)
    values.real, values.imag = np.repeat(parts, len(parts)), np.tile(parts, len(parts))
    mat = np.resize(values, (tgt.total_dim, src.total_dim))
    T = BlockOperator(src, tgt, mat)
    for part in (T.matrix.real, T.matrix.imag):
        assert np.signbit(part[part == 0.0]).any()  # -0.0 survives construction
    path = tmp_path / "edge.bin"
    write_operator(path, T)
    back = read_operator(path, Y, X if rectangular else None)
    assert back.matrix.tobytes() == T.matrix.tobytes()


def test_binary_layout_matches_declaration(rng, tmp_path):
    X, Y = path_space(3), path_space(2)
    src = FiberedSpace(X, [1, 2, 1])
    tgt = FiberedSpace(Y, [2, 1])
    T = random_operator(rng, src, tgt)
    path = tmp_path / "layout.bin"
    write_operator(path, T)
    dims_t, dims_s, matrix = decode_by_hand(path.read_bytes())
    assert dims_t == [2, 1]
    assert dims_s == [1, 2, 1]
    assert matrix.shape == (3, 4)
    rows, cols = np.cumsum([0] + dims_t), np.cumsum([0] + dims_s)
    for y in range(2):
        for x in range(3):
            blk = matrix[rows[y]:rows[y + 1], cols[x]:cols[x + 1]]
            assert np.array_equal(blk, T.block(y, x))


def row_walk_bytes(T):
    """The declared layout written entry by entry, row by row."""
    rectangular = T.source != T.target
    out = [b"ROELAB2", struct.pack("<B", 1 if rectangular else 0)]
    sides = (T.target, T.source) if rectangular else (T.target,)
    for side in sides:
        out.append(struct.pack(f"<I{side.base.n}I", side.base.n, *side.fiber_dims))
    for row in T.matrix:
        for entry in row:
            out.append(struct.pack("<dd", entry.real, entry.imag))
    return b"".join(out)


def test_written_bytes_equal_row_walk(rng, tmp_path):
    path = tmp_path / "walk.bin"
    for n_t, n_s in ((6, 6), (5, 3), (4, 7)):
        Y = random_graph_space(rng, n_t, extra_edges=1)
        X = Y if n_s == n_t else random_graph_space(rng, n_s, extra_edges=1)
        tgt = random_fibered(rng, Y, max_dim=2)
        src = tgt if X is Y else random_fibered(rng, X, max_dim=2)
        T = random_operator(rng, src, tgt)
        write_operator(path, T)
        assert path.read_bytes() == row_walk_bytes(T)
        back = read_operator(path, Y, None if X is Y else X)
        assert (back.matrix == T.matrix).all()


def test_bad_magic_rejected(rng, tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTMINE" + b"\x00" * 64)
    with pytest.raises(ValueError, match="magic"):
        read_operator(path, path_space(2))
    # with one-dimensional fibers the block order of ROELAB1 files and the
    # row-major payload coincide, so this is such a file byte for byte; it
    # is refused by its magic, never read
    fib = FiberedSpace.uniform(path_space(3), 1)
    write_operator(path, random_operator(rng, fib, fib))
    path.write_bytes(b"ROELAB1" + path.read_bytes()[7:])
    with pytest.raises(ValueError) as err:
        read_operator(path, path_space(3))
    assert str(err.value) == "not a ROELAB2 file: bad magic b'ROELAB1'"


def test_read_and_write_copy_the_payload_at_most_once(tmp_path):
    # a noisy 200-point reflection cover: a 640,000-byte payload.  A read
    # holds the file's bytes and the operator's own matrix; a write hands
    # the file the matrix it is given and copies none of it
    U = noisy_covering_unitary("reflection", 200, 1)[0]
    payload = 16 * U.matrix.size
    assert payload == 640_000
    path = tmp_path / "cover.bin"
    tracemalloc.start()
    try:
        write_operator(path, U)
        _, write_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        back = read_operator(path, U.target.base)
        _, read_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back.matrix.tobytes() == U.matrix.tobytes()
    assert write_peak <= 0.1 * payload
    assert read_peak <= 2.1 * payload


def test_point_count_mismatch_rejected(rng, tmp_path):
    fib = FiberedSpace.uniform(path_space(3), 1)
    T = random_operator(rng, fib, fib)
    path = tmp_path / "count.bin"
    write_operator(path, T)
    with pytest.raises(ValueError, match="points"):
        read_operator(path, path_space(4))


def test_truncated_payload_rejected(rng, tmp_path):
    # checked in bytes: a cut inside one float64 gets the same message as a
    # whole missing entry, not numpy's "buffer size must be a multiple of
    # element size"
    fib = FiberedSpace.uniform(path_space(3), 2)
    T = random_operator(rng, fib, fib)
    path = tmp_path / "trunc.bin"
    write_operator(path, T)
    raw = path.read_bytes()
    payload = [(raw[:-3], 573), (raw[:-16], 560), (raw + b"\x00", 577)]
    cases = [(damaged, f"payload holds {size} bytes, expected 576 (36 complex entries)")
             for damaged, size in payload]
    # a cut inside the header: right after the magic, inside the point
    # count, inside the fiber dimensions
    cases += [(raw[:end], f"operator file ends inside its header ({end} bytes)")
              for end in (7, 9, 14)]
    for damaged, message in cases:
        path.write_bytes(damaged)
        with pytest.raises(ValueError) as err:
            read_operator(path, path_space(3))
        assert str(err.value) == message


def test_unknown_flag_bits_rejected(tmp_path):
    # only bit 0 (rectangular) has a meaning; 0x82 once read as a square operator
    fib = FiberedSpace.uniform(path_space(3), 1)
    path = tmp_path / "flags.bin"
    write_operator(path, BlockOperator(fib, fib, np.eye(3)))
    raw = path.read_bytes()
    for flags in (0x82, 0x02, 0x80, 0xFF):
        path.write_bytes(raw[:7] + bytes([flags]) + raw[8:])
        with pytest.raises(ValueError) as err:
            read_operator(path, path_space(3), path_space(3))
        assert str(err.value) == f"unknown flag bits in operator file: flags byte {flags:#04x}"
    path.write_bytes(raw)
    assert np.array_equal(read_operator(path, path_space(3)).matrix, np.eye(3))


def test_oversized_header_rejected_before_allocating(tmp_path):
    # one point with a 2^22-dim fiber and no payload: building its
    # coordinate arrays alone would take 32 MiB
    path = tmp_path / "huge.bin"
    path.write_bytes(b"ROELAB2\x00" + struct.pack("<II", 1, 1 << 22))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="payload"):
            read_operator(path, path_space(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_square_file_with_foreign_source_rejected(rng, tmp_path):
    fib = FiberedSpace.uniform(path_space(3), 1)
    T = random_operator(rng, fib, fib)
    path = tmp_path / "sq.bin"
    write_operator(path, T)
    with pytest.raises(ValueError, match="square"):
        read_operator(path, path_space(3), path_space(4))


def test_space_save_load(rng, tmp_path):
    path = tmp_path / "space.json"
    for X in (path_space(1), path_space(7), random_graph_space(rng, 12, extra_edges=5)):
        save_space(path, X)
        assert sorted(json.loads(path.read_text())) == ["edges", "n"]
        assert load_space(path) == X
        # the same space written the old way, as its full matrix
        path.write_text(json.dumps({"n": X.n, "dist": X.dist.tolist()}))
        assert load_space(path) == X
    scaled = FiniteMetricSpace(path_space(4).dist * 2)
    save_space(path, scaled)
    assert json.loads(path.read_text()) == {"n": 4, "dist": scaled.dist.tolist()}
    assert load_space(path) == scaled
    edges = tmp_path / "edges.json"
    edges.write_text(json.dumps({"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]}))
    Y = load_space(edges)
    assert Y.dist[0, 2] == 2


def test_map_save_load(tmp_path):
    f = PointMap(path_space(6), path_space(3), [i // 2 for i in range(6)])
    path = tmp_path / "map.json"
    save_map(path, f)
    data = json.loads(path.read_text())
    assert data["source"] == {"n": 6, "edges": [[k, k + 1] for k in range(5)]}
    assert data["target"] == {"n": 3, "edges": [[0, 1], [1, 2]]}
    back = load_map(path)
    assert back == f


def test_report_bytes_stable_and_sorted():
    a = report_bytes({"zeta": 1, "alpha": {"b": 2.5, "a": [1, 2]}})
    b = report_bytes({"alpha": {"a": [1, 2], "b": 2.5}, "zeta": 1})
    assert a == b
    assert a.endswith(b"\n")
    parsed = json.loads(a)
    assert parsed["alpha"]["b"] == 2.5


def test_write_report(tmp_path):
    path = tmp_path / "report.json"
    write_report(path, {"value": 3})
    assert json.loads(path.read_text()) == {"value": 3}


def test_report_bytes_encodes_dataclass_fields():
    # a report is its fields by name: a map as its table, arrays (nested in
    # lists too) as lists, numpy scalars as numbers, a nested report as a dict
    @dataclasses.dataclass
    class Inner:
        A: tuple
        flag: np.bool_

    @dataclasses.dataclass
    class Report:
        f: PointMap
        blocks: list
        count: np.int64
        inner: Inner
        windows: list

    f = PointMap(path_space(3), path_space(2), [0, 1, 1])
    report = Report(f, [np.array([0, 2]), np.array([1])], np.int64(7),
                    Inner((1, 2), np.bool_(True)), [(0.5, 1.0)])
    assert json.loads(report_bytes(report)) == {
        "f": [0, 1, 1], "blocks": [[0, 2], [1]], "count": 7,
        "inner": {"A": [1, 2], "flag": True}, "windows": [[0.5, 1.0]],
    }
    # nested in an envelope dict, it encodes as its parsed dict does
    parsed = json.loads(report_bytes(report))
    assert report_bytes({"results": report}) == report_bytes({"results": parsed})


@pytest.mark.parametrize("value", [
    pytest.param(FiberedSpace.uniform(path_space(2), 1), id="fibered-space"),
    pytest.param([path_space(2)], id="space-in-list"),
    pytest.param({1, 2}, id="set"),
])
def test_report_bytes_refuses_unknown_objects(value):
    # as json's own fallback does: no object is written by its repr
    with pytest.raises(TypeError, match="is not JSON serializable"):
        report_bytes({"results": {"x": value}})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_report_bytes_rejects_non_finite(value, tmp_path):
    # bare NaN / Infinity tokens are not JSON
    with pytest.raises(ValueError):
        report_bytes({"nested": {"x": [1.0, value]}})
    path = tmp_path / "report.json"
    with pytest.raises(ValueError):
        write_report(path, {"x": value})
    assert not path.exists()


@dataclasses.dataclass
class _Values:
    values: list


@pytest.mark.parametrize("data, number", [
    pytest.param({"results": _Values([1.0, float("inf")])}, "inf", id="list-in-dataclass"),
    pytest.param({"a": 1.0, "b": float("nan")}, "nan", id="dict-value"),
    pytest.param({"blocks": [np.array([0.5]), np.array([1.0, -np.inf])]}, "-inf", id="array-in-list"),
    pytest.param({"results": _Values([np.array([0.5]), np.array([np.nan])])}, "nan",
                 id="array-in-list-in-dataclass"),
    pytest.param({"b": float("inf"), "a": [float("nan")]}, "nan", id="first-by-sorted-key"),
])
def test_refusal_names_the_first_non_finite_number(data, number):
    with pytest.raises(ValueError) as refused:
        report_bytes(data)
    assert str(refused.value) == f"Out of range float values are not JSON compliant: {number}"


def _reference_plain(value):
    """Reference walk of a report in Python: a dataclass as the dict of
    its fields and a dict value by value, each walked again, a map as its
    table, an array or numpy scalar as a list or number.  Lists are left
    to json, which converts the arrays inside them through `default`."""
    if dataclasses.is_dataclass(value):
        return {f.name: _reference_plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {key: _reference_plain(item) for key, item in value.items()}
    if isinstance(value, PointMap):
        return value.values.tolist()
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    return value


def _reference_bytes(data):
    text = json.dumps(_reference_plain(data), sort_keys=True, allow_nan=False,
                      default=lambda value: value.tolist())  # arrays inside lists
    return (text + "\n").encode()


def test_plan_report_is_json_without_indentation():
    # a plan's blocks are arrays inside a tuple, reached through json's hook
    f = standard_pair("halving", 4)[0]
    plan = covering_unitary(f, FiberedSpace.uniform(f.source, 2))[1]
    assert any(isinstance(block, np.ndarray) for block in plan.source_blocks)
    assert report_bytes(plan) == _reference_bytes(plan)
    assert b"\n" not in report_bytes(plan)[:-1]


def _reflection(n=8, fiber_dim=1):
    return noisy_covering_unitary("reflection", n, 0, 2.0, 1, fiber_dim=fiber_dim)[0]


def _banded():
    return noisy_covering_unitary("identity", 8, 0, 1.0, 1)[0]


REPORTS = {
    "ql-exact-witness": lambda: quasi_locality_violation(_reflection(), 1.0, mode="exact"),
    "ql-exact-no-witness": lambda: quasi_locality_violation(_banded(), 7.0, mode="exact"),
    "ql-bounds-witness": lambda: quasi_locality_violation(_reflection(), 1.0, mode="bounds"),
    "ql-bounds-no-witness": lambda: quasi_locality_violation(_banded(), 7.0, mode="bounds"),
    "extraction": lambda: extract_pair(_reflection(fiber_dim=2), 0.5),
    "concentration": lambda: concentration_witness(_reflection(fiber_dim=2), 0, 1.0, None),
    "plan": lambda: covering_unitary(standard_pair("halving", 4)[0],
                                     FiberedSpace.uniform(path_space(8), 1))[1],
    "outer": lambda: outer_roundtrip(_reflection(10, fiber_dim=2), 0.5),
    "sweep-rows": lambda: {"rows": [cli._sweep_one("halving", 6, seed, 2.0, 2, 0.5) for seed in range(3)]},
    "space-file": lambda: path_space(5).to_json(),
    "matrix-space-file": lambda: FiniteMetricSpace([[0, 1.5], [1.5, 0]]).to_json(),
    "map-file": lambda: standard_pair("halving", 3)[0].to_json(),
}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_bytes_equal_the_reference_walk(name):
    report = REPORTS[name]()
    if name.startswith("ql-"):
        assert (report.witness is None) == name.endswith("no-witness")
    for data in (report, {"results": report}):  # alone, and in the CLI's envelope
        assert report_bytes(data) == _reference_bytes(data)
