"""End-to-end CLI runs against files on disk."""

import json
import struct
import threading

import numpy as np
import pytest

from roelab.cli import _build_parser, main
from roelab.extraction import extract_pair
from roelab.fixtures import hadamard_fixture, noisy_covering_unitary
from roelab.maps import PointMap, closeness
from roelab.operators import FiberedSpace, random_band_unitary
from roelab.serialize import report_bytes, save_map, save_space, write_operator
from roelab.spaces import path_space


@pytest.fixture
def hadamard_files(tmp_path):
    fib, U = hadamard_fixture()
    space = tmp_path / "space.json"
    unitary = tmp_path / "U.bin"
    save_space(space, fib.base)
    write_operator(unitary, U)
    return str(space), str(unitary)


def run(argv):
    return main(argv)


def read_without_timings(path):
    with open(path) as fh:
        data = json.load(fh)
    data.pop("timings", None)
    return report_bytes(data)


def test_extract_hadamard(hadamard_files, tmp_path):
    space, unitary = hadamard_files
    out = tmp_path / "extract.json"
    code = run(["extract", "--unitary", unitary, "--space", space,
                "--delta", "0.5", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    results = report["results"]
    assert results["R"] == 0.0
    assert results["witness_g"] == pytest.approx([0.70711, 0.70711], abs=1e-5)
    assert report["scenario"]["kind"] == "extract"
    assert "roelab" in report["versions"]


def test_witness_hadamard(hadamard_files, tmp_path):
    space, unitary = hadamard_files
    out = tmp_path / "witness.json"
    code = run(["witness", "--unitary", unitary, "--space", space,
                "--y", "0", "--radius", "2", "--out", str(out)])
    assert code == 0
    results = json.loads(out.read_text())["results"]
    assert results["delta_actual"] == pytest.approx(0.70711, abs=1e-5)
    assert results["certificate"] == pytest.approx(0.5, abs=1e-5)
    assert results["bound"] == pytest.approx(0.35355, abs=1e-5)


def test_cover_halving_map(tmp_path):
    f = PointMap(path_space(10), path_space(5), [i // 2 for i in range(10)])
    map_path = tmp_path / "halving.json"
    save_map(map_path, f)
    out = tmp_path / "cover.json"
    saved = tmp_path / "W.bin"
    code = run(["cover", "--map", str(map_path), "--fibers", "1",
                "--save-unitary", str(saved), "--out", str(out)])
    assert code == 0
    results = json.loads(out.read_text())["results"]
    assert results["unitarity_residual"] <= 1e-12
    assert results["support_radius"] == 0.0
    assert saved.exists()


def test_ql_banded_unitary(tmp_path):
    X = path_space(8)
    fib = FiberedSpace.uniform(X, 1)
    V = random_band_unitary(fib, 2.0, 1, seed=0)
    space, unitary = tmp_path / "space.json", tmp_path / "V.bin"
    save_space(space, X)
    write_operator(unitary, V)
    out = tmp_path / "ql.json"
    code = run(["ql", "--unitary", str(unitary), "--space", str(space),
                "--radius", "2", "--out", str(out)])
    assert code == 0
    results = json.loads(out.read_text())["results"]
    assert results["violation_lower"] <= 1e-12
    assert results["exact"] is True


def test_ql_exact_above_limit_exits_2(tmp_path, capsys):
    X = path_space(17)
    V = random_band_unitary(FiberedSpace.uniform(X, 1), 1.0, 1, seed=0)
    space, unitary = tmp_path / "space.json", tmp_path / "V.bin"
    save_space(space, X)
    write_operator(unitary, V)
    code = run(["ql", "--unitary", str(unitary), "--space", str(space),
                "--radius", "1", "--mode", "exact"])
    assert code == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "ValueError"
    assert "limited to 16 points" in err["message"] and "mode='bounds'" in err["message"]


def test_outer_roundtrip_cli(tmp_path):
    X = path_space(8)
    fib = FiberedSpace.uniform(X, 1)
    V = random_band_unitary(fib, 2.0, 1, seed=1)
    space, unitary = tmp_path / "space.json", tmp_path / "V.bin"
    save_space(space, X)
    write_operator(unitary, V)
    out = tmp_path / "outer.json"
    code = run(["outer", "--unitary", str(unitary), "--space", str(space),
                "--radius-grid", "0,2,4", "--out", str(out)])
    assert code == 0
    results = json.loads(out.read_text())["results"]
    assert [w[0] for w in results["windows"]] == [0.0, 2.0, 4.0]


def test_sweep_writes_rows_and_csv(tmp_path):
    out = tmp_path / "sweep.json"
    csv = tmp_path / "sweep.csv"
    code = run(["sweep", "--h", "identity", "--n", "8", "--seeds", "3",
                "--csv", str(csv), "--out", str(out)])
    assert code == 0
    rows = json.loads(out.read_text())["results"]["rows"]
    assert [r["seed"] for r in rows] == [0, 1, 2]
    for r in rows:
        # closeness(f, h) <= omega_h(R + layers * noise radius) + support radius of the cover
        _, h, plan = noisy_covering_unitary("identity", 8, r["seed"], 2.0, 1)
        assert r["budget"] == h.modulus(r["R"] + 2.0) + plan.support_radius
        assert r["closeness_f_h"] <= r["budget"]
    lines = csv.read_text().strip().split("\n")
    assert len(lines) == 4
    assert lines[0] == "seed,R,closeness_f_h,closeness_fg,closeness_gf,budget"
    assert [float(line.split(",")[-1]) for line in lines[1:]] == [r["budget"] for r in rows]


@pytest.mark.parametrize("kind, n, layers, seeds", [("halving", 40, 2, 4), ("reflection", 12, 1, 3)])
def test_sweep_rows_match_a_cover_built_per_seed(kind, n, layers, seeds, tmp_path):
    out = tmp_path / "sweep.json"
    assert run(["sweep", "--h", kind, "--n", str(n), "--layers", str(layers),
                "--seeds", str(seeds), "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["results"]["rows"]
    assert len(rows) == seeds
    for seed, row in enumerate(rows):
        U, h, plan = noisy_covering_unitary(kind, n, seed, 2.0, layers)
        rep = extract_pair(U, 0.5)
        expected = {
            "seed": seed,
            "R": rep.R,
            "closeness_f_h": closeness(rep.f, h),
            "budget": h.modulus(rep.R + layers * 2.0) + plan.support_radius,
            "closeness_fg": rep.equivalence.closeness_fg,
            "closeness_gf": rep.equivalence.closeness_gf,
        }
        assert row.keys() == expected.keys()
        for key in expected:
            assert row[key] == expected[key], key


@pytest.fixture
def command_argv(hadamard_files, tmp_path):
    """Valid argv, without --out, for each of the six subcommands."""
    space, unitary = hadamard_files
    f = PointMap(path_space(10), path_space(5), [i // 2 for i in range(10)])
    map_path = tmp_path / "halving.json"
    save_map(map_path, f)
    on_unitary = ["--unitary", unitary, "--space", space]
    return {
        "extract": ["extract"] + on_unitary,
        "cover": ["cover", "--map", str(map_path)],
        "witness": ["witness"] + on_unitary + ["--y", "0", "--radius", "2"],
        "ql": ["ql"] + on_unitary + ["--radius", "1"],
        "outer": ["outer"] + on_unitary,
        "sweep": ["sweep", "--h", "reflection", "--n", "8", "--seeds", "4"],
    }


@pytest.mark.parametrize("command", ["extract", "cover", "witness", "ql", "outer", "sweep"])
def test_scenario_records_every_parsed_argument(command, command_argv, tmp_path):
    out = tmp_path / "report.json"
    assert run(command_argv[command] + ["--out", str(out)]) == 0
    parsed = vars(_build_parser().parse_args(command_argv[command]))
    scenario = json.loads(out.read_text())["scenario"]
    assert set(scenario) == set(parsed) - {"func", "command", "out"} | {"kind"}
    assert scenario["kind"] == command


@pytest.mark.parametrize("command", ["extract", "sweep"])
def test_repeated_run_identical_apart_from_timings(command, command_argv, tmp_path):
    reports = []
    for tag in ("a", "b"):
        out = tmp_path / f"{command}_{tag}.json"
        assert run(command_argv[command] + ["--out", str(out)]) == 0
        reports.append(read_without_timings(out))
    assert reports[0] == reports[1]


def test_sweep_starts_no_thread(command_argv, tmp_path, monkeypatch):
    argv = command_argv["sweep"]
    expected = tmp_path / "expected.json"
    assert run(argv + ["--out", str(expected)]) == 0

    def refuse(self):
        raise RuntimeError("sweep started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    out = tmp_path / "sweep.json"
    assert run(argv + ["--out", str(out)]) == 0
    assert read_without_timings(out) == read_without_timings(expected)


@pytest.mark.parametrize("command", ["extract", "cover", "witness", "ql", "outer", "sweep"])
def test_unwritable_out_exits_2(command, command_argv, tmp_path, capsys):
    out = tmp_path / "missing" / "report.json"
    assert run(command_argv[command] + ["--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["type"] == "FileNotFoundError"


@pytest.mark.parametrize("command, extra", [
    pytest.param("ql", ["--radius", "nan"], id="ql-nan"),
    pytest.param("ql", ["--radius", "nan", "--mode", "bounds"], id="ql-bounds-nan"),
    pytest.param("ql", ["--radius", "inf"], id="ql-inf"),
    pytest.param("witness", ["--radius", "nan"], id="witness-nan"),
    pytest.param("outer", ["--radius-grid", "0,nan"], id="outer-nan"),
    pytest.param("sweep", ["--noise-radius", "nan"], id="sweep-nan"),
    pytest.param("cover", ["--separation", "nan"], id="cover-nan"),
])
def test_non_finite_argument_exits_2(command, extra, command_argv, capsys):
    # the later flag overrides the valid value in command_argv
    assert run(command_argv[command] + extra) == 2
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["type"] == "ValueError"


def test_malformed_space_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 2, "dist": [[0, 1], [2, 0]]}))
    unitary = tmp_path / "whatever.bin"
    unitary.write_bytes(b"ROELAB1\x00")
    code = run(["extract", "--unitary", str(unitary), "--space", str(bad)])
    assert code == 2
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["type"] == "ValueError"
    assert "symmetr" in err["error"]["message"] or "metric" in err["error"]["message"]


@pytest.mark.parametrize("space_json", [
    pytest.param('{"n": 2, "dist": [[0, NaN], [NaN, 0]]}', id="dist-nan"),
    pytest.param('{"n": 2, "dist": [[0, Infinity], [Infinity, 0]]}', id="dist-inf"),
    pytest.param('{"n": 2, "edges": [[0, NaN]]}', id="edges-nan"),
])
def test_non_finite_space_exits_2(space_json, hadamard_files, tmp_path, capsys):
    _, unitary = hadamard_files
    bad = tmp_path / "bad.json"
    bad.write_text(space_json)
    assert run(["extract", "--unitary", unitary, "--space", str(bad)]) == 2
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["type"] == "ValueError"


@pytest.mark.parametrize("command, extra", [
    pytest.param("ql", ["--radius", "0"], id="ql"),
    pytest.param("extract", [], id="extract"),
])
def test_huge_entries_exit_2(command, extra, tmp_path, capsys):
    X = path_space(4)
    V = random_band_unitary(FiberedSpace.uniform(X, 1), 1.0, 1, seed=0)
    space, unitary = tmp_path / "space.json", tmp_path / "V.bin"
    save_space(space, X)
    write_operator(unitary, V)
    raw = unitary.read_bytes()
    header = len(raw) - 16 * V.matrix.size
    unitary.write_bytes(raw[:header] + (np.frombuffer(raw, "<f8", offset=header) * 1e160).tobytes())
    assert run([command, "--unitary", str(unitary), "--space", str(space)] + extra) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err == {"type": "ValueError",
                   "message": "operator entries must be finite and below 1e150 in modulus"}


def test_oversized_header_exits_2(tmp_path, capsys):
    space = tmp_path / "space.json"
    save_space(space, path_space(1))
    unitary = tmp_path / "huge.bin"
    unitary.write_bytes(b"ROELAB1\x00" + struct.pack("<II", 1, 1 << 22))
    code = run(["extract", "--unitary", str(unitary), "--space", str(space)])
    assert code == 2
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["type"] == "ValueError"
    assert "payload" in err["error"]["message"]


def test_missing_file_exits_2(tmp_path, capsys):
    code = run(["ql", "--unitary", str(tmp_path / "nope.bin"),
                "--space", str(tmp_path / "nope.json"), "--radius", "1"])
    assert code == 2
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["type"] == "FileNotFoundError"
