"""End-to-end CLI runs against files on disk."""

import json
import os
import struct
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import roelab
from roelab import cli
from roelab.cli import _build_parser, main
from roelab.concentration import concentration_witness
from roelab.covering import covering_unitary
from roelab.extraction import extract_pair
from roelab.fixtures import noisy_covering_unitary, standard_pair
from roelab.maps import PointMap, closeness
from roelab.operators import BlockOperator, FiberedSpace, random_band_unitary
from roelab.serialize import report_bytes, save_map, save_space, write_operator
from roelab.spaces import path_space

from hadamard import hadamard_fixture


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


def test_witness_h_index_all_tries_every_fiber_vector(tmp_path, capsys):
    U, _, _ = noisy_covering_unitary("reflection", 6, 0, fiber_dim=2)
    space, unitary = tmp_path / "space.json", tmp_path / "U.bin"
    save_space(space, U.source.base)
    write_operator(unitary, U)
    on_unitary = ["witness", "--unitary", str(unitary), "--space", str(space), "--y", "0",
                  "--radius", "0"]
    assert run(on_unitary + ["--h-index", "all"]) == 0
    report = json.loads(capsys.readouterr().out)
    expected = concentration_witness(U, 0, 0.0, None)
    assert expected.h_index == 1  # the default index 0 gives a smaller certificate
    assert report_bytes(report["results"]) == report_bytes(expected)
    assert report["scenario"]["h_index"] == "all" and "sweep_h" not in report["scenario"]
    assert run(on_unitary + ["--h-index", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["results"] == report["results"]
    assert run(on_unitary + ["--h-index", "1.5"]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "ArgumentError"


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


def test_refused_cover_writes_no_unitary(tmp_path, capsys):
    # the plan records separation inf, which JSON cannot hold: the run is
    # refused before the unitary file is written
    f = PointMap(path_space(6), path_space(3), [i // 2 for i in range(6)])
    map_path = tmp_path / "halving.json"
    save_map(map_path, f)
    saved = tmp_path / "U.bin"
    code = run(["cover", "--map", str(map_path), "--separation", "inf",
                "--save-unitary", str(saved)])
    assert code == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err == {"type": "ValueError",
                   "message": "Out of range float values are not JSON compliant: inf"}
    assert not saved.exists()


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


def test_ql_bounds_window_holds_an_entry_whose_square_underflows(tmp_path, capsys):
    # fibers [1, 1, 1] into [2, 1, 1] differ, so the file has flag bit 0 set
    source = FiberedSpace(path_space(3), [1, 1, 1])
    target = FiberedSpace(path_space(3), [2, 1, 1])
    T = BlockOperator(source, target, [[1, 0, 0], [0, 0, 0], [0, 1, 0], [1e-170, 0, 1]])
    space, unitary = tmp_path / "space.json", tmp_path / "T.bin"
    save_space(space, path_space(3))
    write_operator(unitary, T)
    assert unitary.read_bytes()[7] & 1
    windows = {}
    for mode in ("exact", "bounds"):
        assert run(["ql", "--unitary", str(unitary), "--space", str(space), "--source-space",
                    str(space), "--radius", "1", "--mode", mode]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        windows[mode] = (results["violation_lower"], results["violation_upper"])
    assert windows == {"exact": (1e-170, 1e-170), "bounds": (1e-170, 1e-170)}


def test_ql_bounds_results_do_not_depend_on_the_blas_thread_count(tmp_path):
    # README's noisy 120-point reflection cover: its norms split into
    # components too small for OpenBLAS to thread.  The test can only fail
    # on a host with at least 2 cores: with one, both runs use one thread.
    U, _, _ = noisy_covering_unitary("reflection", 120, 1, 2.0, 1)
    space, unitary = tmp_path / "space.json", tmp_path / "U.bin"
    save_space(space, U.source.base)
    write_operator(unitary, U)
    argv = ["ql", "--unitary", str(unitary), "--space", str(space), "--mode", "bounds", "--radius", "3"]
    src = str(Path(roelab.__file__).resolve().parents[1])
    results = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from roelab.cli import main; sys.exit(main(sys.argv[1:]))",
             *argv],
            env=env, capture_output=True, text=True, check=True,
        )
        results.append(json.loads(done.stdout)["results"])
    assert results[0] == results[1]


def test_module_runs_as_a_script():
    # `python -m roelab.cli` reaches `main` through the module's own entry
    src = str(Path(roelab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def script(*argv):
        return subprocess.run([sys.executable, "-m", "roelab.cli", *argv],
                              env=env, capture_output=True, text=True)

    version = script("--version")
    assert (version.returncode, version.stdout) == (0, f"roelab {roelab.__version__}\n")
    refused = script("ql")
    assert refused.returncode == 2
    assert json.loads(refused.stdout) == {"error": {
        "type": "ArgumentError",
        "message": "the following arguments are required: --unitary, --space, --radius"}}


def test_one_parser_serves_every_call_of_a_process(command_argv, capsys):
    # the parser is built once; no call, a rejected one included, may
    # change what a later call reports
    ql = command_argv["ql"] + ["--mode", "bounds"]
    parser = _build_parser()

    def results_of(argv):
        assert run(argv) == 0
        return report_bytes(json.loads(capsys.readouterr().out)["results"])

    first = results_of(ql)
    results_of(command_argv["extract"])
    assert run(["ql", "--radius", "1", "--mode", "sideways"]) == 2  # the parser rejects the mode
    assert run(ql + ["--radius", "nan"]) == 2
    capsys.readouterr()
    assert results_of(ql) == first
    assert _build_parser() is parser


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


# (seed, R, closeness_f_h, closeness_fg, closeness_gf, budget) of two
# four-layer sweeps at delta 0.7, where R differs across seeds.  The rows
# follow from the seeded draws of `random_band_unitary`, so a changed
# draw order moves them; they are path distances, not BLAS bits.
_PINNED_SWEEPS = [
    pytest.param("reflection", 16, [
        (0, 1.0, 3.0, 3.0, 3.0, 9.0),
        (1, 1.0, 7.0, 7.0, 9.0, 9.0),
        (2, 2.0, 3.0, 3.0, 4.0, 10.0),
        (3, 1.0, 3.0, 3.0, 3.0, 9.0),
    ], id="reflection"),
    pytest.param("halving", 8, [
        (0, 0.0, 1.0, 0.0, 4.0, 4.0),
        (1, 1.0, 3.0, 3.0, 6.0, 5.0),
        (2, 1.0, 1.0, 1.0, 3.0, 5.0),
        (3, 1.0, 1.0, 1.0, 4.0, 5.0),
    ], id="halving"),
]


@pytest.mark.parametrize("kind, n, rows", _PINNED_SWEEPS)
def test_sweep_rows_are_pinned(kind, n, rows, tmp_path):
    out = tmp_path / "sweep.json"
    assert run(["sweep", "--h", kind, "--n", str(n), "--layers", "4", "--noise-radius", "2",
                "--delta", "0.7", "--seeds", "4", "--out", str(out)]) == 0
    keys = ("seed", "R", "closeness_f_h", "closeness_fg", "closeness_gf", "budget")
    got = json.loads(out.read_text())["results"]["rows"]
    assert [tuple(row[k] for k in keys) for row in got] == rows


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


_EQUIVALENCE = {"modulus_f", "modulus_g", "closeness_fg", "closeness_gf"}
_EXTRACTION = {"delta", "R", "g", "f", "witness_g", "witness_f", "equivalence"}
_PLAN = {"net", "separation", "source_blocks", "target_blocks", "assignment",
         "support_radius", "target_fiber_dims", "spill"}
# per subcommand: the keys of `results`, and of each object nested in it by key
_REPORT_KEYS = {
    "extract": (_EXTRACTION, {"equivalence": _EQUIVALENCE}),
    "cover": ({"plan", "unitarity_residual", "support_radius"}, {"plan": _PLAN}),
    "witness": ({"y", "R", "delta_actual", "A", "certificate", "bound", "signs", "h_index",
                 "degenerate"}, {}),
    "ql": ({"R", "violation_lower", "violation_upper", "exact", "witness"}, {"witness": {"A", "B"}}),
    "outer": ({"extraction", "plan", "windows", "residual_U", "residual_W"},
              {"extraction": _EXTRACTION, "equivalence": _EQUIVALENCE, "plan": _PLAN}),
    "sweep": ({"rows"}, {}),
}


def _nested_objects(data):
    for key, value in data.items():
        if isinstance(value, dict):
            yield key, value
            yield from _nested_objects(value)


@pytest.mark.parametrize("command", ["extract", "cover", "witness", "ql", "outer", "sweep"])
def test_report_keys(command, command_argv, capsys):
    # a report key is its dataclass field's name, so renaming a field
    # would rename the key; these are the keys reports have always had
    assert run(command_argv[command]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    keys, nested = _REPORT_KEYS[command]
    assert set(results) == keys
    assert {key: set(value) for key, value in _nested_objects(results)} == nested
    if command == "sweep":
        assert {frozenset(row) for row in results["rows"]} == {frozenset(
            {"seed", "R", "closeness_f_h", "budget", "closeness_fg", "closeness_gf"})}


@pytest.mark.parametrize("command", ["extract", "cover", "witness", "ql", "outer", "sweep"])
def test_report_is_one_line_and_reencodes_to_itself(command, command_argv, capsys):
    assert run(command_argv[command]) == 0
    out = capsys.readouterr().out.encode()
    assert out.endswith(b"\n") and out.count(b"\n") == 1
    assert report_bytes(json.loads(out)) == out


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
    # vacuous or malformed lists: no seeds, no radii, an empty item
    pytest.param("sweep", ["--seeds", "0"], id="sweep-no-seeds"),
    pytest.param("sweep", ["--seeds", "-3"], id="sweep-negative-seeds"),
    pytest.param("outer", ["--radius-grid", ","], id="outer-empty-grid"),
    pytest.param("outer", ["--radius-grid", "0,,3"], id="outer-empty-radius"),
    pytest.param("cover", ["--fibers", "1,,1,1,1,1,1,1,1,1,1"], id="cover-empty-fiber"),
])
def test_non_finite_argument_exits_2(command, extra, command_argv, capsys):
    # the later flag overrides the valid value in command_argv
    assert run(command_argv[command] + extra) == 2
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["type"] == "ValueError"


@pytest.mark.parametrize("command, extra, message", [
    pytest.param("ql", ["--radius", "-1"], "separation radius", id="ql"),
    pytest.param("ql", ["--radius", "-1", "--mode", "bounds"], "separation radius", id="ql-bounds"),
    pytest.param("witness", ["--radius", "-1"], "radius", id="witness"),
    pytest.param("outer", ["--radius-grid", "0,-1"], "separation radius", id="outer"),
    pytest.param("sweep", ["--noise-radius", "-1"], "band radius", id="sweep"),
    pytest.param("cover", ["--separation", "-1"], "separation", id="cover"),
])
def test_negative_scale_exits_2_naming_it(command, extra, message, command_argv, capsys):
    assert run(command_argv[command] + extra) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err == {"type": "ValueError", "message": f"{message} must be a real number >= 0, got -1.0"}


@pytest.mark.parametrize("command, negative, zero", [
    pytest.param("ql", ["--radius", "-0"], ["--radius", "0"], id="ql"),
    pytest.param("ql", ["--radius", "-0", "--mode", "bounds"], ["--radius", "0", "--mode", "bounds"],
                 id="ql-bounds"),
    pytest.param("witness", ["--radius", "-0"], ["--radius", "0"], id="witness"),
    pytest.param("outer", ["--radius-grid=-0,1"], ["--radius-grid=0,1"], id="outer"),
])
def test_negative_zero_radius_reads_as_zero(command, negative, zero, command_argv, capsys):
    # -0 passes the check R >= 0, and the report prints the checked radius, +0
    results = []
    for extra in (negative, zero):
        assert run(command_argv[command] + extra) == 0
        results.append(report_bytes(json.loads(capsys.readouterr().out)["results"]))
    assert results[0] == results[1]


@pytest.mark.parametrize("argv, message", [
    pytest.param(["ql", "--radius", "abc"], "invalid float value: 'abc'", id="mistyped"),
    pytest.param(["ql"], "required: --unitary, --space, --radius", id="missing"),
    pytest.param(["ql", "--radius", "1", "--mode", "sideways"], "invalid choice: 'sideways'", id="choice"),
    pytest.param(["sideways"], "invalid choice: 'sideways'", id="subcommand"),
    pytest.param([], "required: command", id="no-subcommand"),
    pytest.param(["sweep", "--bogus"], "unrecognized arguments: --bogus", id="unknown-option"),
])
def test_parse_error_exits_2(argv, message, capsys):
    # the parser's own errors keep the structured error contract
    assert run(argv) == 2
    captured = capsys.readouterr()
    err = json.loads(captured.out)["error"]
    assert err["type"] == "ArgumentError"
    assert message in err["message"]
    assert captured.err == ""


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_exit_0(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        run([flag])
    assert exc.value.code == 0
    assert "roelab" in capsys.readouterr().out


def test_malformed_space_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 2, "dist": [[0, 1], [2, 0]]}))
    unitary = tmp_path / "whatever.bin"
    unitary.write_bytes(b"ROELAB2\x00")
    code = run(["extract", "--unitary", str(unitary), "--space", str(bad)])
    assert code == 2
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["type"] == "ValueError"
    assert "symmetr" in err["error"]["message"] or "metric" in err["error"]["message"]


def test_space_with_float_point_count_exits_2(hadamard_files, tmp_path, capsys):
    _, unitary = hadamard_files
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 3.5, "edges": [[0, 1], [1, 2]]}))
    assert run(["extract", "--unitary", unitary, "--space", str(bad)]) == 2
    err = json.loads(capsys.readouterr().out)
    assert err == {"error": {"type": "ValueError",
                             "message": "space JSON: 'n' must be an integer, got 3.5"}}


@pytest.mark.parametrize("text, message", [
    ("5", "space JSON must be an object, got 5"),
    ('"n"', "space JSON must be an object, got 'n'"),
    ('{"n": 2, "dist": [[0, 1], [1, 0]], "edges": [[0, 1]]}',
     "space JSON needs either a 'dist' matrix or an 'edges' list, not both"),
])
def test_malformed_space_file_exits_2(text, message, hadamard_files, tmp_path, capsys):
    _, unitary = hadamard_files
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert run(["extract", "--unitary", unitary, "--space", str(bad)]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == {"type": "ValueError", "message": message}


def test_map_with_float_table_exits_2(tmp_path, capsys):
    # a table entry of 0.7 used to load as 0, silently a different map
    data = PointMap(path_space(4), path_space(2), [0, 0, 1, 1]).to_json()
    data["table"][1] = 0.7
    bad = tmp_path / "bad_map.json"
    bad.write_text(json.dumps(data))
    assert run(["cover", "--map", str(bad), "--fibers", "1"]) == 2
    err = json.loads(capsys.readouterr().out)
    assert err == {"error": {"type": "ValueError",
                             "message": "map values must be integers, got 0.7"}}


def test_cover_without_enough_fiber_room_exits_2(tmp_path, capsys):
    path = tmp_path / "map.json"
    save_map(path, PointMap(path_space(2), path_space(3), [0, 2]))
    assert run(["cover", "--map", str(path), "--fibers", "1"]) == 2
    err = json.loads(capsys.readouterr().out)
    assert err == {"error": {"type": "ValueError", "message": (
        "cannot reconcile fibers: block around net point with source total 1 must cover "
        "2 target points; increase source fiber dims"
    )}}


EXTRACT = ["extract", "--delta", "0.7"]
QL_BOUNDS = ["ql", "--mode", "bounds", "--radius", "3"]


@pytest.mark.parametrize("kind, n, commands", [
    pytest.param("reflection", 20, [EXTRACT, QL_BOUNDS], id="reflection"),
    pytest.param("halving", 10, [EXTRACT], id="halving"),  # ql needs one base space
])
def test_results_equal_from_dist_and_edges_space_files(kind, n, commands, tmp_path, capsys):
    # the form of a space file is a storage choice: results are byte-equal
    U, _, _ = noisy_covering_unitary(kind, n, 3, 2.0, 2)
    unitary = tmp_path / "U.bin"
    write_operator(unitary, U)
    sides = [("--space", U.target.base)]
    if U.source != U.target:
        sides.append(("--source-space", U.source.base))
    argv = {"dist": ["--unitary", str(unitary)], "edges": ["--unitary", str(unitary)]}
    for flag, base in sides:
        old, new = tmp_path / f"dist{flag}.json", tmp_path / f"edges{flag}.json"
        old.write_text(json.dumps({"n": base.n, "dist": base.dist.tolist()}))
        save_space(new, base)
        assert "edges" in json.loads(new.read_text())
        argv["dist"] += [flag, str(old)]
        argv["edges"] += [flag, str(new)]
    for command in commands:
        results = []
        for form in ("dist", "edges"):
            assert run(command[:1] + argv[form] + command[1:]) == 0
            results.append(report_bytes(json.loads(capsys.readouterr().out)["results"]))
        assert results[0] == results[1]


@pytest.mark.parametrize("space_json, bad", [
    pytest.param({"n": 2, "dist": [[0, True], [True, 0]]}, "True", id="dist-bool"),
    pytest.param({"n": 2, "dist": [["0", "1"], ["1", "0"]]}, "'0'", id="dist-string"),
])
def test_dist_entry_that_is_not_real_exits_2(space_json, bad, hadamard_files, tmp_path, capsys):
    # both files used to load silently as the 2-point path
    _, unitary = hadamard_files
    space = tmp_path / "bad.json"
    space.write_text(json.dumps(space_json))
    assert run(["ql", "--unitary", unitary, "--space", str(space), "--radius", "1"]) == 2
    err = json.loads(capsys.readouterr().out)
    assert err == {"error": {"type": "ValueError",
                             "message": f"every distance must be a real number, got {bad}"}}


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


def test_payload_cut_inside_a_float_exits_2(tmp_path, capsys):
    X = path_space(3)
    space, unitary = tmp_path / "space.json", tmp_path / "V.bin"
    save_space(space, X)
    write_operator(unitary, random_band_unitary(FiberedSpace.uniform(X, 2), 1.0, 1, seed=0))
    unitary.write_bytes(unitary.read_bytes()[:-3])
    assert run(["extract", "--unitary", str(unitary), "--space", str(space)]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err == {"type": "ValueError",
                   "message": "payload holds 573 bytes, expected 576 (36 complex entries)"}


def test_unknown_flag_bits_exit_2(tmp_path, capsys):
    X = path_space(3)
    space, unitary = tmp_path / "space.json", tmp_path / "V.bin"
    save_space(space, X)
    write_operator(unitary, random_band_unitary(FiberedSpace.uniform(X, 1), 1.0, 1, seed=0))
    raw = unitary.read_bytes()
    unitary.write_bytes(raw[:7] + b"\x82" + raw[8:])
    assert run(["extract", "--unitary", str(unitary), "--space", str(space)]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err == {"type": "ValueError",
                   "message": "unknown flag bits in operator file: flags byte 0x82"}


def test_oversized_header_exits_2(tmp_path, capsys):
    space = tmp_path / "space.json"
    save_space(space, path_space(1))
    unitary = tmp_path / "huge.bin"
    unitary.write_bytes(b"ROELAB2\x00" + struct.pack("<II", 1, 1 << 22))
    code = run(["extract", "--unitary", str(unitary), "--space", str(space)])
    assert code == 2
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["type"] == "ValueError"
    assert "payload" in err["error"]["message"]


def test_block_order_file_exits_2(tmp_path, capsys):
    # the magic of the block-order format that came before row-major payloads
    X = path_space(3)
    space, unitary = tmp_path / "space.json", tmp_path / "V.bin"
    save_space(space, X)
    write_operator(unitary, random_band_unitary(FiberedSpace.uniform(X, 1), 1.0, 1, seed=0))
    unitary.write_bytes(b"ROELAB1" + unitary.read_bytes()[7:])
    assert run(["extract", "--unitary", str(unitary), "--space", str(space)]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err == {"type": "ValueError", "message": "not a ROELAB2 file: bad magic b'ROELAB1'"}


def test_missing_file_exits_2(tmp_path, capsys):
    code = run(["ql", "--unitary", str(tmp_path / "nope.bin"),
                "--space", str(tmp_path / "nope.json"), "--radius", "1"])
    assert code == 2
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["type"] == "FileNotFoundError"


@pytest.mark.parametrize("argv, error", [
    # the scenario records noise_radius inf, which JSON cannot hold
    pytest.param(["sweep", "--h", "identity", "--n", "4", "--seeds", "1", "--noise-radius", "inf",
                  "--csv", "{dir}/s.csv"],
                 {"type": "ValueError", "message": "Out of range float values are not JSON compliant: inf"},
                 id="sweep-csv"),
    pytest.param(["cover", "--map", "{dir}/map.json", "--save-unitary", "{dir}/U.bin",
                  "--out", "{dir}/missing/r.json"],
                 {"type": "FileNotFoundError",
                  "message": "[Errno 2] No such file or directory: '{dir}/missing/r.json'"},
                 id="cover-unwritable-out"),
    pytest.param(["sweep", "--h", "identity", "--n", "4", "--seeds", "1", "--csv", "{dir}/missing/s.csv",
                  "--out", "{dir}/r.json"],
                 {"type": "FileNotFoundError",
                  "message": "[Errno 2] No such file or directory: '{dir}/missing/s.csv'"},
                 id="sweep-unwritable-csv"),
])
def test_refused_run_leaves_no_file(argv, error, tmp_path, capsys):
    save_map(tmp_path / "map.json", standard_pair("identity", 4)[0])
    assert run([a.format(dir=tmp_path) for a in argv]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err == {k: v.format(dir=tmp_path) for k, v in error.items()}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["map.json"]


def test_side_files_keep_their_bytes(tmp_path):
    f = standard_pair("reflection", 8)[0]
    save_map(tmp_path / "map.json", f)
    assert run(["cover", "--map", str(tmp_path / "map.json"), "--fibers", "2",
                "--save-unitary", str(tmp_path / "U.bin"), "--out", str(tmp_path / "cover.json")]) == 0
    write_operator(tmp_path / "expected.bin", covering_unitary(f, FiberedSpace.uniform(f.source, 2))[0])
    assert (tmp_path / "U.bin").read_bytes() == (tmp_path / "expected.bin").read_bytes()
    assert run(["sweep", "--h", "reflection", "--n", "8", "--seeds", "3",
                "--csv", str(tmp_path / "s.csv"), "--out", str(tmp_path / "sweep.json")]) == 0
    rows = json.loads((tmp_path / "sweep.json").read_text())["results"]["rows"]
    keys = ("seed", "R", "closeness_f_h", "closeness_fg", "closeness_gf", "budget")
    expected = ",".join(keys) + "\n" + "".join(
        ",".join(format(row[k], ".17g") for k in keys) + "\n" for row in rows)
    assert (tmp_path / "s.csv").read_bytes() == expected.encode()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "U.bin", "cover.json", "expected.bin", "map.json", "s.csv", "sweep.json"]


@pytest.fixture
def entered(monkeypatch):
    """The work functions of `roelab.cli` called so far, each replaced by a
    stand-in that records its name: a refused output enters none of them."""
    names = []
    for name in ("read_operator", "load_map", "extract_pair", "quasi_locality_violation",
                 "covering_unitary", "noisy_covering_unitary"):
        monkeypatch.setattr(cli, name, lambda *args, name=name, **kwargs: names.append(name))
    return names


@pytest.mark.parametrize("argv", [
    pytest.param(["sweep", "--h", "identity", "--n", "4", "--seeds", "1", "--csv", "same.out",
                  "--out", "same.out"], id="sweep-csv"),
    pytest.param(["sweep", "--h", "identity", "--n", "4", "--seeds", "1", "--csv", "./same.out",
                  "--out", "same.out"], id="sweep-csv-dot"),
    pytest.param(["cover", "--map", "map.json", "--save-unitary", "same.out", "--out", "same.out"],
                 id="cover-unitary"),
    pytest.param(["cover", "--map", "map.json", "--save-unitary", "same.out",
                  "--out", "sub/../same.out"], id="cover-unitary-dotdot"),
])
def test_two_outputs_naming_one_file_are_refused(argv, tmp_path, monkeypatch, capsys, entered):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    save_map(tmp_path / "map.json", standard_pair("identity", 4)[0])
    assert run(argv) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    side = argv[argv.index("--out") - 1]
    assert err == {"type": "ValueError",
                   "message": f"two outputs name the same file: {side!r} and {argv[-1]!r}"}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["map.json", "sub"]
    assert entered == []  # refused before the command reads or computes anything


@pytest.mark.parametrize("argv, read", [
    pytest.param(["extract", "--unitary", "U.bin", "--space", "space.json", "--out", "U.bin"], "U.bin",
                 id="extract-out-unitary"),
    pytest.param(["ql", "--unitary", "U.bin", "--space", "space.json", "--radius", "1",
                  "--out", "./space.json"], "space.json", id="ql-out-space-dot"),
    pytest.param(["extract", "--unitary", "U.bin", "--space", "space.json", "--source-space", "source.json",
                  "--out", "sub/../source.json"], "source.json", id="extract-out-source-space"),
    pytest.param(["cover", "--map", "map.json", "--save-unitary", "map.json"], "map.json",
                 id="cover-unitary-map"),
    pytest.param(["cover", "--map", "map.json", "--out", "map.json"], "map.json", id="cover-out-map"),
])
def test_output_naming_an_input_is_refused(argv, read, hadamard_files, tmp_path, monkeypatch, capsys, entered):
    # `extract --out U.bin` used to replace the operator file with the report,
    # and later was refused only after the whole extraction had run
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    (tmp_path / "source.json").write_bytes((tmp_path / "space.json").read_bytes())
    save_map(tmp_path / "map.json", standard_pair("identity", 4)[0])
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
    assert run(argv) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err == {"type": "ValueError", "message": f"output {argv[-1]!r} would replace the input {read!r}"}
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before
    assert entered == []  # refused before the command reads or computes anything
