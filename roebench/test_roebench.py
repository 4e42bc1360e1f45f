"""Tests of the benchmark itself: every check passes on real reports and
rejects a tampered one, tracing restores what it patches, and the metric
lists agree with BENCHMARK.json.

    python -m pytest roebench
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import workloads
from roelab import extraction, operators, serialize, spaces
from spans import Tracer, layer_totals

ROOT = Path(__file__).resolve().parent.parent


def results_of(op):
    status, text = workloads.run_op(op)
    assert status == 0, text
    return json.loads(text)["results"]


def rejected(op, results, name):
    with pytest.raises(checks.CheckFailed) as info:
        op.check(results)
    assert info.value.name == name, str(info.value)


@pytest.fixture
def extract_ops(tmp_path):
    w = workloads.Extract(5, tmp_path)
    w.inputs = [("reflection", 24), ("halving", 12)]
    return w.set_up()


def test_extract_accepts_reports(extract_ops):
    for op in extract_ops:
        op.check(results_of(op))


def test_extract_rejects_perturbed_witness(extract_ops):
    op = extract_ops[0]
    results = results_of(op)
    results["witness_g"][3] += 1e-6
    rejected(op, results, "extract.witness_g")


def test_extract_rejects_swapped_map_entry(extract_ops):
    op = extract_ops[0]
    results = results_of(op)
    f = results["f"]
    f[0], f[-1] = f[-1], f[0]
    rejected(op, results, "extract.witness_f")


def test_extract_rejects_radius_above_minimal(tmp_path):
    w = workloads.Extract(5, tmp_path)
    w.inputs = [("reflection", 24)]
    op = w.set_up()[0]
    results = results_of(op)
    space = serialize.load_space(op.argv[op.argv.index("--space") + 1])
    T = serialize.read_operator(op.argv[op.argv.index("--unitary") + 1], space)
    R = results["R"] + 1
    g, witness_g = extraction.extract_map(T, w.delta, R)
    f, witness_f = extraction.extract_map(T.adjoint(), w.delta, R)
    larger = dict(results, R=R, g=g.values.tolist(), f=f.values.tolist(),
                  witness_g=witness_g.tolist(), witness_f=witness_f.tolist())
    rejected(op, larger, "extract.minimal_radius")


@pytest.fixture
def ql_ops(tmp_path):
    w = workloads.QLBounds(5, tmp_path)
    w.band_n, w.reflection_n = 30, 24
    return w.set_up()


def test_ql_bounds_band_passes_and_reflection_hits_known_fault(ql_ops):
    band, reflection = ql_ops[0], ql_ops[1]
    band.check(results_of(band))
    rejected(reflection, results_of(reflection), "ql.upper_le_norm")
    assert "ql.upper_le_norm" in checks.KNOWN_FAULTS


def test_ql_bounds_rejects_too_small_upper(ql_ops):
    op = ql_ops[0]
    results = results_of(op)
    results["violation_upper"] = results["violation_lower"] - 1e-3
    rejected(op, results, "ql.lower_le_upper")


def test_ql_bounds_rejects_perturbed_witness(ql_ops):
    op = ql_ops[0]
    results = results_of(op)
    results["violation_lower"] += 1e-6
    rejected(op, results, "ql.witness")
    results = results_of(op)
    results["witness"]["A"] = results["witness"]["B"]
    rejected(op, results, "ql.witness")


@pytest.fixture
def outer_ops(tmp_path):
    w = workloads.OuterExact(3, tmp_path)
    w.sizes = (9, 8)
    return w.set_up()


def test_outer_accepts_reports_and_matches_brute_force(outer_ops):
    for op in outer_ops:
        op.check(results_of(op))


def test_outer_rejects_too_small_upper(outer_ops):
    op = outer_ops[0]
    results = results_of(op)
    R, lower, _ = results["windows"][0]
    results["windows"][0] = [R, lower, lower - 1e-3]
    rejected(op, results, "outer.window_order")


def test_outer_rejects_wrong_exact_value_and_cover(outer_ops):
    op = outer_ops[1]  # the 8-point input, checked by brute force
    results = results_of(op)
    # lower the last positive lower member; order and monotonicity still hold
    k = max(i for i, (_, lower, _) in enumerate(results["windows"]) if lower > 1e-3)
    R, lower, upper = results["windows"][k]
    results["windows"][k] = [R, lower - 1e-6, upper]
    rejected(op, results, "outer.exact_vs_brute")
    results = results_of(op)
    assignment = results["plan"]["assignment"]
    assignment[0] = assignment[1]
    rejected(op, results, "outer.cover")


@pytest.fixture
def sweep_op(tmp_path, monkeypatch):
    monkeypatch.setenv("ROELAB_THREADS", "2")
    w = workloads.Sweep(1, tmp_path)
    w.n, w.seeds = 12, 4
    ops = w.set_up()
    w.prepare_checks(ops)
    return ops[0]


def test_sweep_accepts_and_rejects(sweep_op):
    results = results_of(sweep_op)
    sweep_op.check(results)
    bumped = copy.deepcopy(results)
    bumped["rows"][0]["closeness_f_h"] += 100.0
    rejected(sweep_op, bumped, "sweep.closeness_bound")
    changed = copy.deepcopy(results)
    changed["rows"][0]["closeness_fg"] += 1e-12
    rejected(sweep_op, changed, "sweep.single_thread")


def test_tracer_records_spans_and_restores_originals():
    original_norm = operators.spectral_norm
    original_corner = operators.BlockOperator.corner_norm
    tracer = Tracer()
    targets = [
        ("roelab.operators", "spectral_norm", "operators.spectral_norm"),
        ("roelab.operators", "BlockOperator.corner_norm", "operators.corner_norm"),
        ("roelab.operators", "no_such_function", "operators.missing"),
    ]
    assert tracer.install(targets) == ["operators.missing"]
    try:
        from roelab import locality

        assert locality.spectral_norm is operators.spectral_norm is not original_norm
        space = operators.FiberedSpace.uniform(spaces.path_space(4), 1)
        T = operators.identity_operator(space)
        T.corner_norm([0, 1], [1])
    finally:
        tracer.uninstall()
    assert operators.spectral_norm is original_norm
    assert operators.BlockOperator.corner_norm is original_corner
    totals = layer_totals(tracer.names, tracer.spans())
    assert totals["operators.corner_norm"]["calls"] == 1
    assert totals["operators.spectral_norm"]["calls"] == 1
    assert 0 <= totals["operators.corner_norm"]["self_s"]


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(39) is None
    assert run.tail_percentile(40) == 75
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(1000) == 99


def test_end_to_end_times_are_scaled_by_the_calibration(monkeypatch):
    """A host k times slower stretches the ops and the calibration loop
    alike; the reported figures do not move."""
    monkeypatch.setattr(run, "peak_rss_mb", lambda: 50.0)
    calibrate = run.Calibration("dense")
    ref = calibrate.REFERENCE_S["dense"]

    def figures(k):
        measured = run.Pass([0.3 * k, 0.5 * k] * 3, [0.4 * k, 0.5 * k] * 3,
                            [ref * k, ref * k * 1.1] * 3, [])
        return {name: m["value"] for name, m in
                run.end_to_end_metrics(measured, calibrate, [k], [1.0]).items()}

    fast, slow = figures(1.0), figures(1.7)
    for name in ("ops_per_s", "cpu_s_per_op"):
        assert slow[name] == pytest.approx(fast[name])
    assert fast["ops_per_s"] == pytest.approx(2 / (0.8 / 1.05))
    assert calibrate.scale([ref, ref]) == pytest.approx(1.0)
    assert all(run.Calibration(kind)() > 0 for kind in run.Calibration.REFERENCE_S)
    assert {w.calibration for w in workloads.WORKLOADS.values()} <= set(run.Calibration.REFERENCE_S)


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the run fails without a result."""
    shutil.copytree(ROOT / "roebench", tmp_path / "roebench",
                    ignore=shutil.ignore_patterns("work", "out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "roebench/run.py", "--workload", "extract", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
