"""Acceptance gate: eleven numbered criteria, one printed line each.

Every criterion is computed by a pure run_criterion_N() returning a
JSON-serializable results dict; criterion 9 reruns each of the others
once, checks the serialized results are byte-identical to the first run,
and does the same for two CLI sweeps.  Timings stay outside the results
dicts.
"""

import hashlib
import json
import os
import sys
import tempfile
import time

import numpy as np

from roelab.cli import main as cli_main
from roelab.concentration import concentration_witness
from roelab.covering import covering_unitary, upgrade_trick
from roelab.extraction import MinimalRadiusError, extract_pair
from roelab.fixtures import noisy_covering_unitary, standard_pair
from roelab.locality import (
    approximability_window,
    quasi_locality_violation,
)
from roelab.maps import closeness, compose, identity_map
from roelab.operators import (
    BlockOperator,
    ROUNDING_MARGIN,
    FiberedSpace,
    random_band_unitary,
    supported_distance_upper,
)
from roelab.serialize import report_bytes
from roelab.signs import greedy_signs
from roelab.spaces import path_space

from conftest import random_fibered, random_graph_space, random_operator
from hadamard import hadamard_fixture
from sign_oracles import brute_force_signs, rademacher_average
from test_locality import ghost, naive_violation

_CACHE = {}


def run_cached(num):
    if num not in _CACHE:
        t0 = time.perf_counter()
        results = RUNNERS[num]()
        _CACHE[num] = (results, time.perf_counter() - t0)
    return _CACHE[num]


def _finish(capfd, num, failures, elapsed, summary):
    status = "PASS" if not failures else "FAIL"
    tail = "" if not failures else " | " + "; ".join(failures)
    with capfd.disabled():
        print(f"\n[criterion {num}] {status} ({elapsed:.1f}s) {summary}{tail}",
              file=sys.stdout, flush=True)
    assert not failures, f"criterion {num}: " + "; ".join(failures)


# -- 1: sign selection reaches the sum of squared norms --------------------

def run_criterion_1():
    rng = np.random.default_rng(2601)
    greedy_margin_min = np.inf
    brute_minus_greedy_min = np.inf
    rademacher_err_max = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        d = int(rng.integers(1, 9))
        fam = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(n)]
        stack = np.stack(fam)
        target = float(np.sum(np.abs(stack) ** 2))

        def value(signs):
            return float(np.linalg.norm(signs @ stack) ** 2)

        g = greedy_signs(fam)
        b = brute_force_signs(fam)
        greedy_margin_min = min(greedy_margin_min, g.achieved - target)
        # one shared evaluator, so brute >= greedy is exact when it holds
        brute_minus_greedy_min = min(brute_minus_greedy_min, value(b.signs) - value(g.signs))
        rademacher_err_max = max(rademacher_err_max, abs(rademacher_average(fam) - target))
    return {
        "families": 1000,
        "greedy_margin_min": float(greedy_margin_min),
        "brute_minus_greedy_min": float(brute_minus_greedy_min),
        "rademacher_err_max": float(rademacher_err_max),
    }


def test_criterion_1(capfd):
    results, elapsed = run_cached(1)
    failures = []
    if results["greedy_margin_min"] < -1e-9:
        failures.append(f"greedy fell short by {-results['greedy_margin_min']:.3e}")
    if results["brute_minus_greedy_min"] < 0.0:
        failures.append("brute force came out below greedy")
    if results["rademacher_err_max"] > 1e-9:
        failures.append(f"rademacher identity off by {results['rademacher_err_max']:.3e}")
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s over the 30s budget")
    _finish(capfd, 1, failures, elapsed,
            f"{results['families']} families: worst greedy margin "
            f"{results['greedy_margin_min']:.2e}, worst rademacher error "
            f"{results['rademacher_err_max']:.2e}")


# -- 2: far-corner witness meets the certified bound -----------------------

def run_criterion_2():
    fib, H = hadamard_fixture()
    w = concentration_witness(H, 0, 2.0)
    hadamard = {
        "delta_actual": float(w.delta_actual),
        "certificate": float(w.certificate),
        "bound": float(w.bound),
    }

    rng = np.random.default_rng(2602)
    min_margin = np.inf
    evaluations = 0
    degenerate = 0
    for seed in range(200):
        n = int(rng.integers(8, 31))
        dims = rng.integers(1, 4, size=n)
        space = FiberedSpace(path_space(n), dims)
        U = random_band_unitary(space, float(rng.integers(1, 4)), int(rng.integers(1, 3)), seed)
        for y in (0, n // 2, n - 1):
            for R in (0.0, 2.0, 5.0):
                w = concentration_witness(U, y, R)
                bound = 0.5 * np.sqrt(max(0.0, 1.0 - w.delta_actual**2))
                min_margin = min(min_margin, w.certificate - bound)
                evaluations += 1
                degenerate += int(w.degenerate)
    return {
        "unitaries": 200,
        "grid_evaluations": evaluations,
        "degenerate": degenerate,
        "min_margin": float(min_margin),
        "hadamard": hadamard,
    }


def test_criterion_2(capfd):
    results, elapsed = run_cached(2)
    failures = []
    if results["min_margin"] < -1e-9:
        failures.append(f"certificate fell {-results['min_margin']:.3e} below the bound")
    h = results["hadamard"]
    for key, expected in [("delta_actual", 0.70711), ("certificate", 0.5), ("bound", 0.35355)]:
        if abs(h[key] - expected) > 1e-5:
            failures.append(f"hadamard {key} = {h[key]:.6f}, expected {expected}")
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.1f}s over the 2min budget")
    _finish(capfd, 2, failures, elapsed,
            f"{results['grid_evaluations']} witness grid points on "
            f"{results['unitaries']} band unitaries: min margin {results['min_margin']:.2e}")


# -- 3: maps extracted from noisy covering unitaries -----------------------

_KINDS = [("identity", 30), ("reflection", 30), ("halving", 15)]
_NOISE_RADIUS, _LAYERS = 2.0, 1


def run_criterion_3():
    kinds = {}
    for kind, n in _KINDS:
        successes = 0
        values = []
        budgets = []
        for seed in range(50):
            U, h, plan = noisy_covering_unitary(kind, n, seed, _NOISE_RADIUS, _LAYERS)
            try:
                rep = extract_pair(U, 0.5)
            except MinimalRadiusError:
                continue
            successes += 1
            values.append(float(closeness(rep.f, h)))
            # omega_h at the extraction radius plus the noise propagation,
            # plus the support radius of the cover
            budgets.append(h.modulus(rep.R + _LAYERS * _NOISE_RADIUS) + plan.support_radius)
        kinds[kind] = {
            "seeds": 50,
            "successes": successes,
            "closeness": values,
            "budgets": budgets,
            "closeness_max": float(max(values)) if values else None,
            "closeness_median": float(np.median(values)) if values else None,
        }
    # deep noise and a high threshold: every seed's radius search passes R = 0
    search = {"R": [], "closeness": [], "budgets": []}
    for seed in range(8):
        U, h, plan = noisy_covering_unitary("halving", 40, seed, 2.0, 8)
        rep = extract_pair(U, 0.9)
        search["R"].append(float(rep.R))
        search["closeness"].append(float(closeness(rep.f, h)))
        search["budgets"].append(h.modulus(rep.R + 8 * 2.0) + plan.support_radius)
    return {"kinds": kinds, "radius_search": search}


def test_criterion_3(capfd):
    results, elapsed = run_cached(3)
    failures = []
    for kind, data in results["kinds"].items():
        if data["successes"] != data["seeds"]:
            failures.append(f"{kind}: only {data['successes']}/{data['seeds']} extractions")
            continue
        over = [seed for seed, (c, b) in enumerate(zip(data["closeness"], data["budgets"]))
                if not c <= b]
        if over:
            failures.append(f"{kind}: closeness(f, h) over budget at seeds {over}")
        if not all(np.isfinite(v) for v in data["closeness"]):
            failures.append(f"{kind}: non-finite closeness")
        if data["closeness_max"] > 2 * data["closeness_median"]:
            failures.append(
                f"{kind}: closeness max {data['closeness_max']} exceeds "
                f"2x median {data['closeness_median']}")
    search = results["radius_search"]
    if min(search["R"]) < 1:
        failures.append(f"deep-noise halving: radius search stopped at R = {search['R']}")
    over = [seed for seed, (c, b) in enumerate(zip(search["closeness"], search["budgets"]))
            if not c <= b]
    if over:
        failures.append(f"deep-noise halving: closeness(f, h) over budget at seeds {over}")
    if elapsed >= 180.0:
        failures.append(f"runtime {elapsed:.1f}s over the 3min budget")
    spread = ", ".join(
        f"{kind} max {d['closeness_max']} / median {d['closeness_median']}"
        for kind, d in results["kinds"].items())
    slack = max(c - b for d in results["kinds"].values()
                for c, b in zip(d["closeness"], d["budgets"]))
    _finish(capfd, 3, failures, elapsed,
            f"150 extractions: {spread}; largest closeness - budget {slack}; "
            f"deep-noise halving at R = {sorted(set(search['R']))}")


# -- 4: covering unitaries are exactly supported and compose ---------------

def run_criterion_4():
    X20 = path_space(20)
    mixed = FiberedSpace(X20, [1 + (i % 3) for i in range(20)])
    refl, _ = standard_pair("reflection", 20)
    halving, _ = standard_pair("halving", 5)
    half_src = FiberedSpace.uniform(halving.source, 1)
    cases = [
        ("identity", identity_map(X20), mixed, 0.0),
        ("reflection", refl, FiberedSpace.uniform(X20, 2), 2.0),
        ("halving", halving, half_src, 0.0),
        ("halving-wide-net", halving, half_src, 3.0),
    ]
    case_results = []
    covers = {}
    for name, f, source, separation in cases:
        W, plan = covering_unitary(f, source, separation=separation)
        mask = W.block_frobenius() > 0.0
        ys, xs = np.nonzero(mask)
        realized = max(float(f.target.dist[f(x), y]) for y, x in zip(ys, xs))
        structural_ok = all(
            f.target.dist[f(x), y] <= plan.support_radius for y, x in zip(ys, xs))
        covers[name] = (W, plan)
        case_results.append({
            "case": name,
            "separation_used": float(plan.separation),
            "support_radius": float(plan.support_radius),
            "realized_radius": realized,
            "unitarity_residual": float(W.unitarity_residual()),
            "structural_ok": bool(structural_ok),
        })
    compositions = []
    for a, b in [("halving", "halving-wide-net")]:
        (W1, p1), (W2, p2) = covers[a], covers[b]
        prod = W1 @ W2.adjoint()
        compositions.append({
            "pair": [a, b],
            "propagation": float(prod.propagation()),
            "bound": float(p1.support_radius + p2.support_radius),
            "unitarity_residual": float(prod.unitarity_residual()),
            "nets_differ": [int(x) for x in p1.net] != [int(x) for x in p2.net],
        })
    return {"cases": case_results, "compositions": compositions}


def test_criterion_4(capfd):
    results, elapsed = run_cached(4)
    failures = []
    for case in results["cases"]:
        if case["unitarity_residual"] > 1e-12:
            failures.append(f"{case['case']}: residual {case['unitarity_residual']:.2e}")
        if not case["structural_ok"]:
            failures.append(f"{case['case']}: block outside the reported support radius")
        if case["realized_radius"] != case["support_radius"]:
            failures.append(f"{case['case']}: reported radius is not the realized maximum")
    for comp in results["compositions"]:
        if not comp["nets_differ"]:
            failures.append("composition pair used identical nets")
        if comp["propagation"] > comp["bound"]:
            failures.append(
                f"composition propagation {comp['propagation']} over {comp['bound']}")
        if comp["unitarity_residual"] > 1e-12:
            failures.append(f"composition residual {comp['unitarity_residual']:.2e}")
    _finish(capfd, 4, failures, elapsed,
            f"{len(results['cases'])} covers (max residual "
            f"{max(c['unitarity_residual'] for c in results['cases']):.1e}), "
            f"{len(results['compositions'])} net compositions within the propagation bound")


# -- 5: approximation curve closes at support radius + noise width ---------

def run_criterion_5():
    max_increase = -np.inf
    max_final = 0.0
    instances = 0
    for kind, n in _KINDS:
        for seed in range(50):
            U, h, plan = noisy_covering_unitary(kind, n, seed, noise_radius=2.0, layers=1)
            V = random_band_unitary(FiberedSpace.uniform(h.source, 1), 2.0, 1, seed)
            R_star = float(plan.support_radius + V.propagation())
            grid = sorted({float(r) for r in np.arange(0.0, R_star + 1.0)} | {R_star})
            curve = [(R, supported_distance_upper(U, h, R)) for R in grid]
            vals = [v for _, v in curve]
            if len(vals) > 1:
                max_increase = max(max_increase, max(b - a for a, b in zip(vals, vals[1:])))
            max_final = max(max_final, vals[-1])
            instances += 1
    return {
        "instances": instances,
        "max_increase": float(max_increase),
        "max_final": float(max_final),
    }


def test_criterion_5(capfd):
    results, elapsed = run_cached(5)
    failures = []
    if results["max_increase"] > 1e-12:
        failures.append(f"curve increased by {results['max_increase']:.3e}")
    if results["max_final"] > 1e-9:
        failures.append(f"curve still {results['max_final']:.3e} at the closing radius")
    _finish(capfd, 5, failures, elapsed,
            f"{results['instances']} curves: worst final value {results['max_final']:.2e}, "
            f"worst increase {results['max_increase']:.2e}")


# -- 6: upgrade step stays orthogonal and inside epsilon -------------------

def _far_coupled(space, pairs, s):
    """Unitary mixing two distant fiber coordinates per pair, strength s."""
    mat = np.eye(space.total_dim, dtype=complex)
    c = np.sqrt(1.0 - s * s)
    for (x1, h1), (x2, h2) in pairs:
        a = int(space.offsets[x1]) + h1
        b = int(space.offsets[x2]) + h2
        rot = np.eye(space.total_dim, dtype=complex)
        rot[a, a] = c
        rot[b, b] = c
        rot[a, b] = -s
        rot[b, a] = s
        mat = rot @ mat
    return BlockOperator(space, space, mat)


def _upgrade_fixtures():
    X12 = path_space(12)
    fib12 = FiberedSpace(X12, [2 + (i % 2) for i in range(12)])
    W, _ = covering_unitary(identity_map(X12), fib12)
    U_id = W @ random_band_unitary(fib12, 2.0, 1, seed=6)

    U_half, h_half, _ = noisy_covering_unitary("halving", 5, seed=7, fiber_dim=2)

    fib8 = FiberedSpace.uniform(path_space(8), 2)
    U_far = _far_coupled(fib8, [((0, 0), (3, 1)), ((2, 0), (5, 0))], 0.05)

    F4 = np.array([[1j ** (m * k) for k in range(4)] for m in range(4)]) / 2
    fib4 = FiberedSpace.uniform(path_space(4), 2)
    U_dft = BlockOperator(fib4, fib4, np.kron(F4, np.eye(2)))

    return [
        ("identity-band", U_id, identity_map(X12), [(0, 1), (4, 1), (8, 1)]),
        ("halving-band", U_half, h_half, [(0, 1), (4, 1), (8, 1)]),
        ("far-coupled", U_far, identity_map(path_space(8)), [(0, 1), (2, 1)]),
        ("spread-dft", U_dft, identity_map(path_space(4)), [(0, 1), (1, 1)]),
    ]


def run_criterion_6():
    entries = []
    for name, U, f, p_spec in _upgrade_fixtures():
        for eps in (0.1, 0.01):
            res = upgrade_trick(U, f, p_spec, eps)
            entries.append({
                "fixture": name,
                "epsilon": eps,
                "R": float(res.R),
                "error": float(res.error),
                "ortho_residual": float(res.ortho_residual),
            })
    # wide-epsilon run where the discarded corners overlap nontrivially
    _, U_dft, f4, p4 = _upgrade_fixtures()[3]
    res = upgrade_trick(U_dft, f4, p4, 0.9)
    entries.append({
        "fixture": "spread-dft",
        "epsilon": 0.9,
        "R": float(res.R),
        "error": float(res.error),
        "ortho_residual": float(res.ortho_residual),
    })
    return {"entries": entries}


def test_criterion_6(capfd):
    results, elapsed = run_cached(6)
    failures = []
    for e in results["entries"]:
        tag = f"{e['fixture']} @ eps={e['epsilon']}"
        if e["error"] > e["epsilon"]:
            failures.append(f"{tag}: error {e['error']:.3e}")
        if e["ortho_residual"] > 1e-9:
            failures.append(f"{tag}: orthogonality residual {e['ortho_residual']:.3e}")
    small_eps = [e for e in results["entries"] if e["epsilon"] <= 0.1]
    if max(e["error"] for e in small_eps) <= 0.0:
        failures.append("every tight-epsilon fixture was lossless; gate is vacuous")
    wide = [e for e in results["entries"] if e["epsilon"] == 0.9][0]
    if abs(wide["error"] - np.sqrt(3) / 2) > 1e-9:
        failures.append(f"spread fixture error {wide['error']:.12f} != sqrt(3)/2")
    _finish(capfd, 6, failures, elapsed,
            f"{len(results['entries'])} upgrade runs: max orthogonality residual "
            f"{max(e['ortho_residual'] for e in results['entries']):.1e}, "
            f"nontrivial error {max(e['error'] for e in small_eps):.3f} within epsilon")


# -- 7: pruned quasi-locality search equals the all-subsets oracle ---------

def run_criterion_7():
    rng = np.random.default_rng(2607)
    max_diff = 0.0
    for _ in range(100):
        X = random_graph_space(rng, 8, extra_edges=int(rng.integers(0, 5)))
        fib = random_fibered(rng, X, max_dim=2)
        T = random_operator(rng, fib, fib)
        R = float(rng.integers(1, 4))
        pruned = quasi_locality_violation(T, R).violation_lower
        max_diff = max(max_diff, abs(pruned - naive_violation(T, R)))
    banded_max = 0.0
    for _ in range(20):
        X = random_graph_space(rng, 8, extra_edges=int(rng.integers(0, 3)))
        fib = random_fibered(rng, X, max_dim=2)
        R = float(rng.integers(1, 4))
        T = random_operator(rng, fib, fib).supported_mask(np.arange(X.n), R)
        banded_max = max(banded_max, quasi_locality_violation(T, R).violation_lower)
    return {
        "operators": 100,
        "max_diff": float(max_diff),
        "banded_operators": 20,
        "banded_max_violation": float(banded_max),
    }


def test_criterion_7(capfd):
    results, elapsed = run_cached(7)
    failures = []
    if results["max_diff"] > 1e-12:
        failures.append(f"pruned vs naive disagree by {results['max_diff']:.3e}")
    if results["banded_max_violation"] != 0.0:
        failures.append(f"banded violation {results['banded_max_violation']:.3e} != 0")
    _finish(capfd, 7, failures, elapsed,
            f"{results['operators']} operators: max oracle gap {results['max_diff']:.2e}; "
            f"{results['banded_operators']} banded all exactly quasi-local")


# -- 8: exact norms and the approximability window -------------------------

def run_criterion_8():
    rng = np.random.default_rng(2608)
    max_diff = 0.0
    routes = {"gram": 0, "svd": 0}
    for k in range(500):
        lo, hi = ((1, 13) if k % 2 else (30, 111))
        m, n = (int(v) for v in rng.integers(lo, hi, size=2))
        mat = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        mat /= np.sqrt(m) + np.sqrt(n)
        T = BlockOperator(FiberedSpace(path_space(1), [n]),
                          FiberedSpace(path_space(1), [m]), mat)
        routes["svd" if m == n else "gram"] += 1
        truth = float(np.linalg.svd(mat, compute_uv=False)[0])
        max_diff = max(max_diff, abs(T.norm() - truth))

    min_gap = np.inf
    windows_ordered = True
    tested = 0
    for k in range(30):
        X = random_graph_space(rng, 10, extra_edges=2)
        fib = random_fibered(rng, X, max_dim=2)
        T = random_operator(rng, fib, fib)
        if k % 3 == 2:
            T = T.supported_mask(np.arange(X.n), 2.0)
        R = float(rng.integers(1, 4))
        lower = quasi_locality_violation(T, R).violation_lower
        upper_raw = (T - T.supported_mask(np.arange(X.n), R)).norm()
        min_gap = min(min_gap, upper_raw - lower)
        w_lo, w_hi = approximability_window(T, R)
        windows_ordered = windows_ordered and w_lo <= w_hi
        tested += 1
    return {
        "blocks": 500,
        "max_norm_diff": float(max_diff),
        "routes": routes,
        "window_operators": tested,
        "min_window_gap": float(min_gap),
        "windows_ordered": bool(windows_ordered),
    }


def test_criterion_8(capfd):
    results, elapsed = run_cached(8)
    failures = []
    if results["max_norm_diff"] > 1e-12:
        failures.append(f"norm off by {results['max_norm_diff']:.3e}")
    if min(results["routes"].values()) == 0:
        failures.append(f"one norm route never exercised: {results['routes']}")
    if results["min_window_gap"] < -1e-12:
        failures.append(f"violation exceeded truncation distance by "
                        f"{-results['min_window_gap']:.3e}")
    if not results["windows_ordered"]:
        failures.append("approximability_window returned a reversed interval")
    _finish(capfd, 8, failures, elapsed,
            f"{results['blocks']} blocks (routes {results['routes']}): "
            f"max norm gap {results['max_norm_diff']:.2e}; "
            f"{results['window_operators']} windows ordered")


# -- 9: byte-identical reruns ----------------------------------------------

def _sweep_bytes(out_dir, tag):
    out = os.path.join(out_dir, f"sweep_{tag}.json")
    code = cli_main(["sweep", "--h", "reflection", "--n", "10",
                     "--seeds", "6", "--out", out])
    assert code == 0
    with open(out) as fh:
        data = json.load(fh)
    data.pop("timings", None)
    return report_bytes(data)


def run_criterion_9():
    criteria = {}
    for num in [n for n in RUNNERS if n != 9]:
        first = report_bytes(run_cached(num)[0])
        criteria[str(num)] = {
            "sha256": hashlib.sha256(first).hexdigest(),
            "rerun_match": report_bytes(RUNNERS[num]()) == first,
        }
    with tempfile.TemporaryDirectory() as td:
        cli_match = _sweep_bytes(td, "a") == _sweep_bytes(td, "b")
    return {"criteria": criteria, "cli_sweep_match": cli_match}


def test_criterion_9(capfd):
    results, elapsed = run_cached(9)
    failures = []
    for num, entry in results["criteria"].items():
        if not entry["rerun_match"]:
            failures.append(f"criterion {num} differs across two runs")
    if not results["cli_sweep_match"]:
        failures.append("CLI sweep differs across two runs")
    _finish(capfd, 9, failures, elapsed,
            f"{len(results['criteria'])} criteria byte-identical on a fresh rerun, "
            f"CLI sweep byte-identical across two runs")


# -- 10: the group law, U -> f_U is a homomorphism up to closeness ---------

_GROUP_SEEDS, _GROUP_LAYERS, _GROUP_NOISE = 12, 2, 2.0


def run_criterion_10():
    """f_{U1 U2} against f_{U1} o f_{U2}, for U2 a noisy halving cover
    path(80) -> path(40) and U1 a noisy reflection cover of the 2-dim
    fibered path(40), each U_i = W_i V_i with W_i covering h_i within its
    support radius s_i and V_i band noise of propagation p_i (layers times
    noise radius).

    Criterion 3's per-map budget is B_i(R) = omega_{h_i}(R + p_i) + s_i:
    chi_y U_i chi_{ball(x, R)} vanishes unless d(y, h_i(x)) <= B_i(R), and
    the extracted f_{U_i}(x) has a nonzero corner there, so
    closeness(f_{U_i}, h_i) <= B_i(R_i) at U_i's extraction radius R_i.
    The triangle inequality then gives, with h = h1 o h2 and R_12 the
    radius of U1 U2:

    * closeness(f_{U1 U2}, h) <= B_1(B_2(R_12)): U2 takes ball(x, R_12)
      into ball(h2(x), B_2(R_12)), and U1 takes that ball into
      ball(h(x), B_1(B_2(R_12))).
    * closeness(h, f_{U1} o f_{U2}) <= omega_{h1}(B_2(R_2)) + B_1(R_1),
      through h1 o f_{U2}: d(h1 h2 x, h1 f2 x) <= omega_{h1}(d(h2 x, f2 x))
      and d(h1 z, f1 z) <= B_1(R_1) at z = f2(x).

    The budget is the sum.  The same test on a wrong composite, f_{U2}
    with the reflection left out, must fail: its closeness to f_{U1 U2}
    is near the diameter of path(40).
    """
    rows = []
    for seed in range(_GROUP_SEEDS):
        U2, h2, plan2 = noisy_covering_unitary("halving", 40, seed, _GROUP_NOISE, _GROUP_LAYERS)
        U1, h1, plan1 = noisy_covering_unitary(
            "reflection", 40, 100 + seed, _GROUP_NOISE, _GROUP_LAYERS, fiber_dim=2)
        rep1, rep2, rep12 = (extract_pair(U, 0.5) for U in (U1, U2, U1 @ U2))

        def B1(R):
            return h1.modulus(R + _GROUP_LAYERS * _GROUP_NOISE) + plan1.support_radius

        def B2(R):
            return h2.modulus(R + _GROUP_LAYERS * _GROUP_NOISE) + plan2.support_radius

        budget = B1(B2(rep12.R)) + h1.modulus(B2(rep2.R)) + B1(rep1.R)
        rows.append({
            "R": [rep1.R, rep2.R, rep12.R],
            "budget": float(budget),
            "closeness": float(closeness(rep12.f, compose(rep1.f, rep2.f))),
            "wrong_closeness": float(closeness(rep12.f, rep2.f)),
        })
    return {"rows": rows}


def test_criterion_10(capfd):
    results, elapsed = run_cached(10)
    rows = results["rows"]
    failures = []
    over = [seed for seed, row in enumerate(rows) if not row["closeness"] <= row["budget"]]
    if over:
        failures.append(f"closeness(f_U1U2, f_U1 o f_U2) over budget at seeds {over}")
    passed_wrong = [seed for seed, row in enumerate(rows)
                    if row["wrong_closeness"] <= row["budget"]]
    if passed_wrong:
        failures.append(f"the wrong composite f_U2 passes at seeds {passed_wrong}")
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s over the 1min budget")
    values = [row["closeness"] for row in rows]
    _finish(capfd, 10, failures, elapsed,
            f"{len(rows)} products: closeness {min(values)}-{max(values)}, budgets "
            f"{min(r['budget'] for r in rows)}-{max(r['budget'] for r in rows)}, wrong composite "
            f"{min(r['wrong_closeness'] for r in rows)}-{max(r['wrong_closeness'] for r in rows)}")


# -- 11: the bounds search against the exact enumeration on ghosts ---------

def run_criterion_11():
    """The ghost 1 - 2P on path(16) and on a seeded 16-point graph, at every
    R from 1 to the diameter - 1: the bounds window, its witness's
    separation and corner, and the exact violation.  Every off-diagonal
    block has the same mass, so most windows stay open and the search
    grows pairs and draws its seeded restarts."""
    spaces = {"path(16)": path_space(16),
              "graph(16)": random_graph_space(np.random.default_rng(2611), 16, extra_edges=2)}
    rows = []
    for name, space in spaces.items():
        T = ghost(space)
        for R in range(1, int(space.diameter)):
            bounds = quasi_locality_violation(T, R, "bounds")
            w = bounds.witness
            rows.append({
                "space": name,
                "R": R,
                "lower": float(bounds.violation_lower),
                "upper": float(bounds.violation_upper),
                "exact": float(quasi_locality_violation(T, R, "exact").violation_lower),
                "witness_sizes": None if w is None else [len(w.B), len(w.A)],
                "witness_separation": None if w is None else float(space.dist[np.ix_(w.B, w.A)].min()),
                "witness_corner": None if w is None else float(T.corner_norm(list(w.B), list(w.A))),
            })
    return {"rows": rows}


def test_criterion_11(capfd):
    results, elapsed = run_cached(11)
    rows = results["rows"]
    failures = []
    for row in rows:
        tag = f"{row['space']} @ R={row['R']}"
        margin = ROUNDING_MARGIN * max(1.0, row["exact"])
        if not row["lower"] <= row["exact"] + margin or not row["exact"] <= row["upper"] + margin:
            failures.append(f"{tag}: window [{row['lower']}, {row['upper']}] misses {row['exact']}")
        if row["witness_separation"] is None:
            failures.append(f"{tag}: no witness")
            continue
        if not row["witness_separation"] > row["R"]:
            failures.append(f"{tag}: witness at distance {row['witness_separation']}")
        if not abs(row["witness_corner"] - row["lower"]) <= ROUNDING_MARGIN * max(1.0, row["lower"]):
            failures.append(f"{tag}: witness corner {row['witness_corner']} != {row['lower']}")
    grown = [row for row in rows if row["witness_sizes"] and max(row["witness_sizes"]) > 1]
    if not grown:
        failures.append("no witness has two points on a side: no grow accepted a move")
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s over the 30s budget")
    gaps = [row["exact"] - row["lower"] for row in rows]
    _finish(capfd, 11, failures, elapsed,
            f"{len(rows)} ghost windows around the exact violation: {len(grown)} grown witnesses, "
            f"largest gap below it {max(gaps):.4f}")


RUNNERS = {
    1: run_criterion_1,
    2: run_criterion_2,
    3: run_criterion_3,
    4: run_criterion_4,
    5: run_criterion_5,
    6: run_criterion_6,
    7: run_criterion_7,
    8: run_criterion_8,
    9: run_criterion_9,
    10: run_criterion_10,
    11: run_criterion_11,
}
