"""Extraction of coarse maps from unitaries via corner-norm thresholds."""

import numpy as np
import pytest

from roelab.extraction import (
    MinimalRadiusError,
    corner_norm_table,
    extract_map,
    extract_pair,
    footprint_control,
    minimal_radius,
)
from roelab import operators
from roelab.concentration import concentration_witness
from roelab.covering import outer_roundtrip, upgrade_trick
from roelab.fixtures import hadamard_fixture, noisy_covering_unitary, standard_pair
from roelab.maps import closeness, identity_map
from roelab.operators import FiberedSpace, random_band_unitary
from roelab.spaces import path_space

from conftest import random_fibered, random_graph_space


def test_hadamard_minimal_radius():
    _, U = hadamard_fixture()
    assert minimal_radius(U, 0.5) == 0.0


def test_hadamard_tie_breaks_to_smallest_index():
    _, U = hadamard_fixture()
    g, witness = extract_map(U, 0.5, 0.0)
    # both columns give corner norm 1/sqrt(2); the argmax must take index 0
    assert g(0) == 0
    assert witness == pytest.approx([1 / np.sqrt(2)] * 2, abs=1e-12)


def test_extract_map_requires_threshold_met():
    _, U = hadamard_fixture()
    with pytest.raises(ValueError):
        extract_map(U, 0.8, 0.0)  # best corner is only 0.70711


def test_minimal_radius_nondecreasing_in_delta():
    U = random_band_unitary(FiberedSpace.uniform(path_space(20), 1), 4.0, 5, seed=2)
    radii = [minimal_radius(U, d) for d in (0.3, 0.5, 0.7, 0.9)]
    assert radii == [0.0, 1.0, 2.0, 6.0]
    assert all(a <= b for a, b in zip(radii, radii[1:]))


def test_corner_norm_table_matches_direct_corners(rng):
    X = random_graph_space(rng, 7, extra_edges=2)
    fib = random_fibered(rng, X, max_dim=2)
    U = random_band_unitary(fib, 2.0, 2, seed=4)
    for R in (0.0, 1.0, 2.0):
        table = corner_norm_table(U, R)
        for y in range(X.n):
            ball = X.ball(y, R)
            for x in range(X.n):
                assert table[y, x] == pytest.approx(U.corner_norm(ball, [x]), abs=1e-12)


def test_extract_pair_identity_noise_only():
    U, h, _ = noisy_covering_unitary("identity", 10, seed=0)
    report = extract_pair(U, 0.5)
    assert report.delta == 0.5
    assert np.isfinite(closeness(report.g, standard_pair("identity", 10)[1]))
    assert report.equivalence.closeness_fg <= 2 * report.R + 4  # noise has propagation <= 2
    assert closeness(report.f, h) <= 4


def test_extract_pair_reflection_recovers_map():
    U, h, _ = noisy_covering_unitary("reflection", 12, seed=1)
    report = extract_pair(U, 0.5)
    assert closeness(report.f, h) <= 4


def test_extract_pair_halving_gives_equivalence():
    U, h, _ = noisy_covering_unitary("halving", 8, seed=2)
    report = extract_pair(U, 0.5)
    assert np.isfinite(closeness(report.f, h))
    assert report.f.source == h.source
    assert report.f.target == h.target


def test_extraction_report_json_roundtrips_values():
    U, _, _ = noisy_covering_unitary("identity", 8, seed=3)
    report = extract_pair(U, 0.5)
    data = report.to_json()
    assert data["delta"] == 0.5
    assert data["R"] == report.R
    assert data["g"] == [int(v) for v in report.g.values]
    assert set(data["equivalence"]) == {"modulus_f", "modulus_g", "closeness_fg", "closeness_gf"}


def test_footprint_control_stays_small_for_thin_noise():
    X = path_space(16)
    fib = FiberedSpace.uniform(X, 1)
    for seed in range(8):
        U = random_band_unitary(fib, 2.0, 1, seed=seed)
        assert footprint_control(U, 0.1, 0.0) <= 4.0


def test_footprint_control_identity_is_zero():
    from roelab.operators import identity_operator

    fib = FiberedSpace.uniform(path_space(6), 2)
    assert footprint_control(identity_operator(fib), 0.5, 0.0) == 0.0


def test_nan_thresholds_raise():
    U, h, _ = noisy_covering_unitary("identity", 8, 0)
    with pytest.raises(ValueError, match="delta must be > 0"):
        footprint_control(U, float("nan"), 1.0)
    with pytest.raises(ValueError, match="epsilon must be > 0"):
        upgrade_trick(U, h, [(0, 1)], float("nan"))


def test_minimal_radius_error_reports_worst_point():
    err = MinimalRadiusError(3, 0.42, 0.9)
    assert err.y == 3
    assert err.best_norm == 0.42
    assert "0.9" in str(err)


def test_footprint_control_matches_direct_corners(rng):
    for _ in range(4):
        X = random_graph_space(rng, 8, extra_edges=2)
        fib = random_fibered(rng, X, max_dim=2)
        U = random_band_unitary(fib, 2.0, 2, seed=int(rng.integers(0, 1000)))
        for delta in (0.1, 0.3, 0.5, 0.7, 0.9):
            for r in (0.0, 1.0, 2.0):
                worst = 0.0
                for x in range(X.n):
                    ball = X.ball(x, r)
                    hits = [y for y in range(X.n) if U.corner_norm([y], ball) >= delta]
                    worst = max(worst, X.subset_diameter(hits))
                assert footprint_control(U, delta, r) == worst


ENTRIES = {
    "extract_pair": lambda T: extract_pair(T, 0.5),
    "minimal_radius": lambda T: minimal_radius(T, 0.5),
    "extract_map": lambda T: extract_map(T, 0.5, 0.0),
    "concentration_witness": lambda T: concentration_witness(T, 0, 1.0),
    "upgrade_trick": lambda T: upgrade_trick(T, identity_map(T.source.base), [(0, 1)], 0.5),
    "outer_roundtrip": lambda T: outer_roundtrip(T, 0.5),
}


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_public_entries_reject_non_unitary(entry):
    U, _, _ = noisy_covering_unitary("reflection", 8, seed=0)
    with pytest.raises(ValueError, match="unitar"):
        ENTRIES[entry](2 * U)


def test_extract_pair_checks_unitarity_once(monkeypatch):
    U, _, _ = noisy_covering_unitary("reflection", 12, seed=1)
    calls = []
    original = operators.spectral_norm

    def counting(mat):
        calls.append(np.shape(mat))
        return original(mat)

    monkeypatch.setattr(operators, "spectral_norm", counting)
    extract_pair(U, 0.5)
    # one residual: ||U*U - I|| and ||UU* - I||, shared by U* through adjoint()
    assert len(calls) == 2
