"""Concentration witnesses: the far-corner certificate from sign selection."""

import dataclasses

import numpy as np
import pytest

from roelab import concentration
from roelab.concentration import concentration_witness
from roelab.extraction import corner_norm_table
from roelab.fixtures import hadamard_fixture
from roelab.operators import FiberedSpace, identity_operator, indicator, random_band_unitary
from roelab.spaces import path_space

INV_SQRT2 = 1 / np.sqrt(2)


def test_hadamard_corner_profile():
    _, U = hadamard_fixture()
    profile = corner_norm_table(U, 2.0)[0]
    assert profile == pytest.approx([INV_SQRT2, INV_SQRT2], abs=1e-12)


def test_hadamard_witness_reproduces_hand_values():
    _, U = hadamard_fixture()
    w = concentration_witness(U, 0, 2.0)
    assert w.delta_actual == pytest.approx(INV_SQRT2, abs=1e-5)
    assert list(w.A) in ([0], [1])
    assert w.certificate == pytest.approx(0.5, abs=1e-5)
    assert w.bound == pytest.approx(0.35355, abs=1e-5)
    assert w.certificate >= w.bound - 1e-9
    assert not w.degenerate


def test_witness_certificate_recomputes_from_A(rng):
    fib = FiberedSpace.uniform(path_space(10), 2)
    U = random_band_unitary(fib, 2.0, 2, seed=11)
    w = concentration_witness(U, 4, 3.0)
    X = fib.base
    not_B = np.setdiff1d(np.arange(X.n), X.ball(w.y, w.R))
    product = indicator(fib, not_B) @ U @ indicator(fib, w.A) @ U.adjoint() @ indicator(fib, [w.y])
    assert product.norm() == pytest.approx(w.certificate, abs=1e-12)


def test_witness_holds_on_band_unitaries(rng):
    X = path_space(14)
    for seed in range(10):
        fib = FiberedSpace(X, rng.integers(1, 3, size=X.n))
        U = random_band_unitary(fib, 2.0, 1, seed=seed)
        for y in (0, 7, 13):
            for R in (1.0, 3.0, 6.0):
                w = concentration_witness(U, y, R)
                if not w.degenerate:
                    assert w.certificate >= w.bound - 1e-9


def test_signs_split_source_points():
    _, U = hadamard_fixture()
    w = concentration_witness(U, 0, 2.0)
    assert len(w.signs) == 2
    assert set(np.unique(w.signs)) <= {-1, 1}


def test_degenerate_when_ball_swallows_space():
    _, U = hadamard_fixture()
    w = concentration_witness(U, 0, 3.0)  # ball of radius 3 is everything
    assert w.degenerate
    assert w.certificate == 0.0
    assert w.delta_actual == 1.0
    assert w.bound == 0.0


def test_trapped_probe_snaps_delta_to_one():
    # a propagation-0 unitary keeps every column inside any ball, so the
    # corner norm is 1 up to rounding and the reported bound must be 0
    fib = FiberedSpace.uniform(path_space(5), 2)
    U = random_band_unitary(fib, 0.0, 1, seed=1)
    w = concentration_witness(U, 2, 1.0)
    assert w.delta_actual == 1.0
    assert w.bound == 0.0
    assert w.certificate >= 0.0


def test_identity_concentrates_fully():
    fib = FiberedSpace.uniform(path_space(6), 1)
    U = identity_operator(fib)
    w = concentration_witness(U, 3, 1.0)
    # all mass of each column stays at its own point, so delta = 1 exactly
    assert w.delta_actual == pytest.approx(1.0)
    assert w.certificate >= w.bound - 1e-9  # bound is 0


def test_h_index_sweep_takes_best_fiber_vector(rng):
    fib = FiberedSpace.uniform(path_space(8), 3)
    U = random_band_unitary(fib, 2.0, 1, seed=2)
    best = concentration_witness(U, 2, 2.0, h_index=None)
    per_h = [concentration_witness(U, 2, 2.0, h_index=h) for h in range(3)]
    assert best.certificate == max(w.certificate for w in per_h)
    assert best.h_index == per_h[int(np.argmax([w.certificate for w in per_h]))].h_index


def test_h_index_sweep_builds_one_corner_table(monkeypatch):
    fib = FiberedSpace.uniform(path_space(8), 3)
    U = random_band_unitary(fib, 2.0, 1, seed=2)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return corner_norm_table(*args, **kwargs)

    monkeypatch.setattr(concentration, "corner_norm_table", counted)
    concentration_witness(U, 2, 2.0, h_index=None)
    assert len(calls) == 1


def test_rejects_non_unitary(rng):
    fib = FiberedSpace.uniform(path_space(4), 1)
    T = identity_operator(fib) * 1.5
    with pytest.raises(ValueError, match="unitar"):
        concentration_witness(T, 0, 1.0)


def test_rejects_bad_fiber_index():
    _, U = hadamard_fixture()
    with pytest.raises(ValueError):
        concentration_witness(U, 0, 1.0, h_index=5)


def test_sign_selection_shortfall_raises(monkeypatch):
    # the certificate's checks raise, so `python -O` cannot strip them
    _, U = hadamard_fixture()
    real = concentration.greedy_signs
    monkeypatch.setattr(
        concentration, "greedy_signs", lambda vectors: dataclasses.replace(real(vectors), achieved=0.0)
    )
    with pytest.raises(RuntimeError, match="sign selection fell short"):
        concentration_witness(U, 0, 2.0)
