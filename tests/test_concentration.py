"""Concentration witnesses: the far-corner certificate from sign selection."""

import dataclasses

import numpy as np
import pytest

from roelab import concentration, operators
from roelab.concentration import concentration_witness
from roelab.extraction import corner_norm_table
from roelab.fixtures import noisy_covering_unitary
from roelab.operators import FiberedSpace, identity_operator, random_band_unitary, spectral_norm
from roelab.serialize import report_bytes
from roelab.spaces import path_space

from conftest import indicator, scaled
from hadamard import hadamard_fixture

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
    not_B = np.setdiff1d(np.arange(X.n), np.flatnonzero(X.dist[w.y] <= w.R))
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
    T = scaled(identity_operator(fib), 1.5)
    with pytest.raises(ValueError, match="unitar"):
        concentration_witness(T, 0, 1.0)


def test_rejects_bad_fiber_index():
    # a bool or float point or index used to run as its truncation or fail
    # inside numpy
    _, U = hadamard_fixture()
    for y, h_index, message in [
        (0, 5, "h_index 5 out of range [0, 1)"),
        (0, True, "h_index must be an integer, got True"),
        (0, 0.0, "h_index must be an integer, got 0.0"),
        (True, 0, "point must be an integer, got True"),
        (1.5, 0, "point must be an integer, got 1.5"),
        (2, 0, "point 2 out of range [0, 2)"),
    ]:
        with pytest.raises(ValueError) as err:
            concentration_witness(U, y, 1.0, h_index=h_index)
        assert str(err.value) == message


def test_sign_selection_shortfall_raises(monkeypatch):
    # the certificate's checks raise, so `python -O` cannot strip them
    _, U = hadamard_fixture()
    real = concentration.greedy_signs
    monkeypatch.setattr(
        concentration, "greedy_signs", lambda vectors: dataclasses.replace(real(vectors), achieved=0.0)
    )
    with pytest.raises(RuntimeError, match="sign selection fell short"):
        concentration_witness(U, 0, 2.0)


def _noisy_reflection():
    return noisy_covering_unitary("reflection", 12, 3)[0]


def test_lost_normalization_raises(monkeypatch):
    # past the unitarity check, U * 1.01 gives a probe vector of mass 1.0201
    monkeypatch.setattr(concentration, "check_unitary", lambda U: None)
    with pytest.raises(RuntimeError, match="probe vector lost normalization"):
        concentration_witness(scaled(_noisy_reflection(), 1.01), 5, 0.0)


def test_per_point_inequality_failure_raises(monkeypatch):
    # a table of zeros claims delta = 0: every probe would have to leave the ball whole
    monkeypatch.setattr(
        concentration, "corner_norm_table", lambda U, R: np.zeros((U.target.base.n, U.source.base.n))
    )
    with pytest.raises(RuntimeError, match="per-point corner inequality failed"):
        concentration_witness(_noisy_reflection(), 5, 0.0)


def test_certificate_below_bound_raises(monkeypatch):
    U = _noisy_reflection()
    assert concentration_witness(U, 5, 0.0).bound > 0.3
    monkeypatch.setattr(concentration, "spectral_norm", lambda block: 0.0)
    with pytest.raises(RuntimeError, match="certificate fell below the guaranteed bound"):
        concentration_witness(U, 5, 0.0)


def reference_witness(U, y, R, h_index=0):
    """The witness as computed when every probe vector rebuilt the ball,
    the off-ball coordinates (as a mask and as an index array) and y's
    columns, and certified the two sign sets through a dict and a closure;
    the instance checks, which do not change the values, are left out."""
    delta = float(corner_norm_table(U, R)[y].max())
    if delta > 1.0 - operators.ROUNDING_MARGIN:
        delta = 1.0
    fiber = range(int(U.target.fiber_dims[y])) if h_index is None else [h_index]
    witnesses = [_reference_probe(U, y, R, h, delta) for h in fiber]
    return max(witnesses, key=lambda w: (w.certificate, -w.h_index))


def _reference_probe(U, y, R, h_index, delta):
    target = U.target
    v = U.matrix[int(target.offsets[y]) + h_index].conj()
    B = np.flatnonzero(target.base.dist[y] <= R)
    off_ball = ~target.coord_mask(B)
    n_src = U.source.base.n
    family = np.zeros((n_src, target.total_dim), dtype=complex)
    for x in range(n_src):
        sl = U.source.slice_of(x)
        family[x] = U.matrix[:, sl] @ v[sl]
    family *= off_ball[None, :]
    selection = concentration.greedy_signs(list(family))
    sets = {
        +1: np.flatnonzero(selection.signs == 1),
        -1: np.flatnonzero(selection.signs == -1),
    }
    not_B = np.setdiff1d(np.arange(target.base.n), B)
    rows = target.coords_of(not_B)
    y_cols = np.arange(target.offsets[y], target.offsets[y + 1])

    def corner_value(points) -> float:
        if points.size == 0 or rows.size == 0:
            return 0.0
        cols = U.source.coords_of(points)
        block = U.matrix[np.ix_(rows, cols)] @ U.matrix[np.ix_(y_cols, cols)].conj().T
        return spectral_norm(block)

    cert_plus = corner_value(sets[+1])
    cert_minus = corner_value(sets[-1])
    if cert_plus >= cert_minus:
        A, certificate = sets[+1], cert_plus
    else:
        A, certificate = sets[-1], cert_minus
    return concentration.ConcentrationWitness(
        y=y,
        R=float(R),
        delta_actual=delta,
        A=tuple(int(a) for a in A),
        certificate=float(certificate),
        bound=0.5 * float(np.sqrt(max(1.0 - delta**2, 0.0))),
        signs=selection.signs,
        h_index=h_index,
        degenerate=bool(not_B.size == 0),
    )


def _witness_cases():
    """Band unitaries on paths with mixed 1-3-dim fibers, and noisy covers
    of the reflection (2-dim fibers) and the identity (3-dim fibers)."""
    rng = np.random.default_rng(25)
    for n in (6, 11, 17):
        for seed in range(2):
            fib = FiberedSpace(path_space(n), rng.integers(1, 4, size=n))
            yield random_band_unitary(fib, 2.0, 2, seed=seed)
    yield noisy_covering_unitary("reflection", 12, 3, fiber_dim=2)[0]
    yield noisy_covering_unitary("identity", 9, 4, fiber_dim=3)[0]


def test_witness_matches_reference():
    # every y, R in {0, 1, 2, n} (a ball that swallows the space) and both
    # h_index modes: the hoisted work leaves every witness byte-identical
    degenerate = 0
    for U in _witness_cases():
        n = U.target.base.n
        for y in range(n):
            for R in (0, 1, 2, n):
                for h_index in (None, 0):
                    w = concentration_witness(U, y, R, h_index)
                    assert report_bytes(w) == report_bytes(reference_witness(U, y, R, h_index))
                    degenerate += w.degenerate
    assert degenerate > 0


def test_witness_ties_keep_the_plus_set():
    # the ball swallows the space, so both sign sets certify 0.0
    _, U = hadamard_fixture()
    w = concentration_witness(U, 0, 3.0)
    assert w.certificate == 0.0
    assert w.A == tuple(int(a) for a in np.flatnonzero(w.signs == 1))
