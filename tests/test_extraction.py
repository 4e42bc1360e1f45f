"""Extraction of coarse maps from unitaries via corner-norm thresholds,
and the batched corner kernel against a per-point loop."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from roelab import covering, extraction
from roelab.extraction import (
    MinimalRadiusError,
    corner_norm_table,
    extract_map,
    extract_pair,
    minimal_radius,
)
from roelab import operators
from roelab.concentration import concentration_witness
from roelab.covering import covering_unitary, outer_roundtrip, upgrade_trick
from roelab.fixtures import noisy_covering_unitary, standard_pair
from roelab.maps import closeness, identity_map
from roelab.operators import BlockOperator, FiberedSpace, random_band_unitary
from roelab.serialize import report_bytes
from roelab.spaces import path_space

from conftest import random_fibered, random_graph_space, random_operator, scaled
from hadamard import hadamard_fixture


def reference_table(U, R):
    """The corner table as a per-point loop: one column of the table per
    source point, from that point's columns alone."""
    tbase, sbase = U.target.base, U.source.base
    ball_rows = (tbase.dist <= R)[:, U.target.coord_point]
    out = np.zeros((tbase.n, sbase.n))
    for x in range(sbase.n):
        cols = U.matrix[:, U.source.slice_of(x)]
        if cols.shape[1] == 1:
            out[:, x] = np.sqrt(ball_rows @ (np.abs(cols[:, 0]) ** 2))
        else:
            prods = np.einsum("ra,rb->rab", cols.conj(), cols)
            grams = np.tensordot(ball_rows.astype(float), prods, axes=(1, 0))
            eigs = np.linalg.eigvalsh(grams)
            out[:, x] = np.sqrt(np.maximum(eigs[..., -1], 0.0))
    return out


def test_extract_pair_checks_u_once_through_minimal_radius(monkeypatch):
    # U is checked once, by the public radius scan; U* is unitary exactly when U is
    U, _, _ = noisy_covering_unitary("reflection", 8, 0)
    calls = []
    for name in ("minimal_radius", "check_unitary"):
        real = getattr(extraction, name)
        monkeypatch.setattr(extraction, name, lambda *a, real=real, name=name: calls.append((name, a[0])) or real(*a))
    extract_pair(U, 0.5)
    assert [(name, op is U) for name, op in calls] == [("minimal_radius", True), ("check_unitary", True)]


def test_hadamard_minimal_radius():
    _, U = hadamard_fixture()
    R, table = minimal_radius(U, 0.5)
    assert R == 0.0
    assert table == pytest.approx(np.full((2, 2), 1 / np.sqrt(2)), abs=1e-15)


def test_corner_equal_to_delta_is_not_admissible():
    # every R = 0 corner of the block DFT is exactly 1/2, so delta = 1/2 must
    # push both scans to R = 1, where the smallest corner is sqrt(1/2)
    F4 = np.array([[1j ** (m * k) for k in range(4)] for m in range(4)]) / 2
    fib = FiberedSpace.uniform(path_space(8), 1)
    U = BlockOperator(fib, fib, np.kron(np.eye(2), F4))
    assert (corner_norm_table(U, 0.0).max(axis=1) == 0.5).all()
    rep = extract_pair(U, 0.5)
    assert rep.R == 1.0
    assert min(rep.witness_g.min(), rep.witness_f.min()) == np.sqrt(0.5)


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
    radii = [minimal_radius(U, d)[0] for d in (0.3, 0.5, 0.7, 0.9)]
    assert radii == [0.0, 1.0, 2.0, 6.0]
    assert all(a <= b for a, b in zip(radii, radii[1:]))


def test_corner_norm_table_matches_direct_corners(rng):
    X = random_graph_space(rng, 7, extra_edges=2)
    fib = random_fibered(rng, X, max_dim=2)
    U = random_band_unitary(fib, 2.0, 2, seed=4)
    for R in (0.0, 1.0, 2.0):
        table = corner_norm_table(U, R)
        for y in range(X.n):
            ball = np.flatnonzero(X.dist[y] <= R)
            for x in range(X.n):
                assert table[y, x] == pytest.approx(U.corner_norm(ball, [x]), abs=1e-12)


def test_corner_norm_table_matches_reference_loop(rng):
    cases = []
    for _ in range(6):
        X = random_graph_space(rng, int(rng.integers(5, 12)), extra_edges=int(rng.integers(0, 4)))
        fib = random_fibered(rng, X, max_dim=3)
        U = random_band_unitary(fib, 2.0, 2, seed=int(rng.integers(0, 1000)))
        T = random_operator(rng, fib, random_fibered(rng, X, max_dim=3))
        cases += [U, scaled(T, 1 / T.norm())]  # corners at most 1, like a unitary's
    h, _ = standard_pair("halving", 6)
    W, _ = covering_unitary(h, FiberedSpace(h.source, rng.integers(1, 3, size=h.source.n)))
    cases += [W, W.adjoint()]  # 1-2 dim fibers onto 2-4 dim ones, and back
    for T in cases:
        for R in [0.0] + [float(r) for r in T.target.base.realized_distances()]:
            assert corner_norm_table(T, R) == pytest.approx(reference_table(T, R), abs=1e-15)


def _edge_operators(rng):
    """Operators on one path space with mixed 1-, 2- and 3-dim fibers whose
    2-dim Grams [[a, conj(b)], [b, c]] hit the closed form's edge cases."""
    fib = FiberedSpace(path_space(7), [2, 1, 3, 2, 2, 1, 2])
    T = random_operator(rng, fib, fib).matrix
    T = T / np.abs(T.view(float)).max()  # real and imaginary parts at most 1
    zero = T.copy()
    zero[:, fib.slice_of(0)] = 0.0  # corners exactly 0 for a 2-, 3- and 1-dim point
    zero[:, fib.slice_of(2)] = 0.0
    zero[:, fib.slice_of(5)] = 0.0
    diagonal = np.diag(rng.uniform(0.1, 1.0, fib.total_dim)).astype(complex)  # b = 0
    equal = T.copy()  # a == c bit for bit: |conj(z)|^2 and |iz|^2 are |z|^2
    rank_one = T.copy()
    for x in np.flatnonzero(fib.fiber_dims == 2):
        first, second = fib.slice_of(x).start, fib.slice_of(x).start + 1
        equal[:, second] = T[:, first].conj()
        rank_one[:, second] = 1j * T[:, first]
    ops = [BlockOperator(fib, fib, m) for m in (T, zero, diagonal, equal, rank_one)]
    return ops + [BlockOperator(fib, fib, T * scale) for scale in (9e148, 1e-140)]


def _within_ulps(got, want, ulps=8):
    return (np.abs(got - want) <= ulps * np.finfo(float).eps * np.abs(want)).all()


def test_two_dim_closed_form_at_the_edges(rng):
    ops = _edge_operators(rng)
    for U in ops:
        X = U.source.base
        for R in (0.0, 1.0, 3.0, 6.0):
            table = corner_norm_table(U, R)
            assert _within_ulps(table, reference_table(U, R)), R
            balls = [np.flatnonzero(X.dist[y] <= R) for y in range(X.n)]
            direct = [[U.corner_norm(ball, [x]) for x in range(X.n)] for ball in balls]
            assert _within_ulps(table, np.array(direct)), R
    T, zero = ops[:2]
    assert (corner_norm_table(zero, 2.0)[:, [0, 2, 5]] == 0.0).all()
    assert (corner_norm_table(T, 2.0) > 0.0).all()


def test_only_fibers_of_dim_three_and_up_reach_eigvalsh(monkeypatch, rng):
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def spy(mat):
        shapes.append(np.shape(mat)[-2:])
        return eigvalsh(mat)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    mixed, *_ = _edge_operators(rng)
    corner_norm_table(mixed, 1.0)
    assert shapes == [(3, 3)]
    shapes.clear()
    fib = FiberedSpace(path_space(5), [1, 2, 2, 1, 2])
    corner_norm_table(random_operator(rng, fib, fib), 1.0)
    assert shapes == []


def test_corner_norm_table_memory_stays_bounded():
    rng = np.random.default_rng(5)
    fib = FiberedSpace.uniform(path_space(400), 2)
    T = random_operator(rng, fib, fib)
    tracemalloc.start()
    try:
        corner_norm_table(T, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20  # unchunked, the Gram stacks alone take 47.6 MiB


def test_corner_norm_table_memory_stays_bounded_for_wide_fibers():
    # 3-dim fibers take d^2 = 9 real parts per point, not 9 complex outer-product entries
    fib = FiberedSpace.uniform(path_space(200), 3)
    U = random_band_unitary(fib, 1.0, 2, 0)
    tracemalloc.start()
    try:
        corner_norm_table(U, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6.5 * 2**20  # the complex outer products took 7.3 MiB


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 9), max_dim=st.integers(1, 3))
def test_corner_tables_nondecreasing_in_radius(seed, n, max_dim):
    # what makes a table at a smaller admissible radius safe to reuse:
    # growing the ball only adds positive semidefinite terms to each Gram
    rng = np.random.default_rng(seed)
    X = random_graph_space(rng, n, extra_edges=int(rng.integers(0, 3)))
    T = random_operator(rng, random_fibered(rng, X, max_dim), random_fibered(rng, X, max_dim))
    radii = [0.0] + [float(r) for r in X.realized_distances()]
    tables = [corner_norm_table(T, R) for R in radii]
    for small, large in zip(tables, tables[1:]):
        assert (large >= small - 1e-12 * np.maximum(small, 1.0)).all()


def _extract_inputs():
    """The `extract` benchmark's shapes (4 layers of radius-2 noise) at
    four noise seeds, then the 150 inputs of acceptance criterion 3."""
    for seed in range(4):
        for kind, n in (("reflection", 200), ("halving", 112)):
            yield noisy_covering_unitary(kind, n, seed, 2.0, 4)[0], 0.7
    for kind, n in (("identity", 30), ("reflection", 30), ("halving", 15)):
        for seed in range(50):
            yield noisy_covering_unitary(kind, n, seed, 2.0, 1)[0], 0.5


def _decisions(U, delta):
    try:
        data = json.loads(report_bytes(extract_pair(U, delta)))
    except MinimalRadiusError as err:
        return ("error", err.y)
    return {key: data[key] for key in ("R", "f", "g", "equivalence")}


def test_tie_rule_makes_decisions_kernel_independent(monkeypatch):
    inputs = list(_extract_inputs())
    batched = [_decisions(U, delta) for U, delta in inputs]
    monkeypatch.setattr(extraction, "corner_norm_table", reference_table)
    looped = [_decisions(U, delta) for U, delta in inputs]
    assert batched == looped


def test_exact_ties_go_to_the_smallest_index():
    # past R = 2 a ball holds the whole support of many columns, so their
    # corners are 1 in exact arithmetic and differ only by rounding
    U, _, _ = noisy_covering_unitary("halving", 8, 0, 1.0, 1)
    for R in (2.0, 3.0):
        tied = np.abs(reference_table(U, R) - 1.0) <= 1e-12
        assert (tied.sum(axis=1) >= 2).all()
        g, witness = extract_map(U, 0.5, R)
        assert list(g.values) == list(np.argmax(tied, axis=1))
        assert witness == pytest.approx(np.ones(U.target.base.n), abs=1e-12)


def _radius_and_scan_length(T, delta):
    R = minimal_radius(T, delta)[0]
    return R, [float(r) for r in T.target.base.realized_distances()].index(R) + 1


def _pair_cases():
    return [(noisy_covering_unitary(kind, n, seed, 2.0, 4)[0], 0.7)
            for kind, n in (("reflection", 40), ("halving", 24)) for seed in range(3)] + [
        (random_band_unitary(FiberedSpace.uniform(path_space(20), 1), 4.0, 5, seed=2), 0.7)]


def _spied_extraction(U, delta):
    """`extract_pair(U, delta)` and, for each corner table it builds in
    order, whether the table is U's (else U*'s) and its radius."""
    built = []
    original = extraction.corner_norm_table

    def spy(T, R):
        built.append((T is U, float(R)))
        return original(T, R)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(extraction, "corner_norm_table", spy)
        report = extract_pair(U, delta)
    return report, built


def test_extract_pair_reuses_the_admissible_tables():
    # U's scan, then U*'s radii from R_g up to R, then g's one table when R > R_g
    for U, delta in _pair_cases():
        R_g, scanned_g = _radius_and_scan_length(U, delta)
        report, built = _spied_extraction(U, delta)
        realized = U.source.base.realized_distances()
        scanned_f = 1 + int(((realized > R_g) & (realized <= report.R)).sum())
        assert len(built) == scanned_g + scanned_f + (report.R > R_g)


def _haar_onto_a_longer_path(seed):
    """A Haar unitary (QR of a complex Gaussian, the phases of R's
    diagonal moved into Q) from path(2) with 4-dim fibers onto path(8)
    with 1-dim fibers."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return BlockOperator(FiberedSpace.uniform(path_space(2), 4), FiberedSpace.uniform(path_space(8), 1), q)


def test_extract_pair_scans_u_star_from_the_radius_of_u():
    # every radius below R_g fails for U, so R is never below it: U*'s
    # scan starts there and stops at the pair's radius
    halving = noisy_covering_unitary("halving", 24, 0, 2.0, 4)[0]
    haar = _haar_onto_a_longer_path(0)
    for U, delta in [*_pair_cases(), (halving, 0.8), (haar, 0.9)]:
        R_g, R_f = minimal_radius(U, delta)[0], minimal_radius(U.adjoint(), delta)[0]
        report, built = _spied_extraction(U, delta)
        star_radii = [R for is_u, R in built if not is_u]
        assert min(star_radii) >= R_g, (U, delta)
        assert report.R == max(R_g, R_f)
        if U is halving:
            assert R_f > R_g and built[-1] == (True, report.R)  # g builds one more table
        if U is haar:
            # R_g exceeds X's diameter 1, where the ball is all of X
            assert R_g >= 2 and star_radii == [R_g]


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
    data = json.loads(report_bytes(report))
    assert data["delta"] == 0.5
    assert data["R"] == report.R
    assert data["g"] == [int(v) for v in report.g.values]
    assert set(data["equivalence"]) == {"modulus_f", "modulus_g", "closeness_fg", "closeness_gf"}


def test_nan_thresholds_raise():
    U, h, _ = noisy_covering_unitary("identity", 8, 0)
    with pytest.raises(ValueError, match="epsilon must be > 0"):
        upgrade_trick(U, h, [(0, 1)], float("nan"))


def test_minimal_radius_error_reports_worst_point():
    err = MinimalRadiusError(3, 0.42, 0.9)
    assert err.y == 3
    assert err.best_norm == 0.42
    assert "0.9" in str(err)


def test_minimal_radius_error_tells_near_one_numbers_apart():
    # a cover scaled just below unitarity: every corner stays below 1 - 2.5e-10
    U = scaled(noisy_covering_unitary("reflection", 20, 0)[0], 1 - 2.5e-10)
    assert extract_pair(U, 1 - 1e-9).R == 2.0
    with pytest.raises(MinimalRadiusError) as info:
        extract_pair(U, 1 - 1e-10)
    best, delta = str(info.value).split(" is ")[1].split(" <= delta = ")
    assert float(best) == info.value.best_norm < float(delta) == 1 - 1e-10


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
        ENTRIES[entry](scaled(U, 2))


def _spy_decompositions(monkeypatch):
    """The shapes of every np.linalg.eigvalsh call from here on; any
    spectral_norm call fails the test."""
    decompositions = []
    eigvalsh = np.linalg.eigvalsh

    def counting(mat):
        decompositions.append(np.shape(mat))
        return eigvalsh(mat)

    def no_norm(mat):
        raise AssertionError("the unitarity check takes no spectral_norm")

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    monkeypatch.setattr(operators, "spectral_norm", no_norm)
    return decompositions


def test_extract_pair_checks_unitarity_once(monkeypatch):
    U, _, _ = noisy_covering_unitary("reflection", 12, seed=1)
    decompositions = _spy_decompositions(monkeypatch)
    extract_pair(U, 0.5)
    # ||U*U - I||_F is far below the tolerance, so U passes without a
    # decomposition; U* is not checked, being unitary exactly when U is;
    # the 1-dim fibers' corner tables take no decomposition either
    assert decompositions == []


def test_each_call_chain_forms_one_gram_per_checked_operator(monkeypatch):
    U, _, _ = noisy_covering_unitary("reflection", 12, seed=1)
    formed, gram_minus_identity = [], BlockOperator._gram_minus_identity
    monkeypatch.setattr(BlockOperator, "_gram_minus_identity", lambda T: formed.append(T) or gram_minus_identity(T))
    extract_pair(U, 0.5)
    assert formed == [U]
    # outer: the residuals of U and UW*; extract_pair's check reads U's, and
    # W, a permutation, has a residual of 0.0 with no Gram
    fresh = BlockOperator(U.source, U.target, U.matrix)
    formed.clear()
    outer_roundtrip(fresh, 0.5)
    assert len(formed) == 2 and formed[0] is fresh
    assert operators._permutation(formed[1]) is None


def test_outer_roundtrip_checks_unitarity_once(monkeypatch):
    # outer stores U's residual for its report, and extract_pair's check
    # decides on it: no second check of U, and W and UW* are only measured
    checked = []
    for module in (covering, extraction):
        check = module.check_unitary
        monkeypatch.setattr(module, "check_unitary", lambda T, check=check: checked.append(T) or check(T))
    U, _, _ = noisy_covering_unitary("reflection", 12, seed=1)
    outer_roundtrip(U, 0.5)
    assert checked == [U]


def test_outer_refuses_two_fibered_spaces_before_any_decomposition(monkeypatch):
    X = path_space(3)
    U = BlockOperator(FiberedSpace(X, [1, 2, 1]), FiberedSpace(X, [2, 1, 1]), np.eye(4))
    decompositions = _spy_decompositions(monkeypatch)
    with pytest.raises(ValueError, match="single fibered space"):
        outer_roundtrip(U, 0.5)
    assert decompositions == []


def test_unitarity_check_decomposes_when_the_bound_cannot_decide(monkeypatch):
    h, _ = standard_pair("reflection", 12)
    W, _ = covering_unitary(h, FiberedSpace.uniform(h.source, 1))
    U = scaled(W, 1 + 4e-10)  # U*U - I = (8e-10) I: residual below 1e-9, Frobenius bound above
    gram = U.matrix.conj().T @ U.matrix - np.eye(12)
    assert np.linalg.norm(gram) > 1e-9
    decompositions = _spy_decompositions(monkeypatch)
    extract_pair(U, 0.5)
    assert decompositions == [U.matrix.shape]
    assert U.unitarity_residual() == pytest.approx(8e-10, rel=1e-6)


def test_unitarity_check_still_refuses_with_the_exact_residual(monkeypatch):
    h, _ = standard_pair("reflection", 12)
    W, _ = covering_unitary(h, FiberedSpace.uniform(h.source, 1))
    U = scaled(W, 1 + 1e-9)  # residual about 2e-9
    decompositions = _spy_decompositions(monkeypatch)
    with pytest.raises(ValueError, match=r"not unitary: residual 2e-09 > 1e-09"):
        extract_pair(U, 0.5)
    assert decompositions == [U.matrix.shape]


@pytest.mark.parametrize("dims", ["1", "2", "3", "mixed"])
def test_tables_of_a_radius_scan_equal_a_fresh_operators(dims):
    # the column parts kept on an operator give the tables a fresh operator
    # computes, at every radius of a scan in either direction, and a mask
    # tall enough to split a kept group into chunks rebuilds it chunk by chunk
    rng = np.random.default_rng(int(dims) if dims.isdigit() else 4)
    X = random_graph_space(rng, 10, extra_edges=2)
    if dims == "mixed":  # every dimension 1, 2, 3 at least three times
        source = FiberedSpace(X, rng.permutation(np.arange(X.n) % 3 + 1))
    else:
        source = FiberedSpace.uniform(X, int(dims))
    U = random_operator(rng, source, random_fibered(rng, X, 3))
    radii = [0.0, *X.realized_distances()]
    for R in radii + radii[::-1]:
        fresh = BlockOperator(U.source, U.target, U.matrix)
        assert corner_norm_table(U, R).tobytes() == corner_norm_table(fresh, R).tobytes()
    tall = rng.random((5000, X.n)) < 0.5
    fresh = BlockOperator(U.source, U.target, U.matrix)
    assert operators.corner_norms(U, tall).tobytes() == operators.corner_norms(fresh, tall).tobytes()
