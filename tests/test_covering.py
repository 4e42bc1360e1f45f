"""Covering unitaries, supported approximation, the upgrade step, outer roundtrip."""

import numpy as np
import pytest

from roelab import operators
from roelab.covering import (
    covering_unitary,
    outer_roundtrip,
    upgrade_trick,
)
from roelab.fixtures import noisy_covering_unitary, reflection_map, standard_pair
from roelab.locality import supported_distance_upper
from roelab.maps import PointMap, identity_map
from roelab.operators import BlockOperator, FiberedSpace, random_band_unitary
from roelab.spaces import path_space

from conftest import random_fibered, random_graph_space


def halving_map_10():
    return PointMap(path_space(10), path_space(5), [i // 2 for i in range(10)])


def reference_support_radius(U, f, epsilon):
    """The support radius as a per-point corner_norm loop."""
    tbase = U.target.base
    for R in tbase.realized_distances():
        worst = 0.0
        for x in range(U.source.base.n):
            outside = np.flatnonzero(tbase.dist[f.values[x]] > R)
            worst = max(worst, U.corner_norm(outside, [x]))
            if worst > epsilon:
                break
        if worst <= epsilon:
            return float(R)
    return float(tbase.diameter)


def dft_operator(n, fiber_dim=1):
    F = np.array([[np.exp(2j * np.pi * m * k / n) for k in range(n)] for m in range(n)])
    F /= np.sqrt(n)
    fib = FiberedSpace.uniform(path_space(n), fiber_dim)
    return BlockOperator(fib, fib, np.kron(F, np.eye(fiber_dim)))


def test_identity_cover_is_trivial():
    X = path_space(6)
    U, plan = covering_unitary(identity_map(X), FiberedSpace.uniform(X, 2))
    assert plan.separation == 0.0
    assert plan.support_radius == 0.0
    assert U.unitarity_residual() <= 1e-12
    assert U.propagation() == 0.0


def test_halving_cover_reconciles_fibers():
    f = halving_map_10()
    src = FiberedSpace.uniform(f.source, 1)
    U, plan = covering_unitary(f, src)
    assert list(U.target.fiber_dims) == [2, 2, 2, 2, 2]
    assert U.unitarity_residual() <= 1e-12
    assert plan.separation == 1.0  # smallest separation making f injective on the net
    assert plan.support_radius == 0.0
    assert list(plan.net) == [0, 2, 4, 6, 8]


def test_cover_is_structurally_supported():
    f = halving_map_10()
    U, plan = covering_unitary(f, FiberedSpace.uniform(f.source, 1), separation=3.0)
    Y = f.target
    mask = U.block_frobenius() > 0.0
    ys, xs = np.nonzero(mask)
    assert len(ys) > 0
    assert all(Y.dist[f(x), y] <= plan.support_radius for y, x in zip(ys, xs))


def test_two_nets_compose_to_controlled_propagation():
    f = halving_map_10()
    src = FiberedSpace.uniform(f.source, 1)
    U1, p1 = covering_unitary(f, src)
    U2, p2 = covering_unitary(f, src, separation=3.0)
    prod = U1 @ U2.adjoint()
    assert prod.unitarity_residual() <= 1e-12
    assert prod.propagation() <= p1.support_radius + p2.support_radius


def test_cover_with_declared_target_space():
    X = path_space(8)
    f = identity_map(X)
    src = FiberedSpace.uniform(X, 2)
    U, plan = covering_unitary(f, src, target=src)
    assert U.source == src and U.target == src
    assert U.unitarity_residual() <= 1e-12
    assert plan.target is not None


def test_cover_rejects_mismatched_target_total():
    X = path_space(6)
    f = identity_map(X)
    src = FiberedSpace.uniform(X, 2)
    too_small = FiberedSpace.uniform(X, 1)
    with pytest.raises(ValueError):
        covering_unitary(f, src, target=too_small)


def test_curve_hits_zero_at_support_radius():
    f = halving_map_10()
    U, plan = covering_unitary(f, FiberedSpace.uniform(f.source, 1))
    curve = [(R, supported_distance_upper(U, f, R)) for R in [plan.support_radius, 2.0]]
    assert curve[0][1] == 0.0
    assert curve[1][1] == 0.0


def test_curve_nonincreasing_and_closes_after_noise():
    U, h, plan = noisy_covering_unitary("reflection", 10, seed=4, noise_radius=2.0, layers=1)
    radii = [0.0, 1.0, 2.0, 3.0, 5.0, 9.0]
    curve = [(R, supported_distance_upper(U, h, R)) for R in radii]
    values = [e for _, e in curve]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
    # noise propagation is at most 2, so the curve closes by support radius + 2
    cutoff = plan.support_radius + 2.0
    for r, e in curve:
        if r >= cutoff:
            assert e <= 1e-9


def test_curve_stays_large_for_uncorrelated_unitary():
    U = dft_operator(10)
    h = reflection_map(10)
    curve = [(R, supported_distance_upper(U, h, R)) for R in [0.0, 3.0, 6.0, 9.0]]
    assert curve[0][1] > 1.0
    assert curve[2][1] > 0.3  # still far from supported at two thirds of the diameter
    assert curve[3][1] <= 1e-12  # the diameter supports everything


def test_upgrade_empty_projection():
    U = dft_operator(6)
    res = upgrade_trick(U, identity_map(path_space(6)), [], 0.5)
    assert res.error == 0.0
    assert np.allclose(res.V.matrix, np.eye(6))
    assert res.t.norm() == 0.0


def test_upgrade_exact_cover_is_lossless():
    f = halving_map_10()
    W, plan = covering_unitary(f, FiberedSpace.uniform(f.source, 2))
    res = upgrade_trick(W, f, [(0, 1), (4, 2)], 0.3)
    assert res.R == plan.support_radius
    assert res.error == 0.0
    assert res.ortho_residual <= 1e-9


def test_upgrade_banded_noise_fixture():
    fib = FiberedSpace.uniform(path_space(12), 6)
    V = random_band_unitary(fib, 2.0, 1, seed=0)
    for eps in (0.1, 0.01):
        res = upgrade_trick(V, identity_map(path_space(12)), [(1, 1), (5, 1), (9, 1)], eps)
        assert res.error <= eps
        assert res.ortho_residual <= 1e-9
        assert res.V.propagation() == 0.0
        assert res.V.unitarity_residual() <= 1e-12


def test_upgrade_spread_unitary_needs_fiber_room():
    # a fully spread 4-point unitary leaves a rank-one footprint at the
    # second point, so singleton fibers cannot host the rotation
    n = 4
    F4 = np.array([[1j ** (m * k) for k in range(n)] for m in range(n)]) / 2
    X = path_space(n)
    fib1 = FiberedSpace.uniform(X, 1)
    U1 = BlockOperator(fib1, fib1, F4)
    with pytest.raises(ValueError, match="need dimension >= 2"):
        upgrade_trick(U1, identity_map(X), [(0, 1), (1, 1)], 0.9)


def test_upgrade_spread_unitary_with_room_meets_epsilon():
    n = 4
    F4 = np.array([[1j ** (m * k) for k in range(n)] for m in range(n)]) / 2
    X = path_space(n)
    fib2 = FiberedSpace.uniform(X, 2)
    U2 = BlockOperator(fib2, fib2, np.kron(F4, np.eye(2)))
    res = upgrade_trick(U2, identity_map(X), [(0, 1), (1, 1)], 0.9)
    # every column tail is sqrt(3)/2; orthogonality collapses the sum to the max
    assert res.error == pytest.approx(np.sqrt(3) / 2, abs=1e-12)
    assert res.error <= 0.9
    assert res.ortho_residual <= 1e-9
    mask = res.t.block_frobenius() > 1e-12
    ys, xs = np.nonzero(mask)
    assert all(X.dist[x, y] <= res.R for y, x in zip(ys, xs))


def test_upgrade_radius_matches_per_point_loop(rng):
    cases = []
    for seed in range(8):
        X = random_graph_space(rng, int(rng.integers(5, 12)), extra_edges=int(rng.integers(0, 4)))
        U = random_band_unitary(random_fibered(rng, X), 1.0, int(rng.integers(1, 4)), seed)
        cases.append((U, PointMap(X, X, rng.integers(0, X.n, size=X.n))))
        cases.append((U, identity_map(X)))
    for kind in ("identity", "reflection", "halving"):
        for seed in range(3):
            U, h, _ = noisy_covering_unitary(kind, 6, seed, layers=2)
            cases.append((U, h))
    for U, f in cases:
        for eps in (0.05, 0.2, 0.5, 0.9):
            assert upgrade_trick(U, f, [], eps).R == reference_support_radius(U, f, eps)


def test_standard_pairs_share_their_spaces():
    h, partner = standard_pair("halving", 4)
    assert h.source is partner.target and h.target is partner.source
    h, partner = standard_pair("reflection", 5)
    assert h is partner
    assert list(h.values) == [4, 3, 2, 1, 0]


def test_upgrade_rejects_duplicate_points():
    U = dft_operator(6, fiber_dim=2)
    with pytest.raises(ValueError, match="distinct"):
        upgrade_trick(U, identity_map(path_space(6)), [(2, 1), (2, 1)], 0.9)


def test_outer_roundtrip_on_noisy_automorphism():
    U, h, plan = noisy_covering_unitary("identity", 10, seed=5)
    rep = outer_roundtrip(U, 0.5)
    assert rep.residual_U <= 1e-9
    assert rep.residual_W <= 1e-12
    assert rep.residual_UWs <= 1e-9
    # UW* must be near-banded: its window collapses once R clears the
    # cover radius plus the noise propagation
    uws_prop_bound = rep.plan.support_radius + rep.extraction.R + 2.0
    for r, lower, upper in rep.windows:
        assert lower <= upper + 1e-12
        if r >= uws_prop_bound:
            assert upper <= 1e-9


def test_outer_roundtrip_identity_degenerate():
    fib = FiberedSpace.uniform(path_space(8), 2)
    from roelab.operators import identity_operator

    rep = outer_roundtrip(identity_operator(fib), 0.5)
    assert rep.extraction.equivalence.closeness_fg == 0.0
    assert rep.extraction.equivalence.closeness_gf == 0.0
    for _, lower, upper in rep.windows:
        assert upper <= 1e-12


def test_outer_roundtrip_respects_radius_grid():
    U, _, _ = noisy_covering_unitary("identity", 8, seed=7)
    rep = outer_roundtrip(U, 0.5, radius_grid=[0.0, 2.0, 4.0])
    assert [r for r, _, _ in rep.windows] == [0.0, 2.0, 4.0]


def test_outer_roundtrip_takes_each_norm_once(monkeypatch):
    # ||UW*|| bounds every grid radius's window; it is taken once, not per radius
    taken = []
    real = operators.spectral_norm
    monkeypatch.setattr(operators, "spectral_norm", lambda mat: taken.append(mat) or real(mat))
    U, _, _ = noisy_covering_unitary("reflection", 10, seed=2)
    rep = outer_roundtrip(U, 0.5, radius_grid=[0.0, 1.0, 2.0, 4.0])
    assert len(rep.windows) == 4
    assert len({id(mat) for mat in taken}) == len(taken)


def test_noisy_covering_unitary_matches_a_cover_built_per_call():
    for kind, n, fiber_dim in [("identity", 8, 1), ("reflection", 12, 2), ("halving", 10, 1)]:
        h, _ = standard_pair(kind, n)
        source = FiberedSpace.uniform(h.source, fiber_dim)
        W, plan = covering_unitary(h, source)
        for seed in range(3):
            V = random_band_unitary(source, 2.0, 2, seed)
            U, h_cached, plan_cached = noisy_covering_unitary(kind, n, seed, 2.0, 2, fiber_dim)
            assert np.array_equal(U.matrix, (W @ V).matrix)
            assert np.array_equal(h_cached.values, h.values)
            assert plan_cached.to_json() == plan.to_json()


@pytest.mark.parametrize("seed", range(4))
def test_outer_roundtrip_spilled_cover(seed):
    # reflection swaps 1-dim and 2-dim fibers, so no block of f's cover balances
    fib = FiberedSpace(path_space(12), [1 + (i % 2) for i in range(12)])
    W, _ = covering_unitary(reflection_map(12), fib, target=fib)
    rep = outer_roundtrip(W @ random_band_unitary(fib, 2.0, 1, seed), 0.5)
    plan, f = rep.plan, rep.extraction.f
    assert plan.spill
    src_pts = fib.coord_point
    tgt_pts = plan.target.coord_point[plan.assignment]
    assert plan.support_radius == fib.base.dist[f.values[src_pts], tgt_pts].max()
    assert rep.residual_W == 0
    assert rep.residual_UWs <= 1e-9
