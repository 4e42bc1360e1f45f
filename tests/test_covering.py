"""Covering unitaries, supported approximation, the upgrade step, outer roundtrip."""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from roelab import covering, operators
from roelab.covering import (
    _complement,
    _orthonormal_columns,
    _support_radius_for,
    covering_unitary,
    outer_roundtrip,
    upgrade_trick,
)
from roelab.fixtures import noisy_covering_unitary, standard_pair
from roelab.maps import PointMap, identity_map
from roelab.operators import BlockOperator, FiberedSpace, random_band_unitary, supported_distance_upper
from roelab.serialize import report_bytes
from roelab.spaces import path_space

from conftest import random_fibered, random_graph_space, reference_cells


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


def reference_upgrade_trick(U, f, p_spec, epsilon):
    """The upgrade step on dense N x N matrices: p, Vp, UVp and every
    discarded term d_i as full matrices.  Returns (V, t, error, R, ortho)."""
    src = U.source
    spec = []
    for x_i, E in sorted(p_spec, key=lambda item: int(item[0])):
        d = int(src.fiber_dims[x_i])
        if isinstance(E, (int, np.integer)):
            E = np.eye(d, dtype=complex)[:, :E]
        spec.append((int(x_i), np.asarray(E, dtype=complex)))
    R = _support_radius_for(U, f, epsilon)
    tbase = U.target.base
    outside_mask = [(tbase.dist[f.values[x]] > R)[U.target.coord_point] for x, _ in spec]
    v_mat = np.eye(src.total_dim, dtype=complex)
    f_columns = []
    for i, (x_i, E_i) in enumerate(spec):
        d = int(src.fiber_dims[x_i])
        sl = src.slice_of(x_i)
        spans = [
            U.matrix.conj().T @ (cols * (outside_mask[i] & outside_mask[j])[:, None])
            for j, cols in enumerate(f_columns)
        ]
        if spans:
            G = _orthonormal_columns(np.concatenate(spans, axis=1)[sl])
        else:
            G = np.zeros((d, 0), dtype=complex)
        k = E_i.shape[1]
        if k + G.shape[1] > d:
            raise ValueError(
                f"fiber at point {x_i} too small: need dimension >= {k + G.shape[1]} "
                f"(rank {k} plus footprint {G.shape[1]}), have {d}"
            )
        W = _complement(G, d)[:, :k]
        V_i = W @ E_i.conj().T + _complement(W, d) @ _complement(E_i, d).conj().T
        v_mat[sl, sl] = V_i
        lifted = np.zeros((src.total_dim, k), dtype=complex)
        lifted[sl] = V_i @ E_i
        f_columns.append(U.matrix @ lifted)
    p_mat = np.zeros((src.total_dim, src.total_dim), dtype=complex)
    for x_i, E_i in spec:
        sl = src.slice_of(x_i)
        p_mat[sl, sl] = E_i @ E_i.conj().T
    uvp = U.matrix @ (v_mat @ p_mat)
    t_mat = np.zeros_like(uvp)
    discarded = []
    for i, (x_i, _) in enumerate(spec):
        sl = src.slice_of(x_i)
        t_mat[:, sl] = uvp[:, sl] * ~outside_mask[i][:, None]
        term = np.zeros_like(uvp)
        term[:, sl] = uvp[:, sl] * outside_mask[i][:, None]
        discarded.append(term)
    ortho = 0.0
    for i in range(len(discarded)):
        for j in range(i + 1, len(discarded)):
            ortho = max(ortho, operators.spectral_norm(discarded[i].conj().T @ discarded[j]))
    return v_mat, t_mat, operators.spectral_norm(t_mat - uvp), R, ortho


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


def test_cached_plan_is_read_only():
    # calls that differ only in the noise share one plan, so no caller can
    # change it under the next one
    _, _, plan = noisy_covering_unitary("identity", 8, seed=0)
    with pytest.raises(ValueError, match="read-only"):
        plan.assignment[0] = 5
    for block in (plan.net, *plan.source_blocks, *plan.target_blocks):
        with pytest.raises(ValueError, match="read-only"):
            block[0] = 5
    with pytest.raises(AttributeError):
        plan.source_blocks.append("x")
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.support_radius = 9.0
    _, _, later = noisy_covering_unitary("identity", 8, seed=1)
    assert later is plan
    assert later.assignment.tolist() == list(range(8)) and later.support_radius == 0.0


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
    assert np.array_equal(plan.target_fiber_dims, src.fiber_dims)


def test_cover_rejects_mismatched_target_total():
    X = path_space(6)
    f = identity_map(X)
    src = FiberedSpace.uniform(X, 2)
    too_small = FiberedSpace.uniform(X, 1)
    with pytest.raises(ValueError):
        covering_unitary(f, src, target=too_small)


@pytest.mark.parametrize("source, target, message", [
    pytest.param(FiberedSpace.uniform(path_space(5), 2), None,
                 "the fibered source must sit over the map's source space", id="source"),
    pytest.param(FiberedSpace.uniform(path_space(6), 2), FiberedSpace.uniform(path_space(7), 2),
                 "prescribed target space must sit over the map's target space", id="target"),
])
def test_cover_refuses_spaces_off_the_map(source, target, message):
    with pytest.raises(ValueError) as err:
        covering_unitary(identity_map(path_space(6)), source, target=target)
    assert str(err.value) == message


def test_cover_refuses_a_block_with_too_few_source_dimensions():
    # the net {0, 1} maps to {0, 2}; target point 1 ties into 0's cell, which
    # source point 0 must cover alone with one dimension
    f = PointMap(path_space(2), path_space(3), [0, 2])
    with pytest.raises(ValueError) as err:
        covering_unitary(f, FiberedSpace.uniform(path_space(2), 1))
    assert str(err.value) == (
        "cannot reconcile fibers: block around net point with source total 1 must cover "
        "2 target points; increase source fiber dims"
    )


def reference_cover(f, source, separation=0.0, target=None):
    """covering_unitary by a per-block loop: per-center cells, each block's
    total and synthesized dimensions in turn, and the coordinate streams
    concatenated from one `coords_of` scan per block.  Returns (matrix,
    assignment, source blocks, target blocks, spill, support radius,
    target fiber dims)."""
    Y = f.target
    _, net = covering._injective_net(f, separation)
    source_blocks = reference_cells(f.source, net)
    target_blocks = reference_cells(Y, f.values[net])
    if target is None:
        dims_t = np.zeros(Y.n, dtype=np.int64)
        for blk_x, blk_y in zip(source_blocks, target_blocks):
            total = int(source.fiber_dims[blk_x].sum())
            if total < blk_y.size:
                raise ValueError(
                    f"cannot reconcile fibers: block around net point with source total "
                    f"{total} must cover {blk_y.size} target points; increase source fiber dims"
                )
            base_dim, rem = divmod(total, blk_y.size)
            dims_t[blk_y] = base_dim
            dims_t[blk_y[:rem]] += 1
        target = FiberedSpace(Y, dims_t)
    src_coords = [source.coords_of(blk) for blk in source_blocks]
    tgt_coords = [target.coords_of(blk) for blk in target_blocks]
    spill = any(a.size != b.size for a, b in zip(src_coords, tgt_coords))
    assignment = np.zeros(source.total_dim, dtype=np.int64)
    assignment[np.concatenate(src_coords)] = np.concatenate(tgt_coords)
    mat = np.zeros((target.total_dim, source.total_dim), dtype=complex)
    mat[assignment, np.arange(source.total_dim)] = 1.0
    radius = float(Y.dist[f.values[source.coord_point], target.coord_point[assignment]].max())
    return mat, assignment, source_blocks, target_blocks, spill, radius, target.fiber_dims


def _cover_cases():
    """(f, source, separation, target) over seeded maps: the standard kinds
    and random maps between random graphs, mixed fibers, separation 0 and
    a realized distance, synthesized targets and prescribed ones, which
    spill."""
    rng = np.random.default_rng(53)
    cases = []
    for kind in ("identity", "reflection", "halving"):
        for n in (5, 24, 60):
            f, _ = standard_pair(kind, n)
            for separation in (0.0, 2.0):
                cases.append((f, random_fibered(rng, f.source), separation, None))
    for _ in range(30):
        X = random_graph_space(rng, int(rng.integers(2, 40)), extra_edges=int(rng.integers(0, 5)))
        Y = random_graph_space(rng, int(rng.integers(1, 30)), extra_edges=int(rng.integers(0, 5)))
        f = PointMap(X, Y, rng.integers(0, Y.n, size=X.n))
        source = random_fibered(rng, X)
        separation = float(rng.choice([0.0, *X.realized_distances()]))
        cases.append((f, source, separation, None))
        if source.total_dim >= Y.n:  # a prescribed target: the same total, spread at random
            dims = 1 + rng.multinomial(source.total_dim - Y.n, np.full(Y.n, 1 / Y.n))
            cases.append((f, source, separation, FiberedSpace(Y, dims)))
    return cases


def test_cover_matches_the_per_block_loop():
    spills, refusals = 0, 0
    for f, source, separation, target in _cover_cases():
        try:
            expected = reference_cover(f, source, separation, target)
        except ValueError as err:
            with pytest.raises(ValueError) as got:
                covering_unitary(f, source, separation, target)
            assert str(got.value) == str(err)
            refusals += 1
            continue
        W, plan = covering_unitary(f, source, separation, target)
        mat, assignment, source_blocks, target_blocks, spill, radius, dims = expected
        assert W.matrix.tobytes() == mat.tobytes()
        for got, want in ((plan.assignment, assignment), (plan.target_fiber_dims, dims),
                          *zip(plan.source_blocks, source_blocks), *zip(plan.target_blocks, target_blocks)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert len(plan.source_blocks) == len(source_blocks) and len(plan.target_blocks) == len(target_blocks)
        assert plan.spill is spill and plan.support_radius == radius
        spills += spill
    assert spills > 0 and refusals > 0


def test_every_cover_is_recognised_as_a_permutation(monkeypatch):
    covers = []
    for f, source, separation, target in _cover_cases():
        try:
            covers.append(covering_unitary(f, source, separation, target))
        except ValueError:
            continue
    assert any(plan.spill for _, plan in covers) and any(plan.separation > 0 for _, plan in covers)
    calls, eigvalsh = [], operators.np.linalg.eigvalsh
    monkeypatch.setattr(operators.np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    for W, plan in covers:
        perm = operators._permutation(W)
        assert perm is not None and perm[plan.assignment].tolist() == list(range(W.matrix.shape[1]))
        residual = W.unitarity_residual()
        assert residual == 0.0 and not np.signbit(residual)
    assert calls == []
    # the spy sees a residual that is not a permutation's
    V = random_band_unitary(covers[0][0].source, 1.0, 1, seed=0)
    V.unitarity_residual()
    assert calls == [V.matrix.shape]


def test_cover_keeps_its_matrix_with_no_copy():
    f, _ = standard_pair("halving", 400)
    source = FiberedSpace.uniform(f.source, 1)
    f.source.realized_distances()  # the space's levels, kept on it, are not the cover's
    tracemalloc.start()
    try:
        W, _ = covering_unitary(f, source)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 0/1 matrix takes 16 N^2 bytes at N = 800; a copy took as much again
    assert peak < 1.25 * W.matrix.nbytes


def test_curve_hits_zero_at_support_radius():
    f = halving_map_10()
    U, plan = covering_unitary(f, FiberedSpace.uniform(f.source, 1))
    curve = [(R, supported_distance_upper(U, f, R)) for R in [plan.support_radius, 2.0]]
    assert curve[0][1] == 0.0
    assert curve[1][1] == 0.0


def test_curve_closes_after_noise():
    U, h, plan = noisy_covering_unitary("reflection", 10, seed=4, noise_radius=2.0, layers=1)
    radii = [0.0, 1.0, 2.0, 3.0, 5.0, 9.0]
    curve = [(R, supported_distance_upper(U, h, R)) for R in radii]
    # noise propagation is at most 2, so the curve closes by support radius + 2
    cutoff = plan.support_radius + 2.0
    for r, e in curve:
        if r >= cutoff:
            assert e <= 1e-9


def test_curve_stays_large_for_uncorrelated_unitary():
    U = dft_operator(10)
    h = standard_pair("reflection", 10)[0]
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


def test_standard_pair_refuses_an_unknown_kind():
    with pytest.raises(ValueError) as err:
        standard_pair("rotation", 4)
    assert str(err.value) == "unknown map kind 'rotation'; expected identity, reflection, or halving"


def test_upgrade_rejects_duplicate_points():
    U = dft_operator(6, fiber_dim=2)
    with pytest.raises(ValueError, match="distinct"):
        upgrade_trick(U, identity_map(path_space(6)), [(2, 1), (2, 1)], 0.9)


def _unit_column(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return (v / np.linalg.norm(v))[:, None]


def test_upgrade_matches_dense_reference(rng):
    counts = {"feasible": 0, "error": 0, "ortho": 0, "infeasible": 0}
    for case in range(40):
        X = random_graph_space(rng, int(rng.integers(4, 16)), extra_edges=int(rng.integers(0, 4)))
        fib = FiberedSpace(X, rng.integers(2, 5, size=X.n))
        if case % 2:
            U = random_band_unitary(fib, 1.0, int(rng.integers(1, 3)), case)
        else:
            N = fib.total_dim
            q, _ = np.linalg.qr(rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)))
            U = BlockOperator(fib, fib, q)
        f = identity_map(X) if case % 3 == 0 else PointMap(X, X, rng.integers(0, X.n, size=X.n))
        points = rng.choice(X.n, size=int(rng.integers(1, min(X.n, 5) + 1)), replace=False)
        p_spec = [
            (int(x), 1 if rng.random() < 0.5 else _unit_column(rng, int(fib.fiber_dims[x])))
            for x in points
        ]
        for eps in (0.05, 0.3, 0.9):
            try:
                V, t, error, R, ortho = reference_upgrade_trick(U, f, p_spec, eps)
            except ValueError as exc:
                with pytest.raises(ValueError) as raised:
                    upgrade_trick(U, f, p_spec, eps)
                assert str(raised.value) == str(exc)
                counts["infeasible"] += 1
                continue
            res = upgrade_trick(U, f, p_spec, eps)
            assert res.R == R
            assert np.abs(res.V.matrix - V).max() <= 1e-14
            assert np.abs(res.t.matrix - t).max() <= 1e-14
            assert abs(res.error - error) <= 1e-14
            assert abs(res.ortho_residual - ortho) <= 1e-14
            counts["feasible"] += 1
            counts["error"] += error > 0
            counts["ortho"] += ortho > 0
    # the comparison reaches lossy, overlapping and infeasible cases
    assert counts["feasible"] >= 100
    assert min(counts.values()) > 0, counts


def test_upgrade_builds_no_dense_scratch():
    X = path_space(60)
    U = random_band_unitary(FiberedSpace.uniform(X, 3), 2.0, 2, seed=1)
    p_spec = [(x, 1) for x in range(0, 60, 4)]
    tracemalloc.start()
    try:
        upgrade_trick(U, identity_map(X), p_spec, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # V and t are 0.5 MiB each at N = 180; the dense N x N terms peaked at 11.5 MiB
    assert peak < 5 * 2**20


def test_upgrade_accepts_orthonormal_columns(rng):
    U = dft_operator(6, fiber_dim=3)
    f = identity_map(path_space(6))
    by_rank = upgrade_trick(U, f, [(1, 2), (4, 1)], 0.9)
    by_basis = upgrade_trick(U, f, [(1, np.eye(3)[:, :2]), (4, np.eye(3)[:, :1])], 0.9)
    assert np.array_equal(by_rank.V.matrix, by_basis.V.matrix)
    assert np.array_equal(by_rank.t.matrix, by_basis.t.matrix)
    E = _unit_column(rng, 3)
    res = upgrade_trick(U, f, [(1, E), (4, _unit_column(rng, 3))], 0.9)
    assert res.error <= 0.9
    assert res.V.unitarity_residual() <= 1e-12
    assert res.V.propagation() == 0.0
    # t keeps the near columns of UVp over point 1, which sees only E
    sl = U.source.slice_of(1)
    V_1 = res.V.matrix[sl, sl]
    uvp = U.matrix[:, sl] @ V_1 @ E @ E.conj().T
    near = U.target.coord_mask(np.flatnonzero(path_space(6).dist[1] <= res.R))
    assert np.allclose(res.t.matrix[:, sl], uvp * near[:, None], atol=1e-14)


@pytest.mark.parametrize(
    "E, message",
    [
        (0, "rank 0 out of range for fiber dimension 2 at point 3"),
        (3, "rank 3 out of range for fiber dimension 2 at point 3"),
        (np.eye(3)[:, :1], "basis at point 3 must have 2 rows"),
        (np.ones((2, 1)), "basis columns at point 3 are not orthonormal"),
        (True, "rank at point 3 must be an integer, got True"),
        (np.zeros((2, 0)), "rank 0 out of range for fiber dimension 2 at point 3"),
    ],
)
def test_upgrade_rejects_malformed_fiber_spec(E, message):
    U = dft_operator(6, fiber_dim=2)
    with pytest.raises(ValueError, match=message):
        upgrade_trick(U, identity_map(path_space(6)), [(3, E)], 0.9)


@pytest.mark.parametrize("f", [
    pytest.param(identity_map(path_space(5)), id="source"),
    pytest.param(PointMap(path_space(6), path_space(7), range(6)), id="target"),
])
def test_upgrade_refuses_a_map_off_the_operator(f):
    U = dft_operator(6, fiber_dim=2)
    with pytest.raises(ValueError) as err:
        upgrade_trick(U, f, [(3, 1)], 0.9)
    assert str(err.value) == "map must go from the operator's source base to its target base"


@pytest.mark.parametrize("E", [1.5, np.float64(1.0), "1"])
def test_upgrade_refuses_non_integer_ranks(E):
    # these used to be refused as "basis at point 3 must have 2 rows"
    U = dft_operator(6, fiber_dim=2)
    with pytest.raises(ValueError) as err:
        upgrade_trick(U, identity_map(path_space(6)), [(3, E)], 0.9)
    assert str(err.value) == f"rank at point 3 must be an integer, got {E!r}"


@pytest.mark.parametrize("x, message", [
    (0.7, "point must be an integer, got 0.7"),
    (True, "point must be an integer, got True"),
    (99, "point 99 out of range [0, 6)"),
    (-1, "point -1 out of range [0, 6)"),
])
def test_upgrade_rejects_malformed_points(x, message):
    # these used to run as point 0 or 1, or fail inside numpy
    U = dft_operator(6, fiber_dim=2)
    with pytest.raises(ValueError) as err:
        upgrade_trick(U, identity_map(path_space(6)), [(2, 1), (x, 1)], 0.9)
    assert str(err.value) == message


def _assert_uws_has_the_residual_of_u(U, rep):
    # (UP)*(UP) - I = P*(U*U - I)P: UW* has U's residual, up to the
    # rounding of `eigvalsh` on the permuted Gram matrix
    W, _ = covering_unitary(rep.extraction.f, U.source, target=U.source)
    assert abs((U @ W.adjoint()).unitarity_residual() - rep.residual_U) <= 1e-15


def test_outer_roundtrip_on_noisy_automorphism():
    U, h, plan = noisy_covering_unitary("identity", 10, seed=5)
    rep = outer_roundtrip(U, 0.5)
    assert rep.residual_U <= 1e-9
    assert rep.residual_W <= 1e-12
    _assert_uws_has_the_residual_of_u(U, rep)
    # UW* is banded, within the cover radius plus the noise propagation:
    # the default grid ends at p = prop(UW*), where the window collapses
    # to [0, 0], and every window below p has a positive upper member
    # (on the reflection of path(60), four windows at R = 0-3)
    reflection = noisy_covering_unitary("reflection", 60, 1, 1.0, 2, 2)[0]
    for T, report, opened in ((U, rep, 1), (reflection, outer_roundtrip(reflection, 0.5), 4)):
        W, _ = covering_unitary(report.extraction.f, T.source, target=T.source)
        p = (T @ W.adjoint()).propagation()
        assert p <= report.plan.support_radius + report.extraction.R + 2.0
        *below, last = report.windows
        assert last == (p, 0.0, 0.0) and len(below) == opened
        for r, lower, upper in below:
            assert r < p and upper > 0.0 and lower <= upper + 1e-12
    for kind, n, fiber_dim, seed in itertools.product(("identity", "reflection"), (10, 20, 60), (1, 2), range(4)):
        U, _, _ = noisy_covering_unitary(kind, n, seed, 1.0, 2, fiber_dim)
        _assert_uws_has_the_residual_of_u(U, outer_roundtrip(U, 0.5, radius_grid=[0.0]))


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


def test_outer_roundtrip_takes_one_column_pass(monkeypatch):
    # UW*'s largest column norm depends on UW* alone, so `derived` keeps it:
    # the six radii of the default grid share one pass over its columns
    passes = []
    real = operators._column_norm_max
    monkeypatch.setattr(operators, "_column_norm_max", lambda T: passes.append(T) or real(T))
    U, _, _ = noisy_covering_unitary("reflection", 40, seed=1, fiber_dim=2)
    rep = outer_roundtrip(U, 0.5)
    assert len(rep.windows) == 6
    assert len(passes) == 1


@pytest.mark.parametrize("kind, n, fiber_dim", [("reflection", 13, 2), ("identity", 10, 1)])
def test_outer_roundtrip_takes_uws_from_the_product(monkeypatch, kind, n, fiber_dim):
    # U W* is `U @ W.adjoint()`: W*'s permutation index is the plan's
    # assignment, so the product takes U's columns through its inverse.
    # The adjoints are extraction's U* and W*, and U, W* and W are each
    # looked at for a permutation once: U and W for their residuals, W*
    # by the product
    U, _, _ = noisy_covering_unitary(kind, n, seed=3, fiber_dim=fiber_dim)
    adjoints, scanned, windows = [], [], []
    adjoint, permutation, window = BlockOperator.adjoint, operators._permutation, covering.approximability_window

    def spy_adjoint(T):
        adjoints.append((T, adjoint(T)))
        return adjoints[-1][1]

    monkeypatch.setattr(BlockOperator, "adjoint", spy_adjoint)
    monkeypatch.setattr(operators, "_permutation", lambda T: scanned.append(T) or permutation(T))
    monkeypatch.setattr(covering, "approximability_window", lambda T, R: windows.append(T) or window(T, R))
    rep = outer_roundtrip(U, 0.5, radius_grid=[0.0, 1.0])
    UWs = windows[0]
    (U_in, _), (W, Ws) = adjoints
    assert U_in is U
    assert len(scanned) == 3 and all(T is S for T, S in zip(scanned, (U, Ws, W)))
    assert np.array_equal(permutation(Ws), rep.plan.assignment)
    assert rep.residual_W == 0.0
    monkeypatch.undo()
    gathered = np.take(U.matrix, np.argsort(rep.plan.assignment), axis=1) + 0.0
    assert UWs.matrix.tobytes() == gathered.tobytes()
    assert (UWs.source, UWs.target) == (U.source, U.target)
    assert UWs.matrix.flags.c_contiguous and not UWs.matrix.flags.writeable


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
            assert report_bytes(plan_cached) == report_bytes(plan)


@pytest.mark.parametrize("seed", range(4))
def test_outer_roundtrip_spilled_cover(seed):
    # reflection swaps 1-dim and 2-dim fibers, so no block of f's cover balances
    fib = FiberedSpace(path_space(12), [1 + (i % 2) for i in range(12)])
    W, _ = covering_unitary(standard_pair("reflection", 12)[0], fib, target=fib)
    U = W @ random_band_unitary(fib, 2.0, 1, seed)
    rep = outer_roundtrip(U, 0.5)
    plan, f = rep.plan, rep.extraction.f
    assert plan.spill
    src_pts = fib.coord_point
    tgt_pts = fib.coord_point[plan.assignment]
    assert plan.support_radius == fib.base.dist[f.values[src_pts], tgt_pts].max()
    assert rep.residual_W == 0
    _assert_uws_has_the_residual_of_u(U, rep)
