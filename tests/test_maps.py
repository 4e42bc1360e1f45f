"""Coarse map calculus: moduli, closeness, equivalence, nets, partitions."""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from roelab import maps
from roelab.maps import (
    PointMap,
    certify_equivalence,
    closeness,
    compose,
    greedy_net,
    identity_map,
    voronoi_partition,
)
from roelab.operators import FiberedSpace
from roelab.spaces import FiniteMetricSpace, path_space

from conftest import random_graph_space, reference_cells


def halving(n):
    return PointMap(path_space(2 * n), path_space(n), [i // 2 for i in range(2 * n)])


def test_identity_modulus_is_capped_realized_distance():
    X = path_space(6)
    f = identity_map(X)
    for r in range(6):
        assert f.modulus(r) == r


def test_halving_modulus():
    f = halving(5)
    assert f.modulus(3) == 2
    assert f.modulus(0) == 0


def test_constant_map_modulus_zero():
    X = path_space(8)
    f = PointMap(X, X, [3] * 8)
    assert f.modulus(X.diameter) == 0


def test_modulus_monotone(rng):
    for _ in range(10):
        X = random_graph_space(rng, 8, extra_edges=2)
        Y = random_graph_space(rng, 6, extra_edges=2)
        f = PointMap(X, Y, rng.integers(0, 6, size=8))
        prof = [f.modulus(r) for r in range(int(X.diameter) + 1)]
        assert all(a <= b for a, b in zip(prof, prof[1:]))


def _line_space(rng, n):
    """Points at random real positions on a line: a non-graph metric whose
    distances are distinct floats."""
    x = np.sort(rng.random(n)) * 10
    return FiniteMetricSpace(np.abs(x[:, None] - x[None, :]))


def _ulp_space(rng, n):
    """A non-graph metric whose n(n-1)/2 distances are the consecutive
    floats from 1.0 up, shuffled over the pairs: any entries in [1, 2]
    make a metric, and neighbouring levels differ in the last ulp."""
    levels = [1.0]
    for _ in range(n * (n - 1) // 2 - 1):
        levels.append(np.nextafter(levels[-1], 2.0))
    dist = np.zeros((n, n))
    i, j = np.triu_indices(n, 1)
    dist[i, j] = rng.permutation(levels)
    return FiniteMetricSpace(dist + dist.T)


def test_modulus_profile_equals_direct_modulus(rng):
    pairs = []
    for _ in range(20):
        n_x, n_y = rng.integers(1, 12, size=2)
        X = random_graph_space(rng, int(n_x), extra_edges=int(rng.integers(0, 4)))
        Y = random_graph_space(rng, int(n_y), extra_edges=int(rng.integers(0, 4)))
        pairs.append((X, Y))
    scaled = FiniteMetricSpace(path_space(7).dist * 0.3)
    pairs += [(scaled, scaled), (scaled, path_space(4)), (path_space(9), scaled)]
    lines = [_line_space(rng, n) for n in (1, 2, 8, 11)]
    assert lines[-1].realized_distances().size == 11 * 10 // 2 + 1  # distinct float levels
    pairs += [(line, _line_space(rng, 6)) for line in lines]
    hops = FiniteMetricSpace(random_graph_space(rng, 10, extra_edges=3).dist.tolist())  # certified
    point = FiniteMetricSpace([[0.0]])
    ulps = _ulp_space(rng, 6)
    assert ulps.realized_distances().size == 6 * 5 // 2 + 1  # levels one ulp apart
    assert "edges" in hops.to_json() and "dist" in ulps.to_json()  # one space per label route
    pairs += [(hops, ulps), (point, hops), (path_space(1), ulps), (ulps, _ulp_space(rng, 5)), (ulps, hops)]
    for X, Y in pairs:
        f = PointMap(X, Y, rng.integers(0, Y.n, size=X.n))
        spread = Y.dist[np.ix_(f.values, f.values)]

        def direct(r):  # the max over the pairs, independent of the profile
            return float(spread[X.dist <= r].max())

        radii = X.realized_distances()
        expected = [(float(r), direct(r)) for r in radii]
        assert json.dumps(f.modulus_profile()) == json.dumps(expected)
        # modulus(r) reads the profile at every level, between levels, at 0 and at inf
        for r in [0.0, np.inf, *radii, *(radii[:-1] + radii[1:]) / 2]:
            assert f.modulus(float(r)) == direct(r)


def test_map_state_goes_through_derived():
    # a map's next cache is a `derived` builder, not a new slot
    f = halving(4)
    f.modulus(1.0)
    assert sorted(set(vars(f)) - {"source", "target", "values", "_derived"}) == []
    assert [key[0] for key in vars(f)["_derived"]] == [maps._level_moduli]
    assert not f.derived(maps._level_moduli).flags.writeable


def test_level_moduli_built_once_per_map(monkeypatch):
    calls = []
    build = maps._level_moduli  # the one builder behind a map's modulus
    monkeypatch.setattr(maps, "_level_moduli", lambda f: calls.append(f) or build(f))
    f, g = halving(4), halving(4)
    for _ in range(3):
        assert f.modulus(1.0) == 1.0 and g.modulus(2) == 1.0
        assert f.modulus_profile()[:3] == [(0.0, 0.0), (1.0, 1.0), (2.0, 1.0)]
    assert len(calls) == 2 and calls[0] is f and calls[1] is g  # equal maps, one build each


def test_closeness_basics():
    X = path_space(7)
    f = identity_map(X)
    g = PointMap(X, X, [min(i + 1, 6) for i in range(7)])
    assert closeness(f, f) == 0
    assert closeness(f, g) == 1


def test_closeness_matches_direct_max(rng):
    for _ in range(20):
        X = random_graph_space(rng, 9, extra_edges=2)
        Y = random_graph_space(rng, 7, extra_edges=2)
        f = PointMap(X, Y, rng.integers(0, 7, size=9))
        g = PointMap(X, Y, rng.integers(0, 7, size=9))
        expect = max(Y.dist[f(x), g(x)] for x in range(9))
        assert closeness(f, g) == expect


def test_closeness_rejects_mismatched_spaces():
    f = identity_map(path_space(4))
    g = identity_map(path_space(5))
    with pytest.raises(ValueError):
        closeness(f, g)


def test_closeness_refuses_maps_into_different_targets():
    X = path_space(4)
    f, g = PointMap(X, path_space(3), [0, 1, 2, 2]), PointMap(X, path_space(4), [0, 1, 2, 3])
    with pytest.raises(ValueError) as err:
        closeness(f, g)
    assert str(err.value) == "closeness needs maps with the same target space"


def test_compose_refuses_an_inner_map_into_another_space():
    f = identity_map(path_space(4))
    with pytest.raises(ValueError) as err:
        compose(identity_map(path_space(5)), f)
    assert str(err.value) == "compose: target of the inner map must equal source of the outer map"


def test_point_map_repr_gives_both_sizes():
    assert repr(PointMap(path_space(4), path_space(2), [0, 0, 1, 1])) == "PointMap(4 -> 2 points)"


def test_compose_applies_right_then_left():
    f = halving(5)
    g = PointMap(path_space(5), path_space(10), [2 * j for j in range(5)])
    gf = compose(g, f)
    assert [gf(i) for i in range(10)] == [2 * (i // 2) for i in range(10)]


def test_certify_identity_pair():
    X = path_space(6)
    rep = certify_equivalence(identity_map(X), identity_map(X))
    assert rep.closeness_fg == 0
    assert rep.closeness_gf == 0


def test_certify_halving_doubling():
    f = halving(5)
    g = PointMap(path_space(5), path_space(10), [2 * j for j in range(5)])
    rep = certify_equivalence(f, g)
    assert rep.closeness_fg == 0
    assert rep.closeness_gf == 1


def test_certify_constant_map_still_reports():
    X = path_space(6)
    Y = path_space(4)
    f = PointMap(X, Y, [0] * 6)
    g = PointMap(Y, X, [5, 0, 2, 1])
    rep = certify_equivalence(f, g)
    assert np.isfinite(rep.closeness_fg)
    assert np.isfinite(rep.closeness_gf)


def test_certify_rejects_mismatched_ends():
    f = halving(5)
    with pytest.raises(ValueError):
        certify_equivalence(f, f)


def test_composition_subordination(rng):
    # modulus(f∘g, r) ≤ modulus(f, modulus(g, r))
    for _ in range(15):
        X = random_graph_space(rng, 7, extra_edges=2)
        Y = random_graph_space(rng, 8, extra_edges=2)
        Z = random_graph_space(rng, 6, extra_edges=2)
        g = PointMap(X, Y, rng.integers(0, 8, size=7))
        f = PointMap(Y, Z, rng.integers(0, 6, size=8))
        fg = compose(f, g)
        for r in range(int(X.diameter) + 1):
            assert fg.modulus(r) <= f.modulus(g.modulus(r)) + 1e-12


def test_greedy_net_examples():
    X = path_space(7)
    assert list(greedy_net(X, 0)) == list(range(7))
    assert list(greedy_net(X, 2)) == [0, 3, 6]
    assert list(greedy_net(X, X.diameter)) == [0]


def test_greedy_net_separated_and_dominating(rng):
    for _ in range(15):
        X = random_graph_space(rng, 11, extra_edges=3)
        s = float(rng.integers(0, 5))
        net = greedy_net(X, s)
        for a in net:
            for b in net:
                if a != b:
                    assert X.dist[a, b] > s
        for x in range(X.n):
            assert min(X.dist[x, c] for c in net) <= s


def _scan_net(X, s):
    """Reference greedy net: keep x when every kept point lies farther than s."""
    kept = []
    for x in range(X.n):
        if all(X.dist[x, y] > s for y in kept):
            kept.append(x)
    return kept


def test_greedy_net_equals_pairwise_scan(rng):
    for _ in range(40):
        X = random_graph_space(rng, int(rng.integers(1, 30)), extra_edges=int(rng.integers(0, 8)))
        for s in [0.0] + [float(d) for d in X.realized_distances()]:
            assert list(greedy_net(X, s)) == _scan_net(X, s)
    with pytest.raises(ValueError, match="separation"):
        greedy_net(path_space(6), float("nan"))  # the net [0] would not dominate


def assert_reference_cells(space, centers):
    """voronoi_partition's cells are the per-center scans', in dtype and order."""
    cells, expected = voronoi_partition(space, centers), reference_cells(space, centers)
    assert len(cells) == len(expected)
    for cell, ref in zip(cells, expected):
        assert cell.dtype == ref.dtype == np.int64 and cell.tolist() == ref.tolist()
    return cells


def test_voronoi_examples():
    X = path_space(7)
    singletons = assert_reference_cells(X, list(range(7)))
    assert [list(b) for b in singletons] == [[i] for i in range(7)]
    blocks = assert_reference_cells(X, [0, 3, 6])
    assert [list(b) for b in blocks] == [[0, 1], [2, 3, 4], [5, 6]]
    assert [list(b) for b in assert_reference_cells(X, [0])] == [list(range(7))]
    assert [list(b) for b in assert_reference_cells(X, [6, 0, 3])] == [[5, 6], [0, 1], [2, 3, 4]]


def test_voronoi_partition_properties(rng):
    for _ in range(15):
        X = random_graph_space(rng, 10, extra_edges=3)
        k = int(rng.integers(1, 6))
        centers = rng.choice(X.n, size=k, replace=False)
        blocks = assert_reference_cells(X, centers)
        seen = np.concatenate(blocks)
        assert sorted(seen) == list(range(X.n))
        for c, block in zip(centers, blocks):
            assert c in block
            for x in block:
                best = min(X.dist[x, d] for d in centers)
                assert X.dist[x, c] == best
                # ties go to the smallest center point index
                winners = [int(d) for d in centers if X.dist[x, d] == best]
                assert c == min(winners)


@pytest.mark.parametrize("centers, message", [
    # these used to give the cells of centers 0 and 3, and of 1 and 3
    ([0.7, 3], "centers must be integers, got 0.7"),
    ([True, 3], "centers must be integers, got True"),
    (np.array([0.0, 3.0]), "centers must be integers, got 0.0"),
    ([9, 3, -1], r"center out of range \[0, 5\): \[9, -1\]"),
    # a 2-d array used to give cells of points outside the space
    (np.array([[0, 3], [1, 4]]),
     r"voronoi centers must be a nonempty list, got \[\[0, 3\], \[1, 4\]\]"),
    ([], r"voronoi centers must be a nonempty list, got \[\]"),
])
def test_voronoi_refuses_malformed_centers(centers, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        voronoi_partition(path_space(5), centers)


def test_voronoi_rejects_empty_or_repeated_centers():
    X = path_space(5)
    with pytest.raises(ValueError):
        voronoi_partition(X, [])
    with pytest.raises(ValueError):
        voronoi_partition(X, [1, 1])


def test_point_map_validation():
    X = path_space(4)
    Y = path_space(3)
    with pytest.raises(ValueError):
        PointMap(X, Y, [0, 1, 2])  # not total
    with pytest.raises(ValueError):
        PointMap(X, Y, [0, 1, 2, 3])  # out of target range


@pytest.mark.parametrize("values, named", [
    ([0.7, 1.9, True], "0.7"),
    ([0, 1, True], "True"),
    ([0, np.True_, 2], "np.True_"),
    ([0, 1, 2.0], "2.0"),
    (np.array([0.0, 1.0, 2.0]), "0.0"),
    (np.array([True, False, True]), "True"),
    (["0", 1, 2], "'0'"),
])
def test_point_map_refuses_bool_and_float_values(values, named):
    # int() would truncate these into a wrong map: 0.7 -> 0, 1.9 -> 1, True -> 1
    with pytest.raises(ValueError, match=f"map values must be integers, got {named}$"):
        PointMap(path_space(3), path_space(3), values)


@pytest.mark.parametrize("values", [
    [2, 0, 1],
    (2, 0, 1),
    range(2, -1, -1),
    [np.int32(2), np.int64(0), 1],
    np.array([2, 0, 1], dtype=np.uint8),
    np.array([2, 0, 1], dtype=object),
])
def test_point_map_takes_integer_tables(values):
    f = PointMap(path_space(3), path_space(3), values)
    assert f.values.dtype == np.int64
    assert f.values.tolist() == list(values)
    assert not f.values.flags.writeable


def test_point_map_copies_an_integer_array():
    table = np.array([2, 0, 1])
    f = PointMap(path_space(3), path_space(3), table)
    table[0] = 0  # the caller's array stays writable and does not reach the map
    assert f.values.tolist() == [2, 0, 1]


def test_point_map_keeps_length_and_range_messages():
    with pytest.raises(ValueError, match=r"expected 4, got 3$"):
        PointMap(path_space(4), path_space(3), np.array([0, 1, 2]))
    with pytest.raises(ValueError, match=r"out of range \[0, 3\): \[3, -1\]$"):
        PointMap(path_space(4), path_space(3), [0, 3, 1, -1])
    with pytest.raises(ValueError, match=r"out of range \[0, 3\): \[1180591620717411303424\]$"):
        PointMap(path_space(4), path_space(3), [0, 1, 2**70, 2])


@pytest.mark.parametrize("build, message", [
    # a 2-d table of the right size used to read "expected 3, got 3"
    pytest.param(lambda X: PointMap(X, X, np.array([[0, 1, 2]])),
                 "map needs one value per source point: expected 3, got shape (1, 3)", id="map"),
    pytest.param(lambda X: FiberedSpace(X, np.array([[1, 1, 1]])),
                 "need one fiber dimension per point: expected 3, got shape (1, 3)", id="fibers"),
])
def test_one_value_per_point_names_a_wrong_shape(build, message):
    with pytest.raises(ValueError) as err:
        build(path_space(3))
    assert str(err.value) == message


def test_point_map_accepts_an_empty_table_for_a_point_free_source():
    # no FiniteMetricSpace has 0 points, but the map itself reads only n
    empty = SimpleNamespace(n=0)
    for values in ([], np.array([]), np.zeros(0, dtype=np.int64)):
        f = PointMap(empty, path_space(3), values)
        assert f.values.shape == (0,) and f.values.dtype == np.int64


def test_map_json_shape():
    f = halving(4)
    data = f.to_json()
    assert data["table"] == [i // 2 for i in range(8)]


def test_point_map_names_each_bad_value_once():
    with pytest.raises(ValueError) as err:
        PointMap(path_space(4), path_space(5), [5, 5, 1, -1])
    assert str(err.value) == "map value out of range [0, 5): [5, -1]"


@pytest.mark.parametrize("x, message", [
    # -1 used to return the last point's image, and 1.0 and True to fail inside numpy
    (-1, "point -1 out of range [0, 4)"),
    (4, "point 4 out of range [0, 4)"),
    (1.0, "point must be an integer, got 1.0"),
    (True, "point must be an integer, got True"),
])
def test_point_map_call_refuses_bad_points(x, message):
    f = PointMap(path_space(4), path_space(4), [3, 2, 1, 0])
    assert [f(x) for x in (0, np.int64(1), np.uint8(3))] == [3, 2, 0]
    with pytest.raises(ValueError) as err:
        f(x)
    assert str(err.value) == message
