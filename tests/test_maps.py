"""Coarse map calculus: moduli, closeness, equivalence, nets, partitions."""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from roelab.maps import (
    PointMap,
    certify_equivalence,
    closeness,
    compose,
    greedy_net,
    identity_map,
    voronoi_partition,
)
from roelab.spaces import FiniteMetricSpace, path_space

from conftest import random_graph_space


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
    for X, Y in pairs:
        f = PointMap(X, Y, rng.integers(0, Y.n, size=X.n))
        expected = [(float(r), f.modulus(float(r))) for r in X.realized_distances()]
        assert json.dumps(f.modulus_profile()) == json.dumps(expected)


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


def test_voronoi_examples():
    X = path_space(7)
    singletons = voronoi_partition(X, list(range(7)))
    assert [list(b) for b in singletons] == [[i] for i in range(7)]
    blocks = voronoi_partition(X, [0, 3, 6])
    assert [list(b) for b in blocks] == [[0, 1], [2, 3, 4], [5, 6]]
    assert [list(b) for b in voronoi_partition(X, [0])] == [list(range(7))]


def test_voronoi_partition_properties(rng):
    for _ in range(15):
        X = random_graph_space(rng, 10, extra_edges=3)
        k = int(rng.integers(1, 6))
        centers = rng.choice(X.n, size=k, replace=False)
        blocks = voronoi_partition(X, centers)
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
