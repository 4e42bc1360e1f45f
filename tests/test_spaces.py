"""Metric substrate: construction, balls, neighborhoods, growth."""

import json

import numpy as np
import pytest
from scipy.sparse.csgraph import shortest_path

from roelab import spaces
from roelab.concentration import concentration_witness
from roelab.covering import covering_unitary, outer_roundtrip, upgrade_trick
from roelab.extraction import extract_pair
from roelab.locality import approximability_window, quasi_locality_violation
from roelab.maps import PointMap, greedy_net, identity_map
from roelab.operators import FiberedSpace, identity_operator, random_band_unitary
from roelab.serialize import load_map, load_space
from roelab.fixtures import noisy_covering_unitary, standard_pair
from roelab.spaces import (
    FiniteMetricSpace, check_radius, check_range, from_edge_list, is_integer, is_real, path_space,
    validate_points,
)

from conftest import cycle_space, grid_space, random_graph_space, tree_space


def test_path_space_single_point():
    X = path_space(1)
    assert X.n == 1
    assert X.dist.shape == (1, 1)
    assert X.diameter == 0.0


def test_path_space_distances():
    X = path_space(5)
    assert X.dist[0, 4] == 4
    assert X.dist[3, 1] == 2


def test_path_space_growth_profile():
    # ball(i, 2) on eight points peaks at five elements
    assert path_space(8).growth_profile(2) == 5
    assert path_space(9).growth_profile(3) == 7


def test_path_space_rejects_zero():
    with pytest.raises(ValueError):
        path_space(0)


def test_edge_list_triangle():
    X = from_edge_list(3, [(0, 1), (1, 2), (2, 0)])
    off = X.dist[~np.eye(3, dtype=bool)]
    assert (off == 1).all()


def test_edge_list_path_matches_path_space():
    X = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert X == path_space(5)


def test_space_equals_itself_without_comparing_matrices(monkeypatch):
    # identity comes first, so maps, fibered spaces and operators built on
    # one space compare without an n x n matrix comparison
    X = path_space(5)
    monkeypatch.setattr(spaces.np, "array_equal", lambda *args: pytest.fail("compared matrices"))
    assert X == X and not X != X


def test_edge_list_four_cycle():
    X = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert X.dist[0, 2] == 2


def test_edge_list_disconnected_names_pair():
    with pytest.raises(ValueError, match="no path between") as info:
        from_edge_list(4, [(0, 1), (2, 3)])
    named = [int(tok) for tok in str(info.value).split() if tok.isdigit()]
    # components are {0,1} and {2,3}; the named pair must straddle them
    assert len(named) == 2
    assert (named[0] < 2) != (named[1] < 2)


def test_edge_list_rejects_self_loop():
    with pytest.raises(ValueError):
        from_edge_list(3, [(0, 0), (0, 1), (1, 2)])


def test_ball_basic():
    X = path_space(5)
    assert list(X.ball(2, 1)) == [1, 2, 3]
    assert list(X.ball(3, 0)) == [3]


def test_ball_four_cycle():
    X = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert list(X.ball(0, 1)) == [0, 1, 3]


def test_ball_out_of_range():
    # a bool used to index dist as a mask, a float raised numpy's IndexError
    for x, message in [
        (5, "point 5 out of range [0, 3)"),
        (-1, "point -1 out of range [0, 3)"),
        (True, "point must be an integer, got True"),
        (2.5, "point must be an integer, got 2.5"),
    ]:
        with pytest.raises(ValueError) as err:
            path_space(3).ball(x, 1)
        assert str(err.value) == message


@pytest.mark.parametrize("points, bad", [
    pytest.param([0.7, 2.9], "0.7", id="floats"),
    pytest.param([2, 1.0], "1.0", id="integral-float"),
    pytest.param([True], "True", id="bool"),
    pytest.param([3, np.float64(1.9)], "np.float64(1.9)", id="numpy-float"),
    pytest.param(np.array([0.0, 2.0]), "0.0", id="float-array"),
    pytest.param(np.array([False, True]), "False", id="bool-array"),
])
def test_points_refuse_bools_and_floats(points, bad):
    # these used to truncate: [0.7, 2.9] read as [0, 2] and [True] as [1]
    message = f"points must be integers, got {bad}"
    X = path_space(5)
    U = identity_operator(FiberedSpace.uniform(X, 2))
    calls = [
        lambda: validate_points(points, 5),
        lambda: X.neighborhood(points, 0),
        lambda: X.set_distance(points, [4]),
        lambda: U.corner_norm(points, [3]),
        lambda: U.corner_norm([3], points),
    ]
    for call in calls:
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message


def test_ball_monotone_in_radius(rng):
    X = random_graph_space(rng, 12, extra_edges=4)
    for x in range(X.n):
        prev = set()
        for R in range(int(X.diameter) + 1):
            cur = set(X.ball(x, R))
            assert prev <= cur
            prev = cur


def test_neighborhood_empty_and_basic():
    X = path_space(6)
    assert X.neighborhood([], 3).size == 0
    assert list(X.neighborhood([2, 3], 1)) == [1, 2, 3, 4]


def test_neighborhood_matches_union_of_balls(rng):
    for _ in range(20):
        X = random_graph_space(rng, 10, extra_edges=3)
        A = rng.choice(X.n, size=rng.integers(1, 5), replace=False)
        R = float(rng.integers(0, 4))
        expect = set()
        for a in A:
            expect |= set(X.ball(int(a), R))
        assert set(X.neighborhood(A, R)) == expect


def test_growth_profile_edges():
    assert path_space(7).growth_profile(0) == 1
    K4 = from_edge_list(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert K4.growth_profile(1) == 4


def test_growth_profile_monotone_saturates(rng):
    for _ in range(10):
        X = random_graph_space(rng, 9, extra_edges=2)
        values = [X.growth_profile(R) for R in range(int(X.diameter) + 1)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert X.growth_profile(X.diameter) == X.n


def test_set_distance_separation_equivalence(rng):
    # d(A,B) > R iff B misses the R-neighborhood of A, exhaustively on 5 points
    X = random_graph_space(rng, 5, extra_edges=2)
    subsets = [[i for i in range(5) if mask >> i & 1] for mask in range(32)]
    for A in subsets:
        for B in subsets:
            for R in (0.0, 1.0, 2.0):
                lhs = X.set_distance(A, B) > R
                rhs = not (set(B) & set(X.neighborhood(A, R)))
                assert lhs == rhs


def test_set_distance_empty_is_infinite():
    X = path_space(4)
    assert X.set_distance([], [1]) == np.inf
    assert X.set_distance([0], []) == np.inf


def test_subset_diameter():
    X = path_space(10)
    assert X.subset_diameter([2, 5, 6]) == 4
    assert X.subset_diameter([3]) == 0


def test_realized_distances_sorted_unique():
    X = path_space(4)
    assert list(X.realized_distances()) == [0, 1, 2, 3]


def test_validation_rejects_bad_matrices():
    with pytest.raises(ValueError):
        FiniteMetricSpace([[0, 1], [2, 0]])  # asymmetric
    with pytest.raises(ValueError):
        FiniteMetricSpace([[1, 1], [1, 0]])  # nonzero diagonal
    with pytest.raises(ValueError):
        FiniteMetricSpace([[0, 0], [0, 0]])  # zero off-diagonal
    with pytest.raises(ValueError):
        FiniteMetricSpace([[0, -1], [-1, 0]])  # negative
    with pytest.raises(ValueError) as info:
        FiniteMetricSpace([[0, 1, 5], [1, 0, 1], [5, 1, 0]])  # triangle fails
    assert str(info.value) == "triangle inequality fails: d(0,2) > d(0,1) + d(1,2)"


def _unit_pairs(dist):
    """Reference: the pairs i < j at distance exactly 1, row-major."""
    n = dist.shape[0]
    return [[i, j] for i in range(n) for j in range(i + 1, n) if dist[i, j] == 1.0]


def test_json_roundtrip_both_forms(rng):
    graphs = [path_space(1), path_space(6), cycle_space(rng, 9), tree_space(rng, 12),
              grid_space(rng, 3, 4), random_graph_space(rng, 15, extra_edges=6)]
    for X in graphs:
        data = X.to_json()
        assert sorted(data) == ["edges", "n"] and data["n"] == X.n
        assert data["edges"] == _unit_pairs(X.dist)
        back = FiniteMetricSpace.from_json(data)
        assert back == X and back.dist.tobytes() == X.dist.tobytes()
        # a graph space written the old way, as its matrix, still loads
        assert FiniteMetricSpace.from_json({"n": X.n, "dist": X.dist.tolist()}) == X
    assert path_space(1).to_json() == {"n": 1, "edges": []}
    weighted = FiniteMetricSpace([[0, 1, 1.5], [1, 0, 2], [1.5, 2, 0]])
    for X in (FiniteMetricSpace(path_space(5).dist * 2), weighted):
        data = X.to_json()
        assert data == {"n": X.n, "dist": X.dist.tolist()}
        assert FiniteMetricSpace.from_json(data) == X
    Y = FiniteMetricSpace.from_json({"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]})
    assert Y.dist[0, 2] == 2
    assert Y.to_json()["edges"] == [[0, 1], [0, 3], [1, 2], [2, 3]]


@pytest.mark.parametrize("data, message", [
    pytest.param({"n": 3.5, "edges": [[0, 1], [1, 2]]}, "'n' must be an integer", id="n-float"),
    pytest.param({"n": 2.9, "dist": [[0, 1], [1, 0]]}, "'n' must be an integer", id="n-float-dist"),
    pytest.param({"n": True, "edges": []}, "'n' must be an integer", id="n-bool"),
    pytest.param({"edges": [[0, 1]]}, "missing 'n'", id="n-missing"),
    pytest.param({"n": 3, "edges": [[0.7, 1], [1, 2]]}, "pair of integer points", id="edge-float"),
    pytest.param({"n": 3, "edges": [[0, 1], [1.0, 2.0]]}, "pair of integer points",
                 id="edge-integral-float"),
    pytest.param({"n": 3, "edges": [[0, 1], [True, 2]]}, "pair of integer points",
                 id="edge-bool"),
    pytest.param({"n": 3, "edges": [[0, 1], [1, 2, 99]]}, "pair of integer points",
                 id="edge-three-entries"),
    pytest.param({"n": 3, "edges": [[0, 1, 2], [1, 2, 0]]}, "pair of integer points",
                 id="edges-all-triples"),
    pytest.param({"n": 3, "edges": [[0, 1], [2]]}, "pair of integer points", id="edge-one-entry"),
    pytest.param({"n": 3, "edges": [[0, 1], 2]}, "pair of integer points", id="edge-bare-number"),
    pytest.param({"n": 3, "edges": [[0, 1], [1, 3]]}, r"edge \(1,3\) out of range", id="edge-range"),
    pytest.param({"n": 3, "edges": [[0, 1], [2, 2]]}, "self-loop at node 2", id="edge-self-loop"),
    pytest.param({"n": 3, "edges": None}, "list of point pairs", id="edges-null"),
    pytest.param({"n": 3, "edges": 5}, "list of point pairs", id="edges-number"),
    pytest.param({"n": 3, "dist": [[0, 1], [1, 0]]}, "does not match", id="n-shape"),
    pytest.param({"n": 3}, "either a 'dist' matrix or an 'edges' list", id="no-metric"),
    # both metrics used to load as the 'dist' one, ignoring the edges
    pytest.param({"n": 3, "dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]], "edges": [[0, 2], [2, 1]]},
                 "either a 'dist' matrix or an 'edges' list, not both", id="dist-and-edges"),
    # these used to fail with Python's own TypeError text
    pytest.param(5, "space JSON must be an object, got 5$", id="not-an-object-number"),
    pytest.param("n", "space JSON must be an object, got 'n'$", id="not-an-object-string"),
    pytest.param([[0, 1], [1, 0]], r"must be an object, got \[\[0, 1\], \[1, 0\]\]$",
                 id="not-an-object-list"),
])
def test_malformed_space_json_rejected(data, message):
    with pytest.raises(ValueError, match=message):
        FiniteMetricSpace.from_json(data)


def test_edge_list_names_the_bad_edge():
    with pytest.raises(ValueError) as info:
        from_edge_list(3, [(0, 1), (1, 2, 99)])
    assert str(info.value) == "every edge must be a pair of integer points, got (1, 2, 99)"
    with pytest.raises(ValueError, match=r"got \[0\.7, 1\]"):
        from_edge_list(3, [[0.7, 1], [1, 2]])
    # integer arrays and generators are edge lists too
    assert from_edge_list(3, np.array([[0, 1], [1, 2]], dtype=np.uint8)) == path_space(3)
    assert from_edge_list(3, ((k, k + 1) for k in range(2))) == path_space(3)
    assert from_edge_list(1, np.empty((0, 2), dtype=np.int64)) == path_space(1)
    with pytest.raises(ValueError, match="pair of integer points"):
        from_edge_list(3, np.array([[0, 1], [1, 2]], dtype=float))


_MAP_JSON = PointMap(path_space(4), path_space(2), [0, 0, 1, 1]).to_json()


@pytest.mark.parametrize("data, message", [
    pytest.param({k: v for k, v in _MAP_JSON.items() if k != key}, f"map JSON is missing '{key}'",
                 id=key)
    for key in ("source", "target", "table")
] + [
    # a file that is not an object used to fail with Python's own TypeError text
    pytest.param(5, "map JSON must be an object, got 5$", id="map-number"),
    pytest.param({**_MAP_JSON, "source": 5}, "space JSON must be an object, got 5$",
                 id="source-number"),
])
def test_map_json_missing_key_named(data, message, tmp_path):
    path = tmp_path / "map.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=message):
        load_map(path)


def test_edge_list_costs_one_shortest_path_pass(monkeypatch, tmp_path):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return shortest_path(*args, **kwargs)

    monkeypatch.setattr(spaces, "shortest_path", counting)
    X = FiniteMetricSpace(np.abs(np.subtract.outer(np.arange(30), np.arange(30))))
    assert len(calls) == 1  # a matrix handed to the constructor is certified
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"n": 30, "edges": [[k, k + 1] for k in range(29)]}))
    calls.clear()
    assert load_space(path) == X
    assert len(calls) == 1
    calls.clear()
    # a matrix that is not a hop metric still reaches the triangle loop
    with pytest.raises(ValueError) as info:
        FiniteMetricSpace([[0, 2, 5], [2, 0, 2], [5, 2, 0]])
    assert str(info.value) == "triangle inequality fails: d(0,2) > d(0,1) + d(1,2)"
    assert len(calls) == 1


def test_path_space_takes_no_shortest_path_pass(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return shortest_path(*args, **kwargs)

    monkeypatch.setattr(spaces, "shortest_path", counting)
    for n in (1, 2, 13, 40):
        X = path_space(n)
        assert calls == []  # |i - j| is a hop metric by construction
        idx = np.arange(n)
        assert np.array_equal(X.dist, np.abs(idx[:, None] - idx[None, :]).astype(float))
        assert X.dist.dtype == float and not X.dist.flags.writeable
        assert X.to_json() == {"n": n, "edges": [[k, k + 1] for k in range(n - 1)]}
        assert X == from_edge_list(n, [(k, k + 1) for k in range(n - 1)])
        calls.clear()


def test_distance_levels_computed_once(monkeypatch):
    X, Y = path_space(9), path_space(4)
    f = PointMap(X, Y, [min(x // 2, 3) for x in range(9)])
    g = PointMap(X, X, list(range(9))[::-1])
    calls = []
    unique = np.unique

    def counting(*args, **kwargs):
        calls.append(1)
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counting)
    first = f.modulus_profile()
    for _ in range(3):
        assert list(X.realized_distances()) == list(range(9))
        assert f.modulus_profile() == first
        assert [r for r, _ in g.modulus_profile()] == list(range(9))
    assert len(calls) == 1  # X's levels, once; Y's are never asked for


def test_distance_levels_are_read_only():
    X = FiniteMetricSpace(path_space(5).dist * 0.3)
    radii, order, starts = X.distance_levels()
    assert X.realized_distances() is radii
    for arr in (radii, order, starts):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 7
    assert np.array_equal(X.dist.ravel()[order], np.repeat(radii, np.diff(np.append(starts, 25))))
    assert np.array_equal(radii, np.unique(X.dist))


def test_negative_zero_diagonal_is_stored_as_zero():
    X = FiniteMetricSpace([[-0.0, 1.0], [1.0, -0.0]])
    assert not np.signbit(X.dist).any()
    prof = PointMap(X, X, [0, 0]).modulus_profile()
    assert json.dumps(prof) == "[[0.0, 0.0], [1.0, 0.0]]"


def _loop_verdict(dist):
    """Reference: the full triangle loop, with the construction's
    tolerance and message; returns the message, or None."""
    for k in range(dist.shape[0]):
        slack = dist[:, k][:, None] + dist[k, :][None, :] - dist
        if (slack < -1e-9).any():
            i, j = np.argwhere(slack < -1e-9)[0]
            return f"triangle inequality fails: d({i},{j}) > d({i},{k}) + d({k},{j})"
    return None


def _verdict(dist):
    try:
        FiniteMetricSpace(dist)
    except ValueError as err:
        return str(err)
    return None


def test_graph_metrics_skip_the_triangle_loop(monkeypatch, rng):
    def refuse(dist):
        raise AssertionError("a graph metric reached the triangle loop")

    monkeypatch.setattr(spaces, "_triangle_violation", refuse)
    assert path_space(300).diameter == 299
    assert grid_space(rng, 15, 15).diameter == 28
    assert cycle_space(rng, 40).diameter == 20
    assert tree_space(rng, 60).n == 60
    assert random_graph_space(rng, 50, extra_edges=20).n == 50
    assert FiniteMetricSpace.from_json(path_space(30).to_json()) == path_space(30)
    with pytest.raises(AssertionError):
        FiniteMetricSpace(path_space(5).dist * 2)  # not a hop metric: the loop runs


def _perturbations(rng, dist):
    """Seeded variants of a metric: one symmetric entry +1, one entry -1
    where it stays positive, and the whole matrix scaled by 0.5 and by 2."""
    n = dist.shape[0]
    i, j = rng.choice(n, size=2, replace=False)
    up = dist.copy()
    up[i, j] = up[j, i] = dist[i, j] + 1
    yield up
    big = np.argwhere(np.triu(dist >= 2))
    if big.size:
        i, j = big[rng.integers(len(big))]
        down = dist.copy()
        down[i, j] = down[j, i] = dist[i, j] - 1
        yield down
    yield dist * 0.5
    yield dist * 2.0


def test_construction_agrees_with_the_triangle_loop(rng):
    bases = []
    for _ in range(6):
        bases += [
            path_space(int(rng.integers(2, 12))).dist,
            cycle_space(rng, int(rng.integers(3, 12))).dist,
            grid_space(rng, int(rng.integers(1, 4)), int(rng.integers(2, 5))).dist,
            tree_space(rng, int(rng.integers(2, 14))).dist,
            random_graph_space(rng, int(rng.integers(2, 14)), extra_edges=3).dist,
        ]
        pts = rng.standard_normal((int(rng.integers(2, 12)), int(rng.integers(1, 4))))
        bases.append(np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(axis=-1)))
    certified = accepted = rejected = 0
    for base in bases:
        for dist in [base, *_perturbations(rng, base)]:
            expected = _loop_verdict(dist)
            assert _verdict(dist) == expected
            certified += spaces._is_graph_metric(dist)
            accepted += expected is None
            rejected += expected is not None
    assert certified > 0 and accepted > certified and rejected > 0


def test_small_integer_matrices_agree_with_the_triangle_loop(rng):
    certified = 0
    for _ in range(2000):
        n = int(rng.integers(1, 7))
        upper = np.triu(rng.integers(1, 5, size=(n, n)), 1).astype(float)
        dist = upper + upper.T
        if spaces._is_graph_metric(dist):
            certified += 1
            assert _loop_verdict(dist) is None
        assert _verdict(dist) == _loop_verdict(dist)
    assert certified > 100


@pytest.mark.parametrize("build, message", [
    # these used to build 3 points, 1 point, 3 points, or fail inside numpy
    pytest.param(lambda: path_space(2.5), "path_space needs an integer n >= 1, got 2.5$",
                 id="path-float"),
    pytest.param(lambda: path_space(True), "path_space needs an integer n >= 1, got True$",
                 id="path-bool"),
    pytest.param(lambda: path_space(0), "path_space needs an integer n >= 1, got 0$", id="path-0"),
    pytest.param(lambda: standard_pair("identity", 2.5), "got 2.5$", id="pair-identity"),
    pytest.param(lambda: standard_pair("halving", 2.5), "got 2.5$", id="pair-halving"),
    pytest.param(lambda: from_edge_list(3.0, [[0, 1], [1, 2]]),
                 r"from_edge_list needs an integer n >= 1, got 3\.0$", id="edges-float-n"),
])
def test_point_counts_must_be_integers(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_integer_rule_and_range_check():
    assert [is_integer(v) for v in (3, np.int8(3), np.uint64(3), -1)] == [True] * 4
    assert not any(is_integer(v) for v in (True, np.True_, 3.0, np.float64(3), "3", None))
    check_range(np.array([0, 4, 2]), 5, "point")
    with pytest.raises(ValueError) as err:
        check_range(np.array([5, 5, 1, -1, 7, -1]), 5, "point")
    assert str(err.value) == "point out of range [0, 5): [5, -1, 7]"  # each once, in order


def test_real_rule_and_radius_check():
    reals = (0, 2, 0.5, -1, np.int8(2), np.uint64(2), np.float32(0.5), float("inf"), float("nan"))
    assert all(is_real(v) for v in reals)
    assert not any(is_real(v) for v in (True, np.True_, None, "1", 1j, np.array([1.0]), [1.0]))
    # an int beyond the float range reads as infinity
    radii = [check_radius(v, "r") for v in (0, np.int64(2), np.float32(0.5), float("inf"), 10**400)]
    assert radii == [0.0, 2.0, 0.5, float("inf"), float("inf")]
    assert {type(r) for r in radii} == {float}
    assert path_space(3).ball(0, 10**400).tolist() == [0, 1, 2]
    for bad, shown in [(-1, "-1"), (float("nan"), "nan"), (True, "True"), (None, "None"),
                       ("1", "'1'"), (-float("inf"), "-inf"), (-10**400, repr(-10**400))]:
        with pytest.raises(ValueError) as err:
            check_radius(bad, "ball radius")
        assert str(err.value) == f"ball radius must be a real number >= 0, got {shown}"


def _real(what, shown):
    return f"{what} must be a real number >= 0, got {shown}"


@pytest.mark.parametrize("call, message", [
    # these used to return the zero operator, run a bool as 1, or fail with
    # Python's or numpy's own error
    pytest.param(lambda X, fib, U, f: U.supported_mask(f.values, float("nan")),
                 _real("support radius", "nan"), id="mask-nan"),
    pytest.param(lambda X, fib, U, f: U.supported_mask(f.values, -1),
                 _real("support radius", "-1"), id="mask-negative"),
    pytest.param(lambda X, fib, U, f: X.ball(0, True), _real("ball radius", "True"), id="ball-bool"),
    pytest.param(lambda X, fib, U, f: greedy_net(X, True),
                 _real("net separation", "True"), id="net-bool"),
    pytest.param(lambda X, fib, U, f: quasi_locality_violation(U, True),
                 _real("separation radius", "True"), id="ql-bool"),
    pytest.param(lambda X, fib, U, f: covering_unitary(f, fib, separation=True),
                 _real("separation", "True"), id="cover-bool"),
    pytest.param(lambda X, fib, U, f: U.band_truncate(True),
                 _real("support radius", "True"), id="truncate-bool"),
    pytest.param(lambda X, fib, U, f: random_band_unitary(fib, True, 1, 0),
                 _real("band radius", "True"), id="band-unitary-bool"),
    pytest.param(lambda X, fib, U, f: concentration_witness(U, 0, True),
                 _real("radius", "True"), id="witness-bool"),
    pytest.param(lambda X, fib, U, f: upgrade_trick(U, f, [(0, 1)], epsilon=True),
                 "epsilon must be > 0, got True", id="upgrade-bool"),
    pytest.param(lambda X, fib, U, f: outer_roundtrip(U, 0.5, [True]),
                 _real("separation radius", "True"), id="outer-grid-bool"),
    pytest.param(lambda X, fib, U, f: X.ball(0, None), _real("ball radius", "None"), id="ball-none"),
    pytest.param(lambda X, fib, U, f: f.modulus(None),
                 _real("modulus scale", "None"), id="modulus-none"),
    pytest.param(lambda X, fib, U, f: approximability_window(U, None),
                 _real("separation radius", "None"), id="window-none"),
    pytest.param(lambda X, fib, U, f: covering_unitary(f, fib, separation=None),
                 _real("separation", "None"), id="cover-none"),
    pytest.param(lambda X, fib, U, f: noisy_covering_unitary("identity", 5, 0, noise_radius=None),
                 _real("band radius", "None"), id="noise-radius-none"),
    pytest.param(lambda X, fib, U, f: extract_pair(U, "0.5"),
                 "delta must lie in (0, 1), got '0.5'", id="delta-string"),
    pytest.param(lambda X, fib, U, f: outer_roundtrip(U, 0.5, [None]),
                 _real("separation radius", "None"), id="outer-grid-none"),
    pytest.param(lambda X, fib, U, f: X.ball(0, np.array([1.0, 2.0])),
                 _real("ball radius", "array([1., 2.])"), id="ball-array"),
])
def test_scales_follow_the_real_rule(call, message):
    X = path_space(5)
    fib = FiberedSpace.uniform(X, 1)
    with pytest.raises(ValueError) as err:
        call(X, fib, random_band_unitary(fib, 1.0, 2, 0), identity_map(X))
    assert str(err.value) == message
