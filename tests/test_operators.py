"""Block operators: propagation, corners, norms, band structure."""

import operator
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from roelab import locality, operators
from roelab.covering import covering_unitary
from roelab.extraction import corner_norm_table
from roelab.fixtures import noisy_covering_unitary, standard_pair
from roelab.maps import PointMap, identity_map
from roelab.operators import (
    UNITARITY_TOL,
    BlockOperator,
    FiberedSpace,
    check_unitary,
    identity_operator,
    random_band_unitary,
    spectral_norm,
    supported_distance_upper,
)
from roelab.spaces import path_space, validate_points

from conftest import (
    cycle_space, grid_space, indicator, random_fibered, random_graph_space, random_operator, scaled,
    tree_space,
)


def shift_operator(n):
    """Cyclic shift on singleton fibers over path_space(n)."""
    fib = FiberedSpace.uniform(path_space(n), 1)
    mat = np.zeros((n, n), dtype=complex)
    for i in range(n):
        mat[(i + 1) % n, i] = 1
    return BlockOperator(fib, fib, mat)


def _assemble(source, target, blocks):
    """The operator with the {(y, x): block} entries given and zero blocks elsewhere."""
    mat = np.zeros((target.total_dim, source.total_dim), dtype=complex)
    for (y, x), block in blocks.items():
        mat[target.slice_of(y), source.slice_of(x)] = block
    return BlockOperator(source, target, mat)


def test_fibered_space_layout():
    fib = FiberedSpace(path_space(3), [2, 1, 3])
    assert fib.total_dim == 6
    assert fib.slice_of(1) == slice(2, 3)
    assert list(fib.coords_of([0, 2])) == [0, 1, 3, 4, 5]
    assert list(fib.coord_point) == [0, 0, 1, 2, 2, 2]


@pytest.mark.parametrize("points, expected", [
    pytest.param([2, 0, 2, 1, 0], [0, 1, 2], id="duplicates"),
    pytest.param(np.array([3, 1], dtype=np.int32), [1, 3], id="int32-array"),
    pytest.param(np.array([2, 2, 0], dtype=np.uint8), [0, 2], id="uint8-array"),
    pytest.param([np.int64(3), np.intp(0)], [0, 3], id="numpy-scalars"),
    pytest.param({3, 0}, [0, 3], id="set"),
    pytest.param(range(2), [0, 1], id="range"),
    pytest.param([], [], id="empty-list"),
    pytest.param(np.array([], dtype=np.int64), [], id="empty-array"),
])
def test_points_normalize_sorted_and_unique(points, expected):
    arr = validate_points(points, 4)
    assert arr.dtype == np.int64 and arr.tolist() == expected
    fib = FiberedSpace(path_space(4), [2, 1, 1, 3])
    assert fib.coord_mask(points).tolist() == [p in expected for p in fib.coord_point]
    assert fib.coords_of(points).tolist() == [c for c, p in enumerate(fib.coord_point) if p in expected]


@pytest.mark.parametrize("points, bad", [
    pytest.param([0, -1], "[-1]", id="negative"),
    pytest.param([4, 1], "[4]", id="n"),
    pytest.param(np.array([5, -2, 5, 0, -2]), "[-2, 5]", id="both-ends-repeated"),
])
def test_points_out_of_range_rejected(points, bad):
    message = f"point index out of range [0, 4): {bad}"
    with pytest.raises(ValueError) as err:
        validate_points(points, 4)
    assert str(err.value) == message
    fib = FiberedSpace.uniform(path_space(4), 2)
    for call in (fib.coord_mask, fib.coords_of):
        with pytest.raises(ValueError) as err:
            call(points)
        assert str(err.value) == message


def test_fibered_space_rejects_zero_dims():
    with pytest.raises(ValueError):
        FiberedSpace(path_space(2), [1, 0])


def test_fibered_space_refuses_bool_and_float_dims():
    # these used to truncate to [1 2 1] and to 2s; PointMap refuses them the same way
    X = path_space(3)
    for dims, bad in [([1.5, 2, 1], "1.5"), ([True, 2, 1], "True"), (np.array([1.0, 2.0, 1.0]), "1.0")]:
        with pytest.raises(ValueError, match=f"^fiber dimensions must be integers, got {bad}$"):
            FiberedSpace(X, dims)
    for dim, bad in [(2.7, "2.7"), (True, "True")]:
        with pytest.raises(ValueError, match=f"^fiber dimensions must be integers, got {bad}$"):
            FiberedSpace.uniform(X, dim)
    # integer arrays of any width pass as they are, integer sequences value by value
    for dims in (np.array([1, 2, 1], dtype="<u4"), [np.int64(1), 2, 1], (1, 2, 1)):
        assert FiberedSpace(X, dims).fiber_dims.tolist() == [1, 2, 1]
    assert FiberedSpace.uniform(X, np.int32(2)).fiber_dims.tolist() == [2, 2, 2]


@pytest.mark.parametrize("entry", [np.nan, np.inf, 1e150, -1e150j, 1e160])
def test_operator_rejects_entries_at_or_above_1e150(entry):
    fib = FiberedSpace(path_space(2), [1, 2])
    mat = np.eye(3, dtype=complex)
    mat[1, 2] = entry
    with pytest.raises(ValueError, match="finite and below 1e150 in modulus"):
        BlockOperator(fib, fib, mat)
    mat[1, 2] = 0.9999e150 + 0.9999e150j  # each part below the limit
    T = BlockOperator(fib, fib, mat)
    assert T.norm() > 1e150
    # a 2 x 3 corner, so the Gram route: its entries stay finite
    assert T.corner_norm([1], [0, 1]) == pytest.approx(T.norm(), rel=1e-12)


def test_operator_entry_check_makes_no_modulus_copy():
    n = 800
    fib = FiberedSpace.uniform(path_space(n), 1)
    mat = np.random.default_rng(0).standard_normal((n, 2 * n)).view(complex)
    tracemalloc.start()
    try:
        BlockOperator(fib, fib, mat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the private copy takes 16 n^2 bytes; |entries| as floats took as much again
    assert peak < 1.25 * 16 * n * n


def test_indicator_and_identity():
    fib = FiberedSpace(path_space(4), [1, 2, 1, 1])
    chi = indicator(fib, [1, 3])
    eye = identity_operator(fib)
    assert np.allclose((chi @ chi).matrix, chi.matrix)
    assert np.allclose((eye @ chi).matrix, chi.matrix)
    other = indicator(fib, [0, 1])
    both = indicator(fib, [1])
    assert np.allclose((chi @ other).matrix, both.matrix)


def test_adjoint_and_products_check_spaces(rng):
    X = random_graph_space(rng, 4, extra_edges=1)
    Y = random_graph_space(rng, 3, extra_edges=1)
    src = random_fibered(rng, X)
    tgt = random_fibered(rng, Y)
    T = random_operator(rng, src, tgt)
    assert np.allclose(T.adjoint().matrix, T.matrix.conj().T)
    with pytest.raises(ValueError):
        _ = T @ T  # target of right factor is not source of left
    S = random_operator(rng, tgt, src)
    assert (T @ S).matrix.shape == (tgt.total_dim, tgt.total_dim)


def _mismatched_pair():
    """T from FiberedSpace(path(3), [2, 1, 3]) to 1-dim fibers over
    path(2), and S the other way."""
    src, tgt = FiberedSpace(path_space(3), [2, 1, 3]), FiberedSpace.uniform(path_space(2), 1)
    return BlockOperator(src, tgt, np.ones((2, 6))), BlockOperator(tgt, src, np.ones((6, 2)))


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda T, S: BlockOperator(T.source, T.target, S.matrix),
                 "matrix shape (6, 2) does not match fibers (2, 6)", id="shape"),
    pytest.param(lambda T, S: T - S, "operator difference needs matching fibered spaces", id="difference"),
    pytest.param(lambda T, S: T @ T, "compose: inner operator's target must match outer's source", id="compose"),
])
def test_operator_arithmetic_refuses_mismatched_spaces(call, message):
    with pytest.raises(ValueError) as err:
        call(*_mismatched_pair())
    assert str(err.value) == message


@pytest.mark.parametrize("call, symbol", [(operator.sub, "-"), (operator.matmul, "@")])
def test_operator_arithmetic_with_a_foreign_type_is_a_type_error(call, symbol):
    T, _ = _mismatched_pair()
    with pytest.raises(TypeError) as err:
        call(T, 1)
    assert str(err.value) == f"unsupported operand type(s) for {symbol}: 'BlockOperator' and 'int'"


def test_propagation_refuses_two_base_spaces():
    T, _ = _mismatched_pair()
    with pytest.raises(ValueError) as err:
        T.propagation()
    assert str(err.value) == "this operation needs source and target over the same base space"


def test_operator_reprs_give_points_fibers_and_coordinates():
    T, _ = _mismatched_pair()
    assert repr(T.source) == "FiberedSpace(n=3, total_dim=6)"
    assert repr(T) == "BlockOperator(3x3 -> 2x1, total 6 -> 2)"


@pytest.mark.parametrize("f", [
    pytest.param(identity_map(path_space(4)), id="source"),
    pytest.param(PointMap(path_space(5), path_space(6), range(5)), id="target"),
])
def test_supported_distance_upper_refuses_a_map_off_the_operator(f):
    U, _, _ = noisy_covering_unitary("identity", 5, 0)
    with pytest.raises(ValueError) as err:
        supported_distance_upper(U, f, 1.0)
    assert str(err.value) == "map must go from the operator's source base to its target base"


def test_supported_distance_upper_can_rise_with_the_radius():
    # zeroing more blocks can raise a norm: the tail at R = 3 is above the
    # tail at R = 1 by far more than rounding, in both routes
    T, _, _ = noisy_covering_unitary("reflection", 400, 0, 2.0, 2, fiber_dim=2)
    f = identity_map(T.source.base)
    curve = [supported_distance_upper(T, f, R) for R in range(6)]
    assert curve == pytest.approx([1.0933, 1.1034, 1.1034, 1.1203, 1.1451, 1.1453], abs=1e-4)
    assert curve[3] > curve[1] + 0.01
    for R in (1, 3):
        assert curve[R] == pytest.approx(_svd_top(_tail_matrix(T, T.source.base.dist <= R)), rel=1e-14)


def test_adjoint_is_one_conjugating_pass_with_no_rescan(rng):
    T = random_operator(rng, random_fibered(rng, random_graph_space(rng, 5, 1)),
                        random_fibered(rng, random_graph_space(rng, 4, 1)))
    T.norm()
    # an entry the check refuses, planted after T was built: the adjoint
    # takes T's entries as checked, so a rescan would raise
    T.matrix.setflags(write=True)
    T.matrix[0, 0] = np.nan
    T.matrix.setflags(write=False)
    adj = T.adjoint()
    expected = np.ascontiguousarray(T.matrix.conj().T)
    assert adj.matrix.tobytes() == expected.tobytes()
    assert adj.matrix.flags.c_contiguous and not adj.matrix.flags.writeable
    assert (adj.source, adj.target) == (T.target, T.source)
    assert _kept_builders(adj) == set()


def _permutation_matrix(perm):
    """The 0/1 matrix with a 1 at (i, perm[i]) for every row i."""
    mat = np.zeros((perm.size, perm.size), dtype=complex)
    mat[np.arange(perm.size), perm] = 1.0
    return mat


def _with_signed_zeros(rng, T):
    """T with a quarter of its real and imaginary parts set to 0.0 or -0.0."""
    parts = T.matrix.view(float).copy()
    zero = rng.random(parts.shape) < 0.25
    parts[zero] = np.where(rng.random(zero.sum()) < 0.5, 0.0, -0.0)
    return BlockOperator(T.source, T.target, parts.view(complex))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n, dims", [(20, (1, 3)), (50, (2, 3))])  # N below and above SPLIT_MIN
def test_a_product_with_a_permutation_is_a_gather_equal_to_blas(seed, n, dims):
    rng = np.random.default_rng(seed)
    fib = FiberedSpace(random_graph_space(rng, n, extra_edges=3), rng.integers(dims[0], dims[1] + 1, size=n))
    assert (fib.total_dim < operators.SPLIT_MIN) == (n == 20)
    P = BlockOperator(fib, fib, _permutation_matrix(rng.permutation(fib.total_dim)))
    Q = BlockOperator(fib, fib, _permutation_matrix(rng.permutation(fib.total_dim)))
    V = _with_signed_zeros(rng, random_operator(rng, fib, fib))
    assert operators._permutation(V) is None
    for left, right in ((P, V), (V, P), (P, Q)):
        product = left @ right
        assert (product.matrix == left.matrix @ right.matrix).all()
        assert product.matrix.flags.c_contiguous and not product.matrix.flags.writeable
        parts = product.matrix.view(float)
        assert not np.signbit(parts[parts == 0]).any()  # the gather's zeros are +0.0
    assert np.array_equal((P @ V).matrix, V.matrix[operators._permutation(P)])


def _near_permutations(rng, n):
    """(name, matrix) of 0/1-like n x n matrices one step from a permutation."""
    perm = rng.permutation(n)
    out = []
    for name, value in (("minus one", -1), ("two", 2), ("tiny imaginary part", 1 + 1e-300j)):
        mat = _permutation_matrix(perm)
        mat[3, perm[3]] = value
        out.append((name, mat))
    mat = _permutation_matrix(perm)
    mat[3] = mat[5]
    out.append(("duplicate column", mat))
    mat = _permutation_matrix(perm)
    mat[3] = 0
    out.append(("zero row", mat))
    mat = _permutation_matrix(perm)
    mat[3, perm[4]], mat[4] = 1, 0
    out.append(("a row with two entries", mat))
    return out


@pytest.mark.parametrize("n", [12, 120])
def test_a_product_with_a_near_permutation_keeps_blas_bytes(rng, n):
    fib = FiberedSpace.uniform(path_space(n), 1)
    V = random_operator(rng, fib, fib)
    cases = [(name, BlockOperator(fib, fib, mat)) for name, mat in _near_permutations(rng, n)]
    # an isometry into one more coordinate: one 1 in each column, not square
    wider = FiberedSpace.uniform(path_space(n + 1), 1)
    isometry = np.zeros((n + 1, n), dtype=complex)
    isometry[rng.permutation(n + 1)[:n], np.arange(n)] = 1.0
    cases.append(("not square", BlockOperator(fib, wider, isometry)))
    for name, A in cases:
        assert operators._permutation(A) is None, name
        after = random_operator(rng, A.target, A.target)
        for left, right in ((A, V), (after, A)):
            assert (left @ right).matrix.tobytes() == (left.matrix @ right.matrix).tobytes(), name


def test_propagation_basic_cases():
    n = 8
    fib = FiberedSpace.uniform(path_space(n), 1)
    assert identity_operator(fib).propagation() == 0.0
    zero = BlockOperator(fib, fib, np.zeros((n, n)))
    assert zero.propagation() == 0.0
    shift = shift_operator(n)
    # wraparound block (0, n-1) sits at distance n-1 on the path
    assert shift.propagation() == n - 1


def test_propagation_counts_every_entry_that_is_not_exactly_zero(monkeypatch):
    # prop(T) is the largest d(x, y) over the entries that are not exactly
    # 0: a block of 1e-170 at distance 2 counts, though its Gram and its
    # squared Frobenius norm underflow, and a block of -0.0 at distance 3
    # does not
    fib = FiberedSpace.uniform(path_space(4), 2)
    mat = np.zeros((8, 8), dtype=complex)
    mat[0:2, 0:2] = np.eye(2)
    mat[4:6, 0:2] = np.diag([1e-170, 0.0])
    mat[6:8, 0:2] = complex(-0.0, -0.0)
    T = BlockOperator(fib, fib, mat)
    assert np.signbit(T.matrix[6:8, 0:2].view(float)).all()
    assert T.block_frobenius()[2, 0] == 0.0
    assert T.propagation() == 2.0
    # a banded operator of 120 coordinates keeps a sparse form, and with
    # one planted far entry its propagation is that entry's distance on
    # the sparse and on the dense route
    fib = FiberedSpace.uniform(path_space(60), 2)
    band = random_band_unitary(fib, 1.0, 2, seed=3).matrix.copy()
    band[fib.offsets[55] + 1, fib.offsets[3]] = 1e-13
    T = BlockOperator(fib, fib, band)
    assert operators._sparse(T) is not None
    assert T.propagation() == 52.0
    monkeypatch.setattr(operators, "_sparse", lambda T: None)
    assert BlockOperator(fib, fib, band).propagation() == 52.0
    # masked to d <= 2, the band's far entries are zeros, some of them -0.0
    far = np.kron(fib.base.dist > 2, np.ones((2, 2), dtype=bool))
    masked = band * ~far
    assert np.signbit(masked[far].view(float)).any()
    assert BlockOperator(fib, fib, masked).propagation() == 2.0


def test_propagation_matches_naive_block_scan(rng):
    for _ in range(15):
        X = random_graph_space(rng, 6, extra_edges=2)
        fib = random_fibered(rng, X)
        T = random_operator(rng, fib, fib)
        # kill blocks beyond a random radius
        R = float(rng.integers(0, int(X.diameter) + 1))
        T = T.supported_mask(np.arange(X.n), R)
        naive = 0.0
        for y in range(X.n):
            for x in range(X.n):
                if (T.block(y, x) != 0).any():
                    naive = max(naive, X.dist[x, y])
        assert T.propagation() == naive


def test_block_nonzero_is_the_naive_block_scan(rng):
    # a block counts when one of its entries is not exactly 0; square and
    # rectangular operators alike, source and target fibers of any size
    for _ in range(15):
        X, Y = (random_graph_space(rng, int(rng.integers(1, 7)), extra_edges=2) for _ in range(2))
        T = random_operator(rng, random_fibered(rng, X), random_fibered(rng, Y))
        T = BlockOperator(T.source, T.target, T.matrix * (rng.random(T.matrix.shape) < 0.2))
        naive = [[(T.block(y, x) != 0).any() for x in range(X.n)] for y in range(Y.n)]
        table = T.block_nonzero()
        assert table.dtype == bool and table.tolist() == naive
        assert not table.flags.writeable and T.block_nonzero() is table


def test_dense_propagation_holds_less_than_its_matrix():
    # 1 - 2P over path(200) with 2-dim fibers has half its entries nonzero,
    # so it keeps no sparse form; its propagation reads the nonzero blocks,
    # not a list of its 80,000 nonzero entries' coordinates
    fib = FiberedSpace.uniform(path_space(200), 2)
    T = BlockOperator(fib, fib, np.eye(400) - np.kron(np.full((200, 200), 0.01), np.eye(2)))
    assert operators._sparse(T) is None
    tracemalloc.start()
    try:
        assert T.propagation() == 199.0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * T.matrix.nbytes


def test_band_width_two_construction(rng):
    X = path_space(10)
    fib = FiberedSpace.uniform(X, 2)
    blocks = {}
    for x in range(10):
        for y in range(10):
            if abs(x - y) <= 2:
                blocks[(y, x)] = rng.standard_normal((2, 2))
    T = _assemble(fib, fib, blocks)
    assert T.propagation() <= 2


def test_two_shifts_compose_to_propagation_two():
    fib = FiberedSpace.uniform(path_space(9), 1)
    mat = np.zeros((9, 9), dtype=complex)
    for i in range(8):
        mat[i + 1, i] = 1
    step = BlockOperator(fib, fib, mat)
    assert step.propagation() == 1
    assert (step @ step).propagation() == 2


def test_corner_norm_bounded_by_norm(rng):
    for _ in range(20):
        X = random_graph_space(rng, 7, extra_edges=2)
        fib = random_fibered(rng, X)
        T = random_operator(rng, fib, fib)
        B = rng.choice(7, size=rng.integers(1, 4), replace=False)
        A = rng.choice(7, size=rng.integers(1, 4), replace=False)
        assert T.corner_norm(B, A) <= T.norm() + 1e-12


def test_corner_matches_submatrix(rng):
    X = random_graph_space(rng, 5, extra_edges=1)
    fib = random_fibered(rng, X)
    T = random_operator(rng, fib, fib)
    B, A = [0, 2], [1, 4]
    sub = T.matrix[np.ix_(fib.coords_of(B), fib.coords_of(A))]
    assert T.corner_norm(B, A) == pytest.approx(spectral_norm(sub), abs=1e-14)


def test_corner_norm_of_an_empty_side_is_zero(rng):
    # the empty corner is spectral_norm's 0.0 for an empty matrix, +0.0 exactly
    fib = random_fibered(rng, random_graph_space(rng, 5, extra_edges=1))
    T = random_operator(rng, fib, fib)
    for B, A in [([], [0, 3]), ([1, 2], []), ([], [])]:
        value = T.corner_norm(B, A)
        assert type(value) is float and value == 0.0 and np.copysign(1.0, value) == 1.0


def _reference_corner_norms(U, rows):
    """`corner_norms` with each corner's nonzero column parts (those of
    `operators._corner_parts`) summed in a Python loop in ascending
    coordinate order, and the tops read by `operators._parts_top`."""
    inside = rows[:, U.target.coord_point]
    out = np.zeros((len(rows), U.source.base.n))
    for d in np.unique(U.source.fiber_dims):
        points = np.flatnonzero(U.source.fiber_dims == d)
        parts = operators._corner_parts(U, points, d)  # (target coords, points, d^2)
        sums = np.zeros((len(rows), points.size, d * d))
        for k in range(points.size):
            for q in range(d * d):
                at = np.flatnonzero(parts[:, k, q])
                values = parts[at, k, q].tolist()
                for b, kept in enumerate(inside[:, at].tolist()):
                    total = 0.0
                    for value, keep in zip(values, kept):
                        if keep:
                            total += value
                    sums[b, k, q] = total
        out[:, points] = np.sqrt(operators._parts_top(sums, d))
    return out


def _banded_operator(rng, kind, max_dim, width, keep):
    """Random complex blocks within `width` of the diagonal over a 100-point
    conftest space, each entry kept with probability `keep`."""
    X = {"cycle": lambda: cycle_space(rng, 100), "grid": lambda: grid_space(rng, 10, 10),
         "tree": lambda: tree_space(rng, 100), "graph": lambda: random_graph_space(rng, 100, 2)}[kind]()
    source, target = random_fibered(rng, X, max_dim), random_fibered(rng, X, max_dim)
    band = (X.dist <= width)[np.ix_(target.coord_point, source.coord_point)]
    band &= rng.random(band.shape) < keep
    mat = (rng.standard_normal(band.shape) + 1j * rng.standard_normal(band.shape)) * band
    return BlockOperator(source, target, mat)


def _dense_route(T):
    """A fresh copy of T that takes the dense route, its sparse form refused."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(operators, "SPARSE_SHARE", 0.0)
        fresh = BlockOperator(T.source, T.target, T.matrix)
        assert operators._sparse(fresh) is None
    return fresh


@settings(max_examples=20, deadline=None, database=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["cycle", "grid", "tree", "graph"]),
       max_dim=st.integers(1, 3), width=st.integers(0, 1), keep=st.sampled_from([0.5, 1.0]))
def test_sparse_corner_tables_sum_each_corners_parts_in_coordinate_order(seed, kind, max_dim, width, keep):
    rng = np.random.default_rng(seed)
    U = _banded_operator(rng, kind, max_dim, width, keep)
    assume(operators._sparse(U) is not None)
    dense = _dense_route(U)
    masks = [U.target.base.dist <= R for R in (0.0, 1.0, 2.0)] + [rng.random((7, U.target.base.n)) < 0.3]
    for rows in masks:
        table = operators.corner_norms(U, rows)
        assert table.tobytes() == _reference_corner_norms(U, rows).tobytes()
        np.testing.assert_array_max_ulp(table, operators.corner_norms(dense, rows), maxulp=4)
    assert operators._sparse_group_parts in _kept_builders(U)
    assert operators._sparse_group_parts not in _kept_builders(dense)


def test_sparse_corner_tables_keep_their_bytes_in_chunks(monkeypatch):
    # a mask tall enough to split the 2- and 3-dim groups sums each corner as a whole group does
    rng = np.random.default_rng(11)
    U = _banded_operator(rng, "cycle", 3, 1, 0.7)
    assert operators._sparse(U) is not None
    tall = rng.random((3000, U.target.base.n)) < 0.02
    chunked = operators.corner_norms(U, tall)
    monkeypatch.setattr(operators, "_STACK_BYTES", 1 << 40)
    assert chunked.tobytes() == operators.corner_norms(U, tall).tobytes()


def _at_share(n, nonzeros):
    """An n x n operator on 1-dim fibers over path_space(n) with exactly
    `nonzeros` nonzero entries: the diagonal, then entries beyond it."""
    mat = np.eye(n, dtype=complex)
    extra = np.flatnonzero(~np.eye(n, dtype=bool))[: nonzeros - n]
    mat.ravel()[extra] = 1e-3j
    fib = FiberedSpace.uniform(path_space(n), 1)
    return BlockOperator(fib, fib, mat)


def test_density_gate_sends_dense_operators_down_the_dense_route():
    n = 128
    fib = FiberedSpace.uniform(path_space(n), 1)
    ghost = BlockOperator(fib, fib, np.eye(n) - 2 * np.full((n, n), 1 / n))  # 1 - 2P, P onto the constants
    check_unitary(ghost)
    above = _at_share(n, n * n // 8 + 1)
    for T in (ghost, above):
        table = corner_norm_table(T, 10.0)
        assert operators._sparse(T) is None
        assert _kept_builders(T) == {operators._sparse_form, operators._group_parts}
        assert table.tobytes() == corner_norm_table(_dense_route(T), 10.0).tobytes()
    at_gate = _at_share(n, n * n // 8)
    assert operators._sparse(at_gate) is not None
    # below SPLIT_MIN, nothing is scanned
    small = _at_share(operators.SPLIT_MIN - 1, operators.SPLIT_MIN - 1)
    corner_norm_table(small, 1.0)
    assert _kept_builders(small) == {operators._group_parts}


def _zero_column(U):
    mat = U.matrix.copy()
    mat[:, 5] = 0
    return BlockOperator(U.source, U.target, mat)


@pytest.mark.parametrize("case, passes", [
    pytest.param(lambda U: U, True, id="unitary"),
    pytest.param(_zero_column, False, id="zero-column"),
    pytest.param(lambda U: scaled(U, 1 + 0.75e-9), False, id="just-above"),  # residual 1.5e-9
    pytest.param(lambda U: scaled(U, 1 + 0.45e-9), True, id="just-below"),  # residual 0.9e-9, bound above 1e-9
])
def test_check_unitary_decides_alike_on_both_routes(case, passes):
    U = case(random_band_unitary(FiberedSpace.uniform(path_space(60), 2), 1.0, 2, seed=3))
    for T in (U, _dense_route(U)):
        if passes:
            check_unitary(T)
        else:
            with pytest.raises(ValueError, match="not unitary"):
                check_unitary(T)
    assert operators._sparse(U) is not None


def test_band_truncate_errors_bound_every_later_violation(rng):
    # the errors need not fall as R grows; each bounds the violation at
    # every R' >= R, whose separated corners miss the truncation, so the
    # window's lower member stays below their running minimum
    X = random_graph_space(rng, 8, extra_edges=2)
    fib = random_fibered(rng, X)
    T = random_operator(rng, fib, fib)
    radii = [float(r) for r in X.realized_distances()]
    errors = [(T - T.supported_mask(np.arange(X.n), R)).norm() for R in radii]
    for R, floor in zip(radii, np.minimum.accumulate(errors)):
        assert locality.approximability_window(T, R)[0] <= floor + operators.ROUNDING_MARGIN
    assert errors[-1] == 0.0  # truncation at the diameter keeps everything
    for R in radii:
        assert T.supported_mask(np.arange(X.n), R).propagation() <= R


def reference_residual(T):
    """max(||T*T - I||, ||TT* - I||) from two Gram products and two full
    SVDs, one per side."""
    mat = T.matrix
    left = mat.conj().T @ mat - np.eye(mat.shape[1])
    right = mat @ mat.conj().T - np.eye(mat.shape[0])
    return max(np.linalg.svd(side, compute_uv=False)[0] for side in (left, right))


def _residual_cases(rng):
    cases = []
    for dim in (1, 2, 3):
        fib = FiberedSpace.uniform(path_space(12), dim)
        cases += [random_band_unitary(fib, 2.0, layers, seed=dim + 10 * layers) for layers in (1, 4)]
    cases.append(random_band_unitary(random_fibered(rng, random_graph_space(rng, 10, 3)), 2.0, 3, 7))
    for kind, n in (("reflection", 20), ("halving", 10)):
        for fiber_dim in (1, 2):
            cases.append(noisy_covering_unitary(kind, n, seed=3, layers=2, fiber_dim=fiber_dim)[0])
        h, _ = standard_pair(kind, n)
        source = FiberedSpace(h.source, rng.integers(1, 3, size=h.source.n))
        W, _ = covering_unitary(h, source)
        cases.append(W @ random_band_unitary(source, 2.0, 4, seed=5))
    for U in list(cases):  # near-unitaries
        noise = rng.standard_normal(U.matrix.shape) + 1j * rng.standard_normal(U.matrix.shape)
        cases.append(BlockOperator(U.source, U.target, U.matrix + 1e-6 * noise))
    for _ in range(4):  # rectangular, at norms above and below 1
        X = random_graph_space(rng, int(rng.integers(3, 8)), 1)
        source, target = random_fibered(rng, X), random_fibered(rng, X)
        if source.total_dim != target.total_dim:
            T = random_operator(rng, source, target)
            cases += [T, scaled(T, 0.5 / T.norm())]
    return cases


def test_unitarity_residual_matches_two_svds(rng):
    for T in _residual_cases(rng):
        assert T.unitarity_residual() == pytest.approx(reference_residual(T), rel=1e-14, abs=1e-14)


def test_unitarity_residual(rng):
    fib = FiberedSpace(path_space(4), [1, 2, 3, 1])
    assert identity_operator(fib).unitarity_residual() == 0.0
    assert scaled(identity_operator(fib), 2.0).unitarity_residual() == 3.0  # ||4I - I||
    for kind, n in (("identity", 9), ("reflection", 9), ("halving", 9)):
        h, _ = standard_pair(kind, n)
        W, _ = covering_unitary(h, FiberedSpace(h.source, rng.integers(1, 4, size=h.source.n)))
        assert W.unitarity_residual() == 0.0
        assert BlockOperator(W.target, W.source, W.matrix.conj().T).unitarity_residual() == 0.0


def test_rectangular_isometry_has_residual_one(rng):
    # T*T = I, but TT* - I has the eigenvalue -1 on the complement of the range
    source, target = FiberedSpace.uniform(path_space(3), 1), FiberedSpace.uniform(path_space(3), 2)
    q, _ = np.linalg.qr(rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3)))
    for mat in (np.eye(6)[:, ::2], q):
        T = BlockOperator(source, target, mat)
        assert T.unitarity_residual() == 1.0
        assert BlockOperator(target, source, mat.conj().T).unitarity_residual() == 1.0
        assert reference_residual(T) == pytest.approx(1.0, abs=1e-14)
        with pytest.raises(ValueError, match="not unitary"):
            check_unitary(T)


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), log_eps=st.floats(-12.0, -8.0), rectangular=st.booleans())
def test_check_unitary_decides_as_the_exact_residual(seed, log_eps, rectangular):
    # (1 + eps) U has residual about 2 eps and Frobenius bound about
    # 2 eps sqrt(N), so draws land on both sides of the tolerance and in
    # the band where only the exact residual can decide
    rng = np.random.default_rng(seed)
    X = random_graph_space(rng, int(rng.integers(2, 10)), extra_edges=2)
    source = random_fibered(rng, X)
    if rectangular:
        dims = source.fiber_dims.copy()
        dims[0] += int(rng.integers(1, 3))
        target = FiberedSpace(X, dims)
        q, _ = np.linalg.qr(rng.standard_normal((target.total_dim, source.total_dim))
                            + 1j * rng.standard_normal((target.total_dim, source.total_dim)))
        U = BlockOperator(source, target, q)
        if rng.random() < 0.5:
            U = U.adjoint()
    else:
        U = random_band_unitary(source, 1.0, int(rng.integers(1, 4)), seed)
    U = scaled(U, 1 + 10.0**log_eps)
    residual = reference_residual(U)
    assume(abs(residual - UNITARITY_TOL) > 1e-14)  # closer, rounding may decide
    if residual <= UNITARITY_TOL:
        check_unitary(U)
    else:
        with pytest.raises(ValueError, match="not unitary"):
            check_unitary(U)


def test_norm_is_taken_once_per_operator(monkeypatch, rng):
    fib = random_fibered(rng, random_graph_space(rng, 6, extra_edges=2))
    T = random_operator(rng, fib, fib)
    taken = []
    monkeypatch.setattr(operators, "spectral_norm", lambda mat: taken.append(mat) or spectral_norm(mat))
    value = T.norm()
    assert T.norm() == value == spectral_norm(T.matrix)
    assert len(taken) == 1
    assert T.adjoint().norm() == spectral_norm(T.matrix.conj().T)
    assert len(taken) == 2  # an adjoint takes its own norm


def _slots(op):
    """What an operator keeps besides its spaces, its matrix and the
    `derived` store: nothing, or a cache outside the store."""
    return sorted(set(vars(op)) - {"source", "target", "matrix", "_derived"})


def _kept_builders(op):
    return {key[0] for key in vars(op)["_derived"]}


def _first_column(T):
    return T.matrix[:, 0].copy()


def _column_pair(T, j):
    return T.matrix[:, j].copy(), T.matrix[:, j + 1].copy()


def test_operator_state_goes_through_derived(rng):
    # the next per-operator cache is a `derived` builder, not a new slot
    X = random_graph_space(rng, 9, extra_edges=2)
    U = random_band_unitary(FiberedSpace(X, np.arange(X.n) % 3 + 1), 1.0, 2, seed=5)
    assert _slots(U) == []
    U.norm()
    U.norm_lower_bound()
    U.unitarity_residual()
    check_unitary(U)
    for R in (0.0, 1.0, 2.0):
        corner_norm_table(U, R)
        locality._exact_violation(U, R, locate=True)
    assert _slots(U) == []
    assert _kept_builders(U) == {
        operators._norm, operators._column_norm_max, operators._residual, operators._permutation,
        operators._group_parts, operators._block_nonzero, locality._reach_tables,
    }
    values = vars(U)["_derived"].values()
    arrays = [part for value in values for part in (value if isinstance(value, tuple) else (value,))
              if isinstance(part, np.ndarray)]
    # corner parts of the groups d = 1, 2, 3; the nonzero-block table and the two reach tables
    assert len(arrays) == 3 + 1 + 2
    assert not any(array.flags.writeable for array in arrays)
    # an adjoint starts with nothing, not even the residual it shares with U
    adj = U.adjoint()
    assert _slots(adj) == []
    assert _kept_builders(adj) == set()


def test_unitarity_check_keeps_no_outcome():
    # a square unitary that passes on its Frobenius bound leaves nothing behind
    U = random_band_unitary(FiberedSpace.uniform(path_space(9), 2), 1.0, 2, seed=5)
    check_unitary(U)
    assert _kept_builders(U) == set()


def test_derived_builds_once_per_builder_and_arguments(rng):
    fib = random_fibered(rng, random_graph_space(rng, 4))
    T = random_operator(rng, fib, fib)
    column = T.derived(_first_column)
    assert T.derived(_first_column) is column and not column.flags.writeable
    pair = T.derived(_column_pair, 0)
    assert T.derived(_column_pair, 0) is pair and T.derived(_column_pair, 1) is not pair
    assert not any(part.flags.writeable for part in pair + T.derived(_column_pair, 1))
    assert np.array_equal(T.derived(_column_pair, 1)[0], T.matrix[:, 1])


def test_slot_guard_finds_a_planted_cache(rng):
    class Planted(BlockOperator):
        def __init__(self, *args):
            super().__init__(*args)
            self._foo = None

    fib = random_fibered(rng, random_graph_space(rng, 3))
    assert _slots(Planted(fib, fib, np.eye(fib.total_dim))) == ["_foo"]


def test_random_band_unitary_contract(rng):
    for seed in range(8):
        X = random_graph_space(rng, 9, extra_edges=2)
        fib = random_fibered(rng, X)
        layers = int(rng.integers(1, 4))
        R = float(rng.integers(1, 4))
        V = random_band_unitary(fib, R, layers, seed)
        assert V.unitarity_residual() <= 1e-12
        assert V.propagation() <= layers * R


def _band_unitary_oracle(space, R, layers, seed):
    """random_band_unitary as a per-pair loop that rotates each pair as it
    is drawn."""
    rng = np.random.default_rng(seed)
    n_coords = space.total_dim
    pt = space.coord_point
    mat = np.eye(n_coords, dtype=complex)
    for _ in range(layers):
        order = rng.permutation(n_coords)
        used = np.zeros(n_coords, dtype=bool)
        for p in order:
            if used[p]:
                continue
            used[p] = True
            candidates = np.flatnonzero(~used & (space.base.dist[pt[p], pt] <= R))
            if candidates.size == 0:
                mat[p, :] *= np.exp(2j * np.pi * rng.random())
                continue
            q = int(rng.choice(candidates))
            used[q] = True
            theta = rng.random() * 2 * np.pi
            alpha = rng.random() * 2 * np.pi
            beta = rng.random() * 2 * np.pi
            a = np.cos(theta) * np.exp(1j * alpha)
            b = np.sin(theta) * np.exp(1j * beta)
            g = np.array([[a, -np.conj(b)], [b, np.conj(a)]])
            mat[[p, q], :] = g @ mat[[p, q], :]
    return mat


def _band_cases(rng):
    seed = 0
    for dim in (1, 2):
        for R, layers in ((0.0, 2), (1.5, 0), (1.5, 1), (2.0, 2), (2.5, 4)):
            for n in (12, 40):
                yield FiberedSpace.uniform(path_space(n), dim), R, layers, seed
                seed += 1
    for _ in range(20):
        fib = random_fibered(rng, random_graph_space(rng, 14, extra_edges=3))
        yield fib, float(rng.integers(0, 4)), int(rng.integers(1, 4)), seed
        seed += 1
    # R at and above the diameter: every coordinate is near every other
    for n, R in ((12, 11.0), (12, 50.0), (40, 39.0)):
        for dim in (1, 3):
            yield FiberedSpace.uniform(path_space(n), dim), R, 3, seed
            seed += 1
    for R, layers in ((0.0, 2), (1.5, 1), (2.5, 4)):
        yield FiberedSpace.uniform(path_space(25), 3), R, layers, seed
        seed += 1
    # one point with one 3-dim fiber: the pairing runs inside the fiber
    for R, layers in ((0.0, 1), (0.0, 4), (3.0, 2)):
        yield FiberedSpace(path_space(1), [3]), R, layers, seed
        seed += 1


def test_random_band_unitary_matches_per_pair_oracle(rng):
    cases = list(_band_cases(rng))
    assert len({seed for *_, seed in cases}) >= 40
    for fib, R, layers, seed in cases:
        got = random_band_unitary(fib, R, layers, seed).matrix
        want = _band_unitary_oracle(fib, R, layers, seed)
        # raw bytes: a -0.0 where the oracle has 0.0 is a difference too
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), (R, layers, seed)


@pytest.mark.parametrize("seed", range(4))
def test_three_angle_draw_equals_three_scalar_draws(seed):
    """`random_band_unitary` draws a pair's three angles with one
    `random(out=row)`; interleaved with `integers(k)` as in its pairing
    loop, that yields the values of three scalar `random()` calls and
    leaves the generator in the same state."""
    one, three = np.random.default_rng(seed), np.random.default_rng(seed)
    rows = np.empty((40, 3))
    picks, want = [], []
    for i, k in enumerate([1, 2, 5, 1, 3, 7, 1, 1, 4, 2] * 4):
        picks.append((one.integers(k), three.integers(k)))
        one.random(out=rows[i])
        want.append([three.random(), three.random(), three.random()])
    assert all(a == b for a, b in picks)
    assert rows.tobytes() == np.array(want).tobytes()
    assert one.bit_generator.state == three.bit_generator.state


@pytest.mark.parametrize("d", range(1, 7))
def test_part_pairs_are_the_strict_lower_triangle(d):
    """`_corner_parts`, `_parts_top` and `_sparse_group_parts` share this
    one part order: `np.tril_indices(d, -1)` in values and dtype."""
    got, want = operators._part_pairs(d), np.tril_indices(d, -1)
    assert len(got) == 2
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


def test_rectangular_norm_with_underflowing_squares_takes_the_svd():
    # the squares of 1e-165 underflow, so the Gram route would read 0 or
    # lose the last digits; a Gram top below 2^-900 sends the matrix to the SVD
    tiny = np.full((2, 3), 1e-165)
    assert spectral_norm(tiny) == np.linalg.svd(tiny, compute_uv=False)[0]
    assert spectral_norm(tiny) == pytest.approx(np.sqrt(6) * 1e-165, rel=1e-15)
    assert spectral_norm(np.array([[1e-170], [0.0], [0.0]])) == 1e-170
    # in a stack only the tiny matrices take the SVD, each bit for bit its own value
    stack = np.stack([tiny, np.arange(6.0).reshape(2, 3), tiny * 1e10, np.zeros((2, 3))])
    values = spectral_norm(stack)
    assert values.tobytes() == np.array([spectral_norm(m) for m in stack]).tobytes()
    assert values[0] > 0.0 and values[3] == 0.0
    fib3, fib1 = FiberedSpace(path_space(1), [3]), FiberedSpace(path_space(1), [1])
    assert BlockOperator(fib1, fib3, [[1e-170], [0.0], [1e-170]]).norm() == pytest.approx(
        np.sqrt(2) * 1e-170, rel=1e-15
    )


def test_spectral_norm_matches_lapack(rng):
    for shape in [(1, 5), (5, 1), (7, 7), (12, 3), (3, 12), (60, 9)]:
        M = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert spectral_norm(M) == pytest.approx(
            np.linalg.svd(M, compute_uv=False)[0], rel=1e-12
        )
    # block operators of total dimension 20 (25 of them) and 80
    small = FiberedSpace.uniform(random_graph_space(rng, 5, extra_edges=1), 4)
    large = FiberedSpace.uniform(random_graph_space(rng, 20, extra_edges=4), 4)
    for fib in [small] * 25 + [large]:
        T = random_operator(rng, fib, fib)
        assert T.norm() == pytest.approx(np.linalg.svd(T.matrix, compute_uv=False)[0], rel=1e-12)
    # top two singular values 1e-5 apart
    vals = np.full(70, 0.3)
    vals[0] = 1.0
    vals[1] = 1.0 - 1e-5
    fib = FiberedSpace(path_space(1), [70])
    T = BlockOperator(fib, fib, np.diag(vals).astype(complex))
    assert T.norm() == pytest.approx(1.0, rel=1e-12)


# -- whole-operator norms by components of the nonzero pattern ---------------

ULP = np.finfo(float).eps


def _svd_top(mat):
    return float(np.linalg.svd(mat, compute_uv=False)[0])


def _tail_matrix(T, keep):
    """The matrix of T - T_keep, the dense route of `operators._tail_norm`,
    its mask gathered here by `np.ix_`."""
    mask = keep[np.ix_(T.target.coord_point, T.source.coord_point)]
    return T.matrix - T.matrix * mask


def _counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kw: calls.append(args[0]) or real(*args, **kw))
    return calls


def _split_operators():
    """Operators of at least SPLIT_MIN coordinates whose nonzero pattern
    falls apart, each with the keep masks of its tails at R = 0-3."""
    cases = []
    for kind, n in (("identity", 120), ("reflection", 120), ("halving", 60)):
        for layers in (1, 2, 3):
            U, h, _ = noisy_covering_unitary(kind, n, layers, 2.0, layers)
            dist = U.target.base.dist[:, h.values]  # d(h(x), y), the support relation of h
            cases.append((U, [dist <= R for R in range(4)]))
    space = FiberedSpace.uniform(path_space(150), 1)
    for seed in range(3):
        V = random_band_unitary(space, 1.0, 4, seed)
        cases.append((V, [space.base.dist <= R for R in range(4)]))
    return cases


def _components(mat):
    """(rows, cols) masks of the connected components of the bipartite
    graph of mat's nonzero entries, grown from each uncovered row."""
    nonzero = mat != 0
    covered = ~nonzero.any(axis=1)
    comps = []
    while not covered.all():
        rows = np.zeros(mat.shape[0], dtype=bool)
        rows[covered.argmin()] = True
        while True:
            cols = nonzero[rows].any(axis=0)
            grown = nonzero[:, cols].any(axis=1)
            if np.array_equal(grown, rows):
                break
            rows = grown
        covered |= rows
        comps.append((rows, cols))
    return comps


def _check_split(T, mat, value):
    """value, the split norm of mat, is within 4 ulps of the largest full
    SVD among mat's components, and agrees with the whole matrix's SVD.
    That SVD is less accurate: it sits up to 8.4 ulps from 40-digit
    values of these norms, where the split sits within 2."""
    comps = _components(mat)
    top = max((_svd_top(mat[np.ix_(rows, cols)]) for rows, cols in comps), default=0.0)
    assert abs(value - top) <= 4 * ULP * top, (T, value, top)
    assert value == pytest.approx(_svd_top(mat), rel=1e-14, abs=0.0)
    return len(comps)


def test_split_norms_agree_with_the_componentwise_svd(monkeypatch):
    # the shared labeller norms the components of a split norm in one call
    split = _counting(monkeypatch, operators, "_gathered_norms")
    counts = []
    for T, keeps in _split_operators():
        assert min(T.matrix.shape) >= operators.SPLIT_MIN
        counts.append(_check_split(T, T.matrix, T.norm()))
        for keep in keeps:
            counts.append(_check_split(T, _tail_matrix(T, keep), operators._tail_norm(T, keep)))
    assert len(split) == sum(count > 1 for count in counts) >= 30


def _pattern_split(mat):
    """`_split_norm` of a dense matrix's nonzero pattern, its entries
    listed by `np.nonzero`: the split an operator's sparse form takes."""
    return operators._split_norm(mat.shape, *np.nonzero(mat), lambda r, c: mat[r, c])


def test_operator_norm_is_the_spectral_norm_of_its_matrix():
    # bit for bit the split of the matrix's nonzero pattern
    for T, _ in _split_operators():
        assert np.float64(T.norm()).tobytes() == np.float64(_pattern_split(T.matrix)).tobytes()


def test_operator_norm_and_the_whole_matrix_norm_agree_within_four_ulps():
    # the split and the whole SVD of the same matrix round differently
    for T, _ in _split_operators():
        whole = spectral_norm(T.matrix)
        assert abs(T.norm() - whole) <= 4 * ULP * whole, T


def test_spectral_norm_takes_a_block_diagonal_matrix_whole(monkeypatch, rng):
    # several components, no full row or column, above SPLIT_MIN: a raw
    # matrix has no sparse form, so it is not labelled but takes one SVD
    blocks = rng.standard_normal((4, 32, 32)) + 1j * rng.standard_normal((4, 32, 32))
    M = np.zeros((128, 128), dtype=complex)
    for k, block in enumerate(blocks):
        M[32 * k : 32 * (k + 1), 32 * k : 32 * (k + 1)] = block
    assert len(_components(M)) == 4 and min(M.shape) >= operators.SPLIT_MIN
    labelled = _counting(monkeypatch, operators, "connected_components")
    value = spectral_norm(M)
    assert labelled == []
    assert _bytes(value) == _bytes(np.linalg.svd(M, compute_uv=False)[0])


def _sparse_form_operators():
    """`_split_operators()` and noisy covers with 1-, 2- and 3-dim source
    fibers (a halving cover's target fibers have twice as many rows, so
    up to 6), each with the keep masks of its tails at R = 0-3 and 5, and
    all of at least SPLIT_MIN coordinates and sparse enough for the
    sparse form."""
    cases = _split_operators()
    for kind in ("identity", "reflection", "halving"):
        for n, dim in ((120, 1), (60, 2), (40, 3)):
            U, h, _ = noisy_covering_unitary(kind, n, 7, 2.0, 2, dim)
            dist = U.target.base.dist[:, h.values]
            cases.append((U, [dist <= R for R in (0, 1, 2, 3, 5)]))
    return cases


def _bytes(value):
    return np.float64(value).tobytes()


def test_sparse_form_routes_equal_the_dense_routes_byte_for_byte():
    # the tail, ||T||, the block Frobenius table and the column bound read
    # T's sparse form: the norms are the split of the dense matrix's (or
    # dense tail's) nonzero pattern, the two sums those of a copy whose
    # sparse form is refused, which takes the dense route
    for T, keeps in _sparse_form_operators():
        dense = _dense_route(T)
        assert operators._sparse(T) is not None
        for keep in keeps:
            assert _bytes(operators._tail_norm(T, keep)) == _bytes(_pattern_split(_tail_matrix(T, keep)))
        assert _bytes(T.norm()) == _bytes(_pattern_split(T.matrix))
        assert T.block_frobenius().tobytes() == dense.block_frobenius().tobytes()
        assert _bytes(T.norm_lower_bound()) == _bytes(dense.norm_lower_bound())
        assert operators._sparse(dense) is None


def _signed_zero_band(seed):
    """A banded operator over path(60) with mixed fibers of up to 3, a
    quarter of its band nonzero, and signed zeros in and around the band: -0 real or imaginary parts,
    -0 - 0j entries, and -0 - 0j beyond the band, which counts as zero."""
    rng = np.random.default_rng(seed)
    X = path_space(60)
    source, target = FiberedSpace(X, rng.integers(1, 4, 60)), FiberedSpace(X, rng.integers(1, 4, 60))
    band = (X.dist <= 2)[np.ix_(target.coord_point, source.coord_point)]
    band &= rng.random(band.shape) < 0.25
    mat = (rng.standard_normal(band.shape) + 1j * rng.standard_normal(band.shape)) * band
    pick = rng.random(mat.shape)
    mat.real[(pick < 0.5) & band] = -0.0
    mat.imag[(pick > 0.4) & (pick < 0.6) & band] = -0.0
    mat[(pick > 0.6) & (pick < 0.7) & band] = complex(-0.0, -0.0)
    mat[pick > 0.95] = complex(-0.0, -0.0)
    return BlockOperator(source, target, mat)


def test_sparse_tails_gather_the_dense_tail_entries_signed_zeros_included(monkeypatch):
    # each component is normed on sub - sub * keep_sub, which is the dense
    # tail's submatrix byte for byte; np.where(keep_sub, 0, sub) is not
    gathered = []
    real = operators._gathered_norms
    monkeypatch.setattr(operators, "_gathered_norms", lambda *args: gathered.append(args) or real(*args))
    for seed in range(4):
        T = _signed_zero_band(seed)
        assert operators._sparse(T) is not None and min(T.matrix.shape) >= operators.SPLIT_MIN
        for R in (0, 1):
            keep = T.source.base.dist <= R
            gathered.clear()
            value = operators._tail_norm(T, keep)
            (gather, row_masks, col_masks), = gathered  # the tail splits
            tail = _tail_matrix(T, keep)
            assert _bytes(value) == _bytes(_pattern_split(tail))
            for rows, cols in zip(row_masks, col_masks):
                r, c = np.flatnonzero(rows), np.flatnonzero(cols)
                assert gather(r[None, :, None], c[None, None, :])[0].tobytes() == tail[np.ix_(r, c)].tobytes()


def test_sparse_form_with_a_full_row_gathers_its_one_component(monkeypatch):
    # a full row makes one component: each route labels it once and norms it
    # gathered, like any other, with the dense route's bytes; a tail that
    # keeps nothing is T itself
    n = 128
    fib = FiberedSpace.uniform(path_space(n), 1)
    mat = np.eye(n, dtype=complex)
    mat[5] += 1e-3j
    T = BlockOperator(fib, fib, mat)
    assert operators._sparse(T) is not None
    labelled = _counting(monkeypatch, operators, "connected_components")
    gathered = _counting(monkeypatch, operators, "_gathered_norms")
    nothing = np.zeros((n, n), dtype=bool)
    values = []
    for norm in (T.norm, lambda: operators._tail_norm(T, nothing)):
        labelled.clear()
        gathered.clear()
        values.append(norm())
        assert len(labelled) == len(gathered) == 1
    monkeypatch.undo()
    dense = _dense_route(T)
    assert [_bytes(v) for v in values] == [_bytes(dense.norm()), _bytes(operators._tail_norm(dense, nothing))]


def test_sparse_route_tail_forms_no_full_matrix():
    # the tails of a band operator split into small gathered components:
    # the peak stays under a quarter of one N x N complex matrix
    T, _, _ = noisy_covering_unitary("reflection", 400, 0, 2.0, 2, fiber_dim=2)
    n_coords = T.matrix.shape[0]
    assert n_coords == 800 and operators._sparse(T) is not None  # the form is built before tracing
    f = identity_map(T.source.base)
    tracemalloc.start()
    try:
        for R in (1, 3):
            supported_distance_upper(T, f, R)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n_coords**2 * 16 / 4


def test_sparse_block_frobenius_sums_each_fiber_in_the_dense_order():
    # mixed fibers of up to 9 coordinates on both sides: a fiber of more than
    # 8 is summed pairwise by np.add.reduceat, which the sparse sums follow
    rng = np.random.default_rng(3)
    X = path_space(30)
    source, target = FiberedSpace(X, rng.integers(1, 10, 30)), FiberedSpace(X, rng.integers(1, 10, 30))
    band = (X.dist <= 1)[np.ix_(target.coord_point, source.coord_point)]
    band &= rng.random(band.shape) < 0.6
    entries = rng.standard_normal(band.shape) + 1j * rng.standard_normal(band.shape)
    T = BlockOperator(source, target, entries * np.exp(rng.uniform(-30, 30, band.shape)) * band)
    assert operators._sparse(T) is not None and max(source.fiber_dims.max(), target.fiber_dims.max()) == 9
    assert T.block_frobenius().tobytes() == _dense_route(T).block_frobenius().tobytes()
    assert _bytes(T.norm_lower_bound()) == _bytes(_dense_route(T).norm_lower_bound())


def test_dense_operator_pays_one_kept_scan_and_keeps_the_dense_route(monkeypatch):
    n = 128
    fib = FiberedSpace.uniform(path_space(n), 1)
    ghost = BlockOperator(fib, fib, np.eye(n) - 2 * np.full((n, n), 1 / n))  # 1 - 2P, P onto the constants
    scans = _counting(monkeypatch, operators, "_sparse_form")
    keep = fib.base.dist <= 3
    tail, norm = operators._tail_norm(ghost, keep), ghost.norm()
    table, bound = ghost.block_frobenius(), ghost.norm_lower_bound()
    assert len(scans) == 1 and operators._sparse(ghost) is None
    monkeypatch.undo()
    assert _bytes(tail) == _bytes(spectral_norm(_tail_matrix(ghost, keep)))
    assert _bytes(norm) == _bytes(spectral_norm(ghost.matrix))
    assert table.tobytes() == np.sqrt(np.square(np.abs(ghost.matrix))).tobytes()  # 1-dim fibers
    assert _bytes(bound) == _bytes(np.linalg.norm(ghost.matrix, axis=0).max())


def _rectangular_blocks(rng, n):
    """3 x 2 blocks on the diagonal of path(n), every third point linked
    to the next: components of shapes 3 x 2 and 6 x 4, all rectangular."""
    source, target = FiberedSpace.uniform(path_space(n), 2), FiberedSpace.uniform(path_space(n), 3)
    blocks = {(x, x): rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)) for x in range(n)}
    blocks.update({(x + 1, x): rng.standard_normal((3, 2)) for x in range(0, n - 1, 3)})
    return _assemble(source, target, blocks)


def test_split_norm_of_a_rectangular_operator_takes_the_gram_route(monkeypatch, rng):
    # 120 x 80: the smaller side is below SPLIT_MIN, so the whole matrix
    # takes the Gram route, with no labelling and no SVD
    T = _rectangular_blocks(rng, 40)
    labelled = _counting(monkeypatch, operators, "connected_components")
    svd = _counting(monkeypatch, np.linalg, "svd")
    value = T.norm()
    assert labelled == [] and svd == []
    monkeypatch.undo()
    assert _check_split(T, T.matrix, value) == 27


def test_rectangular_operator_splits_from_its_smaller_side(monkeypatch, rng):
    # 150 x 100: the smaller side reaches SPLIT_MIN, so the components are
    # labelled and normed, and none is square, so nothing takes the SVD
    T = _rectangular_blocks(rng, 50)
    labelled = _counting(monkeypatch, operators, "connected_components")
    svd = _counting(monkeypatch, np.linalg, "svd")
    value = T.norm()
    assert len(labelled) == 1 and svd == []
    monkeypatch.undo()
    assert _check_split(T, T.matrix, value) == 33


def test_slabs_and_columns_are_not_labelled(monkeypatch, rng):
    # the shapes of upgrade_trick's error and of concentration
    # certificates: a large side alone does not split
    slab = np.zeros((200, 16), dtype=complex)
    slab[rng.choice(200, 40, replace=False), rng.integers(0, 16, 40)] = rng.standard_normal(40)
    U = noisy_covering_unitary("reflection", 200, 0, 2.0, 1)[0]
    labelled = _counting(monkeypatch, operators, "connected_components")
    values = [spectral_norm(slab), spectral_norm(U.matrix[:, [7]])]
    assert labelled == []
    assert values == pytest.approx([_svd_top(slab), _svd_top(U.matrix[:, [7]])], rel=1e-14)


def test_stacks_match_the_matrices_the_split_leaves_whole(rng):
    def check(stack):
        want = np.array([spectral_norm(mat) for mat in stack])
        assert spectral_norm(stack).tobytes() == want.tobytes()

    for shape in [(3, 7, 7), (4, 5, 9), (2, 95, 95), (2, 95, 200), (2, 300, 95)]:
        check(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    # above SPLIT_MIN: dense (a full row), and one band component without a full row or column
    dense = rng.standard_normal((3, 100, 120))
    band = np.stack([np.diag(rng.standard_normal(100)) + np.diag(rng.standard_normal(99), 1) for _ in range(3)])
    for stack in (dense, band.astype(complex)):
        assert all(len(_components(mat)) == 1 for mat in stack)
        check(stack)


@pytest.mark.parametrize("mat", [np.ones(3), 2.0, np.zeros(0)])
def test_spectral_norm_refuses_fewer_than_two_axes(mat):
    with pytest.raises(ValueError, match=rf"got shape {re.escape(str(np.shape(mat)))}"):
        spectral_norm(mat)


def test_all_zero_tail_takes_no_decomposition(monkeypatch):
    V = random_band_unitary(FiberedSpace.uniform(path_space(150), 1), 1.0, 4, 0)
    svd, eigvalsh = _counting(monkeypatch, np.linalg, "svd"), _counting(monkeypatch, np.linalg, "eigvalsh")
    assert operators._tail_norm(V, V.source.base.dist <= 4) == 0.0  # propagation <= 4
    assert svd == [] and eigvalsh == []


def test_split_norm_reads_the_smallest_entries():
    fib = FiberedSpace.uniform(path_space(128), 1)
    lone = np.zeros((128, 128), dtype=complex)
    lone[3, 90] = 5e-324  # an upper member of 0 would skip the search
    assert BlockOperator(fib, fib, lone).norm() == 5e-324
    # a rectangular 1 x 2 component of 1e-170, whose Gram underflows, beside a 1 x 1 one
    tiny = np.zeros((128, 128), dtype=complex)
    tiny[5, [7, 8]] = 1e-170
    tiny[40, 41] = 1e-200
    assert BlockOperator(fib, fib, tiny).norm() == pytest.approx(np.sqrt(2) * 1e-170, rel=1e-15)


def test_dense_operator_keeps_the_whole_matrix_norm():
    # the ghost 1 - 2P, P the projection onto the constants, is one dense component
    n = 128
    fib = FiberedSpace.uniform(path_space(n), 1)
    ghost = BlockOperator(fib, fib, np.eye(n) - 2 * np.full((n, n), 1 / n))
    assert ghost.norm() == spectral_norm(ghost.matrix)


@pytest.mark.parametrize("n", [8, 13])
def test_truncation_upper_below_the_split_is_the_whole_matrix_arithmetic(n):
    # the outer-exact inputs: 2-dim reflection covers of 16 and 26 coordinates
    assert 2 * n < operators.SPLIT_MIN
    for seed in range(4):
        U = noisy_covering_unitary("reflection", n, seed, 2.0, 1, 2)[0]
        for R in range(4):
            tail = spectral_norm(_tail_matrix(U, U.source.base.dist <= R))
            if tail < (1 - operators.ROUNDING_MARGIN) * U.norm_lower_bound():
                want = tail
            else:
                want = min(tail, spectral_norm(U.matrix))
            assert locality._truncation_upper(U, R) == want, (seed, R)


@pytest.mark.parametrize("seed", range(3))
def test_bounds_mode_never_decomposes_the_whole_band_tail(monkeypatch, seed):
    V = random_band_unitary(FiberedSpace.uniform(path_space(150), 1), 1.0, 4, seed)
    svd = _counting(monkeypatch, np.linalg, "svd")
    locality.quasi_locality_violation(V, 3, "bounds")
    assert svd and all(np.shape(mat)[-2:] != (150, 150) for mat in svd)


def test_block_frobenius_matches_naive(rng):
    X = random_graph_space(rng, 5, extra_edges=1)
    fib = random_fibered(rng, X)
    T = random_operator(rng, fib, fib)
    table = T.block_frobenius()
    for y in range(5):
        for x in range(5):
            assert table[y, x] == pytest.approx(np.linalg.norm(T.block(y, x)), abs=1e-12)


@pytest.mark.parametrize("call, message", [
    # these used to run as [0, 1, 2, 3, 4], as one layer, as an empty block, or fail inside numpy
    pytest.param(lambda U: U.supported_mask(np.array([0.7, 1.2, 2, 3, 4]), 0),
                 "map values must be integers, got 0.7", id="mask-float"),
    pytest.param(lambda U: U.supported_mask([0, 1, 2, 3, 5], 0),
                 r"map value out of range [0, 5): [5]", id="mask-range"),
    pytest.param(lambda U: U.supported_mask([0, 1, 2], 0),
                 "map needs one value per source point: expected 5, got 3", id="mask-length"),
    pytest.param(lambda U: random_band_unitary(U.source, 1.0, True, 0),
                 "layer count must be an integer >= 0, got True", id="layers-bool"),
    pytest.param(lambda U: random_band_unitary(U.source, 1.0, 1.0, 0),
                 "layer count must be an integer >= 0, got 1.0", id="layers-float"),
    pytest.param(lambda U: U.block(-1, 0), "point -1 out of range [0, 5)", id="block-negative"),
    pytest.param(lambda U: U.block(0, 1.0), "point must be an integer, got 1.0", id="block-float"),
    pytest.param(lambda U: U.source.slice_of(5), "point 5 out of range [0, 5)", id="slice-n"),
])
def test_operator_entry_points_refuse_malformed_integers(call, message):
    U, _, _ = noisy_covering_unitary("identity", 5, 0)
    with pytest.raises(ValueError) as err:
        call(U)
    assert str(err.value) == message


def test_supported_mask_structural(rng):
    X = path_space(6)
    fib = random_fibered(rng, X)
    T = random_operator(rng, fib, fib)
    f_values = np.array([min(i + 1, 5) for i in range(6)])
    kept = T.supported_mask(f_values, 1.0)
    mask = kept.block_frobenius() > 0.0
    ys, xs = np.nonzero(mask)
    assert all(X.dist[f_values[x], y] <= 1.0 for y, x in zip(ys, xs))


@pytest.mark.parametrize("seed", [1.5, np.float64(2.0), True, -1])
def test_seeds_follow_the_integer_rule(seed):
    # a float used to fail inside numpy's SeedSequence, and True ran as seed 1
    fib = FiberedSpace.uniform(path_space(4), 1)
    message = f"seed must be an integer >= 0, got {seed!r}"
    for call in (lambda: random_band_unitary(fib, 1.0, 1, seed),
                 lambda: noisy_covering_unitary("identity", 4, seed)):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message
    assert np.array_equal(random_band_unitary(fib, 1.0, 1, np.uint8(3)).matrix,
                          random_band_unitary(fib, 1.0, 1, 3).matrix)


def test_band_truncate_keeps_exactly_the_blocks_within_R(rng):
    X = random_graph_space(rng, 6, extra_edges=2)
    source, target = random_fibered(rng, X), random_fibered(rng, X)
    T = random_operator(rng, source, target)
    for R in [0, 1, 1.5, 2.0, float("inf")]:
        expected = np.zeros_like(T.matrix)
        for y in range(X.n):
            for x in range(X.n):
                if X.dist[y, x] <= R:
                    expected[target.slice_of(y), source.slice_of(x)] = T.block(y, x)
        assert np.array_equal(T.supported_mask(np.arange(X.n), R).matrix, expected)
