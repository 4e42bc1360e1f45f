"""Quasi-locality: exact enumeration against a naive all-subsets oracle
and against a per-candidate loop, and the local search, which norms only
candidates of nonzero Frobenius mass, against a plain greedy."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from roelab import fixtures, locality, operators
from roelab.covering import covering_unitary, outer_roundtrip
from roelab.extraction import corner_norm_table
from roelab.fixtures import noisy_covering_unitary
from roelab.locality import approximability_window, quasi_locality_violation, supported_distance_upper
from roelab.maps import PointMap, identity_map
from roelab.operators import BlockOperator, FiberedSpace, random_band_unitary, spectral_norm
from roelab.serialize import report_bytes
from roelab.spaces import path_space

from conftest import (
    cycle_space,
    grid_space,
    random_fibered,
    random_graph_space,
    random_operator,
    tree_space,
)


def naive_violation(T, R):
    """Max corner norm over every separated subset pair, no pruning.

    Enumerates all 2^n × 2^n subset pairs; batches equal-shape corners
    into stacked SVD calls so the oracle stays usable at n = 8.
    """
    X = T.source.base
    n = X.n
    near = [0] * n
    for i in range(n):
        for j in range(n):
            if X.dist[i, j] <= R:
                near[i] |= 1 << j
    nbhd = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        nbhd[mask] = nbhd[mask ^ low] | near[low.bit_length() - 1]
    coords = [T.source.coords_of([i]) for i in range(n)]
    tcoords = [T.target.coords_of([i]) for i in range(n)]

    def gather(mask, table):
        return np.concatenate([table[i] for i in range(n) if mask >> i & 1])

    best = 0.0
    groups = {}

    def flush(key):
        nonlocal best
        stack = np.stack(groups.pop(key))
        tops = np.linalg.svd(stack, compute_uv=False)[:, 0]
        best = max(best, float(tops.max()))

    for amask in range(1, 1 << n):
        cols = gather(amask, coords)
        forbidden = nbhd[amask]
        for bmask in range(1, 1 << n):
            if bmask & forbidden:
                continue
            rows = gather(bmask, tcoords)
            sub = T.matrix[np.ix_(rows, cols)]
            key = sub.shape
            groups.setdefault(key, []).append(sub)
            if len(groups[key]) >= 2048:
                flush(key)
    for key in list(groups):
        flush(key)
    return best


def test_exact_matches_naive_oracle(rng):
    for _ in range(10):
        X = random_graph_space(rng, 8, extra_edges=3)
        fib = random_fibered(rng, X, max_dim=2)
        T = random_operator(rng, fib, fib)
        R = float(rng.integers(1, max(2, int(X.diameter))))
        report = quasi_locality_violation(T, R)
        assert report.exact
        assert report.violation_lower == pytest.approx(report.violation_upper, abs=1e-15)
        assert report.violation_lower == pytest.approx(naive_violation(T, R), abs=1e-12)


def reference_exact(T, R):
    """The exact enumeration as a per-candidate loop: one corner_norm call
    per closed candidate set, in ascending bitmask order, keeping the
    first strict maximum."""
    base = T.source.base
    n = base.n
    full = (1 << n) - 1
    near = [0] * n
    for x in range(n):
        for x2 in np.flatnonzero(base.dist[x] <= R):
            near[x] |= 1 << int(x2)
    nbhd = np.zeros(1 << n, dtype=np.uint32)
    for mask in range(1, 1 << n):
        low = mask & -mask
        nbhd[mask] = nbhd[mask ^ low] | near[low.bit_length() - 1]
    allowed = np.uint32(full) & ~nbhd[1:]
    closures = np.uint32(full) & ~nbhd[allowed[allowed != 0]]
    best_value, best_pair = 0.0, None
    for b_mask in np.unique(closures):
        b_mask = int(b_mask)
        a_mask = int(np.uint32(full) & ~nbhd[b_mask])
        if b_mask == 0 or a_mask == 0:
            continue
        B = [i for i in range(n) if b_mask >> i & 1]
        A = [i for i in range(n) if a_mask >> i & 1]
        value = T.corner_norm(B, A)
        if value > best_value:
            best_value, best_pair = value, (A, B)
    witness = None
    if best_pair is not None and best_value > locality._WITNESS_TOL:
        A, B = best_pair
        witness = locality._prune_witness(T, B, A, best_value)
    return locality.LocalityReport(float(R), best_value, best_value, True, witness)


def test_batched_enumeration_matches_per_candidate_loop(monkeypatch):
    rng = np.random.default_rng(7)
    cases = []
    for k in range(16):
        X = random_graph_space(rng, int(rng.integers(3, 13)), extra_edges=int(rng.integers(0, 4)))
        source = random_fibered(rng, X, max_dim=3)
        target = random_fibered(rng, X, max_dim=3) if k % 3 == 0 else source
        T = random_operator(rng, source, target)
        if k % 4 == 1:
            T = T.band_truncate(1.0)
        cases.append((T, float(rng.integers(0, min(3, int(X.diameter))))))
        if k < 2:
            cases.append((T, X.diameter + 1.0))  # no separated pair
    X = random_graph_space(rng, 10, extra_edges=2)
    fib = random_fibered(rng, X, max_dim=3)
    zero = 0 * random_operator(rng, fib, fib)
    # a coordinate permutation ties many corners at exactly 1, so the
    # first maximum decides the witness
    perm = BlockOperator(fib, fib, np.eye(fib.total_dim)[rng.permutation(fib.total_dim)])
    cases += [(zero, 0.0), (zero, 1.0), (perm, 0.0), (perm, 1.0)]
    X = random_graph_space(rng, 16, extra_edges=3)
    fib = random_fibered(rng, X, max_dim=2)
    cases.append((random_operator(rng, fib, fib), 1.0))

    branches = set()

    def spy(mat):
        if mat.ndim == 3:  # the enumeration's stacks; pruning norms one corner at a time
            rows, cols = mat.shape[-2:]
            branches.add("svd" if rows == cols else "gram")
        return spectral_norm(mat)

    monkeypatch.setattr(operators, "spectral_norm", spy)
    for T, R in cases:
        assert report_bytes(quasi_locality_violation(T, R)) == report_bytes(reference_exact(T, R))
    assert branches == {"gram", "svd"}


def _block_sparse_input(seed: int):
    """A block-sparse operator on a space of 4-14 points and a radius R in
    0-3 that it violates, cycling through three kinds: a random operator
    between different mixed fibers (dimension 1-3) truncated to a band
    wider than R, a random band unitary with propagation above R, and a
    noisy-cover product U W* = W V W* whose noise reaches beyond R."""
    rng = np.random.default_rng(seed)
    R = seed % 4
    width = int(rng.integers(1, 3))  # noise radius, layer count or band beyond R
    if seed % 3 == 2:
        if seed % 2:
            h = fixtures.standard_pair("reflection", int(rng.integers(4, 15)))[0]
        else:
            h = fixtures.halving_map(int(rng.integers(4, 9)))
        W, _ = covering_unitary(h, FiberedSpace(h.source, rng.integers(1, 3, size=h.source.n)))
        V = random_band_unitary(W.source, float(width), R // width + 1, seed)
        return (W @ V) @ W.adjoint(), float(R)
    X = random_graph_space(rng, int(rng.integers(4, 15)), extra_edges=int(rng.integers(0, 4)))
    source = random_fibered(rng, X, max_dim=3)
    if seed % 3 == 1:
        return random_band_unitary(source, float(width), R // width + 1, seed), float(R)
    target = random_fibered(rng, X, max_dim=3)
    return random_operator(rng, source, target).band_truncate(float(R + width)), float(R)


def test_component_split_matches_reference_on_block_sparse_operators():
    for seed in range(40):
        T, R = _block_sparse_input(seed)
        report, ref = quasi_locality_violation(T, R), reference_exact(T, R)
        value = report.violation_lower
        assert abs(value - ref.violation_lower) <= 4 * np.spacing(ref.violation_lower), seed
        assert report.violation_upper == value
        if report.witness is None:
            assert value <= locality._WITNESS_TOL
            continue
        A, B = report.witness.A, report.witness.B
        X = T.source.base
        assert X.set_distance(A, B) > R
        assert abs(T.corner_norm(B, A) - value) <= 1e-12
        for drop in range(len(B) if len(B) > 1 else 0):
            assert T.corner_norm(B[:drop] + B[drop + 1 :], A) < value - 1e-12
        for drop in range(len(A) if len(A) > 1 else 0):
            assert T.corner_norm(B, A[:drop] + A[drop + 1 :]) < value - 1e-12


def test_tiny_block_still_counts_as_nonzero():
    # the squared Frobenius norm of the 1e-170 block underflows to 0
    fib = FiberedSpace.uniform(path_space(2), 1)
    T = BlockOperator(fib, fib, [[1.0, 0.0], [1e-170, 1.0]])
    assert T.block_frobenius()[1, 0] == 0.0
    report = quasi_locality_violation(T, 0.0)
    assert report.violation_lower == 1e-170
    assert report_bytes(report) == report_bytes(reference_exact(T, 0.0))


def test_bounds_upper_member_resolves_entries_whose_squares_underflow():
    # at R = 1 the one separated nonzero entry is 1e-170; the Gram of the
    # 4 x 3 tail underflows to 0, and an upper member of 0 would skip the
    # search and read below the exact violation
    source = FiberedSpace(path_space(3), [1, 1, 1])
    target = FiberedSpace(path_space(3), [2, 1, 1])
    T = BlockOperator(source, target, [[1, 0, 0], [0, 0, 0], [0, 1, 0], [1e-170, 0, 1]])
    exact = quasi_locality_violation(T, 1.0)
    bounds = quasi_locality_violation(T, 1.0, mode="bounds")
    assert exact.violation_lower == 1e-170
    assert (bounds.violation_lower, bounds.violation_upper) == (1e-170, 1e-170)
    assert approximability_window(T, 1.0) == (1e-170, 1e-170)
    f = PointMap(T.source.base, T.target.base, [0, 1, 2])
    assert supported_distance_upper(T, f, 1.0) == 1e-170


def test_each_distinct_component_is_normed_once(monkeypatch):
    count = [0]

    def spy(mat):
        if mat.ndim == 3:  # the enumeration's stacks; pruning norms one corner at a time
            count[0] += mat.shape[0]
        return spectral_norm(mat)

    monkeypatch.setattr(operators, "spectral_norm", spy)
    # R = 0 on 16 points: 65,534 candidates, whose corners share few
    # distinct components on a band unitary
    V = random_band_unitary(FiberedSpace.uniform(path_space(16), 2), 2.0, 1, seed=3)
    quasi_locality_violation(V, 0.0)
    assert count[0] <= 200
    # a dense corner is one component: one norm per candidate
    count[0] = 0
    rng = np.random.default_rng(12)
    fib = FiberedSpace.uniform(path_space(12), 2)
    q, _ = np.linalg.qr(rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24)))
    quasi_locality_violation(BlockOperator(fib, fib, q), 0.0)
    assert count[0] == 2**12 - 2


@pytest.mark.parametrize("shape", [(1, 5), (6, 1), (3, 8), (9, 2), (4, 4), (5, 9)])
def test_spectral_norm_of_a_stack_is_bitwise_per_matrix(shape):
    rng = np.random.default_rng(sum(shape))
    stack = rng.standard_normal((6,) + shape) + 1j * rng.standard_normal((6,) + shape)
    stack[2] = 0.0
    stack[4] *= 1e-160  # squares near the bottom of the float range
    values = spectral_norm(stack)
    assert values.shape == (6,)
    assert values.tobytes() == np.array([spectral_norm(m) for m in stack]).tobytes()


def test_exact_enumeration_memory_stays_bounded():
    # R = 0 on 16 points makes every proper subset a candidate.  A dense
    # operator has one component per corner, so its largest equal-shape
    # group alone is C(16, 8) corners of 16 x 16 complex entries, 53 MB if
    # gathered at once; the band unitary's 65,534 corners split into
    # 229,376 component labels, of which 62 are distinct
    fib = FiberedSpace.uniform(path_space(16), 2)
    band = random_band_unitary(fib, 2.0, 1, seed=3)
    dense = random_operator(np.random.default_rng(16), fib, fib)
    for T in (band, dense):
        tracemalloc.start()
        try:
            quasi_locality_violation(T, 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


def test_banded_operator_reports_zero(rng):
    X = random_graph_space(rng, 8, extra_edges=2)
    fib = random_fibered(rng, X, max_dim=2)
    T = random_operator(rng, fib, fib).band_truncate(2.0)
    report = quasi_locality_violation(T, 2.0)
    assert report.violation_lower == 0.0
    assert report.violation_upper == 0.0
    assert report.witness is None


def test_witness_reproduces_value_and_is_minimal(rng):
    for _ in range(8):
        X = random_graph_space(rng, 7, extra_edges=2)
        fib = random_fibered(rng, X, max_dim=2)
        T = random_operator(rng, fib, fib)
        report = quasi_locality_violation(T, 1.0)
        if report.witness is None:
            assert report.violation_lower == 0.0
            continue
        A, B = report.witness.A, report.witness.B
        assert X.set_distance(A, B) > 1.0
        assert T.corner_norm(B, A) == pytest.approx(report.violation_lower, abs=1e-12)
        for drop in range(len(B)):
            if len(B) > 1:
                kept = [b for k, b in enumerate(B) if k != drop]
                assert T.corner_norm(kept, A) < report.violation_lower - 1e-12
        for drop in range(len(A)):
            if len(A) > 1:
                kept = [a for k, a in enumerate(A) if k != drop]
                assert T.corner_norm(B, kept) < report.violation_lower - 1e-12


def test_no_separated_pairs_gives_zero(rng):
    X = path_space(5)
    fib = FiberedSpace.uniform(X, 1)
    T = random_operator(rng, fib, fib)
    report = quasi_locality_violation(T, X.diameter)
    assert report.violation_lower == 0.0
    assert report.witness is None


def test_bounds_mode_brackets_exact(rng):
    for _ in range(8):
        X = random_graph_space(rng, 8, extra_edges=2)
        fib = FiberedSpace.uniform(X, 1)
        T = random_operator(rng, fib, fib)
        exact = quasi_locality_violation(T, 1.0).violation_lower
        bounds = quasi_locality_violation(T, 1.0, mode="bounds")
        assert not bounds.exact
        assert bounds.violation_lower <= exact + 1e-12
        assert exact <= bounds.violation_upper + 1e-12
        if bounds.witness is not None:
            A, B = bounds.witness.A, bounds.witness.B
            assert T.corner_norm(B, A) == pytest.approx(bounds.violation_lower, abs=1e-12)


def test_exact_mode_refuses_large_spaces(rng):
    X = path_space(17)
    fib = FiberedSpace.uniform(X, 1)
    T = random_operator(rng, fib, fib)
    with pytest.raises(ValueError, match="bounds"):
        quasi_locality_violation(T, 1.0)


def test_window_lower_at_most_upper(rng):
    for _ in range(20):
        X = random_graph_space(rng, 8, extra_edges=2)
        fib = random_fibered(rng, X, max_dim=2)
        T = random_operator(rng, fib, fib)
        R = float(rng.integers(0, int(X.diameter) + 1))
        lower, upper = approximability_window(T, R)
        assert lower <= upper + 1e-12


def test_window_closes_on_banded_operators(rng):
    X = random_graph_space(rng, 8, extra_edges=2)
    fib = random_fibered(rng, X, max_dim=2)
    T = random_operator(rng, fib, fib).band_truncate(2.0)
    lower, upper = approximability_window(T, 2.0)
    assert lower == 0.0
    assert upper == 0.0


def test_window_upper_is_truncation_error(rng):
    X = path_space(9)
    fib = FiberedSpace.uniform(X, 1)
    T = random_operator(rng, fib, fib)
    for R in (0.0, 2.0, 5.0):
        _, upper = approximability_window(T, R)
        assert upper <= (T - T.band_truncate(R)).norm() + 1e-12


def test_quasi_local_band_unitary_decay(rng):
    # a prop-2 unitary violates nothing beyond radius 2
    X = path_space(12)
    fib = FiberedSpace.uniform(X, 2)
    V = random_band_unitary(fib, 2.0, 1, seed=5)
    for R in (2.0, 4.0):
        assert quasi_locality_violation(V, R).violation_lower <= 1e-12


def test_supported_distance_upper_vanishes_on_support():
    # exact support: operator with blocks only at (f(x), x)
    X = path_space(6)
    fib = FiberedSpace.uniform(X, 1)
    f = PointMap(X, X, [min(i + 1, 5) for i in range(6)])
    mat = np.zeros((6, 6), dtype=complex)
    for x in range(6):
        mat[f(x), x] = 1.0
    T = BlockOperator(fib, fib, mat)
    assert supported_distance_upper(T, f, 0.0) <= 1e-15
    assert supported_distance_upper(T, identity_map(X), 1.0) <= 1e-15
    assert supported_distance_upper(T, identity_map(X), 0.0) > 0.5


def reference_grow(T, R, B, A, frob):
    """The local-search greedy without skipping: every candidate move, in
    order of (-Frobenius mass, side, point), gets a sequential corner_norm
    call, and the first improvement by the margin
    _WITNESS_TOL * max(1, value) wins."""
    base = T.source.base
    value = T.corner_norm(B, A)
    while True:
        moves = []
        for y in range(base.n):
            if y not in B and all(base.dist[y, a] > R for a in A):
                moves.append((float(np.sum(frob[y, A] ** 2)), "B", y))
        for x in range(base.n):
            if x not in A and all(base.dist[x, b] > R for b in B):
                moves.append((float(np.sum(frob[B, x] ** 2)), "A", x))
        moves.sort(key=lambda m: (-m[0], m[1], m[2]))
        for _, side, p in moves:
            cand = T.corner_norm(B + [p], A) if side == "B" else T.corner_norm(B, A + [p])
            if cand > value + locality._WITNESS_TOL * max(1.0, value):
                (B if side == "B" else A).append(p)
                value = cand
                break
        else:
            return value, B, A


def _search_input(seed: int, kind: str):
    """A random graph space with 1-3 dimensional fibers, a radius, and an
    operator of the given kind: "dense" random; "sparse", banded to R + 1
    so that most separated blocks, and so most restarts, are zero;
    "unitary", a coordinate permutation times band noise, whose corners
    saturate at 1; "scaled", 1e6 times the "unitary" operator, whose
    rounding noise exceeds an absolute 1e-12; "faint", a coordinate
    permutation plus entries of size 3e-6, whose moves improve saturated
    corners by about 1e-11, near the acceptance tolerance."""
    rng = np.random.default_rng(seed)
    X = random_graph_space(rng, int(rng.integers(10, 25)), extra_edges=int(rng.integers(0, 4)))
    fib = random_fibered(rng, X, max_dim=3)
    R = float(rng.integers(0, max(1, int(X.diameter) - 1)))
    if kind == "dense":
        T = random_operator(rng, fib, fib)
    elif kind == "sparse":
        T = random_operator(rng, fib, fib).band_truncate(R + 1)
    else:
        perm = BlockOperator(fib, fib, np.eye(fib.total_dim)[rng.permutation(fib.total_dim)])
        if kind in ("unitary", "scaled"):
            T = perm @ random_band_unitary(fib, 1.0, int(rng.integers(0, 3)), seed)
            T = T * 1e6 if kind == "scaled" else T
        else:
            T = perm + 3e-6 * random_operator(rng, fib, fib)
    return T, R


def _assert_search_matches_reference(T, R, restarts, seed):
    """Every start of the local search grows as reference_grow does, and
    the search returns the same value and unpruned pair (B, A) with
    either; the pruned witness depends on nothing else."""
    state = locality._SearchState(T, R)
    pairs = np.argwhere(state.far)
    if len(pairs) == 0:
        return
    frob = T.block_frobenius()
    best = locality._best_singleton(state)[1]  # None when every separated block is zero
    starts = [best] if best is not None else []
    picks = np.random.default_rng(seed).integers(0, len(pairs), 8)
    starts += [(int(y), int(x)) for y, x in pairs[picks]]
    for y, x in starts:
        assert locality._grow_pair(state, [y], [x]) == reference_grow(T, R, [y], [x], frob)
    found = locality._search_violation(T, R, restarts=restarts, seed=seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(locality, "_grow_pair", lambda s, B, A: reference_grow(s.T, R, B, A, frob))
        plain = locality._search_violation(T, R, restarts=restarts, seed=seed)
    assert found == plain


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["dense", "sparse", "unitary", "scaled", "faint"]))
def test_screened_search_matches_plain_greedy(seed, kind):
    T, R = _search_input(seed, kind)
    _assert_search_matches_reference(T, R, 8, seed)


@pytest.mark.parametrize("kind", ["band", "reflection"])
def test_screened_search_matches_plain_greedy_on_a_60_point_path(kind):
    # mixed 1- and 2-dim fibers: the corners start at 1 x 1 or 2 x 2 and
    # grow past them, and the candidates add uneven numbers of rows
    rng = np.random.default_rng(60)
    fib = FiberedSpace(path_space(60), rng.integers(1, 3, size=60))
    if kind == "band":
        T = random_band_unitary(fib, 1.0, 4, seed=11)
    else:
        W, _ = covering_unitary(fixtures.standard_pair("reflection", 60)[0], fib)
        T = W @ random_band_unitary(fib, 2.0, 1, seed=12)
    assert set(T.target.fiber_dims) == set(T.source.fiber_dims) == {1, 2}
    _assert_search_matches_reference(T, 3.0, 6, 5)


def eager_starts(T, R, restarts, seed):
    """The start list of a search that indexes every separated pair: the
    best singleton over all of them, ranked by argsort(-frob[far],
    kind="stable"), then argwhere(far)[default_rng(seed).integers(0,
    len, restarts)]."""
    far = T.source.base.dist > R
    frob = T.block_frobenius()
    pairs = np.argwhere(far)
    best, starts = 0.0, []
    for y, x in pairs[np.argsort(-frob[far], kind="stable")]:
        if frob[y, x] <= best:
            break
        value = spectral_norm(T.block(y, x))
        if value > best:
            best, starts = value, [(int(y), int(x))]
    if len(pairs) and restarts > 0:
        picks = np.random.default_rng(seed).integers(0, len(pairs), size=restarts)
        starts += [(int(y), int(x)) for y, x in pairs[picks]]
    return starts


def _assert_starts_match_eager_list(T, R, restarts, seed):
    # an open window (upper = inf) grows every start, in order
    grown = []
    real = locality._grow_pair
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(locality, "_grow_pair", lambda s, B, A: grown.append((B[0], A[0])) or real(s, B, A))
        locality._search_violation(T, R, restarts, seed, np.inf)
    assert grown == eager_starts(T, R, restarts, seed)


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["dense", "sparse", "unitary", "scaled", "faint"]))
def test_starts_match_the_eager_start_list(seed, kind):
    T, R = _search_input(seed, kind)
    _assert_starts_match_eager_list(T, R, 8, seed)


def test_starts_match_the_eager_start_list_when_every_block_ties():
    # a point permutation: every nonzero separated block has Frobenius
    # norm 1, so the row-major order of the ties picks the singleton
    rng = np.random.default_rng(30)
    fib = FiberedSpace.uniform(path_space(30), 1)
    T = BlockOperator(fib, fib, np.eye(30)[rng.permutation(30)])
    far, frob = T.source.base.dist > 2.0, T.block_frobenius()
    assert np.count_nonzero(frob[far]) > 1 and set(frob[far]) == {0.0, 1.0}
    first = tuple(int(i) for i in np.argwhere(far & (frob > 0))[0])
    assert locality._best_singleton(locality._SearchState(T, 2.0)) == (1.0, first)
    for seed in range(4):
        _assert_starts_match_eager_list(T, 2.0, locality.SEARCH_RESTARTS, seed)


def test_search_keeps_no_index_of_the_separated_pairs(monkeypatch):
    # 157,212 separated pairs: an argwhere index of them alone is 16 bytes
    # each.  The block Frobenius norms are the operator's, made before the
    # trace (building them squares the 800 x 800 matrix, a 10 MB
    # transient the search does not control).
    U, _, _ = noisy_covering_unitary("reflection", 400, 0, 2.0, 1, fiber_dim=2)
    n_pairs = np.count_nonzero(U.source.base.dist > 3.0)
    frob = U.block_frobenius()
    monkeypatch.setattr(BlockOperator, "block_frobenius", lambda T: frob)
    tracemalloc.start()
    try:
        locality._search_violation(U, 3.0, locality.SEARCH_RESTARTS, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * n_pairs


def _assert_no_point_drops(T, witness, value):
    # the prune's own test: without any one point of a side of two or
    # more, the corner falls below the margin
    floor = value - locality._WITNESS_TOL * max(1.0, value)
    B, A = list(witness.B), list(witness.A)
    for p in B if len(B) > 1 else []:
        assert T.corner_norm([q for q in B if q != p], A) < floor
    for p in A if len(A) > 1 else []:
        assert T.corner_norm(B, [q for q in A if q != p]) < floor


@pytest.mark.parametrize("scale", [1.0, 1e6, 1e10])
def test_witness_margin_scales_with_the_operator(scale):
    # the margin scales with the corner: an absolute 1e-12 would let the
    # rounding noise of a 1e6 corner keep points that add only zero
    # blocks, and the exact witness at 1e6 would read
    # A = (0, 1, 2, 3, 4, 5, 6, 7, 11), B = (9,)
    U = random_band_unitary(FiberedSpace.uniform(path_space(12), 2), 1.0, 3, 0)
    report = quasi_locality_violation(U * scale, 1.0, "exact")
    assert report.witness == locality.Witness(A=(7,), B=(9,))
    _assert_no_point_drops(U * scale, report.witness, report.violation_lower)
    # in bounds mode the search would accept such moves, growing the
    # witness from 5 + 4 points to 11 + 10 and the lower member by 3 ulps
    V = random_band_unitary(FiberedSpace.uniform(path_space(60), 2), 1.0, 3, 2)
    unit = quasi_locality_violation(V, 0.0, "bounds")
    report = quasi_locality_violation(V * scale, 0.0, "bounds")
    assert report.witness == unit.witness
    assert len(report.witness.A) + len(report.witness.B) == 9
    _assert_no_point_drops(V * scale, report.witness, report.violation_lower)


@pytest.mark.parametrize("scale", [1.0, 1e6])
def test_grow_norms_no_candidate_of_zero_mass(monkeypatch, scale):
    # from the best singleton at R = 3 of a propagation-4 band unitary,
    # every candidate adds only zero blocks: the grow takes the start's
    # norm and no other (norming them would take 64 more at scale 1e6)
    U = random_band_unitary(FiberedSpace.uniform(path_space(40), 1), 1.0, 4, 3) * scale
    state = locality._SearchState(U, 3.0)
    y, x = locality._best_singleton(state)[1]
    far = U.source.base.dist > 3.0
    assert not state.frob[far[:, x] & (np.arange(40) != y), x].any()
    assert not state.frob[y, far[y] & (np.arange(40) != x)].any()
    norms = []
    monkeypatch.setattr(locality, "spectral_norm", lambda mat: norms.append(1) or spectral_norm(mat))
    value, B, A = locality._grow_pair(state, [y], [x])
    assert (B, A) == ([y], [x])
    assert value == spectral_norm(U.block(y, x))
    assert len(norms) == 1


def test_bounds_upper_at_most_norm_on_reflection_cover():
    # a reflection lives far from the diagonal: here ||U - U_R|| is about
    # 1.15 while ||U|| is 1, so the upper member must take the norm
    U, _, _ = noisy_covering_unitary("reflection", 120, 0, 2.0, 1)
    report = quasi_locality_violation(U, 3.0, mode="bounds")
    assert report.violation_lower <= report.violation_upper
    assert report.violation_upper <= U.norm() + 1e-12


def test_window_upper_at_most_norm_on_fibered_cover():
    U, _, _ = noisy_covering_unitary("reflection", 13, 0, 2.0, 1, fiber_dim=2)
    for R in (0.0, 1.0, 2.0, 3.0):
        lower, upper = approximability_window(U, R)
        assert lower <= upper <= U.norm() + 1e-12


def test_window_prunes_no_witness(monkeypatch):
    # the window keeps two numbers; only quasi_locality_violation prunes a
    # witness, the one caller of corner_norm in this module
    calls = []
    real = BlockOperator.corner_norm
    monkeypatch.setattr(BlockOperator, "corner_norm", lambda T, B, A: calls.append(1) or real(T, B, A))
    U, _, _ = noisy_covering_unitary("reflection", 13, 0, 2.0, 1, fiber_dim=2)
    rep = outer_roundtrip(U, 0.5, radius_grid=[0.0, 1.0, 2.0, 3.0])
    assert any(lower > locality._WITNESS_TOL for _, lower, _ in rep.windows)
    band = random_band_unitary(FiberedSpace.uniform(path_space(20), 1), 1.0, 3, seed=4)
    window = approximability_window(band, 1.0)  # 20 points: the bounds side
    assert window[0] > locality._WITNESS_TOL
    assert calls == []
    report = quasi_locality_violation(band, 1.0, mode="bounds")
    assert window == (report.violation_lower, report.violation_upper)
    assert report.witness is not None and calls


@pytest.mark.parametrize("kind, norms_taken", [("band", 1), ("reflection", 2)])
def test_truncation_upper_takes_the_norm_only_when_it_can_matter(monkeypatch, kind, norms_taken):
    # a band unitary's tail is far below its unit column norms, so ||T||
    # cannot win the min; a reflection cover's tail is above 1, so it must
    if kind == "band":
        T = random_band_unitary(FiberedSpace.uniform(path_space(40), 1), 1.0, 4, seed=3)
    else:
        T, _, _ = noisy_covering_unitary("reflection", 40, 0, 2.0, 1)
    tail = spectral_norm((T - T.band_truncate(3.0)).matrix)
    expected = min(tail, spectral_norm(T.matrix))
    taken = []
    # the tail is normed through locality's name, ||T|| through operators'
    for module in (operators, locality):
        monkeypatch.setattr(module, "spectral_norm", lambda mat: taken.append(mat) or spectral_norm(mat))
    assert locality._truncation_upper(T, 3.0) == expected
    assert len(taken) == norms_taken
    assert (tail < 1.0) == (kind == "band")


@pytest.mark.parametrize("n", [40, 120])
def test_tail_norms_build_no_operator(monkeypatch, n):
    # the tail is T's matrix with the band zeroed; its entries need no second check
    T, h, _ = noisy_covering_unitary("reflection", n, 0, 2.0, 1)
    built = []
    init = BlockOperator.__init__
    monkeypatch.setattr(BlockOperator, "__init__", lambda self, *args: built.append(args) or init(self, *args))
    for R in (0.0, 3.0):
        locality._truncation_upper(T, R)
        supported_distance_upper(T, h, R)
    assert built == []


def _assert_stop_rule_sound(T, R, restarts, seed):
    """The search stopped at the window's upper member returns what the
    full search does, or a value that reaches the upper member up to the
    rounding margin and is at most the full search's; either way its pair
    attains its value."""
    upper = locality._truncation_upper(T, R)
    early = locality._search_violation(T, R, restarts, seed, upper)
    full = locality._search_violation(T, R, restarts, seed, np.inf)
    margin = locality._ROUNDING_MARGIN
    assert early == full or (1 - margin) * upper <= early[0] <= full[0]
    if early[1] is not None:
        assert T.corner_norm(*early[1]) == early[0]


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["dense", "sparse", "unitary", "faint"]))
def test_stop_rule_matches_full_search(seed, kind):
    T, R = _search_input(seed, kind)
    _assert_stop_rule_sound(T, R, 8, seed)


@pytest.mark.parametrize("kind", ["band", "reflection"])
def test_stop_rule_matches_full_search_on_a_60_point_path(kind):
    rng = np.random.default_rng(60)
    fib = FiberedSpace(path_space(60), rng.integers(1, 3, size=60))
    if kind == "band":
        T = random_band_unitary(fib, 1.0, 4, seed=11)
    else:
        W, _ = covering_unitary(fixtures.standard_pair("reflection", 60)[0], fib)
        T = W @ random_band_unitary(fib, 2.0, 1, seed=12)
    for R in (1.0, 3.0):
        _assert_stop_rule_sound(T, R, locality.SEARCH_RESTARTS, 0)


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from(["cycle", "grid", "tree", "graph"]),
    kind=st.sampled_from(["dense", "band", "permuted band"]),
)
def test_stop_rule_matches_full_search_on_graph_spaces(seed, shape, kind):
    rng = np.random.default_rng(seed)
    X = {
        "cycle": lambda: cycle_space(rng, int(rng.integers(3, 30))),
        "grid": lambda: grid_space(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6))),
        "tree": lambda: tree_space(rng, int(rng.integers(2, 30))),
        "graph": lambda: random_graph_space(rng, int(rng.integers(2, 30)), int(rng.integers(0, 4))),
    }[shape]()
    fib = random_fibered(rng, X, max_dim=2)
    if kind == "dense":
        T = random_operator(rng, fib, fib)
    else:
        T = random_band_unitary(fib, 1.0, int(rng.integers(1, 4)), seed)
        if kind == "permuted band":  # far from banded: corners saturate at 1
            T = BlockOperator(fib, fib, np.eye(fib.total_dim)[rng.permutation(fib.total_dim)]) @ T
    R = float(rng.integers(0, max(1, int(X.diameter))))
    _assert_stop_rule_sound(T, R, 8, seed)


def _count_grows(monkeypatch):
    grows = []
    real = locality._grow_pair
    monkeypatch.setattr(locality, "_grow_pair", lambda s, B, A: grows.append(1) or real(s, B, A))
    return grows


def test_closed_window_skips_the_remaining_restarts(monkeypatch):
    U, _, _ = noisy_covering_unitary("reflection", 120, 0, 2.0, 1)
    grows = _count_grows(monkeypatch)
    report = quasi_locality_violation(U, 3.0, mode="bounds")
    assert report.violation_lower >= (1 - locality._ROUNDING_MARGIN) * report.violation_upper
    assert len(grows) == 1


def _count_draws(monkeypatch):
    draws = []
    real = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda *args: draws.append(args) or real(*args))
    return draws


def test_closed_window_draws_no_restarts(monkeypatch):
    # the best singleton's grow closes the window, so no generator is made
    U, _, _ = noisy_covering_unitary("reflection", 120, 0, 2.0, 1)
    grows = _count_grows(monkeypatch)
    draws = _count_draws(monkeypatch)
    quasi_locality_violation(U, 3.0, mode="bounds")
    assert len(grows) == 1
    assert draws == []


def test_window_closed_up_to_rounding_stops_after_the_first_start(monkeypatch):
    # every start's best corner stays an ulp or two below the upper member
    # (||U|| = 1.0000000000000007 with one BLAS thread), which a plain >=
    # never reaches; the upper member itself is unchanged
    U, _, _ = noisy_covering_unitary("reflection", 120, 1, 2.0, 1)
    tail = spectral_norm((U - U.band_truncate(3.0)).matrix)
    grows = _count_grows(monkeypatch)
    report = quasi_locality_violation(U, 3.0, mode="bounds")
    assert len(grows) == 1
    assert report.violation_upper == min(tail, spectral_norm(U.matrix))
    assert (1 - locality._ROUNDING_MARGIN) * report.violation_upper <= report.violation_lower
    assert report.violation_lower < report.violation_upper


@pytest.mark.parametrize("R", [4.0, 6.0])
def test_banded_operator_skips_the_search(monkeypatch, R):
    # propagation 4: the upper member ||T - T_R|| is exactly 0
    T = random_band_unitary(FiberedSpace.uniform(path_space(150), 1), 1.0, 4, seed=3)
    grows = _count_grows(monkeypatch)
    report = quasi_locality_violation(T, R, mode="bounds")
    assert (report.violation_lower, report.violation_upper, report.witness) == (0.0, 0.0, None)
    assert grows == []


def test_tiniest_tail_still_runs_the_search(monkeypatch):
    # one separated entry of 5e-324: the upper member reads it, so it is not 0
    fib = FiberedSpace.uniform(path_space(20), 1)
    matrix = np.eye(20, dtype=complex)
    matrix[0, 19] = 5e-324
    T = BlockOperator(fib, fib, matrix)
    grows = _count_grows(monkeypatch)
    report = quasi_locality_violation(T, 3.0, mode="bounds")
    assert report.violation_upper == 5e-324
    assert grows


def test_open_window_runs_every_restart(monkeypatch):
    rng = np.random.default_rng(0)
    fib = FiberedSpace.uniform(path_space(30), 1)
    T = random_operator(rng, fib, fib)
    grows = _count_grows(monkeypatch)
    draws = _count_draws(monkeypatch)
    report = quasi_locality_violation(T, 2.0, mode="bounds")
    assert report.violation_lower < 0.9 * report.violation_upper
    assert len(grows) == locality.SEARCH_RESTARTS + 1
    assert draws == [(0,)]


def _two_base_operator():
    source, target = FiberedSpace.uniform(path_space(20), 1), FiberedSpace.uniform(path_space(10), 1)
    return BlockOperator(source, target, np.ones((10, 20), dtype=complex))


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda T: quasi_locality_violation(T, -1.0, mode="bounds"),
                 "separation radius must be a real number >= 0, got -1.0", id="bounds-negative-R"),
    pytest.param(lambda T: quasi_locality_violation(T, 1.0, mode="sideways"),
                 "unknown mode 'sideways'; expected 'exact' or 'bounds'", id="unknown-mode"),
    pytest.param(lambda T: quasi_locality_violation(_two_base_operator(), 1.0, mode="bounds"),
                 "quasi-locality needs an operator over a single base space", id="bounds-two-bases"),
    pytest.param(lambda T: approximability_window(T, -1.0),
                 "separation radius must be a real number >= 0, got -1.0", id="window-negative-R"),
    pytest.param(lambda T: approximability_window(_two_base_operator(), 1.0),
                 "quasi-locality needs an operator over a single base space", id="window-two-bases"),
])
def test_refused_call_takes_no_norm(monkeypatch, call, message):
    # the checks come before the window's upper member, whose band
    # truncation would otherwise refuse a negative R under another name
    T = random_band_unitary(FiberedSpace.uniform(path_space(20), 1), 1.0, 2, seed=0)
    norms = []
    monkeypatch.setattr(operators, "spectral_norm", lambda mat: norms.append(1) or spectral_norm(mat))
    monkeypatch.setattr(locality, "spectral_norm", lambda mat: norms.append(1) or spectral_norm(mat))
    with pytest.raises(ValueError) as err:
        call(T)
    assert str(err.value) == message
    assert norms == []


def _signed_zero_operator(rng, X, square):
    """A random operator on a mixed fibration of X (into another one unless
    square) with entries of -0.0 (in either part and in both) and 5e-324
    sprinkled in.  A -0.0 real part beside a negative imaginary one is
    where a masked copy `np.where(~mask, M, 0)` would differ from M - M *
    mask: there the difference keeps -0.0, and a square tail's SVD then
    reflects the other way."""
    source = random_fibered(rng, X, max_dim=3)
    T = random_operator(rng, source, source if square else random_fibered(rng, X, max_dim=3))
    mat = np.array(T.matrix)
    pick = rng.random(mat.shape)
    mat.real[pick < 0.5] = -0.0
    mat.imag[(pick > 0.4) & (pick < 0.6)] = -0.0
    mat[(pick > 0.6) & (pick < 0.7)] = complex(5e-324, -5e-324)
    mat[(pick > 0.7) & (pick < 0.75)] = complex(-0.0, -0.0)
    return BlockOperator(T.source, T.target, mat)


@pytest.mark.parametrize("shape", ["cycle", "grid", "tree", "graph"])
def test_tails_equal_the_operator_differences_bit_for_bit(shape):
    # the tail is built as one operator, M - M * mask; the difference of
    # two operators, T - T_R or T - M_R(T), is what it replaces
    rng = np.random.default_rng(len(shape))
    X = {
        "cycle": lambda: cycle_space(rng, 9),
        "grid": lambda: grid_space(rng, 3, 4),
        "tree": lambda: tree_space(rng, 10),
        "graph": lambda: random_graph_space(rng, 9, extra_edges=2),
    }[shape]()
    for square in (True, True, True, True, False):
        T = _signed_zero_operator(rng, X, square)
        f = PointMap(X, X, rng.integers(0, X.n, size=X.n))
        for R in (0.0, 1.0, 2.0, 5.0, X.diameter):
            tail = (T - T.band_truncate(R)).norm()
            expected = tail if tail < (1 - locality._ROUNDING_MARGIN) * T.norm_lower_bound() else min(tail, T.norm())
            assert locality._truncation_upper(T, R) == expected
            assert supported_distance_upper(T, f, R) == (T - T.supported_mask(f.values, R)).norm()


def reference_owner_rule(T, R):
    """The exact violation with the owner rule of an inverse map: every
    component label is mapped back to its distinct component through
    `np.unique(..., return_inverse=True)`, and the pair is that of the
    smallest owner of a label whose component attains the maximum.  The
    blocks are tested entry by entry and each distinct component is normed
    alone.  Returns (value, (B, A) or None, number of attaining candidates)."""
    base = T.source.base
    n = base.n
    full = np.uint32((1 << n) - 1)
    weights = np.uint32(1) << np.arange(n, dtype=np.uint32)
    nbhd = locality._mask_table(base.dist <= R)
    allowed = full & ~nbhd[1:]
    closed = np.zeros(1 << n, dtype=bool)
    closed[full & ~nbhd[allowed[allowed != 0]]] = True
    b_masks = np.flatnonzero(closed).astype(np.uint32)
    a_masks = full & ~nbhd[b_masks]
    live = (b_masks != 0) & (a_masks != 0)
    b_masks, a_masks = b_masks[live], a_masks[live]
    nonzero = np.array([[(T.block(y, x) != 0).any() for x in range(n)] for y in range(n)])
    owner, rows, cols = locality._components(
        b_masks, a_masks, locality._mask_table(nonzero), locality._mask_table(nonzero.T)
    )
    comps, inverse = np.unique(rows << np.uint32(n) | cols, return_inverse=True)

    def points(mask):
        return [int(p) for p in np.flatnonzero(mask & weights)]

    norms = np.array([
        spectral_norm(T.matrix[np.ix_(T.target.coords_of(points(c >> np.uint32(n))), T.source.coords_of(points(c)))])
        for c in comps
    ])
    top = norms.max(initial=0.0)
    if top == 0.0:
        return 0.0, None, 0
    attaining = owner[norms[inverse] == top]
    k = int(attaining.min())
    return float(top), (points(b_masks[k]), points(a_masks[k])), np.unique(attaining).size


def _tie_heavy_operators():
    for kind in ("identity", "reflection"):
        for n in (8, 12, 16):
            for layers in (0, 1):
                yield noisy_covering_unitary(kind, n, n, 2.0, layers, fiber_dim=2)[0]
    yield random_band_unitary(FiberedSpace.uniform(path_space(16), 2), 2.0, 1, seed=3)
    rng = np.random.default_rng(16)
    fib = random_fibered(rng, random_graph_space(rng, 10, extra_edges=2), max_dim=2)
    yield BlockOperator(fib, fib, np.eye(fib.total_dim)[rng.permutation(fib.total_dim)])


def test_witness_is_the_lowest_owner_of_a_top_component():
    tied = cases = 0
    for T in _tie_heavy_operators():
        for R in (0.0, 1.0, 2.0, 3.0):
            value, sets = locality._exact_violation(T, R)
            ref_value, ref_sets, attaining = reference_owner_rule(T, R)
            assert value == ref_value
            assert (None if sets is None else tuple(list(map(int, s)) for s in sets)) == ref_sets
            cases += 1
            tied += attaining > 1
    assert cases == 4 * 14 and tied >= cases // 2  # most inputs tie


def test_adjoint_inherits_no_table():
    # T's reach tables and corner parts describe T, not T*: the
    # adjoint of a used operator reads like a fresh T*
    rng = np.random.default_rng(31)
    X = random_graph_space(rng, 9, extra_edges=2)
    T = random_operator(rng, random_fibered(rng, X, max_dim=3), random_fibered(rng, X, max_dim=3))
    blocks = rng.random((X.n, X.n)) < 0.4  # a block pattern unlike its transpose
    assert not np.array_equal(blocks, blocks.T)
    T = BlockOperator(T.source, T.target, T.matrix * blocks[np.ix_(T.target.coord_point, T.source.coord_point)])
    radii = [0.0, 1.0, 2.0, 3.0]
    for R in radii:
        locality._exact_violation(T, R)
        corner_norm_table(T, R)
    adj = T.adjoint()
    fresh = BlockOperator(T.target, T.source, T.matrix.conj().T)
    for R in radii:
        assert locality._exact_violation(adj, R) == locality._exact_violation(fresh, R)
        assert corner_norm_table(adj, R).tobytes() == corner_norm_table(fresh, R).tobytes()
    for tables in (adj.derived(locality._reach_tables), locality._reach_tables(adj)):
        for table, expected in zip(tables, locality._reach_tables(fresh)):
            assert np.array_equal(table, expected)


def test_outer_grid_builds_the_nonzero_block_table_once(monkeypatch):
    calls = []

    class Counting:
        def __init__(self, ufunc):
            self.ufunc = ufunc

        def reduceat(self, *args, **kwargs):
            calls.append(1)
            return self.ufunc.reduceat(*args, **kwargs)

        def __getattr__(self, name):
            return getattr(self.ufunc, name)

        def __call__(self, *args, **kwargs):
            return self.ufunc(*args, **kwargs)

    monkeypatch.setattr(np, "logical_or", Counting(np.logical_or))
    U, _, _ = noisy_covering_unitary("reflection", 13, 0, 2.0, 1, fiber_dim=2)
    report = outer_roundtrip(U, 0.5, radius_grid=[0.0, 1.0, 2.0, 3.0])
    assert len(report.windows) == 4
    assert len(calls) == 2  # one table of UW*: a reduction over rows, then over columns


def test_outer_grid_builds_the_reach_tables_once(monkeypatch):
    # the two reach tables depend on the operator only; the neighborhood
    # table depends on R and is built at every radius; the reach builder's
    # own two `_mask_table` calls are not neighborhood tables
    reach, nbhd, inside = [], [], []
    build_reach, build_table = locality._reach_tables, locality._mask_table

    def counting_reach(T):
        reach.append(1)
        inside.append(1)
        tables = build_reach(T)
        inside.pop()
        return tables

    def counting_table(rel):
        if not inside:
            nbhd.append(1)
        return build_table(rel)

    monkeypatch.setattr(locality, "_reach_tables", counting_reach)
    monkeypatch.setattr(locality, "_mask_table", counting_table)
    U, _, _ = noisy_covering_unitary("reflection", 13, 0, 2.0, 1, fiber_dim=2)
    report = outer_roundtrip(U, 0.5, radius_grid=[0.0, 1.0, 2.0, 3.0])
    assert len(report.windows) == 4
    assert len(reach) == 1  # the reach tables of UW*
    assert len(nbhd) == 4
