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
from roelab.locality import approximability_window, quasi_locality_violation
from roelab.maps import PointMap, identity_map
from roelab.operators import (
    BlockOperator, FiberedSpace, random_band_unitary, spectral_norm, supported_distance_upper
)
from roelab.serialize import report_bytes
from roelab.spaces import path_space

from conftest import (
    cycle_space,
    grid_space,
    random_fibered,
    random_graph_space,
    random_operator,
    scaled,
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
    if best_pair is not None and best_value > operators.ROUNDING_MARGIN:
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
            T = T.supported_mask(np.arange(X.n), 1.0)
        cases.append((T, float(rng.integers(0, min(3, int(X.diameter))))))
        if k < 2:
            cases.append((T, X.diameter + 1.0))  # no separated pair
    X = random_graph_space(rng, 10, extra_edges=2)
    fib = random_fibered(rng, X, max_dim=3)
    zero = scaled(random_operator(rng, fib, fib), 0)
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
    return random_operator(rng, source, target).supported_mask(np.arange(X.n), float(R + width)), float(R)


def test_component_split_matches_reference_on_block_sparse_operators():
    for seed in range(40):
        T, R = _block_sparse_input(seed)
        report, ref = quasi_locality_violation(T, R), reference_exact(T, R)
        value = report.violation_lower
        assert abs(value - ref.violation_lower) <= 4 * np.spacing(ref.violation_lower), seed
        assert report.violation_upper == value
        if report.witness is None:
            assert value <= operators.ROUNDING_MARGIN
            continue
        A, B = report.witness.A, report.witness.B
        X = T.source.base
        assert X.dist[np.ix_(A, B)].min() > R
        assert abs(T.corner_norm(B, A) - value) <= 1e-12
        for drop in range(len(B) if len(B) > 1 else 0):
            assert T.corner_norm(B[:drop] + B[drop + 1 :], A) < value - 1e-12
        for drop in range(len(A) if len(A) > 1 else 0):
            assert T.corner_norm(B, A[:drop] + A[drop + 1 :]) < value - 1e-12


def reference_components(b_masks, a_masks, cols_of, rows_of):
    """The labeller growing a whole round until its last component stops:
    every candidate of the round takes every step."""
    empty = np.zeros(0, dtype=np.uint32)
    pieces = [(empty.astype(np.int32), empty, empty)]
    left = b_masks & rows_of[a_masks]
    idx = np.flatnonzero(left)
    while idx.size:
        rb, ca, seed = b_masks[idx], a_masks[idx], left[idx]
        rows = seed & (~seed + np.uint32(1))
        while True:
            cols = ca & cols_of[rows]
            grown = rb & rows_of[cols]
            if np.array_equal(grown, rows):
                break
            rows = grown
        pieces.append((idx.astype(np.int32), rows, cols))
        left[idx] = seed & ~rows
        idx = idx[left[idx] != 0]
    return tuple(np.concatenate(part) for part in zip(*pieces))


def test_components_equal_the_whole_round_labeller_byte_for_byte(monkeypatch):
    # growing only the components still growing, and carrying only the
    # candidates with rows left, keeps every output array and its order
    labelled = []
    label = locality._components

    def spy(*args):
        labelled.append((args, label(*args)))
        return labelled[-1][1]

    monkeypatch.setattr(locality, "_components", spy)
    for seed in range(40):
        T, R = _block_sparse_input(seed)
        for radius in (0.0, R):
            locality._exact_violation(T, radius, locate=True)
    for T in _noisy_cover_inputs()[:2]:
        approximability_window(T, 0.0)
    assert len(labelled) == 82
    for args, out in labelled:
        ref = reference_components(*args)
        assert [(a.dtype, a.tobytes()) for a in out] == [(a.dtype, a.tobytes()) for a in ref]
    assert max(out[0].size for _, out in labelled) > 20000


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
    T = random_operator(rng, fib, fib).supported_mask(np.arange(X.n), 2.0)
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
        assert X.dist[np.ix_(A, B)].min() > 1.0
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
    T = random_operator(rng, fib, fib).supported_mask(np.arange(X.n), 2.0)
    lower, upper = approximability_window(T, 2.0)
    assert lower == 0.0
    assert upper == 0.0


def _noisy_cover_inputs():
    """Seeded noisy covers on at most 16 points with 1- and 2-dim fibers,
    one of them spilled (mixed fibers swapped by a reflection)."""
    covers = [
        noisy_covering_unitary("identity", 9, 0, 2.0, 1, fiber_dim=1)[0],
        noisy_covering_unitary("reflection", 13, 1, 2.0, 1, fiber_dim=2)[0],
        noisy_covering_unitary("reflection", 16, 2, 2.0, 2, fiber_dim=1)[0],
        noisy_covering_unitary("identity", 12, 3, 1.0, 2, fiber_dim=2)[0],
    ]
    fib = FiberedSpace(path_space(12), [1 + (i % 2) for i in range(12)])
    W, _ = covering_unitary(fixtures.standard_pair("reflection", 12)[0], fib, target=fib)
    return covers + [W @ random_band_unitary(fib, 2.0, 1, seed=4)]


def test_exact_window_is_the_enumerated_value_and_the_upper_member_bit_for_bit():
    # at every realized radius and at T's propagation, where T is banded:
    # the window's lower member is the exact violation, enumerated with no
    # candidate located, and its upper member the truncation bound; an
    # exact `ql` report carries the enumerated value as both members
    banded = opened = 0
    for T in _noisy_cover_inputs():
        for R in [*T.source.base.realized_distances(), T.propagation()]:
            value, _ = locality._exact_violation(T, R, locate=False)
            expected = (value, max(locality._truncation_upper(T, R), value))
            window = approximability_window(T, R)
            assert np.array(window).tobytes() == np.array(expected).tobytes()
            report = quasi_locality_violation(T, R, "exact")
            members = (report.violation_lower, report.violation_upper)
            assert np.array(members).tobytes() == np.array((value, value)).tobytes()
            banded += window == (0.0, 0.0)
            opened += window[0] > 0.5
    assert banded >= 10 and opened >= 10


def test_exact_window_enumerates_nothing_where_the_operator_is_banded(monkeypatch):
    # an upper member of exactly 0 means no separated corner has a
    # component: no neighborhood table is built and no candidate labelled,
    # by the window or by an exact `ql` report, which takes the same order
    labelled, tables = [], []
    label, table = locality._components, locality._mask_table
    monkeypatch.setattr(locality, "_components", lambda *args: labelled.append(1) or label(*args))
    monkeypatch.setattr(locality, "_mask_table", lambda rel: tables.append(1) or table(rel))
    T = noisy_covering_unitary("identity", 12, 3, 1.0, 2, fiber_dim=2)[0]  # propagation 2
    for R in (2.0, 3.0, 11.0):
        assert approximability_window(T, R) == (0.0, 0.0)
        report = quasi_locality_violation(T, R, "exact")
        assert (report.violation_lower, report.violation_upper, report.witness) == (0.0, 0.0, None)
    assert labelled == [] and tables == []
    assert approximability_window(T, 1.0)[0] > 0.5
    assert labelled and tables


def test_exact_violation_of_the_adjoint_is_the_violation():
    # d is symmetric, so the closed pairs (B, A) of T* are those of T
    # swapped and their corners the adjoints of T's: the same norms, up
    # to the rounding of another SVD (85 cases, most of them bit-equal)
    cases = nonzero = 0
    for T in _noisy_cover_inputs() + _criterion_11_ghosts():
        adjoint = T.adjoint()
        for R in T.source.base.realized_distances():
            value = quasi_locality_violation(T, R, "exact").violation_lower
            mirrored = quasi_locality_violation(adjoint, R, "exact").violation_lower
            assert abs(mirrored - value) <= 2e-15 * value
            cases += 1
            nonzero += value > 0.0
    assert cases == 85 and nonzero >= 60


def _criterion_11_ghosts():
    """Acceptance criterion 11's ghosts: on path(16) and on its seeded
    16-point graph."""
    return [ghost(path_space(16)), ghost(random_graph_space(np.random.default_rng(2611), 16, extra_edges=2))]


def _haar_gauge(space: FiberedSpace, rng) -> BlockOperator:
    """A fiber gauge: on each fiber a Haar unitary (QR of a complex
    Gaussian, the phases of R's diagonal moved into Q), zero blocks
    elsewhere, so its propagation is 0."""
    mat = np.zeros((space.total_dim, space.total_dim), dtype=complex)
    for x, d in enumerate(space.fiber_dims):
        q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        mat[space.slice_of(x), space.slice_of(x)] = q * (np.diag(r) / np.abs(np.diag(r)))
    return BlockOperator(space, space, mat)


def _path_150_bands():
    """Band unitaries of path(150) over 1- and 2-dim fibers."""
    return [random_band_unitary(FiberedSpace.uniform(path_space(150), d), 1.0, 2, seed=d) for d in (1, 2)]


def test_propagation_decides_where_the_upper_member_is_zero():
    # R >= prop(T) exactly when ||T - T_R|| (and so the upper member) is
    # 0: a nonzero entry farther than R makes the tail nonzero, which
    # `spectral_norm` resolves, and without one the tail is all zeros.
    # `_violation` decides its banded radii by the propagation alone
    banded = opened = 0
    for T in _noisy_cover_inputs() + _criterion_11_ghosts() + _path_150_bands():
        prop = T.propagation()
        for R in T.source.base.realized_distances():
            upper = locality._truncation_upper(T, R)
            assert (R >= prop) == (upper == 0.0), (T, R, prop, upper)
            banded += R >= prop
            opened += R < prop
    assert (banded, opened) == (318, 67)


def test_propagation_of_the_adjoint_and_of_a_fiber_gauge_is_the_propagation():
    # d is symmetric, so T* has T's propagation; a fiber gauge D_Y T D_X
    # (D_X, D_Y block-diagonal Haar unitaries) keeps every zero block
    # zero and every nonzero one nonzero, so it keeps it too, exactly
    rng = np.random.default_rng(3101)
    cases = _noisy_cover_inputs() + _criterion_11_ghosts() + _path_150_bands()
    for _ in range(6):
        X = random_graph_space(rng, 12, extra_edges=3)
        T = random_operator(rng, random_fibered(rng, X), random_fibered(rng, X))
        cases.append(T.supported_mask(np.arange(X.n), float(rng.integers(0, int(X.diameter) + 1))))
    props = set()
    for T in cases:
        prop = T.propagation()
        gauged = _haar_gauge(T.target, rng) @ T @ _haar_gauge(T.source, rng)
        assert T.adjoint().propagation() == prop
        assert gauged.propagation() == prop
        props.add(prop)
    assert len(props) >= 5


def test_bounds_window_encloses_the_ghost_closed_form():
    # on path(n) the ghost 1 - 2P has the violation 2 sqrt(floor(m/2)
    # ceil(m/2)) / n at R, m = n - R (ROADMAP item 33): the bounds window
    # must enclose it, so neither an upper member that understates nor a
    # search that reports more than the violation passes.  Its one
    # nonzero block per pair makes the propagation the diameter
    n = 64
    T = ghost(path_space(n))
    assert T.propagation() == n - 1
    for R in range(1, 7):
        m = n - R
        closed = 2 * np.sqrt((m // 2) * (m - m // 2)) / n
        lower, upper = approximability_window(T, float(R))
        assert lower <= closed <= upper, (R, lower, closed, upper)


def test_window_upper_is_truncation_error(rng):
    X = path_space(9)
    fib = FiberedSpace.uniform(X, 1)
    T = random_operator(rng, fib, fib)
    for R in (0.0, 2.0, 5.0):
        _, upper = approximability_window(T, R)
        assert upper <= (T - T.supported_mask(np.arange(X.n), R)).norm() + 1e-12


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
    ROUNDING_MARGIN * max(1, value) wins."""
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
            if cand > value + operators.ROUNDING_MARGIN * max(1.0, value):
                (B if side == "B" else A).append(p)
                value = cand
                break
        else:
            return value, B, A


def ghost(space, dim: int = 1) -> BlockOperator:
    """1 - 2P over `dim`-dim fibers, P the averaging projection onto the
    vectors constant across points: every off-diagonal block has the same
    Frobenius mass, so the window stays open and the search's ranks tie."""
    fib = FiberedSpace.uniform(space, dim)
    P = np.kron(np.full((space.n, space.n), 1 / space.n), np.eye(dim))
    return BlockOperator(fib, fib, np.eye(fib.total_dim) - 2 * P)


def _search_input(seed: int, kind: str):
    """A random graph space with 1-3 dimensional fibers, a radius, and an
    operator of the given kind: "dense" random; "sparse", banded to R + 1
    so that most separated blocks, and so most restarts, are zero;
    "unitary", a coordinate permutation times band noise, whose corners
    saturate at 1; "scaled", 1e6 times the "unitary" operator, whose
    rounding noise exceeds an absolute 1e-12; "faint", a coordinate
    permutation plus entries of size 3e-6, whose moves improve saturated
    corners by about 1e-11, near the acceptance tolerance; "ghost", the
    `ghost` of the space over 1- or 2-dim fibers, whose grows accept
    moves on both sides and break ties of equal mass by side."""
    rng = np.random.default_rng(seed)
    X = random_graph_space(rng, int(rng.integers(10, 25)), extra_edges=int(rng.integers(0, 4)))
    fib = random_fibered(rng, X, max_dim=3)
    R = float(rng.integers(0, max(1, int(X.diameter) - 1)))
    if kind == "dense":
        T = random_operator(rng, fib, fib)
    elif kind == "sparse":
        T = random_operator(rng, fib, fib).supported_mask(np.arange(X.n), R + 1)
    elif kind == "ghost":
        T = ghost(X, int(rng.integers(1, 3)))
    else:
        perm = BlockOperator(fib, fib, np.eye(fib.total_dim)[rng.permutation(fib.total_dim)])
        if kind in ("unitary", "scaled"):
            T = perm @ random_band_unitary(fib, 1.0, int(rng.integers(0, 3)), seed)
            T = scaled(T, 1e6) if kind == "scaled" else T
        else:
            T = BlockOperator(fib, fib, perm.matrix + 3e-6 * random_operator(rng, fib, fib).matrix)
    return T, R


@pytest.mark.parametrize("kind", ["dense", "sparse", "unitary", "scaled", "faint"])
def test_block_frobenius_equals_squaring_the_moduli_whole(kind):
    # squaring the moduli in place gives `np.abs(M) ** 2`, bit for bit
    for seed in range(3):
        T, _ = _search_input(seed, kind)
        by_rows = np.add.reduceat(np.abs(T.matrix) ** 2, T.target.offsets[:-1], axis=0)
        whole = np.sqrt(np.add.reduceat(by_rows, T.source.offsets[:-1], axis=1))
        assert np.array_equal(T.block_frobenius(), whole)


def test_block_frobenius_holds_one_full_size_copy():
    # the squared moduli, plus half a copy of row sums over 2-dim fibers
    U = noisy_covering_unitary("reflection", 400, 0, 2.0, 2, fiber_dim=2)[0]
    size = U.matrix.shape[0]
    tracemalloc.start()
    try:
        U.block_frobenius()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * size * size * 8


def test_block_frobenius_is_built_once_per_operator(monkeypatch):
    # the bounds search at every radius of the grid and `propagation` read
    # the norms that UW* keeps
    built = []
    build = operators._block_frobenius
    monkeypatch.setattr(operators, "_block_frobenius", lambda T: built.append(T) or build(T))
    U = noisy_covering_unitary("reflection", 24, 0, 2.0, 2, 2)[0]
    outer_roundtrip(U, radius_grid=[0, 1, 2, 3])
    assert len(built) == 1
    built[0].propagation()
    assert len(built) == 1


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


@pytest.mark.parametrize("seed", range(28))
def test_screened_search_matches_plain_greedy_on_ghosts(seed):
    # every off-diagonal block has the same mass: the grows accept moves
    # on both sides, and a move to A and one to B of equal mass are
    # ranked by side
    T, R = _search_input(seed, "ghost")
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
    floor = value - operators.ROUNDING_MARGIN * max(1.0, value)
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
    U = scaled(U, scale)
    report = quasi_locality_violation(U, 1.0, "exact")
    assert report.witness == locality.Witness(A=(7,), B=(9,))
    _assert_no_point_drops(U, report.witness, report.violation_lower)
    # in bounds mode the search would accept such moves, growing the
    # witness from 5 + 4 points to 11 + 10 and the lower member by 3 ulps
    V = random_band_unitary(FiberedSpace.uniform(path_space(60), 2), 1.0, 3, 2)
    unit = quasi_locality_violation(V, 0.0, "bounds")
    V = scaled(V, scale)
    report = quasi_locality_violation(V, 0.0, "bounds")
    assert report.witness == unit.witness
    assert len(report.witness.A) + len(report.witness.B) == 9
    _assert_no_point_drops(V, report.witness, report.violation_lower)


@pytest.mark.parametrize("scale", [1.0, 1e6])
def test_grow_norms_no_candidate_of_zero_mass(monkeypatch, scale):
    # from the best singleton at R = 3 of a propagation-4 band unitary,
    # every candidate adds only zero blocks: the grow takes the start's
    # norm and no other (norming them would take 64 more at scale 1e6)
    U = scaled(random_band_unitary(FiberedSpace.uniform(path_space(40), 1), 1.0, 4, 3), scale)
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
    # the window keeps two numbers; only quasi_locality_violation locates
    # an attaining candidate (`_exact_violation` with `locate` set, by
    # `np.isin` over the component instances) and prunes a witness, the
    # one caller of corner_norm in this module
    calls, located = [], []
    real = BlockOperator.corner_norm
    monkeypatch.setattr(BlockOperator, "corner_norm", lambda T, B, A: calls.append(1) or real(T, B, A))
    exact, isin = locality._exact_violation, np.isin

    def spy(T, R, locate):
        if locate:
            located.append(1)
        return exact(T, R, locate)

    monkeypatch.setattr(locality, "_exact_violation", spy)
    monkeypatch.setattr(np, "isin", lambda *args, **kwargs: located.append(1) or isin(*args, **kwargs))
    U, _, _ = noisy_covering_unitary("reflection", 13, 0, 2.0, 1, fiber_dim=2)
    rep = outer_roundtrip(U, 0.5, radius_grid=[0.0, 1.0, 2.0, 3.0])
    assert any(lower > operators.ROUNDING_MARGIN for _, lower, _ in rep.windows)
    assert located == []
    band = random_band_unitary(FiberedSpace.uniform(path_space(20), 1), 1.0, 3, seed=4)
    window = approximability_window(band, 1.0)  # 20 points: the bounds side
    assert window[0] > operators.ROUNDING_MARGIN
    assert calls == []
    report = quasi_locality_violation(band, 1.0, mode="bounds")
    assert window == (report.violation_lower, report.violation_upper)
    assert report.witness is not None and calls
    assert located == []
    assert quasi_locality_violation(U, 1.0).witness is not None and len(located) == 2


@pytest.mark.parametrize("kind, norms_taken", [("band", 1), ("reflection", 2)])
def test_truncation_upper_takes_the_norm_only_when_it_can_matter(monkeypatch, kind, norms_taken):
    # a band unitary's tail is far below its unit column norms, so ||T||
    # cannot win the min; a reflection cover's tail is above 1, so it must
    if kind == "band":
        T = random_band_unitary(FiberedSpace.uniform(path_space(40), 1), 1.0, 4, seed=3)
    else:
        T, _, _ = noisy_covering_unitary("reflection", 40, 0, 2.0, 1)
    tail = spectral_norm((T - T.supported_mask(np.arange(T.source.base.n), 3.0)).matrix)
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
    margin = operators.ROUNDING_MARGIN
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
    assert report.violation_lower >= (1 - operators.ROUNDING_MARGIN) * report.violation_upper
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
    # (||U|| = 1.0000000000000004 with one BLAS thread, split on U's sparse
    # form; the whole SVD reads ...07), which a plain >= never reaches; the
    # upper member itself is unchanged
    U, _, _ = noisy_covering_unitary("reflection", 120, 1, 2.0, 1)
    tail = supported_distance_upper(U, identity_map(U.source.base), 3.0)
    grows = _count_grows(monkeypatch)
    report = quasi_locality_violation(U, 3.0, mode="bounds")
    assert len(grows) == 1
    assert report.violation_upper == min(tail, U.norm())
    assert (1 - operators.ROUNDING_MARGIN) * report.violation_upper <= report.violation_lower
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
            tail = (T - T.supported_mask(np.arange(X.n), R)).norm()
            expected = tail if tail < (1 - operators.ROUNDING_MARGIN) * T.norm_lower_bound() else min(tail, T.norm())
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
            value, sets = locality._exact_violation(T, R, locate=True)
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
        locality._exact_violation(T, R, locate=True)
        corner_norm_table(T, R)
    adj = T.adjoint()
    fresh = BlockOperator(T.target, T.source, T.matrix.conj().T)
    for R in radii:
        assert locality._exact_violation(adj, R, locate=True) == locality._exact_violation(fresh, R, locate=True)
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
    # table depends on R and is built at every radius where the window's
    # upper member is not 0 (UW* is banded at R = 2 and 3 here, and there
    # nothing is enumerated); the reach builder's own two `_mask_table`
    # calls are not neighborhood tables
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
    open_windows = [upper != 0.0 for _, _, upper in report.windows]
    assert open_windows == [True, True, False, False]
    assert len(nbhd) == sum(open_windows)
