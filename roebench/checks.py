"""Checks of roelab reports, recomputed with numpy from the generated inputs.

Nothing here imports roelab.  Each check takes the matrices and distance
tables the benchmark generated, plus the `results` block of one report,
recomputes what the report claims, and raises CheckFailed naming the
first claim that does not hold.  Tolerances are absolute and sit far
above float64 rounding of the quantities involved (norms of order 1).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

TOL = 1e-9

# Check names that fail because of a known fault in roelab, with the fault.
# An op failing one of these counts as failed; any other failure makes the
# run incorrect.
KNOWN_FAULTS = {
    "ql.upper_le_norm": "locality._band_tail_upper sums ||D_k|| over every realized "
                        "distance k > R, which exceeds ||T|| when T is far from banded",
}


class CheckFailed(Exception):
    """A report claim that the recomputation contradicts."""

    def __init__(self, name: str, message: str):
        super().__init__(f"{name}: {message}")
        self.name = name


@dataclass(frozen=True)
class Case:
    """One generated operator as the checks see it: the matrix of
    U : source -> target, and for each side the distance table and the
    fiber dimension of every point."""

    matrix: np.ndarray
    target_dist: np.ndarray
    target_dims: np.ndarray
    source_dist: np.ndarray
    source_dims: np.ndarray

    def adjoint(self) -> "Case":
        return Case(self.matrix.conj().T, self.source_dist, self.source_dims,
                    self.target_dist, self.target_dims)


@dataclass(frozen=True)
class Cover:
    """A coarse map h (a table of target points) and the 0/1 matrix W
    that covers it, with W's fiber dimensions."""

    h: np.ndarray
    W: np.ndarray
    target_dims: np.ndarray
    source_dims: np.ndarray


def path_dist(n: int) -> np.ndarray:
    idx = np.arange(n)
    return np.abs(idx[:, None] - idx[None, :]).astype(float)


def _expect(holds, name: str, message: str) -> None:
    if not holds:
        raise CheckFailed(name, message)


def _offsets(dims) -> np.ndarray:
    return np.concatenate(([0], np.cumsum(dims))).astype(np.int64)


def _coords(offsets: np.ndarray, points) -> np.ndarray:
    parts = [np.arange(offsets[p], offsets[p + 1]) for p in points]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)


def _norm(mat: np.ndarray) -> float:
    return float(np.linalg.svd(mat, compute_uv=False)[0]) if mat.size else 0.0


def _point_of_coord(dims) -> np.ndarray:
    return np.repeat(np.arange(len(dims)), dims)


def corner_table(case: Case, R: float) -> np.ndarray:
    """(n_target, n_source) array of ||chi_{ball(y, R)} U chi_x||, from
    the top eigenvalue of each corner's Gram matrix."""
    ball = (case.target_dist <= R)[:, _point_of_coord(case.target_dims)].astype(float)
    off = _offsets(case.source_dims)
    out = np.empty((len(case.target_dims), len(case.source_dims)))
    for x in range(len(case.source_dims)):
        cols = case.matrix[:, off[x]:off[x + 1]]
        grams = np.einsum("yr,ra,rb->yab", ball, cols.conj(), cols, optimize=True)
        out[:, x] = np.sqrt(np.maximum(np.linalg.eigvalsh(grams)[:, -1], 0.0))
    return out


def closeness_budget(cover: Cover, source_dist, target_dist, r: float) -> float:
    """omega_h(r) + s: h's control modulus at scale r plus the support
    radius of W, max d(h(x), y) over the nonzero entries W[y-coord, x-coord]."""
    h = cover.h
    omega = float(target_dist[np.ix_(h, h)][source_dist <= r].max())
    rows, cols = np.nonzero(cover.W)
    y_pts = _point_of_coord(cover.target_dims)[rows]
    x_pts = _point_of_coord(cover.source_dims)[cols]
    support = float(target_dist[h[x_pts], y_pts].max())
    return omega + support


def _check_witnesses(case: Case, values, witness, R: float, delta: float, name: str) -> None:
    """Each stated witness is a fresh SVD of its corner, exceeds delta and
    is the largest corner at its point."""
    values = np.asarray(values)
    _expect(len(values) == len(case.target_dims) and len(witness) == len(values),
            name, "map or witness list has the wrong length")
    row_off, col_off = _offsets(case.target_dims), _offsets(case.source_dims)
    table = corner_table(case, R)
    for y, (x, w) in enumerate(zip(values, witness)):
        rows = _coords(row_off, np.flatnonzero(case.target_dist[y] <= R))
        fresh = _norm(case.matrix[np.ix_(rows, np.arange(col_off[x], col_off[x + 1]))])
        _expect(abs(fresh - w) <= TOL, name,
                f"point {y}: stated corner {w!r}, fresh SVD {fresh!r}")
        _expect(w > delta, name, f"point {y}: corner {w!r} is not above delta {delta}")
        _expect(w >= table[y].max() - TOL, name,
                f"point {y}: corner at {x} is {w!r}, largest corner is {table[y].max()!r}")


def _fails_below(case: Case, R: float, delta: float) -> bool:
    """True when, at the largest realized distance below R, some target
    point has no corner above delta."""
    below = [d for d in np.unique(case.target_dist) if d < R]
    if not below:
        return False
    return bool((corner_table(case, max(below)).max(axis=1) <= delta).any())


def check_extract(case: Case, cover: Cover, noise_radius: float, layers: int,
                  results: dict) -> None:
    """`roelab extract` on U = W V, where W covers h and V is band noise
    of radius noise_radius in `layers` layers."""
    delta, R = results["delta"], results["R"]
    _check_witnesses(case, results["g"], results["witness_g"], R, delta, "extract.witness_g")
    _check_witnesses(case.adjoint(), results["f"], results["witness_f"], R, delta,
                     "extract.witness_f")
    if R > 0:
        _expect(_fails_below(case, R, delta) or _fails_below(case.adjoint(), R, delta),
                "extract.minimal_radius",
                f"every point has a corner above {delta} below R = {R}")
    f = np.asarray(results["f"])
    close = float(case.target_dist[f, cover.h].max())
    budget = closeness_budget(cover, case.source_dist, case.target_dist,
                              R + layers * noise_radius)
    _expect(close <= budget + TOL, "extract.closeness_bound",
            f"closeness(f, h) = {close} exceeds omega_h(R + layers * noise) + s = {budget}")


def _block_norms(case: Case) -> np.ndarray:
    """Spectral norm of every block, for uniform fiber dimension d."""
    d = int(case.target_dims[0])
    n = len(case.target_dims)
    if not (np.all(case.target_dims == d) and np.array_equal(case.target_dims, case.source_dims)):
        raise ValueError("block norms need one uniform fiber dimension")
    blocks = case.matrix.reshape(n, d, n, d).transpose(0, 2, 1, 3)
    return np.linalg.svd(blocks, compute_uv=False)[..., 0]


def check_ql_bounds(case: Case, results: dict) -> None:
    """`roelab ql --mode bounds` on an operator over one space."""
    R = results["R"]
    lower, upper = results["violation_lower"], results["violation_upper"]
    dist = case.target_dist
    off = _offsets(case.target_dims)
    witness = results["witness"]
    _expect(witness is not None, "ql.witness", "no witness pair for a positive violation")
    A, B = witness["A"], witness["B"]
    _expect(len(A) > 0 and len(B) > 0, "ql.witness", "witness set is empty")
    gap = float(dist[np.ix_(A, B)].min())
    _expect(gap > R, "ql.witness", f"d(A, B) = {gap} is not above R = {R}")
    fresh = _norm(case.matrix[np.ix_(_coords(off, B), _coords(off, A))])
    _expect(abs(fresh - lower) <= TOL, "ql.witness",
            f"violation_lower {lower!r}, fresh SVD of the witness corner {fresh!r}")

    separated = dist > R
    single = float(_block_norms(case)[separated].max()) if separated.any() else 0.0
    _expect(lower >= single - TOL, "ql.lower_ge_single_block",
            f"violation_lower {lower!r} is below the best separated block {single!r}")
    pt = _point_of_coord(case.target_dims)
    tail = _norm(np.where(separated[np.ix_(pt, pt)], case.matrix, 0))
    full = _norm(case.matrix)
    _expect(lower <= min(tail, full) + TOL, "ql.lower_le_tail",
            f"violation_lower {lower!r} exceeds min(||T - T_R||, ||T||) = {min(tail, full)!r}")
    _expect(lower <= upper + TOL, "ql.lower_le_upper",
            f"violation_lower {lower!r} exceeds violation_upper {upper!r}")
    _expect(upper <= full + TOL, "ql.upper_le_norm",
            f"violation_upper {upper!r} exceeds ||T|| = {full!r}")


def brute_violation(matrix: np.ndarray, dist: np.ndarray, dims, R: float) -> float:
    """sup ||chi_B M chi_A|| over every pair of nonempty point sets with
    d(A, B) > R, by enumerating all of them (small spaces only)."""
    n = len(dims)
    off = _offsets(dims)
    best = 0.0
    for b_mask in range(1, 1 << n):
        B = [p for p in range(n) if b_mask >> p & 1]
        allowed = [p for p in range(n) if (dist[p, B] > R).all()]
        rows = _coords(off, B)
        for a_mask in range(1, 1 << len(allowed)):
            A = [q for i, q in enumerate(allowed) if a_mask >> i & 1]
            best = max(best, _norm(matrix[np.ix_(rows, _coords(off, A))]))
    return best


def check_outer(case: Case, results: dict, brute_force: bool) -> None:
    """`roelab outer` on a unitary over one fibered space."""
    plan = results["plan"]
    assignment = np.asarray(plan["assignment"])
    total = case.matrix.shape[1]
    _expect(np.array_equal(np.sort(assignment), np.arange(total)), "outer.cover",
            "the covering assignment is not a permutation of the coordinates")
    f = np.asarray(results["extraction"]["f"])
    pt = _point_of_coord(case.source_dims)
    support = float(case.target_dist[f[pt], pt[assignment]].max())
    _expect(abs(support - plan["support_radius"]) <= TOL, "outer.cover",
            f"support radius of W is {support}, report says {plan['support_radius']}")

    windows = results["windows"]
    for R, lower, upper in windows:
        _expect(lower <= upper + TOL, "outer.window_order",
                f"R = {R}: lower member {lower!r} exceeds upper member {upper!r}")
    for (R0, low0, _), (R1, low1, _) in zip(windows, windows[1:]):
        _expect(R0 < R1 and low1 <= low0 + TOL, "outer.lower_monotone",
                f"lower member rises from {low0!r} at R = {R0} to {low1!r} at R = {R1}")
    if brute_force:
        W = np.zeros((total, total))
        W[assignment, np.arange(total)] = 1.0
        V = case.matrix @ W.T
        for R, lower, _ in windows:
            exact = brute_violation(V, case.target_dist, case.target_dims, R)
            _expect(abs(exact - lower) <= TOL, "outer.exact_vs_brute",
                    f"R = {R}: lower member {lower!r}, all-subsets violation {exact!r}")


def check_sweep(cover: Cover, noise_radius: float, layers: int, results: dict,
                reference: dict) -> None:
    """`roelab sweep`: every row's closeness(f, h) is within budget, and the
    results equal a single-threaded run's byte for byte."""
    source_dist = path_dist(len(cover.source_dims))
    target_dist = path_dist(len(cover.target_dims))
    for row in results["rows"]:
        budget = closeness_budget(cover, source_dist, target_dist,
                                  row["R"] + layers * noise_radius)
        _expect(row["closeness_f_h"] <= budget + TOL, "sweep.closeness_bound",
                f"seed {row['seed']}: closeness(f, h) = {row['closeness_f_h']} exceeds {budget}")
    _expect(canonical(results) == canonical(reference), "sweep.single_thread",
            "results differ from the ROELAB_THREADS=1 run")


def canonical(results: dict) -> str:
    return json.dumps(results, sort_keys=True)
