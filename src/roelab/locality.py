"""Quantitative quasi-locality and approximability of block operators.

The central quantity is the violation sup ||chi_B T chi_A|| over pairs of
point sets with d(A, B) > R.  On small spaces this supremum is computed
exactly: for a fixed B the largest admissible A is the complement of the
R-neighborhood of B, and corner norms are monotone in both arguments, so
it suffices to enumerate sets B that are closed under

    B  |->  X \\ N_R(X \\ N_R(B)),

which shrinks the candidate list far below 2^n.  The candidates are
evaluated as arrays, not one by one: their bitmasks become boolean row
and column coordinate masks, candidates with equal corner shape are
gathered into (k, rows, cols) stacks of at most _STACK_BYTES bytes, and
spectral_norm takes the top singular values of a whole stack in one
call.  The first maximum in ascending bitmask order wins, as in a
sequential scan, so the value and the witness do not depend on the
grouping.  Larger spaces get a certified window.  Its lower member is a seeded local search that grows
separated pairs one point at a time; each round screens all candidate
points with one batched eigenvalue call on their corner Gram matrices
and confirms the survivors with exact corner norms.  Its upper member is
min(||T - T_R||, ||T||), where T_R is T truncated to the band of width
R: the first norm bounds the violation because chi_B T_R chi_A = 0
whenever d(A, B) > R, the second because corners never exceed T.  Both
also bound the distance from T to the operators with propagation <= R,
since T_R and 0 are such operators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .maps import PointMap
from .operators import BlockOperator, spectral_norm

__all__ = [
    "LocalityReport",
    "quasi_locality_violation",
    "approximability_window",
    "supported_distance_upper",
]

EXACT_LIMIT = 16
SEARCH_RESTARTS = 50
_WITNESS_TOL = 1e-12
# rounding allowance of a screened squared corner norm per unit of its Gram
# trace; the trace is at least the top eigenvalue, and the gap between the
# screened value and the exact corner norm squared stays below 6 eps per
# unit of trace on random, sparse and saturated-unitary inputs
_SCREEN_SLACK = 64 * np.finfo(float).eps
# byte budget of one gathered stack of corners in the exact enumeration; it
# caps the working set however many candidates share a corner shape
_STACK_BYTES = 1 << 18


@dataclass
class LocalityReport:
    R: float
    violation_lower: float
    violation_upper: float
    exact: bool
    witness: tuple | None = None  # (A, B) point tuples attaining violation_lower

    def to_json(self) -> dict:
        return {
            "R": self.R,
            "violation_lower": self.violation_lower,
            "violation_upper": self.violation_upper,
            "exact": self.exact,
            "witness": None
            if self.witness is None
            else {"A": [int(a) for a in self.witness[0]], "B": [int(b) for b in self.witness[1]]},
        }


def _prune_witness(T: BlockOperator, B: list, A: list, value: float) -> tuple:
    """Shrink an attaining pair to a minimal one, dropping points in
    ascending index order while the corner norm stays at the value."""
    B, A = sorted(B), sorted(A)
    for p in list(B):
        if len(B) > 1 and T.corner_norm([q for q in B if q != p], A) >= value - _WITNESS_TOL:
            B.remove(p)
    for p in list(A):
        if len(A) > 1 and T.corner_norm(B, [q for q in A if q != p]) >= value - _WITNESS_TOL:
            A.remove(p)
    return tuple(A), tuple(B)


def _exact_violation(T: BlockOperator, R: float) -> LocalityReport:
    base = T.source.base
    n = base.n
    full = np.uint32((1 << n) - 1)
    weights = np.uint32(1) << np.arange(n, dtype=np.uint32)
    near = np.where(base.dist <= R, weights, 0).sum(axis=1, dtype=np.uint32)
    # nbhd[mask] is the bitmask of N_R(mask): a mask in [2^i, 2^(i+1)) is
    # point i together with a mask below 2^i
    nbhd = np.zeros(1 << n, dtype=np.uint32)
    for i in range(n):
        nbhd[1 << i : 1 << (i + 1)] = nbhd[: 1 << i] | near[i]

    allowed = full & ~nbhd[1:]  # largest A for each nonempty B
    closures = full & ~nbhd[allowed[allowed != 0]]  # closed B with the same A
    b_masks = np.unique(closures)
    a_masks = full & ~nbhd[b_masks]
    live = (b_masks != 0) & (a_masks != 0)
    b_points = (b_masks[live, None] & weights) != 0
    a_points = (a_masks[live, None] & weights) != 0
    b_rows = b_points[:, T.target.coord_point]
    a_cols = a_points[:, T.source.coord_point]

    # batched norms over the equal-shape corners, in stacks of at most _STACK_BYTES
    n_rows, n_cols = b_rows.sum(axis=1), a_cols.sum(axis=1)
    key = n_rows * (T.source.total_dim + 1) + n_cols
    values = np.zeros(key.size)
    for shape in np.unique(key):
        group = np.flatnonzero(key == shape)
        rows, cols = int(n_rows[group[0]]), int(n_cols[group[0]])
        step = max(1, _STACK_BYTES // (rows * cols * T.matrix.itemsize))
        for start in range(0, group.size, step):
            chunk = group[start : start + step]
            r = np.nonzero(b_rows[chunk])[1].reshape(-1, rows, 1)
            c = np.nonzero(a_cols[chunk])[1].reshape(-1, 1, cols)
            values[chunk] = spectral_norm(T.matrix[r, c])

    # the first maximum in ascending mask order, as a strict-> scan finds it
    best_value, witness = 0.0, None
    if values.size and values.max() > 0:
        k = int(np.argmax(values))
        best_value = float(values[k])
        if best_value > _WITNESS_TOL:
            B, A = list(np.flatnonzero(b_points[k])), list(np.flatnonzero(a_points[k]))
            witness = _prune_witness(T, B, A, best_value)
    return LocalityReport(float(R), best_value, best_value, True, witness)


def _truncation_upper(T: BlockOperator, R: float) -> float:
    """min(||T - T_R||, ||T||): bounds both the violation at R and the
    distance from T to the operators with propagation <= R."""
    return min((T - T.band_truncate(R)).norm(), T.norm())


def _separated_block_pairs(T: BlockOperator, R: float) -> np.ndarray:
    base = T.source.base
    ys, xs = np.nonzero(base.dist > R)
    return np.stack([ys, xs], axis=1)


def _best_singleton(T: BlockOperator, R: float):
    """Exact best separated singleton pair, prescreened by Frobenius norms."""
    frob = T.block_frobenius()
    pairs = _separated_block_pairs(T, R)
    if pairs.size == 0:
        return 0.0, None
    order = np.argsort(-frob[pairs[:, 0], pairs[:, 1]], kind="stable")
    best = 0.0
    best_pair = None
    for y, x in pairs[order]:
        if frob[y, x] <= best:
            break  # spectral <= Frobenius, nothing later can win
        value = spectral_norm(T.block(y, x))
        if value > best:
            best = value
            best_pair = (int(y), int(x))
    return best, best_pair


def _screen(gram: np.ndarray, extra: np.ndarray, dims: np.ndarray):
    """Top eigenvalue and trace of gram + sum_r e_r e_r* for each candidate,
    where the rows e_r of `extra` come in consecutive segments of `dims`
    rows, one segment per candidate; one batched eigvalsh call."""
    outer = extra[:, :, None] * extra.conj()[:, None, :]
    starts = np.concatenate(([0], np.cumsum(dims)[:-1]))
    stack = gram + np.add.reduceat(outer, starts, axis=0)
    return np.linalg.eigvalsh(stack)[:, -1], np.trace(stack, axis1=1, axis2=2).real


def _grow_pair(T: BlockOperator, R: float, B: list, A: list, frob: np.ndarray):
    """Greedy growth: keep adding single points (to either side) while the
    corner norm increases, preserving d(A, B) > R.

    Candidate additions are tried in descending order of the Frobenius
    mass they would add, and the first strict improvement is taken; the
    accept test always uses the true corner norm.  A candidate is skipped
    without that test only when its screened squared norm, padded by
    _SCREEN_SLACK times its Gram trace to cover rounding in the screen and
    in the exact test, still cannot clear the bar.
    """
    dist = T.source.base.dist
    value = T.corner_norm(B, A)
    for _ in range(2 * dist.shape[0]):
        far_a = (dist[:, A] > R).all(axis=1)
        far_a[B] = False
        far_b = (dist[:, B] > R).all(axis=1)
        far_b[A] = False
        to_b, to_a = np.flatnonzero(far_a), np.flatnonzero(far_b)
        mass = np.concatenate(
            ((frob[np.ix_(to_b, A)] ** 2).sum(axis=1), (frob.T[np.ix_(to_a, B)] ** 2).sum(axis=1))
        )
        side = np.concatenate((np.ones(to_b.size, dtype=np.int8), np.zeros(to_a.size, dtype=np.int8)))
        point = np.concatenate((to_b, to_a))
        order = np.lexsort((point, side, -mass))  # (-mass, "A" < "B", point)
        # squared corner norm of each candidate: adding a point to B appends
        # its rows C, growing the column Gram by C*C; adding one to A appends
        # columns D, growing the row Gram by D D*
        rows = T.target.coords_of(B)
        cols = T.source.coords_of(A)
        corner = T.matrix[np.ix_(rows, cols)]
        tops, traces = np.zeros(point.size), np.zeros(point.size)
        if to_b.size:
            extra = T.matrix[np.ix_(T.target.coords_of(to_b), cols)].conj()
            tops[: to_b.size], traces[: to_b.size] = _screen(
                corner.conj().T @ corner, extra, T.target.fiber_dims[to_b]
            )
        if to_a.size:
            extra = T.matrix[np.ix_(rows, T.source.coords_of(to_a))].T
            tops[to_b.size :], traces[to_b.size :] = _screen(
                corner @ corner.conj().T, extra, T.source.fiber_dims[to_a]
            )
        live = tops + _SCREEN_SLACK * traces > (value + _WITNESS_TOL) ** 2
        accepted = False
        for k in order:
            if not live[k]:
                continue
            p = int(point[k])
            if side[k]:
                cand = T.corner_norm(B + [p], A)
            else:
                cand = T.corner_norm(B, A + [p])
            if cand > value + _WITNESS_TOL:
                (B if side[k] else A).append(p)
                value = cand
                accepted = True
                break
        if not accepted:
            break
    return value, B, A


def _search_violation(T: BlockOperator, R: float, restarts: int, seed: int) -> LocalityReport:
    upper = _truncation_upper(T, R)
    frob = T.block_frobenius()
    best, pair = _best_singleton(T, R)
    starts = []
    if pair is not None:
        starts.append(pair)
    all_pairs = _separated_block_pairs(T, R)
    rng = np.random.default_rng(seed)
    if all_pairs.shape[0] and restarts > 0:
        picks = rng.integers(0, all_pairs.shape[0], size=restarts)
        starts.extend((int(y), int(x)) for y, x in all_pairs[picks])
    best_value = 0.0
    best_sets = None
    for y, x in starts:
        value, B, A = _grow_pair(T, R, [y], [x], frob)
        if value > best_value:
            best_value = value
            best_sets = (A, B)
    witness = None
    if best_sets is not None and best_value > _WITNESS_TOL:
        A, B = best_sets
        witness = _prune_witness(T, B, A, best_value)
    # best_value is an achieved corner norm, so it is always a valid lower
    # bound; the max() guards the upper member against float dust only
    return LocalityReport(float(R), best_value, max(upper, best_value), False, witness)


def quasi_locality_violation(T: BlockOperator, R: float, mode: str = "exact") -> LocalityReport:
    """sup ||chi_B T chi_A|| over point sets with d(A, B) > R.

    mode "exact" enumerates closed candidate sets (base size at most
    EXACT_LIMIT); mode "bounds" returns the window [local-search lower,
    min(||T - T_R||, ||T||)], with T_R the truncation of T to the band of
    width R, from SEARCH_RESTARTS seeded restarts.  The report's witness
    attains violation_lower.
    """
    base = T.source.base
    if T.target.base != base:
        raise ValueError("quasi-locality needs an operator over a single base space")
    if not R >= 0:
        raise ValueError("separation radius must be >= 0")
    if mode == "exact":
        if base.n > EXACT_LIMIT:
            raise ValueError(
                f"exact enumeration limited to {EXACT_LIMIT} points (space has {base.n}); "
                "use mode='bounds'"
            )
        return _exact_violation(T, R)
    if mode == "bounds":
        return _search_violation(T, R, SEARCH_RESTARTS, 0)
    raise ValueError(f"unknown mode {mode!r}; expected 'exact' or 'bounds'")


def approximability_window(T: BlockOperator, R: float) -> tuple[float, float]:
    """Window [lower, upper] around the distance from T to the set of
    operators with propagation <= R.

    Any violation value is a lower bound (corners over separated pairs
    vanish on banded operators); the upper bound is min(||T - T_R||, ||T||),
    since both the band truncation T_R and 0 are banded.  Exact violation
    is used when the space is small enough.
    """
    if T.source.base.n > EXACT_LIMIT:
        report = quasi_locality_violation(T, R, mode="bounds")
        return report.violation_lower, report.violation_upper
    lower = quasi_locality_violation(T, R, mode="exact").violation_lower
    return lower, max(_truncation_upper(T, R), lower)


def supported_distance_upper(T: BlockOperator, f: PointMap, R: float) -> float:
    """||T - M_R(T)|| where M_R keeps blocks (y, x) with d(f(x), y) <= R.

    M_R(T) is R-supported on f, so the value bounds the distance from T
    to the R-supported operators; it is nonincreasing in R.
    """
    if f.source != T.source.base or f.target != T.target.base:
        raise ValueError("map must go from the operator's source base to its target base")
    if not R >= 0:
        raise ValueError("support radius must be >= 0")
    return (T - T.supported_mask(f.values, R)).norm()
