"""Quantitative quasi-locality and approximability of block operators.

The central quantity is the violation sup ||chi_B T chi_A|| over pairs of
point sets with d(A, B) > R.  On small spaces this supremum is computed
exactly: for a fixed B the largest admissible A is the complement of the
R-neighborhood of B, and corner norms are monotone in both arguments, so
it suffices to enumerate sets B that are closed under

    B  |->  X \\ N_R(X \\ N_R(B)),

which shrinks the candidate list far below 2^n; the closed sets are
marked in a 2^n boolean table, so they come out in ascending bitmask
order without sorting or hashing.  Each corner is split
before anything is decomposed.  A row block of B with no nonzero block
into A, or a column block of A with none from B, does not change the
singular values, and what is left is block-diagonal over the connected
components of the bipartite graph of nonzero blocks, so ||chi_B T chi_A||
is the largest norm among its components.  Nonzero blocks are read
exactly, from the entries (a block of 1e-170 counts; its squared
Frobenius norm would not).  Every candidate's components are labelled
at once by bitmask propagation over the operator's two 2^n reach tables
(`_reach_tables`, from the nonzero blocks by `_mask_table`), which depend
on the operator only: they are kept on it (`BlockOperator.derived`), so a
radius grid builds them once.  Candidates share components, so
only the distinct ones are normed, deduplicated by one `np.unique` of
their (rows, cols) keys without an inverse map, and handed as
coordinate masks to `operators.masked_corner_norms`, which norms them
in equal-shape stacks under the byte budget of batched stacks that
operators.py keeps.  A dense operator has one component per
corner, the whole corner; a band-sparse one has few distinct components
(62 norms instead of 65,534 corners for a 16-point band unitary at
R = 0).  The attaining pair is the first candidate in ascending bitmask
order that reaches the maximum, the lowest one holding a component that
attains it, read as the smallest owner of a key among the top
components; candidates whose largest component is the same tie
exactly, so the choice does not depend on rounding.

Larger spaces get a certified window.  The checks come first (one base
space, R >= 0, a known mode), then the upper member, then the search for
the lower member.  An upper member of exactly 0 (T banded at R) skips the
search: `spectral_norm` resolves any nonzero entry, which lies in a
component whose norm is nonzero (a Gram top below 2^-900 takes the
SVD), so every separated corner is 0.  Otherwise the
search stops as soon as the best corner v it has found satisfies
v >= (1 - _ROUNDING_MARGIN) * upper, with the relative margin
1e-12 that also guards the upper member's own min: every corner is at
most the violation, which is at most the upper member, so a skipped
start could raise the lower member by at most the margin plus rounding.
The lower member is still a corner that was found.  It is a seeded
local search that grows separated pairs one point at a time.  Its
starts share one state built per call (the far relation d > R, the
block Frobenius norms and their squares, each coordinate's point); no
list of the separated pairs is built.  The best separated singleton
ranks only the separated blocks of nonzero Frobenius norm, and the
seeded restarts are drawn only when its grow leaves the window open,
each located as the k-th separated pair in row-major order.  A round
keeps the masks of B, of A and of the points far from each up to date,
ranks the candidate points by the Frobenius mass they add, and norms
the candidates of nonzero mass in rank order, corner coordinates read
from the masks in the order
`BlockOperator.corner_norm` uses.  A candidate of mass 0 adds only zero
blocks (or entries whose squares underflow), so it cannot raise the
corner by the accept margin, _WITNESS_TOL * max(1, corner), which scales
with the corner so that rounding noise of a large operator is never a
move; the rank order puts these candidates last.
Its upper member is min(||T - T_R||, ||T||), where T_R is T truncated to
the band of width R: the first norm bounds the violation because
chi_B T_R chi_A = 0 whenever d(A, B) > R, the second because corners
never exceed T.  Both also bound the distance from T to the operators
with propagation <= R, since T_R and 0 are such operators.  The matrix
of T - T_R is formed from T's, with no operator built, and so is
`supported_distance_upper`'s tail.  ||T|| is taken only when
||T - T_R|| is not clearly below T's largest column norm, a lower bound
of ||T||.  `spectral_norm` splits both into the components of their
nonzero pattern: on the benchmark inputs the band tails at R = 3 fall
into 2-21 components of 1 x 1 and the 120-point reflection covers and
their tails into 65-67 of at most 2 x 2.

Both algorithms return a value and the unpruned pair (B, A) attaining
it.  `quasi_locality_violation` is the one place that prunes the pair to
a minimal witness and builds a report; `approximability_window` keeps
the numbers only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .maps import PointMap
from .operators import BlockOperator, masked_corner_norms, spectral_norm
from .spaces import check_radius

__all__ = [
    "LocalityReport",
    "Witness",
    "quasi_locality_violation",
    "approximability_window",
    "supported_distance_upper",
]

EXACT_LIMIT = 16
SEARCH_RESTARTS = 50
_WITNESS_TOL = 1e-12
# relative rounding margin of a comparison between two separately rounded
# norms: an SVD value is accurate to a few ulps, far inside it
_ROUNDING_MARGIN = 1e-12


@dataclass
class Witness:
    """A minimal separated pair attaining the violation: d(A, B) > R."""

    A: tuple  # source points
    B: tuple  # target points


@dataclass
class LocalityReport:
    R: float
    violation_lower: float
    violation_upper: float
    exact: bool
    witness: Witness | None = None  # attains violation_lower


def _prune_witness(T: BlockOperator, B: list, A: list, value: float) -> Witness:
    """Shrink an attaining pair to a minimal one, dropping points in
    ascending index order while the corner norm stays at the value, up to
    the margin _WITNESS_TOL * max(1, value)."""
    B, A = sorted(B), sorted(A)
    floor = value - _WITNESS_TOL * max(1.0, value)
    for p in list(B):
        if len(B) > 1 and T.corner_norm([q for q in B if q != p], A) >= floor:
            B.remove(p)
    for p in list(A):
        if len(A) > 1 and T.corner_norm(B, [q for q in A if q != p]) >= floor:
            A.remove(p)
    return Witness(tuple(int(a) for a in A), tuple(int(b) for b in B))


def _mask_table(rel: np.ndarray) -> np.ndarray:
    """table[mask] is the bitmask of {j : rel[i, j] for some i in mask}, for
    every mask below 2^n, n = rel.shape[0]: a mask in [2^i, 2^(i+1)) is
    point i together with a mask below 2^i."""
    bits = np.uint32(1) << np.arange(rel.shape[1], dtype=np.uint32)
    row = np.where(rel, bits, np.uint32(0)).sum(axis=1, dtype=np.uint32)
    table = np.zeros(1 << rel.shape[0], dtype=np.uint32)
    for i in range(rel.shape[0]):
        table[1 << i : 1 << (i + 1)] = table[: 1 << i] | row[i]
    return table


def _reach_tables(T: BlockOperator) -> tuple[np.ndarray, np.ndarray]:
    """(cols_of, rows_of): cols_of[rows] is the bitmask of the source points
    that a target point of the bitmask rows reaches by a nonzero block,
    rows_of[cols] the converse.  A block is nonzero when one of its
    entries is: a block of 1e-170 counts."""
    nonzero = np.logical_or.reduceat(T.matrix != 0, T.target.offsets[:-1], axis=0)
    nonzero = np.logical_or.reduceat(nonzero, T.source.offsets[:-1], axis=1)
    return _mask_table(nonzero), _mask_table(nonzero.T)


def _components(b_masks, a_masks, cols_of, rows_of):
    """Connected components of the nonzero-block graph of every corner
    B x A, as (owner, rows, cols): component rows and columns as point
    bitmasks, and the index of the candidate they belong to.

    All candidates are labelled at once: each round seeds one component
    per candidate at its lowest row not yet covered that has a nonzero
    block into A, and grows it, cols = A & cols_of[rows] and
    rows = B & rows_of[cols], until nothing changes."""
    empty = np.zeros(0, dtype=np.uint32)
    pieces = [(empty.astype(np.int32), empty, empty)]  # (owner, rows, cols) per round
    left = b_masks & rows_of[a_masks]
    idx = np.flatnonzero(left)
    while idx.size:
        rb, ca, seed = b_masks[idx], a_masks[idx], left[idx]
        rows = seed & (~seed + np.uint32(1))  # the lowest set bit
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


def _exact_violation(T: BlockOperator, R: float):
    """The exact violation and the first candidate (B, A) attaining it,
    unpruned; (0.0, None) when no corner is nonzero."""
    base = T.source.base
    n = base.n
    full = np.uint32((1 << n) - 1)
    weights = np.uint32(1) << np.arange(n, dtype=np.uint32)
    nbhd = _mask_table(base.dist <= R)  # nbhd[mask] is the bitmask of N_R(mask)

    allowed = full & ~nbhd[1:]  # largest A for each nonempty B
    closed = np.zeros(1 << n, dtype=bool)  # the closed B with the same A, in ascending order
    closed[full & ~nbhd[allowed[allowed != 0]]] = True
    b_masks = np.flatnonzero(closed).astype(np.uint32)
    a_masks = full & ~nbhd[b_masks]
    live = (b_masks != 0) & (a_masks != 0)
    b_masks, a_masks = b_masks[live], a_masks[live]

    owner, comp_rows, comp_cols = _components(b_masks, a_masks, *T.derived(_reach_tables))
    # candidates share components: each distinct one is normed once
    keys = comp_rows << np.uint32(n) | comp_cols
    comps = np.unique(keys)
    b_rows = ((comps[:, None] >> np.uint32(n)) & weights[T.target.coord_point]) != 0
    a_cols = (comps[:, None] & weights[T.source.coord_point]) != 0

    norms = masked_corner_norms(T.matrix, b_rows, a_cols)
    # a corner is block-diagonal over its components, so its norm is their
    # max; the first maximum in ascending mask order, as a strict-> scan
    # finds it, is the lowest candidate holding a component that attains it
    top = norms.max(initial=0.0)  # entries are finite, so norms are finite and >= 0
    if top == 0.0:
        return 0.0, None
    k = int(owner[np.isin(keys, comps[norms == top])].min())
    B = list(np.flatnonzero(b_masks[k] & weights))
    A = list(np.flatnonzero(a_masks[k] & weights))
    return float(top), (B, A)


def _tail_norm(T: BlockOperator, keep: np.ndarray) -> float:
    """||T - T_keep||, with T_keep the blocks (y, x) of T where keep[y, x]
    holds and zero blocks elsewhere: `spectral_norm` of M - M * mask, the
    arithmetic of `supported_mask` and the operator difference, so every
    entry, signed zeros included, is that of T - T_keep.  (A copy
    `np.where(~mask, M, 0)` differs in the sign of a zero real part,
    which moves the SVD by an ulp now and then.)"""
    mask = keep[np.ix_(T.target.coord_point, T.source.coord_point)]
    return spectral_norm(T.matrix - T.matrix * mask)


def _truncation_upper(T: BlockOperator, R: float) -> float:
    """min(||T - T_R||, ||T||): bounds both the violation at R and the
    distance from T to the operators with propagation <= R.

    ||T|| is taken only when ||T - T_R|| is not clearly below T's largest
    column norm; _ROUNDING_MARGIN keeps rounding from flipping the min.
    The branch pays on the `ql-bounds` band unitaries (path(150), 4
    layers, the four of seed 3300): their tails read 0.22-0.85 against a
    column norm of 1.0, so each skips a 0.9-1.4 ms ||T|| of 13-19
    components.  The value does not depend on the BLAS thread count where
    the components stay below the sizes OpenBLAS threads (a 120-point
    reflection cover reads 1.0000000000000004 at R = 3 on 1 or 2 threads)."""
    tail = _tail_norm(T, T.source.base.dist <= R)
    if tail < (1 - _ROUNDING_MARGIN) * T.norm_lower_bound():
        return tail
    return min(tail, T.norm())


class _SearchState:
    """What every restart of the local search shares, built once per call:
    the separation relation, the block Frobenius norms and their squares,
    and the point of each coordinate.  No list of separated pairs is
    kept: the best singleton ranks the nonzero separated blocks only, and
    a seeded restart is located in the relation when it is drawn."""

    def __init__(self, T: BlockOperator, R: float):
        self.T = T
        self.far = T.source.base.dist > R  # far[y, x]: d(y, x) > R; symmetric
        self.frob = T.block_frobenius()
        self.frob2 = self.frob**2
        self.row_point = T.target.coord_point
        self.col_point = T.source.coord_point


def _best_singleton(s: _SearchState):
    """Exact best separated singleton pair, prescreened by Frobenius norms.

    Only the separated blocks of nonzero Frobenius norm are ranked, by
    descending norm with ties in row-major order (a stable sort): spectral
    <= Frobenius, so once the best value reaches a block's Frobenius norm
    nothing later can win, and a zero block never can."""
    nonzero = s.far & (s.frob > 0)
    order = np.argsort(-s.frob[nonzero], kind="stable")
    best = 0.0
    best_pair = None
    for y, x in np.argwhere(nonzero)[order]:
        if s.frob[y, x] <= best:
            break  # spectral <= Frobenius, nothing later can win
        value = spectral_norm(s.T.block(y, x))
        if value > best:
            best = value
            best_pair = (int(y), int(x))
    return best, best_pair


def _grow_pair(s: _SearchState, B: list, A: list):
    """Greedy growth: keep adding single points (to either side) while the
    corner norm increases, preserving d(A, B) > R.

    Candidate additions are tried in descending order of the Frobenius
    mass they would add, and the first one whose corner norm exceeds the
    current one by the margin _WITNESS_TOL * max(1, value) is taken.
    Candidates of mass 0 come last and are not normed: they add only
    zero blocks, or entries whose squares underflow, which cannot raise
    the corner by the margin.

    The point masks of B and A and the masks of the points far from all
    of A (candidates for B) and from all of B (candidates for A) are kept
    up to date as points are accepted; corner coordinates are read off
    them in ascending order, the order of `BlockOperator.corner_norm`.
    """
    M = s.T.matrix
    in_b = np.zeros(s.far.shape[0], dtype=bool)
    in_b[B] = True
    in_a = np.zeros(s.far.shape[1], dtype=bool)
    in_a[A] = True
    far_a = s.far[:, A].all(axis=1) & ~in_b
    far_b = s.far[:, B].all(axis=1) & ~in_a
    rows = np.flatnonzero(in_b[s.row_point])
    cols = np.flatnonzero(in_a[s.col_point])
    value = spectral_norm(M[rows[:, None], cols])
    for _ in range(2 * s.far.shape[0]):
        to_b, to_a = np.flatnonzero(far_a), np.flatnonzero(far_b)
        mass = np.concatenate(
            (s.frob2[to_b[:, None], A].sum(axis=1), s.frob2.T[to_a[:, None], B].sum(axis=1))
        )
        side = np.concatenate((np.ones(to_b.size, dtype=np.int8), np.zeros(to_a.size, dtype=np.int8)))
        point = np.concatenate((to_b, to_a))
        order = np.lexsort((point, side, -mass))  # (-mass, "A" < "B", point)
        bar = value + _WITNESS_TOL * max(1.0, value)
        for k in order[: np.count_nonzero(mass)]:
            p = int(point[k])
            if side[k]:
                in_b[p] = True
                cand_rows, cand_cols = np.flatnonzero(in_b[s.row_point]), cols
                in_b[p] = False
            else:
                in_a[p] = True
                cand_rows, cand_cols = rows, np.flatnonzero(in_a[s.col_point])
                in_a[p] = False
            cand = spectral_norm(M[cand_rows[:, None], cand_cols])
            if cand > bar:
                break
        else:
            break
        if side[k]:
            B.append(p)
            in_b[p], far_a[p] = True, False
            far_b &= s.far[:, p]
        else:
            A.append(p)
            in_a[p], far_b[p] = True, False
            far_a &= s.far[:, p]
        rows, cols, value = cand_rows, cand_cols, cand
    return value, B, A


def _starts(s: _SearchState, restarts: int, seed: int):
    """The search's starts, each made only when the one before it has been
    grown: the best separated singleton, then `restarts` separated pairs
    drawn at once by `default_rng(seed).integers(0, n_pairs, restarts)`,
    pick k being the k-th separated pair (y, x) in row-major order."""
    pair = _best_singleton(s)[1]
    if pair is not None:
        yield pair
    before = np.concatenate(([0], np.cumsum(s.far.sum(axis=1))))  # pairs in the rows above y
    if before[-1] and restarts > 0:
        picks = np.random.default_rng(seed).integers(0, before[-1], size=restarts)
        for k, y in zip(picks, np.searchsorted(before, picks, side="right") - 1):
            yield int(y), int(np.flatnonzero(s.far[y])[k - before[y]])


def _search_violation(T: BlockOperator, R: float, restarts: int, seed: int, upper: float = np.inf):
    """Best corner norm the local search reaches from the best separated
    singleton and `restarts` seeded pairs, with its unpruned pair (B, A);
    (0.0, None) when no start leaves 0.

    `upper` is a bound on the violation, the window's upper member.  Once
    a start reaches (1 - _ROUNDING_MARGIN) * upper the window is closed up
    to rounding, and the remaining starts are skipped: every corner is at
    most the violation, so they could raise the value by at most the
    margin plus rounding.  The restarts are drawn only once a start has
    left the window open."""
    state = _SearchState(T, R)
    best_value, best_sets = 0.0, None
    for y, x in _starts(state, restarts, seed):
        value, B, A = _grow_pair(state, [y], [x])
        if value > best_value:
            best_value, best_sets = value, (B, A)
            if best_value >= (1 - _ROUNDING_MARGIN) * upper:
                break
    return best_value, best_sets


def _violation(T: BlockOperator, R: float, mode: str):
    """(value, (B, A) or None, upper) of the named mode, after the checks
    both public entry points share: one base space, R >= 0, a known mode,
    and at most EXACT_LIMIT points in exact mode.  `upper` bounds the
    violation: the value itself in exact mode, `_truncation_upper(T, R)`
    in bounds mode, taken after the checks and before the search, which
    is skipped when it is 0 and otherwise stops once it reaches it up to
    _ROUNDING_MARGIN."""
    base = T.source.base
    if T.target.base != base:
        raise ValueError("quasi-locality needs an operator over a single base space")
    R = check_radius(R, "separation radius")
    if mode == "exact":
        if base.n > EXACT_LIMIT:
            raise ValueError(
                f"exact enumeration limited to {EXACT_LIMIT} points (space has {base.n}); "
                "use mode='bounds'"
            )
        value, sets = _exact_violation(T, R)
        return value, sets, value
    if mode == "bounds":
        upper = _truncation_upper(T, R)
        if upper == 0.0:  # the norm resolves any nonzero entry: every separated corner is 0
            return 0.0, None, 0.0
        return (*_search_violation(T, R, SEARCH_RESTARTS, 0, upper), upper)
    raise ValueError(f"unknown mode {mode!r}; expected 'exact' or 'bounds'")


def quasi_locality_violation(T: BlockOperator, R: float, mode: str = "exact") -> LocalityReport:
    """sup ||chi_B T chi_A|| over point sets with d(A, B) > R.

    mode "exact" enumerates closed candidate sets (base size at most
    EXACT_LIMIT) and takes each corner's norm as the largest norm of its
    components, the connected pieces of its nonzero-block graph, norming
    each distinct component once; its pair is the first candidate in
    ascending bitmask order attaining the maximum (candidates sharing the
    top component tie exactly).  Mode "bounds" returns the window
    [local-search lower, min(||T - T_R||, ||T||)], with T_R the truncation
    of T to the band of width R: after the input checks it takes the upper
    member, then runs the search from the best separated singleton and
    SEARCH_RESTARTS seeded restarts, skipping the rest once the best
    corner reaches the upper member up to the relative rounding margin
    1e-12 (no search at all when the upper member is 0).  Only here
    is the pair pruned to a minimal witness, which attains
    violation_lower.
    """
    value, sets, upper = _violation(T, R, mode)
    witness = None
    if sets is not None and value > _WITNESS_TOL:
        witness = _prune_witness(T, *sets, value)
    # value is an achieved corner norm, so it is always a valid lower bound;
    # the max() guards the upper member against float dust only
    return LocalityReport(float(R), value, max(upper, value), mode == "exact", witness)


def approximability_window(T: BlockOperator, R: float) -> tuple[float, float]:
    """Window [lower, upper] around the distance from T to the set of
    operators with propagation <= R.

    Any violation value is a lower bound (corners over separated pairs
    vanish on banded operators): the exact one up to EXACT_LIMIT points,
    the local search's above.  The upper bound is min(||T - T_R||, ||T||),
    since both the band truncation T_R and 0 are banded.  The input checks
    come first; above EXACT_LIMIT the upper bound is taken next and the
    search stops once it reaches it up to the relative rounding margin
    1e-12 (or is skipped when it is 0), while the exact side takes it
    after the enumeration.  Only numbers are computed: no report is built
    and no witness pruned.
    """
    exact = T.source.base.n <= EXACT_LIMIT
    lower, _, upper = _violation(T, R, "exact" if exact else "bounds")
    if exact:  # the exact violation bounds the violation only, not the distance
        upper = _truncation_upper(T, R)
    return lower, max(upper, lower)


def supported_distance_upper(T: BlockOperator, f: PointMap, R: float) -> float:
    """||T - M_R(T)|| where M_R keeps blocks (y, x) with d(f(x), y) <= R.

    M_R(T) is R-supported on f, so the value bounds the distance from T
    to the R-supported operators; it is nonincreasing in R.
    """
    if f.source != T.source.base or f.target != T.target.base:
        raise ValueError("map must go from the operator's source base to its target base")
    return _tail_norm(T, T.target.base.dist[:, f.values] <= check_radius(R, "support radius"))
