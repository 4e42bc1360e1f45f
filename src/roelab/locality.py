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
only the distinct ones are normed, deduplicated by one sort of their
(rows, cols) keys without an inverse map, and handed as
coordinate masks to `operators.masked_corner_norms`, which norms them
in equal-shape stacks under the byte budget of batched stacks that
operators.py keeps.  A dense operator has one component per
corner, the whole corner; a band-sparse one has few distinct components
(counts in CHANGES.md, in the entry "Exact quasi-locality splits each
corner").  The violation is the largest distinct-component norm.  All
of this is `_exact_violation`, the one exact function.  Asked to locate
(by `quasi_locality_violation` only), it also finds the pair attaining
the violation: the first candidate in ascending bitmask order that
reaches the maximum, the lowest one holding a component that attains
it, read as the smallest owner of a key among the top components;
candidates whose largest component is the same tie exactly, so the
choice does not depend on rounding.

Both modes take their numbers in one order: the checks first (one base
space, R >= 0, a known mode, at most EXACT_LIMIT points in exact mode),
then the upper member below, then the enumeration (exact) or the search
for a lower member (bounds).  R at or above T's propagation (the largest
d(x, y) over its entries that are not exactly 0, `T.propagation()`)
skips the upper member, the enumeration and the search: every separated
corner is 0, and so is the window.  Below it a far entry is nonzero, so
the upper member is too (`spectral_norm` resolves any nonzero entry, a
Gram top below 2^-900 taking the SVD).

Larger spaces get a certified window.  The search stops as soon as the
best corner v it has found satisfies v >= (1 - ROUNDING_MARGIN) * upper,
the relative margin that also guards the upper member's own min: every
corner is at most the violation, which is at most the upper member, so a
skipped start could raise the lower member by at most the margin plus
rounding.
The lower member is still a corner that was found.  It is a seeded
local search that grows separated pairs one point at a time.  Its
starts share one state built per call (the far relation d > R, the
block Frobenius norms, and per side each coordinate's point and the
squared block norms seen from that side); no list of the separated
pairs is built.  The best separated singleton ranks only the separated
blocks of nonzero Frobenius norm, and the seeded restarts are drawn
only when its grow leaves the window open, each located as the k-th
separated pair in row-major order.  Both sides grow by one rule,
indexed by side (0 is A, 1 is B): a side's candidates are the points
outside it far from every point of the other side, and an accepted
point joins its side, leaves that side's candidates and keeps only the
points far from it among the other side's.  A round ranks the
candidates of both sides by the Frobenius mass they add (then A before
B, then by point) and norms those of nonzero mass in rank order, corner
coordinates read from the point masks in the order
`BlockOperator.corner_norm` uses.  A candidate of mass 0 adds only zero
blocks (or entries whose squares underflow), so it cannot raise the
corner by the accept margin, ROUNDING_MARGIN * max(1, corner), which scales
with the corner so that rounding noise of a large operator is never a
move; the rank order puts these candidates last.
Its upper member is min(||T - T_R||, ||T||), where T_R is T truncated to
the band of width R: the first norm bounds the violation because
chi_B T_R chi_A = 0 whenever d(A, B) > R, the second because corners
never exceed T.  Both also bound the distance from T to the operators
with propagation <= R, since T_R and 0 are such operators.
||T - T_R|| is `operators.supported_distance_upper` at the identity
map, taken with no operator built.  ||T|| is taken only when
||T - T_R|| is not clearly below T's largest column norm, a lower bound
of ||T||.  On an operator with a sparse form (operators.py, "Sparse
form") both norms are the largest among the components of the form's
entries (CHANGES.md, "Whole-operator norms by components of the nonzero
pattern" and "One norm function"), and the column bound and the
search's block Frobenius norms are read from that form with the dense
route's bytes; without one, all four come from the matrix, the norms
taken whole.

`quasi_locality_violation` takes a value and the unpruned pair (B, A)
attaining it from either algorithm, and is the one place that prunes
the pair to a minimal witness and builds a report.
`approximability_window` keeps the numbers only: its exact side
enumerates the value alone and locates no pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .maps import identity_map
from .operators import (
    ROUNDING_MARGIN, BlockOperator, masked_corner_norms, spectral_norm, supported_distance_upper
)
from .spaces import check_radius

__all__ = [
    "LocalityReport",
    "Witness",
    "quasi_locality_violation",
    "approximability_window",
]

EXACT_LIMIT = 16
SEARCH_RESTARTS = 50


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
    the margin ROUNDING_MARGIN * max(1, value)."""
    B, A = sorted(B), sorted(A)
    floor = value - ROUNDING_MARGIN * max(1.0, value)
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
    rows = B & rows_of[cols], until nothing changes; a step grows only
    the components whose rows changed in the step before, and a round
    carries only the candidates with rows left to cover."""
    empty = np.zeros(0, dtype=np.uint32)
    pieces = [(empty.astype(np.int32), empty, empty)]  # (owner, rows, cols) per round
    seed = b_masks & rows_of[a_masks]  # rows not yet covered with a nonzero block into A
    idx = np.flatnonzero(seed)
    rb, ca, seed = b_masks[idx], a_masks[idx], seed[idx]
    while idx.size:
        rows = seed & (~seed + np.uint32(1))  # the lowest set bit
        cols = ca & cols_of[rows]
        grown = rb & rows_of[cols]
        growing = np.flatnonzero(grown != rows)
        grown = grown[growing]
        while growing.size:
            rows[growing] = grown
            cols[growing] = grown_cols = ca[growing] & cols_of[grown]
            regrown = rb[growing] & rows_of[grown_cols]
            moved = regrown != grown
            growing, grown = growing[moved], regrown[moved]
        pieces.append((idx.astype(np.int32), rows, cols))
        seed &= ~rows
        left = seed != 0
        idx, rb, ca, seed = idx[left], rb[left], ca[left], seed[left]
    return tuple(np.concatenate(part) for part in zip(*pieces))


def _exact_violation(T: BlockOperator, R: float, locate: bool):
    """The exact violation, the largest distinct-component norm of the
    closed candidates' corners (a corner is block-diagonal over its
    components, so its norm is their max), and with `locate` the first
    candidate (B, A) in ascending bitmask order attaining it, unpruned;
    None in its place without `locate` or when no corner is nonzero."""
    base = T.source.base
    n = base.n
    full = np.uint32((1 << n) - 1)
    weights = np.uint32(1) << np.arange(n, dtype=np.uint32)
    nbhd = _mask_table(base.dist <= R)  # nbhd[mask] is the bitmask of N_R(mask)

    allowed = full & ~nbhd[1:]  # largest A for each nonempty B
    closed = np.zeros(1 << n, dtype=bool)  # the closed B with the same A, in ascending order
    closed[full & ~nbhd[allowed]] = True
    b_masks = np.flatnonzero(closed).astype(np.uint32)
    a_masks = full & ~nbhd[b_masks]  # an empty B or A holds no component

    owner, comp_rows, comp_cols = _components(b_masks, a_masks, *T.derived(_reach_tables))
    # candidates share components: each distinct one is normed once
    keys = comp_rows << np.uint32(n) | comp_cols
    # np.unique's values: one sort and a mask of changes (np.unique hashes
    # integers first, several times slower on these keys)
    comps = np.sort(keys)
    distinct = np.ones(comps.size, dtype=bool)
    distinct[1:] = comps[1:] != comps[:-1]
    comps = comps[distinct]
    b_rows = ((comps[:, None] >> np.uint32(n)) & weights[T.target.coord_point]) != 0
    a_cols = (comps[:, None] & weights[T.source.coord_point]) != 0
    norms = masked_corner_norms(T.matrix, b_rows, a_cols)
    top = float(norms.max(initial=0.0))  # entries are finite, so norms are finite and >= 0
    if not locate or top == 0.0:
        return top, None
    # the first maximum in ascending mask order, as a strict-> scan finds
    # it, is the lowest candidate holding a component that attains it
    k = int(owner[np.isin(keys, comps[norms == top])].min())
    return top, (list(np.flatnonzero(b_masks[k] & weights)), list(np.flatnonzero(a_masks[k] & weights)))


def _truncation_upper(T: BlockOperator, R: float) -> float:
    """min(||T - T_R||, ||T||): bounds both the violation at R and the
    distance from T to the operators with propagation <= R.  ||T - T_R||
    is `supported_distance_upper` at the identity map.

    ||T|| is taken only when ||T - T_R|| is not clearly below T's largest
    column norm; ROUNDING_MARGIN keeps rounding from flipping the min.
    A band unitary's tail lies below its unit column norms, so it skips
    ||T|| (timings in CHANGES.md, "One norm function").  The value does
    not depend on the BLAS thread count where the components stay below
    the sizes OpenBLAS threads."""
    tail = supported_distance_upper(T, identity_map(T.source.base), R)
    if tail < (1 - ROUNDING_MARGIN) * T.norm_lower_bound():
        return tail
    return min(tail, T.norm())


class _SearchState:
    """What every restart of the local search shares, built once per call:
    the separation relation, the block Frobenius norms and, per side (0
    is A, the source points and columns; 1 is B, the target points and
    rows), the point of each coordinate and the squared block norms seen
    from that side.  No list of separated pairs is kept: the best
    singleton ranks the nonzero separated blocks only, and a seeded
    restart is located in the relation when it is drawn."""

    def __init__(self, T: BlockOperator, R: float):
        self.T = T
        self.far = T.source.base.dist > R  # far[y, x]: d(y, x) > R; symmetric
        self.frob = T.block_frobenius()
        frob2 = self.frob**2
        self.coord_point = (T.source.coord_point, T.target.coord_point)
        self.frob2 = (frob2.T, frob2)  # [side][p, q]: p on the side, q on the other


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
    mass they would add, then A before B, then by point, and the first
    one whose corner norm exceeds the current one by the margin
    ROUNDING_MARGIN * max(1, value) is taken.  Candidates of mass 0 come
    last and are not normed: they add only zero blocks, or entries whose
    squares underflow, which cannot raise the corner by the margin.

    Both sides grow by one rule, indexed by side (0 is A, 1 is B): a
    side's candidates are the points outside it that are far from every
    point of the other side.  An accepted point joins its side and leaves
    that side's candidates, and the other side's candidates keep only
    the points far from it.  Corner coordinates are read off the point
    masks in ascending order, the order of `BlockOperator.corner_norm`.
    """
    M = s.T.matrix
    sides = (A, B)
    members = np.zeros((2, s.far.shape[0]), dtype=bool)
    for t, points in enumerate(sides):
        members[t, points] = True
    cands = [s.far[:, sides[1 - side]].all(axis=1) & ~members[side] for side in (0, 1)]
    coords = [np.flatnonzero(members[side][s.coord_point[side]]) for side in (0, 1)]
    value = spectral_norm(M[coords[1][:, None], coords[0]])
    for _ in range(2 * s.far.shape[0]):
        points = [np.flatnonzero(c) for c in cands]
        mass = np.concatenate(
            [s.frob2[side][points[side][:, None], sides[1 - side]].sum(axis=1) for side in (0, 1)]
        )
        side = np.repeat([0, 1], [q.size for q in points])
        point = np.concatenate(points)
        order = np.lexsort((point, side, -mass))  # (-mass, "A" < "B", point)
        bar = value + ROUNDING_MARGIN * max(1.0, value)
        for k in order[: np.count_nonzero(mass)]:
            t, p = side[k], int(point[k])
            trial = list(coords)
            members[t, p] = True
            trial[t] = np.flatnonzero(members[t][s.coord_point[t]])
            members[t, p] = False
            cand = spectral_norm(M[trial[1][:, None], trial[0]])
            if cand > bar:
                break
        else:
            break
        sides[t].append(p)
        members[t, p], cands[t][p] = True, False
        cands[1 - t] &= s.far[:, p]
        coords, value = trial, cand
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

    `upper` bounds the violation (the window's upper member): once a start
    reaches (1 - ROUNDING_MARGIN) * upper, the remaining starts, which could
    raise the value by at most the margin plus rounding, are skipped, and
    the restarts are drawn only once a start has left the window open."""
    state = _SearchState(T, R)
    best_value, best_sets = 0.0, None
    for y, x in _starts(state, restarts, seed):
        value, B, A = _grow_pair(state, [y], [x])
        if value > best_value:
            best_value, best_sets = value, (B, A)
            if best_value >= (1 - ROUNDING_MARGIN) * upper:
                break
    return best_value, best_sets


def _violation(T: BlockOperator, R: float, mode: str, locate: bool = False):
    """(R, value, (B, A) or None, upper) of the named mode, in one order
    for every mode and caller.  First the checks both public entry points
    share: one base space, R >= 0, a known mode, and at most EXACT_LIMIT
    points in exact mode; R comes back as checked, a float with -0 read
    as 0.  R at or above T's propagation skips the upper member, the
    enumeration and the search: the value and upper are 0.  Else `upper`
    is `_truncation_upper(T, R)`, exact mode enumerates
    (`_exact_violation`), locating the first candidate attaining the
    value only with `locate` (`quasi_locality_violation`), and bounds
    mode searches until it reaches the upper member up to
    ROUNDING_MARGIN."""
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
    elif mode != "bounds":
        raise ValueError(f"unknown mode {mode!r}; expected 'exact' or 'bounds'")
    if R >= T.propagation():  # no nonzero entry lies farther than R: every separated corner is 0
        return R, 0.0, None, 0.0
    upper = _truncation_upper(T, R)
    if mode == "exact":
        return (R, *_exact_violation(T, R, locate), upper)
    return (R, *_search_violation(T, R, SEARCH_RESTARTS, 0, upper), upper)


def quasi_locality_violation(T: BlockOperator, R: float, mode: str = "exact") -> LocalityReport:
    """sup ||chi_B T chi_A|| over point sets with d(A, B) > R.

    mode "exact" enumerates closed candidate sets (base size at most
    EXACT_LIMIT) and takes each corner's norm as the largest norm of its
    components, the connected pieces of its nonzero-block graph, norming
    each distinct component once; its pair is the first candidate in
    ascending bitmask order attaining the maximum (candidates sharing the
    top component tie exactly), located here only, and both members of
    the report are the value.  Mode "bounds" returns the window
    [local-search lower, min(||T - T_R||, ||T||)], with T_R the truncation
    of T to the band of width R: it runs the search from the best
    separated singleton and SEARCH_RESTARTS seeded restarts, skipping the
    rest once the best corner reaches the upper member up to the relative
    ROUNDING_MARGIN.  Both modes take the input checks first, then the
    upper member, then the enumeration or the search; R at or above T's
    propagation skips the upper member, the enumeration and the search,
    and reports [0, 0] with no witness.  Only here is the
    pair pruned to a minimal witness, which attains violation_lower.
    """
    R, value, sets, upper = _violation(T, R, mode, locate=True)
    witness = None
    if sets is not None and value > ROUNDING_MARGIN:
        witness = _prune_witness(T, *sets, value)
    # value is an achieved corner norm, so it is always a valid lower bound;
    # the max() guards the upper member against float dust only
    exact = mode == "exact"
    return LocalityReport(R, value, value if exact else max(upper, value), exact, witness)


def approximability_window(T: BlockOperator, R: float) -> tuple[float, float]:
    """Window [lower, upper] around the distance from T to the set of
    operators with propagation <= R.

    Any violation value is a lower bound (corners over separated pairs
    vanish on banded operators): the exact one up to EXACT_LIMIT points,
    the local search's above.  The upper bound is min(||T - T_R||, ||T||),
    since both the band truncation T_R and 0 are banded.  Both sides take
    their numbers in the order `quasi_locality_violation` takes them: the
    input checks, then the upper bound, then the lower member.  R at or
    above T's propagation skips the upper member, the enumeration and
    the search: the window is [0, 0].  Otherwise the exact side
    enumerates the violation's value alone (`_exact_violation`, with no
    attaining candidate located), and the search stops once it reaches
    the upper bound up to the relative ROUNDING_MARGIN.  Only numbers are
    computed: no report is built and no witness located or pruned.
    """
    exact = T.source.base.n <= EXACT_LIMIT
    _, lower, _, upper = _violation(T, R, "exact" if exact else "bounds")
    return lower, max(upper, lower)
