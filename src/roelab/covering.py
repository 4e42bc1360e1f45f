"""Covering unitaries for coarse maps and the decompositions built on them.

`covering_unitary` realizes a coarse equivalence f as a permutation of
basis vectors: pick a net on which f is injective, partition both spaces
around the net and its image, and match the fibers block by block.  With
finite fibers the dimension bookkeeping is explicit: either the target
fiber dimensions are synthesized so each block balances exactly, or a
prescribed target space is honored by letting the block-major matching
spill across neighboring blocks (needed when source and target must be
the same space, as in roundtrips).  Either way the result is an exact
0/1 permutation matrix, hence exactly unitary, matched by index
arithmetic with no per-block scan.  A product with the cover is a
gather, not a BLAS product (`BlockOperator.__matmul__`), and its
unitarity residual is 0.0 with no decomposition.

`upgrade_trick` turns a finite-rank propagation-zero projection p into a
propagation-zero unitary V and an operator t supported within R of f
with ||t - UVp|| <= epsilon: the fiber rotations V_i are chosen
inductively so the discarded far corners become pairwise orthogonal, and
the error collapses to the largest single corner instead of the sum.
UVp lives on the columns over p's points, so the step works on column
slabs over those points; only its outputs V and t are N x N.

`outer_roundtrip` is the automorphism-level composite: extract f from U,
cover it by W, and certify that UW* is close to banded by recording its
approximability window over a radius grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .maps import PointMap, greedy_net, voronoi_partition
from .operators import (
    ROUNDING_MARGIN, UNITARITY_TOL, BlockOperator, FiberedSpace, check_unitary, corner_norms,
    spectral_norm,
)
from .extraction import ExtractionReport, extract_pair
from .locality import approximability_window
from .spaces import check_radius, is_integer, is_real, validate_point

__all__ = [
    "CoveringPlan",
    "UpgradeResult",
    "OuterReport",
    "covering_unitary",
    "upgrade_trick",
    "outer_roundtrip",
]


@dataclass(frozen=True)
class CoveringPlan:
    """Read-only, arrays included: a cached plan is shared by its callers."""

    net: np.ndarray
    separation: float
    source_blocks: tuple
    target_blocks: tuple
    assignment: np.ndarray  # global target coordinate for each source coordinate
    support_radius: float  # max d(f(x), y) over matched coordinates
    target_fiber_dims: np.ndarray  # of the unitary's target, which holds the space
    spill: bool  # block totals were not balanced; matching crossed blocks


def _injective_net(f: PointMap, separation: float):
    """Smallest separation >= the given one whose greedy net makes f
    injective, tried at the given one and the realized distances above it.
    One always does: the last separation tried is at least the diameter,
    where the net is a single point."""
    X = f.source
    realized = X.realized_distances()
    for s in [separation, *realized[realized > separation]]:
        net = greedy_net(X, s)
        if np.unique(f.values[net]).size == net.size:
            return float(s), net


def _starts(blocks) -> np.ndarray:
    """Where each block begins in the blocks' concatenation."""
    sizes = np.array([blk.size for blk in blocks])
    return np.cumsum(sizes) - sizes


def _coordinate_stream(space: FiberedSpace, points: np.ndarray) -> np.ndarray:
    """The coordinates of the fibers over the points, point by point in
    the given order, each fiber's ascending: the stream's positions,
    shifted per point by its offset minus where its fiber starts."""
    dims = space.fiber_dims[points]
    return np.arange(int(dims.sum())) + np.repeat(space.offsets[points] - (np.cumsum(dims) - dims), dims)


def covering_unitary(
    f: PointMap,
    source: FiberedSpace,
    separation: float = 0.0,
    target: FiberedSpace | None = None,
) -> tuple[BlockOperator, CoveringPlan]:
    """Unitary permutation of basis vectors covering the coarse map f.

    Without a prescribed target, fiber dimensions on the target side are
    synthesized per plan block (spread as evenly as possible, remainders
    to the smallest point indices) so every block balances exactly.  With
    a prescribed target the totals must match globally and the block-major
    matching may spill across block boundaries; the support radius is
    measured either way.

    The blocks, concatenated, give each side's block-major point order.
    The spill test and the synthesized dimensions read per-block fiber
    totals, summed over that order by `np.add.reduceat`.  Each side's
    coordinate stream comes from one `np.repeat` over that order
    (`_coordinate_stream`), and the k-th source coordinate goes to the
    k-th target coordinate.
    """
    if f.source != source.base:
        raise ValueError("the fibered source must sit over the map's source space")
    Y = f.target
    s_used, net = _injective_net(f, check_radius(separation, "separation"))
    source_blocks = tuple(voronoi_partition(f.source, net))
    image = f.values[net]
    target_blocks = tuple(voronoi_partition(Y, image))

    # block-major point orders; every block is a Voronoi cell holding its
    # center, so none is empty and reduceat sums each block on its own
    src_points, tgt_points = np.concatenate(source_blocks), np.concatenate(target_blocks)
    src_starts, tgt_starts = _starts(source_blocks), _starts(target_blocks)
    src_totals = np.add.reduceat(source.fiber_dims[src_points], src_starts)
    if target is None:
        sizes = np.diff(tgt_starts, append=tgt_points.size)
        short = np.flatnonzero(src_totals < sizes)
        if short.size:
            raise ValueError(
                f"cannot reconcile fibers: block around net point with source total "
                f"{src_totals[short[0]]} must cover {sizes[short[0]]} target points; "
                f"increase source fiber dims"
            )
        # spread each total over its block, the remainder to its first points
        base_dim, rem = np.divmod(src_totals, sizes)
        rank = np.arange(tgt_points.size) - np.repeat(tgt_starts, sizes)
        dims_t = np.zeros(Y.n, dtype=np.int64)
        dims_t[tgt_points] = np.repeat(base_dim, sizes) + (rank < np.repeat(rem, sizes))
        target = FiberedSpace(Y, dims_t)
    else:
        if target.base != Y:
            raise ValueError("prescribed target space must sit over the map's target space")
        if target.total_dim != source.total_dim:
            raise ValueError(
                f"total dimensions must match to build a unitary: "
                f"{source.total_dim} != {target.total_dim}"
            )

    # a synthesized target balances every block, so only a prescribed one spills
    tgt_totals = np.add.reduceat(target.fiber_dims[tgt_points], tgt_starts)
    spill = bool((src_totals != tgt_totals).any())
    assignment = np.zeros(source.total_dim, dtype=np.int64)
    assignment[_coordinate_stream(source, src_points)] = _coordinate_stream(target, tgt_points)

    mat = np.zeros((target.total_dim, source.total_dim), dtype=complex)
    mat[assignment, np.arange(source.total_dim)] = 1.0
    U = BlockOperator(source, target, mat, _checked=True)

    src_pts = source.coord_point
    tgt_pts = target.coord_point[assignment]
    support_radius = float(Y.dist[f.values[src_pts], tgt_pts].max())
    for arr in (net, assignment, *source_blocks, *target_blocks):
        arr.setflags(write=False)
    plan = CoveringPlan(
        net=net,
        separation=s_used,
        source_blocks=source_blocks,
        target_blocks=target_blocks,
        assignment=assignment,
        support_radius=support_radius,
        target_fiber_dims=target.fiber_dims,
        spill=spill,
    )
    return U, plan


@dataclass
class UpgradeResult:
    V: BlockOperator  # propagation-zero unitary on the source space
    t: BlockOperator  # R-supported on f
    error: float  # ||t - UVp||
    R: float
    epsilon: float
    ortho_residual: float  # largest ||d_i* d_j|| over pairs of discarded terms


def _orthonormal_columns(mat: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span of a matrix with at least one
    row and one column, empty for (numerically) zero input."""
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    rank = int(np.sum(s > ROUNDING_MARGIN * max(s[0], 1.0)))
    return u[:, :rank]


def _complement(basis: np.ndarray, dim: int) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the given columns."""
    if basis.shape[1] == 0:
        return np.eye(dim, dtype=complex)
    u, _, _ = np.linalg.svd(basis, full_matrices=True)
    return u[:, basis.shape[1] :]


def _support_radius_for(U: BlockOperator, f: PointMap, epsilon: float) -> float:
    """Smallest realized radius with ||chi_{complement ball(f(x), R)} U chi_x|| <= epsilon
    for every source point x, given epsilon > 0.  One always qualifies: at
    the diameter, the last realized distance, every complement is empty."""
    tbase = U.target.base
    for R in tbase.realized_distances():
        # row x masks the complement of ball(f(x), R), so the diagonal holds x's corner
        if np.diagonal(corner_norms(U, tbase.dist[f.values] > R)).max() <= epsilon:
            return float(R)


def upgrade_trick(U: BlockOperator, f: PointMap, p_spec, epsilon: float) -> UpgradeResult:
    """Build (V, t) with V a propagation-zero unitary, t R-supported on f,
    and ||t - UVp|| <= epsilon, for p the projection described by p_spec.

    p_spec is a list of (x_i, E_i) pairs with distinct points x_i; E_i is
    either an integer k (the first k fiber basis vectors at x_i) or a
    matrix of k orthonormal fiber columns, with 1 <= k <= d_{x_i} in
    both forms, so every slab below has a column.  Feasibility needs the
    fiber at x_i to hold dim E_i plus the trace of the previously
    discarded corners; the error message reports the minimal sufficient
    dimension when it does not.

    UVp is zero outside the columns over the x_i, so every intermediate
    value is a slab of N rows (N the total fiber dimension) by the
    columns over one x_i; only V and t are built as N x N matrices.
    """
    check_unitary(U)
    if f.source != U.source.base or f.target != U.target.base:
        raise ValueError("map must go from the operator's source base to its target base")
    if not (is_real(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be > 0, got {epsilon!r}")

    src = U.source
    spec = []
    for x_i, E in p_spec:
        x_i = validate_point(x_i, src.base.n)
        d = int(src.fiber_dims[x_i])
        if np.ndim(E) == 0:  # a rank, not a basis
            if not is_integer(E):
                raise ValueError(f"rank at point {x_i} must be an integer, got {E!r}")
            rank = int(E)
            E = np.eye(d, dtype=complex)[:, :rank]
        else:
            E = np.asarray(E, dtype=complex)
            if E.ndim != 2 or E.shape[0] != d:
                raise ValueError(f"basis at point {x_i} must have {d} rows")
            if spectral_norm(E.conj().T @ E - np.eye(E.shape[1])) > UNITARITY_TOL:
                raise ValueError(f"basis columns at point {x_i} are not orthonormal")
            rank = E.shape[1]
        if not 1 <= rank <= d:
            raise ValueError(f"rank {rank} out of range for fiber dimension {d} at point {x_i}")
        spec.append((x_i, E))
    spec.sort(key=lambda item: item[0])
    if len({x for x, _ in spec}) != len(spec):
        raise ValueError("p_spec points must be distinct")

    R = _support_radius_for(U, f, epsilon)
    tbase = U.target.base
    outside_mask = [(tbase.dist[f.values[x_i]] > R)[U.target.coord_point] for x_i, _ in spec]
    v_mat = np.eye(src.total_dim, dtype=complex)
    t_mat = np.zeros((U.target.total_dim, src.total_dim), dtype=complex)
    f_columns = []  # F_j = U(x_j (x) V_j)E_j, target rows by k_j columns
    discarded = []  # d_j: the rows of UVp's slab over x_j outside ball(f(x_j), R)
    for i, (x_i, E_i) in enumerate(spec):
        sl = src.slice_of(x_i)
        d = int(src.fiber_dims[x_i])
        k = E_i.shape[1]
        # V_i(E_i) must avoid the fiber footprint G of the earlier discarded corners
        U_i = U.matrix[:, sl]
        spans = [
            U_i.conj().T @ (F_j * (outside_mask[i] & outside_mask[j])[:, None])
            for j, F_j in enumerate(f_columns)
        ]
        G = _orthonormal_columns(np.concatenate(spans, axis=1)) if spans else np.zeros((d, 0))
        if k + G.shape[1] > d:
            raise ValueError(
                f"fiber at point {x_i} too small: need dimension >= {k + G.shape[1]} "
                f"(rank {k} plus footprint {G.shape[1]}), have {d}"
            )
        W = _complement(G, d)[:, :k]
        # [W | complement of W] and [E_i | complement of E_i] are both
        # orthonormal bases, so V_i below is unitary and sends E_i into
        # the span of W, away from G
        V_i = W @ E_i.conj().T + _complement(W, d) @ _complement(E_i, d).conj().T
        v_mat[sl, sl] = V_i
        F_i = U_i @ (V_i @ E_i)
        f_columns.append(F_i)
        uvp_i = F_i @ E_i.conj().T
        t_mat[:, sl] = uvp_i * ~outside_mask[i][:, None]
        discarded.append(uvp_i * outside_mask[i][:, None])

    ortho = 0.0
    for i in range(len(discarded)):
        for j in range(i + 1, len(discarded)):
            # only d_i* d_j can be nonzero: d_i d_j* pairs disjoint column blocks
            ortho = max(ortho, spectral_norm(discarded[i].conj().T @ discarded[j]))
    # t - UVp is -d_i on the columns over x_i and zero elsewhere
    error = spectral_norm(np.concatenate(discarded, axis=1)) if discarded else 0.0
    return UpgradeResult(
        V=BlockOperator(src, src, v_mat),
        t=BlockOperator(src, U.target, t_mat),
        error=float(error),
        R=R,
        epsilon=float(epsilon),
        ortho_residual=float(ortho),
    )


@dataclass
class OuterReport:
    extraction: ExtractionReport
    plan: CoveringPlan
    windows: list  # (R, lower, upper) for U W*
    residual_U: float
    residual_W: float
    residual_UWs: float


def outer_roundtrip(U: BlockOperator, delta: float = 0.5, radius_grid=None) -> OuterReport:
    """Decompose an automorphism-like unitary as U = (UW*) W.

    Extracts the coarse map f from U, covers it by a unitary W on the
    same fibered space, and records how approximable UW* is by banded
    operators across the radius grid: the upper window member collapsing
    as R grows is the desk-scale content of the outer-automorphism
    statement.
    """
    if U.source != U.target:
        raise ValueError("outer roundtrip needs an operator on a single fibered space")
    residual_U = U.unitarity_residual()
    extraction = extract_pair(U, delta)  # checks U on the residual just stored
    W, plan = covering_unitary(extraction.f, U.source, target=U.source)
    UWs = U @ W.adjoint()
    if radius_grid is None:
        dists = U.source.base.realized_distances()
        radius_grid = dists if dists.size <= 6 else np.unique(
            np.quantile(dists, [0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
        )
    windows = []
    for R in radius_grid:
        R = check_radius(R, "separation radius")  # the window's own check, so -0 reads as 0
        lower, upper = approximability_window(UWs, R)
        windows.append((R, float(lower), float(upper)))
    return OuterReport(
        extraction=extraction,
        plan=plan,
        windows=windows,
        residual_U=float(residual_U),
        residual_W=float(W.unitarity_residual()),
        residual_UWs=float(UWs.unitarity_residual()),
    )
