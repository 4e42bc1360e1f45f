"""Block operators on fibered finite metric spaces.

A fibered space attaches a fiber dimension d_x >= 1 to every point of a
finite metric space; an operator between two fibered spaces is stored as
one dense complex matrix whose rows and columns are grouped into blocks
T[y][x] of shape d_y x d_x.  Band structure (propagation, truncation,
corners) is always expressed at the block level, so exact zero blocks
play the role of absent blocks.

Norms: `spectral_norm` (on an operator, `T.norm()`) is the one norm,
and every reported norm is exact: a full SVD for a square matrix (the
differences T - T_R, fiber blocks), the square root of `gram_top` of
the smaller side's Gram matrix for a rectangular one (corners, often
stacked), or the SVD when that top is below 2^-900, where the squares
may have underflowed.  A whole-operator norm (`T.norm()`, and so every
tail norm of `locality`) is the largest norm among the connected
components of the bipartite graph of T's nonzero entries: an all-zero
matrix is 0 with no decomposition, and from `SPLIT_MIN` rows or columns
on the components are labelled and normed as `masked_corner_norms`
stacks, while a smaller, dense or one-component matrix takes
`spectral_norm` whole.  A norm whose components all stay below the sizes
OpenBLAS threads does not depend on the BLAS thread count.  The
unitarity residual takes no norm: it reads
the spectrum of one Hermitian matrix G - I, with G the Gram matrix on
the smaller side.  The unitarity check decides on the Frobenius norm of
the same G - I first, an upper bound of the residual, and decomposes
only when that bound cannot decide.

Corners: `corner_norms` is the one masked corner kernel, giving
||chi_B U chi_x|| for every source point x and every target point set B
of a boolean mask (`extraction.corner_norm_table` at ball masks) from
d^2 real column parts per point of fiber dimension d.  Every Gram top,
there and in `spectral_norm`, comes from `gram_top`, which no other
module names.  `masked_corner_norms` norms the exact enumeration's
corners and the components of a whole-operator norm.  One byte budget,
`STACK_BYTES` (2 MiB), caps each batched stack of both, and no other
module names it.  The column parts do not
depend on the mask: those of a group that fits one chunk are kept on
the operator, so a radius scan gathers them once.

What is derived from an operator alone is kept on it by one accessor,
`BlockOperator.derived`: the norm, the unitarity residual and outcome,
the corner parts, and the exact quasi-locality enumeration's tables
(built in `locality`).  An adjoint inherits only the residual and the
unitarity outcome, which are the same for T and T*.

Operator entries stay below 1e150 in modulus, so the squares in a Gram
product cannot overflow.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .maps import PointMap
from .spaces import (
    FiniteMetricSpace, check_radius, integer_array, is_integer, validate_point, validate_points
)

__all__ = [
    "FiberedSpace",
    "BlockOperator",
    "check_unitary",
    "corner_norms",
    "gram_top",
    "identity_operator",
    "masked_corner_norms",
    "random_band_unitary",
    "spectral_norm",
]

PROPAGATION_TOL = 1e-12
UNITARITY_TOL = 1e-9
# byte budget of one batched stack (a Gram chunk of `corner_norms`, equal-shape
# corners of `masked_corner_norms`); each matrix is normed alone
STACK_BYTES = 2 << 20
SPLIT_MIN = 96
"""The size, in rows or columns whichever are more, from which
`BlockOperator.norm()` labels the components of the nonzero pattern
instead of norming the whole matrix.
The labelling costs about 0.3 ms on these tails, which the full SVD
outgrows between 64 and 80 coordinates; at 80 the two time ranges
overlapped in one of three measurement rounds, at 96 in none.  Median
times of the last round on the tails at R = 3 of noisy reflection covers
(1 layer, noise radius 2, 1-dim fibers, seeds 0-2), one BLAS thread,
2-core host:

    coordinates   split          full SVD
    26            337-389 us     92-96 us
    64            497-508 us     467-478 us
    80            551-573 us     713-903 us
    96            617-636 us     1.1-1.5 ms
    128           666-799 us     1.8-3.1 ms
    200           774-958 us     5.0-7.5 ms
    800           7.7-11 ms      367-431 ms
"""


class FiberedSpace:
    """A finite metric space with a fiber dimension at every point.

    Fiber dimensions are integers >= 1, by the integer rule of `spaces`.
    """

    def __init__(self, base: FiniteMetricSpace, fiber_dims):
        dims = integer_array(fiber_dims, "fiber dimensions").astype(np.int64)
        if dims.shape != (base.n,):
            got = dims.size if dims.ndim == 1 else f"shape {dims.shape}"
            raise ValueError(f"need one fiber dimension per point: expected {base.n}, got {got}")
        if (dims < 1).any():
            raise ValueError("all fiber dimensions must be >= 1")
        self.base = base
        self.fiber_dims = dims
        self.offsets = np.concatenate(([0], np.cumsum(dims)))
        self.total_dim = int(self.offsets[-1])
        # point index of each global coordinate, for block masking
        self.coord_point = np.repeat(np.arange(base.n, dtype=np.int64), dims)
        self.fiber_dims.setflags(write=False)
        self.offsets.setflags(write=False)
        self.coord_point.setflags(write=False)

    @classmethod
    def uniform(cls, base: FiniteMetricSpace, dim: int) -> "FiberedSpace":
        return cls(base, np.full(base.n, dim))

    def slice_of(self, x: int) -> slice:
        x = validate_point(x, self.base.n)
        return slice(int(self.offsets[x]), int(self.offsets[x + 1]))

    def coords_of(self, points) -> np.ndarray:
        """Global coordinate indices of the fibers over a point set."""
        return np.flatnonzero(self.coord_mask(points))

    def coord_mask(self, points) -> np.ndarray:
        points = validate_points(points, self.base.n)
        mask = np.zeros(self.base.n, dtype=bool)
        mask[points] = True
        return mask[self.coord_point]

    def __eq__(self, other):
        if not isinstance(other, FiberedSpace):
            return NotImplemented
        return self.base == other.base and np.array_equal(self.fiber_dims, other.fiber_dims)

    def __repr__(self):
        return f"FiberedSpace(n={self.base.n}, total_dim={self.total_dim})"


def _gram_top_2x2(a: np.ndarray, c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Top eigenvalue of each Hermitian [[a, conj(b)], [b, c]], given its
    diagonal a, c and the modulus b of its lower entry, which `eigvalsh`
    reads: (a + c)/2 + hypot((a - c)/2, b).  The Grams are positive
    semidefinite, so a, c >= 0 and both terms are >= 0: the sum has no
    cancellation and stays within a few ulps of the LAPACK value."""
    return 0.5 * (a + c) + np.hypot(0.5 * (a - c), b)


def gram_top(stack: np.ndarray) -> np.ndarray:
    """Top eigenvalue of each Gram matrix of a (..., d, d) stack: the
    entry for d = 1, `_gram_top_2x2` of the diagonal and lower entry for
    d = 2, one batched `eigvalsh` for d >= 3."""
    d = stack.shape[-1]
    if d == 1:
        return stack[..., 0, 0].real
    if d == 2:
        return _gram_top_2x2(stack[..., 0, 0].real, stack[..., 1, 1].real, np.abs(stack[..., 1, 0]))
    return np.linalg.eigvalsh(stack)[..., -1]


def spectral_norm(mat):
    """Largest singular value, computed exactly with dense linear algebra.

    A square matrix gets a full SVD.  A rectangular one, a vector
    included, gets the square root of `gram_top` of its smaller side's
    Gram matrix, or the SVD when that top is below 2^-900, where the
    squares may have underflowed (a block of 1e-170 has a Gram of 0).
    The rule follows the measured traffic: the square inputs are sparse
    differences, faster by SVD, and the rectangular ones mostly stacked
    corners, faster by one batched Gram product.

    A (k, rows, cols) stack of equal-shape matrices gives the array of
    its k values from one batched call, each bit for bit the value of its
    own matrix: the route depends on the shape and on the matrix's own
    Gram top only, and the batched matmul and LAPACK calls run the
    per-matrix routine on every matrix.
    """
    mat = np.asarray(mat)
    rows, cols = mat.shape[-2:]
    if mat.size == 0:
        return 0.0 if mat.ndim == 2 else np.zeros(mat.shape[:-2])
    if rows == cols:
        tops = np.linalg.svd(mat, compute_uv=False)[..., 0]
    else:
        adj = mat.conj().swapaxes(-1, -2)
        grams = gram_top(mat @ adj if rows < cols else adj @ mat)
        tops = np.array(np.sqrt(np.maximum(grams, 0.0)))  # 0-d for one matrix
        tiny = grams < 2.0**-900
        if tiny.any():
            tops[tiny] = np.linalg.svd(mat[tiny], compute_uv=False)[..., 0]
    return float(tops) if mat.ndim == 2 else tops


class BlockOperator:
    """A complex linear map between two fibered spaces, stored dense.

    The matrix has shape (target.total_dim, source.total_dim); the block
    at (y, x) is the submatrix over the fibers of y and x.  Exact zero
    blocks carry the band-sparsity structure.
    """

    def __init__(self, source: FiberedSpace, target: FiberedSpace, matrix):
        matrix = np.array(matrix, dtype=complex, order="C")
        expected = (target.total_dim, source.total_dim)
        if matrix.shape != expected:
            raise ValueError(f"matrix shape {matrix.shape} does not match fibers {expected}")
        # NaN fails this test too; below 1e150, squares in Gram products cannot overflow
        if not np.abs(matrix.view(float)).max(initial=0.0) < 1e150:
            raise ValueError("operator entries must be finite and below 1e150 in modulus")
        self.source = source
        self.target = target
        self.matrix = matrix  # a private copy, so what `derived` keeps stays valid
        self.matrix.setflags(write=False)
        self._derived = {}  # (build, *args) -> build(self, *args)

    @classmethod
    def from_blocks(cls, source: FiberedSpace, target: FiberedSpace, blocks: dict) -> "BlockOperator":
        """Assemble from a {(y, x): d_y x d_x array} dict; absent blocks are zero."""
        mat = np.zeros((target.total_dim, source.total_dim), dtype=complex)
        for (y, x), blk in blocks.items():
            rows, cols = target.slice_of(y), source.slice_of(x)  # checks the points first
            blk = np.asarray(blk, dtype=complex)
            shape = (rows.stop - rows.start, cols.stop - cols.start)
            if blk.shape != shape:
                raise ValueError(f"block ({y},{x}) has shape {blk.shape}, expected {shape}")
            mat[rows, cols] = blk
        return cls(source, target, mat)

    def block(self, y: int, x: int) -> np.ndarray:
        return self.matrix[self.target.slice_of(y), self.source.slice_of(x)]

    def adjoint(self) -> "BlockOperator":
        adj = BlockOperator(self.target, self.source, self.matrix.conj().T)
        # the residual, and for square T the Frobenius bound, are symmetric under adjoints
        adj._derived = {key: value for key, value in self._derived.items() if key[0] in _ADJOINT_INVARIANT}
        return adj

    def derived(self, build, *args):
        """build(self, *args), computed on first use for each (build, args)
        and kept on the operator; an array in it, or in a tuple it returns,
        is made read-only.  `build` is a module-level function and the
        value depends on the operator alone, never on a radius or a mask."""
        key = (build, *args)
        if key not in self._derived:
            value = build(self, *args)
            for part in value if isinstance(value, tuple) else (value,):
                if isinstance(part, np.ndarray):
                    part.setflags(write=False)
            self._derived[key] = value
        return self._derived[key]

    def __matmul__(self, other: "BlockOperator") -> "BlockOperator":
        if not isinstance(other, BlockOperator):
            return NotImplemented
        if other.target != self.source:
            raise ValueError("compose: inner operator's target must match outer's source")
        return BlockOperator(other.source, self.target, self.matrix @ other.matrix)

    def __add__(self, other):
        if not isinstance(other, BlockOperator):
            return NotImplemented
        if other.source != self.source or other.target != self.target:
            raise ValueError("operator sum needs matching fibered spaces")
        return BlockOperator(self.source, self.target, self.matrix + other.matrix)

    def __sub__(self, other):
        if not isinstance(other, BlockOperator):
            return NotImplemented
        if other.source != self.source or other.target != self.target:
            raise ValueError("operator difference needs matching fibered spaces")
        return BlockOperator(self.source, self.target, self.matrix - other.matrix)

    def __mul__(self, scalar):
        return BlockOperator(self.source, self.target, self.matrix * complex(scalar))

    __rmul__ = __mul__

    def norm(self) -> float:
        """Spectral norm, the largest norm among the components of the
        nonzero pattern (`_norm`); computed once per operator and stored."""
        return self.derived(_norm)

    def norm_lower_bound(self) -> float:
        """T's largest column norm max_j ||T e_j||, a lower bound of
        ||T|| that takes no decomposition; 0 for an empty matrix."""
        return float(np.linalg.norm(self.matrix, axis=0).max(initial=0.0))

    def block_frobenius(self) -> np.ndarray:
        """Per-block Frobenius norms as an (n_target, n_source) array."""
        sq = np.abs(self.matrix) ** 2
        by_rows = np.add.reduceat(sq, self.target.offsets[:-1], axis=0)
        by_both = np.add.reduceat(by_rows, self.source.offsets[:-1], axis=1)
        return np.sqrt(by_both)

    def _same_base(self):
        if self.source.base != self.target.base:
            raise ValueError("this operation needs source and target over the same base space")
        return self.source.base

    def propagation(self) -> float:
        """Largest d(x, y) carrying a block of spectral norm > PROPAGATION_TOL;
        0 if none.

        Frobenius norms bound the decision from both sides, so per-block
        SVDs run only in the narrow ambiguous band.
        """
        base = self._same_base()
        frob = self.block_frobenius()
        min_dim = np.minimum(
            self.target.fiber_dims[:, None], self.source.fiber_dims[None, :]
        )
        definitely = frob > PROPAGATION_TOL * np.sqrt(min_dim)  # spectral >= frob/sqrt(min_dim)
        ambiguous = (frob > PROPAGATION_TOL) & ~definitely
        for y, x in np.argwhere(ambiguous):
            if spectral_norm(self.block(y, x)) > PROPAGATION_TOL:
                definitely[y, x] = True
        if not definitely.any():
            return 0.0
        return float(base.dist[definitely].max())

    def corner_norm(self, B, A) -> float:
        """||chi_B T chi_A||, via the submatrix (padding zeros do not matter)."""
        rows = self.target.coords_of(B)
        cols = self.source.coords_of(A)
        return spectral_norm(self.matrix[np.ix_(rows, cols)])

    def band_truncate(self, R: float) -> "BlockOperator":
        """Zero every block at base distance > R; result has propagation <= R.
        This is `supported_mask` at the identity map."""
        return self.supported_mask(np.arange(self._same_base().n), R)

    def supported_mask(self, f_values: np.ndarray, R: float) -> "BlockOperator":
        """Keep only blocks (y, x) with d(f(x), y) <= R in the target metric."""
        f = PointMap(self.source.base, self.target.base, f_values)  # checks the table
        keep = self.target.base.dist[:, f.values] <= check_radius(R, "support radius")
        coords = keep[np.ix_(self.target.coord_point, self.source.coord_point)]
        return BlockOperator(self.source, self.target, self.matrix * coords)

    def _gram_minus_identity(self) -> np.ndarray:
        """G - I, with G the Gram matrix on the smaller side (T*T when T is
        square).  I is subtracted before any norm or decomposition, which
        keeps the absolute error near eps * ||G - I|| rather than
        eps * ||G||."""
        mat = self.matrix
        rows, cols = mat.shape
        gram = mat.conj().T @ mat if cols <= rows else mat @ mat.conj().T
        gram[np.diag_indices_from(gram)] -= 1.0
        return gram

    def unitarity_residual(self) -> float:
        """max(||T*T - I||, ||TT* - I||); 0 exactly for permutation matrices.

        One Hermitian eigenvalue call gives it: the residual is the
        largest |eigenvalue| of G - I, with G the Gram matrix on the
        smaller side.  For square T, T*T and TT* have the same spectrum,
        so the two norms agree.  Otherwise the larger Gram matrix has G's
        eigenvalues plus zeros, and each zero contributes |0 - 1| = 1, so
        the residual is max(||G - I||, 1).  This is the exact value every
        report prints; `check_unitary` computes it only when a Frobenius
        bound cannot decide.  Computed once per operator and stored.
        """
        return self.derived(_residual)

    def __repr__(self):
        return (
            f"BlockOperator({self.source.base.n}x{self.source.fiber_dims.max()} -> "
            f"{self.target.base.n}x{self.target.fiber_dims.max()}, "
            f"total {self.matrix.shape[1]} -> {self.matrix.shape[0]})"
        )


def _norm(T: BlockOperator) -> float:
    """||T||, the largest norm among the connected components of the
    bipartite row/column graph of T's nonzero entries (the singular values
    of a matrix are those of its components together).  An entry counts
    when it is not exactly 0, so a 1e-170 entry does.  An all-zero matrix
    is 0.0 with no decomposition.  Below `SPLIT_MIN` rows and columns, and
    whenever a full row or column joins everything into one component (a
    dense matrix, whose labelling would cost more than the check: 3.6 ms
    on top of an 11.8 ms SVD for 1 - 2P on 256 points, P the projection
    onto the constants), the whole matrix takes `spectral_norm`;
    otherwise the components are labelled by `connected_components` and
    normed by `masked_corner_norms`, and one component alone is again the
    whole matrix's `spectral_norm`."""
    mat = T.matrix
    nonzero = mat != 0
    if not nonzero.any():
        return 0.0
    if max(mat.shape) < SPLIT_MIN or nonzero.all(axis=0).any() or nonzero.all(axis=1).any():
        return spectral_norm(mat)
    rows, cols = np.nonzero(nonzero)
    m, n = mat.shape
    # rows are nodes 0..m-1 and columns m..m+n-1; np.nonzero lists the edges by row
    indptr = np.searchsorted(rows, np.arange(m + n + 1))
    graph = csr_matrix((np.ones(rows.size), cols + m, indptr), shape=(m + n, m + n))
    labels = connected_components(graph, directed=False)[1]
    comps = np.unique(labels[rows])  # zero rows and columns are components of their own
    if comps.size == 1:
        return spectral_norm(mat)
    row_masks, col_masks = labels[:m] == comps[:, None], labels[m:] == comps[:, None]
    return float(masked_corner_norms(mat, row_masks, col_masks).max())


def _residual(T: BlockOperator) -> float:
    rows, cols = T.matrix.shape
    residual = float(np.abs(np.linalg.eigvalsh(T._gram_minus_identity())).max())
    return residual if rows == cols else max(residual, 1.0)


def _unitary(U: BlockOperator) -> bool:
    """Outcome of `check_unitary`: the Frobenius bound for a square U
    whose residual is not stored yet, the exact residual otherwise."""
    if U.matrix.shape[0] == U.matrix.shape[1] and (_residual,) not in U._derived:
        gram = U._gram_minus_identity()
        if np.sqrt(np.vdot(gram, gram).real) <= UNITARITY_TOL:
            return True
    return U.unitarity_residual() <= UNITARITY_TOL


# what an adjoint inherits: T and T* have the same residual and unitarity outcome
_ADJOINT_INVARIANT = (_residual, _unitary)


def check_unitary(U: BlockOperator) -> None:
    """ValueError when U's unitarity residual exceeds UNITARITY_TOL.

    A stored residual decides first.  Otherwise, for square U,
    ||G - I|| <= ||G - I||_F (G the Gram matrix of U), so a Frobenius
    norm at most the tolerance passes without a decomposition.  Every
    other case (a bound above the tolerance, an inf or NaN bound, a
    rectangular U, whose residual is at least 1) takes the exact
    `unitarity_residual`, which the error reports.  Decided once per
    operator and stored; an adjoint shares the outcome.
    """
    if not U.derived(_unitary):
        residual = U.unitarity_residual()
        raise ValueError(f"operator is not unitary: residual {residual:.3g} > {UNITARITY_TOL:g}")


def _corner_parts(U: BlockOperator, points: np.ndarray, d: int) -> np.ndarray:
    """What `corner_norms` multiplies its mask into for source points of
    fiber dimension d, gathered with `np.take`: (rows, k, d * d), the
    |c_i|^2 of the point's columns c_i, then Re and then Im of
    conj(c_i) c_j for i > j in `np.tril_indices` order."""
    cols = np.take(U.matrix, U.source.offsets[points][:, None] + np.arange(d), axis=1)  # (rows, k, d)
    cross = [cols[..., i, None].conj() * cols[..., :i] for i in range(1, d)]  # conj(c_i) c_j, j < i
    parts = [cols.real**2 + cols.imag**2] + [c.real for c in cross] + [c.imag for c in cross]
    return np.concatenate(parts, axis=-1)


def _parts_top(sums: np.ndarray, d: int) -> np.ndarray:
    """Top eigenvalue of each Gram matrix from its d^2 real parts in the
    order of `_corner_parts`: the entry for d = 1, `_gram_top_2x2` for
    d = 2, `gram_top` of the lower triangle (what `eigvalsh` reads),
    clipped at 0, for d >= 3."""
    if d == 1:
        return sums[..., 0]
    if d == 2:
        return _gram_top_2x2(sums[..., 0], sums[..., 1], np.hypot(sums[..., 2], sums[..., 3]))
    i, j = np.tril_indices(d, -1)
    gram = np.zeros(sums.shape[:-1] + (d, d), dtype=complex)
    gram[..., np.arange(d), np.arange(d)] = sums[..., :d]
    gram[..., i, j] = sums[..., d : d + i.size] + 1j * sums[..., d + i.size :]
    return np.maximum(gram_top(gram), 0.0)  # eigvalsh may dip below 0


def _group_parts(U: BlockOperator, d: int) -> np.ndarray:
    """`_corner_parts` of U's whole group of fiber dimension d."""
    return _corner_parts(U, np.flatnonzero(U.source.fiber_dims == d), d)


def corner_norms(U: BlockOperator, rows: np.ndarray) -> np.ndarray:
    """(k, n_source) array of ||chi_B U chi_x|| over the k target point sets B
    given by the rows of a boolean (k, n_target) mask.

    The mask is cast to float once.  Each group of source points of
    fiber dimension d takes one real product of the mask with its column
    parts (`_corner_parts`), the real parts of every corner's Gram
    matrix, whose tops `_parts_top` reads.  Groups with d >= 2 go in
    chunks of at most `STACK_BYTES`, at 16 d^2 bytes per mask row and
    point; a d = 1 group stays whole, its product being no larger than
    the table.  Entries equal the per-point computation up to summation
    order (a few ulps).  A group that fits one chunk keeps its parts on U
    (`BlockOperator.derived`), so a radius scan builds them once.
    """
    source = U.source
    mask = rows[:, U.target.coord_point].astype(float)  # (k, target coords)
    out = np.zeros((len(rows), source.base.n))
    for d in np.unique(source.fiber_dims):
        points = np.flatnonzero(source.fiber_dims == d)
        step = max(1, STACK_BYTES // (max(mask.shape) * d * d * 16))
        chunks = [points] if d == 1 else np.array_split(points, -(-points.size // step))
        for chunk in chunks:
            parts = U.derived(_group_parts, d) if len(chunks) == 1 else _corner_parts(U, chunk, d)
            sums = (mask @ parts.reshape(len(parts), -1)).reshape(len(rows), chunk.size, d * d)
            out[:, chunk] = np.sqrt(_parts_top(sums, d))
    return out


def masked_corner_norms(matrix: np.ndarray, row_masks: np.ndarray, col_masks: np.ndarray) -> np.ndarray:
    """`spectral_norm` of matrix[rows][:, cols] for each pair of boolean
    coordinate masks, the rows of row_masks and col_masks, none of them
    empty, from one call per equal-shape stack of at most `STACK_BYTES`."""
    n_rows, n_cols = row_masks.sum(axis=1), col_masks.sum(axis=1)
    key = n_rows * (matrix.shape[1] + 1) + n_cols
    norms = np.zeros(key.size)
    for shape in np.unique(key):
        group = np.flatnonzero(key == shape)
        rows, cols = int(n_rows[group[0]]), int(n_cols[group[0]])
        step = max(1, STACK_BYTES // (rows * cols * matrix.itemsize))
        for start in range(0, group.size, step):
            chunk = group[start : start + step]
            r = np.nonzero(row_masks[chunk])[1].reshape(-1, rows, 1)
            c = np.nonzero(col_masks[chunk])[1].reshape(-1, 1, cols)
            norms[chunk] = spectral_norm(matrix[r, c])
    return norms


def identity_operator(space: FiberedSpace) -> BlockOperator:
    return BlockOperator(space, space, np.eye(space.total_dim, dtype=complex))


def random_band_unitary(space: FiberedSpace, R: float, layers: int, seed: int) -> BlockOperator:
    """Random unitary with propagation <= layers * R.

    Each layer pairs up basis vectors sitting at points within distance R
    (pairs disjoint within the layer) and applies an independent random
    SU(2) rotation to every pair; unpaired vectors get a random phase.
    Deterministic for a fixed seed.

    Draw order, which keeps every seeded matrix (and so every `sweep`
    row) byte-stable: per layer, one ``rng.permutation`` of the
    coordinates; then, for each coordinate p of it not yet used, either
    ``rng.integers(k)`` picking its partner among the k unused
    coordinates within R of p's point, in ascending index order,
    followed by three ``rng.random()`` (theta, alpha, beta), or, when
    k = 0, one ``rng.random()`` for p's phase.

    The pairing loop runs on Python lists and only draws; each layer's
    rotations and phases are built from the draws in one vectorised pass
    and applied in one batched (k, 2, 2) @ (k, 2, n) product and one
    row-scaled multiply, which is exact because the pairs and lone
    vectors of a layer are disjoint.
    """
    R = check_radius(R, "band radius")
    for what, value in (("layer count", layers), ("seed", seed)):
        if not (is_integer(value) and value >= 0):
            raise ValueError(f"{what} must be an integer >= 0, got {value!r}")
    rng = np.random.default_rng(seed)
    n_coords = space.total_dim
    pt = space.coord_point
    # near[p]: the coordinates within R of p's point, ascending (p included)
    rows, cols = np.nonzero(space.base.dist[np.ix_(pt, pt)] <= R)
    ends = np.cumsum(np.bincount(rows, minlength=n_coords)).tolist()
    cols = cols.tolist()
    near = [cols[start:end] for start, end in zip([0] + ends, ends)]
    mat = np.eye(n_coords, dtype=complex)
    for _ in range(layers):
        used = [False] * n_coords
        pairs, angles, lone, turns = [], [], [], []
        for p in rng.permutation(n_coords).tolist():
            if used[p]:
                continue
            used[p] = True
            candidates = [c for c in near[p] if not used[c]]
            if not candidates:
                lone.append(p)
                turns.append(rng.random())
                continue
            q = candidates[rng.integers(len(candidates))]
            used[q] = True
            pairs.append((p, q))
            angles.append((rng.random(), rng.random(), rng.random()))
        if pairs:
            theta, alpha, beta = np.array(angles).T * 2 * np.pi
            a = np.cos(theta) * np.exp(1j * alpha)
            b = np.sin(theta) * np.exp(1j * beta)
            rotations = np.stack([a, -np.conj(b), b, np.conj(a)], axis=-1).reshape(-1, 2, 2)
            pq = np.array(pairs)
            mat[pq] = rotations @ mat[pq]
        if lone:
            mat[lone] *= np.exp(2j * np.pi * np.array(turns))[:, None]
    return BlockOperator(space, space, mat)
