"""Block operators on fibered finite metric spaces.

A fibered space attaches a fiber dimension d_x >= 1 to every point of a
finite metric space; an operator between two fibered spaces is stored as
one dense complex matrix whose rows and columns are grouped into blocks
T[y][x] of shape d_y x d_x.  Band structure (propagation, truncation,
corners) is always expressed at the block level, so exact zero blocks
play the role of absent blocks.

Norms: `spectral_norm` is the one norm, and every reported norm is
exact.  It takes a matrix or a stack whole: a full SVD for a square
matrix (fiber blocks, a dense operator's tails) and the Gram route for
a rectangular one (corners, often stacked).  Only an operator's sparse
form splits: `T.norm()` (`_norm`) and the tails ||T - T_keep||
(`_tail_norm`) go to the one labeller, `_split_norm`, which takes the
largest norm among the components of the form's entries, each normed
on its gathered submatrix.  The two routes agree within a few ulps, not
bit for bit.  The tails are taken with no operator built;
`supported_distance_upper` is their public entry, and ||T - T_R|| is
its value at the identity map.
A norm whose components all stay below the sizes OpenBLAS threads does
not depend on the BLAS thread count.  The unitarity
residual takes no norm: it reads the spectrum of one dense Hermitian
matrix G - I, with G the Gram matrix on the smaller side.  The unitarity
check decides on the Frobenius norm of the same G - I first, an upper
bound of the residual, and decomposes only when that bound cannot
decide.

Sparse form: an operator with at least `SPLIT_MIN` rows and columns and
at most `SPARSE_SHARE` (one in 8) of its entries nonzero keeps its
matrix in CSR, built from one nonzero scan (`_sparse`).  Banded
operators, the finite-propagation unitaries the tool extracts maps
from, qualify; a dense operator (the ghost 1 - 2P) and every smaller
one keep the dense route and its bytes, and a smaller one is not even
scanned.  On the sparse form the check's G - I is a sparse product with
I subtracted from it before the squares are summed, so it costs about
the nonzeros times the entries per row, not N^3.  The window's four
quantities read it too: the norm and the tails label the form's
entries (a tail's, those outside keep) and norm each component on its
gathered submatrix, and the block Frobenius table and the column bound
sum the entries' squares in the order of the dense reductions, bit for
bit what the dense route gives.

Corners: `corner_norms` is the one masked corner kernel, giving
||chi_B U chi_x|| for every source point x and every target point set B
of a boolean mask (`extraction.corner_norm_table` at ball masks) from
d^2 real column parts per point of fiber dimension d.  On the dense
route, one real product of the mask with the parts sums them (BLAS
order); on the sparse route, the parts are kept in CSR and each
corner's sum runs over its nonzero parts in ascending coordinate order,
at a cost of about the nonzeros times the mask rows, and only corners
with a nonzero part take a top.  The two routes agree within a few ulps.
Every Gram top of `spectral_norm`, and of the corners of fiber
dimension d >= 3, comes from `_gram_top`; `_parts_top` reads the
d <= 2 closed forms directly.
`masked_corner_norms` norms the exact enumeration's components, and
its core, `_gathered_norms`, the components of every split norm.  One
byte budget, `_STACK_BYTES` (2 MiB), caps each batched stack of both;
it and `_gram_top` are private, so no other module reads them.  The
column parts do not depend on the mask:
those of a group that fits one chunk (on the sparse route, every group)
are kept on the operator, so a radius scan gathers them once.

What is derived from an operator alone is computed once and kept on it
by `derived`, the store it shares with spaces and maps (`spaces.Derived`):
the norm, its column-norm lower bound, the block Frobenius table, the
table of nonzero blocks, the propagation (read off the sparse form's
entries when there is one, else off the table of nonzero blocks), the
unitarity residual, the sparse form, the corner parts, and the exact
quasi-locality enumeration's tables (built in `locality`); an adjoint
starts with nothing.  `check_unitary` keeps no outcome: `extract_pair`
checks U once, and U* is unitary exactly when U is.

Products: `T @ S` is one BLAS product, except when a factor is a
permutation matrix (`_permutation`: square, one nonzero entry per row
and column, each exactly 1+0j, found by one nonzero scan and kept
through `derived`), as every covering unitary is.  Then the product is
a gather of the other factor's rows or columns, plus 0.0 so that each
zero is +0.0; a BLAS product can give -0.0 there, so the two may differ
in the signs of zeros.  A permutation's own unitarity residual is 0.0
with no decomposition.

Operator entries stay below 1e150 in modulus, so the squares in a Gram
product cannot overflow.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix, identity
from scipy.sparse.csgraph import connected_components

from .maps import PointMap
from .spaces import (
    Derived, FiniteMetricSpace, check_radius, integer_array, is_integer, validate_point, validate_points
)

__all__ = [
    "FiberedSpace",
    "BlockOperator",
    "check_entries",
    "check_unitary",
    "corner_norms",
    "identity_operator",
    "masked_corner_norms",
    "random_band_unitary",
    "spectral_norm",
    "supported_distance_upper",
]

ROUNDING_MARGIN = 1e-12
"""The one margin of "equal up to rounding", far outside the few ulps of
every norm here.  Read relative, (1 - m) * v (bounds search stop, upper
member's min); floored, m * max(1, v) (search moves, witness pruning,
rank cut); absolute, on values of at most 1 (extraction ties, unit
snap); as a zero threshold, for a violation with a witness only
(`propagation` counts every entry that is not exactly 0)."""
UNITARITY_TOL = 1e-9  # the residual `check_unitary` admits; concentration's checks allow it as slack
# byte budget of one batched stack (a Gram chunk of `corner_norms`, equal-shape
# corners of `masked_corner_norms`); each matrix is normed alone
_STACK_BYTES = 2 << 20
SPLIT_MIN = 96
"""The fewest rows and columns of an operator that keeps a sparse form
(`_sparse`), the one gate into the split of its norm and tails: below
it, the labelling costs more than the whole route saves.  The timings
are in CHANGES.md, in the entries "Whole-operator norms by components
of the nonzero pattern" and "One norm function".
"""

SPARSE_SHARE = 1 / 8
"""The largest share of nonzero entries at which an operator with at
least `SPLIT_MIN` rows and columns keeps a sparse form (`_sparse`), on
which the unitarity check and the corner kernel run; a denser operator
keeps the dense route.  Measured where the two routes cross (CHANGES.md,
"Banded operators pay for their nonzeros")."""


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


def _gram_top(stack: np.ndarray) -> np.ndarray:
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
    """Largest singular value of a matrix, or of each matrix of a
    (k, rows, cols) stack, computed exactly and taken whole: a full SVD
    for a square matrix; for a rectangular one, a 1 x n or n x 1 matrix
    included, the square root of `_gram_top` of its smaller side's Gram
    matrix, or the SVD when that top is below 2^-900, where the squares
    may have underflowed (a block of 1e-170 has a Gram of 0).

    No matrix is split here: only an operator's sparse form splits its
    norm and tails (`_split_norm`).  Each of a stack's k values is bit
    for bit what its own matrix gives, since the route depends on the
    shape and the matrix's own Gram top only, and the batched matmul and
    LAPACK calls run the per-matrix routine on every matrix.  Fewer than
    two axes is a ValueError.
    """
    mat = np.asarray(mat)
    if mat.ndim < 2:
        raise ValueError(f"spectral_norm needs a matrix or a stack of matrices, got shape {mat.shape}")
    rows, cols = mat.shape[-2:]
    if mat.size == 0:
        return 0.0 if mat.ndim == 2 else np.zeros(mat.shape[:-2])
    if rows == cols:
        tops = np.linalg.svd(mat, compute_uv=False)[..., 0]
    else:
        adj = mat.conj().swapaxes(-1, -2)
        grams = _gram_top(mat @ adj if rows < cols else adj @ mat)
        tops = np.array(np.sqrt(np.maximum(grams, 0.0)))  # 0-d for one matrix
        tiny = grams < 2.0**-900
        if tiny.any():
            tops[tiny] = np.linalg.svd(mat[tiny], compute_uv=False)[..., 0]
    return float(tops) if mat.ndim == 2 else tops


def _split_norm(shape, r, c, gather):
    """The norm of an operator's matrix, or of one of its tails, from the
    coordinates (r, c) of its nonzero entries on the sparse form, listed
    by row: 0.0 with no entries, and otherwise the largest norm among the
    components of the bipartite row/column graph of the entries, whose
    singular values together are the matrix's.  The components are
    labelled by `connected_components` and each, a lone one included, is
    normed on the submatrix that `gather(rows, cols)` stacks for its
    coordinates (`_gathered_norms`), so a tail matrix is never formed.
    The one labeller, serving `_norm` and `_tail_norm` alone."""
    rows, cols = shape
    if r.size == 0:
        return 0.0
    # rows are nodes 0..rows-1 and columns rows..rows+cols-1, the edges listed by row
    indptr = np.searchsorted(r, np.arange(rows + cols + 1))
    graph = csr_matrix((np.ones(r.size), c + rows, indptr), shape=(rows + cols, rows + cols))
    labels = connected_components(graph, directed=False)[1]
    comps = np.unique(labels[r])  # zero rows and columns are components of their own
    row_masks, col_masks = labels[:rows] == comps[:, None], labels[rows:] == comps[:, None]
    return float(_gathered_norms(gather, row_masks, col_masks).max())


def check_entries(matrix: np.ndarray) -> None:
    """Refuse a complex matrix unless every entry is finite and below 1e150
    in modulus, so the squares in Gram products cannot overflow.  Two
    reductions of the real view, no |.| copy; NaN fails the test too (both
    reductions return it)."""
    view = matrix.view(float)
    if not max(view.max(initial=0.0), -view.min(initial=0.0)) < 1e150:
        raise ValueError("operator entries must be finite and below 1e150 in modulus")


class BlockOperator(Derived):
    """A complex linear map between two fibered spaces, stored dense.

    The matrix has shape (target.total_dim, source.total_dim); the block
    at (y, x) is the submatrix over the fibers of y and x.  Exact zero
    blocks carry the band-sparsity structure.
    """

    def __init__(self, source: FiberedSpace, target: FiberedSpace, matrix, *, _checked: bool = False):
        """`_checked` takes a fresh C-ordered complex matrix as it is, with
        no copy and no scan of its entries, for callers whose entries are
        safe by construction or checked already: `adjoint` and the gathers
        of `__matmul__` (entries of an operator), `random_band_unitary`
        (products of unit-modulus rotations and phases of finite angles),
        `covering.covering_unitary` (0 and 1) and `serialize.read_operator`
        (its own matrix, scanned by `check_entries`)."""
        if not _checked:
            matrix = np.array(matrix, dtype=complex, order="C")
        expected = (target.total_dim, source.total_dim)
        if matrix.shape != expected:
            raise ValueError(f"matrix shape {matrix.shape} does not match fibers {expected}")
        if not _checked:
            check_entries(matrix)
        self.source = source
        self.target = target
        self.matrix = matrix  # a private copy, so what `derived` keeps stays valid
        self.matrix.setflags(write=False)
        self._derived = {}  # (build, *args) -> build(self, *args)

    def block(self, y: int, x: int) -> np.ndarray:
        return self.matrix[self.target.slice_of(y), self.source.slice_of(x)]

    def adjoint(self) -> "BlockOperator":
        """T*, from one conjugating pass into a C-ordered matrix; its
        entries are T's, so they are not scanned again."""
        matrix = np.empty(self.matrix.shape[::-1], dtype=complex)
        np.conjugate(self.matrix.T, out=matrix)
        return BlockOperator(self.target, self.source, matrix, _checked=True)

    def __matmul__(self, other: "BlockOperator") -> "BlockOperator":
        """The composite self after other.  When a factor is a permutation
        matrix P (`_permutation`), the product is a gather, not a BLAS
        product: row i of P @ V is row perm[i] of V, and U @ P takes U's
        columns through the inverse index.  The gathered matrix gets
        + 0.0, so each of its zeros is +0.0 (a BLAS product may give -0.0
        there, so zero signs can differ from it); its entries are the
        other factor's, so it is neither copied nor scanned again.  Every
        other product is one BLAS product."""
        if not isinstance(other, BlockOperator):
            return NotImplemented
        if other.target != self.source:
            raise ValueError("compose: inner operator's target must match outer's source")
        perm = self.derived(_permutation)
        if perm is not None:
            matrix = np.take(other.matrix, perm, axis=0)
        else:
            perm = other.derived(_permutation)
            if perm is None:
                return BlockOperator(other.source, self.target, self.matrix @ other.matrix)
            # `take`, not M[:, inv]: fancy indexing may return a matrix that is not C-ordered
            matrix = np.take(self.matrix, np.argsort(perm), axis=1)
        matrix += 0.0
        return BlockOperator(other.source, self.target, matrix, _checked=True)

    def __sub__(self, other):
        if not isinstance(other, BlockOperator):
            return NotImplemented
        if other.source != self.source or other.target != self.target:
            raise ValueError("operator difference needs matching fibered spaces")
        return BlockOperator(self.source, self.target, self.matrix - other.matrix)

    def norm(self) -> float:
        """`spectral_norm` of the matrix; computed once per operator and stored."""
        return self.derived(_norm)

    def norm_lower_bound(self) -> float:
        """T's largest column norm max_j ||T e_j||, a lower bound of
        ||T|| that takes no decomposition; 0 for an empty matrix.
        Computed once per operator and stored."""
        return self.derived(_column_norm_max)

    def block_frobenius(self) -> np.ndarray:
        """Per-block Frobenius norms as a read-only (n_target, n_source)
        array; computed once per operator and stored."""
        return self.derived(_block_frobenius)

    def block_nonzero(self) -> np.ndarray:
        """Which blocks are nonzero, as a read-only (n_target, n_source)
        bool array (`_block_nonzero`); computed once per operator and
        stored."""
        return self.derived(_block_nonzero)

    def propagation(self) -> float:
        """prop(T), the largest d(x, y) over T's entries that are not
        exactly 0, 0 if none (`_propagation`); computed once per operator
        and stored."""
        return self.derived(_propagation)

    def corner_norm(self, B, A) -> float:
        """||chi_B T chi_A||, via the submatrix (padding zeros do not matter)."""
        rows = self.target.coords_of(B)
        cols = self.source.coords_of(A)
        return spectral_norm(self.matrix[np.ix_(rows, cols)])

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
        gram.reshape(-1)[:: len(gram) + 1] -= 1.0  # the diagonal of the fresh product, in place
        return gram

    def unitarity_residual(self) -> float:
        """max(||T*T - I||, ||TT* - I||).

        For a permutation matrix (`_permutation`), whose P*P - I is
        exactly zero, it is 0.0 with no decomposition: a covering
        unitary's residual costs one nonzero scan, not an N x N
        `eigvalsh`.  Otherwise one Hermitian eigenvalue call gives it:
        the residual is the largest |eigenvalue| of G - I, with G the
        Gram matrix on the smaller side.  For square T, T*T and TT* have
        the same spectrum, so the two norms agree.  Otherwise the larger
        Gram matrix has G's eigenvalues plus zeros, and each zero
        contributes |0 - 1| = 1, so the residual is max(||G - I||, 1).
        This is the exact value every report prints; `check_unitary`
        computes it only when a Frobenius bound cannot decide.  Computed
        once per operator and stored.  It stays `eigvalsh`, since an SVD
        of G - I would move reported residuals near 2e-16 (CHANGES.md,
        "One norm function").
        """
        return self.derived(_residual)

    def __repr__(self):
        return (
            f"BlockOperator({self.source.base.n}x{self.source.fiber_dims.max()} -> "
            f"{self.target.base.n}x{self.target.fiber_dims.max()}, "
            f"total {self.matrix.shape[1]} -> {self.matrix.shape[0]})"
        )


def _norm(T: BlockOperator) -> float:
    """||T||, kept by `T.norm()` through `derived`: `spectral_norm` of
    T.matrix without a sparse form; on T's sparse form, `_split_norm` of
    the form's entries, with no second scan of the matrix, within a few
    ulps of `spectral_norm` of the matrix."""
    sparse = _sparse(T)
    if sparse is None:
        return spectral_norm(T.matrix)
    return _split_norm(T.matrix.shape, *_entries(sparse), lambda r, c: T.matrix[r, c])


def _propagation(T: BlockOperator) -> float:
    """prop(T), kept by `T.propagation()` through `derived`: the largest
    d(x, y) over the entries of T that are not exactly 0, so a block of
    1e-170 counts and a -0.0 entry does not.  The entries are read off
    T's sparse form when it has one (O(nnz)), else from T's table of
    nonzero blocks (`_block_nonzero`), with no list of entries.  Two base
    spaces are a ValueError."""
    if T.source.base != T.target.base:
        raise ValueError("this operation needs source and target over the same base space")
    dist = T.source.base.dist
    sparse = _sparse(T)
    if sparse is None:
        return float(dist[T.block_nonzero()].max(initial=0.0))
    r, c = _entries(sparse)
    return float(dist[T.target.coord_point[r], T.source.coord_point[c]].max(initial=0.0))


def _block_nonzero(T: BlockOperator) -> np.ndarray:
    """T's table of nonzero blocks, kept by `T.block_nonzero()` through
    `derived`: the matrix's nonzero scan (`_nonzero`) reduced by
    `np.logical_or.reduceat` over the rows of each target fiber, then over
    the columns of each source fiber.  A block is nonzero when one of its
    entries is not exactly 0: a block of 1e-170 counts, one of -0.0 does
    not."""
    by_rows = np.logical_or.reduceat(_nonzero(T.matrix), T.target.offsets[:-1], axis=0)
    return np.logical_or.reduceat(by_rows, T.source.offsets[:-1], axis=1)


def _tail_norm(T: BlockOperator, keep: np.ndarray) -> float:
    """||T - T_keep||, with T_keep the blocks (y, x) of T where keep[y, x]
    holds and zero blocks elsewhere, with no operator built.  Its entries
    are those of M - M * mask, the arithmetic of `supported_mask` and the
    operator difference, signed zeros included, the coordinate mask
    gathered by `take`.  (A copy `np.where(~mask, M, 0)` differs in the
    sign of a zero real part, which moves the SVD by an ulp now and then.)

    Without a sparse form, `spectral_norm` takes that matrix whole.  On
    T's sparse form, the form's entries outside keep are the tail's
    nonzero entries, listed by row; `_split_norm` labels them and norms
    each component on sub - sub * keep_sub, gathered from M and keep,
    which is the tail's submatrix bit for bit, so the tail matrix is
    never formed."""
    row_point, col_point = T.target.coord_point, T.source.coord_point
    sparse = _sparse(T)
    if sparse is None:
        mask = keep.take(row_point, axis=0).take(col_point, axis=1)
        return spectral_norm(T.matrix - T.matrix * mask)

    def gather(r, c):
        sub = T.matrix[r, c]
        return sub - sub * keep[row_point[r], col_point[c]]

    r, c = _entries(sparse)
    far = ~keep[row_point[r], col_point[c]]
    return _split_norm(T.matrix.shape, r[far], c[far], gather)


def supported_distance_upper(T: BlockOperator, f: PointMap, R: float) -> float:
    """||T - M_R(T)|| where M_R keeps blocks (y, x) with d(f(x), y) <= R
    (`_tail_norm`), the norm of the operator
    T - T.supported_mask(f.values, R): bit for bit, except when T has no
    sparse form and that difference has one, where the whole route and
    the split agree within a few ulps.

    M_R(T) is R-supported on f, so the value bounds the distance from T
    to the R-supported operators.  That distance is nonincreasing in R,
    but this bound is not (it can rise as R grows), so the running
    minimum of the values over R' <= R is the monotone bound.  At the
    identity map it is ||T - T_R||, T_R the band truncation of width R.
    """
    if f.source != T.source.base or f.target != T.target.base:
        raise ValueError("map must go from the operator's source base to its target base")
    return _tail_norm(T, T.target.base.dist[:, f.values] <= check_radius(R, "support radius"))


def _block_frobenius(T: BlockOperator) -> np.ndarray:
    """T's per-block Frobenius norms, kept by `T.block_frobenius()` through
    `derived`: the squared moduli summed over the rows of each target
    fiber, then over the columns of each source fiber, by
    `np.add.reduceat`.  On the dense matrix the squared moduli are the one
    full-size float copy; on T's sparse form only the entries' are taken,
    and `_fiber_sums` adds them in the same order, so every block is the
    dense one bit for bit."""
    sparse = _sparse(T)
    if sparse is None:
        sq = np.abs(T.matrix)
        np.square(sq, out=sq)
        by_rows = np.add.reduceat(sq, T.target.offsets[:-1], axis=0)
        del sq
        by_both = np.add.reduceat(by_rows, T.source.offsets[:-1], axis=1)
        return np.sqrt(by_both, out=by_both)
    r, c = _entries(sparse)
    sq = np.abs(sparse.data)
    np.square(sq, out=sq)
    cols, y, by_rows = _fiber_sums(c, r, sq, T.target)
    y, x, by_both = _fiber_sums(y, cols, by_rows, T.source)
    out = np.zeros((T.target.base.n, T.source.base.n))
    out[y, x] = np.sqrt(by_both)
    return out


def _fiber_sums(other: np.ndarray, coords: np.ndarray, values: np.ndarray, space: FiberedSpace):
    """(other, point, sums) for values at distinct (other, coordinate)
    pairs: the sum over each fiber of `space` per (other, point), taken by
    `np.add.reduceat` over the whole fiber with its missing coordinates as
    zeros, so each sum is that of the dense reduction along the fiber."""
    if space.total_dim == space.base.n:  # each point's fiber is one coordinate, its own sum
        return other, coords, values
    point = space.coord_point[coords]
    order = np.lexsort((coords, point, other))
    other, point, coords, values = other[order], point[order], coords[order], values[order]
    new = (np.diff(other, prepend=-1) != 0) | (np.diff(point, prepend=-1) != 0)
    first = np.flatnonzero(new)
    width = space.fiber_dims[point[first]]
    starts = np.cumsum(width) - width
    padded = np.zeros(int(width.sum()))
    padded[starts[np.cumsum(new) - 1] + coords - space.offsets[point]] = values
    return other[first], point[first], np.add.reduceat(padded, starts)


def _column_norm_max(T: BlockOperator) -> float:
    """T's largest column norm, kept by `T.norm_lower_bound()` through
    `derived`.  On T's sparse form, the entries' squares, taken as
    `np.linalg.norm` takes them, are summed per column in row order, the
    order of its reduction down the dense columns."""
    sparse = _sparse(T)
    if sparse is None:
        return float(np.linalg.norm(T.matrix, axis=0).max(initial=0.0))
    squares = (sparse.data.conj() * sparse.data).real
    sums = np.bincount(sparse.indices, weights=squares, minlength=T.matrix.shape[1])
    return float(np.sqrt(sums).max(initial=0.0))


def _residual(T: BlockOperator) -> float:
    if T.derived(_permutation) is not None:
        return 0.0  # P*P - I is exactly zero
    rows, cols = T.matrix.shape
    residual = float(np.abs(np.linalg.eigvalsh(T._gram_minus_identity())).max())
    return residual if rows == cols else max(residual, 1.0)


def _sparse_form(T: BlockOperator):
    """T.matrix as a CSR matrix from one nonzero scan, or None when more
    than `SPARSE_SHARE` of its entries are nonzero; kept through
    `derived` and read by `_sparse`.  An entry counts when it is not
    exactly 0."""
    n_rows, n_cols = T.matrix.shape
    nonzero = _nonzero(T.matrix)
    if np.count_nonzero(nonzero) > SPARSE_SHARE * nonzero.size:
        return None
    at = np.flatnonzero(nonzero)  # row-major, as CSR lists the entries
    rows, cols = np.divmod(at, n_cols)
    indptr = np.searchsorted(rows, np.arange(n_rows + 1))
    return csr_matrix((T.matrix.ravel()[at], cols, indptr), shape=(n_rows, n_cols))


def _nonzero(matrix: np.ndarray) -> np.ndarray:
    """Where a complex matrix is not exactly 0: an entry is nonzero when
    its real or its imaginary part is, the two bytes of their tests read
    as one uint16."""
    return (matrix.view(float) != 0).view(np.uint16) != 0


def _permutation(T: BlockOperator):
    """perm with T.matrix[i, perm[i]] == 1 for every row i, when T.matrix
    is a permutation matrix: square, with exactly one nonzero entry in
    each row and each column, each exactly 1+0j; else None.  Kept through
    `derived`; one nonzero scan (`_nonzero`), at any size."""
    n, cols = T.matrix.shape
    if n != cols:
        return None
    nonzero = _nonzero(T.matrix)
    if np.count_nonzero(nonzero) != n:
        return None
    rows, perm = np.divmod(np.flatnonzero(nonzero), n)
    if not (np.array_equal(rows, np.arange(n)) and (np.bincount(perm, minlength=n) == 1).all()):
        return None
    return perm if (T.matrix[rows, perm] == 1).all() else None


def _entries(sparse) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of the entries of a CSR matrix, in its order: by row,
    as `np.nonzero` lists a matrix's entries."""
    return np.repeat(np.arange(sparse.shape[0]), np.diff(sparse.indptr)), sparse.indices


def _sparse(T: BlockOperator):
    """T's sparse form (`_sparse_form`) when T has at least `SPLIT_MIN`
    rows and columns, else None with nothing kept: smaller operators take
    the dense route without a scan.  `derived` freezes arrays, not CSR
    matrices; no caller writes into this one or the parts built from it."""
    return T.derived(_sparse_form) if min(T.matrix.shape) >= SPLIT_MIN else None


def _gram_gap_frobenius(U: BlockOperator) -> float:
    """||U*U - I||_F of a square U: on U's sparse form when it has one,
    with I subtracted from the sparse product before the squares are
    summed (summing first and subtracting after cancels), else on the
    dense `_gram_minus_identity`."""
    sparse = _sparse(U)
    if sparse is None:
        gap = U._gram_minus_identity().ravel()
    else:
        gram = sparse.conj().T @ sparse
        gap = (gram - identity(gram.shape[0], dtype=complex, format="csr")).data
    return float(np.sqrt(np.vdot(gap, gap).real))


def check_unitary(U: BlockOperator) -> None:
    """ValueError when U's unitarity residual exceeds UNITARITY_TOL.

    A stored residual decides first.  Otherwise, for square U,
    ||G - I|| <= ||G - I||_F (G the Gram matrix of U), so a Frobenius
    norm at most the tolerance passes without a decomposition; it is
    taken on U's sparse form when U has one (`_gram_gap_frobenius`),
    where a zero column contributes |0 - 1| = 1.  Every
    other case (a bound above the tolerance, an inf or NaN bound, a
    rectangular U, whose residual is at least 1) takes the exact
    `unitarity_residual`, which the error reports.  The outcome is not
    kept: a call chain checks its unitary once.
    """
    if U.matrix.shape[0] == U.matrix.shape[1] and (_residual,) not in U._derived:
        if _gram_gap_frobenius(U) <= UNITARITY_TOL:
            return
    residual = U.unitarity_residual()
    if not residual <= UNITARITY_TOL:
        raise ValueError(f"operator is not unitary: residual {residual:.3g} > {UNITARITY_TOL:g}")


def _part_pairs(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The column pairs (i, j), i > j, of the cross parts: the one part order."""
    return np.nonzero(np.tri(d, k=-1, dtype=bool))


def _corner_parts(U: BlockOperator, points: np.ndarray, d: int) -> np.ndarray:
    """What `corner_norms` multiplies its mask into for source points of
    fiber dimension d, gathered with `np.take`: (rows, k, d * d), the
    |c_i|^2 of the point's columns c_i, then Re and then Im of
    conj(c_i) c_j for the pairs of `_part_pairs`."""
    cols = np.take(U.matrix, U.source.offsets[points][:, None] + np.arange(d), axis=1)  # (rows, k, d)
    i, j = _part_pairs(d)
    cross = cols[..., i].conj() * cols[..., j]
    return np.concatenate([cols.real**2 + cols.imag**2, cross.real, cross.imag], axis=-1)


def _parts_top(sums: np.ndarray, d: int) -> np.ndarray:
    """Top eigenvalue of each Gram matrix from its d^2 real parts in the
    order of `_corner_parts`: the entry for d = 1, `_gram_top_2x2` for
    d = 2, `_gram_top` of the lower triangle (what `eigvalsh` reads),
    clipped at 0, for d >= 3."""
    if d == 1:
        return sums[..., 0]
    if d == 2:
        return _gram_top_2x2(sums[..., 0], sums[..., 1], np.hypot(sums[..., 2], sums[..., 3]))
    i, j = _part_pairs(d)
    gram = np.zeros(sums.shape[:-1] + (d, d), dtype=complex)
    gram[..., np.arange(d), np.arange(d)] = sums[..., :d]
    gram[..., i, j] = sums[..., d : d + i.size] + 1j * sums[..., d + i.size :]
    return np.maximum(_gram_top(gram), 0.0)  # eigvalsh may dip below 0


def _group_parts(U: BlockOperator, d: int) -> np.ndarray:
    """`_corner_parts` of U's whole group of fiber dimension d."""
    return _corner_parts(U, np.flatnonzero(U.source.fiber_dims == d), d)


def _sparse_group_parts(U: BlockOperator, d: int):
    """`_group_parts` from U's sparse form: a CSR matrix with a row for
    each point x of fiber dimension d and part q (x-major, q in the
    order of `_corner_parts`) over the target coordinates.  Part q of x
    reads two of x's columns, c_i and c_j (|c_i|^2 reads c_i alone); its
    row keeps the coordinates where c_i is nonzero, which hold every
    nonzero value, and each value is computed as `_corner_parts`
    computes it."""
    i, j = _part_pairs(d)
    first, second = np.concatenate([np.arange(d), i, i]), np.concatenate([np.arange(d), j, j])
    offsets = U.source.offsets[:-1][U.source.fiber_dims == d]
    parts = _sparse(U).tocsc()[:, (offsets[:, None] + first).ravel()].T  # c_i of each row, a new CSR
    row = _entries(parts)[0]
    q = row % (d * d)
    c_i = parts.data
    cross = c_i.conj() * U.matrix[parts.indices, offsets[row // (d * d)] + second[q]]
    parts.data = np.select([q < d, q < d + i.size], [c_i.real**2 + c_i.imag**2, cross.real], cross.imag)
    return parts


def corner_norms(U: BlockOperator, rows: np.ndarray) -> np.ndarray:
    """(k, n_source) array of ||chi_B U chi_x|| over the k target point sets B
    given by the rows of a boolean (k, n_target) mask.

    The mask is cast to float once.  Each group of source points of
    fiber dimension d takes one real product of the mask with its column
    parts (`_corner_parts`), the real parts of every corner's Gram
    matrix, whose tops `_parts_top` reads.  Groups with d >= 2 go in
    chunks of at most `_STACK_BYTES`, at 16 d^2 bytes per mask row and
    point; a d = 1 group stays whole, its product being no larger than
    the table.  Entries equal the per-point computation up to summation
    order (a few ulps).  A group that fits one chunk keeps its parts on U
    (`BlockOperator.derived`), so a radius scan builds them once.

    When U has a sparse form (`_sparse`), the parts are a CSR matrix kept
    whole on U (`_sparse_group_parts`) and the product is CSR times the
    transposed mask, which adds each corner's parts in ascending
    coordinate order, one by one from 0 (scipy's `csr_matvecs`); the
    chunks are row ranges of it.  Corners whose parts are all 0 are 0
    with no top.
    """
    source = U.source
    sparse = _sparse(U) is not None
    # (k, target coords), or its transpose for the sparse route
    mask = (rows.T[U.target.coord_point] if sparse else rows[:, U.target.coord_point]).astype(float)
    out = np.zeros((len(rows), source.base.n))
    for d in np.unique(source.fiber_dims):
        points = np.flatnonzero(source.fiber_dims == d)
        step = max(1, _STACK_BYTES // (max(mask.shape) * d * d * 16))
        chunks = [points] if d == 1 else np.array_split(points, -(-points.size // step))
        start = 0  # the chunk's first row of the group's sparse parts, over d^2
        for chunk in chunks:
            if sparse:
                parts = U.derived(_sparse_group_parts, d)
                if len(chunks) > 1:
                    parts = parts[start * d * d : (start + chunk.size) * d * d]
                    start += chunk.size
                sums = (parts @ mask).reshape(chunk.size, d * d, len(rows))
                # only corners with a nonzero part take a top; the rest are exactly 0
                x, b = np.divmod(np.flatnonzero(sums.any(axis=1)), len(rows))
                out[b, chunk[x]] = np.sqrt(_parts_top(sums[x, :, b], d))
            else:
                parts = U.derived(_group_parts, d) if len(chunks) == 1 else _corner_parts(U, chunk, d)
                sums = (mask @ parts.reshape(len(parts), -1)).reshape(len(rows), chunk.size, d * d)
                out[:, chunk] = np.sqrt(_parts_top(sums, d))
    return out


def masked_corner_norms(matrix: np.ndarray, row_masks: np.ndarray, col_masks: np.ndarray) -> np.ndarray:
    """`spectral_norm` of matrix[rows][:, cols] for each pair of boolean
    coordinate masks, the rows of row_masks and col_masks, none of them
    empty (`_gathered_norms` of the matrix's entries)."""
    return _gathered_norms(lambda r, c: matrix[r, c], row_masks, col_masks)


def _gathered_norms(gather, row_masks: np.ndarray, col_masks: np.ndarray) -> np.ndarray:
    """`spectral_norm` of the matrix that `gather(r, c)` stacks for the
    coordinates of each pair of masks, from one call per equal-shape
    stack of at most `_STACK_BYTES` at 16 bytes, a complex entry, per
    entry; gather takes (k, rows, 1) row and (k, 1, cols) column
    coordinates."""
    n_rows, n_cols = row_masks.sum(axis=1), col_masks.sum(axis=1)
    key = n_rows * (col_masks.shape[1] + 1) + n_cols
    norms = np.zeros(key.size)
    for shape in np.unique(key):
        group = np.flatnonzero(key == shape)
        rows, cols = int(n_rows[group[0]]), int(n_cols[group[0]])
        step = max(1, _STACK_BYTES // (rows * cols * 16))
        for start in range(0, group.size, step):
            chunk = group[start : start + step]
            r = np.nonzero(row_masks[chunk])[1].reshape(-1, rows, 1)
            c = np.nonzero(col_masks[chunk])[1].reshape(-1, 1, cols)
            norms[chunk] = spectral_norm(gather(r, c))
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
    row) byte-stable: per layer, one ``rng.permutation(n_coords)`` of the
    coordinates; then, for each coordinate p of it not yet used, either
    ``rng.integers(k)`` picking its partner among the k unused
    coordinates within R of p's point, in ascending index order (k = 1
    included), followed by one ``rng.random(out=row)`` filling the
    pair's three angles (theta, alpha, beta), or, when k = 0, one
    ``rng.random()`` for p's phase.  A three-entry ``random(out=...)``
    yields the same values, and leaves the same generator state, as
    three scalar ``rng.random()`` calls.

    The pairing loop runs on Python lists and only draws.  The rotations
    and phases of every layer are then built in one vectorised pass, and
    each layer is applied, in order, as one batched (k, 2, 2) @ (k, 2, n)
    product and one row-scaled multiply, which is exact because the
    pairs and lone vectors of a layer are disjoint.
    """
    R = check_radius(R, "band radius")
    for what, value in (("layer count", layers), ("seed", seed)):
        if not (is_integer(value) and value >= 0):
            raise ValueError(f"{what} must be an integer >= 0, got {value!r}")
    rng = np.random.default_rng(seed)
    n_coords = space.total_dim
    pt = space.coord_point
    # near[p]: the coordinates within R of p's point, ascending (p included)
    rows, cols = np.nonzero((space.base.dist <= R).take(pt, axis=0).take(pt, axis=1))
    ends = np.cumsum(np.bincount(rows, minlength=n_coords)).tolist()
    cols = cols.tolist()
    near = [cols[start:end] for start, end in zip([0] + ends, ends)]
    angles = np.empty((layers * (n_coords // 2), 3))  # a row per pair, in draw order
    pairs, lone, turns = [], [], []  # pairs: p, q of each pair, flat
    layer_ends = [(0, 0)]  # after each layer: (pairs, lone vectors) drawn so far
    for _ in range(layers):
        used = [False] * n_coords
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
            rng.random(out=angles[len(pairs) // 2])
            pairs += p, q
        layer_ends.append((len(pairs) // 2, len(lone)))
    theta, alpha, beta = angles[: len(pairs) // 2].T * 2 * np.pi
    a = np.cos(theta) * np.exp(1j * alpha)
    b = np.sin(theta) * np.exp(1j * beta)
    rotations = np.stack([a, -np.conj(b), b, np.conj(a)], axis=-1).reshape(-1, 2, 2)
    phases = np.exp(2j * np.pi * np.array(turns))[:, None]
    pq = np.array(pairs, dtype=np.intp).reshape(-1, 2)
    mat = np.eye(n_coords, dtype=complex)
    for (p0, l0), (p1, l1) in zip(layer_ends, layer_ends[1:]):
        if p1 > p0:
            mat[pq[p0:p1]] = rotations[p0:p1] @ mat[pq[p0:p1]]
        if l1 > l0:
            mat[lone[l0:l1]] *= phases[l0:l1]
    return BlockOperator(space, space, mat, _checked=True)
