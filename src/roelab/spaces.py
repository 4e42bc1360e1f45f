"""Finite metric spaces with explicit distance matrices.

Points are the integers ``0..n-1``.  Distances are nonnegative reals,
validated for symmetry and the triangle inequality at construction time.
A matrix that equals the hop metric of its own unit-distance graph (every
path space, every edge-list space) is a metric by that equality alone, so
one shortest-path pass certifies it; any other matrix goes through the
O(n^3) triangle loop.  Spaces are immutable after construction and safe
to share between threads.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

__all__ = [
    "FiniteMetricSpace",
    "path_space",
    "from_edge_list",
    "validate_points",
]

_TRIANGLE_TOL = 1e-9


def validate_points(points, n: int) -> np.ndarray:
    """Normalize a point collection to a sorted, unique int array in 0..n-1.

    The checks run on the sorted array: its ends decide the range, and
    neighbours that compare equal are the duplicates."""
    if not isinstance(points, (np.ndarray, list, tuple)):
        points = list(points)  # sets, ranges, generators
    arr = np.array(points, dtype=np.int64).reshape(-1)  # a copy, sorted in place
    arr.sort()
    if arr.size and (arr[0] < 0 or arr[-1] >= n):
        bad = np.unique(arr[(arr < 0) | (arr >= n)])
        raise ValueError(f"point index out of range [0, {n}): {bad.tolist()}")
    if arr.size > 1:
        new = arr[1:] != arr[:-1]
        if not new.all():
            arr = arr[np.concatenate(([True], new))]
    return arr


def _is_graph_metric(dist: np.ndarray) -> bool:
    """True when dist is the hop metric of the graph joining points at
    distance exactly 1.  Such a matrix is a metric: its entries are small
    integers, so every d(i,k) + d(k,j) - d(i,j) is exact and >= 0."""
    hops = shortest_path(csr_matrix(dist == 1.0), method="D", unweighted=True)
    return np.array_equal(hops, dist)


def _triangle_violation(dist: np.ndarray):
    """The first (i, j, k) with d(i,j) > d(i,k) + d(k,j) + _TRIANGLE_TOL,
    scanning k in order and (i, j) row-major; None if there is none."""
    for k in range(dist.shape[0]):
        slack = dist[:, k][:, None] + dist[k, :][None, :] - dist
        if (slack < -_TRIANGLE_TOL).any():
            i, j = np.argwhere(slack < -_TRIANGLE_TOL)[0]
            return int(i), int(j), k
    return None


class FiniteMetricSpace:
    """A finite metric space given by a symmetric distance matrix.

    Parameters
    ----------
    dist : (n, n) array_like
        Symmetric matrix of nonnegative distances with zero diagonal.
        The triangle inequality is checked on construction: a graph metric
        is certified by one shortest-path pass, and any other matrix is
        checked triangle by triangle in O(n^3).
    """

    def __init__(self, dist):
        dist = np.array(dist, dtype=float)
        if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
            raise ValueError(f"distance matrix must be square, got shape {dist.shape}")
        n = dist.shape[0]
        if n < 1:
            raise ValueError("a metric space needs at least one point")
        if not np.isfinite(dist).all():
            raise ValueError("distances must be finite")
        if not np.array_equal(dist, dist.T):
            raise ValueError("distance matrix must be symmetric")
        if np.diagonal(dist).any():
            raise ValueError("diagonal of distance matrix must be zero")
        off = dist + np.eye(n)
        if (off <= 0).any():
            i, j = np.argwhere(off <= 0)[0]
            raise ValueError(f"distinct points must have positive distance: d({i},{j}) <= 0")
        if not _is_graph_metric(dist):
            bad = _triangle_violation(dist)
            if bad is not None:
                i, j, k = bad
                raise ValueError(
                    f"triangle inequality fails: d({i},{j}) > d({i},{k}) + d({k},{j})"
                )
        dist.setflags(write=False)
        self.dist = dist
        self.n = n

    def __eq__(self, other):
        if not isinstance(other, FiniteMetricSpace):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.dist, other.dist)

    def __repr__(self):
        return f"FiniteMetricSpace(n={self.n}, diameter={self.diameter:g})"

    @property
    def diameter(self) -> float:
        return float(self.dist.max())

    def ball(self, x: int, R: float) -> np.ndarray:
        """Closed ball: all points at distance <= R from x."""
        if not 0 <= x < self.n:
            raise ValueError(f"point {x} out of range [0, {self.n})")
        if not R >= 0:
            raise ValueError("ball radius must be >= 0")
        return np.flatnonzero(self.dist[x] <= R).astype(np.int64)

    def neighborhood(self, A, R: float) -> np.ndarray:
        """Union of closed R-balls around the points of A."""
        A = validate_points(A, self.n)
        if not R >= 0:
            raise ValueError("neighborhood radius must be >= 0")
        if A.size == 0:
            return A
        mask = (self.dist[A] <= R).any(axis=0)
        return np.flatnonzero(mask).astype(np.int64)

    def growth_profile(self, R: float) -> int:
        """Largest closed-R-ball cardinality over all centers."""
        if not R >= 0:
            raise ValueError("radius must be >= 0")
        return int((self.dist <= R).sum(axis=1).max())

    def set_distance(self, A, B) -> float:
        """min d(a, b) over a in A, b in B; +inf when either set is empty.

        The +inf convention makes "d(A, B) > R" vacuously true for empty
        sets, which is what separated-pair suprema need.
        """
        A = validate_points(A, self.n)
        B = validate_points(B, self.n)
        if A.size == 0 or B.size == 0:
            return float("inf")
        return float(self.dist[np.ix_(A, B)].min())

    def subset_diameter(self, A) -> float:
        """max d(a, a') over a, a' in A; 0 for empty or singleton sets."""
        A = validate_points(A, self.n)
        if A.size <= 1:
            return 0.0
        return float(self.dist[np.ix_(A, A)].max())

    def realized_distances(self) -> np.ndarray:
        """Sorted unique distances occurring in the space (starts with 0)."""
        return np.unique(self.dist)

    def to_json(self) -> dict:
        return {"n": self.n, "dist": self.dist.tolist()}

    @classmethod
    def from_json(cls, data: dict) -> "FiniteMetricSpace":
        if "dist" in data:
            space = cls(data["dist"])
            if space.n != int(data["n"]):
                raise ValueError("space JSON: 'n' does not match 'dist' shape")
            return space
        if "edges" in data:
            return from_edge_list(int(data["n"]), data["edges"])
        raise ValueError("space JSON needs either a 'dist' matrix or an 'edges' list")


def path_space(n: int) -> FiniteMetricSpace:
    """The path 0 - 1 - ... - (n-1) with d(i, j) = |i - j|."""
    if n < 1:
        raise ValueError("path_space needs n >= 1")
    idx = np.arange(n)
    return FiniteMetricSpace(np.abs(idx[:, None] - idx[None, :]).astype(float))


def from_edge_list(n: int, edges) -> FiniteMetricSpace:
    """Unweighted shortest-path metric of a connected graph on n nodes."""
    if n < 1:
        raise ValueError("from_edge_list needs n >= 1")
    rows, cols = [], []
    for e in edges:
        i, j = int(e[0]), int(e[1])
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i},{j}) out of range [0, {n})")
        if i == j:
            raise ValueError(f"self-loop at node {i} is not allowed")
        rows += [i, j]
        cols += [j, i]
    adj = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    dist = shortest_path(adj, method="D", directed=False, unweighted=True)
    if not np.isfinite(dist).all():
        i, j = np.argwhere(~np.isfinite(dist))[0]
        raise ValueError(f"graph is disconnected: no path between {i} and {j}")
    return FiniteMetricSpace(dist)
