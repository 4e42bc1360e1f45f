"""Finite metric spaces with explicit distance matrices.

Points are the integers ``0..n-1``.  Distances are nonnegative reals,
validated for symmetry and the triangle inequality at construction time.
A matrix that equals the hop metric of its own unit-distance graph is a
metric by that equality alone, so one shortest-path pass certifies it;
any other matrix goes through the O(n^3) triangle loop.  An edge-list
space is a hop metric by construction, so its one shortest-path pass
both builds and certifies it, and a path space's |i - j| matrix is
frozen with no pass at all.
Spaces are immutable after construction and safe to share between
threads.  A space's distance levels (its sorted realized distances, and
each entry's level index) are computed once, on first use, and kept
read-only in `derived`, the one store (`Derived`) that spaces, maps and
operators inherit; two threads that race on the first use compute the
same arrays, so sharing stays safe.  A graph metric's entries are the hop
counts 0..diameter, all of which occur, so its levels are the entries
themselves, cast to integers; any other space takes one ``unique`` that
also returns each entry's level index.

Integers: an integer is an ``int`` or ``np.integer`` but not a bool, and
a point of an n-point space is such an integer in ``0..n-1``.  Every
point, index, count and rank in the package is checked by `is_integer`
and `check_range`: nothing is truncated or wrapped, and the error names
the value.

Reals: a real number is an ``int``, ``float``, ``np.integer`` or
``np.floating`` but not a bool (`is_real`).  Every radius, separation and
scale in the package is a real number >= 0, infinity included, checked by
`check_radius`, whose error names the value (NaN, None, a bool, ...); an
int beyond the float range, such as ``10**400``, reads as infinity.  A
threshold, such as delta or epsilon, tests `is_real` and its own interval.
Every entry of a distance matrix is a real number too, checked before
numpy reads it, so a bool or a string in a `dist` file is refused.

JSON form: a graph metric is written as ``{"n", "edges"}``, the pairs
i < j at distance 1 in row-major order, and any other space as
``{"n", "dist"}``; a space is read from an object with exactly one of
the two.
"""

from __future__ import annotations

import sys
from itertools import chain

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, shortest_path

__all__ = [
    "Derived",
    "FiniteMetricSpace",
    "path_space",
    "from_edge_list",
    "validate_points",
    "validate_point",
    "integer_array",
    "is_integer",
    "check_range",
    "is_real",
    "check_radius",
]

_TRIANGLE_TOL = 1e-9


def is_integer(value) -> bool:
    """An int or np.integer, not a bool (an int to Python, 0 or 1 to numpy)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_range(values: np.ndarray, n: int, what: str) -> None:
    """Refuse values outside 0..n-1, naming each once, in the order given."""
    outside = (values < 0) | (values >= n)
    if outside.any():
        bad = list(dict.fromkeys(values[outside].tolist()))
        raise ValueError(f"{what} out of range [0, {n}): {bad}")


def is_real(value) -> bool:
    """An int, float, np.integer or np.floating, not a bool."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def check_radius(value, what: str) -> float:
    """A real number >= 0 as a float (inf for an int beyond the float range,
    +0.0 for -0.0), named `what` in the error."""
    if not (is_real(value) and value >= 0):
        raise ValueError(f"{what} must be a real number >= 0, got {value!r}")
    return np.inf if isinstance(value, int) and value > sys.float_info.max else float(value) + 0.0


def validate_points(points, n: int) -> np.ndarray:
    """Normalize a point collection to a sorted, unique int array in 0..n-1.

    The range and duplicate checks run on the sorted array: its ends decide
    the range, `check_range` names the bad points in ascending order, and
    neighbours that compare equal are the duplicates."""
    arr = integer_array(points, "points").astype(np.int64).reshape(-1)  # a copy, sorted in place
    arr.sort()
    if arr.size and (arr[0] < 0 or arr[-1] >= n):
        check_range(arr, n, "point index")
    if arr.size > 1:
        new = arr[1:] != arr[:-1]
        if not new.all():
            arr = arr[np.concatenate(([True], new))]
    return arr


def validate_point(x, n: int, what: str = "point") -> int:
    """One integer in 0..n-1, named `what` in the error."""
    if not is_integer(x):
        raise ValueError(f"{what} must be an integer, got {x!r}")
    if not 0 <= x < n:
        raise ValueError(f"{what} {x} out of range [0, {n})")
    return int(x)


def integer_array(values, what: str) -> np.ndarray:
    """The values as an array, refused unless every one is an integer; the
    error names the first bad value.  An integer numpy array is taken as it
    is, a sequence is checked value by value (numpy reads True as 1)."""
    if isinstance(values, np.ndarray) and values.dtype != object:
        bad = [] if values.dtype.kind in "iu" else values.ravel()[:1].tolist()
    else:
        values = list(values)
        bad = [v for v in values if not is_integer(v)]
    if bad:
        raise ValueError(f"{what} must be integers, got {bad[0]!r}")
    return np.asarray(values)


def _real_matrix(dist) -> np.ndarray:
    """dist as a new float array, refused unless every entry is a real
    number; the error names the first bad entry.  An int or float numpy
    array is taken as it is; anything else is checked entry by entry, since
    numpy reads True as 1 and "1" as 1.0.  Entries that are all ints and
    floats, as in a JSON file, pass on their types alone."""
    if not (isinstance(dist, np.ndarray) and dist.dtype.kind in "iuf"):
        dist = np.array(dist, dtype=object)
        if not set(map(type, dist.flat)) <= {int, float}:
            bad = [value for value in dist.flat if not is_real(value)]
            if bad:
                raise ValueError(f"every distance must be a real number, got {bad[0]!r}")
    try:
        return dist.astype(float)
    except OverflowError:  # an int beyond the float range reads as infinity, as a radius does
        raise ValueError("distances must be finite") from None


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


def _build_levels(space: "FiniteMetricSpace") -> tuple[np.ndarray, np.ndarray]:
    """A space's (radii, labels), kept through `derived`: a graph metric's
    entries cast to level indices, any other space's unique distances with
    the index of each entry among them, from one sort."""
    if space._graph_metric:
        return np.arange(space.diameter + 1.0), space.dist.astype(np.intp)
    radii, labels = np.unique(space.dist, return_inverse=True)
    return radii, labels.reshape(space.dist.shape)


class Derived:
    """The one store of what is derived from an object alone.  A subclass
    constructor sets ``self._derived = {}``; nothing else writes it."""

    def derived(self, build, *args):
        """build(self, *args), computed on first use for each (build, args)
        and kept on the object; an array in it, or in a tuple it returns,
        is made read-only.  `build` is a module-level function and the
        value depends on the object alone, never on a radius or a mask."""
        key = (build, *args)
        if key not in self._derived:
            value = build(self, *args)
            for part in value if isinstance(value, tuple) else (value,):
                if isinstance(part, np.ndarray):
                    part.setflags(write=False)
            self._derived[key] = value
        return self._derived[key]


class FiniteMetricSpace(Derived):
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
        dist = _real_matrix(dist)
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
        np.fill_diagonal(dist, 0.0)  # -0.0 passes the test above; store +0.0
        off = dist + np.eye(n)
        if (off <= 0).any():
            i, j = np.argwhere(off <= 0)[0]
            raise ValueError(f"distinct points must have positive distance: d({i},{j}) <= 0")
        graph_metric = _is_graph_metric(dist)
        if not graph_metric:
            bad = _triangle_violation(dist)
            if bad is not None:
                i, j, k = bad
                raise ValueError(
                    f"triangle inequality fails: d({i},{j}) > d({i},{k}) + d({k},{j})"
                )
        self._freeze(dist, graph_metric)

    def _freeze(self, dist: np.ndarray, graph_metric: bool) -> None:
        """Freeze a checked distance matrix into this space."""
        dist.setflags(write=False)
        self.dist = dist
        self.n = dist.shape[0]
        self._graph_metric = graph_metric
        self._derived = {}  # (build, *args) -> build(self, *args)

    def __eq__(self, other):
        if not isinstance(other, FiniteMetricSpace):
            return NotImplemented
        return self is other or (self.n == other.n and np.array_equal(self.dist, other.dist))

    def __repr__(self):
        return f"FiniteMetricSpace(n={self.n}, diameter={self.diameter:g})"

    @property
    def diameter(self) -> float:
        return float(self.dist.max())

    def realized_distances(self) -> np.ndarray:
        """Sorted unique distances occurring in the space (starts with 0),
        as a read-only array."""
        return self.distance_levels()[0]

    def distance_levels(self) -> tuple[np.ndarray, np.ndarray]:
        """(radii, labels): the sorted unique distances, and for each entry
        of ``dist`` the index of its level, so ``radii[labels]`` equals
        ``dist``.  A graph metric realizes every hop count 0..diameter, so
        its labels are its entries; any other space takes them from one
        ``unique``.  Computed once per space, on first use, and read-only."""
        return self.derived(_build_levels)

    def to_json(self) -> dict:
        """``{"n", "edges"}`` for a graph metric, ``{"n", "dist"}`` otherwise."""
        if self._graph_metric:
            return {"n": self.n, "edges": np.argwhere(np.triu(self.dist == 1.0, 1)).tolist()}
        return {"n": self.n, "dist": self.dist.tolist()}

    @classmethod
    def from_json(cls, data: dict) -> "FiniteMetricSpace":
        if not isinstance(data, dict):
            raise ValueError(f"space JSON must be an object, got {data!r}")
        if "n" not in data:
            raise ValueError("space JSON is missing 'n'")
        n = data["n"]
        if not is_integer(n):
            raise ValueError(f"space JSON: 'n' must be an integer, got {n!r}")
        if ("dist" in data) == ("edges" in data):
            raise ValueError("space JSON needs either a 'dist' matrix or an 'edges' list, not both")
        if "edges" in data:
            return from_edge_list(n, data["edges"])
        space = cls(data["dist"])
        if space.n != n:
            raise ValueError("space JSON: 'n' does not match 'dist' shape")
        return space


def path_space(n: int) -> FiniteMetricSpace:
    """The path 0 - 1 - ... - (n-1) with d(i, j) = |i - j|."""
    if not (is_integer(n) and n >= 1):
        raise ValueError(f"path_space needs an integer n >= 1, got {n!r}")
    idx = np.arange(n)
    # a hop metric by construction, so no certifying pass
    return _trusted(np.abs(idx[:, None] - idx[None, :]).astype(float))


def _trusted(dist: np.ndarray) -> FiniteMetricSpace:
    """A graph-metric space from a matrix known to be a hop metric, frozen
    without the constructor's checks."""
    space = FiniteMetricSpace.__new__(FiniteMetricSpace)
    space._freeze(dist, graph_metric=True)
    return space


def _edge_array(edges) -> np.ndarray:
    """The edges as an (m, 2) integer array.  Each edge must be a pair of
    integers; a float or bool endpoint is refused, never truncated."""
    if not isinstance(edges, np.ndarray):
        try:
            edges = list(edges)
        except TypeError:  # null or a bare number where the list should be
            raise ValueError(f"edges must be a list of point pairs, got {edges!r}") from None
    if len(edges) == 0:
        return np.empty((0, 2), dtype=np.int64)
    try:
        arr = np.asarray(edges)
    except ValueError:  # edges of different lengths
        arr = None
    ok = arr is not None and arr.shape == (len(edges), 2) and arr.dtype.kind in "iu"
    if ok and not isinstance(edges, np.ndarray):
        # numpy turns [True, 2] into [1, 2]; only the element types tell
        ok = not {bool, np.bool_} & set(map(type, chain.from_iterable(edges)))
    if not ok:
        bad = _first_bad_edge(edges)
        raise ValueError(f"every edge must be a pair of integer points, got {bad}")
    return arr


def _first_bad_edge(edges) -> str:
    """The first edge that is not a pair of integers, for an error message."""
    for e in edges:
        e = e.tolist() if isinstance(e, np.ndarray) else e
        if not (isinstance(e, (list, tuple)) and len(e) == 2 and all(map(is_integer, e))):
            return repr(e)
    return repr(edges)


def from_edge_list(n: int, edges) -> FiniteMetricSpace:
    """Unweighted shortest-path metric of a connected graph on n nodes.

    One breadth-first pass from 0 refuses a disconnected graph in
    O(n + m), naming the smallest point it cannot reach.  The one
    shortest-path pass that builds the metric also certifies it: a hop
    metric is a metric, so the constructor's checks are skipped."""
    if not (is_integer(n) and n >= 1):
        raise ValueError(f"from_edge_list needs an integer n >= 1, got {n!r}")
    arr = _edge_array(edges)
    outside = ((arr < 0) | (arr >= n)).any(axis=1)
    if outside.any():
        i, j = arr[outside.argmax()]
        raise ValueError(f"edge ({i},{j}) out of range [0, {n})")
    loops = arr[:, 0] == arr[:, 1]
    if loops.any():
        raise ValueError(f"self-loop at node {arr[loops.argmax(), 0]} is not allowed")
    # the symmetric adjacency in CSR form, built directly: both directions
    # of every edge, sorted stably by row (a repeated edge is harmless)
    ends = np.concatenate((arr, arr[:, ::-1])).astype(np.int64, copy=False)
    ends = ends[np.argsort(ends[:, 0], kind="stable")]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(ends[:, 0], minlength=n), out=indptr[1:])
    adj = csr_matrix((np.ones(len(ends)), ends[:, 1], indptr), shape=(n, n))
    reached = breadth_first_order(adj, 0, return_predecessors=False)
    if reached.size < n:  # name 0 and the smallest point it cannot reach
        j = np.isin(np.arange(n), reached, invert=True).argmax()
        raise ValueError(f"graph is disconnected: no path between 0 and {j}")
    return _trusted(shortest_path(adj, method="D", unweighted=True))
