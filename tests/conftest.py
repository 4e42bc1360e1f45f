"""Shared builders for seeded randomized sweeps."""

import numpy as np
import pytest

from roelab.operators import BlockOperator, FiberedSpace
from roelab.spaces import FiniteMetricSpace, from_edge_list


def random_graph_space(rng, n: int, extra_edges: int = 0) -> FiniteMetricSpace:
    """Connected graph metric: random spanning tree plus extra edges."""
    edges = []
    order = rng.permutation(n)
    for k in range(1, n):
        parent = order[rng.integers(0, k)]
        edges.append((int(parent), int(order[k])))
    for _ in range(extra_edges):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            edges.append((int(i), int(j)))
    return from_edge_list(n, edges)


def _relabeled(rng, n: int, edges) -> FiniteMetricSpace:
    """The graph metric of edges with its points renamed by a seeded permutation."""
    perm = rng.permutation(n)
    return from_edge_list(n, [(int(perm[i]), int(perm[j])) for i, j in edges])


def cycle_space(rng, n: int) -> FiniteMetricSpace:
    """The n-cycle (n >= 3), points in seeded random order."""
    return _relabeled(rng, n, [(k, (k + 1) % n) for k in range(n)])


def grid_space(rng, rows: int, cols: int) -> FiniteMetricSpace:
    """The rows x cols grid graph, points in seeded random order."""
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return _relabeled(rng, rows * cols, edges)


def tree_space(rng, n: int) -> FiniteMetricSpace:
    """Uniformly random labelled tree on n >= 2 points, decoded from a
    seeded Pruefer sequence (deeper and more uneven than the random
    recursive trees under random_graph_space)."""
    code = rng.integers(0, n, size=n - 2)
    degree = np.ones(n, dtype=np.int64)
    np.add.at(degree, code, 1)
    edges = []
    for v in code:
        leaf = int(np.flatnonzero(degree == 1)[0])
        edges.append((leaf, int(v)))
        degree[leaf] -= 1
        degree[v] -= 1
    edges.append(tuple(int(u) for u in np.flatnonzero(degree == 1)))
    return from_edge_list(n, edges)


def random_fibered(rng, space: FiniteMetricSpace, max_dim: int = 3) -> FiberedSpace:
    return FiberedSpace(space, rng.integers(1, max_dim + 1, size=space.n))


def indicator(space: FiberedSpace, A) -> BlockOperator:
    """Orthogonal projection onto the fibers over A (diagonal 0/1 blocks)."""
    mask = space.coord_mask(A)
    return BlockOperator(space, space, np.diag(mask.astype(complex)))


def scaled(T: BlockOperator, c: float) -> BlockOperator:
    """c T over T's spaces."""
    return BlockOperator(T.source, T.target, c * T.matrix)


def random_operator(rng, source: FiberedSpace, target: FiberedSpace) -> BlockOperator:
    shape = (target.total_dim, source.total_dim)
    mat = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return BlockOperator(source, target, mat)


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)
