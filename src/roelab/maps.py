"""Maps between finite metric spaces and their coarse-geometric statistics.

A map is stored as an integer assignment array: ``values[x]`` is the image
of point ``x``.  Nothing here assumes continuity or injectivity; the
quantities of interest are the control modulus (how far pairs can spread),
closeness between parallel maps, and the net/partition machinery used to
build covering isometries.  A map's modulus profile is computed once, on
first use, and kept read-only in its `derived` store (`spaces.Derived`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spaces import Derived, FiniteMetricSpace, check_radius, check_range, integer_array, validate_point

__all__ = [
    "PointMap",
    "EquivalenceReport",
    "identity_map",
    "closeness",
    "compose",
    "certify_equivalence",
    "greedy_net",
    "voronoi_partition",
]


class PointMap(Derived):
    """A set map between two finite metric spaces.

    Parameters
    ----------
    source, target : FiniteMetricSpace
    values : sequence of int
        ``values[x]``, a point of the target, is the image of source point x.
    """

    def __init__(self, source: FiniteMetricSpace, target: FiniteMetricSpace, values):
        table = integer_array(values, "map values")  # an empty table reads as float64, and passes
        if table.shape != (source.n,):
            got = table.size if table.ndim == 1 else f"shape {table.shape}"
            raise ValueError(f"map needs one value per source point: expected {source.n}, got {got}")
        check_range(table, target.n, "map value")
        self.source = source
        self.target = target
        self.values = table.astype(np.int64)  # a private copy, frozen below
        self.values.setflags(write=False)
        self._derived = {}  # (build, *args) -> build(self, *args)

    def __call__(self, x: int) -> int:
        return int(self.values[validate_point(x, self.source.n)])

    def __eq__(self, other):
        if not isinstance(other, PointMap):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self):
        return f"PointMap({self.source.n} -> {self.target.n} points)"

    def modulus(self, r: float) -> float:
        """Control modulus at scale r: max d(f(x), f(x')) over the pairs
        with d(x, x') <= r, the profile's value at the largest realized
        source distance <= r (0 below the smallest positive one)."""
        at = np.searchsorted(self.source.realized_distances(), check_radius(r, "modulus scale"), "right")
        return float(self.derived(_level_moduli)[at - 1])

    def modulus_profile(self) -> list[tuple[float, float]]:
        """(r, modulus(r)) at each realized source distance r."""
        return list(zip(self.source.realized_distances().tolist(), self.derived(_level_moduli).tolist()))

    def to_json(self) -> dict:
        return {"source": self.source.to_json(), "target": self.target.to_json(),
                "table": [int(v) for v in self.values]}


def _level_moduli(f: PointMap) -> np.ndarray:
    """f's modulus at each realized source distance, kept through
    `derived`: one pass over the level labels takes the largest spread at
    each exact distance, then a running maximum, so each value is an
    exact max whatever the order of the pairs."""
    radii, labels = f.source.distance_levels()
    spread = f.target.dist.take(f.values, axis=0).take(f.values, axis=1)
    top = np.zeros(len(radii))
    np.maximum.at(top, labels.ravel(), spread.ravel())
    return np.maximum.accumulate(top)


def identity_map(space: FiniteMetricSpace) -> PointMap:
    return PointMap(space, space, np.arange(space.n))


def closeness(f: PointMap, g: PointMap) -> float:
    """sup_x d(f(x), g(x)) for two maps with the same source and target."""
    if f.source != g.source:
        raise ValueError("closeness needs maps with the same source space")
    if f.target != g.target:
        raise ValueError("closeness needs maps with the same target space")
    return float(f.target.dist[f.values, g.values].max())


def compose(g: PointMap, f: PointMap) -> PointMap:
    """The composite g o f (apply f first)."""
    if f.target != g.source:
        raise ValueError("compose: target of the inner map must equal source of the outer map")
    return PointMap(f.source, g.target, g.values[f.values])


@dataclass
class EquivalenceReport:
    """The measured constants of a pair of maps as a coarse equivalence.

    modulus profiles are (r, R(r)) pairs sampled at every realized source
    distance; closeness_fg = sup d(f(g(y)), y), closeness_gf likewise.
    On finite spaces every such pair is a coarse equivalence, so the
    content is in the numbers, not in a yes/no answer.
    """

    modulus_f: list
    modulus_g: list
    closeness_fg: float
    closeness_gf: float


def certify_equivalence(f: PointMap, g: PointMap) -> EquivalenceReport:
    """Measure how close (f, g) is to a coarse equivalence pair.

    f: X -> Y and g: Y -> X.  Records both control-modulus profiles and
    the closeness of f o g and g o f to the identities.
    """
    if f.source != g.target or f.target != g.source:
        raise ValueError("certify_equivalence needs f: X -> Y and g: Y -> X")
    return EquivalenceReport(
        f.modulus_profile(),
        g.modulus_profile(),
        closeness(compose(f, g), identity_map(f.target)),
        closeness(compose(g, f), identity_map(f.source)),
    )


def greedy_net(space: FiniteMetricSpace, s: float) -> np.ndarray:
    """Greedy s-net: scan points in index order, keep those at distance > s
    from everything kept so far.

    The result is s-separated (strict) and s-dominating: every point lies
    within s of some kept point, since a skipped point was within s of an
    earlier one.
    """
    s = check_radius(s, "net separation")
    near = space.dist <= s
    kept: list[int] = []
    covered = np.zeros(space.n, dtype=bool)
    for x in range(space.n):
        if not covered[x]:
            kept.append(x)
            covered |= near[x]
    return np.array(kept, dtype=np.int64)


def voronoi_partition(space: FiniteMetricSpace, centers) -> list[np.ndarray]:
    """Partition the space by nearest center, ties to the smallest center index.

    Returns one (possibly empty) cell per center, in the order the centers
    were given; the cells are disjoint and cover the space, and each center
    lies in its own cell.
    """
    centers = integer_array(centers, "centers").astype(np.int64)
    if centers.ndim != 1 or centers.size == 0:
        raise ValueError(f"voronoi centers must be a nonempty list, got {centers.tolist()}")
    if centers.size != np.unique(centers).size:
        raise ValueError("voronoi centers must be distinct")
    check_range(centers, space.n, "center")
    # Scan rows in ascending center-point order so the first minimum found
    # belongs to the smallest center index, regardless of the given order.
    order = np.argsort(centers)
    owner_sorted = np.argmin(space.dist[centers[order]], axis=0)
    owner = order[owner_sorted]
    # one stable sort lists each cell's points in ascending order, cell by
    # cell; the cells are slices of it
    points = np.argsort(owner, kind="stable").astype(np.int64)
    ends = np.cumsum(np.bincount(owner, minlength=centers.size)).tolist()
    return [points[start:end] for start, end in zip([0, *ends], ends)]
