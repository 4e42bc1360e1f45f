"""Extracting coarse maps from unitaries via corner-norm thresholds.

A unitary U between fibered spaces concentrates, for each target point y,
some mass of the corners ||chi_{ball(y, R)} U chi_x|| at specific source
points once R is large enough.  Thresholding at delta picks the map
g(y) = argmax_x of that corner norm; running the same construction on U*
gives the partner map f, and the pair is certified as a coarse
equivalence by direct measurement (the quantitative scheme of
Spakula-Willett, "On rigidity of Roe algebras", Adv. Math. 249, 2013).

`corner_norm_table` is the corner kernel of operators.py
(`corner_norms`, batched over the source points of each fiber dimension)
at the ball masks; concentration witnesses read it as well.  Corners
within `operators.ROUNDING_MARGIN` of a row's maximum count as tied and
go to the smallest index, so the extracted maps do not depend on the
order in which the kernel sums.  The radius search returns the table it
stopped at, and `extract_pair` reuses it: U*'s search starts at U's
radius, so it stops at the pair's radius.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .maps import EquivalenceReport, PointMap, certify_equivalence
from .operators import ROUNDING_MARGIN, BlockOperator, check_unitary, corner_norms
from .spaces import check_radius, is_real

__all__ = [
    "ExtractionReport",
    "MinimalRadiusError",
    "corner_norm_table",
    "minimal_radius",
    "extract_map",
    "extract_pair",
]


class MinimalRadiusError(RuntimeError):
    """No radius admits the requested threshold; carries the worst point."""

    def __init__(self, y: int, best_norm: float, delta: float):
        super().__init__(
            f"no admissible radius: at full diameter the best corner norm at "
            f"point {y} is {best_norm!r} <= delta = {delta!r}"
        )
        self.y = y
        self.best_norm = best_norm


@dataclass
class ExtractionReport:
    delta: float
    R: float
    g: PointMap  # Y -> X
    f: PointMap  # X -> Y
    witness_g: np.ndarray  # per-y corner norm at g(y), all > delta
    witness_f: np.ndarray  # per-x corner norm at f(x), all > delta
    equivalence: EquivalenceReport


def corner_norm_table(U: BlockOperator, R: float) -> np.ndarray:
    """(n_target, n_source) array of ||chi_{ball(y, R)} U chi_x||:
    `operators.corner_norms` at the ball masks."""
    return corner_norms(U, U.target.base.dist <= check_radius(R, "radius"))


def _check_delta(U: BlockOperator, delta) -> None:
    """U is unitary and delta a real number in (0, 1), or ValueError."""
    check_unitary(U)
    if not (is_real(delta) and 0 < delta < 1):
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")


def _threshold(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row y, the smallest x whose corner is within `ROUNDING_MARGIN`
    of the row maximum, and that corner.  Corners equal up to rounding
    thus tie to the smallest index, whatever order the kernel summed in."""
    top = table.max(axis=1, keepdims=True)
    values = np.argmax(table >= top - ROUNDING_MARGIN, axis=1)
    return values, table[np.arange(table.shape[0]), values]


def minimal_radius(U: BlockOperator, delta: float) -> tuple[float, np.ndarray]:
    """Smallest realized radius R at which every target point y has a
    thresholded corner ||chi_{ball(y,R)} U chi_x|| > delta, together with
    the corner table at that R.

    The test reads the same witness `extract_map` picks (the tie rule of
    `_threshold`), so the map at the returned R always exists.  For
    delta < 1 such an R exists on a finite space: at R = diameter the
    ball is everything and ||U chi_x|| = 1.  The error branch guards
    against numerically degenerate inputs anyway.
    """
    _check_delta(U, delta)
    return _radius_scan(U, delta, 0.0)


def _radius_scan(U: BlockOperator, delta: float, start: float) -> tuple[float, np.ndarray]:
    """`minimal_radius` on inputs already checked, among the radii from
    `start` on: `start`, then the realized distances above it."""
    realized = U.target.base.realized_distances()
    witness = None
    for R in [start, *realized[realized > start]]:
        table = corner_norm_table(U, R)
        _, witness = _threshold(table)
        if (witness > delta).all():
            return float(R), table
    worst = int(np.argmin(witness))
    raise MinimalRadiusError(worst, float(witness[worst]), delta)


def extract_map(U: BlockOperator, delta: float, R: float) -> tuple[PointMap, np.ndarray]:
    """The thresholded argmax map g(y) = argmax_x ||chi_{ball(y,R)} U chi_x||.

    Corners within `ROUNDING_MARGIN` of the row maximum count as tied,
    and ties resolve to the smallest source index.  Returns the map
    Y -> X together with the witnessed corner norms, which must all
    exceed delta.
    """
    _check_delta(U, delta)
    return _map_from_table(U, corner_norm_table(U, R), delta, R)


def _map_from_table(U: BlockOperator, table: np.ndarray, delta: float, R: float):
    values, witness = _threshold(table)
    failing = np.flatnonzero(witness <= delta)
    if failing.size:
        raise ValueError(
            f"(delta={delta:g}, R={R:g}) is inadmissible: corner norm at target "
            f"point(s) {failing.tolist()} is at most delta"
        )
    return PointMap(U.target.base, U.source.base, values), witness


def extract_pair(U: BlockOperator, delta: float = 0.5) -> ExtractionReport:
    """Extract the coarse-equivalence pair (f, g) from a unitary.

    R is the larger of the minimal admissible radii for U and U*, so the
    same radius serves both directions; g comes from U, f from U*, and
    the equivalence is certified by direct measurement.  U*'s radius
    search starts at U's radius R_g, so it stops at R on the table f
    reads; only g builds one more table, at R, when R exceeds R_g.
    """
    R_g, table_g = minimal_radius(U, delta)  # checks U once; U* is unitary exactly when U is
    Ustar = U.adjoint()
    R, table_f = _radius_scan(Ustar, delta, R_g)
    if R_g < R:
        table_g = corner_norm_table(U, R)
    g, witness_g = _map_from_table(U, table_g, delta, R)
    f, witness_f = _map_from_table(Ustar, table_f, delta, R)
    return ExtractionReport(
        delta=float(delta),
        R=float(R),
        g=g,
        f=f,
        witness_g=witness_g,
        witness_f=witness_f,
        equivalence=certify_equivalence(f, g),
    )
