"""Extracting coarse maps from unitaries via corner-norm thresholds.

A unitary U between fibered spaces concentrates, for each target point y,
some mass of the corners ||chi_{ball(y, R)} U chi_x|| at specific source
points once R is large enough.  Thresholding at delta picks the map
g(y) = argmax_x of that corner norm; running the same construction on U*
gives the partner map f, and the pair is certified as a coarse
equivalence by direct measurement.  `corner_norm_table` is the one
kernel for these norms: concentration witnesses and `footprint_control`
read it as well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .maps import EquivalenceReport, PointMap, certify_equivalence
from .operators import BlockOperator, check_unitary

__all__ = [
    "ExtractionReport",
    "MinimalRadiusError",
    "corner_norm_table",
    "minimal_radius",
    "extract_map",
    "extract_pair",
    "footprint_control",
]


class MinimalRadiusError(RuntimeError):
    """No radius admits the requested threshold; carries the worst point."""

    def __init__(self, y: int, best_norm: float, delta: float):
        super().__init__(
            f"no admissible radius: at full diameter the best corner norm at "
            f"point {y} is {best_norm:.6g} <= delta = {delta:g}"
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

    def to_json(self) -> dict:
        return {
            "delta": self.delta,
            "R": self.R,
            "g": [int(v) for v in self.g.values],
            "f": [int(v) for v in self.f.values],
            "witness_g": [float(w) for w in self.witness_g],
            "witness_f": [float(w) for w in self.witness_f],
            "equivalence": self.equivalence.to_json(),
        }


def corner_norm_table(U: BlockOperator, R: float) -> np.ndarray:
    """(n_target, n_source) array of ||chi_{ball(y, R)} U chi_x||.

    Vectorized over y: restricted Gram matrices of each point's column
    fiber accumulate through one mask multiplication, then a batched
    eigenvalue call takes the per-block spectral norms.
    """
    if not R >= 0:
        raise ValueError("radius must be >= 0")
    tbase, sbase = U.target.base, U.source.base
    ball_rows = (tbase.dist <= R)[:, U.target.coord_point]  # (n_y, target coords)
    out = np.zeros((tbase.n, sbase.n))
    for x in range(sbase.n):
        sl = U.source.slice_of(x)
        cols = U.matrix[:, sl]
        if cols.shape[1] == 1:
            out[:, x] = np.sqrt(ball_rows @ (np.abs(cols[:, 0]) ** 2))
        else:
            prods = np.einsum("ra,rb->rab", cols.conj(), cols)
            grams = np.tensordot(ball_rows.astype(float), prods, axes=(1, 0))
            eigs = np.linalg.eigvalsh(grams)
            out[:, x] = np.sqrt(np.maximum(eigs[..., -1], 0.0))
    return out


def minimal_radius(U: BlockOperator, delta: float) -> float:
    """Smallest realized radius R with max_x ||chi_{ball(y,R)} U chi_x|| > delta
    for every target point y.

    For delta < 1 this always exists on a finite space: at R = diameter
    the ball is everything and ||U chi_x|| = 1.  The error branch guards
    against numerically degenerate inputs anyway.
    """
    check_unitary(U)
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    best = None
    for R in U.target.base.realized_distances():
        best = corner_norm_table(U, float(R)).max(axis=1)
        if (best > delta).all():
            return float(R)
    worst = int(np.argmin(best))
    raise MinimalRadiusError(worst, float(best[worst]), delta)


def extract_map(U: BlockOperator, delta: float, R: float) -> tuple[PointMap, np.ndarray]:
    """The thresholded argmax map g(y) = argmax_x ||chi_{ball(y,R)} U chi_x||.

    Ties resolve to the smallest source index.  Returns the map Y -> X
    together with the witnessed corner norms, which must all exceed delta.
    """
    check_unitary(U)
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    table = corner_norm_table(U, R)
    values = np.argmax(table, axis=1)  # first maximum = smallest index
    witness = table[np.arange(table.shape[0]), values]
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
    the equivalence is certified by direct measurement.
    """
    R = max(minimal_radius(U, delta), minimal_radius(U.adjoint(), delta))
    g, witness_g = extract_map(U, delta, R)
    f, witness_f = extract_map(U.adjoint(), delta, R)
    return ExtractionReport(
        delta=float(delta),
        R=float(R),
        g=g,
        f=f,
        witness_g=witness_g,
        witness_f=witness_f,
        equivalence=certify_equivalence(f, g),
    )


def footprint_control(U: BlockOperator, delta: float, r: float) -> float:
    """Measured control radius: over all radius-r balls A in the source,
    the largest diameter of {y : ||chi_y U chi_A|| >= delta}.

    Empty footprints contribute 0.  Nonincreasing in delta, nondecreasing
    in r.
    """
    if not delta > 0:
        raise ValueError("delta must be > 0")
    if not r >= 0:
        raise ValueError("r must be >= 0")
    tbase = U.target.base
    worst = 0.0
    # row x of the adjoint's table holds ||chi_y U chi_ball(x, r)|| for every y
    for hits in corner_norm_table(U.adjoint(), r) >= delta:
        worst = max(worst, tbase.subset_diameter(np.flatnonzero(hits)))
    return float(worst)
