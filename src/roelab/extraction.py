"""Extracting coarse maps from unitaries via corner-norm thresholds.

A unitary U between fibered spaces concentrates, for each target point y,
some mass of the corners ||chi_{ball(y, R)} U chi_x|| at specific source
points once R is large enough.  Thresholding at delta picks the map
g(y) = argmax_x of that corner norm; running the same construction on U*
gives the partner map f, and the pair is certified as a coarse
equivalence by direct measurement (the quantitative scheme of
Spakula-Willett, "On rigidity of Roe algebras", Adv. Math. 249, 2013).

`corner_norm_table` is the one kernel for these norms, batched over the
source points of each fiber dimension; concentration witnesses and
`footprint_control` read it as well.  Corners within 1e-12 of a row's
maximum count as tied and go to the smallest index, so the extracted
maps do not depend on the order in which the kernel sums.  The radius
search returns the table it stopped at, and `extract_pair` reuses it.
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

# corners this close to their row maximum are tied up to rounding
_TIE_TOL = 1e-12
# bytes per chunk of the d-dim Gram stacks in `corner_norm_table`
_GRAM_STACK_BYTES = 2 << 20


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
    """(n_target, n_source) array of ||chi_{ball(y, R)} U chi_x||."""
    if not R >= 0:
        raise ValueError("radius must be >= 0")
    return _corner_norms(U, U.target.base.dist <= R)


def _corner_norms(U: BlockOperator, rows: np.ndarray) -> np.ndarray:
    """(k, n_source) array of ||chi_B U chi_x|| over the k target point sets B
    given by the rows of a boolean (k, n_target) mask.

    The mask is cast to float once, and the source points are taken
    in groups of equal fiber dimension: 1-dim fibers in one matrix
    product of the mask with the squared column moduli, d-dim fibers in
    one Gram product of the mask with the per-point column outer products.
    For d = 2 the top eigenvalue comes in closed form (`_top_eig_2x2`),
    which reads only |c0|^2, |c1|^2 and conj(c1) c0 of the point's
    columns c0, c1, so only those are built, as four real columns per
    point; for d >= 3 it comes from one batched eigenvalue call.  The
    d-dim stacks are built in chunks of source points of at most
    `_GRAM_STACK_BYTES` each.  Entries equal the per-point
    computation up to summation order (a few ulps).
    """
    source = U.source
    mask = rows[:, U.target.coord_point].astype(float)  # (k, target coords)
    out = np.zeros((len(rows), source.base.n))
    for d in np.unique(source.fiber_dims):
        points = np.flatnonzero(source.fiber_dims == d)
        if d == 1:
            cols = U.matrix[:, source.offsets[points]]
            out[:, points] = np.sqrt(mask @ (cols.real**2 + cols.imag**2))
            continue
        per_point = max(mask.shape) * d * d * 16  # bytes of one point's Gram stack
        step = max(1, _GRAM_STACK_BYTES // per_point)
        for chunk in np.array_split(points, -(-points.size // step)):
            idx = source.offsets[chunk][:, None] + np.arange(d)
            cols = np.ascontiguousarray(U.matrix[:, idx])  # (rows, k, d)
            if d == 2:
                c0, c1 = cols[..., 0], cols[..., 1]
                cross = c1.conj() * c0
                parts = np.stack(
                    (c0.real**2 + c0.imag**2, c1.real**2 + c1.imag**2, cross.real, cross.imag), axis=-1
                )  # (rows, k, 4)
                sums = (mask @ parts.reshape(len(parts), -1)).reshape(len(rows), chunk.size, 4)
                top = _top_eig_2x2(sums[..., 0], sums[..., 1], np.hypot(sums[..., 2], sums[..., 3]))
            else:
                prods = cols.conj()[..., :, None] * cols[..., None, :]  # (rows, k, d, d), C order
                # a real product on the interleaved (re, im) pairs: the mask is real
                grams = (mask @ prods.reshape(len(prods), -1).view(float)).view(complex)
                top = np.linalg.eigvalsh(grams.reshape(len(rows), chunk.size, d, d))[..., -1]
            out[:, chunk] = np.sqrt(np.maximum(top, 0.0))
    return out


def _top_eig_2x2(a: np.ndarray, c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Top eigenvalue of each Hermitian [[a, conj(b)], [b, c]], given its
    diagonal a, c and the modulus b of its lower entry, which `eigvalsh`
    reads: (a + c)/2 + hypot((a - c)/2, b).  The Grams are positive
    semidefinite, so a, c >= 0 and both terms are >= 0: the sum has no
    cancellation and stays within a few ulps of the LAPACK value."""
    return 0.5 * (a + c) + np.hypot(0.5 * (a - c), b)


def _threshold(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row y, the smallest x whose corner is within `_TIE_TOL` of the
    row maximum, and that corner.  Corners equal up to rounding thus tie
    to the smallest index, whatever order the kernel summed in."""
    top = table.max(axis=1, keepdims=True)
    values = np.argmax(table >= top - _TIE_TOL, axis=1)
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
    check_unitary(U)
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    witness = None
    for R in U.target.base.realized_distances():
        table = corner_norm_table(U, float(R))
        _, witness = _threshold(table)
        if (witness > delta).all():
            return float(R), table
    worst = int(np.argmin(witness))
    raise MinimalRadiusError(worst, float(witness[worst]), delta)


def extract_map(U: BlockOperator, delta: float, R: float) -> tuple[PointMap, np.ndarray]:
    """The thresholded argmax map g(y) = argmax_x ||chi_{ball(y,R)} U chi_x||.

    Corners within `_TIE_TOL` (1e-12) of the row maximum count as tied,
    and ties resolve to the smallest source index.  Returns the map
    Y -> X together with the witnessed corner norms, which must all
    exceed delta.
    """
    check_unitary(U)
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
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
    the equivalence is certified by direct measurement.  Each direction
    reuses the table its radius search ended on; only a direction whose
    own radius is below R builds one more table, at R.
    """
    R_g, table_g = minimal_radius(U, delta)
    Ustar = U.adjoint()  # after the check, so U* shares U's residual
    R_f, table_f = minimal_radius(Ustar, delta)
    R = max(R_g, R_f)
    if R_g < R:
        table_g = corner_norm_table(U, R)
    if R_f < R:
        table_f = corner_norm_table(Ustar, R)
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
