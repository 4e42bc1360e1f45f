"""Concentration witnesses: turning small corners into quasi-locality failures.

Given a unitary U whose corners chi_B U chi_x at a ball B around y are
uniformly small (maximum norm delta), conjugating a suitable indicator
projection by U produces an operator with a provably large corner over
the R-separated pair ({y}, complement of B).  The set A is built exactly
as in the underlying argument: take v = U*(basis vector at y), apply the
greedy sign selection to the family (1 - chi_B) U chi_x (v), and keep
either the plus set or the minus set, whichever certifies more.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .extraction import corner_norm_table
from .operators import BlockOperator, check_unitary, spectral_norm
from .signs import greedy_signs
from .spaces import check_radius, validate_point

__all__ = ["ConcentrationWitness", "concentration_witness"]

_SLACK = 1e-9
# corner norms of a unitary this close to 1 are 1 up to rounding; the
# sqrt in the bound would otherwise amplify the last ulp into 1e-8 noise
_UNIT_SNAP = 1e-12


@dataclass
class ConcentrationWitness:
    y: int
    R: float
    delta_actual: float  # max_x ||chi_B U chi_x|| at B = ball(y, R)
    A: tuple  # chosen point set (the plus or the minus set of the signs)
    certificate: float  # ||chi_{Y \ B} U chi_A U* chi_y||
    bound: float  # (1 - delta_actual^2)^(1/2) / 2
    signs: np.ndarray
    h_index: int
    degenerate: bool  # B swallowed all of Y, so no separated pair exists


def concentration_witness(
    U: BlockOperator, y: int, R: float, h_index: int | None = 0
) -> ConcentrationWitness:
    """Build the set A certifying that U chi_A U* has a large far corner.

    h_index selects the fiber basis vector at y used for the probe vector
    v = U*(delta_y (x) e_h); pass None to sweep all basis vectors and
    keep the witness with the largest certificate (ties to the smallest
    index).  Computed once per call, whatever h_index: delta from one
    `corner_norm_table`, the coordinates off B = ball(y, R) from
    ``dist[y] > R``, and U's rows over y.
    """
    check_unitary(U)
    target = U.target
    y = validate_point(y, target.base.n)
    if h_index is not None:
        h_index = validate_point(h_index, int(target.fiber_dims[y]), "h_index")
    R = check_radius(R, "radius")

    delta = float(corner_norm_table(U, R)[y].max())
    if delta > 1.0 - _UNIT_SNAP:
        delta = 1.0
    off_ball = (target.base.dist[y] > R)[target.coord_point]
    y_rows = U.matrix[target.slice_of(y)]
    fiber = range(y_rows.shape[0]) if h_index is None else [h_index]
    witnesses = [_witness(U, y, R, h, delta, off_ball, y_rows) for h in fiber]
    return max(witnesses, key=lambda w: (w.certificate, -w.h_index))


def _witness(U: BlockOperator, y: int, R: float, h_index: int, delta: float,
             off_ball: np.ndarray, y_rows: np.ndarray) -> ConcentrationWitness:
    """The witness for probe vector v = U*(delta_y (x) e_h), given the
    caller's delta, mask of the coordinates off B and rows of U over y."""
    v = y_rows[h_index].conj()  # = U* applied to the probe basis vector
    mass = np.add.reduceat(np.abs(v) ** 2, U.source.offsets[:-1])
    if not abs(float(mass.sum()) - 1.0) <= _SLACK:
        raise RuntimeError("probe vector lost normalization")

    family = np.zeros((U.source.base.n, U.target.total_dim), dtype=complex)
    for x in range(U.source.base.n):
        sl = U.source.slice_of(x)
        family[x] = U.matrix[:, sl] @ v[sl]
    family *= off_ball[None, :]

    # the hypothesis' inequality, instance-checked for every x:
    # ||(1-chi_B) U chi_x v||^2 >= (1 - delta^2) ||chi_x v||^2
    gap = np.sum(np.abs(family) ** 2, axis=1) - (1 - delta**2) * mass
    if not gap.min() >= -_SLACK:
        raise RuntimeError("per-point corner inequality failed")

    selection = greedy_signs(family)
    if not selection.achieved >= (1 - delta**2) - _SLACK:
        raise RuntimeError("sign selection fell short")

    # ||chi_{Y \ B} U chi_A U* chi_y|| for A the plus and the minus set; an
    # empty A or an empty Y \ B gives an all-zero or empty block, so 0.0
    certified = []
    for A in (np.flatnonzero(selection.signs == 1), np.flatnonzero(selection.signs == -1)):
        cols = U.source.coords_of(A)
        block = U.matrix[np.ix_(off_ball, cols)] @ y_rows[:, cols].conj().T
        certified.append((spectral_norm(block), A))
    certificate, A = max(certified, key=lambda c: c[0])  # a tie keeps the plus set

    bound = 0.5 * float(np.sqrt(max(1.0 - delta**2, 0.0)))
    degenerate = not off_ball.any()
    if not degenerate and not certificate >= bound - _SLACK:
        raise RuntimeError("certificate fell below the guaranteed bound")
    return ConcentrationWitness(
        y=y, R=R, delta_actual=delta, A=tuple(int(a) for a in A), certificate=float(certificate),
        bound=bound, signs=selection.signs, h_index=h_index, degenerate=degenerate,
    )
