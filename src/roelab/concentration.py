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

    def to_json(self) -> dict:
        return {
            "y": int(self.y),
            "R": self.R,
            "delta_actual": self.delta_actual,
            "A": [int(a) for a in self.A],
            "certificate": self.certificate,
            "bound": self.bound,
            "signs": [int(s) for s in self.signs],
            "h_index": int(self.h_index),
            "degenerate": self.degenerate,
        }


def concentration_witness(
    U: BlockOperator, y: int, R: float, h_index: int | None = 0
) -> ConcentrationWitness:
    """Build the set A certifying that U chi_A U* has a large far corner.

    h_index selects the fiber basis vector at y used for the probe vector
    v = U*(delta_y (x) e_h); pass None to sweep all basis vectors and
    keep the witness with the largest certificate (ties to the smallest
    index).
    """
    check_unitary(U)
    target = U.target
    if not 0 <= y < target.base.n:
        raise ValueError(f"point {y} out of range [0, {target.base.n})")
    if h_index is not None and not 0 <= h_index < target.fiber_dims[y]:
        raise ValueError(f"h_index {h_index} out of range for fiber dimension {target.fiber_dims[y]}")

    delta = float(corner_norm_table(U, R)[y].max())
    if delta > 1.0 - _UNIT_SNAP:
        delta = 1.0
    fiber = range(int(target.fiber_dims[y])) if h_index is None else [h_index]
    witnesses = [_witness(U, y, R, h, delta) for h in fiber]
    return max(witnesses, key=lambda w: (w.certificate, -w.h_index))


def _witness(U: BlockOperator, y: int, R: float, h_index: int, delta: float) -> ConcentrationWitness:
    """The witness for probe vector U*(delta_y (x) e_h), given delta = max_x
    ||chi_B U chi_x|| (which does not depend on h)."""
    target = U.target
    probe = int(target.offsets[y]) + int(h_index)
    v = U.matrix[probe].conj()  # = U* applied to the probe basis vector
    mass = np.add.reduceat(np.abs(v) ** 2, U.source.offsets[:-1])
    if not abs(float(mass.sum()) - 1.0) <= _SLACK:
        raise RuntimeError("probe vector lost normalization")

    B = target.base.ball(y, R)
    off_ball = ~target.coord_mask(B)
    n_src = U.source.base.n
    family = np.zeros((n_src, target.total_dim), dtype=complex)
    for x in range(n_src):
        sl = U.source.slice_of(x)
        family[x] = U.matrix[:, sl] @ v[sl]
    family *= off_ball[None, :]

    # the hypothesis' inequality, instance-checked for every x:
    # ||(1-chi_B) U chi_x v||^2 >= (1 - delta^2) ||chi_x v||^2
    gap = np.sum(np.abs(family) ** 2, axis=1) - (1 - delta**2) * mass
    if not gap.min() >= -_SLACK:
        raise RuntimeError("per-point corner inequality failed")

    selection = greedy_signs(list(family))
    if not selection.achieved >= (1 - delta**2) - _SLACK:
        raise RuntimeError("sign selection fell short")

    sets = {
        +1: np.flatnonzero(selection.signs == 1),
        -1: np.flatnonzero(selection.signs == -1),
    }
    not_B = np.setdiff1d(np.arange(target.base.n), B)
    rows = target.coords_of(not_B)
    y_cols = np.arange(target.offsets[y], target.offsets[y + 1])

    def corner_value(points) -> float:
        if points.size == 0 or rows.size == 0:
            return 0.0
        cols = U.source.coords_of(points)
        block = U.matrix[np.ix_(rows, cols)] @ U.matrix[np.ix_(y_cols, cols)].conj().T
        return spectral_norm(block)

    cert_plus = corner_value(sets[+1])
    cert_minus = corner_value(sets[-1])
    if cert_plus >= cert_minus:
        A, certificate = sets[+1], cert_plus
    else:
        A, certificate = sets[-1], cert_minus

    bound = 0.5 * float(np.sqrt(max(1.0 - delta**2, 0.0)))
    degenerate = not_B.size == 0
    if not degenerate and not certificate >= bound - _SLACK:
        raise RuntimeError("certificate fell below the guaranteed bound")
    return ConcentrationWitness(
        y=int(y),
        R=float(R),
        delta_actual=delta,
        A=tuple(int(a) for a in A),
        certificate=float(certificate),
        bound=bound,
        signs=selection.signs,
        h_index=int(h_index),
        degenerate=bool(degenerate),
    )
