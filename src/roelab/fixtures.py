"""Bundled example inputs: the standard map families used throughout the
tests and sweeps."""

from __future__ import annotations

import functools

import numpy as np

from .maps import PointMap, identity_map
from .operators import FiberedSpace, random_band_unitary
from .spaces import path_space
from .covering import covering_unitary

__all__ = [
    "MAP_KINDS",
    "halving_map",
    "standard_pair",
    "noisy_covering_unitary",
]

MAP_KINDS = ("identity", "reflection", "halving")
"""The kinds of `standard_pair`, in the order its refusal and `sweep --h`
list them."""


def halving_map(n: int) -> PointMap:
    """path_space(2n) -> path_space(n), i -> floor(i / 2)."""
    return standard_pair("halving", n)[0]


def standard_pair(kind: str, n: int) -> tuple[PointMap, PointMap]:
    """A named coarse equivalence (h, partner) on path spaces.

    identity and reflection act on path_space(n) and are their own partners;
    halving collapses path_space(2n) onto path_space(n) with doubling as
    partner, and the two maps share both spaces.
    """
    if kind == "identity":
        h = identity_map(path_space(n))
        return h, h
    if kind == "reflection":
        space = path_space(n)
        h = PointMap(space, space, np.arange(n)[::-1])
        return h, h
    if kind == "halving":
        coarse, fine = path_space(n), path_space(2 * n)  # a malformed n is named as given
        return PointMap(fine, coarse, np.arange(2 * n) // 2), PointMap(coarse, fine, 2 * np.arange(n))
    raise ValueError(f"unknown map kind {kind!r}; expected {', '.join(MAP_KINDS[:-1])}, or {MAP_KINDS[-1]}")


def noisy_covering_unitary(
    kind: str,
    n: int,
    seed: int,
    noise_radius: float = 2.0,
    layers: int = 1,
    fiber_dim: int = 1,
):
    """U = U_h (band noise): a covering unitary of the named map composed
    with a seeded random band unitary on the source side.

    Returns (U, h, plan).  The halving kind uses one-dimensional source
    fibers so the reconciled target carries two-dimensional fibers.  The
    cover is built once per (kind, n, fiber_dim): calls that differ only
    in the noise share h, plan and W, which are all read-only.  W is a
    permutation matrix, so W @ V is a gather of V's rows, not a BLAS
    product (`BlockOperator.__matmul__`).
    """
    h, W, plan = _cover(kind, n, fiber_dim)
    V = random_band_unitary(W.source, noise_radius, layers, seed)
    return W @ V, h, plan


@functools.lru_cache(maxsize=32)
def _cover(kind: str, n: int, fiber_dim: int):
    """(h, W, plan) for the named map; shared by every seed, since only
    the band noise depends on it."""
    h, _ = standard_pair(kind, n)
    W, plan = covering_unitary(h, FiberedSpace.uniform(h.source, fiber_dim))
    return h, W, plan
