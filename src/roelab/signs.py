"""Sign selection for families of Hilbert-space vectors.

The underlying identity: averaging ||sum_k e_k v_k||^2 over independent
uniform signs e_k gives exactly sum_k ||v_k||^2, so some sign pattern
reaches at least that value.  `greedy_signs` derandomizes the average by
conditional expectations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SignSelection", "greedy_signs"]


@dataclass
class SignSelection:
    signs: np.ndarray  # entries +1/-1
    achieved: float  # ||sum_k signs[k] v_k||^2
    target: float  # sum_k ||v_k||^2


def _stack(vectors) -> np.ndarray:
    mats = [np.asarray(v, dtype=complex).ravel() for v in vectors]
    if not mats:
        return np.zeros((0, 0), dtype=complex)
    dim = mats[0].size
    for k, v in enumerate(mats):
        if v.size != dim:
            raise ValueError(f"vector {k} has dimension {v.size}, expected {dim}")
    return np.array(mats)


def greedy_signs(vectors) -> SignSelection:
    """Deterministic signs with ||sum e_k v_k||^2 >= sum ||v_k||^2.

    e_k = +1 exactly when Re<s_{k-1}, v_k> >= 0 for the running sum
    s_{k-1}; each step adds 2 e_k Re<s_{k-1}, v_k> >= 0 to the cross
    terms, so the guarantee is exact in exact arithmetic.
    """
    mat = _stack(vectors)
    m = mat.shape[0]
    target = float(np.sum(np.abs(mat) ** 2))
    signs = np.ones(m, dtype=np.int64)
    running = np.zeros(mat.shape[1] if m else 0, dtype=complex)
    for k in range(m):
        if np.real(np.vdot(running, mat[k])) < 0:
            signs[k] = -1
        running = running + signs[k] * mat[k]
    achieved = float(np.real(np.vdot(running, running)))
    return SignSelection(signs, achieved, target)
