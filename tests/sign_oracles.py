"""Exhaustive sign-pattern oracles for `roelab.signs.greedy_signs`.

Both enumerate all 2^m patterns of a family of m vectors, in fixed-size
chunks to bound memory, and refuse families larger than
BRUTE_FORCE_LIMIT.
"""

import numpy as np

from roelab.signs import SignSelection, _stack

BRUTE_FORCE_LIMIT = 20

_CHUNK = 1 << 14


def _pattern_chunk(start: int, stop: int, m: int) -> np.ndarray:
    """Rows start..stop-1 of the +/-1 pattern table, in an enumeration
    where row 0 is all +1 and the last coordinate flips fastest."""
    codes = np.arange(start, stop, dtype=np.uint32)
    bits = (codes[:, None] >> np.arange(m - 1, -1, -1)) & 1
    return 1 - 2 * bits.astype(np.int64)


def brute_force_signs(vectors) -> SignSelection:
    """Global maximum of ||sum e_k v_k||^2 over all sign patterns.

    Ties resolve to the earliest pattern in enumeration order (all-plus
    first).
    """
    mat = _stack(vectors)
    m = mat.shape[0]
    if m > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force over 2^{m} sign patterns refused (limit {BRUTE_FORCE_LIMIT})")
    target = float(np.sum(np.abs(mat) ** 2))
    if m == 0:
        return SignSelection(np.zeros(0, dtype=np.int64), 0.0, 0.0)
    best_value = -1.0
    best_pattern = None
    for start in range(0, 2**m, _CHUNK):
        patterns = _pattern_chunk(start, min(start + _CHUNK, 2**m), m)
        sums = patterns.astype(complex) @ mat
        values = np.sum(np.abs(sums) ** 2, axis=1)
        k = int(np.argmax(values))  # first maximizer within the chunk
        if values[k] > best_value:  # strict: keeps the earliest across chunks
            best_value = float(values[k])
            best_pattern = patterns[k].copy()
    return SignSelection(best_pattern, best_value, target)


def rademacher_average(vectors) -> float:
    """Exact average of ||sum e_k v_k||^2 over all 2^m sign patterns."""
    mat = _stack(vectors)
    m = mat.shape[0]
    if m > BRUTE_FORCE_LIMIT:
        raise ValueError(f"exact average over 2^{m} sign patterns refused (limit {BRUTE_FORCE_LIMIT})")
    if m == 0:
        return 0.0
    total = 0.0
    for start in range(0, 2**m, _CHUNK):
        patterns = _pattern_chunk(start, min(start + _CHUNK, 2**m), m)
        sums = patterns.astype(complex) @ mat
        total += float(np.sum(np.abs(sums) ** 2))
    return total / 2**m
