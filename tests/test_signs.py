"""Sign selection: greedy achieves the squared-norm target, brute force tops it."""

import numpy as np
import pytest

from roelab.signs import greedy_signs

from sign_oracles import brute_force_signs, rademacher_average


def random_family(rng, n, dim):
    return [rng.standard_normal(dim) + 1j * rng.standard_normal(dim) for _ in range(n)]


def achieved_value(vectors, signs):
    total = sum(s * v for s, v in zip(signs, vectors))
    return float(np.linalg.norm(total) ** 2)


def test_single_vector():
    sel = greedy_signs([np.array([3.0 + 4.0j])])
    assert list(sel.signs) == [1]
    assert sel.achieved == pytest.approx(25.0)
    assert sel.target == pytest.approx(25.0)


def test_opposite_pair_flips_second():
    v = np.array([1.0, 2.0])
    sel = greedy_signs([v, -v])
    assert list(sel.signs) == [1, -1]
    assert sel.achieved == pytest.approx(4 * np.dot(v, v))


def test_orthogonal_family_all_plus():
    vectors = [np.eye(4)[k] for k in range(4)]
    sel = greedy_signs(vectors)
    assert list(sel.signs) == [1, 1, 1, 1]  # ties resolve to +1
    assert sel.achieved == pytest.approx(sel.target)


def test_greedy_meets_target(rng):
    for _ in range(50):
        vectors = random_family(rng, int(rng.integers(1, 13)), int(rng.integers(1, 9)))
        sel = greedy_signs(vectors)
        target = sum(np.linalg.norm(v) ** 2 for v in vectors)
        assert sel.target == pytest.approx(target, abs=1e-9)
        assert sel.achieved >= sel.target - 1e-9
        assert sel.achieved == pytest.approx(achieved_value(vectors, sel.signs), abs=1e-9)


def test_brute_force_dominates_greedy(rng):
    for _ in range(10):
        vectors = random_family(rng, 12, 6)
        greedy = greedy_signs(vectors)
        brute = brute_force_signs(vectors)
        assert brute.achieved >= greedy.achieved - 1e-9
        assert brute.achieved >= brute.target - 1e-9
        assert brute.achieved == pytest.approx(achieved_value(vectors, brute.signs), abs=1e-9)


def test_brute_force_exact_on_tiny_instance():
    vectors = [np.array([1.0]), np.array([2.0]), np.array([-3.0])]
    brute = brute_force_signs(vectors)
    # best signing lines all three up: (1*1 + 2*1 + (-3)*(-1))^2 = 36
    assert brute.achieved == pytest.approx(36.0)
    assert achieved_value(vectors, brute.signs) == pytest.approx(36.0)


def test_brute_force_first_maximizer_tie():
    # symmetric instance: flipping all signs preserves the value, so the
    # first pattern in enumeration order (all +1 first) must win its class
    vectors = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    brute = brute_force_signs(vectors)
    assert list(brute.signs) == [1, 1]


def test_brute_force_limit():
    vectors = [np.ones(1) for _ in range(21)]
    with pytest.raises(ValueError):
        brute_force_signs(vectors)


def test_rademacher_average_equals_target(rng):
    for _ in range(10):
        vectors = random_family(rng, 10, 5)
        target = sum(np.linalg.norm(v) ** 2 for v in vectors)
        assert rademacher_average(vectors) == pytest.approx(target, abs=1e-9)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        greedy_signs([np.ones(2), np.ones(3)])


def test_empty_family_degenerates_to_zero():
    for result in (greedy_signs([]), brute_force_signs([])):
        assert len(result.signs) == 0
        assert result.achieved == 0.0
        assert result.target == 0.0
    assert rademacher_average([]) == 0.0


def test_equal_pair_tie_resolves_to_all_plus():
    e = np.array([1.0, 0.0])
    brute = brute_force_signs([e, e])
    assert list(brute.signs) == [1, 1]
    assert brute.achieved == pytest.approx(4.0)


def test_sign_flip_symmetry(rng):
    vectors = random_family(rng, 8, 4)
    flipped = [-v for v in vectors]
    assert greedy_signs(vectors).achieved == pytest.approx(
        greedy_signs(flipped).achieved, abs=1e-9
    )
    assert brute_force_signs(vectors).achieved == pytest.approx(
        brute_force_signs(flipped).achieved, abs=1e-9
    )
