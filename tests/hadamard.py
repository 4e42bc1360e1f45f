"""The hand-checked 2-point fixture.

It is small enough to verify by hand: two points at distance 3,
one-dimensional fibers, U = (1/sqrt 2) [[1, 1], [1, -1]].  With y = 0
and R = 2 the ball is {0}, both corners have norm 1/sqrt 2, and
conjugating the indicator of either single point gives a far corner of
exactly 1/2 against the guaranteed 0.5 * sqrt(1 - 1/2) ~ 0.35355.
"""

import numpy as np

from roelab.operators import BlockOperator, FiberedSpace
from roelab.spaces import FiniteMetricSpace


def hadamard_fixture() -> tuple[FiberedSpace, BlockOperator]:
    space = FiniteMetricSpace([[0.0, 3.0], [3.0, 0.0]])
    fibered = FiberedSpace.uniform(space, 1)
    mat = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    return fibered, BlockOperator(fibered, fibered, mat)
