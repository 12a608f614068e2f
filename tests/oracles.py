"""Independent cross-checks that only the tests call.

The direct Hankel determinant (Bareiss elimination over the integer-scaled
matrix) checks the pivot scan of `jacobi_from_moments`, and `block_index`
serves the partition oracles.
"""

import math
from fractions import Fraction
from typing import Sequence

from freeprob._linalg import _forward_eliminate, clear_denominators
from freeprob.errors import BoundExceededError
from freeprob.transforms import JacobiFit

MAX_HANKEL_DIRECT = 24


def bareiss_det_sign(matrix: list[list[int]]) -> int:
    """Sign (-1, 0, +1) of the determinant of a square integer matrix."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    a = [list(row) for row in matrix]
    pivots, sign = _forward_eliminate(a)
    if len(pivots) < n:
        return 0
    last = a[pivots[-1][0]][pivots[-1][1]]
    return sign * ((last > 0) - (last < 0))


def hankel_sign(seq: Sequence, k: int) -> int:
    """Sign of det [seq_{i+j}]_{i,j=0..k} by fraction-free (Bareiss) elimination.

    Bound: k <= 24 for the direct determinant route.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k > MAX_HANKEL_DIRECT:
        raise BoundExceededError(f"direct Hankel determinant bound is k <= {MAX_HANKEL_DIRECT}")
    values = [Fraction(x) for x in seq]
    if 2 * k + 1 > len(values):
        raise BoundExceededError(f"need {2 * k + 1} sequence entries, have {len(values)}")
    rows = [[values[i + j] for j in range(k + 1)] for i in range(k + 1)]
    return bareiss_det_sign(clear_denominators(rows))


def hankel_sign_from_pivots(fit: JacobiFit, k: int) -> int:
    """Sign of the k-th Hankel determinant predicted from the pivot table:
    H_k = prod of the first k+1 diagonal pivots."""
    if k + 1 > len(fit.pivots):
        raise BoundExceededError(f"pivot table only covers k <= {len(fit.pivots) - 1}")
    return math.prod((pivot > 0) - (pivot < 0) for pivot in fit.pivots[: k + 1])


def block_index(p) -> dict[int, int]:
    """Map element -> index of its block in the canonical order of partition p."""
    return {x: i for i, block in enumerate(p.blocks) for x in block}
