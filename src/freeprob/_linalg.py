"""Fraction-free (Bareiss) integer elimination: rational null spaces.

Bareiss elimination keeps every intermediate entry an exact integer (each is
a minor of the input up to sign), so rational null spaces come out exactly
without rational arithmetic during the sweep.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

__all__ = ["nullspace_vector", "clear_denominators"]


def _forward_eliminate(a: list[list[int]]) -> tuple[list[tuple[int, int]], int]:
    """In-place fraction-free elimination; returns (pivot (row, col) list, swap sign)."""
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    pivots: list[tuple[int, int]] = []
    sign = 1
    prev = 1
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            a[r], a[pivot_row] = a[pivot_row], a[r]
            sign = -sign
        for i in range(r + 1, nrows):
            row_i, row_r = a[i], a[r]
            head = row_i[c]
            for j in range(c + 1, ncols):
                row_i[j] = (row_r[c] * row_i[j] - head * row_r[j]) // prev
            row_i[c] = 0
        prev = a[r][c]
        pivots.append((r, c))
        r += 1
        if r == nrows:
            break
    return pivots, sign


def clear_denominators(rows: list[list[Fraction]]) -> list[list[int]]:
    """Scale each row by the (positive) lcm of its denominators."""
    out = []
    for row in rows:
        scale = lcm(*(f.denominator for f in row)) if row else 1
        out.append([int(f * scale) for f in row])
    return out


def nullspace_vector(matrix: list[list[Fraction]]) -> list[Fraction]:
    """A nonzero rational solution of M x = 0 for a matrix of nullity one.

    Rows are scaled to integers, eliminated fraction-free, and the single
    free coordinate is set to 1 before exact back-substitution.
    """
    a = clear_denominators(matrix)
    ncols = len(a[0])
    pivots, _ = _forward_eliminate(a)
    pivot_cols = {c for _, c in pivots}
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    if len(free_cols) != 1:
        raise AssertionError(f"expected nullity 1, found {len(free_cols)} (internal error)")
    x = [Fraction(0)] * ncols
    x[free_cols[0]] = Fraction(1)
    for r, c in reversed(pivots):
        acc = Fraction(0)
        for j in range(c + 1, ncols):
            if a[r][j]:
                acc += a[r][j] * x[j]
        x[c] = -acc / a[r][c]
    return x
