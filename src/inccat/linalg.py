"""Exact integer/rational linear algebra, backed by sympy.

Only the two operations the Hall algebra needs: Smith normal form
diagonals of integer relation matrices, and exact rank over the
rationals.
"""

from __future__ import annotations

from sympy import Matrix, ZZ
from sympy.matrices.normalforms import invariant_factors


def smith_diagonal(rows: list[list[int]]) -> tuple[int, ...]:
    """Nonzero invariant factors d1 | d2 | ... of an integer matrix."""
    if not rows:
        return ()
    factors = invariant_factors(Matrix(rows), domain=ZZ)
    return tuple(int(d) for d in factors if d != 0)


def rank_over_q(rows: list[list[int]]) -> int:
    if not rows:
        return 0
    return Matrix(rows).rank()

