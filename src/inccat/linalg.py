"""Exact integer linear algebra: Smith normal form by unit-pivot elimination.

Only the two operations the Hall algebra needs: Smith normal form
diagonals of integer relation matrices, and exact rank over the
rationals (the number of nonzero invariant factors over the integers).

The relation matrices are sparse and nearly all of their entries are
+-1, so the elimination keeps each row as a dict ``{column: value}`` and
pivots on unit entries.  Pivoting on a unit ``a_ij`` removes row i and
column j and replaces every other row k by ``row_k - a_kj*a_ij*row_i``;
that Schur complement A' is again integral and ``SNF(A) = (1) (+)
SNF(A')``, so each pivot contributes one invariant factor 1.  The rows
are swept in increasing length; at each row with a unit entry, the
pivot is the unit whose column holds the fewest rows, which keeps the
fill-in small.  Sweeps repeat until a whole sweep makes no pivot.  No
priority queue orders the pivots, because no caller needs one:
``primitive_basis`` hands this module small reduced coproduct matrices,
and the oracle all of the K0 relations, whose sweeps reach every unit
pivot in seconds even at fin up to 8 (605,062 rows).  A residual block with no unit entry left, if any, goes to
sympy's ``invariant_factors``; sympy is imported only then.  Every
value is a Python int throughout.

Each row comes in as its sparse ``(column, value)`` entries, ``Entries``.

``hall.K0Presentation`` reads its Smith form off its certificate and
calls ``smith_diagonal`` only when the certificate fails, for the exact
factors of its error.  On all of its relations, whose rows it builds
only for this check, ``smith_diagonal`` is the oracle for the certified
Smith form, in tests and in CI.
"""

from __future__ import annotations

from typing import Iterable, Sequence

# One sparse row: its nonzero entries, each column at most once.
Entries = Sequence[tuple[int, int]]


def smith_diagonal(rows: Sequence[Entries]) -> tuple[int, ...]:
    """Nonzero invariant factors d1 | d2 | ... of an integer matrix."""
    pivots, residual = _eliminate_units(rows)
    return (1,) * pivots + _residual_factors(residual)


def rank_over_q(rows: Sequence[Entries]) -> int:
    """Rank over Q: the number of nonzero invariant factors over Z."""
    # Same computation as len(smith_diagonal(rows)), through the helpers so
    # that each public function's call count stays its own.
    pivots, residual = _eliminate_units(rows)
    return pivots + len(_residual_factors(residual))


def _eliminate_units(rows: Iterable[Entries]) -> tuple[int, list[dict[int, int]]]:
    """Pivot on unit entries while any is left; return (#pivots, residual rows).

    Rows are ``{column: value}`` dicts, and ``cols[j]`` is the set of rows
    with an entry in column j.
    """
    matrix: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    # A repeated row adds nothing to the row lattice, which alone fixes the
    # nonzero invariant factors, so only its first copy is kept.
    for i, entries in enumerate(dict.fromkeys(map(tuple, rows))):
        if entries:
            matrix[i] = dict(entries)
            for j, _ in entries:
                cols.setdefault(j, set()).add(i)
    pivots = 0
    while True:
        before = pivots
        for i in sorted(matrix, key=lambda i: len(matrix[i])):
            row_i = matrix.get(i)
            if row_i is None:
                continue
            units = [j for j, a in row_i.items() if a == 1 or a == -1]
            if not units:
                continue
            # Replace the matrix by its Schur complement at the unit a_ij.
            j = min(units, key=lambda c: len(cols[c]))
            del matrix[i]
            for c in row_i:
                cols[c].discard(i)
            a_ij = row_i.pop(j)
            for k in cols.pop(j):
                row_k = matrix[k]
                factor = row_k.pop(j) * a_ij
                for c, a in row_i.items():
                    value = row_k.get(c, 0) - factor * a
                    if value:
                        if c not in row_k:
                            cols[c].add(k)
                        row_k[c] = value
                    elif c in row_k:
                        del row_k[c]
                        cols[c].discard(k)
                if not row_k:
                    del matrix[k]
            pivots += 1
        if pivots == before:
            return pivots, list(matrix.values())


def _residual_factors(residual: list[dict[int, int]]) -> tuple[int, ...]:
    """Nonzero invariant factors of the rows left without a unit entry."""
    if not residual:
        return ()
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import invariant_factors

    columns = sorted({j for row in residual for j in row})
    dense = Matrix([[row.get(j, 0) for j in columns] for row in residual])
    return tuple(int(d) for d in invariant_factors(dense, domain=ZZ) if d != 0)
