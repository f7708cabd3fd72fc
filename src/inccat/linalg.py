"""Exact integer linear algebra: Smith normal form by unit-pivot elimination.

Only the two operations the Hall algebra needs: Smith normal form
diagonals of integer relation matrices, and exact rank over the
rationals (the number of nonzero invariant factors over the integers).

The relation matrices are sparse and nearly all of their entries are
+-1, so the elimination keeps each row as a dict ``{column: value}`` and
pivots on unit entries.  Pivoting on a unit ``a_ij`` removes row i and
column j and replaces every other row k by ``row_k - a_kj*a_ij*row_i``;
that Schur complement A' is again integral and ``SNF(A) = (1) (+)
SNF(A')``, so each pivot contributes one invariant factor 1.  Among the
unit entries the pivot of least Markowitz cost ``(row nnz - 1)*(column
nnz - 1)`` goes first, which keeps the fill-in small.  A residual block
with no unit entry left, if any, goes to sympy's ``invariant_factors``;
sympy is imported only then.  Every value is a Python int throughout.

Each row comes in as its sparse ``(column, value)`` entries, ``Entries``.

``hall.K0Presentation`` pivots on its certificate's rows itself and hands
this module only the rows left over, none when the certificate holds.
On all of its relations, whose rows it builds only for this check,
``smith_diagonal`` is the oracle for that reduction, in tests and in CI.
"""

from __future__ import annotations

import heapq
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
    """Pivot on unit entries while any is left; return (#pivots, residual rows)."""
    matrix = _SparseMatrix(rows)
    pivots = 0
    while (pivot := matrix.cheapest_unit()) is not None:
        matrix.pivot(*pivot)
        pivots += 1
    return pivots, list(matrix.rows.values())


class _SparseMatrix:
    """Nonzero rows as ``{column: value}`` dicts, with the Markowitz bookkeeping.

    The cost of a unit entry a_ij is ``(row nnz - 1)*(column nnz - 1)``.
    ``col_heaps[j]`` holds ``(row nnz - 1, i)`` for the unit entries of
    column j, so its head gives the column's cheapest unit; ``heap`` holds
    ``(cost, j)`` for the columns.  Both are lazy: an entry is pushed again
    whenever its value changes, and a stale entry is dropped when it comes
    to the head.  A pivot changes only the rows it updates and the columns
    those rows and the pivot row meet, so only those are pushed again.
    """

    def __init__(self, rows: Iterable[Entries]):
        self.rows: dict[int, dict[int, int]] = {}
        self.cols: dict[int, set[int]] = {}
        # A repeated row adds nothing to the row lattice, which alone fixes
        # the nonzero invariant factors, so only its first copy is kept.
        distinct = dict.fromkeys(map(tuple, rows))
        for i, entries in enumerate(distinct):
            if entries:
                self.rows[i] = dict(entries)
                for j, _ in entries:
                    self.cols.setdefault(j, set()).add(i)
        self.col_heaps: dict[int, list[tuple[int, int]]] = {}
        self.heap: list[tuple[int, int]] = []
        for i in self.rows:
            self._push_row(i)
        for j in self.cols:
            self._push_col(j)

    def cheapest_unit(self) -> tuple[int, int] | None:
        """The unit entry (row, column) of least Markowitz cost, or None."""
        heap = self.heap
        while heap:
            cost, j = heap[0]
            head = self._col_head(j)
            if head is not None and head[0] * (len(self.cols[j]) - 1) == cost:
                return head[1], j
            heapq.heappop(heap)
        return None

    def pivot(self, i: int, j: int) -> None:
        """Replace the matrix by its Schur complement at the unit entry a_ij."""
        rows, cols = self.rows, self.cols
        row_i = rows.pop(i)
        for c in row_i:
            cols[c].discard(i)
        a_ij = row_i.pop(j)
        updated = cols.pop(j)
        touched = set(row_i)
        for k in updated:
            row_k = rows[k]
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
            if row_k:
                self._push_row(k)
                touched.update(row_k)
            else:
                del rows[k]
        for c in touched:
            self._push_col(c)

    def _push_row(self, i: int) -> None:
        count = len(self.rows[i]) - 1
        for j, a in self.rows[i].items():
            if a == 1 or a == -1:
                heapq.heappush(self.col_heaps.setdefault(j, []), (count, i))

    def _push_col(self, j: int) -> None:
        head = self._col_head(j)
        if head is not None:
            heapq.heappush(self.heap, (head[0] * (len(self.cols[j]) - 1), j))

    def _col_head(self, j: int) -> tuple[int, int] | None:
        """(row nnz - 1, row) of a sparsest row with a unit in column j, or None."""
        heap = self.col_heaps.get(j)
        while heap:
            count, i = heap[0]
            row = self.rows.get(i)
            if row is not None and len(row) - 1 == count and row.get(j) in (1, -1):
                return heap[0]
            heapq.heappop(heap)
        return None


def _residual_factors(residual: list[dict[int, int]]) -> tuple[int, ...]:
    """Nonzero invariant factors of the rows left without a unit entry."""
    if not residual:
        return ()
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import invariant_factors

    columns = sorted({j for row in residual for j in row})
    dense = Matrix([[row.get(j, 0) for j in columns] for row in residual])
    return tuple(int(d) for d in invariant_factors(dense, domain=ZZ) if d != 0)
