"""Smith normal form by unit-pivot elimination, against sympy as the oracle.

The oracle calls sympy's ``invariant_factors`` on the whole dense matrix,
not through ``linalg``, which hands sympy only the residual block left
after the unit pivots.  The elimination is in turn the oracle for the
Smith form that ``K0Presentation`` reads off its certificate.
"""

import os
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import invariant_factors

from inccat.families import family_from_spec
from inccat.hall import k0_truncated
from inccat.linalg import rank_over_q, smith_diagonal

SRC = Path(__file__).resolve().parent.parent / "src"


def sympy_factors(rows):
    """Nonzero invariant factors of the dense matrix, straight from sympy."""
    if not rows or not rows[0]:
        return ()
    return tuple(int(d) for d in invariant_factors(Matrix(rows), domain=ZZ) if d != 0)


def sparse(rows):
    """Dense rows as the ``(column, value)`` entries that ``linalg`` takes."""
    return [tuple((j, a) for j, a in enumerate(row) if a) for row in rows]


def dense(entries, width):
    """A sparse row of ``(column, value)`` entries as a dense list."""
    row = [0] * width
    for j, a in entries:
        row[j] += a
    return row


def sympy_rank(rows):
    return Matrix(rows).rank() if rows and rows[0] else 0


@st.composite
def integer_matrices(draw):
    """0-7 x 0-7 matrices, units and zeros weighted up so both paths run."""
    m, n = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    entry = st.one_of(st.sampled_from([0, 0, 1, -1]), st.integers(-6, 6))
    return [[draw(entry) for _ in range(n)] for _ in range(m)]


@st.composite
def sparse_matrices(draw):
    """Up to 30 x 30, 0-4 entries a row from +-1, +-2 and 3: the pivot order matters."""
    m, n = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    rows = []
    for _ in range(m):
        row = [0] * n
        for j in draw(st.lists(st.integers(0, n - 1), max_size=4, unique=True)):
            row[j] = draw(st.sampled_from([1, -1, 2, -2, 3]))
        rows.append(row)
    return rows


class TestAgainstSympy:
    @settings(max_examples=300, deadline=None)
    @given(integer_matrices())
    @example([])  # empty matrix
    @example([[], []])  # rows without columns
    @example([[0, 0, 0], [0, 0, 0]])  # zero matrix
    @example([[0, 1, 0], [0, 0, 0], [0, 2, 0]])  # zero rows and columns
    @example([[2, 0], [0, 6]])  # torsion, residual only
    @example([[2, 4], [6, 8]])  # residual only
    @example([[2, 3]])  # residual only, factor 1
    @example([[1, 2, 0], [0, 4, 6], [3, 0, 9]])  # unit pivot, then a residual
    @example([[-1, 2], [3, 4], [5, -1]])  # negative unit pivots
    @example([[2, 3], [1, 1]])  # row 0 gains a unit from row 1's pivot: a second sweep
    @example([[1, 1, 0], [1, 0, 2], [0, 3, 2]])  # fill: row 1 gains column 1, held by row 2
    def test_matches_sympy(self, rows):
        assert smith_diagonal(sparse(rows)) == sympy_factors(rows)
        assert rank_over_q(sparse(rows)) == sympy_rank(rows)

    @settings(max_examples=100, deadline=None)
    @given(sparse_matrices())
    def test_sparse_matches_sympy(self, rows):
        assert smith_diagonal(sparse(rows)) == sympy_factors(rows)
        assert rank_over_q(sparse(rows)) == sympy_rank(rows)

    def test_torsion(self):
        assert smith_diagonal(sparse([[2, 0], [0, 6]])) == (2, 6)
        assert smith_diagonal(sparse([[1, 1], [1, -1]])) == (1, 2)

    def test_repeated_rows(self):
        assert smith_diagonal(sparse([[1, 1, 0], [1, 1, 0], [0, 3, 3]])) == (1, 3)


FAMILIES = ["fin", "forests", "csets:2", "cforests:2"]


@pytest.mark.parametrize("spec", FAMILIES)
def test_k0_relation_matrices_exhaustive(spec):
    """Every K0 relation matrix at cutoff <= 4, alone and with a generator row.

    ``K0Presentation`` reads its Smith form off the certificate; the general
    elimination on all of its relations is the oracle for that Smith form.
    The generator row is the class of a largest generator, so the extended
    matrix presents a quotient with torsion in fin and forests and leaves a
    residual block.  A repeated row leaves the row lattice, hence the
    invariant factors, unchanged; the oracle drops repeats to stay cheap.
    """
    ctx = family_from_spec(spec, 4)
    for cutoff in range(5):
        pres = k0_truncated(ctx, cutoff)
        assert pres.smith_diagonal == smith_diagonal(pres.relations), (spec, cutoff)
        rows = [dense(r, len(pres.generators)) for r in pres.relations]
        extended = rows + [pres.class_vector(pres.generators[-1])]
        last = ((len(pres.generators) - 1, 1),)
        for matrix, entries in ((rows, pres.relations), (extended, [*pres.relations, last])):
            distinct = [list(r) for r in sorted(set(map(tuple, matrix)))]
            assert smith_diagonal(entries) == sympy_factors(distinct), (spec, cutoff)


def run_without_sympy(code):
    """Run ``code`` in a fresh interpreter; True if it exits 0 without loading sympy."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code += "; sys.exit(1 if 'sympy' in sys.modules else 0)"
    return subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_import_does_not_load_sympy():
    assert run_without_sympy("import inccat.cli, sys")


def test_sweeps_leave_no_residual():
    """The sweeps find every unit pivot, so sympy never loads.

    On fin up to 6's relations, and on [[2, 3], [1, 1]], whose first row
    gains a unit only from the second row's pivot, in a second sweep.
    """
    code = (
        "import sys; from inccat import fin_up_to, k0_truncated, linalg; "
        "pres = k0_truncated(fin_up_to(6), 6); "
        "linalg.smith_diagonal(pres.relations) == pres.smith_diagonal or sys.exit(2); "
        "linalg.smith_diagonal([((0, 2), (1, 3)), ((0, 1), (1, 1))]) == (1, 1) or sys.exit(3)"
    )
    assert run_without_sympy(code)
