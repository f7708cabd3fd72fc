"""Two relations between split tables that no single family's walk checks.

A Hall number of P counts ideals of P alone, and the families are closed
under convex subposets, so a class's split entries do not depend on the
family that holds it: the split index of a subfamily is the larger
family's index restricted to the subfamily's classes (restriction).  The
complement of an ideal I of P is an ideal of P^op, so each entry
(A, B) -> P with multiplicity n has the entry (B^op, A^op) -> P^op with
multiplicity n (duality).  Entries are compared by key bytes; the keys of
the duals are taken in the context's own mode, as its classes are.  Both
checks share no path with the split walk except ``canonical_form``.

Run as a script it checks both relations at full size, duality on fin:7
and restriction of forests:7 to fin:7, and exits 1 on a mismatch:

    PYTHONPATH=src python -O tests/test_split_relations.py
"""

import sys

import pytest

from inccat.families import colored_forests_up_to, colored_sets_up_to, fin_up_to, forests_up_to
from inccat.hall import split_index
from inccat.posets import canonical_form


def entries(ctx, total):
    """The sorted (A, B, P, n) of the split index of one degree, by key bytes."""
    return sorted(
        (a.key, b.key, r.key, n) for (a, b), found in split_index(ctx, total).items() for r, n in found
    )


def restricted(big, small, total):
    """The entries of ``big`` whose whole P is a class of ``small``."""
    keep = {cls.key for cls in small.classes(total)}
    return [entry for entry in entries(big, total) if entry[2] in keep]


def dual_entries(ctx, total):
    """(B^op, A^op, P^op, n) for each entry (A, B, P, n) of ``ctx``, sorted."""
    dual = {cls.key: canonical_form(cls.representative.dual(), ctx.mode) for cls in ctx.all_classes()}
    return sorted((dual[b], dual[a], dual[r], n) for a, b, r, n in entries(ctx, total))


def restriction_holds(big, small):
    return small.mode is big.mode and all(
        entries(small, total) == restricted(big, small, total) for total in range(small.max_size + 1)
    )


def duality_holds(ctx, dual_ctx):
    return dual_ctx.mode is ctx.mode and all(
        dual_entries(ctx, total) == entries(dual_ctx, total) for total in range(ctx.max_size + 1)
    )


@pytest.fixture(scope="module")
def fin6():
    return fin_up_to(6)


def test_forests_are_fin_restricted(fin6):
    assert restriction_holds(fin6, forests_up_to(6))


def test_colored_sets_are_colored_forests_restricted():
    assert restriction_holds(colored_forests_up_to(4, 2), colored_sets_up_to(4, 2))


def test_fin_is_self_dual(fin6):
    assert duality_holds(fin6, fin6)


@pytest.mark.parametrize(
    "make", [lambda **kw: forests_up_to(6, **kw), lambda **kw: colored_forests_up_to(4, 2, **kw)],
    ids=["forests6", "cforests2-4"],
)
def test_root_max_forests_are_dual_to_forests(make):
    assert duality_holds(make(), make(root_max=True))


def test_restriction_sees_a_missing_entry(fin6):
    # a subfamily whose index lost one entry no longer matches
    small = forests_up_to(6)
    pair, found = next(iter(split_index(small, 4).items()))
    split_index(small, 4)[pair] = found[1:]
    assert not restriction_holds(fin6, small)


def test_duality_sees_a_changed_multiplicity():
    ctx = forests_up_to(5)
    pair, ((r_cls, n), *rest) = next((p, f) for p, f in split_index(ctx, 5).items() if p[0].size)
    split_index(ctx, 5)[pair] = ((r_cls, n + 1), *rest)
    assert not duality_holds(ctx, forests_up_to(5, root_max=True))


if __name__ == "__main__":
    fin7 = fin_up_to(7)
    checks = {
        "duality fin:7": duality_holds(fin7, fin7),
        "restriction forests:7 in fin:7": restriction_holds(fin7, forests_up_to(7)),
    }
    for name, held in checks.items():
        print(f"{'ok  ' if held else 'FAIL'} {name}")
    sys.exit(not all(checks.values()))
