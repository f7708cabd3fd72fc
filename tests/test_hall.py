import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from inccat.category import CategoryObject, short_exact_sequences
from inccat import hall, memo
from inccat.errors import CoefficientError, FamilyError, IncCatError, TruncationError, VectorError
from inccat.families import (
    colored_sets_up_to,
    family_from_spec,
    fin_up_to,
    forests_up_to,
    sets_up_to,
)
from inccat.hall import (
    HallElement,
    TensorElement,
    antipode,
    coproduct,
    counit,
    delta,
    is_primitive,
    k0_truncated,
    lie_bracket,
    primitive_basis,
    product,
    reduced_coproduct,
    split_index,
    structure_constant,
    tensor_product,
    unit,
)
from inccat.linalg import smith_diagonal
from inccat.ideals import order_ideals
from inccat.posets import canonical_form, connected_components, induced_subposet, is_connected, relabel_by

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def fin():
    return fin_up_to(6)


@pytest.fixture(scope="module")
def sets():
    return sets_up_to(8)


def dense_relations(pres):
    """The sparse relation rows of a K0 presentation, as dense lists."""
    rows = []
    for row in pres.relations:
        dense = [0] * len(pres.generators)
        for j, a in row:
            dense[j] += a
        rows.append(dense)
    return rows


def cls_by_covers(ctx, size, n_covers):
    matches = [
        c for c in ctx.classes(size) if len(c.representative.covers) == n_covers
    ]
    assert len(matches) == 1
    return matches[0]


def ideal_walk_split_index(ctx, total):
    """Oracle for ``split_index``: build and classify both sides of every ideal.

    Every class walks its ideals, with no convolution over components and
    no key lookup without a poset, so the two routes check each other.
    """
    index = {}
    for r_cls in ctx.classes(total):
        rep = r_cls.representative
        counts = {}
        for ideal in order_ideals(rep).ideals:
            sub, _ = induced_subposet(rep, ideal)
            rest, _ = induced_subposet(rep, rep.full_mask & ~ideal)
            pair = (ctx.class_of(sub), ctx.class_of(rest))
            counts[pair] = counts.get(pair, 0) + 1
        for pair, n in counts.items():
            index.setdefault(pair, []).append((r_cls, n))
    return {pair: tuple(entries) for pair, entries in index.items()}


def per_ideal_split_counts(ctx, r_cls):
    """Oracle for ``_split_counts``: key both sides of every ideal from a built subposet.

    No convolution over components, no side lookup by restricted rows
    and no unsorted walk: each ideal of the sorted lattice builds both
    sides and keys them in ``canonical_form``.
    """
    rep = r_cls.representative
    counts = Counter()
    for ideal in order_ideals(rep).ideals:
        sub, _ = induced_subposet(rep, ideal)
        rest, _ = induced_subposet(rep, rep.full_mask & ~ideal)
        counts[canonical_form(sub, ctx.mode), canonical_form(rest, ctx.mode)] += 1
    return counts


def subset_loop_coproduct(f, ctx):
    """Oracle for ``coproduct``: all 2^m subsets of the m components, built and classified."""
    out = {}
    for cls, value in f.items():
        rep = cls.representative
        comps = connected_components(rep)
        for pick in range(1 << len(comps)):
            left_mask = 0
            for i, comp in enumerate(comps):
                if (pick >> i) & 1:
                    left_mask |= comp
            left, _ = induced_subposet(rep, left_mask)
            right, _ = induced_subposet(rep, rep.full_mask & ~left_mask)
            out[(ctx.class_of(left), ctx.class_of(right))] = value
    return TensorElement(out)


class TestElements:
    @pytest.mark.parametrize("bad", [0.1, 0.5, "1/2", None, 1j, True])
    def test_inexact_coefficient_is_refused(self, fin, bad):
        dot = fin.classes(1)[0]
        with pytest.raises(CoefficientError):
            HallElement({dot: bad})
        with pytest.raises(CoefficientError):
            TensorElement({(dot, dot): bad})

    @pytest.mark.parametrize("bad", [0.5, "1/2", None, True])
    def test_inexact_scalar_is_refused(self, fin, bad):
        f = delta(fin.classes(1)[0])
        with pytest.raises(CoefficientError):
            f * bad
        with pytest.raises(CoefficientError):
            bad * f

    def test_exact_coefficients_are_stored_as_fractions(self, fin):
        dot = fin.classes(1)[0]
        f = HallElement({dot: 3}) * Fraction(1, 2)
        assert f.coeffs == {dot: Fraction(3, 2)}
        assert all(type(v) is Fraction for v in (2 * HallElement({dot: 1})).coeffs.values())

    def test_delta_support(self, fin):
        d = delta(fin.classes(1)[0])
        assert len(d.coeffs) == 1 and d.coeff(fin.classes(1)[0]) == 1

    def test_delta_equality_iff_isomorphic(self, fin, chain2):
        assert delta(fin.class_of(chain2)) == delta(
            fin.class_of(chain2.relabel(["u", "v"]))
        )

    def test_arithmetic(self, fin):
        a = delta(fin.classes(1)[0])
        b = delta(fin.classes(2)[0])
        combo = 2 * a - b * Fraction(1, 3)
        assert combo.coeff(fin.classes(1)[0]) == 2
        assert combo.coeff(fin.classes(2)[0]) == Fraction(-1, 3)
        assert not (combo - combo)

    def test_no_zero_coefficients_stored(self, fin):
        a = delta(fin.classes(1)[0])
        assert (a - a).coeffs == {}


class TestProduct:
    def test_unit_element(self, fin):
        one = unit(fin)
        for size in range(3):
            for cls in fin.classes(size):
                assert product(one, delta(cls), fin) == delta(cls)
                assert product(delta(cls), one, fin) == delta(cls)

    def test_dot_squared(self, fin):
        dot = fin.classes(1)[0]
        result = product(delta(dot), delta(dot), fin)
        ac2 = cls_by_covers(fin, 2, 0)
        c2 = cls_by_covers(fin, 2, 1)
        assert result == HallElement({ac2: 2, c2: 1})

    def test_sets_binomial_instance(self, sets):
        result = product(delta(sets.classes(2)[0]), delta(sets.classes(1)[0]), sets)
        assert result == HallElement({sets.classes(3)[0]: 3})

    def test_sets_binomial_law(self, sets):
        for n in range(9):
            for m in range(9 - n):
                result = product(
                    delta(sets.classes(n)[0]), delta(sets.classes(m)[0]), sets
                )
                assert result == HallElement(
                    {sets.classes(n + m)[0]: math.comb(n + m, n)}
                )

    def test_bilinearity(self, fin):
        a = delta(fin.classes(1)[0])
        b = delta(cls_by_covers(fin, 2, 1))
        c = delta(cls_by_covers(fin, 2, 0))
        lhs = product(a, b + 2 * c, fin)
        rhs = product(a, b, fin) + 2 * product(a, c, fin)
        assert lhs == rhs

    def test_truncation_error(self):
        small = fin_up_to(1)
        d = delta(small.classes(1)[0])
        with pytest.raises(TruncationError):
            product(d, d, small)


class TestStructureConstants:
    def test_dot_dot(self, fin):
        dot = fin.classes(1)[0]
        assert structure_constant(dot, dot, cls_by_covers(fin, 2, 0)) == 2
        assert structure_constant(dot, dot, cls_by_covers(fin, 2, 1)) == 1

    def test_grading(self, fin):
        dot = fin.classes(1)[0]
        assert structure_constant(dot, dot, fin.classes(3)[0]) == 0

    def test_matches_product(self, fin):
        for sa in range(4):
            for a in fin.classes(sa):
                for sb in range(4 - sa):
                    for b in fin.classes(sb):
                        result = product(delta(a), delta(b), fin)
                        for r in fin.classes(sa + sb):
                            assert result.coeff(r) == structure_constant(a, b, r)

    @pytest.mark.parametrize(
        "make_ctx, max_total",
        [
            (lambda: fin_up_to(5), 5),
            (lambda: colored_sets_up_to(4, 2), 4),
            (lambda: forests_up_to(4), 4),
        ],
        ids=["fin", "csets2", "forests"],
    )
    def test_matches_product_exhaustively(self, make_ctx, max_total):
        ctx = make_ctx()
        classes = ctx.all_classes()
        for a in classes:
            for b in classes:
                total = a.size + b.size
                if total > max_total:
                    continue
                result = product(delta(a), delta(b), ctx)
                for r in ctx.classes(total):
                    assert result.coeff(r) == structure_constant(a, b, r), (a, b, r)

    def test_representative_independence(self, fin, chain3):
        relabeled = chain3.relabel(["z", "q", "m"])
        dot = fin.classes(1)[0]
        c2 = cls_by_covers(fin, 2, 1)
        assert structure_constant(dot, c2, fin.class_of(chain3)) == structure_constant(
            dot, c2, fin.class_of(relabeled)
        )

    def test_representative_permutation_independence(self, fin):
        # hand-built classes whose representatives are permuted copies
        from inccat.families import IsoClass

        dot, c2 = fin.classes(1)[0], cls_by_covers(fin, 2, 1)
        for cls in fin.classes(3):
            rep = cls.representative
            twisted = IsoClass(
                cls.key,
                relabel_by(rep, list(reversed(range(rep.size)))),
                cls.size,
                cls.color_vector,
                cls.mode,
            )
            assert structure_constant(dot, c2, twisted) == structure_constant(
                dot, c2, cls
            )


class TestCoproduct:
    def test_dot(self, fin):
        dot = fin.classes(1)[0]
        cp = coproduct(delta(dot), fin)
        e = fin.empty_class
        assert cp == TensorElement({(dot, e): 1, (e, dot): 1})

    def test_antichain_middle_term(self, fin):
        ac2 = cls_by_covers(fin, 2, 0)
        dot = fin.classes(1)[0]
        e = fin.empty_class
        cp = coproduct(delta(ac2), fin)
        assert cp == TensorElement(
            {(ac2, e): 1, (dot, dot): 1, (e, ac2): 1}
        )

    def test_chain_no_middle(self, fin):
        c2 = cls_by_covers(fin, 2, 1)
        cp = coproduct(delta(c2), fin)
        assert all(a.size == 0 or b.size == 0 for a, b in cp.coeffs)

    def test_cocommutative(self, fin):
        for size in range(5):
            for cls in fin.classes(size):
                cp = coproduct(delta(cls), fin)
                assert cp.flip() == cp

    def test_reduced(self, fin):
        ac2 = cls_by_covers(fin, 2, 0)
        dot = fin.classes(1)[0]
        assert reduced_coproduct(delta(ac2), fin) == TensorElement({(dot, dot): 1})


# Contexts on which the key-level split index and coproduct are compared
# with the oracles above, on every degree and every class.
KEY_LEVEL_SPECS = [("fin", 6), ("forests", 7), ("csets:2", 5), ("cforests:2", 4), ("sets", 10)]


class TestKeyLevelUnions:
    @pytest.mark.parametrize("spec, max_size", KEY_LEVEL_SPECS)
    def test_split_index_matches_ideal_walk(self, spec, max_size):
        ctx = family_from_spec(spec, max_size)
        for total in range(max_size + 1):
            assert split_index(ctx, total) == ideal_walk_split_index(ctx, total)

    # Each context walks its top size unsorted through ideal_masks and
    # convolves its disconnected classes; the oracle does neither.
    @pytest.mark.parametrize("spec, max_size", [("fin", 6), ("forests", 6), ("csets:2", 5), ("cforests:2", 4)])
    def test_split_counts_match_per_ideal_reference(self, spec, max_size):
        ctx = family_from_spec(spec, max_size)
        for cls in ctx.all_classes():
            assert hall._split_counts(ctx, cls) == per_ideal_split_counts(ctx, cls)

    def test_split_walk_stores_no_lattice_at_the_cutoff(self, cold_memo):
        ctx = fin_up_to(7)
        for total in range(1, 8):
            split_index(ctx, total)
        below = [cls.representative.leq for size in range(7) for cls in ctx.classes(size)]
        assert memo.stats()["ideal_lattices"] == len(below) == 406
        lattices = memo.process_table("ideal_lattices")
        assert all(leq in lattices for leq in below)

    # The chain is a component of the 2+2 chains, so the lookup of a
    # component's table fails; the antichain is a component of nothing,
    # so only the check of the side keys at the end of split_index sees it.
    @pytest.mark.parametrize("covers", [1, 0], ids=["chain", "antichain"])
    def test_split_index_rejects_a_side_outside_the_family(self, covers):
        ctx = fin_up_to(4)
        del ctx._by_key[cls_by_covers(ctx, 2, covers).key]
        with pytest.raises(FamilyError, match="not a member"):
            split_index(ctx, 4)
        assert 4 not in ctx.memo["splits"]

    @pytest.mark.parametrize("spec, max_size", KEY_LEVEL_SPECS)
    def test_coproduct_matches_subset_loop(self, spec, max_size):
        ctx = family_from_spec(spec, max_size)
        classes = ctx.all_classes()
        for cls in classes:
            assert coproduct(delta(cls), ctx) == subset_loop_coproduct(delta(cls), ctx)
        f = HallElement({cls: i + 1 for i, cls in enumerate(classes)})
        assert coproduct(f, ctx) == subset_loop_coproduct(f, ctx)

    def test_sets_up_to_20(self):
        # 2^20 subsets and ideals for the oracles; prod (m_i + 1) = 21 here.
        ctx = sets_up_to(20)
        (top,), (ten,) = ctx.classes(20), ctx.classes(10)
        cp = coproduct(delta(top), ctx)
        by_size = [group[0] for group in ctx.classes_by_size]
        assert cp == TensorElement({(by_size[k], by_size[20 - k]): 1 for k in range(21)})
        assert product(delta(ten), delta(ten), ctx) == HallElement({top: math.comb(20, 10)})
        assert antipode(delta(top), ctx) == delta(top)  # S(x_n) = (-1)^n x_n


class TestTensorProduct:
    def test_colliding_terms_sum(self, fin):
        # (dot (x) 1)(1 (x) dot) and (1 (x) dot)(dot (x) 1) both land on dot (x) dot.
        e, dot = fin.empty_class, fin.classes(1)[0]
        t1 = TensorElement({(dot, e): 2, (e, dot): 3})
        t2 = TensorElement({(dot, e): 5, (e, dot): 7})
        square = product(delta(dot), delta(dot), fin)
        expected = (
            TensorElement({(cls, e): 10 * v for cls, v in square.items()})
            + TensorElement({(dot, dot): 2 * 7 + 3 * 5})
            + TensorElement({(e, cls): 21 * v for cls, v in square.items()})
        )
        assert tensor_product(t1, t2, fin) == expected


class TestCounit:
    def test_values(self, fin):
        assert counit(unit(fin)) == 1
        assert counit(delta(fin.classes(1)[0])) == 0

    def test_counit_axiom(self, fin):
        for size in range(4):
            for cls in fin.classes(size):
                cp = coproduct(delta(cls), fin)
                recovered = HallElement.zero()
                for (a, b), v in cp.items():
                    recovered = recovered + v * counit(delta(a)) * delta(b)
                assert recovered == delta(cls)


class TestAntipode:
    def test_fixes_unit(self, fin):
        assert antipode(unit(fin), fin) == unit(fin)

    def test_primitive_negation(self, fin):
        dot = delta(fin.classes(1)[0])
        assert antipode(dot, fin) == -dot

    def test_antipode_axiom(self, fin):
        for size in range(1, 6):
            for cls in fin.classes(size):
                x = delta(cls)
                acc = HallElement.zero()
                for (a, b), v in coproduct(x, fin).items():
                    acc = acc + v * product(antipode(delta(a), fin), delta(b), fin)
                assert not acc  # eta(eps(x)) = 0 in positive degree

    def test_linear(self, fin):
        a = delta(fin.classes(1)[0])
        b = delta(cls_by_covers(fin, 2, 0))
        assert antipode(a + 3 * b, fin) == antipode(a, fin) + 3 * antipode(b, fin)


class TestBracketAndPrimitives:
    def test_self_bracket_vanishes(self, fin):
        d = delta(fin.classes(1)[0])
        assert not lie_bracket(d, d, fin)

    def test_sets_abelian(self, sets):
        for n in range(1, 4):
            for m in range(1, 4):
                assert not lie_bracket(
                    delta(sets.classes(n)[0]), delta(sets.classes(m)[0]), sets
                )

    def test_fin_nonabelian(self, fin):
        dot = delta(fin.classes(1)[0])
        c2 = delta(cls_by_covers(fin, 2, 1))
        assert lie_bracket(dot, c2, fin)

    def test_primitive_iff_connected(self, fin):
        for size in range(5):
            for cls in fin.classes(size):
                assert is_primitive(delta(cls), fin) == is_connected(
                    cls.representative
                )

    def test_bracket_of_primitives_primitive(self, fin):
        dot = delta(fin.classes(1)[0])
        c2 = delta(cls_by_covers(fin, 2, 1))
        bracket = lie_bracket(dot, c2, fin)
        assert is_primitive(bracket, fin)

    def test_primitive_basis_fin(self, fin):
        assert len(primitive_basis(fin, 0)) == 0
        assert len(primitive_basis(fin, 1)) == 1
        basis2 = primitive_basis(fin, 2)
        assert [f.support().pop().size for f in basis2] == [2]
        assert len(primitive_basis(fin, 3)) == 3  # connected posets on 3 points

    def test_primitive_basis_sets(self, sets):
        assert primitive_basis(sets, 1) != []
        assert primitive_basis(sets, 2) == []


class TestK0:
    def test_fin_rank_one(self):
        fin = fin_up_to(4)
        pres = k0_truncated(fin, 4)
        assert pres.free_rank == 1 and pres.torsion == ()
        dot = fin.classes(1)[0]
        for cls in pres.generators:
            vec = pres.class_vector(cls)
            dot_vec = pres.class_vector(dot)
            relation = [a - cls.size * b for a, b in zip(vec, dot_vec)]
            assert pres.relations_contain(relation)

    def test_point_is_not_a_relation(self):
        fin = fin_up_to(4)
        pres = k0_truncated(fin, 4)
        assert not pres.relations_contain(pres.class_vector(fin.classes(1)[0]))

    def test_color_difference_is_not_a_relation(self):
        csets = colored_sets_up_to(2, 2)
        pres = k0_truncated(csets, 2)
        red, blue = csets.classes(1)
        vec = [a - b for a, b in zip(pres.class_vector(red), pres.class_vector(blue))]
        assert not pres.relations_contain(vec)

    def test_membership_matches_two_smith_forms(self):
        # Oracle: compare the invariant factors before and after appending v,
        # on sums and differences of two generators and on k times a point.
        # Every pair is asked up to 30 generators; beyond that (cforests:2 at
        # cutoffs 3 and 4, 36 and 143 generators) each generator is paired
        # with the one before it, since one oracle query there costs 20-40 ms.
        # Repeated rows leave the lattice unchanged, so the oracle drops them.
        for spec in ("fin", "forests", "csets:2", "cforests:2"):
            ctx = family_from_spec(spec, 4)
            answers = set()
            for cutoff in range(5):
                pres = k0_truncated(ctx, cutoff)
                rows = sorted(set(pres.relations))
                base = smith_diagonal(rows)
                vectors = [pres.class_vector(cls) for cls in pres.generators]
                if len(vectors) <= 30:
                    pairs = [(u, w) for i, u in enumerate(vectors) for w in vectors[i + 1:]]
                else:
                    pairs = list(zip(vectors[1:], vectors))
                queries = [
                    [a + sign * b for a, b in zip(u, w)] for u, w in pairs for sign in (1, -1)
                ]
                queries += [
                    [k * a for a in pres.class_vector(point)]
                    for point in ctx.classes(1) if cutoff >= 1
                    for k in (-2, 0, 1, 3)
                ]
                for v in queries:
                    v_entries = tuple((j, a) for j, a in enumerate(v) if a)
                    expected = base == smith_diagonal(rows + [v_entries])
                    assert pres.relations_contain(v) == expected, (spec, cutoff, v)
                    answers.add(expected)
            assert answers == {True, False}, spec

    def test_colored_sets_rank_k(self):
        for k in (2, 3):
            pres = k0_truncated(colored_sets_up_to(3, k), 3)
            assert pres.free_rank == k and pres.torsion == ()

    def test_forests_rank_one(self):
        pres = k0_truncated(forests_up_to(4), 4)
        assert pres.free_rank == 1 and pres.torsion == ()

    def test_cutoff_one(self):
        pres = k0_truncated(fin_up_to(3), 1)
        assert pres.free_rank == 1  # the single one-point class survives

    def test_relations_respect_sizes(self):
        # each row is [X_I] + [X_{R\I}] - [X_R], so sizes cancel
        fin = fin_up_to(3)
        pres = k0_truncated(fin, 3)
        assert pres.relations
        for row in dense_relations(pres):
            assert sum(c * cls.size for c, cls in zip(row, pres.generators)) == 0

    def test_relations_are_sorted_nonzero_entries(self):
        pres = k0_truncated(fin_up_to(4), 4)
        for row in pres.relations:
            columns = [j for j, _ in row]
            assert 1 <= len(row) <= 3 and columns == sorted(set(columns))
            assert all(a and 0 <= j < len(pres.generators) for j, a in row)

    @pytest.mark.parametrize("spec", ["fin", "forests", "csets:2", "cforests:2"])
    def test_relations_match_short_exact_sequences(self, spec):
        # Oracle, kept apart from split_index on purpose: one row per
        # canonical short exact sequence of each generator, with the classes
        # of its ends read off the sequence's own objects.
        ctx = family_from_spec(spec, 4)
        for cutoff in range(5):
            pres = k0_truncated(ctx, cutoff)
            expected = Counter()
            for cls in pres.generators:
                for ses in short_exact_sequences(CategoryObject(cls.representative), ctx.mode):
                    ends = zip(
                        pres.class_vector(ctx.class_of(ses.sub.poset)),
                        pres.class_vector(ctx.class_of(ses.quotient.poset)),
                        pres.class_vector(cls),
                    )
                    expected[tuple(a + b - c for a, b, c in ends)] += 1
            assert Counter(map(tuple, dense_relations(pres))) == expected, (spec, cutoff)

    @pytest.mark.parametrize("spec", ["fin", "forests", "csets:2", "cforests:2"])
    def test_relations_are_the_counted_splits_of_the_index(self, spec):
        # Oracle: a flat walk of split_index, n copies of the row
        # [P] + [Q] - [R] for each entry (P, Q) -> (R, n), in order.
        ctx = family_from_spec(spec, 4)
        for cutoff in range(5):
            pres = k0_truncated(ctx, cutoff)
            column = {cls: j for j, cls in enumerate(pres.generators)}
            expected = []
            for total in range(cutoff + 1):
                for (p_cls, q_cls), entries in split_index(ctx, total).items():
                    for r_cls, n in entries:
                        row = [0] * len(pres.generators)
                        row[column[p_cls]] += 1
                        row[column[q_cls]] += 1
                        row[column[r_cls]] -= 1
                        expected += [tuple((j, a) for j, a in enumerate(row) if a)] * n
            assert pres.relations == tuple(expected), (spec, cutoff)
            assert pres.relation_count == len(expected), (spec, cutoff)

    def test_truncation(self):
        with pytest.raises(TruncationError):
            k0_truncated(fin_up_to(2), 3)

    def test_negative_cutoff(self):
        with pytest.raises(FamilyError):
            k0_truncated(fin_up_to(2), -1)

    @pytest.mark.parametrize(
        "vector",
        [[0] * 8, [0] * 10, [0.0] * 9, [0] * 8 + [1.0], ["0"] * 9, [False] * 9],
        ids=["short", "long", "floats", "one-float", "strings", "bools"],
    )
    def test_query_must_be_an_int_vector_over_the_generators(self, vector):
        pres = k0_truncated(fin_up_to(4), 3)
        assert len(pres.generators) == 9
        with pytest.raises(VectorError):
            pres.relations_contain(vector)

    def test_class_vector_above_cutoff(self):
        fin = fin_up_to(4)
        pres = k0_truncated(fin, 3)
        with pytest.raises(TruncationError):
            pres.class_vector(fin.classes(4)[0])

    def test_class_vector_outside_family(self):
        pres = k0_truncated(sets_up_to(3), 3)
        with pytest.raises(FamilyError):
            pres.class_vector(cls_by_covers(fin_up_to(2), 2, 1))

    def test_missing_certificate_row_raises(self, monkeypatch):
        # Without the splits of a point off each size-2 class, the
        # certificate cannot reach those classes.
        def no_point_splits(ctx, total):
            table = real_split_index(ctx, total)
            if total != 2:
                return table
            return {pair: e for pair, e in table.items() if pair[0].size != 1}

        real_split_index = hall.split_index
        monkeypatch.setattr(hall, "split_index", no_point_splits)
        with pytest.raises(IncCatError, match="single point"):
            k0_truncated(fin_up_to(3), 3)

    def test_smith_form_disagreeing_with_the_certificate_raises(self, monkeypatch):
        # Dropping the splits with an empty side frees the empty class:
        # the point splits remain, but the free rank becomes 2.
        def no_empty_splits(ctx, total):
            table = real_split_index(ctx, total)
            return {pair: e for pair, e in table.items() if pair[0].size and pair[1].size}

        real_split_index = hall.split_index
        monkeypatch.setattr(hall, "split_index", no_empty_splits)
        with pytest.raises(IncCatError, match="free rank 2"):
            k0_truncated(fin_up_to(3), 3)

    @pytest.mark.parametrize(
        "whole_size, expected",
        [(1, r"free rank 0 and torsion \[\]"), (0, r"free rank 0 and torsion \[2\]")],
        ids=["unit-residual", "torsion-residual"],
    )
    def test_extra_row_outside_the_certificate_raises(self, monkeypatch, whole_size, expected):
        # One more row (pt, pt) -> X: the certificate rows still pivot, and
        # the extra row reduces to [pt] + [pt] - [X] over the point column.
        # Into the point it leaves a unit, so nothing stays free; into the
        # empty class, which the row [empty] pins to zero, it leaves 2.
        def extra_split(ctx, total):
            table = real_split_index(ctx, total)
            if total != 2:
                return table
            point, whole = ctx.classes(1)[0], ctx.classes(whole_size)[0]
            table = dict(table)
            table[(point, point)] = (*table[(point, point)], (whole, 1))
            return table

        real_split_index = hall.split_index
        monkeypatch.setattr(hall, "split_index", extra_split)
        with pytest.raises(IncCatError, match=expected):
            k0_truncated(fin_up_to(3), 3)

    def test_queries_do_not_load_sympy(self):
        code = (
            "import sys\n"
            "from inccat import fin_up_to, k0_truncated\n"
            "ctx = fin_up_to(5)\n"
            "pres = k0_truncated(ctx, 5)\n"
            "big, point = ctx.classes(5)[0], ctx.classes(1)[0]\n"
            "vec = [a - 5 * b for a, b in zip(pres.class_vector(big), pres.class_vector(point))]\n"
            "assert pres.relations_contain(vec)\n"
            "assert not pres.relations_contain(pres.class_vector(big))\n"
            "sys.exit('sympy' in sys.modules)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def random_elements(ctx, max_degree=3):
    """Random rational combinations of deltas up to a degree."""
    classes = [cls for s in range(max_degree + 1) for cls in ctx.classes(s)]
    rationals = st.builds(
        Fraction, st.integers(-9, 9), st.integers(1, 9)
    )
    return st.lists(
        st.tuples(st.sampled_from(classes), rationals), min_size=0, max_size=4
    ).map(lambda terms: sum((c * delta(cls) for cls, c in terms), HallElement.zero()))


class TestLinearityOnRandomElements:
    """The axioms extend linearly; exercised on random rational combos."""

    CTX = None

    @classmethod
    def setup_class(cls):
        cls.CTX = fin_up_to(6)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_product_bilinear(self, data):
        ctx = self.CTX
        f = data.draw(random_elements(ctx))
        g = data.draw(random_elements(ctx))
        h = data.draw(random_elements(ctx))
        assert product(f + g, h, ctx) == product(f, h, ctx) + product(g, h, ctx)
        assert product(h, f + g, ctx) == product(h, f, ctx) + product(h, g, ctx)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_coproduct_and_antipode_linear(self, data):
        ctx = self.CTX
        f = data.draw(random_elements(ctx))
        g = data.draw(random_elements(ctx))
        assert coproduct(f + g, ctx) == coproduct(f, ctx) + coproduct(g, ctx)
        assert antipode(f + g, ctx) == antipode(f, ctx) + antipode(g, ctx)

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_antipode_axiom_on_combinations(self, data):
        ctx = self.CTX
        f = data.draw(random_elements(ctx))
        acc = HallElement.zero()
        for (a, b), v in coproduct(f, ctx).items():
            acc = acc + v * product(antipode(delta(a), ctx), delta(b), ctx)
        assert acc == counit(f) * unit(ctx)


class TestProductOnRandomElements:
    """Mixed-degree products against the structure-constant oracle.

    Dropping a multiplicity or pairing terms of the wrong degrees keeps the
    product bilinear, so only a comparison with N(P,Q;R) exposes it.
    """

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_product_matches_structure_constants(self, fin, data):
        f = data.draw(random_elements(fin))
        g = data.draw(random_elements(fin))
        expected = {}
        for p, x in f.items():
            for q, y in g.items():
                for r in fin.classes(p.size + q.size):
                    n = structure_constant(p, q, r)
                    if n:
                        expected[r] = expected.get(r, 0) + x * y * n
        assert product(f, g, fin) == HallElement(expected)


class TestGrading:
    def test_product_grading(self, fin):
        for sa in range(3):
            for a in fin.classes(sa):
                for sb in range(3):
                    for b in fin.classes(sb):
                        result = product(delta(a), delta(b), fin)
                        assert all(cls.size == sa + sb for cls in result.coeffs)

    def test_coproduct_grading(self, fin):
        for size in range(5):
            for cls in fin.classes(size):
                cp = coproduct(delta(cls), fin)
                assert all(a.size + b.size == size for a, b in cp.coeffs)

    def test_color_vector_degrees(self):
        cs2 = colored_sets_up_to(4, 2)
        a = [c for c in cs2.classes(1) if c.color_vector == (1, 0)][0]
        b = [c for c in cs2.classes(1) if c.color_vector == (0, 1)][0]
        result = product(delta(a), delta(b), cs2)
        assert all(cls.color_vector == (1, 1) for cls in result.coeffs)
