import dataclasses
import functools
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from inccat import families
from inccat.errors import NotAnIdealError, TruncationError
from inccat.families import colored_sets_up_to, fin_up_to, sets_up_to
from inccat.hall import HallElement, TensorElement, antipode, coproduct, delta, product
from inccat.ideals import interval_to_quotient_lattice, order_ideals
from inccat.incidence import (
    IncidenceElement,
    IntervalClass,
    interval_class,
    interval_row,
    phi,
    phi_inverse,
    schmitt_antipode,
    schmitt_coproduct,
    schmitt_counit,
    schmitt_product,
    schmitt_product_element,
    schmitt_product_ideal_form,
    schmitt_unit,
    verify_hopf_relation,
)
from inccat.posets import MapMode, Poset, induced_subposet

from conftest import posets as poset_strategy


@pytest.fixture(scope="module")
def fin():
    return fin_up_to(5)


def indicator(cls):
    return IncidenceElement({IntervalClass(cls): Fraction(1)})


def cls_by_covers(ctx, size, n_covers):
    matches = [c for c in ctx.classes(size) if len(c.representative.covers) == n_covers]
    assert len(matches) == 1
    return matches[0]


class TestIntervalClasses:
    def test_well_defined(self, fin, chain2):
        relabeled = chain2.relabel(["u", "v"])
        assert IntervalClass(fin.class_of(chain2)) == IntervalClass(
            fin.class_of(relabeled)
        )

    def test_interval_classification(self, fin, chain3):
        # [I, L] with I = {a}, L = {a,b}: a one-point convex piece
        cls = interval_class(chain3, 0b001, 0b011, fin)
        assert cls.size == 1

    def test_requires_nested_ideals(self, fin, chain3):
        with pytest.raises(NotAnIdealError):
            interval_class(chain3, 0b011, 0b001, fin)

    def test_sizes_never_related(self, fin):
        assert IntervalClass(fin.empty_class) != IntervalClass(fin.classes(1)[0])

    def test_eq_and_hash_agree_with_iso_class(self, fin):
        classes = [cls for size in range(4) for cls in fin.classes(size)]
        for a in classes:
            relabelled = a.representative.relabel([f"x{i}" for i in range(a.size)])
            twin = dataclasses.replace(a, representative=relabelled)
            assert IntervalClass(a) == IntervalClass(twin)
            assert hash(IntervalClass(a)) == hash(a) == hash(IntervalClass(twin))
            assert IntervalClass(a) != a
            for b in classes:
                assert (IntervalClass(a) == IntervalClass(b)) == (a == b)


def by_intervals(p, ideal):
    return (
        interval_to_quotient_lattice(p, 0, ideal).quotient,
        interval_to_quotient_lattice(p, ideal, p.full_mask).quotient,
    )


def by_subposets(p, ideal):
    return induced_subposet(p, ideal)[0], induced_subposet(p, p.full_mask & ~ideal)[0]


def fresh_row(p, ctx, sides=by_intervals):
    """P's row classified afresh, ideal by ideal, from the two posets ``sides`` builds."""
    return tuple(
        tuple(IntervalClass(ctx.class_of(side)) for side in sides(p, ideal))
        for ideal in order_ideals(p).ideals
    )


class TestIntervalMemo:
    """``interval_row`` memoizes one row per poset; the table never changes a class."""

    @pytest.mark.parametrize(
        "make", [lambda: fin_up_to(4), lambda: colored_sets_up_to(3, 2)], ids=["fin4", "csets2-3"]
    )
    def test_warm_memo_matches_fresh_classification(self, make):
        ctx = make()
        reps = [cls.representative for cls in ctx.all_classes()]
        # warm the table in the reverse order, then read every row back
        for p in reversed(reps):
            interval_row(p, ctx)
        assert len(ctx.memo["intervals"]) == len(reps)
        for p in reps:
            assert interval_row(p, ctx) == fresh_row(p, ctx)
            # the key ignores labels: a relabelled copy reads the same row
            relabelled = p.relabel([f"x{i}" for i in range(p.size)])
            assert interval_row(relabelled, ctx) is interval_row(p, ctx)
        assert len(ctx.memo["intervals"]) == len(reps)

    def test_key_distinguishes_colors(self):
        ctx = colored_sets_up_to(3, 2)
        same, mixed = Poset((0b01, 0b10), colors=(0, 0)), Poset((0b01, 0b10), colors=(0, 1))
        warm = interval_row(same, ctx)
        assert interval_row(mixed, ctx) != warm
        assert interval_row(mixed, ctx) == fresh_row(mixed, ctx)
        assert interval_row(mixed, ctx)[0][1] == IntervalClass(ctx.class_of(mixed))

    def test_errors_not_memoised(self, chain2, chain3):
        ctx = fin_up_to(2)
        assert len(interval_row(chain2, ctx)) == 3
        for _ in range(2):
            with pytest.raises(TruncationError):
                interval_row(chain3, ctx)
        assert list(ctx.memo["intervals"]) == [(chain2.leq, chain2.colors)]


@functools.cache
def cfin(mode):
    """Every 2-colored poset up to size 5, classified in the given map mode."""
    return families._family("cfin:2", mode, 2, 5, lambda p: list(order_ideals(p).ideals))


def ideal_by_ideal(f, g, row):
    return sum((f.coeff(low) * g.coeff(up) for low, up in row), Fraction(0))


@settings(max_examples=60, deadline=None)
@given(poset_strategy(max_size=5, num_colors=2), st.sampled_from(list(MapMode)), st.data())
def test_products_match_ideal_by_ideal_sums(p, mode, data):
    # The context is shared across examples, so the interval table is warm
    # with other posets; the same order with other colors goes in first,
    # so a key that ignored the colors would hand back its row.
    ctx = cfin(mode)
    interval_row(Poset(p.leq, None, tuple(1 - c for c in p.colors)), ctx)
    classes = sorted({c for pair in fresh_row(p, ctx) for c in pair}, key=lambda c: c.iso.key)
    classes += map(IntervalClass, data.draw(st.lists(st.sampled_from(ctx.all_classes()), max_size=3)))
    coefficient = st.integers(-3, 3).map(Fraction)
    f, g = (
        IncidenceElement(data.draw(st.dictionaries(st.sampled_from(classes), coefficient)))
        for _ in range(2)
    )
    expected = ideal_by_ideal(f, g, fresh_row(p, ctx))
    assert schmitt_product(f, g, p, ctx) == expected
    by_subposet = ideal_by_ideal(f, g, fresh_row(p, ctx, by_subposets))
    assert schmitt_product_ideal_form(f, g, p, ctx) == by_subposet == expected


class TestSchmittProduct:
    def test_antichain_value(self, fin):
        ac2 = cls_by_covers(fin, 2, 0)
        f = indicator(fin.classes(1)[0])
        assert schmitt_product(f, f, ac2.representative, fin) == 2

    def test_unit_behavior(self, fin):
        one = schmitt_unit(fin)
        for size in range(5):
            for cls in fin.classes(size):
                g = indicator(cls)
                assert schmitt_product_element(one, g, fin) == g
                assert schmitt_product_element(g, one, fin) == g

    def test_matches_ideal_form(self, fin):
        for sa in range(4):
            for a in fin.classes(sa):
                fa = indicator(a)
                for sb in range(4 - sa):
                    for b in fin.classes(sb):
                        fb = indicator(b)
                        for sp in range(5):
                            for p_cls in fin.classes(sp):
                                rep = p_cls.representative
                                assert schmitt_product(
                                    fa, fb, rep, fin
                                ) == schmitt_product_ideal_form(fa, fb, rep, fin)


class TestSchmittCoproduct:
    def test_direct_instantiation(self, fin):
        ac2 = cls_by_covers(fin, 2, 0)
        dot = fin.classes(1)[0]
        f = indicator(ac2)
        cp = schmitt_coproduct(f, fin)
        assert cp.coeff((IntervalClass(dot), IntervalClass(dot))) == 1

    def test_connected_primitive_shape(self, fin):
        c2 = cls_by_covers(fin, 2, 1)
        cp = schmitt_coproduct(indicator(c2), fin)
        assert all(a.size == 0 or b.size == 0 for a, b in cp.coeffs)

    def test_matches_hall_coproduct(self, fin):
        for size in range(5):
            for cls in fin.classes(size):
                lifted = TensorElement(
                    {
                        (a.iso, b.iso): v
                        for (a, b), v in schmitt_coproduct(
                            phi(delta(cls), fin), fin
                        ).items()
                    }
                )
                assert lifted == coproduct(delta(cls), fin)


class TestPhi:
    def test_unit_and_counit(self, fin):
        assert phi(HallElement({fin.empty_class: Fraction(1)}), fin) == schmitt_unit(fin)
        assert schmitt_counit(schmitt_unit(fin)) == 1
        assert schmitt_counit(indicator(fin.classes(1)[0])) == 0

    def test_bijective(self, fin):
        f = delta(fin.classes(1)[0]) - 3 * delta(cls_by_covers(fin, 2, 1))
        assert phi_inverse(phi(f, fin)) == f

    def test_degree_preserving(self, fin):
        f = delta(cls_by_covers(fin, 2, 0))
        assert phi(f, fin).degrees() == f.degrees()

    def test_intertwines_product(self, fin):
        for sa in range(4):
            for a in fin.classes(sa):
                for sb in range(4 - sa):
                    for b in fin.classes(sb):
                        hall_side = phi(product(delta(a), delta(b), fin), fin)
                        schmitt_side = schmitt_product_element(
                            phi(delta(a), fin), phi(delta(b), fin), fin
                        )
                        assert hall_side == schmitt_side

    def test_intertwines_antipode(self, fin):
        for size in range(4):
            for cls in fin.classes(size):
                assert phi(antipode(delta(cls), fin), fin) == schmitt_antipode(
                    phi(delta(cls), fin), fin
                )


class TestHopfRelation:
    def test_fin(self, fin):
        report = verify_hopf_relation(fin, 4, seed=11)
        assert report.ok
        assert report.product_checks and report.order_checks

    def test_sets(self):
        report = verify_hopf_relation(sets_up_to(5), 5, seed=3)
        assert report.ok

    def test_colored_distinction(self):
        cs2 = colored_sets_up_to(3, 2)
        report = verify_hopf_relation(cs2, 3, seed=5)
        assert report.ok
        red, blue = cs2.classes(1)
        assert IntervalClass(red) != IntervalClass(blue)

    def test_seed_reported(self, fin):
        assert verify_hopf_relation(fin, 2, seed=42).seed == 42
