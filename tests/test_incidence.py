from fractions import Fraction

import pytest

from inccat.errors import NotAnIdealError
from inccat.families import colored_sets_up_to, fin_up_to, sets_up_to
from inccat.hall import HallElement, TensorElement, antipode, coproduct, delta, product
from inccat.ideals import interval_to_quotient_lattice, order_ideals
from inccat.incidence import (
    IncidenceElement,
    IntervalClass,
    interval_class,
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
from inccat.posets import Poset


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


def nested_ideal_pairs(p):
    ideals = order_ideals(p).ideals
    return [(lower, upper) for upper in ideals for lower in ideals if lower & ~upper == 0]


class TestIntervalMemo:
    """``interval_class`` memoizes per context; the table never changes a class."""

    @pytest.mark.parametrize(
        "make", [lambda: fin_up_to(4), lambda: colored_sets_up_to(3, 2)], ids=["fin4", "csets2-3"]
    )
    def test_warm_memo_matches_fresh_classification(self, make):
        ctx = make()
        cases = [
            (cls.representative, lower, upper)
            for cls in ctx.all_classes()
            for lower, upper in nested_ideal_pairs(cls.representative)
        ]
        # warm the table in the reverse order, then read every entry back
        for p, lower, upper in reversed(cases):
            interval_class(p, lower, upper, ctx)
        assert len(ctx.memo["intervals"]) == len(cases)
        for p, lower, upper in cases:
            fresh = IntervalClass(
                ctx.class_of(interval_to_quotient_lattice(p, lower, upper).quotient)
            )
            assert interval_class(p, lower, upper, ctx) == fresh

    def test_key_distinguishes_colors(self):
        ctx = colored_sets_up_to(3, 2)
        same, mixed = Poset((0b01, 0b10), colors=(0, 0)), Poset((0b01, 0b10), colors=(0, 1))
        warm = interval_class(same, 0, 0b11, ctx)
        assert interval_class(mixed, 0, 0b11, ctx) != warm
        assert interval_class(mixed, 0, 0b11, ctx) == IntervalClass(ctx.class_of(mixed))

    def test_errors_not_memoised(self, chain3):
        ctx = fin_up_to(3)
        assert interval_class(chain3, 0b001, 0b011, ctx).size == 1
        for _ in range(2):
            with pytest.raises(NotAnIdealError):
                interval_class(chain3, 0b011, 0b001, ctx)
        assert len(ctx.memo["intervals"]) == 1


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
