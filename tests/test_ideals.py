import pytest
from hypothesis import given, settings

from conftest import posets
from inccat import memo
from inccat.category import CategoryObject, Morphism, subquotient_correspondence
from inccat.errors import IncCatError, NotAnIdealError
from inccat.families import fin_up_to
from inccat.ideals import (
    ideal_masks,
    interval_to_quotient_lattice,
    is_order_ideal,
    lattice_ops,
    order_ideals,
    smallest_ideal_containing,
    sum_decomposition,
)
from inccat.posets import EMPTY_POSET, canonical_form, from_covers, induced_subposet, is_convex, split_keys


def filter_oracle(p):
    """All 2^n subsets, filtered; the enumeration's independent oracle."""
    return sorted(
        (m for m in range(1 << p.size) if is_order_ideal(p, m)),
        key=lambda m: (m.bit_count(), m),
    )


class TestIsOrderIdeal:
    def test_chain(self, chain2):
        assert is_order_ideal(chain2, 0b01)
        assert not is_order_ideal(chain2, 0b10)

    def test_diamond_lower(self, diamond):
        assert is_order_ideal(diamond, 0b0011)  # bottom and one middle

    def test_trivial(self, chain2):
        assert is_order_ideal(chain2, 0)
        assert is_order_ideal(chain2, 0b11)


class TestEnumeration:
    def test_chain_prefixes(self, chain2):
        assert order_ideals(chain2).ideals == (0, 0b01, 0b11)

    def test_antichain_powerset(self):
        p = from_covers(["a", "b", "c"], [])
        assert len(order_ideals(p)) == 8

    def test_vee(self, vee):
        assert len(order_ideals(vee)) == 5

    def test_empty(self):
        lattice = order_ideals(EMPTY_POSET)
        assert lattice.ideals == (0,)

    def test_exhaustive_oracle_small_classes(self):
        fin = fin_up_to(5)
        for size in range(6):
            for cls in fin.classes(size):
                p = cls.representative
                assert list(order_ideals(p).ideals) == filter_oracle(p)

    @settings(max_examples=100, deadline=None)
    @given(posets(max_size=7))
    def test_oracle_random(self, p):
        assert list(order_ideals(p).ideals) == filter_oracle(p)

    @settings(max_examples=100, deadline=None)
    @given(posets(max_size=7))
    def test_ideal_masks_oracle_random(self, p):
        before = memo.stats()["ideal_lattices"]
        found = ideal_masks(p)
        assert memo.stats()["ideal_lattices"] == before
        assert len(found) == len(set(found))
        assert set(found) == set(filter_oracle(p))


class TestSmallestIdeal:
    def test_down_closure(self, chain2):
        assert smallest_ideal_containing(chain2, [0b10]) == 0b11

    def test_empty_parts(self, chain2):
        assert smallest_ideal_containing(chain2, []) == 0

    def test_vee(self, vee):
        assert smallest_ideal_containing(vee, [0b010, 0b100]) == 0b111


class TestLatticeOps:
    def test_idempotence(self, chain2):
        lattice = order_ideals(chain2)
        assert lattice_ops(lattice, 0b01, 0b01) == (0b01, 0b01)

    def test_antichain_join_meet(self, antichain2):
        lattice = order_ideals(antichain2)
        assert lattice_ops(lattice, 0b01, 0b10) == (0b11, 0)

    def test_bottom_laws(self, chain3):
        lattice = order_ideals(chain3)
        for ideal in lattice.ideals:
            assert lattice_ops(lattice, 0, ideal) == (ideal, 0)

    def test_non_member_rejected(self, chain2):
        lattice = order_ideals(chain2)
        with pytest.raises(NotAnIdealError):
            lattice_ops(lattice, 0b10, 0b01)

    @pytest.mark.parametrize("query", ["contains", "require_member"])
    def test_membership_on_a_lattice_not_yet_queried(self, diamond, cold_memo, query):
        # the index is built by the first query, whichever it is
        lattice = order_ideals(diamond)
        assert "index" not in vars(lattice)
        for mask in range(1 << diamond.size):
            member = is_order_ideal(diamond, mask)
            if query == "contains":
                assert (mask in lattice) == member
            elif member:
                lattice.require_member(mask)
            else:
                with pytest.raises(NotAnIdealError, match="is not an order ideal"):
                    lattice.require_member(mask)
        assert lattice.index == {m: k for k, m in enumerate(filter_oracle(diamond))}

    def test_distributive_lattice_axioms(self):
        # (a)-(f) of the distributive lattice definition, exhaustively on
        # every class of size <= 4 and spot-checked larger shapes
        fin = fin_up_to(4)
        reps = [cls.representative for s in range(5) for cls in fin.classes(s)]
        reps.append(from_covers(list("abcde"), [("a", "b"), ("b", "c"), ("a", "d")]))
        reps.append(from_covers(list("abcdef"), []))
        for p in reps:
            lattice = order_ideals(p)
            ideals = lattice.ideals
            for x in ideals:
                assert lattice.join(x, x) == x and lattice.meet(x, x) == x
                for y in ideals:
                    jxy, mxy = lattice_ops(lattice, x, y)
                    assert jxy in lattice and mxy in lattice
                    assert jxy == lattice.join(y, x) and mxy == lattice.meet(y, x)
                    assert lattice.meet(x, jxy) == x and lattice.join(x, mxy) == x
                    # ordering compatibility: x <= y in J_P iff mask inclusion
                    assert (mxy == x) == (jxy == y) == (x & ~y == 0)
                    for z in ideals:
                        assert lattice.join(x, lattice.join(y, z)) == lattice.join(
                            lattice.join(x, y), z
                        )
                        assert lattice.join(x, lattice.meet(y, z)) == lattice.meet(
                            lattice.join(x, y), lattice.join(x, z)
                        )
                        assert lattice.meet(x, lattice.join(y, z)) == lattice.join(
                            lattice.meet(x, y), lattice.meet(x, z)
                        )


class TestIntervalCorrespondence:
    def test_identity_interval(self, chain3):
        corr = interval_to_quotient_lattice(chain3, 0, chain3.full_mask)
        assert corr.quotient.size == 3
        for ideal in order_ideals(chain3).ideals:
            assert corr.from_quotient(corr.to_quotient(ideal)) == ideal

    def test_three_chain_example(self, chain3, chain2):
        corr = interval_to_quotient_lattice(chain3, 0b001, 0b111)
        members = corr.members()
        assert len(members) == 3
        assert canonical_form(corr.quotient) == canonical_form(chain2)
        images = [corr.to_quotient(k) for k in members]
        assert sorted(images) == sorted(order_ideals(corr.quotient).ideals)

    def test_degenerate_interval(self, chain3):
        corr = interval_to_quotient_lattice(chain3, 0b111, 0b111)
        assert corr.quotient.size == 0
        assert corr.members() == (0b111,)

    def test_lattice_homomorphism(self, vee, diamond):
        for p in (vee, diamond):
            lattice = order_ideals(p)
            for lower in lattice.ideals:
                for upper in lattice.ideals:
                    if lower & ~upper:
                        continue
                    corr = interval_to_quotient_lattice(p, lower, upper)
                    quot_lattice = order_ideals(corr.quotient)
                    members = corr.members()
                    # bijectivity
                    images = sorted(corr.to_quotient(k) for k in members)
                    assert images == sorted(quot_lattice.ideals)
                    # join/meet preserved in both directions
                    for k1 in members:
                        for k2 in members:
                            assert corr.to_quotient(k1 | k2) == corr.to_quotient(
                                k1
                            ) | corr.to_quotient(k2)
                            assert corr.to_quotient(k1 & k2) == corr.to_quotient(
                                k1
                            ) & corr.to_quotient(k2)

    def test_errors(self, chain3):
        with pytest.raises(NotAnIdealError):
            interval_to_quotient_lattice(chain3, 0b010, 0b111)  # lower not an ideal
        with pytest.raises(NotAnIdealError):
            interval_to_quotient_lattice(chain3, 0b011, 0b001)  # not nested
        corr = interval_to_quotient_lattice(chain3, 0b001, 0b011)
        with pytest.raises(NotAnIdealError):
            corr.to_quotient(0b111)  # outside the interval


class TestSumDecomposition:
    def test_counts(self, dot, chain2):
        assert len(order_ideals(sum_decomposition(dot, dot).union)) == 4
        assert len(order_ideals(sum_decomposition(chain2, chain2).union)) == 9

    def test_empty_side(self, chain3):
        corr = sum_decomposition(chain3, EMPTY_POSET)
        for ideal in order_ideals(corr.union).ideals:
            left, right = corr.split(ideal)
            assert right == 0 and corr.combine(left, right) == ideal

    def test_roundtrip(self, chain2, vee):
        corr = sum_decomposition(chain2, vee)
        union_lattice = order_ideals(corr.union)
        seen = set()
        for ideal in union_lattice.ideals:
            pair = corr.split(ideal)
            assert corr.combine(*pair) == ideal
            seen.add(pair)
        assert len(seen) == len(union_lattice)

    @settings(max_examples=60, deadline=None)
    @given(posets(max_size=4), posets(max_size=4))
    def test_count_multiplicativity(self, p, q):
        corr = sum_decomposition(p, q)
        assert len(order_ideals(corr.union)) == len(order_ideals(p)) * len(
            order_ideals(q)
        )


# Each call once took a bool or a float for the int it equals, or died
# with a bare TypeError; a mask must be an int that is not a bool.
BAD_MASK_CALLS = {
    "Morphism": lambda p, bad: Morphism(CategoryObject(p), CategoryObject(p), bad, 1, (0,)),
    "IdealLattice.join": lambda p, bad: order_ideals(p).join(bad, 0),
    "IdealLattice.require_member": lambda p, bad: order_ideals(p).require_member(bad),
    "interval_to_quotient_lattice": lambda p, bad: interval_to_quotient_lattice(p, 0, bad),
    "IntervalCorrespondence.from_quotient": (
        lambda p, bad: interval_to_quotient_lattice(p, 0, p.full_mask).from_quotient(bad)
    ),
    "subquotient_correspondence": lambda p, bad: subquotient_correspondence(CategoryObject(p), bad),
    "induced_subposet": lambda p, bad: induced_subposet(p, bad),
    "is_convex": lambda p, bad: is_convex(p, bad),
    "is_order_ideal": lambda p, bad: is_order_ideal(p, bad),
    "smallest_ideal_containing": lambda p, bad: smallest_ideal_containing(p, [bad]),
    "split_keys": lambda p, bad: split_keys(p, [bad]),
}


@pytest.mark.parametrize("call", sorted(BAD_MASK_CALLS))
@pytest.mark.parametrize("bad", [True, 1.0, None, "1"], ids=repr)
def test_mask_of_the_wrong_type_raises_a_typed_error(chain2, call, bad):
    assert bad not in order_ideals(chain2)
    with pytest.raises(IncCatError):
        BAD_MASK_CALLS[call](chain2, bad)
