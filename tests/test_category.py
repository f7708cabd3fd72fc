import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import inccat.category as category
from inccat import memo
from conftest import posets
from inccat.category import (
    CategoryObject,
    Morphism,
    ZERO_OBJECT,
    cokernel,
    compose,
    direct_sum,
    hom_set,
    identity,
    image,
    is_epi,
    is_exact,
    is_indecomposable,
    is_irreducible,
    is_mono,
    kernel,
    short_exact_sequences,
    subobject_inclusion,
    subquotient_correspondence,
    zero_morphism,
)
from inccat.errors import CompositionError, NotAnIdealError, PosetError
from inccat.families import family_from_spec, fin_up_to
from inccat.ideals import is_order_ideal, order_ideals
from inccat.posets import (
    MapMode,
    automorphisms,
    bits,
    canonical_form,
    find_isomorphisms,
    from_covers,
    induced_subposet,
)

ALL = MapMode.ALL_POSET_ISOS


@pytest.fixture(scope="module")
def objs():
    return {
        "empty": ZERO_OBJECT,
        "dot": CategoryObject(from_covers(["p"], [])),
        "c2": CategoryObject(from_covers(["a", "b"], [("a", "b")])),
        "ac2": CategoryObject(from_covers(["x", "y"], [])),
        "c3": CategoryObject(from_covers(["a", "b", "c"], [("a", "b"), ("b", "c")])),
    }


class TestMorphismValidation:
    def test_triple_must_use_ideals(self, objs):
        with pytest.raises(NotAnIdealError):
            Morphism(objs["c2"], objs["c2"], 0b10, 0b01, (0,))

    def test_map_must_respect_order(self, objs):
        # c2 -> c2 sending the chain onto itself reversed
        with pytest.raises(PosetError):
            Morphism(objs["c2"], objs["c2"], 0, 0b11, (1, 0))

    def test_map_must_hit_image(self, objs):
        with pytest.raises(PosetError):
            Morphism(objs["dot"], objs["c2"], 0, 0b01, (1,))
        # two elements onto one: the image is I2, but f is not injective
        with pytest.raises(PosetError, match="bijectively"):
            Morphism(objs["ac2"], objs["c2"], 0, 0b01, (0, 0))

    @pytest.mark.parametrize(
        "fmap",
        [(-1, 0), [0, 1], (0, 2), (0, 1.0), (0, "1"), (0, True)],
        ids=["negative", "list", "past-target", "float", "str", "bool"],
    )
    def test_map_must_be_a_tuple_of_target_indices(self, objs, fmap):
        with pytest.raises(PosetError, match="tuple of element indices"):
            Morphism(objs["ac2"], objs["ac2"], 0, 0b11, fmap)

    def test_zero_morphism(self, objs):
        z = zero_morphism(objs["c2"], objs["ac2"])
        assert z.is_zero and z.i1 == 0b11 and z.i2 == 0 and z.fmap == ()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_order_check_matches_pairwise_oracle(self, data):
        """The constructor's up-set test rejects exactly what the pairwise loop rejects."""
        mode = data.draw(st.sampled_from(list(MapMode)))
        p1 = data.draw(posets(max_size=5, num_colors=2))
        i1 = p1.down_closure(data.draw(st.integers(0, p1.full_mask)))
        domain = tuple(bits(p1.full_mask & ~i1))
        k = len(domain)
        p2 = data.draw(posets(min_size=k, max_size=max(k, 5), num_colors=2))
        # every poset has an ideal of each size (a prefix of a linear extension)
        i2 = data.draw(st.sampled_from([i for i in order_ideals(p2) if i.bit_count() == k]))
        sub1, _ = induced_subposet(p1, p1.full_mask & ~i1)
        sub2, elems2 = induced_subposet(p2, i2)
        isos = find_isomorphisms(sub1, sub2, mode)
        if isos and data.draw(st.booleans()):
            fmap = tuple(elems2[isos[0].mapping[j]] for j in range(k))
        else:
            fmap = tuple(data.draw(st.permutations(list(bits(i2)))))

        expected = None
        for a, fa in zip(domain, fmap):
            if any(p1.le(a, b) != p2.le(fa, fb) for b, fb in zip(domain, fmap)):
                expected = "f does not respect the order"
                break
            if mode is MapMode.COLOR_PRESERVING_ISOS and p1.colors[a] != p2.colors[fa]:
                expected = "f does not preserve colors"
                break

        source, target = CategoryObject(p1), CategoryObject(p2)
        if expected is None:
            Morphism(source, target, i1, i2, fmap, mode)
        else:
            with pytest.raises(PosetError, match=expected):
                Morphism(source, target, i1, i2, fmap, mode)


class TestIdentity:
    def test_identity_of_empty(self):
        m = identity(ZERO_OBJECT)
        assert m.i1 == 0 and m.i2 == 0 and m.fmap == ()

    def test_identity_of_dot(self, objs):
        m = identity(objs["dot"])
        assert m.i1 == 0 and m.i2 == 1 and m.fmap == (0,)

    def test_unit_laws(self, objs):
        for name in ("dot", "c2", "ac2"):
            x = objs[name]
            idx = identity(x)
            for target in ("dot", "c2", "ac2"):
                for m in hom_set(x, objs[target]):
                    assert compose(m, idx) == m
                for m in hom_set(objs[target], x):
                    assert compose(idx, m) == m


class TestHomSets:
    def test_dot_endomorphisms(self, objs):
        assert len(hom_set(objs["dot"], objs["dot"])) == 2

    def test_from_null_object(self, objs):
        assert len(hom_set(objs["empty"], objs["c2"])) == 1
        assert len(hom_set(objs["c2"], objs["empty"])) == 1

    def test_antichain_endomorphisms(self, objs):
        morphisms = hom_set(objs["ac2"], objs["ac2"])
        assert len(morphisms) == 7
        by_image = {}
        for m in morphisms:
            by_image.setdefault(m.i2.bit_count(), []).append(m)
        assert len(by_image[0]) == 1  # zero
        assert len(by_image[1]) == 4  # one-point images
        assert len(by_image[2]) == 2  # full images

    def test_deterministic_order(self, objs):
        first = hom_set(objs["ac2"], objs["ac2"])
        second = hom_set(
            CategoryObject(objs["ac2"].poset), CategoryObject(objs["ac2"].poset)
        )
        assert [(m.i1, m.i2, m.fmap) for m in first] == [
            (m.i1, m.i2, m.fmap) for m in second
        ]


class TestCompose:
    def test_inclusion_then_cokernel_is_zero(self, objs):
        first = Morphism(objs["dot"], objs["c2"], 0, 0b01, (0,))
        second = Morphism(objs["c2"], objs["dot"], 0b01, 0b1, (0,))
        z = compose(second, first)
        assert z.is_zero and z.i1 == objs["dot"].poset.full_mask

    def test_non_composable(self, objs):
        m1 = identity(objs["dot"])
        m2 = identity(objs["c2"])
        with pytest.raises(CompositionError):
            compose(m2, m1)

    def test_mode_mismatch(self, objs):
        m1 = identity(objs["dot"], MapMode.ALL_POSET_ISOS)
        m2 = identity(objs["dot"], MapMode.COLOR_PRESERVING_ISOS)
        with pytest.raises(CompositionError):
            compose(m2, m1)

    def test_exhaustive_associativity_small(self, objs):
        names = ("empty", "dot", "c2", "ac2")
        for a in names:
            for b in names:
                for c in names:
                    for d in names:
                        for f in hom_set(objs[a], objs[b]):
                            for g in hom_set(objs[b], objs[c]):
                                gf = compose(g, f)
                                for h in hom_set(objs[c], objs[d]):
                                    assert compose(h, gf) == compose(compose(h, g), f)

    def test_composite_ideals_fin3(self):
        """K1 is an ideal containing I1 and K3 an ideal inside I3', for every pair."""
        ctx = fin_up_to(3)
        objects = [CategoryObject(cls.representative) for n in range(4) for cls in ctx.classes(n)]
        for a in objects:
            for b in objects:
                for f in hom_set(a, b):
                    for c in objects:
                        for g in hom_set(b, c):
                            h = compose(g, f)
                            assert h.i1 & f.i1 == f.i1 and is_order_ideal(a.poset, h.i1)
                            assert h.i2 & ~g.i2 == 0 and is_order_ideal(c.poset, h.i2)


class TestImageKernelCokernel:
    def test_image_of_identity(self, objs):
        assert canonical_form(image(identity(objs["c2"])).poset) == canonical_form(
            objs["c2"].poset
        )

    def test_image_of_zero(self, objs):
        assert image(zero_morphism(objs["c2"], objs["ac2"])).size == 0

    def test_image_of_inclusion(self, objs):
        m = Morphism(objs["dot"], objs["c2"], 0, 0b01, (0,))
        assert image(m).size == 1

    def test_kernel_of_identity(self, objs):
        k = kernel(identity(objs["c2"]))
        assert k.source.size == 0 and k.i2 == 0

    def test_kernel_of_zero(self, objs):
        k = kernel(zero_morphism(objs["c2"], objs["ac2"]))
        assert k.i2 == objs["c2"].poset.full_mask
        assert canonical_form(k.source.poset) == canonical_form(objs["c2"].poset)

    def test_kernel_formula_instance(self, objs):
        m = Morphism(objs["c2"], objs["dot"], 0b01, 0b1, (0,))
        k = kernel(m)
        assert k.i1 == 0 and k.i2 == 0b01 and k.source.size == 1

    def test_cokernel_of_identity(self, objs):
        assert cokernel(identity(objs["c2"])).target.size == 0

    def test_cokernel_of_zero_from_null(self, objs):
        z = zero_morphism(ZERO_OBJECT, objs["c2"])
        ck = cokernel(z)
        assert is_epi(ck) and ck.i1 == 0
        assert canonical_form(ck.target.poset) == canonical_form(objs["c2"].poset)

    def test_cokernel_formula_instance(self, objs):
        m = Morphism(objs["dot"], objs["c2"], 0, 0b01, (0,))
        ck = cokernel(m)
        assert ck.i1 == 0b01 and ck.target.size == 1

    def test_kernel_composes_to_zero(self, objs):
        for a in ("dot", "c2", "ac2"):
            for b in ("dot", "c2", "ac2"):
                for m in hom_set(objs[a], objs[b]):
                    assert compose(m, kernel(m)).is_zero
                    assert compose(cokernel(m), m).is_zero


class TestMonoEpi:
    def test_identity_both(self, objs):
        m = identity(objs["c2"])
        assert is_mono(m) and is_epi(m)

    def test_zero_neither(self, objs):
        z = zero_morphism(objs["c2"], objs["ac2"])
        assert not is_mono(z) and not is_epi(z)

    def test_torsor_example(self, objs):
        # monos dot -> ac2 with a fixed one-point image: |Aut(dot)| = 1 each,
        # two possible images
        monos = [m for m in hom_set(objs["dot"], objs["ac2"]) if is_mono(m)]
        images = {m.i2 for m in monos}
        assert len(monos) == 2 and images == {0b01, 0b10}
        assert len(automorphisms(objs["dot"].poset)) == 1

    def test_epi_torsor_example(self, objs):
        # epis ac2 -> ac2 with empty kernel: one per automorphism of ac2
        epis = [
            m
            for m in hom_set(objs["ac2"], objs["ac2"])
            if is_epi(m) and m.i1 == 0
        ]
        assert len(epis) == len(automorphisms(objs["ac2"].poset)) == 2
        # with a one-point kernel the quotient is the dot, |Aut(dot)| = 1 each
        partial = [
            m for m in hom_set(objs["ac2"], objs["dot"]) if is_epi(m) and m.i1 == 0b01
        ]
        assert len(partial) == 1

    @pytest.mark.parametrize(
        "spec, max_size", [("fin", 4), ("forests", 5), ("csets:2", 3), ("cforests:2", 3)]
    )
    def test_monos_and_epis_are_the_filtered_hom_set(self, spec, max_size, cold_memo):
        # monos/epis enumerate only their fixed ideal; the oracle is the
        # full hom set, filtered, and the order must be the same
        ctx = family_from_spec(spec, max_size)
        assert (ctx.mode is MapMode.COLOR_PRESERVING_ISOS) == spec.startswith("c")
        objects = [
            CategoryObject(cls.representative)
            for size in range(max_size + 1)
            for cls in ctx.classes(size)
        ]
        for a in objects:
            for b in objects:
                full = hom_set(a, b, ctx.mode)
                assert category.monos(a, b, ctx.mode) == tuple(m for m in full if is_mono(m))
                assert category.epis(a, b, ctx.mode) == tuple(m for m in full if is_epi(m))

    def test_monos_and_epis_are_not_memoised(self, objs, cold_memo):
        assert len(category.monos(objs["dot"], objs["ac2"])) == 2
        assert len(category.epis(objs["ac2"], objs["dot"])) == 2
        assert memo.stats()["hom_sets"] == 0


class TestDirectSum:
    def test_dots_sum_to_antichain(self, objs):
        total = direct_sum(objs["dot"], objs["dot"])
        assert canonical_form(total.poset) == canonical_form(objs["ac2"].poset)

    def test_unit(self, objs):
        total = direct_sum(ZERO_OBJECT, objs["c2"])
        assert canonical_form(total.poset) == canonical_form(objs["c2"].poset)

    def test_commutative_associative_up_to_iso(self, objs):
        ab = direct_sum(objs["c2"], objs["ac2"])
        ba = direct_sum(objs["ac2"], objs["c2"])
        assert canonical_form(ab.poset) == canonical_form(ba.poset)
        abc1 = direct_sum(ab, objs["dot"])
        abc2 = direct_sum(objs["c2"], direct_sum(objs["ac2"], objs["dot"]))
        assert canonical_form(abc1.poset) == canonical_form(abc2.poset)


class TestDecomposability:
    def test_chain_indecomposable(self, objs):
        assert is_indecomposable(objs["c2"]) and not is_irreducible(objs["c2"])

    def test_dot_both(self, objs):
        assert is_indecomposable(objs["dot"]) and is_irreducible(objs["dot"])

    def test_antichain_neither(self, objs):
        assert not is_indecomposable(objs["ac2"]) and not is_irreducible(objs["ac2"])

    def test_empty_neither(self):
        assert not is_indecomposable(ZERO_OBJECT) and not is_irreducible(ZERO_OBJECT)


class TestShortExactSequences:
    def test_counts(self, objs):
        assert len(short_exact_sequences(objs["dot"])) == 2
        assert len(short_exact_sequences(objs["c2"])) == 3

    def test_all_exact(self, objs):
        for name in ("dot", "c2", "ac2", "c3"):
            for ses in short_exact_sequences(objs[name]):
                assert is_exact(list(ses.morphisms))

    def test_exactness_failure(self, objs):
        seq = [
            zero_morphism(ZERO_OBJECT, objs["dot"]),
            zero_morphism(objs["dot"], objs["dot"]),
        ]
        assert not is_exact(seq)  # image {} vs kernel {p} at the middle

    def test_concatenation_exactness(self, objs):
        # glue X_I -> X_P -> X_{P\I} with the quotient's own inclusion:
        # exact at the junction iff the arriving image ideal (full) matches
        # the kernel there
        ses = short_exact_sequences(objs["c3"])[1]  # I = {a}
        quotient = ses.quotient
        follow_all = subobject_inclusion(quotient, quotient.poset.full_mask)
        assert is_exact([ses.morphisms[2], cokernel(follow_all)])
        follow_partial = [
            s.morphisms[2]
            for s in short_exact_sequences(quotient)
            if s.ideal not in (0, quotient.poset.full_mask)
        ]
        for proj in follow_partial:
            assert not is_exact([ses.morphisms[2], proj])


class TestSubquotient:
    def test_trivial_ideal(self, objs):
        corr = subquotient_correspondence(objs["c3"], 0)
        assert len(corr.pairs) == 4  # all of J_{c3}

    def test_full_ideal(self, objs):
        corr = subquotient_correspondence(objs["c3"], 0b111)
        assert len(corr.pairs) == 1

    def test_three_chain(self, objs):
        corr = subquotient_correspondence(objs["c3"], 0b001)
        assert len(corr.pairs) == 3
        assert corr.quotient.size == 2

    def test_not_an_ideal(self, objs):
        with pytest.raises(NotAnIdealError):
            subquotient_correspondence(objs["c3"], 0b010)


class TestUniversalProperties:
    def test_kernel_universal_instance(self, objs):
        m = Morphism(objs["c2"], objs["dot"], 0b01, 0b1, (0,))
        ker = kernel(m)
        for t in ("empty", "dot", "c2", "ac2"):
            for u in hom_set(objs[t], objs["c2"]):
                factored = [
                    v for v in hom_set(objs[t], ker.source) if compose(ker, v) == u
                ]
                expected = 1 if compose(m, u).is_zero else 0
                assert len(factored) == expected

    def test_cokernel_universal_instance(self, objs):
        m = Morphism(objs["dot"], objs["c2"], 0, 0b01, (0,))
        cok = cokernel(m)
        for t in ("empty", "dot", "c2", "ac2"):
            for u in hom_set(objs["c2"], objs[t]):
                factored = [
                    v for v in hom_set(cok.target, objs[t]) if compose(v, cok) == u
                ]
                expected = 1 if compose(u, m).is_zero else 0
                assert len(factored) == expected
