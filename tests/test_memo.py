"""The memo tables: who owns them, what they key on, and that they never
change a result.

Value-keyed tables (canonical keys, ideal lattices, hom sets) are module
dicts that live as long as the process; per-context tables (the Hall
split index per degree, the split tables of component classes, both
antipodes and the interval rows, one per poset under its order and
colors) live in ``FamilyContext.memo`` and die with the context.
"""

import gc
import weakref

import hypothesis.strategies as st
from hypothesis import given, settings

from inccat import hall, ideals, posets
from inccat.families import fin_up_to
from inccat.hall import antipode, delta, product
from inccat.incidence import phi, schmitt_antipode
from inccat.posets import MapMode, Poset, canonical_form, from_covers

from conftest import posets as poset_strategy


def test_context_is_collected_after_use():
    ctx = fin_up_to(4)
    a, b = ctx.classes(1)[0], ctx.classes(2)[1]
    product(delta(a), delta(b), ctx)
    antipode(delta(b), ctx)
    schmitt_antipode(phi(delta(b), ctx), ctx)
    assert set(ctx.memo) == {
        "splits",
        "component_splits",
        "antipode",
        "schmitt_antipode",
        "intervals",
    }
    # Split tables of connected classes below the cutoff, by key; their
    # sides are keys too, turned into classes only in the split index.
    connected = {c.key for size in range(1, 4) for c in ctx.classes(size) if c.key[0] < 2}
    assert set(ctx.memo["component_splits"]) <= connected
    for counts in ctx.memo["component_splits"].values():
        assert all(type(side) is bytes for pair in counts for side in pair)
    ref = weakref.ref(ctx)
    del ctx
    gc.collect()
    assert ref() is None


def test_split_index_built_once_per_degree(monkeypatch):
    ctx = fin_up_to(4)
    a, b = ctx.classes(1)[0], ctx.classes(2)[1]
    product(delta(a), delta(b), ctx)
    assert set(ctx.memo["splits"]) == {3}

    walked = []

    def counting(ctx, r_cls):
        walked.append(r_cls)
        return real_split_counts(ctx, r_cls)

    real_split_counts = hall._split_counts
    monkeypatch.setattr(hall, "_split_counts", counting)
    product(delta(b), delta(a), ctx)
    assert walked == []
    product(delta(a), delta(a), ctx)
    # the antichain also reads the table of its component, the point
    assert set(ctx.classes(2)) <= set(walked) and set(ctx.memo["splits"]) == {2, 3}


def test_lattice_shared_by_relabelled_and_recoloured_copies():
    vee = from_covers(["a", "b", "c"], [("a", "b"), ("a", "c")])
    lattice = ideals.order_ideals(vee)
    before = len(ideals._lattices)
    relabelled = vee.relabel(["x", "y", "z"])
    recoloured = Poset(vee.leq, vee.labels, (2, 0, 1))
    assert ideals.order_ideals(relabelled) is lattice
    assert ideals.order_ideals(recoloured) is lattice
    assert len(ideals._lattices) == before


@settings(max_examples=80, deadline=None)
@given(poset_strategy(max_size=6, num_colors=2), st.sampled_from(list(MapMode)))
def test_canonical_key_same_with_table_cleared(p, mode):
    # Earlier examples leave other posets, often with the same order and
    # other colors, in the table, so a key that ignored part of its input
    # would hand back a wrong entry here.
    warm = canonical_form(p, mode)
    saved = dict(posets._canonical_keys)
    posets._canonical_keys.clear()
    try:
        cold = canonical_form(p, mode)
    finally:
        posets._canonical_keys.update(saved)
    assert cold == warm


def test_fresh_context_matches_warm_one():
    # The warm context fills its tables in the reverse order, so a table
    # keyed too coarsely hands the two contexts different answers.
    warm = fin_up_to(4)
    classes = warm.all_classes()
    pairs = [(a, b) for a in classes for b in classes if a.size + b.size <= 4]
    for a, b in reversed(pairs):
        product(delta(a), delta(b), warm)
    for c in reversed(classes):
        antipode(delta(c), warm)

    fresh = fin_up_to(4)
    assert fresh.memo == {}
    assert [product(delta(a), delta(b), fresh) for a, b in pairs] == [
        product(delta(a), delta(b), warm) for a, b in pairs
    ]
    assert [antipode(delta(c), fresh) for c in classes] == [antipode(delta(c), warm) for c in classes]
