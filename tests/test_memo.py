"""The memo tables never change a result, and each lives as long as its owner.

:mod:`inccat.memo` declares every table, its owner and its key.
"""

import gc
import json
import weakref

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from inccat import hall, ideals, memo
from inccat.cli import main
from inccat.families import fin_up_to
from inccat.hall import antipode, delta, k0_truncated, product
from inccat.incidence import phi, schmitt_antipode
from inccat.posets import (
    MapMode,
    Poset,
    canonical_form,
    element_signatures,
    find_isomorphisms,
    from_covers,
    relabel_by,
)

from conftest import cleared_memo, permutations_of, posets as poset_strategy


def test_context_is_collected_after_use():
    ctx = fin_up_to(4)
    a, b = ctx.classes(1)[0], ctx.classes(2)[1]
    product(delta(a), delta(b), ctx)
    antipode(delta(b), ctx)
    schmitt_antipode(phi(delta(b), ctx), ctx)
    assert set(ctx.memo) == set(memo.CONTEXT_TABLES)
    assert {name for name, table in ctx.memo.items() if table} == {
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
    before = memo.stats()["ideal_lattices"]
    relabelled = vee.relabel(["x", "y", "z"])
    recoloured = Poset(vee.leq, vee.labels, (2, 0, 1))
    assert ideals.order_ideals(relabelled) is lattice
    assert ideals.order_ideals(recoloured) is lattice
    assert memo.stats()["ideal_lattices"] == before


@settings(max_examples=80, deadline=None)
@given(poset_strategy(max_size=6, num_colors=2), st.sampled_from(list(MapMode)))
def test_canonical_key_same_with_table_cleared(p, mode):
    # Earlier examples leave other posets, often with the same order and
    # other colors, in the table, so a key that ignored part of its input
    # would hand back a wrong entry here.
    warm = canonical_form(p, mode)
    with cleared_memo():
        cold = canonical_form(p, mode)
    assert cold == warm


def stored_signatures(p, mode):
    """The ``iso_signatures`` entry of ``p``, under the key :mod:`inccat.memo` declares."""
    tag = 0 if mode is MapMode.ALL_POSET_ISOS else 1
    colors = p.colors if tag else (0,) * p.size
    return memo.process_table("iso_signatures")[tag, p.leq, colors]


@settings(max_examples=80, deadline=None)
@given(st.data(), st.sampled_from(list(MapMode)))
def test_isomorphisms_same_with_signature_table_cleared(data, mode):
    # A relabelled copy gets past the multiset test into the search; a
    # random poset of the same size mostly stops at it.  Earlier examples
    # leave the same orders with other colors in the warm table.
    p = data.draw(poset_strategy(max_size=6, num_colors=2))
    others = (
        relabel_by(p, data.draw(permutations_of(p.size))),
        data.draw(poset_strategy(min_size=p.size, max_size=p.size, num_colors=2)),
    )
    warm = [find_isomorphisms(p, q, mode) for q in others]
    for q in (p, *others):
        sig = element_signatures(q, mode)
        assert stored_signatures(q, mode) == (sig, tuple(sorted(sig)))
    with cleared_memo():
        assert [find_isomorphisms(p, q, mode) for q in others] == warm
        for q in (p, *others):
            sig = element_signatures(q, mode)
            assert stored_signatures(q, mode) == (sig, tuple(sorted(sig)))


def test_signature_entries_per_coloring():
    # One order, two colorings: colors and mode both belong to the key.
    vee = from_covers(["a", "b", "c"], [("a", "b"), ("a", "c")])
    colorings = [Poset(vee.leq, None, (0, 0, 0)), Poset(vee.leq, None, (0, 1, 0))]
    with cleared_memo():
        for p in colorings:
            find_isomorphisms(p, p, MapMode.ALL_POSET_ISOS)
        assert memo.stats()["iso_signatures"] == 1
        for p in colorings:
            find_isomorphisms(p, p, MapMode.COLOR_PRESERVING_ISOS)
        assert memo.stats()["iso_signatures"] == 3


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
    assert set(fresh.memo) == set(memo.CONTEXT_TABLES)
    assert not any(fresh.memo.values())
    assert [product(delta(a), delta(b), fresh) for a, b in pairs] == [
        product(delta(a), delta(b), warm) for a, b in pairs
    ]
    assert [antipode(delta(c), fresh) for c in classes] == [antipode(delta(c), warm) for c in classes]


def fin5_results(capsys):
    """Keys, products, antipodes, K0 and ``verify`` stdout of fin:5, on a new context."""
    ctx = fin_up_to(5)
    classes = ctx.all_classes()
    keys = [canonical_form(c.representative, mode) for c in classes for mode in MapMode]
    products = [
        product(delta(a), delta(b), ctx) for a in classes for b in classes if a.size + b.size <= 5
    ]
    antipodes = [antipode(delta(c), ctx) for c in classes]
    pres = k0_truncated(ctx, 5)
    k0 = (pres.generators, pres.relations, pres.smith_diagonal, pres.free_rank, pres.torsion)
    assert main(["verify", "--family", "fin", "--max-size", "5", "--quick"]) == 0
    return keys, products, antipodes, k0, capsys.readouterr().out


def test_results_same_after_clear(cold_memo, capsys):
    first = fin5_results(capsys)
    assert "iso_signatures" in memo.PROCESS_TABLES
    assert all(memo.stats()[name] for name in memo.PROCESS_TABLES)
    warm = fin5_results(capsys)
    memo.clear()
    assert memo.stats() == dict.fromkeys(memo.PROCESS_TABLES, 0)
    assert fin5_results(capsys) == warm == first


def test_stats_counts_every_declared_table():
    ctx = fin_up_to(3)
    a, b = ctx.classes(1)[0], ctx.classes(2)[0]
    product(delta(a), delta(b), ctx)
    find_isomorphisms(b.representative, b.representative)
    stats = memo.stats(ctx)
    assert list(stats) == list(memo.PROCESS_TABLES) + list(memo.CONTEXT_TABLES)
    assert stats["iso_signatures"] == len(memo.process_table("iso_signatures")) >= 1
    assert json.loads(json.dumps(stats)) == stats
    assert stats["splits"] == len(ctx.memo["splits"]) == 1
    assert memo.stats() == {name: stats[name] for name in memo.PROCESS_TABLES}


def test_undeclared_table_raises():
    with pytest.raises(KeyError):
        memo.process_table("canonical_key")
    with pytest.raises(KeyError):
        fin_up_to(1).memo["split"]
