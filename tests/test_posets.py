import random
from collections import Counter
from itertools import product as iproduct

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from conftest import cleared_memo, posets
from inccat import memo
from inccat import posets as posets_module
from inccat.category import CategoryObject, Morphism, identity
from inccat.errors import CycleError, PosetError, SizeCapError
from inccat.families import _add_maximal_element, family_from_spec, fin_up_to
from inccat.ideals import order_ideals
from inccat.posets import (
    EMPTY_POSET,
    Bijection,
    MapMode,
    Poset,
    _restricted_rows,
    _signature_ranks,
    _strict_relations,
    _twin_classes,
    automorphisms,
    canonical_form,
    cartesian_product,
    component_keys,
    connected_components,
    disjoint_union,
    element_signatures,
    find_isomorphisms,
    from_covers,
    induced_subposet,
    is_connected,
    is_convex,
    is_convex_via_ideals,
    relabel_by,
    split_keys,
    union_key,
)

ALL = MapMode.ALL_POSET_ISOS
COLOR = MapMode.COLOR_PRESERVING_ISOS

ANTI2 = Poset((0b01, 0b10))
ANTI3 = Poset((0b001, 0b010, 0b100))
CHAIN2 = Poset((0b11, 0b10))
CHAIN3 = Poset((0b111, 0b110, 0b100))
LAMBDA = Poset((0b101, 0b110, 0b100))  # two elements below a third

# (number of elements, cover relations) of the pieces repeated below.
PIECES = {
    "chain2": (2, [(0, 1)]),
    "chain3": (3, [(0, 1), (1, 2)]),
    "V": (3, [(0, 1), (0, 2)]),
    "Lambda": (3, [(0, 2), (1, 2)]),
    "N": (4, [(0, 2), (1, 2), (1, 3)]),
}


def chain(n):
    """The n-chain 0 < 1 < ... < n-1."""
    return Poset(tuple(((1 << n) - 1) & ~((1 << i) - 1) for i in range(n)))


def copies(piece, k, rooted):
    """k disjoint copies of a piece, under a new least element if ``rooted``."""
    size, covers = PIECES[piece]
    out = [(a + c * size, b + c * size) for c in range(k) for a, b in covers]
    n = k * size
    if rooted:
        out += [(n, x) for x in range(n) if all(b != x for _, b in out)]
        n += 1
    return from_covers([str(i) for i in range(n)], [(str(a), str(b)) for a, b in out])


def shuffled(p, seed):
    perm = list(range(p.size))
    random.Random(seed).shuffle(perm)
    return relabel_by(p, perm)


def pairwise_twin_classes(p, colors):
    """Twins by scanning all pairs: incomparable, equal colors, equal relations to the rest."""
    n = p.size
    cls = list(range(n))
    for i in range(n):
        for j in range(i + 1, n):
            if cls[j] != j or colors[i] != colors[j] or p.le(i, j) or p.le(j, i):
                continue
            outside = ~((1 << i) | (1 << j))
            if (p.leq[i] & outside) == (p.leq[j] & outside) and (
                p.downs[i] & outside
            ) == (p.downs[j] & outside):
                cls[j] = cls[i]
    return cls


def unpruned_connected_key(p, mode):
    """Key of a connected poset by the lex-least search with twin pruning only.

    The oracle for orbit pruning, which must not change a byte: the same
    search and key layout as ``canonical_form``, without automorphisms
    learnt on the way and with twins found by the pairwise scan.
    """
    n = p.size
    colors = p.colors if mode is COLOR else (0,) * n
    sigs = element_signatures(p, mode)
    order_of_sig = {s: r for r, s in enumerate(sorted(set(sigs)))}
    cells = {}
    for i in range(n):
        cells.setdefault(order_of_sig[sigs[i]], []).append(i)
    pos_cell = [rank for rank in sorted(cells) for _ in cells[rank]]
    twin = pairwise_twin_classes(p, colors)
    up = p.leq
    placed = []

    def dfs(used):
        depth = len(placed)
        if depth == n:
            return ()
        groups = {}
        seen_twins = set()
        for e in cells[pos_cell[depth]]:
            if (used >> e) & 1 or twin[e] in seen_twins:
                continue
            seen_twins.add(twin[e])
            block = tuple((up[e] >> q) & 1 for q in placed)
            block += (1,) + tuple((up[q] >> e) & 1 for q in placed)
            groups.setdefault(block, []).append(e)
        least = min(groups)
        best = None
        for e in groups[least]:
            placed.append(e)
            tail = dfs(used | (1 << e))
            placed.pop()
            if best is None or tail < best:
                best = tail
        return least + best

    matrix = "".join(map(str, dfs(0)))
    matrix += "0" * (-len(matrix) % 8)
    key = bytes([0 if mode is ALL else 1, n])
    if mode is COLOR:
        cell_color = {rank: colors[cells[rank][0]] for rank in cells}
        key += bytes(cell_color[rank] for rank in pos_cell)
    return key + bytes(int(matrix[i:i + 8], 2) for i in range(0, len(matrix), 8))


def nested_signature_ranks(p, mode):
    """Each element's rank among the distinct nested ``element_signatures``."""
    sigs = element_signatures(p, mode)
    order = {s: r for r, s in enumerate(sorted(set(sigs)))}
    return [order[s] for s in sigs]


def key_signature_ranks(p, mode):
    """The integer ranks that pre-partition the key search."""
    colors = p.colors if mode is COLOR else (0,) * p.size
    return _signature_ranks(colors, *_strict_relations(p.leq))


def forced_position(p, mode):
    """The first position from which every cell of the key search is a singleton.

    Read from the cell sizes of ``_signature_ranks``: one past the last
    position whose cell has two or more elements, 0 if there is none.
    """
    rank = key_signature_ranks(p, mode)
    size = Counter(rank)
    return max((k + 1 for k, r in enumerate(sorted(rank)) if size[r] > 1), default=0)


def forced_case(p, mode):
    """Which forced tail the key search of ``p`` takes: "none", "partial" or "whole"."""
    forced = forced_position(p, mode)
    return "whole" if forced == 0 else "none" if forced == p.size else "partial"


def random_poset(n, rng, num_colors=1):
    """A random order on n points, about three covers per element, random colors."""
    rel = [1 << i for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 3 / n:
                rel[i] |= 1 << j
    for k in range(n):
        for i in range(n):
            if (rel[i] >> k) & 1:
                rel[i] |= rel[k]
    perm = list(range(n))
    rng.shuffle(perm)
    return relabel_by(Poset(tuple(rel), None, tuple(rng.randrange(num_colors) for _ in range(n))), perm)


def components_by_closure(p):
    """Comparability components as fixed points of the closure, by smallest element."""
    out, remaining = [], set(range(p.size))
    while remaining:
        comp = {min(remaining)}
        while True:
            grown = comp | {j for i in comp for j in range(p.size) if p.le(i, j) or p.le(j, i)}
            if grown == comp:
                break
            comp = grown
        out.append(sum(1 << i for i in comp))
        remaining -= comp
    return out


def bitwise_restricted_rows(leq, mask):
    """Oracle for ``_restricted_rows``: restrict and reindex one bit at a time.

    Each element's new index is the number of mask bits below it, counted
    afresh for every bit of every row.
    """
    elements, rows = [], []
    rest = mask
    while rest:
        low = rest & -rest
        rest ^= low
        e = low.bit_length() - 1
        elements.append(e)
        up = leq[e] & mask
        row = 0
        while up:
            j = up & -up
            up ^= j
            row |= 1 << (mask & (j - 1)).bit_count()
        rows.append(row)
    return tuple(rows), tuple(elements)


def all_labeled_posets(n):
    """Brute-force: every reflexive relation on n points that is a partial order."""
    out = []
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    for combo in iproduct([0, 1], repeat=len(pairs)):
        rel = [1 << i for i in range(n)]
        for (i, j), bit in zip(pairs, combo):
            if bit:
                rel[i] |= 1 << j
        try:
            out.append(Poset(tuple(rel)))
        except PosetError:
            continue
    return out


class TestConstruction:
    def test_from_covers_chain(self, chain2):
        assert chain2.size == 2
        assert chain2.le(0, 1) and not chain2.le(1, 0)
        assert chain2.covers == ((0, 1),)

    def test_from_covers_transitive(self, chain3):
        assert chain3.le(0, 2)
        assert chain3.covers == ((0, 1), (1, 2))

    def test_antichain(self):
        p = from_covers(["a", "b", "c"], [])
        assert all(not p.le(i, j) for i in range(3) for j in range(3) if i != j)

    def test_cycle_rejected(self):
        with pytest.raises(CycleError) as err:
            from_covers(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
        assert set(err.value.cycle) == {"a", "b", "c"}

    def test_cycle_report_is_a_directed_cycle(self):
        cases = [
            (["c", "a", "b"], [("a", "b"), ("b", "a"), ("b", "c")]),
            (["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "b"), ("c", "d")]),
            (["x"], [("x", "x")]),
        ]
        for labels, covers in cases:
            with pytest.raises(CycleError) as err:
                from_covers(labels, covers)
            cycle = err.value.cycle
            closed = list(zip(cycle, cycle[1:] + [cycle[0]]))
            assert all(pair in covers for pair in closed)

    def test_unknown_label_rejected(self):
        with pytest.raises(PosetError):
            from_covers(["a"], [("a", "z")])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(PosetError):
            from_covers(["a", "a"], [])

    def test_empty_poset(self):
        assert EMPTY_POSET.size == 0
        assert from_covers([], []).size == 0

    def test_size_cap(self):
        with pytest.raises(SizeCapError, match="cap 32"):
            Poset(tuple(1 << i for i in range(33)))
        assert Poset(tuple(1 << i for i in range(32))).size == 32

    def test_invalid_relations_rejected(self):
        with pytest.raises(PosetError):
            Poset((0, 2))  # not reflexive
        with pytest.raises(PosetError):
            Poset((3, 3))  # not antisymmetric

    @pytest.mark.parametrize(
        "leq, labels, colors, message",
        [
            ((0b011, 0b110, 0b100), None, None, "not transitive"),
            ((0b101, 0b10), None, None, "out of range"),
            ((0b1,), None, (256,), "colors"),
            ((0b01, 0b10), ("a", "a"), None, "distinct"),
            ((0b01, 0b10), None, (0, 1.5), "colors must be a tuple of int"),
            (("x",), None, None, "relation rows must be a tuple of int"),
            ([0b01, 0b10], None, None, "relation rows must be a tuple of int"),
            ((0b01, 0b10), ("a", 1), None, "labels must be a tuple of str"),
            ((0b01, 0b10), ["a", "b"], None, "labels must be a tuple of str"),
        ],
        ids=[
            "non-transitive",
            "out-of-range",
            "color-256",
            "duplicate-labels",
            "float-color",
            "str-row",
            "list-rows",
            "int-label",
            "list-labels",
        ],
    )
    def test_public_constructor_rejects(self, leq, labels, colors, message):
        with pytest.raises(PosetError, match=message):
            Poset(leq, labels, colors)

    def test_relabel_rejects_duplicate_labels(self):
        with pytest.raises(PosetError):
            CHAIN2.relabel(["a", "a"])

    @pytest.mark.parametrize(
        "perm",
        [[0, 0], [1, 1], [0, 2], [1.0, 0.0], [True, False], (True, False), None, 5, range(2)],
    )
    def test_relabel_by_rejects_non_permutation(self, perm):
        with pytest.raises(PosetError):
            relabel_by(CHAIN2, perm)

    def test_disjoint_union_over_the_cap(self):
        with pytest.raises(SizeCapError):
            disjoint_union(chain(17), chain(16))

    def test_disjoint_union_at_the_cap(self):
        union, _, _ = disjoint_union(chain(16), chain(16))
        assert union.size == 32 and len(connected_components(union)) == 2


class TestConstructions:
    def test_union_of_dots_is_antichain(self, dot, antichain2):
        union, _, _ = disjoint_union(dot, dot)
        assert canonical_form(union) == canonical_form(antichain2)

    def test_union_with_empty(self, chain3):
        union, _, _ = disjoint_union(EMPTY_POSET, chain3)
        assert canonical_form(union) == canonical_form(chain3)
        union, _, _ = disjoint_union(chain3, EMPTY_POSET)
        assert canonical_form(union) == canonical_form(chain3)

    def test_union_of_chains(self, chain2):
        union, _, _ = disjoint_union(chain2, chain2)
        assert union.size == 4
        assert len(union.covers) == 2
        assert len(connected_components(union)) == 2

    def test_union_label_collision(self, chain2):
        union, _, _ = disjoint_union(chain2, chain2)
        assert len(set(union.labels)) == 4

    def test_product_of_chains_is_diamond(self, chain2, diamond):
        prod = cartesian_product(chain2, chain2)
        # oracle: all 16 pairwise comparisons straight from the definition
        for (x, y), (a, b) in iproduct(iproduct(range(2), repeat=2), repeat=2):
            expected = chain2.le(x, a) and chain2.le(y, b)
            assert prod.le(x * 2 + y, a * 2 + b) == expected
        assert canonical_form(prod) == canonical_form(diamond)

    def test_product_unit(self, dot, vee):
        assert canonical_form(cartesian_product(dot, vee)) == canonical_form(vee)

    def test_product_of_antichains(self, antichain2):
        prod = cartesian_product(antichain2, antichain2)
        assert len(prod.covers) == 0 and prod.size == 4

    def test_induced_subposet(self, chain2, diamond):
        sub, elems = induced_subposet(chain2, 0b01)
        assert sub.size == 1 and elems == (0,)
        sub, _ = induced_subposet(diamond, 0b1001)
        assert canonical_form(sub) == canonical_form(chain2)
        empty, _ = induced_subposet(diamond, 0)
        assert empty.size == 0

    def test_induced_out_of_range(self, chain2):
        with pytest.raises(PosetError):
            induced_subposet(chain2, 0b100)


def assert_fully_valid(r):
    """The derived poset ``r`` equals its fully validated construction."""
    assert all(type(field) is tuple for field in (r.leq, r.labels, r.colors))
    validated = Poset(r.leq, r.labels, r.colors)
    assert r == validated and hash(r) == hash(validated)


class TestDerivedPosets:
    """Oracle for the derivations that skip re-validation."""

    @settings(max_examples=150, deadline=None)
    @given(posets(max_size=6, num_colors=3), posets(max_size=6, num_colors=3), st.data())
    def test_derivations_pass_the_full_checks(self, p, q, data):
        mask = data.draw(st.integers(0, p.full_mask))
        for sub_mask in (mask, p.full_mask & ~mask):
            sub, _ = induced_subposet(p, sub_mask)
            assert_fully_valid(sub)
            assert_fully_valid(sub.dual())
        assert_fully_valid(p.dual())
        union, _, _ = disjoint_union(p, q)
        assert_fully_valid(union)  # default labels collide, so Q's gain primes
        color = data.draw(st.integers(0, 255))
        assert_fully_valid(_add_maximal_element(p, p.down_closure(mask), color))

    @pytest.mark.parametrize(
        "spec, max_size, root_max",
        [("fin", 5, False), ("cforests:2", 4, False), ("cforests:2", 4, True)],
    )
    def test_every_ideal_split_of_every_class(self, spec, max_size, root_max):
        ctx = family_from_spec(spec, max_size, root_max=root_max)
        for cls in ctx.all_classes():
            rep = cls.representative
            assert_fully_valid(rep)
            for ideal in order_ideals(rep).ideals:
                assert_fully_valid(induced_subposet(rep, ideal)[0])
                assert_fully_valid(induced_subposet(rep, rep.full_mask & ~ideal)[0])


class TestConvexity:
    def test_squeezed_chain(self, chain3):
        assert not is_convex(chain3, 0b101)
        assert is_convex(chain3, 0b010)

    def test_diamond_middles(self, diamond):
        assert is_convex(diamond, 0b0110)

    @settings(max_examples=150, deadline=None)
    @given(posets(max_size=7))
    def test_characterizations_agree(self, p):
        for mask in range(1 << p.size):
            assert is_convex(p, mask) == is_convex_via_ideals(p, mask)


class TestComponents:
    def test_antichain(self, antichain2):
        assert connected_components(antichain2) == [0b01, 0b10]

    def test_chain(self, chain2):
        assert connected_components(chain2) == [0b11]

    def test_mixed(self, chain2, dot):
        union, _, _ = disjoint_union(chain2, dot)
        sizes = sorted(c.bit_count() for c in connected_components(union))
        assert sizes == [1, 2]

    def test_empty(self):
        assert connected_components(EMPTY_POSET) == []

    @settings(max_examples=150, deadline=None)
    @given(posets(max_size=10), st.data())
    def test_downs_is_transpose_of_leq(self, p, data):
        q = relabel_by(p, list(data.draw(st.permutations(range(p.size)))))
        for i in range(q.size):
            for j in range(q.size):
                assert (q.downs[j] >> i) & 1 == (q.leq[i] >> j) & 1

    @settings(max_examples=150, deadline=None)
    @given(posets(max_size=10), st.data())
    def test_components_are_the_comparability_closure(self, p, data):
        q = relabel_by(p, list(data.draw(st.permutations(range(p.size)))))
        assert connected_components(q) == components_by_closure(q)


class TestIsomorphisms:
    def test_antichain_automorphisms(self, antichain2):
        assert len(find_isomorphisms(antichain2, antichain2, ALL)) == 2

    def test_chain_vs_antichain(self, chain2, antichain2):
        assert find_isomorphisms(chain2, antichain2, ALL) == []

    def test_colored_identity_only(self):
        p = Poset((1, 2), colors=(0, 1))
        assert len(find_isomorphisms(p, p, COLOR)) == 1
        assert len(find_isomorphisms(p, p, ALL)) == 2

    def test_bijection_validation(self, chain2, antichain2):
        with pytest.raises(PosetError):
            Bijection(chain2, antichain2, (0, 1), ALL)

    @pytest.mark.parametrize("mapping", [(1.0, 0.0), (True, False), (0, 0), None, 5, range(2)])
    def test_bijection_rejects_non_permutation(self, antichain2, mapping):
        with pytest.raises(PosetError):
            Bijection(antichain2, antichain2, mapping, ALL)

    @settings(max_examples=60, deadline=None)
    @given(posets(max_size=5))
    def test_closure_identity_and_inverse(self, p):
        autos = automorphisms(p, ALL)
        mappings = {b.mapping for b in autos}
        assert tuple(range(p.size)) in mappings
        for b in autos[:6]:
            assert b.inverse().mapping in mappings

    @settings(max_examples=40, deadline=None)
    @given(posets(max_size=4), posets(max_size=4))
    def test_closure_composition_and_union(self, p, q):
        isos = find_isomorphisms(p, q, ALL)
        back = find_isomorphisms(q, p, ALL)
        auto_mappings = {b.mapping for b in find_isomorphisms(p, p, ALL)}
        for f in isos[:4]:
            for g in back[:4]:
                composed = tuple(g.mapping[f.mapping[i]] for i in range(p.size))
                assert composed in auto_mappings
        # disjoint-union compatibility: f u g is admissible on the sums
        union_p, emb_p1, emb_p2 = disjoint_union(p, q)
        union_q, emb_q1, emb_q2 = disjoint_union(q, p)
        for f in isos[:2]:
            for g in back[:2]:
                mapping = [0] * union_p.size
                for i, e in enumerate(emb_p1):
                    mapping[e] = emb_q1[f.mapping[i]]
                for j, e in enumerate(emb_p2):
                    mapping[e] = emb_q2[g.mapping[j]]
                Bijection(union_p, union_q, tuple(mapping), ALL)  # validates


class TestCanonicalForm:
    def test_empty_key(self):
        assert canonical_form(EMPTY_POSET) == b""
        assert canonical_form(EMPTY_POSET, COLOR) == b""

    def test_label_invariance(self, chain2):
        other = from_covers(["zz", "aa"], [("zz", "aa")])
        assert canonical_form(chain2) == canonical_form(other)

    def test_distinguishes(self, chain2, antichain2):
        assert canonical_form(chain2) != canonical_form(antichain2)

    def test_three_element_classes(self):
        labeled = all_labeled_posets(3)
        assert len(labeled) == 19  # labeled posets on 3 points
        assert len({canonical_form(p) for p in labeled}) == 5

    def test_four_element_classes(self):
        labeled = all_labeled_posets(4)
        assert len(labeled) == 219
        assert len({canonical_form(p) for p in labeled}) == 16

    def test_colored_keys(self):
        red_blue = Poset((1, 2), colors=(0, 1))
        blue_red = Poset((1, 2), colors=(1, 0))
        plain = Poset((1, 2), colors=(0, 0))
        assert canonical_form(red_blue, COLOR) == canonical_form(blue_red, COLOR)
        assert canonical_form(red_blue, COLOR) != canonical_form(plain, COLOR)
        assert canonical_form(red_blue, ALL) == canonical_form(plain, ALL)

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_relabel_invariance(self, data):
        p = data.draw(posets(max_size=6, num_colors=2))
        perm = data.draw(st.permutations(list(range(p.size))))
        q = relabel_by(p, list(perm))
        assert canonical_form(p, ALL) == canonical_form(q, ALL)
        assert canonical_form(p, COLOR) == canonical_form(q, COLOR)

    @settings(max_examples=60, deadline=None)
    @given(posets(max_size=5), posets(max_size=5))
    def test_matches_isomorphism_search(self, p, q):
        assert (canonical_form(p) == canonical_form(q)) == bool(
            find_isomorphisms(p, q, ALL)
        )

    @settings(max_examples=50, deadline=None)
    @given(posets(max_size=4), posets(max_size=4), posets(max_size=3))
    def test_union_product_laws_up_to_canonical(self, p, q, r):
        union_pq, _, _ = disjoint_union(p, q)
        union_qp, _, _ = disjoint_union(q, p)
        assert canonical_form(union_pq) == canonical_form(union_qp)
        left, _, _ = disjoint_union(union_pq, r)
        union_qr, _, _ = disjoint_union(q, r)
        right, _, _ = disjoint_union(p, union_qr)
        assert canonical_form(left) == canonical_form(right)
        assert canonical_form(cartesian_product(p, q)) == canonical_form(
            cartesian_product(q, p)
        )

    # The examples are the triples whose products cost minutes when one
    # search spanned all components and only twins were pruned.
    @settings(max_examples=25, deadline=None)
    @given(posets(min_size=1, max_size=3), posets(min_size=1, max_size=3), posets(min_size=1, max_size=3))
    @example(ANTI3, CHAIN2, ANTI3)
    @example(ANTI3, ANTI3, CHAIN3)
    @example(ANTI2, ANTI3, LAMBDA)
    @example(LAMBDA, LAMBDA, LAMBDA)
    def test_product_associative_up_to_canonical(self, p, q, r):
        left = cartesian_product(cartesian_product(p, q), r)
        right = cartesian_product(p, cartesian_product(q, r))
        assert canonical_form(left) == canonical_form(right)

    @pytest.mark.parametrize("piece, k, rooted", [("chain2", 9, False), ("V", 8, True)])
    def test_repeated_pieces_relabel_invariance(self, piece, k, rooted):
        p = copies(piece, k, rooted)
        assert canonical_form(shuffled(p, k)) == canonical_form(p)


MODE_ENTRIES = {
    "canonical_form": lambda p, mode: canonical_form(p, mode),
    "canonical_form of the empty poset": lambda p, mode: canonical_form(EMPTY_POSET, mode),
    "split_keys": lambda p, mode: split_keys(p, [p.full_mask], mode),
    "find_isomorphisms": lambda p, mode: find_isomorphisms(p, p, mode),
    "find_isomorphisms, sizes differ": lambda p, mode: find_isomorphisms(p, ANTI3, mode),
    "automorphisms": lambda p, mode: automorphisms(p, mode),
    "element_signatures": lambda p, mode: element_signatures(p, mode),
    "Bijection": lambda p, mode: Bijection(p, p, (0, 1), mode),
    "Morphism": lambda p, mode: Morphism(CategoryObject(p), CategoryObject(p), 0, p.full_mask, (0, 1), mode),
    "identity": lambda p, mode: identity(CategoryObject(p), mode),
}


@pytest.mark.parametrize("entry", sorted(MODE_ENTRIES))
@pytest.mark.parametrize("mode", ["color", None, 1], ids=repr)
def test_non_mapmode_mode_raises_and_stores_nothing(entry, mode, cold_memo):
    # "color" once took tag 1 but wrote no color bytes, and stored that
    # malformed key where the color-preserving mode reads it.
    with pytest.raises(PosetError, match="map mode"):
        MODE_ENTRIES[entry](CHAIN2, mode)
    assert all(entries == 0 for entries in memo.stats().values())
    assert canonical_form(CHAIN2, COLOR) == bytes.fromhex("01020000b0") == unpruned_connected_key(CHAIN2, COLOR)


class TestRestriction:
    """The byte-table restriction of relation rows against the bit loop."""

    def test_every_mask_up_to_eight_elements(self):
        rng = random.Random(8)
        for n in range(9):
            full = (1 << n) - 1
            # The restriction reads bits, not an order, so any rows will do.
            for leq in (tuple(rng.getrandbits(n) for _ in range(n)), (full,) * n, chain(n).leq):
                for mask in range(1 << n):
                    assert _restricted_rows(leq, mask) == bitwise_restricted_rows(leq, mask)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 32), st.data())
    def test_masks_of_every_width_up_to_32_elements(self, n, data):
        leq = tuple(data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)))
        width = data.draw(st.integers(0, n))  # the highest mask bit is bit width - 1
        mask = data.draw(st.integers(1 << width >> 1, (1 << width) - 1))
        assert _restricted_rows(leq, mask) == bitwise_restricted_rows(leq, mask)


class TestCanonicalKeyLayout:
    """Pruning and the per-component layout against the plain search."""

    @settings(max_examples=150, deadline=None)
    @given(
        posets(min_size=1, max_size=9, num_colors=2).filter(is_connected),
        st.sampled_from([ALL, COLOR]),
    )
    def test_connected_key_matches_unpruned_search(self, p, mode):
        assert canonical_form(p, mode) == unpruned_connected_key(p, mode)

    def test_fin6_connected_keys_match_unpruned_search(self):
        rng = random.Random(6)
        checked = 0
        for cls in fin_up_to(6).all_classes():
            if not is_connected(cls.representative):
                continue
            q = shuffled(cls.representative, rng.random())
            assert canonical_form(q) == unpruned_connected_key(q, ALL) == cls.key
            checked += 1
        assert checked == 1 + 1 + 3 + 10 + 44 + 238  # connected posets, A000608

    # Lambda x 4 and N x 4 under a root are the smallest shapes whose keys
    # change when a generator is recorded for a larger tail, not just a
    # tie; each shows it under some labellings only, hence three.
    @pytest.mark.parametrize("piece", sorted(PIECES))
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_rooted_copies_match_unpruned_search(self, piece, k):
        for seed in range(3):
            q = shuffled(copies(piece, k, rooted=True), seed)
            assert canonical_form(q) == unpruned_connected_key(q, ALL)

    def test_generators_moving_the_prefix_are_not_used(self):
        # 15 elements, 16 automorphisms, from a random search over rooted
        # unions of repeated pieces: pruning by every recorded generator,
        # not only those fixing the placed prefix, changes its key.
        p = Poset((1, 32767, 260, 40, 17, 32, 64, 129, 256, 512, 1056, 2624, 4160, 24832, 16384))
        assert len(automorphisms(p)) == 16
        assert canonical_form(p) == unpruned_connected_key(p, ALL)

    @settings(max_examples=100, deadline=None)
    @given(posets(max_size=8, num_colors=2), st.sampled_from([ALL, COLOR]))
    def test_disconnected_key_is_sorted_component_keys(self, p, mode):
        components = connected_components(p)
        if len(components) < 2:
            return
        key = canonical_form(p, mode)
        parts = sorted(canonical_form(induced_subposet(p, c)[0], mode) for c in components)
        assert key[:2] == bytes([(2 if mode is ALL else 3), p.size])
        assert component_keys(key) == tuple(parts)

    @settings(max_examples=100, deadline=None)
    @given(
        posets(max_size=6, num_colors=2),
        posets(max_size=6, num_colors=2),
        st.sampled_from([ALL, COLOR]),
    )
    def test_union_of_component_keys_is_key_of_disjoint_union(self, p, q, mode):
        parts = component_keys(canonical_form(p, mode)) + component_keys(canonical_form(q, mode))
        assert union_key(parts) == canonical_form(disjoint_union(p, q)[0], mode)

    # Sizes up to 26 cross the byte boundaries of the row restriction.
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 26), st.randoms(use_true_random=False), st.sampled_from([ALL, COLOR]))
    @example(9, random.Random(1), ALL)
    @example(17, random.Random(2), COLOR)
    @example(26, random.Random(3), ALL)
    def test_split_keys_are_keys_of_induced_subposets(self, n, rng, mode):
        p = random_poset(n, rng, num_colors=2)
        full = p.full_mask
        # Singletons share their rows and differ in color, so a lookup
        # that dropped the colors would return a wrong key.
        masks = [0, full] + [1 << i for i in range(n)] + [rng.getrandbits(n) for _ in range(4)]
        with cleared_memo():
            cold = split_keys(p, masks, mode)  # misses: builds the subposets
            # Every side is now keyed, so a warm call must find each one by
            # its restricted rows and colors, without building it.
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(posets_module, "canonical_form", None)
                warm = split_keys(p, masks, mode)
        expected = [
            tuple(canonical_form(induced_subposet(p, side)[0], mode) for side in (mask, full ^ mask))
            for mask in masks
        ]
        assert cold == warm == expected

    def test_component_misses_do_not_look_for_components_again(self, monkeypatch):
        p = copies("N", 3, rooted=False)
        calls = []

        def counting(q):
            calls.append(q.size)
            return real_components(q)

        real_components = posets_module.connected_components
        monkeypatch.setattr(posets_module, "connected_components", counting)
        with cleared_memo():
            key = canonical_form(p)
        assert calls == [p.size]
        assert key == union_key([canonical_form(copies("N", 1, rooted=False))] * 3)

    def test_split_keys_rejects_elements_out_of_range(self):
        for mask in (0b100, -1):
            with pytest.raises(PosetError, match="out of range"):
                split_keys(CHAIN2, [0b01, mask])

    @pytest.mark.parametrize("mode", [ALL, COLOR])
    def test_signature_ranks_match_nested_signatures_exhaustively(self, mode):
        for n in range(5):
            for p in all_labeled_posets(n):
                for colors in iproduct(range(2), repeat=n):
                    q = Poset(p.leq, None, colors)
                    assert key_signature_ranks(q, mode) == nested_signature_ranks(q, mode)

    # The example is one of the smallest posets (n = 7) whose second
    # refinement round splits a cell.
    @settings(max_examples=200, deadline=None)
    @given(posets(max_size=12, num_colors=3), st.sampled_from([ALL, COLOR]), st.randoms())
    @example(Poset((49, 18, 100, 104, 16, 32, 64)), ALL, random.Random(0))
    def test_signature_ranks_match_nested_signatures(self, p, mode, rng):
        q = shuffled(p, rng.random())
        assert key_signature_ranks(q, mode) == nested_signature_ranks(q, mode)

    # n * n bits pack into bytes with a padded last byte unless 8 divides
    # n * n: 29, 30 and 31 pad, 32 does not.
    @pytest.mark.parametrize("n", [31, 32])
    def test_long_chain_keys_match_unpruned_search(self, n):
        q = shuffled(chain(n), n)
        for mode in (ALL, COLOR):
            assert canonical_form(q, mode) == unpruned_connected_key(q, mode)

    @pytest.mark.parametrize("n", [29, 30, 31, 32])
    def test_large_rigid_keys_match_unpruned_search(self, n):
        rng = random.Random(n)
        while True:
            p = random_poset(n, rng, num_colors=2)
            if is_connected(p) and len(automorphisms(p)) == 1:
                break
        for mode in (ALL, COLOR):
            key = canonical_form(p, mode)
            assert len(key) == 2 + (n if mode is COLOR else 0) + (n * n + 7) // 8
            assert key == unpruned_connected_key(p, mode)

    def test_forced_tails_match_unpruned_search(self):
        # Random connected posets with random colors, randomly relabelled,
        # in both modes; every key search either is a forced tail alone
        # (forced == 0), ends in one (0 < forced < n) or has none
        # (forced == n), and the inputs must include all three.
        rng = random.Random(26)
        cases = Counter()
        for _ in range(300):
            p = random_poset(rng.randint(1, 14), rng, num_colors=rng.randint(1, 3))
            if not is_connected(p):
                continue
            for mode in (ALL, COLOR):
                assert canonical_form(p, mode) == unpruned_connected_key(p, mode)
                cases[forced_case(p, mode)] += 1
        assert set(cases) == {"whole", "partial", "none"}
        assert min(cases.values()) >= 20

    def test_forced_tails_match_unpruned_search_exhaustively(self):
        # Every connected poset up to 6 elements with every 2-coloring.
        cases = Counter()
        for cls in fin_up_to(6).all_classes():
            if not is_connected(cls.representative):
                continue
            for colors in iproduct(range(2), repeat=cls.size):
                q = Poset(cls.representative.leq, None, colors)
                assert canonical_form(q, COLOR) == unpruned_connected_key(q, COLOR)
                cases[forced_case(q, COLOR)] += 1
        assert set(cases) == {"whole", "partial", "none"}
        assert sum(cases.values()) == sum(2**n * c for n, c in enumerate([0, 1, 1, 3, 10, 44, 238]))

    # Twins prune every search with a cell of two or more elements; see
    # ``_twin_classes`` for what they save.
    @pytest.mark.parametrize(
        "p, twin_scans",
        [(chain(5), 0), (LAMBDA, 1), (copies("V", 3, rooted=True), 1), (shuffled(copies("Lambda", 1, rooted=True), 1), 1)],
        ids=["chain", "Lambda", "rooted V x 3", "rooted Lambda"],
    )
    def test_twins_are_found_unless_every_cell_is_a_singleton(self, p, twin_scans, monkeypatch, cold_memo):
        calls = []

        def counting(q, colors):
            calls.append(q.size)
            return real_twin_classes(q, colors)

        real_twin_classes = posets_module._twin_classes
        monkeypatch.setattr(posets_module, "_twin_classes", counting)
        assert canonical_form(p) == unpruned_connected_key(p, ALL)
        assert len(calls) == twin_scans
        assert (forced_position(p, ALL) == 0) == (twin_scans == 0)

    @settings(max_examples=150, deadline=None)
    @given(posets(max_size=8, num_colors=3))
    def test_twin_classes_match_pairwise_scan(self, p):
        for colors in (p.colors, (0,) * p.size):
            assert _twin_classes(p, colors) == pairwise_twin_classes(p, colors)
