from itertools import product as iproduct

import pytest
from conftest import cleared_memo

from inccat import memo
from inccat.errors import FamilyError, SizeCapError, TruncationError
from inccat.families import (
    _add_maximal_element,
    _forest_extensions,
    colored_forests_up_to,
    colored_sets_up_to,
    family_from_spec,
    fin_up_to,
    forests_up_to,
    sets_up_to,
    verify_closure,
)
from inccat.ideals import order_ideals
from inccat.posets import (
    EMPTY_POSET,
    MapMode,
    Poset,
    canonical_form,
    from_covers,
    is_connected,
)


def brute_force_class_count(n):
    """Independent oracle: canonical classes among all labeled posets on n points."""
    keys = set()
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    for combo in iproduct([0, 1], repeat=len(pairs)):
        rel = [1 << i for i in range(n)]
        for (i, j), bit in zip(pairs, combo):
            if bit:
                rel[i] |= 1 << j
        try:
            keys.add(canonical_form(Poset(tuple(rel))))
        except Exception:
            continue
    return len(keys)


def admissible_cut_count(tree):
    """Edge subsets met at most once by every root-to-leaf path."""
    covers = tree.covers
    children = {}
    for lo, hi in covers:
        children.setdefault(lo, []).append(hi)
    roots = [i for i in range(tree.size) if not any(hi == i for _, hi in covers)]
    paths = []

    def walk(node, acc):
        kids = children.get(node, [])
        if not kids:
            paths.append(acc)
            return
        for kid in kids:
            walk(kid, acc + [(node, kid)])

    for root in roots:
        walk(root, [])
    count = 0
    for pick in range(1 << len(covers)):
        cut = {covers[i] for i in range(len(covers)) if (pick >> i) & 1}
        if all(sum(1 for edge in path if edge in cut) <= 1 for path in paths):
            count += 1
    return count


class TestFin:
    def test_counts(self):
        # OEIS A000112; Brinkmann & McKay, "Posets on up to 16 points" (2002)
        fin = fin_up_to(7)
        assert [len(fin.classes(s)) for s in range(8)] == [1, 1, 2, 5, 16, 63, 318, 2045]

    def test_counts_against_brute_force(self):
        fin = fin_up_to(4)
        for n in range(5):
            assert len(fin.classes(n)) == brute_force_class_count(n)

    def test_small_classes(self):
        fin = fin_up_to(2)
        assert len(fin.classes(1)) == 1
        reps = [cls.representative for cls in fin.classes(2)]
        assert sorted(len(r.covers) for r in reps) == [0, 1]

    def test_class_of_roundtrip(self, chain3):
        fin = fin_up_to(4)
        cls = fin.class_of(chain3)
        assert cls.size == 3
        assert fin.class_of(cls.representative) == cls

    def test_truncation_error(self, chain3):
        fin = fin_up_to(2)
        with pytest.raises(TruncationError):
            fin.class_of(chain3)

    def test_closure_trivial(self):
        assert verify_closure(fin_up_to(4)).ok

    def test_negative_sizes_rejected(self):
        with pytest.raises(FamilyError):
            fin_up_to(2).classes(-1)
        with pytest.raises(FamilyError):
            fin_up_to(-1)
        with pytest.raises(FamilyError):
            forests_up_to(-1, root_max=True)

    @pytest.mark.parametrize("bad", [True, False, 2.5, 1.0, "3", None])
    def test_non_int_sizes_rejected(self, bad):
        with pytest.raises(FamilyError, match="max size must be an int"):
            fin_up_to(bad)
        with pytest.raises(FamilyError, match="class size must be an int"):
            fin_up_to(2).classes(bad)

    @pytest.mark.parametrize("bad", [True, 2.0, "2", None])
    def test_non_int_color_counts_rejected(self, bad):
        for build in (colored_sets_up_to, colored_forests_up_to):
            with pytest.raises(FamilyError, match="color count must be an int"):
                build(3, bad)


class TestSets:
    def test_one_class_per_size(self):
        sets = sets_up_to(8)
        assert all(len(sets.classes(s)) == 1 for s in range(9))

    def test_membership(self, chain2, antichain2):
        sets = sets_up_to(4)
        assert sets.contains(antichain2) and not sets.contains(chain2)
        with pytest.raises(FamilyError):
            sets.class_of(chain2)

    def test_closure(self):
        assert verify_closure(sets_up_to(5)).ok


class TestSizeCap:
    """The cap is checked where a family is requested, before generation."""

    def test_sets_over_the_cap(self):
        with pytest.raises(SizeCapError):
            sets_up_to(33)

    def test_sets_at_the_cap(self):
        assert len(sets_up_to(32).classes(32)) == 1


class TestColoredSets:
    def test_class_counts(self):
        cs2 = colored_sets_up_to(4, 2)
        assert [len(cs2.classes(s)) for s in range(5)] == [1, 2, 3, 4, 5]

    def test_size_two_vectors(self):
        cs2 = colored_sets_up_to(2, 2)
        vectors = sorted(cls.color_vector for cls in cs2.classes(2))
        assert vectors == [(0, 2), (1, 1), (2, 0)]

    def test_k1_reduces_to_sets(self):
        cs1 = colored_sets_up_to(5, 1)
        sets = sets_up_to(5)
        assert [len(cs1.classes(s)) for s in range(6)] == [
            len(sets.classes(s)) for s in range(6)
        ]

    def test_color_out_of_range(self):
        cs2 = colored_sets_up_to(3, 2)
        bad = Poset((1, 2), colors=(0, 5))
        assert not cs2.contains(bad)

    def test_closure(self):
        assert verify_closure(colored_sets_up_to(4, 2)).ok


class TestForests:
    @pytest.mark.parametrize("root_max", [False, True])
    def test_forest_counts(self, root_max):
        # rooted forests on n points = rooted trees on n + 1 (OEIS A000081)
        forests = forests_up_to(7, root_max=root_max)
        assert [len(forests.classes(s)) for s in range(8)] == [1, 1, 2, 4, 9, 20, 48, 115]

    def test_tree_counts(self):
        forests = forests_up_to(5)
        trees = [
            sum(1 for cls in forests.classes(s) if is_connected(cls.representative))
            for s in range(6)
        ]
        assert trees == [0, 1, 1, 2, 4, 9]

    def test_forest_counts_from_tree_multisets(self):
        # oracle: forests of size n = multisets of trees with sizes summing to n
        forests = forests_up_to(6)
        trees_by_size = {
            s: sum(1 for cls in forests.classes(s) if is_connected(cls.representative))
            for s in range(7)
        }

        def multiset_count(total, max_tree_size):
            if total == 0:
                return 1
            if max_tree_size == 0:
                return 0
            count = 0
            copies = 0
            while copies * max_tree_size <= total:
                ways = 1
                available = trees_by_size[max_tree_size]
                # multisets of `copies` items from `available` kinds
                num, den = 1, 1
                for i in range(copies):
                    num *= available + i
                    den *= i + 1
                ways = num // den
                count += ways * multiset_count(
                    total - copies * max_tree_size, max_tree_size - 1
                )
                copies += 1
            return count

        for n in range(7):
            assert len(forests.classes(n)) == multiset_count(n, n if n else 1)

    def test_size_two(self):
        forests = forests_up_to(2)
        shapes = sorted(len(cls.representative.covers) for cls in forests.classes(2))
        assert shapes == [0, 1]  # two roots, or a single 2-chain tree

    def test_membership(self, vee, diamond):
        forests = forests_up_to(4)
        assert forests.contains(vee)
        assert not forests.contains(diamond)
        wedge = from_covers(["a", "b", "c"], [("a", "c"), ("b", "c")])
        assert not forests.contains(wedge)

    def test_closure_and_convexity(self):
        assert verify_closure(forests_up_to(5)).ok

    def test_root_max_dualization(self):
        fmin = forests_up_to(4)
        fmax = forests_up_to(4, root_max=True)
        assert [len(fmin.classes(s)) for s in range(5)] == [
            len(fmax.classes(s)) for s in range(5)
        ]
        wedge = from_covers(["a", "b", "c"], [("a", "c"), ("b", "c")])
        assert fmax.contains(wedge)
        vee = from_covers(["a", "b", "c"], [("a", "b"), ("a", "c")])
        assert not fmax.contains(vee)

    def test_root_max_dualizes_each_class_once(self, monkeypatch):
        calls = []
        original = Poset.dual
        monkeypatch.setattr(Poset, "dual", lambda p: calls.append(p) or original(p))
        fmax = forests_up_to(4, root_max=True)
        assert len(calls) == len(fmax.all_classes())

    def test_ideals_are_admissible_cuts(self):
        # |J_t| = admissible edge cuts + 1 (the empty ideal has no cut)
        forests = forests_up_to(5)
        for size in range(1, 6):
            for cls in forests.classes(size):
                tree = cls.representative
                if not is_connected(tree):
                    continue
                assert len(order_ideals(tree)) == admissible_cut_count(tree) + 1


class TestColoredForests:
    def test_k1_matches_plain(self):
        cf1 = colored_forests_up_to(4, 1)
        plain = forests_up_to(4)
        assert [len(cf1.classes(s)) for s in range(5)] == [
            len(plain.classes(s)) for s in range(5)
        ]

    def test_size_counts_small(self):
        cf2 = colored_forests_up_to(2, 2)
        assert len(cf2.classes(1)) == 2  # two colors of a dot
        assert len(cf2.classes(2)) == 7  # 4 colored chains + 3 dot multisets

    def test_closure(self):
        assert verify_closure(colored_forests_up_to(4, 2)).ok

    def test_root_max_dualization(self):
        fmin = colored_forests_up_to(4, 2)
        fmax = colored_forests_up_to(4, 2, root_max=True)
        assert fmax.name == "cforests:2:root-max"
        for size in range(5):
            assert len(fmax.classes(size)) == len(fmin.classes(size))
            dual_keys = set()
            for cls in fmax.classes(size):
                rep = cls.representative
                assert fmax.contains(rep)
                dual_keys.add(canonical_form(rep.dual(), MapMode.COLOR_PRESERVING_ISOS))
            assert dual_keys == {cls.key for cls in fmin.classes(size)}


# Shape definitions of the built-in families.  The class index is the only
# definition the library uses; these predicates are the reference the
# generators are tested against.
def _is_antichain(p):
    return all(row == 1 << i for i, row in enumerate(p.leq))


def _max_lower_covers(p):
    counts = [0] * p.size
    for _, hi in p.covers:
        counts[hi] += 1
    return max(counts, default=0)


def _is_forest(p):
    """Each element covers at most one element: Hasse diagram a rooted
    forest with roots minimal."""
    return _max_lower_covers(p) <= 1


def _is_forest_root_max(p):
    return _max_lower_covers(p.dual()) <= 1


def _colors_below(p, k):
    return all(c < k for c in p.colors)


class TestIndexMembership:
    """``contains`` (an index lookup) agrees with each family's definition."""

    def test_uncolored(self):
        reps = [cls.representative for cls in fin_up_to(5).all_classes()]
        cases = [
            (fin_up_to(5), lambda p: True),
            (sets_up_to(5), _is_antichain),
            (forests_up_to(5), _is_forest),
            (forests_up_to(5, root_max=True), _is_forest_root_max),
        ]
        for ctx, definition in cases:
            for p in reps:
                assert ctx.contains(p) == definition(p), (ctx.name, p.covers)

    def test_colored(self):
        reps = [cls.representative for cls in fin_up_to(4).all_classes()]
        colored = [
            Poset(p.leq, p.labels, colors)
            for p in reps
            for colors in iproduct(range(3), repeat=p.size)
        ]
        cases = [
            (colored_sets_up_to(4, 2), _is_antichain),
            (colored_forests_up_to(4, 2), _is_forest),
            (colored_forests_up_to(4, 2, root_max=True), _is_forest_root_max),
        ]
        for ctx, shape in cases:
            for p in colored:
                expected = shape(p) and _colors_below(p, 2)
                assert ctx.contains(p) == expected, (ctx.name, p.covers, p.colors)


class TestFamilySpec:
    def test_parsing(self):
        assert family_from_spec("fin", 3).name == "fin"
        assert family_from_spec("sets", 3).name == "sets"
        assert family_from_spec("csets:2", 3).name == "csets:2"
        assert family_from_spec("forests", 3).name == "forests"
        assert family_from_spec("cforests:2", 3).name == "cforests:2"
        assert family_from_spec("forests", 3, root_max=True).name == "forests:root-max"

    def test_bad_specs(self):
        with pytest.raises(FamilyError):
            family_from_spec("rings", 3)
        with pytest.raises(FamilyError):
            family_from_spec("csets:x", 3)
        for spec in ("csets:2", "fin", "sets"):
            with pytest.raises(FamilyError, match="--root-max only applies to forest families"):
                family_from_spec(spec, 2, root_max=True)

    def test_color_count_limit(self):
        assert len(colored_sets_up_to(1, 256).classes(1)) == 256
        for build in (colored_sets_up_to, colored_forests_up_to):
            with pytest.raises(FamilyError):
                build(1, 257)
        with pytest.raises(FamilyError):
            family_from_spec("cforests:257", 0)

    def test_deterministic_class_order(self):
        first = [cls.hex_key for s in range(5) for cls in fin_up_to(4).classes(s)]
        second = [cls.hex_key for s in range(5) for cls in fin_up_to(4).classes(s)]
        assert first == second


def _plain_levels(max_size, mode, num_colors, extensions):
    """Test-only oracle: the one-point extension loop that keys every candidate.

    It skips no candidate, so the skips of the library's generator must
    leave the same first candidate of each key, in the same order.
    """
    levels = [[(canonical_form(EMPTY_POSET, mode), EMPTY_POSET)]]
    for _ in range(max_size):
        seen = {}
        for _, p in levels[-1]:
            for below in extensions(p):
                for color in range(num_colors):
                    q = _add_maximal_element(p, below, color)
                    seen.setdefault(canonical_form(q, mode), q)
        levels.append(sorted(seen.items()))
    return levels


def _all_ideals(p):
    return list(order_ideals(p).ideals)


ALL, COLORED = MapMode.ALL_POSET_ISOS, MapMode.COLOR_PRESERVING_ISOS
# (build, oracle arguments, dualise the oracle's levels)
SKIP_CASES = {
    "fin:7": (lambda: fin_up_to(7), (7, ALL, 1, _all_ideals), False),
    "forests:8": (lambda: forests_up_to(8), (8, ALL, 1, _forest_extensions), False),
    "forests:root-max:7": (lambda: forests_up_to(7, root_max=True), (7, ALL, 1, _forest_extensions), True),
    "csets:2:6": (lambda: colored_sets_up_to(6, 2), (6, COLORED, 2, lambda p: [0]), False),
    "cforests:2:5": (lambda: colored_forests_up_to(5, 2), (5, COLORED, 2, _forest_extensions), False),
}


class TestGenerationSkips:
    """Twin transport and connected-parent precedence against the unskipped loop.

    Both the generator and the oracle run on a cleared memo, so neither
    reads a key the other stored.
    """

    @pytest.mark.parametrize("case", list(SKIP_CASES))
    def test_levels_match_the_unskipped_loop(self, case):
        build, args, dual = SKIP_CASES[case]
        mode = args[1]
        with cleared_memo():
            ctx = build()
            memo.clear()
            levels = _plain_levels(*args)
            if dual:
                levels = [
                    sorted((canonical_form(d, mode), d) for d in (p.dual() for _, p in level))
                    for level in levels
                ]
        assert [[cls.key for cls in group] for group in ctx.classes_by_size] == [
            [key for key, _ in level] for level in levels
        ]
        for group, level in zip(ctx.classes_by_size, levels):
            for cls, (_, rep) in zip(group, level):
                got = cls.representative
                assert (got.leq, got.labels, got.colors) == (rep.leq, rep.labels, rep.colors)

    @pytest.mark.parametrize("case", list(SKIP_CASES))
    def test_stored_keys_match_fresh_keys(self, case):
        build = SKIP_CASES[case][0]
        table = memo.process_table("canonical_keys")
        with cleared_memo():
            build()
            stored = dict(table)
            memo.clear()
            for (tag, leq, colors), key in stored.items():
                p = Poset(leq, None, colors)
                assert canonical_form(p, COLORED if tag else ALL) == key, (leq, colors)
