"""The oracle routes reach none of what they check and share only listed primitives.

``find_isomorphisms``, ``element_signatures``, ``structure_constant`` and
``is_convex_via_ideals`` check the key search, its refinement, the Hall
product and ``is_convex``, so they must reach no canonical key.  The
Schmitt side (``interval_row``, ``ideal_form_row``,
``schmitt_product_ideal_form``, ``schmitt_coproduct``) checks the Hall
product and coproduct through ``phi``; it classifies intervals through
``class_of`` by design, so it must instead stay off the Hall split
tables.  A route proves something only while it computes apart from
what it checks.  The check here is a call graph of
``src/inccat`` by name: every name or attribute read in a function body
(nested functions included) links to every function or method of that
name, and a class name to its ``__init__``/``__post_init__``.  It
over-approximates, so it can raise a false alarm but never misses a
call made by name.  A route fails when it reaches a forbidden name, or
when it shares a function with the fast paths that is on none of the
lists below and that it does not reach through a fast route it calls by
design.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "inccat"

# The key search, the keyed lookups and the memo table of keys.
KEY_SEARCH = {
    "_signature_ranks",
    "_connected_key",
    "canonical_form",
    "split_keys",
    "split_index",
    "class_of",
    "_canonical_keys",
}
# The Hall product and coproduct through the split tables.
HALL_FAST_PATH = {"split_index", "split_keys", "_split_counts", "_class_of_key", "product", "coproduct"}
# Each route: the names it must not reach, and the fast routes it calls
# by design, whose reach it may share.
ORACLE_ROUTES = {
    "find_isomorphisms": (KEY_SEARCH, ()),
    "element_signatures": (KEY_SEARCH, ()),
    "structure_constant": (KEY_SEARCH, ()),
    "is_convex_via_ideals": (KEY_SEARCH, ()),
    "interval_row": (HALL_FAST_PATH, ("class_of",)),
    "ideal_form_row": (HALL_FAST_PATH, ("class_of",)),
    "schmitt_product_ideal_form": (HALL_FAST_PATH, ("class_of",)),
    "schmitt_coproduct": (HALL_FAST_PATH, ("class_of",)),
}
FAST_ROUTES = ["canonical_form", "split_keys", "split_index", "class_of", "product", "coproduct"]

# Shared primitives, each with the test that is its own oracle.  A fault
# in one would move a fast path and its oracle together, so each needs a
# check of its own.
SHARED_PRIMITIVES = {
    "ideals.order_ideals": "tests/test_ideals.py::TestEnumeration::test_oracle_random",
    "ideals.ideal_masks": "tests/test_ideals.py::TestEnumeration::test_ideal_masks_oracle_random",
    "posets.induced_subposet": "tests/test_posets.py::TestDerivedPosets::test_derivations_pass_the_full_checks",
    "posets._derived_poset": "tests/test_posets.py::TestDerivedPosets::test_derivations_pass_the_full_checks",
    "posets._restricted_rows": "tests/test_posets.py::TestRestriction::test_masks_of_every_width_up_to_32_elements",
    "posets._byte_table": "tests/test_posets.py::TestRestriction::test_every_mask_up_to_eight_elements",
    "posets.Poset.downs": "tests/test_posets.py::TestComponents::test_downs_is_transpose_of_leq",
}
# The poset's fields, their validation, the map mode's check, bit
# iteration and the family's class lists: the data every route reads,
# not a computation that could agree with itself.
POSET_BASICS = {
    "posets.Poset.__post_init__",
    "posets.Poset.size",
    "posets.Poset.full_mask",
    "posets._check_cap",
    "posets._check_tuple_of",
    "posets.check_mask",
    "posets.bits",
    "posets._bad_mode",
    "posets._mode_tag",
    "families.FamilyContext.classes",
}
# Methods linked only because a local variable or an attribute that a
# route reads shares their name (``size``, ``ideal``, ``sub``); no route
# calls them.
NAME_COLLISIONS = {
    "category.CategoryObject.size",
    "incidence.IntervalClass.size",
    "category.ShortExactSequence.ideal",
    "category.ShortExactSequence.sub",
}


def call_graph(sources):
    """(function name -> function ids, function id -> names its body reads)."""
    defs: dict[str, set[str]] = {}
    reads: dict[str, set[str]] = {}

    def visit(module, body, owner):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(module, node.body, node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fid = ".".join([module] + ([owner] if owner else []) + [node.name])
                defs.setdefault(node.name, set()).add(fid)
                if owner and node.name in ("__init__", "__post_init__"):
                    defs.setdefault(owner, set()).add(fid)
                reads[fid] = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
                    n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
                }

    for module, source in sources.items():
        visit(module, ast.parse(source).body, "")
    return defs, reads


def reachable(graph, roots):
    """The functions reachable from the functions named ``roots``."""
    defs, reads = graph
    seen: set[str] = set()
    todo = [fid for root in roots for fid in defs[root]]
    while todo:
        fid = todo.pop()
        if fid not in seen:
            seen.add(fid)
            todo.extend(fid for name in reads[fid] for fid in defs.get(name, ()))
    return seen


def violations(sources):
    """Per oracle route, the forbidden names it reaches and the unlisted functions it shares."""
    graph = call_graph(sources)
    fast = reachable(graph, FAST_ROUTES)
    allowed = set(SHARED_PRIMITIVES) | POSET_BASICS | NAME_COLLISIONS
    out = {}
    for route, (forbidden, by_design) in ORACLE_ROUTES.items():
        reached = reachable(graph, [route])
        names = {fid.rsplit(".", 1)[1] for fid in reached}.union(*(graph[1][fid] for fid in reached))
        shared = reached & fast - reachable(graph, by_design) - allowed
        out[route] = (sorted(names & forbidden), sorted(shared))
    return out


def package_sources():
    return {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


@pytest.mark.parametrize("route", ORACLE_ROUTES)
def test_oracle_route_reaches_no_key_and_shares_only_listed_primitives(route):
    forbidden, unlisted = violations(package_sources())[route]
    assert forbidden == [], f"{route} reaches {forbidden}"
    assert unlisted == [], f"{route} shares {unlisted} with the fast paths"


def test_listed_functions_exist_and_name_existing_oracle_tests():
    defs, _ = call_graph(package_sources())
    ids = set().union(*defs.values())
    assert set(SHARED_PRIMITIVES) | POSET_BASICS | NAME_COLLISIONS <= ids
    for test_id in set(SHARED_PRIMITIVES.values()):
        path, *names = test_id.split("::")
        body = ast.parse((ROOT / path).read_text()).body
        for name in names:
            (node,) = [n for n in body if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == name]
            body = getattr(node, "body", [])


def mutated(sources, module, old, new):
    assert sources[module].count(old) == 1
    return {**sources, module: sources[module].replace(old, new)}


def test_find_isomorphisms_reading_canonical_keys_is_caught():
    sources = mutated(
        package_sources(),
        "posets",
        "    sp, multiset_p = _iso_signatures_of(p, mode)\n",
        "    if _canonical_keys.get((0, p.leq, (0,) * n)) != _canonical_keys.get((0, q.leq, (0,) * n)):\n"
        "        return []\n"
        "    sp, multiset_p = _iso_signatures_of(p, mode)\n",
    )
    assert violations(sources)["find_isomorphisms"][0] == ["_canonical_keys"]


def test_structure_constant_calling_split_keys_is_caught():
    sources = mutated(
        package_sources(),
        "hall",
        "        sub, _ = induced_subposet(rep, ideal)\n",
        "        if split_keys(rep, [ideal], mode)[0][0] != p_cls.key:\n"
        "            continue\n"
        "        sub, _ = induced_subposet(rep, ideal)\n",
    )
    forbidden, _ = violations(sources)["structure_constant"]
    assert "split_keys" in forbidden and "canonical_form" in forbidden


def test_schmitt_coproduct_calling_hall_coproduct_is_caught():
    sources = mutated(
        package_sources(),
        "incidence",
        "    degrees = sorted({cls.size for cls in f.coeffs})\n",
        "    hall.coproduct(phi_inverse(f), ctx)\n"
        "    degrees = sorted({cls.size for cls in f.coeffs})\n",
    )
    forbidden, _ = violations(sources)["schmitt_coproduct"]
    assert "coproduct" in forbidden and "split_index" in forbidden


def test_sharing_an_unlisted_function_is_caught():
    sources = mutated(
        package_sources(),
        "posets",
        "    ideal = low & ~mask\n",
        "    ideal = low & ~mask\n    connected_components(p)\n",
    )
    assert violations(sources)["is_convex_via_ideals"] == ([], ["posets.connected_components"])
