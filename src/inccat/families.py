"""Size-truncated generators for the built-in poset families.

A family is a collection of posets closed under disjoint unions and
convex subposets, together with a map mode saying which isomorphisms its
incidence category admits.  Built-ins:

* ``fin``        all finite posets, all order isomorphisms;
* ``sets``       antichains (finite sets);
* ``csets:k``    k-colored antichains, color-preserving isomorphisms;
* ``forests``    posets whose Hasse diagram is a rooted forest, each
                 tree's root the unique minimal element of its component
                 (pass ``root_max=True`` for the dual convention);
* ``cforests:k`` the k-colored version of forests.

Contexts carry every iso-class representative of each size up to a
cutoff, generated by one-point extensions deduplicated by canonical
form.  Classes are indexed by canonical key, and that index is the
family's only definition: a poset within the cutoff is a member exactly
when its canonical key is in the index, so classifying it is a
dictionary lookup.

Generation keys a candidate only when its key may be new; two kinds of
candidate provably repeat a key already found and skip the search (see
:func:`_generate`).  A candidate whose new element lies above a twin b
of its parent but not above the twin a before it is the image, under
the automorphism swapping a and b, of a candidate the parent has keyed,
so it takes that key.  On the last level, a connected candidate q
from a disconnected parent p is skipped when p has a maximal element x
outside q's new down-set whose component stays connected without x:
q - x is connected, its class came before p because connected keys sort
first, and q was reached from it by adding x back.  That last step
needs the family's ``extensions`` to list the strict down-set of every
element that can be added as a new maximal one, as the built-ins do.
Keys, representatives and class order are those of keying every
candidate.

A :class:`FamilyContext` is plain data (name, map mode, class index): a
third-party family closed under disjoint unions and convex subposets
can be plugged into every algebra operation by generating its classes
and indexing them; it needs a generator and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .errors import FamilyError, SizeCapError, TruncationError
from .ideals import order_ideals
from .memo import context_tables
from .posets import (
    EMPTY_POSET,
    SIZE_CAP,
    MapMode,
    Poset,
    _derived_poset,
    _store_key,
    _twin_classes,
    bits,
    canonical_form,
    connected_components,
    disjoint_union,
    induced_subposet,
    is_connected,
    is_convex,
)


@dataclass(frozen=True, eq=False)
class IsoClass:
    """An isomorphism class of family members, identified by canonical key.

    ``size`` doubles as the degree in the order grading of the Hall
    algebra; ``color_vector`` counts elements of each color and carries
    the K0+ degree data for colored families.
    """

    key: bytes
    representative: Poset
    size: int
    color_vector: tuple[int, ...]
    mode: MapMode

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IsoClass):
            return NotImplemented
        return self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    @property
    def hex_key(self) -> str:
        return self.key.hex()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        covers = ",".join(f"{i}<{j}" for i, j in self.representative.covers)
        return f"[{self.size}:{covers}]"


def _color_vector(p: Poset, num_colors: int) -> tuple[int, ...]:
    counts = [0] * num_colors
    for c in p.colors:
        if c >= num_colors:
            raise FamilyError(f"color {c} out of range for a {num_colors}-colored family")
        counts[c] += 1
    return tuple(counts)


@dataclass(frozen=True, eq=False)
class FamilyContext:
    """A family truncated at ``max_size``, with its full class index.

    Membership is decided by the index alone: a poset of size at most
    ``max_size`` belongs to the family exactly when its canonical key is
    one of the generated classes.  :func:`verify_closure` checks that
    the index is closed under convex subposets and disjoint unions.  It
    numbers the classes by size, then in class order, as ``_classes`` lists them.

    ``memo`` holds the tables of results that depend on the context,
    one per name declared in :mod:`inccat.memo`; they live and die with
    the context.
    """

    name: str
    mode: MapMode
    num_colors: int
    max_size: int
    classes_by_size: tuple[tuple[IsoClass, ...], ...]
    _by_key: dict[bytes, int] = field(repr=False)
    _classes: tuple[IsoClass, ...] = field(repr=False)
    memo: dict[str, dict] = field(default_factory=context_tables, init=False, repr=False)

    def classes(self, size: int) -> tuple[IsoClass, ...]:
        if not isinstance(size, int) or isinstance(size, bool):
            raise FamilyError(f"class size must be an int, got {type(size).__name__} {size!r}")
        if size < 0:
            raise FamilyError(f"class size must be nonnegative, got {size}")
        if size > self.max_size:
            raise TruncationError(
                f"family {self.name!r} is truncated at size {self.max_size}, needed {size}"
            )
        return self.classes_by_size[size]

    def all_classes(self) -> list[IsoClass]:
        return list(self._classes)

    @property
    def empty_class(self) -> IsoClass:
        return self.classes_by_size[0][0]

    def contains(self, p: Poset) -> bool:
        return p.size <= self.max_size and canonical_form(p, self.mode) in self._by_key

    def class_of(self, p: Poset) -> IsoClass:
        """Classify a member poset; raises for non-members or oversize input."""
        if p.size > self.max_size:
            raise TruncationError(
                f"family {self.name!r} is truncated at size {self.max_size}, "
                f"got a poset of size {p.size}"
            )
        number = self._by_key.get(canonical_form(p, self.mode))
        if number is None:
            raise FamilyError(f"poset is not a member of family {self.name!r}")
        return self._classes[number]


def _add_maximal_element(p: Poset, below: int, color: int) -> Poset:
    """Extend by one new maximal element whose strict down-set is ``below``.

    Every generator passes an order ideal of ``p`` as ``below``, so the
    result is a poset and is built without re-validation; ``_family``
    has checked the size cap and the color count.
    """
    n = p.size
    leq = [row | (1 << n) if (below >> i) & 1 else row for i, row in enumerate(p.leq)]
    leq.append(1 << n)
    return _derived_poset(tuple(leq), p.labels + (str(n),), p.colors + (color,))


def _twin_steps(p: Poset, colors: tuple[int, ...]) -> list[tuple[int, int]]:
    """``(1 << a | 1 << b, 1 << b)`` for each twin b of ``p`` and its predecessor a.

    Twins are the classes of :func:`posets._twin_classes` under ``colors``;
    a is the member of b's class just before b.
    """
    last: dict[int, int] = {}
    steps = []
    for b, first in enumerate(_twin_classes(p, colors)):
        if first != b:
            steps.append((1 << last[first] | 1 << b, 1 << b))
        last[first] = b
    return steps


def _spare_maxima(p: Poset) -> tuple[list[int], int]:
    """The components of a disconnected ``p``, and its maximal elements x
    whose component stays connected without x, as a mask.

    A connected ``p`` has no spare maxima: ``([], 0)``.
    """
    components = connected_components(p)
    if len(components) < 2:
        return [], 0
    spare = 0
    for comp in components:
        for x in bits(comp):
            if p.leq[x] == 1 << x and is_connected(induced_subposet(p, comp & ~(1 << x))[0]):
                spare |= 1 << x
    return components, spare


def _generate(
    max_size: int,
    mode: MapMode,
    num_colors: int,
    extensions: Callable[[Poset], list[int]],
) -> list[list[tuple[bytes, Poset]]]:
    """Breadth-first one-point extension with canonical deduplication.

    ``extensions(p)`` lists the allowed strict down-sets for a new maximal
    element.  Every poset on n+1 elements in a family arises from deleting
    a maximal element, so feeding back each size level generates all
    classes; colored families try every color for the new element.  The
    first candidate of each key is its class's representative, and the
    parents of a level are taken in key order.

    Two kinds of candidate repeat a key already in ``seen`` and skip the
    key search; neither moves a key, a representative or the class order:

    * Twin transport, at every level.  Swapping twins a < b of the parent
      (equal colors in ``mode``, equal strict up- and down-sets) is an
      automorphism, so a ``below`` that holds b but not a gives a poset
      isomorphic to the one from ``below ^ (1 << a | 1 << b)``.  When this
      parent has keyed that down-set already, as the sorted lists of the
      built-in families ensure, each color's candidate takes the key of
      that color's twin candidate, and the key is stored in the
      ``canonical_keys`` memo under the candidate, so later lookups of
      its relation rows hit as they would after a search.
    * Connected-parent precedence, on the last level.  Let p be
      disconnected and ``below`` meet every component of p, so the
      candidate q is connected.  If a maximal x of p is not in ``below``
      and its component stays connected without x, then q - x is
      connected.  Connected keys sort before disconnected ones, so the
      class of q - x was a parent before p, and q arose from it by adding
      x back, provided ``extensions`` lists the strict down-set of every
      element that can be added as a new maximal one: q's key is in
      ``seen``.  Applied below the last level, the skip would leave
      memo entries unstored that later split walks read.
    """
    colored = mode is MapMode.COLOR_PRESERVING_ISOS
    levels: list[list[tuple[bytes, Poset]]] = [[(canonical_form(EMPTY_POSET, mode), EMPTY_POSET)]]
    for size in range(max_size):
        last = size == max_size - 1
        seen: dict[bytes, Poset] = {}
        for _, p in levels[-1]:
            steps = _twin_steps(p, p.colors if colored else (0,) * p.size)
            components, spare = _spare_maxima(p) if last else ([], 0)
            keyed: dict[int, list[bytes]] = {}  # the keys of this parent's candidates, by color
            for below in extensions(p):
                if spare & ~below and all(below & comp for comp in components):
                    continue
                # The twin candidate's down-set: b swapped for the a before it.
                twin = next((below ^ pair for pair, b in steps if below & pair == b), None)
                keys = keyed.get(twin)
                if keys is not None:
                    for color, key in enumerate(keys):
                        _store_key(_add_maximal_element(p, below, color), mode, key)
                else:
                    keys = []
                    for color in range(num_colors):
                        q = _add_maximal_element(p, below, color)
                        key = canonical_form(q, mode)
                        keys.append(key)
                        if key not in seen:
                            seen[key] = q
                keyed[below] = keys
        levels.append(sorted(seen.items()))
    return levels


def _family(
    name: str,
    mode: MapMode,
    num_colors: int,
    max_size: int,
    extensions: Callable[[Poset], list[int]],
    dual: bool = False,
) -> FamilyContext:
    """Generate the classes, dualise them if ``dual``, and index them.

    The requested size and color count are checked here, once: each must
    be an int (a bool is refused), the size between 0 and the poset size
    cap and the count between 1 and the 256 colors a poset allows.
    Generation builds its posets without re-validation.
    """
    for what, value in (("max size", max_size), ("color count", num_colors)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise FamilyError(f"{what} must be an int, got {type(value).__name__} {value!r}")
    if max_size < 0:
        raise FamilyError(f"max size must be nonnegative, got {max_size}")
    if max_size > SIZE_CAP:
        raise SizeCapError(f"max size {max_size} exceeds the poset size cap {SIZE_CAP}")
    if num_colors < 1:
        raise FamilyError("need at least one color")
    if num_colors > 256:
        raise FamilyError(f"at most 256 colors are supported, got {num_colors}")
    levels = _generate(max_size, mode, num_colors, extensions)
    if dual:
        levels = [
            sorted((canonical_form(d, mode), d) for d in (p.dual() for _, p in level))
            for level in levels
        ]
    classes_by_size = tuple(
        tuple(IsoClass(key, rep, size, _color_vector(rep, num_colors), mode) for key, rep in level)
        for size, level in enumerate(levels)
    )
    classes = tuple(cls for group in classes_by_size for cls in group)
    by_key = {cls.key: number for number, cls in enumerate(classes)}
    return FamilyContext(name, mode, num_colors, max_size, classes_by_size, by_key, classes)


def fin_up_to(n: int) -> FamilyContext:
    """All finite posets up to isomorphism, each size <= n."""
    return _family(
        "fin",
        MapMode.ALL_POSET_ISOS,
        1,
        n,
        lambda p: list(order_ideals(p).ideals),
    )


def sets_up_to(n: int) -> FamilyContext:
    """Finite sets (antichains): exactly one class per size."""
    return _family("sets", MapMode.ALL_POSET_ISOS, 1, n, lambda p: [0])


def colored_sets_up_to(n: int, k: int) -> FamilyContext:
    """k-colored sets; classes are color-count vectors, maps preserve colors."""
    return _family(f"csets:{k}", MapMode.COLOR_PRESERVING_ISOS, k, n, lambda p: [0])


def _forest_extensions(p: Poset) -> list[int]:
    """New leaf above any single element, or a fresh isolated root."""
    return [0] + [p.downs[i] for i in range(p.size)]


def forests_up_to(n: int, root_max: bool = False) -> FamilyContext:
    """Posets of rooted forests (roots minimal; dualize with root_max)."""
    return _family(
        "forests:root-max" if root_max else "forests",
        MapMode.ALL_POSET_ISOS,
        1,
        n,
        _forest_extensions,
        dual=root_max,
    )


def colored_forests_up_to(n: int, k: int, root_max: bool = False) -> FamilyContext:
    """k-colored rooted forests with color-preserving isomorphisms."""
    return _family(
        f"cforests:{k}:root-max" if root_max else f"cforests:{k}",
        MapMode.COLOR_PRESERVING_ISOS,
        k,
        n,
        _forest_extensions,
        dual=root_max,
    )


def family_from_spec(spec: str, max_size: int, root_max: bool = False) -> FamilyContext:
    """Parse a CLI-style family spec: fin | sets | csets:k | forests | cforests:k."""
    base, _, arg = spec.partition(":")
    if root_max and base in ("fin", "sets", "csets"):
        raise FamilyError("--root-max only applies to forest families")
    if base == "fin" and not arg:
        return fin_up_to(max_size)
    if base == "sets" and not arg:
        return sets_up_to(max_size)
    if base == "forests" and not arg:
        return forests_up_to(max_size, root_max=root_max)
    if base in ("csets", "cforests"):
        try:
            k = int(arg)
        except ValueError:
            raise FamilyError(f"bad color count in family spec {spec!r}") from None
        if base == "csets":
            return colored_sets_up_to(max_size, k)
        return colored_forests_up_to(max_size, k, root_max=root_max)
    raise FamilyError(f"unknown family spec {spec!r}")


@dataclass(frozen=True)
class ClosureReport:
    """Outcome of checking the two family closure axioms on a context."""

    family: str
    convex_checked: int
    union_checked: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_closure(ctx: FamilyContext) -> ClosureReport:
    """Convex subposets and disjoint unions of members stay in the family.

    Exhaustive over the context's representatives: every convex subset of
    every generated class, and every union of two generated classes with
    total size within the cutoff, must itself be a generated class.  This
    is exactly the closure the algebra relies on when it classifies ideal
    splits and products through the index.
    """
    violations: list[str] = []
    convex_checked = 0
    union_checked = 0
    for cls in ctx.all_classes():
        p = cls.representative
        for mask in range(1 << p.size):
            if not is_convex(p, mask):
                continue
            convex_checked += 1
            sub, _ = induced_subposet(p, mask)
            try:
                ctx.class_of(sub)
            except FamilyError:
                violations.append(
                    f"convex subset {mask:#x} of class {cls.hex_key} leaves the family"
                )
    for a in ctx.all_classes():
        for b in ctx.all_classes():
            if a.size + b.size > ctx.max_size:
                continue
            union_checked += 1
            union, _, _ = disjoint_union(a.representative, b.representative)
            try:
                ctx.class_of(union)
            except FamilyError:
                violations.append(
                    f"disjoint union of {a.hex_key} and {b.hex_key} leaves the family"
                )
    return ClosureReport(ctx.name, convex_checked, union_checked, tuple(violations))
