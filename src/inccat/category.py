"""The incidence category of a poset family.

Objects are posets; a morphism X_{P1} -> X_{P2} is a triple (I1, I2, f)
where I1 is an order ideal of P1, I2 an order ideal of P2, and f an
admissible isomorphism from the complement P1 \\ I1 onto I2.  Intuitively
the morphism kills I1, maps the rest isomorphically onto its image ideal
I2, and ignores the remainder of P2.

Composition of (I1, I2, f) with (I2', I3', g) is the triple (K1, K3, h):

* K1 = I1 together with the f-preimage of I2 meet I2' (an ideal of P1
  containing I1),
* K3 = g(I2 \\ I2') (an ideal of P3 contained in I3'),
* h = g o f restricted to P1 \\ K1.

Morphisms are stored with concrete global element indices: ``fmap[k]`` is
the image in P2 of the k-th smallest element of P1 \\ I1.  Every triple
is validated at construction.  Composition hands (K1, K3, h) to the
constructor, which checks that K1 and K3 are ideals and that h is
admissible, so no composite is trusted.  K1 contains I1 and K3 lies
inside I3' by construction: K1 is I1 plus more elements, and K3 consists
of values of g, which lie in I3'.

Kernels, cokernels, images, the direct sum, short exact sequences and
the subobject/quotient dictionary all come from the ideal calculus; the
zero morphism X_{P1} -> X_{P2} is (full ideal, empty ideal, empty map).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from . import memo
from .errors import CompositionError, NotAnIdealError, PosetError
from .ideals import is_order_ideal, order_ideals
from .posets import (
    EMPTY_POSET,
    MapMode,
    Poset,
    _mode_tag,
    bits,
    canonical_form,
    disjoint_union,
    find_isomorphisms,
    induced_subposet,
    is_connected,
    mask_of,
)


@dataclass(frozen=True)
class CategoryObject:
    """The object X_P attached to a poset P."""

    poset: Poset

    @property
    def size(self) -> int:
        return self.poset.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"X({','.join(self.poset.labels)})"


ZERO_OBJECT = CategoryObject(EMPTY_POSET)


@dataclass(frozen=True)
class Morphism:
    """A morphism triple (I1, I2, f) with f stored on global indices.

    ``i1``/``i2`` are ideal masks of the source/target posets.  ``fmap``
    lists the images of the elements of P1 \\ I1 taken in ascending index
    order; its values enumerate I2 bijectively.  Equality is componentwise
    on (source, target, I1, I2, f).
    """

    source: CategoryObject
    target: CategoryObject
    i1: int
    i2: int
    fmap: tuple[int, ...]
    mode: MapMode = MapMode.ALL_POSET_ISOS

    def __post_init__(self) -> None:
        p1, p2 = self.source.poset, self.target.poset
        if not is_order_ideal(p1, self.i1):
            raise NotAnIdealError("I1 is not an order ideal of the source")
        if not is_order_ideal(p2, self.i2):
            raise NotAnIdealError("I2 is not an order ideal of the target")
        if not isinstance(self.fmap, tuple):
            raise PosetError("f must be a tuple of element indices of the target")
        n2 = p2.size
        image = 0
        for b in self.fmap:
            if not isinstance(b, int) or isinstance(b, bool) or not 0 <= b < n2:
                raise PosetError("f must be a tuple of element indices of the target")
            image |= 1 << b
        domain_mask = p1.full_mask & ~self.i1
        domain = tuple(bits(domain_mask))
        # fmap is injective exactly when its image has one bit per entry
        k = len(self.fmap)
        if k != len(domain) or image != self.i2 or image.bit_count() != k:
            raise PosetError("f does not map P1 \\ I1 bijectively onto I2")
        # f is a bijection onto I2, so it respects the order exactly when it
        # maps the up-set of each a inside the domain onto the up-set of
        # f(a) inside I2.
        image_of_bit = {1 << a: 1 << fa for a, fa in zip(domain, self.fmap)}
        leq1, leq2 = p1.leq, p2.leq
        check_colors = _mode_tag(self.mode)  # rejects a mode that is not a MapMode member
        for a, fa in zip(domain, self.fmap):
            above = leq1[a] & domain_mask
            image = 0
            while above:
                low = above & -above
                image |= image_of_bit[low]
                above ^= low
            if image != leq2[fa] & self.i2:
                raise PosetError("f does not respect the order")
            if check_colors and p1.colors[a] != p2.colors[fa]:
                raise PosetError("f does not preserve colors")

    @property
    def domain_elements(self) -> tuple[int, ...]:
        return tuple(bits(self.source.poset.full_mask & ~self.i1))

    def f_dict(self) -> dict[int, int]:
        return dict(zip(self.domain_elements, self.fmap))

    @property
    def is_zero(self) -> bool:
        return self.i2 == 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        p1, p2 = self.source.poset, self.target.poset
        i1 = "{" + ",".join(p1.labels[i] for i in bits(self.i1)) + "}"
        arrows = ",".join(
            f"{p1.labels[a]}>{p2.labels[b]}" for a, b in zip(self.domain_elements, self.fmap)
        )
        return f"({i1},[{arrows}])"


def identity(x: CategoryObject, mode: MapMode = MapMode.ALL_POSET_ISOS) -> Morphism:
    """(empty ideal, full ideal, identity map)."""
    n = x.poset.size
    return Morphism(x, x, 0, x.poset.full_mask, tuple(range(n)), mode)


def zero_morphism(a: CategoryObject, b: CategoryObject, mode: MapMode = MapMode.ALL_POSET_ISOS) -> Morphism:
    """(full ideal of the source, empty ideal, empty map)."""
    return Morphism(a, b, a.poset.full_mask, 0, (), mode)


_hom_sets: dict[tuple, tuple[Morphism, ...]] = memo.process_table("hom_sets")


def _morphisms(
    a: CategoryObject,
    b: CategoryObject,
    mode: MapMode,
    i1s: Iterable[int],
    i2s_by_size: dict[int, list[int]],
) -> tuple[Morphism, ...]:
    """Every (I1, I2, f): a -> b with I1 in ``i1s`` and I2 in ``i2s_by_size``.

    I1 runs in the order given, then I2 among the candidates of size
    |P1 \\ I1| in the order given, then every admissible isomorphism
    ordered lexicographically by mapping tuple.
    """
    p1, p2 = a.poset, b.poset
    out: list[Morphism] = []
    subs2: dict[int, tuple[Poset, tuple[int, ...]]] = {}
    for i1 in i1s:
        rest = p1.full_mask & ~i1
        targets = i2s_by_size.get(rest.bit_count())
        if not targets:
            continue
        sub1, elems1 = induced_subposet(p1, rest)
        for i2 in targets:
            if i2 not in subs2:
                subs2[i2] = induced_subposet(p2, i2)
            sub2, elems2 = subs2[i2]
            for iso in find_isomorphisms(sub1, sub2, mode):
                fmap = tuple(elems2[iso.mapping[k]] for k in range(len(elems1)))
                out.append(Morphism(a, b, i1, i2, fmap, mode))
    return tuple(out)


def hom_set(a: CategoryObject, b: CategoryObject, mode: MapMode = MapMode.ALL_POSET_ISOS) -> tuple[Morphism, ...]:
    """The complete finite Hom(X_{P1}, X_{P2}) in a deterministic order.

    Enumerates ideal pairs in lattice order and, for matching sizes, every
    admissible isomorphism from the complement onto the target ideal,
    ordered lexicographically by mapping tuple.
    """
    memo_key = (a, b, mode)
    hit = _hom_sets.get(memo_key)
    if hit is not None:
        return hit
    lat2_by_size: dict[int, list[int]] = {}
    for i2 in order_ideals(b.poset).ideals:
        lat2_by_size.setdefault(i2.bit_count(), []).append(i2)
    result = _morphisms(a, b, mode, order_ideals(a.poset).ideals, lat2_by_size)
    _hom_sets[memo_key] = result
    return result


def monos(a: CategoryObject, b: CategoryObject, mode: MapMode = MapMode.ALL_POSET_ISOS) -> tuple[Morphism, ...]:
    """The monos a -> b: the triples with I1 empty, I2 any ideal of size |a|.

    Equal to ``hom_set(a, b, mode)`` filtered by :func:`is_mono`, in the
    same order, without building the rest of the hom set.  Not memoised.
    """
    # Candidates are filtered by size only, not by canonical key: the check
    # ``verification.check_ses_classification`` compares the keys of each
    # mono's image with the key of its source, and a key filter here would
    # make that comparison true by construction.
    targets = [i2 for i2 in order_ideals(b.poset).ideals if i2.bit_count() == a.size]
    return _morphisms(a, b, mode, (0,), {a.size: targets})


def epis(b: CategoryObject, c: CategoryObject, mode: MapMode = MapMode.ALL_POSET_ISOS) -> tuple[Morphism, ...]:
    """The epis b -> c: the triples with I2 all of c, I1 any ideal of size |b| - |c|.

    Equal to ``hom_set(b, c, mode)`` filtered by :func:`is_epi`, in the
    same order, without building the rest of the hom set.  Not memoised.
    """
    # By size only, not by the key of the cokernel side; see :func:`monos`.
    kernel_size = b.size - c.size
    kernels = [i1 for i1 in order_ideals(b.poset).ideals if i1.bit_count() == kernel_size]
    return _morphisms(b, c, mode, kernels, {c.size: [c.poset.full_mask]})


def compose(second: Morphism, first: Morphism) -> Morphism:
    """The composite (K1, K3, h) of first: X1 -> X2 and second: X2 -> X3."""
    if first.target != second.source:
        raise CompositionError("morphisms are not composable: target != source")
    if first.mode is not second.mode:
        raise CompositionError("morphisms use different map modes")
    p1 = first.source.poset

    f = first.f_dict()
    g = second.f_dict()
    meet = first.i2 & second.i1
    k1 = first.i1 | mask_of(x for x, fx in f.items() if (meet >> fx) & 1)
    k3 = mask_of(g[y] for y in bits(first.i2 & ~second.i1))
    hmap = tuple(g[f[x]] for x in bits(p1.full_mask & ~k1))
    return Morphism(first.source, second.target, k1, k3, hmap, first.mode)


def image(m: Morphism) -> CategoryObject:
    """X restricted to the image ideal I2."""
    sub, _ = induced_subposet(m.target.poset, m.i2)
    return CategoryObject(sub)


def kernel(m: Morphism) -> Morphism:
    """The canonical kernel (empty, I1, id): X_{I1} -> X_{P1}."""
    sub, elems = induced_subposet(m.source.poset, m.i1)
    return Morphism(CategoryObject(sub), m.source, 0, m.i1, elems, m.mode)


def cokernel(m: Morphism) -> Morphism:
    """The canonical cokernel (I2, full, id): X_{P2} -> X_{P2 \\ I2}.

    The target object is the quotient X_{P2}/X_{P1}.
    """
    p2 = m.target.poset
    rest = p2.full_mask & ~m.i2
    sub, elems = induced_subposet(p2, rest)
    fmap = tuple(range(len(elems)))
    return Morphism(m.target, CategoryObject(sub), m.i2, sub.full_mask, fmap, m.mode)


def quotient_object(x: CategoryObject, ideal: int, mode: MapMode = MapMode.ALL_POSET_ISOS) -> CategoryObject:
    """X_P / X_I for an ideal I of P."""
    inclusion = subobject_inclusion(x, ideal, mode)
    return cokernel(inclusion).target


def subobject_inclusion(x: CategoryObject, ideal: int, mode: MapMode = MapMode.ALL_POSET_ISOS) -> Morphism:
    """The canonical mono (empty, I, id): X_I -> X_P."""
    sub, elems = induced_subposet(x.poset, ideal)
    return Morphism(CategoryObject(sub), x, 0, ideal, elems, mode)


def is_mono(m: Morphism) -> bool:
    """Monomorphisms are exactly the triples with I1 empty."""
    return m.i1 == 0


def is_epi(m: Morphism) -> bool:
    """Epimorphisms are exactly the triples with I2 the full target ideal."""
    return m.i2 == m.target.poset.full_mask


def direct_sum(a: CategoryObject, b: CategoryObject) -> CategoryObject:
    """Monoidal sum X_{P} (+) X_{Q} = X_{P+Q}; X_emptyset is the unit."""
    union, _, _ = disjoint_union(a.poset, b.poset)
    return CategoryObject(union)


def is_indecomposable(x: CategoryObject) -> bool:
    """Nonempty and not a sum of two nonempty objects: P connected."""
    return is_connected(x.poset)


def is_irreducible(x: CategoryObject) -> bool:
    """No nontrivial subobjects: P is a single point."""
    return x.poset.size == 1


@dataclass(frozen=True)
class ShortExactSequence:
    """X_0 -> A -> B -> C -> X_0, exact at A, B and C.

    Exactness at an internal object means the image ideal of the incoming
    morphism equals the kernel ideal of the outgoing one; this is checked
    at construction.
    """

    morphisms: tuple[Morphism, Morphism, Morphism, Morphism]

    def __post_init__(self) -> None:
        ms = self.morphisms
        if ms[0].source.size != 0 or ms[-1].target.size != 0:
            raise PosetError("sequence must start and end at the null object")
        if not is_exact(list(ms)):
            raise PosetError("sequence is not exact")

    @property
    def sub(self) -> CategoryObject:
        return self.morphisms[1].source

    @property
    def middle(self) -> CategoryObject:
        return self.morphisms[1].target

    @property
    def quotient(self) -> CategoryObject:
        return self.morphisms[2].target

    @property
    def ideal(self) -> int:
        return self.morphisms[1].i2


def is_exact(seq: list[Morphism]) -> bool:
    """Image ideal of each incoming map equals kernel ideal of the outgoing."""
    for prev, nxt in zip(seq, seq[1:]):
        if prev.target != nxt.source:
            raise CompositionError("sequence is not composable")
        if prev.i2 != nxt.i1:
            return False
    return True


def short_exact_sequences(x: CategoryObject, mode: MapMode = MapMode.ALL_POSET_ISOS) -> list[ShortExactSequence]:
    """One canonical short exact sequence per ideal I of P.

    The sub is X_I, the quotient X_{P \\ I}; every other short exact
    sequence with X_P in the middle differs from one of these by composing
    with isomorphisms on the ends.
    """
    out = []
    for ideal in order_ideals(x.poset).ideals:
        inc = subobject_inclusion(x, ideal, mode)
        proj = cokernel(inc)
        left = zero_morphism(ZERO_OBJECT, inc.source, mode)
        right = zero_morphism(proj.target, ZERO_OBJECT, mode)
        out.append(ShortExactSequence((left, inc, proj, right)))
    return out


@dataclass(frozen=True, eq=False)
class SubquotientCorrespondence:
    """Subobjects of X_P/X_I versus ideals J with I <= J <= P.

    ``pairs`` lists (J, image of J in the quotient) with J running over the
    ideals of P containing I; the images are exactly the ideals of the
    quotient poset.  The correspondence is compatible with quotients:
    (X_P/X_I)/(X_J/X_I) is isomorphic to X_P/X_J.  (Note the last object:
    the compatible statement quotients by X_J, which is what is verified
    here; see the package documentation.)
    """

    whole: CategoryObject
    ideal: int
    quotient: CategoryObject
    pairs: tuple[tuple[int, int], ...]


def subquotient_correspondence(
    x: CategoryObject, ideal: int, mode: MapMode = MapMode.ALL_POSET_ISOS
) -> SubquotientCorrespondence:
    """Build and verify the subobject/quotient dictionary for X_P / X_I."""
    p = x.poset
    lat = order_ideals(p)
    lat.require_member(ideal)
    quot = quotient_object(x, ideal, mode)
    quot_elems = tuple(bits(p.full_mask & ~ideal))
    pos = {e: k for k, e in enumerate(quot_elems)}

    pairs = []
    for j in lat.ideals:
        if j & ideal != ideal:
            continue
        image_mask = 0
        for e in bits(j & ~ideal):
            image_mask |= 1 << pos[e]
        if not is_order_ideal(quot.poset, image_mask):
            raise NotAnIdealError("interval image is not an ideal of the quotient")
        # compatibility with quotients, via canonical keys
        double_quot = quotient_object(quot, image_mask, mode)
        direct_quot = quotient_object(x, j, mode)
        if canonical_form(double_quot.poset, mode) != canonical_form(direct_quot.poset, mode):
            raise PosetError("subquotient compatibility failed")
        pairs.append((j, image_mask))

    if len(pairs) != len(order_ideals(quot.poset)):
        raise PosetError("interval does not biject with the quotient's ideals")
    return SubquotientCorrespondence(x, ideal, quot, tuple(pairs))
