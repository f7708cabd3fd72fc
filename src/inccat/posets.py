"""Finite labeled posets with optional element colors.

Elements of a poset of size n are the indices 0..n-1, and subsets of
elements are plain int bitmasks (bit i set means element i is present).
This keeps the whole library allocation-light: order ideals, convex
subsets and morphism data are all masks.  The order relation is stored
densely, one up-set mask per element: bit j of ``leq[i]`` says i <= j.
Posets are immutable and hashable, and every operation in this module is
a pure function of its inputs.

Two notions of isomorphism are supported (:class:`MapMode`): all order
isomorphisms, or only the color-preserving ones.  Canonical forms are
byte strings, deterministic across runs and platforms, whose first byte
is a tag: 0 or 1 (all or color-preserving isomorphisms) for a connected
poset, 2 or 3 for a disconnected one.  A disconnected key lists the
sorted keys of its connected components, mirroring the disjoint union;
:func:`component_keys` and :func:`union_key` parse and join that
layout, and :func:`split_keys` reads the keys of both sides of a batch
of splits from the memo, building a subposet only on a miss.
:func:`induced_subposet` restricts the relation rows through
:func:`_restricted_rows`, which packs each row a byte at a time through
256-entry tables, one per byte value of the mask, built on first use;
:func:`split_keys` reads a side below 256 through its table inline.
A subset mask is checked by :func:`check_mask` where it enters: it must
be an int, not a bool, with no bit outside the poset.
A connected key holds the lexicographically least serialized relation
matrix over permutations that respect an invariant-based pre-partition
of the elements, found by a branch-and-bound search.  The search prunes
only subtrees that an automorphism maps onto explored ones (twins, and
the orbits of automorphisms it has found), which yield the same least
matrix, so pruning never changes a key.

Posets are validated where they enter.  A direct ``Poset(...)``, and
with it :func:`from_covers`, :meth:`Poset.relabel`, :func:`relabel_by`,
:func:`cartesian_product` and the JSON loaders, checks the order axioms,
the labels, the colors and the size cap.  Derivations of posets that are
already valid (:func:`induced_subposet`, :meth:`Poset.dual`,
:func:`disjoint_union` and the one-point extensions that generate a
family) build through :func:`_derived_poset` and skip those checks: a
restriction, a reversal or a disjoint union of partial orders is again
one, and they carry over the parents' distinct labels and small colors.

The size cap :data:`SIZE_CAP` is a fixed 32.  It keeps two formats in
range: a key stores the size in one byte, and :func:`_restricted_rows`
packs a row through at most four byte tables.  It is checked once per
public call that can grow a poset: a direct construction,
:func:`disjoint_union` (which compares the summed size with it) and the
family generators (which compare the requested maximum size with it
before generating anything).  A restriction or a dual is never larger
than its parent, so it needs no check.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from . import memo
from .errors import CycleError, PosetError, SizeCapError

SIZE_CAP = 32


def _check_cap(n: int) -> None:
    if n > SIZE_CAP:
        raise SizeCapError(f"poset size {n} exceeds the cap {SIZE_CAP}")


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices: Iterable[int]) -> int:
    out = 0
    for i in indices:
        out |= 1 << i
    return out


class MapMode(Enum):
    """Which isomorphisms the ambient family admits between its posets."""

    ALL_POSET_ISOS = "all"
    COLOR_PRESERVING_ISOS = "color"


@dataclass(frozen=True)
class Poset:
    """An immutable finite poset on elements 0..size-1.

    ``leq[i]`` is the bitmask of elements j with i <= j (so bit i itself is
    always set).  ``labels`` are display names used by serialization only;
    ``colors`` is one small nonnegative integer per element (all zero when
    the poset is uncolored).  A direct construction checks that the rows,
    labels and colors are tuples of ints, strs and ints, reflexivity,
    antisymmetry, transitivity, the labels, the colors and the size cap;
    derivations of valid posets skip the checks (see the module
    docstring).
    """

    leq: tuple[int, ...]
    labels: tuple[str, ...] | None = None
    colors: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        _check_tuple_of(self.leq, int, "relation rows")
        n = len(self.leq)
        _check_cap(n)
        if self.labels is None:
            object.__setattr__(self, "labels", tuple(str(i) for i in range(n)))
        if self.colors is None:
            object.__setattr__(self, "colors", (0,) * n)
        _check_tuple_of(self.labels, str, "labels")
        _check_tuple_of(self.colors, int, "colors")
        if len(self.labels) != n or len(self.colors) != n:
            raise PosetError("labels/colors length must equal the poset size")
        if len(set(self.labels)) != n:
            raise PosetError("element labels must be distinct")
        if any(c < 0 or c > 255 for c in self.colors):
            raise PosetError("colors must be small nonnegative integers (< 256)")
        full = (1 << n) - 1
        for i, row in enumerate(self.leq):
            if row & ~full:
                raise PosetError(f"relation row {i} references elements out of range")
            if not (row >> i) & 1:
                raise PosetError(f"relation is not reflexive at element {i}")
        for i in range(n):
            for j in bits(self.leq[i]):
                if j != i and (self.leq[j] >> i) & 1:
                    raise PosetError(f"relation is not antisymmetric on {i},{j}")
                if self.leq[j] & ~self.leq[i]:
                    raise PosetError(f"relation is not transitive through {i} <= {j}")

    @property
    def size(self) -> int:
        return len(self.leq)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.leq)) - 1

    def le(self, i: int, j: int) -> bool:
        return bool((self.leq[i] >> j) & 1)

    @cached_property
    def downs(self) -> tuple[int, ...]:
        """downs[j] = bitmask of {i : i <= j} (transpose of leq)."""
        out = [0] * self.size
        for i, row in enumerate(self.leq):
            bit = 1 << i
            while row:
                low = row & -row
                row ^= low
                out[low.bit_length() - 1] |= bit
        return tuple(out)

    @cached_property
    def covers(self) -> tuple[tuple[int, int], ...]:
        """Hasse diagram as (lower, upper) pairs, derived on demand."""
        out = []
        for i in range(self.size):
            strict_up = self.leq[i] & ~(1 << i)
            for j in bits(strict_up):
                between = strict_up & self.downs[j] & ~(1 << j)
                if not between:
                    out.append((i, j))
        return tuple(out)

    def down_closure(self, mask: int) -> int:
        out = 0
        for i in bits(mask):
            out |= self.downs[i]
        return out

    def relabel(self, labels: Iterable[str]) -> "Poset":
        return Poset(self.leq, tuple(labels), self.colors)

    def dual(self) -> "Poset":
        """Order-reversed copy (x <= y in the dual iff y <= x here)."""
        return _derived_poset(self.downs, self.labels, self.colors)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        rel = ",".join(f"{self.labels[i]}<{self.labels[j]}" for i, j in self.covers)
        return f"Poset({self.size}:{rel})"


def _check_tuple_of(values: object, kind: type, what: str) -> None:
    if not isinstance(values, tuple) or not all(isinstance(v, kind) for v in values):
        raise PosetError(f"{what} must be a tuple of {kind.__name__} values")


def _derived_poset(leq: tuple[int, ...], labels: tuple[str, ...], colors: tuple[int, ...]) -> Poset:
    """A poset derived from valid ones, built without re-validation.

    The caller passes full tuples of a partial order with distinct labels
    and colors below 256, within the size cap; no check repeats that.
    """
    p = object.__new__(Poset)
    p.__dict__.update(leq=leq, labels=labels, colors=colors)
    return p


EMPTY_POSET = Poset(())


def from_covers(
    element_labels: Iterable[str],
    covers: Iterable[tuple[str, str]],
    colors: dict[str, int] | None = None,
) -> Poset:
    """Build a poset from a Hasse-style cover list.

    The order is the reflexive-transitive closure of ``covers``; a cycle in
    the cover digraph or a cover mentioning an unknown label is rejected.
    """
    labels = tuple(element_labels)
    index = {lab: i for i, lab in enumerate(labels)}
    if len(index) != len(labels):
        raise PosetError("element labels must be distinct")
    n = len(labels)
    succ = [0] * n
    for lo, hi in covers:
        if lo not in index or hi not in index:
            missing = lo if lo not in index else hi
            raise PosetError(f"cover references unknown label {missing!r}")
        succ[index[lo]] |= 1 << index[hi]

    # Kahn-style elimination; a leftover strongly-cyclic core gives the cycle.
    pred_count = [0] * n
    for i in range(n):
        for j in bits(succ[i]):
            pred_count[j] += 1
    order = [i for i in range(n) if pred_count[i] == 0]
    seen = len(order)
    head = 0
    while head < len(order):
        for j in bits(succ[order[head]]):
            pred_count[j] -= 1
            if pred_count[j] == 0:
                order.append(j)
                seen += 1
        head += 1
    if seen != n:
        raise CycleError(_extract_cycle(succ, [i for i in range(n) if pred_count[i] > 0], labels))

    up = [1 << i for i in range(n)]
    for i in reversed(order):
        for j in bits(succ[i]):
            up[i] |= up[j]
    color_tuple = None
    if colors is not None:
        unknown = set(colors) - set(labels)
        if unknown:
            raise PosetError(f"colors reference unknown labels {sorted(unknown)}")
        color_tuple = tuple(colors.get(lab, 0) for lab in labels)
    return Poset(tuple(up), labels, color_tuple)


def _extract_cycle(succ: list[int], leftover: list[int], labels: tuple[str, ...]) -> list[str]:
    """Walk backwards inside the non-eliminated core until a node repeats.

    Every core node kept a positive predecessor count, so it has at least
    one predecessor in the core (successors may all lie outside it).
    """
    inside = set(leftover)
    pred = {i: [j for j in inside if (succ[j] >> i) & 1] for i in inside}
    path: list[int] = []
    pos: dict[int, int] = {}
    node = leftover[0]
    while node not in pos:
        pos[node] = len(path)
        path.append(node)
        node = pred[node][0]
    cycle = path[pos[node]:]
    cycle.reverse()
    return [labels[i] for i in cycle]


def disjoint_union(p: Poset, q: Poset) -> tuple[Poset, tuple[int, ...], tuple[int, ...]]:
    """P + Q with no relations across the summands.

    Returns the union together with the two element embeddings.  Labels are
    kept verbatim unless they collide, in which case the Q-side label gains
    primes until fresh.
    """
    n, m = p.size, q.size
    _check_cap(n + m)
    leq = p.leq + tuple([row << n for row in q.leq])
    taken = set(p.labels)
    labels = list(p.labels)
    for lab in q.labels:
        while lab in taken:
            lab = lab + "'"
        taken.add(lab)
        labels.append(lab)
    poset = _derived_poset(leq, tuple(labels), p.colors + q.colors)
    return poset, tuple(range(n)), tuple(range(n, n + m))


def _is_permutation(perm: Sequence[int], n: int) -> bool:
    """Is ``perm`` a list or tuple of ints, not bools, permuting 0..n-1?"""
    if not isinstance(perm, (list, tuple)):
        return False
    ints = all(isinstance(i, int) and not isinstance(i, bool) for i in perm)
    return ints and sorted(perm) == list(range(n))


def relabel_by(p: Poset, perm: list[int]) -> Poset:
    """Image of P under the relabeling i -> perm[i] (labels refreshed)."""
    n = p.size
    if not _is_permutation(perm, n):
        raise PosetError(f"relabeling is not a permutation of 0..{n - 1}")
    leq = [0] * n
    colors = [0] * n
    for i in range(n):
        row = 0
        for j in range(n):
            if p.le(i, j):
                row |= 1 << perm[j]
        leq[perm[i]] = row
        colors[perm[i]] = p.colors[i]
    return Poset(tuple(leq), None, tuple(colors))


def cartesian_product(p: Poset, q: Poset) -> Poset:
    """P x Q with (x,y) <= (x',y') iff x <= x' and y <= y'."""
    n, m = p.size, q.size
    leq = []
    labels = []
    colors = []
    for i in range(n):
        for j in range(m):
            row = 0
            for a in bits(p.leq[i]):
                for b in bits(q.leq[j]):
                    row |= 1 << (a * m + b)
            leq.append(row)
            labels.append(f"({p.labels[i]},{q.labels[j]})")
            colors.append(0)
    return Poset(tuple(leq), tuple(labels), tuple(colors))


def check_mask(p: Poset, mask: object) -> None:
    """Raise :class:`PosetError` unless ``mask`` is a subset mask of ``p``.

    A mask is an int with no bit outside the poset.  A bool is refused
    though it is an int, and so is a float, which would hash and compare
    as the int it equals; a negative int has bits outside every poset.
    """
    if not isinstance(mask, int) or isinstance(mask, bool):
        raise PosetError(f"a subset mask must be an int, got {type(mask).__name__} {mask!r}")
    if mask >> len(p.leq):
        raise PosetError("subset references elements out of range")


def induced_subposet(p: Poset, mask: int) -> tuple[Poset, tuple[int, ...]]:
    """Restriction of order and colors to ``mask``.

    Returns the subposet together with the element map: entry k is the
    original index of the new element k (new indices follow the ascending
    order of the original ones).
    """
    check_mask(p, mask)
    rows, elements = _restricted_rows(p.leq, mask)
    labels, colors = p.labels, p.colors
    labels = tuple([labels[e] for e in elements])
    colors = tuple([colors[e] for e in elements])
    return _derived_poset(rows, labels, colors), elements


# _BYTE_TABLES[m], for one byte m of a mask: the 256 bytes packed through
# m (entry b keeps the bits of b that m has, moved down together), and the
# set bits of m.  Each is built on first use; a race only repeats work.
# Not a memo table: its 256 slots depend on no input, so it never grows,
# and a list indexed by the byte is the cheapest lookup on this path.
_BYTE_TABLES: list[tuple[bytes, tuple[int, ...]] | None] = [None] * 256


def _byte_table(m: int) -> tuple[bytes, tuple[int, ...]]:
    """Build and store the tables of the mask byte ``m``; the packing doubles per bit."""
    packed = [0]
    for i in range(8):
        if (m >> i) & 1:
            bit = 1 << (m & ((1 << i) - 1)).bit_count()
            packed += [v | bit for v in packed]
        else:
            packed += packed
    table = _BYTE_TABLES[m] = (bytes(packed), tuple(i for i in range(8) if (m >> i) & 1))
    return table


def _restricted_rows(leq: tuple[int, ...], mask: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The relation rows restricted to ``mask`` and reindexed, and its elements.

    The new index of an element is the number of mask bits below it, so
    new indices follow the ascending order of the original ones.  A row
    is packed a byte at a time, one lookup in the table of each nonzero
    byte of the mask (at most four, since no poset exceeds
    :data:`SIZE_CAP`), shifted by the number of mask bits in the bytes
    below.
    """
    if mask < 256:
        packed, elements = _BYTE_TABLES[mask] or _byte_table(mask)
        return tuple([packed[leq[e] & 255] for e in elements]), elements
    chunks = []
    found: list[int] = []
    shift = offset = 0
    while mask >> shift:
        m = (mask >> shift) & 255
        if m:
            packed, positions = _BYTE_TABLES[m] or _byte_table(m)
            chunks.append((shift, packed, offset))
            found += [shift + i for i in positions]
            offset += len(positions)
        shift += 8
    rows = []
    for e in found:
        x = leq[e]
        row = 0
        for shift, packed, offset in chunks:
            row |= packed[(x >> shift) & 255] << offset
        rows.append(row)
    return tuple(rows), tuple(found)


def is_convex(p: Poset, mask: int) -> bool:
    """True iff x <= z <= y with x,y in the set forces z in the set."""
    check_mask(p, mask)
    for x in bits(mask):
        above = p.leq[x] & ~mask
        for z in bits(above):
            if p.leq[z] & mask:
                return False
    return True


def is_convex_via_ideals(p: Poset, mask: int) -> bool:
    """Alternate characterization: the set is L \\ I for nested order ideals.

    Taking L = down-closure of the set and I = L minus the set, S = L \\ I
    holds by construction and L is always an ideal, so convexity is
    equivalent to I being downward closed.  Kept as an independent
    cross-check of :func:`is_convex`.
    """
    low = p.down_closure(mask)
    ideal = low & ~mask
    return all(not (p.downs[i] & ~ideal) for i in bits(ideal))


def connected_components(p: Poset) -> list[int]:
    """Partition of the elements into comparability components (masks).

    Components are listed by their smallest element, ascending; the empty
    poset yields the empty list.
    """
    leq, downs = p.leq, p.downs
    remaining = p.full_mask
    out = []
    while remaining:
        comp = frontier = remaining & -remaining
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            i = low.bit_length() - 1
            grown = (leq[i] | downs[i]) & ~comp
            comp |= grown
            frontier |= grown
        out.append(comp)
        remaining &= ~comp
    return out


def is_connected(p: Poset) -> bool:
    """Nonempty and a single comparability component (the empty poset is not)."""
    return len(connected_components(p)) == 1


@dataclass(frozen=True)
class Bijection:
    """A validated order isomorphism between two posets.

    ``mapping[i]`` is the target index of source element i.  Validation
    checks that the map is bijective, preserves and reflects the order, and
    preserves colors when ``mode`` demands it.
    """

    source: Poset
    target: Poset
    mapping: tuple[int, ...]
    mode: MapMode

    def __post_init__(self) -> None:
        src, tgt = self.source, self.target
        n = src.size
        if tgt.size != n:
            raise PosetError("bijection endpoints must have equal size")
        if not _is_permutation(self.mapping, n):
            raise PosetError("mapping is not a bijection of element indices")
        for i in range(n):
            fi = self.mapping[i]
            for j in range(n):
                if src.le(i, j) != tgt.le(fi, self.mapping[j]):
                    raise PosetError(f"map does not respect the order on {i},{j}")
        if _mode_tag(self.mode):
            for i in range(n):
                if src.colors[i] != tgt.colors[self.mapping[i]]:
                    raise PosetError(f"map does not preserve the color of {i}")

    def inverse(self) -> "Bijection":
        inv = [0] * len(self.mapping)
        for i, fi in enumerate(self.mapping):
            inv[fi] = i
        return Bijection(self.target, self.source, tuple(inv), self.mode)

    def apply_mask(self, mask: int) -> int:
        out = 0
        for i in bits(mask):
            out |= 1 << self.mapping[i]
        return out


def _bad_mode(mode: object) -> PosetError:
    return PosetError(f"map mode must be a MapMode member, got {mode!r}")


def _mode_tag(mode: MapMode) -> int:
    """The key tag of a map mode: 0 for all isomorphisms, 1 for color-preserving ones.

    Anything but a :class:`MapMode` member raises :class:`PosetError`.
    """
    if mode is MapMode.ALL_POSET_ISOS:
        return 0
    if mode is MapMode.COLOR_PRESERVING_ISOS:
        return 1
    raise _bad_mode(mode)


_SIGNATURE_ROUNDS = 2


def element_signatures(p: Poset, mode: MapMode) -> tuple:
    """Isomorphism-invariant signature per element.

    Starts from (color, |down-set|, |up-set|, height) and refines a fixed
    number of times by the sorted multisets of the signatures strictly
    below and above.  Signatures of corresponding elements under any
    mode-admissible isomorphism coincide, so they pre-partition the
    isomorphism search, which compares the signatures of two posets.  The
    key search takes the same cells in the same order from
    :func:`_signature_ranks`; these tuples stay for the isomorphism search
    and the tests' unpruned key search, so the oracles share no code
    with the key path they check.  Not memoised: the isomorphism search
    reads them through its own table (:func:`_iso_signatures_of`), and
    the unpruned key search, an oracle, computes them fresh.
    """
    n = p.size
    colors = p.colors if _mode_tag(mode) else (0,) * n
    height = [0] * n
    for i in sorted(range(n), key=lambda x: p.downs[x].bit_count()):
        below = p.downs[i] & ~(1 << i)
        height[i] = max((height[j] + 1 for j in bits(below)), default=0)
    sig: list = [
        (colors[i], p.downs[i].bit_count(), p.leq[i].bit_count(), height[i])
        for i in range(n)
    ]
    for _ in range(_SIGNATURE_ROUNDS):
        sig = [
            (
                sig[i],
                tuple(sorted(sig[j] for j in bits(p.downs[i] & ~(1 << i)))),
                tuple(sorted(sig[j] for j in bits(p.leq[i] & ~(1 << i)))),
            )
            for i in range(n)
        ]
    return tuple(sig)


def _strict_relations(leq: tuple[int, ...]) -> tuple[list[list[int]], list[list[int]]]:
    """Per element, the ascending lists of elements strictly below and above it."""
    n = len(leq)
    below: list[list[int]] = [[] for _ in range(n)]
    above: list[list[int]] = [[] for _ in range(n)]
    for i, row in enumerate(leq):
        row &= ~(1 << i)
        while row:
            low = row & -row
            row ^= low
            j = low.bit_length() - 1
            above[i].append(j)
            below[j].append(i)
    return below, above


def _signature_ranks(colors: tuple[int, ...], below: list[list[int]], above: list[list[int]]) -> list[int]:
    """Each element's rank among the distinct :func:`element_signatures`.

    A round ranks (rank, sorted ranks strictly below, sorted ranks
    strictly above) among the distinct triples.  Ranking preserves order,
    so the ranks order the elements as the nested tuples do.  An element
    alone in its cell keeps the 1-tuple (rank,): no other element shares
    its rank, so its first component alone orders it against every other
    tuple, and the ranks come out the same.  Once a round adds no cell,
    or all cells are singletons, no later round changes a rank.
    """
    n = len(colors)
    height = [0] * n
    for i in sorted(range(n), key=lambda x: len(below[x])):
        if below[i]:
            height[i] = 1 + max([height[j] for j in below[i]])
    sig: list = [(colors[i], len(below[i]), len(above[i]), height[i]) for i in range(n)]
    rounds = count = 0
    while True:
        order = {s: r for r, s in enumerate(sorted(set(sig)))}
        rank = [order[s] for s in sig]
        if rounds == _SIGNATURE_ROUNDS or len(order) in (count, n):
            return rank
        rounds, count = rounds + 1, len(order)
        size = [0] * count
        for r in rank:
            size[r] += 1
        sig = [
            (r,) if size[r] == 1
            else (r, tuple(sorted([rank[j] for j in below[i]])), tuple(sorted([rank[j] for j in above[i]])))
            for i, r in enumerate(rank)
        ]


def _twin_classes(p: Poset, colors: tuple[int, ...]) -> list[int]:
    """Group elements whose transposition is an automorphism.

    Two equally colored elements with the same strict up-set and the same
    strict down-set can be swapped freely (equal strict sets already make
    them incomparable); during canonicalization only one representative
    per class needs exploring at any search node.  A class is named by
    its smallest element.

    Orbit pruning finds these swaps too, but one tie at a time, each
    after exploring a subtree: without twins, a root below 29 pairwise
    incomparable elements took 1.2 s and K15,15 0.5 s, against 1 ms and
    6 ms with them (2-vCPU x86 VM), so twin pruning stays.
    """
    first: dict[tuple[int, int, int], int] = {}
    return [
        first.setdefault((colors[i], p.leq[i] & ~(1 << i), p.downs[i] & ~(1 << i)), i)
        for i in range(p.size)
    ]


def _orbit_closure(mask: int, gens: list[tuple[int, ...]]) -> int:
    """The union of the orbits of the elements of ``mask`` under ``gens``."""
    frontier = mask
    while frontier:
        image = 0
        for g in gens:
            for i in bits(frontier):
                image |= 1 << g[i]
        frontier = image & ~mask
        mask |= frontier
    return mask


_canonical_keys: dict[tuple, bytes] = memo.process_table("canonical_keys")


def canonical_form(p: Poset, mode: MapMode = MapMode.ALL_POSET_ISOS) -> bytes:
    """Canonical key: equal for two posets iff they are isomorphic in ``mode``.

    The key of the empty poset is the empty byte string.  Every other key
    starts with a tag byte and the size.  The tag is 0 (all isomorphisms)
    or 1 (color-preserving) for a connected poset and 2 or 3 for a
    disconnected one; see :func:`_connected_key` for the connected layout.
    A disconnected key continues with the sorted keys of its connected
    components, as P + Q is built from P and Q.  Each component key
    starts with its own tag and size, which fix its length, so the
    concatenation parses without separators.  The search behind a
    connected key skips only subtrees that automorphisms map onto
    explored ones, so its bytes are those of the unpruned search.  A
    ``mode`` that is not a :class:`MapMode` member raises
    :class:`PosetError`.
    """
    if mode is MapMode.ALL_POSET_ISOS:
        tag, colors = 0, (0,) * p.size
    elif mode is MapMode.COLOR_PRESERVING_ISOS:
        tag, colors = 1, p.colors
    else:
        raise _bad_mode(mode)
    if not colors:  # the empty poset
        return b""
    memo_key = (tag, p.leq, colors)
    hit = _canonical_keys.get(memo_key)
    if hit is not None:
        return hit
    components = connected_components(p)
    if len(components) > 1:
        key = union_key([_component_key(p, c, mode, tag) for c in components])
    else:
        key = _connected_key(p, mode, colors, tag)
    _canonical_keys[memo_key] = key
    return key


def _store_key(p: Poset, mode: MapMode, key: bytes) -> None:
    """Store ``key`` as the canonical key of ``p`` in the memo, without a search.

    The caller knows ``key`` from a poset isomorphic to ``p`` in ``mode``;
    a later :func:`canonical_form` or :func:`split_keys` lookup of ``p``
    then hits as it would after a search.
    """
    tag = _mode_tag(mode)
    _canonical_keys[(tag, p.leq, p.colors if tag else (0,) * p.size)] = key


def _component_key(p: Poset, mask: int, mode: MapMode, tag: int) -> bytes:
    """The key of the connected subposet on ``mask``, from the memo or the search.

    The piece is a connected component, so a miss goes straight to
    :func:`_connected_key`, without looking for components again.
    """
    sub, _ = induced_subposet(p, mask)
    colors = sub.colors if tag else (0,) * sub.size
    memo_key = (tag, sub.leq, colors)
    hit = _canonical_keys.get(memo_key)
    if hit is None:
        hit = _canonical_keys[memo_key] = _connected_key(sub, mode, colors, tag)
    return hit


def split_keys(
    p: Poset, masks: Iterable[int], mode: MapMode = MapMode.ALL_POSET_ISOS
) -> list[tuple[bytes, bytes]]:
    """The keys of both sides of each split of ``p``, built only on a miss.

    Entry k is ``(canonical_form(p|m, mode), canonical_form(p|full^m,
    mode))`` for the k-th mask m, where p|m is ``induced_subposet(p,
    m)[0]``.  The mode, the colors, the all-zero color tuple of each size
    and the memo's lookup are read once per call, not once per side.
    Each side's relation rows are restricted (a side below 256 through
    its byte table inline, a wider one by :func:`_restricted_rows`) and
    looked up, with its colors, under the memo key of
    :func:`canonical_form`.  Only on a miss is the subposet built and its
    key computed there, so there is still one way to compute a key.  A
    mask that :func:`check_mask` refuses raises :class:`PosetError`.
    """
    if mode is MapMode.ALL_POSET_ISOS:
        tag = 0
    elif mode is MapMode.COLOR_PRESERVING_ISOS:
        tag = 1
    else:
        raise _bad_mode(mode)
    leq, colors = p.leq, p.colors
    n = len(leq)
    full = (1 << n) - 1
    zeros = [(0,) * k for k in range(n + 1)]
    get = _canonical_keys.get
    tables = _BYTE_TABLES
    keys: list[bytes] = []
    for mask in masks:
        if type(mask) is not int or mask >> n:
            check_mask(p, mask)  # raises unless mask is an int subclass in range
        for side in (mask, full ^ mask):
            if not side:
                keys.append(b"")
                continue
            if side < 256:
                packed, elements = tables[side] or _byte_table(side)
                rows = tuple([packed[leq[e] & 255] for e in elements])
            else:
                rows, elements = _restricted_rows(leq, side)
            key = get((tag, rows, tuple([colors[e] for e in elements]) if tag else zeros[len(rows)]))
            if key is None:
                key = canonical_form(induced_subposet(p, side)[0], mode)
            keys.append(key)
    return list(zip(keys[::2], keys[1::2]))


def component_keys(key: bytes) -> tuple[bytes, ...]:
    """The sorted keys of the connected components of a key's poset.

    The inverse of :func:`union_key`: the empty key has no components, a
    connected key is its own single component, and a disconnected key is
    cut into the component keys it lists.
    """
    if not key:
        return ()
    if key[0] < 2:
        return (key,)
    out = []
    start, end = 2, len(key)
    while start < end:
        # tag and size, the colors in color-preserving mode, n * n matrix bits
        tag, n = key[start], key[start + 1]
        stop = start + 2 + (n if tag == 1 else 0) + (n * n + 7) // 8
        out.append(key[start:stop])
        start = stop
    return tuple(out)


def union_key(parts: Iterable[bytes]) -> bytes:
    """The key of a disjoint union, from the keys of its connected components.

    ``parts`` are connected keys of one map mode, in any order and with
    repeats; P + Q has key ``union_key(component_keys(kP) +
    component_keys(kQ))``.  A disconnected key is the tag 2 or 3, the
    total size and the sorted component keys (see :func:`canonical_form`).
    """
    return _union_of_sorted(sorted(parts))


def _union_of_sorted(parts: Sequence[bytes]) -> bytes:
    """:func:`union_key` of connected keys that are already sorted."""
    if len(parts) < 2:
        return parts[0] if parts else b""
    return bytes([parts[0][0] + 2, sum(part[1] for part in parts)]) + b"".join(parts)


def _connected_key(p: Poset, mode: MapMode, colors: tuple[int, ...], tag: int) -> bytes:
    """Key of a connected poset: the least relation matrix over relabelings.

    The key records the tag, the size, the canonically ordered color
    sequence (color-preserving mode only) and the lexicographically least
    serialized relation matrix over all pre-partition-respecting
    relabelings.  The matrix is serialized in "L-shaped" layer order (row
    p up to column p, then column p up to row p-1) so the branch-and-bound
    can compare prefixes as elements are placed.

    The search runs on ints: the cells come from :func:`_signature_ranks`,
    each element's block against the placed prefix (bits ``e <= q``, a 1,
    bits ``q <= e``) is kept in ``code`` as elements are placed, and each
    tail is an int of fixed width, so blocks and tails compare as ints.

    From position ``forced`` on every cell is a singleton, so the search
    has one candidate per position there: it groups nothing, finds no
    automorphism and places the elements in cell order.  ``forced_tail``
    computes that tail and its leaf in one loop, on a copy of ``code``,
    with the same block formula, so the bytes are those of the recursion
    it replaces.  The base case, all elements placed, is the empty forced
    tail.  When every cell is a singleton (``forced == 0``) the search is
    that loop alone and no twins are computed.

    Two prunings skip a candidate whose subtree is the image of an
    explored sibling's under an automorphism fixing the placed prefix.
    Such an image has the same least tail, so neither pruning changes a
    byte of the key.  Twins (see :func:`_twin_classes`) are swapped by
    transpositions known up front.  Orbit pruning (McKay & Piperno,
    "Practical graph isomorphism, II", 2014) uses the automorphisms the
    search finds on the way: when two leaves below a node give the same
    matrix, the map from one leaf order onto the other is one, and it
    fixes that node's prefix.  A candidate is skipped when it lies in the
    orbit of an explored sibling under the generators that fix the
    prefix pointwise; a generator that moves the prefix proves nothing
    there.
    """
    n = p.size
    below, above = _strict_relations(p.leq)
    rank = _signature_ranks(colors, below, above)
    cells: list[list[int]] = [[] for _ in range(max(rank) + 1)]
    for i in range(n):
        cells[rank[i]].append(i)
    cell_at = [cell for cell in cells for _ in cell]  # the cell of each position
    forced = n  # the first position from which every cell is a singleton
    while forced and len(cell_at[forced - 1]) == 1:
        forced -= 1
    forced_order = tuple([cell[0] for cell in cell_at[forced:]])
    twin = _twin_classes(p, colors) if forced else []
    # code[e] holds, at bit n - 1 - k of its high and low n bits, whether
    # e <= q and whether q <= e for the element q placed at position k.
    code = [0] * n
    low_bits = (1 << n) - 1
    # Automorphisms found so far, each with the mask of its fixed points.
    gens: list[tuple[tuple[int, ...], int]] = []

    placed: list[int] = []

    def forced_tail() -> tuple[int, tuple[int, ...]]:
        """The tail from position ``forced`` on, where each cell has one element, and its leaf."""
        c = code[:]
        tail = 0
        for k, e in enumerate(forced_order, forced):
            v = c[e]  # the block formula of dfs, at position k
            tail |= ((v >> (2 * n - k)) << (k + 1) | 1 << k | (v & low_bits) >> (n - k)) << (n * n - (k + 1) ** 2)
            bit_lo = 1 << (n - 1 - k)
            for f in below[e]:
                c[f] ^= bit_lo << n
            for f in above[e]:
                c[f] ^= bit_lo
        return tail, tuple(placed) + forced_order

    def dfs(used: int) -> tuple[int, tuple[int, ...]]:
        """Least tail below this node, and a leaf order that attains it."""
        depth = len(placed)
        if depth == forced:
            return forced_tail()
        groups: dict[int, list[int]] = {}
        seen_twins = 0
        for e in cell_at[depth]:
            if (used >> e) & 1 or (seen_twins >> twin[e]) & 1:
                continue
            seen_twins |= 1 << twin[e]
            groups.setdefault(code[e], []).append(e)
        least = min(groups)
        candidates = groups[least]
        # Generators fixing the prefix pointwise.  Those found from here on
        # are found at this node or below it, so they fix it too.
        fixing = [g for g, fixed in gens if not used & ~fixed] if len(candidates) > 1 else []
        known = len(gens)
        explored = 0  # the orbits of the candidates explored so far
        best: int | None = None
        best_leaf: tuple[int, ...] = ()
        bit_lo = 1 << (n - 1 - depth)
        bit_hi = bit_lo << n
        for e in candidates:
            if len(gens) > known:
                fixing += [g for g, _ in gens[known:]]
                known = len(gens)
                explored = _orbit_closure(explored, fixing)
            if (explored >> e) & 1:
                continue
            placed.append(e)
            for f in below[e]:
                code[f] ^= bit_hi
            for f in above[e]:
                code[f] ^= bit_lo
            tail, leaf = dfs(used | (1 << e))
            for f in below[e]:
                code[f] ^= bit_hi
            for f in above[e]:
                code[f] ^= bit_lo
            placed.pop()
            if best is None or tail < best:
                best, best_leaf = tail, leaf
            elif tail == best:
                # Both leaves give the same matrix, so mapping one order
                # onto the other is an automorphism.
                g = [0] * n
                for a, b in zip(best_leaf, leaf):
                    g[a] = b
                gens.append((tuple(g), mask_of(a for a in range(n) if g[a] == a)))
            explored = _orbit_closure(explored | (1 << e), fixing)
        # The block: the prefix bits of e <= q, a 1, those of q <= e.
        block = (least >> (2 * n - depth)) << (depth + 1) | 1 << depth | (least & low_bits) >> (n - depth)
        return block << (n * n - (depth + 1) ** 2) | best, best_leaf  # type: ignore[operator]

    matrix, _ = dfs(0)
    key = bytes([tag, n])
    if mode is MapMode.COLOR_PRESERVING_ISOS:
        key += bytes(colors[cell[0]] for cell in cell_at)
    return key + (matrix << (-n * n % 8)).to_bytes((n * n + 7) // 8, "big")


_iso_signatures: dict[tuple, tuple[tuple, tuple]] = memo.process_table("iso_signatures")


def _iso_signatures_of(p: Poset, mode: MapMode) -> tuple[tuple, tuple]:
    """:func:`element_signatures` of ``p`` and their sorted multiset, from the memo."""
    tag = _mode_tag(mode)
    memo_key = (tag, p.leq, p.colors if tag else (0,) * p.size)
    hit = _iso_signatures.get(memo_key)
    if hit is None:
        sig = element_signatures(p, mode)
        hit = _iso_signatures[memo_key] = (sig, tuple(sorted(sig)))
    return hit


def find_isomorphisms(p: Poset, q: Poset, mode: MapMode = MapMode.ALL_POSET_ISOS) -> list[Bijection]:
    """The complete list of mode-admissible isomorphisms P -> Q.

    Empty when sizes differ or no isomorphism exists; for P = Q this is the
    automorphism group.  Results are ordered lexicographically by mapping
    tuple, so output is deterministic.  The signatures that prune the
    search come from the ``iso_signatures`` memo table; no canonical key
    is read, so this stays an oracle for :func:`canonical_form`.
    """
    _mode_tag(mode)  # rejects a mode that is not a MapMode member
    n = p.size
    if q.size != n:
        return []
    sp, multiset_p = _iso_signatures_of(p, mode)
    sq, multiset_q = _iso_signatures_of(q, mode)
    if multiset_p != multiset_q:
        return []
    candidates = [[j for j in range(n) if sq[j] == sp[i]] for i in range(n)]

    out: list[Bijection] = []
    mapping = [-1] * n
    used = [False] * n

    def backtrack(i: int) -> None:
        if i == n:
            out.append(Bijection(p, q, tuple(mapping), mode))
            return
        for j in candidates[i]:
            if used[j]:
                continue
            ok = True
            for k in range(i):
                if p.le(i, k) != q.le(j, mapping[k]) or p.le(k, i) != q.le(mapping[k], j):
                    ok = False
                    break
            if ok:
                mapping[i] = j
                used[j] = True
                backtrack(i + 1)
                used[j] = False
        mapping[i] = -1

    backtrack(0)
    return out


def automorphisms(p: Poset, mode: MapMode = MapMode.ALL_POSET_ISOS) -> list[Bijection]:
    """Aut_M(P): all mode-admissible automorphisms."""
    return find_isomorphisms(p, p, mode)
