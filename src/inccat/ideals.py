"""Order ideals and the distributive lattice J_P they form.

Every poset P has a lattice of downward-closed subsets with join = union
and meet = intersection.  Ideals are enumerated as down-closures of the
antichains of maximal elements (a bijection, so the enumeration is linear
in the output and never touches all 2^n subsets).  :func:`ideal_masks`
lists them in search order and stores nothing; :func:`order_ideals`
sorts them (popcount, then numeric mask value) and caches the lattice
per order relation.

Two structural correspondences from this module power everything
downstream: the interval [I, L] in J_P is the ideal lattice of the convex
subposet L \\ I, and J_{P+Q} splits as J_P x J_Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from . import memo
from .errors import NotAnIdealError
from .posets import Poset, bits, check_mask, disjoint_union, induced_subposet


def is_order_ideal(p: Poset, mask: int) -> bool:
    """True iff the subset is downward closed in P."""
    check_mask(p, mask)
    return all(not (p.downs[i] & ~mask) for i in bits(mask))


def smallest_ideal_containing(p: Poset, parts: Iterable[int]) -> int:
    """Down-closure of the union of the given subsets."""
    union = 0
    for part in parts:
        check_mask(p, part)
        union |= part
    return p.down_closure(union)


@dataclass(frozen=True, eq=False)
class IdealLattice:
    """The distributive lattice J_P, fully enumerated.

    ``ideals`` is the complete tuple of ideal masks sorted by (popcount,
    mask value); ``index`` maps each mask back to its position, built on
    the first membership query.  Only an int that is not a bool is a
    member: ``True`` and ``1.0`` hash and compare as 1, but are no masks.
    """

    ideals: tuple[int, ...]

    @cached_property
    def index(self) -> dict[int, int]:
        return {m: k for k, m in enumerate(self.ideals)}

    def __len__(self) -> int:
        return len(self.ideals)

    def __contains__(self, mask: object) -> bool:
        return isinstance(mask, int) and not isinstance(mask, bool) and mask in self.index

    def __iter__(self):
        return iter(self.ideals)

    def require_member(self, mask: int) -> None:
        if mask not in self:
            shown = hex(mask) if type(mask) is int else repr(mask)
            raise NotAnIdealError(f"{shown} is not an order ideal of the base poset")

    def join(self, i1: int, i2: int) -> int:
        self.require_member(i1)
        self.require_member(i2)
        return i1 | i2

    def meet(self, i1: int, i2: int) -> int:
        self.require_member(i1)
        self.require_member(i2)
        return i1 & i2


_lattices: dict[tuple[int, ...], IdealLattice] = memo.process_table("ideal_lattices")


def ideal_masks(p: Poset) -> list[int]:
    """Every ideal of P once, in the order of the search; nothing is stored.

    Each ideal is the down-closure of a unique antichain (its maximal
    elements), so a DFS over antichains yields every ideal exactly once.
    For a walk that reads each ideal once in any order; one that needs
    the sorted lattice, or reads it again, calls :func:`order_ideals`.
    """
    n = p.size
    downs = p.downs
    incomp = [~(p.leq[i] | downs[i]) for i in range(n)]
    found: list[int] = []

    def grow(start: int, closure: int, allowed: int) -> None:
        # ``closure`` is the down-closure of the antichain chosen so far.
        found.append(closure)
        for x in range(start, n):
            if (allowed >> x) & 1:
                grow(x + 1, closure | downs[x], allowed & incomp[x])

    grow(0, 0, p.full_mask)
    return found


def order_ideals(p: Poset) -> IdealLattice:
    """J_P, its ideals sorted by (popcount, mask value); cached per order relation."""
    hit = _lattices.get(p.leq)
    if hit is not None:
        return hit
    found = ideal_masks(p)
    # Two stable sorts: by value, then by popcount, give the (popcount, value) order.
    found.sort()
    found.sort(key=int.bit_count)
    lattice = IdealLattice(tuple(found))
    _lattices[p.leq] = lattice
    return lattice


def lattice_ops(lattice: IdealLattice, i1: int, i2: int) -> tuple[int, int]:
    """(join, meet) = (union, intersection); both inputs must be members."""
    return lattice.join(i1, i2), lattice.meet(i1, i2)


@dataclass(frozen=True, eq=False)
class IntervalCorrespondence:
    """The interval [I, L] of J_P seen as the ideal lattice of L \\ I.

    ``to_quotient`` reindexes an ideal K with I <= K <= L into the convex
    subposet on L \\ I; ``from_quotient`` is its inverse.  Both directions
    preserve joins and meets.
    """

    base: Poset
    lower: int
    upper: int
    quotient: Poset
    elements: tuple[int, ...]

    def members(self) -> tuple[int, ...]:
        lat = order_ideals(self.base)
        return tuple(k for k in lat.ideals if k & self.lower == self.lower and k | self.upper == self.upper)

    def to_quotient(self, k: int) -> int:
        order_ideals(self.base).require_member(k)
        if k & self.lower != self.lower or k | self.upper != self.upper:
            raise NotAnIdealError("ideal is not inside the interval")
        pos = {e: idx for idx, e in enumerate(self.elements)}
        out = 0
        for e in bits(k & ~self.lower):
            out |= 1 << pos[e]
        return out

    def from_quotient(self, mask: int) -> int:
        check_mask(self.quotient, mask)
        order_ideals(self.quotient).require_member(mask)
        out = self.lower
        for idx in bits(mask):
            out |= 1 << self.elements[idx]
        return out


def interval_to_quotient_lattice(p: Poset, lower: int, upper: int) -> IntervalCorrespondence:
    """Set up [I, L] ~ J_{L \\ I} for nested ideals I <= L of P."""
    lat = order_ideals(p)
    lat.require_member(lower)
    lat.require_member(upper)
    if lower & ~upper:
        raise NotAnIdealError("interval endpoints are not nested")
    quotient, elements = induced_subposet(p, upper & ~lower)
    return IntervalCorrespondence(p, lower, upper, quotient, elements)


@dataclass(frozen=True, eq=False)
class SumCorrespondence:
    """J_{P+Q} = J_P x J_Q, with the union poset and both embeddings."""

    left: Poset
    right: Poset
    union: Poset
    left_embedding: tuple[int, ...]
    right_embedding: tuple[int, ...]

    def split(self, mask: int) -> tuple[int, int]:
        order_ideals(self.union).require_member(mask)
        left_mask = 0
        for k, e in enumerate(self.left_embedding):
            if (mask >> e) & 1:
                left_mask |= 1 << k
        right_mask = 0
        for k, e in enumerate(self.right_embedding):
            if (mask >> e) & 1:
                right_mask |= 1 << k
        return left_mask, right_mask

    def combine(self, left_mask: int, right_mask: int) -> int:
        order_ideals(self.left).require_member(left_mask)
        order_ideals(self.right).require_member(right_mask)
        out = 0
        for k in bits(left_mask):
            out |= 1 << self.left_embedding[k]
        for k in bits(right_mask):
            out |= 1 << self.right_embedding[k]
        return out


def sum_decomposition(p: Poset, q: Poset) -> SumCorrespondence:
    """Every ideal of P+Q splits uniquely into (ideal of P, ideal of Q)."""
    union, emb_p, emb_q = disjoint_union(p, q)
    return SumCorrespondence(p, q, union, emb_p, emb_q)
