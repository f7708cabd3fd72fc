"""The incidence Hopf algebra on the ideal lattices J_P, and the map phi.

For a family F, the lattices P(F) = { J_P } form a hereditary
interval-closed collection: an interval [I, L] of J_P is the ideal
lattice of the convex subposet L \\ I, and J_{P+Q} = J_P x J_Q.  Declaring
J_P ~ J_Q whenever an admissible isomorphism P -> Q exists is a Hopf
relation, and the convolution product

    (f . g)([J_P]) = sum over lattice points x of J_P of
                     f([bottom, x]) g([x, top])

together with the coproduct Delta(f)([J_P],[J_Q]) = f([J_{P+Q}]) makes
the finitely supported functions on interval classes a Hopf algebra.

Intervals are never classified as abstract lattices: each one is
converted through the interval correspondence to its convex quotient
poset and classified by poset canonical form.  The map

    phi(f)([J_P]) = f([X_P])

relabels Hall-algebra support to interval classes; that it intertwines
the products and coproducts is a theorem, and the test suites verify it
rather than assume it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import TruncationError
from .families import FamilyContext, IsoClass
from .hall import ZERO, Combination, HallElement, TensorElement
from .ideals import interval_to_quotient_lattice, order_ideals, sum_decomposition
from .posets import (
    EMPTY_POSET,
    Poset,
    canonical_form,
    disjoint_union,
    find_isomorphisms,
    induced_subposet,
    relabel_by,
)


@dataclass(frozen=True, eq=False)
class IntervalClass:
    """The class of the lattice J_P under the Hopf relation.

    J_P ~ J_Q holds exactly when P and Q are isomorphic through the
    family's map class, so interval classes are in bijection with the
    iso-classes of the underlying posets and are represented by them.
    Equality and hash read the canonical key directly, as
    :class:`IsoClass` does: convolution's dict lookups then cost one
    Python frame each, not two.
    """

    iso: IsoClass

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalClass):
            return NotImplemented
        return self.iso.key == other.iso.key

    def __hash__(self) -> int:
        return hash(self.iso.key)

    @property
    def size(self) -> int:
        return self.iso.size

    @property
    def hex_key(self) -> str:
        return self.iso.hex_key

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"J{self.iso!r}"


class IncidenceElement(Combination):
    """Finitely supported map from interval classes to rationals."""

    def degrees(self) -> set[int]:
        return {cls.size for cls in self.coeffs}


def interval_class(p: Poset, lower: int, upper: int, ctx: FamilyContext) -> IntervalClass:
    """Classify the interval [I, L] of J_P via its convex quotient poset.

    Not memoised: :func:`interval_row` keeps the classes of each poset's
    ideal splits in ``ctx.memo["intervals"]`` under ``(p.leq, p.colors)``.
    """
    return IntervalClass(ctx.class_of(interval_to_quotient_lattice(p, lower, upper).quotient))


Row = tuple[tuple[IntervalClass, IntervalClass], ...]


def interval_row(p: Poset, ctx: FamilyContext) -> Row:
    """The classes of [bottom, I] and [I, top] for each ideal I of P, in
    lattice order; a row that fails to classify is not stored.  Neither the
    Hall split index nor the ideal form reads this table: the Schmitt side
    is the independent oracle for ``hall.product``."""
    table = ctx.memo["intervals"]
    key = (p.leq, p.colors)
    row = table.get(key)
    if row is None:
        row = table[key] = tuple(
            (interval_class(p, 0, i, ctx), interval_class(p, i, p.full_mask, ctx))
            for i in order_ideals(p).ideals
        )
    return row


def ideal_form_row(p: Poset, ctx: FamilyContext) -> Row:
    """The classes of J_I and J_{P \\ I} for each ideal I of P, from fresh subposets."""

    def side(mask: int) -> IntervalClass:
        return IntervalClass(ctx.class_of(induced_subposet(p, mask)[0]))

    return tuple((side(i), side(p.full_mask & ~i)) for i in order_ideals(p).ideals)


def convolve(f: IncidenceElement, g: IncidenceElement, row: Row) -> Fraction:
    """The sum of f(low) g(up) over the pairs (low, up) of a row."""
    fc, gc = f.coeffs, g.coeffs
    acc = ZERO
    for low, up in row:
        c1 = fc.get(low)
        if c1 is not None:
            c2 = gc.get(up)
            if c2 is not None:
                acc += c1 * c2
    return acc


def phi(f: HallElement, ctx: FamilyContext) -> IncidenceElement:
    """Relabel Hall support from [X_P] to [J_P]; bijective, degree-preserving."""
    return IncidenceElement({IntervalClass(cls): v for cls, v in f.items()})


def phi_inverse(g: IncidenceElement) -> HallElement:
    return HallElement({cls.iso: v for cls, v in g.items()})


def schmitt_product(f: IncidenceElement, g: IncidenceElement, p: Poset, ctx: FamilyContext) -> Fraction:
    """(f . g)([J_P]): convolution over the lattice points of J_P.

    Each lattice element x = an ideal I splits J_P into the intervals
    [bottom, x] and [x, top], which the interval correspondence converts
    to the ideal lattices of X_I and X_{P \\ I}.
    """
    return convolve(f, g, interval_row(p, ctx))


def schmitt_product_ideal_form(
    f: IncidenceElement, g: IncidenceElement, p: Poset, ctx: FamilyContext
) -> Fraction:
    """The specialized form: sum over ideals of f([J_I]) g([J_{P \\ I}])."""
    return convolve(f, g, ideal_form_row(p, ctx))


def schmitt_product_element(
    f: IncidenceElement, g: IncidenceElement, ctx: FamilyContext
) -> IncidenceElement:
    """The product as an element, evaluated on every candidate class."""
    # The class-by-class scan stays on purpose: it is the independent phi oracle for hall.product.
    out: dict[IntervalClass, Fraction] = {}
    sums = sorted({a + b for a in (c.size for c in f.coeffs) for b in (c.size for c in g.coeffs)})
    for total in sums:
        for cls in ctx.classes(total):
            value = schmitt_product(f, g, cls.representative, ctx)
            if value:
                out[IntervalClass(cls)] = value
    return IncidenceElement(out)


def schmitt_coproduct(f: IncidenceElement, ctx: FamilyContext) -> TensorElement:
    """Delta(f)([J_P],[J_Q]) = f([J_P x J_Q]) = f([J_{P+Q}]).

    Evaluated on every candidate pair of classes whose sizes sum to a
    degree of f; the lattice product J_P x J_Q is realized as the ideal
    lattice of the disjoint union via the sum decomposition.
    """
    # Kept as the phi oracle: check_phi_intertwines compares it with hall.coproduct.
    out: dict[tuple[IntervalClass, IntervalClass], Fraction] = {}
    degrees = sorted({cls.size for cls in f.coeffs})
    for total in degrees:
        for a in range(total + 1):
            for left in ctx.classes(a):
                for right in ctx.classes(total - a):
                    union = sum_decomposition(left.representative, right.representative).union
                    value = f.coeff(IntervalClass(ctx.class_of(union)))
                    if value:
                        out[(IntervalClass(left), IntervalClass(right))] = value
    return TensorElement(out)


def schmitt_counit(f: IncidenceElement) -> Fraction:
    """Evaluation at the class of the one-element lattice J_emptyset."""
    # Kept as the phi oracle: check_phi_intertwines compares it with hall.counit.
    return sum((v for cls, v in f.items() if cls.size == 0), Fraction(0))


def schmitt_unit(ctx: FamilyContext) -> IncidenceElement:
    return IncidenceElement({IntervalClass(ctx.empty_class): Fraction(1)})


def schmitt_antipode(f: IncidenceElement, ctx: FamilyContext) -> IncidenceElement:
    """Antipode on the incidence side, by the same graded recursion.

    Computed entirely with the interval-convolution product and the
    lattice coproduct, so comparing it with the transported Hall antipode
    exercises two genuinely distinct routes.
    """
    out = IncidenceElement.zero()
    for cls, value in f.items():
        out = out + value * _schmitt_antipode_class(ctx, cls)
    return out


def _schmitt_antipode_class(ctx: FamilyContext, cls: IntervalClass) -> IncidenceElement:
    if cls.size == 0:
        return IncidenceElement({cls: Fraction(1)})
    table = ctx.memo["schmitt_antipode"]
    hit = table.get(cls.iso.key)
    if hit is not None:
        return hit
    one = IncidenceElement({cls: Fraction(1)})
    result = -one
    for (left, right), value in schmitt_coproduct(one, ctx).items():
        if left.size == 0 or right.size == 0:
            continue
        term = schmitt_product_element(
            _schmitt_antipode_class(ctx, left),
            IncidenceElement({right: Fraction(1)}),
            ctx,
        )
        result = result - value * term
    table[cls.iso.key] = result
    return result


@dataclass(frozen=True)
class HopfRelationReport:
    """Checks that ~ on P(F) is an order-compatible Hopf relation."""

    family: str
    product_checks: int
    neutrality_checks: int
    order_checks: int
    seed: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_hopf_relation(ctx: FamilyContext, cutoff: int, seed: int = 0) -> HopfRelationReport:
    """Sample-based verification of the Hopf relation axioms.

    For each class representative P up to the cutoff, a random relabeled
    copy Q ~ P is drawn (seeded); the checks are:

    * multiplicativity: J_{P+R} ~ J_{Q+R} for every class R that fits the
      cutoff (the lattice product compatibility, via sums);
    * one-element neutrality: J_{P + empty} ~ J_P;
    * order compatibility: some isomorphism sends each ideal I of P to an
      ideal of Q with matching lower and upper interval classes.
    """
    if cutoff > ctx.max_size:
        raise TruncationError(
            f"family {ctx.name!r} is truncated at {ctx.max_size}, cutoff {cutoff} requested"
        )
    rng = random.Random(seed)
    violations: list[str] = []
    product_checks = neutrality_checks = order_checks = 0

    for size in range(cutoff + 1):
        for cls in ctx.classes(size):
            p = cls.representative
            perm = list(range(size))
            rng.shuffle(perm)
            q = relabel_by(p, perm)
            if canonical_form(q, ctx.mode) != cls.key:
                violations.append(f"relabeled copy of {cls.hex_key} changed class")
                continue

            neutrality_checks += 1
            with_unit, _, _ = disjoint_union(p, EMPTY_POSET)
            if ctx.class_of(with_unit) != cls:
                violations.append(f"one-element neutrality failed for {cls.hex_key}")

            for r_size in range(cutoff - size + 1):
                for r_cls in ctx.classes(r_size):
                    product_checks += 1
                    left, _, _ = disjoint_union(p, r_cls.representative)
                    right, _, _ = disjoint_union(q, r_cls.representative)
                    if ctx.class_of(left) != ctx.class_of(right):
                        violations.append(
                            f"product compatibility failed for {cls.hex_key} with {r_cls.hex_key}"
                        )

            isos = find_isomorphisms(p, q, ctx.mode)
            if not isos:
                violations.append(f"no admissible isomorphism onto relabeled {cls.hex_key}")
                continue
            iso = isos[0]
            for ideal, (low_p, up_p) in zip(order_ideals(p).ideals, interval_row(p, ctx)):
                order_checks += 1
                image = iso.apply_mask(ideal)
                low_q = interval_class(q, 0, image, ctx)
                up_q = interval_class(q, image, q.full_mask, ctx)
                if low_p != low_q or up_p != up_q:
                    violations.append(
                        f"order compatibility failed for {cls.hex_key} at ideal {ideal:#x}"
                    )
    return HopfRelationReport(
        ctx.name, product_checks, neutrality_checks, order_checks, seed, tuple(violations)
    )
