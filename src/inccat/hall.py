"""The Ringel-Hall algebra of an incidence category.

Elements are finitely supported rational-valued functions on iso-classes,
spanned by the delta functions delta_[X_P].  The product is convolution
over subobjects, which the ideal calculus turns into

    (f * g)([X_P]) = sum over ideals I of J_P of f([X_I]) g([X_{P \\ I}]),

and the coproduct is dual to the monoidal sum:

    Delta(f)([M], [N]) = f([M (+) N]).

Everything is exact: coefficients are ``fractions.Fraction``, and only
ints and Fractions are accepted as coefficients or scalars.  The algebra
is graded by poset size and connected in degree zero, so the counit is
evaluation at the empty class and the antipode is the standard graded
recursion over the reduced coproduct.  A family context supplies the
classes of each degree; ``split_index`` inverts their ideal splits into
an index from (sub, quotient) class pairs to the classes they assemble,
read by ``product``, ``K0Presentation`` and ``inccat constants``.
Computations beyond the context's cutoff raise ``TruncationError``.

Disjoint unions are handled at the level of canonical keys: the key of
P (+) Q is the sorted component keys of P and Q
(``posets.union_key``).  So the coproduct walks the sub-multisets of a
class's components, and the split table of a disconnected class is the
convolution of its components' tables, since the ideals of P (+) Q are
the pairs of ideals of P and Q.  A connected class walks its ideals and
looks up both sides of all of them in one ``posets.split_keys`` call,
which builds a subposet only when its key has not been computed yet.
A class at the cutoff is walked once and is a component of no other
class, so its ideals come from ``ideals.ideal_masks`` and its lattice is
not stored.  The split tables count
pairs of side keys, not classes, so no class is hashed per ideal;
``split_index`` turns each distinct key pair into classes once, and
that is where every side is checked to be a member of the family.  The
poset-building routes stay as test oracles, and ``structure_constant``
stays an independent check by explicit isomorphism search.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from fractions import Fraction
from typing import Sequence

from . import linalg
from .errors import CoefficientError, FamilyError, IncCatError, TruncationError, VectorError
from .families import FamilyContext, IsoClass
from .ideals import ideal_masks, order_ideals
from .posets import (
    _union_of_sorted,
    component_keys,
    find_isomorphisms,
    induced_subposet,
    is_connected,
    split_keys,
    union_key,
)

Scalar = int | Fraction

# The coefficient of every key outside a support; a Fraction is immutable.
ZERO = Fraction(0)


class Combination:
    """A finitely supported map from keys to exact rationals.

    Base class for Hall elements, incidence-side elements and tensors;
    zero coefficients are never stored, and arithmetic returns new values
    of the same concrete type.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict | None = None):
        clean = {}
        for key, value in (coeffs or {}).items():
            if type(value) is not Fraction:
                value = Fraction(_exact(value))
            if value:
                clean[key] = value
        self.coeffs: dict = clean

    @classmethod
    def zero(cls):
        return cls()

    def coeff(self, key) -> Fraction:
        return self.coeffs.get(key, ZERO)

    def support(self) -> set:
        return set(self.coeffs)

    def items(self):
        return self.coeffs.items()

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Combination):
            return NotImplemented
        return type(self) is type(other) and self.coeffs == other.coeffs

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        out = dict(self.coeffs)
        for key, value in other.coeffs.items():
            out[key] = out.get(key, Fraction(0)) + value
        return type(self)(out)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        out = dict(self.coeffs)
        for key, value in other.coeffs.items():
            out[key] = out.get(key, Fraction(0)) - value
        return type(self)(out)

    def __neg__(self):
        return type(self)({key: -value for key, value in self.coeffs.items()})

    def __mul__(self, scalar: Scalar):
        scalar = _exact(scalar)
        return type(self)({key: value * scalar for key, value in self.coeffs.items()})

    __rmul__ = __mul__

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self.coeffs:
            return "0"
        return " + ".join(f"{v}*{k!r}" for k, v in self.coeffs.items())


def _exact(value: object) -> Scalar:
    """The value itself if it is an int or a Fraction; anything else raises.

    A float or a string would be converted silently (0.1 becomes
    3602879701896397/36028797018963968), so they are refused; so is a
    bool, which is an int only by inheritance.
    """
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return value
    raise CoefficientError(
        f"coefficients and scalars must be int or Fraction, got {type(value).__name__} {value!r}"
    )


class HallElement(Combination):
    """An element of the Hall algebra: IsoClass -> Q, finite support."""

    def degrees(self) -> set[int]:
        return {cls.size for cls in self.coeffs}

    def top_degree(self) -> int:
        return max(self.degrees(), default=0)


class TensorElement(Combination):
    """An element of the two-fold tensor square, keyed by class pairs."""

    def flip(self) -> "TensorElement":
        return TensorElement({(b, a): v for (a, b), v in self.coeffs.items()})


def delta(cls: IsoClass) -> HallElement:
    """The indicator of one isomorphism class, with coefficient 1."""
    return HallElement({cls: Fraction(1)})


def unit(ctx: FamilyContext) -> HallElement:
    return delta(ctx.empty_class)


def split_index(ctx: FamilyContext, total: int) -> dict:
    """(class of X_I, class of X_{R\\I}) -> ((R, number of such I), ...).

    Inverts the ideal splits of every class R of size ``total`` (see
    :func:`_split_counts`), so the entry for (P, Q) lists each R with
    N(P,Q;R) > 0: a product visits only the classes its factors can
    reach.  The inversion runs on the side keys; each distinct pair of
    them is turned into classes once at the end, which is where every
    side is checked to be a member (:func:`_class_of_key`).  Computed
    once per degree and context.
    """
    table = ctx.memo["splits"]
    hit = table.get(total)
    if hit is not None:
        return hit
    index: dict[tuple[bytes, bytes], list] = {}
    for r_cls in ctx.classes(total):
        for pair, n in _split_counts(ctx, r_cls).items():
            index.setdefault(pair, []).append((r_cls, n))
    result = {
        (_class_of_key(ctx, p_key), _class_of_key(ctx, q_key)): tuple(entries)
        for (p_key, q_key), entries in index.items()
    }
    table[total] = result
    return result


def _split_counts(ctx: FamilyContext, r_cls: IsoClass) -> dict:
    """(key of X_I, key of X_{R\\I}) -> number of ideals I of R.

    A connected R walks its ideals.  The ideals of a disjoint union are
    the tuples of ideals of its components, and X_I is the disjoint union
    of the components' pieces, so a disconnected R convolves the tables
    of its components, joining component keys on each side.  Only the
    tables of connected classes below the cutoff are kept (in
    ``ctx.memo["component_splits"]``, under the class's key): those are
    the classes that can be components of a class of the context.  The
    side keys are not checked here; :func:`split_index` checks them.
    """
    table = ctx.memo["component_splits"]
    hit = table.get(r_cls.key)
    if hit is not None:
        return hit
    parts = component_keys(r_cls.key)
    if len(parts) > 1:
        return _convolved_splits(ctx, parts)
    counts = _ideal_splits(ctx, r_cls)
    if parts and r_cls.size < ctx.max_size:
        table[r_cls.key] = counts
    return counts


def _ideal_splits(ctx: FamilyContext, r_cls: IsoClass) -> dict:
    """The split table of R by its ideals, each side the key of its subposet.

    A class at the cutoff is walked once, as a component of no other
    class (see :func:`_split_counts`), so its ideals are enumerated
    unsorted and its lattice is not stored; a smaller class reads its
    lattice, which generation has already stored.
    """
    rep = r_cls.representative
    masks = ideal_masks(rep) if r_cls.size == ctx.max_size else order_ideals(rep).ideals
    return Counter(split_keys(rep, masks, ctx.mode))


def _convolved_splits(ctx: FamilyContext, parts: tuple[bytes, ...]) -> dict:
    """The split table of the disjoint union of the connected classes ``parts``.

    Sides are sorted tuples of component keys while the convolution runs,
    so equal pieces merge, and each is joined into one key at the end
    without sorting it again.
    """
    acc: dict[tuple[tuple[bytes, ...], tuple[bytes, ...]], int] = {((), ()): 1}
    for part, m in Counter(parts).items():
        pieces = [
            (component_keys(p_key), component_keys(q_key), n)
            for (p_key, q_key), n in _split_counts(ctx, _class_of_key(ctx, part)).items()
        ]
        for _ in range(m):
            step: dict[tuple[tuple[bytes, ...], tuple[bytes, ...]], int] = {}
            for (left, right), a in acc.items():
                for p_parts, q_parts, n in pieces:
                    pair = (tuple(sorted(left + p_parts)), tuple(sorted(right + q_parts)))
                    step[pair] = step.get(pair, 0) + a * n
            acc = step
    return {
        (_union_of_sorted(left), _union_of_sorted(right)): n for (left, right), n in acc.items()
    }


def _class_of_key(ctx: FamilyContext, key: bytes) -> IsoClass:
    """The class with canonical key ``key``; a piece of a member must be one."""
    cls = ctx._by_key.get(key)
    if cls is None:
        raise FamilyError(f"a convex piece of a class is not a member of family {ctx.name!r}")
    return cls


def product(f: HallElement, g: HallElement, ctx: FamilyContext) -> HallElement:
    """Convolution product, read off the split index of each target degree.

    The coefficient of delta_R is the sum over ideals I of R's
    representative of f([X_I]) g([X_{R \\ I}]); grouping the ideals by the
    classes of X_I and X_{R \\ I}, each pair of terms x delta_P of f and
    y delta_Q of g adds x y N(P,Q;R) to every R the index lists for (P, Q).
    """
    indexes = {}
    for total in sorted({p.size + q.size for p in f.coeffs for q in g.coeffs}):
        indexes[total] = split_index(ctx, total)
    out: dict[IsoClass, Fraction] = {}
    for p_cls, x in f.coeffs.items():
        for q_cls, y in g.coeffs.items():
            for r_cls, n in indexes[p_cls.size + q_cls.size].get((p_cls, q_cls), ()):
                out[r_cls] = out.get(r_cls, 0) + x * y * n
    return HallElement(out)


def structure_constant(p_cls: IsoClass, q_cls: IsoClass, r_cls: IsoClass) -> int:
    """N(P,Q;R): ideals I of R with I isomorphic to P and R \\ I to Q.

    Deliberately routed through explicit isomorphism search on the
    representatives rather than canonical keys, so it cross-checks the
    convolution product through an independent mechanism.
    """
    if p_cls.mode is not q_cls.mode or p_cls.mode is not r_cls.mode:
        raise IncCatError("structure constants need classes from one map mode")
    if p_cls.size + q_cls.size != r_cls.size:
        return 0
    mode = r_cls.mode
    rep = r_cls.representative
    count = 0
    for ideal in order_ideals(rep).ideals:
        if ideal.bit_count() != p_cls.size:
            continue
        sub, _ = induced_subposet(rep, ideal)
        if not find_isomorphisms(sub, p_cls.representative, mode):
            continue
        rest, _ = induced_subposet(rep, rep.full_mask & ~ideal)
        if find_isomorphisms(rest, q_cls.representative, mode):
            count += 1
    return count


def coproduct(f: HallElement, ctx: FamilyContext) -> TensorElement:
    """Delta(f)([M],[N]) = f([M (+) N]).

    Per support class, the pairs with a nonzero coefficient are exactly
    the ways to split its multiset of connected components in two: with
    distinct component keys of multiplicities m_1..m_r, the sub-multisets
    give prod (m_i + 1) distinct pairs, each side one key join and one
    lookup.  Each pair receives the value of f on the support class (not a
    multiplicity count -- the coefficient is an evaluation).
    """
    out: dict[tuple[IsoClass, IsoClass], Fraction] = {}
    for cls, value in f.items():
        counts = Counter(component_keys(cls.key))
        parts, mults = list(counts), list(counts.values())
        for pick in itertools.product(*(range(m + 1) for m in mults)):
            left = [part for part, a in zip(parts, pick) for _ in range(a)]
            right = [part for part, a, m in zip(parts, pick, mults) for _ in range(m - a)]
            # a pair of classes determines the reassembled union up to
            # isomorphism, so this never collides across support classes
            out[(_class_of_key(ctx, union_key(left)), _class_of_key(ctx, union_key(right)))] = value
    return TensorElement(out)


def reduced_coproduct(f: HallElement, ctx: FamilyContext) -> TensorElement:
    """Coproduct minus the two primitive terms f (x) 1 and 1 (x) f."""
    full = coproduct(f, ctx)
    trimmed = {
        pair: value
        for pair, value in full.items()
        if pair[0].size > 0 and pair[1].size > 0
    }
    return TensorElement(trimmed)


def counit(f: HallElement) -> Fraction:
    """Evaluation at the empty class (degree-zero component)."""
    return sum((v for cls, v in f.items() if cls.size == 0), Fraction(0))


def lie_bracket(f: HallElement, g: HallElement, ctx: FamilyContext) -> HallElement:
    return product(f, g, ctx) - product(g, f, ctx)


def is_primitive(f: HallElement, ctx: FamilyContext) -> bool:
    """Delta(f) = f (x) 1 + 1 (x) f."""
    e = ctx.empty_class
    expected = TensorElement(
        {(cls, e): v for cls, v in f.items()}
    ) + TensorElement({(e, cls): v for cls, v in f.items()})
    return coproduct(f, ctx) == expected


def antipode(f: HallElement, ctx: FamilyContext) -> HallElement:
    """The antipode, by the graded-connected recursion.

    S fixes the empty class; on a positive-degree class, with reduced
    coproduct sum of x' (x) x'',

        S(x) = -x - sum S(x') * x''.

    Extended linearly; memoized per family context and class.  Terms
    accumulate in one dict, so the running sum is never copied.
    """
    out: dict[IsoClass, Fraction] = {}
    for cls, value in f.items():
        for r_cls, v in _antipode_class(ctx, cls).items():
            out[r_cls] = out.get(r_cls, 0) + value * v
    return HallElement(out)


def _antipode_class(ctx: FamilyContext, cls: IsoClass) -> HallElement:
    if cls.size == 0:
        return delta(cls)
    table = ctx.memo["antipode"]
    hit = table.get(cls.key)
    if hit is not None:
        return hit
    out: dict[IsoClass, Fraction] = {cls: Fraction(-1)}
    for (left, right), value in reduced_coproduct(delta(cls), ctx).items():
        for r_cls, v in product(_antipode_class(ctx, left), delta(right), ctx).items():
            out[r_cls] = out.get(r_cls, 0) - value * v
    result = HallElement(out)
    table[cls.key] = result
    return result


def tensor_product(t1: TensorElement, t2: TensorElement, ctx: FamilyContext) -> TensorElement:
    """Componentwise product on the tensor square.

    (a (x) b)(c (x) d) = (a*c) (x) (b*d), extended bilinearly; used by the
    bialgebra compatibility check Delta(f*g) = Delta(f) Delta(g).
    """
    out: dict[tuple[IsoClass, IsoClass], Fraction] = {}
    for (a, b), x in t1.items():
        for (c, d), y in t2.items():
            left = product(delta(a), delta(c), ctx)
            right = product(delta(b), delta(d), ctx)
            for lc, lv in left.items():
                for rc, rv in right.items():
                    out[(lc, rc)] = out.get((lc, rc), Fraction(0)) + x * y * lv * rv
    return TensorElement(out)


def primitive_basis(ctx: FamilyContext, degree: int) -> list[HallElement]:
    """A basis of the degree-d primitives: the connected-class deltas.

    Verified rather than assumed: each connected delta is checked
    primitive, and exact linear algebra on the reduced coproduct matrix
    confirms the kernel has no room for anything else.  The matrix goes to
    ``linalg`` transposed, a sparse row per class, which has the same rank.
    """
    if degree == 0:
        return []
    classes = list(ctx.classes(degree))
    pair_index: dict[tuple[IsoClass, IsoClass], int] = {}
    columns = [
        tuple(
            (pair_index.setdefault(pair, len(pair_index)), int(value))
            for pair, value in reduced_coproduct(delta(cls), ctx).items()
        )
        for cls in classes
    ]
    kernel_dim = len(classes) - linalg.rank_over_q(columns)

    connected = [cls for cls in classes if is_connected(cls.representative)]
    for cls in connected:
        if not is_primitive(delta(cls), ctx):
            raise IncCatError(f"connected class {cls.hex_key} is unexpectedly not primitive")
    if kernel_dim != len(connected):
        raise IncCatError(
            f"primitive space in degree {degree} has dimension {kernel_dim}, "
            f"but there are {len(connected)} connected classes"
        )
    return [delta(cls) for cls in connected]


class K0Presentation:
    """A truncated presentation of the Grothendieck group.

    Generators are all iso-classes up to the cutoff; one relation
    [X_I] + [X_{P \\ I}] - [X_P] per ideal I of each representative, read
    off ``split_index`` (the degenerate ideals pin the empty class to zero);
    ``category.ses-classification`` verifies that these ideals match the
    short exact sequences one to one.  They are kept as the index's counted
    splits (sub, rest, whole) -> n, and ``relations`` builds rows on demand.

    The relation lattice is the kernel of the color-count map chi, which
    sends a generator to its ``IsoClass.color_vector``.  The certificate,
    checked at construction:

    1. A minimal element m of P is an order ideal, so the split
       [X_P] = [X_m] + [X_{P \\ m}] is a relation: every generator of size
       >= 2 has a relation whose sub is a single point.
    2. By induction on size, each generator is congruent to its color
       vector times the point classes, and the empty class to zero.
    3. Every relation lies in ker chi, since I and P \\ I split the
       elements of P color by color.
    4. chi sends the point classes to distinct unit vectors, so the
       quotient is free on the point classes and the relations span
       exactly ker chi.

    So ``relations_contain`` reads chi alone.  The Smith normal form is
    computed from the certificate's own rows (:func:`_smith_by_pivots`):
    the first point split of each generator of size >= 2, and the row
    [X_empty], are unit pivots on a triangular block, and every counted
    split is reduced over the remaining columns.  When the
    certificate holds, nothing is left, so ``linalg.smith_diagonal`` runs
    on an empty residual and sympy is never imported; when it does not,
    the residual gives the exact invariant factors.  The free rank must
    come out as the number of point classes, with no torsion; a missing
    certificate row or any other Smith form raises ``IncCatError``.

    ``linalg.smith_diagonal`` on all of ``relations`` is the oracle for
    this Smith form: ``tests/test_linalg.py`` compares the two on every
    family at cutoffs 0-4, and the CI compares them on fin up to 7.
    """

    def __init__(self, ctx: FamilyContext, cutoff: int):
        if cutoff < 0:
            raise FamilyError(f"cutoff must be nonnegative, got {cutoff}")
        self.family = ctx.name
        self.cutoff = cutoff
        self.generators: tuple[IsoClass, ...] = tuple(
            cls for size in range(cutoff + 1) for cls in ctx.classes(size)
        )
        index = {cls.key: i for i, cls in enumerate(self.generators)}
        splits: dict[tuple[int, int, int], int] = {}
        # Generator index of each class of size >= 2 -> (point, rest) of
        # its first split off a single point.
        point_splits: dict[int, tuple[int, int]] = {}
        for total in range(cutoff + 1):
            for (p_cls, q_cls), entries in split_index(ctx, total).items():
                p, q = index[p_cls.key], index[q_cls.key]
                for r_cls, n in entries:
                    r = index[r_cls.key]
                    splits[p, q, r] = n
                    if p_cls.size == 1 and r_cls.size >= 2:
                        point_splits.setdefault(r, (p, q))
        self._splits = splits
        self.relation_count: int = sum(splits.values())
        self._index = index
        for i, cls in enumerate(self.generators):
            if cls.size >= 2 and i not in point_splits:
                raise IncCatError(
                    f"class {cls.hex_key} of family {ctx.name!r} has no relation "
                    "splitting off a single point"
                )
        self.smith_diagonal: tuple[int, ...] = _smith_by_pivots(
            len(self.generators), point_splits, splits
        )
        points = sum(cls.size == 1 for cls in self.generators)
        if self.free_rank != points or self.torsion:
            raise IncCatError(
                f"K0 of family {ctx.name!r} at cutoff {cutoff} has free rank {self.free_rank} "
                f"and torsion {list(self.torsion)}; the color counts give free rank {points}"
            )
        # One tuple per color: its count in each generator.
        self._color_counts = tuple(zip(*(cls.color_vector for cls in self.generators)))

    @property
    def relations(self) -> tuple[linalg.Entries, ...]:
        """n rows [sub] + [rest] - [whole], sparse and sorted, per split counted n times."""
        rows: list[linalg.Entries] = []
        for (sub, rest, whole), n in self._splits.items():
            row = Counter((sub, rest))
            row[whole] -= 1
            rows.extend([tuple(sorted((j, a) for j, a in row.items() if a))] * n)
        return tuple(rows)

    @property
    def free_rank(self) -> int:
        return len(self.generators) - len(self.smith_diagonal)

    @property
    def torsion(self) -> tuple[int, ...]:
        return tuple(d for d in self.smith_diagonal if d > 1)

    def class_vector(self, cls: IsoClass) -> list[int]:
        i = self._index.get(cls.key)
        if i is None:
            if cls.size > self.cutoff:
                raise TruncationError(
                    f"class {cls.hex_key} has size {cls.size}, the presentation stops at "
                    f"cutoff {self.cutoff}"
                )
            raise FamilyError(f"class {cls.hex_key} is not a generator of family {self.family!r}")
        vec = [0] * len(self.generators)
        vec[i] = 1
        return vec

    def relations_contain(self, vector: Sequence[int]) -> bool:
        """Does the vector vanish in the truncated K0?

        The relations span the kernel of the color-count map (see the
        class docstring), so the vector vanishes exactly when each color
        counts to zero over it.
        """
        if len(vector) != len(self.generators):
            raise VectorError(
                f"vector has {len(vector)} entries, the presentation has "
                f"{len(self.generators)} generators"
            )
        if not all(isinstance(a, int) and not isinstance(a, bool) for a in vector):
            raise VectorError("vector entries must be ints")
        return not any(sum(map(operator.mul, vector, counts)) for counts in self._color_counts)


def _smith_by_pivots(
    width: int, point_splits: dict[int, tuple[int, int]], splits: dict[tuple[int, int, int], int]
) -> tuple[int, ...]:
    """Nonzero invariant factors of the rows of ``splits``, pivoting on the certificate.

    Column 0 is the empty class, and every column of ``point_splits``
    (a class P of size >= 2) has the pivot row [pt] + [P \\ pt] - [P],
    whose entry at P is -1 and whose other columns are smaller classes;
    the split (empty, empty) -> empty, if present, pivots at column 0.
    That block is unit triangular, so eliminating it contributes one factor
    1 per pivot, and the Schur complement is each (distinct) split reduced
    over the free columns to red(sub) + red(rest) - red(whole): a pivot
    column P stands for red(P) = red(pt) + red(P \\ pt), computed in
    increasing index (so increasing size), the empty class for nothing, and
    each free column for its own unit vector.  A pivot row reduces to zero,
    and so does every split when the certificate holds; what is left goes
    to ``linalg.smith_diagonal``.
    """
    empty_pivot = (0, 0, 0) in splits
    red: list[dict[int, int]] = []
    for j in range(width):
        split = point_splits.get(j)
        if split is None:
            red.append({} if j == 0 and empty_pivot else {j: 1})
            continue
        point, rest = split
        vec = dict(red[point])
        for c, a in red[rest].items():
            vec[c] = vec.get(c, 0) + a
        red.append(vec)
    residual = []
    for sub, rest, whole in splits:
        vec = {}
        for j, a in ((sub, 1), (rest, 1), (whole, -1)):
            for c, v in red[j].items():
                vec[c] = vec.get(c, 0) + a * v
        reduced = [(c, v) for c, v in vec.items() if v]
        if reduced:
            residual.append(tuple(sorted(reduced)))
    pivots = len(point_splits) + empty_pivot
    return (1,) * pivots + linalg.smith_diagonal(residual)


def k0_truncated(ctx: FamilyContext, cutoff: int) -> K0Presentation:
    """Generators, ideal-split relations and Smith normal form at the cutoff."""
    return K0Presentation(ctx, cutoff)
