"""Executable verification suites for the category and Hopf axioms.

Each suite returns a list of :class:`CheckResult`; the CLI ``verify``
subcommand renders them and exits nonzero if anything failed, attaching a
minimal counterexample (posets/morphisms as JSON documents) when one
exists.  The suites are exhaustive over the stated size bounds, never
sampled, with one exception: the Hopf-relation checks draw seeded random
relabelings.

The unit, associativity, cancellation and universal checks read one
composition table per family context and size bound
(:class:`_HomTables`), kept in ``ctx.memo["hom_tables"]`` under that
bound.  It is built on first use for exactly its bound and read whole.
Objects are numbered, and every morphism into each object c is interned
under the flat key (source index, I1, I2, fmap).  For every morphism
g: b -> c the row ``f -> g o f`` over the morphisms f into b is built on
those keys: one pass over f's (domain element, image) pairs gives K1, h
and K3 (:func:`_composite_key`), and the composite's key is looked up
among the morphisms into c.  Rows are tuples of ints indexed by
(target, interned index), so no check hashes a morphism.
:func:`category_suite` is the list of the public checks.

No composite goes unvalidated although none is built as a
:class:`category.Morphism`: every interned key comes from ``hom_set``, which
validates each of its morphisms in full.  A composite whose key is found
is therefore a valid morphism a -> c.  A key that is not found means an
invalid composite, or a hom set that misses a morphism; every table
check then fails with the pair (f, g) as its counterexample.

The kernel and cokernel universal properties count factorizations.  The
vanishing of ``m o u`` (resp. ``u o m``) is read from the table.  ker(m)
depends only on the source and I1 (coker(m) only on the target and I2),
so for each object, kernel ideal and test object t the composites
``ker(m) o v`` (resp. ``v o coker(m)``) over all v are computed once on
the same keys and tallied by their index in the table; the number of
factorizations of each u is then a lookup in that tally.  Such a
composite whose key is not found is a failure too.

The short-exact-sequence check runs one size above the table and needs
only the monos into and the epis out of each middle object.  It reads
them from :func:`category.monos` and :func:`category.epis`, which
enumerate only the fixed ideal (I1 empty, resp. I2 the whole target)
and return exactly the filtered hom set, in the same order, so no full
hom set of an object above the table bound is built.
"""

from __future__ import annotations

import random
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter, ne
from typing import Any

from . import jsonio
from .category import (
    CategoryObject,
    Morphism,
    cokernel,
    epis,
    hom_set,
    identity,
    is_epi,
    is_mono,
    kernel,
    monos,
    short_exact_sequences,
)
from .families import FamilyContext, verify_closure
from .hall import (
    HallElement,
    TensorElement,
    antipode,
    coproduct,
    counit,
    delta,
    is_primitive,
    lie_bracket,
    primitive_basis,
    product,
    structure_constant,
    tensor_product,
    unit,
)
from .incidence import (
    convolve,
    ideal_form_row,
    phi,
    schmitt_antipode,
    schmitt_coproduct,
    schmitt_counit,
    schmitt_product,
    schmitt_product_element,
    schmitt_unit,
    verify_hopf_relation,
)
from .ideals import is_order_ideal, order_ideals
from .posets import (
    MapMode,
    automorphisms,
    canonical_form,
    find_isomorphisms,
    induced_subposet,
    is_connected,
    relabel_by,
    split_keys,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    details: str = ""
    counterexample: Any = None

    def line(self) -> str:
        status = "ok" if self.passed else "FAIL"
        suffix = f" ({self.details})" if self.details else ""
        return f"{status:4} {self.name}{suffix}"


def _result(name: str, failures: list, checked: int, detail: str = "") -> CheckResult:
    if failures:
        return CheckResult(name, False, f"{len(failures)} failure(s)", failures[0])
    info = f"{checked} checked" + (f", {detail}" if detail else "")
    return CheckResult(name, True, info)


# ---------------------------------------------------------------------------
# category suite


@dataclass
class _HomTables:
    """Interned morphisms into each object plus full composition rows.

    ``objects`` are those of one size bound, and every check reads the
    table whole.  Objects are named by their index in ``objects``.  ``into[c]`` lists
    the morphisms into object c source by source: ``blocks[c][a]`` is the
    slice holding ``hom_set(objects[a], objects[c])``.  ``intern[c]`` maps
    the key (source index, I1, I2, fmap) of each to its index in
    ``into[c]``.  ``rows[c][j]`` is the row of g = into[c][j]: b -> c; its
    i-th entry is the index in ``into[c]`` of g o into[b][i], or -1 when
    the key of that composite is not interned.  ``unmatched`` holds a
    failure per such pair, with f and g as its counterexample.
    """

    objects: list[CategoryObject]
    mode: MapMode
    into: list[list[Morphism]] = field(default_factory=list)
    blocks: list[list[tuple[int, int]]] = field(default_factory=list)
    intern: list[dict[tuple, int]] = field(default_factory=list)
    rows: list[list[tuple[int, ...]]] = field(default_factory=list)
    unmatched: list[dict[str, Any]] = field(default_factory=list)

    def build(self) -> None:
        arrows: list[list[tuple]] = []
        for target in self.objects:
            incoming: list[Morphism] = []
            into_arrows = []
            blocks = []
            for a, source in enumerate(self.objects):
                start = len(incoming)
                incoming.extend(hom_set(source, target, self.mode))
                into_arrows.extend(_arrow(m, a) for m in incoming[start:])
                blocks.append((start, len(incoming)))
            self.into.append(incoming)
            self.blocks.append(blocks)
            self.intern.append({key: j for j, (key, _, _) in enumerate(into_arrows)})
            arrows.append(into_arrows)
        for c, into_c in enumerate(arrows):
            intern_c = self.intern[c]
            rows_c = []
            for j, g in enumerate(into_c):
                b = g[0][0]
                row = tuple([intern_c.get(_composite_key(g, f), -1) for f in arrows[b]])
                if -1 in row:
                    g_doc = jsonio.morphism_to_doc(self.into[c][j])
                    self.unmatched.extend(
                        {"f": jsonio.morphism_to_doc(self.into[b][i]), "g": g_doc}
                        for i, k in enumerate(row)
                        if k < 0
                    )
                rows_c.append(row)
            self.rows.append(rows_c)


def _arrow(m: Morphism, source: int) -> tuple:
    """m as (key, domain bits, positions), for composing at the key level.

    The key (source, I1, I2, fmap) interns m, where ``source`` is the
    index of m's source object in the table (-1 outside it).  The domain
    bits are ``1 << x`` for x in P1 \\ I1 ascending, parallel to fmap;
    ``positions[y]`` is m(y), or -1 for y in I1.
    """
    domain = m.domain_elements
    positions = [-1] * m.source.size
    for x, y in zip(domain, m.fmap):
        positions[x] = y
    return (source, m.i1, m.i2, m.fmap), tuple([1 << x for x in domain]), positions


def _composite_key(g: tuple, f: tuple) -> tuple:
    """The key of g o f, for the arrows of f: a -> b and g: b -> c.

    One pass over f's (domain element, image) pairs: x joins K1 when f(x)
    lies in g's kernel ideal, and otherwise maps to g(f(x)); these images,
    in order, are h, and they make up K3.  Nothing is validated here: the
    table looks the key up among the validated morphisms into c.
    """
    positions = g[2]
    (source, k1, _, fmap), domain_bits, _ = f
    k3 = 0
    hmap = []
    for x_bit, y in zip(domain_bits, fmap):
        z = positions[y]
        if z < 0:
            k1 |= x_bit
        else:
            k3 |= 1 << z
            hmap.append(z)
    return source, k1, k3, tuple(hmap)


def _tally(
    pairs: Iterable[tuple[Morphism, Morphism, int]], intern: dict[tuple, int], failures: list
) -> Counter:
    """Count the composites g o f over ``(g, f, f's source index)`` by index in ``intern``.

    A composite whose key is not interned is a failure, with the pair as
    its counterexample.
    """
    counts: Counter = Counter()
    for g, f, source in pairs:
        i = intern.get(_composite_key(_arrow(g, -1), _arrow(f, source)))
        if i is None:
            failures.append({"f": jsonio.morphism_to_doc(f), "g": jsonio.morphism_to_doc(g)})
        else:
            counts[i] += 1
    return counts


def _objects_of(ctx: FamilyContext, max_size: int) -> list[CategoryObject]:
    return [
        CategoryObject(cls.representative)
        for size in range(max_size + 1)
        for cls in ctx.classes(size)
    ]


def _hom_tables(ctx: FamilyContext, max_size: int) -> _HomTables:
    """The context's table for exactly ``max_size``, built on first use."""
    table = ctx.memo["hom_tables"]
    tables = table.get(max_size)
    if tables is None:
        tables = _HomTables(_objects_of(ctx, max_size), ctx.mode)
        tables.build()
        table[max_size] = tables
    return tables


def check_unit_laws(ctx: FamilyContext, max_size: int) -> CheckResult:
    """id_b o m = m = m o id_a over all hom-sets, read from the table."""
    name = f"category.unit-laws[n<={max_size}]"
    tables = _hom_tables(ctx, max_size)
    n = len(tables.objects)
    ids = [identity(x, ctx.mode) for x in tables.objects]
    identities = [tables.intern[a].get(_arrow(m, a)[0]) for a, m in enumerate(ids)]
    failures = list(tables.unmatched)
    failures += [jsonio.morphism_to_doc(m) for m, i in zip(ids, identities) if i is None]
    if failures:
        return _result(name, failures, 0)
    checked = 0
    for a, id_a in enumerate(identities):
        for b in range(n):
            rows_b = tables.rows[b]
            row_idb = rows_b[identities[b]]
            lo, hi = tables.blocks[b][a]
            for i in range(lo, hi):
                checked += 1
                if row_idb[i] != i or rows_b[i][id_a] != i:
                    failures.append(jsonio.morphism_to_doc(tables.into[b][i]))
    return _result(name, failures, checked)


def _gather(indices: tuple[int, ...]):
    """``row -> tuple(row[i] for i in indices)``; one ``itemgetter`` when it can.

    ``itemgetter`` with a single index returns the item, not a 1-tuple.
    """
    if len(indices) > 1:
        return itemgetter(*indices)
    return lambda row: tuple(row[i] for i in indices)


def check_associativity(ctx: FamilyContext, max_size: int) -> CheckResult:
    """(h o g) o f = h o (g o f) over every composable triple.

    For g: b -> c, row_g becomes one ``itemgetter`` that gathers row_h at
    every f into b, so a triple is ``row_h[row_g[f]] == row_{h o g}[f]``,
    two table lookups.  ``map`` compares the whole block of h: c -> d for
    g at once; only a block that disagrees is walked again to name each
    failing triple.
    """
    name = f"category.associativity[n<={max_size}]"
    tables = _hom_tables(ctx, max_size)
    n = len(tables.objects)
    failures = list(tables.unmatched)
    if failures:
        return _result(name, failures, 0)
    # the nonempty blocks of h: c -> d, per c
    h_blocks: list[list[tuple]] = [[] for _ in range(n)]
    for d in range(n):
        rows_d = tables.rows[d]
        for c, (lo, hi) in enumerate(tables.blocks[d]):
            if hi > lo:
                h_blocks[c].append((d, rows_d, lo, rows_d[lo:hi]))
    triples = 0
    for b in range(n):
        width = len(tables.into[b])
        for c in range(n):
            for g_id in range(*tables.blocks[c][b]):
                via = _gather(tables.rows[c][g_id])
                at_g = itemgetter(g_id)
                for d, rows_d, lo, rows_h in h_blocks[c]:
                    triples += width * len(rows_h)
                    rows_hg = map(rows_d.__getitem__, map(at_g, rows_h))
                    if not any(map(ne, map(via, rows_h), rows_hg)):
                        continue
                    for h_id, row_h in enumerate(rows_h, lo):
                        via_g = via(row_h)
                        row_hg = rows_d[row_h[g_id]]
                        if via_g != row_hg:
                            bad = next(
                                i for i, (x, y) in enumerate(zip(via_g, row_hg)) if x != y
                            )
                            failures.append(
                                {
                                    "f": jsonio.morphism_to_doc(tables.into[b][bad]),
                                    "g": jsonio.morphism_to_doc(tables.into[c][g_id]),
                                    "h": jsonio.morphism_to_doc(tables.into[d][h_id]),
                                }
                            )
    return _result(name, failures, triples, "triples")


def check_kernel_universal(ctx: FamilyContext, max_size: int) -> CheckResult:
    """Every u with m o u = 0 factors uniquely through ker(m)."""
    name = f"category.kernel-universal[n<={max_size}]"
    tables = _hom_tables(ctx, max_size)
    n = len(tables.objects)
    failures = list(tables.unmatched)
    if failures:
        return _result(name, failures, 0)
    objects = tables.objects
    mode = tables.mode
    checked = 0
    for a in range(n):
        into_a = tables.into[a]
        blocks_a = tables.blocks[a]
        tallies: dict[tuple[int, int], Counter] = {}
        for b in range(n):
            into_b = tables.into[b]
            rows_b = tables.rows[b]
            m_lo, m_hi = tables.blocks[b][a]
            for m_id in range(m_lo, m_hi):
                m = into_b[m_id]
                row_m = rows_b[m_id]
                for k in range(n):
                    through_ker = tallies.get((m.i1, k))
                    if through_ker is None:
                        ker = kernel(m)
                        vs = hom_set(objects[k], ker.source, mode)
                        through_ker = _tally(((ker, v, k) for v in vs), tables.intern[a], failures)
                        tallies[(m.i1, k)] = through_ker
                    lo, hi = blocks_a[k]
                    for i in range(lo, hi):
                        checked += 1
                        vanishes = into_b[row_m[i]].is_zero
                        factorizations = through_ker[i]
                        if factorizations != (1 if vanishes else 0):
                            failures.append(
                                {
                                    "m": jsonio.morphism_to_doc(m),
                                    "u": jsonio.morphism_to_doc(into_a[i]),
                                    "factorizations": factorizations,
                                }
                            )
    return _result(name, failures, checked)


def check_cokernel_universal(ctx: FamilyContext, max_size: int) -> CheckResult:
    """Every u with u o m = 0 factors uniquely through coker(m)."""
    name = f"category.cokernel-universal[n<={max_size}]"
    tables = _hom_tables(ctx, max_size)
    n = len(tables.objects)
    failures = list(tables.unmatched)
    if failures:
        return _result(name, failures, 0)
    objects = tables.objects
    mode = tables.mode
    tallies: dict[tuple[int, int, int], Counter] = {}
    checked = 0
    for a in range(n):
        for b in range(n):
            into_b = tables.into[b]
            m_lo, m_hi = tables.blocks[b][a]
            for m_id in range(m_lo, m_hi):
                m = into_b[m_id]
                for k in range(n):
                    into_t = tables.into[k]
                    rows_t = tables.rows[k]
                    through_cok = tallies.get((b, m.i2, k))
                    if through_cok is None:
                        cok = cokernel(m)
                        vs = hom_set(cok.target, objects[k], mode)
                        through_cok = _tally(((v, cok, b) for v in vs), tables.intern[k], failures)
                        tallies[(b, m.i2, k)] = through_cok
                    lo, hi = tables.blocks[k][b]
                    for i in range(lo, hi):
                        checked += 1
                        vanishes = into_t[rows_t[i][m_id]].is_zero
                        factorizations = through_cok[i]
                        if factorizations != (1 if vanishes else 0):
                            failures.append(
                                {
                                    "m": jsonio.morphism_to_doc(m),
                                    "u": jsonio.morphism_to_doc(into_t[i]),
                                    "factorizations": factorizations,
                                }
                            )
    return _result(name, failures, checked)


def check_mono_epi_cancellation(ctx: FamilyContext, max_size: int) -> CheckResult:
    """is_mono/is_epi agree with left/right cancellability."""
    name = f"category.mono-epi-cancellation[n<={max_size}]"
    tables = _hom_tables(ctx, max_size)
    n = len(tables.objects)
    failures = list(tables.unmatched)
    if failures:
        return _result(name, failures, 0)
    checked = 0
    for b in range(n):
        blocks_b = tables.blocks[b]
        for c in range(n):
            lo, hi = tables.blocks[c][b]
            for m_id in range(lo, hi):
                checked += 1
                m = tables.into[c][m_id]
                row = tables.rows[c][m_id]
                left_cancellable = all(
                    len(set(row[f_lo:f_hi])) == f_hi - f_lo for f_lo, f_hi in blocks_b
                )
                if left_cancellable != is_mono(m):
                    failures.append({"m": jsonio.morphism_to_doc(m), "side": "mono"})
                # right cancellability: u o m determines u among Hom(c, t)
                right_cancellable = True
                for t in range(n):
                    u_lo, u_hi = tables.blocks[t][c]
                    column = {row_u[m_id] for row_u in tables.rows[t][u_lo:u_hi]}
                    if len(column) != u_hi - u_lo:
                        right_cancellable = False
                        break
                if right_cancellable != is_epi(m):
                    failures.append({"m": jsonio.morphism_to_doc(m), "side": "epi"})
    return _result(name, failures, checked)


def check_torsor(ctx: FamilyContext, max_size: int) -> CheckResult:
    """Monos with fixed image, and epis with fixed kernel, are Aut-torsors.

    Monos X_Q -> X_P with image X_I number |Aut(I)| when Q is isomorphic
    to X_I (else 0); dually, epis X_P -> X_Q with kernel ideal I number
    |Aut(P \\ I)| when Q is isomorphic to the complement.
    """
    objects = _objects_of(ctx, max_size)
    failures: list[Any] = []
    checked = 0
    for p_obj in objects:
        p = p_obj.poset
        sides = []
        for ideal in order_ideals(p).ideals:
            sub, _ = induced_subposet(p, ideal)
            rest, _ = induced_subposet(p, p.full_mask & ~ideal)
            sides.append(
                (ideal, canonical_form(sub, ctx.mode), len(automorphisms(sub, ctx.mode)),
                 canonical_form(rest, ctx.mode), len(automorphisms(rest, ctx.mode)))
            )
        for q_obj in objects:
            q_key = canonical_form(q_obj.poset, ctx.mode)
            into = hom_set(q_obj, p_obj, ctx.mode)
            out_of = hom_set(p_obj, q_obj, ctx.mode)
            for ideal, sub_key, sub_auts, rest_key, rest_auts in sides:
                checked += 1
                mono_count = sum(1 for m in into if is_mono(m) and m.i2 == ideal)
                mono_expected = sub_auts if sub_key == q_key else 0
                epi_count = sum(1 for m in out_of if is_epi(m) and m.i1 == ideal)
                epi_expected = rest_auts if rest_key == q_key else 0
                if mono_count != mono_expected or epi_count != epi_expected:
                    failures.append(
                        {
                            "P": jsonio.poset_to_doc(p),
                            "Q": jsonio.poset_to_doc(q_obj.poset),
                            "ideal": ideal,
                            "monos": [mono_count, mono_expected],
                            "epis": [epi_count, epi_expected],
                        }
                    )
    return _result(f"category.torsors[n<={max_size}]", failures, checked)


def check_ses_classification(ctx: FamilyContext, max_size: int) -> CheckResult:
    """Every exact mono/epi pair matches a canonical SES up to end isos.

    The pairs are read from ``monos(a, b)`` and ``epis(b, c)``, equal to
    the hom sets filtered by :func:`is_mono` and :func:`is_epi`, so the
    full hom sets of the objects above the table bound are never built.
    """
    objects = _objects_of(ctx, max_size)
    failures: list[Any] = []
    checked = 0
    for b in objects:
        p = b.poset
        ideals = order_ideals(p).ideals
        sides = dict(zip(ideals, split_keys(p, ideals, ctx.mode)))
        epis_to = [(c, canonical_form(c.poset, ctx.mode), epis(b, c, ctx.mode)) for c in objects]
        for a in objects:
            a_key = canonical_form(a.poset, ctx.mode)
            monos_in = monos(a, b, ctx.mode)
            for c, c_key, epis_out in epis_to:
                for f in monos_in:
                    for g in epis_out:
                        if f.i2 != g.i1:
                            continue
                        checked += 1
                        if sides[f.i2] != (a_key, c_key):
                            failures.append(
                                {
                                    "f": jsonio.morphism_to_doc(f),
                                    "g": jsonio.morphism_to_doc(g),
                                }
                            )
    # and the canonical list itself is exact and one-per-ideal
    for b in objects:
        sequences = short_exact_sequences(b, ctx.mode)
        checked += len(sequences)
        if len(sequences) != len(order_ideals(b.poset)):
            failures.append({"middle": jsonio.poset_to_doc(b.poset)})
    return _result(f"category.ses-classification[n<={max_size}]", failures, checked)


def category_suite(ctx: FamilyContext, assoc_max: int, universal_max: int) -> list[CheckResult]:
    return [
        check_unit_laws(ctx, assoc_max),
        check_associativity(ctx, assoc_max),
        check_kernel_universal(ctx, universal_max),
        check_cokernel_universal(ctx, universal_max),
        check_mono_epi_cancellation(ctx, universal_max),
        check_torsor(ctx, universal_max),
        check_ses_classification(ctx, min(assoc_max + 1, ctx.max_size)),
    ]


# ---------------------------------------------------------------------------
# Hopf suite


def _class_tuples(ctx: FamilyContext, total: int, arity: int):
    """Every ``arity``-tuple of classes whose sizes sum to at most ``total``,
    in lexicographic (size, class) order."""
    if arity == 0:
        yield ()
        return
    for size in range(total + 1):
        for cls in ctx.classes(size):
            for rest in _class_tuples(ctx, total - size, arity - 1):
                yield (cls, *rest)


def check_product_associativity(ctx: FamilyContext, total: int) -> CheckResult:
    failures: list[Any] = []
    checked = 0
    for a, b, c in _class_tuples(ctx, total, 3):
        checked += 1
        left = product(product(delta(a), delta(b), ctx), delta(c), ctx)
        right = product(delta(a), product(delta(b), delta(c), ctx), ctx)
        if left != right:
            failures.append({"a": a.hex_key, "b": b.hex_key, "c": c.hex_key})
    return _result(f"hall.product-associativity[total<={total}]", failures, checked)


def check_coproduct_axioms(ctx: FamilyContext, max_size: int) -> CheckResult:
    """Coassociativity and cocommutativity on every class."""
    failures: list[Any] = []
    checked = 0
    for size in range(max_size + 1):
        for cls in ctx.classes(size):
            checked += 1
            cp = coproduct(delta(cls), ctx)
            if cp.flip() != cp:
                failures.append({"class": cls.hex_key, "axiom": "cocommutativity"})
                continue
            left: dict = {}
            right: dict = {}
            for (a, b), v in cp.items():
                for (a1, a2), w in coproduct(delta(a), ctx).items():
                    key = (a1, a2, b)
                    left[key] = left.get(key, Fraction(0)) + v * w
                for (b1, b2), w in coproduct(delta(b), ctx).items():
                    key = (a, b1, b2)
                    right[key] = right.get(key, Fraction(0)) + v * w
            left = {k: v for k, v in left.items() if v}
            right = {k: v for k, v in right.items() if v}
            if left != right:
                failures.append({"class": cls.hex_key, "axiom": "coassociativity"})
    return _result(f"hall.coproduct-axioms[n<={max_size}]", failures, checked)


def check_bialgebra(ctx: FamilyContext, total: int) -> CheckResult:
    """Delta(f * g) = Delta(f) Delta(g) on delta pairs."""
    failures: list[Any] = []
    checked = 0
    for a, b in _class_tuples(ctx, total, 2):
        checked += 1
        lhs = coproduct(product(delta(a), delta(b), ctx), ctx)
        rhs = tensor_product(coproduct(delta(a), ctx), coproduct(delta(b), ctx), ctx)
        if lhs != rhs:
            failures.append({"a": a.hex_key, "b": b.hex_key})
    return _result(f"hall.bialgebra-compatibility[total<={total}]", failures, checked)


def check_counit(ctx: FamilyContext, max_size: int) -> CheckResult:
    """(eps (x) id) o Delta = id = (id (x) eps) o Delta."""
    failures: list[Any] = []
    checked = 0
    for size in range(max_size + 1):
        for cls in ctx.classes(size):
            checked += 1
            cp = coproduct(delta(cls), ctx)
            left = HallElement.zero()
            right = HallElement.zero()
            for (a, b), v in cp.items():
                left = left + v * counit(delta(a)) * delta(b)
                right = right + v * counit(delta(b)) * delta(a)
            if left != delta(cls) or right != delta(cls):
                failures.append({"class": cls.hex_key})
    return _result(f"hall.counit-axiom[n<={max_size}]", failures, checked)


def check_antipode(ctx: FamilyContext, max_size: int) -> CheckResult:
    """m o (S (x) id) o Delta = eta o eps = m o (id (x) S) o Delta."""
    failures: list[Any] = []
    checked = 0
    for size in range(max_size + 1):
        for cls in ctx.classes(size):
            checked += 1
            x = delta(cls)
            cp = coproduct(x, ctx)
            left = HallElement.zero()
            right = HallElement.zero()
            for (a, b), v in cp.items():
                left = left + v * product(antipode(delta(a), ctx), delta(b), ctx)
                right = right + v * product(delta(a), antipode(delta(b), ctx), ctx)
            expected = counit(x) * unit(ctx)
            if left != expected or right != expected:
                failures.append({"class": cls.hex_key})
    return _result(f"hall.antipode-axiom[n<={max_size}]", failures, checked)


def check_grading(ctx: FamilyContext, total: int) -> CheckResult:
    """Products and coproducts respect the order grading."""
    failures: list[Any] = []
    checked = 0
    for a, b in _class_tuples(ctx, total, 2):
        checked += 1
        prod = product(delta(a), delta(b), ctx)
        if any(cls.size != a.size + b.size for cls in prod.coeffs):
            failures.append({"a": a.hex_key, "b": b.hex_key, "axiom": "product-grading"})
    for size in range(total + 1):
        for cls in ctx.classes(size):
            checked += 1
            cp = coproduct(delta(cls), ctx)
            if any(x.size + y.size != size for x, y in cp.coeffs):
                failures.append({"class": cls.hex_key, "axiom": "coproduct-grading"})
    return _result(f"hall.grading[total<={total}]", failures, checked)


def check_structure_constants(ctx: FamilyContext, total: int) -> CheckResult:
    """Convolution coefficients equal the independent N(P,Q;R) counts."""
    failures: list[Any] = []
    checked = 0
    for a, b in _class_tuples(ctx, total, 2):
        prod = product(delta(a), delta(b), ctx)
        for r_cls in ctx.classes(a.size + b.size):
            checked += 1
            direct = structure_constant(a, b, r_cls)
            if prod.coeff(r_cls) != direct:
                failures.append(
                    {"P": a.hex_key, "Q": b.hex_key, "R": r_cls.hex_key, "N": direct}
                )
    return _result(f"hall.structure-constants[total<={total}]", failures, checked)


def check_primitives(ctx: FamilyContext, max_size: int) -> CheckResult:
    """delta_P primitive iff P connected; bracket of primitives primitive."""
    failures: list[Any] = []
    checked = 0
    for size in range(max_size + 1):
        for cls in ctx.classes(size):
            checked += 1
            expected = is_connected(cls.representative)
            if is_primitive(delta(cls), ctx) != expected:
                failures.append({"class": cls.hex_key})
    for degree in range(min(max_size, ctx.max_size // 2) + 1):
        basis = primitive_basis(ctx, degree)
        checked += 1
        for f in basis[:3]:
            for g in basis[:3]:
                if f.top_degree() + g.top_degree() <= ctx.max_size:
                    checked += 1
                    bracket = lie_bracket(f, g, ctx)
                    if bracket and not is_primitive(bracket, ctx):
                        failures.append({"axiom": "bracket-primitivity", "degree": degree})
    return _result(f"hall.primitives[n<={max_size}]", failures, checked)


def hopf_suite(ctx: FamilyContext, total: int) -> list[CheckResult]:
    return [
        check_product_associativity(ctx, total),
        check_coproduct_axioms(ctx, total),
        check_bialgebra(ctx, total),
        check_counit(ctx, total),
        check_antipode(ctx, total),
        check_grading(ctx, total),
        check_structure_constants(ctx, total),
        check_primitives(ctx, min(total, ctx.max_size)),
    ]


# ---------------------------------------------------------------------------
# Schmitt / phi suite


def check_interval_ideal_dictionary(ctx: FamilyContext, total: int) -> CheckResult:
    """Interval convolution equals the specialized ideal form everywhere."""
    failures: list[Any] = []
    checked = 0
    pairs = [(a, b, phi(delta(a), ctx), phi(delta(b), ctx)) for a, b in _class_tuples(ctx, total, 2)]
    for size in range(total + 1):
        for cls in ctx.classes(size):
            p = cls.representative
            row = ideal_form_row(p, ctx)
            for a, b, fa, fb in pairs:
                checked += 1
                if schmitt_product(fa, fb, p, ctx) != convolve(fa, fb, row):
                    failures.append(
                        {"f": a.hex_key, "g": b.hex_key, "P": jsonio.poset_to_doc(p)}
                    )
    return _result(f"schmitt.interval-vs-ideal[total<={total}]", failures, checked)


def check_schmitt_associativity(ctx: FamilyContext, total: int) -> CheckResult:
    failures: list[Any] = []
    checked = 0
    for a, b, c in _class_tuples(ctx, total, 3):
        checked += 1
        fa, fb, fc = (phi(delta(x), ctx) for x in (a, b, c))
        left = schmitt_product_element(schmitt_product_element(fa, fb, ctx), fc, ctx)
        right = schmitt_product_element(fa, schmitt_product_element(fb, fc, ctx), ctx)
        if left != right:
            failures.append({"a": a.hex_key, "b": b.hex_key, "c": c.hex_key})
    return _result(f"schmitt.product-associativity[total<={total}]", failures, checked)


def check_phi_intertwines(ctx: FamilyContext, total: int) -> CheckResult:
    """phi intertwines products, coproducts, units, counits and antipodes."""
    failures: list[Any] = []
    checked = 0
    if phi(unit(ctx), ctx) != schmitt_unit(ctx):
        failures.append({"axiom": "unit"})
    for a, b in _class_tuples(ctx, total, 2):
        checked += 1
        hall_side = phi(product(delta(a), delta(b), ctx), ctx)
        schmitt_side = schmitt_product_element(phi(delta(a), ctx), phi(delta(b), ctx), ctx)
        if hall_side != schmitt_side:
            failures.append({"axiom": "product", "a": a.hex_key, "b": b.hex_key})
    for size in range(total + 1):
        for cls in ctx.classes(size):
            checked += 1
            hall_cp = coproduct(delta(cls), ctx)
            schmitt_cp = schmitt_coproduct(phi(delta(cls), ctx), ctx)
            lifted = TensorElement({(a.iso, b.iso): v for (a, b), v in schmitt_cp.items()})
            if lifted != hall_cp:
                failures.append({"axiom": "coproduct", "class": cls.hex_key})
            if schmitt_counit(phi(delta(cls), ctx)) != counit(delta(cls)):
                failures.append({"axiom": "counit", "class": cls.hex_key})
            if phi(antipode(delta(cls), ctx), ctx) != schmitt_antipode(phi(delta(cls), ctx), ctx):
                failures.append({"axiom": "antipode", "class": cls.hex_key})
    return _result(f"schmitt.phi-intertwines[total<={total}]", failures, checked)


def check_hopf_relation(ctx: FamilyContext, cutoff: int, seed: int) -> CheckResult:
    report = verify_hopf_relation(ctx, cutoff, seed)
    checked = report.product_checks + report.neutrality_checks + report.order_checks
    failures = list(report.violations)
    return _result(f"schmitt.hopf-relation[n<={cutoff},seed={seed}]", failures, checked)


def schmitt_suite(ctx: FamilyContext, total: int, seed: int = 0) -> list[CheckResult]:
    return [
        check_interval_ideal_dictionary(ctx, total),
        check_schmitt_associativity(ctx, min(total, 4)),
        check_phi_intertwines(ctx, total),
        check_hopf_relation(ctx, min(total, ctx.max_size), seed),
    ]


# ---------------------------------------------------------------------------
# oracle and family suites


def check_ideal_filter_oracle(ctx: FamilyContext, max_size: int) -> CheckResult:
    """Ideal enumeration equals the filter over all 2^n subsets."""
    failures: list[Any] = []
    checked = 0
    for size in range(min(max_size, ctx.max_size) + 1):
        for cls in ctx.classes(size):
            checked += 1
            p = cls.representative
            brute = sorted(
                (m for m in range(1 << p.size) if is_order_ideal(p, m)),
                key=lambda m: (m.bit_count(), m),
            )
            if list(order_ideals(p).ideals) != brute:
                failures.append({"P": jsonio.poset_to_doc(p)})
    return _result(f"oracle.ideals-vs-filter[n<={max_size}]", failures, checked)


def check_canonical_vs_isomorphism(ctx: FamilyContext, max_size: int, seed: int) -> CheckResult:
    """Equal canonical keys exactly when an isomorphism search succeeds."""
    rng = random.Random(seed)
    failures: list[Any] = []
    checked = 0
    reps = [cls.representative for s in range(max_size + 1) for cls in ctx.classes(s)]
    for p in reps:
        for q in reps:
            checked += 1
            same_key = canonical_form(p, ctx.mode) == canonical_form(q, ctx.mode)
            found = bool(find_isomorphisms(p, q, ctx.mode))
            if same_key != found:
                failures.append(
                    {"P": jsonio.poset_to_doc(p), "Q": jsonio.poset_to_doc(q)}
                )
    for p in reps:
        perm = list(range(p.size))
        rng.shuffle(perm)
        q = relabel_by(p, perm)
        checked += 1
        if canonical_form(p, ctx.mode) != canonical_form(q, ctx.mode):
            failures.append({"P": jsonio.poset_to_doc(p), "perm": perm})
    return _result(f"oracle.canonical-vs-iso[n<={max_size},seed={seed}]", failures, checked)


def check_family_closure(ctx: FamilyContext) -> CheckResult:
    report = verify_closure(ctx)
    return _result(
        f"family.closure[{ctx.name}]",
        list(report.violations),
        report.convex_checked + report.union_checked,
    )


def oracle_suite(ctx: FamilyContext, max_size: int, seed: int = 0) -> list[CheckResult]:
    return [
        check_ideal_filter_oracle(ctx, max_size),
        check_canonical_vs_isomorphism(ctx, min(max_size, 5), seed),
        check_family_closure(ctx),
    ]


# ---------------------------------------------------------------------------
# top-level driver


def run_verification(
    ctx: FamilyContext,
    assoc_max: int,
    universal_max: int,
    hopf_total: int,
    schmitt_total: int,
    oracle_max: int,
    seed: int = 0,
) -> list[CheckResult]:
    results: list[CheckResult] = []
    results.extend(category_suite(ctx, assoc_max, universal_max))
    results.extend(hopf_suite(ctx, hopf_total))
    results.extend(schmitt_suite(ctx, schmitt_total, seed))
    results.extend(oracle_suite(ctx, oracle_max, seed))
    return results
