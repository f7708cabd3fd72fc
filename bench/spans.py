"""Span tracing around the public functions of each ``inccat`` layer.

A ``Tracer`` replaces each traced function by a wrapper that records one
span per call: name, start, end and parent span, all in flat arrays so
that millions of calls fit in memory.  Modules bind functions by name
(``from .posets import canonical_form``), so the wrapper is installed in
every ``inccat.*`` namespace that holds the original object; constructors
and ``class_of`` are wrapped on their classes.  ``uninstall`` restores
every binding.

The per-layer table is derived from the spans after the run: a name's
``calls`` is its span count and its ``self_s`` is the span time minus the
time covered by direct child spans.
"""

from __future__ import annotations

import functools
import json
import struct
import sys
import time
from array import array
from collections import defaultdict

# (label, module, attribute, class).  When ``class`` is set the attribute
# is looked up on that class of the module; otherwise it is a module-level
# function.  ``jsonio`` and ``errors`` are not timed.
FUNCTIONS = [
    ("posets.canonical_form", "inccat.posets", "canonical_form", None),
    ("posets.find_isomorphisms", "inccat.posets", "find_isomorphisms", None),
    ("posets.induced_subposet", "inccat.posets", "induced_subposet", None),
    ("posets.Poset", "inccat.posets", "__init__", "Poset"),
    ("ideals.order_ideals", "inccat.ideals", "order_ideals", None),
    ("ideals.is_order_ideal", "inccat.ideals", "is_order_ideal", None),
    ("category.compose", "inccat.category", "compose", None),
    ("category.Morphism", "inccat.category", "__init__", "Morphism"),
    ("category.hom_set", "inccat.category", "hom_set", None),
    ("category.short_exact_sequences", "inccat.category", "short_exact_sequences", None),
    ("families.generate", "inccat.families", "_generate", None),
    ("families.class_of", "inccat.families", "class_of", "FamilyContext"),
    ("hall.product", "inccat.hall", "product", None),
    ("hall.coproduct", "inccat.hall", "coproduct", None),
    ("hall.antipode", "inccat.hall", "antipode", None),
    ("hall.k0_truncated", "inccat.hall", "k0_truncated", None),
    ("incidence.schmitt_product", "inccat.incidence", "schmitt_product", None),
    ("incidence.schmitt_product_element", "inccat.incidence", "schmitt_product_element", None),
    ("linalg.smith_diagonal", "inccat.linalg", "smith_diagonal", None),
    ("linalg.rank_over_q", "inccat.linalg", "rank_over_q", None),
    ("cli.main", "inccat.cli", "main", None),
]

# The checks ``inccat verify`` runs, each reported as its inclusive time.
VERIFY_CHECKS = [
    "check_unit_laws",
    "check_associativity",
    "check_kernel_universal",
    "check_cokernel_universal",
    "check_mono_epi_cancellation",
    "check_torsor",
    "check_ses_classification",
    "check_product_associativity",
    "check_coproduct_axioms",
    "check_bialgebra",
    "check_counit",
    "check_antipode",
    "check_grading",
    "check_structure_constants",
    "check_primitives",
    "check_interval_ideal_dictionary",
    "check_schmitt_associativity",
    "check_phi_intertwines",
    "check_hopf_relation",
    "check_ideal_filter_oracle",
    "check_canonical_vs_isomorphism",
    "check_family_closure",
]


def _canonical_input(args, kwargs):
    from inccat.posets import MapMode

    p = args[0]
    mode = args[1] if len(args) > 1 else kwargs.get("mode", MapMode.ALL_POSET_ISOS)
    return (mode, p.leq, p.colors)


def _hom_input(args, kwargs):
    return (args, tuple(sorted(kwargs.items())))


def _product_candidates(args, kwargs):
    """Classes ``product`` scans: every class of each reachable degree."""
    f, g, ctx = args
    sums = {a.size + b.size for a in f.coeffs for b in g.coeffs}
    return sum(len(ctx.classes(t)) for t in sums if t <= ctx.max_size)


class Tracer:
    """Records spans for the functions in ``FUNCTIONS`` and ``VERIFY_CHECKS``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.labels: list[str] = []
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.totals: dict[str, float] = defaultdict(float)
        self._distinct: dict[str, set] = defaultdict(set)
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- installation -------------------------------------------------

    def _wrap(self, label: str, fn, after=None):
        idx = len(self.labels)
        self.labels.append(label)
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(name)
            name.append(idx)
            parent.append(stack[-1])
            start.append(clock())
            end.append(0.0)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _after_hooks(self) -> dict:
        totals, distinct = self.totals, self._distinct

        def canonical(args, kwargs, result):
            distinct["posets.canonical_form"].add(_canonical_input(args, kwargs))

        def isomorphisms(args, kwargs, result):
            totals["posets.find_isomorphisms.bijections"] += len(result)

        def ideals(args, kwargs, result):
            totals["ideals.order_ideals.ideals_out"] += len(result)

        def hom(args, kwargs, result):
            distinct["category.hom_set"].add(_hom_input(args, kwargs))
            totals["category.hom_set.morphisms_out"] += len(result)

        def product(args, kwargs, result):
            totals["hall.product.support"] += len(result.coeffs)
            totals["hall.product.candidates"] += _product_candidates(args, kwargs)

        def smith(args, kwargs, result):
            rows = args[0]
            totals["linalg.smith_diagonal.rows_in"] += len(rows)
            totals["linalg.smith_diagonal.cols_in"] += len(rows[0]) if rows else 0

        return {
            "posets.canonical_form": canonical,
            "posets.find_isomorphisms": isomorphisms,
            "ideals.order_ideals": ideals,
            "category.hom_set": hom,
            "hall.product": product,
            "linalg.smith_diagonal": smith,
        }

    def install(self) -> "Tracer":
        import inccat.cli  # noqa: F401  (loads every traced module)

        modules = [m for n, m in sys.modules.items() if n == "inccat" or n.startswith("inccat.")]
        hooks = self._after_hooks()
        targets = list(FUNCTIONS) + [
            (f"verification.{check}", "inccat.verification", check, None) for check in VERIFY_CHECKS
        ]
        for label, module_name, attr, cls_name in targets:
            owner = sys.modules[module_name]
            if cls_name is not None:
                owner = getattr(owner, cls_name, None)
            original = owner.__dict__.get(attr) if owner is not None else None
            if original is None:
                self.missing.append(label)
                continue
            wrapper = self._wrap(label, original, hooks.get(label))
            if cls_name is not None:
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for bound_name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, bound_name, wrapper)
        return self

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ------------------------------------------------------

    def write_spans(self, path: str) -> None:
        """Binary dump: a JSON header line, then the four span arrays."""
        header = {
            "run_id": self.run_id,
            "labels": self.labels,
            "spans": len(self.name),
            "arrays": ["name:H", "parent:l", "start:d", "end:d"],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                fh.write(struct.pack("<Q", len(arr) * arr.itemsize))
                arr.tofile(fh)

    def table(self) -> dict[str, float]:
        """Per-layer metrics derived from the recorded spans."""
        k = len(self.labels)
        calls = [0] * k
        total = [0.0] * k
        covered = [0.0] * k
        name, parent, start, end = self.name, self.parent, self.start, self.end
        for sid in range(len(name)):
            dur = end[sid] - start[sid]
            idx = name[sid]
            calls[idx] += 1
            total[idx] += dur
            up = parent[sid]
            if up >= 0:
                covered[name[up]] += dur
        by_label = {
            label: (calls[i], total[i], total[i] - covered[i]) for i, label in enumerate(self.labels)
        }
        for label in self.missing:
            by_label[label] = (0, 0.0, 0.0)

        out: dict[str, float] = {}
        for label, _module, attr, _cls in FUNCTIONS:
            n, _total, self_s = by_label[label]
            prefix = "init_" if attr == "__init__" else ""
            out[f"{label}.{prefix}calls"] = n
            out[f"{label}.{prefix}self_s"] = self_s
        for check in VERIFY_CHECKS:
            out[f"verification.{check}.s"] = by_label[f"verification.{check}"][1]

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        calls_of = {label: by_label[label][0] for label in by_label}
        out["posets.canonical_form.distinct_ratio"] = ratio(
            len(self._distinct["posets.canonical_form"]), calls_of["posets.canonical_form"]
        )
        out["category.hom_set.distinct_ratio"] = ratio(
            len(self._distinct["category.hom_set"]), calls_of["category.hom_set"]
        )
        out["hall.product.support_ratio"] = ratio(
            self.totals["hall.product.support"], self.totals["hall.product.candidates"]
        )
        for key in (
            "posets.find_isomorphisms.bijections",
            "ideals.order_ideals.ideals_out",
            "category.hom_set.morphisms_out",
            "linalg.smith_diagonal.rows_in",
            "linalg.smith_diagonal.cols_in",
        ):
            out[key] = int(self.totals[key])
        return out
