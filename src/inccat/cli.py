"""Command-line front end.

Every run is deterministic: identical inputs give byte-identical output.
Poset arguments are JSON files in the documented format; morphism
arguments embed their source and target posets.  Hall elements print as
JSON maps from canonical-key hex to rational strings.

Exit codes: 0 success, 1 a verification found a violated axiom (the
counterexample is dumped as JSON), 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import jsonio
from .category import (
    CategoryObject,
    cokernel,
    compose,
    hom_set,
    kernel,
    short_exact_sequences,
)
from .errors import FamilyError, IncCatError
from .families import FamilyContext, IsoClass, family_from_spec
from .hall import delta, k0_truncated, primitive_basis, product, coproduct, antipode, split_index
from .ideals import order_ideals
from .posets import MapMode, bits
from .verification import run_verification, schmitt_suite


def _family(args: argparse.Namespace) -> FamilyContext:
    return family_from_spec(args.family, args.max_size, root_max=getattr(args, "root_max", False))


def _mode(args: argparse.Namespace) -> MapMode:
    return MapMode.COLOR_PRESERVING_ISOS if getattr(args, "mode", "all") == "color" else MapMode.ALL_POSET_ISOS


def _print(text: str = "") -> None:
    sys.stdout.write(text + "\n")


def _class_label(ctx: FamilyContext, cls: IsoClass) -> str:
    rep = cls.representative
    covers = ",".join(f"{rep.labels[i]}<{rep.labels[j]}" for i, j in rep.covers)
    colors = ""
    if ctx.num_colors > 1:
        colors = ";colors=" + ",".join(str(c) for c in rep.colors)
    return f"size={cls.size};covers=[{covers}]{colors}"


def cmd_ideals(args: argparse.Namespace) -> int:
    poset = jsonio.load_poset(args.poset)
    lattice = order_ideals(poset)
    if args.json:
        payload = [[poset.labels[i] for i in bits(m)] for m in lattice.ideals]
        sys.stdout.write(jsonio.dumps({"count": len(lattice), "ideals": payload}))
        return 0
    _print(str(len(lattice)))
    for mask in lattice.ideals:
        _print("{" + ",".join(sorted(poset.labels[i] for i in bits(mask))) + "}")
    return 0


def cmd_hom(args: argparse.Namespace) -> int:
    a = CategoryObject(jsonio.load_poset(args.source))
    b = CategoryObject(jsonio.load_poset(args.target))
    morphisms = hom_set(a, b, _mode(args))
    if args.json:
        sys.stdout.write(jsonio.dumps([jsonio.morphism_to_doc(m) for m in morphisms]))
        return 0
    _print(str(len(morphisms)))
    for m in morphisms:
        doc = jsonio.morphism_to_doc(m)
        arrows = ",".join(f"{k}>{v}" for k, v in sorted(doc["f"].items()))
        _print(f"I1={{{','.join(doc['I1'])}}} I2={{{','.join(doc['I2'])}}} f=[{arrows}]")
    return 0


def cmd_compose(args: argparse.Namespace) -> int:
    mode = _mode(args)
    first = jsonio.load_morphism(args.first, mode)
    second = jsonio.load_morphism(args.second, mode)
    result = compose(second, first)
    sys.stdout.write(jsonio.dumps(jsonio.morphism_to_doc(result)))
    return 0


def cmd_kernel(args: argparse.Namespace) -> int:
    m = jsonio.load_morphism(args.morphism, _mode(args))
    sys.stdout.write(jsonio.dumps(jsonio.morphism_to_doc(kernel(m))))
    return 0


def cmd_cokernel(args: argparse.Namespace) -> int:
    m = jsonio.load_morphism(args.morphism, _mode(args))
    sys.stdout.write(jsonio.dumps(jsonio.morphism_to_doc(cokernel(m))))
    return 0


def cmd_ses(args: argparse.Namespace) -> int:
    x = CategoryObject(jsonio.load_poset(args.poset))
    sequences = short_exact_sequences(x, _mode(args))
    payload = [
        {
            "sub": jsonio.poset_to_doc(s.sub.poset),
            "inclusion": jsonio.morphism_to_doc(s.morphisms[1]),
            "projection": jsonio.morphism_to_doc(s.morphisms[2]),
            "quotient": jsonio.poset_to_doc(s.quotient.poset),
        }
        for s in sequences
    ]
    if args.json:
        sys.stdout.write(jsonio.dumps(payload))
        return 0
    _print(str(len(sequences)))
    for entry in payload:
        _print(
            f"0 -> X{{{','.join(entry['sub']['elements'])}}} -> X -> "
            f"X{{{','.join(entry['quotient']['elements'])}}} -> 0"
        )
    return 0


def _print_hall(ctx: FamilyContext, element, as_json: bool) -> None:
    if as_json:
        sys.stdout.write(jsonio.dumps(jsonio.hall_element_to_doc(element)))
        return
    if not element:
        _print("0")
        return
    for cls, value in jsonio.ordered_hall_items(element):
        _print(f"{jsonio.fraction_to_str(value)}\t{cls.hex_key}\t{_class_label(ctx, cls)}")


def cmd_product(args: argparse.Namespace) -> int:
    ctx = _family(args)
    f = delta(ctx.class_of(jsonio.load_poset(args.left)))
    g = delta(ctx.class_of(jsonio.load_poset(args.right)))
    _print_hall(ctx, product(f, g, ctx), args.json)
    return 0


def cmd_coproduct(args: argparse.Namespace) -> int:
    ctx = _family(args)
    f = delta(ctx.class_of(jsonio.load_poset(args.poset)))
    tensor = coproduct(f, ctx)
    triples = jsonio.tensor_element_to_doc(tensor)
    if args.json:
        sys.stdout.write(jsonio.dumps(triples))
        return 0
    for left, right, value in triples:
        _print(f"{value}\t{left} (x) {right}")
    return 0


def cmd_antipode(args: argparse.Namespace) -> int:
    ctx = _family(args)
    f = delta(ctx.class_of(jsonio.load_poset(args.poset)))
    _print_hall(ctx, antipode(f, ctx), args.json)
    return 0


def cmd_constants(args: argparse.Namespace) -> int:
    ctx = _family(args)
    if args.size > ctx.max_size:
        raise IncCatError(f"--size {args.size} exceeds --max-size {ctx.max_size}")
    rows = sorted(
        (p_cls.hex_key, q_cls.hex_key, r_cls.hex_key, n)
        for (p_cls, q_cls), entries in split_index(ctx, args.size).items()
        for r_cls, n in entries
    )
    _print("P\tQ\tR\tN")
    for p_hex, q_hex, r_hex, n in rows:
        _print(f"{p_hex}\t{q_hex}\t{r_hex}\t{n}")
    return 0


def cmd_primitives(args: argparse.Namespace) -> int:
    ctx = _family(args)
    basis = primitive_basis(ctx, args.degree)
    if args.json:
        sys.stdout.write(jsonio.dumps([jsonio.hall_element_to_doc(f) for f in basis]))
        return 0
    _print(str(len(basis)))
    for f in basis:
        for cls, _ in jsonio.ordered_hall_items(f):
            _print(f"{cls.hex_key}\t{_class_label(ctx, cls)}")
    return 0


def cmd_k0(args: argparse.Namespace) -> int:
    ctx = _family(args)
    pres = k0_truncated(ctx, args.cutoff)
    payload = {
        "family": ctx.name,
        "cutoff": pres.cutoff,
        "generators": [cls.hex_key for cls in pres.generators],
        "relation_count": pres.relation_count,
        "invariant_factors": list(pres.smith_diagonal),
        "free_rank": pres.free_rank,
        "torsion": list(pres.torsion),
    }
    if args.json:
        sys.stdout.write(jsonio.dumps(payload))
        return 0
    _print(f"family {ctx.name}, cutoff {pres.cutoff} (truncated presentation)")
    _print(f"generators {len(pres.generators)}, relations {pres.relation_count}")
    _print(f"invariant factors {list(pres.smith_diagonal)}")
    _print(f"free rank {pres.free_rank}, torsion {list(pres.torsion)}")
    return 0


def cmd_family_dump(args: argparse.Namespace) -> int:
    ctx = _family(args)
    if args.size > ctx.max_size:
        raise IncCatError(f"--size {args.size} exceeds --max-size {ctx.max_size}")
    for cls in ctx.classes(args.size):
        sys.stdout.write(jsonio.dumps(jsonio.poset_to_doc(cls.representative)).strip() + "\n")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    ctx = _family(args)
    n = ctx.max_size
    if args.quick:
        assoc, universal, hopf, schmitt, oracle = 2, 2, 3, 3, 3
    elif args.deep is not None:
        if args.deep < 0:
            raise FamilyError(f"--deep must be nonnegative, got {args.deep}")
        assoc = universal = hopf = schmitt = oracle = args.deep
    else:
        assoc = 4 if ctx.name.startswith(("forests", "cforests")) else 3
        universal, hopf, schmitt, oracle = 3, 5, 5, 5
    bounds = {
        "assoc": min(assoc, n),
        "universal": min(universal, n),
        "hopf": min(hopf, n),
        "schmitt": min(schmitt, n),
        "oracle": min(oracle, n),
    }
    _print(f"verify family={ctx.name} max-size={n} seed={args.seed} bounds={bounds}")
    if args.schmitt:
        results = schmitt_suite(ctx, bounds["schmitt"], seed=args.seed)
    else:
        results = run_verification(
            ctx,
            bounds["assoc"],
            bounds["universal"],
            bounds["hopf"],
            bounds["schmitt"],
            bounds["oracle"],
            seed=args.seed,
        )
    failed = [r for r in results if not r.passed]
    for r in results:
        _print(r.line())
    if failed:
        _print("counterexample:")
        sys.stdout.write(jsonio.dumps(failed[0].counterexample))
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inccat",
        description="incidence categories of poset families and their Hopf algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family_flags(p: argparse.ArgumentParser, max_size_default: int = 6) -> None:
        p.add_argument("--family", required=True, help="fin | sets | csets:k | forests | cforests:k")
        p.add_argument("--max-size", type=int, default=max_size_default, dest="max_size")
        p.add_argument("--root-max", action="store_true", dest="root_max",
                       help="forest families: roots are maximal instead of minimal")

    def add_mode_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument("--mode", choices=["all", "color"], default="all",
                       help="which isomorphisms the category admits")

    def add_json_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("ideals", help="ideal count and ideal list of a poset")
    p.add_argument("poset")
    add_json_flag(p)
    p.set_defaults(func=cmd_ideals)

    p = sub.add_parser("hom", help="enumerate Hom(X_A, X_B)")
    p.add_argument("source")
    p.add_argument("target")
    add_mode_flag(p)
    add_json_flag(p)
    p.set_defaults(func=cmd_hom)

    p = sub.add_parser("compose", help="compose two morphism files (second o first)")
    p.add_argument("first")
    p.add_argument("second")
    add_mode_flag(p)
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("kernel", help="kernel of a morphism file")
    p.add_argument("morphism")
    add_mode_flag(p)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("cokernel", help="cokernel of a morphism file")
    p.add_argument("morphism")
    add_mode_flag(p)
    p.set_defaults(func=cmd_cokernel)

    p = sub.add_parser("ses", help="canonical short exact sequences of an object")
    p.add_argument("poset")
    add_mode_flag(p)
    add_json_flag(p)
    p.set_defaults(func=cmd_ses)

    p = sub.add_parser("product", help="Hall product of two class deltas")
    add_family_flags(p, 8)
    add_json_flag(p)
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("coproduct", help="Hall coproduct of a class delta")
    add_family_flags(p)
    add_json_flag(p)
    p.add_argument("poset")
    p.set_defaults(func=cmd_coproduct)

    p = sub.add_parser("antipode", help="antipode of a class delta")
    add_family_flags(p)
    add_json_flag(p)
    p.add_argument("poset")
    p.set_defaults(func=cmd_antipode)

    p = sub.add_parser("constants", help="structure constants N(P,Q;R) at a size (TSV)")
    add_family_flags(p)
    p.add_argument("--size", type=int, required=True)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("primitives", help="basis of the primitive space in a degree")
    add_family_flags(p)
    add_json_flag(p)
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(func=cmd_primitives)

    p = sub.add_parser("k0", help="truncated Grothendieck group presentation")
    add_family_flags(p)
    add_json_flag(p)
    p.add_argument("--cutoff", type=int, required=True)
    p.set_defaults(func=cmd_k0)

    p = sub.add_parser("verify", help="run the axiom verification suites")
    add_family_flags(p, 4)
    bounds = p.add_mutually_exclusive_group()
    bounds.add_argument("--quick", action="store_true", help="small bounds (sizes <= 3)")
    bounds.add_argument("--deep", type=int, default=None, help="raise every bound to N")
    p.add_argument("--seed", type=int, default=0, help="seed for sampled relabelings")
    p.add_argument("--schmitt", action="store_true",
                   help="run only the incidence-side (interval convolution) checks")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("family", help="family utilities")
    fam_sub = p.add_subparsers(dest="family_command", required=True)
    q = fam_sub.add_parser("dump", help="emit each representative of a size as poset JSON")
    add_family_flags(q)
    q.add_argument("--size", type=int, required=True)
    q.set_defaults(func=cmd_family_dump)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except IncCatError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except json.JSONDecodeError as exc:
        sys.stderr.write(f"error: invalid JSON input ({exc})\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
