"""Posets, order ideals, and the distributive lattice they form.

Builds a few small posets from cover relations, enumerates their order
ideals, and walks the two structural facts everything else in the
library rests on: intervals of the ideal lattice are again ideal
lattices, and disjoint unions multiply them.
"""

from inccat import (
    canonical_form,
    cartesian_product,
    from_covers,
    interval_to_quotient_lattice,
    is_convex,
    lattice_ops,
    order_ideals,
    sum_decomposition,
)
from inccat.posets import bits


def names(p, mask):
    return "{" + ",".join(sorted(p.labels[i] for i in bits(mask))) + "}"


# a "vee": one minimum below two incomparable points
vee = from_covers(["root", "left", "right"], [("root", "left"), ("root", "right")])
print("V poset covers:", vee.covers)

lattice = order_ideals(vee)
print("its", len(lattice), "order ideals:", ", ".join(names(vee, m) for m in lattice))

# join = union and meet = intersection, and the lattice is closed under both
a, b = 0b011, 0b101  # {root,left} and {root,right}
join, meet = lattice_ops(lattice, a, b)
print(f"{names(vee, a)} v {names(vee, b)} = {names(vee, join)},",
      f"meet = {names(vee, meet)}")

# convexity: a subset is convex exactly when it is a difference of ideals
print("{left,right} convex in V:", is_convex(vee, 0b110))
chain = from_covers(["x", "y", "z"], [("x", "y"), ("y", "z")])
print("{x,z} convex in chain:", is_convex(chain, 0b101))

# the interval [I, L] inside the ideal lattice is the ideal lattice of L \ I
corr = interval_to_quotient_lattice(chain, 0b001, 0b111)
print("interval [{x}, {x,y,z}] has", len(corr.members()), "members;",
      "the convex quotient is a", corr.quotient.size, "element chain")

# ideals of a disjoint union split as pairs of ideals
two_chains = sum_decomposition(chain, chain)
print("|J(chain+chain)| =", len(order_ideals(two_chains.union)),
      "= 4 * 4 ideals of the summands")

# canonical forms identify posets up to isomorphism, however they are labeled
relabeled = from_covers(["c", "b", "a"], [("c", "b"), ("b", "a")])
print("3-chains canonically equal:", canonical_form(chain) == canonical_form(relabeled))
diamond = cartesian_product(from_covers(["0", "1"], [("0", "1")]),
                            from_covers(["0", "1"], [("0", "1")]))
print("chain x chain is the diamond with", len(order_ideals(diamond)), "ideals")
