"""Incidence categories of poset families and their Hopf algebras.

Build posets, form the incidence category of a family (morphism triples,
kernels, cokernels, exact sequences), and compute in its Ringel-Hall
algebra and the isomorphic incidence Hopf algebra on ideal lattices, all
in exact rational arithmetic.
"""

from .errors import (
    CoefficientError,
    CompositionError,
    CycleError,
    FamilyError,
    IncCatError,
    NotAnIdealError,
    PosetError,
    SizeCapError,
    TruncationError,
    VectorError,
)
from .posets import (
    Bijection,
    MapMode,
    Poset,
    automorphisms,
    canonical_form,
    cartesian_product,
    connected_components,
    disjoint_union,
    find_isomorphisms,
    from_covers,
    induced_subposet,
    is_connected,
    is_convex,
)
from .ideals import (
    IdealLattice,
    interval_to_quotient_lattice,
    is_order_ideal,
    lattice_ops,
    order_ideals,
    smallest_ideal_containing,
    sum_decomposition,
)
from .category import (
    CategoryObject,
    Morphism,
    ShortExactSequence,
    cokernel,
    compose,
    direct_sum,
    epis,
    hom_set,
    identity,
    image,
    is_epi,
    is_exact,
    is_indecomposable,
    is_irreducible,
    is_mono,
    kernel,
    monos,
    short_exact_sequences,
    subquotient_correspondence,
    zero_morphism,
)
from .families import (
    FamilyContext,
    IsoClass,
    colored_forests_up_to,
    colored_sets_up_to,
    family_from_spec,
    fin_up_to,
    forests_up_to,
    sets_up_to,
    verify_closure,
)
from .hall import (
    HallElement,
    TensorElement,
    antipode,
    coproduct,
    counit,
    delta,
    is_primitive,
    k0_truncated,
    lie_bracket,
    primitive_basis,
    product,
    structure_constant,
    unit,
)
from .incidence import (
    IncidenceElement,
    IntervalClass,
    phi,
    phi_inverse,
    schmitt_antipode,
    schmitt_coproduct,
    schmitt_product,
    schmitt_product_element,
    verify_hopf_relation,
)

__version__ = "0.1.0"
