"""Edge-disjoint packing of spanning-tree sequences into looped K_n.

Trees are self-maps of Z_n (functional trees); a family holds one tree
per component size 1..n; a complete labeling relabels each tree so the
arcs tile the complete graph with a loop on every vertex.  The package
enumerates and solves these packings exactly and evaluates / canonicalizes
the rational certificate polynomial whose non-vanishing is equivalent to
packability.
"""

from .errors import (
    BadSizeError,
    BoundExceededError,
    DimensionMismatchError,
    InvalidFamilyError,
    NotAPermutationError,
    NotATreeError,
    NotAutomorphismError,
    NotCompleteError,
    OutOfRangeError,
    ParseError,
    SingletonTreeError,
    TreePackError,
    ValidationError,
)
from .functree import (
    AugFuncTree,
    AugTreeFamily,
    Mapping,
    build_tree,
    compose_square,
    family_count,
    family_enumerate,
    generate,
    generate_family,
    leaf_sibling_groups,
    local_compose,
    sibling_leaf_set,
    star_family,
)
from .packing import (
    EdgeOrientation,
    Labeling,
    closure_check,
    diagonal_relabel,
    is_complete,
    orientation,
    phi_enumerate,
)
from .solver import (
    EXHAUSTED,
    PACKED,
    TIMED_OUT,
    SolveConfig,
    SolveResult,
    SweepReport,
    pack,
    star_identity_labeling,
    sweep,
)
from .certificate import (
    CANONICAL_LATTICE_MAX_N,
    CANONICAL_PHI_MAX_N,
    COMPOSITION_CHECK_MAX_N,
    LAGRANGE_EXPAND_MAX_TERMS,
    SUPPORT_CHECK_MAX_N,
    CompositionReport,
    SparsePoly,
    YPoly,
    canonical_rep,
    certificate_eval,
    composition_implication_check,
    edge_poly_eval,
    lagrange_basis,
    monomial_support_check,
    nonvanishing_equivalence_check,
    poly_reduce,
    variable_dependency_check,
    vertex_poly_eval,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
