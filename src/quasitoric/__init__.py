"""Combinatorial quasitoric manifolds.

Models a quasitoric manifold as a simple polytope plus characteristic matrix,
decides existence of a positive omniorientation (equivalently, of an invariant
almost complex structure) with verified certificates, and computes the
classical 4-manifold invariants on constructed examples. One pass over the
facet exchanges of the polytope's spanning tree decides every pair, with its
certificate or the witness of an odd cycle of exchanges; GF(2) elimination
(``solve``) is the reference the tests hold that pass to.
"""

from .charpair import (
    CharacteristicPair,
    Omniorientation,
    all_signs,
    basis_change,
    relabel_facets,
    validate_char,
)
from .constructions import (
    connected_sum_4d,
    cp2_sum,
    cpn,
    hirzebruch,
    polygon,
    product,
    vertex_cut,
)
from .errors import QuasitoricError
from .fileformat import PairDocument, parse, serialize
from .invariants import (
    IntersectionForm,
    InvariantReport,
    compute_invariants,
    euler_characteristic,
    intersection_form,
    signature,
)
from .polytope import (
    SimplePolytope,
    f_vector,
    h_vector,
    orient_dual_sphere,
    validate_polytope,
)
from .positivity import (
    BruteForceResult,
    Gf2System,
    PositivityResult,
    admits_invariant_acs,
    brute_force_decide,
    build_system,
    decide_positive,
    solve,
)

__version__ = "0.1.0"
