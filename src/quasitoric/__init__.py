"""Combinatorial quasitoric manifolds.

Models a quasitoric manifold as a simple polytope plus characteristic matrix,
decides existence of a positive omniorientation (equivalently, of an invariant
almost complex structure) by exact GF(2) linear algebra with verified
certificates, and computes the classical 4-manifold invariants on constructed
examples.
"""

from .charpair import (
    CharacteristicPair,
    Omniorientation,
    all_signs,
    basis_change,
    relabel_facets,
    validate_char,
    vertex_sign,
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
    almost_complex_exists_4d,
    chern_top_number,
    compute_invariants,
    euler_characteristic,
    intersection_form,
    signature,
    todd_genus_4d,
)
from .polytope import (
    SimplePolytope,
    adjacent_vertex,
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
    count_positive_omniorientations,
    decide_positive,
    solve,
)

__version__ = "0.1.0"
