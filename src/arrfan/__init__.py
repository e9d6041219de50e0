"""Exact computations with integer hyperplane arrangements and their fans.

The central objects are reduced arrangements of integer covectors and the
complete simplicial fans whose maximal cones are their closed chambers.  The
package verifies the integrality condition that makes the chamber fan smooth,
converts between the two sides, and computes the derived data: chamber vertex
polytopes, sign-map embedding certificates, star and restriction fans,
intersection posets, rank-2 circular weighted graphs with their divisor
classes, single-hyperplane blowup certificates, and fan automorphisms.

All arithmetic is exact (integers and fractions); no floating point feeds any
verdict.
"""

from .arrangement import (
    Arrangement,
    Chamber,
    CrystallographicReport,
    arrangement_to_json,
    catalog,
    decompose,
    enumerate_chambers,
    is_crystallographic,
    load_arrangement,
    make_arrangement,
    positive_roots,
)
from .errors import (
    ArrfanError,
    BadReferenceError,
    CertificationError,
    DoesNotCloseError,
    InputFormatError,
    LatticeSpanError,
    MalformedFanError,
    NonPointedError,
    NotCompleteError,
    NotCrystallographicError,
    NotSimplicialError,
    NotSmoothError,
    NotStronglySymmetricError,
    OrientationError,
    UnsupportedRankError,
)
from .fan import (
    BlowupCertificate,
    BlowupEntry,
    Fan,
    PropertyReport,
    check_properties,
    fan_automorphisms,
    fan_faces,
    fan_from_arrangement,
    fan_to_json,
    insert_hyperplane,
    load_fan,
    make_fan,
    restrict_fan,
    roots_from_fan,
    star_fan,
    star_subdivide,
)
from .intlinalg import det, dual_basis, extreme_rays, hnf, snf
from .polytope import (
    HalfLatticePolytope,
    PhiCertificate,
    build_polytope,
    phi_certificate,
    rho,
    sign_vector,
    verify_normal_fan,
)
from .poset import (
    FlatSubspace,
    IntersectionPoset,
    ToricArrangementReport,
    flat_from_constraints,
    flat_from_generators,
    intersection_poset,
    parabolic_arrangement,
    restricted_arrangement,
    toric_arrangement_report,
)
from .surface import (
    CircularGraph,
    DivisorClass,
    circular_graph,
    desingularize,
    intersection_numbers,
    symmetrize,
    triangulation_to_weights,
    triangulations,
    verify_picard_presentation,
    verify_weight_identity,
    weights_to_fan,
    y_divisor_class,
)

__version__ = "0.1.0"
