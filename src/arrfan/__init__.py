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

The names below are loaded on first access (PEP 562), so importing the
package, or one of its modules, loads only the modules actually used.
"""

from importlib import import_module

_EXPORTS = {
    "arrangement": (
        "Arrangement",
        "Chamber",
        "CrystallographicReport",
        "arrangement_to_json",
        "catalog",
        "decompose",
        "enumerate_chambers",
        "is_crystallographic",
        "load_arrangement",
        "make_arrangement",
        "positive_roots",
    ),
    "errors": (
        "ArrfanError",
        "BadReferenceError",
        "CertificationError",
        "DoesNotCloseError",
        "InputFormatError",
        "LatticeSpanError",
        "MalformedFanError",
        "NonPointedError",
        "NotCompleteError",
        "NotCrystallographicError",
        "NotSimplicialError",
        "NotSmoothError",
        "NotStronglySymmetricError",
        "OrientationError",
        "UnsupportedRankError",
    ),
    "fan": (
        "Fan",
        "PropertyReport",
        "check_properties",
        "fan_faces",
        "fan_from_arrangement",
        "fan_to_json",
        "load_fan",
        "make_fan",
        "roots_from_fan",
    ),
    "fanmaps": (
        "BlowupCertificate",
        "BlowupEntry",
        "fan_automorphisms",
        "insert_hyperplane",
        "restrict_fan",
        "star_fan",
        "star_subdivide",
    ),
    "intlinalg": ("det", "extreme_rays", "hnf", "snf"),
    "polytope": (
        "HalfLatticePolytope",
        "PhiCertificate",
        "build_polytope",
        "phi_certificate",
        "rho",
        "sign_vector",
        "verify_normal_fan",
    ),
    "poset": (
        "FlatSubspace",
        "IntersectionPoset",
        "ToricArrangementReport",
        "flat_from_constraints",
        "flat_from_generators",
        "intersection_poset",
        "parabolic_arrangement",
        "restricted_arrangement",
        "toric_arrangement_report",
    ),
    "surface": (
        "CircularGraph",
        "DivisorClass",
        "circular_graph",
        "desingularize",
        "intersection_numbers",
        "symmetrize",
        "triangulation_to_weights",
        "triangulations",
        "verify_picard_presentation",
        "verify_weight_identity",
        "weights_to_fan",
        "y_divisor_class",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [name for names in _EXPORTS.values() for name in names]
__version__ = "0.1.0"


def __getattr__(name: str):
    # not cached in globals(): every access reads the module's current binding
    if name in _SOURCE:
        return getattr(import_module(f".{_SOURCE[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
