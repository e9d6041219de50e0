"""The package's public names and the semantics of its immutable records."""
import importlib
import itertools

import pytest

import arrfan
from arrfan import (
    catalog,
    check_properties,
    circular_graph,
    fan_from_arrangement,
    flat_from_constraints,
    is_crystallographic,
    make_arrangement,
)
from arrfan.fan import fan_faces, load_fan

from test_fan import LADDER

# every name the package exported when it imported all of its modules eagerly
OLD_EXPORTS = [
    "Arrangement", "Chamber", "CrystallographicReport", "arrangement_to_json", "catalog",
    "decompose", "enumerate_chambers", "is_crystallographic", "load_arrangement",
    "make_arrangement", "positive_roots",
    "ArrfanError", "BadReferenceError", "CertificationError", "DoesNotCloseError",
    "InputFormatError", "LatticeSpanError", "MalformedFanError", "NonPointedError",
    "NotCompleteError", "NotCrystallographicError", "NotSimplicialError", "NotSmoothError",
    "NotStronglySymmetricError", "OrientationError", "UnsupportedRankError",
    "BlowupCertificate", "BlowupEntry", "Fan", "PropertyReport", "check_properties",
    "fan_automorphisms", "fan_faces", "fan_from_arrangement", "fan_to_json",
    "insert_hyperplane", "load_fan", "make_fan", "restrict_fan", "roots_from_fan",
    "star_fan", "star_subdivide",
    "det", "extreme_rays", "hnf", "snf",
    "HalfLatticePolytope", "PhiCertificate", "build_polytope", "phi_certificate", "rho",
    "sign_vector", "verify_normal_fan",
    "FlatSubspace", "IntersectionPoset", "ToricArrangementReport", "flat_from_constraints",
    "flat_from_generators", "intersection_poset", "parabolic_arrangement",
    "restricted_arrangement", "toric_arrangement_report",
    "CircularGraph", "DivisorClass", "circular_graph", "desingularize",
    "intersection_numbers", "symmetrize", "triangulation_to_weights", "triangulations",
    "verify_picard_presentation", "verify_weight_identity", "weights_to_fan",
    "y_divisor_class",
]


def test_exports_are_the_old_names_and_resolve():
    assert arrfan.__all__ == OLD_EXPORTS
    for name in OLD_EXPORTS:
        obj = getattr(arrfan, name)
        assert obj.__name__ == name
        assert getattr(importlib.import_module(obj.__module__), name) is obj
    assert set(OLD_EXPORTS) <= set(dir(arrfan))
    assert arrfan.__version__ == "0.1.0"


def test_star_import_and_unknown_names():
    namespace = {}
    exec("from arrfan import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(OLD_EXPORTS)
    assert namespace["Fan"] is arrfan.Fan
    with pytest.raises(AttributeError, match="no_such_name"):
        arrfan.no_such_name
    assert not hasattr(arrfan, "svgplot_render")


def test_record_reprs_are_pinned():
    a = catalog("A_2")
    f = fan_from_arrangement(a)
    assert repr(a) == "Arrangement(rank=2, positive_covectors=((0, 1), (1, 0), (1, 1)))"
    assert repr(a.chambers[0]) == (
        "Chamber(index=0, rays=((0, 1), (1, 0)), basis=((0, 1), (1, 1)), sign_vector=(1, 1, 1))"
    )
    assert repr(check_properties(f)) == (
        "PropertyReport(smooth=True, complete=True, centrally_symmetric=True, "
        "strongly_symmetric=True, hyperplanes=((0, 1), (1, 0), (1, 1)), failure_witness=None)"
    )
    assert repr(flat_from_constraints(3, [(1, 0, 0)])) == (
        "FlatSubspace(dim=2, basis=((0, 1, 0), (0, 0, 1)))"
    )
    assert repr(circular_graph(f)) == (
        "CircularGraph(weights=(-1, -1, -1, -1, -1, -1), "
        "rays=((-1, 0), (0, -1), (1, -1), (1, 0), (0, 1), (-1, 1)))"
    )
    bad = make_arrangement(2, [(1, 0), (0, 1), (2, 1)])
    assert repr(is_crystallographic(bad)) == (
        "CrystallographicReport(verdict=False, witness=(1, (1, 0), (Fraction(1, 2), Fraction(1, 2))))"
    )


def test_equal_records_compare_and_hash_equal():
    a, b = catalog("A_3"), catalog("A_3")
    assert a is not b and a == b and hash(a) == hash(b)
    f, g = fan_from_arrangement(a), fan_from_arrangement(b)
    assert f == g and hash(f) == hash(g)
    assert a.chambers == b.chambers and hash(a.chambers) == hash(b.chambers)
    assert check_properties(f) != check_properties(fan_from_arrangement(catalog("B_3")))
    c2 = fan_from_arrangement(catalog("A_2"))
    assert circular_graph(c2) == circular_graph(c2)
    assert {catalog("A_2"), catalog("A_2"), catalog("B_2")} == {catalog("A_2"), catalog("B_2")}


def test_record_fields_are_read_only():
    a = catalog("A_2")
    f = fan_from_arrangement(a)
    records = [
        (a, "rank"), (a.chambers[0], "index"), (f, "rays"), (check_properties(f), "smooth"),
        (circular_graph(f), "weights"), (flat_from_constraints(2, [(1, 0)]), "basis"),
    ]
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, None)


def test_tables_are_cached_per_instance():
    a = catalog("A_3")
    assert a.chambers is a.chambers
    assert a.ray_signs is a.ray_signs
    f = fan_from_arrangement(a)
    assert fan_from_arrangement(a) is f
    assert f.walls is f.walls
    assert f.normals is f.normals
    assert f.properties is f.properties
    # an equal record built separately has its own tables
    assert catalog("A_3").chambers is not a.chambers


# an octant, a plane cone and a ray: maximal cones of three dimensions
IMPORTED = """{"rank": 3, "rays": [[-1, 0, 0], [0, -1, 0], [0, 0, -1], [0, 0, 1], [0, 1, 0],
              [1, 0, 0]], "max_cones": [[3, 4, 5], [0, 1], [2]]}"""


@pytest.mark.parametrize("name", LADDER + ("imported",))
def test_face_table_holds_each_faces_star(name):
    # the name predates `fan_faces` computing the faces directly: they are the
    # subsets of the maximal cones, in (dimension, indices) order
    f = load_fan(IMPORTED) if name == "imported" else fan_from_arrangement(catalog(name))
    subsets = {s for c in f.max_cones for k in range(len(c) + 1)
               for s in itertools.combinations(c, k)}
    assert fan_faces(f) == tuple(sorted(subsets, key=lambda c: (len(c), c)))
