"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
All comparisons are exact; no tolerances appear anywhere.
"""
import functools
from fractions import Fraction

from arrfan import intlinalg as la
from arrfan.arrangement import (
    catalog,
    enumerate_chambers,
    is_crystallographic,
    make_arrangement,
)
from arrfan.fan import (
    check_properties,
    fan_faces,
    fan_from_arrangement,
    make_fan,
    roots_from_fan,
)
from arrfan.fanmaps import insert_hyperplane, restrict_fan, star_fan, star_subdivide
from arrfan.polytope import build_polytope, phi_certificate, verify_normal_fan
from arrfan.poset import intersection_poset, parabolic_arrangement
from arrfan.surface import (
    circular_graph,
    desingularize,
    symmetrize,
    triangulation_to_weights,
    triangulations,
    verify_weight_identity,
    weights_to_fan,
    y_divisor_class,
)

from oracles import equal_up_to_rotation, ref_build_polytope

CATALANS = {3: 1, 4: 2, 5: 5, 6: 14, 7: 42, 8: 132, 9: 429, 10: 1430}
CHAMBER_COUNTS = {"A_2": 6, "A_3": 24, "A_4": 120, "B_3": 48, "B_4": 384, "D_4": 192}


def criterion(number, description):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                fn()
            except BaseException:
                print(f"FAIL criterion {number}: {description}")
                raise
            print(f"PASS criterion {number}: {description}")

        return wrapper

    return deco


def _ngon_arrangements(max_t):
    out = []
    for t in range(3, max_t + 1):
        for diag in triangulations(t):
            half = triangulation_to_weights(t, diag)
            out.append(roots_from_fan(weights_to_fan(half + half)))
    return out


def _classical_names(max_rank):
    return [
        f"{letter}_{r}"
        for letter in "ABCD"
        for r in range(2, max_rank + 1)
    ]


@criterion(1, "round trip and fan properties for the whole catalog")
def test_criterion_1_round_trip():
    instances = [(name, catalog(name)) for name in _classical_names(4)]
    instances += [("ngon", a) for a in _ngon_arrangements(8)]
    for name, a in instances:
        f = fan_from_arrangement(a)
        props = check_properties(f)
        assert props.smooth and props.complete and props.strongly_symmetric, name
        assert roots_from_fan(f) == a, name
        if name in CHAMBER_COUNTS:
            assert len(enumerate_chambers(a)) == CHAMBER_COUNTS[name], name


@criterion(2, "crystallographic integrality equals fan smoothness")
def test_criterion_2_crystallographic_iff_smooth():
    bad = make_arrangement(2, [(1, 0), (0, 1), (2, 1)])
    report = is_crystallographic(bad)
    assert not report.verdict
    _, _, coords = report.witness
    assert any(abs(c) == Fraction(1, 2) for c in coords)
    props = check_properties(fan_from_arrangement(bad))
    assert not props.smooth
    assert abs(la.det(props.failure_witness["cone"])) == 2

    for name in _classical_names(4):
        a = catalog(name)
        assert is_crystallographic(a).verdict, name
        assert check_properties(fan_from_arrangement(a)).smooth, name


@criterion(3, "surface weight sequences match the published values")
def test_criterion_3_surface_weights():
    g = circular_graph(fan_from_arrangement(catalog("A_2")))
    assert equal_up_to_rotation(g.weights, (-1,) * 6)

    f2 = make_fan(
        2,
        [[(1, 0), (0, 1)], [(0, 1), (-1, 2)], [(-1, 2), (0, -1)], [(0, -1), (1, 0)]],
    )
    tilde = desingularize(symmetrize(f2))
    assert equal_up_to_rotation(
        circular_graph(tilde).weights, (-1, -2, -1, -2, -1, -2, -1, -2)
    )

    quad = fan_from_arrangement(make_arrangement(2, [(1, 0), (0, 1)]))
    assert equal_up_to_rotation(circular_graph(quad).weights, (0, 0, 0, 0))


@criterion(4, "triangulation weights satisfy both matrix identities, Catalan counts")
def test_criterion_4_weight_identities():
    for t in range(3, 11):
        tris = triangulations(t)
        assert len(tris) == CATALANS[t]
        for diag in tris:
            half = triangulation_to_weights(t, diag)
            assert verify_weight_identity(half, "half")
            assert verify_weight_identity(half + half, "full")


@criterion(5, "vertex polytopes: pairwise condition, symmetry, normal directions")
def test_criterion_5_polytope():
    p = build_polytope(catalog("A_2"))
    assert set(p.doubled_vertices) == {(2, 2), (-2, -2), (2, 0), (-2, 0), (0, 2), (0, -2)}
    instances = [catalog(n) for n in _classical_names(3)]
    instances += _ngon_arrangements(8)
    for a in instances:
        poly = build_polytope(a)
        assert ref_build_polytope(a) == poly  # pairwise vertex condition checked inside
        assert {la.vec_neg(v) for v in poly.doubled_vertices} == set(poly.doubled_vertices)
        assert verify_normal_fan(poly, fan_from_arrangement(a))


@criterion(6, "embedding certificates: all-ones Smith form, distinct sign vectors")
def test_criterion_6_embedding():
    instances = [catalog(n) for n in _classical_names(3)]
    instances += _ngon_arrangements(8)
    for a in instances:
        cert = phi_certificate(a)  # distinctness and preimages checked inside
        assert cert.invariant_factors == (1,) * a.rank


@criterion(7, "stars and restrictions stay smooth and strongly symmetric")
def test_criterion_7_star_restriction_closure():
    for name in ("A_3", "B_3"):
        a = catalog(name)
        f = fan_from_arrangement(a)
        for face in fan_faces(f):
            st = star_fan(f, face)
            props = check_properties(st)
            assert props.smooth and props.complete
            assert props.centrally_symmetric and props.strongly_symmetric
            if 0 < len(face) < a.rank:
                assert parabolic_arrangement(a, face) == roots_from_fan(st)
        for flat in intersection_poset(a).flats:
            sub = restrict_fan(f, flat.basis)
            props = check_properties(sub)
            assert props.smooth and props.complete
            assert props.centrally_symmetric and props.strongly_symmetric


@criterion(8, "line divisor classes: unit pairings and zero self-intersection")
def test_criterion_8_divisor_formula():
    g = circular_graph(fan_from_arrangement(catalog("A_2")))
    cls, self_int = y_divisor_class(g)
    assert cls.coefficients == (0, 1, 1, 0, 0, 0) and self_int == 0
    from arrfan.surface import intersection_numbers

    for t in range(3, 11):
        for diag in triangulations(t):
            half = triangulation_to_weights(t, diag)
            graph = circular_graph(weights_to_fan(half + half))
            cls, self_int = y_divisor_class(graph)  # pairings verified inside
            assert self_int == 0
            inter = intersection_numbers(graph)
            pairings = [
                sum(cls.coefficients[mu] * row[mu] for mu in range(len(row)))
                for row in inter
            ]
            for nu, value in enumerate(pairings):
                assert value == (1 if nu in (0, t) else 0)


@criterion(9, "single-hyperplane insertions certify as 2-face subdivisions")
def test_criterion_9_blowup_certificates():
    a11 = make_arrangement(2, [(1, 0), (0, 1)])
    f, cert = insert_hyperplane(a11, (1, 1))
    assert f == fan_from_arrangement(catalog("A_2"))
    assert {e.new_ray for e in cert.entries} == {(1, -1), (-1, 1)}
    for e in cert.entries:
        assert e.new_ray == la.vec_add(e.ray_a, e.ray_b)

    f2, cert2 = insert_hyperplane(catalog("A_2"), (1, 2))
    assert f2 == fan_from_arrangement(catalog("B_2"))
    assert {e.new_ray for e in cert2.entries} == {(2, -1), (-2, 1)}
    for e in cert2.entries:
        assert e.new_ray == la.vec_add(e.ray_a, e.ray_b)


@criterion(10, "opposite double subdivision is centrally but not strongly symmetric")
def test_criterion_10_counterexample():
    a = make_arrangement(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    f = fan_from_arrangement(a)
    idx = {v: i for i, v in enumerate(f.rays)}
    f = star_subdivide(f, tuple(sorted((idx[(1, 0, 0)], idx[(0, 1, 0)], idx[(0, 0, 1)]))))
    idx = {v: i for i, v in enumerate(f.rays)}
    f = star_subdivide(
        f, tuple(sorted((idx[(-1, 0, 0)], idx[(0, -1, 0)], idx[(0, 0, -1)])))
    )
    props = check_properties(f)
    assert props.centrally_symmetric is True
    assert props.strongly_symmetric is False
