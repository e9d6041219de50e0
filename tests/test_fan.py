import functools
import itertools
import json
import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from arrfan import intlinalg as la
from arrfan.arrangement import catalog, is_crystallographic, make_arrangement
from arrfan.errors import (
    BadReferenceError,
    CertificationError,
    InputFormatError,
    MalformedFanError,
    NotCompleteError,
    NotCrystallographicError,
    NotSimplicialError,
    NotSmoothError,
    NotStronglySymmetricError,
)
from arrfan.fan import (
    Fan,
    PropertyReport,
    _cone_h_rep,
    _pairwise_overlap,
    check_properties,
    fan_faces,
    fan_from_arrangement,
    fan_to_json,
    load_fan,
    make_fan,
    roots_from_fan,
)
from arrfan.fanmaps import (
    fan_automorphisms,
    insert_hyperplane,
    restrict_fan,
    star_fan,
    star_subdivide,
)
from arrfan.polytope import build_polytope, verify_normal_fan
from arrfan.poset import intersection_poset, restricted_arrangement

from oracles import (
    catalan,
    ref_check_properties,
    ref_cone_h_rep,
    ref_extreme_rays,
    ref_fan_automorphisms,
    ref_fan_from_arrangement,
    ref_insert_hyperplane,
    ref_insert_hyperplane_by_signs,
    ref_overlapping_pair,
    ref_restrict_fan,
    ref_restrict_fan_by_faces,
    ref_roots_from_fan,
    unchecked_fan,
)
from test_arrangement import _small_arrangements

LADDER = ("A_2", "A_3", "A_4", "B_2", "B_3", "B_4", "C_3", "D_4", "ngon:8:77", "ngon:10:1000")


def _ray_index(f, v):
    return f.rays.index(tuple(v))


def _cone_of(f, *vectors):
    return tuple(sorted(_ray_index(f, v) for v in vectors))


def p2_fan():
    return make_fan(2, [[(1, 0), (0, 1)], [(0, 1), (-1, -1)], [(-1, -1), (1, 0)]])


def counterexample_fan():
    """Octant fan with two opposite maximal cones star-subdivided."""
    a = make_arrangement(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    f = fan_from_arrangement(a)
    f = star_subdivide(f, _cone_of(f, (1, 0, 0), (0, 1, 0), (0, 0, 1)))
    return star_subdivide(f, _cone_of(f, (-1, 0, 0), (0, -1, 0), (0, 0, -1)))


def test_fan_from_arrangement_examples():
    f11 = fan_from_arrangement(make_arrangement(2, [(1, 0), (0, 1)]))
    assert set(f11.rays) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    assert len(f11.max_cones) == 4

    f = fan_from_arrangement(catalog("A_2"))
    assert len(f.rays) == 6 and len(f.max_cones) == 6
    assert set(f.rays) == {(1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)}

    fb = fan_from_arrangement(catalog("B_2"))
    assert len(fb.rays) == 8 and len(fb.max_cones) == 8
    assert set(fb.rays) == {
        (1, 0), (0, 1), (-1, 1), (-2, 1), (-1, 0), (0, -1), (1, -1), (2, -1),
    }


def test_check_properties_a2():
    props = check_properties(fan_from_arrangement(catalog("A_2")))
    assert props.smooth and props.complete
    assert props.centrally_symmetric and props.strongly_symmetric
    assert props.hyperplanes == ((0, 1), (1, 0), (1, 1))


def test_check_properties_non_smooth():
    bad = make_arrangement(2, [(1, 0), (0, 1), (2, 1)])
    props = check_properties(fan_from_arrangement(bad))
    assert props.complete and props.strongly_symmetric and not props.smooth
    cone = props.failure_witness["cone"]
    assert abs(la.det(cone)) == 2


def test_check_properties_p2():
    props = check_properties(p2_fan())
    assert props.smooth and props.complete
    assert not props.centrally_symmetric and not props.strongly_symmetric


def test_check_properties_counterexample():
    props = check_properties(counterexample_fan())
    assert props.smooth and props.complete
    assert props.centrally_symmetric
    assert not props.strongly_symmetric


def test_incomplete_fan():
    f = make_fan(2, [[(1, 0), (0, 1)]])
    props = check_properties(f)
    assert props.smooth and not props.complete and not props.strongly_symmetric


def test_strongly_symmetric_implies_complete_and_central():
    fans = [
        fan_from_arrangement(catalog("A_2")),
        fan_from_arrangement(catalog("B_3")),
        fan_from_arrangement(make_arrangement(2, [(1, 0), (0, 1), (2, 1)])),
    ]
    for f in fans:
        props = check_properties(f)
        if props.strongly_symmetric:
            assert props.complete and props.centrally_symmetric


def test_roots_from_fan_round_trip():
    for name in ("A_2", "B_2", "C_2", "A_3", "B_3", "D_3"):
        a = catalog(name)
        f = fan_from_arrangement(a)
        assert roots_from_fan(f) == a
        assert fan_from_arrangement(roots_from_fan(f)) == f


def test_roots_from_fan_rejections():
    with pytest.raises(NotStronglySymmetricError):
        roots_from_fan(p2_fan())
    bad = make_arrangement(2, [(1, 0), (0, 1), (2, 1)])
    with pytest.raises(NotSmoothError):
        roots_from_fan(fan_from_arrangement(bad))


def test_chamber_rebuild_from_reported_hyperplanes():
    # the closed chambers of the reported hyperplane set give back the cone set
    from arrfan.surface import symmetrize

    f2 = make_fan(2, [[(1, 0), (0, 1)], [(0, 1), (-1, 2)], [(-1, 2), (0, -1)], [(0, -1), (1, 0)]])
    fans = [
        fan_from_arrangement(catalog("A_2")),
        fan_from_arrangement(catalog("B_3")),
        symmetrize(f2),  # strongly symmetric but singular
    ]
    for f in fans:
        props = check_properties(f)
        assert props.strongly_symmetric
        rebuilt = fan_from_arrangement(make_arrangement(f.rank, props.hyperplanes))
        assert rebuilt == f


def test_star_fan_basics():
    f = fan_from_arrangement(catalog("A_2"))
    assert star_fan(f, ()) == f
    st = star_fan(f, (_ray_index(f, (1, 0)),))
    assert st.rank == 1 and len(st.max_cones) == 2
    assert check_properties(st).complete

    b3 = fan_from_arrangement(catalog("B_3"))
    two_cone = next(c for c in fan_faces(b3) if len(c) == 2)
    st2 = star_fan(b3, two_cone)
    assert st2.rank == 1 and len(st2.max_cones) == 2

    with pytest.raises(BadReferenceError):
        star_fan(f, (0, 5))


def test_star_fans_stay_strongly_symmetric():
    for name in ("A_2", "A_3", "B_3"):
        f = fan_from_arrangement(catalog(name))
        for face in fan_faces(f):
            assert check_properties(star_fan(f, face)).strongly_symmetric


def test_star_central_symmetry_characterization():
    # strongly symmetric <=> all stars at codimension-2 cones centrally symmetric
    for name in ("A_3", "B_3"):
        f = fan_from_arrangement(catalog(name))
        for face in fan_faces(f):
            if len(face) == f.rank - 2:
                assert check_properties(star_fan(f, face)).centrally_symmetric
    g = counterexample_fan()
    codim2 = [c for c in fan_faces(g) if len(c) == 1]
    assert any(
        not check_properties(star_fan(g, c)).centrally_symmetric for c in codim2
    )


def test_crystallographic_iff_smooth():
    cases = [
        catalog("A_2"),
        catalog("B_2"),
        catalog("A_3"),
        make_arrangement(2, [(1, 0), (0, 1), (2, 1)]),
        make_arrangement(2, [(1, 0), (0, 1), (3, 1), (1, 1)]),
    ]
    for a in cases:
        assert (
            is_crystallographic(a).verdict
            == check_properties(fan_from_arrangement(a)).smooth
        )


def test_restrict_fan():
    f = fan_from_arrangement(catalog("B_2"))
    assert restrict_fan(f, la.identity(2)) == f
    line = restrict_fan(f, [(1, 0)])
    assert line.rank == 1 and check_properties(line).complete

    a3 = catalog("A_3")
    f3 = fan_from_arrangement(a3)
    for cov in a3.positive_covectors:
        e = la.kernel_basis([cov])
        sub = restrict_fan(f3, e)
        props = check_properties(sub)
        assert sub.rank == 2
        assert props.smooth and props.strongly_symmetric and props.complete

    with pytest.raises(BadReferenceError):
        restrict_fan(f, [(1, 1)])  # not a span of any cone


def test_insert_hyperplane_examples():
    a11 = make_arrangement(2, [(1, 0), (0, 1)])
    f, cert = insert_hyperplane(a11, (1, 1))
    assert f == fan_from_arrangement(catalog("A_2"))
    assert {e.new_ray for e in cert.entries} == {(1, -1), (-1, 1)}
    for e in cert.entries:
        assert e.new_ray == la.vec_add(e.ray_a, e.ray_b)

    a2 = catalog("A_2")
    f2, cert2 = insert_hyperplane(a2, (1, 2))
    assert f2 == fan_from_arrangement(catalog("B_2"))
    assert {e.new_ray for e in cert2.entries} == {(2, -1), (-2, 1)}

    with pytest.raises(BadReferenceError):
        insert_hyperplane(a2, (1, 1))
    with pytest.raises(NotCrystallographicError):
        insert_hyperplane(a2, (3, 1))


def test_insert_hyperplane_rank3():
    a3 = catalog("A_3")
    f, cert = insert_hyperplane(a3, (1, 0, 1))
    assert len(cert.entries) > 0
    for e in cert.entries:
        assert e.new_ray == la.vec_add(e.ray_a, e.ray_b)
    bigger = make_arrangement(3, a3.positive_covectors + ((1, 0, 1),))
    assert f == fan_from_arrangement(bigger)
    assert roots_from_fan(f) == bigger


@pytest.mark.parametrize(
    "base, h",
    [
        ("A_1xA_1", (1, 1)),
        ("A_2", (1, 2)),
        ("A_2", (1, 1)),
        ("A_2", (3, 1)),
        ("A_3", (1, 0, 1)),
        ("B_3", (1, 0, 1)),
        ("D_4", (2, 2, 1, 1)),
    ],
)
def test_insert_hyperplane_matches_reference(base, h):
    """The predicted blowup equals the pieces found by scanning the fan."""
    a = make_arrangement(2, [(1, 0), (0, 1)]) if base == "A_1xA_1" else catalog(base)
    assert _outcome(insert_hyperplane, a, h) == _outcome(ref_insert_hyperplane, a, h)


def _reinsertion_corpus():
    """Each covector of the small root systems and ngons, removed and put back."""
    names = ["A_2", "B_2", "A_3", "B_3", "C_3", "D_4", "A_4", "B_4", "C_4"]
    names += [f"ngon:{t}:{i}" for t in range(3, 9) for i in range(min(10, catalan(t - 2)))]
    for name in names:
        a = catalog(name)
        for c in a.positive_covectors:
            yield name, make_arrangement(a.rank, [v for v in a.positive_covectors if v != c]), c


def _outcome_and_message(fn, *args):
    try:
        return fn(*args)
    except Exception as e:  # the exception type and text are the outcome being compared
        return type(e), str(e)


def test_reinsertion_matches_both_oracles():
    """Removing a covector and inserting it again gives the fan scan's outcome
    and, message included, the sign-vector pieces' outcome."""
    cases = list(_reinsertion_corpus())
    assert len(cases) == 331
    succeeded = 0
    for name, a, c in cases:
        out = _outcome_and_message(insert_hyperplane, a, c)
        assert out == _outcome_and_message(ref_insert_hyperplane_by_signs, a, c), (name, c)
        ref = _outcome(ref_insert_hyperplane, a, c)
        assert (out[0] if isinstance(out[0], type) else out) == ref, (name, c)
        succeeded += not isinstance(out[0], type)
    assert succeeded > 50


def _enlarged_with_chambers(monkeypatch, edit):
    """Make `insert_hyperplane` see the enlarged arrangement's chambers as `edit` leaves them."""
    from arrfan import arrangement

    build = arrangement.make_arrangement

    def tampered(rank, covectors):
        a2 = build(rank, covectors)
        vars(a2)["chambers"] = edit(a2.chambers)
        return a2

    monkeypatch.setattr(arrangement, "make_arrangement", tampered)


def test_insert_hyperplane_rejects_a_missing_chamber(monkeypatch):
    a = catalog("A_3")
    _enlarged_with_chambers(monkeypatch, lambda chambers: chambers[1:])
    with pytest.raises(CertificationError, match="not the enlarged arrangement's"):
        insert_hyperplane(a, (1, 0, 1))


def test_insert_hyperplane_rejects_a_cut_with_two_positive_rays():
    """A cut chamber must have one ray on each side; here one of A_3's has two
    on the positive side, which no crystallographic enlargement allows."""
    a, h = catalog("A_3"), (1, 0, 1)
    assert is_crystallographic(a).verdict
    chambers = list(a.chambers)
    for j, k in enumerate(chambers):
        vals = [la.vec_dot(h, g) for g in k.rays]
        if min(vals) < 0 < max(vals):
            assert vals.count(0) == 1
            plus = k.rays[vals.index(max(vals))]
            rays = [la.vec_add(g, plus) if x == 0 else g for g, x in zip(k.rays, vals)]
            chambers[j] = k._replace(rays=tuple(sorted(rays)))
            break
    vars(a)["chambers"] = tuple(chambers)
    with pytest.raises(CertificationError, match="unexpected subdivision pattern"):
        insert_hyperplane(a, h)


@pytest.mark.parametrize("name", ["A_3", "B_3", "D_4"])
def test_restrict_fan_matches_reference(name):
    """One solve per ray gives the face-lattice search's fan or error on every flat."""
    f = fan_from_arrangement(catalog(name))
    subspaces = [flat.basis for flat in intersection_poset(catalog(name)).flats]
    if name == "A_3":
        subspaces += [[(1, 1, 0)], [(1, 2, 0)]]
    for rows in subspaces:
        out = _outcome(restrict_fan, f, rows)
        assert out == _outcome(ref_restrict_fan, f, rows), rows
        if isinstance(out, Fan) and out.rank:
            # the normals read on the subspace equal one dual_rays per restricted cone
            assert out.normals == Fan(*out).normals, rows


def _restriction_rows(a, f, rng):
    """Rows spanning the flats of `a` and seeded row sets: spans of random
    integer combinations of a cone's rays, which are flats, and random rows,
    which mostly are not."""
    rows = [flat.basis for flat in intersection_poset(a).flats]
    for _ in range(10):
        cone = f.cone_vectors(rng.choice(f.max_cones))
        face = rng.sample(cone, rng.randint(1, a.rank))
        rows.append([la.vec_mat([rng.randint(-2, 2) for _ in face], face)
                     for _ in range(rng.randint(1, len(face)))])
        rows.append([tuple(rng.randint(-2, 2) for _ in range(a.rank))
                     for _ in range(rng.randint(0, a.rank))])
    return rows


@pytest.mark.parametrize("name", ["A_2", "A_3", "A_4", "A_5", "B_3", "B_4", "C_3", "C_4",
                                  "D_4", "D_5", "ngon:8:77", "ngon:10:1000"])
def test_restrict_fan_is_the_face_restriction(name):
    """The chamber fan of the restricted arrangement is the fan of the cones
    inside the subspace, read on its Hermite basis with their facet normals,
    or both raise the same error: on every flat, on seeded cone spans and on
    seeded row sets that span no cone."""
    import random

    a = catalog(name)
    f = fan_from_arrangement(a)
    outcomes = []
    for rows in _restriction_rows(a, f, random.Random(name)):
        out, ref = _outcome(restrict_fan, f, rows), _outcome(ref_restrict_fan_by_faces, f, rows)
        assert out == ref, rows
        if isinstance(out, Fan) and out.rank:
            assert out.normals == ref.normals, rows
        outcomes.append(out if isinstance(out, type) else out.rank)
    assert BadReferenceError in outcomes and len(set(outcomes)) > 2


def test_rank1_round_trip():
    r1 = make_arrangement(1, [(1,)])
    f1 = fan_from_arrangement(r1)
    props = check_properties(f1)
    assert props.smooth and props.complete and props.strongly_symmetric
    assert props.hyperplanes == ((1,),)
    assert roots_from_fan(f1) == r1


def test_star_fan_of_singular_fan():
    from arrfan.surface import symmetrize

    f2 = make_fan(
        2, [[(1, 0), (0, 1)], [(0, 1), (-1, 2)], [(-1, 2), (0, -1)], [(0, -1), (1, 0)]]
    )
    sy = symmetrize(f2)
    assert not check_properties(sy).smooth
    for i in range(len(sy.rays)):
        st = star_fan(sy, (i,))
        assert st.rank == 1 and check_properties(st).complete


def test_fan_automorphisms():
    f11 = fan_from_arrangement(make_arrangement(2, [(1, 0), (0, 1)]))
    assert len(fan_automorphisms(f11)) == 8
    # signed coordinate permutations realize the rank-3 cross symmetries
    cross = fan_from_arrangement(make_arrangement(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]))
    assert len(fan_automorphisms(cross)) == 48
    f = fan_from_arrangement(catalog("A_2"))
    autos = fan_automorphisms(f)
    assert len(autos) == 12
    minus = ((-1, 0), (0, -1))
    assert minus in autos
    ident = ((1, 0), (0, 1))
    assert ident in autos

    for name in ("A_3", "B_3"):
        g = fan_from_arrangement(catalog(name))
        auts = fan_automorphisms(g)
        neg = tuple(tuple(-int(i == j) for j in range(3)) for i in range(3))
        assert neg in auts

    with pytest.raises(NotCompleteError):
        fan_automorphisms(make_fan(2, [[(1, 0), (0, 1)]]))


def test_load_fan_validation():
    f = fan_from_arrangement(catalog("A_2"))
    import json

    assert load_fan(json.dumps(fan_to_json(f))) == f
    with pytest.raises(InputFormatError):
        load_fan(b'{"rank":2,"rays":[[1,0],[0,1]],"max_cones":[[0,2]]}')
    with pytest.raises(InputFormatError):
        load_fan(b'{"rank":2,"rays":[[1,0],[0,1],[1,1]],"max_cones":[[0,1]]}')  # unused ray
    with pytest.raises(InputFormatError):
        load_fan(b'{"rank":2,"rays":[[1,0],[0,1]],"max_cones":[[0,1],[0]]}')  # nested cone
    with pytest.raises(NotSimplicialError):
        load_fan(b'{"rank":2,"rays":[[0,1],[1,0],[1,1]],"max_cones":[[0,1,2]]}')
    # overlapping cones: (1,1) interior to the first quadrant
    with pytest.raises(MalformedFanError):
        load_fan(b'{"rank":2,"rays":[[0,1],[1,0],[1,1]],"max_cones":[[0,1],[1,2]]}')


def test_face_checks_on_lower_dimensional_cones():
    f = make_fan(2, [[(1, 0)], [(0, 1)]])
    assert f.max_cones == ((0,), (1,))
    g = make_fan(3, [[(1, 0, 0), (0, 1, 0)], [(1, 0, 0), (0, 0, 1)]])
    assert len(g.max_cones) == 2
    with pytest.raises(MalformedFanError):
        make_fan(3, [[(1, 0, 0), (0, 1, 0)], [(1, 1, 0), (1, -1, 0)]])
    mixed = make_fan(2, [[(1, 0), (0, 1)], [(-1, -1)]])
    assert ((1, 2) in mixed.max_cones) or ((0, 1) in mixed.max_cones)
    with pytest.raises(MalformedFanError):
        make_fan(2, [[(1, 0), (0, 1)], [(1, 2)]])


def test_listed_face_of_another_cone_is_rejected():
    octant = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    mixed = [octant, [(-1, 0, 0), (0, -1, 0)], [(0, 0, -1)]]
    f = make_fan(3, mixed + [octant[::-1]])  # a repeat is merged
    assert sorted(len(c) for c in f.max_cones) == [1, 2, 3]
    for face in ([(0, 1, 0), (0, 0, 1)], [(1, 0, 0)], [(-1, 0, 0)]):
        with pytest.raises(InputFormatError):
            make_fan(3, mixed + [face])


def test_fan_faces():
    f = fan_from_arrangement(catalog("A_2"))
    faces = fan_faces(f)
    assert faces[0] == ()
    assert len([c for c in faces if len(c) == 1]) == 6
    assert len([c for c in faces if len(c) == 2]) == 6
    assert len(faces) == 13


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as e:  # the exception type is the outcome being compared
        return type(e)


def _assert_matches_reference(f, autos=True):
    assert check_properties(f) == ref_check_properties(f)
    assert _outcome(roots_from_fan, f) == _outcome(ref_roots_from_fan, f)
    for face in fan_faces(f):
        gens = f.cone_vectors(face)
        assert _cone_h_rep(gens, la.dual_rays(gens), f.rank) == ref_cone_h_rep(gens, f.rank)
    if autos:
        assert _outcome(fan_automorphisms, f) == _outcome(ref_fan_automorphisms, f)


def _count_calls(monkeypatch, name):
    """The argument tuples of every call of the intlinalg function `name`."""
    calls = []
    fn = getattr(la, name)
    monkeypatch.setattr(la, name, lambda *args: calls.append(args) or fn(*args))
    return calls


@pytest.mark.parametrize("name", LADDER)
def test_fan_routines_match_reference_on_ladder(name, monkeypatch):
    """The chamber fan read off the walk equals the `make_fan` path, normals
    and properties included, and gives the former Fraction and per-facet results.

    The automorphism search is compared up to rank 3 and on A_4 and the
    ngons; the Fraction search alone takes several seconds on B_4 and D_4.
    Loading the complete fan and recovering its roots runs no double
    description and no Smith form, and inverts each cone exactly once: the
    fan's normal table serves both the covering check and the properties.
    """
    a = catalog(name)
    f = fan_from_arrangement(a)
    assert (f, f.normals, check_properties(f)) == ref_fan_from_arrangement(a)
    _assert_matches_reference(f, autos=name not in ("B_4", "D_4"))
    assert roots_from_fan(f) == a
    calls = {n: _count_calls(monkeypatch, n) for n in ("extreme_rays", "scaled_inverse", "snf")}
    loaded = load_fan(json.dumps(fan_to_json(f)))
    assert loaded == f and roots_from_fan(loaded) == a
    assert calls["extreme_rays"] == [] and calls["snf"] == []
    inverted = sorted(tuple(map(tuple, args[0])) for args in calls["scaled_inverse"])
    assert inverted == sorted(f.cone_vectors(c) for c in f.max_cones)
    if len(f.max_cones) <= 48:
        assert ref_overlapping_pair(f) is None


@settings(max_examples=150, deadline=None, database=None)
@given(_small_arrangements())
def test_fan_routines_match_reference_on_random_arrangements(a):
    try:
        f = fan_from_arrangement(a)
    except NotSimplicialError:
        return
    assert (f, f.normals, check_properties(f)) == ref_fan_from_arrangement(a)
    _assert_matches_reference(f, autos=len(f.max_cones) <= 48)


def _refuse(*args):
    raise AssertionError("called")


@pytest.mark.parametrize("name", ["B_3", "A_4"])
def test_chamber_fan_certificates_invert_nothing(name, monkeypatch):
    """The chamber fan, its properties, its normal-fan certificate, its roots
    and its restrictions to flats all read the walk's wall covectors: no
    `scaled_inverse` and no `rank` runs once the chambers are known."""
    a = catalog(name)
    flats = [e for e in intersection_poset(a).flats if 0 < e.dim < a.rank]
    polytope = build_polytope(a)
    expected = [restricted_arrangement(catalog(name), e) for e in flats]
    monkeypatch.setattr(la, "scaled_inverse", _refuse)
    monkeypatch.setattr(la, "rank", _refuse)
    f = fan_from_arrangement(a)
    assert check_properties(f).smooth
    assert verify_normal_fan(polytope, f)
    assert roots_from_fan(f) == a
    assert [restricted_arrangement(a, e) for e in flats] == expected


def test_imported_fan_runs_the_covering_test_once(monkeypatch):
    """load_fan's validation and roots_from_fan's verdict share one covering test."""
    text = json.dumps(fan_to_json(fan_from_arrangement(catalog("A_4"))))
    runs = []
    covering = Fan.overlap.func
    counted = functools.cached_property(lambda f: runs.append(f) or covering(f))
    counted.__set_name__(Fan, "overlap")
    monkeypatch.setattr(Fan, "overlap", counted)
    f = load_fan(text)
    assert roots_from_fan(f) == catalog("A_4")
    assert len(runs) == 1 and runs[0] is f


def test_restricting_to_every_flat_walks_no_chamber():
    """The restricted arrangement is read off the traces: neither the chambers
    nor the chamber fan of the ambient arrangement is built."""
    a = catalog("D_5")
    for e in intersection_poset(a).flats[1:]:  # every flat but the zero flat
        restricted_arrangement(a, e)
    assert "chambers" not in vars(a) and "fan" not in vars(a)


@st.composite
def _cone_lists(draw):
    """2-4 random cones of rank 2 or 3, full-dimensional or one short, entries in [-2, 2]."""
    r = draw(st.integers(2, 3))
    vec = st.tuples(*[st.integers(-2, 2)] * r).filter(any).map(la.primitive)
    size = st.integers(r - 1, r)
    return r, draw(st.lists(size.flatmap(lambda k: st.lists(vec, min_size=k, max_size=k)),
                            min_size=2, max_size=4))


@settings(max_examples=200, deadline=None, database=None)
@given(_cone_lists())
def test_face_check_matches_reference_on_random_cones(data):
    rank, cones = data
    checked = _outcome(make_fan, rank, cones)
    assume(checked not in (InputFormatError, NotSimplicialError))
    f = unchecked_fan(rank, cones)
    assert (checked is MalformedFanError) == (ref_overlapping_pair(f) is not None)
    if checked is not MalformedFanError:
        assert checked == f


def _without_cone(name, i):
    f = fan_from_arrangement(catalog(name))
    return [f.cone_vectors(c) for k, c in enumerate(f.max_cones) if k != i]


# fans that are not pseudomanifolds, so that the pairwise check decides them:
# (rank, cones) as in the malformed-fan tests above and the benchmark's inputs
_PAIRWISE_CASES = {
    "A_3 less a cone": (3, _without_cone("A_3", 0)),
    "B_3 less a cone": (3, _without_cone("B_3", 7)),
    "overlapping quadrant": (2, [[(0, 1), (1, 0)], [(1, 0), (1, 1)]]),
    "square and a chord": (2, [[(1, 0), (0, 1)], [(0, 1), (-1, 0)], [(-1, 0), (0, -1)],
                               [(0, -1), (1, 0)], [(1, 1), (-1, 0)]]),
    "two rays": (2, [[(1, 0)], [(0, 1)]]),
    "two quarter planes": (3, [[(1, 0, 0), (0, 1, 0)], [(1, 0, 0), (0, 0, 1)]]),
    "crossing quarter planes": (3, [[(1, 0, 0), (0, 1, 0)], [(1, 1, 0), (1, -1, 0)]]),
    "quadrant and a ray": (2, [[(1, 0), (0, 1)], [(-1, -1)]]),
    "ray inside a quadrant": (2, [[(1, 0), (0, 1)], [(1, 2)]]),
    "one-sided": (3, [[(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(1, 0, 0), (0, 1, 0), (-1, 0, 1)]]),
}


@pytest.mark.parametrize("case", _PAIRWISE_CASES)
def test_pairwise_check_matches_one_double_description_per_pair(case, monkeypatch):
    rank, cones = _PAIRWISE_CASES[case]
    f = unchecked_fan(rank, cones)
    assert f.overlap == ()
    calls = _count_calls(monkeypatch, "extreme_rays")
    inverses = _count_calls(monkeypatch, "dual_rays")
    pair = _pairwise_overlap(f)
    n, described = len(f.max_cones), len(calls)
    # each cone's rows are its row of f.normals: the one inverse per double
    # description is its own base's
    assert len(inverses) == described
    assert pair == ref_overlapping_pair(f)
    if case == "A_3 less a cone":  # 176 of the 253 pairs need no double description
        assert described == n * (n - 1) // 2 - 176


def test_make_fan_inverts_each_listed_cone_once(monkeypatch):
    """The simplicial check is the normal table: one `dual_rays` per cone, which
    the covering test and the properties read again without inverting."""
    cones = [k.rays for k in catalog("B_3").chambers]
    calls = _count_calls(monkeypatch, "dual_rays")
    f = make_fan(3, cones + cones[:5])
    assert sorted(tuple(map(tuple, args[0])) for args in calls) == sorted(
        f.cone_vectors(c) for c in f.max_cones
    )
    assert check_properties(f).strongly_symmetric and len(calls) == len(f.max_cones) == 48
    # a singular cone is reported before the one it contains is found not maximal
    with pytest.raises(NotSimplicialError, match=r"^cone \[\(0, 1\), \(1, 0\), \(1, 1\)\] is"):
        make_fan(2, [[(1, 0), (0, 1), (1, 1)], [(1, 0)]])


def test_double_description_matches_reference_on_every_cone_pair_of_b3():
    f = fan_from_arrangement(catalog("B_3"))
    reps = [_cone_h_rep(f.cone_vectors(c), hs, f.rank) for c, hs in zip(f.max_cones, f.normals)]
    for x, y in itertools.combinations(reps, 2):
        assert la.extreme_rays(x + y) == ref_extreme_rays(x + y)


@settings(max_examples=200, deadline=None, database=None)
@given(_cone_lists())
def test_pairwise_check_matches_reference_on_random_cones(data):
    rank, cones = data
    assume(_outcome(make_fan, rank, cones) not in (InputFormatError, NotSimplicialError))
    f = unchecked_fan(rank, cones)
    assume(f.overlap == ())
    assert _pairwise_overlap(f) == ref_overlapping_pair(f)


def singular_fan():
    """A centrally symmetric rank-2 fan with a cone of |det| 2."""
    from arrfan.surface import symmetrize

    return symmetrize(
        make_fan(2, [[(1, 0), (0, 1)], [(0, 1), (-1, 2)], [(-1, 2), (0, -1)], [(0, -1), (1, 0)]])
    )


def test_automorphisms_of_a_singular_fan():
    """The base cone has |det| 2, so candidates need divisibility by d = 2."""
    sy = singular_fan()
    assert la.scaled_inverse(sy.cone_vectors(sy.max_cones[0]))[1] == 2
    autos = fan_automorphisms(sy)
    assert autos == ref_fan_automorphisms(sy)
    assert ((-1, 0), (0, -1)) in autos and len(autos) == 4


@pytest.mark.parametrize("name", LADDER + ("wheel",))
def test_automorphism_search_takes_no_determinant(name, monkeypatch):
    """A candidate that passes the ray and cone checks is unimodular, so no
    determinant is taken; the ladder's groups are compared with the reference
    in `test_fan_routines_match_reference_on_ladder`.  The wheel is complete
    and centrally symmetric, and each of its four cones has |det| 2."""
    wheel = [(1, 0), (1, 2), (-1, 0), (-1, -2)]
    f = (make_fan(2, [[wheel[i], wheel[i - 1]] for i in range(4)]) if name == "wheel"
         else fan_from_arrangement(catalog(name)))
    dets = _count_calls(monkeypatch, "det")
    autos = fan_automorphisms(f)
    assert dets == []
    if name == "wheel":
        assert not check_properties(f).smooth and check_properties(f).complete
        assert autos == ref_fan_automorphisms(f) and len(autos) == 8
    _assert_automorphisms(f, autos)


@pytest.mark.parametrize("name", ["A_2", "A_3", "B_3", None])
def test_rank_0_fans_take_the_general_path(name):
    """The star fans at maximal cones, the restriction to the origin and the
    one empty cone are the origin fan, with every property and no hyperplanes;
    its automorphism group is the one empty matrix, and it has no arrangement.
    A ray given at rank 0 fails the length check, as at every other rank."""
    if name is None:
        fans = [make_fan(0, [[]])]
        with pytest.raises(InputFormatError, match=r"ray \(1,\) does not have length 0"):
            make_fan(0, [[(1,)]])
    else:
        f = fan_from_arrangement(catalog(name))
        fans = [star_fan(f, f.max_cones[0]), star_fan(f, f.max_cones[-1]), restrict_fan(f, [])]
    for z in fans:
        assert z == Fan(rank=0, rays=(), max_cones=((),)) and z.normals == ((),)
        assert check_properties(z) == PropertyReport(True, True, True, True, hyperplanes=())
        assert check_properties(z) == ref_check_properties(z)
        assert fan_automorphisms(z) == ((),) == ref_fan_automorphisms(z)
        with pytest.raises(InputFormatError, match="rank must be a positive integer"):
            roots_from_fan(z)


def _assert_automorphisms(f, autos, budget=10**6):
    """The matrices are distinct, and each is unimodular and maps the ray set
    and the cone set onto themselves.

    Each matrix is checked up to `budget` cone images in all, and an evenly
    strided sample of the matrices beyond it (A_6, B_5 and D_5).
    """
    assert len(set(autos)) == len(autos)
    index = {v: i for i, v in enumerate(f.rays)}
    cones = set(f.max_cones)
    for g in autos[:: max(1, len(autos) * len(cones) // budget)]:
        assert abs(la.det(g)) == 1
        images = [index.get(la.vec_mat(v, g)) for v in f.rays]
        assert set(images) == set(range(len(f.rays)))
        assert {tuple(sorted(images[i] for i in c)) for c in f.max_cones} == cones


WEYL_AUTOMORPHISM_ORDERS = (
    [(f"A_{n}", 2 * math.factorial(n + 1)) for n in range(2, 7)]
    + [(f"B_{n}", 2**n * math.factorial(n)) for n in range(2, 6)]
    + [(f"C_{n}", 2**n * math.factorial(n)) for n in (3, 4)]
    + [("D_4", 1152), ("D_5", 3840)]
)


@pytest.mark.parametrize("name, order", WEYL_AUTOMORPHISM_ORDERS)
def test_automorphism_group_orders_in_closed_form(name, order):
    """The Weyl group extended by the diagram symmetries, on the loaded chamber fans."""
    f = load_fan(json.dumps(fan_to_json(fan_from_arrangement(catalog(name)))))
    autos = fan_automorphisms(f)
    assert len(autos) == order
    _assert_automorphisms(f, autos)


def test_automorphism_search_verifies_few_candidates(monkeypatch):
    """On A_5's fan only the base cone's 120 orderings and a few more are verified.

    The other elements of the order-1440 group are products of verified
    ones, one matrix product each; trying every (cone, ordering) flag made
    1,440 determinants and 86,400 matrix products.
    """
    f = fan_from_arrangement(catalog("A_5"))
    calls = {n: _count_calls(monkeypatch, n) for n in ("det", "mat_mul")}
    assert len(fan_automorphisms(f)) == 1440
    assert len(calls["det"]) < 100 and len(calls["mat_mul"]) < 5000


def _star_subdivided(name):
    f = fan_from_arrangement(catalog(name))
    return star_subdivide(f, f.max_cones[0])


def _flipped(name, *facet):
    """`name`'s chamber fan with the wall on `facet` flipped.

    The cones (x, y, c) and (x, y, d) on the facet (x, y) become (x, c, d)
    and (y, c, d).  The rays stay, so a symmetry of the chamber fan that
    moves this wall maps every ray to a ray and only the cone check rejects it.
    """
    f = fan_from_arrangement(catalog(name))
    x, y = _cone_of(f, *facet)
    (a, j), (b, k) = f.walls[(x, y)]
    c, d = f.max_cones[a][j], f.max_cones[b][k]
    cones = [f.cone_vectors(cone) for i, cone in enumerate(f.max_cones) if i not in (a, b)]
    return make_fan(3, cones + [f.cone_vectors((x, c, d)), f.cone_vectors((y, c, d))])


@pytest.mark.parametrize(
    "build, order, orbit_size",
    [
        (functools.partial(_star_subdivided, "A_3"), 2, 2),
        (functools.partial(_star_subdivided, "B_3"), 1, 1),
        (lambda: fan_from_arrangement(catalog("ngon:8:77")), 2, 2),
        (lambda: fan_from_arrangement(catalog("ngon:10:1000")), 2, 2),
        (singular_fan, 4, 2),
        (functools.partial(_flipped, "A_3", (-1, 0, 0), (0, 0, -1)), 4, 4),
        (functools.partial(_flipped, "B_3", (-2, 0, 1), (0, -1, 1)), 2, 2),
    ],
    ids=["A_3-subdivided", "B_3-subdivided", "ngon:8:77", "ngon:10:1000", "singular",
         "A_3-flipped", "B_3-flipped"],
)
def test_automorphisms_with_several_cone_orbits_match_reference(build, order, orbit_size):
    """Fans whose group moves the base cone through some cones and not others.

    The search skips the cones in the base cone's orbit (all but B_3's
    subdivision, whose group is trivial) and finds that no ordering of any
    other cone passes.  On the flipped fans the chamber fan's other
    symmetries pass every check but the one on cones.
    """
    f = build()
    autos = fan_automorphisms(f)
    assert autos == ref_fan_automorphisms(f)
    index = {v: i for i, v in enumerate(f.rays)}
    orbit = {
        tuple(sorted(index[la.vec_mat(v, g)] for v in f.cone_vectors(f.max_cones[0])))
        for g in autos
    }
    assert (len(autos), len(orbit)) == (order, orbit_size) and orbit_size < len(f.max_cones)
    _assert_automorphisms(f, autos)


def test_failing_fans_match_reference_witnesses():
    """Each failing property is reported with the witness the per-facet reference finds.

    The fans fail smoothness (a cone of |det| 2), completeness (A_3 less a
    cone, whose lowest facet in one cone is named, and a quadrant with a
    one-ray cone, which is named), strong symmetry (A_3 with two opposite
    cones star-subdivided) and smoothness on a lower-dimensional cone, which
    the Smith form decides: the first lower-dimensional cone is smooth
    although the d of its inverse, one maximal minor, is 2.
    """
    singular = singular_fan()
    a3 = fan_from_arrangement(catalog("A_3"))
    missing = make_fan(3, [a3.cone_vectors(c) for c in a3.max_cones[1:]])
    cone = a3.cone_vectors(a3.max_cones[0])
    subdivided = star_subdivide(a3, a3.max_cones[0])
    subdivided = star_subdivide(subdivided, _cone_of(subdivided, *map(la.vec_neg, cone)))
    octant = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    lower = make_fan(3, [octant, [(-1, 0, 0), (0, -2, -1)], [(1, 0, -1), (1, -2, -1)]])
    assert la.scaled_inverse(lower.cone_vectors(lower.max_cones[0]))[1] == 2
    one_ray = make_fan(2, [[(0, 1), (1, 0)], [(-1, -1)]])
    cases = [
        (singular, "smooth"),
        (missing, "complete"),
        (one_ray, "complete"),
        (subdivided, "strongly_symmetric"),
        (lower, "smooth"),
    ]
    for f, failing in cases:
        props = check_properties(f)
        assert props == ref_check_properties(f)
        assert props.failure_witness["property"] == failing
    assert check_properties(lower).failure_witness["cone"] == ((1, -2, -1), (1, 0, -1))
    assert check_properties(one_ray).failure_witness["cone"] == ((-1, -1),)


def _opposite_cones_subdivided(name, at):
    """`name`'s chamber fan with maximal cone `at` and its negative star-subdivided:
    smooth, complete and centrally symmetric, but the new rays cut cones."""
    f = fan_from_arrangement(catalog(name))
    cone = f.cone_vectors(f.max_cones[at])
    f = star_subdivide(f, f.max_cones[at])
    return star_subdivide(f, _cone_of(f, *map(la.vec_neg, cone)))


@pytest.mark.parametrize(
    "name, at", [("A_3", 0), ("A_3", 7), ("B_3", 0), ("B_3", 20), ("C_3", 31), ("A_4", 50)]
)
def test_strong_symmetry_witness_matches_the_scan_per_normal(name, at):
    """The first normal cutting some cone, by the ray masks, is the per-normal
    scan's: the lowest normal that cuts any cone, with the first cone it cuts."""
    f = _opposite_cones_subdivided(name, at)
    props = check_properties(f)
    assert props == ref_check_properties(f)
    assert props.failure_witness["property"] == "strongly_symmetric"
    h, cone = props.failure_witness["hyperplane"], props.failure_witness["cone"]
    normals = sorted({la.canonical_sign(n) for n in set().union(*f.normals)})

    def cuts(n, gens):
        vals = [la.vec_dot(n, g) for g in gens]
        return min(vals) < 0 < max(vals)

    first = next(n for n in normals if any(cuts(n, f.cone_vectors(c)) for c in f.max_cones))
    assert h == first
    assert cone == next(f.cone_vectors(c) for c in f.max_cones if cuts(h, f.cone_vectors(c)))


# a pentagram: five rank-2 cones of ~144 degrees winding twice around 0
PENTAGRAM = {
    "rank": 2,
    "rays": [[-4, -3], [-4, 3], [1, -3], [1, 0], [1, 3]],
    "max_cones": [[3, 1], [1, 2], [2, 4], [4, 0], [0, 3]],
}


def test_load_fan_rejects_doubly_wound_and_one_sided_fans():
    with pytest.raises(MalformedFanError):
        load_fan(json.dumps(PENTAGRAM))
    # both cones at the facet cone(e1, e2) lie on the side z > 0
    one_sided = {
        "rank": 3,
        "rays": [[-1, 0, 1], [0, 0, 1], [0, 1, 0], [1, 0, 0]],
        "max_cones": [[3, 2, 1], [3, 2, 0]],
    }
    with pytest.raises(MalformedFanError):
        load_fan(json.dumps(one_sided))


def test_a_twice_wound_fan_is_not_complete():
    """Completeness is the import check's covering test, not a connected facet graph.

    The cones of this pentagram meet two at each ray, on opposite sides of
    it, and wind twice around the origin.
    """
    r = [(1, 0), (1, 3), (-3, 2), (-3, -2), (1, -3)]
    cones = [[r[i], r[(i + 2) % 5]] for i in range(5)]
    props = check_properties(unchecked_fan(2, cones))
    assert not props.complete and not props.strongly_symmetric
    with pytest.raises(MalformedFanError, match="overlap"):
        make_fan(2, cones)


@pytest.mark.parametrize("name", LADDER + ("ngon:3:0", "ngon:6:3", "ngon:9:100"))
def test_derived_fans_carry_their_covering_verdict(name):
    """Star fans, star subdivisions and rank-2 wheels are built by `make_fan`,
    whose covering test is the completeness verdict their consumers read next."""
    from arrfan.surface import circular_graph, desingularize, symmetrize, weights_to_fan

    f = fan_from_arrangement(catalog(name))
    derived = [star_fan(f, (0,)), star_subdivide(f, f.max_cones[0])]
    if f.rank == 2:
        derived += [weights_to_fan(circular_graph(f).weights), symmetrize(f), desingularize(f),
                    desingularize(singular_fan())]
    assert all("overlap" in vars(g) for g in derived)


def test_fan_missing_a_cone_loads_but_has_no_roots():
    obj = fan_to_json(fan_from_arrangement(catalog("A_3")))
    obj["max_cones"].pop()
    f = load_fan(json.dumps(obj))
    props = check_properties(f)
    assert props.smooth and not props.complete and not props.strongly_symmetric
    with pytest.raises(NotStronglySymmetricError):
        roots_from_fan(f)


@st.composite
def _unimodular(draw, r):
    """A random r x r unimodular matrix: row additions, then a signed row permutation."""
    m = [list(row) for row in la.identity(r)]
    for i, j, c in draw(st.lists(st.tuples(st.integers(0, r - 1), st.integers(0, r - 1),
                                           st.integers(-2, 2)), max_size=4)):
        if i != j:
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    order = draw(st.permutations(range(r)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=r, max_size=r))
    return tuple(tuple(s * x for x in m[i]) for i, s in zip(order, signs))


@settings(max_examples=200, deadline=None, database=None)
@given(_small_arrangements(), st.sampled_from(("none", "drop", "overlap", "wind")), st.data())
def test_covering_check_matches_reference_on_random_fans(a, corruption, data):
    """Chamber fans in random lattice coordinates, intact or corrupted.

    The corruptions drop a cone (an incomplete fan), replace a cone by its
    mirror image across one of its walls (it overlaps the neighbour there),
    or add a second winding: every cone again under another unimodular map,
    so that each point is covered twice while every facet may still lie in
    two cones on opposite sides.
    """
    try:
        chamber_fan = fan_from_arrangement(a)
    except NotSimplicialError:
        return
    if len(chamber_fan.max_cones) > 32:
        return
    r = a.rank
    g = data.draw(_unimodular(r))
    cones = [[la.vec_mat(v, g) for v in chamber_fan.cone_vectors(c)]
             for c in chamber_fan.max_cones]
    i = data.draw(st.integers(0, len(cones) - 1))
    if corruption == "drop":
        del cones[i]
    elif corruption == "overlap":
        j = data.draw(st.integers(0, r - 1))
        cones[i] = [la.vec_neg(v) if k == j else v for k, v in enumerate(cones[i])]
    elif corruption == "wind":
        # e_i -> e_(i+1), e_r -> e_1 + e_2 (char. polynomial x^r - x - 1, irreducible)
        # fixes no ray, so the copy rarely shares a facet with the original
        turn = tuple(la.identity(r)[1:]) + ((1, 1) + (0,) * (r - 2),)
        h = la.mat_mul(data.draw(_unimodular(r)), turn)
        cones += [[la.vec_mat(v, h) for v in cone] for cone in cones]
    f = unchecked_fan(r, cones)
    checked = _outcome(make_fan, r, cones)
    assert (checked is MalformedFanError) == (ref_overlapping_pair(f) is not None)
    if checked is not MalformedFanError:
        assert checked == f
        if len(f.max_cones) <= 24:
            assert _outcome(fan_automorphisms, f) == _outcome(ref_fan_automorphisms, f)


def test_load_fan_rejects_a_suspended_pentagram(monkeypatch):
    """The pentagram's cones coned over +e3 and -e3: a rank-3 fan winding twice around ±e3.

    Every facet lies in two cones on opposite sides of it, so only the count
    of cones over one generic point (2) can reject it.
    """
    rays = [tuple(v) + (0,) for v in PENTAGRAM["rays"]]
    cones = [[rays[i], rays[j], (0, 0, pole)]
             for i, j in PENTAGRAM["max_cones"] for pole in (1, -1)]
    f = unchecked_fan(3, cones)
    assert all(len(entries) == 2 for entries in f.walls.values())
    for (a, j), (b, k) in f.walls.values():
        normal = la.dual_rays(f.cone_vectors(f.max_cones[a]))[j]
        assert la.vec_dot(normal, f.rays[f.max_cones[b][k]]) < 0
    calls = _count_calls(monkeypatch, "extreme_rays")
    with pytest.raises(MalformedFanError, match="overlap"):
        load_fan(json.dumps(fan_to_json(f)))
    assert calls == []


def test_load_fan_rejects_a_folded_cycle(monkeypatch):
    """The coordinate fan plus a cycle of three cones folded inside the third quadrant.

    Every facet (ray) lies in two cones, and the first generic point, (1, 2),
    lies in one cone only, so only the opposite-side test at the rays of the
    fold can reject it.
    """
    quadrants = [[(1, 0), (0, 1)], [(0, 1), (-1, 0)], [(-1, 0), (0, -1)], [(0, -1), (1, 0)]]
    fold = [[(-3, -1), (-1, -1)], [(-1, -1), (-1, -3)], [(-1, -3), (-3, -1)]]
    f = unchecked_fan(2, quadrants + fold)
    assert all(len(entries) == 2 for entries in f.walls.values())
    assert ref_overlapping_pair(f) is not None
    calls = _count_calls(monkeypatch, "extreme_rays")
    with pytest.raises(MalformedFanError, match="overlap"):
        load_fan(json.dumps(fan_to_json(f)))
    assert calls == []
