import pytest

from arrfan import arrangement as arrangement_module, intlinalg as la
from arrfan.arrangement import (
    catalog,
    decompose,
    enumerate_chambers,
    is_crystallographic,
    make_arrangement,
)
from arrfan.errors import BadReferenceError, CertificationError, NotCrystallographicError
from arrfan.fan import Fan, fan_faces, fan_from_arrangement
from arrfan.polytope import (
    HalfLatticePolytope,
    build_polytope,
    phi_certificate,
    rho,
    sign_vector,
    verify_normal_fan,
)

from oracles import hull2d_extreme_points, ref_phi_certificate, ref_verify_normal_fan


def _chamber_by_rays(a, rays):
    for k in enumerate_chambers(a):
        if set(k.rays) == set(rays):
            return k
    raise AssertionError("chamber not found")


def test_rho_examples():
    a2 = catalog("A_2")
    fund = _chamber_by_rays(a2, [(1, 0), (0, 1)])
    assert rho(a2, fund) == (2, 2)
    adj = _chamber_by_rays(a2, [(1, 0), (1, -1)])
    assert rho(a2, adj) == (2, 0)
    a11 = make_arrangement(2, [(1, 0), (0, 1)])
    values = {rho(a11, k) for k in enumerate_chambers(a11)}
    assert values == {(1, 1), (1, -1), (-1, 1), (-1, -1)}


def test_build_polytope_examples():
    p = build_polytope(catalog("A_2"))
    assert set(p.doubled_vertices) == {(2, 2), (-2, -2), (2, 0), (-2, 0), (0, 2), (0, -2)}
    p11 = build_polytope(make_arrangement(2, [(1, 0), (0, 1)]))
    assert set(p11.doubled_vertices) == {(1, 1), (1, -1), (-1, 1), (-1, -1)}
    assert len(build_polytope(catalog("B_2")).doubled_vertices) == 8
    with pytest.raises(NotCrystallographicError):
        build_polytope(make_arrangement(2, [(1, 0), (0, 1), (2, 1)]))


def test_vertices_are_extreme_in_rank2():
    for name in ("A_2", "B_2", "C_2", "ngon:5:2", "ngon:6:7"):
        p = build_polytope(catalog(name))
        assert hull2d_extreme_points(p.doubled_vertices) == set(p.doubled_vertices)


def test_rho_flip_identity_between_adjacent_chambers():
    # chambers sharing a wall have vertices differing by twice that wall covector
    for name in ("A_2", "B_2", "A_3", "B_3"):
        a = catalog(name)
        chambers = enumerate_chambers(a)
        by_signs = {k.sign_vector: k for k in chambers}
        for k in chambers:
            for i, sign in k.basis:
                flipped = tuple(
                    -s if j == i else s for j, s in enumerate(k.sign_vector)
                )
                other = by_signs[flipped]
                diff = la.vec_sub(rho(a, k), rho(a, other))
                assert diff == la.vec_scale(2 * sign, a.positive_covectors[i])


def test_verify_normal_fan():
    for name in ("A_2", "B_2", "A_3", "B_3", "C_3", "D_3"):
        a = catalog(name)
        assert verify_normal_fan(build_polytope(a), fan_from_arrangement(a))
    # mismatched inputs are a clean False
    p = build_polytope(catalog("A_2"))
    f11 = fan_from_arrangement(make_arrangement(2, [(1, 0), (0, 1)]))
    assert not verify_normal_fan(p, f11)


@pytest.mark.parametrize(
    "name", ["A_2", "A_3", "A_4", "A_5", "B_3", "B_4", "C_3", "D_4", "ngon:8:77"]
)
def test_verify_normal_fan_matches_reference(name):
    a = catalog(name)
    p, f = build_polytope(a), fan_from_arrangement(a)
    assert verify_normal_fan(p, f) is ref_verify_normal_fan(p, f) is True
    if name == "A_2":
        f11 = fan_from_arrangement(make_arrangement(2, [(1, 0), (0, 1)]))
        assert verify_normal_fan(p, f11) is ref_verify_normal_fan(p, f11) is False


@pytest.mark.parametrize("name", ["A_3", "B_3", "C_3"])
def test_verify_normal_fan_rejects_every_moved_vertex(name):
    """Moving any one doubled vertex by e_1 breaks the fold across its walls.

    The pairwise scorer, which checks one interior direction per cone, still
    accepts some of these moves.
    """
    a = catalog(name)
    p, f = build_polytope(a), fan_from_arrangement(a)
    accepted_by_scorer = 0
    for i, v in enumerate(p.doubled_vertices):
        moved = list(p.doubled_vertices)
        moved[i] = (v[0] + 1,) + v[1:]
        q = HalfLatticePolytope(p.rank, tuple(moved), p.chamber_rays)
        assert not verify_normal_fan(q, f), i
        accepted_by_scorer += ref_verify_normal_fan(q, f)
    assert accepted_by_scorer > 0


@pytest.mark.parametrize("name", ["A_2", "B_3", "ngon:8:77"])
def test_verify_normal_fan_rejects_negated_vertices(name):
    """Negated vertices fold the wrong way at every wall: the inner normal fan."""
    a = catalog(name)
    p, f = build_polytope(a), fan_from_arrangement(a)
    q = HalfLatticePolytope(p.rank, tuple(map(la.vec_neg, p.doubled_vertices)), p.chamber_rays)
    assert verify_normal_fan(q, f) is ref_verify_normal_fan(q, f) is False


@pytest.mark.parametrize("name", ["A_2", "B_2", "A_3"])
def test_verify_normal_fan_rejects_a_dropped_chamber(name):
    """Without one chamber the fan is not complete, so it is no normal fan."""
    a = catalog(name)
    p, f = build_polytope(a), fan_from_arrangement(a)
    for cone in f.max_cones:
        i = p.chamber_rays.index(f.cone_vectors(cone))
        q = HalfLatticePolytope(
            p.rank,
            p.doubled_vertices[:i] + p.doubled_vertices[i + 1:],
            p.chamber_rays[:i] + p.chamber_rays[i + 1:],
        )
        g = Fan(f.rank, f.rays, tuple(c for c in f.max_cones if c != cone))
        assert not verify_normal_fan(q, g)
        assert ref_verify_normal_fan(q, g)


def test_sign_vector_examples():
    a2 = catalog("A_2")  # covector order (0,1), (1,0), (1,1)
    f = fan_from_arrangement(a2)
    idx = {v: i for i, v in enumerate(f.rays)}
    fund = tuple(sorted((idx[(1, 0)], idx[(0, 1)])))
    assert sign_vector(f, fund, a2) == (1, 1, 1)
    assert sign_vector(f, (), a2) == (0, 0, 0)
    assert sign_vector(f, (idx[(1, -1)],), a2) == (-1, 1, 0)
    with pytest.raises(BadReferenceError):
        sign_vector(f, (idx[(1, 0)], idx[(-1, 0)]), a2)


def test_sign_vector_rejects_foreign_fan():
    a2 = catalog("A_2")
    quad = fan_from_arrangement(make_arrangement(2, [(1, 0), (0, 1)]))
    other = make_arrangement(2, [(1, 1), (1, -1), (1, 0)])
    with pytest.raises(CertificationError):
        for cone in quad.max_cones:
            sign_vector(quad, cone, other)
    # (1, -2) and (1, -1) both take both signs on the first quadrant; the first is named
    steep = make_arrangement(2, [(1, -2), (1, -1), (1, 0)])
    quadrant = tuple(sorted(quad.rays.index(v) for v in ((1, 0), (0, 1))))
    with pytest.raises(CertificationError, match=r"covector \(1, -2\) takes both signs"):
        sign_vector(quad, quadrant, steep)


def test_sign_vectors_injective_on_faces():
    for name in ("A_2", "B_2", "A_3"):
        a = catalog(name)
        f = fan_from_arrangement(a)
        seen = {}
        for face in fan_faces(f):
            sv = sign_vector(f, face, a)
            assert sv not in seen
            seen[sv] = face


@pytest.mark.parametrize("name", ["A_2", "B_2", "A_3", "B_3", "A_4", "D_4"])
def test_phi_face_rows_equal_sign_vectors(name):
    """Signs on the sum of a face's rays are the face's sign vector."""
    a = catalog(name)
    f = fan_from_arrangement(a)
    expected = [(f.cone_vectors(face), sign_vector(f, face, a)) for face in fan_faces(f)]
    assert list(ref_phi_certificate(a).sign_vectors) == expected
    assert phi_certificate(a).sign_vectors == len(expected)


@pytest.mark.parametrize("name", ["A_2", "B_3", "C_3", "A_4", "D_4", "ngon:8:77", "ngon:10:1000"])
def test_phi_invariant_factors_are_the_smith_form(name):
    # the certificate reads the all-ones Smith form off its identity top block
    cert = phi_certificate(catalog(name))
    assert cert.invariant_factors == la.snf(cert.matrix)


def test_phi_certificate():
    c11 = phi_certificate(make_arrangement(2, [(1, 0), (0, 1)]))
    assert len(c11.matrix) == 4
    assert c11.invariant_factors == (1, 1)

    a2 = catalog("A_2")
    cert = phi_certificate(a2)
    assert len(cert.matrix) == 6
    assert cert.matrix[0][:2] == (1, 0) and cert.matrix[1][:2] == (0, 1)
    assert cert.invariant_factors == (1, 1)
    assert cert.sign_vectors == 13
    assert len({sv for _, sv in ref_phi_certificate(a2).sign_vectors}) == 13

    cb = phi_certificate(catalog("B_2"))
    assert len(cb.matrix) == 8
    assert cb.invariant_factors == (1, 1)

    for name in ("A_3", "B_3", "C_3", "D_3"):
        cert = phi_certificate(catalog(name))
        assert cert.invariant_factors == (1, 1, 1)
        top = tuple(row[:3] for row in cert.matrix[:3])
        assert top == la.identity(3)

    with pytest.raises(NotCrystallographicError):
        phi_certificate(make_arrangement(2, [(1, 0), (0, 1), (2, 1)]))


_FACE_LADDER = ["A_3", "A_4", "A_5", "B_3", "B_4", "D_4", "D_5",
                "ngon:8:0", "ngon:8:77", "ngon:10:1000", "ngon:10:1429"]


@pytest.mark.parametrize("name", _FACE_LADDER)
def test_embed_counts_each_face_once_at_its_owner(name):
    """The owner count is the number of faces, and the rest of the certificate
    is the reference certificate's, which lists every face."""
    a = catalog(name)
    cert = phi_certificate(a)
    assert cert.sign_vectors == len(fan_faces(fan_from_arrangement(a)))
    if name not in ("A_5", "D_5"):  # the reference is slow there
        ref = ref_phi_certificate(a)
        assert cert == ref._replace(sign_vectors=len(ref.sign_vectors))


@pytest.mark.parametrize("name, fubini", [("A_3", 75), ("A_4", 541), ("A_5", 4683)])
def test_embed_face_count_is_a_fubini_number(name, fubini):
    # the faces of the braid fan of A_r are the ordered set partitions of r + 1 points
    assert phi_certificate(catalog(name)).sign_vectors == fubini


@pytest.mark.parametrize("name, at", [("A_2", 3), ("A_3", 5), ("B_3", 17)])
def test_a_chamber_with_a_moved_ray_fails_the_cut_out_check(name, at):
    """Ray 0 moved to r_0 - r_1 keeps the diagonal b_k(r_k) = 1, so the integrality
    test passes, but wall b_1 is negative on it."""
    a = catalog(name)
    k = a.chambers[at]
    rays = (la.vec_sub(k.rays[0], k.rays[1]),) + k.rays[1:]
    vars(a)["chambers"] = a.chambers[:at] + (k._replace(rays=rays),) + a.chambers[at + 1:]
    assert is_crystallographic(a).verdict
    with pytest.raises(CertificationError, match=f"chamber {at} is not cut out"):
        phi_certificate(a)
    with pytest.raises(CertificationError, match=f"chamber {at} is negative"):
        build_polytope(a)


def test_integrality_report_is_computed_once_per_arrangement(monkeypatch):
    calls = []
    real = arrangement_module._integrality_report
    monkeypatch.setattr(arrangement_module, "_integrality_report",
                        lambda a: calls.append(a) or real(a))
    a = catalog("B_3")
    build_polytope(a)
    phi_certificate(a)
    decompose(a)
    assert calls == [a]
    assert is_crystallographic(a) is is_crystallographic(a)
    build_polytope(catalog("B_3"))  # an equal record built separately has its own report
    assert len(calls) == 2
