import pytest

from arrfan import intlinalg as la
from arrfan.arrangement import catalog, enumerate_chambers, make_arrangement
from arrfan.errors import BadReferenceError, CertificationError, NotCrystallographicError
from arrfan.fan import fan_faces, fan_from_arrangement
from arrfan.polytope import (
    build_polytope,
    phi_certificate,
    rho,
    sign_vector,
    verify_normal_fan,
)

from oracles import hull2d_extreme_points


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
    assert list(phi_certificate(a).sign_vectors) == expected


def test_phi_certificate():
    c11 = phi_certificate(make_arrangement(2, [(1, 0), (0, 1)]))
    assert len(c11.matrix) == 4
    assert c11.invariant_factors == (1, 1)

    a2 = catalog("A_2")
    cert = phi_certificate(a2)
    assert len(cert.matrix) == 6
    assert cert.matrix[0][:2] == (1, 0) and cert.matrix[1][:2] == (0, 1)
    assert cert.invariant_factors == (1, 1)
    assert len(cert.sign_vectors) == 13
    assert len({sv for _, sv in cert.sign_vectors}) == 13

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
