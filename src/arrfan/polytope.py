"""The vertex polytope of a crystallographic arrangement and its embedding data.

Each chamber contributes the vertex rho_K = half the sum of the covectors
positive on it; vertices are stored doubled (2*rho_K) to stay integral.  The
normal-fan convention is outer/maximizing: the functional summing a chamber's
rays attains its maximum over the vertex set exactly at that chamber's vertex.
The embedding certificates are the finite shadows of the coordinatewise sign
map: its matrix has all-ones Smith form and the sign vectors separate cones.
Only the functions that read a fan import `fan`, so the embedding loads no
fan code.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from . import intlinalg as la
from .arrangement import Arrangement, Chamber, is_crystallographic, positive_roots
from .errors import CertificationError, NotCrystallographicError
from .intlinalg import Mat, Vec

if TYPE_CHECKING:
    from .fan import Fan


class HalfLatticePolytope(NamedTuple):
    """Doubled chamber vertices; index i belongs to chamber i."""

    rank: int
    doubled_vertices: Mat
    chamber_rays: tuple[Mat, ...]


class PhiCertificate(NamedTuple):
    """Certificates for the sign-map embedding.

    matrix            one row per signed covector, in the coordinates of the
                      base chamber's ray basis; the base chamber's wall basis
                      comes first, so the top block is the identity
    row_roots         the signed covectors, aligned with the matrix rows
    invariant_factors Smith form of the matrix (all ones)
    sign_vectors      the number of faces of the chamber fan, counted at their
                      owner chambers; their sign vectors are pairwise distinct
    base_chamber      index of the chamber providing the coordinate basis
    """

    matrix: Mat
    row_roots: Mat
    invariant_factors: tuple[int, ...]
    sign_vectors: int
    base_chamber: int = 0


def rho(a: Arrangement, k: Chamber) -> Vec:
    """The doubled vertex of a chamber: the sum of its positive covectors."""
    return tuple(map(sum, zip(*positive_roots(a, k))))


def _cut_out_mask(a: Arrangement, k: Chamber) -> int | None:
    """The mask of the covectors positive on the chamber, if every covector
    signed by the chamber is >= 0 on every ray of the chamber; else None."""
    plus = sum(1 << i for i, s in enumerate(k.sign_vector) if s > 0)
    return None if any(s.neg & plus or s.pos & ~plus for s in map(a.ray_signs, k.rays)) else plus


def build_polytope(a: Arrangement) -> HalfLatticePolytope:
    """All doubled chamber vertices, with the vertex condition verified per chamber.

    For chambers K, K' the vertex difference is v_K' - v_K = 2 * sum of
    s'_i alpha_i over the covectors whose signs s_i, s'_i differ, by the
    definition of rho.  Each term is nonnegative on the rays of K' once every
    covector signed by K' is, so checking that once per chamber puts each
    vertex in every other chamber's supporting cone.  The vertex multiset is
    also checked to be negation-stable and duplicate-free.
    """
    if not is_crystallographic(a).verdict:
        raise NotCrystallographicError("polytope requires a crystallographic arrangement")
    chambers = a.chambers
    vertices = tuple(rho(a, k) for k in chambers)
    if len(set(vertices)) != len(vertices):
        raise CertificationError("duplicate chamber vertices")
    if {la.vec_neg(v) for v in vertices} != set(vertices):
        raise CertificationError("vertex set is not negation-stable")
    for k in chambers:
        if _cut_out_mask(a, k) is None:
            raise CertificationError(
                f"a covector signed by chamber {k.index} is negative on one of its rays"
            )
    return HalfLatticePolytope(
        rank=a.rank,
        doubled_vertices=vertices,
        chamber_rays=tuple(k.rays for k in chambers),
    )


def verify_normal_fan(p: HalfLatticePolytope, f: Fan) -> bool:
    """Is f, complete, the normal fan of the vertices, read wall by wall?

    Maximal cones must match chambers bijectively by ray set, and f must be
    complete by the covering test (`Fan.overlap`).
    Across each wall (a, j) | (b, k), v_a - v_b must be a positive multiple
    of cone a's facet normal j, which is positive on a's side.  Then the
    function taking x in cone s to <v_s, x> is continuous and strictly convex
    across every wall, hence convex with the cones as its domains of
    linearity: f is exactly the normal fan (the local folding condition;
    De Loera, Rambau and Santos, *Triangulations*, 2010).  Mismatched inputs
    return False rather than raising.
    """
    if f.rank != p.rank or len(f.max_cones) != len(p.doubled_vertices):
        return False
    chamber_by_rays = {frozenset(rays): i for i, rays in enumerate(p.chamber_rays)}
    owners = [chamber_by_rays.get(frozenset(f.cone_vectors(c))) for c in f.max_cones]
    if None in owners or len(set(owners)) != len(owners):
        return False
    if f.overlap is not None:
        return False
    v = [p.doubled_vertices[i] for i in owners]
    for (a, j), (b, _) in f.walls.values():
        diff = la.vec_sub(v[a], v[b])
        if not any(diff) or la.primitive(diff) != f.normals[a][j]:
            return False
    return True


def sign_vector(f: Fan, sigma, a: Arrangement) -> tuple[int, ...]:
    """Per positive covector: its sign on the cone (+1, -1, or 0 when it vanishes).

    The cone is given by ray indices of f, which must be the fan of the
    arrangement.  The signs are ORs of the generators' sign masks in the
    arrangement's covector table (`Arrangement.face_signs`); a covector taking
    both strict signs on the cone is a CertificationError naming the first
    such covector.
    """
    from .fan import _require_face

    pos, neg = a.face_signs(f.cone_vectors(_require_face(f, sigma)))
    return tuple((pos >> i & 1) - (neg >> i & 1) for i in range(a.n_hyperplanes))


def phi_certificate(a: Arrangement) -> PhiCertificate:
    """Certify the sign-map embedding of the chamber fan combinatorially.

    Builds the matrix of all 2n signed covectors in the coordinates of the
    base chamber's ray basis, wall basis first.  Its Smith form is all ones
    once that top block is the identity, which is checked: on a
    crystallographic arrangement the wall basis is a Z-basis and the rays are
    its dual basis.  It then verifies that each chamber's full sign pattern
    cuts out exactly the chamber's closed cone (every signed covector is >= 0
    on its rays, and wall b_p is positive on ray r_q exactly when p = q).  A
    face F of chamber K is then K cut by the covectors vanishing on F, so it
    is {x : sign(x) <= s_F}, and distinct faces have distinct sign vectors.
    Each face is counted at its owner, the one chamber holding it on which
    every covector vanishing on it is positive (the chamber of
    y + d*(1, e, e^2, ...) for y inside the face and small e, d, as every
    stored covector's first nonzero coordinate is positive): one walk per
    chamber over the subsets of its rays (`Arrangement.subset_zeros`).
    """
    if not is_crystallographic(a).verdict:
        raise NotCrystallographicError("embedding requires a crystallographic arrangement")
    chambers = a.chambers
    base = chambers[0]

    basis_signed = base.basis_covectors(a)
    signed = {la.vec_scale(sign, cov) for cov in a.positive_covectors for sign in (1, -1)}
    row_roots = tuple(basis_signed) + tuple(sorted(signed - set(basis_signed)))
    matrix = tuple(tuple(la.vec_dot(root, ray) for ray in base.rays) for root in row_roots)
    if matrix[:a.rank] != la.identity(a.rank):
        raise CertificationError(f"sign-map top block {matrix[:a.rank]} is not the identity")

    faces = 0
    for k in chambers:
        plus, cols = _cut_out_mask(a, k), [a.ray_signs(ray) for ray in k.rays]
        if plus is None or any(
            (sign * col.values[i] > 0) != (p == q)
            for p, (i, sign) in enumerate(k.basis)
            for q, col in enumerate(cols)
        ):
            raise CertificationError(f"chamber {k.index} is not cut out by its sign pattern")
        faces += sum(not m & ~plus for m in a.subset_zeros(k.rays))
    return PhiCertificate(
        matrix=matrix,
        row_roots=row_roots,
        invariant_factors=(1,) * a.rank,
        sign_vectors=faces,
        base_chamber=base.index,
    )
