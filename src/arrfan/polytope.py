"""The vertex polytope of a crystallographic arrangement and its embedding data.

Each chamber contributes the vertex rho_K = half the sum of the covectors
positive on it; vertices are stored doubled (2*rho_K) to stay integral.  The
normal-fan convention is outer/maximizing: the functional summing a chamber's
rays attains its maximum over the vertex set exactly at that chamber's vertex.
The embedding certificates are the finite shadows of the coordinatewise sign
map: its matrix has all-ones Smith form and the sign vectors separate cones.
"""
from __future__ import annotations

from typing import NamedTuple

from . import intlinalg as la
from .arrangement import Arrangement, Chamber, is_crystallographic
from .errors import CertificationError, NotCrystallographicError
from .fan import Fan, _require_face, fan_from_arrangement
from .intlinalg import Mat, Vec


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
    sign_vectors      per fan face, the sign of every positive covector on it;
                      pairwise distinct
    base_chamber      index of the chamber providing the coordinate basis
    """

    matrix: Mat
    row_roots: Mat
    invariant_factors: tuple[int, ...]
    sign_vectors: tuple[tuple[Mat, tuple[int, ...]], ...]
    base_chamber: int = 0


def rho(a: Arrangement, k: Chamber) -> Vec:
    """The doubled vertex of a chamber: the sum of its positive covectors."""
    total = (0,) * a.rank
    for i, cov in enumerate(a.positive_covectors):
        total = la.vec_add(total, la.vec_scale(k.sign_vector[i], cov))
    return total


def _cut_out_by_signs(a: Arrangement, k: Chamber) -> bool:
    """Is every covector, signed by the chamber, >= 0 on every ray of the chamber?"""
    plus = sum(1 << i for i, s in enumerate(k.sign_vector) if s > 0)
    return not any(s.neg & plus or s.pos & ~plus for s in map(a.ray_signs, k.rays))


def _face_signs(a: Arrangement, gens: Mat) -> tuple[int, ...]:
    """Per positive covector, its sign on the cone over `gens` (0 when it vanishes)."""
    pos, neg = a.face_signs(gens)
    return tuple((pos >> i & 1) - (neg >> i & 1) for i in range(a.n_hyperplanes))


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
        if not _cut_out_by_signs(a, k):
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
    return _face_signs(a, f.cone_vectors(_require_face(f, sigma)))


def phi_certificate(a: Arrangement) -> PhiCertificate:
    """Certify the sign-map embedding of the chamber fan combinatorially.

    Builds the matrix of all 2n signed covectors in the coordinates of the
    base chamber's ray basis, wall basis first.  Its Smith form is all ones
    once that top block is the identity, which is checked: on a
    crystallographic arrangement the wall basis is a Z-basis and the rays are
    its dual basis.  It then verifies that each chamber's full sign pattern
    cuts out exactly the chamber's closed cone (every signed covector is >= 0
    on its rays, and wall b_p is positive on ray r_q exactly when p = q),
    then records the sign vector of every face in the fan's face table and
    checks they are pairwise distinct.  The chamber and face checks read the
    arrangement's covector table: a face lies in a chamber, on whose rays
    each covector takes one sign or 0 (the cut-out check), so its sign on the
    face is the OR of its rays' sign masks (`Arrangement.face_signs`).
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

    for k in chambers:
        cols = [a.ray_signs(ray).values for ray in k.rays]
        if not _cut_out_by_signs(a, k) or any(
            (sign * col[i] > 0) != (p == q)
            for p, (i, sign) in enumerate(k.basis)
            for q, col in enumerate(cols)
        ):
            raise CertificationError(f"chamber {k.index} is not cut out by its sign pattern")

    f = fan_from_arrangement(a)
    seen: dict[tuple[int, ...], Mat] = {}  # sign vector -> the face having it
    for face in f.faces:
        gens = f.cone_vectors(face)
        sv = _face_signs(a, gens)
        if sv in seen:
            raise CertificationError(f"cones {seen[sv]} and {gens} share the sign vector {sv}")
        seen[sv] = gens
    return PhiCertificate(
        matrix=matrix,
        row_roots=row_roots,
        invariant_factors=(1,) * a.rank,
        sign_vectors=tuple((gens, sv) for sv, gens in seen.items()),
        base_chamber=base.index,
    )
