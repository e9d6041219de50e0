"""The vertex polytope of a crystallographic arrangement and its embedding data.

Each chamber contributes the vertex rho_K = half the sum of the covectors
positive on it; vertices are stored doubled (2*rho_K) to stay integral.  The
normal-fan convention is outer/maximizing: the functional summing a chamber's
rays attains its maximum over the vertex set exactly at that chamber's vertex.
The embedding certificates are the finite shadows of the coordinatewise sign
map: its matrix has all-ones Smith form and the sign vectors separate cones.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import intlinalg as la
from .arrangement import Arrangement, Chamber, is_crystallographic, positive_roots
from .errors import CertificationError, BadReferenceError, NotCrystallographicError
from .fan import Fan, fan_faces, fan_from_arrangement
from .intlinalg import Mat, Vec


@dataclass(frozen=True)
class HalfLatticePolytope:
    """Doubled chamber vertices; index i belongs to chamber i."""

    rank: int
    doubled_vertices: Mat
    chamber_rays: tuple[Mat, ...]


@dataclass(frozen=True)
class PhiCertificate:
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
    return all(la.vec_dot(c, ray) >= 0 for c in positive_roots(a, k) for ray in k.rays)


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
    """Does every maximal cone's interior direction pick out its own vertex?

    For each maximal cone the functional summing its rays must attain its
    maximum over the vertex set uniquely, at the vertex of the chamber with
    the same rays; the correspondence must be a bijection.  Mismatched inputs
    return False rather than raising.
    """
    if f.rank != p.rank or len(f.max_cones) != len(p.doubled_vertices):
        return False
    chamber_by_rays = {frozenset(rays): i for i, rays in enumerate(p.chamber_rays)}
    matched = set()
    for cone in f.max_cones:
        gens = f.cone_vectors(cone)
        direction = (0,) * f.rank
        for g in gens:
            direction = la.vec_add(direction, g)
        scores = [la.vec_dot(v, direction) for v in p.doubled_vertices]
        best = max(scores)
        arg = [i for i, s in enumerate(scores) if s == best]
        if len(arg) != 1:
            return False
        owner = chamber_by_rays.get(frozenset(gens))
        if owner is None or owner != arg[0]:
            return False
        matched.add(owner)
    return len(matched) == len(p.doubled_vertices)


def sign_vector(f: Fan, sigma, a: Arrangement) -> tuple[int, ...]:
    """Per positive covector: its sign on the cone (+1, -1, or 0 when it vanishes).

    The cone is given by ray indices of f, which must be the fan of the
    arrangement: a covector taking both strict signs on the cone's generators
    is reported as a CertificationError.
    """
    cone = tuple(sorted(set(sigma)))
    if any(not 0 <= i < len(f.rays) for i in cone):
        raise BadReferenceError(f"ray index out of range in {tuple(sigma)}")
    if cone and not any(set(cone) <= set(c) for c in f.max_cones):
        raise BadReferenceError(f"cone {cone} is not a face of the fan")
    gens = f.cone_vectors(cone)
    out = []
    for cov in a.positive_covectors:
        vals = [la.vec_dot(cov, g) for g in gens]
        if any(v > 0 for v in vals) and any(v < 0 for v in vals):
            raise CertificationError(
                f"covector {cov} takes both signs on cone {gens}: not an arrangement fan"
            )
        if any(v > 0 for v in vals):
            out.append(1)
        elif any(v < 0 for v in vals):
            out.append(-1)
        else:
            out.append(0)
    return tuple(out)


def phi_certificate(a: Arrangement) -> PhiCertificate:
    """Certify the sign-map embedding of the chamber fan combinatorially.

    Builds the matrix of all 2n signed covectors in the coordinates of the
    base chamber's ray basis (wall basis first, giving an identity block),
    checks its Smith form is all ones, verifies that each chamber's full
    sign pattern cuts out exactly the chamber's closed cone (every signed
    covector is >= 0 on its rays, and wall b_p is positive on ray r_q exactly
    when p = q), then records the sign vector of every fan face, read on the
    sum of its rays, and checks they are pairwise distinct.
    """
    if not is_crystallographic(a).verdict:
        raise NotCrystallographicError("embedding requires a crystallographic arrangement")
    chambers = a.chambers
    base = chambers[0]

    basis_signed = base.basis_covectors(a)
    rest = []
    for i, cov in enumerate(a.positive_covectors):
        for sign in (1, -1):
            v = la.vec_scale(sign, cov)
            if v not in basis_signed:
                rest.append(v)
    row_roots = tuple(basis_signed) + tuple(sorted(rest))
    rays = base.rays
    matrix = tuple(tuple(la.vec_dot(root, ray) for ray in rays) for root in row_roots)
    factors = la.snf(matrix)
    if factors != (1,) * a.rank:
        raise CertificationError(f"sign-map matrix has Smith form {factors}, not all ones")

    for k in chambers:
        pairing = [[la.vec_dot(b, ray) for ray in k.rays] for b in k.basis_covectors(a)]
        if not _cut_out_by_signs(a, k) or any(
            (x > 0) != (p == q) for p, row in enumerate(pairing) for q, x in enumerate(row)
        ):
            raise CertificationError(f"chamber {k.index} is not cut out by its sign pattern")

    # each face lies in a chamber, on whose rays every covector takes one sign
    # or 0 (checked above), so its sign on the face is its sign on the ray sum
    f = fan_from_arrangement(a)
    sign_rows = []
    seen: dict[tuple[int, ...], Mat] = {}
    for face in fan_faces(f):
        gens = f.cone_vectors(face)
        values = [sum(la.vec_dot(cov, g) for g in gens) for cov in a.positive_covectors]
        sv = tuple((v > 0) - (v < 0) for v in values)
        if sv in seen:
            raise CertificationError(
                f"cones {seen[sv]} and {gens} share the sign vector {sv}"
            )
        seen[sv] = gens
        sign_rows.append((gens, sv))
    return PhiCertificate(
        matrix=matrix,
        row_roots=row_roots,
        invariant_factors=factors,
        sign_vectors=tuple(sign_rows),
        base_chamber=base.index,
    )
