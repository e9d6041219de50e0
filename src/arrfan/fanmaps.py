"""Maps between fans: star and restriction fans, star subdivision, the
single-hyperplane blowup with its certificate, and the automorphism group.

Kept apart from `fan`, which every fan command loads, so that loading and
checking a fan compiles none of them.  The automorphism search verifies the
base cone's orderings and one ordering per further orbit of cones, and gets
the rest of the group as products of ray permutations.
"""
from __future__ import annotations

import itertools
from operator import mul
from typing import TYPE_CHECKING, NamedTuple, Sequence

from . import intlinalg as la
from .errors import (
    BadReferenceError,
    CertificationError,
    InputFormatError,
    NotCrystallographicError,
)
from .fan import Fan, _require_face, _seeded_fan, fan_from_arrangement, make_fan
from .intlinalg import Mat, Vec

if TYPE_CHECKING:
    from .arrangement import Arrangement


class BlowupEntry(NamedTuple):
    cone: Mat        # generators of the subdivided maximal cone
    ray_a: Vec       # the two generators spanning the split 2-face
    ray_b: Vec
    new_ray: Vec     # equals ray_a + ray_b


class BlowupCertificate(NamedTuple):
    entries: tuple[BlowupEntry, ...]


def quotient_data(gens: Mat, rank: int):
    """Deterministic quotient of Z^rank by the saturation of the generator span.

    Returns (kappa, lifts, d): kappa maps x to its coordinates in the quotient
    lattice, and lifts are the rank - d completing basis vectors whose classes
    are the quotient's standard basis (so an annihilating covector alpha
    induces the quotient covector (alpha(lift_j))_j).
    """
    w, v, d = la.complete_to_basis(gens, rank)
    cols = [tuple(row[j] for row in v) for j in range(d, rank)]  # v's last rank - d columns

    def kappa(x: Vec) -> Vec:
        return tuple(sum(map(mul, x, col)) for col in cols)

    return kappa, w[d:], d


def star_fan(f: Fan, delta: Sequence[int]) -> Fan:
    """The fan of cones containing delta, in the quotient lattice N/(N n <delta>).

    The quotient basis comes from a deterministic unimodular completion of the
    generators, so repeated runs produce identical coordinates.  delta = ()
    returns the fan itself.
    """
    dl = _require_face(f, delta)
    if not dl:
        return f
    gens = f.cone_vectors(dl)
    kappa, _, d = quotient_data(gens, f.rank)
    new_rank = f.rank - d
    cones = []
    for cone in f.max_cones:
        if set(dl) <= set(cone):
            imgs = [
                la.primitive(kappa(f.rays[i])) for i in cone if i not in dl
            ]
            cones.append(imgs)
    return make_fan(new_rank, cones, check_faces=False)


def restrict_fan(f: Fan, subspace_rows: Sequence[Sequence[int]]) -> Fan:
    """The cones of f lying inside a cone-spanned subspace, in its own lattice.

    `subspace_rows` must span the span of some cone of f; f must be smooth and
    strongly symmetric.  A ray lies in the subspace when the rows' kernel
    vanishes on it.  As the cones are simplicial, the subspace (of dimension
    d) is spanned by a cone exactly when some maximal cone has d rays inside,
    and those d-ray faces are the restricted cones.  As f is smooth, the rays
    of one face F are a basis of the subspace's lattice, and F's facet
    normals give a ray's coordinates on F; U^-1 of the Hermite form H = U*F
    maps them to the canonical basis H.  A restricted cone's facet normals
    are those of a maximal cone holding it, read on H.  The result is
    certified smooth and strongly symmetric, hence complete, of rank d.
    """
    rows = [tuple(r) for r in subspace_rows]
    if any(len(r) != f.rank for r in rows):
        raise InputFormatError("row width does not match ambient dimension")
    f.require("smooth", "strongly_symmetric")
    kernel = la.kernel_basis(rows) if rows else la.identity(f.rank)
    d = f.rank - len(kernel)
    if d == f.rank:
        return f
    if d == 0:
        return Fan(rank=0, rays=(), max_cones=((),))
    inside = [not any(la.vec_dot(h, v) for h in kernel) for v in f.rays]
    faces = {}  # restricted cone -> its rays' opposite normals in a maximal cone holding it
    for cone, hs in zip(f.max_cones, f.normals):
        face = tuple(i for i in cone if inside[i])
        if len(face) == d:
            faces[face] = [h for i, h in zip(cone, hs) if inside[i]]
    if not faces:
        raise BadReferenceError("subspace is not spanned by a cone of the fan")
    base = min(faces)
    basis, u = la.hnf(f.cone_vectors(base))
    to_basis = la.hnf(u)[1]  # U^-1: the Hermite form of a unimodular U is I
    cones = []
    for face, hs in faces.items():  # each ray's coordinates on H, with its normal read on H
        pairs = sorted((la.vec_mat([la.vec_dot(g, f.rays[i]) for g in faces[base]], to_basis),
                        tuple(la.vec_dot(b, h) for b in basis)) for i, h in zip(face, hs))
        cones.append(tuple(zip(*pairs)))
    result = _seeded_fan(d, cones)
    if not (result.properties.smooth and result.properties.strongly_symmetric):
        raise CertificationError("restriction fan lost smoothness or symmetry")
    return result


def star_subdivide(f: Fan, cone: Sequence[int]) -> Fan:
    """Star subdivision of one maximal cone at the sum of its generators."""
    target = tuple(sorted(set(cone)))
    if target not in f.max_cones:
        raise BadReferenceError(f"{tuple(cone)} is not a maximal cone")
    gens = f.cone_vectors(target)
    center = la.primitive(tuple(sum(col) for col in zip(*gens)))
    cones: list[list[Vec]] = []
    for c in f.max_cones:
        if c == target:
            for skip in range(len(gens)):
                cones.append([g for i, g in enumerate(gens) if i != skip] + [center])
        else:
            cones.append(list(f.cone_vectors(c)))
    return make_fan(f.rank, cones, check_faces=False)


def insert_hyperplane(a: Arrangement, h: Sequence[int]) -> tuple[Fan, BlowupCertificate]:
    """Add one hyperplane and certify the subdivision as 2-face blowups.

    Both the input and the enlarged arrangement must be crystallographic.
    Then every chamber the new covector cuts has exactly one ray a on its
    positive side and one ray b on its negative side, and splits along the
    2-face (a, b) at a + b: the star subdivision that blows up that face's
    orbit closure (Cox, Little and Schenck, *Toric Varieties*, 3.3).  Its
    pieces are the chamber with b replaced by a + b and the chamber with a
    replaced by a + b; every other chamber stays.  The certificate records,
    per split chamber in fan order, the cone, its two rays sorted and their
    sum, and holds when the predicted cones are exactly the chambers the
    enlarged arrangement's own walk found.
    """
    from .arrangement import is_crystallographic, make_arrangement

    if not any(h):
        raise InputFormatError("zero hyperplane")
    hv = la.canonical_sign(la.primitive(tuple(h)))
    if hv in a.positive_covectors:
        raise BadReferenceError(f"hyperplane {tuple(h)} already in the arrangement")
    a2 = make_arrangement(a.rank, a.positive_covectors + (hv,))
    if not is_crystallographic(a).verdict:
        raise NotCrystallographicError("base arrangement is not crystallographic")
    if not is_crystallographic(a2).verdict:
        raise NotCrystallographicError("enlarged arrangement is not crystallographic")
    predicted, entries = [], []
    for k in sorted(a.chambers, key=lambda k: k.rays):  # the chamber fan's cone order
        gens = k.rays
        vals = [la.vec_dot(hv, g) for g in gens]
        plus = [g for g, x in zip(gens, vals) if x > 0]
        minus = [g for g, x in zip(gens, vals) if x < 0]
        if not (plus and minus):
            predicted.append(gens)
            continue
        if len(plus) != 1 or len(minus) != 1:
            raise CertificationError(f"unexpected subdivision pattern in cone {gens}")
        (ray_a,), (ray_b,) = plus, minus
        new_ray = la.vec_add(ray_a, ray_b)
        for old in (ray_b, ray_a):
            predicted.append(tuple(sorted(new_ray if g == old else g for g in gens)))
        entries.append(BlowupEntry(gens, *sorted((ray_a, ray_b)), new_ray))
    if sorted(predicted) != sorted(k.rays for k in a2.chambers):
        raise CertificationError("the blown-up chambers are not the enlarged arrangement's")
    return fan_from_arrangement(a2), BlowupCertificate(tuple(entries))


def fan_automorphisms(f: Fan) -> tuple[Mat, ...]:
    """All unimodular matrices mapping the ray set and the cone set to themselves.

    Vectors transform as rows: v -> v*G.  A linear map is fixed by where it
    sends one full-rank cone's ordered generators, so the group acts freely
    on (maximal cone, ordering) flags.  A candidate sending base cone 0 to
    (K, ordering) must send the ray across base wall j to the ray across K's
    wall at the image of generator j; these r rays, read off the wall table,
    reject almost every candidate before the determinant and the map of every
    ray and cone verify the rest.  All r! orderings of the base cone are
    verified, which gives its whole stabiliser S.  Each later cone outside the
    orbit of the base cone under the group found so far has its orderings
    tried until one passes, which becomes a generator; when none passes, no
    automorphism reaches that cone.  Every automorphism g is then s*t_K with
    s in S and t_K the found element sending the base cone to K = g(base),
    so the products s*t_K, held as ray permutations, are the whole group.
    Requires a complete fan.
    """
    if f.rank == 0:
        return ((),)
    f.require("complete")
    across = [[0] * f.rank for _ in f.max_cones]  # ray across each wall of each cone
    for (a, j), (b, k) in f.walls.values():
        across[a][j] = f.max_cones[b][k]
        across[b][k] = f.max_cones[a][j]
    base = f.max_cones[0]
    binv, d = la.scaled_inverse(f.cone_vectors(base))  # base * binv = d * I
    base_across = [f.rays[i] for i in across[0]]
    ray_index = {v: i for i, v in enumerate(f.rays)}
    cone_index = {c: i for i, c in enumerate(f.max_cones)}

    def matrix(images: Sequence[int]) -> Mat | None:
        g = la.mat_mul(binv, [f.rays[i] for i in images])
        if any(x % d for row in g for x in row):
            return None
        return tuple(tuple(x // d for x in row) for row in g)

    def verified(ci: int, perm: Sequence[int]) -> tuple[int, ...] | None:
        """Ray permutation of base generator j -> generator perm[j] of ci, if an automorphism."""
        gi = matrix([f.max_cones[ci][p] for p in perm])
        if (
            gi is None
            or any(la.vec_mat(v, gi) != f.rays[across[ci][p]] for v, p in zip(base_across, perm))
            or abs(la.det(gi)) != 1
        ):
            return None
        perm_map = tuple(ray_index.get(la.vec_mat(v, gi)) for v in f.rays)
        if None in perm_map:
            return None
        cones_kept = all(tuple(sorted(perm_map[i] for i in c)) in cone_index for c in f.max_cones)
        return perm_map if cones_kept else None

    orderings = list(itertools.permutations(range(f.rank)))
    stabiliser = [p for p in (verified(0, perm) for perm in orderings) if p is not None]
    gens = list(stabiliser)
    orbit = {0: tuple(range(len(f.rays)))}  # orbit cone -> a found element sending base to it
    for ci in range(1, len(f.max_cones)):
        if ci in orbit:
            continue
        g = next((p for p in (verified(ci, perm) for perm in orderings) if p is not None), None)
        if g is None:
            continue
        gens.append(g)
        queue = list(orbit)
        for k in queue:
            for h in gens:
                image = cone_index[tuple(sorted(h[i] for i in f.max_cones[k]))]
                if image not in orbit:
                    orbit[image] = tuple(h[i] for i in orbit[k])
                    queue.append(image)
    return tuple(sorted(
        matrix([t[s[i]] for i in base]) for s in stabiliser for t in orbit.values()
    ))
