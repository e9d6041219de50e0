"""Simplicial rational fans: construction from arrangements and back,
property checks, star/restriction fans, subdivisions, automorphisms.

Fans are stored by their maximal cones over a sorted primitive ray list; all
faces are generator subsets since every cone here is simplicial.  Non-simplicial
input is rejected.  Fan equality is structural equality of the canonical form
(sorted rays, sorted index tuples).

Each fan's wall table (`Fan.walls`) lists, per facet of a maximal cone, the
cones containing it and the position of the ray opposite it.  It serves the
validation of imported fans, the completeness test, the normal-fan
certificate and the automorphism search, so none of them loops over pairs of
cones on a complete fan.  Its normal table (`Fan.normals`) holds each
maximal cone's primitive facet normals: the walk's wall covectors for a
chamber fan, read off the walk once per arrangement.  The covering test
(`Fan.overlap`) and the property verdict (`Fan.properties`) run once per
fan.  No face table is kept: `fan_faces` lists the faces when asked, and the
certificates that need faces walk each chamber's ray subsets.  The
automorphism search verifies the base cone's orderings and one ordering per
further orbit of cones, and gets the rest of the group as products of ray
permutations.
"""
from __future__ import annotations

import itertools
from functools import cached_property, reduce
from operator import or_
from typing import Iterable, NamedTuple, Sequence

from . import intlinalg as la
from .arrangement import Arrangement, _parse_json, is_crystallographic, make_arrangement
from .errors import (
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
from .intlinalg import Mat, Vec


class _FanFields(NamedTuple):
    rank: int
    rays: tuple[Vec, ...]
    max_cones: tuple[tuple[int, ...], ...]


class Fan(_FanFields):
    """Rank, sorted primitive rays and sorted maximal cones as ray index tuples.

    The fields are a read-only NamedTuple; the instance dict holds the
    cached wall, normal, covering and property tables.
    """

    def cone_vectors(self, cone: Sequence[int]) -> Mat:
        return tuple(self.rays[i] for i in cone)

    @cached_property
    def walls(self) -> dict[tuple[int, ...], tuple[tuple[int, int], ...]]:
        """Facet of a maximal cone -> its (cone index, opposite position) entries.

        Computed once per fan.  In a complete fan every facet has exactly two
        entries, one cone on each side of it.
        """
        table: dict[tuple[int, ...], list[tuple[int, int]]] = {}
        for ci, cone in enumerate(self.max_cones):
            for j in range(len(cone)):
                table.setdefault(cone[:j] + cone[j + 1:], []).append((ci, j))
        return {facet: tuple(entries) for facet, entries in table.items()}

    @cached_property
    def normals(self) -> tuple[Mat, ...]:
        """Per maximal cone, its primitive facet normals, one `la.dual_rays` each.

        Normal j vanishes on every generator but the j-th and is positive on
        that one.  Computed once per fan; cones share one tuple per distinct
        normal.  `make_fan` fills the table from its simplicial check, and
        `fan_from_arrangement` from the walk.
        """
        shared: dict[Vec, Vec] = {}
        return tuple(
            tuple(shared.setdefault(h, h) for h in la.dual_rays(self.cone_vectors(c)))
            for c in self.max_cones
        )

    @cached_property
    def overlap(self) -> tuple[tuple[int, ...], ...] | None:
        """The covering test: None for a complete fan, else two overlapping cones,
        or () for no pseudomanifold (pure, every facet in two maximal cones).

        The two cones at each facet must lie on opposite sides of it.  Then the
        number of cones containing a point off every facet hyperplane is the same
        for all such points, and the cones form a complete fan exactly when that
        number is 1 (the covering characterisation of triangulations; De Loera,
        Rambau and Santos, *Triangulations*, 2010).  The point is the first
        (1, t, t^2, ...) on which no facet normal vanishes; a normal vanishes for
        at most rank - 1 values of t.  Computed once per fan.
        """
        cones, walls = self.max_cones, self.walls
        if not (cones and all(len(c) == self.rank for c in cones)
                and all(len(entries) == 2 for entries in walls.values())):
            return ()
        for (a, j), (b, k) in walls.values():
            # normals[a][j] vanishes on the facet and is positive on cone a's side
            if la.vec_dot(self.normals[a][j], self.rays[cones[b][k]]) > 0:
                return cones[a], cones[b]
        distinct = set().union(*self.normals)
        for t in itertools.count():
            point = tuple(t**i for i in range(self.rank))
            side = {h: la.vec_dot(h, point) for h in distinct}
            if 0 not in side.values():
                break
        inside = [c for c, hs in zip(cones, self.normals) if all(side[h] > 0 for h in hs)]
        if not inside:
            raise CertificationError(f"no cone of a pseudomanifold fan contains {point}")
        return tuple(inside[:2]) if len(inside) > 1 else None

    @cached_property
    def properties(self) -> PropertyReport:
        """`check_properties(self)`, computed once per fan."""
        return check_properties(self)

    def require(self, *names: str) -> PropertyReport:
        """The fan's properties; raises the error of the first named one it lacks."""
        props = self.properties
        for name in names:
            if not getattr(props, name):
                raise _MISSING[name](
                    f"fan is not {name.replace('_', ' ')} (first failure: {props.failure_witness})"
                )
        return props


_MISSING = {
    "smooth": NotSmoothError,
    "complete": NotCompleteError,
    "strongly_symmetric": NotStronglySymmetricError,
}


class PropertyReport(NamedTuple):
    smooth: bool
    complete: bool
    centrally_symmetric: bool
    strongly_symmetric: bool
    hyperplanes: Mat | None = None
    failure_witness: object = None


class BlowupEntry(NamedTuple):
    cone: Mat        # generators of the subdivided maximal cone
    ray_a: Vec       # the two generators spanning the split 2-face
    ray_b: Vec
    new_ray: Vec     # equals ray_a + ray_b


class BlowupCertificate(NamedTuple):
    entries: tuple[BlowupEntry, ...]


def _cone_h_rep(gens: Mat, rank: int) -> list[Vec]:
    """Inequality rows cutting out a simplicial cone (span equalities as +/- pairs).

    The dual rays of the generators read off each generator's coefficient on
    their span; the kernel rows pin that span down.
    """
    rows = list(la.dual_rays(gens)) if gens else []
    if len(gens) < rank:
        for eq in la.kernel_basis(gens) if gens else la.identity(rank):
            rows += [eq, la.vec_neg(eq)]
    return rows


def _pairwise_overlap(f: Fan) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The first pair of cones not meeting in a common face, by one double
    description per pair."""
    h_reps = {c: _cone_h_rep(f.cone_vectors(c), f.rank) for c in f.max_cones}
    for a, b in itertools.combinations(f.max_cones, 2):
        inter = la.extreme_rays(h_reps[a] + h_reps[b])
        common = set(f.cone_vectors(a)) & set(f.cone_vectors(b))
        if not set(inter) <= common or len(inter) != len(set(a) & set(b)):
            return a, b
    return None


def make_fan(
    rank: int,
    cones: Iterable[Iterable[Vec]],
    *,
    check_faces: bool = True,
) -> Fan:
    """Canonical fan from maximal cones given as generator collections.

    Rays are deduplicated and sorted; cones become sorted index tuples, sorted
    among themselves.  Each distinct ray is checked once, in order of first
    occurrence.  Every listed cone must be simplicial (independent
    generators): its one elimination, `la.dual_rays`, fails on a singular
    cone and otherwise gives the cone's row of `Fan.normals`.  With
    check_faces=True any two cones that do not meet in a common face raise
    MalformedFanError.  A pure full-dimensional input whose
    facets each lie in exactly two cones is checked through the wall table:
    opposite sides at every facet and one cone over a generic point, which is
    O(C·r) facet work over the fan's inverse table.  Any other input (an
    incomplete fan, lower-dimensional cones) gets one double description per
    cone pair.  Internal constructors whose cones tile by construction pass
    check_faces=False.
    """
    cone_vecs = [tuple(tuple(v) for v in cone) for cone in cones]
    if rank == 0:
        return Fan(rank=0, rays=(), max_cones=((),))
    distinct = dict.fromkeys(v for cone in cone_vecs for v in cone)  # first-occurrence order
    for v in distinct:
        if len(v) != rank:
            raise InputFormatError(f"ray {v} does not have length {rank}")
        if all(x == 0 for x in v):
            raise InputFormatError("zero ray")
        if v != la.primitive(v):
            raise InputFormatError(f"ray {v} is not primitive")
    rays = sorted(distinct)
    index = {v: i for i, v in enumerate(rays)}
    cone_idx = sorted({tuple(sorted({index[v] for v in cone})) for cone in cone_vecs})
    shared: dict[Vec, Vec] = {}  # one tuple per distinct normal, as in `Fan.normals`
    normals = []
    for cone in cone_idx:
        gens = [rays[i] for i in cone]
        try:  # the cone's one elimination: singular exactly when not simplicial
            hs = la.dual_rays(gens)
        except ValueError:
            raise NotSimplicialError(f"cone {gens} is not simplicial") from None
        normals.append(tuple(shared.setdefault(h, h) for h in hs))
    # distinct cones of one size never contain each other, so a pure fan skips this
    by_size: dict[int, list[frozenset]] = {}
    for cone in cone_idx:
        by_size.setdefault(len(cone), []).append(frozenset(cone))
    for lo, hi in itertools.combinations(sorted(by_size), 2):
        if any(s <= b for s in by_size[lo] for b in by_size[hi]):
            raise InputFormatError("listed cones must be mutually maximal")
    f = Fan(rank=rank, rays=tuple(rays), max_cones=tuple(cone_idx))
    vars(f)["normals"] = tuple(normals)
    if check_faces:
        pair = f.overlap if f.overlap != () else _pairwise_overlap(f)
        if pair is not None:
            a, b = pair
            raise MalformedFanError(
                f"cones {f.cone_vectors(a)} and {f.cone_vectors(b)} overlap"
            )
    return f


def load_fan(data: bytes | str) -> Fan:
    """Parse and fully validate the fan JSON format.

    {"rank": r, "rays": [[...], ...], "max_cones": [[i, ...], ...]} with rays
    primitive, strictly lex-sorted, and 0-based cone indices.
    """
    return _fan_from_json(_parse_json(data))


def _fan_from_json(obj) -> Fan:
    if not isinstance(obj, dict) or any(k not in obj for k in ("rank", "rays", "max_cones")):
        raise InputFormatError("expected an object with 'rank', 'rays' and 'max_cones'")
    rank, rays, cones = obj["rank"], obj["rays"], obj["max_cones"]
    if not isinstance(rank, int) or isinstance(rank, bool) or rank < 1:
        raise InputFormatError("'rank' must be a positive integer")
    if not isinstance(rays, list) or not all(isinstance(v, list) for v in rays):
        raise InputFormatError("'rays' must be a list of integer lists")
    vecs = []
    for v in rays:
        if any(not isinstance(x, int) or isinstance(x, bool) for x in v):
            raise InputFormatError(f"ray {v} has non-integer entries")
        vecs.append(tuple(v))
    if vecs != sorted(set(vecs)):
        raise InputFormatError("'rays' must be strictly sorted and duplicate-free")
    if not isinstance(cones, list) or not all(isinstance(c, list) for c in cones):
        raise InputFormatError("'max_cones' must be a list of index lists")
    used: set[int] = set()
    cone_vecs = []
    for c in cones:
        for i in c:
            if not isinstance(i, int) or isinstance(i, bool) or not 0 <= i < len(vecs):
                raise InputFormatError(f"bad ray index {i}")
        used.update(c)
        cone_vecs.append([vecs[i] for i in c])
    if used != set(range(len(vecs))):
        raise InputFormatError("every ray must be used by some cone")
    return make_fan(rank, cone_vecs, check_faces=True)


def fan_to_json(f: Fan) -> dict:
    return {
        "rank": f.rank,
        "rays": [list(v) for v in f.rays],
        "max_cones": [list(c) for c in f.max_cones],
    }


def fan_faces(f: Fan) -> tuple[tuple[int, ...], ...]:
    """All faces, the subsets of the simplicial maximal cones, as sorted ray-index
    tuples in (dimension, indices) order, the origin () first."""
    faces = {face for cone in f.max_cones for k in range(len(cone) + 1)
             for face in itertools.combinations(cone, k)}
    return tuple(sorted(faces | {()}, key=lambda c: (len(c), c)))


def _seeded_fan(rank: int, cones: Sequence[tuple[Mat, Mat]]) -> Fan:
    """The fan of cones given as (lex-sorted rays, the facet normal opposite
    each), with its normal table filled in.  For cones that are simplicial
    and tile by construction: nothing of `make_fan` is checked."""
    rays = sorted({v for gens, _ in cones for v in gens})
    index = {v: i for i, v in enumerate(rays)}
    table = {tuple(index[v] for v in gens): hs for gens, hs in cones}
    f = Fan(rank=rank, rays=tuple(rays), max_cones=tuple(sorted(table)))
    vars(f)["normals"] = tuple(table[c] for c in f.max_cones)
    return f


def fan_from_arrangement(a: Arrangement) -> Fan:
    """The fan whose maximal cones are the closed chambers, read off the walk.

    Built once per arrangement and kept in its instance dict, next to
    `chambers`.  Chamber rays are lex-sorted and the signed wall covector
    `basis[j]` is the chamber's facet normal opposite ray j, so the normal
    table is the walk's: all cones share the 2n signed covectors.
    """
    if "fan" not in vars(a):
        signed = {(i, s): la.vec_scale(s, c)
                  for i, c in enumerate(a.positive_covectors) for s in (1, -1)}
        cones = [(k.rays, tuple(map(signed.get, k.basis))) for k in a.chambers]
        vars(a)["fan"] = _seeded_fan(a.rank, cones)
    return vars(a)["fan"]


def check_properties(f: Fan) -> PropertyReport:
    """Smoothness, completeness, central and strong symmetry, with witnesses.

    smooth: every maximal cone's generators extend to a lattice basis.  A
    full-rank cone does so when each primitive facet normal is 1 on its
    opposite generator (generators and normals are then inverse integer
    matrices); a lower-dimensional one when its Smith form is all ones.
    complete: the covering test (`Fan.overlap`), a pseudomanifold by the
    wall table that covers one generic point once.  centrally symmetric:
    rays and cones stable under negation.  strongly symmetric: complete and
    no maximal cone has rays strictly on both sides of any facet normal.  Per
    ray, one mask of the sorted distinct normals positive on it and one of
    those negative; their ORs over a cone meet in the normals cutting it.
    The witness is the lowest such normal and the first cone it cuts; else
    the normals are the primitive hyperplanes.  Consumers read the report
    once per fan from `Fan.properties`.
    """
    if f.rank == 0:
        return PropertyReport(True, True, True, True, hyperplanes=())

    smooth = True
    witness: object = None
    for cone, hs in zip(f.max_cones, f.normals):
        gens = f.cone_vectors(cone)
        if len(cone) == f.rank:
            unimodular = all(la.vec_dot(h, g) == 1 for h, g in zip(hs, gens))
        else:
            unimodular = la.snf(gens) == (1,) * len(cone)
        if not unimodular:
            smooth = False
            witness = {"property": "smooth", "cone": gens}
            break

    pure = bool(f.max_cones) and all(len(c) == f.rank for c in f.max_cones)
    complete = f.overlap is None
    if pure and not complete and witness is None:
        witness = {"property": "complete"}

    idx = {v: i for i, v in enumerate(f.rays)}
    opposite = [idx.get(la.vec_neg(v)) for v in f.rays]
    cone_set = set(f.max_cones)
    centrally = None not in opposite and all(
        tuple(sorted(opposite[i] for i in cone)) in cone_set for cone in f.max_cones
    )
    if not centrally and witness is None:
        witness = {"property": "centrally_symmetric"}

    strongly = complete
    hyperplanes: tuple[Vec, ...] | None = None
    if strongly:
        normals = sorted({la.canonical_sign(h) for h in set().union(*f.normals)})
        vals = [[la.vec_dot(h, v) for h in normals] for v in f.rays]
        pos = [sum(1 << j for j, x in enumerate(row) if x > 0) for row in vals]
        neg = [sum(1 << j for j, x in enumerate(row) if x < 0) for row in vals]
        cuts = [reduce(or_, map(pos.__getitem__, c)) & reduce(or_, map(neg.__getitem__, c))
                for c in f.max_cones]
        cut = reduce(or_, cuts)
        strongly = not cut
        if cut and witness is None:
            j = (cut & -cut).bit_length() - 1  # the first normal that cuts a cone
            cone = next(c for c, m in zip(f.max_cones, cuts) if m >> j & 1)
            witness = {"property": "strongly_symmetric", "hyperplane": normals[j],
                       "cone": f.cone_vectors(cone)}
        if strongly:
            hyperplanes = tuple(normals)
    return PropertyReport(
        smooth=smooth,
        complete=complete,
        centrally_symmetric=centrally,
        strongly_symmetric=strongly,
        hyperplanes=hyperplanes,
        failure_witness=witness,
    )


def roots_from_fan(f: Fan) -> Arrangement:
    """Recover the arrangement whose chambers are the maximal cones.

    Requires a smooth strongly symmetric fan.  The covectors are the union of
    the dual bases of the maximal cones' generator matrices, so that
    fan_from_arrangement inverts this map exactly; for a unimodular cone the
    dual basis is its set of facet normals, so they are the hyperplanes that
    `check_properties` reports.
    """
    if f.rank < 1:
        raise ValueError("roots_from_fan requires rank >= 1")
    return make_arrangement(f.rank, f.require("smooth", "strongly_symmetric").hyperplanes)


def quotient_data(gens: Mat, rank: int):
    """Deterministic quotient of Z^rank by the saturation of the generator span.

    Returns (kappa, lifts, d): kappa maps x to its coordinates in the quotient
    lattice, and lifts are the rank - d completing basis vectors whose classes
    are the quotient's standard basis (so an annihilating covector alpha
    induces the quotient covector (alpha(lift_j))_j).
    """
    w, v, d = la.complete_to_basis(gens, rank)
    cols = tuple(tuple(v[i][j] for j in range(d, rank)) for i in range(rank))

    def kappa(x: Vec) -> Vec:
        return la.vec_mat(x, cols)

    return kappa, w[d:], d


def _require_face(f: Fan, delta: Sequence[int]) -> tuple[int, ...]:
    dl = tuple(sorted(set(delta)))
    if any(not 0 <= i < len(f.rays) for i in dl):
        raise BadReferenceError(f"ray index out of range in cone {tuple(delta)}")
    if dl and not any(set(dl) <= set(c) for c in f.max_cones):
        raise BadReferenceError(f"cone {dl} is not a face of the fan")
    return dl


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
    """Add one hyperplane and certify the subdivision as 2-face splits.

    Both the input and the enlarged arrangement must be crystallographic.
    Every chamber met by the new hyperplane's interior is split into two
    cones along it: the chambers of the enlarged arrangement whose sign
    vectors extend its sign vector by +1 and by -1 at the new covector's
    position.  The certificate records, per split cone in fan order, the
    2-face (ray_a, ray_b) that was subdivided and checks that the unique new
    ray is exactly ray_a + ray_b.  Every other chamber must reappear with its
    rays under its one extension.
    """
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
    f2 = fan_from_arrangement(a2)
    at = a2.positive_covectors.index(hv)
    rays2 = {k.sign_vector: k.rays for k in a2.chambers}
    entries = []
    for k in sorted(a.chambers, key=lambda k: k.rays):  # the chamber fan's cone order
        gens, s = k.rays, k.sign_vector
        vals = [la.vec_dot(hv, g) for g in gens]
        sides = (s[:at] + (1,) + s[at:], s[:at] + (-1,) + s[at:])
        pieces = [rays2[e] for e in sides if e in rays2]
        if any(x > 0 for x in vals) and any(x < 0 for x in vals):
            if len(pieces) != 2:
                raise CertificationError(
                    f"cone {gens} split into {len(pieces)} pieces, expected 2"
                )
            p0, p1 = (set(p) for p in pieces)
            new_rays = (p0 | p1) - set(gens)
            only0 = (p0 - p1) & set(gens)
            only1 = (p1 - p0) & set(gens)
            if len(new_rays) != 1 or len(only0) != 1 or len(only1) != 1:
                raise CertificationError(f"unexpected subdivision pattern in cone {gens}")
            new_ray = next(iter(new_rays))
            ray_a, ray_b = sorted([next(iter(only0)), next(iter(only1))])
            if new_ray != la.vec_add(ray_a, ray_b):
                raise CertificationError(
                    f"new ray {new_ray} is not the generator sum {ray_a} + {ray_b}"
                )
            entries.append(
                BlowupEntry(cone=gens, ray_a=ray_a, ray_b=ray_b, new_ray=new_ray)
            )
        elif pieces != [gens]:
            raise CertificationError(f"untouched cone {gens} vanished")
    if len(f2.max_cones) != len(a.chambers) + len(entries):
        raise CertificationError("subdivision produced unexpected cone count")
    return f2, BlowupCertificate(tuple(entries))


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
