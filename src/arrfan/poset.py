"""The intersection poset of an arrangement and its reflection in the fan.

Flats are subspaces cut out by hyperplane subsets, keyed by the
Hermite-canonical basis of the saturated sublattice they carry, so equality
of flats is equality of basis rows.  A flat X is also the intersection of
the set H(X) of hyperplanes containing it, held as an int bitmask over the
covectors, so order and containment are set operations: X <= Y exactly when
H(Y) is a subset of H(X).  The flats covered by X are the hyperplanes of the
restricted arrangement A^X, the distinct traces of the others on X, and each
is built from X's basis with a kernel of one row and one Hermite reduction.
Only the functions that read fans import `fan`, so `intersection_poset`
loads no fan code.
The toric-arrangement report verifies, purely on cones, the statements that
make the family of flat subfans an embedded copy of the poset.  It walks
each chamber's ray subsets once, grouping faces by the mask of the flat they
span; one sign fold per chamber is the whole of the slice check, the face
spans equalling the flat masks gives the intersections and dimensions, and
the order is checked once per cover pair.
"""
from __future__ import annotations

import itertools
from collections import defaultdict
from functools import cache, reduce
from operator import and_
from typing import NamedTuple, Sequence

from . import intlinalg as la
from .arrangement import Arrangement, is_crystallographic, make_arrangement
from .errors import BadReferenceError, CertificationError, NotCrystallographicError
from .intlinalg import Mat, Vec


class FlatSubspace(NamedTuple):
    dim: int
    basis: Mat  # Hermite-canonical rows of the saturated sublattice


class IntersectionPoset(NamedTuple):
    flats: tuple[FlatSubspace, ...]      # sorted by (dim, basis)
    cover_pairs: tuple[tuple[int, int], ...]  # (i, j): flats[i] covered by flats[j]


class ToricArrangementReport(NamedTuple):
    flat_count: int
    subfan_dims: tuple[int, ...]   # per flat, = flat dimension
    subfan_sizes: tuple[int, ...]  # number of fan faces inside each flat
    checks: tuple[str, ...]


def flat_from_constraints(rank: int, covectors: Sequence[Vec]) -> FlatSubspace:
    """The flat annihilated by the given covectors, one elimination; with none,
    the kernel of the zero row, all of Z^rank."""
    basis = la.kernel_basis([tuple(c) for c in covectors] or [(0,) * rank])
    return FlatSubspace(dim=len(basis), basis=basis)


def flat_from_generators(rank: int, vectors: Sequence[Vec]) -> FlatSubspace:
    """The flat spanned by the given lattice vectors (saturated)."""
    basis = la.saturation_basis([tuple(v) for v in vectors], rank)
    return FlatSubspace(dim=len(basis), basis=basis)


def _held(a: Arrangement, basis: Mat) -> int:
    """Bitmask of the covectors vanishing on every basis row: H(X) for a flat X."""
    everything = (1 << a.n_hyperplanes) - 1
    return reduce(and_, (a.ray_signs(row).zeros for row in basis), everything)


def _bits(m: int):
    """The indices of the set bits of m, lowest first."""
    while m:
        yield (m & -m).bit_length() - 1
        m &= m - 1


def _covectors(a: Arrangement, held: int) -> Mat:
    return tuple(cov for i, cov in enumerate(a.positive_covectors) if held >> i & 1)


def intersection_poset(a: Arrangement) -> IntersectionPoset:
    """All intersections of hyperplane subsets, with cover relations.

    One pass per flat X, keyed by the set H(X) of hyperplanes containing it,
    from the whole space down.  The traces on X of the other hyperplanes,
    their values on X's basis rows up to scale, are the restricted
    arrangement A^X, and each trace t is one flat Y covered by X: H(Y) is
    H(X) with the hyperplanes of that trace.  X's basis B is a Z-basis of
    X n Z^r, as X is saturated, so x*B runs over X n Z^r as x runs over
    Z^dim X, and x*B lies in Y exactly when t(x) = 0.  The kernel K of t is
    saturated, so K*B is a Z-basis of Y n Z^r, and its Hermite form is Y's
    canonical basis: each flat below the whole space costs one kernel of
    one row and one Hermite reduction.  Flats are sorted by dimension and
    basis.
    """
    @cache  # a basis row's value under every covector, for this call only
    def values(row: Vec) -> Vec:
        return tuple(la.vec_dot(c, row) for c in a.positive_covectors)

    flats = {0: FlatSubspace(a.rank, la.identity(a.rank))}  # H(X) -> X
    found, covers = [0], []
    for held in found:  # `found` grows as it is read
        flat = flats[held]
        traces: dict[Vec, int] = {}
        for i, column in enumerate(zip(*map(values, flat.basis))):
            if not held >> i & 1:
                trace = la.canonical_sign(la.primitive(column))
                traces[trace] = traces.get(trace, 0) | 1 << i
        for trace, g in traces.items():
            if held | g not in flats:
                basis = la.hermite_basis(la.mat_mul(la.kernel_basis([trace]), flat.basis))
                flats[held | g] = FlatSubspace(len(basis), basis)
                found.append(held | g)
            covers.append((held | g, held))
    order = sorted(flats, key=lambda h: (flats[h].dim, flats[h].basis))
    index = {h: k for k, h in enumerate(order)}
    return IntersectionPoset(
        flats=tuple(flats[h] for h in order),
        cover_pairs=tuple(sorted((index[low], index[high]) for low, high in covers)),
    )


def restricted_arrangement(a: Arrangement, e: FlatSubspace) -> Arrangement:
    """The traces of the other hyperplanes on a flat, in the flat's own lattice.

    Computed as the wall covectors of the fan restricted to the flat, which
    is certified crystallographic.  The flat must belong to the poset and be
    nonzero.
    """
    if flat_from_constraints(a.rank, _covectors(a, _held(a, e.basis))) != e:
        raise BadReferenceError("subspace is not a flat of the arrangement")
    if e.dim == 0:
        raise BadReferenceError("restriction to the zero flat has rank 0")
    if e.dim == a.rank:
        return a
    from .fan import fan_from_arrangement, restrict_fan, roots_from_fan

    return roots_from_fan(restrict_fan(fan_from_arrangement(a), e.basis))


def parabolic_arrangement(a: Arrangement, delta: Sequence[int]) -> Arrangement:
    """The covectors vanishing on a cone's span, pushed to the quotient lattice.

    delta is a face of the fan of `a`, given by ray indices, of dimension
    strictly below the rank.  The result is certified to equal the wall
    covectors of the star fan at delta (the two descriptions of the same
    arrangement), using the same deterministic quotient basis.
    """
    from .fan import _require_face, fan_from_arrangement, quotient_data, roots_from_fan, star_fan

    f = fan_from_arrangement(a)
    dl = _require_face(f, delta)
    if not dl:
        return a
    if len(dl) == a.rank:
        raise BadReferenceError("parabolic arrangement needs a cone of dimension below the rank")
    gens = f.cone_vectors(dl)
    _, lifts, d = quotient_data(gens, a.rank)
    projected = set()
    for cov in _covectors(a, _held(a, gens)):
        img = tuple(la.vec_dot(cov, lift) for lift in lifts)
        if img != la.primitive(img):
            raise CertificationError(f"covector {cov} projects to a non-primitive {img}")
        projected.add(la.canonical_sign(img))
    result = make_arrangement(a.rank - d, sorted(projected))
    star_side = roots_from_fan(star_fan(f, dl))
    if result != star_side:
        raise CertificationError(
            "projected covectors disagree with the star fan's wall covectors"
        )
    return result


def toric_arrangement_report(a: Arrangement) -> ToricArrangementReport:
    """Verify the cone-level statements tying flats to subfans.

    For every flat E let S(E) be the faces of the chamber fan contained in E.
    Checked: (a) S(E n G) = S(E) n S(G) for all flat pairs; (b) slicing each
    face by E's vanishing covectors lands on a face and reproduces S(E);
    (c) E <= G exactly when S(E) <= S(G); (d) faces with equal span have
    identical star fans, all projected through one quotient basis of that
    span; and the top dimension of S(E) equals dim E.  The faces are the
    subsets of the chambers' rays, read in one walk per chamber
    (`Arrangement.subset_zeros`) that gives each face H(span), the covectors
    vanishing on it: a face lies in E when H(E) is in its H(span).

    (b) is `face_signs` on each chamber's rays: a face's sign masks are ORs
    over a subset of them, so no covector cuts a face, a face sliced to its
    rays in E is a face in E, and each face in E is its own slice.  A face
    of chamber K takes K's signs off H(span), and faces are told apart by
    their sign vectors, so H(span) and K's positive mask outside it name the
    face.  It is counted once, at its owner, the chamber on which all of
    H(span) is positive (`phi_certificate`); |S(E)| sums the counts over the
    flats inside E, found along the cover pairs.

    (a) and the dimensions: each flat is the kernel of its H(E), the face
    spans are exactly the flats, and every face has its span's dimension.
    A face spans the kernel of its H(span), being its chamber cut by H(span).
    E n G, the kernel of H(E) with H(G), is cut out by hyperplanes, so the
    complete fan's faces in it cover it and one spans it: the poset is
    intersection-closed, and a face lies in E and G exactly when it lies in
    E n G.  S(E) lies in E and holds a face spanning E, of dimension dim E.

    (c) E <= G exactly when a chain of covers leads from E up to G, as the
    flats are graded.  S(E) holds the face spanning E, so S(E) <= S(G)
    exactly when H(G) is in H(E): (=>) is one subset test per cover pair,
    and (<=) puts that face, hence E, inside G.  (d) projects each face's
    links, the other rays of its chambers, through its span's quotient
    basis.  Failures raise CertificationError.
    """
    from .fan import quotient_data

    if not is_crystallographic(a).verdict:
        raise NotCrystallographicError("report requires a crystallographic arrangement")
    r, poset = a.rank, intersection_poset(a)
    held = [_held(a, flat.basis) for flat in poset.flats]
    flat_at = {h: k for k, h in enumerate(held)}
    owned: dict[int, int] = {}  # H(span) -> its faces, each counted at its owner
    # H(span) -> face -> per chamber holding it, (its rays, the face as a bitmask over them)
    links: dict[int, dict[int, list]] = defaultdict(lambda: defaultdict(list))
    for k in a.chambers:
        pos, _ = a.face_signs(k.rays)  # (b): no covector takes both signs on a face
        for face, h in enumerate(a.subset_zeros(k.rays)):
            if not h & ~pos:
                owned[h] = owned.get(h, 0) + 1
            links[h][pos & ~h].append((k.rays, face))

    # (a) and the dimensions: the face spans are the flats, of their dimensions
    for flat, h in zip(poset.flats, held):
        if flat_from_constraints(r, _covectors(a, h)) != flat:
            raise CertificationError(f"flat {flat.basis} is not cut out by its hyperplanes")
    if links.keys() != flat_at.keys():
        raise CertificationError("the spans of the fan's faces are not the poset's flats")
    for h, stars in links.items():  # every face, at every chamber holding it
        dim = poset.flats[flat_at[h]].dim
        for rays, face in itertools.chain.from_iterable(stars.values()):
            if face.bit_count() != dim:
                gens = tuple(ray for j, ray in enumerate(rays) if face >> j & 1)
                raise CertificationError(f"face {gens} does not span a flat of its dimension")

    # (d) equal spans give identical star fans, all in one quotient basis per span; a
    # link ray in the span would give a larger face of that span, so no image is 0
    outside = [[j for j in range(r) if not face >> j & 1] for face in range(1 << r)]
    for h, stars in links.items():
        flat = poset.flats[flat_at[h]]
        kappa, _, _ = quotient_data(flat.basis, r)
        bits: dict[Vec, int] = {}  # one bit per distinct image: a link's images are an OR
        image = cache(lambda ray: bits.setdefault(la.primitive(kappa(ray)), 1 << len(bits)))
        projected = {
            frozenset(sum(map(image, map(rays.__getitem__, outside[face])))
                      for rays, face in incidences)
            for incidences in stars.values()
        }
        if len(projected) != 1:
            raise CertificationError(
                f"faces spanning {flat.basis} have {len(projected)} distinct star fans"
            )

    # (c) order isomorphism onto the image: one subset test per cover pair
    if any(held[high] & ~held[low] for low, high in poset.cover_pairs):
        raise CertificationError("subfan inclusion does not mirror flat order")
    # |S(E)| sums the owner counts of the flats inside E, ORed up the cover pairs:
    # they are sorted by the lower flat, and the flats by dimension, so each down-set
    # is whole before it is read
    below = [1 << k for k in range(len(held))]
    for low, high in poset.cover_pairs:
        below[high] |= below[low]
    owners = [owned.get(h, 0) for h in held]
    return ToricArrangementReport(
        flat_count=len(poset.flats),
        subfan_dims=tuple(flat.dim for flat in poset.flats),
        subfan_sizes=tuple(sum(owners[k] for k in _bits(m)) for m in below),
        checks=("slice-vs-containment", "pairwise-intersections", "order-isomorphism",
                "stars-depend-on-span", "dimensions"),
    )


def poset_to_json(p: IntersectionPoset) -> dict:
    return {
        "flats": [{"dim": f.dim, "basis": [list(r) for r in f.basis]} for f in p.flats],
        "cover_pairs": [list(c) for c in p.cover_pairs],
    }
