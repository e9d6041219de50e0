"""The intersection poset of an arrangement and its reflection in the fan.

Flats are subspaces cut out by hyperplane subsets, keyed by the
Hermite-canonical basis of the saturated sublattice they carry, so equality
of flats is equality of basis rows.  A flat X is also the intersection of
the set H(X) of hyperplanes containing it, held as an int bitmask over the
covectors, so order and containment are set operations: X <= Y exactly when
H(Y) is a subset of H(X).  The flats covered by X are the hyperplanes of the
restricted arrangement A^X, the distinct traces of the others on X, and each
is built from X's basis with a kernel of one row and one Hermite reduction.
Only the functions that read fans import `fan`, so `intersection_poset` and
`restricted_arrangement`, read off the same traces, load no fan code, and
none imports `fanmaps`: quotients come from `intlinalg.quotient_data`.
The toric-arrangement report verifies, purely on cones, the statements that
make the family of flat subfans an embedded copy of the poset, in one pass
over the chambers that keeps a count per face and a link per flat and sign
pattern, but no chamber-face incidence.
"""
from __future__ import annotations

from collections import Counter
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


def _traces(values: Sequence[Vec], held: int) -> dict[Vec, int]:
    """Trace on a flat X -> mask of the covectors off H(X) with that trace: a
    covector's column of `values`, its values on X's basis rows, made
    primitive with a canonical sign."""
    traces: dict[Vec, int] = {}
    for i, column in enumerate(zip(*values)):
        if not held >> i & 1:
            trace = la.canonical_sign(la.primitive(column))
            traces[trace] = traces.get(trace, 0) | 1 << i
    return traces


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
        for trace, g in _traces(list(map(values, flat.basis)), held).items():
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
    """The restriction A^X to a flat X, in X's own lattice: the traces on X
    of the hyperplanes off H(X), read on X's basis rows (`_traces`).  X's
    lattice is a direct summand of Z^r, so the traces generate the dual of
    Z^dim X, as `make_arrangement` requires.  The flat must belong to the
    poset and be nonzero; no chamber is walked.
    """
    held = _held(a, e.basis)
    if flat_from_constraints(a.rank, _covectors(a, held)) != e:
        raise BadReferenceError("subspace is not a flat of the arrangement")
    if e.dim == 0:
        raise BadReferenceError("restriction to the zero flat has rank 0")
    if e.dim == a.rank:
        return a
    return make_arrangement(e.dim, _traces([a.ray_signs(row).values for row in e.basis], held))


def parabolic_arrangement(a: Arrangement, delta: Sequence[int]) -> Arrangement:
    """The localization A_X at a face F of the chamber fan, X its span: the
    covectors vanishing on F, pushed to the quotient lattice.

    delta names F by ray indices, of dimension d below the rank.  W of
    `la.complete_to_basis` is unimodular, its first d rows span X's lattice,
    and c vanishing on F takes the values (0, ..., 0, img) on W's rows, img
    its values on `la.quotient_data`'s lifts: c primitive gives img primitive.
    As c(x) = sum_j kappa(x)_j * img_j, img is c in the star fan's quotient
    coordinates, where the star fan at F is the chamber fan of A_X (Orlik and
    Terao, 1992): the images are its wall covectors, and no star is built.
    """
    from .fan import _require_face, fan_from_arrangement

    f = fan_from_arrangement(a)
    dl = _require_face(f, delta)
    if not dl:
        return a
    if len(dl) == a.rank:
        raise BadReferenceError("parabolic arrangement needs a cone of dimension below the rank")
    gens = f.cone_vectors(dl)
    _, lifts, d = la.quotient_data(gens, a.rank)
    images = {la.canonical_sign(tuple(la.vec_dot(cov, lift) for lift in lifts))
              for cov in _covectors(a, _held(a, gens))}
    return make_arrangement(a.rank - d, sorted(images))


def toric_arrangement_report(a: Arrangement) -> ToricArrangementReport:
    """Verify the cone-level statements tying flats to subfans.

    For every flat E let S(E) be the faces of the chamber fan contained in E.
    Checked: (a) S(E n G) = S(E) n S(G) for all flat pairs; (b) slicing each
    face by E's vanishing covectors lands on a face and reproduces S(E);
    (c) E <= G exactly when S(E) <= S(G); (d) faces with equal span have
    identical star fans, all projected through one quotient basis of that
    span; and the top dimension of S(E) equals dim E.  One pass over the
    chambers walks each one's ray subsets, its faces, for their H(span), the
    covectors vanishing on them (`Arrangement.subset_zeros`): a face lies in
    E when H(E) is in its H(span).

    (b) is `face_signs` on each chamber's rays: a face's sign masks are ORs
    over a subset of them, so no covector cuts a face, a face sliced to its
    rays in E is a face in E, and each face in E is its own slice.  A face
    of chamber K takes K's signs off H(span), and faces are told apart by
    their signs, so H(span) and K's positive mask off it name the face:
    |S(E)| counts the names over the flats inside E, along the cover pairs.

    (a) and the dimensions: each flat is the kernel of its H(E) and spanned
    by a face, and each face spans a flat of its dimension: the kernel of its
    H(span), being its chamber cut by H(span).  E n G, the kernel of H(E)
    with H(G), is cut out by hyperplanes, so the complete fan's faces in it
    cover it and one spans it: the poset is intersection-closed, and a face
    lies in E and G exactly when it lies in E n G.  S(E) lies in E and holds
    a face spanning E, of dimension dim E.

    (c) E <= G exactly when a chain of covers leads from E up to G, as the
    flats are graded.  S(E) holds the face spanning E, so S(E) <= S(G)
    exactly when H(G) is in H(E): (=>) is one subset test per cover pair,
    and (<=) puts that face, hence E, inside G.

    (d) is localization (Orlik-Terao, 1992).  Modulo the span X of a face F
    of K, K is the chamber of A_X, the arrangement H(X), with K's signs on
    H(X), its pattern: F's link, K's other rays projected through X's one
    quotient basis, is a function of the pattern and, as H(X) factors
    through the quotient, gives it back.  The chambers holding F agree off
    H(X), so their patterns are distinct.  Checked: (i) links of one span
    and pattern are identical, and (ii) each face of span X lies in as many
    chambers as X has patterns.  So a face's star fan is the links of all of
    X's patterns.  Conversely, if faces of span X share one star fan, each
    has all of X's patterns, and K's link is that of each face's one chamber
    with K's pattern: (i) and (ii) are exactly (d), no chamber listed twice.
    A link ray in X would leave a larger face of span X, so a chamber's face
    dimensions are checked before its links are projected.  Failures raise
    CertificationError.
    """
    if not is_crystallographic(a).verdict:
        raise NotCrystallographicError("report requires a crystallographic arrangement")
    r, n, poset = a.rank, a.n_hyperplanes, intersection_poset(a)
    held = [_held(a, flat.basis) for flat in poset.flats]
    flat_of = dict(zip(held, poset.flats))
    dim_of = {h: flat.dim for h, flat in flat_of.items()}
    face_dims = [face.bit_count() for face in range(1 << r)]  # per ray subset
    faces = Counter()  # H(span) << n | K's positive mask off H(span), a face -> chambers
    stars: dict[int, int] = {}  # H(span) << n | K's positive mask on it, a pattern -> link
    rays, number = [], {}  # every chamber ray, numbered on first sight

    @cache  # per flat, on its first link: a ray's number -> one bit per distinct image
    def image(h: int):
        kappa, _, _ = la.quotient_data(flat_of[h].basis, r)
        bits: dict[Vec, int] = {}
        return cache(lambda i: bits.setdefault(la.primitive(kappa(rays[i])), 1 << len(bits)))

    for k in a.chambers:
        pos, _ = a.face_signs(k.rays)  # (b): no covector takes both signs on a face
        zeros = a.subset_zeros(k.rays)
        if list(map(dim_of.get, zeros)) != face_dims:
            face = next(f for f, h in enumerate(zeros) if dim_of.get(h) != face_dims[f])
            gens = tuple(ray for j, ray in enumerate(k.rays) if face >> j & 1)
            raise CertificationError(f"face {gens} does not span a flat of its dimension")
        faces.update([h << n | pos & ~h for h in zeros])
        links = [()]  # per face, in `subset_zeros` order, its link's ray numbers
        for ray in k.rays:
            if number.setdefault(ray, len(rays)) == len(rays):
                rays.append(ray)
            links = [link + (number[ray],) for link in links] + links
        links = list(map(sum, map(map, map(image, zeros), links)))
        patterns = [h << n | pos & h for h in zeros]
        if list(map(stars.setdefault, patterns, links)) != links:  # (i)
            h = next(p >> n for p, link in zip(patterns, links) if stars[p] != link)
            raise CertificationError(f"faces spanning {flat_of[h].basis} have distinct star fans")

    # (a) each flat is cut out by its hyperplanes and spanned by a face; (ii)
    spanned, patterned = Counter(f >> n for f in faces), Counter(p >> n for p in stars)
    for flat, h in zip(poset.flats, held):
        if h not in spanned or flat_from_constraints(r, _covectors(a, h)) != flat:
            raise CertificationError(f"flat {flat.basis} is not cut out by H or is no face's span")
    if any(chambers != patterned[f >> n] for f, chambers in faces.items()):
        raise CertificationError("a face lies in other than one chamber per pattern of its span")

    if any(held[high] & ~held[low] for low, high in poset.cover_pairs):  # (c)
        raise CertificationError("subfan inclusion does not mirror flat order")
    # the flats inside each, ORed up the cover pairs, sorted so each is whole when read
    below = [1 << k for k in range(len(held))]
    for low, high in poset.cover_pairs:
        below[high] |= below[low]
    return ToricArrangementReport(
        flat_count=len(poset.flats),
        subfan_dims=tuple(flat.dim for flat in poset.flats),
        subfan_sizes=tuple(sum(spanned[held[k]] for k in _bits(m)) for m in below),
        checks=("slice-vs-containment", "pairwise-intersections", "order-isomorphism",
                "stars-depend-on-span", "dimensions"),
    )


def poset_to_json(p: IntersectionPoset) -> dict:
    return {
        "flats": [{"dim": f.dim, "basis": [list(r) for r in f.basis]} for f in p.flats],
        "cover_pairs": [list(c) for c in p.cover_pairs],
    }
