"""The intersection poset of an arrangement and its reflection in the fan.

Flats are subspaces cut out by hyperplane subsets, keyed by the
Hermite-canonical basis of the saturated sublattice they carry, so equality
of flats is equality of basis rows.  A flat X is also the intersection of
the set H(X) of hyperplanes containing it, held as an int bitmask over the
covectors, so order and containment are set operations: X <= Y exactly when
H(Y) is a subset of H(X).  The flats covered by X are the hyperplanes of the
restricted arrangement A^X, the distinct traces of the others on X.
The toric-arrangement report verifies, purely on cones, the statements that
make the family of flat subfans an embedded copy of the poset.  It reads the
fan's face table with one sign fold per face, whose cut test is the whole of
the slice check, and finds the meet of two flats as the span of the top face
their subfans share, which the complete fan's faces in the meet reach.
"""
from __future__ import annotations

import itertools
from functools import reduce
from operator import and_, or_
from typing import NamedTuple, Sequence

from . import intlinalg as la
from .arrangement import Arrangement, is_crystallographic, make_arrangement
from .errors import BadReferenceError, CertificationError, NotCrystallographicError
from .fan import (
    _require_face,
    fan_from_arrangement,
    quotient_data,
    restrict_fan,
    roots_from_fan,
    star_fan,
)
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


def _covectors(a: Arrangement, held: int) -> Mat:
    return tuple(cov for i, cov in enumerate(a.positive_covectors) if held >> i & 1)


def intersection_poset(a: Arrangement) -> IntersectionPoset:
    """All intersections of hyperplane subsets, with cover relations.

    One pass per flat X, keyed by the set H(X) of hyperplanes containing it,
    from the whole space down.  The traces on X of the other hyperplanes,
    their values on X's basis rows up to scale, are the restricted
    arrangement A^X, and each trace is one flat Y covered by X: H(Y) is H(X)
    with the hyperplanes of that trace.  A new Y is the kernel of the codim X
    rows that cut X out plus one of them, so each flat below the whole space
    costs one elimination.  Flats are sorted by dimension and basis.
    """
    r, covs = a.rank, a.positive_covectors
    flats = {0: (FlatSubspace(r, la.identity(r)), ())}  # H(X) -> (X, rows cutting X out)
    found, covers = [0], []
    for held in found:  # `found` grows as it is read
        flat, rows = flats[held]
        values = [a.ray_signs(row).values for row in flat.basis]
        traces: dict[Vec, int] = {}
        for i in range(len(covs)):
            if not held >> i & 1:
                trace = la.canonical_sign(la.primitive([v[i] for v in values]))
                traces[trace] = traces.get(trace, 0) | 1 << i
        for g in traces.values():
            if held | g not in flats:
                cut = rows + (covs[g.bit_length() - 1],)
                flats[held | g] = (flat_from_constraints(r, cut), cut)
                found.append(held | g)
            covers.append((held | g, held))
    order = sorted(flats, key=lambda h: (flats[h][0].dim, flats[h][0].basis))
    index = {h: k for k, h in enumerate(order)}
    return IntersectionPoset(
        flats=tuple(flats[h][0] for h in order),
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
    return roots_from_fan(restrict_fan(fan_from_arrangement(a), e.basis))


def parabolic_arrangement(a: Arrangement, delta: Sequence[int]) -> Arrangement:
    """The covectors vanishing on a cone's span, pushed to the quotient lattice.

    delta is a face of the fan of `a`, given by ray indices, of dimension
    strictly below the rank.  The result is certified to equal the wall
    covectors of the star fan at delta (the two descriptions of the same
    arrangement), using the same deterministic quotient basis.
    """
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
    span; and the top dimension of S(E) equals dim E.  All read the face
    table (`Fan.faces`) and one sign fold per face (`Arrangement.face_signs`),
    whose covectors of neither sign are H(span): a face lies in E when H(E)
    is in its H(span), so S(E) is a face bitmask.

    (b) is the fold's cut test: faces are the subsets of simplicial cones, so
    a face sliced to its rays in E is a face in E, and each face in E is its
    own slice, unless a covector cuts a face's interior.  (a) checks each
    flat to be the kernel of its own H(E), then reads S(E) n S(G), the faces
    in E n G, which cover it as the fan is complete: their top face spans
    E n G, so they must be the subfan of that span's flat.  Failures raise
    CertificationError.
    """
    if not is_crystallographic(a).verdict:
        raise NotCrystallographicError("report requires a crystallographic arrangement")
    r, f, poset = a.rank, fan_from_arrangement(a), intersection_poset(a)
    held = [_held(a, flat.basis) for flat in poset.flats]
    flat_at = {h: k for k, h in enumerate(held)}
    faces, everything = list(f.faces), (1 << a.n_hyperplanes) - 1
    # (b) is the fold's cut test: no covector takes both signs on a face
    folds = (a.face_signs(f.cone_vectors(face)) for face in faces)
    spans = [everything & ~(pos | neg) for pos, neg in folds]  # per face, H(span)
    by_span: dict[int, list[int]] = {}  # H(span) -> the indices of its faces
    for k, span in enumerate(spans):
        by_span.setdefault(span, []).append(k)
    masks = [(span, sum(1 << k for k in ks)) for span, ks in by_span.items()]
    members = [reduce(or_, (m for s, m in masks if not h & ~s), 0) for h in held]

    # (a) intersections of flats match intersections of subfans
    for flat, h in zip(poset.flats, held):
        if flat_from_constraints(r, _covectors(a, h)) != flat:
            raise CertificationError(f"flat {flat.basis} is not cut out by its hyperplanes")
    for i, e in enumerate(poset.flats):
        for j in range(i, len(held)):
            common = members[i] & members[j]  # holds the origin, so it has a top face
            cap = flat_at.get(spans[common.bit_length() - 1])
            if cap is None:
                raise CertificationError("poset is not intersection-closed")
            if members[cap] != common:
                raise CertificationError(
                    f"subfan of intersection differs from intersection of subfans "
                    f"({e.basis} vs {poset.flats[j].basis})"
                )

    # (c) order isomorphism onto the image: E <= G exactly when H(G) is in H(E)
    pairs = itertools.product(zip(held, members), repeat=2)
    if any((not hj & ~hi) != (mi & mj == mi) for (hi, mi), (hj, mj) in pairs):
        raise CertificationError("subfan inclusion does not mirror flat order")

    # (d) equal spans give identical star fans, all in one quotient basis per span;
    # the faces of one span share its dimension, as each face's rays are independent
    for span, ks in by_span.items():
        group, at = [faces[k] for k in ks], flat_at.get(span)
        flat = None if at is None else poset.flats[at]
        if flat is None or flat.dim != len(group[0]):
            raise CertificationError(f"face {group[0]} does not span a flat of its dimension")
        kappa, _, _ = quotient_data(flat.basis, r)
        links = [[set(f.max_cones[c]).difference(face) for c in f.faces[face]] for face in group]
        image = {i: la.primitive(kappa(f.rays[i])) for i in set().union(*itertools.chain(*links))}
        stars = {frozenset(frozenset(map(image.get, link)) for link in cs) for cs in links}
        if len(stars) != 1:
            raise CertificationError(
                f"faces spanning {flat.basis} have {len(stars)} distinct star fans"
            )

    for flat, m in zip(poset.flats, members):
        top = len(faces[m.bit_length() - 1])  # faces run by dimension; S(E) holds the origin
        if top != flat.dim:
            raise CertificationError(
                f"subfan of flat {flat.basis} has top dimension {top}, not {flat.dim}"
            )
    return ToricArrangementReport(
        flat_count=len(poset.flats),
        subfan_dims=tuple(flat.dim for flat in poset.flats),
        subfan_sizes=tuple(m.bit_count() for m in members),
        checks=("slice-vs-containment", "pairwise-intersections", "order-isomorphism",
                "stars-depend-on-span", "dimensions"),
    )


def poset_to_json(p: IntersectionPoset) -> dict:
    return {
        "flats": [{"dim": f.dim, "basis": [list(r) for r in f.basis]} for f in p.flats],
        "cover_pairs": [list(c) for c in p.cover_pairs],
    }
