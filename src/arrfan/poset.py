"""The intersection poset of an arrangement and its reflection in the fan.

Flats are subspaces cut out by hyperplane subsets, keyed by the
Hermite-canonical basis of the saturated sublattice they carry, so equality
of flats is equality of basis rows.  A flat X is also the intersection of
the set H(X) of hyperplanes containing it, held as an int bitmask over the
covectors, so order and containment are set operations: X <= Y exactly when
H(Y) is a subset of H(X).  The flats covered by X are the hyperplanes of the
restricted arrangement A^X, the distinct traces of the others on X.
The toric-arrangement report verifies, purely on cones, the statements that
make the family of flat subfans an embedded copy of the poset.
"""
from __future__ import annotations

from functools import cache, reduce
from operator import and_
from typing import NamedTuple, Sequence

from . import intlinalg as la
from .arrangement import Arrangement, is_crystallographic, make_arrangement
from .errors import BadReferenceError, CertificationError, NotCrystallographicError
from .fan import (
    _require_face,
    fan_faces,
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
    """The flat annihilated by the given covectors (all of Z^rank when empty)."""
    rows = [tuple(c) for c in covectors]
    if not rows:
        return FlatSubspace(dim=rank, basis=la.identity(rank))
    basis = la.kernel_basis(rows)
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
    flats = {0: (flat_from_constraints(r, ()), ())}  # H(X) -> (X, rows cutting X out)
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


def _require_flat(a: Arrangement, e: FlatSubspace) -> None:
    if flat_from_constraints(a.rank, _covectors(a, _held(a, e.basis))) != e:
        raise BadReferenceError("subspace is not a flat of the arrangement")


def restricted_arrangement(a: Arrangement, e: FlatSubspace) -> Arrangement:
    """The traces of the other hyperplanes on a flat, in the flat's own lattice.

    Computed as the wall covectors of the fan restricted to the flat, which
    is certified crystallographic.  The flat must belong to the poset and be
    nonzero.
    """
    _require_flat(a, e)
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
    Checked: (a) S(E n F) = S(E) n S(F) for all flat pairs; (b) slicing each
    face by E's vanishing covectors lands on a face and reproduces S(E)
    (the two descriptions of the flat subfan agree); (c) E <= F exactly when
    S(E) <= S(F); (d) faces with equal span have identical star fans, all
    projected through one quotient basis of that span (the flat of the
    face's dimension held by the covectors vanishing on all its rays); and
    the top dimension of S(E) equals dim E.  Flats enter through their
    hyperplane sets H(E):
    a face lies in E when every covector of H(E) vanishes on its rays, and
    E n F is the kernel of H(E) with H(F).  Any failure raises
    CertificationError; the report records sizes and dimensions.
    """
    if not is_crystallographic(a).verdict:
        raise NotCrystallographicError("report requires a crystallographic arrangement")
    r = a.rank
    f = fan_from_arrangement(a)
    poset = intersection_poset(a)
    faces = fan_faces(f)

    held = [_held(a, flat.basis) for flat in poset.flats]
    ray_signs = [a.ray_signs(ray) for ray in f.rays]
    # a face lies in a flat when every held covector vanishes on every ray of the face
    members = [
        frozenset(face for face in faces if all(h & ~ray_signs[i].zeros == 0 for i in face))
        for h in held
    ]

    checks = []
    # (b) slicing each face by the flat's annihilating covectors is a face op
    for fi, flat in enumerate(poset.flats):
        ann = [c for c in range(a.n_hyperplanes) if held[fi] >> c & 1]
        sliced = set()
        for face in faces:
            cur = face
            for c in ann:
                vals = [ray_signs[i].values[c] for i in cur]
                if any(v > 0 for v in vals) and any(v < 0 for v in vals):
                    raise CertificationError(
                        f"covector {a.positive_covectors[c]} cuts the interior of face {cur}"
                    )
                cur = tuple(i for i, v in zip(cur, vals) if v == 0)
            sliced.add(cur)
        if sliced != set(members[fi]):
            raise CertificationError(
                f"sliced faces disagree with containment for flat {flat.basis}"
            )
    checks.append("slice-vs-containment")

    # (a) intersections of flats match intersections of subfans
    @cache
    def meet(h: int) -> FlatSubspace:  # the kernel of H(E) and H(G) together
        return flat_from_constraints(r, _covectors(a, h))

    index_of = {flat.basis: i for i, flat in enumerate(poset.flats)}
    for i, e in enumerate(poset.flats):
        for j, g in enumerate(poset.flats):
            cap = meet(held[i] | held[j])
            if cap.basis not in index_of:
                raise CertificationError("poset is not intersection-closed")
            if members[index_of[cap.basis]] != members[i] & members[j]:
                raise CertificationError(
                    f"subfan of intersection differs from intersection of subfans "
                    f"({e.basis} vs {g.basis})"
                )
    checks.append("pairwise-intersections")

    # (c) order isomorphism onto the image: E <= G exactly when H(G) is in H(E)
    for i in range(len(poset.flats)):
        for j in range(len(poset.flats)):
            if (held[j] & ~held[i] == 0) != (members[i] <= members[j]):
                raise CertificationError("subfan inclusion does not mirror flat order")
    checks.append("order-isomorphism")

    # (d) equal spans give identical star fans, all in one quotient basis per span
    flat_of = dict(zip(held, poset.flats))
    by_span: dict[Mat, list] = {}
    for face in faces:
        span = flat_of.get(_held(a, f.cone_vectors(face)))
        if span is None or span.dim != len(face):
            raise CertificationError(f"face {face} does not span a flat of its dimension")
        by_span.setdefault(span.basis, []).append(face)
    for span_basis, group in sorted(by_span.items()):
        kappa, _, _ = quotient_data(span_basis, r)
        stars = {
            frozenset(
                frozenset(la.primitive(kappa(f.rays[i])) for i in cone if i not in face)
                for cone in f.max_cones
                if set(face) <= set(cone)
            )
            for face in group
        }
        if len(stars) != 1:
            raise CertificationError(
                f"faces spanning {span_basis} have {len(stars)} distinct star fans"
            )
    checks.append("stars-depend-on-span")

    dims = []
    sizes = []
    for fi, flat in enumerate(poset.flats):
        top = max((len(face) for face in members[fi]), default=0)
        if top != flat.dim:
            raise CertificationError(
                f"subfan of flat {flat.basis} has top dimension {top}, not {flat.dim}"
            )
        dims.append(flat.dim)
        sizes.append(len(members[fi]))
    checks.append("dimensions")
    return ToricArrangementReport(
        flat_count=len(poset.flats),
        subfan_dims=tuple(dims),
        subfan_sizes=tuple(sizes),
        checks=tuple(checks),
    )


def poset_to_json(p: IntersectionPoset) -> dict:
    return {
        "flats": [{"dim": f.dim, "basis": [list(r) for r in f.basis]} for f in p.flats],
        "cover_pairs": [list(c) for c in p.cover_pairs],
    }
