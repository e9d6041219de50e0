"""Simplicial rational fans: construction from arrangements and back,
validation of fans built from cone lists, and the property checks.

Fans are stored by their maximal cones over a sorted primitive ray list; all
faces are generator subsets since every cone here is simplicial.  Non-simplicial
input is rejected.  Fan equality is structural equality of the canonical form
(sorted rays, sorted index tuples).

Each fan's wall table (`Fan.walls`) lists, per facet of a maximal cone, the
cones containing it and the position of the ray opposite it.  It serves the
validation of cone lists, the completeness test, the normal-fan
certificate and the automorphism search, so none of them loops over pairs of
cones on a complete fan.  Its normal table (`Fan.normals`) holds each
maximal cone's primitive facet normals: the walk's wall covectors for a
chamber fan, read off the walk once per arrangement.  The covering test
(`Fan.overlap`), each property's own witness (`Fan.witnesses`) and the
property verdict (`Fan.properties`) run once per fan.  No face table is
kept: `fan_faces` lists the faces when asked, and the certificates that need
faces walk each chamber's ray subsets.  `make_fan` checks every fan built
from a cone list, imported or derived; the chamber fan, whose normals come
from the walk, is the one fan built unchecked.

The maps between fans (star, restriction, subdivisions, automorphisms) are
in `fanmaps`.  This module imports `arrangement` only inside the functions
that build or return an arrangement, so `star`, `autos`, `plot` and the
surface commands never compile it.
"""
from __future__ import annotations

import itertools
from functools import cached_property, reduce
from operator import or_
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from . import intlinalg as la
from .errors import (
    BadReferenceError,
    InputFormatError,
    MalformedFanError,
    NotCompleteError,
    NotSimplicialError,
    NotSmoothError,
    NotStronglySymmetricError,
    _parse_json,
)
from .intlinalg import Mat, Vec

if TYPE_CHECKING:
    from .arrangement import Arrangement


class _FanFields(NamedTuple):
    rank: int
    rays: tuple[Vec, ...]
    max_cones: tuple[tuple[int, ...], ...]


class Fan(_FanFields):
    """Rank, sorted primitive rays and sorted maximal cones as ray index tuples.

    The fields are a read-only NamedTuple; the instance dict holds the
    cached wall, normal, hyperplane, covering, witness and property tables.
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
        normal.  A cone whose generators are dependent has no such normals
        and raises NotSimplicialError: `make_fan` reads the table as its
        simplicial check, and `fan_from_arrangement` fills it from the walk.
        """
        shared: dict[Vec, Vec] = {}
        rows = []
        for c in self.max_cones:
            gens = list(self.cone_vectors(c))
            try:  # the cone's one elimination: singular exactly when not simplicial
                hs = la.dual_rays(gens)
            except ValueError:
                raise NotSimplicialError(f"cone {gens} is not simplicial") from None
            rows.append(tuple(shared.setdefault(h, h) for h in hs))
        return tuple(rows)

    @cached_property
    def _hyperplanes(self) -> tuple[Vec, ...]:
        """The sorted distinct canonical facet normals, computed once per fan."""
        return tuple(sorted({la.canonical_sign(h) for h in set().union(*self.normals)}))

    @cached_property
    def overlap(self) -> tuple[tuple[int, ...], ...] | None:
        """The covering test: None for a complete fan, else two overlapping cones,
        or () for no pseudomanifold (pure, every facet in two maximal cones).

        The two cones at each facet must lie on opposite sides of it.  Then the
        number of cones containing a point off every facet hyperplane is the same
        for all such points, and the cones form a complete fan exactly when that
        number is 1 (the covering characterisation of triangulations; De Loera,
        Rambau and Santos, *Triangulations*, 2010).  The number is at least 1,
        as each cone's interior holds such points.  The point is the first
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
        return tuple(inside[:2]) if len(inside) > 1 else None

    @cached_property
    def witnesses(self) -> dict[str, object]:
        """Each property the fan lacks -> its own witness, each property
        checked on its own, once per fan.

        smooth: every maximal cone's generators extend to a lattice basis.  A
        full-rank cone does so when each primitive facet normal is 1 on its
        opposite generator (generators and normals are then inverse integer
        matrices); a lower-dimensional one when its Smith form is all ones.
        The witness is the first cone that does not.  complete: the covering
        test (`Fan.overlap`).  When the cones are no pseudomanifold, the witness
        names the first maximal cone of dimension below the rank, else the
        lowest facet, by ray indices, in other than two maximal cones; else it
        is the property alone.
        centrally symmetric: rays and cones stable under negation.  strongly
        symmetric: complete (else completeness's witness) and no maximal cone
        has rays strictly on both sides of any facet normal.  Per ray, one
        mask of the sorted distinct normals positive on it and one of those
        negative; their ORs over a cone meet in the normals cutting it.  The
        witness is the lowest such normal and the first cone it cuts.
        """
        lacks: dict[str, object] = {}
        for cone, hs in zip(self.max_cones, self.normals):
            gens = self.cone_vectors(cone)
            if len(cone) == self.rank:
                unimodular = all(la.vec_dot(h, g) == 1 for h, g in zip(hs, gens))
            else:
                unimodular = la.snf(gens) == (1,) * len(cone)
            if not unimodular:
                lacks["smooth"] = {"property": "smooth", "cone": gens}
                break

        if self.overlap is not None:
            lacks["complete"] = {"property": "complete"}
            low = [c for c in self.max_cones if len(c) < self.rank]
            odd = sorted(facet for facet, entries in self.walls.items() if len(entries) != 2)
            if low:
                lacks["complete"]["cone"] = self.cone_vectors(low[0])
            elif odd:
                lacks["complete"]["facet"] = self.cone_vectors(odd[0])

        idx = {v: i for i, v in enumerate(self.rays)}
        opposite = [idx.get(la.vec_neg(v)) for v in self.rays]
        cone_set = set(self.max_cones)
        if None in opposite or any(
            tuple(sorted(opposite[i] for i in cone)) not in cone_set for cone in self.max_cones
        ):
            lacks["centrally_symmetric"] = {"property": "centrally_symmetric"}

        if "complete" in lacks:
            lacks["strongly_symmetric"] = lacks["complete"]
            return lacks
        normals = self._hyperplanes
        vals = [[la.vec_dot(h, v) for h in normals] for v in self.rays]
        pos = [sum(1 << j for j, x in enumerate(row) if x > 0) for row in vals]
        neg = [sum(1 << j for j, x in enumerate(row) if x < 0) for row in vals]
        cuts = [reduce(or_, map(pos.__getitem__, c), 0) & reduce(or_, map(neg.__getitem__, c), 0)
                for c in self.max_cones]
        cut = reduce(or_, cuts)
        if cut:
            j = (cut & -cut).bit_length() - 1  # the first normal that cuts a cone
            cone = next(c for c, m in zip(self.max_cones, cuts) if m >> j & 1)
            lacks["strongly_symmetric"] = {"property": "strongly_symmetric",
                                           "hyperplane": normals[j],
                                           "cone": self.cone_vectors(cone)}
        return lacks

    @cached_property
    def properties(self) -> PropertyReport:
        """`check_properties(self)`, computed once per fan."""
        return check_properties(self)

    def require(self, *names: str) -> PropertyReport:
        """The fan's properties; raises the error of the first named one it
        lacks, citing that property's own witness from `Fan.witnesses`."""
        props = self.properties
        for name in names:
            if not getattr(props, name):
                raise _MISSING[name](
                    f"fan is not {name.replace('_', ' ')} (witness: {self.witnesses[name]})"
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


def _cone_h_rep(gens: Mat, normals: Mat, rank: int) -> list[Vec]:
    """Inequality rows cutting out a simplicial cone (span equalities as +/- pairs).

    `normals`, the dual rays of the generators (the cone's row of
    `Fan.normals`), read off each generator's coefficient on their span; the
    kernel rows pin that span down.
    """
    rows = list(normals)
    if len(gens) < rank:
        for eq in la.kernel_basis(gens) if gens else la.identity(rank):
            rows += [eq, la.vec_neg(eq)]
    return rows


def _pairwise_overlap(f: Fan) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The first pair of cones not meeting in a common face.

    A pair needs no double description when a facet normal h of one cone is
    <= 0 on every ray of the other and vanishes only on rays the two share.
    As h >= 0 on the first cone, h = 0 on the intersection, which therefore
    lies in the cone over the second cone's rays where h vanishes: the cone
    over shared rays, a common face.  Every other pair gets one double
    description of the two cones' inequalities, read off their rows of
    `Fan.normals` with no further inverse.
    """
    masks = [sum(1 << i for i in c) for c in f.max_cones]
    signs = {}  # per normal, the rays where it is positive and where it vanishes
    for h in set().union(*f.normals):
        vals = [la.vec_dot(h, v) for v in f.rays]
        signs[h] = (sum(1 << i for i, x in enumerate(vals) if x > 0),
                    sum(1 << i for i, x in enumerate(vals) if x == 0))
    # per cone and normal, the rays it is positive on or vanishes on outside the
    # cone: the normal settles the pair with any cone that has none of them
    blocks = [[pos | zero & ~m for pos, zero in map(signs.get, hs)]
              for m, hs in zip(masks, f.normals)]
    h_reps = {c: _cone_h_rep(f.cone_vectors(c), hs, f.rank)
              for c, hs in zip(f.max_cones, f.normals)}
    for (i, a), (j, b) in itertools.combinations(enumerate(f.max_cones), 2):
        if any(not x & masks[j] for x in blocks[i]) or any(not x & masks[i] for x in blocks[j]):
            continue
        inter = la.extreme_rays(h_reps[a] + h_reps[b])
        common = set(f.cone_vectors(a)) & set(f.cone_vectors(b))
        if not set(inter) <= common or len(inter) != len(set(a) & set(b)):
            return a, b
    return None


def make_fan(rank: int, cones: Iterable[Iterable[Vec]]) -> Fan:
    """Canonical fan from maximal cones given as generator collections.

    Rays are deduplicated and sorted; cones become sorted index tuples, sorted
    among themselves.  Each distinct ray is checked once, in order of first
    occurrence.  Every listed cone must be simplicial (independent
    generators): `Fan.normals`, one `la.dual_rays` per cone, is read first
    and raises NotSimplicialError on a singular cone.  Any two cones that do
    not meet in a common face raise MalformedFanError.  A pure
    full-dimensional input whose facets each lie in exactly two cones is
    checked by the covering test (`Fan.overlap`): opposite sides at every
    facet and one cone over a generic point, which is O(C·r) facet work over
    the fan's inverse table, and whose verdict the property check reads
    again.  Any other input (an incomplete fan, lower-dimensional cones) is
    checked pairwise: one double description per cone pair that no facet
    normal of either cone separates.  [[]] at rank 0 is the origin fan.
    """
    cone_vecs = [tuple(tuple(v) for v in cone) for cone in cones]
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
    f = Fan(rank=rank, rays=tuple(rays), max_cones=tuple(cone_idx))
    f.normals  # raises NotSimplicialError for a cone that is not simplicial
    # distinct cones of one size never contain each other, so a pure fan skips this
    by_size: dict[int, list[frozenset]] = {}
    for cone in cone_idx:
        by_size.setdefault(len(cone), []).append(frozenset(cone))
    for lo, hi in itertools.combinations(sorted(by_size), 2):
        if any(s <= b for s in by_size[lo] for b in by_size[hi]):
            raise InputFormatError("listed cones must be mutually maximal")
    pair = f.overlap if f.overlap != () else _pairwise_overlap(f)
    if pair is not None:
        a, b = pair
        raise MalformedFanError(f"cones {f.cone_vectors(a)} and {f.cone_vectors(b)} overlap")
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
    return make_fan(rank, cone_vecs)


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
        rays = sorted({v for k in a.chambers for v in k.rays})
        index = {v: i for i, v in enumerate(rays)}
        cones = sorted((tuple(map(index.get, k.rays)), tuple(map(signed.get, k.basis)))
                       for k in a.chambers)
        f = vars(a)["fan"] = Fan(a.rank, tuple(rays), tuple(c for c, _ in cones))
        vars(f)["normals"] = tuple(hs for _, hs in cones)
    return vars(a)["fan"]


def check_properties(f: Fan) -> PropertyReport:
    """The verdicts of `Fan.witnesses`, a strongly symmetric fan's sorted
    canonical facet normals as `hyperplanes`, and the first witness, in the
    order of the verdicts, as `failure_witness`; the origin fan has every
    property and `hyperplanes=()`.  Read once: `Fan.properties`."""
    lacks = f.witnesses
    verdicts = [name not in lacks for name in PropertyReport._fields[:4]]
    return PropertyReport(
        *verdicts,
        hyperplanes=f._hyperplanes if verdicts[3] else None,
        failure_witness=next(iter(lacks.values()), None),
    )


def roots_from_fan(f: Fan) -> Arrangement:
    """Recover the arrangement whose chambers are the maximal cones.

    Requires a smooth strongly symmetric fan.  The covectors are the union of
    the dual bases of the maximal cones' generator matrices, so that
    fan_from_arrangement inverts this map exactly; for a unimodular cone the
    dual basis is its set of facet normals, so they are the hyperplanes that
    `check_properties` reports.  Rank 0 fails `make_arrangement`'s rank check.
    """
    from .arrangement import make_arrangement

    return make_arrangement(f.rank, f.require("smooth", "strongly_symmetric").hyperplanes)


def _require_face(f: Fan, delta: Sequence[int]) -> tuple[int, ...]:
    dl = tuple(sorted(set(delta)))
    if any(not 0 <= i < len(f.rays) for i in dl):
        raise BadReferenceError(f"ray index out of range in cone {tuple(delta)}")
    if dl and not any(set(dl) <= set(c) for c in f.max_cones):
        raise BadReferenceError(f"cone {dl} is not a face of the fan")
    return dl
