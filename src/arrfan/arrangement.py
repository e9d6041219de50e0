"""Integer hyperplane arrangements: chambers, wall bases, integrality test.

An arrangement of rank r is stored as one primitive covector per +/- pair,
lexicographically sorted.  The stored coordinates are required to be the
lattice generated by the covectors, i.e. the covectors must generate all of
Z^r; inputs violating this are rejected so that every downstream smoothness
verdict refers to a well-defined lattice.
"""
from __future__ import annotations

import re
from collections import deque
from functools import cache, cached_property, reduce
from itertools import count
from math import lcm
from operator import and_, or_
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from . import intlinalg as la
from .errors import (
    BadReferenceError,
    CertificationError,
    InputFormatError,
    LatticeSpanError,
    NotCrystallographicError,
    NotSimplicialError,
    _parse_json,
)
from .intlinalg import Mat, Vec

if TYPE_CHECKING:
    from fractions import Fraction


class RaySigns(NamedTuple):
    """Every covector's value on one vector, and the covectors' sign bitmasks."""

    values: tuple[int, ...]
    pos: int    # bit i set when covector i is positive on the vector
    neg: int
    zeros: int


class _ArrangementFields(NamedTuple):
    rank: int
    positive_covectors: tuple[Vec, ...]


class Arrangement(_ArrangementFields):
    """Rank and lex-sorted primitive covectors, one per +/- pair.

    The fields are a read-only NamedTuple; the instance dict holds the
    cached chamber and covector tables.
    """

    @property
    def n_hyperplanes(self) -> int:
        return len(self.positive_covectors)

    @cached_property
    def chambers(self) -> tuple[Chamber, ...]:
        """`enumerate_chambers(self)`, computed once and shared by every consumer."""
        return enumerate_chambers(self)

    @cached_property
    def ray_signs(self) -> Callable[[Vec], RaySigns]:
        """The covector table: `ray_signs(ray)` is every covector's value on the
        ray with their sign masks, computed once per ray.

        The walk fills it with every chamber ray; the later checks on
        chambers, faces and flats read it instead of taking dot products.
        """

        @cache
        def signs(ray: Vec) -> RaySigns:
            values = tuple(la.vec_dot(c, ray) for c in self.positive_covectors)
            pos = sum(1 << i for i, x in enumerate(values) if x > 0)
            neg = sum(1 << i for i, x in enumerate(values) if x < 0)
            return RaySigns(values, pos, neg, (1 << len(values)) - 1 & ~(pos | neg))

        return signs

    def face_signs(self, gens: Mat) -> tuple[int, int]:
        """Masks of the covectors positive and negative on the cone over `gens`:
        the ORs of the generators' masks.  A covector in both cuts the cone's
        interior, so the cone is no face of the arrangement's fan: a
        CertificationError names the lowest such covector."""
        pos = neg = 0
        for s in map(self.ray_signs, gens):
            pos, neg = pos | s.pos, neg | s.neg
        if pos & neg:
            cov = self.positive_covectors[(pos & neg & -(pos & neg)).bit_length() - 1]
            raise CertificationError(
                f"covector {cov} takes both signs on cone {gens}: not an arrangement fan"
            )
        return pos, neg

    def subset_zeros(self, gens: Mat) -> list[int]:
        """Per subset of `gens`, at the index whose bit j marks gens[j], the
        mask of the covectors vanishing on all of it: one walk, one AND per
        subset.  On a chamber's rays the subsets are the chamber's faces, and
        each mask is H of the face's span."""
        meets = [(1 << self.n_hyperplanes) - 1]
        for s in map(self.ray_signs, gens):
            meets += [m & s.zeros for m in meets]
        return meets


class Chamber(NamedTuple):
    """A closed chamber: its extreme rays and the dual data on its walls.

    rays        lex-sorted primitive generators of the closed chamber
    basis       one (covector index, sign) per ray; the signed covector at
                position j is positive on rays[j] and vanishes on the others
    sign_vector +1/-1 per positive covector: the sign it takes on the chamber
    """

    index: int
    rays: tuple[Vec, ...]
    basis: tuple[tuple[int, int], ...]
    sign_vector: tuple[int, ...]

    def basis_covectors(self, a: Arrangement) -> Mat:
        return tuple(
            la.vec_scale(sign, a.positive_covectors[i]) for i, sign in self.basis
        )


class CrystallographicReport(NamedTuple):
    verdict: bool
    # (chamber index, signed root, its coordinates in the chamber's wall basis)
    witness: tuple[int, Vec, tuple[Fraction, ...]] | None = None


def make_arrangement(rank: int, covectors: Sequence[Sequence[int]]) -> Arrangement:
    """Validate and canonicalize: primitive, one per pair, sorted, spanning Z^r."""
    if not isinstance(rank, int) or rank < 1:
        raise InputFormatError("rank must be a positive integer")
    canon: list[Vec] = []
    for v in covectors:
        vt = tuple(v)
        if len(vt) != rank:
            raise InputFormatError(f"covector {vt} does not have length {rank}")
        if any(not isinstance(x, int) or isinstance(x, bool) for x in vt):
            raise InputFormatError(f"covector {vt} has non-integer entries")
        if all(x == 0 for x in vt):
            raise InputFormatError("zero covector")
        if vt != la.primitive(vt):
            raise InputFormatError(f"covector {vt} is not primitive")
        canon.append(la.canonical_sign(vt))
    seen = set()
    for v in canon:
        if v in seen:
            raise InputFormatError(f"parallel covector pair at {v}")
        seen.add(v)
    # the row lattice is Z^r exactly when its Hermite basis is the identity
    if len(canon) < rank or la.hermite_basis(canon) != la.identity(rank):
        raise LatticeSpanError("covectors do not generate the full integer lattice")
    return Arrangement(rank=rank, positive_covectors=tuple(sorted(canon)))


def load_arrangement(data: bytes | str) -> Arrangement:
    """Parse the arrangement JSON format {"rank": r, "positive_covectors": [[...], ...]}."""
    return _arrangement_from_json(_parse_json(data))


def _arrangement_from_json(obj) -> Arrangement:
    if not isinstance(obj, dict) or "rank" not in obj or "positive_covectors" not in obj:
        raise InputFormatError("expected an object with 'rank' and 'positive_covectors'")
    rank = obj["rank"]
    covs = obj["positive_covectors"]
    if not isinstance(rank, int) or isinstance(rank, bool):
        raise InputFormatError("'rank' must be an integer")
    if not isinstance(covs, list) or not all(isinstance(c, list) for c in covs):
        raise InputFormatError("'positive_covectors' must be a list of integer lists")
    return make_arrangement(rank, covs)


def arrangement_to_json(a: Arrangement) -> dict:
    return {
        "rank": a.rank,
        "positive_covectors": [list(v) for v in a.positive_covectors],
    }


def _cartan_matrix(letter: str, r: int) -> list[list[int]]:
    """The Cartan matrix c[i][j] = <alpha_j, alpha_i^vee> of A_r, B_r, C_r or D_r.

    The Dynkin diagram is the path 0 - 1 - ... - (r-1).  The last simple root
    is short in B_r and long in C_r; in D_r the last node hangs off node r-3
    instead of r-2, and D_2 has no edge.
    """
    c = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(r)] for i in range(r)]
    if letter == "B":
        c[r - 1][r - 2] = -2
    elif letter == "C":
        c[r - 2][r - 1] = -2
    elif letter == "D":
        c[r - 1][r - 2] = c[r - 2][r - 1] = 0
        if r > 2:
            c[r - 1][r - 3] = c[r - 3][r - 1] = -1
    return c


def _root_closure(cartan: list[list[int]]) -> list[Vec]:
    """The positive roots of a Cartan matrix, in simple-root coordinates.

    Starting from the simple roots, every image s_i(b) = b - <b, alpha_i^vee> alpha_i
    that stays positive is kept; only b[i] changes, so that is img[i] >= 0.
    This reaches every positive root (Humphreys, *Introduction to Lie Algebras
    and Representation Theory*, 10.2): a positive non-simple beta has some
    <beta, alpha_i^vee> > 0, as 0 < (beta, beta) = sum_i beta[i] (beta, alpha_i)
    with every beta[i] >= 0.  Then s_i beta is a positive root of lower height,
    so by induction on the height it is kept, and beta = s_i(s_i beta) with it.
    """
    r = len(cartan)
    roots = [tuple(int(i == j) for j in range(r)) for i in range(r)]
    seen = set(roots)
    for b in roots:  # the list grows as it is read
        for i, row in enumerate(cartan):
            img = b[:i] + (b[i] - la.vec_dot(row, b),) + b[i + 1:]
            if img[i] >= 0 and img not in seen:
                seen.add(img)
                roots.append(img)
    return roots


# matched whole, with at most nine ASCII digits per number: \d and int() also read
# the digits of other scripts, and int() refuses more than 4,300 digits
_CATALOG_RE = re.compile(r"([ABCD])_([0-9]{1,9})")
_NGON_RE = re.compile(r"ngon:([0-9]{1,9}):([0-9]{1,9})")


def catalog(name: str) -> Arrangement:
    """Built-in arrangements: A_r/B_r/C_r/D_r (2 <= r <= 8) and ngon:t:index.

    The classical families are given by their positive roots in simple-root
    coordinates, the reflection closure of the simple roots under the family's
    Cartan matrix.  ngon:t:index enumerates the rank-2 family: triangulation
    `index` of the convex t-gon (3 <= t <= surface.MAX_TRIANGULATION_T) ->
    self-intersection weights -> rank-2 fan of the doubled weight sequence ->
    its wall covectors.
    """
    m = _CATALOG_RE.fullmatch(name)
    if m:
        letter, r = m.group(1), int(m.group(2))
        if not 2 <= r <= 8:
            raise BadReferenceError(f"rank {r} out of range for catalog family {letter}")
        return make_arrangement(r, _root_closure(_cartan_matrix(letter, r)))
    m = _NGON_RE.fullmatch(name)
    if m:
        from . import surface

        t, index = int(m.group(1)), int(m.group(2))
        if not 3 <= t <= surface.MAX_TRIANGULATION_T:
            raise BadReferenceError(f"ngon requires 3 <= t <= {surface.MAX_TRIANGULATION_T}")
        from .fan import roots_from_fan

        tris = surface.triangulations(t)
        if not 0 <= index < len(tris):
            raise BadReferenceError(
                f"triangulation index {index} out of range (t={t} has {len(tris)})"
            )
        half = surface.triangulation_to_weights(t, tris[index])
        return roots_from_fan(surface.weights_to_fan(half + half))
    raise BadReferenceError(f"unknown catalog name {name!r}")


def _seed_sign_vector(a: Arrangement) -> tuple[int, ...]:
    for t in count(1):
        point = a.ray_signs(tuple(t**k for k in range(a.rank)))
        if not point.zeros:
            return tuple(1 if v > 0 else -1 for v in point.values)


def enumerate_chambers(a: Arrangement) -> tuple[Chamber, ...]:
    """All chambers, by a breadth-first wall-crossing walk from a deterministic seed.

    The seed chamber contains the first generic point of (1, t, t^2, ...),
    t = 1, 2, ...; only its rays come from a double description.  Crossing
    wall j (in lex order of the rays) keeps the facet F = rays minus r_j; the
    new wall opposite r_k is the hyperplane gamma through F minus r_k that
    maximises gamma(r_j)/gamma(r_k), gamma(r_k) > 0.  NotSimplicialError is
    raised when a covector, signed by the new chamber, is negative on the
    new ray: that chamber has more than `rank` extreme rays.  The walk keys
    chambers by their positive mask: crossing covector i flips bit i.  The
    seed's wall opposite ray j is > 0 on r_j: it is >= 0 on the seed's rays,
    and vanishes on the other r - 1, which with r_j are independent.
    """
    covs, n, r, signs = a.positive_covectors, a.n_hyperplanes, a.rank, a.ray_signs

    def sign_tuple(m: int) -> tuple[int, ...]:
        return tuple([1 if m >> i & 1 else -1 for i in range(n)])

    def meet(zeros: list[int]) -> int:  # the covectors vanishing on all rays of the masks
        return reduce(and_, zeros, (1 << n) - 1)

    def cross(rays: Mat, walls: list[int], j: int, m: int):
        # v = -den*r_j + sum of den*gamma(r_j)/gamma(r_k) r_k vanishes on each new wall gamma
        facet = rays[:j] + rays[j + 1:]
        vj = signs(rays[j]).values
        zeros = [signs(x).zeros for x in facet]
        new_walls, ratios = {}, []
        for k, rk in enumerate(facet):
            best = None  # (index, gamma(r_k), gamma(r_j)) of the new wall opposite r_k
            pencil = meet(zeros[:k] + zeros[k + 1:]) & ~(1 << walls[j])
            vk = signs(rk).values
            while pencil:
                i = (pencil & -pencil).bit_length() - 1
                pencil &= pencil - 1
                gk, gj = vk[i], vj[i]
                if gk < 0:
                    gk, gj = -gk, -gj
                if best is None or gj * best[1] > best[2] * gk:
                    best = (i, gk, gj)
            new_walls[rk], gk, gj = best
            ratios.append((gk, gj))
        den = lcm(*(gk for gk, _ in ratios))
        v = la.primitive(la.vec_mat([den // gk * gj for gk, gj in ratios] + [-den],
                                    facet + (rays[j],)))
        s = signs(v)
        if s.pos & ~m or s.neg & m:
            raise NotSimplicialError(f"chamber {sign_tuple(m)} has more than {r} extreme rays")
        new_walls[interned.setdefault(v, v)] = walls[j]
        new_rays = tuple(sorted(new_walls))
        return m, new_rays, [new_walls[x] for x in new_rays]

    seed = _seed_sign_vector(a)
    rays = la.extreme_rays([la.vec_scale(x, c) for x, c in zip(seed, covs)])
    if len(rays) != r:
        raise NotSimplicialError(
            f"chamber with sign vector {seed} has {len(rays)} extreme rays (rank {r})"
        )
    interned = {x: x for x in rays}  # every ray found, so records share one tuple per ray
    pairs = [((i, -1), (i, 1)) for i in range(n)]  # basis pairs by covector and side bit
    zeros = [signs(x).zeros for x in rays]
    walls = [meet(zeros[:j] + zeros[j + 1:]).bit_length() - 1 for j in range(r)]
    chambers: list[Chamber] = []
    m0 = sum(1 << i for i, x in enumerate(seed) if x > 0)
    seen = {m0}
    queue = deque([(m0, rays, walls)])
    while queue:
        m, rays, walls = queue.popleft()
        s = sign_tuple(m)
        chambers.append(Chamber(len(chambers), rays, tuple(pairs[i][m >> i & 1] for i in walls), s))
        for j, i in enumerate(walls):
            t = m ^ (1 << i)
            if t not in seen:
                seen.add(t)
                queue.append(cross(rays, walls, j, t))
    return tuple(chambers)


def positive_roots(a: Arrangement, k: Chamber) -> Mat:
    """The signed covectors that are nonnegative on the chamber, one per pair."""
    return tuple(
        la.vec_scale(k.sign_vector[i], a.positive_covectors[i])
        for i in range(len(a.positive_covectors))
    )


def is_crystallographic(a: Arrangement) -> CrystallographicReport:
    """Do all covectors have integer coordinates in every chamber's wall basis?

    A chamber's walls b_k are dual to its rays r_k up to b_k(r_k) > 0, and
    it passes exactly when every b_k(r_k) is 1 (the paper's smooth iff
    crystallographic, per chamber).  Then B*R^T = I with both integral, so B
    is unimodular.  Conversely, if every covector is integral in B, then B
    generates what they generate, all of Z^r (`make_arrangement`), so B is
    unimodular and r_k is b_k(r_k) times an integral column of B^-T; r_k is
    primitive, so b_k(r_k) = 1.  On the first failing chamber the witness is
    the first root with a fractional coordinate beta(r_k)/b_k(r_k); finding
    none is a corrupt chamber record.  Computed once per arrangement.
    """
    if "crystallographic" not in vars(a):
        vars(a)["crystallographic"] = _integrality_report(a)
    return vars(a)["crystallographic"]


def _integrality_report(a: Arrangement) -> CrystallographicReport:
    for k in a.chambers:
        cols = [a.ray_signs(ray).values for ray in k.rays]
        diag = [sign * col[i] for (i, sign), col in zip(k.basis, cols)]
        if diag.count(1) == len(diag):
            continue
        for m, root in enumerate(a.positive_covectors):
            if any(col[m] % d for col, d in zip(cols, diag)):
                from fractions import Fraction

                coords = tuple(Fraction(col[m], d) for col, d in zip(cols, diag))
                return CrystallographicReport(False, (k.index, root, coords))
        raise CertificationError(f"chamber {k.index} has wall-ray diagonal {diag} "
                                 "but no fractional coordinate")
    return CrystallographicReport(True, None)


def decompose(a: Arrangement) -> tuple[tuple[Arrangement, ...], tuple[tuple[int, ...], ...]]:
    """Split into irreducible factors.

    All covectors are written in the wall basis of the seed chamber; two basis
    positions are linked when some covector is supported on both.  The
    connected components of this support graph give the factors, returned in
    the induced coordinates together with the index partition.
    """
    if not is_crystallographic(a).verdict:
        raise NotCrystallographicError("decompose requires a crystallographic arrangement")
    # the seed chamber's walls are dual to its rays: coordinates are values on the rays
    coords = list(zip(*(a.ray_signs(ray).values for ray in a.chambers[0].rays)))
    supports = [sum(1 << j for j, x in enumerate(c) if x) for c in coords]
    comps: list[int] = []  # disjoint masks of basis positions, joined along each support
    for s in supports:
        comps = [c for c in comps if not c & s] + [reduce(or_, (c for c in comps if c & s), s)]
    partition = tuple(sorted(tuple(i for i in range(a.rank) if c >> i & 1) for c in comps))
    factors = []
    for part in partition:
        mask = sum(1 << i for i in part)
        vecs = [tuple(c[i] for i in part) for c, s in zip(coords, supports) if not s & ~mask]
        factors.append(make_arrangement(len(part), vecs))
    return tuple(factors), partition
