"""Smooth complete rank-2 fans as circular weighted graphs.

The rays of such a fan, in counterclockwise order, satisfy the recurrence
n_{j-1} + n_{j+1} + a_j n_j = 0 where a_j is the self-intersection number of
the divisor on ray j.  This module converts between fans, weight sequences
and polygon triangulations, symmetrizes and desingularizes rank-2 fans, and
computes divisor classes and the Picard presentation of the centrally
symmetric case.
"""
from __future__ import annotations

import functools
import itertools
from typing import NamedTuple

from . import intlinalg as la
from .errors import CertificationError, DoesNotCloseError, OrientationError
from .fan import Fan, make_fan
from .intlinalg import Mat, Vec


class _CircularGraphFields(NamedTuple):
    weights: tuple[int, ...]
    rays: Mat


class CircularGraph(_CircularGraphFields):
    """Cyclic self-intersection weights with their CCW-ordered rays.

    The constructor checks the recurrence and the orientation at every ray.
    """

    __slots__ = ()

    def __new__(cls, weights: tuple[int, ...], rays: Mat):
        s = len(weights)
        if s < 3 or len(rays) != s:
            raise DoesNotCloseError("need at least 3 rays with one weight each")
        for j in range(s):
            prev, cur, nxt = rays[j - 1], rays[j], rays[(j + 1) % s]
            if la.vec_add(la.vec_add(prev, nxt), la.vec_scale(weights[j], cur)) != (0, 0):
                raise DoesNotCloseError(f"weight {weights[j]} at ray {cur} violates the recurrence")
            if _det2(cur, nxt) != 1:
                raise OrientationError("consecutive rays must be positively oriented lattice bases")
        return super().__new__(cls, weights, rays)


class DivisorClass(NamedTuple):
    """Integer coefficients over the rays; canonical representative has c_1 = 0."""

    coefficients: tuple[int, ...]


def _det2(u: Vec, v: Vec) -> int:
    return u[0] * v[1] - u[1] * v[0]


def _half(v: Vec) -> int:
    # 0 for angles in [0, pi), 1 for [pi, 2*pi)
    return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1


def ccw_sorted(rays: Mat) -> Mat:
    """Rays by angle from the positive x-axis, exactly (no floats)."""

    def cmp(u: Vec, v: Vec) -> int:
        hu, hv = _half(u), _half(v)
        if hu != hv:
            return hu - hv
        c = _det2(u, v)
        return -1 if c > 0 else (1 if c < 0 else 0)

    return tuple(sorted(rays, key=functools.cmp_to_key(cmp)))


def _rotate_to_lex_min(rays: Mat) -> Mat:
    start = rays.index(min(rays))
    return rays[start:] + rays[:start]


def circular_graph(f: Fan) -> CircularGraph:
    """Weights of a smooth complete rank-2 fan, CCW from the lex-smallest ray."""
    if f.rank != 2:
        raise ValueError("circular graphs require rank 2")
    f.require("complete", "smooth")
    rays = _rotate_to_lex_min(ccw_sorted(f.rays))
    # consecutive rays have det 1 (smooth), so n_{j-1} + n_{j+1} is collinear with the
    # primitive n_j, and a_j = det(n_{j+1}, n_{j-1}); the constructor checks the recurrence
    s = len(rays)
    return CircularGraph(tuple(_det2(rays[(j + 1) % s], rays[j - 1]) for j in range(s)), rays)


def _wheel(ccw_rays: Mat) -> Fan:
    """The rank-2 fan whose cones are the cyclically consecutive CCW-ordered rays."""
    cones = [[u, w] for u, w in zip(ccw_rays, ccw_rays[1:] + ccw_rays[:1])]
    return make_fan(2, cones, check_faces=False)


def weights_to_fan(weights) -> Fan:
    """Reconstruct the fan from a weight sequence.

    Starts from n_1 = (1,0), n_2 = (0,1) and iterates the recurrence; fails
    with DoesNotCloseError when the sequence does not return to the start, or
    OrientationError when the rays repeat or fail to wind around exactly once.
    """
    w = tuple(int(a) for a in weights)
    s = len(w)
    if s < 3:
        raise DoesNotCloseError("need at least 3 weights")
    rays: list[Vec] = [(1, 0), (0, 1)]
    for j in range(2, s + 1):
        nxt = la.vec_sub(la.vec_neg(rays[j - 2]), la.vec_scale(w[j - 1], rays[j - 1]))
        rays.append(nxt)
    if rays[s] != rays[0]:
        raise DoesNotCloseError(f"weights {w} do not close up")
    if la.vec_add(la.vec_add(rays[s - 1], rays[1]), la.vec_scale(w[0], rays[0])) != (0, 0):
        raise DoesNotCloseError(f"weights {w} violate the closing relation")
    rays = rays[:s]
    if len(set(rays)) != s:
        raise OrientationError(f"weights {w} revisit a ray")
    if _rotate_to_lex_min(ccw_sorted(tuple(rays))) != _rotate_to_lex_min(tuple(rays)):
        raise OrientationError(f"weights {w} wind around more than once")
    return _wheel(rays)


def verify_weight_identity(weights, mode: str) -> bool:
    """Exact 2x2 matrix product test for a weight sequence.

    mode="full": the product of (0 -1; 1 -a_j) over the whole sequence is the
    identity (the closing condition of a complete fan).  mode="half": the
    product is minus the identity (the condition satisfied by one half of a
    centrally symmetric sequence).
    """
    if mode not in ("full", "half"):
        raise ValueError("mode must be 'full' or 'half'")
    m = la.identity(2)
    for a in weights:
        m = la.mat_mul(((0, -1), (1, -int(a))), m)
    target = la.identity(2) if mode == "full" else ((-1, 0), (0, -1))
    return m == target


def triangulations(t: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All triangulations of a convex t-gon, as sorted tuples of diagonals.

    Vertices are labeled 1..t counterclockwise; a diagonal is a pair (i, j)
    with i < j that is not a polygon edge.  The enumeration is deterministic
    and has Catalan(t-2) elements.
    """
    if t < 3:
        raise ValueError("triangulations require t >= 3")

    def sub(i: int, j: int) -> list[list[tuple[int, int, int]]]:
        if j - i < 2:
            return [[]]
        out = []
        for k in range(i + 1, j):
            for left in sub(i, k):
                for right in sub(k, j):
                    out.append([(i, k, j)] + left + right)
        return out

    result = []
    for tri_list in sub(1, t):
        diagonals = set()
        for a, b, c in tri_list:
            for x, y in ((a, b), (b, c), (a, c)):
                if y - x != 1 and not (x == 1 and y == t):
                    diagonals.add((x, y))
        result.append(tuple(sorted(diagonals)))
    return tuple(result)


def triangulation_to_weights(t: int, diagonals) -> tuple[int, ...]:
    """Weights a_i = -(number of triangles at polygon vertex i)."""
    chords = {tuple(sorted(d)) for d in diagonals}
    for i in range(1, t + 1):
        j = i % t + 1
        chords.add(tuple(sorted((i, j))))
    triangles = [
        (a, b, c)
        for a, b, c in itertools.combinations(range(1, t + 1), 3)
        if (a, b) in chords and (b, c) in chords and (a, c) in chords
    ]
    counts = [0] * (t + 1)
    for tri in triangles:
        for v in tri:
            counts[v] += 1
    return tuple(-counts[i] for i in range(1, t + 1))


def symmetrize(f: Fan) -> Fan:
    """Close the ray set of a smooth complete rank-2 fan under negation.

    The result is complete and centrally symmetric but may be singular.
    """
    if f.rank != 2:
        raise ValueError("symmetrize requires rank 2")
    f.require("complete", "smooth")
    rays = set(f.rays) | {la.vec_neg(v) for v in f.rays}
    return _wheel(ccw_sorted(tuple(rays)))


def _hilbert_middle_rays(u: Vec, w: Vec) -> list[Vec]:
    """Interior Hilbert basis members of the 2-cone (u, w), CCW from u.

    These are exactly the rays of the minimal desingularization, found by the
    Hirzebruch-Jung step (Cox, Little and Schenck, *Toric Varieties*, 10.2):
    while d = det(u, w) > 1, the next member is u' = (k u + w)/d for the one
    k in (0, d) that makes it integral; then det(u, u') = 1 and det(u', w) = k.
    """
    d = _det2(u, w)
    if d <= 0:
        raise CertificationError(f"cone ({u}, {w}) is not counterclockwise")
    middles = []
    while d > 1:
        k = next(k for k in range(1, d) if (k * u[0] + w[0]) % d == (k * u[1] + w[1]) % d == 0)
        u = ((k * u[0] + w[0]) // d, (k * u[1] + w[1]) // d)
        middles.append(u)
        d = k
    return middles


def desingularize(f: Fan) -> Fan:
    """Insert the minimal resolving rays into every singular 2-cone.

    For a centrally symmetric input the inserted rays come in antipodal pairs
    (the Hilbert basis of a cone mirrors that of its negative), so central
    symmetry is preserved; the result is smooth.
    """
    if f.rank != 2:
        raise ValueError("desingularize requires rank 2")
    props = f.require("complete")
    ordered = ccw_sorted(f.rays)
    s = len(ordered)
    out: list[Vec] = []
    for j in range(s):
        u, w = ordered[j], ordered[(j + 1) % s]
        out.append(u)
        out.extend(_hilbert_middle_rays(u, w))
    result = _wheel(out)
    rprops = result.properties
    if not rprops.smooth:
        raise CertificationError("desingularization left a singular cone")
    if props.centrally_symmetric and not rprops.centrally_symmetric:
        raise CertificationError("desingularization broke central symmetry")
    return result


def intersection_numbers(g: CircularGraph) -> Mat:
    """Symmetric matrix: a_j on the diagonal, 1 for cyclically adjacent rays."""
    s = len(g.weights)
    m = [[0] * s for _ in range(s)]
    for j in range(s):
        m[j][j] = g.weights[j]
        m[j][(j + 1) % s] = 1
        m[(j + 1) % s][j] = 1
    return la.freeze(m)


def _central_t(g: CircularGraph) -> int:
    s = len(g.weights)
    if s % 2 != 0:
        raise ValueError("graph is not centrally symmetric: odd ray count")
    t = s // 2
    for j in range(t):
        if g.rays[t + j] != la.vec_neg(g.rays[j]):
            raise ValueError("graph is not centrally symmetric")
    return t


def _end_ray_coordinates(g: CircularGraph, t: int) -> Mat:
    """The first t rays as integer pairs in the basis (n_1, n_t), by Cramer's rule."""
    n1, nt = g.rays[0], g.rays[t - 1]
    d = _det2(n1, nt)
    rows = []
    for nu in range(t):
        x, y = _det2(g.rays[nu], nt), _det2(n1, g.rays[nu])
        if x % d or y % d:
            raise CertificationError(f"ray {nu + 1} has no integer coordinates in (n_1, n_t)")
        rows.append((x // d, y // d))
    return la.freeze(rows)


def y_divisor_class(g: CircularGraph) -> tuple[DivisorClass, int]:
    """Divisor class of the line through ray 1 of a centrally symmetric surface.

    Writing n_2, ..., n_{t-1} in the basis (n_1, n_t), the class is
    D_2 + y_3 D_3 + ... + y_{t-1} D_{t-1} + D_t with the y-coordinates of the
    rays as coefficients.  The returned self-intersection is verified to be 0,
    and the class meets D_1 and D_{t+1} once and every other divisor not at all.
    """
    t = _central_t(g)
    if t < 3:
        raise ValueError("divisor formula requires t >= 3")
    ys = [y for _, y in _end_ray_coordinates(g, t)[1 : t - 1]]
    if ys[0] != 1:
        raise CertificationError("y_2 != 1 contradicts the ray relations")
    s = len(g.weights)
    c = [0] * s
    c[1] = 1
    for nu in range(3, t):
        c[nu - 1] = ys[nu - 2]
    c[t - 1] = 1
    m = intersection_numbers(g)
    pairings = [sum(c[mu] * m[mu][nu] for mu in range(s)) for nu in range(s)]
    for nu in range(s):
        expected = 1 if nu in (0, t) else 0
        if pairings[nu] != expected:
            raise CertificationError(
                f"class pairs with D_{nu + 1} as {pairings[nu]}, expected {expected}"
            )
    self_int = sum(c[nu] * pairings[nu] for nu in range(s))
    if self_int != 0:
        raise CertificationError(f"self-intersection {self_int}, expected 0")
    return DivisorClass(tuple(c)), self_int


def verify_picard_presentation(g: CircularGraph) -> bool:
    """Check the presentation of the Picard group of a centrally symmetric surface.

    Q holds the first t rays in the basis (n_1, n_t); the circulant-with-corners
    relation matrix has entries a_j on the diagonal, 1 on the off-diagonals and
    -1 in the corners (the corners encode n_0 = -n_t and n_{t+1} = -n_1).
    Verified: the relation matrix annihilates Q and has rank t-2, the stacked
    (Q, -Q) map has rank 2, the induced quotient map has rank 2t-2, and the
    composition of the two maps is zero.
    """
    t = _central_t(g)
    if t < 3:
        raise ValueError("presentation requires t >= 3")
    q = _end_ray_coordinates(g, t)
    rel = [[0] * t for _ in range(t)]
    for j in range(t):
        rel[j][j] = g.weights[j]
        rel[j][(j + 1) % t] += 1 if j + 1 < t else -1
        rel[j][(j - 1) % t] += 1 if j - 1 >= 0 else -1
    rel_rows = la.freeze(rel)
    if la.mat_mul(rel_rows, q) != la.freeze([[0, 0]] * t):
        raise CertificationError("relation matrix does not annihilate the ray matrix")
    if la.rank(rel_rows) != t - 2:
        raise CertificationError("relation matrix rank is not t - 2")
    stacked = q + tuple(la.vec_neg(r) for r in q)
    if la.rank(stacked) != 2:
        raise CertificationError("(Q, -Q) does not have rank 2")
    # quotient map [[A, 0], [I, I]] with A = independent middle rows of the relations
    a_block = rel_rows[1 : t - 1]
    top = tuple(row + (0,) * t for row in a_block)
    bottom = tuple(
        tuple(int(j == i) for j in range(t)) + tuple(int(j == i) for j in range(t))
        for i in range(t)
    )
    second = top + bottom
    if la.rank(second) != 2 * t - 2:
        raise CertificationError("quotient map rank is not 2t - 2")
    composed = la.mat_mul(second, stacked)
    if any(any(x != 0 for x in row) for row in composed):
        raise CertificationError("composition of the presentation maps is nonzero")
    return True
