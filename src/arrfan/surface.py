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
from typing import TYPE_CHECKING, NamedTuple

from . import intlinalg as la
from .errors import CertificationError, DoesNotCloseError, InputFormatError, OrientationError
from .intlinalg import Mat, Vec

if TYPE_CHECKING:  # the fan module is loaded by the functions that build a fan
    from .fan import Fan

# The largest polygon the CLI and the catalog accept: triangulations() lists
# all Catalan(t-2) of them in memory, ~4.3 times more per step (t = 12: 16,796).
MAX_TRIANGULATION_T = 12


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
    from .fan import make_fan

    cones = [[u, w] for u, w in zip(ccw_rays, ccw_rays[1:] + ccw_rays[:1])]
    return make_fan(2, cones)


def _int_weights(weights) -> tuple[int, ...]:
    """The weights as a tuple, each of type int (no float, string or bool)."""
    w = tuple(weights)
    if any(type(a) is not int for a in w):
        raise InputFormatError("'weights' must be a list of integers")
    return w


def weights_to_fan(weights) -> Fan:
    """Reconstruct the fan from a weight sequence.

    Starts from n_1 = (1,0), n_2 = (0,1) and iterates the recurrence up to
    n_s; the CircularGraph constructor then checks it at the last and first
    rays, which is closure, and fails with DoesNotCloseError when the
    sequence does not return to the start.  Fails with OrientationError when
    the rays repeat or fail to wind around exactly once, and with
    InputFormatError when a weight is not an int.
    """
    w = _int_weights(weights)
    rays: list[Vec] = [(1, 0), (0, 1)]
    for a in w[1:-1]:
        rays.append(la.vec_sub(la.vec_neg(rays[-2]), la.vec_scale(a, rays[-1])))
    ccw = CircularGraph(w, tuple(rays)).rays
    if len(set(ccw)) != len(ccw):
        raise OrientationError(f"weights {w} revisit a ray")
    if _rotate_to_lex_min(ccw_sorted(ccw)) != _rotate_to_lex_min(ccw):
        raise OrientationError(f"weights {w} wind around more than once")
    return _wheel(ccw)


def verify_weight_identity(weights, mode: str) -> bool:
    """Exact 2x2 matrix product test for a weight sequence.

    mode="full": the product of (0 -1; 1 -a_j) over the whole sequence is the
    identity (the closing condition of a complete fan).  mode="half": the
    product is minus the identity (the condition satisfied by one half of a
    centrally symmetric sequence).  A weight that is not an int raises
    InputFormatError.
    """
    if mode not in ("full", "half"):
        raise ValueError("mode must be 'full' or 'half'")
    m = la.identity(2)
    for a in _int_weights(weights):
        m = la.mat_mul(((0, -1), (1, -a)), m)
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

    def sub(i: int, j: int) -> list[tuple[tuple[int, int], ...]]:
        # the triangulations of the polygon i..j, whose side (i, j) is already drawn:
        # its triangle (i, k, j) adds the sides (i, k) and (k, j) that are not edges
        if j - i < 2:
            return [()]
        out = []
        for k in range(i + 1, j):
            own = tuple((x, y) for x, y in ((i, k), (k, j)) if y - x > 1)
            for left in sub(i, k):
                for right in sub(k, j):
                    out.append(own + left + right)
        return out

    return tuple(tuple(sorted(diagonals)) for diagonals in sub(1, t))


def triangulation_to_weights(t: int, diagonals) -> tuple[int, ...]:
    """Weights a_i = -(number of triangles at polygon vertex i).

    `diagonals` must triangulate the convex t-gon (its pairs may be listed
    reversed or repeated, and polygon edges among them are ignored).  The
    diagonals at vertex i separate its triangles, so a_i = -(1 + their number).
    """
    edges = {(i, i + 1) for i in range(1, t)} | {(1, t)}
    degree = [0] * (t + 1)
    for x, y in {tuple(sorted(d)) for d in diagonals} - edges:
        degree[x] += 1
        degree[y] += 1
    return tuple(-1 - degree[i] for i in range(1, t + 1))


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

    The result is smooth: each Hirzebruch-Jung step gives det(u, u') =
    det(u, w)/d = 1 and the steps end at d = 1.  For a centrally symmetric
    input the inserted rays come in antipodal pairs, as the step's congruence
    k u + w = 0 (mod d) is unchanged under (u, w) -> (-u, -w).
    """
    if f.rank != 2:
        raise ValueError("desingularize requires rank 2")
    f.require("complete")
    ordered = ccw_sorted(f.rays)
    s = len(ordered)
    out: list[Vec] = []
    for j in range(s):
        u, w = ordered[j], ordered[(j + 1) % s]
        out.append(u)
        out.extend(_hilbert_middle_rays(u, w))
    return _wheel(out)


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
    """The first t rays as integer pairs in the basis (n_1, n_t), by Cramer's rule.

    Nothing is divided: n_{t+1} = -n_1 and the constructor checked
    det(n_t, n_{t+1}) = 1, so det(n_1, n_t) = 1.
    """
    n1, nt = g.rays[0], g.rays[t - 1]
    return tuple((_det2(n, nt), _det2(n1, n)) for n in g.rays[:t])


def y_divisor_class(g: CircularGraph) -> tuple[DivisorClass, int]:
    """Divisor class of the line through ray 1 of a centrally symmetric surface.

    Writing n_2, ..., n_{t-1} in the basis (n_1, n_t), the class is
    D_2 + y_3 D_3 + ... + y_{t-1} D_{t-1} + D_t with the y-coordinates of the
    rays as coefficients, returned with its self-intersection.  The checked
    recurrence implies the rest: y_2 = det(n_1, n_2) = 1; for nu <= t the
    class c meets D_nu as y(n_{nu-1} + n_{nu+1} + a_nu n_nu) = 0, plus 1 at
    nu = 1, where c_0 = 0 stands in for y(n_0) = -1; past ray t it meets
    only D_{t+1}, as c_t = 1 and c_1 = 0.  So c^2 = c_1 + c_{t+1} = 0.
    """
    t = _central_t(g)
    if t < 3:
        raise ValueError("divisor formula requires t >= 3")
    # ray nu's y-coordinate in (n_1, n_t): y_1 = 0 and y_t = 1
    c = tuple(y for _, y in _end_ray_coordinates(g, t)) + (0,) * t
    pairings = la.vec_mat(c, intersection_numbers(g))
    return DivisorClass(c), la.vec_dot(c, pairings)


def verify_picard_presentation(g: CircularGraph) -> bool:
    """The presentation of the Picard group of a centrally symmetric surface.

    Q holds the first t rays in the basis (n_1, n_t); the circulant-with-corners
    relation matrix R has entries a_j on the diagonal, 1 on the off-diagonals and
    -1 in the corners (the corners encode n_0 = -n_t and n_{t+1} = -n_1).  The
    checked recurrence implies it, so True needs only symmetry and t >= 3:
    R Q = 0 is the recurrence at rays 1..t; R's rows 2..t-1 are unit-triangular
    on columns 1..t-2, so R has rank t-2; (Q, -Q) has rank 2, as Q holds
    (1, 0) and (0, 1); the quotient map [[A, 0], [I, I]], A those rows of R,
    has rank 2t-2 and its product with (Q; -Q) is (A Q; 0) = 0.
    """
    t = _central_t(g)
    if t < 3:
        raise ValueError("presentation requires t >= 3")
    return True
