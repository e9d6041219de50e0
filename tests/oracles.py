"""Independent oracle implementations used to cross-check the library.

Everything here is deliberately written with different algorithms than the
package (Fourier-Motzkin instead of double description, subset enumeration
instead of incremental search, textbook Gaussian elimination) so agreement is
meaningful.
"""
from __future__ import annotations

import itertools
from collections import deque
from fractions import Fraction
from math import comb
from typing import Sequence


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def gauss_solve(basis, v):
    """Solve c * basis = v for square basis by plain Gaussian elimination."""
    n = len(basis)
    a = [[Fraction(basis[i][j]) for i in range(n)] + [Fraction(v[j])] for j in range(n)]
    for col in range(n):
        piv = next(i for i in range(col, n) if a[i][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        scale = a[col][col]
        a[col] = [x / scale for x in a[col]]
        for i in range(n):
            if i != col and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return [a[i][n] for i in range(n)]


def frac_rank(rows) -> int:
    a = [[Fraction(x) for x in r] for r in rows]
    if not a:
        return 0
    ncols = len(a[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c] / a[r][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def fm_feasible_strict(rows) -> bool:
    """Is {x : row.x > 0 for all rows} nonempty?  (Fourier-Motzkin)"""
    rows = [tuple(Fraction(x) for x in r) for r in rows]
    while True:
        if any(all(x == 0 for x in r) for r in rows):
            return False
        if not rows or len(rows[0]) == 0:
            return not rows
        k = len(rows[0]) - 1
        pos = [r for r in rows if r[k] > 0]
        neg = [r for r in rows if r[k] < 0]
        zero = [r[:k] for r in rows if r[k] == 0]
        combos = [
            tuple(p[k] * nr - n[k] * pr for pr, nr in zip(p[:k], n[:k]))
            for p in pos
            for n in neg
        ]
        rows = zero + combos


def brute_chamber_signs(covectors, rank) -> set:
    """All sign vectors of nonempty open chambers, by exhaustive enumeration."""
    out = set()
    for signs in itertools.product((1, -1), repeat=len(covectors)):
        rows = [tuple(s * x for x in c) for s, c in zip(signs, covectors)]
        if fm_feasible_strict(rows):
            out.add(signs)
    return out


def _int_kernel_dim1(rows, rank):
    """A primitive integer kernel vector of a (rank-1)-row system, or None."""
    a = [[Fraction(x) for x in r] for r in rows]
    # reduce, then find the free coordinate
    pivots = []
    r = 0
    for c in range(rank):
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        scale = a[r][c]
        a[r] = [x / scale for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(rank) if c not in pivots]
    if len(free) != 1:
        return None
    x = [Fraction(0)] * rank
    x[free[0]] = Fraction(1)
    for i, c in enumerate(pivots):
        x[c] = -a[i][free[0]]
    denom = 1
    for v in x:
        denom = denom * v.denominator // _gcd(denom, v.denominator)
    ints = [int(v * denom) for v in x]
    g = 0
    for v in ints:
        g = _gcd(g, abs(v))
    return tuple(v // g for v in ints)


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def brute_extreme_rays(rows, rank):
    """Extreme rays by (rank-1)-subset kernels; independent of the DD code."""
    rows = [tuple(r) for r in rows]
    found = set()
    for subset in itertools.combinations(rows, rank - 1):
        v = _int_kernel_dim1(list(subset), rank) if rank > 1 else (1,)
        if v is None:
            continue
        for cand in (v, tuple(-x for x in v)):
            vals = [sum(a * b for a, b in zip(row, cand)) for row in rows]
            if all(x >= 0 for x in vals):
                tight = [row for row, x in zip(rows, vals) if x == 0]
                if frac_rank(tight) == rank - 1:
                    found.add(cand)
    return tuple(sorted(found))


def hull2d_extreme_points(points):
    """Extreme points of a 2-d integer point set (monotone chain, exact)."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return set(pts)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    return set(lower[:-1] + upper[:-1])


def _diagonals(t):
    out = []
    for i in range(1, t + 1):
        for j in range(i + 1, t + 1):
            if j - i != 1 and not (i == 1 and j == t):
                out.append((i, j))
    return out


def _crossing(d1, d2) -> bool:
    (a, b), (c, d) = sorted(d1), sorted(d2)
    return (a < c < b < d) or (c < a < d < b)


def brute_triangulation_count(t: int) -> int:
    """Count maximal non-crossing diagonal sets by brute subset enumeration."""
    diags = _diagonals(t)
    size = t - 3
    count = 0
    for subset in itertools.combinations(diags, size):
        if all(not _crossing(x, y) for x, y in itertools.combinations(subset, 2)):
            count += 1
    return count


def equal_up_to_rotation(a, b) -> bool:
    a, b = tuple(a), tuple(b)
    if len(a) != len(b):
        return False
    return any(a[k:] + a[:k] == b for k in range(len(a)))


# Reference elimination routines: the Fraction Gauss-Jordan and Bareiss loops
# that arrfan.intlinalg used before its single fraction-free kernel.  The
# property tests in test_intlinalg.py require the kernel wrappers to agree
# with them, including on singular and dependent input.


def ref_det(m: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    a = [list(r) for r in m]
    n = len(a)
    if any(len(r) != len(a[0]) for r in a):
        raise ValueError("ragged matrix")
    if any(len(r) != n for r in a):
        raise ValueError("determinant requires a square matrix")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def ref_rank(m: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals, by exact fraction-free elimination."""
    a = [[Fraction(x) for x in row] for row in m]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, nrows):
            if a[i][c]:
                f = a[i][c] / a[r][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == nrows:
            break
    return r


def ref_mat_inverse_fraction(m: Sequence[Sequence[int]]) -> tuple[tuple[Fraction, ...], ...]:
    """Exact inverse of a square matrix, as Fractions.

    Raises ValueError on non-square or singular input.
    """
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("inverse requires a square matrix")
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            raise ValueError("singular matrix")
        a[c], a[piv] = a[piv], a[c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for i in range(n):
            if i != c and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return tuple(tuple(row[n:]) for row in a)


def ref_solve_in_row_space(basis: Sequence[Sequence[int]], v: Sequence[int]):
    """Coefficients c with c*basis = v, or None when v is outside the span.

    `basis` must have linearly independent rows; the solution is then unique
    and returned as a tuple of Fractions.
    """
    d = len(basis)
    if d == 0:
        return () if all(x == 0 for x in v) else None
    n = len(basis[0])
    # solve basis^T c^T = v^T by elimination on the augmented r x (d+1) system
    a = [[Fraction(basis[i][j]) for i in range(d)] + [Fraction(v[j])] for j in range(n)]
    pivots = []
    r = 0
    for c in range(d):
        piv = next((i for i in range(r, n) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(n):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    if len(pivots) != d:
        raise ValueError("basis rows are linearly dependent")
    for i in range(r, n):
        if a[i][d] != 0:
            return None
    sol = [Fraction(0)] * d
    for i, c in enumerate(pivots):
        sol[c] = a[i][d]
    return tuple(sol)


def ref_particular_solution(a: Sequence[Sequence[int]], b: Sequence[int]):
    """Some rational x with a*x = b (columns act), or None when inconsistent.

    Free variables are set to zero, so the output is deterministic.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    rows = [[Fraction(x) for x in a[i]] + [Fraction(b[i])] for i in range(m)]
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    for i in range(r, m):
        if rows[i][n] != 0:
            return None
    x = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        x[c] = rows[i][n]
    return tuple(x)


# Reference chamber enumeration and integrality test: the per-chamber double
# description and the Fraction-inverse test that arrfan.arrangement used
# before its wall-crossing walk and integer divisibility test.  The tests
# require the library to return equal chamber tuples and reports.


def ref_enumerate_chambers(a):
    """All chambers, by wall-crossing search with one double description per chamber."""
    from arrfan import intlinalg as la
    from arrfan.arrangement import Chamber, _seed_sign_vector
    from arrfan.errors import CertificationError, NotSimplicialError

    covs = a.positive_covectors
    n = len(covs)
    r = a.rank
    seed = _seed_sign_vector(a)
    chambers = []
    seen = {seed}
    queue = deque([seed])
    while queue:
        s = queue.popleft()
        rows = [la.vec_scale(s[i], covs[i]) for i in range(n)]
        rays = la.extreme_rays(rows)
        if len(rays) != r:
            raise NotSimplicialError(
                f"chamber with sign vector {s} has {len(rays)} extreme rays (rank {r})"
            )
        basis = []
        for j in range(r):
            others = [rays[k] for k in range(r) if k != j]
            walls = [
                i
                for i in range(n)
                if all(la.vec_dot(covs[i], v) == 0 for v in others)
            ]
            if len(walls) != 1:
                raise NotSimplicialError(
                    f"facet of chamber {s} lies on {len(walls)} hyperplanes"
                )
            i = walls[0]
            if s[i] * la.vec_dot(covs[i], rays[j]) <= 0:
                raise CertificationError(
                    f"ray {j} of chamber {s} is not on the chamber's side of wall {i}"
                )
            basis.append((i, s[i]))
        chambers.append(
            Chamber(index=len(chambers), rays=rays, basis=tuple(basis), sign_vector=s)
        )
        for i, _ in basis:
            neighbor = tuple(-s[k] if k == i else s[k] for k in range(n))
            if neighbor not in seen:
                seen.add(neighbor)
                queue.append(neighbor)
    return tuple(chambers)


def ref_is_crystallographic(a):
    """Integrality of every covector in every wall basis, by Fraction inverses."""
    from arrfan import intlinalg as la
    from arrfan.arrangement import CrystallographicReport

    for k in ref_enumerate_chambers(a):
        binv = ref_mat_inverse_fraction(k.basis_covectors(a))
        for root in a.positive_covectors:
            coords = la.vec_mat(root, binv)
            if any(c.denominator != 1 for c in coords):
                return CrystallographicReport(False, (k.index, root, tuple(coords)))
    return CrystallographicReport(True, None)


# Reference flat order and intersection poset: the elimination-based flat
# tests and the cover search over middle flats that arrfan.poset used before
# it compared hyperplane sets.  The tests require equal posets.


def ref_flat_contains(e, v) -> bool:
    if e.dim == 0:
        return all(x == 0 for x in v)
    return ref_solve_in_row_space(e.basis, v) is not None


def ref_flat_leq(e, f) -> bool:
    return all(ref_flat_contains(f, row) for row in e.basis) if e.dim else True


def ref_flat_intersection(rank: int, e, f):
    from arrfan import intlinalg as la
    from arrfan.poset import FlatSubspace, flat_from_constraints

    constraints = []
    for g in (e, f):
        if g.dim == rank:
            continue
        if g.dim == 0:
            return FlatSubspace(dim=0, basis=())
        constraints.extend(la.kernel_basis(g.basis))
    return flat_from_constraints(rank, constraints)


def ref_intersection_poset(a):
    """Closure by single-hyperplane refinement; a cover has no flat strictly between."""
    from arrfan import intlinalg as la
    from arrfan.poset import IntersectionPoset, flat_from_constraints

    r = a.rank

    def annihilator(e):
        if e.dim == 0:
            return la.identity(r)
        if e.dim == r:
            return ()
        return la.kernel_basis(e.basis)

    top = flat_from_constraints(r, ())
    flats = {top.basis: top}
    frontier = [top]
    while frontier:
        nxt = []
        for flat in frontier:
            for cov in a.positive_covectors:
                if all(la.vec_dot(cov, row) == 0 for row in flat.basis):
                    continue
                cut = flat_from_constraints(r, tuple(annihilator(flat)) + (cov,))
                if cut.basis not in flats:
                    flats[cut.basis] = cut
                    nxt.append(cut)
        frontier = nxt
    ordered = sorted(flats.values(), key=lambda f: (f.dim, f.basis))
    covers = []
    for i, low in enumerate(ordered):
        for j, high in enumerate(ordered):
            if low.dim < high.dim and ref_flat_leq(low, high):
                between = any(
                    low.dim < mid.dim < high.dim
                    and ref_flat_leq(low, mid)
                    and ref_flat_leq(mid, high)
                    for mid in ordered
                )
                if not between:
                    covers.append((i, j))
    return IntersectionPoset(flats=tuple(ordered), cover_pairs=tuple(covers))


def ref_toric_arrangement_report(a):
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
    from functools import cache

    from arrfan import intlinalg as la
    from arrfan.arrangement import is_crystallographic
    from arrfan.errors import CertificationError, NotCrystallographicError
    from arrfan.fan import fan_faces, fan_from_arrangement
    from arrfan.fanmaps import quotient_data
    from arrfan.poset import (
        FlatSubspace,
        ToricArrangementReport,
        _covectors,
        _held,
        flat_from_constraints,
        intersection_poset,
    )

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


def ref_build_polytope(a):
    """Doubled chamber vertices, with the vertex condition checked for every chamber pair."""
    from arrfan import intlinalg as la
    from arrfan.errors import CertificationError
    from arrfan.polytope import HalfLatticePolytope, rho

    chambers = a.chambers
    vertices = tuple(rho(a, k) for k in chambers)
    for kp in chambers:
        vp = vertices[kp.index]
        for k in chambers:
            diff = la.vec_sub(vp, vertices[k.index])
            gained = (0,) * a.rank
            for i, cov in enumerate(a.positive_covectors):
                if kp.sign_vector[i] != k.sign_vector[i]:
                    gained = la.vec_add(gained, la.vec_scale(2 * kp.sign_vector[i], cov))
            if diff != gained:
                raise CertificationError(
                    f"vertex difference identity fails for chambers {k.index}, {kp.index}"
                )
            if any(la.vec_dot(diff, ray) < 0 for ray in kp.rays):
                raise CertificationError(
                    f"vertex of chamber {k.index} escapes the cone of chamber {kp.index}"
                )
    return HalfLatticePolytope(
        rank=a.rank,
        doubled_vertices=vertices,
        chamber_rays=tuple(k.rays for k in chambers),
    )


def ref_phi_certificate(a):
    """The embedding certificate over the fan's faces: one sign vector per
    face, checked pairwise distinct, kept as the (face rays, signs) rows."""
    from arrfan import intlinalg as la
    from arrfan.arrangement import is_crystallographic
    from arrfan.errors import CertificationError, NotCrystallographicError
    from arrfan.fan import fan_faces, fan_from_arrangement
    from arrfan.polytope import PhiCertificate

    if not is_crystallographic(a).verdict:
        raise NotCrystallographicError("embedding requires a crystallographic arrangement")
    chambers = a.chambers
    base = chambers[0]
    basis_signed = base.basis_covectors(a)
    signed = {la.vec_scale(sign, cov) for cov in a.positive_covectors for sign in (1, -1)}
    row_roots = tuple(basis_signed) + tuple(sorted(signed - set(basis_signed)))
    matrix = tuple(tuple(la.vec_dot(root, ray) for ray in base.rays) for root in row_roots)
    if matrix[:a.rank] != la.identity(a.rank):
        raise CertificationError(f"sign-map top block {matrix[:a.rank]} is not the identity")
    for k in chambers:
        cols = [a.ray_signs(ray).values for ray in k.rays]
        if any(s * col[i] < 0 for col in cols for i, s in enumerate(k.sign_vector)) or any(
            (sign * col[i] > 0) != (p == q)
            for p, (i, sign) in enumerate(k.basis)
            for q, col in enumerate(cols)
        ):
            raise CertificationError(f"chamber {k.index} is not cut out by its sign pattern")
    f = fan_from_arrangement(a)
    seen = {}  # sign vector -> the face having it
    for face in fan_faces(f):
        gens = f.cone_vectors(face)
        pos, neg = a.face_signs(gens)
        sv = tuple((pos >> i & 1) - (neg >> i & 1) for i in range(a.n_hyperplanes))
        if sv in seen:
            raise CertificationError(f"cones {seen[sv]} and {gens} share the sign vector {sv}")
        seen[sv] = gens
    return PhiCertificate(
        matrix=matrix,
        row_roots=row_roots,
        invariant_factors=(1,) * a.rank,
        sign_vectors=tuple((gens, sv) for sv, gens in seen.items()),
        base_chamber=base.index,
    )


# Reference fan routines: the Fraction inverses and per-facet kernels that
# arrfan.fan used before it read one scaled integer inverse per cone.  The
# tests require equal inequality rows, property reports, arrangements and
# automorphism groups.


def _ref_fraction_row_to_primitive(row):
    denom = 1
    for x in row:
        f = Fraction(x)
        denom = denom * f.denominator // _gcd(denom, f.denominator)
    ints = [int(x * denom) for x in row]
    g = 0
    for v in ints:
        g = _gcd(g, abs(v))
    return tuple(v // g for v in ints)


def ref_extreme_rays(inequalities):
    """The double description `intlinalg.extreme_rays` ran before it kept zero
    sets: one rank per candidate base row, each ray's tight rows rebuilt
    from scratch at every step, and a final rank filter per ray."""
    from arrfan.errors import NonPointedError
    from arrfan.intlinalg import dual_rays, primitive, rank, vec_dot

    def _dedup(vectors):
        return list(dict.fromkeys(vectors))

    rows = [tuple(int(x) for x in r) for r in inequalities]
    rows = [r for r in rows if any(x != 0 for x in r)]
    if not rows:
        raise NonPointedError("cone contains a line (no effective constraints)")
    r = len(rows[0])
    if any(len(row) != r for row in rows):
        raise ValueError("ragged inequality matrix")
    if rank(rows) < r:
        raise NonPointedError("cone contains a line")

    base = []
    rest = []
    for row in rows:
        if len(base) < r and rank(base + [row]) > len(base):
            base.append(row)
        else:
            rest.append(row)
    rays = list(dual_rays(base))
    processed = list(base)

    for h in rest:
        vals = {ray: vec_dot(h, ray) for ray in rays}
        pos = [ray for ray in rays if vals[ray] > 0]
        neg = [ray for ray in rays if vals[ray] < 0]
        zero = [ray for ray in rays if vals[ray] == 0]
        if not neg:
            processed.append(h)
            continue
        new = pos + zero
        if pos:
            tight = {
                ray: frozenset(i for i, row in enumerate(processed) if vec_dot(row, ray) == 0)
                for ray in rays
            }
            for u in pos:
                for w in neg:
                    common = tight[u] & tight[w]
                    adjacent = all(
                        not (common <= tight[v]) for v in rays if v != u and v != w
                    )
                    if adjacent:
                        comb = tuple(vals[u] * w[i] - vals[w] * u[i] for i in range(r))
                        new.append(primitive(comb))
        rays = _dedup(new)
        processed.append(h)

    out = []
    for ray in _dedup(rays):
        tight_rows = [row for row in rows if vec_dot(row, ray) == 0]
        if (rank(tight_rows) if tight_rows else 0) == r - 1:
            out.append(ray)
    return tuple(sorted(out))


def ref_cone_h_rep(gens, rank):
    """Inequality rows of a simplicial cone from a Fraction inverse or right inverse."""
    from arrfan import intlinalg as la

    d = len(gens)
    rows = []
    if d == rank:
        inv = ref_mat_inverse_fraction(gens)
        return [_ref_fraction_row_to_primitive([inv[i][j] for i in range(rank)])
                for j in range(rank)]
    for j in range(d):
        col = ref_particular_solution(gens, tuple(int(i == j) for i in range(d)))
        rows.append(_ref_fraction_row_to_primitive(col))
    for eq in la.kernel_basis(gens) if d else la.identity(rank):
        rows.append(tuple(eq))
        rows.append(la.vec_neg(eq))
    return rows


def ref_overlapping_pair(f):
    """The first pair of cones that do not meet in a common face, or None."""
    from arrfan import intlinalg as la

    for c1, c2 in itertools.combinations(f.max_cones, 2):
        g1, g2 = f.cone_vectors(c1), f.cone_vectors(c2)
        inter = la.extreme_rays(ref_cone_h_rep(g1, f.rank) + ref_cone_h_rep(g2, f.rank))
        common = set(g1) & set(g2)
        if not (all(ray in common for ray in inter)
                and len(inter) == len(set(c1) & set(c2))):
            return c1, c2
    return None


def ref_facet_normal(f, facet):
    from arrfan import intlinalg as la

    ker = la.kernel_basis(f.cone_vectors(facet))
    assert len(ker) == 1, f"facet {facet} does not span a hyperplane"
    return la.canonical_sign(la.primitive(ker[0]))


def ref_check_properties(f):
    """Property report with one integer kernel per (cone, facet) pair."""
    from arrfan import intlinalg as la
    from arrfan.fan import PropertyReport

    if f.rank == 0:
        return PropertyReport(True, True, True, True, hyperplanes=())
    smooth = True
    witness = None
    for cone in f.max_cones:
        if la.snf(f.cone_vectors(cone)) != (1,) * len(cone):
            smooth = False
            witness = {"property": "smooth", "cone": f.cone_vectors(cone)}
            break
    complete = bool(f.max_cones) and all(len(c) == f.rank for c in f.max_cones)
    if complete:
        facet_count = {}
        for ci, cone in enumerate(f.max_cones):
            for facet in itertools.combinations(cone, f.rank - 1):
                facet_count.setdefault(facet, []).append(ci)
        complete = all(len(v) == 2 for v in facet_count.values())
        if complete and len(f.max_cones) > 1:
            adj = {}
            for a, b in facet_count.values():
                adj.setdefault(a, set()).add(b)
                adj.setdefault(b, set()).add(a)
            seen, stack = {0}, [0]
            while stack:
                for nb in adj.get(stack.pop(), ()):
                    if nb not in seen:
                        seen.add(nb)
                        stack.append(nb)
            complete = len(seen) == len(f.max_cones)
        if not complete and witness is None:
            witness = {"property": "complete"}
    centrally = {la.vec_neg(v) for v in f.rays} == set(f.rays)
    if centrally:
        idx = {v: i for i, v in enumerate(f.rays)}
        centrally = all(
            tuple(sorted(idx[la.vec_neg(f.rays[i])] for i in cone)) in set(f.max_cones)
            for cone in f.max_cones
        )
    if not centrally and witness is None:
        witness = {"property": "centrally_symmetric"}
    strongly = complete
    hyperplanes = None
    if strongly:
        if f.rank == 1:
            hyperplanes = ((1,),)
        else:
            normals = []
            for cone in f.max_cones:
                for facet in itertools.combinations(cone, f.rank - 1):
                    h = ref_facet_normal(f, facet)
                    if h not in normals:
                        normals.append(h)
            for h in sorted(normals):
                for cone in f.max_cones:
                    vals = [la.vec_dot(h, v) for v in f.cone_vectors(cone)]
                    if any(x > 0 for x in vals) and any(x < 0 for x in vals):
                        strongly = False
                        if witness is None:
                            witness = {"property": "strongly_symmetric", "hyperplane": h,
                                       "cone": f.cone_vectors(cone)}
                        break
                if not strongly:
                    break
            if strongly:
                hyperplanes = tuple(sorted(normals))
    return PropertyReport(smooth, complete, centrally, strongly, hyperplanes, witness)


def ref_roots_from_fan(f):
    """The union of the Fraction dual bases of the maximal cones."""
    from arrfan import intlinalg as la
    from arrfan.arrangement import make_arrangement
    from arrfan.errors import NotSmoothError, NotStronglySymmetricError

    props = ref_check_properties(f)
    if not props.smooth:
        raise NotSmoothError(f"fan is not smooth: {props.failure_witness}")
    if not props.strongly_symmetric:
        raise NotStronglySymmetricError(f"fan is not strongly symmetric: {props.failure_witness}")
    covectors = set()
    for cone in f.max_cones:
        inv = ref_mat_inverse_fraction(f.cone_vectors(cone))
        for j in range(f.rank):
            col = [inv[i][j] for i in range(f.rank)]
            assert all(x.denominator == 1 for x in col)
            covectors.add(la.canonical_sign(tuple(int(x) for x in col)))
    return make_arrangement(f.rank, sorted(covectors))


def ref_fan_automorphisms(f):
    """Every candidate base-cone image, filtered through a Fraction matrix product."""
    from arrfan import intlinalg as la
    from arrfan.errors import NotCompleteError

    if f.rank == 0:
        return ((),)
    if not ref_check_properties(f).complete:
        raise NotCompleteError("automorphism search requires a complete fan")
    binv = ref_mat_inverse_fraction(f.cone_vectors(f.max_cones[0]))
    ray_index = {v: i for i, v in enumerate(f.rays)}
    cone_set = set(f.max_cones)
    found = set()
    for cone in f.max_cones:
        for perm in itertools.permutations(f.cone_vectors(cone)):
            g = la.mat_mul(binv, perm)
            if any(x.denominator != 1 for row in g for x in row):
                continue
            gi = tuple(tuple(int(x) for x in row) for row in g)
            if abs(la.det(gi)) != 1:
                continue
            images = [la.vec_mat(v, gi) for v in f.rays]
            if any(w not in ray_index for w in images):
                continue
            perm_map = [ray_index[w] for w in images]
            if all(tuple(sorted(perm_map[i] for i in c)) in cone_set for c in f.max_cones):
                found.add(gi)
    return tuple(sorted(found))


# Reference certificates: the pairwise and face-lattice versions that
# arrfan.polytope and arrfan.fan ran before each read its fact off the wall,
# chamber and ray tables.  The tests require equal verdicts, fans, entries
# and error classes.


def ref_verify_normal_fan(p, f):
    """Score every vertex against every cone's summed rays (O(C^2))."""
    from arrfan import intlinalg as la

    if f.rank != p.rank or len(f.max_cones) != len(p.doubled_vertices):
        return False
    chamber_by_rays = {frozenset(rays): i for i, rays in enumerate(p.chamber_rays)}
    matched = set()
    for cone in f.max_cones:
        gens = f.cone_vectors(cone)
        direction = (0,) * f.rank
        for g in gens:
            direction = la.vec_add(direction, g)
        scores = [la.vec_dot(v, direction) for v in p.doubled_vertices]
        best = max(scores)
        arg = [i for i, s in enumerate(scores) if s == best]
        if len(arg) != 1:
            return False
        owner = chamber_by_rays.get(frozenset(gens))
        if owner is None or owner != arg[0]:
            return False
        matched.add(owner)
    return len(matched) == len(p.doubled_vertices)


def ref_insert_hyperplane(a, h):
    """Find each split cone's two pieces by testing every cone of the enlarged fan."""
    from arrfan import intlinalg as la
    from arrfan.arrangement import is_crystallographic, make_arrangement
    from arrfan.errors import BadReferenceError, CertificationError, NotCrystallographicError
    from arrfan.fan import fan_from_arrangement
    from arrfan.fanmaps import BlowupCertificate, BlowupEntry

    hv = la.canonical_sign(la.primitive(tuple(h)))
    if hv in a.positive_covectors:
        raise BadReferenceError(f"hyperplane {tuple(h)} already in the arrangement")
    a2 = make_arrangement(a.rank, a.positive_covectors + (hv,))
    if not is_crystallographic(a).verdict:
        raise NotCrystallographicError("base arrangement is not crystallographic")
    if not is_crystallographic(a2).verdict:
        raise NotCrystallographicError("enlarged arrangement is not crystallographic")
    f1 = fan_from_arrangement(a)
    f2 = fan_from_arrangement(a2)
    cone_set2 = {frozenset(f2.cone_vectors(c)) for c in f2.max_cones}
    entries = []
    splits = 0
    for cone in f1.max_cones:
        gens = f1.cone_vectors(cone)
        normals = la.dual_rays(gens)
        vals = [la.vec_dot(hv, g) for g in gens]
        if any(x > 0 for x in vals) and any(x < 0 for x in vals):
            pieces = [
                f2.cone_vectors(c)
                for c in f2.max_cones
                if all(la.vec_dot(n, v) >= 0 for n in normals for v in f2.cone_vectors(c))
            ]
            if len(pieces) != 2:
                raise CertificationError(
                    f"cone {gens} split into {len(pieces)} pieces, expected 2"
                )
            splits += 1
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
            entries.append(BlowupEntry(cone=gens, ray_a=ray_a, ray_b=ray_b, new_ray=new_ray))
        elif frozenset(gens) not in cone_set2:
            raise CertificationError(f"untouched cone {gens} vanished")
    if len(f2.max_cones) != len(f1.max_cones) + splits:
        raise CertificationError("subdivision produced unexpected cone count")
    return f2, BlowupCertificate(tuple(entries))


def ref_insert_hyperplane_by_signs(a, h):
    """Read each split cone's two pieces off the enlarged arrangement's sign
    vectors and check them by set algebra, cardinalities and a cone count."""
    from arrfan import intlinalg as la
    from arrfan.arrangement import is_crystallographic, make_arrangement
    from arrfan.errors import (
        BadReferenceError,
        CertificationError,
        InputFormatError,
        NotCrystallographicError,
    )
    from arrfan.fan import fan_from_arrangement
    from arrfan.fanmaps import BlowupCertificate, BlowupEntry

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


def ref_fan_from_arrangement(a):
    """The chamber fan as `make_fan` builds it, its facet normals as the
    primitive columns of one `scaled_inverse` per cone, and its property
    report with each cone smooth exactly when that inverse has d = 1."""
    from arrfan import intlinalg as la
    from arrfan.fan import check_properties, make_fan

    f = make_fan(a.rank, [k.rays for k in a.chambers], check_faces=False)
    inverses = [la.scaled_inverse(f.cone_vectors(c)) for c in f.max_cones]
    normals = tuple(tuple(map(la.primitive, la.transpose(inv))) for inv, _ in inverses)
    vars(f)["normals"] = normals
    props = check_properties(f)
    singular = [c for c, (_, d) in zip(f.max_cones, inverses) if d != 1]
    if singular:
        props = props._replace(
            failure_witness={"property": "smooth", "cone": f.cone_vectors(singular[0])}
        )
    return f, normals, props._replace(smooth=not singular)


def ref_restrict_fan(f, subspace_rows):
    """Search the face lattice for a spanning cone, solving each ray once per face."""
    from arrfan import intlinalg as la
    from arrfan.errors import (
        BadReferenceError,
        CertificationError,
        NotSmoothError,
        NotStronglySymmetricError,
    )
    from arrfan.fan import Fan, check_properties, fan_faces, make_fan

    props = check_properties(f)
    if not props.smooth:
        raise NotSmoothError("restriction requires a smooth fan")
    if not props.strongly_symmetric:
        raise NotStronglySymmetricError("restriction requires a strongly symmetric fan")
    rows = [tuple(r) for r in subspace_rows]
    basis = la.saturation_basis(rows, f.rank) if rows else ()
    d = len(basis)
    if d == f.rank:
        return f

    def inside(v):
        return d > 0 and ref_solve_in_row_space(basis, v) is not None

    if not any(
        len(cone) == d and all(inside(v) for v in f.cone_vectors(cone)) for cone in fan_faces(f)
    ):
        raise BadReferenceError("subspace is not spanned by a cone of the fan")
    if d == 0:
        return Fan(rank=0, rays=(), max_cones=((),))
    candidates = {tuple(i for i in cone if inside(f.rays[i])) for cone in f.max_cones}
    maximal = [
        c for c in candidates if not any(c != o and set(c) <= set(o) for o in candidates)
    ]
    cones = []
    for cone in maximal:
        vecs = []
        for i in cone:
            coords = ref_solve_in_row_space(basis, f.rays[i])
            if coords is None or any(x.denominator != 1 for x in coords):
                raise CertificationError(f"ray {f.rays[i]} is not a lattice point of the subspace")
            vecs.append(tuple(int(x) for x in coords))
        cones.append(vecs)
    result = make_fan(d, cones, check_faces=False)
    rprops = check_properties(result)
    if not (rprops.smooth and rprops.strongly_symmetric and rprops.complete):
        raise CertificationError("restriction fan lost smoothness or symmetry")
    return result


def ref_hilbert_middle_rays(u, w):
    """Interior Hilbert basis members of the 2-cone (u, w), CCW from u.

    Candidates are the lattice points of the half-open fundamental
    parallelogram; a point is kept when it is not a sum of two nonzero
    lattice points of the cone.
    """
    import functools

    from arrfan import intlinalg as la
    from arrfan.errors import CertificationError

    def det2(p, q):
        return p[0] * q[1] - p[1] * q[0]

    d = det2(u, w)
    if d <= 0:
        raise CertificationError(f"cone ({u}, {w}) is not counterclockwise")
    if d == 1:
        return []
    pts = set()
    for i in range(d):
        for j in range(d):
            x = i * u[0] + j * w[0]
            y = i * u[1] + j * w[1]
            if (i or j) and x % d == 0 and y % d == 0:
                pts.add((x // d, y // d))
    candidates = pts | {u, w}

    def in_cone(p):
        coords = ref_solve_in_row_space((u, w), p)
        return coords is not None and all(c >= 0 for c in coords)

    middles = []
    for p in sorted(pts):
        reducible = any(
            q != p and in_cone(la.vec_sub(p, q)) and la.vec_sub(p, q) != (0, 0)
            for q in candidates
        )
        if not reducible:
            middles.append(p)
    middles.sort(key=functools.cmp_to_key(lambda p, q: -det2(p, q)))
    return middles


def ref_catalog_roots(letter: str, r: int) -> list[tuple[int, ...]]:
    """Positive roots of A_r, B_r, C_r or D_r in simple-root coordinates, from the
    closed forms in the orthonormal basis e_1..e_r (Bourbaki, plates I-IV)."""
    roots = []
    for i in range(r):
        for j in range(i + 1, r):  # e_i - e_j
            roots.append(tuple(1 if i <= k < j else 0 for k in range(r)))
    if letter == "A":  # also e_i - e_{r+1}
        roots += [tuple(1 if k >= i else 0 for k in range(r)) for i in range(r)]
    elif letter == "B":
        for i in range(r):
            roots.append(tuple(1 if k >= i else 0 for k in range(r)))  # e_i
            for j in range(i + 1, r):  # e_i + e_j
                roots.append(tuple(2 if k >= j else (1 if k >= i else 0) for k in range(r)))
    elif letter == "C":
        for i in range(r):
            # 2 e_i
            roots.append(tuple(1 if k == r - 1 else (2 if k >= i else 0) for k in range(r)))
            for j in range(i + 1, r):  # e_i + e_j
                roots.append(tuple(
                    1 if k == r - 1 else (2 if k >= j else (1 if k >= i else 0))
                    for k in range(r)
                ))
    elif letter == "D":
        for i in range(r - 1):  # e_i + e_r
            roots.append(tuple(1 if (i <= k <= r - 3 or k == r - 1) else 0 for k in range(r)))
        for i in range(r):
            for j in range(i + 1, r - 1):  # e_i + e_j, j < r
                roots.append(tuple(
                    2 if j <= k <= r - 3 else (1 if (i <= k or k == r - 1) else 0)
                    for k in range(r)
                ))
    return roots


# Reference rank-2 classification: the routines `arrfan.surface` ran before it
# read diagonals off the recursion, weights off diagonal degrees and closure
# off the CircularGraph constructor.  The tests require equal results.


def ref_triangulations(t: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All triangulations of a convex t-gon, as lists of triangles whose sides
    are then sorted into polygon edges and diagonals."""
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


def ref_triangulation_to_weights(t: int, diagonals) -> tuple[int, ...]:
    """Weights a_i = -(number of triangles at vertex i), the triangles found
    among all vertex triples."""
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


def ref_weights_to_fan(weights):
    """The fan of a weight sequence, with its own closure and closing-relation
    tests (each weight read through int())."""
    from arrfan import intlinalg as la
    from arrfan.errors import DoesNotCloseError, OrientationError
    from arrfan.surface import _rotate_to_lex_min, _wheel, ccw_sorted

    w = tuple(int(a) for a in weights)
    s = len(w)
    if s < 3:
        raise DoesNotCloseError("need at least 3 weights")
    rays = [(1, 0), (0, 1)]
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


def ref_y_divisor_class(g):
    """Divisor class of the line through ray 1, its pairings and
    self-intersection summed over explicit index loops."""
    from arrfan.errors import CertificationError
    from arrfan.surface import (
        DivisorClass,
        _central_t,
        _end_ray_coordinates,
        intersection_numbers,
    )

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
