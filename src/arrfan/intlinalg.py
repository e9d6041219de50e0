"""Exact integer linear algebra.

Everything runs on Python's arbitrary-precision integers; no floating point
or fraction enters any computation, so every returned value is exact.  Rank
and determinant read one fraction-free (Bareiss) elimination; one integer
inverse on top of it, `scaled_inverse` (m*D = d*I), serves inverses, linear
solves and a simplicial cone's dual rays (facet normals, inequality rows).
Matrices are sequences of equal-length rows and are returned as tuples of
tuples.
"""
from __future__ import annotations

from math import gcd
from typing import Iterable, Sequence

from .errors import NonPointedError

Vec = tuple[int, ...]
Mat = tuple[Vec, ...]


def _rows(m: Iterable[Sequence[int]]) -> list[list[int]]:
    rows = [list(r) for r in m]
    if rows:
        w = len(rows[0])
        if any(len(r) != w for r in rows):
            raise ValueError("ragged matrix")
    return rows


def freeze(m: Iterable[Sequence[int]]) -> Mat:
    return tuple(tuple(r) for r in m)


def identity(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(m: Sequence[Sequence[int]]) -> Mat:
    if not m:
        return ()
    return tuple(tuple(row[j] for row in m) for j in range(len(m[0])))


def vec_dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(u, v, strict=True))


def vec_add(u: Sequence[int], v: Sequence[int]) -> Vec:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_sub(u: Sequence[int], v: Sequence[int]) -> Vec:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vec_neg(u: Sequence[int]) -> Vec:
    return tuple(-a for a in u)


def vec_scale(c: int, u: Sequence[int]) -> Vec:
    return tuple(c * a for a in u)


def vec_mat(v: Sequence, m: Sequence[Sequence]) -> tuple:
    """Row vector times matrix."""
    return tuple(sum(v[i] * m[i][j] for i in range(len(v))) for j in range(len(m[0])))


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> tuple:
    return tuple(vec_mat(row, b) for row in a)


def primitive(v: Sequence[int]) -> Vec:
    """Divide by the gcd of the entries, keeping the direction.

    Raises ValueError on the zero vector.
    """
    g = 0
    for a in v:
        g = gcd(g, a)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(a // g for a in v)


def canonical_sign(v: Sequence[int]) -> Vec:
    """Flip the sign so the first nonzero coordinate is positive."""
    for a in v:
        if a != 0:
            return tuple(v) if a > 0 else vec_neg(v)
    raise ValueError("zero vector has no canonical sign")


def _eliminate(rows: list[list[int]], ncols: int) -> tuple[list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968), in place.

    Pivots are sought only in the first `ncols` columns, so callers may append
    right-hand sides.  Each step sets every other row to (p*row - row[c]*prow)/d,
    p the new pivot and d the previous one; the division is exact because every
    entry is a minor of the input.  Returns (pivots, d, sign): row k holds the
    pivot of column pivots[k], every pivot entry equals d (1 without pivots),
    the rest of each pivot column is 0, and sign is (-1)**(row swaps).
    """
    pivots: list[int] = []
    d, sign = 1, 1
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        prow = rows[r]
        p = prow[c]
        for i, row in enumerate(rows):
            if i == r:
                continue
            f = row[c]
            if f:
                rows[i] = [(p * x - f * y) // d for x, y in zip(row, prow)]
            elif p != d:
                rows[i] = [p * x // d for x in row]
        pivots.append(c)
        d = p
    return pivots, d, sign


def det(m: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix."""
    a = _rows(m)
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("determinant requires a square matrix")
    pivots, d, sign = _eliminate(a, n)
    return sign * d if len(pivots) == n else 0


def rank(m: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals."""
    rows = [list(r) for r in m]
    return len(_eliminate(rows, len(rows[0]) if rows else 0)[0])


def _row_sub(h: list[list[int]], u: list[list[int]], i: int, j: int, q: int) -> None:
    h[i] = [x - q * y for x, y in zip(h[i], h[j])]
    u[i] = [x - q * y for x, y in zip(u[i], u[j])]


def hnf(m: Sequence[Sequence[int]]) -> tuple[Mat, Mat]:
    """Row-style Hermite normal form.

    Returns (H, U) with H = U*m, U unimodular, pivots positive, entries above
    each pivot reduced into [0, pivot), and zero rows at the bottom.  H is the
    canonical representative of the row lattice of m, so two matrices with
    equal row lattices (and equal row counts) produce identical H.
    """
    h = _rows(m)
    nrows = len(h)
    ncols = len(h[0]) if nrows else 0
    u = [list(r) for r in identity(nrows)]
    piv = 0
    for c in range(ncols):
        if piv >= nrows:
            break
        while True:
            nz = [i for i in range(piv, nrows) if h[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(h[i][c]), i))
            if i0 != piv:
                h[piv], h[i0] = h[i0], h[piv]
                u[piv], u[i0] = u[i0], u[piv]
            done = True
            for i in range(piv + 1, nrows):
                if h[i][c] != 0:
                    q = h[i][c] // h[piv][c]
                    _row_sub(h, u, i, piv, q)
                    if h[i][c] != 0:
                        done = False
            if done:
                break
        if piv < nrows and h[piv][c] != 0:
            if h[piv][c] < 0:
                h[piv] = [-x for x in h[piv]]
                u[piv] = [-x for x in u[piv]]
            for i in range(piv):
                q = h[i][c] // h[piv][c]
                if q:
                    _row_sub(h, u, i, piv, q)
            piv += 1
    return freeze(h), freeze(u)


def snf_with_transforms(m: Sequence[Sequence[int]]) -> tuple[Mat, Mat, Mat]:
    """Smith normal form with transforms: returns (S, U, V) with S = U*m*V."""
    a = _rows(m)
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    u = [list(r) for r in identity(nrows)]
    v = [list(r) for r in identity(ncols)]

    def col_sub(j: int, k: int, q: int) -> None:
        for row in a:
            row[j] -= q * row[k]
        for row in v:
            row[j] -= q * row[k]

    def col_swap(j: int, k: int) -> None:
        for row in a:
            row[j], row[k] = row[k], row[j]
        for row in v:
            row[j], row[k] = row[k], row[j]

    t = 0
    while t < min(nrows, ncols):
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < best[0]):
                    best = (abs(a[i][j]), i, j)
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            a[t], a[bi] = a[bi], a[t]
            u[t], u[bi] = u[bi], u[t]
        if bj != t:
            col_swap(t, bj)
        while True:
            # clear column t below the pivot
            for i in range(t + 1, nrows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    _row_sub(a, u, i, t, q)
            stuck = next((i for i in range(t + 1, nrows) if a[i][t]), None)
            if stuck is not None:
                a[t], a[stuck] = a[stuck], a[t]
                u[t], u[stuck] = u[stuck], u[t]
                continue
            # clear row t to the right of the pivot
            for j in range(t + 1, ncols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    col_sub(j, t, q)
            stuck = next((j for j in range(t + 1, ncols) if a[t][j]), None)
            if stuck is not None:
                col_swap(t, stuck)
                continue
            # pivot must divide every remaining entry
            bad = None
            for i in range(t + 1, nrows):
                for j in range(t + 1, ncols):
                    if a[i][j] % a[t][t] != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            _row_sub(a, u, t, bad, -1)
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return freeze(a), freeze(u), freeze(v)


def snf(m: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Invariant factors d_1 | d_2 | ..., each positive (zero factors dropped)."""
    s, _, _ = snf_with_transforms(m)
    diag = [s[i][i] for i in range(min(len(s), len(s[0]) if s else 0))]
    return tuple(d for d in diag if d != 0)


def scaled_inverse(m: Sequence[Sequence[int]]) -> tuple[Mat, int]:
    """(D, d) with m*D = d*I and d > 0, for a matrix m with independent rows.

    D has one row per column of m and is zero in every row off the pivot
    columns (free variables are set to zero), so for square m, D = d * m^-1,
    and column j of D over d solves m*x = e_j.  Raises ValueError("singular
    matrix") when the rows of m are linearly dependent.
    """
    k = len(m)
    a = [[*row] + [int(i == j) for j in range(k)] for i, row in enumerate(_rows(m))]
    n = len(a[0]) - k if a else 0
    pivots, d, _ = _eliminate(a, n)
    if len(pivots) < k:
        raise ValueError("singular matrix")
    s = 1 if d > 0 else -1
    inv = [[0] * k for _ in range(n)]
    for row, c in zip(a, pivots):
        inv[c] = [s * x for x in row[n:]]
    return freeze(inv), s * d


def dual_rays(m: Sequence[Sequence[int]]) -> Mat:
    """Primitive columns of `scaled_inverse(m)`, one per row of m.

    Ray j vanishes on every row of m but row j and is positive on it.
    """
    inv, _ = scaled_inverse(m)
    return tuple(primitive(col) for col in transpose(inv))


def mat_inverse_unimodular(m: Sequence[Sequence[int]]) -> Mat:
    """Integer inverse of a unimodular matrix."""
    inv, d = scaled_inverse(m)
    if d != 1 or len(inv) != len(m):
        raise ValueError("matrix is not unimodular")
    return inv


def kernel_basis(m: Sequence[Sequence[int]]) -> Mat:
    """Canonical basis of the integer kernel {x : row.x = 0 for every row}.

    The kernel of an integer matrix is a saturated sublattice; the returned
    rows are its Hermite-canonical basis (possibly empty).
    """
    rows = _rows(m)
    if not rows:
        raise ValueError("kernel of an empty matrix is ambiguous")
    h, u = hnf(transpose(rows))
    ker = [u[i] for i in range(len(h)) if all(x == 0 for x in h[i])]
    if not ker:
        return ()
    h2, _ = hnf(ker)
    return tuple(r for r in h2 if any(x != 0 for x in r))


def complete_to_basis(rows: Sequence[Sequence[int]], ambient: int) -> tuple[Mat, Mat, int]:
    """Extend (the saturation of) a row lattice to a basis of Z^ambient.

    Returns (W, V, k): W is an ambient x ambient unimodular matrix whose first
    k rows form a basis of the saturation of the row lattice of `rows`, and
    V = W^-1 expresses coordinates: for any x, x*V are the coordinates of x in
    the basis W.  With no rows, W = V = identity and k = 0.
    """
    rows = _rows(rows)
    if not rows:
        return identity(ambient), identity(ambient), 0
    if len(rows[0]) != ambient:
        raise ValueError("row width does not match ambient dimension")
    s, _, v = snf_with_transforms(rows)
    k = sum(1 for i in range(min(len(s), ambient)) if s[i][i] != 0)
    w = mat_inverse_unimodular(v)
    return w, freeze(v), k


def saturation_basis(rows: Sequence[Sequence[int]], ambient: int) -> Mat:
    """Hermite-canonical basis of the saturation of a row lattice."""
    w, _, k = complete_to_basis(rows, ambient)
    if k == 0:
        return ()
    h, _ = hnf(w[:k])
    return tuple(r for r in h if any(x != 0 for x in r))


def _dedup(vectors: Iterable[Vec]) -> list[Vec]:
    return list(dict.fromkeys(vectors))


def extreme_rays(inequalities: Sequence[Sequence[int]]) -> Mat:
    """Extreme rays of the pointed cone {x : row.x >= 0 for every row}.

    Returns the unique minimal set of primitive integer generators, sorted
    lexicographically.  Raises NonPointedError when the cone contains a line
    (the rows do not have full column rank).

    Incremental double description: seed with a simplicial cone cut out by
    the first full-rank subset of rows, then add the remaining rows one at a
    time, combining adjacent positive/negative ray pairs.
    """
    rows = [tuple(int(x) for x in r) for r in inequalities]
    rows = [r for r in rows if any(x != 0 for x in r)]
    if not rows:
        raise NonPointedError("cone contains a line (no effective constraints)")
    r = len(rows[0])
    if any(len(row) != r for row in rows):
        raise ValueError("ragged inequality matrix")
    if rank(rows) < r:
        raise NonPointedError("cone contains a line")

    base: list[Vec] = []
    rest: list[Vec] = []
    for row in rows:
        if len(base) < r and rank(base + [row]) > len(base):
            base.append(row)
        else:
            rest.append(row)
    rays = list(dual_rays(base))
    processed: list[Vec] = list(base)

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
