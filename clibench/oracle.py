"""Reference values the benchmark checks the CLI against.

Nothing here imports arrfan.  Every expected value is either a closed form
(Weyl group orders, Coxeter-complex face counts, Bell/Dowling flat counts,
Catalan numbers) or an exact computation written from the definitions
(Fourier-Motzkin feasibility, an angular sweep in rank 2, Moebius inversion
over a poset).  A later change to an algorithm in the program is therefore
judged on whether its output is right, not on whether it matches an
earlier output.
"""
from __future__ import annotations

import functools
import json
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, gcd

# ----------------------------------------------------------------- closed forms


def stirling2(n: int, k: int) -> int:
    return sum((-1) ** j * comb(k, j) * (k - j) ** n for j in range(k + 1)) // factorial(k)


def bell(n: int) -> int:
    return sum(stirling2(n, k) for k in range(n + 1))


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def weyl_order(typ: str, r: int) -> int:
    """Chamber count of the Coxeter arrangement A_r, B_r, C_r or D_r."""
    if typ == "A":
        return factorial(r + 1)
    if typ in "BC":
        return 2**r * factorial(r)
    return 2 ** (r - 1) * factorial(r)


def hyperplane_count(typ: str, r: int) -> int:
    if typ == "A":
        return r * (r + 1) // 2
    if typ in "BC":
        return r * r
    return r * (r - 1)


def _signed_partitions(m: int) -> int:
    """Flats of B_m with no coordinate forced to zero: signed set partitions."""
    return sum(stirling2(m, k) * 2 ** (m - k) for k in range(m + 1))


def flat_count(typ: str, r: int) -> int:
    """Size of the intersection lattice: Bell(r+1) for A_r, Dowling for B_r/C_r.

    A flat of B_r (= C_r as a hyperplane set) sets some j coordinates to zero
    and partitions the rest into signed blocks; D_r has no flat with exactly
    one coordinate set to zero.
    """
    if typ == "A":
        return bell(r + 1)
    zeros = range(r + 1) if typ in "BC" else [j for j in range(r + 1) if j != 1]
    return sum(comb(r, j) * _signed_partitions(r - j) for j in zeros)


def _diagram_edges(typ: str, r: int) -> list[tuple[int, int]]:
    edges = [(i, i + 1) for i in range(r - 1)]
    if typ == "D":
        edges[-1] = (r - 3, r - 1)
    return edges


def _parabolic_order(typ: str, r: int, nodes: frozenset[int]) -> int:
    """Order of the parabolic subgroup generated by the simple reflections in nodes."""
    adj = {i: set() for i in nodes}
    for a, b in _diagram_edges(typ, r):
        if a in nodes and b in nodes:
            adj[a].add(b)
            adj[b].add(a)
    order, seen = 1, set()
    for start in nodes:
        if start in seen:
            continue
        comp, stack = {start}, [start]
        while stack:
            for nb in adj[stack.pop()]:
                if nb not in comp:
                    comp.add(nb)
                    stack.append(nb)
        seen |= comp
        k = len(comp)
        if typ == "D" and {r - 3, r - 2, r - 1} <= comp:
            order *= weyl_order("D", k)
        elif typ in "BC" and {r - 2, r - 1} <= comp:
            order *= weyl_order("B", k)
        else:
            order *= weyl_order("A", k)
    return order


def coxeter_f_vector(typ: str, r: int) -> list[int]:
    """Cones of each dimension 0..r in the chamber fan (faces of the Coxeter complex).

    Faces of dimension k are the cosets w W_J with |J| = r - k, so
    f_k = sum over such J of |W| / |W_J|.  For A_r the total is the ordered
    Bell number of r+1; for B_r it is OEIS A080253.
    """
    w = weyl_order(typ, r)
    f = [0] * (r + 1)
    for size in range(r + 1):
        for nodes in combinations(range(r), size):
            f[r - size] += w // _parabolic_order(typ, r, frozenset(nodes))
    return f


def autos_order(typ: str, r: int) -> int:
    """Lattice automorphisms of the chamber fan: W, times -1 where -1 is not in W."""
    if typ == "A":
        return 2 * factorial(r + 1)
    if typ in "BC":
        return weyl_order(typ, r)
    if r == 4:
        return 6 * weyl_order("D", 4)
    raise ValueError(f"no closed form recorded for D_{r}")


def parse_type(name: str) -> tuple[str, int]:
    return name[0], int(name.split("_")[1])


# ------------------------------------------------------------------ integer linear algebra


def dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def primitive(v) -> tuple[int, ...]:
    g = 0
    for x in v:
        g = gcd(g, x)
    return tuple(x // g for x in v) if g else tuple(v)


def canonical_sign(v) -> tuple[int, ...]:
    for x in v:
        if x:
            return tuple(v) if x > 0 else tuple(-y for y in v)
    return tuple(v)


def rank(rows) -> int:
    m = [[Fraction(x) for x in row] for row in rows]
    rk = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((i for i in range(rk, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rk], m[piv] = m[piv], m[rk]
        for i in range(rk + 1, len(m)):
            if m[i][c]:
                f = m[i][c] / m[rk][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[rk])]
        rk += 1
    return rk


def det(m) -> Fraction:
    a = [[Fraction(x) for x in row] for row in m]
    n, d = len(a), Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            d = -d
        d *= a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return d


def cross(rows) -> tuple[int, ...]:
    """Generalized cross product of r-1 integer vectors in Z^r (zero iff dependent)."""
    r = len(rows) + 1
    out = []
    for k in range(r):
        minor = [[row[j] for j in range(r) if j != k] for row in rows]
        out.append((-1) ** k * int(det(minor)) if minor else (-1) ** k)
    return tuple(out)


def mat_vec(v, g) -> tuple[int, ...]:
    """Row vector times matrix."""
    return tuple(sum(v[i] * g[i][j] for i in range(len(v))) for j in range(len(g[0])))


def random_unimodular(rng, r: int, transvections: int = 2) -> list[list[int]]:
    """A signed permutation times a few elementary transvections: small entries."""
    perm = rng.sample(range(r), r)
    g = [[(rng.choice((1, -1)) if j == perm[i] else 0) for j in range(r)] for i in range(r)]
    for _ in range(transvections):
        i, j = rng.sample(range(r), 2)
        s = rng.choice((1, -1))
        g[i] = [a + s * b for a, b in zip(g[i], g[j])]
    return g


def canonical_arrangement(rank_: int, covectors) -> dict:
    covs = sorted({canonical_sign(primitive(c)) for c in covectors})
    return {"rank": rank_, "positive_covectors": [list(c) for c in covs]}


def canonical_text(obj) -> str:
    """The CLI's documented canonical file form: sorted keys, no spaces, newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


# ------------------------------------------------------------------ chambers by Fourier-Motzkin


def strictly_feasible(rows) -> bool:
    """Is there x with row . x > 0 for every row?  Fourier-Motzkin elimination."""
    rows = {primitive(r) for r in rows}
    if not rows:
        return True
    dim = len(next(iter(rows)))
    for k in range(dim):
        pos = [r for r in rows if r[k] > 0]
        neg = [r for r in rows if r[k] < 0]
        nxt = {r for r in rows if r[k] == 0}
        for p in pos:
            for q in neg:
                nxt.add(primitive(tuple(-q[k] * a + p[k] * b for a, b in zip(p, q))))
        rows = nxt
    # only zero rows can remain, and 0 > 0 is false
    return not rows


def sign_chambers(covectors) -> list[tuple[int, ...]]:
    """Sign vectors of all chambers, grown one hyperplane at a time."""
    prefixes: list[tuple[int, ...]] = [()]
    for i in range(len(covectors)):
        nxt = []
        for s in prefixes:
            for e in (1, -1):
                t = s + (e,)
                rows = [tuple(t[j] * x for x in covectors[j]) for j in range(i + 1)]
                if strictly_feasible(rows):
                    nxt.append(t)
        prefixes = nxt
    return prefixes


def is_simplicial(covectors, rank_: int) -> bool:
    """Every chamber has exactly `rank` walls; a wall is a hyperplane whose flip is a chamber."""
    chambers = set(sign_chambers(covectors))
    for s in chambers:
        walls = sum(
            1 for i in range(len(s)) if s[:i] + (-s[i],) + s[i + 1 :] in chambers
        )
        if walls != rank_:
            return False
    return True


def arrangement_rays(covectors, rank_: int) -> list[tuple[int, ...]]:
    """Sorted primitive generators of the rank-1 flats, both signs."""
    rays = set()
    for sub in combinations(covectors, rank_ - 1):
        v = primitive(cross(sub))
        if any(v):
            rays.add(v)
            rays.add(tuple(-x for x in v))
    return sorted(rays)


def chamber_rays_at(covectors, rays, point) -> list[int]:
    """Indices of the rays of the closed chamber containing a generic point."""
    signs = [1 if dot(c, point) > 0 else -1 for c in covectors]
    return [
        i
        for i, v in enumerate(rays)
        if all(s * dot(c, v) >= 0 for s, c in zip(signs, covectors))
    ]


def generic_point(rng, covectors, rank_: int) -> tuple[int, ...]:
    while True:
        p = tuple(rng.randint(-50, 50) for _ in range(rank_))
        if all(dot(c, p) != 0 for c in covectors):
            return p


# ------------------------------------------------------------------ rank 2


def _ccw_key(v):
    upper = v[1] > 0 or (v[1] == 0 and v[0] > 0)
    return 0 if upper else 1


def ccw_sorted(vectors) -> list[tuple[int, ...]]:
    """Counterclockwise order starting at angle 0, exactly."""

    def cmp(p, q):
        hp, hq = _ccw_key(p), _ccw_key(q)
        if hp != hq:
            return hp - hq
        return -(p[0] * q[1] - p[1] * q[0])

    return sorted((tuple(v) for v in vectors), key=functools.cmp_to_key(cmp))


def rank2_weights(rays) -> tuple[list[tuple[int, ...]], list[int]]:
    """Rays CCW from the lex-min one, and w_j with v_(j-1) + v_(j+1) = -w_j v_j."""
    ordered = ccw_sorted(rays)
    start = ordered.index(min(ordered))
    ordered = ordered[start:] + ordered[:start]
    s = len(ordered)
    out = []
    for j in range(s):
        prev, cur, nxt = ordered[j - 1], ordered[j], ordered[(j + 1) % s]
        total = (prev[0] + nxt[0], prev[1] + nxt[1])
        k = 0 if cur[0] else 1
        w = -Fraction(total[k], cur[k])
        if w.denominator != 1 or (total[0] + w * cur[0], total[1] + w * cur[1]) != (0, 0):
            raise ValueError(f"rays around {cur} do not form a smooth cone pair")
        out.append(int(w))
    return ordered, out


def consecutive_pairs(rays) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    ordered = ccw_sorted(rays)
    return [(ordered[j], ordered[(j + 1) % len(ordered)]) for j in range(len(ordered))]


def rank2_crystallographic(covectors) -> bool:
    """Angular sweep: each chamber's two walls must write every covector integrally."""
    on_line = {}
    for c in covectors:
        v = (-c[1], c[0])
        on_line[primitive(v)] = c
        on_line[primitive((c[1], -c[0]))] = c
    for u, w in consecutive_pairs(on_line):
        p, q = on_line[u], on_line[w]
        d = p[0] * q[1] - p[1] * q[0]
        for c in covectors:
            x = Fraction(c[0] * q[1] - c[1] * q[0], d)
            y = Fraction(p[0] * c[1] - p[1] * c[0], d)
            if x.denominator != 1 or y.denominator != 1:
                return False
    return True


def dihedral_symmetries(seq) -> int:
    """Rotations and reflections of a cyclic sequence that fix it."""
    s = len(seq)
    seq = list(seq)
    rev = seq[::-1]
    rot = sum(1 for k in range(s) if seq[k:] + seq[:k] == seq)
    refl = sum(1 for k in range(s) if rev[k:] + rev[:k] == seq)
    return rot + refl


def same_cycle(a, b) -> bool:
    a, b = list(a), list(b)
    return len(a) == len(b) and any(b[k:] + b[:k] == a for k in range(len(b)))


def blowup_weights(rng, blowups: int) -> list[int]:
    """Weights of a toric surface: P^2 followed by random blowups of torus-fixed points."""
    w = [1, 1, 1]
    for _ in range(blowups):
        i = rng.randrange(len(w))
        j = (i + 1) % len(w)
        w[i] -= 1
        w[j] -= 1
        w.insert(i + 1, -1)
    return w


def rank2_det(u, v) -> int:
    return u[0] * v[1] - u[1] * v[0]


def rank2_coverage(fan: dict) -> list[int]:
    """How many maximal cones cover the open sector between each pair of consecutive rays.

    A fan covers each sector once; 0 means a missing cone, 2 or more an overlap.
    """
    rays = [tuple(v) for v in fan["rays"]]
    cones = []
    for i, j in fan["max_cones"]:
        u, w = rays[i], rays[j]
        cones.append((u, w) if rank2_det(u, w) > 0 else (w, u))
    counts = []
    for u, w in consecutive_pairs(rays):
        d = (u[0] + w[0], u[1] + w[1])
        counts.append(
            sum(1 for a, b in cones if rank2_det(a, d) > 0 and rank2_det(d, b) > 0)
        )
    return counts


# ------------------------------------------------------------------ fans and posets


def fan_f_vector(fan: dict) -> list[int]:
    """Number of cones of each dimension, the origin included, from the maximal cones."""
    faces = {()}
    for cone in fan["max_cones"]:
        c = tuple(sorted(cone))
        for k in range(1, len(c) + 1):
            faces.update(combinations(c, k))
    f = [0] * (fan["rank"] + 1)
    for face in faces:
        f[len(face)] += 1
    return f


def chamber_fan_errors(covectors, fan: dict, chambers: int, f_vector) -> list[str]:
    """Is `fan` the chamber fan of the arrangement?

    Every ray must be primitive and lie on a rank-1 flat; every maximal cone
    must sit in one chamber (its interior point has a strict sign vector on
    which all of its rays are nonnegative); the sign vectors must be distinct
    and as many as the chambers; the face counts must match.
    """
    r = fan["rank"]
    rays = [tuple(v) for v in fan["rays"]]
    errs = []
    if rays != sorted(set(rays)):
        errs.append("rays not strictly sorted")
    for v in rays:
        if primitive(v) != v:
            errs.append(f"ray {v} not primitive")
        if rank([c for c in covectors if dot(c, v) == 0]) != r - 1:
            errs.append(f"ray {v} is not on a rank-1 flat")
    seen = set()
    for cone in fan["max_cones"]:
        gens = [rays[i] for i in cone]
        p = tuple(sum(col) for col in zip(*gens))
        vals = [dot(c, p) for c in covectors]
        if len(gens) != r or 0 in vals:
            errs.append(f"cone {cone} is not a full chamber cone")
            continue
        signs = tuple(1 if x > 0 else -1 for x in vals)
        if any(s * dot(c, g) < 0 for g in gens for s, c in zip(signs, covectors)):
            errs.append(f"cone {cone} leaves its chamber")
        seen.add(signs)
    if len(seen) != chambers or len(fan["max_cones"]) != chambers:
        errs.append(f"{len(seen)} distinct chambers, expected {chambers}")
    got = fan_f_vector(fan)
    if got != list(f_vector):
        errs.append(f"f-vector {got}, expected {list(f_vector)}")
    if sum((-1) ** k * x for k, x in enumerate(got)) != (-1) ** r:
        errs.append("Euler relation fails")
    return errs


def zaslavsky_chambers(dims, cover_pairs) -> int:
    """Sum of |mu(0, X)| over the intersection lattice given by its cover relation.

    The lattice is ordered by reverse inclusion, so the bottom is the flat of
    largest dimension and each cover pair joins flats one dimension apart.
    """
    n = len(dims)
    up = [[] for _ in range(n)]
    for i, j in cover_pairs:
        lo, hi = (i, j) if dims[i] > dims[j] else (j, i)
        if dims[lo] != dims[hi] + 1:
            raise ValueError(f"cover pair {i},{j} skips a rank")
        up[lo].append(hi)
    order = sorted(range(n), key=lambda x: -dims[x])
    below = [0] * n  # bitmask of strictly smaller elements
    for x in order:
        for y in up[x]:
            below[y] |= below[x] | (1 << x)
    bottom = order[0]
    mu = [0] * n
    mu[bottom] = 1
    for x in order[1:]:
        m = below[x]
        total = 0
        while m:
            low = m & -m
            total += mu[low.bit_length() - 1]
            m ^= low
        mu[x] = -total
    return sum(abs(m) for m in mu)
