import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from arrfan import intlinalg as la
from arrfan.errors import NonPointedError

from oracles import (
    brute_extreme_rays,
    ref_det,
    ref_extreme_rays,
    ref_mat_inverse_fraction,
    ref_particular_solution,
    ref_rank,
)


def _random_matrix(rng, rows, cols, lo=-9, hi=9):
    return tuple(tuple(rng.randint(lo, hi) for _ in range(cols)) for _ in range(rows))


def _random_unimodular(rng, n):
    m = [list(r) for r in la.identity(n)]
    for _ in range(4 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-3, 3)
        m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    return la.freeze(m)


def test_det_examples():
    assert la.det(la.identity(3)) == 1
    assert la.det([[1, 0], [1, -2]]) == -2
    assert la.det([[0, -1], [1, 1]]) == 1


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        la.det([[1, 2, 3], [4, 5, 6]])


def test_det_matches_sympy():
    rng = random.Random(7)
    for n in (2, 3, 4, 5):
        for _ in range(10):
            m = _random_matrix(rng, n, n)
            assert la.det(m) == int(sympy.Matrix(m).det())


def test_hnf_examples():
    h, _ = la.hnf([[2, 0], [0, 2]])
    assert h == ((2, 0), (0, 2))
    h, _ = la.hnf([[0, 1], [1, 0]])
    assert h == ((1, 0), (0, 1))
    h, _ = la.hnf([[2, 4]])
    assert h == ((2, 4),)


def test_hnf_transform_and_canonicality():
    rng = random.Random(11)
    for _ in range(25):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = _random_matrix(rng, rows, cols)
        h, u = la.hnf(m)
        assert abs(la.det(u)) == 1
        assert la.mat_mul(u, m) == h
        # idempotent
        assert la.hnf(h)[0] == h
        # invariant under unimodular left multiplication
        w = _random_unimodular(rng, rows)
        assert la.hnf(la.mat_mul(w, m))[0] == h


def test_snf_examples():
    assert la.snf([[1, 0], [0, 1]]) == (1, 1)
    assert la.snf([[2, 0], [0, 3]]) == (1, 6)
    assert la.snf([[1, 0], [-1, 0], [0, 1], [0, -1]]) == (1, 1)


def test_snf_matches_sympy():
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(13)
    for _ in range(25):
        m = _random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        theirs = tuple(int(d) for d in invariant_factors(sympy.Matrix(m)) if d != 0)
        assert la.snf(m) == theirs


def test_snf_transforms_reconstruct():
    rng = random.Random(17)
    for _ in range(25):
        m = _random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        s, u, v = la.snf_with_transforms(m)
        assert la.mat_mul(la.mat_mul(u, m), v) == s
        assert abs(la.det(u)) == 1 and abs(la.det(v)) == 1


def test_extreme_rays_examples():
    assert la.extreme_rays([[1, 0], [0, 1]]) == ((0, 1), (1, 0))
    assert la.extreme_rays([[1, 0], [0, 1], [1, 1]]) == ((0, 1), (1, 0))
    with pytest.raises(NonPointedError):
        la.extreme_rays([[1, 0], [-1, 0]])


def test_extreme_rays_lower_dimensional_cone():
    # x = 0, y >= 0: a single ray inside a proper subspace
    assert la.extreme_rays([[1, 0], [-1, 0], [0, 1]]) == ((0, 1),)
    # cone reduced to the origin
    assert la.extreme_rays([[1, 0], [-1, 0], [0, 1], [0, -1]]) == ()


def test_extreme_rays_against_subset_oracle():
    rng = random.Random(23)
    trials = 0
    while trials < 40:
        r = rng.choice((2, 3))
        n = rng.randint(r, r + 4)
        rows = _random_matrix(rng, n, r, -4, 4)
        rows = tuple(row for row in rows if any(row))
        if not rows or la.rank(rows) < r:
            continue
        trials += 1
        assert la.extreme_rays(rows) == brute_extreme_rays(rows, r)


@st.composite
def _inequality_rows(draw):
    """Random rows of width r, with duplicates, negated rows (an equality
    pair: a lower-dimensional or non-pointed cone), zero rows and ragged rows."""
    r = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=r, max_size=r),
                         min_size=1, max_size=8))
    for kind, i in draw(st.lists(st.tuples(st.sampled_from("dnzr"), st.integers(0, 9)),
                                 max_size=4)):
        v = rows[i % len(rows)]
        rows.append({"d": v, "n": [-x for x in v], "z": [0] * r, "r": v + [1]}[kind])
    return r, rows


@settings(max_examples=500, deadline=None, database=None)
@given(_inequality_rows())
def test_extreme_rays_match_the_former_double_description(data):
    r, rows = data
    try:
        got = la.extreme_rays(rows)
    except (NonPointedError, ValueError) as e:
        with pytest.raises(type(e)):
            ref_extreme_rays(rows)
        return
    assert got == ref_extreme_rays(rows) == brute_extreme_rays(rows, r)


def test_extreme_rays_run_on_one_elimination(monkeypatch):
    """No rank call: one elimination of the transposed rows gives the rank test
    and the base rows, whose dual rays are the one inverse."""
    def refuse(*args):
        raise AssertionError("rank called")

    rows = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 2, -1), (2, -1, 2), (-1, 2, 2), (3, 3, 3)]
    expected = ref_extreme_rays(rows)
    dual, calls = la.dual_rays, []
    monkeypatch.setattr(la, "rank", refuse)
    monkeypatch.setattr(la, "dual_rays", lambda m: calls.append(m) or dual(m))
    assert la.extreme_rays(rows) == expected
    assert expected == ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
    assert calls == [[(1, 0, 0), (0, 1, 0), (0, 0, 1)]]
    with pytest.raises(NonPointedError):
        la.extreme_rays([(1, 0, 0), (0, 1, 0), (0, -1, 0)])


def test_extreme_rays_double_dual_regeneration():
    rng = random.Random(29)
    done = 0
    while done < 20:
        r = rng.choice((2, 3))
        rows = _random_matrix(rng, rng.randint(r, r + 3), r, -4, 4)
        rows = tuple(row for row in rows if any(row))
        if not rows or la.rank(rows) < r:
            continue
        rays = la.extreme_rays(rows)
        if la.rank(rays) < r if rays else True:
            continue
        done += 1
        # every inequality is satisfied by every ray ...
        assert all(la.vec_dot(row, ray) >= 0 for row in rows for ray in rays)
        # ... and the facet system derived from the rays regenerates the rays
        facets = la.extreme_rays(rays)
        assert la.extreme_rays(facets) == rays


def test_kernel_and_saturation():
    ker = la.kernel_basis([[1, 1, 0]])
    assert la.rank(ker) == 2
    assert all(r[0] + r[1] == 0 for r in ker)
    assert la.saturation_basis([(2, 0)], 2) == ((1, 0),)
    assert la.saturation_basis([(2, 2)], 2) == ((1, 1),)
    w, v, k = la.complete_to_basis([(1, 0, 0)], 3)
    assert k == 1 and abs(la.det(w)) == 1 and la.mat_mul(w, v) == la.identity(3)


# Property tests: the elimination wrappers against the reference routines in
# oracles.py.  Half the matrices are products of an n x k and a k x m factor,
# so singular, rank-deficient and dependent-basis inputs are common.

_ENTRY = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-9, 9))
_PROPERTY = settings(max_examples=300, deadline=None, database=None)


def _dense(n, m):
    return st.lists(st.tuples(*[_ENTRY] * m), min_size=n, max_size=n).map(tuple)


@st.composite
def _matrices(draw, max_dim=6):
    n, m = draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim))
    if draw(st.booleans()):
        return draw(_dense(n, m))
    k = draw(st.integers(0, min(n, m)))
    a, b = draw(_dense(n, k)), draw(_dense(k, m))
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)) for i in range(n)
    )


@st.composite
def _square_matrices(draw):
    m = draw(_matrices())
    n = min(len(m), len(m[0]) if m else 0)
    return tuple(row[:n] for row in m[:n])


def _outcome(f, *args):
    """What f returns or raises, compared by repr so Fraction and int differ."""
    try:
        return repr(f(*args))
    except ValueError as e:
        return f"ValueError({e})"


@_PROPERTY
@given(_matrices())
def test_rank_matches_reference(m):
    assert la.rank(m) == ref_rank(m)


@_PROPERTY
@given(st.one_of(_square_matrices(), _matrices()))
def test_det_and_inverse_match_reference(m):
    assert _outcome(la.det, m) == _outcome(ref_det, m)


@_PROPERTY
@given(st.one_of(_square_matrices(), _matrices()))
def test_scaled_inverse_matches_reference(m):
    """m*D = d*I with d > 0; D/d is the inverse and its columns the zero-free solves."""
    k = len(m)
    if ref_rank(m) < k:
        with pytest.raises(ValueError):
            la.scaled_inverse(m)
        return
    inv, d = la.scaled_inverse(m)
    n = len(m[0]) if m else 0
    assert d > 0 and len(inv) == n
    assert la.mat_mul(m, inv) == tuple(tuple(d * int(i == j) for j in range(k)) for i in range(k))
    frac = tuple(tuple(Fraction(x, d) for x in row) for row in inv)
    if n == k:
        assert frac == ref_mat_inverse_fraction(m)
        assert d == abs(ref_det(m))  # so a square integer matrix is unimodular exactly when d = 1
    for j in range(k):
        target = tuple(int(i == j) for i in range(k))
        assert tuple(row[j] for row in frac) == ref_particular_solution(m, target)
    assert la.dual_rays(m) == tuple(
        la.primitive(tuple(row[j] for row in inv)) for j in range(k)
    )


def test_scaled_inverse_examples():
    assert la.scaled_inverse([[2, 0], [0, 3]]) == (((3, 0), (0, 2)), 6)
    assert la.scaled_inverse([[0, -1], [1, 0]]) == (((0, 1), (-1, 0)), 1)
    assert la.scaled_inverse([[0, 2, 0]]) == (((0,), (1,), (0,)), 2)
    assert la.dual_rays([[1, 1], [0, 1]]) == ((1, 0), (-1, 1))
    with pytest.raises(ValueError):
        la.scaled_inverse([[1, 2], [2, 4]])


def test_unimodular_inverse_is_the_hermite_transform():
    """The inverse of every transform of a Smith form is the fraction-free
    inverse with d = 1; a matrix that is not unimodular has none."""
    rng = random.Random(7)
    for _ in range(300):
        _, u, v = la.snf_with_transforms(_random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6)))
        for w in (u, v):
            inv = la.mat_inverse_unimodular(w)
            assert (inv, 1) == la.scaled_inverse(w)
            assert la.mat_mul(w, inv) == la.identity(len(w))
    for m in ([[2]], [[1, 1], [1, -1]], [[1, 2], [2, 4]], [[1, 0, 0], [0, 1, 0]], [[1], [0]]):
        with pytest.raises(ValueError, match="not unimodular"):
            la.mat_inverse_unimodular(m)
    with pytest.raises(ValueError):
        la.scaled_inverse([[1], [2]])
