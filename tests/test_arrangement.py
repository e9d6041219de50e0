import random
from collections import Counter
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from arrfan import intlinalg as la
from arrfan.arrangement import (
    _seed_sign_vector,
    arrangement_to_json,
    catalog,
    decompose,
    enumerate_chambers,
    is_crystallographic,
    load_arrangement,
    make_arrangement,
    positive_roots,
)
from arrfan.errors import (
    BadReferenceError,
    CertificationError,
    InputFormatError,
    LatticeSpanError,
    NotCrystallographicError,
    NotSimplicialError,
)

from oracles import (
    brute_chamber_signs,
    gauss_solve,
    ref_enumerate_chambers,
    ref_is_crystallographic,
    ref_catalog_roots,
    ref_extreme_rays,
    ref_mat_inverse_fraction,
)


def test_load_basic():
    a = load_arrangement(b'{"rank":2,"positive_covectors":[[1,0],[0,1]]}')
    assert a.rank == 2
    assert a.positive_covectors == ((0, 1), (1, 0))


def test_load_rejections():
    with pytest.raises(InputFormatError):
        load_arrangement(b"{broken")
    with pytest.raises(InputFormatError):
        load_arrangement(b'{"rank":2,"positive_covectors":[[2,0],[0,1]]}')
    with pytest.raises(InputFormatError):
        load_arrangement(b'{"rank":2,"positive_covectors":[[1,0],[-1,0]]}')
    with pytest.raises(InputFormatError):
        load_arrangement(b'{"rank":2,"positive_covectors":[[0,0],[0,1]]}')
    with pytest.raises(InputFormatError):
        load_arrangement(b'{"rank":2,"positive_covectors":[[1.0,0],[0,1]]}')
    # covectors spanning a proper sublattice are rejected with their own error
    with pytest.raises(LatticeSpanError):
        load_arrangement(b'{"rank":2,"positive_covectors":[[1,1],[1,-1]]}')


def test_canonical_form_sign_and_order():
    a = make_arrangement(2, [(-1, 0), (0, 1), (-1, -1)])
    assert a.positive_covectors == ((0, 1), (1, 0), (1, 1))


def test_catalog_families():
    assert catalog("A_2").positive_covectors == ((0, 1), (1, 0), (1, 1))
    assert catalog("B_2").positive_covectors == ((0, 1), (1, 0), (1, 1), (1, 2))
    assert catalog("C_2").positive_covectors == ((0, 1), (1, 0), (1, 1), (2, 1))
    for r in range(2, 7):
        assert len(catalog(f"A_{r}").positive_covectors) == r * (r + 1) // 2
        assert len(catalog(f"B_{r}").positive_covectors) == r * r
        assert len(catalog(f"C_{r}").positive_covectors) == r * r
        assert len(catalog(f"D_{r}").positive_covectors) == r * (r - 1)
    with pytest.raises(BadReferenceError):
        catalog("E_8")
    with pytest.raises(BadReferenceError):
        catalog("A_9")
    with pytest.raises(BadReferenceError):
        catalog("ngon:4:2")


@pytest.mark.parametrize("r", range(2, 9))
@pytest.mark.parametrize("letter", "ABCD")
def test_catalog_roots_match_the_closed_forms(letter, r):
    assert catalog(f"{letter}_{r}") == make_arrangement(r, ref_catalog_roots(letter, r))


_EXPONENTS = {  # the exponents m_1, ..., m_r of type X_r
    "A": lambda r: list(range(1, r + 1)),
    "B": lambda r: list(range(1, 2 * r, 2)),
    "C": lambda r: list(range(1, 2 * r, 2)),
    "D": lambda r: list(range(1, 2 * r - 2, 2)) + [r - 1],
}


@pytest.mark.parametrize("r", range(2, 9))
@pytest.mark.parametrize("letter", "ABCD")
def test_catalog_root_heights_follow_the_exponents(letter, r):
    # Kostant: the number of positive roots of height k is the number of exponents >= k
    heights = Counter(sum(root) for root in catalog(f"{letter}_{r}").positive_covectors)
    exponents = _EXPONENTS[letter](r)
    assert heights == Counter({k: sum(m >= k for m in exponents)
                               for k in range(1, max(exponents) + 1)})


def test_catalog_ngon():
    assert catalog("ngon:3:0") == catalog("A_2")
    g1 = catalog("ngon:4:0")
    g2 = catalog("ngon:4:1")
    assert g1.rank == 2 and len(g1.positive_covectors) == 4
    assert g1 != g2


@pytest.mark.parametrize(
    "name,count",
    # Weyl group orders: (r+1)! for A_r, 2^r r! for B_r, 2^(r-1) r! for D_r
    [("A_2", 6), ("B_2", 8), ("A_3", 24), ("B_3", 48),
     ("D_4", 2**3 * 24), ("B_4", 2**4 * 24), ("A_5", 720)],
)
def test_chamber_counts(name, count):
    assert len(enumerate_chambers(catalog(name))) == count


_WEYL_ORDER = {  # |W| for type X_r; W acts simply transitively on the chambers
    "A": lambda r: factorial(r + 1),
    "B": lambda r: 2**r * factorial(r),
    "C": lambda r: 2**r * factorial(r),
    "D": lambda r: 2 ** (r - 1) * factorial(r),
}


@pytest.mark.parametrize(
    "name", [f"A_{r}" for r in range(2, 7)] + [f"{x}_{r}" for x in "BCD" for r in range(2, 6)]
)
def test_chamber_count_is_the_weyl_group_order(name):
    letter, r = name.split("_")
    assert len(catalog(name).chambers) == _WEYL_ORDER[letter](int(r))


def test_chambers_match_brute_force_signs():
    for name in ("A_2", "B_2", "A_3", "B_3"):
        a = catalog(name)
        got = {k.sign_vector for k in enumerate_chambers(a)}
        assert got == brute_chamber_signs(a.positive_covectors, a.rank)


def test_chambers_come_in_opposite_pairs():
    for name in ("A_2", "B_3"):
        a = catalog(name)
        chambers = enumerate_chambers(a)
        ray_sets = {k.rays for k in chambers}
        for k in chambers:
            assert tuple(sorted(la.vec_neg(v) for v in k.rays)) in ray_sets


def test_chamber_duality_pairing():
    for name in ("A_2", "A_3", "B_3"):
        a = catalog(name)
        for k in enumerate_chambers(a):
            b = k.basis_covectors(a)
            for i, beta in enumerate(b):
                for j, ray in enumerate(k.rays):
                    val = la.vec_dot(beta, ray)
                    assert (val > 0) if i == j else (val == 0)


def test_generic_points_tile_space():
    rng = random.Random(101)
    for name in ("A_2", "B_3"):
        a = catalog(name)
        chambers = {k.sign_vector: k for k in enumerate_chambers(a)}
        count = 0
        while count < 1000:
            p = tuple(rng.randint(-10**6, 10**6) for _ in range(a.rank))
            vals = [la.vec_dot(c, p) for c in a.positive_covectors]
            if any(v == 0 for v in vals):
                continue
            count += 1
            signs = tuple(1 if v > 0 else -1 for v in vals)
            assert signs in chambers


def test_positive_roots_examples():
    a = catalog("A_2")
    by_rays = {frozenset(k.rays): k for k in enumerate_chambers(a)}
    fund = by_rays[frozenset({(1, 0), (0, 1)})]
    assert set(positive_roots(a, fund)) == {(1, 0), (0, 1), (1, 1)}
    adj = by_rays[frozenset({(1, 0), (1, -1)})]
    assert set(positive_roots(a, adj)) == {(1, 0), (0, -1), (1, 1)}
    a11 = make_arrangement(2, [(1, 0), (0, 1)])
    for k in enumerate_chambers(a11):
        assert len(positive_roots(a11, k)) == 2


def test_is_crystallographic_catalog():
    assert is_crystallographic(catalog("A_2")).verdict
    assert is_crystallographic(make_arrangement(1, [(1,)])).verdict
    for name in ("B_3", "C_3", "D_3", "A_3"):
        assert is_crystallographic(catalog(name)).verdict


def test_is_crystallographic_failure_witness():
    bad = make_arrangement(2, [(1, 0), (0, 1), (2, 1)])
    report = is_crystallographic(bad)
    assert not report.verdict
    chamber, root, coords = report.witness
    assert root in bad.positive_covectors
    assert any(abs(c) == Fraction(1, 2) for c in coords)


def test_is_crystallographic_matches_rational_solve_oracle():
    cases = [catalog(n) for n in ("A_2", "B_2", "C_2", "A_3", "B_3", "C_3", "D_3")]
    cases.append(make_arrangement(2, [(1, 0), (0, 1), (2, 1)]))
    for a in cases:
        expected = True
        for k in enumerate_chambers(a):
            basis = k.basis_covectors(a)
            for root in a.positive_covectors:
                coords = gauss_solve(basis, root)
                if any(c.denominator != 1 for c in coords):
                    expected = False
        assert is_crystallographic(a).verdict == expected


def test_coordinates_one_sided_for_crystallographic():
    # each covector's coordinate vector in any wall basis is >= 0 or <= 0 entrywise
    for name in ("A_2", "B_2", "A_3", "B_3", "C_3", "D_3"):
        a = catalog(name)
        for k in enumerate_chambers(a):
            binv = ref_mat_inverse_fraction(k.basis_covectors(a))
            for root in a.positive_covectors:
                coords = la.vec_mat(root, binv)
                assert all(c >= 0 for c in coords) or all(c <= 0 for c in coords)


def test_non_simplicial_rejected():
    a = make_arrangement(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 2, 3)])
    with pytest.raises(NotSimplicialError):
        enumerate_chambers(a)


def test_non_simplicial_chamber_found_by_the_walk():
    # the seed chamber (the positive orthant) is simplicial; the chamber
    # x, y > 0 > z, x + y + z > 0 behind one of its walls has four rays
    a = make_arrangement(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
    seed_rows = [la.vec_scale(s, c) for s, c in zip((1, 1, 1, 1), a.positive_covectors)]
    assert len(la.extreme_rays(seed_rows)) == 3
    with pytest.raises(NotSimplicialError):
        enumerate_chambers(a)
    with pytest.raises(NotSimplicialError):
        ref_enumerate_chambers(a)
    with pytest.raises(NotSimplicialError):
        is_crystallographic(a)


# Equality gate: the walk and the integer integrality test against the
# per-chamber double description and the Fraction-inverse test they replaced.
# The full ladder (also B_4, A_5 and every ngon:8/ngon:10 index) is too slow
# for the reference path here; these rungs cover every family.
@pytest.mark.parametrize(
    "name",
    ["A_2", "A_3", "A_4", "B_2", "B_3", "C_3", "D_4",
     "ngon:8:0", "ngon:8:77", "ngon:10:0", "ngon:10:1000"],
)
def test_walk_matches_reference_on_ladder(name):
    a = catalog(name)
    assert enumerate_chambers(a) == ref_enumerate_chambers(a)
    assert a.chambers == enumerate_chambers(a)
    assert is_crystallographic(a) == ref_is_crystallographic(a)


@pytest.mark.parametrize("name", ["A_4", "B_4", "D_4", "ngon:10:1000"])
def test_walk_records_share_their_rays_and_basis_pairs(name):
    """One tuple per distinct ray and at most one per (covector, side) pair."""
    a = catalog(name)
    rays = [x for k in a.chambers for x in k.rays]
    pairs = [p for k in a.chambers for p in k.basis]
    assert len({id(x) for x in rays}) == len(set(rays))
    assert len({id(p) for p in pairs}) <= 2 * a.n_hyperplanes


def _ngon_names(t):
    """About ten triangulation indices of the t-gon, every one up to t = 6."""
    from arrfan.surface import triangulations

    n = len(triangulations(t))
    return [f"ngon:{t}:{i}" for i in range(0, n, max(1, n // 10))]


@pytest.mark.parametrize(
    "names",
    [[f"{x}_{r}"] for x, rs in (("A", range(3, 8)), ("B", range(3, 7)), ("D", (4, 5)))
     for r in rs] + [_ngon_names(t) for t in range(3, 11)],
    ids=lambda names: names[0].rsplit(":", 1)[0],
)
def test_walk_seed_rays_match_the_former_double_description(names):
    """The walk's one double description, on its seed chamber's signed covectors."""
    for name in names:
        a = catalog(name)
        rows = [la.vec_scale(x, c) for x, c in zip(_seed_sign_vector(a), a.positive_covectors)]
        assert la.extreme_rays(rows) == ref_extreme_rays(rows), name


_NOT_CRYSTALLOGRAPHIC = [
    (2, [(1, 0), (0, 1), (2, 1)]),
    (2, [(1, 0), (0, 1), (1, 2)]),
    (2, [(1, 0), (0, 1), (1, 1), (1, 3)]),
    (3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 2)]),
]


@pytest.mark.parametrize("rank, covs", _NOT_CRYSTALLOGRAPHIC)
@pytest.mark.parametrize("seed", range(3))
def test_unit_diagonal_finds_the_reference_witness(rank, covs, seed):
    """Verdict and witness equal the Fraction-inverse reference's, also in other
    coordinates, where another chamber may be the first to fail."""
    u = la.identity(rank)
    rng = random.Random(seed)
    for _ in range(3 * seed):  # a random unimodular change of coordinates
        i, j = rng.sample(range(rank), 2)
        u = tuple(la.vec_add(row, la.vec_scale(rng.choice((-1, 1)), u[j])) if k == i else row
                  for k, row in enumerate(u))
    a = make_arrangement(rank, [la.canonical_sign(la.vec_mat(c, u)) for c in covs])
    report = is_crystallographic(a)
    assert not report.verdict
    assert report == ref_is_crystallographic(a)


def test_a_failing_diagonal_without_a_fractional_root_is_no_verdict():
    """A chamber record with a doubled ray has the diagonal entry 2, yet every
    coordinate beta(2r)/2 is integral: a corrupt record, never (False, None)."""
    a = catalog("A_3")
    k = a.chambers[4]
    rays = (la.vec_scale(2, k.rays[0]),) + k.rays[1:]
    vars(a)["chambers"] = a.chambers[:4] + (k._replace(rays=rays),) + a.chambers[5:]
    with pytest.raises(CertificationError, match="chamber 4 has wall-ray diagonal"):
        is_crystallographic(a)


@st.composite
def _small_arrangements(draw):
    """Random rank-2..4 arrangements with entries in [-2, 2], most not simplicial.

    The unit covectors are added only when the drawn ones do not span Z^r.
    """
    r = draw(st.integers(2, 4))
    drawn = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * r), min_size=1, max_size=7 - r))
    covs = {la.canonical_sign(la.primitive(v)) for v in drawn if any(v)}
    try:
        return make_arrangement(r, sorted(covs))
    except LatticeSpanError:
        return make_arrangement(r, sorted(covs | set(la.identity(r))))


def _chambers_or_not_simplicial(enumerate_, a):
    try:
        return enumerate_(a)
    except NotSimplicialError:
        return NotSimplicialError


@settings(max_examples=300, deadline=None, database=None)
@given(_small_arrangements())
def test_walk_matches_reference_on_random_arrangements(a):
    got = _chambers_or_not_simplicial(enumerate_chambers, a)
    assert got == _chambers_or_not_simplicial(ref_enumerate_chambers, a)
    if got is NotSimplicialError:
        return
    assert {k.sign_vector for k in got} == brute_chamber_signs(a.positive_covectors, a.rank)
    assert is_crystallographic(a) == ref_is_crystallographic(a)


def test_decompose():
    a11 = make_arrangement(2, [(1, 0), (0, 1)])
    factors, partition = decompose(a11)
    assert [f.rank for f in factors] == [1, 1]
    assert partition == ((0,), (1,))

    factors, partition = decompose(catalog("A_2"))
    assert len(factors) == 1 and factors[0] == catalog("A_2")

    b2 = catalog("B_2")
    padded = [c + (0,) for c in b2.positive_covectors] + [(0, 0, 1)]
    mixed = make_arrangement(3, padded)
    factors, partition = decompose(mixed)
    assert sorted(f.rank for f in factors) == [1, 2]
    assert sorted(len(p) for p in partition) == [1, 2]
    ranks = {f.rank: f for f in factors}
    # the induced coordinates may swap the two basis directions (B_2 <-> C_2 view)
    assert ranks[2] in (b2, catalog("C_2"))

    with pytest.raises(NotCrystallographicError):
        decompose(make_arrangement(2, [(1, 0), (0, 1), (2, 1)]))


def test_json_round_trip():
    a = catalog("B_3")
    import json

    assert load_arrangement(json.dumps(arrangement_to_json(a))) == a
