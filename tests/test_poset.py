import functools
import itertools

import pytest
from hypothesis import given, settings

from arrfan import intlinalg as la, poset
from arrfan.arrangement import Arrangement, catalog, is_crystallographic, make_arrangement
from arrfan.errors import (
    BadReferenceError,
    CertificationError,
    NotCrystallographicError,
    NotSimplicialError,
)
from arrfan.fan import fan_faces, fan_from_arrangement, quotient_data, roots_from_fan, star_fan
from arrfan.poset import (
    FlatSubspace,
    flat_from_constraints,
    flat_from_generators,
    intersection_poset,
    parabolic_arrangement,
    poset_to_json,
    restricted_arrangement,
    toric_arrangement_report,
)

from oracles import (
    catalan,
    ref_flat_intersection,
    ref_flat_leq,
    ref_intersection_poset,
    ref_toric_arrangement_report,
)
from test_arrangement import _small_arrangements

LADDER = ("A_2", "A_3", "A_4", "B_2", "B_3", "B_4", "C_3", "D_4")


def brute_flats(a):
    """All flats by raw subset enumeration (dedup by canonical kernel basis)."""
    out = {flat_from_constraints(a.rank, ()).basis}
    covs = a.positive_covectors
    for k in range(1, len(covs) + 1):
        for subset in itertools.combinations(covs, k):
            out.add(flat_from_constraints(a.rank, subset).basis)
    return out


def test_intersection_poset_counts():
    p = intersection_poset(catalog("A_2"))
    assert len(p.flats) == 5
    assert sorted(f.dim for f in p.flats) == [0, 1, 1, 1, 2]

    r1 = intersection_poset(make_arrangement(1, [(1,)]))
    assert [f.dim for f in r1.flats] == [0, 1]

    p3 = intersection_poset(catalog("A_3"))
    assert len(p3.flats) == 15  # flats of the rank-3 braid arrangement


def test_intersection_poset_matches_brute_force():
    for name in ("A_2", "B_2", "A_3", "B_3"):
        a = catalog(name)
        assert {f.basis for f in intersection_poset(a).flats} == brute_flats(a)


@pytest.mark.parametrize("name", LADDER + ("ngon:8:77", "ngon:10:1000"))
def test_poset_matches_reference_on_ladder(name):
    a = catalog(name)
    assert intersection_poset(a) == ref_intersection_poset(a)


@settings(max_examples=300, deadline=None, database=None)
@given(_small_arrangements())
def test_poset_matches_reference_on_random_arrangements(a):
    assert intersection_poset(a) == ref_intersection_poset(a)


def _zaslavsky_count(p):
    """Sum over flats X of |mu(V, X)|, with the order read off the cover pairs alone."""
    up = {i: set() for i in range(len(p.flats))}
    for i, j in p.cover_pairs:
        up[i].add(j)

    @functools.cache
    def above(i):  # every flat strictly containing flats[i]
        return frozenset(up[i]).union(*(above(j) for j in up[i]))

    @functools.cache
    def mu(i):
        return 1 if not above(i) else -sum(mu(j) for j in above(i))

    return sum(abs(mu(i)) for i in range(len(p.flats)))


def test_zaslavsky_count_from_covers():
    ngons = [f"ngon:{t}:{k}" for t in range(3, 9) for k in range(catalan(t - 2))]
    for name in LADDER + tuple(ngons):
        a = catalog(name)
        assert _zaslavsky_count(intersection_poset(a)) == len(a.chambers), name
    # the larger rungs, with their flat counts (A_6, A_7: the Bell numbers B_7, B_8)
    for name, flats in (("D_5", 403), ("B_5", 648), ("A_6", 877), ("A_7", 4140)):
        a = catalog(name)
        p = intersection_poset(a)
        assert len(p.flats) == flats, name
        assert _zaslavsky_count(p) == len(a.chambers), name


def test_poset_makes_one_elimination_per_flat(monkeypatch):
    # each flat below the whole space is one kernel; no flat is re-derived
    # from its basis and no pair of flats is compared
    import arrfan.poset

    calls = []

    def kernel_basis(rows, kernel=la.kernel_basis):
        calls.append(rows)
        return kernel(rows)

    def held(*args):
        raise AssertionError("intersection_poset reads H(X) off its own construction")

    a = catalog("D_4")
    monkeypatch.setattr(la, "kernel_basis", kernel_basis)
    monkeypatch.setattr(arrfan.poset, "_held", held)
    p = intersection_poset(a)
    assert len(calls) == len(p.flats) - 1
    monkeypatch.undo()
    assert p == ref_intersection_poset(a)


@pytest.mark.parametrize("name", LADDER + ("ngon:8:77", "ngon:10:1000"))
def test_cover_traces_are_the_restricted_arrangement(name):
    # the hyperplanes of A^X, read on X's basis rows, are the fan-side restriction
    a = catalog(name)
    for flat in intersection_poset(a).flats:
        if flat.dim == 0:
            continue
        traces = {
            la.canonical_sign(la.primitive([la.vec_dot(cov, row) for row in flat.basis]))
            for cov in a.positive_covectors
            if any(la.vec_dot(cov, row) for row in flat.basis)
        }
        assert tuple(sorted(traces)) == restricted_arrangement(a, flat).positive_covectors


def test_cover_relations():
    p = intersection_poset(catalog("A_2"))
    # zero flat covered by all three lines, lines covered by the whole space
    zero = next(i for i, f in enumerate(p.flats) if f.dim == 0)
    top = next(i for i, f in enumerate(p.flats) if f.dim == 2)
    lows = [c for c in p.cover_pairs if c[0] == zero]
    highs = [c for c in p.cover_pairs if c[1] == top]
    assert len(lows) == 3 and len(highs) == 3
    for i, j in p.cover_pairs:
        assert p.flats[i].dim + 1 == p.flats[j].dim
        assert ref_flat_leq(p.flats[i], p.flats[j])


def test_flat_algebra():
    e = flat_from_constraints(3, [(1, 0, 0)])
    f = flat_from_constraints(3, [(0, 1, 0)])
    cap = ref_flat_intersection(3, e, f)
    assert cap.dim == 1 and cap.basis == ((0, 0, 1),)
    assert ref_flat_leq(cap, e) and ref_flat_leq(cap, f)
    assert flat_from_generators(3, [(0, 0, 2)]).basis == ((0, 0, 1),)
    # flat bases are saturated: all-ones Smith form
    for flat in intersection_poset(catalog("B_3")).flats:
        if flat.dim:
            assert la.snf(flat.basis) == (1,) * flat.dim


def test_restricted_arrangement():
    a3 = catalog("A_3")
    full = flat_from_constraints(3, ())
    assert restricted_arrangement(a3, full) == a3

    poset = intersection_poset(a3)
    for flat in poset.flats:
        if flat.dim == 2:
            sub = restricted_arrangement(a3, flat)
            assert sub.rank == 2
            assert is_crystallographic(sub).verdict
            # count the distinct traces by brute pairwise intersection
            traces = set()
            for cov in a3.positive_covectors:
                if all(la.vec_dot(cov, row) == 0 for row in flat.basis):
                    continue
                cut = ref_flat_intersection(
                    3, flat, flat_from_constraints(3, [cov])
                )
                traces.add(cut.basis)
            assert len(traces) == len(sub.positive_covectors)

    b2 = catalog("B_2")
    line = flat_from_constraints(2, [(1, 0)])
    assert restricted_arrangement(b2, line).positive_covectors == ((1,),)

    with pytest.raises(BadReferenceError):
        restricted_arrangement(a3, flat_from_constraints(3, ((1, -1, 0),)))
    with pytest.raises(BadReferenceError):
        restricted_arrangement(b2, flat_from_constraints(2, ((1, 0), (0, 1))))


def test_restriction_requires_the_canonical_flat():
    a3 = catalog("A_3")
    plane = FlatSubspace(dim=2, basis=((0, 1, 0), (0, 0, 1)))
    assert restricted_arrangement(a3, plane).rank == 2
    for bad in (
        FlatSubspace(dim=2, basis=((0, 1, 0), (0, 1, 1))),  # same plane, other basis
        FlatSubspace(dim=1, basis=plane.basis),  # wrong dimension
        FlatSubspace(dim=2, basis=((1, 0, 0), (0, 1, 1))),  # not a flat
    ):
        with pytest.raises(BadReferenceError):
            restricted_arrangement(a3, bad)


def test_parabolic_arrangement():
    a3 = catalog("A_3")
    assert parabolic_arrangement(a3, ()) == a3

    f = fan_from_arrangement(a3)
    # the ray dual to the first simple covector in the fundamental chamber
    from arrfan.arrangement import enumerate_chambers

    k0 = enumerate_chambers(a3)[0]
    target = None
    for j, (i, s) in enumerate(k0.basis):
        if la.vec_scale(s, a3.positive_covectors[i]) == (1, 0, 0):
            target = k0.rays[j]
    idx = f.rays.index(target)
    pa = parabolic_arrangement(a3, (idx,))
    assert pa == catalog("A_2")

    a2 = catalog("A_2")
    f2 = fan_from_arrangement(a2)
    for i in range(len(f2.rays)):
        assert parabolic_arrangement(a2, (i,)).rank == 1

    with pytest.raises(BadReferenceError):
        parabolic_arrangement(a2, f2.max_cones[0])  # full-dimensional cone
    with pytest.raises(BadReferenceError):
        parabolic_arrangement(a2, (0, 5))


def test_parabolic_equals_star_side_everywhere():
    for name in ("A_3", "B_3"):
        a = catalog(name)
        f = fan_from_arrangement(a)
        for face in fan_faces(f):
            if 0 < len(face) < a.rank:
                # equality with the star fan's covectors is asserted inside
                pa = parabolic_arrangement(a, face)
                assert pa == roots_from_fan(star_fan(f, face))
                assert is_crystallographic(pa).verdict


def test_restriction_and_parabolic_closure_over_catalog():
    # every flat gives a crystallographic restriction, every proper cone a
    # crystallographic parabolic, across the low-rank catalog
    from arrfan.fan import restrict_fan
    from arrfan.fan import check_properties

    names = ["A_2", "B_2", "C_2", "D_2", "A_3", "B_3", "C_3", "D_3"]
    instances = [catalog(n) for n in names] + [catalog("ngon:5:0"), catalog("ngon:5:3")]
    for a in instances:
        f = fan_from_arrangement(a)
        for flat in intersection_poset(a).flats:
            if flat.dim == 0:
                continue
            sub = restricted_arrangement(a, flat)
            assert is_crystallographic(sub).verdict
            assert check_properties(restrict_fan(f, flat.basis)).strongly_symmetric
        for face in fan_faces(f):
            if 0 < len(face) < a.rank:
                assert is_crystallographic(parabolic_arrangement(a, face)).verdict


def test_poset_order_isomorphism_across_catalog():
    for name in ("A_2", "B_2", "C_2", "D_2", "A_3", "C_3", "D_3", "ngon:4:0", "ngon:5:1"):
        rep = toric_arrangement_report(catalog(name))
        assert "order-isomorphism" in rep.checks


@pytest.mark.parametrize("name", ["A_4", "D_4", "B_4"])
def test_toric_arrangement_report_rank_4(name):
    # faces with one span are projected through one quotient basis, so their
    # star fans compare equal even where each face's own basis differs
    a = catalog(name)
    flats = intersection_poset(a).flats
    rep = toric_arrangement_report(a)
    assert rep.checks == (
        "slice-vs-containment",
        "pairwise-intersections",
        "order-isomorphism",
        "stars-depend-on-span",
        "dimensions",
    )
    assert rep.flat_count == len(flats)
    assert rep.subfan_dims == tuple(f.dim for f in flats)


def test_toric_arrangement_report():
    rep = toric_arrangement_report(catalog("A_2"))
    assert rep.flat_count == 5
    assert rep.subfan_dims == (0, 1, 1, 1, 2)
    assert rep.subfan_sizes[0] == 1 and rep.subfan_sizes[-1] == 13
    assert "pairwise-intersections" in rep.checks

    rep11 = toric_arrangement_report(make_arrangement(2, [(1, 0), (0, 1)]))
    assert rep11.flat_count == 4

    rep3 = toric_arrangement_report(catalog("B_3"))
    assert rep3.flat_count == len(intersection_poset(catalog("B_3")).flats)

    with pytest.raises(NotCrystallographicError):
        toric_arrangement_report(make_arrangement(2, [(1, 0), (0, 1), (2, 1)]))


def test_toric_report_makes_one_elimination_per_flat(monkeypatch):
    # beyond the poset's own kernels, each flat is checked once against the
    # kernel of its hyperplanes, and no meet of two flats is eliminated
    calls = []

    def kernel_basis(rows, kernel=la.kernel_basis):
        calls.append(rows)
        return kernel(rows)

    a = catalog("D_4")
    flats = intersection_poset(a).flats
    monkeypatch.setattr(la, "kernel_basis", kernel_basis)
    toric_arrangement_report(a)
    assert len(calls) == (len(flats) - 1) + len(flats)


def test_toric_report_makes_one_subset_walk_per_chamber(monkeypatch):
    # every face is read off the walk over its chambers' ray subsets; no other
    # face enumeration runs
    calls = []

    def subset_zeros(self, gens, walk=Arrangement.subset_zeros):
        calls.append(gens)
        return walk(self, gens)

    a = catalog("D_4")
    monkeypatch.setattr(Arrangement, "subset_zeros", subset_zeros)
    toric_arrangement_report(a)
    assert calls == [k.rays for k in a.chambers]


@pytest.mark.parametrize("name, at", [("A_3", 0), ("B_3", 5)])
def test_toric_report_rejects_a_chamber_cut_by_a_covector(name, at):
    # ray 0 moved to r_0 - r_1: wall b_1 is then negative on it and positive on
    # r_1, so it takes both signs on the chamber's rays, and (b) fails
    a = catalog(name)
    assert is_crystallographic(a).verdict  # cached before the record is corrupted
    k = a.chambers[at]
    rays = (la.vec_sub(k.rays[0], k.rays[1]),) + k.rays[1:]
    vars(a)["chambers"] = a.chambers[:at] + (k._replace(rays=rays),) + a.chambers[at + 1:]
    with pytest.raises(CertificationError, match="takes both signs"):
        toric_arrangement_report(a)
    with pytest.raises(CertificationError):
        ref_toric_arrangement_report(a)


@pytest.mark.parametrize("name, at", [("A_2", 0), ("A_3", 0), ("B_3", 5)])
def test_toric_report_rejects_a_face_of_the_wrong_dimension(name, at):
    # ray 1 replaced by 2 r_0 passes (b), and every face still spans a flat,
    # but the face {r_0, 2 r_0} spans a line; checked before any link is projected
    a = catalog(name)
    assert is_crystallographic(a).verdict  # cached before the record is corrupted
    k = a.chambers[at]
    rays = (k.rays[0], la.vec_scale(2, k.rays[0])) + k.rays[2:]
    vars(a)["chambers"] = a.chambers[:at] + (k._replace(rays=rays),) + a.chambers[at + 1:]
    for report in (toric_arrangement_report, ref_toric_arrangement_report):
        with pytest.raises(CertificationError, match="does not span a flat of its dimension"):
            report(a)


BELL = {2: 5, 3: 15, 4: 52, 5: 203, 6: 877}           # set partitions of r + 1
FUBINI = {2: 13, 3: 75, 4: 541, 5: 4683, 6: 47293}     # ordered set partitions of r + 1


@pytest.mark.parametrize("r", range(2, 7))
def test_toric_report_closed_forms_type_a(r):
    # flats of A_r are the set partitions of r + 1 coordinates and faces of its
    # fan the ordered ones; the whole space holds every face, the origin alone
    # holds one
    rep = toric_arrangement_report(catalog(f"A_{r}"))
    assert rep.flat_count == BELL[r]
    assert rep.subfan_sizes[0] == 1
    assert rep.subfan_sizes[-1] == FUBINI[r]


@pytest.mark.parametrize("name, flats", [("D_5", 403), ("B_5", 648)])
def test_toric_report_closed_forms_rank_5(name, flats):
    a = catalog(name)
    rep = toric_arrangement_report(a)
    assert rep.flat_count == flats
    assert rep.subfan_sizes[0] == 1
    assert rep.subfan_sizes[-1] == len(fan_faces(fan_from_arrangement(a)))


@pytest.mark.parametrize("name", LADDER + ("ngon:8:77", "ngon:10:1000"))
def test_toric_arrangement_report_matches_reference(name):
    a = catalog(name)
    assert toric_arrangement_report(a) == ref_toric_arrangement_report(a)


def _report_or_error(report, a):
    try:
        return report(a)
    except (NotSimplicialError, NotCrystallographicError) as e:
        return type(e)


@settings(max_examples=200, deadline=None, database=None)
@given(_small_arrangements())
def test_toric_arrangement_report_matches_reference_on_random_arrangements(a):
    got = _report_or_error(toric_arrangement_report, a)
    assert got == _report_or_error(ref_toric_arrangement_report, a)


def _both_reject(a):
    for report in (toric_arrangement_report, ref_toric_arrangement_report):
        with pytest.raises(CertificationError):
            report(a)


@pytest.mark.parametrize("name", ["A_3", "B_3"])
@pytest.mark.parametrize("position", [0, 7, -1])
def test_toric_report_rejects_a_dropped_flat(monkeypatch, name, position):
    def dropped(a):
        p = intersection_poset(a)
        return p._replace(flats=p.flats[:position] + p.flats[position:][1:])

    monkeypatch.setattr(poset, "intersection_poset", dropped)
    _both_reject(catalog(name))


@pytest.mark.parametrize("name", ["A_3", "B_3"])
def test_toric_report_rejects_another_flat_basis(monkeypatch, name):
    # the rows of one plane flat replaced by another basis of its lattice
    def rebased(a):
        p = intersection_poset(a)
        k = next(i for i, flat in enumerate(p.flats) if flat.dim == 2)
        b0, b1 = p.flats[k].basis
        flat = FlatSubspace(dim=2, basis=(la.vec_add(b0, b1), b1))
        return p._replace(flats=p.flats[:k] + (flat,) + p.flats[k + 1:])

    monkeypatch.setattr(poset, "intersection_poset", rebased)
    _both_reject(catalog(name))


@pytest.mark.parametrize("name", ["A_3", "B_3"])
def test_toric_report_rejects_a_false_cover(monkeypatch, name):
    # one cover pair redirected to a flat of the same dimension that does not
    # contain the lower flat; only the cover check reads the cover pairs
    def redirected(a):
        p = intersection_poset(a)
        at = next(k for k, (low, _) in enumerate(p.cover_pairs) if p.flats[low].dim == 1)
        low, high = p.cover_pairs[at]
        other = next(k for k, flat in enumerate(p.flats)
                     if flat.dim == p.flats[high].dim and not ref_flat_leq(p.flats[low], flat))
        covers = p.cover_pairs[:at] + ((low, other),) + p.cover_pairs[at + 1:]
        return p._replace(cover_pairs=covers)

    monkeypatch.setattr(poset, "intersection_poset", redirected)
    with pytest.raises(CertificationError, match="does not mirror flat order"):
        toric_arrangement_report(catalog(name))


@pytest.mark.parametrize("name", ["A_3", "B_3", "A_4"])
def test_toric_report_rejects_stars_in_different_bases(monkeypatch, name):
    # a ray is projected through a sheared quotient basis when it is
    # lexicographically negative, so faces of one span, such as v and -v,
    # see their stars in different bases
    def sheared(gens, rank):
        kappa, lifts, d = quotient_data(gens, rank)

        def project(x):
            y = kappa(x)
            return (y[0] + y[1],) + y[1:] if len(y) > 1 and x < la.vec_neg(x) else y

        return project, lifts, d

    import arrfan.fan

    monkeypatch.setattr(arrfan.fan, "quotient_data", sheared)
    _both_reject(catalog(name))


def test_poset_json():
    p = intersection_poset(catalog("A_2"))
    obj = poset_to_json(p)
    assert len(obj["flats"]) == 5
    assert all(set(f) == {"dim", "basis"} for f in obj["flats"])
    assert len(obj["cover_pairs"]) == 6
