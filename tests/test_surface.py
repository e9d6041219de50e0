import random

import pytest

from arrfan import intlinalg as la
from arrfan.arrangement import catalog, make_arrangement
from arrfan.errors import (
    CertificationError,
    DoesNotCloseError,
    NotSmoothError,
    OrientationError,
)
from arrfan.fan import check_properties, fan_from_arrangement, make_fan
from arrfan.surface import (
    CircularGraph,
    _end_ray_coordinates,
    _hilbert_middle_rays,
    circular_graph,
    desingularize,
    intersection_numbers,
    symmetrize,
    triangulation_to_weights,
    triangulations,
    verify_picard_presentation,
    verify_weight_identity,
    weights_to_fan,
    y_divisor_class,
)

from oracles import (
    brute_triangulation_count,
    catalan,
    equal_up_to_rotation,
    ref_hilbert_middle_rays,
    ref_solve_in_row_space,
)


def hirzebruch(a):
    return make_fan(
        2,
        [
            [(1, 0), (0, 1)],
            [(0, 1), (-1, a)],
            [(-1, a), (0, -1)],
            [(0, -1), (1, 0)],
        ],
    )


def quadrant_fan():
    return fan_from_arrangement(make_arrangement(2, [(1, 0), (0, 1)]))


def test_circular_graph_values():
    g = circular_graph(fan_from_arrangement(catalog("A_2")))
    assert g.weights == (-1, -1, -1, -1, -1, -1)
    assert circular_graph(quadrant_fan()).weights == (0, 0, 0, 0)
    tilde = desingularize(symmetrize(hirzebruch(2)))
    assert equal_up_to_rotation(
        circular_graph(tilde).weights, (-1, -2, -1, -2, -1, -2, -1, -2)
    )


def test_circular_graph_requires_smooth():
    with pytest.raises(NotSmoothError):
        circular_graph(symmetrize(hirzebruch(2)))


def test_weights_to_fan():
    assert weights_to_fan((-1,) * 6) == fan_from_arrangement(catalog("A_2"))
    assert weights_to_fan((0, 0, 0, 0)) == quadrant_fan()
    with pytest.raises(DoesNotCloseError):
        weights_to_fan((-1, -1, -1))
    with pytest.raises(DoesNotCloseError):
        weights_to_fan((0, 0))
    with pytest.raises(OrientationError):
        weights_to_fan((-1,) * 12)  # closes after winding twice


def test_weight_identities():
    assert verify_weight_identity((-1,) * 6, "full")
    assert verify_weight_identity((-1, -2, -1, -2), "half")
    assert verify_weight_identity((0, 0), "half")
    assert verify_weight_identity((-1, -1, -1), "half")
    assert not verify_weight_identity((0, 0, 0), "full")
    assert not verify_weight_identity((0, 0, 0, 0), "half")
    with pytest.raises(ValueError):
        verify_weight_identity((0, 0), "both")


def test_triangulations_counts_and_weights():
    assert triangulations(3) == ((),)
    assert triangulation_to_weights(3, ()) == (-1, -1, -1)
    t4 = triangulations(4)
    assert len(t4) == 2
    w4 = {triangulation_to_weights(4, d) for d in t4}
    assert w4 == {(-1, -2, -1, -2), (-2, -1, -2, -1)}
    assert len(triangulations(6)) == 14
    for t in range(3, 9):
        tris = triangulations(t)
        assert len(tris) == catalan(t - 2)
        assert len(tris) == brute_triangulation_count(t)
        for diag in tris:
            assert verify_weight_identity(triangulation_to_weights(t, diag), "half")
    with pytest.raises(ValueError):
        triangulations(2)


def test_round_trip_doubled_triangulation_weights():
    for t in range(3, 11):
        for diag in triangulations(t):
            half = triangulation_to_weights(t, diag)
            w = half + half
            assert verify_weight_identity(w, "full")
            g = circular_graph(weights_to_fan(w))
            assert equal_up_to_rotation(g.weights, w)


def test_symmetrize():
    sym = symmetrize(
        make_fan(2, [[(1, 0), (0, 1)], [(0, 1), (-1, -1)], [(-1, -1), (1, 0)]])
    )
    assert set(sym.rays) == {(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)}
    props = check_properties(sym)
    assert props.smooth and props.strongly_symmetric
    assert circular_graph(sym).weights == (-1,) * 6

    sym2 = symmetrize(hirzebruch(2))
    assert set(sym2.rays) == {(1, 0), (0, 1), (-1, 2), (-1, 0), (0, -1), (1, -2)}
    assert not check_properties(sym2).smooth

    a2fan = fan_from_arrangement(catalog("A_2"))
    assert symmetrize(a2fan) == a2fan


def test_desingularize():
    tilde2 = desingularize(symmetrize(hirzebruch(2)))
    assert len(tilde2.rays) == 8
    assert {(1, -1), (-1, 1)} <= set(tilde2.rays)

    tilde3 = desingularize(symmetrize(hirzebruch(3)))
    assert len(tilde3.rays) == 10
    assert {(1, -1), (1, -2), (-1, 1), (-1, 2)} <= set(tilde3.rays)

    smooth = fan_from_arrangement(catalog("B_2"))
    assert desingularize(smooth) == smooth


def test_hilbert_middle_rays_match_the_parallelogram_search():
    # random primitive cones of determinant up to 40, both orientations
    rng = random.Random(12)
    seen = 0
    while seen < 600:
        u, w = (tuple(rng.randint(-9, 9) for _ in range(2)) for _ in range(2))
        d = u[0] * w[1] - u[1] * w[0]
        if not (u != (0, 0) != w and la.primitive(u) == u and la.primitive(w) == w):
            continue
        if 0 < d <= 40:
            seen += 1
            assert _hilbert_middle_rays(u, w) == ref_hilbert_middle_rays(u, w), (u, w)
        elif d <= 0:
            for rays in (_hilbert_middle_rays, ref_hilbert_middle_rays):
                with pytest.raises(CertificationError):
                    rays(u, w)


def test_desingularize_symmetrize_always_strongly_symmetric():
    bases = [
        make_fan(2, [[(1, 0), (0, 1)], [(0, 1), (-1, -1)], [(-1, -1), (1, 0)]]),
        quadrant_fan(),
        hirzebruch(2),
        hirzebruch(3),
        hirzebruch(5),
        weights_to_fan((-1, -1, -1, 0, 0)),
    ]
    for f in bases:
        out = desingularize(symmetrize(f))
        props = check_properties(out)
        assert props.smooth and props.complete
        assert props.centrally_symmetric and props.strongly_symmetric


def test_centrally_symmetric_weights_repeat():
    for t in range(3, 8):
        for diag in triangulations(t):
            half = triangulation_to_weights(t, diag)
            g = circular_graph(weights_to_fan(half + half))
            s = len(g.weights)
            assert s % 2 == 0
            tt = s // 2
            assert g.weights[:tt] == g.weights[tt:]
            assert tuple(la.vec_neg(v) for v in g.rays[:tt]) == g.rays[tt:]


def test_intersection_numbers():
    g = circular_graph(fan_from_arrangement(catalog("A_2")))
    m = intersection_numbers(g)
    assert all(m[i][i] == -1 for i in range(6))
    assert all(sum(row) == g.weights[i] + 2 for i, row in enumerate(m))
    gq = circular_graph(quadrant_fan())
    mq = intersection_numbers(gq)
    assert all(mq[i][i] == 0 for i in range(4))
    assert mq[0][1] == mq[1][0] == 1 and mq[0][2] == 0


def test_y_divisor_class_a2():
    g = circular_graph(fan_from_arrangement(catalog("A_2")))
    cls, self_int = y_divisor_class(g)
    assert self_int == 0
    assert cls.coefficients == (0, 1, 1, 0, 0, 0)  # Y1 ~ D2 + D3


def test_y_divisor_class_b2_basepoint():
    # the (-2, -1, ...) ordering: rays (1,0), (0,1), (-1,1), (-2,1) and negatives
    rays = ((1, 0), (0, 1), (-1, 1), (-2, 1), (-1, 0), (0, -1), (1, -1), (2, -1))
    weights = (-2, -1, -2, -1, -2, -1, -2, -1)
    g = CircularGraph(weights=weights, rays=rays)
    cls, self_int = y_divisor_class(g)
    assert self_int == 0
    assert cls.coefficients == (0, 1, 1, 1, 0, 0, 0, 0)  # Y1 ~ D2 + D3 + D4


def test_y_divisor_class_degenerate():
    with pytest.raises(ValueError):
        y_divisor_class(circular_graph(quadrant_fan()))


def test_picard_presentation():
    g = circular_graph(fan_from_arrangement(catalog("A_2")))
    assert verify_picard_presentation(g)
    assert len(g.weights) - 2 == 4  # Picard rank
    gb = circular_graph(fan_from_arrangement(catalog("B_2")))
    assert verify_picard_presentation(gb)
    assert len(gb.weights) - 2 == 6
    with pytest.raises(ValueError):
        verify_picard_presentation(circular_graph(quadrant_fan()))


def test_circular_graph_validation():
    with pytest.raises(DoesNotCloseError):
        CircularGraph(weights=(0,), rays=((1, 0),))
    with pytest.raises(DoesNotCloseError):
        CircularGraph(weights=(0, 0, 0, 0), rays=((1, 0), (0, 1), (-1, 0), (0, -2)))
    with pytest.raises(OrientationError):  # the square, clockwise
        CircularGraph(weights=(0, 0, 0, 0), rays=((1, 0), (0, -1), (-1, 0), (0, 1)))


def test_end_ray_coordinates_match_the_row_space_solve():
    # Cramer's rule in the basis (n_1, n_t) against rational elimination, on
    # the centrally symmetric graph of every ngon:t:i with t <= 10
    for t in range(3, 11):
        for diag in triangulations(t):
            half = triangulation_to_weights(t, diag)
            g = circular_graph(weights_to_fan(half + half))
            basis = (g.rays[0], g.rays[t - 1])
            solved = tuple(ref_solve_in_row_space(basis, v) for v in g.rays[:t])
            assert _end_ray_coordinates(g, t) == solved
