"""Session-wide inputs shared by the test modules."""
import pytest

from arrfan.arrangement import catalog
from arrfan.fan import fan_faces, fan_from_arrangement
from arrfan.poset import _held, intersection_poset, parabolic_arrangement, restricted_arrangement


@pytest.fixture(scope="session")
def restriction_corpus():
    """The distinct restrictions A^X of B_4, C_4, D_4, D_5 and A_5 to their
    flats of dimension 2 to rank - 1, told apart by their sorted covectors:
    crystallographic inputs beyond Weyl type, as restrictions of
    crystallographic arrangements are crystallographic (Cuntz, *Bull. LMS*
    43, 2011)."""
    members = {}
    for name in ("B_4", "C_4", "D_4", "D_5", "A_5"):
        a = catalog(name)
        for flat in intersection_poset(a).flats:
            if 2 <= flat.dim < a.rank:
                sub = restricted_arrangement(a, flat)
                members.setdefault(sub.positive_covectors, sub)
    return tuple(members.values())


@pytest.fixture(scope="session")
def parabolic_corpus():
    """The distinct parabolic arrangements of rank 2 to rank - 1 of B_4, C_4,
    D_4, D_5 and A_5, one face of the chamber fan per flat it spans (told
    apart by H of the span), the results told apart by their sorted
    covectors; each as (arrangement, face, parabolic)."""
    members = {}
    for name in ("B_4", "C_4", "D_4", "D_5", "A_5"):
        a = catalog(name)
        f = fan_from_arrangement(a)
        spans = set()
        for face in fan_faces(f):
            if 0 < len(face) <= a.rank - 2 and (held := _held(a, f.cone_vectors(face))) not in spans:
                spans.add(held)
                p = parabolic_arrangement(a, face)
                members.setdefault(p.positive_covectors, (a, face, p))
    return tuple(members.values())
