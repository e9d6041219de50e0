"""Session-wide inputs shared by the test modules."""
import pytest

from arrfan.arrangement import catalog
from arrfan.poset import intersection_poset, restricted_arrangement


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
