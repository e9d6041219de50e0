"""The commands that read an arrangement: `verify`, `catalog` (which reads a
name), `fan`, `polytope`, `poset`, `parabolic`, `insert`, `embed` and
`decompose`."""
from __future__ import annotations

import sys
from pathlib import Path

from ..errors import BadReferenceError, CertificationError, NotSimplicialError
from . import _emit, _parse_vector, _read, canonical_json


def cmd_verify(args, data: bytes) -> int:
    from ..arrangement import is_crystallographic, load_arrangement

    a = load_arrangement(data)
    try:
        report = is_crystallographic(a)
    except NotSimplicialError:
        _emit(args, data, {"simplicial": False, "crystallographic": None})
        return 11
    witnesses = {}
    if not report.verdict:
        chamber, root, coords = report.witness
        witnesses["chamber"] = chamber
        witnesses["root"] = list(root)
        witnesses["coordinates"] = [str(c) for c in coords]
    _emit(
        args,
        data,
        {"simplicial": True, "crystallographic": report.verdict},
        witnesses=witnesses,
    )
    return 0 if report.verdict else 10


def cmd_catalog(args, data: None):
    from ..arrangement import arrangement_to_json, catalog, load_arrangement

    name = args.name
    try:
        a = catalog(name)
    except BadReferenceError:
        path = args.sporadic_dir and Path(args.sporadic_dir) / f"{name}.json"
        if not (path and path.exists()):
            raise
        a = load_arrangement(_read(path))
    text = canonical_json(arrangement_to_json(a)) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        _emit(args, name.encode(), {"rank": a.rank, "hyperplanes": a.n_hyperplanes}, out=text)


def cmd_fan(args, data: bytes):
    from ..arrangement import load_arrangement
    from ..fan import fan_from_arrangement, fan_to_json

    a = load_arrangement(data)
    f = fan_from_arrangement(a)
    props = f.properties
    _emit(
        args,
        data,
        {
            "rays": len(f.rays),
            "max_cones": len(f.max_cones),
            "smooth": props.smooth,
            "complete": props.complete,
            "centrally_symmetric": props.centrally_symmetric,
            "strongly_symmetric": props.strongly_symmetric,
        },
        out=fan_to_json(f),
    )


def cmd_polytope(args, data: bytes):
    from ..arrangement import load_arrangement
    from ..fan import fan_from_arrangement
    from ..polytope import build_polytope, verify_normal_fan

    a = load_arrangement(data)
    p = build_polytope(a)
    ok = verify_normal_fan(p, fan_from_arrangement(a))
    if not ok:
        raise CertificationError("polytope normal directions do not match the fan")
    obj = {"rank": p.rank, "doubled_vertices": sorted([list(v) for v in p.doubled_vertices])}
    _emit(
        args,
        data,
        {"vertices": len(p.doubled_vertices), "normal_fan_verified": ok},
        out=obj,
    )


def cmd_poset(args, data: bytes):
    from ..arrangement import load_arrangement
    from ..poset import intersection_poset, poset_to_json

    a = load_arrangement(data)
    p = intersection_poset(a)
    _emit(args, data, {"flats": len(p.flats), "covers": len(p.cover_pairs)},
          out=poset_to_json(p))


def cmd_parabolic(args, data: bytes):
    from ..arrangement import arrangement_to_json, load_arrangement
    from ..poset import parabolic_arrangement

    a = load_arrangement(data)
    cone = _parse_vector(args.cone) if args.cone else ()
    pa = parabolic_arrangement(a, cone)
    _emit(args, data, {"rank": pa.rank, "hyperplanes": pa.n_hyperplanes},
          out=arrangement_to_json(pa))


def cmd_insert(args, data: bytes):
    from ..arrangement import load_arrangement
    from ..fan import fan_to_json
    from ..fanmaps import insert_hyperplane

    a = load_arrangement(data)
    h = _parse_vector(args.hyperplane)
    f, cert = insert_hyperplane(a, h)
    _emit(
        args,
        data,
        {"rays": len(f.rays), "max_cones": len(f.max_cones), "splits": len(cert.entries)},
        witnesses={"splits": [e._asdict() for e in cert.entries]},
        out=fan_to_json(f),
    )


def cmd_embed(args, data: bytes):
    from ..arrangement import load_arrangement
    from ..polytope import phi_certificate

    a = load_arrangement(data)
    cert = phi_certificate(a)
    obj = {
        "matrix": [list(r) for r in cert.matrix],
        "invariant_factors": list(cert.invariant_factors),
        "sign_vectors": cert.sign_vectors,
    }
    _emit(
        args,
        data,
        {
            "invariant_factors": list(cert.invariant_factors),
            "sign_vectors_distinct": True,
        },
        out=obj,
    )


def cmd_decompose(args, data: bytes):
    from ..arrangement import arrangement_to_json, decompose, load_arrangement

    a = load_arrangement(data)
    factors, partition = decompose(a)
    obj = {
        "factors": [arrangement_to_json(x) for x in factors],
        "partition": [list(p) for p in partition],
    }
    _emit(args, data, {"factors": len(factors)}, out=obj)
