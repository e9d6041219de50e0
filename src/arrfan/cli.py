"""Command-line front end.

Every command runs through one pipeline in `main`: read the input file, run
the command, write its document to --out, print one canonical
(byte-reproducible) JSON report line on stdout, and signal the verdict
through the exit code, 0 on success and otherwise looked up in `_EXIT_CODES`.
Timing goes to stderr so stdout stays byte-identical across runs.

Each command imports the library modules it uses when it runs, so a process
loads and compiles only those: `catalog` and `verify` need `arrangement` and
`intlinalg`, the fan commands add `fan`, `poset` adds only `poset`, and so on.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

from .errors import (
    ArrfanError,
    BadReferenceError,
    CertificationError,
    InputFormatError,
    MalformedFanError,
    NotSimplicialError,
    UnsupportedRankError,
)

# Every other ArrfanError, and ValueError, exits 10: a required mathematical
# property fails (integrality, smoothness, symmetry, closure, lattice span).
_EXIT_CODES = {
    InputFormatError: 2,  # parse or format error in the input
    MalformedFanError: 2,
    BadReferenceError: 3,  # no such cone, flat, catalog name, ...
    UnsupportedRankError: 4,  # unsupported rank for the command
    NotSimplicialError: 11,  # the arrangement is not simplicial
}


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _emit(args, data: bytes, verdicts: dict, out=None, witnesses=None) -> None:
    """Write `out` to --out, if both are given, and print the report line.

    `out` is a JSON document, written canonically with a final newline, or
    text (the SVG of `plot`), written as is.
    """
    outputs = {}
    if out is not None and args.out is not None:
        text = out if isinstance(out, str) else canonical_json(out) + "\n"
        Path(args.out).write_text(text, encoding="utf-8")
        outputs = {"out": args.out}
    report = {
        "command": args.report,
        "input_digest": "sha256:" + hashlib.sha256(data).hexdigest(),
        "verdicts": verdicts,
        "witnesses": witnesses or {},
        "outputs": outputs,
    }
    sys.stdout.write(canonical_json(report) + "\n")


def _read(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as e:
        raise InputFormatError(f"cannot read {path}: {e}") from e


def _parse_vector(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as e:
        raise InputFormatError(f"bad vector {text!r}") from e


def _parse_rows(text: str) -> tuple[tuple[int, ...], ...]:
    try:
        rows = json.loads(text)
        return tuple(tuple(int(x) for x in row) for row in rows)
    except (json.JSONDecodeError, TypeError, ValueError, RecursionError) as e:
        raise InputFormatError(f"bad row list {text!r}") from e


def _load_any(data: bytes):
    """Sniff a JSON input: arrangement, fan, or weights."""
    from .arrangement import _arrangement_from_json, _parse_json

    obj = _parse_json(data)
    if not isinstance(obj, dict):
        raise InputFormatError("expected a JSON object")
    if "positive_covectors" in obj:
        return _arrangement_from_json(obj)
    if "max_cones" in obj:
        from .fan import _fan_from_json

        return _fan_from_json(obj)
    if "weights" in obj:
        w = obj["weights"]
        if not isinstance(w, list) or any(
            not isinstance(x, int) or isinstance(x, bool) for x in w
        ):
            raise InputFormatError("'weights' must be a list of integers")
        from .surface import weights_to_fan

        return weights_to_fan(w)
    raise InputFormatError("unrecognized input format")


def _fan_input(data: bytes):
    from .arrangement import Arrangement
    from .fan import fan_from_arrangement

    obj = _load_any(data)
    if isinstance(obj, Arrangement):
        return fan_from_arrangement(obj)
    return obj


def _surface_input(data: bytes):
    f = _fan_input(data)
    if f.rank != 2:
        raise UnsupportedRankError(f"surface commands require rank 2, got {f.rank}")
    return f


def cmd_verify(args, data: bytes) -> int:
    from .arrangement import is_crystallographic, load_arrangement

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
    from .arrangement import arrangement_to_json, catalog, load_arrangement

    name = args.name
    try:
        a = catalog(name)
    except BadReferenceError:
        path = args.sporadic_dir and Path(args.sporadic_dir) / f"{name}.json"
        if not (path and path.exists()):
            raise
        a = load_arrangement(path.read_bytes())
    text = canonical_json(arrangement_to_json(a)) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        _emit(args, name.encode(), {"rank": a.rank, "hyperplanes": a.n_hyperplanes}, out=text)


def cmd_fan(args, data: bytes):
    from .arrangement import load_arrangement
    from .fan import fan_from_arrangement, fan_to_json

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


def cmd_roots(args, data: bytes):
    from .arrangement import arrangement_to_json
    from .fan import load_fan, roots_from_fan

    f = load_fan(data)
    a = roots_from_fan(f)
    _emit(args, data, {"rank": a.rank, "hyperplanes": a.n_hyperplanes},
          out=arrangement_to_json(a))


def cmd_polytope(args, data: bytes):
    from .arrangement import load_arrangement
    from .fan import fan_from_arrangement
    from .polytope import build_polytope, verify_normal_fan

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


def cmd_star(args, data: bytes):
    from .fan import fan_to_json, star_fan

    f = _fan_input(data)
    cone = _parse_vector(args.cone) if args.cone else ()
    st = star_fan(f, cone)
    props = st.properties
    _emit(
        args,
        data,
        {
            "rank": st.rank,
            "rays": len(st.rays),
            "max_cones": len(st.max_cones),
            "strongly_symmetric": props.strongly_symmetric,
        },
        out=fan_to_json(st),
    )


def cmd_restrict(args, data: bytes):
    from .fan import fan_to_json, restrict_fan

    f = _fan_input(data)
    rows = _parse_rows(args.subspace)
    sub = restrict_fan(f, rows)
    props = sub.properties
    _emit(
        args,
        data,
        {
            "rank": sub.rank,
            "rays": len(sub.rays),
            "smooth": props.smooth,
            "strongly_symmetric": props.strongly_symmetric,
        },
        out=fan_to_json(sub),
    )


def cmd_poset(args, data: bytes):
    from .arrangement import load_arrangement
    from .poset import intersection_poset, poset_to_json

    a = load_arrangement(data)
    p = intersection_poset(a)
    _emit(args, data, {"flats": len(p.flats), "covers": len(p.cover_pairs)},
          out=poset_to_json(p))


def cmd_parabolic(args, data: bytes):
    from .arrangement import arrangement_to_json, load_arrangement
    from .poset import parabolic_arrangement

    a = load_arrangement(data)
    cone = _parse_vector(args.cone) if args.cone else ()
    pa = parabolic_arrangement(a, cone)
    _emit(args, data, {"rank": pa.rank, "hyperplanes": pa.n_hyperplanes},
          out=arrangement_to_json(pa))


def cmd_insert(args, data: bytes):
    from .arrangement import load_arrangement
    from .fan import fan_to_json, insert_hyperplane

    a = load_arrangement(data)
    h = _parse_vector(args.hyperplane)
    f, cert = insert_hyperplane(a, h)
    _emit(
        args,
        data,
        {"rays": len(f.rays), "max_cones": len(f.max_cones), "splits": len(cert.entries)},
        witnesses={
            "splits": [
                {
                    "cone": [list(v) for v in e.cone],
                    "ray_a": list(e.ray_a),
                    "ray_b": list(e.ray_b),
                    "new_ray": list(e.new_ray),
                }
                for e in cert.entries
            ]
        },
        out=fan_to_json(f),
    )


def cmd_autos(args, data: bytes):
    from .fan import fan_automorphisms

    f = _fan_input(data)
    autos = fan_automorphisms(f)
    obj = {"order": len(autos), "matrices": [[list(r) for r in g] for g in autos]}
    _emit(args, data, {"order": len(autos)}, out=obj)


def cmd_embed(args, data: bytes):
    from .arrangement import load_arrangement
    from .polytope import phi_certificate

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
    from .arrangement import arrangement_to_json, decompose, load_arrangement

    a = load_arrangement(data)
    factors, partition = decompose(a)
    obj = {
        "factors": [arrangement_to_json(x) for x in factors],
        "partition": [list(p) for p in partition],
    }
    _emit(args, data, {"factors": len(factors)}, out=obj)


def cmd_surface_triangulations(args, data: None):
    from .surface import triangulation_to_weights, triangulations

    t = args.count
    tris = triangulations(t)
    listing = []
    for diag in tris:
        w = triangulation_to_weights(t, diag)
        listing.append({"diagonals": [list(d) for d in diag], "weights": list(w)})
    _emit(
        args,
        str(t).encode(),
        {"count": len(tris)},
        witnesses={"items": listing},
        out={"count": len(tris), "items": listing},
    )


def cmd_surface_graph(args, data: bytes):
    from .surface import circular_graph

    g = circular_graph(_surface_input(data))
    obj = {"weights": list(g.weights), "rays": [list(v) for v in g.rays]}
    _emit(args, data, {"weights": list(g.weights)}, out=obj)


def cmd_surface_from_weights(args, data: bytes):
    from .fan import fan_to_json

    f = _surface_input(data)
    _emit(args, data, {"rays": len(f.rays)}, out=fan_to_json(f))


def cmd_surface_symmetrize(args, data: bytes):
    from .fan import fan_to_json
    from .surface import symmetrize

    out_fan = symmetrize(_surface_input(data))
    _emit(args, data, {"rays": len(out_fan.rays), "smooth": out_fan.properties.smooth},
          out=fan_to_json(out_fan))


def cmd_surface_desingularize(args, data: bytes):
    from .fan import fan_to_json
    from .surface import desingularize

    out_fan = desingularize(_surface_input(data))
    _emit(args, data, {"rays": len(out_fan.rays)}, out=fan_to_json(out_fan))


def cmd_surface_divisor(args, data: bytes):
    from .surface import circular_graph, y_divisor_class

    cls, self_int = y_divisor_class(circular_graph(_surface_input(data)))
    terms = [f"D{i + 1}" if c == 1 else f"{c}*D{i + 1}"
             for i, c in enumerate(cls.coefficients) if c]
    text = f"Y1 ~ {' + '.join(terms) or '0'}, Y1^2 = {self_int}"
    _emit(args, data, {"formula": text, "self_intersection": self_int},
          out={"coefficients": list(cls.coefficients), "self_intersection": self_int})


def cmd_surface_picard(args, data: bytes):
    from .surface import circular_graph, verify_picard_presentation

    g = circular_graph(_surface_input(data))
    ok = verify_picard_presentation(g)
    _emit(args, data, {"verified": ok, "picard_rank": len(g.weights) - 2})


def cmd_plot(args, data: bytes):
    from . import svgplot
    from .arrangement import Arrangement

    obj = _load_any(data)
    if isinstance(obj, Arrangement):
        if obj.rank == 2:
            svg = svgplot.render_rank2_arrangement(obj)
        elif obj.rank == 3:
            svg = svgplot.render_rank3_arrangement(obj)
        else:
            raise UnsupportedRankError(f"plot supports rank 2 and 3, got {obj.rank}")
    else:
        if obj.rank != 2:
            raise UnsupportedRankError(f"fan plots support rank 2 only, got {obj.rank}")
        from .surface import circular_graph

        labels = None
        try:
            g = circular_graph(obj)
            labels = {ray: str(w) for ray, w in zip(g.rays, g.weights)}
        except ArrfanError:
            pass
        svg = svgplot.render_fan(obj, labels)
    if args.out is None:
        sys.stdout.write(svg)
    else:
        _emit(args, data, {"format": "svg"}, out=svg)


def _polygon_size(text: str) -> int:
    from .arrangement import MAX_TRIANGULATION_T

    try:
        t = int(text)
    except ValueError:
        t = 0
    if not 3 <= t <= MAX_TRIANGULATION_T:
        raise argparse.ArgumentTypeError(f"must be an integer from 3 to {MAX_TRIANGULATION_T}")
    return t


def build_parser() -> argparse.ArgumentParser:
    from .arrangement import MAX_TRIANGULATION_T

    parser = argparse.ArgumentParser(
        prog="arrfan",
        description="Exact computations with integer hyperplane arrangements and their fans.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    # `report` names the command in the report line; `name` is catalog's argument
    def add(group, name, func, *, report=None, path=True, out=True):
        p = group.add_parser(name)
        if path:
            p.add_argument("path")
        if out:
            p.add_argument("--out")
        p.set_defaults(func=func, report=report or name)
        return p

    add(subs, "verify", cmd_verify, out=False)
    p = add(subs, "catalog", cmd_catalog, path=False)
    p.add_argument("name")
    p.add_argument("--sporadic-dir")
    add(subs, "fan", cmd_fan)
    add(subs, "roots", cmd_roots)
    add(subs, "polytope", cmd_polytope)
    p = add(subs, "star", cmd_star)
    p.add_argument("--cone", required=True, help="comma-separated ray indices")
    p = add(subs, "restrict", cmd_restrict)
    p.add_argument("--subspace", required=True, help="JSON row list, e.g. [[1,0,0],[0,1,0]]")
    add(subs, "poset", cmd_poset)
    p = add(subs, "parabolic", cmd_parabolic)
    p.add_argument("--cone", required=True, help="comma-separated ray indices")
    p = add(subs, "insert", cmd_insert)
    p.add_argument("--hyperplane", required=True, help="comma-separated covector")
    add(subs, "autos", cmd_autos)
    add(subs, "embed", cmd_embed)
    add(subs, "decompose", cmd_decompose)

    surface = subs.add_parser("surface")
    ssubs = surface.add_subparsers(dest="surface_command", required=True)
    for name, func in (
        ("graph", cmd_surface_graph),
        ("from-weights", cmd_surface_from_weights),
        ("symmetrize", cmd_surface_symmetrize),
        ("desingularize", cmd_surface_desingularize),
        ("divisor", cmd_surface_divisor),
    ):
        add(ssubs, name, func, report=f"surface.{name}")
    add(ssubs, "picard", cmd_surface_picard, report="surface.picard", out=False)
    # --count before --out, as the usage line lists them
    p = add(ssubs, "triangulations", cmd_surface_triangulations,
            report="surface.triangulations", path=False, out=False)
    p.add_argument("--count", type=_polygon_size, required=True,
                   help=f"polygon size t, 3 <= t <= {MAX_TRIANGULATION_T}")
    p.add_argument("--out")

    add(subs, "plot", cmd_plot)
    return parser


def main(argv=None) -> int:
    # elapsed covers all of main: building the parser, loading the modules
    # the command imports (from source when no bytecode is cached) and the work
    start = time.monotonic()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        data = _read(args.path) if "path" in args else None
        # a command returns its exit code when it is not 0
        code = args.func(args, data) or 0
    except (ArrfanError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        code = _EXIT_CODES.get(type(e), 10)
    finally:
        elapsed = (time.monotonic() - start) * 1000.0
        print(f"# elapsed_ms={elapsed:.1f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
