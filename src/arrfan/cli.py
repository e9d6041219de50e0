"""Command-line front end.

Every command reads JSON files, prints one canonical (byte-reproducible)
JSON report line on stdout, writes requested outputs via --out, and signals
its verdict through the exit code:

    0   success
    2   parse or format error in the input
    3   a referenced object does not exist (cone, flat, catalog name, ...)
    4   unsupported rank for the command
    10  a required mathematical property fails (integrality, smoothness,
        symmetry, closure, lattice span)
    11  the arrangement is not simplicial

Timing goes to stderr so stdout stays byte-identical across runs.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

from . import svgplot
from .arrangement import (
    Arrangement,
    arrangement_to_json,
    catalog,
    decompose,
    is_crystallographic,
    load_arrangement,
)
from .errors import (
    ArrfanError,
    BadReferenceError,
    CertificationError,
    DoesNotCloseError,
    InputFormatError,
    LatticeSpanError,
    MalformedFanError,
    NonPointedError,
    NotCompleteError,
    NotCrystallographicError,
    NotSimplicialError,
    NotSmoothError,
    NotStronglySymmetricError,
    OrientationError,
    UnsupportedRankError,
)
from .fan import (
    Fan,
    check_properties,
    fan_automorphisms,
    fan_from_arrangement,
    fan_to_json,
    insert_hyperplane,
    load_fan,
    restrict_fan,
    roots_from_fan,
    star_fan,
)
from .polytope import build_polytope, phi_certificate, verify_normal_fan
from .poset import (
    intersection_poset,
    parabolic_arrangement,
    poset_to_json,
)
from .surface import (
    MAX_TRIANGULATION_T,
    circular_graph,
    desingularize,
    symmetrize,
    triangulation_to_weights,
    triangulations,
    verify_picard_presentation,
    weights_to_fan,
    y_divisor_class,
)

_PARSE_ERRORS = (InputFormatError, MalformedFanError)
_REFERENCE_ERRORS = (BadReferenceError,)
_VERDICT_ERRORS = (
    LatticeSpanError,
    NotCrystallographicError,
    NotSmoothError,
    NotCompleteError,
    NotStronglySymmetricError,
    DoesNotCloseError,
    OrientationError,
    NonPointedError,
    CertificationError,
    ValueError,
)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _emit(command: str, data: bytes | None, verdicts: dict, witnesses=None, outputs=None):
    report = {
        "command": command,
        "input_digest": _digest(data) if data is not None else None,
        "verdicts": verdicts,
        "witnesses": witnesses or {},
        "outputs": outputs or {},
    }
    sys.stdout.write(canonical_json(report) + "\n")


def _read(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as e:
        raise InputFormatError(f"cannot read {path}: {e}") from e


def _write(path: str | None, text: str) -> dict:
    if path is None:
        return {}
    Path(path).write_text(text, encoding="utf-8")
    return {"out": path}


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
    try:
        obj = json.loads(data)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as e:
        raise InputFormatError(f"invalid JSON: {e}") from e
    if not isinstance(obj, dict):
        raise InputFormatError("expected a JSON object")
    if "positive_covectors" in obj:
        return load_arrangement(data)
    if "max_cones" in obj:
        return load_fan(data)
    if "weights" in obj:
        w = obj["weights"]
        if not isinstance(w, list) or any(
            not isinstance(x, int) or isinstance(x, bool) for x in w
        ):
            raise InputFormatError("'weights' must be a list of integers")
        return weights_to_fan(w)
    raise InputFormatError("unrecognized input format")


def _fan_input(data: bytes) -> Fan:
    obj = _load_any(data)
    if isinstance(obj, Arrangement):
        return fan_from_arrangement(obj)
    return obj


def cmd_verify(args) -> int:
    data = _read(args.path)
    a = load_arrangement(data)
    try:
        report = is_crystallographic(a)
    except NotSimplicialError:
        _emit("verify", data, {"simplicial": False, "crystallographic": None})
        return 11
    code = 0
    witnesses = {}
    if not report.verdict:
        chamber, root, coords = report.witness
        witnesses["chamber"] = chamber
        witnesses["root"] = list(root)
        witnesses["coordinates"] = [str(c) for c in coords]
        code = 10
    _emit(
        "verify",
        data,
        {"simplicial": True, "crystallographic": report.verdict},
        witnesses,
    )
    return code


def cmd_catalog(args) -> int:
    name = args.name
    try:
        a = catalog(name)
    except BadReferenceError:
        if args.sporadic_dir:
            path = Path(args.sporadic_dir) / f"{name}.json"
            if path.exists():
                a = load_arrangement(path.read_bytes())
            else:
                raise
        else:
            raise
    text = canonical_json(arrangement_to_json(a)) + "\n"
    outputs = _write(args.out, text)
    if not outputs:
        sys.stdout.write(text)
        return 0
    _emit("catalog", name.encode(), {"rank": a.rank, "hyperplanes": a.n_hyperplanes},
          outputs=outputs)
    return 0


def cmd_fan(args) -> int:
    data = _read(args.path)
    a = load_arrangement(data)
    f = fan_from_arrangement(a)
    props = check_properties(f)
    outputs = _write(args.out, canonical_json(fan_to_json(f)) + "\n")
    _emit(
        "fan",
        data,
        {
            "rays": len(f.rays),
            "max_cones": len(f.max_cones),
            "smooth": props.smooth,
            "complete": props.complete,
            "centrally_symmetric": props.centrally_symmetric,
            "strongly_symmetric": props.strongly_symmetric,
        },
        outputs=outputs,
    )
    return 0


def cmd_roots(args) -> int:
    data = _read(args.path)
    f = load_fan(data)
    a = roots_from_fan(f)
    outputs = _write(args.out, canonical_json(arrangement_to_json(a)) + "\n")
    _emit("roots", data, {"rank": a.rank, "hyperplanes": a.n_hyperplanes}, outputs=outputs)
    return 0


def cmd_polytope(args) -> int:
    data = _read(args.path)
    a = load_arrangement(data)
    p = build_polytope(a)
    ok = verify_normal_fan(p, fan_from_arrangement(a))
    if not ok:
        raise CertificationError("polytope normal directions do not match the fan")
    obj = {"rank": p.rank, "doubled_vertices": sorted([list(v) for v in p.doubled_vertices])}
    outputs = _write(args.out, canonical_json(obj) + "\n")
    _emit(
        "polytope",
        data,
        {"vertices": len(p.doubled_vertices), "normal_fan_verified": ok},
        outputs=outputs,
    )
    return 0


def cmd_star(args) -> int:
    data = _read(args.path)
    f = _fan_input(data)
    cone = _parse_vector(args.cone) if args.cone else ()
    st = star_fan(f, cone)
    props = check_properties(st)
    outputs = _write(args.out, canonical_json(fan_to_json(st)) + "\n")
    _emit(
        "star",
        data,
        {
            "rank": st.rank,
            "rays": len(st.rays),
            "max_cones": len(st.max_cones),
            "strongly_symmetric": props.strongly_symmetric,
        },
        outputs=outputs,
    )
    return 0


def cmd_restrict(args) -> int:
    data = _read(args.path)
    f = _fan_input(data)
    rows = _parse_rows(args.subspace)
    sub = restrict_fan(f, rows)
    props = check_properties(sub)
    outputs = _write(args.out, canonical_json(fan_to_json(sub)) + "\n")
    _emit(
        "restrict",
        data,
        {
            "rank": sub.rank,
            "rays": len(sub.rays),
            "smooth": props.smooth,
            "strongly_symmetric": props.strongly_symmetric,
        },
        outputs=outputs,
    )
    return 0


def cmd_poset(args) -> int:
    data = _read(args.path)
    a = load_arrangement(data)
    p = intersection_poset(a)
    outputs = _write(args.out, canonical_json(poset_to_json(p)) + "\n")
    _emit(
        "poset",
        data,
        {"flats": len(p.flats), "covers": len(p.cover_pairs)},
        outputs=outputs,
    )
    return 0


def cmd_parabolic(args) -> int:
    data = _read(args.path)
    a = load_arrangement(data)
    cone = _parse_vector(args.cone) if args.cone else ()
    pa = parabolic_arrangement(a, cone)
    outputs = _write(args.out, canonical_json(arrangement_to_json(pa)) + "\n")
    _emit("parabolic", data, {"rank": pa.rank, "hyperplanes": pa.n_hyperplanes},
          outputs=outputs)
    return 0


def cmd_insert(args) -> int:
    data = _read(args.path)
    a = load_arrangement(data)
    h = _parse_vector(args.hyperplane)
    f, cert = insert_hyperplane(a, h)
    outputs = _write(args.out, canonical_json(fan_to_json(f)) + "\n")
    _emit(
        "insert",
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
        outputs=outputs,
    )
    return 0


def cmd_autos(args) -> int:
    data = _read(args.path)
    f = _fan_input(data)
    autos = fan_automorphisms(f)
    obj = {"order": len(autos), "matrices": [[list(r) for r in g] for g in autos]}
    outputs = _write(args.out, canonical_json(obj) + "\n")
    _emit("autos", data, {"order": len(autos)}, outputs=outputs)
    return 0


def cmd_embed(args) -> int:
    data = _read(args.path)
    a = load_arrangement(data)
    cert = phi_certificate(a)
    obj = {
        "matrix": [list(r) for r in cert.matrix],
        "invariant_factors": list(cert.invariant_factors),
        "sign_vectors": len(cert.sign_vectors),
    }
    outputs = _write(args.out, canonical_json(obj) + "\n")
    _emit(
        "embed",
        data,
        {
            "invariant_factors": list(cert.invariant_factors),
            "sign_vectors_distinct": True,
        },
        outputs=outputs,
    )
    return 0


def cmd_decompose(args) -> int:
    data = _read(args.path)
    a = load_arrangement(data)
    factors, partition = decompose(a)
    obj = {
        "factors": [arrangement_to_json(x) for x in factors],
        "partition": [list(p) for p in partition],
    }
    outputs = _write(args.out, canonical_json(obj) + "\n")
    _emit("decompose", data, {"factors": len(factors)}, outputs=outputs)
    return 0


def _divisor_text(coeffs) -> str:
    terms = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        name = f"D{i + 1}"
        terms.append(name if c == 1 else f"{c}*{name}")
    return " + ".join(terms) if terms else "0"


def cmd_surface(args) -> int:
    sub = args.surface_command
    if sub == "triangulations":
        t = args.count
        tris = triangulations(t)
        listing = []
        for diag in tris:
            w = triangulation_to_weights(t, diag)
            listing.append({"diagonals": [list(d) for d in diag], "weights": list(w)})
        outputs = _write(args.out, canonical_json({"count": len(tris), "items": listing}) + "\n")
        _emit(
            "surface.triangulations",
            str(t).encode(),
            {"count": len(tris)},
            witnesses={"items": listing},
            outputs=outputs,
        )
        return 0

    data = _read(args.path)
    f = _fan_input(data)
    if f.rank != 2:
        raise UnsupportedRankError(f"surface commands require rank 2, got {f.rank}")
    if sub == "graph":
        g = circular_graph(f)
        obj = {"weights": list(g.weights), "rays": [list(v) for v in g.rays]}
        outputs = _write(args.out, canonical_json(obj) + "\n")
        _emit("surface.graph", data, {"weights": list(g.weights)}, outputs=outputs)
        return 0
    if sub == "from-weights":
        outputs = _write(args.out, canonical_json(fan_to_json(f)) + "\n")
        _emit("surface.from-weights", data, {"rays": len(f.rays)}, outputs=outputs)
        return 0
    if sub == "symmetrize":
        out_fan = symmetrize(f)
        outputs = _write(args.out, canonical_json(fan_to_json(out_fan)) + "\n")
        props = check_properties(out_fan)
        _emit("surface.symmetrize", data, {"rays": len(out_fan.rays), "smooth": props.smooth},
              outputs=outputs)
        return 0
    if sub == "desingularize":
        out_fan = desingularize(f)
        outputs = _write(args.out, canonical_json(fan_to_json(out_fan)) + "\n")
        _emit("surface.desingularize", data, {"rays": len(out_fan.rays)}, outputs=outputs)
        return 0
    if sub == "divisor":
        g = circular_graph(f)
        cls, self_int = y_divisor_class(g)
        text = f"Y1 ~ {_divisor_text(cls.coefficients)}, Y1^2 = {self_int}"
        outputs = _write(args.out, canonical_json(
            {"coefficients": list(cls.coefficients), "self_intersection": self_int}) + "\n")
        _emit("surface.divisor", data,
              {"formula": text, "self_intersection": self_int}, outputs=outputs)
        return 0
    if sub == "picard":
        g = circular_graph(f)
        ok = verify_picard_presentation(g)
        _emit("surface.picard", data,
              {"verified": ok, "picard_rank": len(g.weights) - 2})
        return 0
    raise InputFormatError(f"unknown surface subcommand {sub}")


def cmd_plot(args) -> int:
    data = _read(args.path)
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
        labels = None
        try:
            g = circular_graph(obj)
            labels = {ray: str(w) for ray, w in zip(g.rays, g.weights)}
        except ArrfanError:
            pass
        svg = svgplot.render_fan(obj, labels)
    outputs = _write(args.out, svg)
    if not outputs:
        sys.stdout.write(svg)
    else:
        _emit("plot", data, {"format": "svg"}, outputs=outputs)
    return 0


def _polygon_size(text: str) -> int:
    try:
        t = int(text)
    except ValueError:
        t = 0
    if not 3 <= t <= MAX_TRIANGULATION_T:
        raise argparse.ArgumentTypeError(f"must be an integer from 3 to {MAX_TRIANGULATION_T}")
    return t


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arrfan",
        description="Exact computations with integer hyperplane arrangements and their fans.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def add(name, func, *, path=True, out=True):
        p = subs.add_parser(name)
        if path:
            p.add_argument("path")
        if out:
            p.add_argument("--out")
        p.set_defaults(func=func)
        return p

    add("verify", cmd_verify, out=False)
    p = add("catalog", cmd_catalog, path=False)
    p.add_argument("name")
    p.add_argument("--sporadic-dir")
    add("fan", cmd_fan)
    add("roots", cmd_roots)
    add("polytope", cmd_polytope)
    p = add("star", cmd_star)
    p.add_argument("--cone", required=True, help="comma-separated ray indices")
    p = add("restrict", cmd_restrict)
    p.add_argument("--subspace", required=True, help="JSON row list, e.g. [[1,0,0],[0,1,0]]")
    add("poset", cmd_poset)
    p = add("parabolic", cmd_parabolic)
    p.add_argument("--cone", required=True, help="comma-separated ray indices")
    p = add("insert", cmd_insert)
    p.add_argument("--hyperplane", required=True, help="comma-separated covector")
    add("autos", cmd_autos)
    add("embed", cmd_embed)
    add("decompose", cmd_decompose)

    surface = subs.add_parser("surface")
    ssubs = surface.add_subparsers(dest="surface_command", required=True)
    for name in ("graph", "from-weights", "symmetrize", "desingularize", "divisor", "picard"):
        sp = ssubs.add_parser(name)
        sp.add_argument("path")
        sp.add_argument("--out")
        sp.set_defaults(func=cmd_surface)
    sp = ssubs.add_parser("triangulations")
    sp.add_argument("--count", type=_polygon_size, required=True,
                    help=f"polygon size t, 3 <= t <= {MAX_TRIANGULATION_T}")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_surface)

    p = add("plot", cmd_plot)
    p.add_argument("--format", default="svg", choices=["svg"])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
        code = args.func(args)
    except NotSimplicialError as e:
        print(f"error: {e}", file=sys.stderr)
        code = 11
    except UnsupportedRankError as e:
        print(f"error: {e}", file=sys.stderr)
        code = 4
    except _REFERENCE_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        code = 3
    except _VERDICT_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        code = 10
    except _PARSE_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        code = 2
    finally:
        elapsed = (time.monotonic() - start) * 1000.0
        print(f"# elapsed_ms={elapsed:.1f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
