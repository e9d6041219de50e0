"""The rank-2 surface commands, `arrfan surface ...`.  `triangulations` reads
no file and loads no fan code."""
from __future__ import annotations

from ..errors import UnsupportedRankError
from . import _emit, _fan_input


def _surface_input(data: bytes):
    f = _fan_input(data)
    if f.rank != 2:
        raise UnsupportedRankError(f"surface commands require rank 2, got {f.rank}")
    return f


def cmd_surface_graph(args, data: bytes):
    from ..surface import circular_graph

    g = circular_graph(_surface_input(data))
    obj = {"weights": list(g.weights), "rays": [list(v) for v in g.rays]}
    _emit(args, data, {"weights": list(g.weights)}, out=obj)


def cmd_surface_from_weights(args, data: bytes):
    from ..fan import fan_to_json

    f = _surface_input(data)
    _emit(args, data, {"rays": len(f.rays)}, out=fan_to_json(f))


def cmd_surface_symmetrize(args, data: bytes):
    from ..fan import fan_to_json
    from ..surface import symmetrize

    out_fan = symmetrize(_surface_input(data))
    _emit(args, data, {"rays": len(out_fan.rays), "smooth": out_fan.properties.smooth},
          out=fan_to_json(out_fan))


def cmd_surface_desingularize(args, data: bytes):
    from ..fan import fan_to_json
    from ..surface import desingularize

    out_fan = desingularize(_surface_input(data))
    _emit(args, data, {"rays": len(out_fan.rays)}, out=fan_to_json(out_fan))


def cmd_surface_divisor(args, data: bytes):
    from ..surface import circular_graph, y_divisor_class

    cls, self_int = y_divisor_class(circular_graph(_surface_input(data)))
    terms = [f"D{i + 1}" if c == 1 else f"{c}*D{i + 1}"
             for i, c in enumerate(cls.coefficients) if c]
    text = f"Y1 ~ {' + '.join(terms) or '0'}, Y1^2 = {self_int}"
    _emit(args, data, {"formula": text, "self_intersection": self_int},
          out={"coefficients": list(cls.coefficients), "self_intersection": self_int})


def cmd_surface_picard(args, data: bytes):
    from ..surface import circular_graph, verify_picard_presentation

    g = circular_graph(_surface_input(data))
    ok = verify_picard_presentation(g)
    _emit(args, data, {"verified": ok, "picard_rank": len(g.weights) - 2})


def cmd_surface_triangulations(args, data: None):
    from ..surface import triangulation_to_weights, triangulations

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
