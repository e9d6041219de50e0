"""The commands that read a fan file: `roots`, `star`, `restrict`, `autos` and
`plot`.  Only `roots`, `restrict`, and `plot` of an arrangement, load
`arrangement`; `star`, `restrict` and `autos` also accept an arrangement, read
as its chamber fan."""
from __future__ import annotations

import sys

from ..errors import ArrfanError, UnsupportedRankError
from . import _emit, _fan_input, _load_any, _parse_rows, _parse_vector


def cmd_roots(args, data: bytes):
    from ..arrangement import arrangement_to_json
    from ..fan import load_fan, roots_from_fan

    f = load_fan(data)
    a = roots_from_fan(f)
    _emit(args, data, {"rank": a.rank, "hyperplanes": a.n_hyperplanes},
          out=arrangement_to_json(a))


def cmd_star(args, data: bytes):
    from ..fan import fan_to_json
    from ..fanmaps import star_fan

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
    from ..fan import fan_to_json
    from ..fanmaps import restrict_fan

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


def cmd_autos(args, data: bytes):
    from ..fanmaps import fan_automorphisms

    f = _fan_input(data)
    autos = fan_automorphisms(f)
    obj = {"order": len(autos), "matrices": [[list(r) for r in g] for g in autos]}
    _emit(args, data, {"order": len(autos)}, out=obj)


def cmd_plot(args, data: bytes):
    from .. import svgplot

    is_fan, obj = _load_any(data)
    if not is_fan:
        if obj.rank == 2:
            svg = svgplot.render_rank2_arrangement(obj)
        elif obj.rank == 3:
            svg = svgplot.render_rank3_arrangement(obj)
        else:
            raise UnsupportedRankError(f"plot supports rank 2 and 3, got {obj.rank}")
    else:
        if obj.rank != 2:
            raise UnsupportedRankError(f"fan plots support rank 2 only, got {obj.rank}")
        from ..surface import circular_graph

        labels = None
        try:
            g = circular_graph(obj)
            labels = {ray: str(w) for ray, w in zip(g.rays, g.weights)}
        except ArrfanError:
            pass
        svg = svgplot.render_rank2(obj.rays, labels)
    if args.out is None:
        sys.stdout.write(svg)
    else:
        _emit(args, data, {"format": "svg"}, out=svg)
