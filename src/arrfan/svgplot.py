"""Deterministic SVG figures: rank-2 ray wheels and rank-3 projective line pictures.

All geometry is computed exactly and only formatted to fixed-precision
decimals at the very end, so repeated runs emit identical bytes.
"""
from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING

from . import intlinalg as la
from .intlinalg import Vec

if TYPE_CHECKING:  # annotations only: each plot loads the module of its input alone
    from .arrangement import Arrangement

_SIZE = 600
_CENTER = _SIZE // 2
_RADIUS = 260


def _fmt(x: Fraction | float) -> str:
    return f"{float(x):.2f}"


def _header() -> list[str]:
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="white"/>',
    ]


def _ray_endpoint(v: Vec) -> tuple[str, str]:
    # scale the ray to length _RADIUS without floats until formatting
    norm2 = v[0] * v[0] + v[1] * v[1]
    scale = _RADIUS / float(norm2) ** 0.5
    return (
        _fmt(_CENTER + v[0] * scale),
        _fmt(_CENTER - v[1] * scale),
    )


def render_rank2(rays, labels: dict[Vec, str] | None = None) -> str:
    """Ray wheel: one line per ray from the center, optional weight labels."""
    out = _header()
    out.append(
        f'<circle cx="{_CENTER}" cy="{_CENTER}" r="{_RADIUS}" fill="none" '
        'stroke="#cccccc" stroke-width="1"/>'
    )
    for v in sorted(rays):
        x, y = _ray_endpoint(v)
        out.append(
            f'<line class="ray" x1="{_CENTER}" y1="{_CENTER}" x2="{x}" y2="{y}" '
            'stroke="black" stroke-width="2"/>'
        )
        if labels and v in labels:
            lx = _fmt(float(x) * 1.06 - _CENTER * 0.06)
            ly = _fmt(float(y) * 1.06 - _CENTER * 0.06)
            out.append(
                f'<text x="{lx}" y="{ly}" font-size="16" text-anchor="middle">'
                f"{labels[v]}</text>"
            )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _clip_line_to_circle(p: tuple[Fraction, Fraction], d: Vec):
    """Intersect the affine line p + t*d with the viewport circle, exactly-ish.

    Solved over floats only for the final endpoints; the line data is exact.
    """
    px, py = float(p[0]), float(p[1])
    dx, dy = float(d[0]), float(d[1])
    r = 3.0  # world-coordinate viewport radius
    a = dx * dx + dy * dy
    b = 2 * (px * dx + py * dy)
    c = px * px + py * py - r * r
    disc = b * b - 4 * a * c
    if disc <= 0:
        return None
    root = disc**0.5
    t1, t2 = (-b - root) / (2 * a), (-b + root) / (2 * a)
    s = _RADIUS / r
    return tuple(
        (_fmt(_CENTER + (px + t * dx) * s), _fmt(_CENTER - (py + t * dy) * s))
        for t in (t1, t2)
    )


def render_rank3_arrangement(a: Arrangement) -> str:
    """Projective picture: each hyperplane traced on the chart {z = 1}.

    A hyperplane with normal (0, 0, c) misses the chart and is drawn as the
    boundary circle (the line at infinity), matching the usual projective
    rendering of a rank-3 arrangement.
    """
    out = _header()
    out.append(
        f'<circle cx="{_CENTER}" cy="{_CENTER}" r="{_RADIUS}" fill="none" '
        'stroke="#888888" stroke-width="1"/>'
    )
    for cov in a.positive_covectors:
        ax, ay, c = cov
        if ax == 0 and ay == 0:
            out.append(
                f'<circle class="hyperplane" cx="{_CENTER}" cy="{_CENTER}" '
                f'r="{_RADIUS}" fill="none" stroke="black" stroke-width="2"/>'
            )
            continue
        # a point on ax*x + ay*y + c = 0 and its direction (-ay, ax)
        if ax != 0:
            p = (Fraction(-c, ax), Fraction(0))
        else:
            p = (Fraction(0), Fraction(-c, ay))
        seg = _clip_line_to_circle(p, (-ay, ax))
        if seg is None:
            continue
        (x1, y1), (x2, y2) = seg
        out.append(
            f'<line class="hyperplane" x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            'stroke="black" stroke-width="2"/>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def render_rank2_arrangement(a: Arrangement) -> str:
    """Rank-2 arrangements are drawn as full lines (both signed rays per wall)."""
    rays = []
    for cov in a.positive_covectors:
        normal_dir = (-cov[1], cov[0])
        rays.append(normal_dir)
        rays.append(la.vec_neg(normal_dir))
    return render_rank2(rays)
