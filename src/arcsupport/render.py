"""SVG figures: arc, hull, the two support lines and the labeled triple."""

from __future__ import annotations

import math

from .arc import PolygonalArc, point_at
from .hull import Hull
from .pairs import TriplePair

# canvas size in pixels, its margin, and the colours
WIDTH = 640
HEIGHT = 480
MARGIN = 40.0
ARC_STROKE = "#1f6fb4"
HULL_STROKE = "#aaaaaa"
LINE_STROKE = "#d62728"
POINT_FILL = "#000000"


def render_pair_svg(arc: PolygonalArc, hull: Hull, pair: TriplePair) -> str:
    """SVG 1.1 document for a found pair.

    Geometry stays in mathematical orientation; the y axis is flipped
    only in the final screen transform.
    """
    xs = [v.x for v in arc.vertices]
    ys = [v.y for v in arc.vertices]
    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)
    # a hull has three corners that do not line up, so both spans are
    # positive; the figure is the same at every scale
    scale = min((WIDTH - 2 * MARGIN) / (max_x - min_x),
                (HEIGHT - 2 * MARGIN) / (max_y - min_y))

    def sx(x: float) -> float:
        return MARGIN + (x - min_x) * scale

    def sy(y: float) -> float:
        return HEIGHT - (MARGIN + (y - min_y) * scale)

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
    ]

    # the point lists with sx and sy written out, not called per point
    hull_pts = " ".join(
        f"{MARGIN + (c.point.x - min_x) * scale:.3f},"
        f"{HEIGHT - (MARGIN + (c.point.y - min_y) * scale):.3f}"
        for c in hull.corners)
    out.append(f'<polygon points="{hull_pts}" fill="none" '
               f'stroke="{HULL_STROKE}" stroke-dasharray="6 4"/>')

    arc_pts = " ".join(
        f"{MARGIN + (x - min_x) * scale:.3f},"
        f"{HEIGHT - (MARGIN + (y - min_y) * scale):.3f}"
        for x, y in zip(xs, ys))
    out.append(f'<polyline points="{arc_pts}" fill="none" '
               f'stroke="{ARC_STROKE}" stroke-width="2"/>')

    reach = 2.0 * arc.diagonal
    for theta, s in ((pair.theta_double, pair.s1),
                     (pair.theta_single, pair.s2)):
        a = point_at(arc, min(max(s, 0.0), arc.length))
        dx, dy = math.cos(theta), math.sin(theta)
        x1, y1 = a.x - reach * dx, a.y - reach * dy
        x2, y2 = a.x + reach * dx, a.y + reach * dy
        out.append(f'<line x1="{sx(x1):.3f}" y1="{sy(y1):.3f}" '
                   f'x2="{sx(x2):.3f}" y2="{sy(y2):.3f}" '
                   f'stroke="{LINE_STROKE}" stroke-width="1.5"/>')

    for label, s in (("s1", pair.s1), ("s2", pair.s2), ("s3", pair.s3)):
        p = point_at(arc, min(max(s, 0.0), arc.length))
        out.append(f'<circle cx="{sx(p.x):.3f}" cy="{sy(p.y):.3f}" r="4" '
                   f'fill="{POINT_FILL}"/>')
        out.append(f'<text x="{sx(p.x) + 7:.3f}" y="{sy(p.y) - 7:.3f}" '
                   f'font-size="14" font-family="sans-serif">{label}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"
