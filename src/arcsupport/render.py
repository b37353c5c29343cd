"""SVG figures: arc, hull, the two support lines and the labeled triple.

The bounding box comes from the boxes of the arc's runs.  Each arc
vertex is formatted once, all of them by one format call; the hull
polygon reuses its corners' strings from the polyline's text.  Each
touch point is computed once.
"""

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
    # the bounding box from the runs' boxes, not four passes over n
    runs = arc.runs
    min_x, max_x = min([r[0] for r in runs]), max([r[1] for r in runs])
    min_y, max_y = min([r[2] for r in runs]), max([r[3] for r in runs])
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

    # each vertex formatted once, with sx and sy written out, by one
    # format call over all of them; the hull polygon joins its corners'
    # strings, the polyline takes the formatted text whole
    n = len(arc)
    vals = [0.0] * (2 * n)
    vals[0::2] = [MARGIN + (x - min_x) * scale for x in arc.xs]
    vals[1::2] = [HEIGHT - (MARGIN + (y - min_y) * scale) for y in arc.ys]
    text = ("%.3f,%.3f " * n) % tuple(vals)
    pts = text.split()
    hull_pts = " ".join([pts[i] for i in hull.corners])
    out.append(f'<polygon points="{hull_pts}" fill="none" '
               f'stroke="{HULL_STROKE}" stroke-dasharray="6 4"/>')
    out.append(f'<polyline points="{text[:-1]}" fill="none" '
               f'stroke="{ARC_STROKE}" stroke-width="2"/>')

    p1, p2, p3 = [point_at(arc, min(max(s, 0.0), arc.length))
                  for s in pair.triple]
    reach = 2.0 * arc.diagonal
    for theta, a in ((pair.theta_double, p1), (pair.theta_single, p2)):
        dx, dy = math.cos(theta), math.sin(theta)
        x1, y1 = a.x - reach * dx, a.y - reach * dy
        x2, y2 = a.x + reach * dx, a.y + reach * dy
        out.append(f'<line x1="{sx(x1):.3f}" y1="{sy(y1):.3f}" '
                   f'x2="{sx(x2):.3f}" y2="{sy(y2):.3f}" '
                   f'stroke="{LINE_STROKE}" stroke-width="1.5"/>')

    for label, p in (("s1", p1), ("s2", p2), ("s3", p3)):
        out.append(f'<circle cx="{sx(p.x):.3f}" cy="{sy(p.y):.3f}" r="4" '
                   f'fill="{POINT_FILL}"/>')
        out.append(f'<text x="{sx(p.x) + 7:.3f}" y="{sy(p.y) - 7:.3f}" '
                   f'font-size="14" font-family="sans-serif">{label}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"
