"""Convex hull of a polygonal arc with per-corner arc parameters and
angular support steps.

Melkman's online deque algorithm runs in linear time on a simple
polyline.  Hull vertices that are interior to a hull edge (collinear
within tolerance) are merged away, so every remaining corner makes a
strict turn and carries a positive angular step.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from .arc import PolygonalArc
from .geometry import EPS_ANGLE, Point2, angle_of, ccw_gap, chain_orient


class StraightArc(ValueError):
    """All vertices collinear within tolerance: the hull has no corners."""


@dataclass(frozen=True)
class HullCorner:
    """Hull corner and its step of the support profile.

    level is the corner's arc parameter.  The step [start, end]
    (counterclockwise, on the circle) is the closure of the set of
    support angles at which the support line touches exactly this
    corner; width, the corner's exterior angle, is its length.
    """

    point: Point2
    level: float
    start: float
    end: float
    width: float


@dataclass(frozen=True)
class Hull:
    """Corners in counterclockwise boundary order, starting at the
    corner with the smallest arc parameter."""

    corners: tuple[HullCorner, ...]

    def __len__(self) -> int:
        return len(self.corners)


def melkman_hull(arc: PolygonalArc) -> Hull:
    """Convex hull of the arc's vertex chain via Melkman's algorithm.

    Returns corners in counterclockwise order with their arc parameters
    and angular steps.  For corner B with counterclockwise neighbours A
    (incoming) and C (outgoing), the step runs from the direction of
    A->B to the direction of B->C; the support line for angles strictly
    inside the step touches exactly B.  Raises StraightArc when every
    vertex is collinear within tolerance.
    """
    pts = arc.vertices
    # the vertices once, as floats, for the chain's orientation test
    turn = chain_orient(pts, [p.x for p in pts], [p.y for p in pts])
    n = len(pts)

    # collapse a collinear prefix so the deque starts from a strict turn
    last = 1
    for k in range(2, n):
        o = turn(0, last, k)
        if o != 0:
            break
        last = k
    else:
        raise StraightArc("all vertices collinear within tolerance")

    # vertex indices; the first and last entry are the same vertex
    hull = deque([k, 0, last, k] if o > 0 else [k, last, 0, k])

    # each triple is decided once: the interior test's two answers are
    # the first tests of the pop and popleft loops
    for i in range(k + 1, n):
        left = turn(hull[-2], hull[-1], i)
        if left > 0:
            right = turn(i, hull[0], hull[1])
            if right > 0:
                continue  # interior point
        else:
            hull.pop()
            while len(hull) > 2 and turn(hull[-2], hull[-1], i) <= 0:
                hull.pop()
            # the pops leave hull[0] and hull[1] in place
            right = turn(i, hull[0], hull[1])
        hull.append(i)
        if right <= 0:
            hull.popleft()
            while len(hull) > 2 and turn(i, hull[0], hull[1]) <= 0:
                hull.popleft()
        hull.appendleft(i)

    cycle = list(hull)[:-1]  # drop the duplicated seam entry

    # sweep out any collinear corners the deque seam may have left behind
    changed = True
    while changed and len(cycle) > 2:
        changed = False
        for i in range(len(cycle)):
            if turn(cycle[i - 1], cycle[i], cycle[(i + 1) % len(cycle)]) <= 0:
                del cycle[i]
                changed = True
                break
    if len(cycle) < 3:
        raise StraightArc("hull degenerates to a segment within tolerance")

    # every corner now turns strictly left, so the cycle runs
    # counterclockwise (the deque starts that way); a clockwise cycle
    # would fail the exterior-angle check below, never pass silently
    m = len(cycle)
    params = arc.params
    start = min(range(m), key=lambda i: params[cycle[i]])
    cycle = cycle[start:] + cycle[:start]
    # edges[i] is the direction of the edge leaving corner i: the end of
    # its step and the start of the next one, the same float for both
    edges = [angle_of(pts[cycle[(i + 1) % m]] - pts[cycle[i]])
             for i in range(m)]
    corners = []
    for i, idx in enumerate(cycle):
        ext = ccw_gap(edges[i - 1], edges[i])
        if not (EPS_ANGLE < ext < math.pi):
            raise StraightArc(
                f"degenerate exterior angle {ext} at corner {pts[idx]}")
        corners.append(
            HullCorner(pts[idx], params[idx], edges[i - 1], edges[i], ext))
    return Hull(tuple(corners))
