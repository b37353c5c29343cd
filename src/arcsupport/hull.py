"""Convex hull of a polygonal arc with per-corner arc parameters and
angular support steps.

Melkman's online deque algorithm runs in linear time on a simple
polyline.  Its two loops, the pops at the back and the poplefts at the
front, decide each orientation inline as geometry.chain_orient does:
by the cross product's sign beyond the chain's bound, within it by
geometry.triple_bound, each corner's turn as its later neighbour joins,
but for the seam's.  Corners collinear within tolerance are merged
away, so every corner left makes a strict turn and a positive step.

The hull is four tuple columns with one entry per corner: the vertex
indices, the arc parameters (levels), the step starts and the step
widths.  A step ends on the very float the next one starts at, so no
end column is kept.  No object is built per corner; the profile
extends the hull and holds the same tuples.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from .arc import PolygonalArc
from .geometry import EPS_ANGLE, TWO_PI, Point2, chain_orient, triple_bound


class StraightArc(ValueError):
    """All vertices collinear within tolerance: the hull has no corners."""


@dataclass(frozen=True)
class Hull:
    """Corners in counterclockwise boundary order, starting at the
    corner with the smallest arc parameter, as four columns.

    Corner i is vertex corners[i] of the arc, at arc parameter
    levels[i].  Its step of the support profile, the closure of the set
    of support angles at which the support line touches exactly this
    corner, runs counterclockwise from starts[i] to starts[(i + 1) % m];
    widths[i], the corner's exterior angle, is its length.
    """

    corners: tuple[int, ...]
    levels: tuple[float, ...]
    starts: tuple[float, ...]
    widths: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.corners)


def melkman_hull(arc: PolygonalArc) -> Hull:
    """Convex hull of the arc's vertex chain via Melkman's algorithm.

    Returns the corners in counterclockwise order with their arc
    parameters and angular steps, as the columns of a Hull.  For corner
    B with counterclockwise neighbours A (incoming) and C (outgoing),
    the step runs from the direction of A->B to the direction of B->C;
    the support line for angles strictly inside the step touches
    exactly B.  Raises StraightArc when every vertex is collinear within
    tolerance.
    """
    xs, ys = arc.xs, arc.ys
    turn, bound = chain_orient(xs, ys)
    n = len(xs)

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

    # the deque loops write turn out: beyond the chain's bound the
    # product's sign is its answer, and within it the product is left
    # only above the triple's own threshold, which is never negative
    neg = -bound
    for i in range(k + 1, n):
        xi = xs[i]
        yi = ys[i]
        size = len(hull)
        # pop while i is not left of hull[-2] -> hull[-1]
        while len(hull) > 2:
            a = hull[-2]
            b = hull[-1]
            ax = xs[a]
            ay = ys[a]
            c = (xs[b] - ax) * (yi - ay) - (ys[b] - ay) * (xi - ax)
            if (c > bound or c >= neg
                    and c > triple_bound(ax, ay, xs[b], ys[b], xi, yi)):
                break
            hull.pop()
        # popleft while hull[0] -> hull[1] is not left of i; i joins the
        # back only after this loop, so len > 1 counts it as len > 2
        while len(hull) > 1:
            a = hull[0]
            b = hull[1]
            c = (xs[a] - xi) * (ys[b] - yi) - (ys[a] - yi) * (xs[b] - xi)
            if (c > bound or c >= neg
                    and c > triple_bound(xi, yi, xs[a], ys[a], xs[b], ys[b])):
                break
            hull.popleft()
        if len(hull) == size:
            continue  # neither loop changed the deque: interior point
        hull.append(i)
        hull.appendleft(i)

    cycle = list(hull)[:-1]  # drop the duplicated seam entry

    # no loop decided the seam's turn: test it, then the back corner's,
    # and after each drop the two that meet across the gap, front first
    while len(cycle) > 2:
        if turn(cycle[-1], cycle[0], cycle[1]) <= 0:
            del cycle[0]
        elif turn(cycle[-2], cycle[-1], cycle[0]) <= 0:
            del cycle[-1]
        else:
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
    # the direction of the edge entering corner i starts its step and
    # ends the step before, the same float for both.  Two corners are
    # distinct points, so no edge is the zero vector.  atan2 lies in
    # [-pi, pi] and a difference of two starts in (-2pi, 2pi), where
    # canon_angle's fmod is exact: it adds 2pi to a negative value and
    # folds a sum that rounds up to 2pi back to 0
    starts = [t if (t := math.atan2(ys[b] - ys[a], xs[b] - xs[a])) >= 0.0
              else u if (u := t + TWO_PI) < TWO_PI else 0.0
              for a, b in zip(cycle[-1:] + cycle[:-1], cycle)]
    widths = [t if (t := b - a) >= 0.0
              else u if (u := t + TWO_PI) < TWO_PI else 0.0
              for a, b in zip(starts, starts[1:] + starts[:1])]
    for i, ext in enumerate(widths):
        if not (EPS_ANGLE < ext < math.pi):
            raise StraightArc(f"degenerate exterior angle {ext} at corner "
                              f"{Point2(xs[cycle[i]], ys[cycle[i]])}")
    return Hull(tuple(cycle), tuple([params[i] for i in cycle]),
                tuple(starts), tuple(widths))
