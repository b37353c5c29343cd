"""Plane primitives: points, canonical angles, and the package's one
tolerance policy.

All angle values in the package are plain radians canonicalized to
[0, 2*pi).  Comparisons across the seam at 0 go through :func:`ccw_gap`
and :func:`circ_dist`.  Four places unroll the circle themselves:
profile.touch_params and pairs._near_jump_gap search the far end too
where a window reaches past the seam, pairs._staircase lays the steps
out from a mode's anchor step, and pairs._gap_intervals splits the gap
intervals that reach past 0 or 2*pi.

The tolerances are fixed and relative to the input's own scale, so no
decision changes when an arc is scaled, rotated or moved:

* EPS_ORIENT bounds cross products, relative to the squared span of the
  three points (:func:`orient`);
* EPS_ANGLE bounds radians, which carry no scale;
* EPS_TOUCH bounds distances, relative to the arc's bounding-box
  diagonal, and arc parameters, relative to the arc's length or to the
  largest corner parameter.  No slack has an absolute floor.

The layers that test many triples of one chain (the hull, arc
validation, the sampler's crossing filter) read only the chain's
coordinate lists.  Each cross product, computed as orient computes it,
meets one bound for the whole chain (:func:`chain_bound`): EPS_ORIENT
times the squared span of all its points.  Three points span at most
what the chain spans, max and min are exact and rounding is monotone,
so orient's threshold for any three (:func:`triple_bound`) is at most
the bound.  A cross product beyond the bound thus has orient's sign;
only the rest are held to their triple's threshold (_chain_turn), and
no decision, error or message changes.  Arc validation has the chain's
spans already, for its diagonal, and computes the bound from them
without a chain_bound pass; the arc keeps it, and the hull's two deque
loops write _chain_turn's test out with it.  The sampler's filter holds
every draw to its square's bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

TWO_PI = 2.0 * math.pi

EPS_ORIENT = 1e-12
EPS_ANGLE = 1e-9
EPS_TOUCH = 1e-9


@dataclass(frozen=True)
class Point2:
    """Point in the plane."""

    x: float
    y: float


def canon_angle(theta: float) -> float:
    """Map any finite radian value into [0, 2*pi); raise ValueError,
    naming the value, for nan and +-inf."""
    try:
        r = math.fmod(theta, TWO_PI)
    except ValueError:  # fmod refuses +-inf
        raise ValueError(f"angle {theta!r} is not finite") from None
    if r < 0.0:
        r += TWO_PI
        if r >= TWO_PI:  # the sum can round up to 2*pi for tiny negatives
            r -= TWO_PI
    elif r != r:  # fmod passes nan through
        raise ValueError(f"angle {theta!r} is not finite")
    return r


def ccw_gap(a: float, b: float) -> float:
    """Counterclockwise angular distance from a to b, in [0, 2*pi)."""
    return canon_angle(b - a)


def circ_dist(a: float, b: float) -> float:
    """Shorter angular distance between a and b (undirected)."""
    g = canon_angle(b - a)
    h = TWO_PI - g
    return h if h < g else g  # min(g, h): the first of equals


def triple_bound(px: float, py: float, qx: float, qy: float, rx: float,
                 ry: float) -> float:
    """orient's threshold for the points (px, py), (qx, qy), (rx, ry):
    EPS_ORIENT times their squared span."""
    # the span max - min of each axis, without the slower builtins
    if px < qx:
        dx = (qx if qx > rx else rx) - (px if px < rx else rx)
    else:
        dx = (px if px > rx else rx) - (qx if qx < rx else rx)
    if py < qy:
        dy = (qy if qy > ry else ry) - (py if py < ry else ry)
    else:
        dy = (py if py > ry else ry) - (qy if qy < ry else ry)
    return EPS_ORIENT * (dx * dx + dy * dy)


def orient(p: Point2, q: Point2, r: Point2) -> int:
    """Orientation of r relative to the directed line p -> q.

    Returns +1 if r is strictly to the left, -1 strictly to the right,
    0 if collinear within eps_orient scaled by the squared span of the
    three points (triple_bound).
    """
    px, py, qx, qy, rx, ry = p.x, p.y, q.x, q.y, r.x, r.y
    cross = (qx - px) * (ry - py) - (qy - py) * (rx - px)
    if abs(cross) <= triple_bound(px, py, qx, qy, rx, ry):
        return 0
    return 1 if cross > 0.0 else -1


def chain_bound(xs: Sequence[float], ys: Sequence[float]) -> float:
    """EPS_ORIENT times the squared span of the chain with coordinates
    xs, ys: no threshold orient computes for three of its points is
    larger, as orient's spans are at most the chain's and rounding is
    monotone."""
    dx = max(xs) - min(xs)
    dy = max(ys) - min(ys)
    return EPS_ORIENT * (dx * dx + dy * dy)


def _chain_turn(xs: Sequence[float], ys: Sequence[float],
                bound: float) -> Callable[[int, int, int], int]:
    """turn(i, j, k), orient's answer for the points i, j, k of the chain
    with coordinate lists xs, ys and bound chain_bound(xs, ys).

    turn computes orient's cross product on the lists; beyond the
    chain's bound its sign is orient's answer, and within it turn
    compares it with the triple's own threshold, as orient does.
    """
    neg = -bound

    def turn(i: int, j: int, k: int) -> int:
        px = xs[i]
        py = ys[i]
        cross = (xs[j] - px) * (ys[k] - py) - (ys[j] - py) * (xs[k] - px)
        if neg <= cross <= bound and abs(cross) <= triple_bound(
                px, py, xs[j], ys[j], xs[k], ys[k]):
            return 0
        return 1 if cross > 0.0 else -1

    return turn
