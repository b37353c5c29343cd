"""Plane primitives: points, canonical angles, and the package's one
tolerance policy.

All angle values in the package are plain radians canonicalized to
[0, 2*pi).  Wrap-around reasoning goes through :func:`ccw_gap` so there
is exactly one place the circle gets unrolled.

The tolerances are fixed and relative to the input's own scale, so no
decision changes when an arc is scaled, rotated or moved:

* EPS_ORIENT bounds cross products, relative to the squared span of the
  three points (:func:`orient`);
* EPS_ANGLE bounds radians, which carry no scale;
* EPS_TOUCH bounds distances, relative to the arc's bounding-box
  diagonal, and arc parameters, relative to the arc's length or to the
  largest corner parameter.  No slack has an absolute floor.

The layers that test many triples of one chain (the hull, arc
validation, the sampler's crossing filter) compare each cross product,
computed as orient computes it, with one bound for the whole chain
(:func:`chain_bound`): EPS_ORIENT times the squared span of all its
points.  Three points span at most what the chain spans, max and min
are exact and rounding is monotone, so the threshold orient computes
for any three is at most the bound.  A cross product beyond the bound
thus has the sign orient returns; only the rest go through orient
itself (:func:`chain_orient`), and no decision, error or message
changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

TWO_PI = 2.0 * math.pi

EPS_ORIENT = 1e-12
EPS_ANGLE = 1e-9
EPS_TOUCH = 1e-9


class ZeroVector(ValueError):
    """A direction was requested for the zero vector."""


@dataclass(frozen=True)
class Point2:
    """Point (or free vector) in the plane."""

    x: float
    y: float

    def __sub__(self, other: "Point2") -> "Point2":
        return Point2(self.x - other.x, self.y - other.y)

    def dist(self, other: "Point2") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


def canon_angle(theta: float) -> float:
    """Map any radian value into [0, 2*pi)."""
    r = math.fmod(theta, TWO_PI)
    if r < 0.0:
        r += TWO_PI
    if r >= TWO_PI:  # fmod can round up to 2*pi for tiny negatives
        r -= TWO_PI
    return r


def angle_of(v: Point2) -> float:
    """Canonical direction angle of a nonzero vector."""
    if v.x == 0.0 and v.y == 0.0:
        raise ZeroVector("cannot take the angle of the zero vector")
    return canon_angle(math.atan2(v.y, v.x))


def ccw_gap(a: float, b: float) -> float:
    """Counterclockwise angular distance from a to b, in [0, 2*pi)."""
    return canon_angle(b - a)


def circ_dist(a: float, b: float) -> float:
    """Shorter angular distance between a and b (undirected)."""
    g = ccw_gap(a, b)
    return min(g, TWO_PI - g)


def orient(p: Point2, q: Point2, r: Point2) -> int:
    """Orientation of r relative to the directed line p -> q.

    Returns +1 if r is strictly to the left, -1 strictly to the right,
    0 if collinear within eps_orient scaled by the squared span of the
    three points.
    """
    px, py, qx, qy, rx, ry = p.x, p.y, q.x, q.y, r.x, r.y
    cross = (qx - px) * (ry - py) - (qy - py) * (rx - px)
    # the span max - min of each axis, without the slower builtins
    if px < qx:
        dx = (qx if qx > rx else rx) - (px if px < rx else rx)
    else:
        dx = (px if px > rx else rx) - (qx if qx < rx else rx)
    if py < qy:
        dy = (qy if qy > ry else ry) - (py if py < ry else ry)
    else:
        dy = (py if py > ry else ry) - (qy if qy < ry else ry)
    thr = EPS_ORIENT * (dx * dx + dy * dy)
    if abs(cross) <= thr:
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


def chain_orient(pts: Sequence[Point2], xs: Sequence[float],
                 ys: Sequence[float]) -> Callable[[int, int, int], int]:
    """turn(i, j, k) == orient(pts[i], pts[j], pts[k]) for a chain and
    its coordinate lists xs, ys.

    turn computes orient's cross product on the lists; beyond the
    chain's bound its sign is orient's answer, and within it turn calls
    orient, so every call gives orient's result.
    """
    bound = chain_bound(xs, ys)

    def turn(i: int, j: int, k: int) -> int:
        px = xs[i]
        py = ys[i]
        cross = (xs[j] - px) * (ys[k] - py) - (ys[j] - py) * (xs[k] - px)
        if cross > bound:
            return 1
        if cross < -bound:
            return -1
        return orient(pts[i], pts[j], pts[k])

    return turn
