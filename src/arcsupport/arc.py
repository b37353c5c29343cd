"""Simple polygonal arcs with cumulative arc-length parameters.

An arc is an injective piecewise-linear curve given by its vertex chain.
Construction validates simpleness; after that the object is immutable
and safe to share.

Simpleness is checked by a sort and sweep over the segments' bounding
boxes grown by EPS_TOUCH * diagonal (the broad phase of Cohen, Lin,
Manocha & Ponamgi, "I-COLLIDE", 1995): only pairs whose grown boxes
meet reach the tolerant orientation test, which makes "intersect" mean
"grown boxes meet and the orientations cross or touch".

The same broad phase serves pairs.verify_triple: an arc's vertices in
runs of RUN, each with its bounding box (run_index), let a query over
all vertices skip the runs whose box cannot matter.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from .geometry import EPS_TOUCH, Point2, orient


class ArcError(ValueError):
    """Base class for arc validation failures."""


class TooFewVertices(ArcError):
    pass


class DuplicateVertex(ArcError):
    pass


class SelfIntersecting(ArcError):
    pass


class ParamOutOfRange(ArcError):
    pass


@dataclass(frozen=True)
class PolygonalArc:
    """Validated simple polygonal arc.

    params[i] is the cumulative Euclidean length up to vertices[i];
    params[0] == 0 and params[-1] == length.
    """

    vertices: tuple[Point2, ...]
    params: tuple[float, ...]
    length: float
    diagonal: float  # bounding-box diagonal, the distance scale for tolerances
    # derived data (run_index), out of __init__, __eq__, __hash__ and
    # __repr__; a field rather than a key added to the instance dict
    # later, which would make every attribute read on the arc slower
    _indexes: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    def __len__(self) -> int:
        return len(self.vertices)


def _is_real(c) -> bool:
    # int and float first: the abstract-class check is slow.  json gives
    # bool for true/false and str for quoted numbers: refuse both
    return type(c) in (int, float) or (
        not isinstance(c, bool) and isinstance(c, numbers.Real))


def _as_points(vertices: Iterable) -> list[Point2]:
    """Points from Point2 instances or pairs of real numbers; anything
    else (a string, a bool, a third coordinate, a non-finite value)
    raises ArcError."""
    try:
        items = list(vertices)
    except TypeError:
        raise ArcError(f"vertices must be a list of [x, y] pairs, "
                       f"got {type(vertices).__name__}") from None
    pts = []
    for i, v in enumerate(items):
        if isinstance(v, Point2):
            p = v
        else:
            try:
                x, y = v
                if not (_is_real(x) and _is_real(y)):
                    raise TypeError
                p = Point2(float(x), float(y))
            except (TypeError, ValueError, OverflowError):
                raise ArcError(f"vertices[{i}] is not an [x, y] pair of "
                               f"numbers") from None
        if not (math.isfinite(p.x) and math.isfinite(p.y)):
            raise ArcError(f"non-finite vertex {p}")
        pts.append(p)
    return pts


def _bbox_diagonal(pts: Sequence[Point2]) -> float:
    dx = max(p.x for p in pts) - min(p.x for p in pts)
    dy = max(p.y for p in pts) - min(p.y for p in pts)
    return math.hypot(dx, dy)


def _on_segment(p: Point2, q: Point2, r: Point2) -> bool:
    # r collinear with pq; is it inside the box?
    return (min(p.x, q.x) <= r.x <= max(p.x, q.x)
            and min(p.y, q.y) <= r.y <= max(p.y, q.y))


def _segments_intersect(a1: Point2, a2: Point2, b1: Point2, b2: Point2,
                        pad: float) -> bool:
    """Closed-segment intersection test (touching counts), gated by the
    segments' bounding boxes grown by pad.

    The tolerant orientations can call a tiny segment far along the
    line of another touching it; segments whose grown boxes miss never
    intersect.  The gate is tested last, as it rarely decides.
    """
    o1 = orient(a1, a2, b1)
    o2 = orient(a1, a2, b2)
    o3 = orient(b1, b2, a1)
    o4 = orient(b1, b2, a2)
    touching = ((o1 != o2 and o3 != o4)
                or (o1 == 0 and _on_segment(a1, a2, b1))
                or (o2 == 0 and _on_segment(a1, a2, b2))
                or (o3 == 0 and _on_segment(b1, b2, a1))
                or (o4 == 0 and _on_segment(b1, b2, a2)))
    return (touching
            and min(a1.x, a2.x) - pad <= max(b1.x, b2.x) + pad
            and min(b1.x, b2.x) - pad <= max(a1.x, a2.x) + pad
            and min(a1.y, a2.y) - pad <= max(b1.y, b2.y) + pad
            and min(b1.y, b2.y) - pad <= max(a1.y, a2.y) + pad)


def _swept_crossing(pts: Sequence[Point2],
                    pad: float) -> Optional[tuple[int, int]]:
    """First pair (i, j), i + 2 <= j, of intersecting segments, or None.

    Sort and sweep: segments are sorted by the left edge of their box
    grown by pad, and each scans forward while the next left edge is
    within its right edge.  The non-adjacent pairs whose grown y-ranges
    also meet are the candidates, tested in (i, j) order, so the first
    hit is the one the pairwise loop finds.  Pairs left out have grown
    boxes that miss, which _segments_intersect rejects anyway.  Cost
    O(n log n + k), k the pairs whose grown x-ranges meet.
    """
    boxes = []
    for i, (a, b) in enumerate(zip(pts, pts[1:])):
        x0, x1 = (a.x, b.x) if a.x <= b.x else (b.x, a.x)
        y0, y1 = (a.y, b.y) if a.y <= b.y else (b.y, a.y)
        boxes.append((x0 - pad, x1 + pad, y0 - pad, y1 + pad, i))
    boxes.sort()
    nseg = len(boxes)
    later: list[list[int]] = [[] for _ in range(nseg)]  # j of candidate (i, j)
    for pos in range(nseg):
        _, x_hi, y_lo, y_hi, i = boxes[pos]
        for nxt in range(pos + 1, nseg):
            x_lo_j, _, y_lo_j, y_hi_j, j = boxes[nxt]
            if x_lo_j > x_hi:
                break
            if abs(i - j) >= 2 and y_lo_j <= y_hi and y_lo <= y_hi_j:
                if i < j:
                    later[i].append(j)
                else:
                    later[j].append(i)
    for i in range(nseg):
        for j in sorted(later[i]):
            if _segments_intersect(pts[i], pts[i + 1], pts[j], pts[j + 1],
                                   pad):
                return i, j
    return None


def _checked_arc(
        vertices: Iterable,
        first_crossing: Callable[[Sequence[Point2], float],
                                 Optional[tuple[int, int]]]) -> PolygonalArc:
    """Validate a vertex chain, with first_crossing(pts, pad) naming
    the first pair of non-adjacent segments that intersect, if any."""
    pts = _as_points(vertices)
    if len(pts) < 2:
        raise TooFewVertices(f"need at least 2 vertices, got {len(pts)}")
    diag = _bbox_diagonal(pts)
    if diag == 0.0:
        raise TooFewVertices("all vertices coincide")
    min_sep = EPS_TOUCH * diag

    params = [0.0]
    for a, b in zip(pts, pts[1:]):
        step = a.dist(b)
        if step <= min_sep:
            raise DuplicateVertex(f"consecutive vertices coincide near {a}")
        params.append(params[-1] + step)

    # adjacent segments may share only the common vertex: no back-tracking
    for i in range(len(pts) - 2):
        a, b, c = pts[i], pts[i + 1], pts[i + 2]
        if orient(a, b, c) == 0:
            u = b - a
            w = c - b
            if u.x * w.x + u.y * w.y < 0.0:
                raise SelfIntersecting(f"back-tracking at vertex {b}")

    hit = first_crossing(pts, min_sep)
    if hit is not None:
        raise SelfIntersecting("segments %d and %d intersect" % hit)
    return PolygonalArc(tuple(pts), tuple(params), params[-1], diag)


def build_arc(vertices: Iterable) -> PolygonalArc:
    """Validate a vertex chain and attach cumulative length parameters.

    Raises TooFewVertices, DuplicateVertex or SelfIntersecting on bad
    input.  Consecutive collinear vertices are accepted (they merely
    subdivide a segment); exact back-tracking is rejected as non-simple.

    Two non-adjacent segments intersect when their bounding boxes,
    grown by EPS_TOUCH * diagonal, meet and the tolerant orientation
    test finds them crossing or touching.  A sort and sweep over the
    grown boxes finds the candidate pairs in O(n log n + k), k the
    pairs whose grown x-ranges meet; k is at most n times the most
    segments one vertical line meets, so the cost is near-linear unless
    the arc passes over one x-range many times, and quadratic at worst
    (stacked diagonals).  oracle.pairwise_simple_check is the pairwise
    reference.
    """
    return _checked_arc(vertices, _swept_crossing)


# vertices per run of run_index
RUN = 16


def run_index(arc: PolygonalArc) -> list[tuple]:
    """The arc's vertices in runs of RUN, in order, built on first use
    in O(n) and kept on the arc (it is immutable).  Run r holds
    vertices r * RUN to r * RUN + RUN - 1 as (x_lo, x_hi, y_lo, y_hi,
    xs, ys): its bounding box and its coordinates."""
    runs = arc._indexes.get("runs")
    if runs is None:
        xs = [v.x for v in arc.vertices]
        ys = [v.y for v in arc.vertices]
        runs = arc._indexes["runs"] = []
        for i in range(0, len(xs), RUN):
            rx, ry = xs[i:i + RUN], ys[i:i + RUN]
            runs.append((min(rx), max(rx), min(ry), max(ry), rx, ry))
    return runs


def point_at(arc: PolygonalArc, s: float) -> Point2:
    """Point at arc-length parameter s, by linear interpolation."""
    slack = 1e-12 * arc.length
    if s < -slack or s > arc.length + slack:
        raise ParamOutOfRange(f"parameter {s} outside [0, {arc.length}]")
    s = min(max(s, 0.0), arc.length)
    i = bisect_right(arc.params, s) - 1
    i = min(i, len(arc.vertices) - 2)
    a, b = arc.vertices[i], arc.vertices[i + 1]
    span = arc.params[i + 1] - arc.params[i]
    t = (s - arc.params[i]) / span
    return Point2(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))

