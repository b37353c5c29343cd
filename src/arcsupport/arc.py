"""Simple polygonal arcs with cumulative arc-length parameters.

An arc is an injective piecewise-linear curve given by its vertex chain.
Construction validates simpleness; after that the object is immutable
and safe to share.

Simpleness is checked by a sort and sweep over the segments' bounding
boxes grown by EPS_TOUCH * diagonal (the broad phase of Cohen, Lin,
Manocha & Ponamgi, "I-COLLIDE", 1995): only pairs whose grown boxes
meet reach the tolerant orientation test on the coordinate lists, which
makes "intersect" mean "grown boxes meet and the orientations cross or
touch".  The sweep is the gate; the test itself reads no box.  A chain
whose x-steps (or y-steps) all move one way and clear the margin of
the grown boxes needs no sweep: no two non-adjacent grown boxes meet,
which its own coordinates certify in O(n) (_clears), so build_arc
builds no box for it.  The edge vectors are computed once and serve
the step lengths and the back-tracking test.

The same broad phase serves pairs.verify_triple: an arc's vertices in
runs of RUN, each with its bounding box (PolygonalArc.runs, built by
build_arc from the coordinates it validates), let a query over all
vertices skip the runs whose box cannot matter.
"""

from __future__ import annotations

import math
import numbers
import sys
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, repeat
from operator import add, gt, sub
from typing import Callable, Iterable, Optional, Sequence

from .geometry import EPS_ORIENT, EPS_TOUCH, Point2, _chain_turn


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


# vertices per run of PolygonalArc.runs
RUN = 16

# the bounding-box diagonals build_arc accepts, about 1.5e-139 and
# 9.5e153: within them no cross product overflows and no orientation
# threshold leaves the normal floats (derived in build_arc)
MIN_SPAN = math.sqrt(sys.float_info.min / (EPS_ORIENT * EPS_TOUCH ** 2))
MAX_SPAN = math.sqrt(sys.float_info.max / 2.0)


@dataclass(frozen=True)
class PolygonalArc:
    """Validated simple polygonal arc.

    Vertex i is (xs[i], ys[i]).  params[i] is the cumulative Euclidean
    length up to vertex i; params[0] == 0 and params[-1] == length.
    Run r of runs holds vertices r * RUN to r * RUN + RUN - 1 as (x_lo,
    x_hi, y_lo, y_hi, xs, ys): its bounding box and its coordinates.
    """

    xs: tuple[float, ...]
    ys: tuple[float, ...]
    params: tuple[float, ...]
    length: float
    diagonal: float  # bounding-box diagonal, the distance scale for tolerances
    # derived from the vertices: out of __eq__, __hash__ and __repr__
    runs: tuple[tuple, ...] = field(repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.xs)


def _is_real(c) -> bool:
    # int and float first: the abstract-class check is slow.  json gives
    # bool for true/false and str for quoted numbers: refuse both
    return type(c) in (int, float) or (
        not isinstance(c, bool) and isinstance(c, numbers.Real))


def _coordinates(vertices: Iterable) -> tuple[list[float], list[float]]:
    """The x and the y coordinates of vertices given as Point2 instances
    or pairs of real numbers; anything else (a string, a bool, a third
    coordinate, a non-finite value) raises ArcError."""
    try:
        items = list(vertices)
    except TypeError:
        raise ArcError(f"vertices must be a list of [x, y] pairs, "
                       f"got {type(vertices).__name__}") from None
    xs, ys = [], []
    for i, v in enumerate(items):
        try:
            x, y = (v.x, v.y) if isinstance(v, Point2) else v
            # floats, the common case, need no type test or conversion
            if type(x) is not float or type(y) is not float:
                if not (_is_real(x) and _is_real(y)):
                    raise TypeError
                x, y = float(x), float(y)
        except (TypeError, ValueError, OverflowError):
            raise ArcError(f"vertices[{i}] is not an [x, y] pair of "
                           f"numbers") from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ArcError(f"non-finite vertex {Point2(x, y)}")
        xs.append(x)
        ys.append(y)
    return xs, ys


def _on_segment(xs: Sequence[float], ys: Sequence[float], p: int, q: int,
                r: int) -> bool:
    # vertex r collinear with segment pq; is it inside the box?
    return (min(xs[p], xs[q]) <= xs[r] <= max(xs[p], xs[q])
            and min(ys[p], ys[q]) <= ys[r] <= max(ys[p], ys[q]))


def _segments_intersect(turn: Callable[[int, int, int], int],
                        xs: Sequence[float], ys: Sequence[float], i: int,
                        j: int) -> bool:
    """Closed-segment intersection test (touching counts) of segments i
    and j of the chain with coordinates xs, ys, turn its orientation
    test (geometry.chain_orient).

    The tolerant orientations can call a tiny segment far along the
    line of another touching it, so callers hand over only pairs whose
    grown boxes meet: segments whose grown boxes miss never intersect.
    """
    o1 = turn(i, i + 1, j)
    o2 = turn(i, i + 1, j + 1)
    o3 = turn(j, j + 1, i)
    o4 = turn(j, j + 1, i + 1)
    return ((o1 != o2 and o3 != o4)
            or (o1 == 0 and _on_segment(xs, ys, i, i + 1, j))
            or (o2 == 0 and _on_segment(xs, ys, i, i + 1, j + 1))
            or (o3 == 0 and _on_segment(xs, ys, j, j + 1, i))
            or (o4 == 0 and _on_segment(xs, ys, j, j + 1, i + 1)))


def _swept_crossing(xs: Sequence[float], ys: Sequence[float],
                    turn: Callable[[int, int, int], int],
                    pad: float) -> Optional[tuple[int, int]]:
    """First pair (i, j), i + 2 <= j, of intersecting segments, or None.

    Sort and sweep: segments are sorted by the left edge of their box
    grown by pad, and each scans forward while the next left edge is
    within its right edge.  The non-adjacent pairs whose grown y-ranges
    also meet are the candidates, tested in (i, j) order, so the first
    hit is the one the pairwise loop finds.  Their grown boxes meet, as
    _segments_intersect requires; pairs left out never intersect.  Cost
    O(n log n + k), k the pairs whose grown x-ranges meet.
    """
    boxes = []
    for i, (ax, bx, ay, by) in enumerate(zip(xs, xs[1:], ys, ys[1:])):
        x0, x1 = (ax, bx) if ax <= bx else (bx, ax)
        y0, y1 = (ay, by) if ay <= by else (by, ay)
        boxes.append((x0 - pad, x1 + pad, y0 - pad, y1 + pad, i))
    boxes.sort()
    nseg = len(boxes)
    cands = []  # the candidates (i, j), i < j; most segments have none
    for pos in range(nseg):
        _, x_hi, y_lo, y_hi, i = boxes[pos]
        for nxt in range(pos + 1, nseg):
            x_lo_j, _, y_lo_j, y_hi_j, j = boxes[nxt]
            if x_lo_j > x_hi:
                break
            if abs(i - j) >= 2 and y_lo_j <= y_hi and y_lo <= y_hi_j:
                cands.append((i, j) if i < j else (j, i))
    for i, j in sorted(cands):
        if _segments_intersect(turn, xs, ys, i, j):
            return i, j
    return None


def _clears(cs: Sequence[float], pad: float) -> bool:
    """True when every step of the coordinate column cs moves the same
    way and clears the margin of the grown boxes: fl(b - pad) >
    fl(a + pad) for a step from a up to b, or from b down to a, the very
    expressions the boxes are built from.

    Then the grown range of segment i on this axis ends before that of
    segment i + 2 starts (rounding is monotone), and before that of any
    later segment: no two non-adjacent grown boxes meet.  Three steps,
    the first, a middle and the last, are tested first (most chains
    fail there), then every step in C, up to the first that fails.
    """
    m = len(cs) // 2
    if cs[0] < cs[1] and cs[m - 1] < cs[m] and cs[-2] < cs[-1]:
        return all(map(gt, map(sub, cs[1:], repeat(pad)),
                       map(add, cs, repeat(pad))))
    if cs[0] > cs[1] and cs[m - 1] > cs[m] and cs[-2] > cs[-1]:
        return all(map(gt, map(sub, cs, repeat(pad)),
                       map(add, cs[1:], repeat(pad))))
    return False


def _first_crossing(xs: Sequence[float], ys: Sequence[float],
                    turn: Callable[[int, int, int], int],
                    pad: float) -> Optional[tuple[int, int]]:
    """build_arc's crossing search: None, with no box built, when the x-
    or the y-steps certify the chain (_clears), else _swept_crossing's
    answer.  The certificate only says what the sweep would find."""
    if _clears(xs, pad) or _clears(ys, pad):
        return None
    return _swept_crossing(xs, ys, turn, pad)


def _checked_arc(vertices: Iterable, first_crossing: Callable[
        ..., Optional[tuple[int, int]]]) -> PolygonalArc:
    """Validate a vertex chain, with first_crossing(xs, ys, turn, pad)
    naming the first pair of non-adjacent segments that intersect, if
    any: xs and ys the coordinates, turn the chain's orientation test
    and pad the box growth."""
    xs, ys = _coordinates(vertices)
    if len(xs) < 2:
        raise TooFewVertices(f"need at least 2 vertices, got {len(xs)}")
    dx = max(xs) - min(xs)
    dy = max(ys) - min(ys)
    diag = math.hypot(dx, dy)
    if diag == 0.0:
        raise TooFewVertices("all vertices coincide")
    if not MIN_SPAN <= diag <= MAX_SPAN:
        raise ArcError(f"bounding-box diagonal {diag} outside "
                       f"[{MIN_SPAN:.3g}, {MAX_SPAN:.3g}]")
    min_sep = EPS_TOUCH * diag

    # the edges once: they give the steps and the back-tracking test
    # (a - b is -(b - a) exactly, and hypot ignores sign)
    ex = list(map(sub, xs[1:], xs))
    ey = list(map(sub, ys[1:], ys))
    steps = list(map(math.hypot, ex, ey))
    if min(steps) <= min_sep:
        i = next(i for i, step in enumerate(steps) if step <= min_sep)
        raise DuplicateVertex(f"consecutive vertices coincide near "
                              f"{Point2(xs[i], ys[i])}")
    # a list, not tuple(accumulate(...)): that tuple grows by
    # reallocation, and once freed it stays in the interpreter's free
    # list of its final size, so many small arcs would pile them up
    params = list(accumulate(steps, initial=0.0))

    # the chain's bound from the spans above, as geometry.chain_bound
    # computes it
    turn = _chain_turn(xs, ys, EPS_ORIENT * (dx * dx + dy * dy))
    # adjacent segments may share only the common vertex: no back-tracking,
    # which only edges that point back (a negative dot product) can do
    for i, (ux, uy, wx, wy) in enumerate(zip(ex, ey, ex[1:], ey[1:])):
        if ux * wx + uy * wy < 0.0 and turn(i, i + 1, i + 2) == 0:
            raise SelfIntersecting(f"back-tracking at vertex "
                                   f"{Point2(xs[i + 1], ys[i + 1])}")
    # the sweep's boxes are the peak of a long arc: drop the edges first
    del ex, ey

    hit = first_crossing(xs, ys, turn, min_sep)
    if hit is not None:
        raise SelfIntersecting("segments %d and %d intersect" % hit)
    runs = []
    for i in range(0, len(xs), RUN):
        rx, ry = xs[i:i + RUN], ys[i:i + RUN]
        runs.append((min(rx), max(rx), min(ry), max(ry), rx, ry))
    return PolygonalArc(tuple(xs), tuple(ys), tuple(params), params[-1],
                        diag, tuple(runs))


def build_arc(vertices: Iterable) -> PolygonalArc:
    """Validate a vertex chain and attach cumulative length parameters.

    Raises TooFewVertices, DuplicateVertex or SelfIntersecting on bad
    input.  Consecutive collinear vertices are accepted (they merely
    subdivide a segment); exact back-tracking is rejected as non-simple.

    The bounding-box diagonal d must lie in [MIN_SPAN, MAX_SPAN], else
    ArcError.  Every coordinate difference is at most d, so a cross
    product is at most 2 * d**2, finite for d <= MAX_SPAN =
    sqrt(max float / 2), about 9.5e153.  Consecutive vertices are more
    than EPS_TOUCH * d apart, so the smallest orientation threshold,
    EPS_ORIENT times the squared span of three points two of which are
    consecutive, is at least EPS_ORIENT * (EPS_TOUCH * d)**2, a normal
    float for d >= MIN_SPAN = sqrt(min normal float / (EPS_ORIENT *
    EPS_TOUCH**2)), about 1.5e-139.  Beyond them cross products overflow
    to inf or nan, or thresholds underflow, and a crossing chain can
    pass as simple.

    Two non-adjacent segments intersect when their bounding boxes,
    grown by EPS_TOUCH * diagonal, meet and the tolerant orientation
    test finds them crossing or touching.  When every x-step (or every
    y-step) moves the same way with fl(b - pad) > fl(a + pad), pad the
    growth, no two such boxes meet and no pair needs the test: O(n).
    Else a sort and sweep over the grown boxes finds the candidate
    pairs in O(n log n + k), k the pairs whose grown x-ranges meet; k
    is at most n times the most segments one vertical line meets, so
    the cost is near-linear unless the arc passes over one x-range many
    times, and quadratic at worst (stacked diagonals).
    oracle.pairwise_simple_check is the pairwise reference; it tests
    every pair, certified or not.
    """
    return _checked_arc(vertices, _first_crossing)


def point_at(arc: PolygonalArc, s: float) -> Point2:
    """Point at arc-length parameter s, by linear interpolation."""
    slack = EPS_TOUCH * arc.length
    if s < -slack or s > arc.length + slack:
        raise ParamOutOfRange(f"parameter {s} outside [0, {arc.length}]")
    return Point2(*_point_xy(arc, s))


def _point_xy(arc: PolygonalArc, s: float) -> tuple[float, float]:
    """point_at's x and y at s clamped into [0, length], unchecked."""
    params = arc.params
    s = min(max(s, 0.0), arc.length)
    i = min(bisect_right(params, s) - 1, len(params) - 2)
    a = params[i]
    t = (s - a) / (params[i + 1] - a)
    xs, ys = arc.xs, arc.ys
    return xs[i] + t * (xs[i + 1] - xs[i]), ys[i] + t * (ys[i + 1] - ys[i])
