"""Independent brute-force oracles, slow references, the helpers of
the paper's lemmas and seeded random arc generation.

The projection oracles deliberately avoid the hull and profile
machinery so that agreement between the two routes is meaningful
evidence.  The slow references are the straightforward linear and
quadratic forms of the fast queries (arc validation, touch sets, the
scan ledger and its lookup, the enumeration of triples, the check of
a triple); tests
require the fast forms to return the same values.  The lemma helpers
(a parameter's cross-section, the support line at an angle, the unique
crossing of a continuous tent) state the paper's lemmas in code; only
their tests call them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .arc import (ArcError, PolygonalArc, _checked_arc, _segments_intersect,
                  build_arc, point_at)
from .geometry import (EPS_ANGLE, EPS_ORIENT, EPS_TOUCH, TWO_PI, Point2,
                       canon_angle, ccw_gap, circ_dist, orient)
from .hull import Hull, StraightArc, melkman_hull
from .pairs import (TripleReport, TriplePair, _configurations, _unroll,
                    _verify)
from .profile import SupportProfile, touch_params


# side of the square random_simple_arc draws vertices from; every
# decision is scale-relative, so the size selects nothing
COORDINATE_BOX = 10.0


class GenerationExhausted(RuntimeError):
    """Rejection sampling hit its retry cap without an acceptable arc."""


@dataclass(frozen=True)
class FuzzConfig:
    """Deterministic fuzz campaign settings.

    Trials are independent: the per-trial generator is seeded from
    (seed, trial index), so any subset can run in any order or in
    parallel with identical results.
    """

    trials: int = 100
    seed: int = 42
    vertex_range: tuple[int, int] = (4, 12)
    delta_policy: str = "safe_range"  # safe_range | full_range

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.vertex_range[0] < 3 or self.vertex_range[0] > self.vertex_range[1]:
            raise ValueError(f"bad vertex_range {self.vertex_range}")
        if self.delta_policy not in ("safe_range", "full_range"):
            raise ValueError(f"unknown delta policy {self.delta_policy}")


def oracle_touch_params(arc: PolygonalArc, theta: float) -> tuple[float, ...]:
    """Touch parameters at angle theta by direct vertex projection.

    Projects every vertex on the outward normal (theta - pi/2), keeps
    the vertices within slack of the extreme and returns the smallest
    and largest of their parameters.  No hull, no profile.
    """
    theta = canon_angle(theta)
    nx, ny = math.sin(theta), -math.cos(theta)
    proj = [v.x * nx + v.y * ny for v in arc.vertices]
    cut = max(proj) - EPS_TOUCH * arc.diagonal
    cand = [arc.params[i] for i, p in enumerate(proj) if p >= cut]
    lo, hi = min(cand), max(cand)
    return (lo,) if lo == hi else (lo, hi)


def pairwise_simple_check(vertices: Iterable) -> PolygonalArc:
    """Reference for build_arc: the same checks, with every pair of
    non-adjacent segments tested in (i, j) order; O(n^2)."""

    def first_crossing(pts, pad):
        nseg = len(pts) - 1
        for i in range(nseg):
            for j in range(i + 2, nseg):
                if _segments_intersect(pts[i], pts[i + 1],
                                       pts[j], pts[j + 1], pad):
                    return i, j
        return None

    return _checked_arc(vertices, first_crossing)


def linear_touch_params(profile: SupportProfile,
                        theta: float) -> tuple[float, ...]:
    """Reference for profile.touch_params: a linear search over the
    jumps, then the steps, in index order; O(m) per query."""
    theta = canon_angle(theta)
    for jump in profile.jumps:
        if circ_dist(theta, jump.angle) <= EPS_ANGLE:
            return (jump.low_param, jump.high_param)
    for step in profile.steps:
        if ccw_gap(step.start, theta) < step.width:
            return (step.level,)
    nearest = min(profile.jumps, key=lambda j: circ_dist(theta, j.angle))
    return (nearest.low_param, nearest.high_param)


def quadratic_ledger(profile: SupportProfile, mode: str) -> list[tuple]:
    """Reference for the scan window's rows: each corner level's position
    on the other branch by a linear search, corners ordered by a sort;
    O(m^2)."""
    _, x_lo, x_hi, levels = _unroll(profile, mode)
    m = len(levels)
    k = max(range(m), key=lambda i: levels[i])

    def rise_pos(y: float) -> float:
        for i in range(1, k + 1):
            if levels[i - 1] < y < levels[i]:
                return x_lo[i]
        raise AssertionError(f"level {y} not on the rising branch")

    def fall_pos(y: float) -> float:
        for j in range(k, m):
            nxt = levels[j + 1] if j + 1 < m else levels[0]
            if nxt < y < levels[j]:
                return x_hi[j]
        raise AssertionError(f"level {y} not on the falling branch")

    rows = []
    for i in sorted(range(m), key=lambda i: levels[i]):
        lam = levels[i]
        if i == k:
            left = right = (x_lo[k], x_hi[k])
        elif i == 0:
            left, right = (x_lo[0], x_hi[0]), (x_hi[-1], x_hi[-1])
        elif i < k:
            fp = fall_pos(lam)
            left, right = (x_lo[i], x_hi[i]), (fp, fp)
        else:
            rp = rise_pos(lam)
            left, right = (rp, rp), (x_lo[i], x_hi[i])
        rows.append((lam, *left, *right))
    return rows


def linear_ledger_lookup(rows: list[tuple], delta: float):
    """Reference for the scan's ledger lookup: walk from the last row to
    the first for one whose widths contain delta, and test the widest
    width of every row after the first (the width between its level and
    the one below) for a near tie; O(m)."""
    hit = next((row for row in reversed(rows)
                if row[3] - row[2] <= delta <= row[4] - row[1]), None)
    near_tie = any(abs(delta - (row[4] - row[1])) <= EPS_ANGLE
                   for row in rows[1:])
    return hit, near_tie


def linear_enumerate_triples(profile: SupportProfile,
                             gap: float) -> list[TriplePair]:
    """Reference for pairs.enumerate_triples: every jump wider than the
    slack is paired with the angle gap away on either side, by one touch
    query each; 2m queries per gap."""
    slack = profile.param_slack
    return _configurations(profile, gap, [
        (i, sign) for i, jump in enumerate(profile.jumps)
        if jump.high_param - jump.low_param > slack
        for sign in (1.0, -1.0)])


def _extreme_anchor(arc: PolygonalArc, theta: float) -> Point2:
    # vertex with the largest projection on the outward normal; an
    # independent reconstruction of the support line's position
    nx, ny = math.sin(theta), -math.cos(theta)
    return max(arc.vertices, key=lambda v: v.x * nx + v.y * ny)


def _all_left(theta: float, anchor: Point2, points: Iterable[Point2],
              slack: float) -> bool:
    dx, dy = math.cos(theta), math.sin(theta)
    return all(dx * (v.y - anchor.y) - dy * (v.x - anchor.x) >= -slack
               for v in points)


def _linear_support_check(arc: PolygonalArc, theta: float, p: Point2,
                          s: float, slack: float) -> tuple[Point2, bool]:
    """Reference for pairs._support_check: one pass over every vertex
    for the anchor, one for the left test; s is not read."""
    return (_extreme_anchor(arc, theta),
            _all_left(theta, p, arc.vertices, slack))


def linear_verify_triple(arc: PolygonalArc, pair: TriplePair) -> TripleReport:
    """Reference for pairs.verify_triple: four passes over all n
    vertices, an anchor pass and a left pass per line."""
    return _verify(arc, pair, _linear_support_check)


# ---------------------------------------------------------------------------
# helpers of the paper's lemmas, checked by the tests only


class MalformedFunction(ValueError):
    """Breakpoint input is not strictly unimodal as required."""


@dataclass(frozen=True)
class DirectedLine:
    """Support line: direction angle plus one touch point, with every
    arc vertex on the closed left side."""

    theta: float
    anchor: Point2


def cross_section(profile: SupportProfile, s: float) -> tuple[float, float] | None:
    """Closure of the set of angles whose support line touches parameter s.

    For a corner level this is the corner's step (a circular interval
    of width < pi, returned as a (start, end) pair); for any other
    parameter it is empty (None).
    """
    slack = profile.param_slack
    for step in profile.steps:
        if abs(step.level - s) <= slack:
            return (step.start, step.end)
    return None


def support_line(profile: SupportProfile, arc: PolygonalArc,
                 theta: float) -> DirectedLine:
    """Support line of angle theta, anchored at the touch point with the
    smallest parameter."""
    theta = canon_angle(theta)
    anchor = point_at(arc, min(touch_params(profile, theta)))
    if not _all_left(theta, anchor, arc.vertices, EPS_TOUCH * arc.diagonal):
        raise ValueError(f"a vertex falls on the right of the support line "
                         f"at {theta}")
    return DirectedLine(theta, anchor)


def unique_crossing(breakpoints: Sequence[tuple[float, float]],
                    delta: float) -> float:
    """Unique x with f(x) == f(x + delta) for a strictly unimodal
    piecewise-linear f on [0, 2*pi] with f(0) = f(2*pi) = 0 and peak 1.

    Solves by bisection on the level y: the spread between the falling
    and rising branch inverses decreases continuously from 2*pi to 0, so
    it crosses delta exactly once.
    """
    if not (0.0 < delta < TWO_PI):
        raise MalformedFunction(f"delta {delta} outside (0, 2*pi)")
    xs = [float(x) for x, _ in breakpoints]
    ys = [float(y) for _, y in breakpoints]
    if len(xs) < 3:
        raise MalformedFunction("need at least 3 breakpoints")
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise MalformedFunction("breakpoint abscissae must strictly increase")
    if abs(xs[0]) > 1e-12 or abs(xs[-1] - TWO_PI) > 1e-12:
        raise MalformedFunction("domain must be [0, 2*pi]")
    if abs(ys[0]) > 1e-12 or abs(ys[-1]) > 1e-12:
        raise MalformedFunction("endpoints must sit at level 0")
    peak = max(range(len(ys)), key=lambda i: ys[i])
    if peak in (0, len(ys) - 1) or abs(ys[peak] - 1.0) > 1e-12:
        raise MalformedFunction("peak must be 1 at an interior breakpoint")
    rising = ys[:peak + 1]
    falling = ys[peak:]
    if any(b <= a for a, b in zip(rising, rising[1:])):
        raise MalformedFunction("not strictly increasing before the peak")
    if any(b >= a for a, b in zip(falling, falling[1:])):
        raise MalformedFunction("not strictly decreasing after the peak")

    def inv(branch_x: list[float], branch_y: list[float], y: float) -> float:
        # branch_y strictly monotone; linear interpolation of the inverse
        if branch_y[0] <= branch_y[-1]:
            pairs = list(zip(branch_y, branch_x))
        else:
            pairs = list(zip(reversed(branch_y), reversed(branch_x)))
        for (y0, x0), (y1, x1) in zip(pairs, pairs[1:]):
            if y0 <= y <= y1:
                return x0 + (y - y0) * (x1 - x0) / (y1 - y0)
        return pairs[-1][1]

    rise_x, rise_y = xs[:peak + 1], ys[:peak + 1]
    fall_x, fall_y = xs[peak:], ys[peak:]

    def spread(y: float) -> float:
        return inv(fall_x, fall_y, y) - inv(rise_x, rise_y, y)

    lo, hi = 0.0, 1.0  # spread(0) = 2*pi, spread(1) = 0
    while hi - lo > 1e-15:
        mid = 0.5 * (lo + hi)
        if spread(mid) > delta:
            lo = mid
        else:
            hi = mid
    y = 0.5 * (lo + hi)
    return inv(rise_x, rise_y, y)


# angles per turn swept by grid_scan_pairs
GRID_POINTS = 100_000


def grid_scan_pairs(arc: PolygonalArc, gap: float) -> list[tuple[float, float]]:
    """Dense sweep locating strict triple configurations at a given gap.

    For each of GRID_POINTS evenly spaced angles theta, the projection
    touch sets at theta and theta + gap are formed; a hit is a grid
    angle where one set spans two parameters with a member of the other
    strictly inside.
    Consecutive hits cluster into one candidate pair (theta, theta+gap).

    The touch slack is widened to grid scale: a jump is only visible
    from a grid point when the runner-up corner still projects within
    the slack, which needs roughly diagonal * grid step.  The
    eps-scale slack used elsewhere would miss every jump.
    """
    import numpy as np  # only this oracle needs it; keeps the CLI start light

    k = GRID_POINTS
    thetas = np.arange(k) * (TWO_PI / k)
    slack = arc.diagonal * max(10.0 * EPS_TOUCH, 0.75 * (TWO_PI / k))

    def touch_bounds(angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # two passes over the vertices with per-angle vectors only: the
        # extreme projection, then the parameters projecting near it
        nx, ny = np.sin(angles), -np.cos(angles)
        proj, term = np.empty_like(nx), np.empty_like(nx)

        def project(v: Point2) -> np.ndarray:
            np.multiply(v.x, nx, out=proj)
            np.multiply(v.y, ny, out=term)
            return np.add(proj, term, out=proj)

        top = np.full_like(nx, -np.inf)
        for v in arc.vertices:
            np.maximum(top, project(v), out=top)
        cut = top - slack
        lo, hi = np.full_like(nx, np.inf), np.full_like(nx, -np.inf)
        near = np.empty(nx.shape, dtype=bool)
        for v, s in zip(arc.vertices, arc.params):
            np.greater_equal(project(v), cut, out=near)
            np.minimum(lo, s, out=lo, where=near)
            np.maximum(hi, s, out=hi, where=near)
        return lo, hi

    lo1, hi1 = touch_bounds(thetas)
    lo2, hi2 = touch_bounds(thetas + gap)
    margin = EPS_TOUCH * arc.length

    def strict_inside(v, lo, hi):
        return (lo + margin < v) & (v < hi - margin)

    hits = (((hi1 - lo1 > margin)
             & (strict_inside(lo2, lo1, hi1) | strict_inside(hi2, lo1, hi1)))
            | ((hi2 - lo2 > margin)
               & (strict_inside(lo1, lo2, hi2) | strict_inside(hi1, lo2, hi2))))

    idx = np.flatnonzero(hits)
    if idx.size == 0:
        return []
    clusters = []
    run = [idx[0]]
    for i in idx[1:]:
        if i == run[-1] + 1:
            run.append(i)
        else:
            clusters.append(run)
            run = [i]
    clusters.append(run)
    # wrap-around: join a cluster ending at k-1 with one starting at 0
    if len(clusters) > 1 and clusters[0][0] == 0 and clusters[-1][-1] == k - 1:
        clusters[0] = clusters.pop() + clusters[0]

    res = TWO_PI / k
    pairs = []
    for run in clusters:
        mid = float(thetas[run[len(run) // 2]])
        pairs.append((canon_angle(mid), canon_angle(mid + gap)))
    # at gap pi the same unordered pair is seen from both of its angles
    deduped: list[tuple[float, float]] = []
    for a, b in pairs:
        dup = any(
            (min(abs(a - c), TWO_PI - abs(a - c)) <= 2 * res
             and min(abs(b - d), TWO_PI - abs(b - d)) <= 2 * res)
            or (min(abs(a - d), TWO_PI - abs(a - d)) <= 2 * res
                and min(abs(b - c), TWO_PI - abs(b - c)) <= 2 * res)
            for c, d in deduped)
        if not dup:
            deduped.append((a, b))
    return deduped


def monotone_chain_hull(points: list[Point2]) -> list[int]:
    """Andrew's monotone-chain hull: counterclockwise corner indices.

    Strict corners only; collinear points are dropped.  This is the
    reference against which the online hull is checked.
    """
    n = len(points)
    if n < 3:
        raise StraightArc("need at least 3 points")
    order = sorted(range(n), key=lambda i: (points[i].x, points[i].y))

    def half(idxs):
        chain: list[int] = []
        for i in idxs:
            while (len(chain) >= 2
                   and orient(points[chain[-2]], points[chain[-1]],
                              points[i]) <= 0):
                chain.pop()
            chain.append(i)
        return chain

    lower = half(order)
    upper = half(reversed(order))
    cycle = lower[:-1] + upper[:-1]
    if len(cycle) < 3:
        raise StraightArc("all points collinear within tolerance")
    return cycle


def _certainly_crosses(xs: list[float], ys: list[float]) -> bool:
    """True when two non-adjacent segments of the chain xs, ys cross
    properly: all four cross products, each orient's expression, lie
    beyond EPS_ORIENT times the squared span of the whole chain."""
    dx = max(xs) - min(xs)
    dy = max(ys) - min(ys)
    thr = EPS_ORIENT * (dx * dx + dy * dy)
    for i in range(len(xs) - 3):
        px, py, qx, qy = xs[i], ys[i], xs[i + 1], ys[i + 1]
        ux, uy = qx - px, qy - py
        for j in range(i + 2, len(xs) - 1):
            rx, ry, sx, sy = xs[j], ys[j], xs[j + 1], ys[j + 1]
            c1 = ux * (ry - py) - uy * (rx - px)
            c2 = ux * (sy - py) - uy * (sx - px)
            if not ((c1 > thr and c2 < -thr) or (c1 < -thr and c2 > thr)):
                continue
            vx, vy = sx - rx, sy - ry
            c3 = vx * (py - ry) - vy * (px - rx)
            c4 = vx * (qy - ry) - vy * (qx - rx)
            if (c3 > thr and c4 < -thr) or (c3 < -thr and c4 > thr):
                return True
    return False


def random_simple_arc(config: FuzzConfig, trial_index: int,
                      max_rejections: int = 10_000) -> PolygonalArc:
    """Deterministic rejection-sampled simple, non-straight arc.

    Vertices are drawn uniformly in the COORDINATE_BOX square;
    candidates that fail validation, or that melkman_hull rejects as
    straight, are redrawn.  The same (seed, trial_index) always yields
    the same arc.

    A draw whose raw coordinates already show a proper crossing is
    redrawn before build_arc sees it.  The whole chain's squared span is
    at least the three-point span orient scales its tolerance by, so
    such a draw is one build_arc rejects, and the filter changes no
    accepted arc.
    """
    return _arc_and_hull(config, trial_index, max_rejections)[0]


def _arc_and_hull(config: FuzzConfig, trial_index: int,
                  max_rejections: int = 10_000) -> tuple[PolygonalArc, Hull]:
    """random_simple_arc's arc and the hull that showed it is not
    straight, so a fuzz trial needs no second melkman_hull call."""
    rng = random.Random(f"{config.seed}:{trial_index}")
    lo_n, hi_n = config.vertex_range
    box = COORDINATE_BOX
    for _ in range(max_rejections):
        n = rng.randint(lo_n, hi_n)
        # x, y per vertex; box * random() is the float rng.uniform(0.0,
        # box) returns, without its call
        coords = [box * rng.random() for _ in range(2 * n)]
        xs, ys = coords[0::2], coords[1::2]
        if _certainly_crosses(xs, ys):
            continue
        try:
            arc = build_arc([Point2(x, y) for x, y in zip(xs, ys)])
        except ArcError:
            continue
        try:
            return arc, melkman_hull(arc)
        except StraightArc:
            continue
    raise GenerationExhausted(
        f"no simple arc after {max_rejections} draws (trial {trial_index})")


# distance kept from either end of the safe range by the safe_range policy
SAFE_MARGIN = 1e-3


def draw_delta(config: FuzzConfig, trial_index: int, mode: str,
               safe_range: tuple[float, float]) -> float:
    """Per-trial difference draw under the configured policy."""
    rng = random.Random(f"{config.seed}:{trial_index}:delta:{mode}")
    if config.delta_policy == "safe_range":
        lo, hi = safe_range[0] + SAFE_MARGIN, safe_range[1] - SAFE_MARGIN
        if hi <= lo:  # extremely wide corner steps; fall back to the middle
            return 0.5 * (safe_range[0] + safe_range[1])
        return rng.uniform(lo, hi)
    return rng.uniform(1e-6, TWO_PI - 1e-6)
