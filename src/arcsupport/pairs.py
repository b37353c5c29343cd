"""Level scans for support-line pairs with triple touch points.

Both scans unroll the circle into a window of width one turn and read
the profile as a staircase.  The mountain scan anchors the window at
the minimum step, where the staircase rises to the apex and falls back;
the width of the staircase at level s, measured from the rising branch
to the falling branch, decreases from a full turn down to the apex
width as s climbs.  Finding the level whose width interval contains the
requested angle difference recovers the two support angles, and the
touch sets at those angles yield the triple: the line carrying two
parameters is a jump line, the other contributes the middle parameter.

The valley scan is the same machinery run upside down: anchor at the
apex step, scan the widths of the valley between two consecutive peaks
upward from the bottom.  A valley pair found at requested difference
delta spans delta across the minimum step, so the gap between its two
angles read the other way around the circle is 2*pi - delta; that
complementary gap is what the scan reports as realized.

Reading the ledger at a fixed angle difference is a rotating caliper
(Toussaint, MELECON 1983).  Each mode's ledger holds one row per hull
corner, in ascending level: the widths the staircase spans at that
corner's level.  It is built once per profile, in O(m) for m corners,
on the first scan, and kept on the profile; every scan after that
reads it with one bisection, O(log m).

The same caliper carried over every angle difference at once is the
gap chart: for each jump, the gaps at which some level of its span lies
the gap away on either side, cut into pieces that each list their
candidate configurations.  It is built once per profile, in
O(m log m), on the first enumeration, and kept on the profile; each
enumerate_triples after that costs O(log m + k) for k candidates.

verify_triple checks a pair against the raw vertices, not the profile.
It reads them in runs of 16 with their bounding boxes (arc.run_index,
built once per arc) and skips each run whose box corner shows that it
cannot change the answer, the broad phase build_arc also uses.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable

from .arc import RUN, PolygonalArc, point_at, run_index
from .geometry import (EPS_ANGLE, EPS_TOUCH, TWO_PI, Point2, canon_angle,
                       ccw_gap, circ_dist)
from .profile import _ROUNDING, SupportProfile, touch_params

MOUNTAIN = "mountain"
VALLEY = "valley"


class InvalidDelta(ValueError):
    """Requested angle difference outside (0, 2*pi)."""


@dataclass(frozen=True)
class TriplePair:
    """Result of a scan or an enumeration.

    theta_double carries gamma(s1) and gamma(s3); theta_single carries
    gamma(s2).  realized_gap is the counterclockwise gap between the two
    angles that matches the claimed difference of the respective scan.
    covers_apex / covers_min record which extreme step the gap side of
    the pair spans (used to classify enumerated configurations).
    """

    mode: str
    theta_double: float
    theta_single: float
    s1: float
    s2: float
    s3: float
    strict: bool
    requested_delta: float
    realized_gap: float
    guaranteed: bool = True
    near_tie: bool = False
    covers_apex: bool = False
    covers_min: bool = False

    @property
    def triple(self) -> tuple[float, float, float]:
        return (self.s1, self.s2, self.s3)


@dataclass(frozen=True)
class TripleReport:
    """Outcome of verify_triple, one flag per check."""

    double_touches: bool
    single_touches: bool
    left_side: bool
    ordering: bool

    @property
    def passed(self) -> bool:
        return (self.double_touches and self.single_touches
                and self.left_side and self.ordering)


@dataclass(frozen=True)
class CorollaryResult:
    identical: bool
    mountain: TriplePair
    valley: TriplePair


# ---------------------------------------------------------------------------
# window construction and the width ledger

@dataclass(frozen=True)
class _Window:
    anchor: float                 # angle at window coordinate 0
    rows: tuple[tuple, ...]       # one per corner, ascending by build level
    neg_hi: tuple[float, ...]     # minus each row's widest width: ascending


def _unroll(profile: SupportProfile, mode: str):
    """Window coordinates of the steps read from the mode's anchor step:
    (anchor angle, step starts, step ends, build levels)."""
    m = len(profile.steps)
    start = 0 if mode == MOUNTAIN else profile.apex_index
    sign = 1.0 if mode == MOUNTAIN else -1.0
    x_lo, x_hi, levels = [], [], []
    x = 0.0
    for i in range(m):
        step = profile.steps[(start + i) % m]
        x_lo.append(x)
        x += step.width
        x_hi.append(x)
        levels.append(sign * step.level)
    return profile.steps[start].start, x_lo, x_hi, levels


def _build_window(profile: SupportProfile, mode: str) -> _Window:
    anchor, x_lo, x_hi, levels = _unroll(profile, mode)
    rows = _build_rows(x_lo, x_hi, levels)
    # tuples from lists, not generators: CPython sizes those exactly, so
    # they reuse its free lists instead of refilling them per profile
    return _Window(anchor, tuple(rows),
                   tuple([l_lo - r_hi for _, l_lo, _, _, r_hi in rows]))


def _window(profile: SupportProfile, mode: str) -> _Window:
    """The profile's window for mode, built on first use and kept on the
    profile: each later scan of the same profile reuses it."""
    win = profile._indexes.get(mode)
    if win is None:
        win = profile._indexes[mode] = _build_window(profile, mode)
    return win


def _build_rows(x_lo, x_hi, levels) -> list[tuple]:
    """Ledger of a rise-then-fall staircase in O(m): one row per corner,
    ascending by level.

    A row (level, left_lo, left_hi, right_lo, right_hi) holds the window
    positions of the rising and falling branch at the corner's level:
    the corner's own branch sweeps its whole step, the other sits at a
    jump.  Its widths run from right_lo - left_hi to right_hi - left_lo.
    Between two adjacent corner levels both branches sit at jumps, so
    the width there is one value: the upper row's widest, bitwise the
    lower row's narrowest.  The rows thus tile the full width range.

    levels[0] must be the minimum.  A two-pointer merge of the rising
    branch (ascending) and the falling branch (read backwards, also
    ascending) visits the corners by level; the two pointers are also
    the branches' positions at the level in hand: the rising branch at
    the start of its next corner's step, the falling branch at the end
    of its next corner's step.
    """
    m = len(levels)
    k = max(range(m), key=lambda i: levels[i])
    end = x_hi[m - 1]  # corner 0 rises; the window's far end falls to it
    rows = [(levels[0], x_lo[0], x_hi[0], end, end)]
    r, f = 1, m - 1  # lowest corner above the level on each branch
    while r < k or f > k:
        if f == k or (r < k and levels[r] < levels[f]):
            rows.append((levels[r], x_lo[r], x_hi[r], x_hi[f], x_hi[f]))
            r += 1
        else:
            rows.append((levels[f], x_lo[r], x_lo[r], x_lo[f], x_hi[f]))
            f -= 1
    rows.append((levels[k], x_lo[k], x_hi[k], x_lo[k], x_hi[k]))
    return rows


def _lookup(win: _Window, delta: float):
    """The row the scan reads at delta, and whether delta lies within
    eps_angle of a width between two corner levels (the widest of each
    row after the first).  Widths shrink along the rows and each row's
    narrowest is the next row's widest, so one bisection of neg_hi,
    O(log m), finds both: the last row whose widest reaches delta, and
    the between-level widths either side of delta.  No row contains
    delta only when rounding puts it beyond the ledger; that returns
    None."""
    i = bisect_right(win.neg_hi, -delta)
    hit = win.rows[i - 1] if i else None
    if hit is not None and delta < hit[3] - hit[2]:  # below the apex row
        hit = None
    near_tie = any(abs(delta + n) <= EPS_ANGLE
                   for n in win.neg_hi[max(i - 1, 1):max(i, 1) + 1])
    return hit, near_tie


def _scan(profile: SupportProfile, mode: str, delta: float):
    """Find window positions x_left < x_right with x_right - x_left ==
    delta and a shared level certificate: the row nearest the
    shared-step end (apex for the mountain, bottom for the valley) whose
    width interval contains delta.  Both positions are clamped into the
    row's branch intervals, left first; the certificate is the row's
    level."""
    win = _window(profile, mode)
    hit, near_tie = _lookup(win, delta)
    if hit is None:  # requested gap beyond the ledger by rounding: clamp
        hit = win.rows[0]
    level, l_lo, l_hi, r_lo, r_hi = hit
    x_l = min(max(r_lo - delta, l_lo), l_hi)
    x_r = min(max(x_l + delta, r_lo), r_hi)
    if mode == VALLEY:
        level = -level
    theta_left = canon_angle(win.anchor + x_l)
    theta_right = canon_angle(win.anchor + x_r)
    return theta_left, theta_right, level, near_tie


def _assign_roles(profile: SupportProfile, theta_left: float,
                  theta_right: float, certificate: float):
    """Split the two angles into double and single lines.

    The double line must carry two parameters, so its touch set is a
    jump span; the single line contributes whichever of its touch
    parameters lands inside that span.  Strict assignments win; the
    remaining ties break toward the widest double span and smallest s2.
    """
    slack = profile.param_slack
    t_left = touch_params(profile, theta_left)
    t_right = touch_params(profile, theta_right)
    sides = ((theta_left, t_left), (theta_right, t_right))
    cands = []
    for (theta_d, td), (theta_s, ts) in (sides, sides[::-1]):
        s1, s3 = td[0], td[-1]
        if s3 - s1 <= slack:  # one parameter within the slack: no jump
            continue
        for s2 in ts:
            if s1 - slack <= s2 <= s3 + slack:
                strict = (s1 + slack < s2 < s3 - slack)
                s2c = min(max(s2, s1), s3)
                cands.append((strict, s3 - s1, theta_d, theta_s, s1, s2c, s3))
    if cands:
        cands.sort(key=lambda c: (not c[0], -c[1], c[5]))
        strict, _, theta_d, theta_s, s1, s2, s3 = cands[0]
        return theta_d, theta_s, s1, s2, s3, strict
    # both touch sets degenerate: report the certificate level flatly on
    # the wider span, theta_left on a tie
    wide, td, other = theta_left, t_left, theta_right
    if t_right[-1] - t_right[0] > t_left[-1] - t_left[0]:
        wide, td, other = theta_right, t_right, theta_left
    s2 = min(max(certificate, td[0]), td[-1])
    return wide, other, td[0], s2, td[-1], False


def _gap_side_covers(start: float, gap: float, step_start: float,
                     step_width: float) -> bool:
    """Does the ccw arc of length gap starting at start contain the
    whole step [step_start, step_start + step_width]?"""
    off = ccw_gap(start, step_start)
    if off > TWO_PI - EPS_ANGLE:
        off = 0.0
    return off + step_width <= gap + EPS_ANGLE


def _find_pair(profile: SupportProfile, delta: float, mode: str) -> TriplePair:
    if not (0.0 < delta < TWO_PI):
        raise InvalidDelta(f"angle difference {delta} outside (0, 2*pi)")
    lo, hi = safe_delta_range(profile, mode)
    guaranteed = lo <= delta <= hi

    theta_left, theta_right, level, near_tie = _scan(profile, mode, delta)
    theta_d, theta_s, s1, s2, s3, strict = _assign_roles(
        profile, theta_left, theta_right, level)

    if mode == MOUNTAIN:
        realized = ccw_gap(theta_left, theta_right)
    else:
        realized = ccw_gap(theta_right, theta_left)

    return TriplePair(mode, theta_d, theta_s, s1, s2, s3, strict,
                      requested_delta=delta, realized_gap=realized,
                      guaranteed=guaranteed, near_tie=near_tie,
                      covers_apex=(mode == MOUNTAIN),
                      covers_min=(mode == VALLEY))


def find_pair_mountain(profile: SupportProfile, arc: PolygonalArc,
                       delta: float) -> TriplePair:
    """Pair of support lines whose angle difference, measured across the
    apex of the profile, is delta.

    Guaranteed strict for delta in safe_delta_range (from the apex step
    width to 2*pi minus the minimum step width); outside it the result
    is flagged guaranteed=False and may be degenerate.
    """
    return _find_pair(profile, delta, MOUNTAIN)


def find_pair_valley(profile: SupportProfile, arc: PolygonalArc,
                     delta: float) -> TriplePair:
    """Pair of support lines whose angle difference measured across the
    minimum step is delta; the complementary gap 2*pi - delta between
    the two angles is reported as realized_gap.

    Guaranteed strict for delta in safe_delta_range (from the minimum
    step width to 2*pi minus the apex step width).
    """
    return _find_pair(profile, delta, VALLEY)


def safe_delta_range(profile: SupportProfile, mode: str) -> tuple[float, float]:
    """Range of differences, ends included, for which the scan yields a
    strict triple on every arc; the pair's guaranteed flag is delta's
    membership in it."""
    if mode == MOUNTAIN:
        return (profile.apex_step.width, TWO_PI - profile.min_step.width)
    return (profile.min_step.width, TWO_PI - profile.apex_step.width)


def pairs_identical(profile: SupportProfile, m: TriplePair,
                    v: TriplePair) -> bool:
    """Do two pairs agree as unordered angle sets with matching triples
    and the same strictness?"""
    slack = profile.param_slack

    def angles_match(a1, a2, b1, b2):
        return ((circ_dist(a1, b1) <= EPS_ANGLE
                 and circ_dist(a2, b2) <= EPS_ANGLE)
                or (circ_dist(a1, b2) <= EPS_ANGLE
                    and circ_dist(a2, b1) <= EPS_ANGLE))

    return (angles_match(m.theta_double, m.theta_single,
                         v.theta_double, v.theta_single)
            and all(abs(a - b) <= slack for a, b in zip(m.triple, v.triple))
            and m.strict == v.strict)


def corollary_check(profile: SupportProfile, arc: PolygonalArc,
                    delta: float) -> CorollaryResult:
    """Run both scans at the same difference and compare the pairs."""
    m = find_pair_mountain(profile, arc, delta)
    v = find_pair_valley(profile, arc, delta)
    return CorollaryResult(pairs_identical(profile, m, v), m, v)


# ---------------------------------------------------------------------------
# the gap chart: the candidates of every gap at once

# how far the chart widens each candidate's gaps beyond the span it
# reads: eps_angle, the reach of touch_params around a step, plus room
# for the rounding of psi, of the gaps' ends and of circ_dist, each a
# few ulps of 2*pi
_CHART_PAD = EPS_ANGLE + 4 * _ROUNDING


@dataclass(frozen=True)
class _Chart:
    breaks: tuple[float, ...]     # ascending, from 0.0 to 2*pi
    cands: tuple[tuple, ...]      # (jump, sign)s of [breaks[k], breaks[k+1])


def _build_chart(profile: SupportProfile) -> _Chart:
    """The candidates enumerate_triples tries at each gap, O(m log m).

    A candidate (jump index i, sign) pairs jump i with the angle
    psi = a_i + sign * gap; it yields a configuration only when the
    touch set at psi holds a level strictly inside the jump's span
    beyond the slack.  Those levels lie on the branch of the staircase
    opposite the jump's own, where they are one run of steps, found by
    bisection.  touch_params at psi returns a level only within
    eps_angle of that level's step, so a candidate's gaps are those
    that put psi over its run, widened by _CHART_PAD.  The chart cuts
    [0, 2*pi] at the ends of these gap intervals and lists, per piece,
    the candidates covering it in jump, then sign (+ before -) order.
    A query bisects the cuts.
    """
    slack = profile.param_slack
    steps = profile.steps
    k = profile.apex_index
    rise = [s.level for s in steps[:k + 1]]
    fall = [-s.level for s in steps[k + 1:]]  # negated: ascending too
    parts = []
    for i, jump in enumerate(profile.jumps):
        lo, hi = jump.low_param, jump.high_param
        if hi - lo <= slack:
            continue
        low, high = lo + slack, hi - slack
        # levels rise on steps 0..k, then fall back to step 0: a rising
        # jump's span holds falling levels only, any other jump's span
        # rising levels only
        if 0 < i <= k:
            s = k + 1 + bisect_right(fall, -high)
            e = k + 1 + bisect_left(fall, -low)
        else:
            s, e = bisect_right(rise, low), bisect_left(rise, high)
        # no level inside; when hi - lo <= 2 * slack, low >= high and
        # the two bisections can cross (s > e)
        if s >= e:
            continue
        a, first, last = jump.angle, steps[s].start, steps[e - 1].end
        for sign, x, y in ((1.0, ccw_gap(a, first), ccw_gap(a, last)),
                           (-1.0, ccw_gap(last, a), ccw_gap(first, a))):
            x, y = x - _CHART_PAD, y + _CHART_PAD
            parts.append((max(x, 0.0), min(y, TWO_PI), (i, sign)))
            if x < 0.0:
                parts.append((x + TWO_PI, TWO_PI, (i, sign)))
            if y > TWO_PI:
                parts.append((0.0, y - TWO_PI, (i, sign)))
    breaks = sorted({0.0, TWO_PI, *[p[0] for p in parts],
                     *[p[1] for p in parts]})
    pos = {b: j for j, b in enumerate(breaks)}
    cands: list[list] = [[] for _ in breaks[1:]]
    for x, y, cand in parts:  # in candidate order
        for piece in cands[pos[x]:pos[y]]:
            if not piece or piece[-1] != cand:
                piece.append(cand)
    return _Chart(tuple(breaks), tuple([tuple(c) for c in cands]))


def _gap_chart(profile: SupportProfile) -> _Chart:
    """The profile's gap chart, built on first use and kept on the
    profile."""
    chart = profile._indexes.get("gaps")
    if chart is None:
        chart = profile._indexes["gaps"] = _build_chart(profile)
    return chart


def enumerate_triples(profile: SupportProfile, arc: PolygonalArc,
                      gap: float) -> list[TriplePair]:
    """Every strict triple configuration whose two support angles are a
    counterclockwise gap apart (in either reading of the pair).

    The double line touches two parameters, so it must be a jump line;
    candidates are the jump angles paired with the angle gap away on
    either side, read off the gap chart by one bisection.  Each
    surviving configuration records whether its gap side spans the apex
    step or the minimum step.
    """
    if not (0.0 < gap < TWO_PI):
        raise InvalidDelta(f"gap {gap} outside (0, 2*pi)")
    chart = _gap_chart(profile)
    return _configurations(
        profile, gap, chart.cands[bisect_right(chart.breaks, gap) - 1])


def _configurations(profile: SupportProfile, gap: float,
                    cands: Iterable[tuple]) -> list[TriplePair]:
    """The configurations at gap of the (jump index, sign) candidates,
    pairing jump i with the angle psi = a_i + sign * gap, in the order
    enumerate_triples returns them."""
    slack = profile.param_slack
    apex = profile.apex_step
    mins = profile.min_step
    found: dict[tuple, TriplePair] = {}
    for i, sign in cands:
        jump = profile.jumps[i]
        lo, hi = jump.low_param, jump.high_param
        psi = canon_angle(jump.angle + sign * gap)
        side_start = jump.angle if sign > 0 else psi
        for s2 in touch_params(profile, psi):
            if not (lo + slack < s2 < hi - slack):
                continue
            covers_apex = _gap_side_covers(side_start, gap,
                                           apex.start, apex.width)
            covers_min = _gap_side_covers(side_start, gap,
                                          mins.start, mins.width)
            key = (round(jump.angle, 9), round(psi, 9), s2)
            prev = found.get(key)
            if prev is not None:
                covers_apex = covers_apex or prev.covers_apex
                covers_min = covers_min or prev.covers_min
            found[key] = TriplePair(
                "enumerated", jump.angle, psi, lo, s2, hi, strict=True,
                requested_delta=gap, realized_gap=gap,
                covers_apex=covers_apex, covers_min=covers_min)
    anchor = profile.min_step.start
    return sorted(found.values(),
                  key=lambda c: (ccw_gap(anchor, c.theta_double),
                                 ccw_gap(anchor, c.theta_single), c.s2))


def jump_to_jump_gaps(profile: SupportProfile) -> list[float]:
    """All pairwise ccw gaps between jump angles; differences within
    tolerance of one of these are tie-prone and skipped by uniqueness
    campaigns."""
    angles = [j.angle for j in profile.jumps]
    out = []
    for a in angles:
        for b in angles:
            if a != b:
                out.append(ccw_gap(a, b))
    return sorted(out)


def _line_distance(theta: float, anchor: Point2, p: Point2) -> float:
    dx, dy = math.cos(theta), math.sin(theta)
    return abs(dx * (p.y - anchor.y) - dy * (p.x - anchor.x))


def _support_check(arc: PolygonalArc, theta: float, p: Point2, s: float,
                   slack: float) -> tuple[Point2, bool]:
    """The line at theta read off the arc's vertices: the first vertex
    of largest projection on the outward normal (sin theta, -cos theta),
    which re-derives the support line's position, and whether every
    vertex v lies on the closed left of the line through p, that is
    g(v) = cos theta * (v.y - p.y) - sin theta * (v.x - p.x) >= -slack.

    One pass over the runs of run_index(arc).  The corner of a run's box
    farthest along the normal, (x_hi if sin theta >= 0 else x_lo,
    y_lo if cos theta >= 0 else y_hi), has the largest projection and
    the smallest g of any point in the box, and so in floating point
    too: rounding is monotone (a <= b gives fl(a) <= fl(b), and
    fl(a + b), fl(a - b) and fl(c * a) are monotone in a), so the
    corner's value, computed by the very expression the vertices use,
    bounds the computed value of every vertex in the run.  The best
    projection starts at the vertex at parameter s, the pair's own touch
    point, and a run is read only when its corner reaches the best so
    far or lies beyond -slack.  A skipped run holds no vertex of the
    largest projection and none on the right, so the anchor (the first
    of equals, as max returns it) and the flag are bitwise those of a
    pass over every vertex.
    """
    dx, dy = math.cos(theta), math.sin(theta)
    px, py = p.x, p.y
    ny = -dx  # the normal is (dy, ny)
    lim = -slack
    k = bisect_right(arc.params, s, 1) - 1  # the vertex at or before s
    v = arc.vertices[k]
    best = v.x * dy + v.y * ny
    left = True
    start = 0
    # where in a run's tuple the corner's x and y are
    ix, iy = (1 if dy >= 0.0 else 0), (2 if dx >= 0.0 else 3)
    for run in run_index(arc):
        cx, cy = run[ix], run[iy]
        if cx * dy + cy * ny >= best:
            fs = [x * dy + y * ny for x, y in zip(run[4], run[5])]
            f = max(fs)  # every value before the first f is below it
            if f >= best:
                j = start + fs.index(f)
                if f > best or j < k:
                    best, k = f, j
        if left and not (dx * (cy - py) - dy * (cx - px) >= lim):
            left = all(dx * (y - py) - dy * (x - px) >= lim
                       for x, y in zip(run[4], run[5]))
        start += RUN
    return arc.vertices[k], left


def _verify(arc: PolygonalArc, pair: TriplePair, check) -> TripleReport:
    """The report of verify_triple, with check(arc, theta, p, s, slack)
    giving the anchor and the left flag of the line at theta through p,
    the point at its touch parameter s."""
    dist_slack = EPS_TOUCH * arc.diagonal
    param_slack = EPS_TOUCH * arc.length
    p1 = point_at(arc, min(max(pair.s1, 0.0), arc.length))
    p2 = point_at(arc, min(max(pair.s2, 0.0), arc.length))
    p3 = point_at(arc, min(max(pair.s3, 0.0), arc.length))
    d_anchor, d_left = check(arc, pair.theta_double, p1, pair.s1, dist_slack)
    s_anchor, s_left = check(arc, pair.theta_single, p2, pair.s2, dist_slack)

    double_ok = (_line_distance(pair.theta_double, d_anchor, p1) <= dist_slack
                 and _line_distance(pair.theta_double, d_anchor, p3) <= dist_slack)
    single_ok = _line_distance(pair.theta_single, s_anchor, p2) <= dist_slack
    if pair.strict:
        order_ok = (pair.s1 + param_slack < pair.s2 < pair.s3 - param_slack)
    else:
        order_ok = (pair.s1 <= pair.s2 + param_slack
                    and pair.s2 <= pair.s3 + param_slack)
    return TripleReport(double_ok, single_ok, d_left and s_left, order_ok)


def verify_triple(arc: PolygonalArc, pair: TriplePair) -> TripleReport:
    """Check a pair against the defining property, without the profile.

    (a) gamma(s1) and gamma(s3) lie on the support line at theta_double,
    (b) gamma(s2) lies on the support line at theta_single, both with
    the line position re-derived from the raw vertex projections;
    (c) every vertex is on the closed left of the lines through the
    claimed touch points; (d) the parameters are ordered, strictly so
    when the pair says strict.

    (a) to (c) take one fused pass per line over the arc's vertices in
    runs of RUN (_support_check).  A run's box corner bounds the
    computed projections and left distances of all its vertices,
    because rounding is monotone, so the runs that cannot hold the
    extreme vertex or a vertex on the right are skipped, and the report
    is bitwise that of four passes over every vertex
    (oracle.linear_verify_triple).  Cost: an O(n) run index, built once
    per arc, then O(n/RUN + RUN*k) per call, k the number of runs read.
    """
    return _verify(arc, pair, _support_check)
