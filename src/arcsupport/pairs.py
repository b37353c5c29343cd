"""Support-line pairs with triple touch points, read off the profile.

A pair at angle difference delta is a jump line, which touches the arc
at two parameters s1 < s3, and a support line delta away whose touch
parameter s2 lies between them.  Its kind is the extreme step its gap
side spans: the apex step for a mountain pair, the minimum step for a
valley pair.  A valley pair found at requested difference delta spans
delta across the minimum step, so the gap between its two angles read
the other way around the circle is 2*pi - delta; that complementary
gap is what find_pair reports as realized.

find_pair answers as the level scan does (tests/reference.py keeps the
scan as its oracle).  The scan unrolls the circle into a window one
turn wide, read from the mode's anchor step (the minimum step for a
mountain pair; the apex step, levels negated, for a valley pair), and
reads the profile as a staircase: one row per hull corner, in
ascending level, holding the window positions of the rising and the
falling branch at that level.  Their difference, the width, shrinks as
the level climbs, and the row read at delta is the highest whose
widths reach delta.  find_pair builds no rows.  Each mode keeps one
staircase index on the profile, the window positions (prefix sums of
the widths) and levels, negated for a valley pair, so one search
serves both modes.  The top row and row 0 are closed forms of the
positions; every other row pairs a corner's step on one branch with a
jump on the other, found by bisecting each branch of the staircase.
Away from ties the touch sets at the row's two angles are the jump's
two levels and the corner's own, and the pair follows from the row
without a touch query.

Enumeration reads the gap intervals, a rotating caliper over every
angle difference at once (Toussaint, MELECON 1983): for each jump, the
gaps at which some level of its span lies the gap away on either side.
They are built once per profile, in O(m log m), on first use and kept
on the profile.  enumerate_triples and the fuzz campaign's count of one
kind both take their candidates at a gap from one filter over them,
O(p + k) for p parts and k candidates: p is 2 on a convex arc and grows
to about 2 m where the two branches of the staircase interleave.

verify_triple checks a pair against the raw vertices, not the profile.
It reads them in runs of 16 with their bounding boxes (arc.runs, built
by build_arc) and skips each run whose box corner shows that it cannot
change the answer, the broad phase build_arc also uses.  Each line takes
one pass over the runs for its extreme projection, and its left test
follows from that pass by a bound on the rounding (the filter stage of
an adaptive predicate, Shewchuk 1997); only a line the bound cannot
decide takes a second pass for the left test.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from operator import neg
from typing import Iterable

from .arc import RUN, PolygonalArc, _point_xy
from .geometry import (EPS_ANGLE, EPS_TOUCH, TWO_PI, canon_angle, ccw_gap,
                       circ_dist)
from .profile import _ROUNDING, SupportProfile, _by_angle, touch_params

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
    the pair spans: its kind, mountain or valley.
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

    # the fields' __init__, but filling the instance dict in one call:
    # the generated one sets each field through object.__setattr__
    def __init__(self, mode: str, theta_double: float, theta_single: float,
                 s1: float, s2: float, s3: float, strict: bool,
                 requested_delta: float, realized_gap: float,
                 guaranteed: bool = True, near_tie: bool = False,
                 covers_apex: bool = False, covers_min: bool = False):
        self.__dict__.update(
            mode=mode, theta_double=theta_double, theta_single=theta_single,
            s1=s1, s2=s2, s3=s3, strict=strict,
            requested_delta=requested_delta, realized_gap=realized_gap,
            guaranteed=guaranteed, near_tie=near_tie,
            covers_apex=covers_apex, covers_min=covers_min)

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

    def __init__(self, double_touches: bool, single_touches: bool,
                 left_side: bool, ordering: bool):  # as TriplePair's
        self.__dict__.update(double_touches=double_touches,
                             single_touches=single_touches,
                             left_side=left_side, ordering=ordering)

    @property
    def passed(self) -> bool:
        return (self.double_touches and self.single_touches
                and self.left_side and self.ordering)


@dataclass(frozen=True)
class CorollaryResult:
    identical: bool
    mountain: TriplePair
    valley: TriplePair

    def __init__(self, identical: bool, mountain: TriplePair,
                 valley: TriplePair):  # as TriplePair's
        self.__dict__.update(identical=identical, mountain=mountain,
                             valley=valley)


# ---------------------------------------------------------------------------
# the scan's row at delta

# one ulp of 2*pi: the rounding step of an angle, of a width and of a
# window position
_ULP = math.ulp(TWO_PI)


def _staircase(profile: SupportProfile, mode: str) -> tuple:
    """The mode's staircase index (k, top, xs, lv), built on first use
    and kept on the profile: the scan's window from the anchor step k,
    whose step j, the profile's step (j + k) % m, runs from xs[j] to
    xs[j + 1] (prefix sums of the widths) at the level lv[j], negated
    for a valley pair, so the levels rise from step 0 to the top step,
    top, and fall back.  The mountain lv is profile.levels itself."""
    got = profile._indexes.get(mode)
    if got is None:
        levels, widths, k = profile.levels, profile.widths, profile.apex_index
        if mode == MOUNTAIN:  # from the minimum step up to the apex
            k, top, lv = 0, k, levels
        else:  # from the apex step up to the minimum, levels negated
            top, lv = len(levels) - k, tuple(map(neg, levels[k:] + levels[:k]))
        got = profile._indexes[mode] = (k, top, tuple(accumulate(
            widths[k:] + widths[:k], initial=0.0)), lv)
    return got


def _middle_row(index: tuple, delta: float):
    """The row at delta on a staircase index, for delta strictly between
    the widths of the top row and row 0: (corner, jump, jump_left, row).
    One branch sweeps the window's step corner, the other sits at the
    profile's jump, on the left when jump_left; row holds the positions
    (left_lo, left_hi, right_lo, right_hi).

    A rising corner c pairs with the falling jump at position q under
    its level, widest width xs[q] - xs[c]; a falling corner c with the
    rising jump at p, widest xs[c + 1] - xs[p].  The row read is the
    highest whose widest reaches delta (a row's narrowest is bitwise the
    widest above it): the higher of each branch's highest such corner,
    r and f, by bisection (none: 0 or m, the lowest step).  A probe's
    jump is one bisection of lv in place, through neg on the falling
    run top + 1..m.  The levels are distinct (build_profile checks it),
    so bisect_right finds the partner as bisect_left would."""
    k, top, xs, lv = index
    m = len(lv)
    # xs[c] - x is -(x - xs[c]) exactly: the rising widths, negated
    r = bisect_right(range(top), -delta, 1, key=lambda c: xs[c] - xs[
        bisect_right(lv, -lv[c], top + 1, m, key=neg)]) - 1
    f = bisect_left(range(m), delta, top + 1, key=lambda c: xs[
        c + 1] - xs[bisect_right(lv, lv[c], 1, top)])
    if lv[r] > lv[f % m]:
        q = bisect_right(lv, -lv[r], top + 1, m, key=neg)
        return r, (q + k) % m, False, (xs[r], xs[r + 1], xs[q], xs[q])
    p = bisect_right(lv, lv[f], 1, top)
    return f, (p + k) % m, True, (xs[p], xs[p], xs[f], xs[f + 1])


def _scan_row(index: tuple, delta: float):
    """The row at delta on a staircase index, as (corner, jump,
    jump_left, row, near_tie), near_tie being whether delta lies within
    eps_angle of a width where the scan passes from one row to the next.
    The top row (both branches on the top step) and row 0 (the anchor
    step and the window's far end) are closed forms of the positions;
    _middle_row finds every other.  A delta beyond row 0's widest by
    rounding reads row 0, as the scan clamps it."""
    k, top, xs, _ = index
    m = len(xs) - 1
    widest_top, narrowest_0 = xs[top + 1] - xs[top], xs[m] - xs[1]
    if delta <= widest_top:
        return (top, (top + k) % m, True, (xs[top], xs[top + 1]) * 2,
                abs(delta - widest_top) <= EPS_ANGLE)
    if delta > narrowest_0:  # also beyond row 0's widest, by rounding
        return (0, k, False, (0.0, xs[1], xs[m], xs[m]),
                abs(delta - narrowest_0) <= EPS_ANGLE)
    corner, jump, jump_left, row = _middle_row(index, delta)
    return (corner, jump, jump_left, row,
            abs(delta - (row[3] - row[0])) <= EPS_ANGLE
            or abs(delta - (row[2] - row[1])) <= EPS_ANGLE)


def _clear_of_ties(profile: SupportProfile, m: int, jump: int,
                   cell: tuple[float, float], x: float) -> bool:
    """Are the touch sets at a row's two angles, as touch_params finds
    them, the jump's two levels and the corner's own level?  x is the
    corner's position in its step, cell = (xs[c], xs[c + 1]).

    A window position stands for an angle: anchor + xs[j] is the start
    of the window's step j up to rounding.  Each width is a difference
    of two starts rounded at most twice, each prefix sum rounds once
    more, anchor + x and circ_dist round too, so the angle touch_params
    compares lies within (1.5 m + 4) ulps of 2*pi of where the position
    puts it; drift = (2 m + 16) ulps covers that.  Then with drift below
    eps_angle the jump's angle lies within eps_angle of its own start.
    When both steps beside the jump are wider than eps_angle + drift no
    other jump lies within eps_angle of it, and when x lies farther than
    that from both ends of its step the corner's angle lies inside that
    step, with no jump within eps_angle."""
    drift = (2 * m + 16) * _ULP
    pad = EPS_ANGLE + drift
    widths = profile.widths
    return (drift < EPS_ANGLE and x - cell[0] > pad and cell[1] - x > pad
            and widths[jump - 1] > pad and widths[jump] > pad)


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
        strict, _, theta_d, theta_s, s1, s2, s3 = min(
            cands, key=lambda c: (not c[0], -c[1], c[5]))
        return theta_d, theta_s, s1, s2, s3, strict
    # both touch sets degenerate: report the certificate level flatly on
    # the wider span, theta_left on a tie
    wide, td, other = theta_left, t_left, theta_right
    if t_right[-1] - t_right[0] > t_left[-1] - t_left[0]:
        wide, td, other = theta_right, t_right, theta_left
    s2 = min(max(certificate, td[0]), td[-1])
    return wide, other, td[0], s2, td[-1], False


def find_pair(profile: SupportProfile, delta: float,
              mode: str) -> TriplePair:
    """The pair of support lines of kind mode (MOUNTAIN or VALLEY) whose
    angle difference, measured across the apex step for a mountain pair
    and across the minimum step for a valley pair, is delta.

    Guaranteed strict for delta in safe_delta_range(profile, mode);
    outside it the result is flagged guaranteed=False and may be
    degenerate.  A valley pair reports the complementary gap
    2*pi - delta between its two angles as realized_gap.

    The scan's row at delta, from _scan_row, gives the two angles, its
    level the fallback certificate, and near_tie; it takes log m probes
    of the staircase.  Each row has one branch at a jump: on the top
    row the left one, clamped to the step's start, on row 0 the right
    one, at the window's end.  Clear of ties the jump line is the double
    line and the corner's level is s2, with no touch query; otherwise
    _assign_roles reads the two touch sets.
    """
    if not (0.0 < delta < TWO_PI):
        raise InvalidDelta(f"angle difference {delta} outside (0, 2*pi)")
    lo, hi = safe_delta_range(profile, mode)  # refuses an unknown mode
    index = _staircase(profile, mode)
    k, m = index[0], len(index[3])
    corner, jump, jump_left, row, near_tie = _scan_row(index, delta)
    l_lo, l_hi, r_lo, r_hi = row
    x_l = min(max(r_lo - delta, l_lo), l_hi)
    x_r = min(max(x_l + delta, r_lo), r_hi)
    anchor = profile.starts[k]
    theta_left = canon_angle(anchor + x_l)
    theta_right = canon_angle(anchor + x_r)
    level = profile.levels[(corner + k) % m]

    slack = profile.param_slack
    s1, s3 = profile.jumps[jump]
    if (s3 - s1 > slack and _clear_of_ties(
            profile, m, jump, row[2:] if jump_left else row[:2],
            x_r if jump_left else x_l)):
        # _assign_roles' one candidate: the jump line carries s1 and s3,
        # and the level lies inside its span (on the top row and row 0,
        # at one end of it)
        theta_d, theta_s = ((theta_left, theta_right) if jump_left
                            else (theta_right, theta_left))
        s2, strict = level, s1 + slack < level < s3 - slack
    else:
        theta_d, theta_s, s1, s2, s3, strict = _assign_roles(
            profile, theta_left, theta_right, level)

    if mode == MOUNTAIN:
        realized = ccw_gap(theta_left, theta_right)
    else:
        realized = ccw_gap(theta_right, theta_left)

    return TriplePair(mode, theta_d, theta_s, s1, s2, s3, strict,
                      requested_delta=delta, realized_gap=realized,
                      guaranteed=lo <= delta <= hi, near_tie=near_tie,
                      covers_apex=(mode == MOUNTAIN),
                      covers_min=(mode == VALLEY))


def find_pair_mountain(profile: SupportProfile, arc: PolygonalArc,
                       delta: float) -> TriplePair:
    """find_pair(profile, delta, MOUNTAIN); arc is not read."""
    return find_pair(profile, delta, MOUNTAIN)


def find_pair_valley(profile: SupportProfile, arc: PolygonalArc,
                     delta: float) -> TriplePair:
    """find_pair(profile, delta, VALLEY); arc is not read."""
    return find_pair(profile, delta, VALLEY)


def safe_delta_range(profile: SupportProfile, mode: str) -> tuple[float, float]:
    """Range of differences, ends included, for which the scan yields a
    strict triple on every arc; the pair's guaranteed flag is delta's
    membership in it."""
    low, apex = profile.widths[0], profile.widths[profile.apex_index]
    if mode == MOUNTAIN:
        return (apex, TWO_PI - low)
    if mode == VALLEY:
        return (low, TWO_PI - apex)
    raise ValueError(f"mode must be {MOUNTAIN!r} or {VALLEY!r}, got {mode!r}")


def pairs_identical(profile: SupportProfile, m: TriplePair,
                    v: TriplePair) -> bool:
    """Do two pairs agree as unordered angle sets with matching triples
    and the same strictness?"""
    slack = profile.param_slack
    a1, a2 = m.theta_double, m.theta_single
    b1, b2 = v.theta_double, v.theta_single
    return (((circ_dist(a1, b1) <= EPS_ANGLE
              and circ_dist(a2, b2) <= EPS_ANGLE)
             or (circ_dist(a1, b2) <= EPS_ANGLE
                 and circ_dist(a2, b1) <= EPS_ANGLE))
            and abs(m.s1 - v.s1) <= slack and abs(m.s2 - v.s2) <= slack
            and abs(m.s3 - v.s3) <= slack and m.strict == v.strict)


def corollary_check(profile: SupportProfile, arc: PolygonalArc,
                    delta: float) -> CorollaryResult:
    """Run both scans at the same difference and compare the pairs."""
    m = find_pair(profile, delta, MOUNTAIN)
    v = find_pair(profile, delta, VALLEY)
    return CorollaryResult(pairs_identical(profile, m, v), m, v)


# ---------------------------------------------------------------------------
# the gap intervals: the candidates of every gap

# how far a candidate's gap interval reaches beyond the span it reads:
# eps_angle, the reach of touch_params around a step, plus room for the
# rounding of psi, of the gaps' ends and of circ_dist, each a few ulps
# of 2*pi
_GAP_PAD = EPS_ANGLE + 4 * _ROUNDING


def _gap_intervals(profile: SupportProfile) -> tuple[tuple, ...]:
    """The gaps at which each candidate enumerate_triples tries can
    yield a configuration, as parts (x, y, (i, sign), apex_side): the
    candidate covers the gaps x <= gap < y.  In jump, then sign (+
    before -) order, O(m log m); kept on the profile by _intervals.

    A candidate (jump index i, sign) pairs jump i with the angle
    psi = a_i + sign * gap; it yields a configuration only when the
    touch set at psi holds a level strictly inside the jump's span
    beyond the slack.  Those levels lie on the branch of the staircase
    opposite the jump's own, where they are one run of steps, found by
    bisection.  touch_params at psi returns a level only within
    eps_angle of that level's step, so a candidate's gaps are those
    that put psi over its run, widened by _GAP_PAD; an interval that
    then reaches past 0 or 2*pi is cut there and its overhang carried
    to the circle's other end, as a part of its own.

    apex_side is the candidate's kind: it spans the apex step exactly
    when (0 < i <= apex_index) == (sign > 0), else the minimum step, as
    the ccw side from a rising jump to the falling run passes the apex
    step.
    """
    slack = profile.param_slack
    starts, levels, k = profile.starts, profile.levels, profile.apex_index
    parts = []
    for i, (lo, hi) in enumerate(profile.jumps):
        if hi - lo <= slack:
            continue
        low, high = lo + slack, hi - slack
        # levels rise on steps 0..k, then fall back to step 0: a rising
        # jump's span holds falling levels only (bisected through neg),
        # any other jump's span rising levels only
        if 0 < i <= k:
            s = bisect_right(levels, -high, k + 1, key=neg)
            e = bisect_left(levels, -low, k + 1, key=neg)
        else:
            s = bisect_right(levels, low, 0, k + 1)
            e = bisect_left(levels, high, 0, k + 1)
        # no level inside; when hi - lo <= 2 * slack, low >= high and
        # the two bisections can cross (s > e)
        if s >= e:
            continue
        # the run's last step, e - 1, ends where step e starts
        a, first, last = starts[i], starts[s], starts[e % len(starts)]
        rising = 0 < i <= k
        for sign, x, y in ((1.0, ccw_gap(a, first), ccw_gap(a, last)),
                           (-1.0, ccw_gap(last, a), ccw_gap(first, a))):
            x, y = x - _GAP_PAD, y + _GAP_PAD
            cand, apex_side = (i, sign), rising == (sign > 0)
            parts.append((max(x, 0.0), min(y, TWO_PI), cand, apex_side))
            if x < 0.0:
                parts.append((x + TWO_PI, TWO_PI, cand, apex_side))
            if y > TWO_PI:
                parts.append((0.0, y - TWO_PI, cand, apex_side))
    return tuple(parts)


def _intervals(profile: SupportProfile) -> tuple[tuple, ...]:
    """The profile's gap intervals, built on first use and kept on it."""
    return profile._index("intervals", _gap_intervals)


def _covering(profile: SupportProfile, gap: float,
              apex_side: bool | None = None) -> list[tuple]:
    """The candidates whose parts cover gap, x <= gap < y, in the
    intervals' order with consecutive repeats dropped; only those of
    one kind when apex_side is given.  O(p) for the p parts."""
    cands = []
    for x, y, cand, side in _intervals(profile):
        if (x <= gap < y and (apex_side is None or side == apex_side)
                and (not cands or cands[-1] != cand)):
            cands.append(cand)
    return cands


def enumerate_triples(profile: SupportProfile, arc: PolygonalArc,
                      gap: float) -> list[TriplePair]:
    """Every strict triple configuration whose two support angles are a
    counterclockwise gap apart (in either reading of the pair).

    The double line touches two parameters, so it must be a jump line;
    candidates are the jump angles paired with the angle gap away on
    either side, those whose gap intervals cover gap.  Each surviving
    configuration records whether its gap side spans the apex step or
    the minimum step, read off its candidate.
    """
    if not (0.0 < gap < TWO_PI):
        raise InvalidDelta(f"gap {gap} outside (0, 2*pi)")
    return _as_pairs(profile, gap, _configurations(
        profile, gap, _covering(profile, gap)))


def _count_of_kind(profile: SupportProfile, gap: float, mode: str) -> int:
    """How many configurations at gap are of mode's kind: they span the
    apex step for MOUNTAIN, the minimum step for VALLEY.  The candidates
    of that kind alone, so a configuration that both kinds yield (at gap
    pi) counts once for each, as enumerate_triples marks it with both."""
    return len(_configurations(profile, gap,
                               _covering(profile, gap, mode == MOUNTAIN)))


def _configurations(profile: SupportProfile, gap: float,
                    cands: Iterable[tuple]) -> list[tuple]:
    """The configurations at gap of the (jump index, sign) candidates,
    pairing jump i with the angle psi = a_i + sign * gap, as tuples
    (theta_double, theta_single, s1, s2, s3, covers_apex, covers_min).
    A configuration's kind is its candidate's, by the rule in
    _gap_intervals; at gap pi, (i, +1) and (i, -1) give one pair, which
    then carries both kinds."""
    slack = profile.param_slack
    k = profile.apex_index
    found: dict[tuple, tuple] = {}
    for i, sign in cands:
        lo, hi = profile.jumps[i]
        a = profile.starts[i]
        psi = canon_angle(a + sign * gap)
        apex_side = (0 < i <= k) == (sign > 0)
        for s2 in touch_params(profile, psi):
            if not (lo + slack < s2 < hi - slack):
                continue
            covers_apex, covers_min = apex_side, not apex_side
            key = (round(a, 9), round(psi, 9), s2)
            prev = found.get(key)
            if prev is not None:
                covers_apex = covers_apex or prev[5]
                covers_min = covers_min or prev[6]
            found[key] = (a, psi, lo, s2, hi, covers_apex, covers_min)
    return list(found.values())


def _as_pairs(profile: SupportProfile, gap: float,
              configs: list[tuple]) -> list[TriplePair]:
    """The configurations as enumerate_triples returns them: pairs in
    the order of their angles counterclockwise from the minimum step's
    start, then of s2."""
    anchor = profile.starts[0]
    configs = sorted(configs, key=lambda c: (ccw_gap(anchor, c[0]),
                                             ccw_gap(anchor, c[1]), c[3]))
    return [TriplePair("enumerated", a, psi, s1, s2, s3, strict=True,
                       requested_delta=gap, realized_gap=gap,
                       covers_apex=apex, covers_min=low)
            for a, psi, s1, s2, s3, apex, low in configs]


def jump_to_jump_gaps(profile: SupportProfile) -> list[float]:
    """All pairwise ccw gaps between jump angles; differences within
    tolerance of one of these are tie-prone and skipped by uniqueness
    campaigns."""
    angles = profile.starts
    out = []
    for a in angles:
        for b in angles:
            if a != b:
                out.append(ccw_gap(a, b))
    return sorted(out)


def _near_jump_gap(profile: SupportProfile, delta: float) -> bool:
    """any(abs(delta - g) <= 1e-6 for g in jump_to_jump_gaps(profile))
    in O(m log m): as ccw_gap(a, b) is b - a or b - a + 2*pi, it tries
    for each a only the b within 1e-6 + _ROUNDING of a + delta, mod 2*pi."""
    angles = profile._index("angles", _by_angle)[0]
    reach = 1e-6 + _ROUNDING
    return any(a != b and abs(delta - ccw_gap(a, b)) <= 1e-6
               for a in angles for c in (a + delta, a + delta - TWO_PI)
               for b in angles[bisect_left(angles, c - reach):
                               bisect_right(angles, c + reach)])


def _support_check(arc: PolygonalArc, dx: float, dy: float, px: float,
                   py: float, s: float, slack: float) -> tuple[int, bool]:
    """The line of direction (dx, dy) = (cos theta, sin theta) read off
    the arc's vertices: the index of the first vertex of largest
    projection F(v) = x * dy + y * ny on the outward normal (dy, ny),
    ny = -dx, which re-derives the support line's position, and whether
    every vertex v = (x, y) lies on the closed left of the line through
    p = (px, py): g(v) = dx * (y - py) - dy * (x - px) >= -slack.

    The projection takes one pass over arc.runs.  The corner of a run's
    box farthest along the normal, (x_hi if dy >= 0 else x_lo, y_lo if
    dx >= 0 else y_hi), has the largest projection and the smallest g
    of any point in the box, and so in floating point too: rounding is
    monotone (a <= b gives fl(a) <= fl(b), and fl(a + b), fl(a - b) and
    fl(c * a) are monotone in a), so the corner's value, computed by
    the very expression the vertices use, bounds the computed value of
    every vertex in the run.  The best projection starts at the vertex
    at parameter s, the pair's own touch point, and a run is read only
    when its corner reaches the best so far.  A skipped run holds no
    vertex of the largest projection, so the anchor (the first of
    equals, as max returns it) is bitwise that of a pass over every
    vertex, and after the pass every vertex's computed projection is at
    most best: by max in a run read, by its corner in a run skipped.

    The left flag mostly follows from best, with no second read.  In
    exact arithmetic g(v) = F(p) - F(v).  Let u = 2**-53, the unit
    roundoff, |q| the length of a point q and d the arc's diagonal.  As
    dx**2 + dy**2 = 1 up to rounding, |x * dy| + |y * ny| <= |v|, so to
    first order in u the computed F(v) is off by at most 2u |v| (two
    products and a sum), F(p) by 2u |p|, g(v) by 3u |v - p| (two
    differences, two products and a difference) and fl(F(p) - best) by
    u (|F(p)| + |best|).  p lies on an edge, so |v - p| <= d and
    |v| <= |p| + d for every vertex.  Every computed F(v) is at most
    best, so each computed g(v) is at least
    fl(F(p) - best) - 6u (|p| + d).  E = 9u (|px| + |py| + d) exceeds
    that error by at least 3u (|p| + d), room for the second-order
    terms, for the rounding of E and of E - slack, and for products
    that underflow (a few 2**-1075, far below u d as d >= MIN_SPAN).
    So when fl(F(p) - best) >= E - slack, every computed g(v) is
    >= -slack and the flag is True.  Otherwise a second pass reads each
    run whose corner lies beyond -slack, until one holds a vertex
    there, which is bitwise a pass over every vertex too.
    """
    ny = -dx
    k = bisect_right(arc.params, s, 1) - 1  # the vertex at or before s
    best = arc.xs[k] * dy + arc.ys[k] * ny
    start = 0
    # where in a run's tuple the corner's x and y are
    ix, iy = (1 if dy >= 0.0 else 0), (2 if dx >= 0.0 else 3)
    for run in arc.runs:
        if run[ix] * dy + run[iy] * ny >= best:
            fs = [x * dy + y * ny for x, y in zip(run[4], run[5])]
            f = max(fs)  # every value before the first f is below it
            if f >= best:
                j = start + fs.index(f)
                if f > best or j < k:
                    best, k = f, j
        start += RUN
    if (px * dy + py * ny - best
            >= 9 * 2.0 ** -53 * (abs(px) + abs(py) + arc.diagonal) - slack):
        return k, True
    lim = -slack
    for run in arc.runs:
        cx, cy = run[ix], run[iy]
        if not (dx * (cy - py) - dy * (cx - px) >= lim or all(
                dx * (y - py) - dy * (x - px) >= lim
                for x, y in zip(run[4], run[5]))):
            return k, False
    return k, True


def _verify(arc: PolygonalArc, pair: TriplePair, check) -> TripleReport:
    """The report of verify_triple, with check(arc, cos theta,
    sin theta, x, y, s, slack) giving the anchor's index and the left
    flag of the line at theta through (x, y), the point at s:
    _support_check, or the reference's two passes over every vertex
    (oracle.linear_verify_triple)."""
    dist_slack = EPS_TOUCH * arc.diagonal
    param_slack = EPS_TOUCH * arc.length
    xs, ys = arc.xs, arc.ys
    s1, s2, s3 = pair.s1, pair.s2, pair.s3
    x1, y1 = _point_xy(arc, s1)
    x2, y2 = _point_xy(arc, s2)
    x3, y3 = _point_xy(arc, s3)
    dx, dy = math.cos(pair.theta_double), math.sin(pair.theta_double)
    k, d_left = check(arc, dx, dy, x1, y1, s1, dist_slack)
    double_ok = (abs(dx * (y1 - ys[k]) - dy * (x1 - xs[k])) <= dist_slack
                 and abs(dx * (y3 - ys[k]) - dy * (x3 - xs[k])) <= dist_slack)
    dx, dy = math.cos(pair.theta_single), math.sin(pair.theta_single)
    k, s_left = check(arc, dx, dy, x2, y2, s2, dist_slack)
    single_ok = abs(dx * (y2 - ys[k]) - dy * (x2 - xs[k])) <= dist_slack
    if pair.strict:
        order_ok = (s1 + param_slack < s2 < s3 - param_slack)
    else:
        order_ok = (s1 <= s2 + param_slack and s2 <= s3 + param_slack)
    return TripleReport(double_ok, single_ok, d_left and s_left, order_ok)


def verify_triple(arc: PolygonalArc, pair: TriplePair) -> TripleReport:
    """Check a pair against the defining property, without the profile.

    (a) gamma(s1) and gamma(s3) lie on the support line at theta_double,
    (b) gamma(s2) lies on the support line at theta_single, both with
    the line position re-derived from the raw vertex projections;
    (c) every vertex is on the closed left of the lines through the
    claimed touch points; (d) the parameters are ordered, strictly so
    when the pair says strict.

    (a) to (c) take one pass per line over the arc's vertices in runs
    of RUN (_support_check).  A run's box corner bounds the computed
    projections of all its vertices, because rounding is monotone, so
    the runs that cannot hold the extreme vertex are skipped.  The left
    test (c) follows from the extreme projection: every vertex lies on
    the left when the touch point's projection falls short of it by at
    most the slack less a bound on the rounding.  Only a line that test
    cannot decide, some 1e6 diagonals from the origin or with its touch
    point off the line, takes a second pass, which skips the runs whose
    box corner lies on the left.  The report is bitwise that of four
    passes over every vertex (oracle.linear_verify_triple).  Cost:
    O(n/RUN + RUN*k) per call, k the number of runs read, on the runs
    build_arc stores on the arc.
    """
    return _verify(arc, pair, _support_check)
