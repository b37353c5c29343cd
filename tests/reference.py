"""The level scan, kept as the oracle that pairs.find_pair must equal.

The scan unrolls the circle into a window of width one turn, read from
the mode's anchor step: the minimum step for a mountain pair, the apex
step for a valley pair (levels negated, so the valley's bottom is the
window's top).  Its ledger holds one row per hull corner, in ascending
level: (level, left_lo, left_hi, right_lo, right_hi), the window
positions of the rising and the falling branch at the corner's level.
The row read at delta is the one nearest the window's top whose widths
contain delta; both positions are clamped into its branch intervals,
left first, and the two angles go through pairs._assign_roles.

Both ledger forms here are the straightforward ones: each row by a
linear search of the other branch, ordered by a sort (O(m^2)), and
each lookup a walk over every row (O(m)).  Nothing here is cached on
the profile: a caller builds each mode's ledger once and hands it to
every scan.
"""

from itertools import accumulate

from arcsupport import (EPS_ANGLE, MOUNTAIN, TWO_PI, VALLEY, TriplePair,
                        canon_angle)
from arcsupport.geometry import ccw_gap
from arcsupport.pairs import _assign_roles, _intervals, safe_delta_range


def unroll(profile, mode):
    """Window coordinates of the steps read from the mode's anchor step:
    (anchor angle, step starts, step ends, levels); valley levels are
    negated."""
    k = 0 if mode == MOUNTAIN else profile.apex_index
    widths, levels = profile.widths, profile.levels
    xs = list(accumulate(widths[k:] + widths[:k], initial=0.0))
    levels = levels[k:] + levels[:k]
    if mode == VALLEY:
        levels = tuple([-v for v in levels])
    return profile.starts[k], xs[:-1], xs[1:], levels


def quadratic_ledger(profile, mode):
    """The scan's ledger rows: each corner level's position on the
    other branch by a linear search, corners ordered by a sort."""
    _, x_lo, x_hi, levels = unroll(profile, mode)
    m = len(levels)
    k = max(range(m), key=lambda i: levels[i])

    def rise_pos(y):
        for i in range(1, k + 1):
            if levels[i - 1] < y < levels[i]:
                return x_lo[i]
        raise AssertionError(f"level {y} not on the rising branch")

    def fall_pos(y):
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


def row_widths(row):
    """(narrowest, widest) width of a ledger row."""
    _, l_lo, l_hi, r_lo, r_hi = row
    return r_lo - l_hi, r_hi - l_lo


def linear_ledger_lookup(rows, delta):
    """The row the scan reads at delta, walking from the last row to the
    first for one whose widths contain delta (None when none does), and
    whether delta lies within eps_angle of the widest width of a row
    after the first (the width between its level and the one below)."""
    hit = next((row for row in reversed(rows)
                if row[3] - row[2] <= delta <= row[4] - row[1]), None)
    near_tie = any(abs(delta - (row[4] - row[1])) <= EPS_ANGLE
                   for row in rows[1:])
    return hit, near_tie


def between_level_widths(profile, mode):
    """The widths at which the scan passes from one corner's row to the
    next: every row's widest but row 0's."""
    return [row_widths(row)[1] for row in quadratic_ledger(profile, mode)[1:]]


def scan_find_pair(profile, delta, mode, rows):
    """find_pair(profile, delta, mode) by the scan over rows, the mode's
    quadratic_ledger: the row that holds delta, or row 0, the widest,
    when rounding puts delta beyond every row."""
    lo, hi = safe_delta_range(profile, mode)
    anchor = unroll(profile, mode)[0]
    hit, near_tie = linear_ledger_lookup(rows, delta)
    level, l_lo, l_hi, r_lo, r_hi = rows[0] if hit is None else hit
    x_l = min(max(r_lo - delta, l_lo), l_hi)
    x_r = min(max(x_l + delta, r_lo), r_hi)
    theta_left = canon_angle(anchor + x_l)
    theta_right = canon_angle(anchor + x_r)
    theta_d, theta_s, s1, s2, s3, strict = _assign_roles(
        profile, theta_left, theta_right,
        -level if mode == VALLEY else level)
    realized = (ccw_gap(theta_left, theta_right) if mode == MOUNTAIN
                else ccw_gap(theta_right, theta_left))
    return TriplePair(mode, theta_d, theta_s, s1, s2, s3, strict,
                      requested_delta=delta, realized_gap=realized,
                      guaranteed=lo <= delta <= hi, near_tie=near_tie,
                      covers_apex=(mode == MOUNTAIN),
                      covers_min=(mode == VALLEY))


def interval_cuts(profile):
    """0, 2 pi and every end of the profile's gap intervals, ascending:
    between two neighbouring cuts each interval covers every gap or
    none, so enumeration's candidates stay the same."""
    parts = _intervals(profile)
    return sorted({0.0, TWO_PI, *[x for x, _, _, _ in parts],
                   *[y for _, y, _, _ in parts]})
