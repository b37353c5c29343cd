"""Step-function profile of the support touch parameters.

For each support angle theta, the support line (arc on its closed left
side) touches the arc at one or two parameters.  Swept over a full
turn this is a step function: one step per hull corner, whose width is
the corner's exterior angle, plus a two-valued jump wherever a hull
edge lies on the line.  The profile stores this combinatorial object
symbolically, so every downstream scan is exact up to atan2 rounding.
A profile is its hull extended: it holds the hull's very tuples of
corners, levels, starts and widths (a step ends where the next one
starts), adds the jumps and the apex, and builds no object per step.

Reading the steps counterclockwise from the minimum-parameter corner,
levels rise strictly to the maximum-parameter corner and then fall
strictly back, no level twice; the package relies on that unimodal
shape and verifies it at construction time.

A jump sits where a step starts and is stored as its two levels.
Queries on a built profile are logarithmic in its corner count m: the
step starts are sorted once per profile, on first use, and a touch
query bisects them once, then walks out over the few jumps within
eps_angle plus rounding of the query (O(log m)).  pairs.py keeps its
indexes here too: each mode's staircase index, its window positions
and levels, for the scans, and for enumeration the gap intervals.  The
lemma helpers built on a profile are in oracle.py: the pipeline never
calls them.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import gt, lt
from typing import Any, Callable

from .geometry import EPS_ANGLE, EPS_TOUCH, TWO_PI, canon_angle, circ_dist
from .hull import Hull


class NotRiseThenFall(ValueError):
    """A hull whose levels, read from its first corner, do not rise
    strictly to one apex and then fall strictly back, or repeat a level."""


@dataclass(frozen=True)
class SupportProfile(Hull):
    """Full step representation over one period: a hull and its jumps.

    Step i, at the i-th hull corner counterclockwise from the minimum
    level, has the level levels[i] and runs from starts[i] to
    starts[(i + 1) % m], widths[i] long.  jumps[i], the jump at
    starts[i], is the pair (low, high) of the levels either side of it
    (so jumps[0] is the wrap jump into the minimum step).  Step
    apex_index has the largest level.
    """

    jumps: tuple[tuple[float, float], ...]
    apex_index: int

    @property
    def param_slack(self) -> float:
        """Tolerance on arc parameters, relative to the largest level."""
        return EPS_TOUCH * self.levels[self.apex_index]

    # derived indexes, built on first use and kept on the instance (the
    # profile is immutable): the sorted jump angles (_by_angle) and the
    # indexes pairs.py builds, the staircase index of each mode
    # (pairs._staircase) and the gap intervals (pairs._intervals).  A
    # field out of __init__, __eq__, __hash__ and __repr__ rather than
    # keys added to the instance dict later, which would slow every
    # attribute read
    _indexes: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    def _index(self, key: str, build: Callable[[SupportProfile], Any]):
        """The index kept under key: build(self) on first use."""
        got = self._indexes.get(key)
        if got is None:
            got = self._indexes[key] = build(self)
        return got


def _by_angle(profile: SupportProfile) -> tuple[tuple, tuple]:
    """Jump angles, the steps' starts, in ascending order, and the step
    (and jump) index of each."""
    starts = profile.starts
    order = sorted(range(len(starts)), key=starts.__getitem__)
    return tuple([starts[i] for i in order]), tuple(order)


def build_profile(hull: Hull) -> SupportProfile:
    """Assemble the step/jump profile from a hull.

    The hull lists its corners from the minimum-parameter one, so the
    steps start at the minimum level; checks the rise-then-fall shape of
    the level sequence, which also rejects a cycle starting elsewhere,
    and that no level repeats (two corners are two vertices, at two
    parameters), and raises NotRiseThenFall when it fails.
    """
    levels = hull.levels
    # the jump at a step's start lies between its level and the one before
    jumps = tuple([(a, b) if a < b else (b, a)
                   for a, b in zip(levels[-1:] + levels, levels)])
    apex = levels.index(max(levels))
    rising = levels[:apex + 1]
    falling = levels[apex:] + levels[:1]
    ordered = sorted(levels)  # one merge of the branches' sorted runs
    if not (all(map(lt, rising, rising[1:]))
            and all(map(gt, falling, falling[1:]))
            and all(map(lt, ordered, ordered[1:]))):
        raise NotRiseThenFall(
            f"level sequence {list(levels)} is not rise-then-fall")

    return SupportProfile(hull.corners, levels, hull.starts, hull.widths,
                          jumps, apex)


# circ_dist rounds by a few ulps of 2*pi; a touch query looks this
# much wider than eps_angle, so it meets every jump the exact test accepts
_ROUNDING = 64 * math.ulp(TWO_PI)
_REACH = EPS_ANGLE + _ROUNDING


def touch_params(profile: SupportProfile, theta: float) -> tuple[float, ...]:
    """Touch parameters of the support line at angle theta.

    One value strictly inside a step, two at a jump.  Queries within
    eps_angle of a jump angle resolve to the jump (the constructions
    select jump angles, so the boundary belongs to them); of several
    such jumps the first in profile.jumps wins.  One bisection of the
    jump angles, sorted once per profile, and a walk over the few within
    eps_angle plus rounding of theta: O(log m).
    """
    theta = canon_angle(theta)
    # the cache first: the method call alone adds about 6 % to a query
    angles, order = (profile._indexes.get("angles")
                     or profile._index("angles", _by_angle))
    m = len(angles)
    i = bisect_right(angles, theta)
    lo, hi = theta - _REACH, theta + _REACH
    # the angles in [lo, hi]: a..b-1, walked out from i, and where
    # [lo, hi] reaches past 0 or 2*pi, c..m-1 or 0..d-1 at the far end
    a = b = i
    while a > 0 and angles[a - 1] >= lo:
        a -= 1
    while b < m and angles[b] <= hi:
        b += 1
    c = bisect_left(angles, lo + TWO_PI) if lo < 0.0 else m
    d = bisect_right(angles, hi - TWO_PI) if hi >= TWO_PI else 0
    if a < b or c < m or d:
        hits = [order[p] for p in (*range(a, b), *range(c, m), *range(d))
                if circ_dist(theta, angles[p]) <= EPS_ANGLE]
        if hits:
            return profile.jumps[min(hits)]
    # each step ends on the very float the next one starts at, so the
    # step starting at or before theta (index -1: the one wrapping past
    # 0) holds it; a theta within rounding of that step's end is within
    # eps_angle of the jump there and was answered above
    return (profile.levels[order[i - 1]],)
