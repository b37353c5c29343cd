"""Step-function profile of the support touch parameters.

For each support angle theta, the support line (arc on its closed left
side) touches the arc at one or two parameters.  Swept over a full
turn this is a step function: one step per hull corner, whose width is
the corner's exterior angle, plus a two-valued jump wherever a hull
edge lies on the line.  The profile stores this combinatorial object
symbolically, so every downstream scan is exact up to atan2 rounding.

Reading the steps counterclockwise from the minimum-parameter corner,
levels rise strictly to the maximum-parameter corner and then fall
strictly back; the package relies on that unimodal shape and verifies
it at construction time.

Queries on a built profile are logarithmic in its corner count m: the
jump angles are sorted once per profile, on first use, and a touch
query bisects them (O(log m)).  The indexes the pair searches build
(the scan windows and the gap chart) are kept on the profile too.  The
lemma helpers built on a profile are in oracle.py: the pipeline never
calls them.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Sequence

from .geometry import EPS_ANGLE, EPS_TOUCH, TWO_PI, canon_angle, circ_dist
from .hull import Hull, HullCorner


@dataclass(frozen=True)
class Jump:
    """Angle where a hull edge lies on the support line; low_param and
    high_param are the levels of the steps on either side of it."""

    angle: float
    low_param: float
    high_param: float


@dataclass(frozen=True)
class SupportProfile:
    """Full step representation over one period.

    steps are the hull's corners, in counterclockwise order starting at
    the minimum-level step; jumps[i] sits at steps[i].start (so jumps[0]
    is the wrap jump into the minimum step).
    """

    steps: tuple[HullCorner, ...]
    jumps: tuple[Jump, ...]
    apex_index: int

    @property
    def min_step(self) -> HullCorner:
        return self.steps[0]

    @property
    def apex_step(self) -> HullCorner:
        return self.steps[self.apex_index]

    @property
    def levels(self) -> tuple[float, ...]:
        return tuple([s.level for s in self.steps])

    @property
    def param_slack(self) -> float:
        """Tolerance on arc parameters, relative to the largest level."""
        return EPS_TOUCH * self.apex_step.level

    # derived indexes, built on first use and kept on the instance (the
    # profile is immutable): the sorted jump angles (_by_angle) and the
    # indexes pairs.py builds, the scan window of each mode
    # (pairs._window) and the gap chart (pairs._gap_chart).  A field out
    # of __init__, __eq__, __hash__ and __repr__ rather than keys added
    # to the instance dict later, which would slow every attribute read
    _indexes: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    @property
    def _by_angle(self) -> tuple[tuple[float, ...], tuple[int, ...]]:
        """Jump angles in ascending order, and the index in jumps of each.
        jumps[i] sits at steps[i].start, so this orders the steps too."""
        got = self._indexes.get("angles")
        if got is None:
            jumps = self.jumps
            order = sorted(range(len(jumps)), key=lambda i: jumps[i].angle)
            got = self._indexes["angles"] = (
                tuple([jumps[i].angle for i in order]), tuple(order))
        return got


def build_profile(hull: Hull) -> SupportProfile:
    """Assemble the step/jump profile from a hull.

    The hull lists its corners from the minimum-parameter one, so the
    steps start at the minimum level; checks the rise-then-fall shape of
    the level sequence, which also rejects a cycle starting elsewhere.
    """
    steps = hull.corners
    m = len(steps)
    jumps = []
    for i, step in enumerate(steps):
        prev = steps[i - 1]
        lo, hi = sorted((prev.level, step.level))
        jumps.append(Jump(step.start, lo, hi))

    levels = [s.level for s in steps]
    apex = max(range(m), key=lambda i: levels[i])
    rising = levels[:apex + 1]
    falling = levels[apex:] + [levels[0]]
    if (any(a >= b for a, b in zip(rising, rising[1:]))
            or any(a <= b for a, b in zip(falling, falling[1:]))):
        raise ValueError(f"level sequence {levels} is not rise-then-fall")

    return SupportProfile(steps, tuple(jumps), apex_index=apex)


# circ_dist rounds by a few ulps of 2*pi; the candidate window is this
# much wider than eps_angle, so it holds every jump the exact test accepts
_ROUNDING = 64 * math.ulp(TWO_PI)


def _positions(angles: Sequence[float], lo: float, hi: float) -> list[int]:
    """Positions p with lo <= angles[p] <= hi on the circle, for sorted
    angles in [0, 2*pi) and a window [lo, hi] that may reach past either
    end of [0, 2*pi); a window of a full turn or more lists every
    position, some twice."""
    spans = [(lo, hi)]
    if lo < 0.0:
        spans.append((lo + TWO_PI, TWO_PI))
    if hi >= TWO_PI:
        spans.append((0.0, hi - TWO_PI))
    return [p for a, b in spans
            for p in range(bisect_left(angles, a), bisect_right(angles, b))]


def touch_params(profile: SupportProfile, theta: float) -> tuple[float, ...]:
    """Touch parameters of the support line at angle theta.

    One value strictly inside a step, two at a jump.  Queries within
    eps_angle of a jump angle resolve to the jump (the constructions
    select jump angles, so the boundary belongs to them); of several
    such jumps the first in profile.jumps wins.  Bisects the jump
    angles, sorted once per profile, so a query costs O(log m).
    """
    theta = canon_angle(theta)
    # the cache first: a query takes about 1.5 us, and the property
    # call alone added 6 %
    angles, order = profile._indexes.get("angles") or profile._by_angle
    w = EPS_ANGLE + _ROUNDING
    hits = [order[p] for p in _positions(angles, theta - w, theta + w)
            if circ_dist(theta, angles[p]) <= EPS_ANGLE]
    if hits:
        jump = profile.jumps[min(hits)]
        return (jump.low_param, jump.high_param)
    # each step ends on the very float the next one starts at, so the
    # step starting at or before theta (index -1: the one wrapping past
    # 0) holds it; a theta within rounding of that step's end is within
    # eps_angle of the jump there and was answered above
    return (profile.steps[order[bisect_right(angles, theta) - 1]].level,)

