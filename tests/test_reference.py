"""The fast queries against their slow references in oracle.py.

touch_params bisects sorted jump angles, the scan ledger is one
two-pointer merge and the scan bisects it; the references are the
linear and quadratic forms.  Results must be equal, not close.
"""

import math
import random

import pytest

from arcsupport import (EPS_ANGLE, MOUNTAIN, TWO_PI, VALLEY, Jump, Point2,
                        ProfileStep, SupportProfile, build_arc, build_profile,
                        melkman_hull, touch_params)
from arcsupport.oracle import (linear_ledger_lookup, linear_touch_params,
                               quadratic_ledger)
from arcsupport.pairs import _lookup, _window

EPS = EPS_ANGLE


def convex_arc(n, rng):
    # jittered grid over 1.5 pi of the unit circle: every vertex a corner
    step = 1.5 * math.pi / (n - 1)
    angles = ([0.0] + [(i + rng.uniform(-0.3, 0.3)) * step
                       for i in range(1, n - 1)] + [1.5 * math.pi])
    return [(math.cos(a), math.sin(a)) for a in angles]


def walk_arc(n, rng):
    # x-monotone Gaussian walk: a handful of hull corners
    pts, y = [], 0.0
    for i in range(n):
        pts.append((float(i), y))
        y += rng.gauss(0.0, 1.0)
    return pts


@pytest.fixture(scope="module")
def profiles(fuzz_pool):
    rng = random.Random(400)
    big = [build_profile(melkman_hull(build_arc(make(400, rng))))
           for make in (convex_arc, walk_arc)]
    assert len(big[0].steps) == 400
    return [p for _, p in fuzz_pool] + big


def around(x, eps):
    """x, x +- eps and the floats either side of each."""
    out = []
    for c in (x, x + eps, x - eps):
        out += [c, math.nextafter(c, math.inf), math.nextafter(c, -math.inf)]
    return out


def touch_queries(profile):
    qs = [0.0, -0.0, 5e-324, -5e-324, TWO_PI, math.nextafter(TWO_PI, 0.0)]
    qs += around(0.0, EPS) + around(TWO_PI, EPS)
    for j in profile.jumps:
        qs += around(j.angle, EPS) + [j.angle + TWO_PI, j.angle - TWO_PI]
    qs += [s.start + 0.5 * s.width for s in profile.steps]
    return qs


def test_touch_params_equals_linear_search(profiles):
    count = 0
    for profile in profiles:
        for theta in touch_queries(profile):
            assert touch_params(profile, theta) == linear_touch_params(
                profile, theta), theta
            count += 1
    assert count > 50_000


def test_lowest_jump_index_wins_across_the_wrap():
    # two jumps 1.5 eps apart on either side of angle 0: jumps[0] sits
    # just below 2 pi, so it sorts last but must still win at theta = 0
    starts = [TWO_PI - 0.75 * EPS, 0.75 * EPS, 2.0]
    ends = starts[1:] + starts[:1]
    levels = [0.0, 2.0, 1.0]
    steps = tuple(ProfileStep(a, b, (b - a) % TWO_PI, lv, Point2(lv, 0.0))
                  for a, b, lv in zip(starts, ends, levels))
    jumps = tuple(Jump(a, *sorted((levels[i - 1], levels[i])))
                  for i, a in enumerate(starts))
    profile = SupportProfile(steps, jumps, apex_index=1)
    for theta in (0.0, 1e-10, -1e-10, TWO_PI - 1e-10):
        assert touch_params(profile, theta) == (0.0, 1.0)
        assert touch_params(profile, theta) == linear_touch_params(profile, theta)
    assert touch_params(profile, EPS) == (0.0, 2.0)


def test_ledger_equals_quadratic_build(profiles):
    for profile in profiles:
        for mode in (MOUNTAIN, VALLEY):
            assert _window(profile, mode).pieces == tuple(
                quadratic_ledger(profile, mode))


def test_ledger_lookup_equals_linear_walk(profiles):
    for profile in profiles:
        for mode in (MOUNTAIN, VALLEY):
            win = _window(profile, mode)
            # each piece's upper end is the lower end of the one before it
            deltas = around(win.pieces[0].gap.hi, EPS)
            for p in win.pieces:
                deltas += around(p.gap.lo, EPS)
                deltas.append(0.5 * (p.gap.lo + p.gap.hi))
            for delta in deltas:
                assert _lookup(win, delta) == linear_ledger_lookup(
                    list(win.pieces), delta), (mode, delta)


def test_cached_indexes_stay_out_of_identity(e2):
    cold = build_profile(melkman_hull(e2))
    warm = build_profile(melkman_hull(e2))
    touch_params(warm, 1.0)
    _window(warm, MOUNTAIN)
    assert warm == cold and hash(warm) == hash(cold)
    assert repr(warm) == repr(cold)
    assert _window(warm, MOUNTAIN) is _window(warm, MOUNTAIN)
