import math
import random

import pytest

from arcsupport import (Hull, Point2, angle_of, build_arc, build_profile,
                        ccw_gap, circ_dist, melkman_hull, oracle_touch_params,
                        touch_params)
from arcsupport import hull as hull_module
from arcsupport.oracle import (MalformedFunction, cross_section, support_line,
                               unique_crossing)
from families import convex_arc, walk_arc

PI = math.pi
ATAN_HALF = math.atan(0.5)


def rotate(arc_vertices, phi):
    c, s = math.cos(phi), math.sin(phi)
    return [(c * p.x - s * p.y, s * p.x + c * p.y) for p in arc_vertices]


def test_e1_profile_structure(e1_profile):
    p = e1_profile
    assert p.levels == (0.0, 1.0, 2.0)
    jumps = {round(j.angle, 12): (j.low_param, j.high_param) for j in p.jumps}
    assert jumps[0.0] == (0.0, 1.0)
    assert jumps[round(PI / 2, 12)] == (1.0, 2.0)
    assert jumps[round(5 * PI / 4, 12)] == (0.0, 2.0)
    assert p.min_step.width == pytest.approx(3 * PI / 4)
    assert p.apex_step.width == pytest.approx(3 * PI / 4)


def test_e2_profile_structure(e2_profile):
    p = e2_profile
    assert p.levels == (0.0, 3.0, 4.0, 5.0)
    jumps = {round(j.angle, 9): (j.low_param, j.high_param) for j in p.jumps}
    assert jumps[0.0] == (0.0, 3.0)
    assert jumps[round(PI / 2, 9)] == (3.0, 4.0)
    assert jumps[round(PI, 9)] == (4.0, 5.0)
    assert jumps[round(PI + ATAN_HALF, 9)] == (0.0, 5.0)
    assert p.min_step.width == pytest.approx(PI - ATAN_HALF)
    assert p.apex_step.width == pytest.approx(ATAN_HALF)


def test_profile_needs_the_hull_to_start_at_the_minimum(e2):
    # melkman_hull lists corners from the minimum-parameter one; a cycle
    # starting elsewhere breaks the rise-then-fall shape
    corners = melkman_hull(e2).corners
    for start in range(1, len(corners)):
        with pytest.raises(ValueError, match="rise-then-fall"):
            build_profile(Hull(corners[start:] + corners[:start]))


def test_profile_steps_are_the_hull_corners(e2):
    hull = melkman_hull(e2)
    assert build_profile(hull).steps is hull.corners


def test_steps_tile_the_circle_exactly(fuzz_pool, monkeypatch):
    # touch_params relies on this: the step at or before theta holds it
    calls = []

    def counted(v):
        calls.append(v)
        return angle_of(v)

    monkeypatch.setattr(hull_module, "angle_of", counted)
    rng = random.Random(1600)
    arcs = [arc for arc, _ in fuzz_pool] + [
        build_arc(make(1600, rng)) for make in (convex_arc, walk_arc)]
    for arc in arcs:
        calls.clear()
        hull = melkman_hull(arc)
        m = len(hull)
        assert len(calls) == m  # one direction per hull edge
        profile = build_profile(hull)
        steps = profile.steps
        for i in range(m):
            assert steps[i].end == steps[(i + 1) % m].start, i
        # the sorted jump angles are a rotation of the step order
        _, order = profile._by_angle
        k = order[0]
        assert order == tuple(range(k, m)) + tuple(range(k))


def test_touch_params_e1(e1_profile):
    assert touch_params(e1_profile, PI / 4) == (1.0,)
    assert touch_params(e1_profile, PI / 2) == (1.0, 2.0)
    assert touch_params(e1_profile, 5 * PI / 4) == (0.0, 2.0)


def test_touch_params_periodic(e1_profile):
    for theta in (0.3, 2.0, 5.5):
        assert touch_params(e1_profile, theta) == touch_params(
            e1_profile, theta + 2 * PI)


def test_cross_section(e1_profile):
    sec = cross_section(e1_profile, 1.0)
    assert sec == pytest.approx((0.0, PI / 2))
    sec = cross_section(e1_profile, 0.0)
    assert sec == pytest.approx((5 * PI / 4, 0.0), abs=1e-12)
    assert cross_section(e1_profile, 1.5) is None


def test_cross_section_shorter_than_pi(fuzz_pool):
    for _, profile in fuzz_pool[:300]:
        for step in profile.steps:
            sec = cross_section(profile, step.level)
            assert sec is not None
            assert ccw_gap(sec[0], sec[1]) < PI - 1e-9


def test_level_sequence_rise_then_fall(fuzz_pool):
    for _, profile in fuzz_pool:
        levels = list(profile.levels)
        k = levels.index(max(levels))
        rising = levels[:k + 1]
        falling = levels[k:] + [levels[0]]
        assert all(a < b for a, b in zip(rising, rising[1:]))
        assert all(a > b for a, b in zip(falling, falling[1:]))


def test_support_line_e1(e1, e1_profile):
    line = support_line(e1_profile, e1, 0.0)
    assert line.anchor == Point2(0.0, 0.0)
    line = support_line(e1_profile, e1, 5 * PI / 4)
    assert line.anchor == Point2(0.0, 0.0)


def test_support_line_e2_top(e2, e2_profile):
    line = support_line(e2_profile, e2, PI)
    assert line.anchor == Point2(3.0, 1.0)  # smaller parameter of the two
    assert line.theta == pytest.approx(PI)


def test_profile_matches_oracle(fuzz_pool):
    rng = random.Random(99)
    for arc, profile in fuzz_pool[:40]:
        for _ in range(250):
            theta = rng.uniform(0.0, 2 * PI)
            assert touch_params(profile, theta) == oracle_touch_params(arc, theta)


def test_rotation_equivariance(e1):
    for phi in (0.3, 1.0, 2.5, 4.0):
        rot = build_arc(rotate(e1.vertices, phi))
        prof = build_profile(melkman_hull(rot))
        base = build_profile(melkman_hull(e1))
        assert prof.levels == base.levels
        for s_rot, s_base in zip(prof.steps, base.steps):
            assert circ_dist(s_rot.start, s_base.start + phi) < 1e-9


def test_scale_invariance(e2):
    unit = build_arc([(p.x / e2.length, p.y / e2.length) for p in e2.vertices])
    prof = build_profile(melkman_hull(unit))
    base = build_profile(melkman_hull(e2))
    for s_unit, s_base in zip(prof.steps, base.steps):
        assert circ_dist(s_unit.start, s_base.start) < 1e-9
        assert s_unit.level == pytest.approx(s_base.level / e2.length)


SYMMETRIC_TENT = [(0.0, 0.0), (PI, 1.0), (2 * PI, 0.0)]


def test_unique_crossing_symmetric_tent():
    x = unique_crossing(SYMMETRIC_TENT, PI)
    assert x == pytest.approx(PI / 2, abs=1e-10)


def test_unique_crossing_general_delta():
    for delta in (0.5, 1.0, 2.0, PI, 4.0, 6.0):
        x = unique_crossing(SYMMETRIC_TENT, delta)
        assert x == pytest.approx((2 * PI - delta) / 2, abs=1e-10)


def test_unique_crossing_skewed_tent():
    x = unique_crossing([(0.0, 0.0), (PI / 2, 1.0), (2 * PI, 0.0)], PI)
    assert x == pytest.approx(PI / 4, abs=1e-10)


def _tent_eval(bps, x):
    for (x0, y0), (x1, y1) in zip(bps, bps[1:]):
        if x0 <= x <= x1:
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    raise AssertionError


def test_unique_crossing_is_unique():
    delta = PI
    bps = [(0.0, 0.0), (1.0, 0.4), (PI, 1.0), (4.0, 0.7), (2 * PI, 0.0)]
    x = unique_crossing(bps, delta)
    assert abs(_tent_eval(bps, x) - _tent_eval(bps, x + delta)) < 1e-10
    # a sweep finds no second sign change of f(x) - f(x + delta)
    signs = []
    n = int((2 * PI - delta) / 1e-4)
    for i in range(n + 1):
        xx = i * 1e-4
        d = _tent_eval(bps, xx) - _tent_eval(bps, xx + delta)
        if abs(d) > 1e-12:
            signs.append(d > 0)
    changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    assert changes == 1


def test_unique_crossing_rejects_malformed():
    with pytest.raises(MalformedFunction):
        unique_crossing([(0.0, 0.0), (PI, 0.8), (2 * PI, 0.0)], PI)  # peak != 1
    with pytest.raises(MalformedFunction):
        unique_crossing([(0.0, 0.0), (1.0, 1.0), (2.0, 1.0),
                         (2 * PI, 0.0)], PI)  # plateau
    with pytest.raises(MalformedFunction):
        unique_crossing([(0.0, 0.1), (PI, 1.0), (2 * PI, 0.0)], PI)  # f(0) != 0
