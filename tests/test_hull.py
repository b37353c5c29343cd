import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcsupport import (ArcError, Point2, StraightArc, build_arc,
                        build_profile, corollary_check, melkman_hull,
                        monotone_chain_hull, orient, verify_triple)
from families import convex_arc, walk_arc
from test_reference import grid_chains, tiny_near_collinear


def assert_turns_left(hull):
    # the hull keeps no orientation pass: the deque must give a
    # counterclockwise cycle of strict turns
    pts = [c.point for c in hull.corners]
    m = len(pts)
    assert m >= 3
    for i in range(m):
        assert orient(pts[i - 1], pts[i], pts[(i + 1) % m]) > 0, i


def test_e1_corners(e1):
    hull = melkman_hull(e1)
    assert [(c.point.x, c.point.y, c.level) for c in hull.corners] == [
        (0.0, 0.0, 0.0), (1.0, 0.0, 1.0), (1.0, 1.0, 2.0)]


def test_interior_vertex_excluded():
    arc = build_arc([(0, 0), (1, 0.4), (2, 0), (2, 2)])
    hull = melkman_hull(arc)
    pts = [(c.point.x, c.point.y) for c in hull.corners]
    assert (1.0, 0.4) not in pts
    assert len(hull.corners) == 3
    d = math.hypot(1, 0.4)
    assert [c.level for c in hull.corners] == pytest.approx([0.0, 2 * d, 2 * d + 2])


def test_straight_arc_rejected():
    arc = build_arc([(0, 0), (1, 0), (2, 0)])
    with pytest.raises(StraightArc):
        melkman_hull(arc)


def test_e1_corner_steps(e1):
    hull = melkman_hull(e1)
    by_level = {c.level: c for c in hull.corners}
    c = by_level[1.0]
    assert (c.start, c.end) == pytest.approx((0.0, math.pi / 2))
    assert c.width == pytest.approx(math.pi / 2)
    c = by_level[2.0]
    assert (c.start, c.end) == pytest.approx((math.pi / 2, 5 * math.pi / 4))
    assert c.width == pytest.approx(3 * math.pi / 4)
    c = by_level[0.0]
    assert (c.start, c.end) == pytest.approx((5 * math.pi / 4, 0.0), abs=1e-12)
    assert c.width == pytest.approx(3 * math.pi / 4)


@pytest.mark.parametrize("scale, offset",
                         [(1.0, 1e12), (1e-6, 1e3), (1e-10, 0.0)])
def test_far_from_origin_keeps_e2_pair(scale, offset):
    # the hull orientation must not cancel away at a large offset, and
    # no slack may stop scaling with a tiny arc
    arc = build_arc([(x * scale + offset, y * scale + offset)
                     for x, y in [(0, 0), (3, 0), (3, 1), (2, 1)]])
    hull = melkman_hull(arc)
    assert_turns_left(hull)
    profile = build_profile(hull)
    res = corollary_check(profile, arc, math.pi)
    assert res.identical
    for pair in (res.mountain, res.valley):
        assert pair.strict and verify_triple(arc, pair).passed
        assert pair.theta_single == pytest.approx(math.atan(0.5), abs=1e-9)
        assert pair.theta_double == pytest.approx(math.pi + math.atan(0.5),
                                                  abs=1e-9)
        assert pair.triple == pytest.approx((0.0, 3 * scale, 5 * scale),
                                            rel=1e-6, abs=1e-9 * scale)


def test_exterior_angles_sum(fuzz_pool):
    for arc, profile in fuzz_pool:
        total = sum(s.width for s in profile.steps)
        assert abs(total - 2 * math.pi) <= len(profile.steps) * 1e-9


def test_melkman_matches_monotone_chain(fuzz_pool):
    for arc, _ in fuzz_pool:
        mel = melkman_hull(arc)
        mono = monotone_chain_hull(list(arc.vertices))
        assert sorted(c.level for c in mel.corners) == sorted(
            arc.params[i] for i in mono)


def test_corners_turn_counterclockwise(fuzz_pool):
    for arc, _ in fuzz_pool:
        assert_turns_left(melkman_hull(arc))
    rng = random.Random(1600)
    for make in (convex_arc, walk_arc):
        assert_turns_left(melkman_hull(build_arc(make(1600, rng))))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(pts=grid_chains | tiny_near_collinear,
       offset=st.sampled_from([0.0, 1e6, -1e12]))
def test_corners_turn_counterclockwise_on_adversarial_chains(pts, offset):
    # slivers, collinear runs and far offsets, where a sign could flip
    try:
        arc = build_arc([(x + offset, y + offset) for x, y in pts])
        hull = melkman_hull(arc)
    except (ArcError, StraightArc):
        return
    assert_turns_left(hull)


def test_all_vertices_inside_hull(fuzz_pool):
    for arc, _ in fuzz_pool[:200]:
        hull = melkman_hull(arc)
        m = len(hull.corners)
        for i in range(m):
            a = hull.corners[i].point
            b = hull.corners[(i + 1) % m].point
            for v in arc.vertices:
                assert orient(a, b, v) >= 0


def test_monotone_chain_fixture(e2):
    idx = monotone_chain_hull(list(e2.vertices))
    assert sorted(idx) == [0, 1, 2, 3]
    with pytest.raises(StraightArc):
        monotone_chain_hull([Point2(0, 0), Point2(1, 0), Point2(2, 0)])
