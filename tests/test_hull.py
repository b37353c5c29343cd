import inspect
import math
import random
import sys
import tracemalloc
from collections import deque
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcsupport import (EPS_ANGLE, ArcError, Hull, Point2,
                        StraightArc, build_arc, build_profile, canon_angle,
                        ccw_gap, corollary_check, melkman_hull,
                        monotone_chain_hull, orient, verify_triple)
from arcsupport.geometry import chain_bound, triple_bound
from families import convex_arc, points, walk_arc
from test_reference import grid_chains, tiny_near_collinear


def point2_melkman_hull(arc):
    """Reference for melkman_hull: the same algorithm with a plain
    orient call on the Point2 vertices for every test, where the loops
    ask again the triples the interior test has just decided."""
    items = list(enumerate(points(arc)))

    first, last = items[0], items[1]
    for k in range(2, len(items)):
        turn = items[k]
        o = orient(first[1], last[1], turn[1])
        if o != 0:
            break
        last = turn
    else:
        raise StraightArc("all vertices collinear within tolerance")

    if o > 0:
        hull = deque([turn, first, last, turn])
    else:
        hull = deque([turn, last, first, turn])

    for item in items[k + 1:]:
        p = item[1]
        if (orient(hull[-2][1], hull[-1][1], p) > 0
                and orient(p, hull[0][1], hull[1][1]) > 0):
            continue
        while len(hull) > 2 and orient(hull[-2][1], hull[-1][1], p) <= 0:
            hull.pop()
        hull.append(item)
        while len(hull) > 2 and orient(item[1], hull[0][1], hull[1][1]) <= 0:
            hull.popleft()
        hull.appendleft(item)

    cycle = list(hull)[:-1]
    changed = True
    while changed and len(cycle) > 2:
        changed = False
        for i in range(len(cycle)):
            a = cycle[i - 1][1]
            b = cycle[i][1]
            c = cycle[(i + 1) % len(cycle)][1]
            if orient(a, b, c) <= 0:
                del cycle[i]
                changed = True
                break
    if len(cycle) < 3:
        raise StraightArc("hull degenerates to a segment within tolerance")

    m = len(cycle)
    start = min(range(m), key=lambda i: arc.params[cycle[i][0]])
    cycle = cycle[start:] + cycle[:start]
    edges = [canon_angle(math.atan2(b.y - a.y, b.x - a.x))
             for (_, a), (_, b) in zip(cycle, cycle[1:] + cycle[:1])]
    widths = []
    for i, (_, b) in enumerate(cycle):
        ext = ccw_gap(edges[i - 1], edges[i])
        if not (EPS_ANGLE < ext < math.pi):
            raise StraightArc(f"degenerate exterior angle {ext} at corner {b}")
        widths.append(ext)
    corners = tuple(idx for idx, _ in cycle)
    return Hull(corners, tuple(arc.params[idx] for idx in corners),
                tuple(edges[-1:] + edges[:-1]), tuple(widths))


def near_line(offset):
    """A chain within the orientation tolerance of the x axis but for
    one vertex 0.1 to 1 off it: the deque's seam may turn straight
    here, and the repair drops it, at times with a corner across the
    gap.  Its |y| noise reaches 3e-12 (1 + |x|) or 4 (1 + |x|) float
    spacings at offset, whichever is larger, so that once the chain is
    moved by offset its points still sit off one line."""
    noise = max(3e-12, 4 * math.ulp(offset))
    return st.builds(
        lambda pts, j, lift: [
            (x, t * (1.0 + abs(x)) + (lift if i == j % len(pts) else 0.0))
            for i, (x, t) in enumerate(pts)],
        st.lists(st.tuples(st.floats(-1.0, 2.0), st.floats(-noise, noise)),
                 min_size=4, max_size=10),
        st.integers(0, 9),
        st.floats(0.1, 1.0) | st.floats(-1.0, -0.1))


def simple_chain(pts):
    """The points of pts that keep the chain simple, in order: a point
    that build_arc refuses after the points kept so far is left out."""
    chain = pts[:1]
    for p in pts[1:]:
        try:
            build_arc(chain + [p])
        except ArcError:
            continue
        chain.append(p)
    return chain


def walk_back(starts, land, cuts, lift, mirror, noise):
    """A chain along the x axis, noise * (1 + |x|) off it: from the
    points starts up to a vertex lifted off the axis, down at land past
    their far end, and back towards them to the cuts of the way.  The
    last vertex, the deque's seam, turns straight between two points of
    the line, and once it is dropped, at times so does the back corner.
    mirror (1 or -1) scales x."""
    starts = sorted(starts)
    back = sorted((starts[-1] + c * (land - starts[-1]) for c in cuts),
                  reverse=True)
    line = starts + [land] + back
    pts = [(mirror * x, t * (1.0 + abs(x))) for x, t in zip(line, noise)]
    return simple_chain(pts[:len(starts)] + [lift] + pts[len(starts):])


# noise 1e-14 to 1e-12 either way, within the orientation tolerance and
# never 0: on an exact line no mutant of the seam repair was caught
NOISE = st.integers(1, 100).map(lambda k: k * 1e-14)
seam_walks = st.builds(
    walk_back,
    st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3),
    st.floats(2.0, 3.0),
    st.lists(st.integers(1, 99).map(lambda k: k / 100), min_size=2,
             max_size=4),
    st.tuples(st.floats(-1.0, 3.0),
              st.floats(0.1, 1.0) | st.floats(-1.0, -0.1)),
    st.sampled_from([1.0, -1.0]),
    st.lists(NOISE | NOISE.map(lambda t: -t), min_size=8, max_size=8))


# slivers, collinear runs and far offsets, where a sign could flip.
# Most raw draws overlap or repeat themselves; keeping only the points
# that leave the chain simple lets nearly every example build an arc
hull_chains = st.sampled_from([0.0, 1e6, -1e12]).flatmap(
    lambda offset: st.builds(
        lambda pts: simple_chain([(x + offset, y + offset) for x, y in pts]),
        grid_chains | tiny_near_collinear | near_line(offset)))


def outcome(hull_of, arc):
    """The hull and its repr, or the StraightArc message."""
    try:
        hull = hull_of(arc)
    except StraightArc as exc:
        return None, str(exc)
    return hull, repr(hull)


def corner_points(arc, hull):
    return [Point2(arc.xs[i], arc.ys[i]) for i in hull.corners]


def assert_turns_left(arc, hull):
    # the hull tests no turn again but at its seam: the deque and the
    # seam repair must give a counterclockwise cycle of strict turns
    pts = corner_points(arc, hull)
    m = len(pts)
    assert m >= 3
    for i in range(m):
        assert orient(pts[i - 1], pts[i], pts[(i + 1) % m]) > 0, i


def test_e1_corners(e1):
    hull = melkman_hull(e1)
    assert hull.corners == (0, 1, 2)
    assert [(e1.xs[i], e1.ys[i]) for i in hull.corners] == [
        (0.0, 0.0), (1.0, 0.0), (1.0, 1.0)]
    assert hull.levels == (0.0, 1.0, 2.0)


def test_interior_vertex_excluded():
    arc = build_arc([(0, 0), (1, 0.4), (2, 0), (2, 2)])
    hull = melkman_hull(arc)
    assert 1 not in hull.corners
    assert len(hull.corners) == 3
    d = math.hypot(1, 0.4)
    assert hull.levels == pytest.approx([0.0, 2 * d, 2 * d + 2])


def test_straight_arc_rejected():
    arc = build_arc([(0, 0), (1, 0), (2, 0)])
    with pytest.raises(StraightArc):
        melkman_hull(arc)


def test_e1_corner_steps(e1):
    hull = melkman_hull(e1)
    # corner i's step ends where corner i + 1's starts
    ends = hull.starts[1:] + hull.starts[:1]
    steps = {level: (a, b, w) for level, a, b, w in zip(
        hull.levels, hull.starts, ends, hull.widths)}
    assert steps[1.0] == pytest.approx((0.0, math.pi / 2, math.pi / 2))
    assert steps[2.0] == pytest.approx(
        (math.pi / 2, 5 * math.pi / 4, 3 * math.pi / 4))
    assert steps[0.0] == pytest.approx(
        (5 * math.pi / 4, 0.0, 3 * math.pi / 4), abs=1e-12)


@pytest.mark.parametrize("scale, offset",
                         [(1.0, 1e12), (1e-6, 1e3), (1e-10, 0.0)])
def test_far_from_origin_keeps_e2_pair(scale, offset):
    # the hull orientation must not cancel away at a large offset, and
    # no slack may stop scaling with a tiny arc
    arc = build_arc([(x * scale + offset, y * scale + offset)
                     for x, y in [(0, 0), (3, 0), (3, 1), (2, 1)]])
    hull = melkman_hull(arc)
    assert_turns_left(arc, hull)
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
        total = sum(profile.widths)
        assert abs(total - 2 * math.pi) <= len(profile.widths) * 1e-9


def test_melkman_matches_monotone_chain(fuzz_pool):
    for arc, _ in fuzz_pool:
        mel = melkman_hull(arc)
        mono = monotone_chain_hull(points(arc))
        assert sorted(mel.levels) == sorted(
            arc.params[i] for i in mono)


def test_corners_turn_counterclockwise(fuzz_pool):
    for arc, _ in fuzz_pool:
        assert_turns_left(arc, melkman_hull(arc))
    rng = random.Random(1600)
    for make in (convex_arc, walk_arc):
        arc = build_arc(make(1600, rng))
        assert_turns_left(arc, melkman_hull(arc))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(pts=hull_chains)
def test_corners_turn_counterclockwise_on_adversarial_chains(pts):
    try:
        arc = build_arc(pts)
        hull = melkman_hull(arc)
    except (ArcError, StraightArc):
        return
    assert_turns_left(arc, hull)


def test_melkman_equals_point2_reference(fuzz_pool):
    arcs = [arc for arc, _ in fuzz_pool]
    for n in (400, 1600):
        rng = random.Random(n)
        arcs += [build_arc(make(n, rng)) for make in (convex_arc, walk_arc)]
    for arc in arcs:
        want = outcome(point2_melkman_hull, arc)
        assert want[0] is not None
        assert outcome(melkman_hull, arc) == want


@settings(max_examples=400, deadline=None, derandomize=True)
@given(pts=hull_chains)
def test_melkman_equals_point2_reference_on_adversarial_chains(pts):
    try:
        arc = build_arc(pts)
    except ArcError:
        return
    assert outcome(melkman_hull, arc) == outcome(point2_melkman_hull, arc)


@pytest.mark.parametrize("make", [convex_arc, walk_arc])
def test_hull_decides_each_triple_once(orient_counts, make):
    # the reference asks about 6 orientations per vertex here, each a
    # full orient call.  The deque loops decide on their own cross
    # product, asking triple_bound only about the few products within
    # the chain's bound, so turn hears only the collinear prefix (one
    # triple) and the seam repair (the seam and the back corner).  The
    # loops take the chain's bound from the arc, which build_arc computed
    # from its spans: the hull computes none
    n = 1600
    arc = build_arc(make(n, random.Random(n)))
    orient_counts.update(decided=0, full=0, bounds=0)
    melkman_hull(arc)
    assert orient_counts["decided"] <= 3
    assert orient_counts["full"] <= 0.01 * n
    assert orient_counts["bounds"] == 0
    # the counters count: on a straight chain every test is a full call
    arc = build_arc([(float(i), 0.0) for i in range(n)])
    orient_counts.update(decided=0, full=0)
    with pytest.raises(StraightArc):
        melkman_hull(arc)
    assert orient_counts["decided"] == orient_counts["full"] == n - 2


@settings(max_examples=400, deadline=None, derandomize=True)
@given(pts=seam_walks)
def test_seam_repair_equals_point2_reference_on_walks_back(pts):
    # the walks aim at the seam repair's drops: each must leave the
    # reference's hull, a cycle of strict left turns
    try:
        arc = build_arc(pts)
    except ArcError:
        return
    got = outcome(melkman_hull, arc)
    assert got == outcome(point2_melkman_hull, arc)
    if got[0] is not None:
        assert_turns_left(arc, got[0])


# chains whose seam turns straight within the tolerance, so the repair
# drops it and then a corner that meets the next across the gap: the new
# front, or the back.  A repair that skips the back corner, or stops
# after one drop, leaves a degenerate exterior angle on one of them
SEAM_CHAINS = {
    "front, front": [(1.0091061014572573, -3.2192581453378694e-12),
                     (1.7513463990830744, 0.9319504689960507),
                     (-0.8845272832322155, -4.844821915398545e-12),
                     (0.6051039706109238, -2.098607876326204e-12),
                     (0.9818890359899548, -1.0054844982254089e-14)],
    "front, back": [(0.999999999998181, -1.8189894035458565e-12),
                    (2.0, 0.0), (2.0000000074505806, 1.9999999925494194),
                    (1.0, 0.0), (2.0, 1.0)],
}


@pytest.mark.parametrize("drops", sorted(SEAM_CHAINS))
def test_seam_repair_drops_across_the_gap(drops):
    arc = build_arc(SEAM_CHAINS[drops])
    got = outcome(melkman_hull, arc)
    assert got == outcome(point2_melkman_hull, arc)
    hull = got[0]
    assert hull.corners == (0, 1, 2)
    assert_turns_left(arc, hull)


# a short tail segment within the orientation tolerance of a hull
# edge's line, a hair to its left: the cross product of the loop that
# decides the turn named is positive and within the chain's bound, and
# its triple's own threshold makes it 0, so the sign alone would decide
# the other way.  Each loop asks triple_bound with the points in turn's
# order, on the line given
FALLBACK_CHAINS = {
    "turn(a, b, i)": ([(0.0, 0.0), (1.0, 0.0), (1.5, 1.0),
                       (1.000000002, 2e-13), (1.000000011, 1.1e-12)],
                      "triple_bound(ax, ay, xs[b], ys[b], xi, yi)"),
    "turn(i, a, b)": ([(0.0, 0.0), (1.0, 0.0), (1.5, 1.0),
                       (-0.5, 2e-12), (-0.50001, 2.4e-12)],
                      "triple_bound(xi, yi, xs[a], ys[a], xs[b], ys[b])"),
}


@pytest.mark.parametrize("call", sorted(FALLBACK_CHAINS))
def test_deque_loop_asks_turn_within_the_bound(call):
    chain, text = FALLBACK_CHAINS[call]
    arc = build_arc(chain)
    xs, ys = arc.xs, arc.ys
    source, first = inspect.getsourcelines(melkman_hull)
    line = first + next(k for k, code in enumerate(source) if text in code)
    asked = []  # (points, threshold) of each triple_bound from that line

    def answer(frame, event, arg):
        if event == "return":
            asked.append((itemgetter("px", "py", "qx", "qy", "rx", "ry")(
                frame.f_locals), arg))
        return answer

    def calls(frame, event, arg):
        if (frame.f_code is triple_bound.__code__
                and frame.f_back.f_code is melkman_hull.__code__
                and frame.f_back.f_lineno == line):
            return answer
        return None

    sys.settrace(calls)
    try:
        got = outcome(melkman_hull, arc)
    finally:
        sys.settrace(None)
    want = outcome(point2_melkman_hull, arc)
    assert want[0] is not None
    assert got == want
    # turn's cross product, positive and within the bound, yet not
    # above the threshold: the loop called it 0
    bound = chain_bound(xs, ys)
    assert any(0.0 < (qx - px) * (ry - py) - (qy - py) * (rx - px)
               <= min(bound, t)
               for (px, py, qx, qy, rx, ry), t in asked), asked


def test_hull_and_profile_keep_few_bytes_per_corner():
    # the corners as columns: an index, three floats (the level is the
    # arc's own) and a jump pair per corner, about 164 bytes in all; a
    # record and a Point2 per corner kept about 309
    n = 10_000
    arc = build_arc(convex_arc(n, random.Random(n)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        hull = melkman_hull(arc)
        profile = build_profile(hull)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(hull) == len(profile.levels) == n
    assert kept <= 200 * n


def test_all_vertices_inside_hull(fuzz_pool):
    for arc, _ in fuzz_pool[:200]:
        pts = corner_points(arc, melkman_hull(arc))
        m = len(pts)
        for i in range(m):
            a, b = pts[i], pts[(i + 1) % m]
            for v in points(arc):
                assert orient(a, b, v) >= 0


def test_monotone_chain_fixture(e2):
    idx = monotone_chain_hull(points(e2))
    assert sorted(idx) == [0, 1, 2, 3]
    with pytest.raises(StraightArc):
        monotone_chain_hull([Point2(0, 0), Point2(1, 0), Point2(2, 0)])
