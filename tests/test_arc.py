import math
import random
import tracemalloc
from decimal import Decimal

import pytest

from arcsupport import (EPS_TOUCH, ArcError, DuplicateVertex, ParamOutOfRange,
                        Point2, SelfIntersecting, TooFewVertices, build_arc,
                        point_at)
from arcsupport import (MOUNTAIN, build_profile, find_pair, melkman_hull,
                        render_pair_svg, verify_triple)
from arcsupport.arc import MAX_SPAN, MIN_SPAN
from families import convex_arc, walk_arc


def test_build_e1(e1):
    assert e1.params == (0.0, 1.0, 2.0)
    assert e1.length == 2.0


def test_build_e2(e2):
    assert e2.params == (0.0, 3.0, 4.0, 5.0)
    assert e2.length == 5.0


def test_crossing_rejected():
    with pytest.raises(SelfIntersecting):
        build_arc([(0, 0), (2, 0), (1, 1), (1, -1)])


def test_touching_rejected():
    # later vertex lands exactly on an earlier segment
    with pytest.raises(SelfIntersecting):
        build_arc([(0, 0), (2, 0), (2, 1), (1, 0)])


def test_backtracking_rejected():
    with pytest.raises(SelfIntersecting):
        build_arc([(0, 0), (2, 0), (1, 0)])


def span_verdict(vertices):
    try:
        build_arc(vertices)
    except ArcError as exc:
        if str(exc).startswith("bounding-box diagonal"):
            return "span"
        return type(exc).__name__
    return "accepted"


def test_spans_whose_orientations_leave_the_floats_are_refused():
    # chains in [0, 10) scaled by 2^510 have cross products that
    # overflow to inf or nan, scaled by 2^-540 thresholds that
    # underflow: each is refused for its span, never given a verdict
    # other than its own at scale 1
    rng = random.Random(1)
    chains = [[(10 * rng.random(), 10 * rng.random()) for _ in range(6)]
              for _ in range(300)]
    verdicts = {"accepted": 0, "span": 0}
    for chain in chains:
        own = span_verdict(chain)
        verdicts["accepted"] += own == "accepted"
        for k in (510, -540, 100, -100):
            got = span_verdict([(math.ldexp(x, k), math.ldexp(y, k))
                                for x, y in chain])
            assert got in (own, "span"), (k, chain)
            verdicts["span"] += got == "span"
    assert verdicts == {"accepted": 81, "span": 600}
    # the limits themselves are accepted, the next floats out are not
    assert len(build_arc([(0.0, 0.0), (MIN_SPAN, 0.0)])) == 2
    assert len(build_arc([(0.0, 0.0), (0.0, MAX_SPAN)])) == 2
    for far in (math.nextafter(MIN_SPAN, 0.0), math.nextafter(MAX_SPAN, 2e308),
                math.inf):
        assert span_verdict([(0.0, 0.0), (far, 0.0)]) == (
            "span" if math.isfinite(far) else "ArcError")
    assert span_verdict([(-1e308, 0.0), (1e308, 0.0)]) == "span"


@pytest.mark.parametrize("k", [-20, 0, 20])
def test_far_tiny_segment_near_the_line_accepted(k):
    # segment 3 is 4e-7 long, within the orientation tolerance of the
    # line through segment 0 and starts 0.53 right of its end: the
    # tolerant sign test alone called them intersecting
    vertices = [(0, 0), (1, 0), (1.5, 1),
                (1.5292353540374406, 2.84194129160528e-12),
                (1.5292357661276, 1.4318546153326271e-12)]
    arc = build_arc([(math.ldexp(x, k), math.ldexp(y, k))
                     for x, y in vertices])
    assert len(arc) == 5


@pytest.mark.parametrize("side", [1.0, -1.0])
def test_vertex_a_hair_off_a_segment_rejected(side):
    # 1e-13 of the diagonal off segment 0's interior, on either side:
    # within the grown boxes, so the orientation test still decides
    diag = math.hypot(2.0, 1.0)
    with pytest.raises(SelfIntersecting, match="segments 0 and 2"):
        build_arc([(0, 0), (2, 0), (2, 1), (1, side * 1e-13 * diag)])


def test_collinear_continuation_accepted():
    arc = build_arc([(0, 0), (1, 0), (2, 0), (2, 2)])
    assert arc.params == (0.0, 1.0, 2.0, 4.0)


def test_too_few_vertices():
    with pytest.raises(TooFewVertices):
        build_arc([(0, 0)])


def test_duplicate_vertex():
    with pytest.raises(DuplicateVertex):
        build_arc([(0, 0), (1, 0), (1, 0), (2, 1)])


def test_point_at(e1, e2):
    assert point_at(e1, 0.0) == Point2(0.0, 0.0)
    assert point_at(e1, 1.5) == Point2(1.0, 0.5)
    assert point_at(e2, 3.0) == Point2(3.0, 0.0)


def test_point_at_out_of_range(e1):
    with pytest.raises(ParamOutOfRange):
        point_at(e1, -0.5)
    with pytest.raises(ParamOutOfRange):
        point_at(e1, 2.5)
    # the slack is EPS_TOUCH times the arc's length, at either end
    length = e1.length
    assert point_at(e1, length * (1 + 0.5 * EPS_TOUCH)) == Point2(1.0, 1.0)
    assert point_at(e1, -length * 0.5 * EPS_TOUCH) == Point2(0.0, 0.0)
    with pytest.raises(ParamOutOfRange):
        point_at(e1, length * (1 + 2 * EPS_TOUCH))
    with pytest.raises(ParamOutOfRange):
        point_at(e1, -length * 2 * EPS_TOUCH)


def test_param_steps_are_edge_lengths(fuzz_pool):
    for arc, _ in fuzz_pool[:50]:
        for i in range(len(arc) - 1):
            edge = math.hypot(arc.xs[i] - arc.xs[i + 1],
                              arc.ys[i] - arc.ys[i + 1])
            assert arc.params[i + 1] - arc.params[i] == pytest.approx(edge)


def test_point_at_injective_at_resolution(fuzz_pool):
    # simpleness: distinct parameters map to distinct points
    import random
    rng = random.Random(5)
    for arc, _ in fuzz_pool[:20]:
        ss = sorted(rng.uniform(0, arc.length) for _ in range(40))
        pts = [point_at(arc, s) for s in ss]
        for (sa, pa), (sb, pb) in zip(zip(ss, pts), zip(ss[1:], pts[1:])):
            if sb - sa > 1e-6 * arc.length:
                assert math.hypot(pa.x - pb.x, pa.y - pb.y) > 0.0


@pytest.mark.parametrize("bad", [
    [(0, 0, 9), (1, 0), (1, 1)],      # third coordinate
    [("0", 0), (1, 0), (1, 1)],       # string
    [(0, 0), (1, 0), (True, 1)],      # bool
    [(0, 0), (1, 0), (1, 10 ** 400)],  # too large for a float
    [(0, 0), (1, 0), 5],
    5,
    [(Decimal(0), 0), (1, 0), (1, 1)],  # not a numbers.Real
])
def test_vertex_must_be_two_numbers(bad):
    with pytest.raises(ArcError):
        build_arc(bad)


def test_points_and_numeric_pairs_accepted():
    from fractions import Fraction
    arc = build_arc([Point2(0.0, 0.0), [1, 0], (Fraction(1), 1.0)])
    assert (arc.xs[2], arc.ys[2]) == (1.0, 1.0)


def test_numeric_coordinate_types_build_the_same_arc():
    import numpy as np
    from fractions import Fraction
    plain = [(0.0, 0.0), (3.0, 0.0), (3.0, 1.0), (2.0, 1.0)]
    for kind in (np.float64, np.int64, Fraction, int):
        pts = [(kind(int(x)), kind(int(y))) for x, y in plain]
        assert build_arc(pts) == build_arc(plain), kind


@pytest.mark.parametrize("make", [convex_arc, walk_arc])
def test_validation_decides_each_triple_once(orient_counts, make):
    # the back-tracking check asks turn only where adjacent edges point
    # back, which no edge of the convex family does, and the sweep four
    # times per pair of segments tested; the chain's bound decides
    # nearly all of them.  The bound comes from the spans build_arc
    # takes for the diagonal: no chain_bound call
    n = 1600
    build_arc(make(n, random.Random(n)))
    if make is convex_arc:
        assert orient_counts["decided"] == 0
    else:
        assert orient_counts["decided"] <= 0.2 * n
    assert orient_counts["full"] <= 0.01 * n
    assert orient_counts["bounds"] == 0
    # a straight chain points forward at every vertex: turn hears nothing
    orient_counts.update(decided=0, full=0)
    build_arc([(float(i), 0.0) for i in range(n)])
    assert orient_counts["decided"] == orient_counts["full"] == 0
    # the counters count: on a zigzag every pair of edges points back,
    # and the chain's bound decides every turn
    orient_counts.update(decided=0, full=0)
    build_arc([(0.1 * i, float(i % 2)) for i in range(n)])
    assert orient_counts["decided"] == n - 2
    assert orient_counts["full"] == 0


@pytest.mark.parametrize("make", [convex_arc, walk_arc])
def test_pipeline_builds_points_for_point_at_only(monkeypatch, make):
    # the arc and the hull keep floats: a Point2 is built per point_at
    # call (three to verify a pair, three to draw it), not per vertex or
    # per hull corner
    built = 0
    init = Point2.__init__

    def counted(self, x, y):
        nonlocal built
        built += 1
        init(self, x, y)

    monkeypatch.setattr(Point2, "__init__", counted)
    arc = build_arc(make(1600, random.Random(1600)))
    hull = melkman_hull(arc)
    profile = build_profile(hull)
    pair = find_pair(profile, math.pi, MOUNTAIN)
    assert verify_triple(arc, pair).passed
    render_pair_svg(arc, hull, pair)
    assert built <= 6


def test_building_small_arcs_keeps_no_memory():
    # a fuzz campaign builds arcs of 4 to 12 vertices by the million:
    # building one must hand back all it allocates, the interpreter's
    # free lists of small tuples included
    rng = random.Random(3)
    chains = [convex_arc(n, rng) for n in range(4, 13) for _ in range(20)]
    for chain in chains:
        build_arc(chain)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(10):
            for chain in chains:
                build_arc(chain)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 16 * 1024
