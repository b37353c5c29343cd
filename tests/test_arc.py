import math
from decimal import Decimal

import pytest

from arcsupport import (ArcError, DuplicateVertex, ParamOutOfRange, Point2,
                        SelfIntersecting, TooFewVertices, build_arc, point_at)


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


def test_param_steps_are_edge_lengths(fuzz_pool):
    for arc, _ in fuzz_pool[:50]:
        for i in range(len(arc) - 1):
            edge = arc.vertices[i].dist(arc.vertices[i + 1])
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
                assert pa.dist(pb) > 0.0


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
    assert arc.vertices[2] == Point2(1.0, 1.0)


def test_numeric_coordinate_types_build_the_same_arc():
    import numpy as np
    from fractions import Fraction
    plain = [(0.0, 0.0), (3.0, 0.0), (3.0, 1.0), (2.0, 1.0)]
    for kind in (np.float64, np.int64, Fraction, int):
        pts = [(kind(int(x)), kind(int(y))) for x, y in plain]
        assert build_arc(pts) == build_arc(plain), kind
