import dataclasses
import inspect
import itertools
import math
import random
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arcsupport import (EPS_ORIENT, Point2, TWO_PI, canon_angle, ccw_gap,
                        orient)
from arcsupport.geometry import chain_bound, chain_orient

angles = st.floats(min_value=-50.0, max_value=50.0,
                   allow_nan=False, allow_infinity=False)
coords = st.floats(min_value=-100.0, max_value=100.0,
                   allow_nan=False, allow_infinity=False)


def test_orient_fixed_cases():
    assert orient(Point2(0, 0), Point2(1, 0), Point2(0, 1)) == 1
    assert orient(Point2(0, 0), Point2(1, 0), Point2(2, 0)) == 0
    assert orient(Point2(0, 0), Point2(0, 1), Point2(1, 0)) == -1


@given(coords, coords, coords, coords, coords, coords)
def test_orient_antisymmetric(px, py, qx, qy, rx, ry):
    p, q, r = Point2(px, py), Point2(qx, qy), Point2(rx, ry)
    a = orient(p, q, r)
    b = orient(p, r, q)
    if a != 0 and b != 0:
        assert a == -b


def orient_max_min(p, q, r):
    # orient with the three-point span taken by the builtins
    cross = (q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)
    dx = max(p.x, q.x, r.x) - min(p.x, q.x, r.x)
    dy = max(p.y, q.y, r.y) - min(p.y, q.y, r.y)
    thr = EPS_ORIENT * (dx * dx + dy * dy)
    if abs(cross) <= thr:
        return 0
    return 1 if cross > 0.0 else -1


def test_orient_equals_max_min_span():
    rng = random.Random(96)
    triples = [[(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
                for _ in range(3)] for _ in range(5_000)]
    # exact collinear and tied coordinates, signed zeros
    grid = (0.0, -0.0, 1.0, 2.0)
    triples += [list(zip(c[:3], c[3:]))
                for c in itertools.product(grid, repeat=6)]
    # a third point off the line of a unit segment by orient's threshold
    # and its float neighbours, along each axis
    for x in (-0.5, -0.0, 0.25, 1.0, 1.5):
        thr = EPS_ORIENT * (max(x, 1.0) - min(x, 0.0)) ** 2
        for y in (thr, math.nextafter(thr, 0.0), math.nextafter(thr, 1.0)):
            for s in (y, -y):
                triples += [[(0.0, 0.0), (1.0, 0.0), (x, s)],
                            [(0.0, 0.0), (0.0, 1.0), (s, x)]]
    count = 0
    for k in (-60, 0, 60):
        for triple in triples:
            pts = [Point2(math.ldexp(x, k), math.ldexp(y, k))
                   for x, y in triple]
            for p, q, r in itertools.permutations(pts):
                assert orient(p, q, r) == orient_max_min(p, q, r), (p, q, r)
                count += 1
    assert count > 100_000


@pytest.mark.parametrize("k", [-60, 0, 60])
@pytest.mark.parametrize("far", [1.0, 3.0])
def test_chain_orient_at_its_bound(orient_counts, k, far):
    # p, q, r = (0, 0), (s, 0), (s/2, y) have the cross product s * y,
    # set to the chain's bound and the floats either side of it, of
    # either sign; a fourth point (far * s, 0) sets the chain's span.
    # With far = 1 the triple spans the whole chain, so orient's
    # threshold is the bound itself; with far = 3 it is a ninth of it
    s = math.ldexp(1.0, k)
    xs = [0.0, s, 0.5 * s, far * s]
    bound = chain_bound(xs, [0.0] * 4)
    assert bound == EPS_ORIENT * (far * s) ** 2
    for c in (bound, math.nextafter(bound, 0.0),
              math.nextafter(bound, math.inf)):
        for cross in (c, -c):
            ys = [0.0, 0.0, cross / s, 0.0]
            assert chain_bound(xs, ys) == bound
            pts = [Point2(x, y) for x, y in zip(xs, ys)]
            turn, chain = chain_orient(xs, ys)
            assert chain == bound
            orient_counts.update(full=0)
            got = turn(0, 1, 2)
            # the filter decides exactly the cross products beyond it;
            # the rest take the triple's own threshold
            assert orient_counts["full"] == (abs(cross) <= bound)
            if far == 3.0 or abs(cross) > bound:
                assert got == (1 if cross > 0.0 else -1)
            else:
                assert got == 0
            for i, j, m in itertools.permutations(range(4), 3):
                assert turn(i, j, m) == orient(pts[i], pts[j], pts[m])


def test_ccw_gap_fixed_cases():
    assert ccw_gap(0.0, math.pi / 2) == pytest.approx(math.pi / 2)
    assert ccw_gap(3 * math.pi / 2, math.pi / 4) == pytest.approx(3 * math.pi / 4)
    assert ccw_gap(math.pi, math.pi) == 0.0


@given(angles, angles)
def test_ccw_gap_round_trip(a, b):
    total = ccw_gap(a, b) + ccw_gap(b, a)
    assert (abs(total) < 1e-9 or abs(total - TWO_PI) < 1e-9)


@given(angles)
def test_canon_angle_range(theta):
    c = canon_angle(theta)
    assert 0.0 <= c < TWO_PI


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_canon_angle_refuses_a_non_finite_angle(theta):
    # nan used to pass through and +-inf to fail inside fmod with no value
    with pytest.raises(ValueError, match=f"^angle {theta!r} is not finite$"):
        canon_angle(theta)


def test_one_fixed_tolerance_policy():
    # the policy lives in geometry's constants; no call can set another
    import arcsupport
    for name in ("Tolerances", "DEFAULT_TOL", "RenderSpec"):
        assert not hasattr(arcsupport, name)
    funcs = []
    for mod in (m for n, m in sorted(sys.modules.items())
                if n.startswith("arcsupport.")):
        for obj in vars(mod).values():
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                funcs += [f for f in vars(obj).values() if inspect.isfunction(f)]
            elif inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                funcs.append(obj)
    assert len(funcs) > 50
    for f in funcs:
        params = inspect.signature(f).parameters
        assert not {"tol", "y_tol", "resolution", "spec"} & set(params), f


def test_public_names_resolve_and_removed_ones_stay_gone():
    import arcsupport
    from arcsupport import arc, cli, geometry, hull, oracle, pairs, profile
    lemma_helpers = ("cross_section", "support_line", "DirectedLine",
                     "unique_crossing", "MalformedFunction")
    for name in ("scan_ledger", "ScanStep", "interval_sub", "Interval",
                 "filled_interval", "scale_to_unit", "ProfileStep",
                 "angle_of", "ZeroVector") + lemma_helpers:
        assert not hasattr(arcsupport, name), name
    for mod, name in ((pairs, "scan_ledger"), (pairs, "ScanStep"),
                      (pairs, "_Piece"), (geometry, "interval_sub"),
                      (geometry, "Interval"), (profile, "filled_interval"),
                      (arc, "scale_to_unit"), (profile, "ProfileStep"),
                      (geometry, "angle_of"), (geometry, "ZeroVector"),
                      (arc, "run_index"), (pairs, "_gap_side_covers"),
                      (pairs, "_find_pair"), (cli, "_scan"),
                      (arc, "_as_points"), (pairs, "_Window"),
                      (pairs, "_unroll"), (pairs, "_build_window"),
                      (pairs, "_window"), (pairs, "_build_rows"),
                      (pairs, "_lookup"), (pairs, "_scan"),
                      (pairs, "_positions"), (pairs, "_Chart"),
                      (pairs, "_build_chart"), (pairs, "_gap_chart"),
                      (pairs, "_CHART_PAD"),
                      (oracle, "quadratic_ledger"),
                      (oracle, "linear_ledger_lookup")):
        assert not hasattr(mod, name), name
    # an arc keeps its coordinates once, as floats
    assert [f.name for f in dataclasses.fields(arcsupport.PolygonalArc)][
        :2] == ["xs", "ys"]
    assert not hasattr(arcsupport.PolygonalArc, "vertices")
    # the runs are a field that build_arc fills, not a memo kept aside
    assert not hasattr(arcsupport.PolygonalArc, "_indexes")
    assert "_indexes" not in {
        f.name for f in dataclasses.fields(arcsupport.PolygonalArc)}
    # the hull is four columns, one entry per corner, and no record per
    # corner; a step's end is the next step's start, kept once
    assert [f.name for f in dataclasses.fields(arcsupport.Hull)] == [
        "corners", "levels", "starts", "widths"]
    assert not hasattr(arcsupport, "HullCorner")
    assert not hasattr(hull, "HullCorner")
    # the profile is the hull extended: it inherits the four columns,
    # declares only the jumps, the apex and its indexes, and holds no steps
    assert issubclass(arcsupport.SupportProfile, arcsupport.Hull)
    assert [f.name for f in dataclasses.fields(arcsupport.SupportProfile)
            if f.init] == ["corners", "levels", "starts", "widths", "jumps",
                           "apex_index"]
    assert list(vars(arcsupport.SupportProfile)["__annotations__"]) == [
        "jumps", "apex_index", "_indexes"]
    for name in ("steps", "min_step", "apex_step"):
        assert not hasattr(arcsupport.SupportProfile, name), name
    for name in lemma_helpers:  # moved beside the other references
        assert not hasattr(profile, name), name
        assert getattr(oracle, name).__module__ == "arcsupport.oracle", name
    for alias in ("min_step_width", "apex_step_width", "max_level"):
        assert not hasattr(arcsupport.SupportProfile, alias), alias
    assert not hasattr(Point2, "__add__")
    assert not hasattr(Point2, "__sub__")
    assert not hasattr(Point2, "dist")
    # a jump is its pair of levels; its angle is its step's start
    assert not hasattr(arcsupport, "Jump")
    assert not hasattr(profile, "Jump")
    # the chain tests read only the coordinate lists
    assert list(inspect.signature(geometry.chain_orient).parameters) == [
        "xs", "ys"]
    assert "coordinate_box" not in {
        f.name for f in dataclasses.fields(arcsupport.FuzzConfig)}
    assert len(set(arcsupport.__all__)) == len(arcsupport.__all__) == 46
    for name in arcsupport.__all__:
        assert getattr(arcsupport, name) is not None, name
