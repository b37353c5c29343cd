import inspect
import math
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arcsupport import (Interval, Point2, TWO_PI, ZeroVector, angle_of,
                        canon_angle, ccw_gap, orient)

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


def test_angle_of_fixed_cases():
    assert angle_of(Point2(1, 0)) == 0.0
    assert angle_of(Point2(0, 1)) == pytest.approx(math.pi / 2)
    assert angle_of(Point2(-1, -1)) == pytest.approx(5 * math.pi / 4)


def test_angle_of_zero_vector():
    with pytest.raises(ZeroVector):
        angle_of(Point2(0.0, 0.0))


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


def test_interval_rejects_inverted():
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)


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
    from arcsupport import geometry, pairs
    for name in ("scan_ledger", "ScanStep", "interval_sub"):
        assert not hasattr(arcsupport, name), name
    for mod, name in ((pairs, "scan_ledger"), (pairs, "ScanStep"),
                      (pairs, "_Piece"), (geometry, "interval_sub")):
        assert not hasattr(mod, name), name
    assert not hasattr(Interval, "contains")
    assert not hasattr(Interval, "degenerate")
    assert len(set(arcsupport.__all__)) == len(arcsupport.__all__)
    for name in arcsupport.__all__:
        assert getattr(arcsupport, name) is not None, name
