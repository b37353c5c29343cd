import dataclasses
import math
import random

import pytest

from arcsupport import (EPS_ANGLE, MOUNTAIN, TWO_PI, VALLEY, InvalidDelta,
                        build_arc, build_profile, ccw_gap, circ_dist,
                        corollary_check, enumerate_triples,
                        find_pair_mountain, find_pair_valley,
                        jump_to_jump_gaps, melkman_hull, pairs_identical,
                        safe_delta_range, touch_params, verify_triple)
from arcsupport import pairs
from arcsupport.pairs import _gap_chart, _window
from families import FALLBACK_VERTICES, convex_arc, walk_arc

PI = math.pi
ATAN_HALF = math.atan(0.5)


def test_mountain_e1_pi(e1, e1_profile):
    pair = find_pair_mountain(e1_profile, e1, PI)
    assert pair.theta_single == pytest.approx(PI / 4, abs=1e-9)
    assert pair.theta_double == pytest.approx(5 * PI / 4, abs=1e-9)
    assert pair.triple == pytest.approx((0.0, 1.0, 2.0), abs=1e-9)
    assert pair.strict and pair.guaranteed
    assert pair.realized_gap == pytest.approx(PI, abs=1e-9)


def test_mountain_e1_boundary_width(e1, e1_profile):
    # requested difference equal to the apex step width: the maximum-
    # parameter corner ends up on both lines
    pair = find_pair_mountain(e1_profile, e1, 3 * PI / 4)
    assert pair.theta_single == pytest.approx(PI / 2, abs=1e-9)
    assert pair.theta_double == pytest.approx(5 * PI / 4, abs=1e-9)
    assert pair.triple == pytest.approx((0.0, 1.0, 2.0), abs=1e-9)
    assert pair.strict
    assert pair.s3 == pytest.approx(2.0)  # gamma(2) on the double line
    # ... and it is on the single line too: the single angle is a jump
    from arcsupport import touch_params
    assert 2.0 in touch_params(e1_profile, pair.theta_single)


def test_mountain_e2_pi(e2, e2_profile):
    pair = find_pair_mountain(e2_profile, e2, PI)
    assert pair.theta_single == pytest.approx(ATAN_HALF, abs=1e-9)
    assert pair.theta_double == pytest.approx(PI + ATAN_HALF, abs=1e-9)
    assert pair.triple == pytest.approx((0.0, 3.0, 5.0), abs=1e-9)
    assert pair.strict


def test_valley_e1_pi_matches_mountain(e1, e1_profile):
    v = find_pair_valley(e1_profile, e1, PI)
    m = find_pair_mountain(e1_profile, e1, PI)
    assert circ_dist(v.theta_single, m.theta_single) < 1e-9
    assert circ_dist(v.theta_double, m.theta_double) < 1e-9
    assert v.triple == pytest.approx(m.triple)


def test_valley_e2_pi(e2, e2_profile):
    pair = find_pair_valley(e2_profile, e2, PI)
    assert pair.theta_single == pytest.approx(ATAN_HALF, abs=1e-9)
    assert pair.theta_double == pytest.approx(PI + ATAN_HALF, abs=1e-9)
    assert pair.triple == pytest.approx((0.0, 3.0, 5.0), abs=1e-9)
    assert pair.realized_gap == pytest.approx(PI, abs=1e-9)


def test_valley_e1_degenerate(e1, e1_profile):
    pair = find_pair_valley(e1_profile, e1, 3 * PI / 2)
    assert not pair.strict
    assert pair.realized_gap == pytest.approx(PI / 2, abs=1e-9)
    # no strict triple exists at the complementary gap either
    assert enumerate_triples(e1_profile, e1, PI / 2) == []


def test_mountain_e1_beyond_strict_regime(e1, e1_profile):
    pair = find_pair_mountain(e1_profile, e1, 11 * PI / 8)
    assert not pair.strict
    # above the safe range's upper end 2*pi - 3*pi/4: no guarantee
    assert not pair.guaranteed
    assert enumerate_triples(e1_profile, e1, 11 * PI / 8) == []
    report = verify_triple(e1, pair)
    assert report.ordering  # degenerate outcomes are still well formed


def test_invalid_delta(e1, e1_profile):
    for bad in (0.0, -1.0, 2 * PI, 7.0):
        with pytest.raises(InvalidDelta):
            find_pair_mountain(e1_profile, e1, bad)
        with pytest.raises(InvalidDelta):
            find_pair_valley(e1_profile, e1, bad)


def test_enumerate_rejects_gaps_outside_the_open_turn(e1, e1_profile):
    for bad in (0.0, TWO_PI, -1.0, math.nan):
        with pytest.raises(InvalidDelta):
            enumerate_triples(e1_profile, e1, bad)


def test_pairs_identical_reads_the_two_angles_unordered(e1, e1_profile):
    pair = find_pair_mountain(e1_profile, e1, PI)
    swapped = dataclasses.replace(pair, theta_double=pair.theta_single,
                                  theta_single=pair.theta_double)
    assert circ_dist(pair.theta_double, pair.theta_single) > 1.0
    assert pairs_identical(e1_profile, pair, swapped)
    assert not pairs_identical(e1_profile, pair, dataclasses.replace(
        pair, strict=not pair.strict))


def test_below_guarantee_flagged(e2, e2_profile):
    pair = find_pair_valley(e2_profile, e2, 2.0)  # below the min step width
    assert not pair.guaranteed
    assert not pair.strict


def test_corollary_identical_at_pi(e1, e1_profile, e2, e2_profile):
    assert corollary_check(e1_profile, e1, PI).identical
    assert corollary_check(e2_profile, e2, PI).identical


def test_corollary_differs_off_pi(e2, e2_profile):
    res = corollary_check(e2_profile, e2, 2.0)
    assert res.mountain.strict
    assert not res.identical


def test_scans_differ_off_pi_strict(e1, e1_profile):
    # 3.0 is in the strict range of both scans for E1 and is not pi
    m = find_pair_mountain(e1_profile, e1, 3.0)
    v = find_pair_valley(e1_profile, e1, 3.0)
    assert m.strict and v.strict
    assert circ_dist(m.theta_single, v.theta_single) > 1e-6
    assert not corollary_check(e1_profile, e1, 3.0).identical


def test_enumerate_fixtures(e1, e1_profile, e2, e2_profile):
    assert len(enumerate_triples(e1_profile, e1, PI)) == 1
    assert enumerate_triples(e1_profile, e1, PI / 2) == []
    assert len(enumerate_triples(e2_profile, e2, PI)) == 1


def test_enumerate_classifies_both_kinds(e1, e1_profile):
    configs = enumerate_triples(e1_profile, e1, 3.0)
    assert len(configs) == 2
    assert sum(1 for c in configs if c.covers_apex) == 1
    assert sum(1 for c in configs if c.covers_min) == 1
    for c in configs:
        assert verify_triple(e1, c).passed


def test_enumerate_contains_scan_results(fuzz_pool):
    rng = random.Random(17)
    for arc, profile in fuzz_pool[:150]:
        for mode, finder in ((MOUNTAIN, find_pair_mountain),
                             (VALLEY, find_pair_valley)):
            lo, hi = safe_delta_range(profile, mode)
            delta = rng.uniform(lo + 1e-3, hi - 1e-3)
            pair = finder(profile, arc, delta)
            assert pair.strict
            configs = enumerate_triples(profile, arc, delta)
            hit = [c for c in configs
                   if circ_dist(c.theta_double, pair.theta_double) < 1e-9
                   and circ_dist(c.theta_single, pair.theta_single) < 1e-9]
            assert hit, (mode, delta)
            tie = any(abs(delta - g) <= 1e-6
                      for g in jump_to_jump_gaps(profile))
            if not tie:
                typed = [c for c in configs
                         if (c.covers_apex if mode == MOUNTAIN else c.covers_min)]
                assert len(typed) == 1


def test_at_most_two_configurations_at_any_gap(fuzz_pool):
    # the paper's theorem, sampled: at any angle difference a simple arc
    # has at most two triple-touch pairs
    draws = list(fuzz_pool)
    for n in (400, 1600):
        for make in (convex_arc, walk_arc):
            arc = build_arc(make(n, random.Random(n)))
            draws.append((arc, build_profile(melkman_hull(arc))))
    rng = random.Random(2)
    for arc, profile in draws:
        for _ in range(20):
            delta = rng.uniform(1e-6, TWO_PI - 1e-6)
            configs = enumerate_triples(profile, arc, delta)
            assert len(configs) <= 2, (
                f"counterexample: delta={delta!r}, "
                f"vertices={[(v.x, v.y) for v in arc.vertices]!r}")


def test_at_most_two_candidates_on_any_chart_piece(fuzz_pool):
    # the paper's theorem at every gap at once: each piece of the gap
    # chart wider than 4 eps_angle holds at most two (jump, sign)
    # candidates; narrower pieces sit where the widened ends of two
    # candidates' gap intervals overlap
    draws = list(fuzz_pool)
    for make in (convex_arc, walk_arc):
        arc = build_arc(make(1600, random.Random(1600)))
        draws.append((arc, build_profile(melkman_hull(arc))))
    most = 0
    for arc, profile in draws:
        chart = _gap_chart(profile)
        for a, b, cands in zip(chart.breaks, chart.breaks[1:], chart.cands):
            if b - a > 4 * EPS_ANGLE:
                assert len(cands) <= 2, (
                    f"counterexample: gaps ({a!r}, {b!r}) hold {cands}, "
                    f"vertices={[(v.x, v.y) for v in arc.vertices]!r}")
                most = max(most, len(cands))
    assert most == 2


def test_every_scan_output_verifies(fuzz_pool):
    rng = random.Random(31)
    for arc, profile in fuzz_pool[:150]:
        for mode, finder in ((MOUNTAIN, find_pair_mountain),
                             (VALLEY, find_pair_valley)):
            lo, hi = safe_delta_range(profile, mode)
            delta = rng.uniform(lo + 1e-3, hi - 1e-3)
            pair = finder(profile, arc, delta)
            assert verify_triple(arc, pair).passed


def test_ledger_monotone(fuzz_pool):
    for _, profile in fuzz_pool[:200]:
        for mode in (MOUNTAIN, VALLEY):
            rows = _window(profile, mode).rows
            # one row per hull corner, ascending by build level
            sign = 1.0 if mode == MOUNTAIN else -1.0
            assert [r[0] for r in rows] == sorted(
                sign * s.level for s in profile.steps)
            gaps = [(r_lo - l_hi, r_hi - l_lo)
                    for _, l_lo, l_hi, r_lo, r_hi in rows]
            for (a_lo, a_hi), (b_lo, b_hi) in zip(gaps, gaps[1:]):
                # ascending level: widths shrink, adjacent rows share an
                # end exactly
                assert b_hi <= a_hi and b_lo <= a_lo
                assert a_lo == b_hi


def test_verify_rejects_doctored_pairs(e1, e1_profile):
    good = find_pair_mountain(e1_profile, e1, PI)
    from dataclasses import replace
    off_line = replace(good, s2=1.5)
    assert not verify_triple(e1, off_line).single_touches
    wrong_angle = replace(good, theta_double=PI / 4)
    report = verify_triple(e1, wrong_angle)
    assert not (report.double_touches and report.left_side)
    unordered = replace(good, s1=1.8, strict=True)
    assert not verify_triple(e1, unordered).ordering


def test_realized_gap_conventions(e2, e2_profile):
    m = find_pair_mountain(e2_profile, e2, 2.0)
    assert m.realized_gap == pytest.approx(2.0, abs=1e-9)
    v = find_pair_valley(e2_profile, e2, 4.0)
    assert v.strict
    assert v.realized_gap == pytest.approx(2 * PI - 4.0, abs=1e-9)
    assert ccw_gap(v.theta_single, v.theta_double) == pytest.approx(
        2 * PI - 4.0, abs=1e-9)


def test_safe_range_covers_pi(fuzz_pool):
    for _, profile in fuzz_pool[:300]:
        for mode in (MOUNTAIN, VALLEY):
            lo, hi = safe_delta_range(profile, mode)
            assert lo < PI < hi


def test_degenerate_scans_have_no_configuration_of_their_kind(fuzz_pool):
    # a scan that returns strict=False is final: the exhaustive
    # enumeration holds no strict configuration of the scan's kind there
    deltas = [2 * PI * (k + 0.5) / 24 for k in range(24)]
    degenerate = 0
    for arc, profile in fuzz_pool[:200]:
        for mode, finder in ((MOUNTAIN, find_pair_mountain),
                             (VALLEY, find_pair_valley)):
            for delta in deltas:
                if finder(profile, arc, delta).strict:
                    continue
                degenerate += 1
                configs = enumerate_triples(profile, arc, delta)
                assert not any(
                    (c.covers_apex if mode == MOUNTAIN else c.covers_min)
                    for c in configs), (mode, delta)
    assert degenerate > 0


def test_guaranteed_is_membership_in_the_safe_range(fuzz_pool):
    for arc, profile in fuzz_pool[:200]:
        for mode, finder in ((MOUNTAIN, find_pair_mountain),
                             (VALLEY, find_pair_valley)):
            lo, hi = safe_delta_range(profile, mode)
            for delta in (lo, hi):
                pair = finder(profile, arc, delta)
                assert pair.guaranteed and pair.strict, (mode, delta)
            for delta in (math.nextafter(lo, 0.0), math.nextafter(hi, 7.0)):
                assert not finder(profile, arc, delta).guaranteed


# repr of the mountain and the valley pair at each delta on the
# fallback arc; several reach _assign_roles' degenerate fallback, whose
# choice of the wider span (theta_left on a tie) these pin
FALLBACK_SCANS = {
    0.001: (
        "TriplePair(mode='mountain', theta_double=2.6779450223845274, "
        'theta_single=2.6789450223845286, s1=6.099019513592785, '
        's2=6.099019515828854, s3=6.099019515828854, strict=False, '
        'requested_delta=0.001, realized_gap=0.0010000000000012221, '
        'guaranteed=False, near_tie=False, covers_apex=True, '
        'covers_min=False)',
        "TriplePair(mode='valley', theta_double=4.514993420534809, "
        'theta_single=4.515993420534809, s1=0.0, s2=0.0, '
        's3=0.5099019513592785, strict=False, requested_delta=0.001, '
        'realized_gap=6.282185307179587, guaranteed=False, near_tie=False, '
        'covers_apex=False, covers_min=True)',
    ),
    0.1: (
        "TriplePair(mode='mountain', theta_double=2.6779450223845274, "
        'theta_single=2.777945022384527, s1=6.099019513592785, '
        's2=6.099019515828854, s3=6.099019515828854, strict=False, '
        'requested_delta=0.1, realized_gap=0.09999999999999964, '
        'guaranteed=False, near_tie=False, covers_apex=True, '
        'covers_min=False)',
        "TriplePair(mode='valley', theta_double=4.514993420534809, "
        'theta_single=4.614993420534809, s1=0.0, s2=0.0, '
        's3=0.5099019513592785, strict=False, requested_delta=0.1, '
        'realized_gap=6.183185307179587, guaranteed=False, near_tie=False, '
        'covers_apex=False, covers_min=True)',
    ),
    0.485: (
        "TriplePair(mode='mountain', theta_double=2.6779450223845274, "
        'theta_single=3.162945022384527, s1=6.099019513592785, '
        's2=6.099019515828854, s3=6.099019515828854, strict=False, '
        'requested_delta=0.485, realized_gap=0.48499999999999943, '
        'guaranteed=False, near_tie=False, covers_apex=True, '
        'covers_min=False)',
        "TriplePair(mode='valley', theta_double=4.514993420534809, "
        'theta_single=4.999993420534809, s1=0.0, s2=0.0, '
        's3=0.5099019513592785, strict=False, requested_delta=0.485, '
        'realized_gap=5.798185307179587, guaranteed=False, near_tie=False, '
        'covers_apex=False, covers_min=True)',
    ),
    0.9697: (
        "TriplePair(mode='mountain', theta_double=2.6779450223845274, "
        'theta_single=3.647645022384527, s1=6.099019513592785, '
        's2=6.099019515828854, s3=6.099019515828854, strict=False, '
        'requested_delta=0.9697, realized_gap=0.9696999999999996, '
        'guaranteed=False, near_tie=False, covers_apex=True, '
        'covers_min=False)',
        "TriplePair(mode='valley', theta_double=4.514993420534809, "
        'theta_single=5.484693420534809, s1=0.0, s2=0.0, '
        's3=0.5099019513592785, strict=False, requested_delta=0.9697, '
        'realized_gap=5.313485307179587, guaranteed=False, near_tie=False, '
        'covers_apex=False, covers_min=True)',
    ),
    1.0: (
        "TriplePair(mode='mountain', theta_double=3.6486911597745824, "
        'theta_single=2.6486911597745824, s1=0.5099019513592785, '
        's2=6.099019513592785, s3=6.099019515828854, strict=False, '
        'requested_delta=1.0, realized_gap=1.0, guaranteed=True, '
        'near_tie=False, covers_apex=True, covers_min=False)',
        "TriplePair(mode='valley', theta_double=4.514993420534809, "
        'theta_single=5.514993420534809, s1=0.0, s2=0.0, '
        's3=0.5099019513592785, strict=False, requested_delta=1.0, '
        'realized_gap=5.283185307179586, guaranteed=False, near_tie=False, '
        'covers_apex=False, covers_min=True)',
    ),
    3.0: (
        "TriplePair(mode='mountain', theta_double=3.6486911597745824, "
        'theta_single=0.6486911597745824, s1=0.5099019513592785, '
        's2=5.099019513592785, s3=6.099019515828854, strict=True, '
        'requested_delta=3.0, realized_gap=3.0, guaranteed=True, '
        'near_tie=False, covers_apex=True, covers_min=False)',
        "TriplePair(mode='valley', theta_double=3.648691159774583, "
        'theta_single=0.36550585259499613, s1=0.5099019513592785, '
        's2=5.099019513592785, s3=6.099019515828854, strict=True, '
        'requested_delta=3.0, realized_gap=3.2831853071795867, '
        'guaranteed=True, near_tie=False, covers_apex=False, '
        'covers_min=True)',
    ),
    5.3134: (
        "TriplePair(mode='mountain', theta_double=4.514993420534809, "
        'theta_single=5.484778727714396, s1=0.0, s2=0.0, '
        's3=0.5099019513592785, strict=False, requested_delta=5.3134, '
        'realized_gap=5.3134, guaranteed=False, near_tie=False, '
        'covers_apex=True, covers_min=False)',
        "TriplePair(mode='valley', theta_double=2.6779450223845274, "
        'theta_single=3.647730329564114, s1=6.099019513592785, '
        's2=6.099019515828854, s3=6.099019515828854, strict=False, '
        'requested_delta=5.3134, realized_gap=0.9697853071795866, '
        'guaranteed=False, near_tie=False, covers_apex=False, '
        'covers_min=True)',
    ),
    6.2: (
        "TriplePair(mode='mountain', theta_double=4.514993420534809, "
        'theta_single=4.598178727714395, s1=0.0, s2=0.0, '
        's3=0.5099019513592785, strict=False, requested_delta=6.2, '
        'realized_gap=6.2, guaranteed=False, near_tie=False, '
        'covers_apex=True, covers_min=False)',
        "TriplePair(mode='valley', theta_double=2.6779450223845274, "
        'theta_single=2.7611303295641134, s1=6.099019513592785, '
        's2=6.099019515828854, s3=6.099019515828854, strict=False, '
        'requested_delta=6.2, realized_gap=0.08318530717958605, '
        'guaranteed=False, near_tie=False, covers_apex=False, '
        'covers_min=True)',
    ),
}


def test_degenerate_role_fallback_is_pinned():
    arc = build_arc(FALLBACK_VERTICES)
    profile = build_profile(melkman_hull(arc))
    for delta, want in FALLBACK_SCANS.items():
        m = find_pair_mountain(profile, arc, delta)
        v = find_pair_valley(profile, arc, delta)
        assert (repr(m), repr(v)) == want, delta
        assert verify_triple(arc, m).passed and verify_triple(arc, v).passed
    # these reach the fallback: neither touch set spans beyond the slack
    for find, delta in ((find_pair_mountain, 1e-3), (find_pair_mountain, 0.1),
                        (find_pair_valley, 6.2)):
        pair = find(profile, arc, delta)
        for theta in (pair.theta_double, pair.theta_single):
            t = touch_params(profile, theta)
            assert t[-1] - t[0] <= profile.param_slack, (delta, theta)


def test_a_scan_queries_each_touch_set_once(monkeypatch, fuzz_pool):
    calls = 0
    query = pairs.touch_params

    def counted(*args):
        nonlocal calls
        calls += 1
        return query(*args)

    monkeypatch.setattr(pairs, "touch_params", counted)
    fallback = build_arc(FALLBACK_VERTICES)
    cases = fuzz_pool[:100] + [(fallback, build_profile(melkman_hull(fallback)))]
    for arc, profile in cases:
        for find in (find_pair_mountain, find_pair_valley):
            for delta in (1e-3, 0.1, PI, 6.2):
                calls = 0
                find(profile, arc, delta)
                assert calls == 2, (find.__name__, delta)


def test_enumeration_reads_a_few_candidates(monkeypatch):
    # the linear loop makes 2m = 256 touch queries per gap here
    calls = 0
    query = pairs.touch_params

    def counted(*args):
        nonlocal calls
        calls += 1
        return query(*args)

    monkeypatch.setattr(pairs, "touch_params", counted)
    arc = build_arc(convex_arc(128, random.Random(128)))
    profile = build_profile(melkman_hull(arc))
    assert len(profile.steps) == 128
    configs = 0
    for k in range(100):
        gap = TWO_PI * (k + 0.5) / 100
        configs += len(enumerate_triples(profile, arc, gap))
    assert configs > 0 and calls <= 4 * 100


def test_gap_chart_is_built_once_per_profile(monkeypatch, e2):
    builds = 0
    build = pairs._build_chart

    def counted(profile):
        nonlocal builds
        builds += 1
        return build(profile)

    monkeypatch.setattr(pairs, "_build_chart", counted)
    cold = build_profile(melkman_hull(e2))
    warm = build_profile(melkman_hull(e2))
    for gap in (0.5, PI, 5.0, PI):
        enumerate_triples(warm, e2, gap)
    assert builds == 1
    assert _gap_chart(warm) is _gap_chart(warm)
    # the chart stays out of the profile's identity
    assert warm == cold and hash(warm) == hash(cold)
    assert repr(warm) == repr(cold)
