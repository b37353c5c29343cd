"""Acceptance suite: one test per criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
import random
import time

import pytest

from arcsupport import (FuzzConfig, MOUNTAIN, VALLEY, build_profile,
                        ccw_gap, circ_dist, corollary_check,
                        enumerate_triples, find_pair_mountain,
                        find_pair_valley, grid_scan_pairs, jump_to_jump_gaps,
                        melkman_hull, monotone_chain_hull,
                        oracle_touch_params, random_simple_arc,
                        safe_delta_range, touch_params, verify_triple)
from arcsupport.cli import run_fuzz
from arcsupport.oracle import cross_section, unique_crossing
from families import points

PI = math.pi
ATAN_HALF = math.atan(0.5)
GRID_RES = 2 * PI / 100_000


def test_criterion_1_e1_mountain_fixture(e1, e1_profile):
    pair = find_pair_mountain(e1_profile, e1, PI)  # warm-up
    t0 = time.perf_counter()
    pair = find_pair_mountain(e1_profile, e1, PI)
    elapsed = time.perf_counter() - t0
    assert abs(pair.theta_single - PI / 4) <= 1e-9
    assert abs(pair.theta_double - 5 * PI / 4) <= 1e-9
    assert all(abs(a - b) <= 1e-9
               for a, b in zip(pair.triple, (0.0, 1.0, 2.0)))
    assert pair.strict
    assert elapsed < 1e-3
    print(f"\ncriterion 1 PASS: E1 mountain at pi -> (pi/4, 5pi/4), "
          f"triple (0,1,2), strict, {elapsed * 1e6:.0f} us")


def test_criterion_2_e2_fixture_and_boundary(e1, e1_profile, e2, e2_profile):
    pair = find_pair_mountain(e2_profile, e2, PI)
    assert abs(pair.theta_single - ATAN_HALF) <= 1e-9
    assert abs(pair.theta_double - (PI + ATAN_HALF)) <= 1e-9
    assert all(abs(a - b) <= 1e-9
               for a, b in zip(pair.triple, (0.0, 3.0, 5.0)))
    assert pair.strict

    # boundary: difference equal to the apex step width; the apex corner
    # parameter appears in the triple and its point lies on both lines
    b = find_pair_mountain(e1_profile, e1, 3 * PI / 4)
    assert abs(b.theta_single - PI / 2) <= 1e-9
    assert abs(b.theta_double - 5 * PI / 4) <= 1e-9
    assert all(abs(x - y) <= 1e-9 for x, y in zip(b.triple, (0.0, 1.0, 2.0)))
    assert b.strict
    assert abs(b.s3 - 2.0) <= 1e-9
    assert 2.0 in touch_params(e1_profile, b.theta_single)
    assert 2.0 in touch_params(e1_profile, b.theta_double)
    print("\ncriterion 2 PASS: E2 mountain at pi -> (atan(1/2), pi+atan(1/2)),"
          " (0,3,5); E1 boundary case puts the apex corner on both lines")


def test_criterion_3_corollary_campaign():
    t0 = time.perf_counter()
    cfg = FuzzConfig(trials=300, seed=3001, vertex_range=(4, 12))
    for trial in range(cfg.trials):
        arc = random_simple_arc(cfg, trial)
        profile = build_profile(melkman_hull(arc))
        res = corollary_check(profile, arc, PI)
        assert res.identical, f"trial {trial}"
        assert circ_dist(res.mountain.theta_double,
                         res.valley.theta_double) <= 1e-9 or \
               circ_dist(res.mountain.theta_double,
                         res.valley.theta_single) <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"\ncriterion 3 PASS: 300/300 arcs have identical mountain/valley "
          f"pairs at pi ({elapsed:.1f} s)")


def _campaign(fuzz_pool, mode, finder, rng):
    skipped = 0
    for arc, profile in fuzz_pool:
        lo, hi = safe_delta_range(profile, mode)
        delta = rng.uniform(lo + 1e-3, hi - 1e-3)
        if any(abs(delta - g) <= 1e-6 for g in jump_to_jump_gaps(profile)):
            skipped += 1
            continue
        pair = finder(profile, arc, delta)
        assert pair.strict, (mode, delta)
        assert verify_triple(arc, pair).passed, (mode, delta)
        typed = [c for c in enumerate_triples(profile, arc, delta)
                 if (c.covers_apex if mode == MOUNTAIN else c.covers_min)]
        assert len(typed) == 1, (mode, delta, len(typed))
    return skipped


def test_criterion_4_safe_range_existence_uniqueness(fuzz_pool):
    t0 = time.perf_counter()
    sk_m = _campaign(fuzz_pool, MOUNTAIN, find_pair_mountain, random.Random(4001))
    sk_v = _campaign(fuzz_pool, VALLEY, find_pair_valley, random.Random(4002))
    elapsed = time.perf_counter() - t0
    n = len(fuzz_pool)
    assert sk_m / n < 0.02 and sk_v / n < 0.02
    assert elapsed < 120.0
    print(f"\ncriterion 4 PASS: {n} arcs per scan, strict+verified+unique, "
          f"skipped {sk_m}+{sk_v} tie-prone trials ({elapsed:.1f} s)")


def test_criterion_5_oracle_equivalence(fuzz_pool):
    rng = random.Random(5001)
    for arc, profile in fuzz_pool[:200]:
        for _ in range(1000):
            theta = rng.uniform(0, 2 * PI)
            assert touch_params(profile, theta) == oracle_touch_params(arc, theta)

    for arc, _ in fuzz_pool:
        mel = melkman_hull(arc)
        mono = monotone_chain_hull(points(arc))
        assert sorted(mel.levels) == sorted(
            arc.params[i] for i in mono)

    rng = random.Random(4001)  # same draws as the mountain campaign
    localized = 0
    for arc, profile in fuzz_pool[:50]:
        lo, hi = safe_delta_range(profile, MOUNTAIN)
        delta = rng.uniform(lo + 1e-3, hi - 1e-3)
        if any(abs(delta - g) <= 1e-6 for g in jump_to_jump_gaps(profile)):
            continue
        pair = find_pair_mountain(profile, arc, delta)
        clusters = grid_scan_pairs(arc, delta)
        near = [
            (a, b) for a, b in clusters
            if (circ_dist(a, pair.theta_single) <= GRID_RES
                or circ_dist(a, pair.theta_double) <= GRID_RES)]
        assert near, delta
        localized += 1
    print(f"\ncriterion 5 PASS: touch oracle == profile on 200k samples, "
          f"hulls agree on {len(fuzz_pool)} arcs, grid localized "
          f"{localized} pairs to one step")


def test_criterion_6_lemma_suite(fuzz_pool):
    for arc, profile in fuzz_pool:
        n = len(profile.widths)
        total = sum(profile.widths)
        assert abs(total - 2 * PI) <= n * 1e-9

        for level in profile.levels:
            sec = cross_section(profile, level)
            assert sec is not None
            assert ccw_gap(sec[0], sec[1]) < PI

        levels = list(profile.levels)
        k = levels.index(max(levels))
        rising = levels[:k + 1]
        falling = levels[k:] + [levels[0]]
        assert all(a < b for a, b in zip(rising, rising[1:]))
        assert all(a > b for a, b in zip(falling, falling[1:]))
    print(f"\ncriterion 6 PASS: step tiling, cross-section width < pi and "
          f"rise-then-fall levels on {len(fuzz_pool)} arcs")


def test_criterion_7_continuous_prototype():
    tent = [(0.0, 0.0), (PI, 1.0), (2 * PI, 0.0)]
    x = unique_crossing(tent, PI)
    assert abs(x - PI / 2) <= 1e-10  # closed form (2*pi - delta) / 2

    def f(t):
        return t / PI if t <= PI else (2 * PI - t) / PI

    crossings = 0
    step = 1e-4
    prev = None
    t = 0.0
    while t <= PI:
        d = f(t) - f(t + PI)
        if abs(d) > 1e-12:
            if prev is not None and (d > 0) != (prev > 0):
                crossings += 1
            prev = d
        t += step
    assert crossings == 1
    print("\ncriterion 7 PASS: tent crossing at pi/2 (1e-10), unique by "
          "1e-4-resolution sweep")


def test_criterion_8_documented_scope_anomaly(e1, e1_profile):
    assert enumerate_triples(e1_profile, e1, 11 * PI / 8) == []
    assert enumerate_triples(e1_profile, e1, PI / 2) == []

    m = find_pair_mountain(e1_profile, e1, 11 * PI / 8)
    assert not m.strict
    v = find_pair_valley(e1_profile, e1, 3 * PI / 2)  # complementary pi/2 gap
    assert not v.strict

    # the fuzz campaign flags such outcomes and never raises
    rows, summary = run_fuzz(FuzzConfig(trials=60, seed=8001,
                                        delta_policy="full_range"))
    degenerate = [r for r in rows if not r["strict"]]
    assert len(rows) == 60
    assert all(isinstance(r["strict"], bool) for r in rows)
    print(f"\ncriterion 8 PASS: no strict triple at 11pi/8 or pi/2 on E1, "
          f"scans degrade to strict=false; full-range fuzz flagged "
          f"{len(degenerate)} degenerate trials without crashing "
          f"({len(summary['anomalies'])} anomalies recorded)")
