"""Outputs under similarities of the input.

Scaling by a power of two and a quarter-turn rotation are exact in
binary, and so is a translation of coordinates on a dyadic grid by a
power of two, so no decision may change under them: every flag and
count stays the same, and every angle and parameter moves with the
input.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arcsupport import (MOUNTAIN, VALLEY, build_arc, build_profile, ccw_gap,
                        circ_dist, corollary_check, enumerate_triples,
                        find_pair_mountain, find_pair_valley, melkman_hull,
                        render_pair_svg, verify_triple)

DELTAS = (0.4, 2.0, math.pi, 4.5, 6.0)
POOL = 300  # arcs of the fuzz pool the properties draw from
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def outputs(vertices):
    """Directions, parameters, gaps and the flags and counts of every
    scan, its enumerated configurations and the corollary check, at each
    of DELTAS."""
    arc = build_arc(vertices)
    profile = build_profile(melkman_hull(arc))
    directions, params, gaps, flags = [], [], [], []
    for delta in DELTAS:
        for mode, finder in ((MOUNTAIN, find_pair_mountain),
                             (VALLEY, find_pair_valley)):
            pair = finder(profile, arc, delta)
            configs = enumerate_triples(profile, arc, delta)
            for p in [pair] + configs:
                directions += [p.theta_double, p.theta_single]
                params += p.triple
                gaps.append(p.realized_gap)
                flags.append((p.strict, p.near_tie, p.guaranteed,
                              p.covers_apex, p.covers_min))
            flags.append((mode, verify_triple(arc, pair).passed, len(configs)))
        flags.append(corollary_check(profile, arc, delta).identical)
    return directions, params, gaps, flags


def pool_vertices(fuzz_pool, i):
    return [(v.x, v.y) for v in fuzz_pool[i][0].vertices]


@SETTINGS
@given(i=st.integers(0, POOL - 1), k=st.integers(-60, 60))
@example(i=0, k=-60)
@example(i=0, k=60)
def test_scaling_by_a_power_of_two(fuzz_pool, i, k):
    base = pool_vertices(fuzz_pool, i)
    directions, params, gaps, flags = outputs(base)
    scaled = outputs([(math.ldexp(x, k), math.ldexp(y, k)) for x, y in base])
    assert scaled == (directions, [math.ldexp(s, k) for s in params],
                      gaps, flags)


@SETTINGS
@given(i=st.integers(0, POOL - 1))
def test_quarter_turn_rotation(fuzz_pool, i):
    base = pool_vertices(fuzz_pool, i)
    directions, params, gaps, flags = outputs(base)
    turned = outputs([(-y, x) for x, y in base])
    assert turned[3] == flags
    assert all(circ_dist(a + math.pi / 2, b) <= 1e-12
               for a, b in zip(directions, turned[0]))
    assert turned[1] == pytest.approx(params, rel=0, abs=1e-12)
    assert turned[2] == pytest.approx(gaps, rel=0, abs=1e-12)


@SETTINGS
@given(i=st.integers(0, POOL - 1), kx=st.integers(-10, 30),
       ky=st.integers(-10, 30), sx=st.sampled_from((-1.0, 1.0)),
       sy=st.sampled_from((-1.0, 1.0)))
@example(i=0, kx=30, ky=30, sx=-1.0, sy=1.0)
def test_translation_on_a_dyadic_grid(fuzz_pool, i, kx, ky, sx, sy):
    # on a 2**-20 grid, adding 2**30 or less keeps every coordinate exact
    grid = [(round(x * 2**20) / 2**20, round(y * 2**20) / 2**20)
            for x, y in pool_vertices(fuzz_pool, i)]
    directions, params, gaps, flags = outputs(grid)
    ox, oy = sx * 2.0**kx, sy * 2.0**ky
    moved = outputs([(x + ox, y + oy) for x, y in grid])
    assert moved[3] == flags
    assert all(circ_dist(a, b) <= 1e-12 for a, b in zip(directions, moved[0]))
    assert moved[1] == pytest.approx(params, rel=0, abs=1e-12)
    assert moved[2] == pytest.approx(gaps, rel=0, abs=1e-12)


@pytest.mark.parametrize("k", [-60, -40, 40, 60])
def test_render_is_scale_free(k):
    def svg(scale):
        arc = build_arc([(x * scale, y * scale)
                         for x, y in [(0, 0), (3, 0), (3, 1), (2, 1)]])
        hull = melkman_hull(arc)
        pair = find_pair_mountain(build_profile(hull), arc, math.pi)
        return render_pair_svg(arc, hull, pair)

    assert svg(2.0**k) == svg(1.0)


@pytest.mark.parametrize("k", [-60, -40, 0, 40, 60])
def test_enumeration_at_a_jump_to_jump_gap_is_scale_free(k):
    # from E2's wrap jump (0, 5) to its jump (3, 4): both touch
    # parameters of the second line lie inside the first line's span,
    # so two configurations share their angles and differ only in s2
    arc = build_arc([(math.ldexp(x, k), math.ldexp(y, k))
                     for x, y in [(0, 0), (3, 0), (3, 1), (2, 1)]])
    profile = build_profile(melkman_hull(arc))
    gap = ccw_gap(profile.jumps[0].angle, profile.jumps[2].angle)
    configs = enumerate_triples(profile, arc, gap)
    assert [c.triple for c in configs] == [
        tuple(math.ldexp(s, k) for s in triple)
        for triple in ((0.0, 3.0, 5.0), (0.0, 4.0, 5.0))]
