"""The fast queries against their slow references in oracle.py.

build_arc sweeps sorted segment boxes, touch_params bisects sorted jump
angles, find_pair finds the scan's row by two bisections of the
staircase its mode's index describes, enumerate_triples and the fuzz
campaign's count of one kind try only the candidates whose gap
intervals cover the gap, and verify_triple reads only the runs of
vertices whose box can matter; the references are the
pairwise, linear and quadratic forms, and for find_pair the scan over
its quadratic ledger (tests/reference.py), also on hand-made
staircases.
random_simple_arc discards draws that cross beyond the bound of its
whole square before build_arc; its reference sends every draw through
build_arc.  A chain's turn test (geometry._chain_turn) decides most
orientations on one bound per chain; its reference is orient on every
triple.  Results must be equal, not close.
"""

import bisect
import dataclasses
import hashlib
import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arcsupport import (EPS_ANGLE, EPS_ORIENT, EPS_TOUCH, MOUNTAIN, TWO_PI,
                        VALLEY, ArcError, FuzzConfig, GenerationExhausted,
                        Hull, Point2, SelfIntersecting,
                        StraightArc, SupportProfile, TriplePair, build_arc,
                        build_profile, enumerate_triples, find_pair_mountain,
                        find_pair_valley, jump_to_jump_gaps, melkman_hull,
                        orient, point_at, random_simple_arc, touch_params,
                        verify_triple)
from arcsupport import arc as arc_module
from arcsupport import oracle
from arcsupport.geometry import _chain_turn, canon_angle, ccw_gap, chain_bound
from arcsupport.oracle import (COORDINATE_BOX, DRAW_BOUND,
                               _certainly_crosses, _linear_support_check,
                               linear_enumerate_triples, linear_touch_params,
                               linear_verify_triple, pairwise_simple_check)
from arcsupport.pairs import (_count_of_kind, _covering, _intervals,
                              _near_jump_gap, _scan_row, _staircase,
                              _support_check, find_pair)
from arcsupport.profile import _ROUNDING
from conftest import POOL_CONFIG
from families import (FALLBACK_VERTICES, convex_arc, uniform_draws,
                      walk_arc, zigzag_arc)
from reference import (interval_cuts, linear_ledger_lookup,
                       quadratic_ledger, row_widths, scan_find_pair, unroll)

EPS = EPS_ANGLE


def stacked_diagonals(n, h=1e-3):
    # a zigzag of parallel diagonals h apart: every pair of segments
    # overlaps in x, the sweep's quadratic worst case
    return [(float(i % 2), 0.5 * i * h + (i % 2)) for i in range(n)]


@pytest.fixture(scope="module")
def profiles(fuzz_pool):
    rng = random.Random(400)
    big = [build_profile(melkman_hull(build_arc(make(400, rng))))
           for make in (convex_arc, walk_arc)]
    assert len(big[0].levels) == 400
    return [p for _, p in fuzz_pool] + big


def around(x, eps):
    """x, x +- eps and the floats either side of each."""
    out = []
    for c in (x, x + eps, x - eps):
        out += [c, math.nextafter(c, math.inf), math.nextafter(c, -math.inf)]
    return out


def touch_queries(profile):
    qs = [0.0, -0.0, 5e-324, -5e-324, TWO_PI, math.nextafter(TWO_PI, 0.0)]
    qs += around(0.0, EPS) + around(TWO_PI, EPS)
    for a in profile.starts:
        qs += around(a, EPS) + [a + TWO_PI, a - TWO_PI]
    qs += [a + 0.5 * w for a, w in zip(profile.starts, profile.widths)]
    return qs


def test_touch_params_equals_linear_search(profiles):
    count = 0
    for profile in profiles:
        for theta in touch_queries(profile):
            assert touch_params(profile, theta) == linear_touch_params(
                profile, theta), theta
            count += 1
    assert count > 50_000


def test_lowest_jump_index_wins_across_the_wrap():
    # two jumps 1.5 eps apart on either side of angle 0: jumps[0] sits
    # just below 2 pi, so it sorts last but must still win at theta = 0
    starts = (TWO_PI - 0.75 * EPS, 0.75 * EPS, 2.0)
    ends = starts[1:] + starts[:1]
    widths = tuple((b - a) % TWO_PI for a, b in zip(starts, ends))
    levels = (0.0, 2.0, 1.0)
    jumps = tuple(tuple(sorted((levels[i - 1], levels[i])))
                  for i in range(len(starts)))
    profile = SupportProfile(tuple(range(len(levels))), levels, starts,
                             widths, jumps, apex_index=1)
    for theta in (0.0, 1e-10, -1e-10, TWO_PI - 1e-10):
        assert touch_params(profile, theta) == (0.0, 1.0)
        assert touch_params(profile, theta) == linear_touch_params(profile, theta)
    assert touch_params(profile, EPS) == (0.0, 2.0)


def test_lowest_jump_index_wins_in_mid_circle():
    # jumps 4 and 0 sit 1.5 eps apart at 3.0 and 3.0 + 1.5 eps (the
    # minimum step starts just after step 4 ends), so the lower index is
    # the one above the query angle; jump 2 at 0.5 eps is the lowest
    # sorted angle, and jump 3 at 1.0 the next.  A walk that stops one
    # position short on either side, skips the bisection's own position
    # or does not go on past 2 pi misses a jump here
    a = 3.0
    starts = (a + 1.5 * EPS, 5.0, 0.5 * EPS, 1.0, a)
    ends = starts[1:] + starts[:1]
    widths = tuple((b - s) % TWO_PI for s, b in zip(starts, ends))
    levels = (0.0, 4.0, 3.0, 2.0, 1.0)
    jumps = tuple(tuple(sorted((levels[i - 1], levels[i])))
                  for i in range(len(starts)))
    profile = SupportProfile(tuple(range(len(levels))), levels, starts,
                             widths, jumps, apex_index=1)
    pinned = {
        a + 0.75 * EPS: (0.0, 1.0),   # within eps of both: jump 0 wins
        a + 0.25 * EPS: (1.0, 2.0),   # of jump 4 only, below theta
        a + 1.25 * EPS: (0.0, 1.0),   # of jump 0 only, above theta
        a - 0.5 * EPS: (1.0, 2.0),
        # within rounding of step 2's end, the jump at 1.0, above theta
        math.nextafter(1.0, 0.0): (2.0, 3.0),
        1.0 - _ROUNDING: (2.0, 3.0),
        1.0 + _ROUNDING: (2.0, 3.0),
        # below 2 pi, within eps of jump 2 only, which is past 2 pi
        TWO_PI - 0.25 * EPS: (3.0, 4.0),
        a - 2 * EPS: (2.0,),
        a + 2.5 * EPS: (0.0,),
    }
    for theta, want in pinned.items():
        assert touch_params(profile, theta) == want, theta
        for t in around(theta, 0.0) + [theta + TWO_PI, theta - TWO_PI]:
            assert touch_params(profile, t) == linear_touch_params(
                profile, t), t
    for theta in touch_queries(profile):
        assert touch_params(profile, theta) == linear_touch_params(
            profile, theta), theta


def near_a_gap(gaps, delta):
    """any(abs(delta - g) <= 1e-6 for g in gaps), cli.run_fuzz's old tie
    test, over the sorted gaps within 1e-5 of delta only: every other
    gap is farther than 1e-6 plus any rounding."""
    near = gaps[bisect.bisect_left(gaps, delta - 1e-5):
                bisect.bisect_right(gaps, delta + 1e-5)]
    return any(abs(delta - g) <= 1e-6 for g in near)


def test_jump_gap_bisection_equals_the_gap_list(fuzz_pool):
    # the fuzz campaign's tie test on strict trials: _near_jump_gap
    # bisects the sorted jump angles around a + delta for each jump
    # angle a, and must answer as the m^2 list of jump-to-jump gaps.
    # Each delta sits at a gap, 1e-6 either side of it or a float from
    # one of those.  The convex hulls (m = 400, 1600) have m^2 gaps and
    # each query costs O(m log m) there, so they take a seeded sample
    draws = [profile for _, profile in fuzz_pool]
    for n in (400, 1600):
        for make in (convex_arc, walk_arc):
            arc = build_arc(make(n, random.Random(n)))
            draws.append(build_profile(melkman_hull(arc)))
    rng = random.Random(21)
    tested = hits = 0
    for profile in draws:
        gaps = jump_to_jump_gaps(profile)
        deltas = [rng.uniform(0.0, TWO_PI) for _ in range(5)]
        for g in rng.sample(gaps, 40) if len(gaps) > 1000 else gaps:
            for c in (g, g + 1e-6, g - 1e-6):
                deltas += [c, math.nextafter(c, math.inf),
                           math.nextafter(c, -math.inf)]
        for delta in deltas:
            if not 0.0 < delta < TWO_PI:
                continue
            want = near_a_gap(gaps, delta)
            assert _near_jump_gap(profile, delta) == want, (delta, profile)
            tested += 1
            hits += want
    assert tested > 100_000 and 0 < hits < tested


def ledger_row(profile, mode, delta):
    """The ledger row find_pair reads at delta, as (level, left_lo,
    left_hi, right_lo, right_hi) with valley levels negated, and its
    near_tie."""
    index = _staircase(profile, mode)
    corner, _, _, row, near_tie = _scan_row(index, delta)
    level = profile.levels[(corner + index[0]) % len(profile.levels)]
    return (-level if mode == VALLEY else level, *row), near_tie


def test_ledger_equals_quadratic_build(profiles):
    # the staircase index is the scan's window, and every row of the
    # quadratic build is the row find_pair reads at that row's widest
    for profile in profiles:
        assert _staircase(profile, MOUNTAIN)[3] is profile.levels
        for mode in (MOUNTAIN, VALLEY):
            anchor, x_lo, x_hi, levels = unroll(profile, mode)
            k, top, xs, lv = _staircase(profile, mode)
            assert profile.starts[k] == anchor and lv == levels
            assert xs == (*x_lo, x_hi[-1]) and lv[top] == max(levels)
            for row in quadratic_ledger(profile, mode):
                delta = row_widths(row)[1]
                assert ledger_row(profile, mode, delta)[0] == row, (mode,
                                                                     row)


def test_ledger_lookup_equals_linear_walk(profiles):
    count = 0
    for profile in profiles:
        for mode in (MOUNTAIN, VALLEY):
            rows = quadratic_ledger(profile, mode)
            # each row's widest is the narrowest of the one before it
            deltas = around(row_widths(rows[0])[1], EPS)
            for row in rows:
                lo, hi = row_widths(row)
                deltas += around(lo, EPS)
                deltas.append(0.5 * (lo + hi))
            # the one width between two adjacent corner levels
            deltas += [row_widths(row)[1] for row in rows[1:]]
            for delta in deltas:
                if not 0.0 < delta < TWO_PI:
                    continue
                hit, near_tie = linear_ledger_lookup(rows, delta)
                # no row holds delta only beyond row 0 by rounding: the
                # scan clamps it to row 0
                assert ledger_row(profile, mode, delta) == (
                    rows[0] if hit is None else hit, near_tie), (mode, delta)
                count += 1
    assert count > 75_000


def assert_rows_match(profile, mode, deltas):
    """At each delta in (0, 2 pi), _scan_row reads the row and near_tie
    of the linear walk over the quadratic ledger, and its jump sits at
    the row's jump position with the corner's level in its span."""
    rows = quadratic_ledger(profile, mode)
    index = _staircase(profile, mode)
    k, _, xs, _ = index
    m = len(xs) - 1
    for delta in deltas:
        if not 0.0 < delta < TWO_PI:
            continue
        hit, near_tie = linear_ledger_lookup(rows, delta)
        assert ledger_row(profile, mode, delta) == (
            rows[0] if hit is None else hit, near_tie), (mode, delta)
        corner, jump, jump_left, row, _ = _scan_row(index, delta)
        assert xs[(jump - k - 1) % m + 1] == row[0 if jump_left else 2]
        lo, hi = profile.jumps[jump]
        assert lo <= profile.levels[(corner + k) % m] <= hi, (mode, delta)


def ulps_around(x, *reach):
    """x, the floats 1 and 2 ulps either side of it and x +- each
    further reach."""
    below, above = math.nextafter(x, -math.inf), math.nextafter(x, math.inf)
    out = [x, below, above, math.nextafter(below, -math.inf),
           math.nextafter(above, math.inf)]
    return out + [x + r for r in reach] + [x - r for r in reach]


def staircase(levels, weights, offset=0.0):
    """The profile of a hull made by hand: levels in corner order, step
    starts at offset plus the running sums of weights scaled to one
    turn, and widths the gaps between consecutive starts, as
    melkman_hull computes them."""
    total = sum(weights)
    starts = [canon_angle(offset + TWO_PI * s / total)
              for s in itertools.accumulate(weights[:-1], initial=0.0)]
    widths = [ccw_gap(a, b) for a, b in zip(starts, starts[1:] + starts[:1])]
    return build_profile(Hull(tuple(range(len(levels))), tuple(levels),
                              tuple(starts), tuple(widths)))


def test_staircase_search_on_one_sided_branches(e1):
    convex = [build_profile(melkman_hull(build_arc(convex_arc(
        n, random.Random(n))))) for n in (16, 80, 400)]
    for profile in convex:
        # every convex corner rises, so the mountain window has no
        # falling middle corner and the valley window no rising one
        assert profile.apex_index == len(profile.levels) - 1
    apex_first = staircase((0.0, 5.0, 4.0, 3.0, 2.0, 1.0),
                           (1.0, 2.0, 1.5, 1.0, 2.0, 0.5), 0.3)
    assert apex_first.apex_index == 1
    profiles = convex + [
        build_profile(melkman_hull(e1)), apex_first,
        build_profile(melkman_hull(build_arc(FALLBACK_VERTICES)))]
    assert len(profiles[3].levels) == 3
    for profile in profiles:
        for mode in (MOUNTAIN, VALLEY):
            deltas = []
            for row in quadratic_ledger(profile, mode):
                for w in row_widths(row):
                    deltas += ulps_around(w, EPS)
            assert_rows_match(profile, mode, deltas)


@st.composite
def staircases(draw):
    """Profiles of 3 to 40 corners whose levels rise then fall, with the
    apex anywhere from corner 1 to corner m - 1, and positive widths."""
    values = sorted(draw(st.lists(st.floats(0.0, 1e3), min_size=3,
                                  max_size=40, unique=True)))
    rising = draw(st.lists(st.booleans(), min_size=len(values) - 2,
                           max_size=len(values) - 2))
    up = [v for v, r in zip(values[1:-1], rising) if r]
    down = [v for v, r in zip(values[1:-1], rising) if not r]
    levels = [values[0], *up, values[-1], *reversed(down)]
    weights = draw(st.lists(st.floats(1e-6, 1.0), min_size=len(levels),
                            max_size=len(levels)))
    return staircase(levels, weights, draw(st.floats(0.0, 6.0)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(staircases(), st.lists(st.floats(0.0, TWO_PI), max_size=10))
def test_staircase_search_equals_linear_walk(profile, deltas):
    for mode in (MOUNTAIN, VALLEY):
        probes = list(deltas)
        for row in quadratic_ledger(profile, mode):
            for w in row_widths(row):
                probes += ulps_around(w)
        assert_rows_match(profile, mode, probes)


def test_find_pair_equals_the_scan(profiles):
    # deltas on and around every row's two widths (each row's widest is
    # the narrowest of the one before it) and inside every row
    fallback = build_profile(melkman_hull(build_arc(FALLBACK_VERTICES)))
    count = 0
    for profile in profiles + [fallback]:
        for mode in (MOUNTAIN, VALLEY):
            rows = quadratic_ledger(profile, mode)
            deltas = around(row_widths(rows[0])[1], EPS)
            for row in rows:
                lo, hi = row_widths(row)
                deltas += around(lo, EPS)
                deltas.append(0.5 * (lo + hi))
            for delta in deltas:
                if 0.0 < delta < TWO_PI:
                    assert repr(find_pair(profile, delta, mode)) == repr(
                        scan_find_pair(profile, delta, mode, rows)), (
                            mode, delta)
                    count += 1
    assert count > 75_000


def test_cached_indexes_stay_out_of_identity(e2):
    cold = build_profile(melkman_hull(e2))
    warm = build_profile(melkman_hull(e2))
    touch_params(warm, 1.0)
    _staircase(warm, MOUNTAIN)
    assert warm == cold and hash(warm) == hash(cold)
    assert repr(warm) == repr(cold)
    assert _staircase(warm, MOUNTAIN) is _staircase(warm, MOUNTAIN)


class ReadRuns(tuple):
    """An arc's runs that count how often they are read through."""

    reads = 0

    def __iter__(self):
        ReadRuns.reads += 1
        return tuple.__iter__(self)


def test_run_index_stays_out_of_identity():
    vertices = convex_arc(40, random.Random(40))
    arc = build_arc(vertices)
    assert len(arc.runs) == 3  # 16 + 16 + 8 vertices
    # the runs take no part in ==, hash or repr
    other = dataclasses.replace(arc, runs=())
    assert other == arc and hash(other) == hash(arc)
    assert repr(other) == repr(arc) == repr(build_arc(vertices))
    # verify_triple reads the runs build_arc stored, one pass per line,
    # and never builds them again
    pair = find_pair_mountain(build_profile(melkman_hull(arc)), arc, 3.0)
    probe = dataclasses.replace(arc, runs=ReadRuns(arc.runs))
    ReadRuns.reads = 0
    assert verify_triple(probe, pair) == verify_triple(arc, pair)
    assert verify_triple(arc, pair).passed
    assert ReadRuns.reads == 2


def interval_gaps(profile):
    """Every end of the gap intervals, 0 and 2 pi, +- eps_angle from
    each and the floats either side of each, the midpoint between each
    two neighbouring ends and pi; on profiles of at most 20 corners also
    every jump-to-jump gap, +- eps_angle and the floats either side of
    each.  Only gaps inside (0, 2 pi)."""
    cuts = interval_cuts(profile)
    gaps = [math.pi]
    for b in cuts:
        gaps += around(b, EPS)
    gaps += [0.5 * (a + b) for a, b in zip(cuts, cuts[1:])]
    if len(profile.levels) <= 20:
        for g in jump_to_jump_gaps(profile):
            gaps += around(g, EPS)
    return [g for g in gaps if 0.0 < g < TWO_PI]


def assert_counts_of_kind(profile, gap, linear):
    """The count of each kind, as the fuzz campaign takes it, equals the
    linear loop's configurations of that kind at gap."""
    assert _count_of_kind(profile, gap, MOUNTAIN) == sum(
        pair.covers_apex for pair in linear), gap
    assert _count_of_kind(profile, gap, VALLEY) == sum(
        pair.covers_min for pair in linear), gap


def test_enumeration_equals_linear_loop(profiles):
    fallback = build_profile(melkman_hull(build_arc(FALLBACK_VERTICES)))
    count = 0
    for profile in profiles + [fallback]:
        for gap in interval_gaps(profile):
            linear = linear_enumerate_triples(profile, gap)
            # enumerate_triples never reads its arc argument
            assert repr(enumerate_triples(profile, None, gap)) == repr(
                linear), gap
            assert_counts_of_kind(profile, gap, linear)
            count += 1
    assert count > 150_000


def hand_profile(levels, starts, apex_index):
    """The profile of the given levels and step starts, with no arc."""
    widths = tuple(b - a for a, b in zip(starts, starts[1:] + (TWO_PI,)))
    jumps = tuple(tuple(sorted((levels[i - 1], levels[i])))
                  for i in range(len(starts)))
    return SupportProfile(tuple(range(len(levels))), levels, starts,
                          widths, jumps, apex_index)


def narrow_jump_profile():
    # slack = EPS_TOUCH * 200 = 2e-7; jump 1 spans 2.9e-7, wider than
    # the slack but not than 2 * slack, so lo + slack > hi - slack and
    # the falling branch's bisections cross past the last step
    return hand_profile((0.0, 2.9e-7, 100.0, 200.0, 1.2e-7),
                        tuple(TWO_PI * j / 5 for j in range(5)), 3)


def wrap_profile(extra):
    # levels 0, 1, 3, 2: the minimum step is eps_angle + extra wide,
    # narrower than the intervals' pad, so jump 0's two candidates reach
    # past gap 0 on one side and past 2 pi on the other
    width = EPS_ANGLE + extra
    rest = (TWO_PI - width) / 3
    return hand_profile((0.0, 1.0, 3.0, 2.0),
                        (0.0, width, width + rest, width + 2 * rest), 2)


def test_chart_skips_a_jump_narrower_than_twice_the_slack():
    profile = narrow_jump_profile()
    assert 1 not in {cand[0] for _, _, cand, _ in _intervals(profile)}
    for gap in interval_gaps(profile):
        assert repr(enumerate_triples(profile, None, gap)) == repr(
            linear_enumerate_triples(profile, gap)), gap


@pytest.mark.parametrize("extra", [1e-14, 1e-13])
def test_chart_splits_gap_intervals_that_wrap_past_the_circle(extra):
    # the intervals carry each overhang over the seam
    profile = wrap_profile(extra)
    assert (_covering(profile, math.nextafter(0.0, 1.0))
            == _covering(profile, math.nextafter(TWO_PI, 0.0))
            == [(0, 1.0), (0, -1.0)])
    for gap in interval_gaps(profile):
        linear = linear_enumerate_triples(profile, gap)
        assert repr(enumerate_triples(profile, None, gap)) == repr(
            linear), gap
        assert_counts_of_kind(profile, gap, linear)


# sha256 over the repr of the gap intervals of the pinned profiles:
# enumeration and the count of one kind read their candidates there
INTERVALS_DIGEST = (
    "ea29e43a9cdaf2d07bb26da2fca0b45a9e2ac9346589b8b8a695a3e8157e8b76")


def test_gap_intervals_are_pinned(fuzz_pool):
    profiles = [profile for _, profile in fuzz_pool]
    for n in (16, 80, 400, 1600):
        for make in (convex_arc, walk_arc):
            vertices = make(n, random.Random(n))
            for arc in (vertices, vertices[::-1]):
                profiles.append(build_profile(melkman_hull(build_arc(arc))))
    for arc in (FALLBACK_VERTICES, zigzag_arc(40), zigzag_arc(400)):
        profiles.append(build_profile(melkman_hull(build_arc(arc))))
    profiles += [narrow_jump_profile(), wrap_profile(1e-14),
                 wrap_profile(1e-13)]
    digest = hashlib.sha256()
    for profile in profiles:
        digest.update(repr(_intervals(profile)).encode())
    assert digest.hexdigest() == INTERVALS_DIGEST


def verify_pairs(arc, profile, delta):
    """The scan pairs and the enumerated pairs at delta."""
    return ([find_pair_mountain(profile, arc, delta),
             find_pair_valley(profile, arc, delta)]
            + enumerate_triples(profile, arc, delta))


def doctored(pair):
    """The pair with either angle 1 ulp and eps_angle off, s2 moved off
    its line, and strict flipped."""
    out = [dataclasses.replace(pair, s2=0.5 * (pair.s1 + pair.s2)),
           dataclasses.replace(pair, strict=not pair.strict)]
    for field in ("theta_double", "theta_single"):
        theta = getattr(pair, field)
        for moved in (math.nextafter(theta, math.inf),
                      math.nextafter(theta, -math.inf),
                      theta + EPS, theta - EPS):
            out.append(dataclasses.replace(pair, **{field: moved}))
    return out


def line_check(check, arc, theta, s, slack):
    """check's anchor and left flag for the line at theta through the
    point verify_triple reads at s."""
    p = point_at(arc, min(max(s, 0.0), arc.length))
    return check(arc, math.cos(theta), math.sin(theta), p.x, p.y, s, slack)


def same_check(arc, pair):
    """verify_triple's report, which must equal the four-pass
    reference's, as must the anchor and left flag of each line."""
    report = verify_triple(arc, pair)
    assert report == linear_verify_triple(arc, pair), pair
    slack = EPS_TOUCH * arc.diagonal
    for theta, s in ((pair.theta_double, pair.s1),
                     (pair.theta_single, pair.s2)):
        anchor, left = line_check(_support_check, arc, theta, s, slack)
        ref_anchor, ref_left = line_check(_linear_support_check, arc, theta,
                                          s, slack)
        assert anchor == ref_anchor and left == ref_left, (pair, theta)
    return report


def test_verify_triple_equals_four_passes(fuzz_pool):
    rng = random.Random(20)
    deltas = [rng.uniform(1e-6, TWO_PI - 1e-6) for _ in range(20)]
    arcs = [(arc, profile, 1) for arc, profile in fuzz_pool]
    for make in (convex_arc, walk_arc):
        for n in (16, 17, 33, 400, 1600):  # one run, run edges, many runs
            arc = build_arc(make(n, random.Random(n)))
            arcs.append((arc, build_profile(melkman_hull(arc)), 5))
    checked = failing = 0
    for arc, profile, doctor in arcs:
        # pairs are doctored at the first delta (pool) or five (families)
        for d, delta in enumerate(deltas):
            for pair in verify_pairs(arc, profile, delta):
                for p in [pair] + (doctored(pair) if d < doctor else []):
                    failing += not same_check(arc, p).passed
                    checked += 1
    assert checked > 70_000 and failing > 3_000


def test_first_of_two_tied_vertices_is_the_anchor():
    # a U whose bottom is the hull edge from vertex 15, the last of the
    # first run, to vertex 16, the first of the second: at theta = 0
    # both project to exactly 0 on the normal (0, -1), and vertex 15
    # must win even when the seed is vertex 16
    left = [(-(15 - i), (15 - i) ** 2 / 10) for i in range(16)]
    right = [(1 + j, j ** 2 / 10) for j in range(16)]
    arc = build_arc(left + right)
    profile = build_profile(melkman_hull(arc))
    assert 0.0 in profile.starts
    slack = EPS_TOUCH * arc.diagonal
    for k in (15, 16):
        s = arc.params[k]
        anchor, left_ok = line_check(_support_check, arc, 0.0, s, slack)
        assert anchor == 15 and left_ok
        assert (anchor, left_ok) == line_check(_linear_support_check, arc,
                                               0.0, s, slack)
    pair = TriplePair("mountain", 0.0, math.pi / 2, arc.params[15],
                      arc.params[20], arc.params[16], strict=False,
                      requested_delta=math.pi / 2,
                      realized_gap=math.pi / 2)
    for p in [pair] + doctored(pair):
        same_check(arc, p)


class CountedRun(tuple):
    """A run of PolygonalArc.runs that records when its vertices are
    read."""

    reads: set = set()

    def __getitem__(self, i):
        if i >= 4:  # the coordinate lists, not the box
            CountedRun.reads.add(id(self))
        return tuple.__getitem__(self, i)


@pytest.mark.parametrize("make", [convex_arc, walk_arc])
def test_line_check_reads_at_most_10_runs(make):
    # the four-pass check reads all 100 runs twice per line
    n = 1600
    arc = build_arc(make(n, random.Random(n)))
    profile = build_profile(melkman_hull(arc))
    arc = dataclasses.replace(
        arc, runs=tuple([CountedRun(run) for run in arc.runs]))
    assert len(arc.runs) == 100
    rng = random.Random(20)
    deltas = [rng.uniform(1e-6, TWO_PI - 1e-6) for _ in range(20)]
    slack = EPS_TOUCH * arc.diagonal
    most = checks = 0
    for pair in [p for delta in deltas
                 for p in verify_pairs(arc, profile, delta)]:
        for theta, s in ((pair.theta_double, pair.s1),
                         (pair.theta_single, pair.s2)):
            CountedRun.reads = set()
            line_check(_support_check, arc, theta, s, slack)
            most = max(most, len(CountedRun.reads))
            checks += 1
    assert checks >= 80 and 1 <= most <= 10


class Coordinate(float):
    """A vertex coordinate that records its run when the left test
    subtracts the touch point from it; the projection only multiplies."""

    runs: set = set()

    def __new__(cls, value, run):
        self = super().__new__(cls, value)
        self.run = run
        return self

    def __sub__(self, other):
        Coordinate.runs.add(self.run)
        return float(self) - other


def left_counted(arc):
    """The arc with coordinates in its runs that count the runs the
    left test reads."""
    return dataclasses.replace(arc, runs=tuple(
        run[:4] + tuple(tuple(Coordinate(c, r) for c in column)
                        for column in run[4:])
        for r, run in enumerate(arc.runs)))


@pytest.mark.parametrize("make", [convex_arc, walk_arc])
def test_left_test_reads_no_run_on_passed_pairs(make):
    # the left flag of a line through a pair's own touch point follows
    # from its projection pass; the runs it reads for the anchor are the
    # only reads, as test_line_check_reads_at_most_10_runs counts them
    n = 1600
    arc = build_arc(make(n, random.Random(n)))
    profile = build_profile(melkman_hull(arc))
    counted = left_counted(arc)
    rng = random.Random(20)
    deltas = [rng.uniform(1e-6, TWO_PI - 1e-6) for _ in range(20)]
    slack = EPS_TOUCH * arc.diagonal
    lines = 0
    for pair in [p for delta in deltas
                 for p in verify_pairs(arc, profile, delta)]:
        report = verify_triple(arc, pair)
        assert verify_triple(counted, pair) == report
        if not report.passed:
            continue
        for theta, s in ((pair.theta_double, pair.s1),
                         (pair.theta_single, pair.s2)):
            Coordinate.runs = set()
            assert line_check(_support_check, counted, theta, s, slack)[1]
            assert Coordinate.runs == set(), (pair, theta)
            lines += 1
    assert lines >= 80


def decided(arc, theta, s, slack):
    """Does _support_check decide the left flag of the line at theta
    through the point at s from its projection pass alone?  Its second
    pass over the runs is the left test."""
    probe = dataclasses.replace(arc, runs=ReadRuns(arc.runs))
    ReadRuns.reads = 0
    line_check(_support_check, probe, theta, s, slack)
    return ReadRuns.reads == 1


def translated(vertices, times):
    """The vertices moved by times their diagonal in x and in y."""
    xs, ys = [x for x, _ in vertices], [y for _, y in vertices]
    t = times * math.hypot(max(xs) - min(xs), max(ys) - min(ys))
    return [(x + t, y + t) for x, y in vertices]


@pytest.mark.parametrize("offset", [0.0, 1e5, 1e6, 1e9])
def test_left_certificate_declines_far_from_the_origin(offset):
    # the certificate's margin grows with |px| + |py|: about a tenth of
    # the slack at 1e5 diagonals out, above it from 1e6 on, where every
    # line falls back to the left pass.  The flags stay the four passes'
    rng = random.Random(20)
    deltas = [rng.uniform(1e-6, TWO_PI - 1e-6) for _ in range(4)]
    lines = passed = 0
    for make in (convex_arc, walk_arc):
        for n in (16, 17, 33, 400):
            arc = build_arc(translated(make(n, random.Random(n)), offset))
            profile = build_profile(melkman_hull(arc))
            slack = EPS_TOUCH * arc.diagonal
            for delta in deltas:
                for pair in verify_pairs(arc, profile, delta):
                    for p in [pair] + doctored(pair):
                        report = same_check(arc, p)
                        passed += report.passed
                        for theta, s in ((p.theta_double, p.s1),
                                         (p.theta_single, p.s2)):
                            lines += 1
                            if offset >= 1e6:
                                assert not decided(arc, theta, s, slack)
                            elif offset == 0.0 and report.passed:
                                assert decided(arc, theta, s, slack)
    assert lines > 1_500 and passed > 700


@pytest.mark.parametrize("times", [0.0, 1e5])
@pytest.mark.parametrize("ulps", [-3, -2, -1, 0, 1, 2, 3])
def test_left_certificate_holds_on_its_margin(times, ulps):
    # the line at theta = 0 below a V whose bottom vertex is (t, 0):
    # dy = 0, so F(v) = -y exactly and best = 0, and the point
    # p = (t, h) gives fl(F(p) - best) = -h, set to ulps floats from
    # E - slack, E = 9u (|px| + |py| + d).  Every g is at least
    # -h > -slack, so the flag is True on both sides of the
    # margin; the certificate decides it from 0 ulps on, the left pass
    # below
    t = times * math.hypot(2.0, 1.0)
    arc = build_arc([(t - 1.0, 1.0), (t, 0.0), (t + 1.0, 1.0)])
    slack = EPS_TOUCH * arc.diagonal
    h, seen = slack, []
    while h not in seen:  # E reads h: settle on a fixed point
        seen.append(h)
        margin = 9 * 2.0 ** -53 * (abs(t) + abs(h) + arc.diagonal) - slack
        for _ in range(abs(ulps)):
            margin = math.nextafter(margin, math.copysign(math.inf, ulps))
        h = -margin
    assert h == seen[-1] and 0.0 < h < slack
    probe = dataclasses.replace(arc, runs=ReadRuns(arc.runs))
    for check, tested in ((_linear_support_check, arc),
                          (_support_check, arc), (_support_check, probe)):
        ReadRuns.reads = 0
        assert check(tested, 1.0, 0.0, t, h, arc.params[1], slack) == (1, True)
    assert ReadRuns.reads == (1 if ulps >= 0 else 2)


def verdict(check, vertices):
    """(None, repr) of an accepted arc, or (class, message) of the
    rejection."""
    try:
        return None, repr(check(vertices))
    except ArcError as exc:
        return type(exc), str(exc)


def crosses(vertices, thr=None):
    """The sampler's filter on a chain of (x, y) pairs, at thr or else
    at the chain's own bound, the least any draw is held to."""
    xs, ys = [float(x) for x, _ in vertices], [float(y) for _, y in vertices]
    return _certainly_crosses(xs, ys, chain_bound(xs, ys) if thr is None
                              else thr)


def same_verdict(vertices):
    """build_arc's verdict, which pairwise_simple_check must repeat; the
    sampler's filter, at the chain's bound, must flag no chain they
    accept, and an arc they accept keeps that bound, bitwise."""
    fast = verdict(build_arc, vertices)
    assert fast == verdict(pairwise_simple_check, vertices), vertices
    if fast[0] is None:
        assert not crosses(vertices), vertices
        arc = build_arc(vertices)
        assert arc.bound == chain_bound(arc.xs, arc.ys), vertices
    return fast


def test_build_arc_equals_pairwise_on_random_draws():
    rejected = flagged = 0
    for pts in uniform_draws(20_000, 20_000):
        rejected += same_verdict(pts)[0] is not None
        flagged += crosses(pts, DRAW_BOUND)
        # the square's bound holds every draw's own
        assert chain_bound(*zip(*pts)) <= DRAW_BOUND
    assert 0.7 < rejected / 20_000 < 0.9
    # every rejection here is a plain crossing: the filter, at the bound
    # the sampler holds every draw to, spares build_arc every draw it
    # would reject
    assert flagged == rejected
    # a draw spanning the whole square meets the bound exactly
    box = COORDINATE_BOX
    assert chain_bound([0.0, box], [0.0, box]) == DRAW_BOUND


def test_build_arc_equals_pairwise_on_pool_and_families(fuzz_pool):
    rng = random.Random(400)
    chains = [list(zip(arc.xs, arc.ys)) for arc, _ in fuzz_pool]
    chains += [make(400, rng) for make in (convex_arc, walk_arc)]
    for pts in chains:
        assert same_verdict(pts)[0] is None


# the box growth of an arc whose bounding box is [0, 1.5] x [0, 1]
PAD = EPS_TOUCH * math.hypot(1.5, 1.0)


def test_grown_boxes_meeting_at_an_edge_are_tested():
    # segment 3's grown box starts exactly where segment 0's ends, and
    # the orientation test calls them touching: both paths reject
    right = 1.0 + PAD
    x = right + PAD
    while x - PAD < right:
        x = math.nextafter(x, math.inf)
    while x - PAD > right:
        x = math.nextafter(x, -math.inf)
    assert x - PAD == right
    pts = [(0.0, 0.0), (1.0, 0.0), (1.5, 1.0), (x, 1.5e-12),
           (x + 1e-3, 0.8e-12)]
    assert same_verdict(pts) == (SelfIntersecting,
                                 "segments 0 and 3 intersect")
    # one float further right the boxes miss and both paths accept
    pts[3] = (math.nextafter(x, math.inf), 1.5e-12)
    assert same_verdict(pts)[0] is None


def counted_sweeps(mp):
    """Count the calls of arc._swept_crossing, the sort and sweep over
    the grown boxes: a one-item list."""
    sweep = arc_module._swept_crossing
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return sweep(*args)

    mp.setattr(arc_module, "_swept_crossing", counted)
    return calls


def test_certificate_declines_a_step_on_the_margin(monkeypatch):
    # an x-monotone chain whose step from 1 to x lands exactly on the
    # margin, fl(x - pad) == fl(1 + pad): the grown boxes of segments 0
    # and 2 meet at one x, so the certificate must decline, and the
    # sweep finds the two touching
    x = 1.0 + 2 * PAD
    while x - PAD < 1.0 + PAD:
        x = math.nextafter(x, math.inf)
    while x - PAD > 1.0 + PAD:
        x = math.nextafter(x, -math.inf)
    assert x - PAD == 1.0 + PAD
    pts = [(0.0, 0.0), (1.0, 0.0), (x, 1.5e-12), (x + 1e-3, 0.8e-12),
           (1.5, 1.0)]
    swept = counted_sweeps(monkeypatch)
    assert same_verdict(pts) == (SelfIntersecting,
                                 "segments 0 and 2 intersect")
    assert swept == [1]
    # one float further every x-step clears the margin: no box is built,
    # and the pairwise reference, which tests every pair, accepts too
    pts[2] = (math.nextafter(x, math.inf), 1.5e-12)
    swept[0] = 0
    assert same_verdict(pts)[0] is None
    assert pts[2][0] - PAD > 1.0 + PAD and swept == [0]


def rising_chain(start, steps, across, tail):
    """A chain whose first coordinate rises from start by one step per
    entry of steps: 0.25 where the entry is None, the entry itself where
    it is a float, else k ulps past the point where the step meets the
    margin of the grown boxes, fl(b - pad) == fl(a + pad), k the
    entry.  across holds the other
    coordinate of each vertex, tail extra vertices (as offsets from the
    start); pad is that of the finished chain, refitted until it holds
    still."""
    pad = EPS_TOUCH
    for _ in range(4):
        cs = [start]
        for k in steps:
            a = cs[-1]
            if k is None or isinstance(k, float):
                cs.append(a + (0.25 if k is None else k))
                continue
            edge = a + pad
            b = edge + pad
            while b - pad < edge:
                b = math.nextafter(b, math.inf)
            while b - pad > edge:
                b = math.nextafter(b, -math.inf)
            for _ in range(abs(k)):
                b = math.nextafter(b, math.copysign(math.inf, k))
            cs.append(b)
        pts = list(zip(cs, across)) + [(start + u, start + v)
                                        for u, v in tail]
        xs, ys = zip(*pts)
        fitted = EPS_TOUCH * math.hypot(max(xs) - min(xs), max(ys) - min(ys))
        if fitted == pad:
            break
        pad = fitted
    return pts


def monotone_chain(offset, falling, flip, steps, tail):
    """rising_chain from offset, negated when falling (rounding is
    symmetric, so fl(a - pad) then meets fl(b + pad)), its coordinates
    swapped when flip."""
    sign = -1.0 if falling else 1.0
    across = [0.0] + [y for _, y in steps]
    pts = rising_chain(sign * offset, [k for k, _ in steps],
                       [sign * offset + y for y in across], tail)
    return [(sign * y, sign * x) if flip else (sign * x, sign * y)
            for x, y in pts]


# strictly monotone chains in x or y, rising or falling, at three
# offsets (at -1e12 the pad is below one ulp), whose steps are plain or
# sit a few ulps either side of the margin of the grown boxes, with an
# optional tail of up to 3 vertices anywhere near them.  The other
# coordinate is anywhere in [0, 1] or within the orientation tolerance
# of 0, where segments a margin apart can touch
monotone_chains = st.builds(
    monotone_chain, st.sampled_from([0.0, 1e6, -1e12]), st.booleans(),
    st.booleans(),
    st.lists(st.tuples(st.none() | st.integers(-3, 3),
                       st.floats(0.0, 1.0) | st.floats(-2e-12, 2e-12)),
             min_size=2, max_size=10),
    st.lists(st.tuples(st.floats(-1.0, 3.0), st.floats(0.0, 1.0)),
             max_size=3))


# chains shaped like test_certificate_declines_a_step_on_the_margin's:
# a long step (0.1 to 0.5, so the next one starts off the coarse binary
# fractions, where rounding can tell the boxes' expressions from
# others), a step on the margin (half the time) or up to 3 ulps past it
# or 1 short, a tiny step, then a vertex far off, which sets the margin
# (a fixed one can line its bits up with the steps').  The first four
# vertices lie within twice the orientation tolerance of one line,
# EPS_ORIENT times the long step's length, where the tolerant test can
# call the long and the tiny segment touching across the margin step.
# A certificate that accepts a step exactly on the margin, or tests the
# margin by another expression, then accepts a chain the pairwise
# reference refuses
margin_chains = st.builds(
    lambda offset, falling, flip, long, k, ts, far: monotone_chain(
        offset, falling, flip, [(long, ts[0] * long * 1e-12),
                                (k, ts[1] * long * 1e-12),
                                (1e-3, ts[2] * long * 1e-12)], [far]),
    st.sampled_from([0.0, 1e6, -1e12]), st.booleans(), st.booleans(),
    st.floats(0.1, 0.5), st.just(0) | st.integers(-1, 3),
    st.tuples(*[st.floats(-2.0, 2.0)] * 3),
    st.tuples(st.floats(2.0, 4.0), st.floats(0.5, 1.5)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(monotone_chains)
def test_certificate_agrees_with_pairwise_at_the_margin(pts):
    same_verdict(pts)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(margin_chains)
def test_certificate_agrees_with_pairwise_on_touching_chains(pts):
    same_verdict(pts)


# the grid makes shared and touching endpoints, collinear overlaps and
# back-tracking common; a nudge of 2^-e off it makes slivers
grid_chains = st.builds(
    lambda pts, nudge: [(x, y + nudge) if i == 1 else (x, y)
                        for i, (x, y) in enumerate(pts)],
    st.lists(st.tuples(st.integers(0, 4).map(float),
                       st.integers(0, 4).map(float)),
             min_size=3, max_size=9),
    st.sampled_from([0.0]) | st.integers(10, 60).map(lambda e: 2.0**-e)
    | st.integers(10, 60).map(lambda e: -(2.0**-e)))

# a segment 1e-9 to 1e-2 long, within the orientation tolerance of the
# line through segment 0, at any distance from it or a few pads away
tiny_near_collinear = st.builds(
    lambda x, length, y0, y1, back: [
        (0.0, 0.0), (1.0, 0.0), (1.5, 1.0)]
    + ([(x + length, y1), (x, y0)] if back else [(x, y0), (x + length, y1)]),
    st.floats(-0.5, 2.0) | st.floats(-4.0, 4.0).map(lambda t: 1.0 + t * PAD),
    st.floats(-9.0, -2.0).map(lambda u: 10.0**u),
    st.floats(-3e-12, 3e-12), st.floats(-3e-12, 3e-12), st.booleans())

stacked = st.builds(stacked_diagonals, st.integers(3, 16),
                    st.integers(-45, 0).map(lambda e: 2.0**e))


# a chain, an exact 2^k scaling and a translation by a point of a
# 2^grid grid in the scaled units
ADVERSARIAL = dict(pts=grid_chains | tiny_near_collinear | stacked,
                   k=st.integers(-60, 60),
                   offset=st.tuples(st.integers(-2**10, 2**10),
                                    st.integers(-2**10, 2**10)),
                   grid=st.integers(-30, 0))


def scaled_and_moved(pts, k, offset, grid):
    """pts, pts scaled by 2^k, and the scaled chain translated."""
    scaled = [(math.ldexp(x, k), math.ldexp(y, k)) for x, y in pts]
    ox, oy = (math.ldexp(c, k + grid) for c in offset)
    return [pts, scaled, [(x + ox, y + oy) for x, y in scaled]]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(**ADVERSARIAL)
@example(pts=[(0, 0), (1, 0), (1.5, 1),
              (1.5292353540374406, 2.84194129160528e-12),
              (1.5292357661276, 1.4318546153326271e-12)],
         k=0, offset=(0, 0), grid=0)
def test_build_arc_equals_pairwise_on_adversarial_arcs(pts, k, offset, grid):
    for chain in scaled_and_moved(pts, k, offset, grid):
        same_verdict(chain)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(**ADVERSARIAL)
def test_chain_orient_equals_orient_on_adversarial_chains(pts, k, offset,
                                                          grid):
    # every ordered triple of three distinct vertices
    for chain in scaled_and_moved(pts, k, offset, grid):
        xs, ys = [x for x, _ in chain], [y for _, y in chain]
        points = [Point2(x, y) for x, y in chain]
        turn = _chain_turn(xs, ys, chain_bound(xs, ys))
        for i, j, m in itertools.permutations(range(len(chain)), 3):
            assert turn(i, j, m) == orient(points[i], points[j],
                                           points[m]), (chain, i, j, m)


def checked_pairs(mp):
    """Wrap arc._segments_intersect so that every pair it is asked about
    must have boxes, grown by build_arc's pad, that meet; returns the
    list of pairs asked about."""
    predicate = arc_module._segments_intersect
    asked = []
    chain = [None, 0.0]  # the last chain's xs and its pad

    def checked(turn, xs, ys, i, j):
        if chain[0] is not xs:
            chain[:] = [xs, EPS_TOUCH * math.hypot(max(xs) - min(xs),
                                                   max(ys) - min(ys))]
        pad = chain[1]
        for cs in (xs, ys):
            lo_i, hi_i = min(cs[i], cs[i + 1]), max(cs[i], cs[i + 1])
            lo_j, hi_j = min(cs[j], cs[j + 1]), max(cs[j], cs[j + 1])
            assert lo_i - pad <= hi_j + pad and lo_j - pad <= hi_i + pad, (
                xs, ys, i, j)
        asked.append((i, j))
        return predicate(turn, xs, ys, i, j)

    mp.setattr(arc_module, "_segments_intersect", checked)
    return asked


@pytest.mark.parametrize("make", [convex_arc, walk_arc])
def test_swept_pairs_have_meeting_grown_boxes(monkeypatch, make):
    # the sweep's sort and break meet the x-ranges, its own test the
    # y-ranges: the predicate needs no gate of its own
    asked = checked_pairs(monkeypatch)
    n = 1600
    build_arc(make(n, random.Random(n)))
    # these families hand the predicate few pairs (none at this seed);
    # stacked diagonals hand it every non-adjacent pair
    asked.clear()
    build_arc(stacked_diagonals(20))
    assert len(asked) == 18 * 17 // 2


@settings(max_examples=400, deadline=None, derandomize=True)
@given(**ADVERSARIAL)
def test_swept_pairs_have_meeting_grown_boxes_on_adversarial_chains(
        pts, k, offset, grid):
    with pytest.MonkeyPatch.context() as mp:
        checked_pairs(mp)
        for chain in scaled_and_moved(pts, k, offset, grid):
            verdict(build_arc, chain)


@pytest.mark.parametrize("make", [convex_arc, walk_arc])
def test_sweep_calls_the_predicate_at_most_n_times(monkeypatch, make):
    # the pairwise loop tests the grown boxes of (n - 2)(n - 3)/2 pairs,
    # 1,276,003 here, and asks the predicate about those that meet
    calls = 0
    predicate = arc_module._segments_intersect

    def counted(*args):
        nonlocal calls
        calls += 1
        return predicate(*args)

    monkeypatch.setattr(arc_module, "_segments_intersect", counted)
    n = 1600
    build_arc(make(n, random.Random(n)))
    assert calls <= n
    # the counter counts: stacked diagonals test every non-adjacent pair
    build_arc(stacked_diagonals(20))
    assert calls == 18 * 17 // 2


@pytest.mark.parametrize("make", [convex_arc, walk_arc])
def test_sweep_builds_boxes_only_without_a_certificate(monkeypatch, make):
    # every x-step of the walk clears the margin of the grown boxes, so
    # build_arc sorts and scans no box; the convex family turns through
    # 1.5 pi, monotone on neither axis, and is swept
    swept = counted_sweeps(monkeypatch)
    build_arc(make(1600, random.Random(1600)))
    assert swept == [0 if make is walk_arc else 1]


def test_crossing_filter_stops_at_the_orient_tolerance():
    # segment 0 crosses segment 2 with all four cross products exactly
    # +-t, t the threshold of a chain whose squared span rounds to 1:
    # orient, on segment 2 and either end of segment 0, takes that span
    # and calls the triple collinear, so the filter must not flag it
    t = EPS_ORIENT
    xs, ys = [0.25, 0.75, 0.0, 1.0], [-t, t, 0.0, 0.0]
    pts = [Point2(x, y) for x, y in zip(xs, ys)]
    a1, a2 = pts[2], pts[3]
    assert orient(a1, a2, pts[0]) == orient(a1, a2, pts[1]) == 0
    assert not _certainly_crosses(xs, ys, chain_bound(xs, ys))
    # twice as far apart, orient sees the crossing and so does the filter
    ys = [-2 * t, 2 * t, 0.0, 0.0]
    assert _certainly_crosses(xs, ys, chain_bound(xs, ys))
    assert same_verdict(list(zip(xs, ys)))[0] is SelfIntersecting


def test_crossing_filter_takes_the_whole_chain_span():
    # segment 0, 0.1 long, crosses segment 5 with cross products near
    # 1e-13: beyond EPS_ORIENT times segment 0's squared span, within
    # EPS_ORIENT times each triple's; build_arc accepts the chain, so
    # the filter must not flag it
    pts = [(0.5, -1e-13), (0.6, 1e-13), (2.0, 1e-13), (2.0, 1.0),
           (-0.5, 1.0), (0.0, 0.0), (1.0, 0.0)]
    assert same_verdict(pts)[0] is None


def unfiltered_simple_arc(config, trial_index, max_rejections=10_000):
    """random_simple_arc with every draw sent through build_arc."""
    rng = random.Random(f"{config.seed}:{trial_index}")
    lo_n, hi_n = config.vertex_range
    for _ in range(max_rejections):
        n = rng.randint(lo_n, hi_n)
        pts = [Point2(rng.uniform(0.0, COORDINATE_BOX),
                      rng.uniform(0.0, COORDINATE_BOX))
               for _ in range(n)]
        try:
            arc = build_arc(pts)
            melkman_hull(arc)
        except (ArcError, StraightArc):
            continue
        return arc
    raise GenerationExhausted(f"no simple arc after {max_rejections} draws")


def test_sampler_equals_unfiltered_rejection(fuzz_pool):
    for trial, (arc, _) in enumerate(fuzz_pool):
        assert arc == unfiltered_simple_arc(POOL_CONFIG, trial), trial
    for seed in (7, 42, 8001):
        for vertex_range in ((4, 12), (5, 7)):
            config = FuzzConfig(seed=seed, vertex_range=vertex_range)
            for trial in range(200):
                assert random_simple_arc(config, trial) == (
                    unfiltered_simple_arc(config, trial)), (config, trial)


def test_discarded_draws_count_against_the_cap(monkeypatch):
    for trial in range(20):
        for cap in range(1, 13):
            try:
                want = unfiltered_simple_arc(POOL_CONFIG, trial, cap)
            except GenerationExhausted:
                want = None
            monkeypatch.setattr(oracle, "MAX_DRAWS", cap)
            try:
                got = random_simple_arc(POOL_CONFIG, trial)
            except GenerationExhausted:
                got = None
            assert got == want, (trial, cap)
