"""The fast queries against their slow references in oracle.py.

build_arc sweeps sorted segment boxes, touch_params bisects sorted jump
angles, the scan ledger (one row per hull corner) is one two-pointer
merge and the scan bisects it, enumerate_triples bisects the gap
chart, and verify_triple reads only the runs of vertices whose box can
matter; the references are the pairwise, linear and quadratic forms.
random_simple_arc discards crossing draws before build_arc; its
reference sends every draw through build_arc.  Results must be equal,
not close.
"""

import dataclasses
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arcsupport import (EPS_ANGLE, EPS_ORIENT, EPS_TOUCH, MOUNTAIN, TWO_PI,
                        VALLEY, ArcError, FuzzConfig, GenerationExhausted,
                        HullCorner, Jump, Point2, SelfIntersecting,
                        StraightArc, SupportProfile, TriplePair, build_arc,
                        build_profile, enumerate_triples, find_pair_mountain,
                        find_pair_valley, jump_to_jump_gaps, melkman_hull,
                        orient, point_at, random_simple_arc, touch_params,
                        verify_triple)
from arcsupport import arc as arc_module
from arcsupport.arc import run_index
from arcsupport.oracle import (COORDINATE_BOX, _certainly_crosses,
                               _linear_support_check,
                               linear_enumerate_triples, linear_ledger_lookup,
                               linear_touch_params, linear_verify_triple,
                               pairwise_simple_check, quadratic_ledger)
from arcsupport.pairs import _gap_chart, _lookup, _support_check, _window
from conftest import POOL_CONFIG
from families import FALLBACK_VERTICES, convex_arc, uniform_draws, walk_arc

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
    assert len(big[0].steps) == 400
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
    for j in profile.jumps:
        qs += around(j.angle, EPS) + [j.angle + TWO_PI, j.angle - TWO_PI]
    qs += [s.start + 0.5 * s.width for s in profile.steps]
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
    starts = [TWO_PI - 0.75 * EPS, 0.75 * EPS, 2.0]
    ends = starts[1:] + starts[:1]
    levels = [0.0, 2.0, 1.0]
    steps = tuple(HullCorner(Point2(lv, 0.0), lv, a, b, (b - a) % TWO_PI)
                  for a, b, lv in zip(starts, ends, levels))
    jumps = tuple(Jump(a, *sorted((levels[i - 1], levels[i])))
                  for i, a in enumerate(starts))
    profile = SupportProfile(steps, jumps, apex_index=1)
    for theta in (0.0, 1e-10, -1e-10, TWO_PI - 1e-10):
        assert touch_params(profile, theta) == (0.0, 1.0)
        assert touch_params(profile, theta) == linear_touch_params(profile, theta)
    assert touch_params(profile, EPS) == (0.0, 2.0)


def test_ledger_equals_quadratic_build(profiles):
    for profile in profiles:
        for mode in (MOUNTAIN, VALLEY):
            assert _window(profile, mode).rows == tuple(
                quadratic_ledger(profile, mode))


def widths(row):
    """(narrowest, widest) width of a ledger row."""
    _, l_lo, l_hi, r_lo, r_hi = row
    return r_lo - l_hi, r_hi - l_lo


def test_ledger_lookup_equals_linear_walk(profiles):
    for profile in profiles:
        for mode in (MOUNTAIN, VALLEY):
            win = _window(profile, mode)
            # each row's widest is the narrowest of the one before it
            deltas = around(widths(win.rows[0])[1], EPS)
            for row in win.rows:
                lo, hi = widths(row)
                deltas += around(lo, EPS)
                deltas.append(0.5 * (lo + hi))
            # the one width between two adjacent corner levels
            deltas += [widths(row)[1] for row in win.rows[1:]]
            for delta in deltas:
                assert _lookup(win, delta) == linear_ledger_lookup(
                    list(win.rows), delta), (mode, delta)


def test_cached_indexes_stay_out_of_identity(e2):
    cold = build_profile(melkman_hull(e2))
    warm = build_profile(melkman_hull(e2))
    touch_params(warm, 1.0)
    _window(warm, MOUNTAIN)
    assert warm == cold and hash(warm) == hash(cold)
    assert repr(warm) == repr(cold)
    assert _window(warm, MOUNTAIN) is _window(warm, MOUNTAIN)


def test_run_index_stays_out_of_identity():
    vertices = convex_arc(40, random.Random(40))
    cold, warm = build_arc(vertices), build_arc(vertices)
    pair = find_pair_mountain(build_profile(melkman_hull(warm)), warm, 3.0)
    assert verify_triple(warm, pair).passed
    runs = run_index(warm)
    assert len(runs) == 3  # 16 + 16 + 8 vertices
    verify_triple(warm, pair)
    assert run_index(warm) is runs  # built once per arc
    assert warm == cold and hash(warm) == hash(cold)
    assert repr(warm) == repr(cold)


def chart_gaps(profile):
    """Every cut of the gap chart, +- eps_angle from it and the floats
    either side of each, every piece's midpoint and pi; on profiles of
    at most 20 corners also every jump-to-jump gap, +- eps_angle and
    the floats either side of each.  Only gaps inside (0, 2 pi)."""
    breaks = _gap_chart(profile).breaks
    gaps = [math.pi]
    for b in breaks:
        gaps += around(b, EPS)
    gaps += [0.5 * (a + b) for a, b in zip(breaks, breaks[1:])]
    if len(profile.steps) <= 20:
        for g in jump_to_jump_gaps(profile):
            gaps += around(g, EPS)
    return [g for g in gaps if 0.0 < g < TWO_PI]


def test_enumeration_equals_linear_loop(profiles):
    fallback = build_profile(melkman_hull(build_arc(FALLBACK_VERTICES)))
    count = 0
    for profile in profiles + [fallback]:
        for gap in chart_gaps(profile):
            # enumerate_triples never reads its arc argument
            assert repr(enumerate_triples(profile, None, gap)) == repr(
                linear_enumerate_triples(profile, gap)), gap
            count += 1
    assert count > 150_000


def test_chart_skips_a_jump_narrower_than_twice_the_slack():
    # slack = EPS_TOUCH * 200 = 2e-7; jump 1 spans 2.9e-7, wider than
    # the slack but not than 2 * slack, so lo + slack > hi - slack and
    # the falling branch's bisections cross past the last step
    levels = [0.0, 2.9e-7, 100.0, 200.0, 1.2e-7]
    starts = [TWO_PI * j / 5 for j in range(5)]
    ends = starts[1:] + [TWO_PI]
    steps = tuple(HullCorner(Point2(lv, 0.0), lv, a, b, b - a)
                  for a, b, lv in zip(starts, ends, levels))
    jumps = tuple(Jump(a, *sorted((levels[i - 1], levels[i])))
                  for i, a in enumerate(starts))
    profile = SupportProfile(steps, jumps, apex_index=3)
    assert 1 not in {i for piece in _gap_chart(profile).cands
                     for i, _ in piece}
    for gap in chart_gaps(profile):
        assert repr(enumerate_triples(profile, None, gap)) == repr(
            linear_enumerate_triples(profile, gap)), gap


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


def touch_point(arc, s):
    """The point verify_triple reads at s."""
    return point_at(arc, min(max(s, 0.0), arc.length))


def same_check(arc, pair):
    """verify_triple's report, which must equal the four-pass
    reference's, as must the anchor and left flag of each line."""
    report = verify_triple(arc, pair)
    assert report == linear_verify_triple(arc, pair), pair
    slack = EPS_TOUCH * arc.diagonal
    for theta, s in ((pair.theta_double, pair.s1),
                     (pair.theta_single, pair.s2)):
        p = touch_point(arc, s)
        anchor, left = _support_check(arc, theta, p, s, slack)
        ref_anchor, ref_left = _linear_support_check(arc, theta, p, s, slack)
        assert anchor is ref_anchor and left == ref_left, (pair, theta)
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
    assert any(j.angle == 0.0 for j in profile.jumps)
    slack = EPS_TOUCH * arc.diagonal
    for k in (15, 16):
        s = arc.params[k]
        p = touch_point(arc, s)
        anchor, left_ok = _support_check(arc, 0.0, p, s, slack)
        assert anchor is arc.vertices[15] and left_ok
        assert (anchor, left_ok) == _linear_support_check(arc, 0.0, p, s,
                                                          slack)
    pair = TriplePair("mountain", 0.0, math.pi / 2, arc.params[15],
                      arc.params[20], arc.params[16], strict=False,
                      requested_delta=math.pi / 2,
                      realized_gap=math.pi / 2)
    for p in [pair] + doctored(pair):
        same_check(arc, p)


class CountedRun(tuple):
    """A run of run_index that records when its vertices are read."""

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
    arc._indexes["runs"] = [CountedRun(run) for run in run_index(arc)]
    assert len(run_index(arc)) == 100
    rng = random.Random(20)
    deltas = [rng.uniform(1e-6, TWO_PI - 1e-6) for _ in range(20)]
    slack = EPS_TOUCH * arc.diagonal
    most = checks = 0
    for pair in [p for delta in deltas
                 for p in verify_pairs(arc, profile, delta)]:
        for theta, s in ((pair.theta_double, pair.s1),
                         (pair.theta_single, pair.s2)):
            CountedRun.reads = set()
            p = touch_point(arc, s)
            _support_check(arc, theta, p, s, slack)
            most = max(most, len(CountedRun.reads))
            checks += 1
    assert checks >= 80 and 1 <= most <= 10


def verdict(check, vertices):
    """(None, params) of an accepted arc, or (class, message) of the
    rejection."""
    try:
        return None, check(vertices).params
    except ArcError as exc:
        return type(exc), str(exc)


def crosses(vertices):
    """The sampler's filter on a chain of (x, y) pairs."""
    return _certainly_crosses([float(x) for x, _ in vertices],
                              [float(y) for _, y in vertices])


def same_verdict(vertices):
    """build_arc's verdict, which pairwise_simple_check must repeat; the
    sampler's filter must flag no chain they accept."""
    fast = verdict(build_arc, vertices)
    assert fast == verdict(pairwise_simple_check, vertices), vertices
    if fast[0] is None:
        assert not crosses(vertices), vertices
    return fast


def test_build_arc_equals_pairwise_on_random_draws():
    rejected = flagged = 0
    for pts in uniform_draws(20_000, 20_000):
        rejected += same_verdict(pts)[0] is not None
        flagged += crosses(pts)
    assert 0.7 < rejected / 20_000 < 0.9
    # every rejection here is a plain crossing: the filter spares
    # build_arc every draw it would reject
    assert flagged == rejected


def test_build_arc_equals_pairwise_on_pool_and_families(fuzz_pool):
    rng = random.Random(400)
    chains = [[(v.x, v.y) for v in arc.vertices] for arc, _ in fuzz_pool]
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


@settings(max_examples=400, deadline=None, derandomize=True)
@given(pts=grid_chains | tiny_near_collinear | stacked,
       k=st.integers(-60, 60),
       offset=st.tuples(st.integers(-2**10, 2**10),
                        st.integers(-2**10, 2**10)),
       grid=st.integers(-30, 0))
@example(pts=[(0, 0), (1, 0), (1.5, 1),
              (1.5292353540374406, 2.84194129160528e-12),
              (1.5292357661276, 1.4318546153326271e-12)],
         k=0, offset=(0, 0), grid=0)
def test_build_arc_equals_pairwise_on_adversarial_arcs(pts, k, offset, grid):
    # exact 2^k scaling, then a translation by a point of a 2^grid grid
    # in the scaled units
    same_verdict(pts)
    scaled = [(math.ldexp(x, k), math.ldexp(y, k)) for x, y in pts]
    same_verdict(scaled)
    ox, oy = (math.ldexp(c, k + grid) for c in offset)
    same_verdict([(x + ox, y + oy) for x, y in scaled])


@pytest.mark.parametrize("make", [convex_arc, walk_arc])
def test_sweep_calls_the_predicate_at_most_n_times(monkeypatch, make):
    # the pairwise loop makes (n - 2)(n - 3)/2 calls: 1,276,003 here
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
    assert not _certainly_crosses(xs, ys)
    # twice as far apart, orient sees the crossing and so does the filter
    ys = [-2 * t, 2 * t, 0.0, 0.0]
    assert _certainly_crosses(xs, ys)
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


def test_discarded_draws_count_against_the_cap():
    for trial in range(20):
        for cap in range(1, 13):
            try:
                want = unfiltered_simple_arc(POOL_CONFIG, trial, cap)
            except GenerationExhausted:
                want = None
            try:
                got = random_simple_arc(POOL_CONFIG, trial, cap)
            except GenerationExhausted:
                got = None
            assert got == want, (trial, cap)
