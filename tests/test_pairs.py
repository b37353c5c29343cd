import copy
import dataclasses
import hashlib
import inspect
import math
import pickle
import random

import pytest

from arcsupport import (EPS_ANGLE, MOUNTAIN, TWO_PI, VALLEY, CorollaryResult,
                        Hull, InvalidDelta, PolygonalArc, SupportProfile,
                        TripleReport, TriplePair, build_arc,
                        build_profile, canon_angle, ccw_gap, circ_dist,
                        corollary_check, enumerate_triples, find_pair,
                        find_pair_mountain, find_pair_valley,
                        jump_to_jump_gaps, melkman_hull, pairs_identical,
                        safe_delta_range, touch_params, verify_triple)
from arcsupport import pairs
from arcsupport.pairs import _count_of_kind, _covering
from families import FALLBACK_VERTICES, convex_arc, walk_arc
from reference import (between_level_widths, interval_cuts,
                       linear_ledger_lookup, quadratic_ledger, scan_find_pair)

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


def test_unknown_mode_is_refused(e1_profile):
    # a misspelt mode once read as a valley
    with pytest.raises(ValueError, match="'mountian'"):
        find_pair(e1_profile, PI, "mountian")
    # refused before its staircase index is built
    assert "mountian" not in e1_profile._indexes
    with pytest.raises(ValueError, match="'both'"):
        safe_delta_range(e1_profile, "both")


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
                f"vertices={list(zip(arc.xs, arc.ys))!r}")


def test_at_most_two_candidates_on_any_chart_piece(fuzz_pool):
    # the paper's theorem at every gap at once: between two neighbouring
    # ends of the gap intervals the candidates stay the same, and each
    # such piece wider than 4 eps_angle holds at most two (jump, sign)
    # candidates, read at its midpoint; narrower pieces sit where the
    # widened ends of two candidates' gap intervals overlap
    draws = list(fuzz_pool)
    for make in (convex_arc, walk_arc):
        arc = build_arc(make(1600, random.Random(1600)))
        draws.append((arc, build_profile(melkman_hull(arc))))
    most = 0
    for arc, profile in draws:
        cuts = interval_cuts(profile)
        for a, b in zip(cuts, cuts[1:]):
            if b - a > 4 * EPS_ANGLE:
                cands = _covering(profile, 0.5 * (a + b))
                assert len(cands) <= 2, (
                    f"counterexample: gaps ({a!r}, {b!r}) hold {cands}, "
                    f"vertices={list(zip(arc.xs, arc.ys))!r}")
                most = max(most, len(cands))
    assert most == 2


def family_draws(fuzz_pool):
    """The fuzz pool, then convex arcs and walks at sizes around one run
    of 16 vertices and at scale, as (arc, profile) pairs."""
    draws = list(fuzz_pool)
    for n in (16, 17, 33, 400, 1600):
        for make in (convex_arc, walk_arc):
            arc = build_arc(make(n, random.Random(n)))
            draws.append((arc, build_profile(melkman_hull(arc))))
    return draws


def spans_apex(profile, cand):
    """The kind of a (jump, sign) candidate, as _configurations reads
    it: does its gap side span the apex step?"""
    i, sign = cand
    return (0 < i <= profile.apex_index) == (sign > 0)


def test_each_safe_chart_piece_holds_one_candidate_of_its_kind(fuzz_pool):
    # the paper's statement per arc: on a mode's safe range the arc has
    # exactly one pair of that kind, a mountain pair across the apex
    # step and a valley pair across the minimum step: each piece between
    # neighbouring ends of the gap intervals, read at its midpoint
    pieces = {MOUNTAIN: 0, VALLEY: 0}
    for arc, profile in family_draws(fuzz_pool):
        cuts = interval_cuts(profile)
        for a, b in zip(cuts, cuts[1:]):
            if b - a <= 4 * EPS_ANGLE:
                continue
            cands = _covering(profile, 0.5 * (a + b))
            for mode in (MOUNTAIN, VALLEY):
                lo, hi = safe_delta_range(profile, mode)
                if max(a, lo) >= min(b, hi):
                    continue
                kind = [c for c in cands
                        if spans_apex(profile, c) == (mode == MOUNTAIN)]
                assert len(kind) == 1, (
                    f"{mode}: gaps ({a!r}, {b!r}) hold {cands}, "
                    f"vertices={list(zip(arc.xs, arc.ys))!r}")
                pieces[mode] += 1
    assert min(pieces.values()) > 2800


def gap_side_covers(start, gap, step_start, step_width):
    """Does the ccw arc of length gap starting at start contain the
    whole step [step_start, step_start + step_width]?"""
    off = ccw_gap(start, step_start)
    if off > TWO_PI - EPS_ANGLE:
        off = 0.0
    return off + step_width <= gap + EPS_ANGLE


def geometric_kinds(profile, gap):
    """(covers_apex, covers_min) of each configuration at gap, keyed as
    _configurations merges them, read off the steps its gap side spans:
    every jump wider than the slack, on both sides."""
    k = profile.apex_index
    apex = profile.starts[k], profile.widths[k]
    mins = profile.starts[0], profile.widths[0]
    kinds = {}
    for i, (lo, hi) in enumerate(profile.jumps):
        if hi - lo <= profile.param_slack:
            continue
        a = profile.starts[i]
        for sign in (1.0, -1.0):
            psi = canon_angle(a + sign * gap)
            start = a if sign > 0 else psi
            covers = (gap_side_covers(start, gap, *apex),
                      gap_side_covers(start, gap, *mins))
            for a, psi, _, s2, *_ in pairs._configurations(profile, gap,
                                                           [(i, sign)]):
                key = (round(a, 9), round(psi, 9), s2)
                prev = kinds.get(key, (False, False))
                kinds[key] = (prev[0] or covers[0], prev[1] or covers[1])
    return kinds


def test_candidate_kinds_match_the_gap_side_geometry(fuzz_pool):
    # the kind rule against the test it replaced: which extreme step
    # lies inside the ccw arc of the pair's gap side
    rng = random.Random(13)
    configs = both = 0
    for arc, profile in family_draws(fuzz_pool):
        gaps = [rng.uniform(1e-6, TWO_PI - 1e-6) for _ in range(20)]
        for gap in gaps + [PI]:
            kinds = geometric_kinds(profile, gap)
            found = enumerate_triples(profile, arc, gap)
            assert len(found) == len(kinds), gap
            for c in found:
                key = (round(c.theta_double, 9), round(c.theta_single, 9),
                       c.s2)
                assert (c.covers_apex, c.covers_min) == kinds[key], (
                    f"gap={gap!r}, {c}, "
                    f"vertices={list(zip(arc.xs, arc.ys))!r}")
                configs += 1
                both += c.covers_apex and c.covers_min
    # at pi each pool arc's mountain and valley pair coincide
    assert configs > 20_000 and both >= 1000


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
    # the scan's rows tile the widths: find_pair reads a row's near ties
    # off its own two widths, as each is bitwise a neighbour's
    for _, profile in fuzz_pool[:200]:
        for mode in (MOUNTAIN, VALLEY):
            rows = quadratic_ledger(profile, mode)
            # one row per hull corner, ascending by build level
            sign = 1.0 if mode == MOUNTAIN else -1.0
            assert [r[0] for r in rows] == sorted(
                sign * v for v in profile.levels)
            gaps = [(r_lo - l_hi, r_hi - l_lo)
                    for _, l_lo, l_hi, r_lo, r_hi in rows]
            for (a_lo, a_hi), (b_lo, b_hi) in zip(gaps, gaps[1:]):
                # ascending level: widths shrink, adjacent rows share an
                # end exactly
                assert b_hi <= a_hi and b_lo <= a_lo
                assert a_lo == b_hi


def generated(cls):
    """A frozen dataclass with cls's fields, each in or out of __init__,
    repr and comparison and with the default (or default factory) that
    cls declares, and the __init__ that dataclass writes."""
    return dataclasses.make_dataclass(cls.__name__, [
        (f.name, f.type, dataclasses.field(
            default=f.default, default_factory=f.default_factory,
            init=f.init, repr=f.repr, compare=f.compare))
        for f in dataclasses.fields(cls)], frozen=True)


PAIR = TriplePair("mountain", 0.5, 2.0, 0.25, 1.0, 3.0, True,
                  requested_delta=1.5, realized_gap=1.5, covers_apex=True)


@pytest.mark.parametrize("cls, args, text", [
    (TriplePair, ("valley", 1.0, 2.5, 0.0, 0.5, 1.0, False, 1.5, 4.5),
     "TriplePair(mode='valley', theta_double=1.0, theta_single=2.5, "
     "s1=0.0, s2=0.5, s3=1.0, strict=False, requested_delta=1.5, "
     "realized_gap=4.5, guaranteed=True, near_tie=False, "
     "covers_apex=False, covers_min=False)"),
    (TripleReport, (True, False, True, True),
     "TripleReport(double_touches=True, single_touches=False, "
     "left_side=True, ordering=True)"),
    (CorollaryResult, (False, PAIR, PAIR),
     f"CorollaryResult(identical=False, mountain={PAIR!r}, valley={PAIR!r})"),
    (PolygonalArc, ((0.0, 1.0), (0.0, 0.0), (0.0, 1.0), 1.0, 1.0,
                    ((0.0, 1.0, 0.0, 0.0, (0.0, 1.0), (0.0, 0.0)),), 1e-12),
     "PolygonalArc(xs=(0.0, 1.0), ys=(0.0, 0.0), params=(0.0, 1.0), "
     "length=1.0, diagonal=1.0)"),
    (Hull, ((0, 1, 2), (0.0, 1.0, 2.0), (0.5, 2.5, 4.5), (2.0, 2.0, 2.25)),
     "Hull(corners=(0, 1, 2), levels=(0.0, 1.0, 2.0), "
     "starts=(0.5, 2.5, 4.5), widths=(2.0, 2.0, 2.25))"),
    (SupportProfile, ((0, 1, 2), (0.0, 2.0, 1.0), (0.5, 2.5, 4.5),
                      (2.0, 2.0, 2.25), ((0.0, 1.0), (0.0, 2.0), (1.0, 2.0)),
                      1),
     "SupportProfile(corners=(0, 1, 2), levels=(0.0, 2.0, 1.0), "
     "starts=(0.5, 2.5, 4.5), widths=(2.0, 2.0, 2.25), "
     "jumps=((0.0, 1.0), (0.0, 2.0), (1.0, 2.0)), apex_index=1)"),
], ids=["TriplePair", "TripleReport", "CorollaryResult", "PolygonalArc",
        "Hull", "SupportProfile"])
def test_records_keep_the_frozen_dataclass_api(cls, args, text):
    # the records fill their dict in one call, yet read, compare, hash,
    # copy and refuse assignment as the generated frozen dataclass does
    plain = generated(cls)
    assert (inspect.signature(cls).parameters
            == inspect.signature(plain).parameters)
    assert [(f.name, f.type, f.default) for f in dataclasses.fields(cls)] == [
        (f.name, f.type, f.default) for f in dataclasses.fields(plain)]
    record, reference = cls(*args), plain(*args)
    assert repr(record) == repr(reference) == text
    assert hash(record) == hash(reference)
    assert dataclasses.astuple(record) == dataclasses.astuple(reference)
    names = [f.name for f in dataclasses.fields(cls)]
    assert cls(**dict(zip(names, args))) == record
    for copied in (copy.copy(record), pickle.loads(pickle.dumps(record))):
        assert copied == record and hash(copied) == hash(record)
    name = names[0]
    moved = dataclasses.replace(record, **{name: not args[0]})
    assert moved != record and getattr(moved, name) is (not args[0])
    assert dataclasses.replace(moved, **{name: args[0]}) == record
    for f in dataclasses.fields(cls):
        if not f.init:  # each record gets a fresh value of its own
            assert getattr(moved, f.name) == f.default_factory()
            assert getattr(moved, f.name) is not getattr(record, f.name)
            assert getattr(cls(*args), f.name) is not getattr(record, f.name)
        elif not f.compare:  # out of ==, yet replace carries it over
            assert getattr(moved, f.name) is getattr(record, f.name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, name, args[0])
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(record, name)


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


def test_find_pair_queries_touch_sets_only_near_ties(monkeypatch,
                                                     fuzz_pool):
    # clear of ties the row settles the pair without a touch query;
    # otherwise _assign_roles reads each of the two touch sets once
    calls = 0
    query = pairs.touch_params

    def counted(*args):
        nonlocal calls
        calls += 1
        return query(*args)

    monkeypatch.setattr(pairs, "touch_params", counted)
    fallback = build_arc(FALLBACK_VERTICES)
    cases = fuzz_pool[:100] + [(fallback, build_profile(melkman_hull(fallback)))]
    queried = 0
    for arc, profile in cases:
        for find in (find_pair_mountain, find_pair_valley):
            for delta in (1e-3, 0.1, PI, 6.2):
                calls = 0
                pair = find(profile, arc, delta)
                assert calls in (0, 2), (find.__name__, delta)
                assert calls == 0 or pair.near_tie or not pair.strict, (
                    find.__name__, delta)
                queried += calls > 0
    # the pool's pairs at these deltas are all clear of ties: only the
    # fallback arc's (8 calls) read touch sets
    assert 0 < queried <= 8, queried


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
    assert len(profile.levels) == 128
    configs = 0
    for k in range(100):
        gap = TWO_PI * (k + 0.5) / 100
        configs += len(enumerate_triples(profile, arc, gap))
    assert configs > 0 and calls <= 4 * 100


def test_gap_intervals_are_built_once_per_profile(monkeypatch, e2):
    # both kinds' counts and enumeration read one set of gap intervals,
    # kept out of the profile's identity
    builds = 0
    build = pairs._gap_intervals

    def counted(profile):
        nonlocal builds
        builds += 1
        return build(profile)

    monkeypatch.setattr(pairs, "_gap_intervals", counted)
    cold = build_profile(melkman_hull(e2))
    profile = build_profile(melkman_hull(e2))
    for gap in (0.5, PI, 5.0):
        _count_of_kind(profile, gap, MOUNTAIN)
        _count_of_kind(profile, gap, VALLEY)
        enumerate_triples(profile, e2, gap)
    assert builds == 1
    assert profile == cold and hash(profile) == hash(cold)
    assert repr(profile) == repr(cold)


def test_scan_clamps_a_delta_beyond_the_ledger_to_row_0(e2_profile):
    # widths summing at least 2 ulps below 2 pi put the largest delta
    # below 2 pi beyond every row: the scan reads row 0, the widest, as
    # it does at row 0's own widest width.  Real arcs' widths sum to
    # within 1 ulp of 2 pi, so only a hand-made profile gets here
    widths = e2_profile.widths
    profile = dataclasses.replace(
        e2_profile,
        widths=widths[:-1] + (widths[-1] - 8 * math.ulp(TWO_PI),))
    delta = math.nextafter(TWO_PI, 0.0)
    for mode in (MOUNTAIN, VALLEY):
        rows = quadratic_ledger(profile, mode)
        widest = rows[0][4] - rows[0][1]
        assert widest <= math.nextafter(delta, 0.0)
        assert linear_ledger_lookup(rows, delta)[0] is None
        pair = find_pair(profile, delta, mode)
        assert repr(pair) == repr(scan_find_pair(profile, delta, mode, rows))
        assert not pair.guaranteed
        at_row = find_pair(profile, widest, mode)
        assert linear_ledger_lookup(rows, widest)[0] is rows[0]
        assert dataclasses.replace(pair, requested_delta=widest) == at_row


# computed by the level scan over its windows: find_pair keeps every
# result of the scan to the last bit
FIND_PAIR_DIGEST = (
    "cd02c8102104dccaad5e43b0f3eae66cda397ba910feb8c383b3ae12b62ab729")
ENUMERATION_DIGEST = (
    "62fc840ef762c8d892dd477733fac5ba7ba59f26cb665e033b6d37b4722767ca")


def pinned_draws(fuzz_pool):
    """The seed-42 pool, then the convex and walk families at n = 80 and
    400, as profiles."""
    profiles = [profile for _, profile in fuzz_pool]
    for n in (80, 400):
        for make in (convex_arc, walk_arc):
            profiles.append(build_profile(melkman_hull(build_arc(
                make(n, random.Random(n))))))
    return profiles


def pinned_deltas(profile, mode):
    """A grid over the turn, each end of the mode's safe range and the
    floats either side of it, each width at which the scan passes from
    one corner's row to the next, exactly and +- eps_angle, and deltas
    outside the safe range on both sides; only those inside (0, 2 pi)."""
    lo, hi = safe_delta_range(profile, mode)
    deltas = [TWO_PI * (k + 0.5) / 24 for k in range(24)]
    for end in (lo, hi):
        deltas += [end, math.nextafter(end, 0.0), math.nextafter(end, 7.0)]
    for w in between_level_widths(profile, mode):
        deltas += [w, w + EPS_ANGLE, w - EPS_ANGLE]
    deltas += [0.5 * lo, 0.5 * (hi + TWO_PI), 1e-3, TWO_PI - 1e-3]
    return [d for d in deltas if 0.0 < d < TWO_PI]


def test_find_pair_and_enumeration_are_pinned(fuzz_pool):
    # sha256 over the repr of every find_pair and enumerate_triples
    # result on the pinned draws: a change that keeps behaviour keeps
    # both digests, to the last bit of every angle
    found, enumerated = hashlib.sha256(), hashlib.sha256()
    calls = 0
    for profile in pinned_draws(fuzz_pool):
        for mode in (MOUNTAIN, VALLEY):
            for delta in pinned_deltas(profile, mode):
                found.update(repr(find_pair(profile, delta, mode)).encode())
                enumerated.update(
                    repr(enumerate_triples(profile, None, delta)).encode())
                calls += 1
    assert calls > 85_000
    assert found.hexdigest() == FIND_PAIR_DIGEST
    assert enumerated.hexdigest() == ENUMERATION_DIGEST
