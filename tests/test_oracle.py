import math
import random
import tracemalloc

import pytest

from arcsupport import (MOUNTAIN, VALLEY, FuzzConfig, GenerationExhausted,
                        StraightArc,
                        build_arc, build_profile, circ_dist, enumerate_triples,
                        find_pair_mountain, grid_scan_pairs,
                        jump_to_jump_gaps, melkman_hull, monotone_chain_hull,
                        oracle_touch_params, random_simple_arc)
from arcsupport import oracle
from arcsupport.cli import main
from arcsupport.oracle import COORDINATE_BOX
from families import points

PI = math.pi
RES = 2 * PI / 100_000


def test_touch_fixtures(e1, e2):
    assert oracle_touch_params(e1, 0.0) == (0.0, 1.0)
    assert oracle_touch_params(e1, PI) == (2.0,)
    assert oracle_touch_params(e2, PI / 2) == (3.0, 4.0)


def test_grid_scan_e1_pi(e1):
    pairs = grid_scan_pairs(e1, PI)
    assert len(pairs) == 1
    assert min(circ_dist(t, PI / 4) for t in pairs[0]) <= RES


def test_grid_scan_e1_empty(e1):
    assert grid_scan_pairs(e1, PI / 2) == []


def test_grid_scan_e2_pi(e2):
    pairs = grid_scan_pairs(e2, PI)
    assert len(pairs) == 1
    assert min(circ_dist(t, math.atan(0.5)) for t in pairs[0]) <= RES


def test_grid_scan_localizes_scan_output(e2, e2_profile):
    pair = find_pair_mountain(e2_profile, e2, 2.0)
    clusters = grid_scan_pairs(e2, 2.0)
    assert len(clusters) == 1
    a, b = clusters[0]
    assert (circ_dist(a, pair.theta_single) <= RES
            or circ_dist(a, pair.theta_double) <= RES)
    assert (circ_dist(b, pair.theta_single) <= RES
            or circ_dist(b, pair.theta_double) <= RES)


def test_grid_scan_joins_a_cluster_across_angle_zero(e2, e2_profile):
    # E2 turned so that its gap-2.0 pair's single line sits at angle 0:
    # the hits at the grid's last and first angles are one cluster
    pair, = enumerate_triples(e2_profile, e2, 2.0)
    c, s = math.cos(-pair.theta_single), math.sin(-pair.theta_single)
    arc = build_arc([(c * x - s * y, s * x + c * y)
                     for x, y in zip(e2.xs, e2.ys)])
    want, = enumerate_triples(build_profile(melkman_hull(arc)), arc, 2.0)
    assert circ_dist(want.theta_single, 0.0) <= 1e-12
    (a, b), = grid_scan_pairs(arc, 2.0)
    assert circ_dist(a, want.theta_single) <= RES
    assert circ_dist(b, want.theta_double) <= RES


def test_grid_scan_finds_both_kinds(e1, e1_profile):
    # gap 3.0 admits one apex-spanning and one minimum-spanning pair
    clusters = grid_scan_pairs(e1, 3.0)
    assert len(clusters) == 2
    assert len(enumerate_triples(e1_profile, e1, 3.0)) == 2


def test_grid_cluster_count_matches_enumerator(fuzz_pool):
    rng = random.Random(202)
    for arc, profile in fuzz_pool[:12]:
        delta = rng.uniform(0.3, 2 * PI - 0.3)
        if any(abs(delta - g) <= 1e-4 for g in jump_to_jump_gaps(profile)):
            continue
        clusters = grid_scan_pairs(arc, delta)
        assert len(clusters) == len(enumerate_triples(profile, arc, delta))


def test_grid_scan_memory_does_not_grow_with_n(fuzz_pool):
    import numpy  # noqa: F401  (keep the import out of the first trace)

    def peak(arc):
        tracemalloc.start()
        try:
            grid_scan_pairs(arc, 2.0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small = next(arc for arc, _ in fuzz_pool if len(arc) == 12)
    big = build_arc([(math.cos(a), math.sin(a))
                     for a in (1.5 * PI * i / 79 for i in range(80))])
    assert peak(big) <= 1.5 * peak(small)


def test_generator_deterministic():
    cfg = FuzzConfig(trials=3, seed=42)
    a = random_simple_arc(cfg, 0)
    b = random_simple_arc(cfg, 0)
    assert (a.xs, a.ys) == (b.xs, b.ys)
    c = random_simple_arc(cfg, 1)
    assert (a.xs, a.ys) != (c.xs, c.ys)


def test_generator_respects_bounds():
    cfg = FuzzConfig(trials=1, seed=11, vertex_range=(5, 7))
    for trial in range(20):
        arc = random_simple_arc(cfg, trial)
        assert 5 <= len(arc) <= 7
        assert all(0.0 <= c <= COORDINATE_BOX for c in arc.xs + arc.ys)


def test_generator_exhaustion(monkeypatch):
    cfg = FuzzConfig(trials=1, seed=1)
    monkeypatch.setattr(oracle, "MAX_DRAWS", 0)
    with pytest.raises(GenerationExhausted):
        random_simple_arc(cfg, 0)


def test_generator_rejects_what_the_pipeline_finds_straight(monkeypatch,
                                                            capsys):
    # a 2e-10 turn: the monotone chain keeps the apex as a corner, but
    # melkman_hull, which run_fuzz calls next, rejects the arc
    flat = build_arc([(0, 0), (1, 1e-10), (2, 0)])
    assert len(monotone_chain_hull(points(flat))) == 3
    with pytest.raises(StraightArc):
        melkman_hull(flat)
    monkeypatch.setattr(oracle, "_certainly_crosses",
                        lambda xs, ys, thr: False)
    monkeypatch.setattr(oracle, "_checked_columns",
                        lambda xs, ys, first_crossing: flat)
    monkeypatch.setattr(oracle, "MAX_DRAWS", 1)
    with pytest.raises(GenerationExhausted):
        random_simple_arc(FuzzConfig(trials=1, seed=1), 0)
    assert main(["fuzz", "--trials", "1"]) == 5
    assert capsys.readouterr().err.startswith("GenerationExhausted: ")


def test_generator_exhausts_at_thirty_to_sixty_vertices():
    # no uniform draw of 30 to 60 vertices is simple in 10,000 tries
    cfg = FuzzConfig(trials=1, seed=42, vertex_range=(30, 60))
    with pytest.raises(GenerationExhausted, match="after 10000 draws"):
        random_simple_arc(cfg, 0)


def test_config_validation():
    with pytest.raises(ValueError):
        FuzzConfig(trials=0)
    with pytest.raises(ValueError):
        FuzzConfig(vertex_range=(2, 5))
    with pytest.raises(ValueError):
        FuzzConfig(delta_policy="fixed")


def test_safe_range_narrower_than_the_margins_draws_its_middle():
    config = FuzzConfig(delta_policy="safe_range")
    lo, margin = 1.0, oracle.SAFE_MARGIN
    for mode in (MOUNTAIN, VALLEY):
        for trial in range(3):
            for width in (0.0, margin, 1.5 * margin):
                hi = lo + width
                assert oracle.draw_delta(config, trial, mode, (lo, hi)) == (
                    0.5 * (lo + hi))
            # a range wider than both margins is drawn from
            delta = oracle.draw_delta(config, trial, mode, (lo, lo + 1.0))
            assert lo + margin <= delta <= lo + 1.0 - margin
            assert delta != lo + 0.5
