"""Support-line structure of simple polygonal arcs.

Builds the angular step profile of where support lines touch an arc,
scans it for pairs of support lines with a prescribed angle difference
carrying triple touch points, and ships brute-force oracles to check
every claim at desk scale.
"""

from .arc import (ArcError, DuplicateVertex, ParamOutOfRange, PolygonalArc,
                  SelfIntersecting, TooFewVertices, build_arc, point_at)
from .geometry import (EPS_ANGLE, EPS_ORIENT, EPS_TOUCH, TWO_PI, Point2,
                       canon_angle, ccw_gap, circ_dist, orient)
from .hull import Hull, StraightArc, melkman_hull
from .oracle import (FuzzConfig, GenerationExhausted, grid_scan_pairs,
                     monotone_chain_hull, oracle_touch_params,
                     random_simple_arc)
from .pairs import (MOUNTAIN, VALLEY, CorollaryResult, InvalidDelta,
                    TriplePair, TripleReport, corollary_check,
                    enumerate_triples, find_pair, find_pair_mountain,
                    find_pair_valley, jump_to_jump_gaps, pairs_identical,
                    safe_delta_range, verify_triple)
from .profile import (NotRiseThenFall, SupportProfile, build_profile,
                      touch_params)
from .render import render_pair_svg

__version__ = "0.1.0"

__all__ = [
    "ArcError", "CorollaryResult", "DuplicateVertex", "EPS_ANGLE",
    "EPS_ORIENT", "EPS_TOUCH", "FuzzConfig", "GenerationExhausted", "Hull",
    "InvalidDelta", "MOUNTAIN", "NotRiseThenFall", "ParamOutOfRange",
    "Point2", "PolygonalArc", "SelfIntersecting", "StraightArc",
    "SupportProfile", "TWO_PI", "TooFewVertices", "TriplePair",
    "TripleReport", "VALLEY", "build_arc", "build_profile", "canon_angle",
    "ccw_gap", "circ_dist", "corollary_check", "enumerate_triples",
    "find_pair", "find_pair_mountain",
    "find_pair_valley", "grid_scan_pairs", "jump_to_jump_gaps",
    "melkman_hull", "monotone_chain_hull", "oracle_touch_params", "orient",
    "pairs_identical", "point_at", "random_simple_arc", "render_pair_svg",
    "safe_delta_range", "touch_params", "verify_triple",
]
