"""Seeded arc families at any size, for tests that need more hull
corners than the fuzz pool's rejection sampling reaches, seeded
uniform draws like the sampler's, one arc with a tiny hull edge and a
zigzag whose hull branches interleave."""

import math
import random

from arcsupport import Point2
from arcsupport.oracle import COORDINATE_BOX


def points(arc):
    # the arc's vertices as points, for the Point2 references
    return [Point2(x, y) for x, y in zip(arc.xs, arc.ys)]


def convex_arc(n, rng):
    # jittered grid over 1.5 pi of the unit circle: every vertex a corner
    step = 1.5 * math.pi / (n - 1)
    angles = ([0.0] + [(i + rng.uniform(-0.3, 0.3)) * step
                       for i in range(1, n - 1)] + [1.5 * math.pi])
    return [(math.cos(a), math.sin(a)) for a in angles]


def walk_arc(n, rng):
    # x-monotone Gaussian walk: a handful of hull corners
    pts, y = [], 0.0
    for i in range(n):
        pts.append((float(i), y))
        y += rng.gauss(0.0, 1.0)
    return pts


def zigzag_arc(n):
    # y-monotone zigzag inscribed in the unit circle, alternating between
    # its left and right halves: every vertex a corner, and the rising
    # and falling branches interleave, so the profile has about 2 n gap
    # intervals
    pts = []
    for i in range(n):
        y = -1.0 + 2.0 * (i + 0.5) / n
        x = math.sqrt(1.0 - y * y)
        pts.append((x if i % 2 else -x, y))
    return pts


def uniform_draws(seed, count):
    # chains drawn like random_simple_arc's candidates before its
    # rejection: 4 to 12 vertices, uniform in the sampler's square
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(4, 12)
        yield [(rng.uniform(0.0, COORDINATE_BOX),
                rng.uniform(0.0, COORDINATE_BOX)) for _ in range(n)]


# a zigzag, then a last hull edge 2.2e-9 long, below the profile's
# param_slack (6.1e-9): some scans land on two touch sets that are
# both single points within that slack, and _assign_roles falls back
FALLBACK_VERTICES = ([(0.0, 0.0)]
                     + [(0.1 * i, 0.5 if i % 2 else 0.0) for i in range(1, 11)]
                     + [(1.0, 1.0), (1 - 2e-9, 1 + 1e-9)])
