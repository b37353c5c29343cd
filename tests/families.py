"""Seeded arc families at any size, for tests that need more hull
corners than the fuzz pool's rejection sampling reaches, and seeded
uniform draws like the sampler's."""

import math
import random


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


def uniform_draws(seed, count):
    # chains drawn like random_simple_arc's candidates before its
    # rejection: 4 to 12 vertices, uniform in a 10 x 10 box
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(4, 12)
        yield [(rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0))
               for _ in range(n)]
