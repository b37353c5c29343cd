import sys

import pytest

from arcsupport import geometry
from arcsupport import FuzzConfig, build_arc, build_profile, melkman_hull, random_simple_arc

# shared deterministic fuzz pool; generated once per session
POOL_CONFIG = FuzzConfig(trials=1000, seed=42, vertex_range=(4, 12))


@pytest.fixture
def e1():
    return build_arc([(0, 0), (1, 0), (1, 1)])


@pytest.fixture
def e2():
    return build_arc([(0, 0), (3, 0), (3, 1), (2, 1)])


@pytest.fixture
def e1_profile(e1):
    return build_profile(melkman_hull(e1))


@pytest.fixture
def e2_profile(e2):
    return build_profile(melkman_hull(e2))


@pytest.fixture(scope="session")
def fuzz_pool():
    arcs = [random_simple_arc(POOL_CONFIG, i) for i in range(POOL_CONFIG.trials)]
    profiles = [build_profile(melkman_hull(arc)) for arc in arcs]
    return list(zip(arcs, profiles))


@pytest.fixture
def orient_counts(monkeypatch):
    """Counts of orientation decisions ("decided": calls of each
    chain's orientation test, the turn that geometry._chain_turn builds
    for build_arc and for melkman_hull), of those held against
    their own triple's threshold ("full": calls of
    geometry.triple_bound, which orient makes on every call and a chain
    test makes only within the chain's bound) and of chain bounds
    computed ("bounds": calls of geometry.chain_bound), under every name
    an arcsupport module holds for any of them.  Melkman's deque loops
    in melkman_hull decide every cross product themselves, asking only
    triple_bound within the chain's bound, so "decided" counts there
    only its collinear prefix and its seam repair, and "full" counts
    the loops' products within the bound too.  No pipeline layer
    computes a chain bound: build_arc takes it from the spans it finds
    for the diagonal, and the hull reads it off the arc
    (PolygonalArc.bound)."""
    counts = {"decided": 0, "full": 0, "bounds": 0}
    triple_bound = geometry.triple_bound
    chain_bound = geometry.chain_bound
    chain_turn = geometry._chain_turn

    def counted_triple_bound(*args):
        counts["full"] += 1
        return triple_bound(*args)

    def counted_chain_bound(*args):
        counts["bounds"] += 1
        return chain_bound(*args)

    def counted_chain_turn(*args):
        turn = chain_turn(*args)

        def counted_turn(*idx):
            counts["decided"] += 1
            return turn(*idx)

        return counted_turn

    for name, mod in list(sys.modules.items()):
        if name.startswith("arcsupport"):
            for attr, orig, new in (("triple_bound", triple_bound,
                                     counted_triple_bound),
                                    ("chain_bound", chain_bound,
                                     counted_chain_bound),
                                    ("_chain_turn", chain_turn,
                                     counted_chain_turn)):
                if getattr(mod, attr, None) is orig:
                    monkeypatch.setattr(mod, attr, new)
    return counts
