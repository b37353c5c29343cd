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
    chain's geometry.chain_orient test) and of full orient evaluations
    ("full"), under every name an arcsupport module holds for either."""
    counts = {"decided": 0, "full": 0}
    orient, chain_orient = geometry.orient, geometry.chain_orient

    def counted_orient(*args):
        counts["full"] += 1
        return orient(*args)

    def counted_chain_orient(*args):
        turn = chain_orient(*args)

        def counted_turn(*idx):
            counts["decided"] += 1
            return turn(*idx)

        return counted_turn

    for name, mod in list(sys.modules.items()):
        if name.startswith("arcsupport"):
            for attr, orig, new in (("orient", orient, counted_orient),
                                    ("chain_orient", chain_orient,
                                     counted_chain_orient)):
                if getattr(mod, attr, None) is orig:
                    monkeypatch.setattr(mod, attr, new)
    return counts
