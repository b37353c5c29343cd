"""Tests for the benchmark's own helpers (run with the tier-1 suite)."""

import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import arcsupport  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)


def test_tail_percentile_rule():
    assert run.samples_beyond(100, 90.0) == 10
    assert run.samples_beyond(99, 90.0) == 9
    assert run.samples_beyond(1000, 99.9) == 1
    assert run.tail_percentile(100) == 90.0
    assert run.tail_percentile(99) == 75.0
    assert run.tail_percentile(1000) == 99.0
    assert run.tail_percentile(10_000) == 99.9
    assert run.tail_percentile(20) == 50.0
    assert run.tail_percentile(19) is None
    values = list(range(1, 101))
    assert run.nearest_rank(values, 90.0) == 90
    assert run.nearest_rank(values, 50.0) == 50
    assert run.nearest_rank([7.0], 90.0) == 7.0


def test_self_time_of_nested_spans():
    # root [0, 100]; children [10, 30] and [20, 50] overlap, [90, 120]
    # sticks out of the root; [12, 15] is a grandchild under [10, 30]
    start = [0, 10, 20, 90, 12]
    end = [100, 30, 50, 120, 15]
    parent = [-1, 0, 0, 0, 1]
    assert spans.self_times(start, end, parent) == [50, 17, 30, 30, 3]


def test_layer_metrics_from_recorded_spans():
    ticks = iter(range(0, 10**9, 1_000_000))      # 1 ms per clock read
    trace = spans.Trace(clock=lambda: next(ticks))
    for _ in range(2):
        with trace.span("op"):
            with trace.span("pairs.find_pair_mountain") as outer:
                with trace.span("pairs.enumerate_triples"):
                    with trace.span("profile.touch_params"):
                        pass
            trace.tags[outer] = 1
    trace.counts["geometry.orient"] += 6
    m = spans.layer_metrics(trace, ops=2)
    assert m["pairs.find_pair_mountain.calls"] == 1.0
    assert m["pairs.find_pair_mountain.total_ms"] == 5.0
    assert m["pairs.find_pair_mountain.self_ms"] == 2.0
    assert m["pairs.enumerate_triples.self_ms"] == 2.0
    assert m["profile.touch_params.self_ms"] == 1.0
    assert m["pairs.rescue.calls"] == 1.0
    assert m["pairs.rescue.strict_ratio"] == 1.0
    assert m["geometry.orient.calls"] == 3.0
    assert m["arc.build_arc.calls"] == 0.0


@pytest.mark.parametrize("family", [workloads.convex_arc, workloads.walk_arc])
def test_generators_are_deterministic_per_seed(family):
    a = family(40, random.Random("s:1"))
    assert a == family(40, random.Random("s:1"))
    assert a != family(40, random.Random("s:2"))


def test_generated_arcs_pass_build_arc_and_differ_in_hull_size():
    for seed in range(5):
        rng = random.Random(seed)
        convex = arcsupport.build_arc(workloads.convex_arc(60, rng))
        walk = arcsupport.build_arc(workloads.walk_arc(60, rng))
        assert len(arcsupport.melkman_hull(convex)) == 60
        assert len(arcsupport.melkman_hull(walk)) < 20


def test_workload_inputs_are_deterministic_per_seed():
    a, b = workloads.Large(ROOT, 3), workloads.Large(ROOT, 3)
    assert a.make_input(5) == b.make_input(5)
    assert a.make_input(5) != workloads.Large(ROOT, 4).make_input(5)
    assert (workloads.Fuzz(ROOT, 3).make_input(2)
            == workloads.Fuzz(ROOT, 3).make_input(2))


class Counter:
    """A stand-in workload: input k returns k; set-up counts itself."""

    inputs = 3
    traced = None

    def __init__(self):
        self.setups = 0

    def setup(self):
        self.setups += 1
        self.items = list(range(self.inputs))

    def run(self, k):
        return k

    def collect(self, out):
        pass

    def check(self, k, out):
        return [] if out == k else ["wrong"]

    def digest(self, k, out):
        return bytes([out])


def test_measure_keeps_each_inputs_best_and_a_ratio_per_operation():
    wl = Counter()
    setups = []
    run.setup_batch(wl, setups)
    assert len(setups) == wl.setups >= 1
    result = run.measure(wl, seconds=0.2, setups=setups)
    assert result["failed"] == 0
    assert len(result["best"]) == 3 and max(result["best"]) < 1.0
    ops = len(result["latencies"])
    assert len(result["refs"]) == ops + 1 and len(result["ratios"]) == ops
    assert all(r > 0.0 for r in result["ratios"])
    assert result["passes"] > 1 and len(setups) > 1
    assert result["digest_inputs"] == 3


class SmallLarge(workloads.Large):
    n = 12


def _bindings():
    """Every (module, attribute) of arcsupport bound to a wrapped function."""
    originals = {id(getattr(sys.modules[f"arcsupport.{m}"], f))
                 for m, f in spans.SPANNED + spans.COUNTED}
    return {(name, attr): value
            for name, mod in list(sys.modules.items())
            if name == "arcsupport" or name.startswith("arcsupport.")
            for attr, value in vars(mod).items() if id(value) in originals}


def test_traced_run_restores_every_wrapped_attribute():
    import arcsupport.cli  # noqa: F401
    before = _bindings()
    assert ("arcsupport.oracle", "build_arc") in before
    assert ("arcsupport.pairs", "touch_params") in before
    metrics, detail = run.traced(SmallLarge(ROOT, 1), seconds=0.05)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert detail["failed"] == 0
    assert metrics["arc.build_arc.calls"] == 2.0
    assert metrics["hull.corners_per_vertex.convex"] == 1.0


def test_wrappers_are_removed_when_the_body_raises():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with spans.installed(spans.Trace()):
            assert arcsupport.pairs.touch_params is not before[
                ("arcsupport.pairs", "touch_params")]
            raise RuntimeError
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def test_benchmark_json_lists_the_metrics_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    listed = [w["name"] for w in bench["workloads"]]
    assert listed == ["fuzz", "large", "sweep"]
    assert set(listed) < set(workloads.WORKLOADS)


def test_refuses_to_run_without_the_sources(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "fuzz", "--seed", "1", "--seconds", "1"]) == 2
