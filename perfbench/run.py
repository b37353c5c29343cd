"""Benchmark of the arcsupport library and CLI.

    python3 perfbench/run.py --workload {fuzz,large,sweep,cli,all} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout, the directory that holds
src/arcsupport; it imports the package from there.  Each workload is a
closed loop with one client: the next operation starts when the
previous one and its correctness check are done.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the bounded
end-to-end ones (END_TO_END); the summary above it prints all of
REPORTED.  With --trace 1 the run alternates untraced and traced
quarters (untraced, traced, traced, untraced), the traced ones under the
span recorder of spans.py, and the metrics are the per-layer ones
(PER_LAYER).  --workload all runs each workload in a child process of
its own, so each reports its own peak RSS.  Full results, and the spans
of a traced run, go to .perfbench-out/.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

# Set-up is timed in batches of at least SETUP_BATCH_S, one before the
# loop and one at the start of every later pass, so that its median is
# taken over many repetitions spread across the whole run.
SETUP_BATCH_S = 0.05
ALL = ("fuzz", "large", "sweep", "cli")
OUT_DIR = ".perfbench-out"

REPORTED = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "op_mean_ref": "ratio",
    "peak_rss_mb": "MB",
}
# The subset BENCHMARK.json bounds and the JSON line carries.  The
# wall-clock latencies are printed and recorded but not bounded: under
# sustained load from other tenants of the host, ten runs spread by up
# to 0.58 and medians of ten runs moved by up to 37 % between sets, more
# than the largest bound allowed (README.md, "Seed-commit numbers").
END_TO_END = {k: REPORTED[k] for k in ("setup_s", "op_mean_ref", "peak_rss_mb")}


def _per_layer() -> dict[str, str]:
    import spans
    units = {}
    for module, func in spans.SPANNED:
        units[f"{module}.{func}.calls"] = "count/op"
        units[f"{module}.{func}.total_ms"] = "ms/op"
        units[f"{module}.{func}.self_ms"] = "ms/op"
    for module, func in spans.COUNTED:
        units[f"{module}.{func}.calls"] = "count/op"
    units.update({
        "oracle.random_simple_arc.accept_ratio": "ratio",
        "pairs.rescue.calls": "count/op",
        "pairs.rescue.strict_ratio": "ratio",
        "hull.corners_per_vertex": "ratio",
        "hull.corners_per_vertex.convex": "ratio",
        "hull.corners_per_vertex.walk": "ratio",
        "cli.interpreter_ms": "ms",
        "cli.import_ms": "ms",
        "cli.compute_share": "ratio",
        "cli.run_fuzz.anomalies_above_safe": "count/op",
        "trace.ops": "count",
        "trace.ops_per_s_ratio": "ratio",
    })
    return units


PER_LAYER = _per_layer()

# percentiles tried for the tail, highest first
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def samples_beyond(n: int, q: float) -> int:
    """Samples above the nearest-rank q-th percentile of n samples."""
    return n * (1000 - round(q * 10)) // 1000


def nearest_rank(sorted_values, q: float) -> float:
    n = len(sorted_values)
    rank = -(-n * round(q * 10) // 1000)   # ceil(n * q / 100)
    return sorted_values[max(rank, 1) - 1]


def tail_percentile(n: int, min_beyond: int = 10) -> float | None:
    """Highest percentile of TAIL_LADDER with at least min_beyond of n
    samples beyond it, or None when even the median has fewer."""
    for q in TAIL_LADDER:
        if samples_beyond(n, q) >= min_beyond:
            return q
    return None


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float):
        self.x, self.y = x, y


_REF_XY = [(3.0 * math.cos(0.7 * i), 2.0 * math.sin(1.3 * i))
           for i in range(200)]


def _orient(a: _Point, b: _Point, c: _Point) -> float:
    return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)


def reference_kernel() -> float:
    """Seconds a fixed pure-Python kernel takes: 50 rounds of building 200
    points and calling an orientation test on each three consecutive
    ones.  It is the same kind of work as the library's: small objects,
    calls, attribute access and float arithmetic.  Under load from other
    tenants it slowed by nearly the same factor as the workloads' set-ups
    and operations, closer than a kernel of arithmetic on fixed points
    did.  It does not touch arcsupport, so no change to the program
    moves it; only the host's speed at the moment does."""
    t0 = time.perf_counter()
    left = 0
    for _ in range(50):
        pts = [_Point(x, y) for x, y in _REF_XY]
        for a, b, c in zip(pts, pts[1:], pts[2:]):
            if _orient(a, b, c) > 0.0:
                left += 1
    return time.perf_counter() - t0


def measure(wl, seconds: float, trace=None, first=None,
            setups=None) -> dict:
    """Closed loop over the workload's inputs (wl.items), pass after
    pass, for `seconds` of wall time (at least one operation).

    The first successful output of each input is checked in full and
    kept as its digest in `first` (shared by the calls of one traced
    run); every later run of the input must reproduce that digest.
    best[k] is input k's lowest latency over its runs, inf if it never
    succeeded: slowdowns from other load on the host only ever add time,
    so the minimum over repetitions spread across the run is the
    steadiest estimate of the input's cost.  The reference kernel runs
    after every operation (refs); ratios[j] is the j-th successful
    operation's latency over the mean of the kernel times just before
    and just after it.  Load from other tenants slows the operation and
    the kernels around it alike, so the ratio keeps the operation's cost
    relative to the host's speed at that moment; no minimum is taken
    over it, so it is not biased towards moments where load slowed the
    kernel but not the operation, nor does it drift with the number of
    passes.  With a `setups` list, a batch of timed
    set-ups runs at the start of every pass after the first.
    """
    inputs = wl.items
    best = [math.inf] * len(inputs)
    if first is None:
        first = [None] * len(inputs)
    latencies: list[float] = []
    failures: list[str] = []
    failed = 0
    refs = [reference_kernel()]
    ratios: list[float] = []
    pause = trace.paused if trace is not None else contextlib.nullcontext
    end = time.perf_counter() + seconds
    i = 0
    while True:
        k = i % len(inputs)
        if k == 0 and i > 0 and setups is not None:
            setup_batch(wl, setups)
            inputs = wl.items
        t0 = time.perf_counter()
        try:
            if trace is not None:
                with trace.span("op"):
                    out = wl.run(inputs[k])
            else:
                out = wl.run(inputs[k])
            error = None
        except Exception as exc:  # a failed operation, counted below
            out, error = None, exc
        latency = time.perf_counter() - t0
        latencies.append(latency)
        with pause():
            refs.append(reference_kernel())
            try:
                if error is not None:
                    bad = [f"input {k}: raised {error!r}"]
                else:
                    wl.collect(out)
                    if first[k] is None:
                        bad = wl.check(inputs[k], out)
                        if not bad:
                            first[k] = wl.digest(inputs[k], out)
                    elif wl.digest(inputs[k], out) != first[k]:
                        bad = [f"input {k}: output differs from its first run"]
                    else:
                        bad = []
            except Exception as exc:
                bad = [f"input {k}: check raised {exc!r}"]
        if bad:
            failed += 1
            failures.extend(bad[:3])
        else:
            best[k] = min(best[k], latency)
            ratios.append(latency / (0.5 * (refs[-2] + refs[-1])))
        i += 1
        if time.perf_counter() >= end:
            break
    return {"latencies": latencies, "best": best, "refs": refs,
            "ratios": ratios,
            "passes": len(latencies) / len(inputs), "failed": failed,
            "failures": failures, **_digest(first)}


def _digest(first) -> dict:
    digest = hashlib.sha256()
    for d in first:
        if d is not None:
            digest.update(d)
    return {"digest": digest.hexdigest(),
            "digest_inputs": sum(d is not None for d in first)}


def _peak_rss_mb(wl) -> float:
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def _ops_per_s(best) -> float:
    return len(best) / sum(best)


def setup_batch(wl, setups: list[tuple[float, float]]) -> None:
    """Set the workload up until the batch has taken SETUP_BATCH_S (at
    least once).  Appends (seconds, kernel) per set-up to `setups`, where
    kernel is the mean reference-kernel time just before and just after
    the batch."""
    before = reference_kernel()
    times = []
    end = time.perf_counter() + SETUP_BATCH_S
    while True:
        t0 = time.perf_counter()
        wl.setup()
        t1 = time.perf_counter()
        times.append(t1 - t0)
        if t1 >= end:
            break
    kernel = 0.5 * (before + reference_kernel())
    setups.extend((t, kernel) for t in times)


def end_to_end(wl, seconds: float) -> tuple[dict, dict]:
    setups: list[tuple[float, float]] = []
    setup_batch(wl, setups)
    run = measure(wl, seconds, setups=setups)
    best = sorted(b for b in run["best"] if b < math.inf)
    metrics = {
        # each set-up's time at the host's speed in the run's fastest
        # moment: its ratio to the kernel around it, times the kernel's
        # lowest time in the run
        "setup_s": (statistics.median(t / k for t, k in setups)
                    * min(run["refs"])),
        "ops_per_s": _ops_per_s(best),
        "op_p50_ms": statistics.median(best) * 1e3,
        "op_p90_ms": nearest_rank(best, 90.0) * 1e3,
        "op_mean_ref": statistics.fmean(run.pop("ratios")),
        "peak_rss_mb": _peak_rss_mb(wl),
    }
    run["best"] = best
    detail = {"setup_runs_s": [t for t, _ in setups],
              "setup_kernel_s": [k for _, k in setups],
              "attempted": len(run["latencies"]),
              "tail_percentile": tail_percentile(len(best)),
              "p90_beyond": samples_beyond(len(best), 90.0), **run}
    return metrics, detail


# untraced and traced quarters of a traced run, in this order, so that
# each side is timed over as many repetitions and as evenly in time
TRACE_PHASES = (False, True, True, False)


def traced(wl, seconds: float) -> tuple[dict, dict]:
    import spans
    wl.setup()
    n = len(wl.items)
    first = [None] * n
    best = {False: [math.inf] * n, True: [math.inf] * n}
    ops = {False: 0, True: 0}
    failed, failures = 0, []
    trace = spans.Trace()
    for on in TRACE_PHASES:
        quarter = seconds / len(TRACE_PHASES)
        if on:
            wl.traced = trace
            try:
                with spans.installed(trace):
                    run = measure(wl, quarter, trace, first)
            finally:
                wl.traced = None
        else:
            run = measure(wl, quarter, None, first)
        best[on] = [min(a, b) for a, b in zip(best[on], run["best"])]
        ops[on] += len(run["latencies"])
        failed += run["failed"]
        failures += run["failures"]
    # inputs that succeeded on both sides
    both = [k for k in range(n)
            if best[False][k] < math.inf and best[True][k] < math.inf]
    plain = [best[False][k] for k in both]
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(spans.layer_metrics(trace, ops[True]))
    metrics.update(wl.layer_extras())
    plain_p50_ms = statistics.median(plain) * 1e3
    if not wl.in_process:
        metrics["cli.compute_share"] = metrics["cli.main.total_ms"] / plain_p50_ms
    metrics["trace.ops"] = float(ops[True])
    metrics["trace.ops_per_s_ratio"] = (
        _ops_per_s([best[True][k] for k in both]) / _ops_per_s(plain))
    detail = {"untraced_ops": ops[False], "untraced_op_p50_ms": plain_p50_ms,
              "spans": len(trace), "failed": failed, "failures": failures,
              "attempted": ops[False] + ops[True], **_digest(first),
              "trace_doc": trace.to_doc()}
    return metrics, detail


def _print_summary(name: str, seed: int, metrics: dict, units: dict,
                   detail: dict) -> None:
    attempted, failed = detail["attempted"], detail["failed"]
    print(f"workload {name}  seed {seed}  attempted {attempted}  "
          f"failed {failed}  fail_rate {failed / attempted:.4g}")
    for key, value in metrics.items():
        note = ""
        if key == "op_p90_ms":
            note = (f"  (p90 of {len(detail['best'])} inputs, "
                    f"{detail['p90_beyond']} beyond; highest percentile "
                    f"with >= 10 beyond: p{detail['tail_percentile']}; "
                    f"{detail['passes']:.1f} passes)")
        elif key == "setup_s":
            note = f"  (median of {len(detail['setup_runs_s'])})"
        if key not in END_TO_END and key not in PER_LAYER:
            note += "  [not bounded]"
        print(f"  {key:<44} {value:.6g} {units[key]}{note}")
    print(f"  output digest sha256 {detail['digest']} "
          f"over {detail['digest_inputs']} inputs")
    for reason in detail["failures"][:10]:
        print(f"  FAILED: {reason}")


def run_workload(name: str, root: str, seed: int, seconds: float,
                 trace: bool) -> tuple[dict, dict]:
    from workloads import WORKLOADS
    wl = WORKLOADS[name](root, seed)
    try:
        if trace:
            metrics, detail = traced(wl, seconds)
        else:
            metrics, detail = end_to_end(wl, seconds)
    finally:
        wl.close()
    _print_summary(name, seed, metrics, PER_LAYER if trace else REPORTED,
                   detail)
    out = os.path.join(root, OUT_DIR)
    os.makedirs(out, exist_ok=True)
    stem = os.path.join(out, f"{name}-seed{seed}-trace{int(trace)}")
    trace_doc = detail.pop("trace_doc", None)
    if trace_doc is not None:
        with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump(trace_doc, fh)
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": seed, "seconds": seconds,
                   "metrics": metrics, **detail}, fh, indent=1)
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["fuzz", "large", "sweep", "cli", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "arcsupport", "__init__.py")):
        print(f"no src/arcsupport under {root}: run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    units = PER_LAYER if args.trace else END_TO_END
    if args.workload != "all":
        m, detail = run_workload(args.workload, root, args.seed, args.seconds,
                                 bool(args.trace))
        metrics = {key: {"value": m[key], "unit": unit}
                   for key, unit in units.items()}
        print(json.dumps({"correct": detail["failed"] == 0,
                          "attempted": detail["attempted"],
                          "failed": detail["failed"], "metrics": metrics}))
        return 0
    metrics = {}
    attempted = failed = 0
    for name in ALL:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        *summary, last = proc.stdout.strip().splitlines()
        print("\n".join(summary), flush=True)
        result = json.loads(last)
        for key, value in result["metrics"].items():
            metrics[f"{name}.{key}"] = value
        attempted += result["attempted"]
        failed += result["failed"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
