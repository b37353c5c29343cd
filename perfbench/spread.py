"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload sweep --seeds 1-10 [--seconds 30]

Run it from the root of a checkout.  For every end-to-end metric the
summary reports (run.REPORTED) it prints the median, the first and third
quartiles of the per-seed values (statistics.quantiles(values, n=4)),
and the quartile distance as a share of the median next to the metric's
bound in BENCHMARK.json, if it has one.  Results also go to
.perfbench-out/spread-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"),
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {}
    failed = 0
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"], capture_output=True, text=True, check=True)
        failed += json.loads(proc.stdout.strip().splitlines()[-1])["failed"]
        # the full result file holds the unbounded metrics too
        with open(os.path.join(".perfbench-out", f"{args.workload}-seed"
                               f"{seed}-trace0.json"), encoding="utf-8") as fh:
            for name, value in json.load(fh)["metrics"].items():
                values.setdefault(name, []).append(value)
        print(f"seed {seed}: " + "  ".join(
            f"{k} {v[-1]:.5g}" for k, v in values.items()), flush=True)

    report = {name: {**spread(v), "bound": bounds.get(name)}
              for name, v in values.items()}
    print(f"{args.workload}: {len(values['setup_s'])} runs, {failed} failed runs")
    for name, r in report.items():
        print(f"  {name:<12} median {r['median']:<12.5g} q1 {r['q1']:<12.5g} "
              f"q3 {r['q3']:<12.5g} spread {r['spread']:.4f} "
              f"(bound {r['bound']})")
    os.makedirs(".perfbench-out", exist_ok=True)
    with open(os.path.join(".perfbench-out", f"spread-{args.workload}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seconds": seconds,
                   "failed": failed, "metrics": report}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
