"""Command-line front end.

Exit codes: 0 ok, 2 arc validation failure, 3 bad angle difference,
4 I/O failure, 5 generation failure.  A failure prints one line,
"<ErrorType>: <message>", to stderr and nothing to stdout.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import math
import os
import sys

from .arc import ArcError, build_arc
from .hull import StraightArc, melkman_hull
from .oracle import (FuzzConfig, GenerationExhausted, _arc_and_hull,
                     draw_delta)
from .pairs import (MOUNTAIN, VALLEY, InvalidDelta, TriplePair,
                    corollary_check, enumerate_triples, find_pair_mountain,
                    find_pair_valley, jump_to_jump_gaps, pairs_identical,
                    safe_delta_range, verify_triple)
from .profile import build_profile
from .render import render_pair_svg

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DELTA = 3
EXIT_IO = 4
EXIT_GENERATION = 5

# the documented exit code of each failure; the first matching type wins
EXIT_CODES = ((ArcError, EXIT_VALIDATION), (StraightArc, EXIT_VALIDATION),
              (InvalidDelta, EXIT_DELTA), (OSError, EXIT_IO),
              (GenerationExhausted, EXIT_GENERATION))


def _load(path: str):
    """Read and validate an arc file and build its hull and profile."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (ValueError, RecursionError) as exc:
        # also bad UTF-8, an integer past the digit limit, deep nesting
        raise ArcError(f"bad JSON in {path}: {exc}") from exc
    try:
        arc = build_arc(payload["vertices"])
    except (KeyError, TypeError) as exc:  # not an object with "vertices"
        raise ArcError(
            f"expected {{\"vertices\": [[x, y], ...]}}: {exc}") from exc
    hull = melkman_hull(arc)
    return arc, hull, build_profile(hull)


def _maybe_degrees(value: float, to_degrees: bool) -> float:
    return math.degrees(value) if to_degrees else value


def cmd_analyze(args) -> int:
    arc, _, profile = _load(args.input)
    if args.json:
        doc = {
            "length": arc.length,
            "corners": [
                {"point": [s.point.x, s.point.y],
                 "param": s.level,
                 "step": [s.start, s.end],
                 "exterior_angle": s.width}
                for s in profile.steps],
            "jumps": [{"angle": j.angle, "span": [j.low_param, j.high_param]}
                      for j in profile.jumps],
            "min_step_width": profile.min_step.width,
            "apex_step_width": profile.apex_step.width,
            "levels": list(profile.levels),
        }
        print(json.dumps(doc, indent=2))
        return EXIT_OK

    print(f"arc: {len(arc)} vertices, length {arc.length:.12g}")
    print(f"{'corner':>22}  {'param':>12}  {'step interval':>28}  {'exterior':>12}")
    for s in profile.steps:
        pt = f"({s.point.x:.6g}, {s.point.y:.6g})"
        print(f"{pt:>22}  {s.level:>12.9g}  "
              f"[{s.start:>12.9f}, {s.end:>12.9f}]  {s.width:>12.9f}")
    print(f"min step width  : {profile.min_step.width:.12g}")
    print(f"apex step width : {profile.apex_step.width:.12g}")
    print("level sequence  : " + " ".join(f"{v:.9g}" for v in profile.levels))
    print("jumps           : " + "; ".join(
        f"{j.angle:.9f} -> [{j.low_param:.9g}, {j.high_param:.9g}]"
        for j in profile.jumps))
    return EXIT_OK


def _pair_doc(pair: TriplePair, unique_count: int, report,
              to_degrees: bool) -> dict:
    return {
        "mode": pair.mode,
        "theta_single": _maybe_degrees(pair.theta_single, to_degrees),
        "theta_double": _maybe_degrees(pair.theta_double, to_degrees),
        "s": [pair.s1, pair.s2, pair.s3],
        "strict": pair.strict,
        "realized_gap": _maybe_degrees(pair.realized_gap, to_degrees),
        "requested_delta": _maybe_degrees(pair.requested_delta, to_degrees),
        "guaranteed": pair.guaranteed,
        "near_tie": pair.near_tie,
        "unique_count": unique_count,
        "verified": report.passed,
    }


def _scan(profile, arc, delta, mode) -> TriplePair:
    if mode == MOUNTAIN:
        return find_pair_mountain(profile, arc, delta)
    return find_pair_valley(profile, arc, delta)


def _run_mode(profile, arc, delta, mode):
    """The scan's pair, the number of enumerated configurations of its
    kind (spanning the apex step for a mountain pair, the minimum step
    for a valley pair) and its verification report."""
    pair = _scan(profile, arc, delta, mode)
    configs = enumerate_triples(profile, arc, delta)
    typed = sum(1 for c in configs
                if (c.covers_apex if pair.covers_apex else c.covers_min))
    return pair, typed, verify_triple(arc, pair)


def cmd_find_pair(args) -> int:
    arc, _, profile = _load(args.input)
    delta = math.radians(args.delta) if args.degrees else args.delta
    if args.mode == "both":
        m = _run_mode(profile, arc, delta, MOUNTAIN)
        v = _run_mode(profile, arc, delta, VALLEY)
        doc = {
            "mode": "both",
            "mountain": _pair_doc(*m, args.degrees),
            "valley": _pair_doc(*v, args.degrees),
            "identical": pairs_identical(profile, m[0], v[0]),
        }
    else:
        doc = _pair_doc(*_run_mode(profile, arc, delta, args.mode),
                        args.degrees)
    print(json.dumps(doc, indent=2))
    return EXIT_OK


def cmd_render(args) -> int:
    arc, hull, profile = _load(args.input)
    delta = math.radians(args.delta) if args.degrees else args.delta
    svg = render_pair_svg(arc, hull, _scan(profile, arc, delta, args.mode))
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(svg)
    print(f"wrote {args.output}")
    return EXIT_OK


def run_fuzz(config: FuzzConfig):
    """One deterministic campaign: rows for the CSV plus summary counters."""
    rows = []
    anomalies = []
    corollary_hits = 0
    strict_hits = 0
    unique_hits = 0
    unique_total = 0
    for trial in range(config.trials):
        arc, hull = _arc_and_hull(config, trial)
        profile = build_profile(hull)
        mode = MOUNTAIN if trial % 2 == 0 else VALLEY
        delta = draw_delta(config, trial, mode, safe_delta_range(profile, mode))
        pair, typed, report = _run_mode(profile, arc, delta, mode)
        if pair.strict:
            strict_hits += 1
            tie_prone = (pair.near_tie or any(
                abs(delta - g) <= 1e-6 for g in jump_to_jump_gaps(profile)))
            if not tie_prone:
                unique_total += 1
                if typed == 1:
                    unique_hits += 1
        cor = corollary_check(profile, arc, math.pi)
        if cor.identical:
            corollary_hits += 1
        if (pair.guaranteed and not pair.strict) or not report.passed:
            anomalies.append(trial)
        rows.append({
            "trial": trial, "n": len(arc), "delta": repr(delta),
            "mode": mode, "strict": pair.strict, "unique_count": typed,
            "verified": report.passed, "near_tie": pair.near_tie,
        })
    summary = {
        "trials": config.trials,
        "strict": strict_hits,
        "unique": unique_hits,
        "unique_total": unique_total,
        "corollary_at_pi": corollary_hits,
        "anomalies": anomalies,
    }
    return rows, summary


def fuzz_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=[
        "trial", "n", "delta", "mode", "strict", "unique_count",
        "verified", "near_tie"])
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def cmd_fuzz(args) -> int:
    config = FuzzConfig(trials=args.trials, seed=args.seed,
                        delta_policy=args.policy)
    # the campaign can take seconds: refuse a path open() would refuse
    # before it starts, and open the file only after it (no empty file
    # when it raises)
    if args.output:
        if not os.path.isdir(os.path.dirname(args.output) or "."):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT),
                                    args.output)
        if os.path.isdir(args.output):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR),
                                    args.output)
    rows, summary = run_fuzz(config)
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(fuzz_csv(rows))
    t = summary["trials"]
    print(f"trials                : {t}")
    print(f"strict existence rate : {summary['strict']}/{t}")
    print(f"uniqueness rate       : {summary['unique']}/{summary['unique_total']}"
          f" (strict, away from ties)")
    print(f"corollary rate (pi)   : {summary['corollary_at_pi']}/{t}")
    print(f"anomalies             : {len(summary['anomalies'])}"
          + (f" at trials {summary['anomalies']}" if summary["anomalies"] else ""))
    return EXIT_OK


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arcsupport",
        description="Support-line structure of simple polygonal arcs and "
                    "pairs of support lines with triple touch points.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="corner table, widths and jump list")
    p.add_argument("input", help="arc JSON file: {\"vertices\": [[x, y], ...]}")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("find-pair", help="run the level scans at a difference")
    p.add_argument("input")
    p.add_argument("--delta", type=float, required=True,
                   help="angle difference in radians (degrees with --degrees)")
    p.add_argument("--mode", choices=[MOUNTAIN, VALLEY, "both"], default="both")
    p.add_argument("--degrees", action="store_true",
                   help="read --delta and print angles in degrees")
    p.set_defaults(func=cmd_find_pair)

    p = sub.add_parser("render", help="SVG figure of a found pair")
    p.add_argument("input")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--mode", choices=[MOUNTAIN, VALLEY], default=MOUNTAIN)
    p.add_argument("--degrees", action="store_true")
    p.add_argument("-o", "--output", required=True, help="output SVG path")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("fuzz", help="property campaign over random arcs")
    p.add_argument("--trials", type=positive_int, default=100)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--policy", choices=["safe_range", "full_range"],
                   default="safe_range")
    p.add_argument("-o", "--output", help="CSV report path")
    p.set_defaults(func=cmd_fuzz)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(t for t, _ in EXIT_CODES) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return next(code for t, code in EXIT_CODES if isinstance(exc, t))


if __name__ == "__main__":
    sys.exit(main())
