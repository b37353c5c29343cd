"""The four benchmark workloads and the seeded arc families they use.

Each workload is set up, then driven in a closed loop by run.py over a
fixed list of inputs: `setup()` (the timed set-up) does the workload's
own preparation and builds `items`, input k from `make_input(k)`;
`run(inp)` is the timed call into arcsupport, `check(inp, out)` returns
the reasons an output is wrong (untimed, with tracing paused), and
`digest(inp, out)` gives the output's bytes, which every later run of
the same input must reproduce and which feed the run's output digest.

Calls go through module attributes (`ap.pairs.find_pair_mountain`), so
the wrappers spans.installed() puts on those attributes see them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET

import arcsupport as ap
import arcsupport.cli  # noqa: F401  (not imported by the package)

PI = math.pi
TWO_PI = 2.0 * math.pi
E2 = [(0.0, 0.0), (3.0, 0.0), (3.0, 1.0), (2.0, 1.0)]

# The convex family spans 1.5 pi of the unit circle: short of a full turn,
# so the arc stays simple, and its end corners get exterior angles near
# pi/4, which puts about a quarter of (0, 2 pi) outside the safe delta
# range.  Each inner angle moves by up to 0.3 grid steps, so the family
# is seeded without ever making a vertex collinear with its neighbours.
CONVEX_TURN = 1.5 * PI
CONVEX_JITTER = 0.3


# ---------------------------------------------------------------------------
# seeded arc families

def convex_arc(n: int, rng: random.Random) -> list[tuple[float, float]]:
    """n points on the unit circle at jittered angles of an even grid over
    [0, CONVEX_TURN]; every vertex is a hull corner.  The end angles stay
    fixed, so the safe delta range depends on CONVEX_TURN only."""
    step = CONVEX_TURN / (n - 1)
    angles = [0.0] + [(i + rng.uniform(-CONVEX_JITTER, CONVEX_JITTER)) * step
                      for i in range(1, n - 1)] + [CONVEX_TURN]
    return [(math.cos(a), math.sin(a)) for a in angles]


def walk_arc(n: int, rng: random.Random) -> list[tuple[float, float]]:
    """x-monotone Gaussian random walk; the hull keeps a handful of its
    vertices."""
    y = 0.0
    pts = []
    for i in range(n):
        pts.append((float(i), y))
        y += rng.gauss(0.0, 1.0)
    return pts


def safe_inside(profile, mode: str, delta: float) -> bool:
    lo, hi = ap.pairs.safe_delta_range(profile, mode)
    return lo < delta < hi


def _pair_fields(pair) -> tuple:
    return (pair.mode, pair.theta_double, pair.theta_single, pair.s1,
            pair.s2, pair.s3, pair.strict, pair.realized_gap,
            pair.guaranteed, pair.near_tie)


def src_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


class Workload:
    name = ""
    inputs = 100           # distinct inputs, run pass after pass
    in_process = True      # peak RSS of this process, else of its children
    traced = None          # the spans.Trace of a traced run, if any

    def __init__(self, root: str, seed: int):
        self.root = root
        self.seed = seed
        self.items: list = []

    def setup(self) -> None:
        """The workload's own preparation; run.py times it.  Subclasses
        prepare what make_input needs, then call this."""
        self.items = [self.make_input(k) for k in range(self.inputs)]

    def collect(self, out) -> None:
        """Called after every run of an operation, untimed."""

    def layer_extras(self) -> dict[str, float]:
        return {}

    def close(self) -> None:
        pass


class Fuzz(Workload):
    """Chunks of the shipped full_range property campaign."""

    name = "fuzz"
    trials = 40

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.anomalies_above_safe = 0
        self.checked_ops = 0

    def make_input(self, i: int):
        return ap.FuzzConfig(trials=self.trials, seed=self.seed * 1_000_003 + i,
                             delta_policy="full_range")

    def run(self, config):
        return ap.cli.run_fuzz(config)

    def check(self, config, out) -> list[str]:
        rows, summary = out
        bad = []
        for row in rows:
            trial = row["trial"]
            arc = ap.oracle.random_simple_arc(config, trial)
            profile = ap.profile.build_profile(ap.hull.melkman_hull(arc))
            delta = float(row["delta"])
            lo, hi = ap.pairs.safe_delta_range(profile, row["mode"])
            if not row["verified"]:
                bad.append(f"seed {config.seed} trial {trial}: not verified")
            if lo < delta < hi and not row["strict"]:
                bad.append(f"seed {config.seed} trial {trial}: "
                           f"not strict at safe delta {delta!r}")
            if trial in summary["anomalies"] and delta >= hi:
                self.anomalies_above_safe += 1
        self.checked_ops += 1
        return bad

    def digest(self, config, out) -> bytes:
        return hashlib.sha256(ap.cli.fuzz_csv(out[0]).encode()).digest()

    def layer_extras(self):
        return {"cli.run_fuzz.anomalies_above_safe":
                self.anomalies_above_safe / max(self.checked_ops, 1)}


class Large(Workload):
    """Build, solve and draw one convex arc and one x-monotone walk."""

    name = "large"
    n = 80

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.sizes = {"convex": [0, 0], "walk": [0, 0]}   # corners, vertices

    def make_input(self, i: int):
        rng = random.Random(f"large:{self.seed}:{i}")
        return (("convex", convex_arc(self.n, rng)),
                ("walk", walk_arc(self.n, rng)))

    def run(self, inp):
        out = []
        for family, verts in inp:
            arc = ap.arc.build_arc(verts)
            hull = ap.hull.melkman_hull(arc)
            profile = ap.profile.build_profile(hull)
            m = ap.pairs.find_pair_mountain(profile, arc, PI)
            v = ap.pairs.find_pair_valley(profile, arc, PI)
            out.append((family, arc, hull, profile, m, v,
                        ap.pairs.verify_triple(arc, m),
                        ap.pairs.verify_triple(arc, v),
                        ap.render.render_pair_svg(arc, hull, m)))
        return out

    def check(self, inp, out) -> list[str]:
        bad = []
        for family, arc, hull, profile, m, v, rm, rv, svg in out:
            self.sizes[family][0] += len(hull)
            self.sizes[family][1] += len(arc)
            try:
                if not ET.fromstring(svg).tag.endswith("svg"):
                    bad.append(f"{family}: SVG root is not svg")
            except ET.ParseError as exc:
                bad.append(f"{family}: malformed SVG: {exc}")
            for pair, report in ((m, rm), (v, rv)):
                if not report.passed:
                    bad.append(f"{family} {pair.mode}: not verified")
                if safe_inside(profile, pair.mode, PI) and not pair.strict:
                    bad.append(f"{family} {pair.mode}: not strict at pi")
            if not ap.pairs.corollary_check(profile, arc, PI).identical:
                bad.append(f"{family}: corollary at pi not identical")
        return bad

    def digest(self, inp, out) -> bytes:
        return repr([(f, len(h), _pair_fields(m), _pair_fields(v),
                      rm.passed, rv.passed, svg)
                     for f, _, h, _, m, v, rm, rv, svg in out]).encode()

    def layer_extras(self):
        return {f"hull.corners_per_vertex.{family}": c / n if n else 0.0
                for family, (c, n) in self.sizes.items()}


class Sweep(Workload):
    """Delta queries over a grid on one large convex arc built in set-up."""

    name = "sweep"
    m = 128
    touch_batch = 16

    def setup(self):
        rng = random.Random(f"sweep:{self.seed}")
        self.arc = ap.arc.build_arc(convex_arc(self.m, rng))
        self.profile = ap.profile.build_profile(ap.hull.melkman_hull(self.arc))
        offset = rng.uniform(0.05, 0.95)
        self.deltas = [TWO_PI * (k + offset) / self.inputs
                       for k in range(self.inputs)]
        rng.shuffle(self.deltas)
        super().setup()

    def make_input(self, i: int) -> float:
        return self.deltas[i]

    def run(self, delta):
        arc, profile = self.arc, self.profile
        m = ap.pairs.find_pair_mountain(profile, arc, delta)
        v = ap.pairs.find_pair_valley(profile, arc, delta)
        rm = ap.pairs.verify_triple(arc, m)
        rv = ap.pairs.verify_triple(arc, v)
        configs = ap.pairs.enumerate_triples(profile, arc, delta)
        unique = (sum(1 for c in configs if c.covers_apex),
                  sum(1 for c in configs if c.covers_min))
        touches = [ap.profile.touch_params(
            profile, (delta + TWO_PI * j / self.touch_batch) % TWO_PI)
            for j in range(self.touch_batch)]
        return m, v, rm, rv, unique, touches

    def check(self, delta, out) -> list[str]:
        m, v, rm, rv, _, touches = out
        bad = []
        for pair, report in ((m, rm), (v, rv)):
            if not report.passed:
                bad.append(f"delta {delta!r} {pair.mode}: not verified")
            if safe_inside(self.profile, pair.mode, delta) and not pair.strict:
                bad.append(f"delta {delta!r} {pair.mode}: not strict")
        length = self.arc.length
        for t in touches:
            if not (1 <= len(t) <= 2 and all(0.0 <= s <= length for s in t)):
                bad.append(f"delta {delta!r}: bad touch set {t}")
        return bad

    def digest(self, delta, out) -> bytes:
        m, v, rm, rv, unique, touches = out
        return repr((delta, _pair_fields(m), _pair_fields(v), rm.passed,
                     rv.passed, unique, touches)).encode()


class Cli(Workload):
    """One `python -m arcsupport.cli` process at a time.

    Not listed in BENCHMARK.json (README.md gives the reason).  Run it
    by name or with --workload all.
    """

    name = "cli"
    in_process = False
    inputs = 30
    commands = ("find-pair", "analyze", "render")
    shim = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "cli_shim.py")

    def __init__(self, root, seed):
        super().__init__(root, seed)
        # argv names files relative to the checkout root, so outputs and
        # digests do not depend on where the checkout lives
        self.rel = os.path.join(".perfbench-out", f"cli-{seed}")
        self.work = os.path.join(root, self.rel)
        self.env = src_env(root)
        self.interpreter_ms: list[float] = []
        self.import_ms: list[float] = []

    def setup(self):
        rng = random.Random(f"cli:{self.seed}")
        arcs = [E2, convex_arc(24, rng), convex_arc(40, rng),
                walk_arc(24, rng), walk_arc(40, rng)]
        os.makedirs(self.work, exist_ok=True)
        self.files = []
        for k, verts in enumerate(arcs):
            with open(os.path.join(self.work, f"arc{k}.json"), "w",
                      encoding="utf-8") as fh:
                json.dump({"vertices": verts}, fh)
            arc = ap.arc.build_arc(verts)
            self.files.append(
                (os.path.join(self.rel, f"arc{k}.json"),
                 ap.profile.build_profile(ap.hull.melkman_hull(arc))))
        super().setup()

    def make_input(self, i: int):
        rng = random.Random(f"cli:{self.seed}:{i}")
        path, profile = self.files[(i // len(self.commands)) % len(self.files)]
        command = self.commands[i % len(self.commands)]
        delta = rng.uniform(0.05, TWO_PI - 0.05)
        argv = {"find-pair": ["find-pair", path, "--delta", repr(delta),
                              "--mode", "both"],
                "analyze": ["analyze", path, "--json"],
                "render": ["render", path, "--delta", repr(delta), "-o",
                           os.path.join(self.rel, "pair.svg")],
                }[command]
        return command, argv, profile, delta, os.path.join(self.work, "pair.svg")

    def run(self, inp):
        command, argv, _, _, svg = inp
        if self.traced is None:
            cmd = [sys.executable, "-m", "arcsupport.cli", *argv]
            return subprocess.run(cmd, env=self.env, cwd=self.root,
                                  capture_output=True, timeout=60), None
        out = os.path.join(self.work, "trace.json")
        cmd = [sys.executable, self.shim, out, *argv]
        spawned = self.traced.clock()
        proc = subprocess.run(cmd, env=self.env, cwd=self.root,
                              capture_output=True, timeout=60)
        return proc, (spawned, out)

    def check(self, inp, out) -> list[str]:
        command, argv, profile, delta, svg = inp
        proc, _ = out
        if proc.returncode != 0:
            return [f"{' '.join(argv)}: exit {proc.returncode}: "
                    f"{proc.stderr.decode(errors='replace')[-300:]}"]
        bad = []
        if command == "render":
            try:
                root = ET.parse(svg).getroot()
                if not root.tag.endswith("svg"):
                    bad.append(f"{svg}: root element {root.tag}")
            except ET.ParseError as exc:
                bad.append(f"{svg}: malformed SVG: {exc}")
            return bad
        try:
            doc = json.loads(proc.stdout)
        except json.JSONDecodeError as exc:
            return [f"{' '.join(argv)}: bad JSON: {exc}"]
        if command == "analyze":
            if not doc.get("corners"):
                bad.append(f"{' '.join(argv)}: no corners")
            return bad
        for mode in ("mountain", "valley"):
            part = doc.get(mode, {})
            if part.get("verified") is not True:
                bad.append(f"{' '.join(argv)}: {mode} lacks verified: true")
            if safe_inside(profile, mode, delta) and part.get("strict") is not True:
                bad.append(f"{' '.join(argv)}: {mode} not strict")
        return bad

    def collect(self, out) -> None:
        if out[1] is None:
            return
        spawned, path = out[1]
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        os.remove(path)
        self.interpreter_ms.append((doc["shim_start_ns"] - spawned) / 1e6)
        self.import_ms.append(doc["import_ns"] / 1e6)
        self.traced.merge(doc["trace"])

    def digest(self, inp, out) -> bytes:
        command, _, _, _, svg = inp
        if command != "render":
            return out[0].stdout
        with open(svg, "rb") as fh:
            return out[0].stdout + fh.read()

    def layer_extras(self):
        def mean(xs):
            return sum(xs) / len(xs) if xs else 0.0
        return {"cli.interpreter_ms": mean(self.interpreter_ms),
                "cli.import_ms": mean(self.import_ms)}

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Fuzz, Large, Sweep, Cli)}
