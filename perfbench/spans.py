"""Span recorder that times arcsupport's public functions from outside.

`installed(trace)` replaces each function in SPANNED with a wrapper that
records a span (name, start, end, parent) and each function in COUNTED
with a wrapper that only counts calls.  It rebinds every attribute of
every loaded `arcsupport` module that refers to the original, so calls
made between modules (`arcsupport.oracle.build_arc`,
`arcsupport.pairs.touch_params`, ...) are seen too, and puts every
original back on exit.  Spans stay in memory until `to_doc` writes them.

Only the standard library is imported here: the cli shim loads this
module in a fresh interpreter before it times `import arcsupport`.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

# (module, function) pairs under arcsupport; span names are "module.function"
SPANNED = (
    ("arc", "build_arc"),
    ("hull", "melkman_hull"),
    ("profile", "build_profile"),
    ("profile", "touch_params"),
    ("pairs", "find_pair_mountain"),
    ("pairs", "find_pair_valley"),
    ("pairs", "enumerate_triples"),
    ("pairs", "verify_triple"),
    ("pairs", "corollary_check"),
    ("pairs", "jump_to_jump_gaps"),
    ("oracle", "random_simple_arc"),
    ("render", "render_pair_svg"),
    ("cli", "run_fuzz"),
    ("cli", "main"),
)
COUNTED = (("geometry", "orient"),)

FIND_PAIR = ("pairs.find_pair_mountain", "pairs.find_pair_valley")


def _tag_strict(args, result):
    return int(result.strict)


def _tag_hull_size(args, result):
    return (len(result.corners), len(args[0]))


# extra facts kept per span, read back by layer_metrics
TAGS = {
    "pairs.find_pair_mountain": _tag_strict,
    "pairs.find_pair_valley": _tag_strict,
    "hull.melkman_hull": _tag_hull_size,
}


class Trace:
    """In-memory spans in parallel arrays, plus call counters.

    Span i has name names[name_id[i]], times start[i]..end[i] in
    nanoseconds of CLOCK_MONOTONIC (shared by every process on the
    host), and parent[i], the index of the enclosing span or -1.
    """

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.tags: dict[int, object] = {}
        self.counts: dict[str, int] = defaultdict(int)
        self.enabled = True
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(self.clock())
        self.end.append(0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self._stack.pop()
        self.end[idx] = self.clock()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    @contextmanager
    def paused(self):
        """Run untraced code (the benchmark's own checks) inside a trace."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def spanning(self, name: str, fn):
        tag = TAGS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if tag is not None:
                self.tags[idx] = tag(args, result)
            return result
        return wrapper

    def counting(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.enabled:
                counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def to_doc(self) -> dict:
        return {
            "names": self.names,
            "name_id": self.name_id.tolist(),
            "start_ns": self.start.tolist(),
            "end_ns": self.end.tolist(),
            "parent": self.parent.tolist(),
            "tags": {str(k): v for k, v in self.tags.items()},
            "counts": dict(self.counts),
        }

    def merge(self, doc: dict) -> None:
        """Append the spans of another process's to_doc() as roots here."""
        base = len(self.start)
        ids = [self._intern(n) for n in doc["names"]]
        self.name_id.extend(ids[i] for i in doc["name_id"])
        self.start.extend(doc["start_ns"])
        self.end.extend(doc["end_ns"])
        self.parent.extend(p + base if p >= 0 else -1 for p in doc["parent"])
        for k, v in doc["tags"].items():
            self.tags[int(k) + base] = tuple(v) if isinstance(v, list) else v
        for k, v in doc["counts"].items():
            self.counts[k] += v


def _targets():
    for module, func in SPANNED:
        yield f"{module}.{func}", module, func, False
    for module, func in COUNTED:
        yield f"{module}.{func}", module, func, True


@contextmanager
def installed(trace: Trace):
    """Wrap every SPANNED and COUNTED function for the duration."""
    for module, _ in SPANNED + COUNTED:
        importlib.import_module(f"arcsupport.{module}")
    mods = [m for n, m in sys.modules.items()
            if n == "arcsupport" or n.startswith("arcsupport.")]
    replaced = []
    try:
        for name, module, func, count_only in _targets():
            original = getattr(sys.modules[f"arcsupport.{module}"], func)
            wrapper = (trace.counting(name, original) if count_only
                       else trace.spanning(name, original))
            for mod in mods:
                for attr in [a for a, v in vars(mod).items() if v is original]:
                    setattr(mod, attr, wrapper)
                    replaced.append((mod, attr, original))
        yield trace
    finally:
        for mod, attr, original in reversed(replaced):
            setattr(mod, attr, original)


def self_times(start, end, parent) -> list[int]:
    """Each span's duration minus the part of it covered by its children.

    Children are clipped to their parent and overlapping children are
    merged, so covered time is never counted twice.
    """
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append((start[i], end[i]))
    out = [e - s for s, e in zip(start, end)]
    for p, ivs in children.items():
        lo_p, hi_p = start[p], end[p]
        covered = 0
        cur_lo = cur_hi = None
        for a, b in sorted(ivs):
            a, b = max(a, lo_p), min(b, hi_p)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[p] -= covered
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: Trace, ops: int) -> dict[str, float]:
    """Per-operation calls, total and self milliseconds of each wrapped
    function, plus the derived counts and ratios listed in README.md."""
    names = [trace.names[i] for i in trace.name_id]
    selfs = self_times(trace.start, trace.end, trace.parent)
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    for i, name in enumerate(names):
        calls[name] += 1
        total[name] += trace.end[i] - trace.start[i]
        self_ns[name] += selfs[i]

    out: dict[str, float] = {}
    for name, _, _, count_only in _targets():
        if count_only:
            out[f"{name}.calls"] = _ratio(trace.counts.get(name, 0), ops)
            continue
        out[f"{name}.calls"] = _ratio(calls[name], ops)
        out[f"{name}.total_ms"] = _ratio(total[name] / 1e6, ops)
        out[f"{name}.self_ms"] = _ratio(self_ns[name] / 1e6, ops)

    def parent_name(i):
        p = trace.parent[i]
        return names[p] if p >= 0 else None

    builds_in_sampler = sum(1 for i, n in enumerate(names)
                            if n == "arc.build_arc"
                            and parent_name(i) == "oracle.random_simple_arc")
    out["oracle.random_simple_arc.accept_ratio"] = _ratio(
        calls["oracle.random_simple_arc"], builds_in_sampler)

    rescues = [trace.parent[i] for i, n in enumerate(names)
               if n == "pairs.enumerate_triples" and parent_name(i) in FIND_PAIR]
    out["pairs.rescue.calls"] = _ratio(len(rescues), ops)
    out["pairs.rescue.strict_ratio"] = _ratio(
        sum(trace.tags.get(p, 0) for p in rescues), len(rescues))

    sizes = [trace.tags[i] for i, n in enumerate(names)
             if n == "hull.melkman_hull" and i in trace.tags]
    out["hull.corners_per_vertex"] = _ratio(sum(m for m, _ in sizes),
                                            sum(n for _, n in sizes))
    return out
