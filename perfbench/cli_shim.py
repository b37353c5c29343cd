"""Run the arcsupport CLI under the span recorder of spans.py.

    python3 perfbench/cli_shim.py TRACE_OUT ARGV...

Times `import arcsupport`, installs the wrappers, calls
`arcsupport.cli.main(ARGV)` and writes the spans, the shim's start time
and the import time (CLOCK_MONOTONIC nanoseconds) to TRACE_OUT as JSON.
Exits with main's return code.
"""

import time

SHIM_START_NS = time.perf_counter_ns()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter_ns()
    import arcsupport.cli
    import_ns = time.perf_counter_ns() - t0

    import spans
    trace = spans.Trace()
    with spans.installed(trace):
        code = arcsupport.cli.main(argv)
    sys.stdout.flush()
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"shim_start_ns": SHIM_START_NS, "import_ns": import_ns,
                   "trace": trace.to_doc()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
