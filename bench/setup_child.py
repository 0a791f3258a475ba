"""One measured set-up in a fresh interpreter: ``import magnoncavity``,
then the workload's input loaded.

    python3 bench/setup_child.py WORKLOAD SEED [--trace] [--op] [--small]

run.py starts it and reads the one JSON line it prints:

* ``t_ready``: time.monotonic() once the input is loaded. On Linux this
  is CLOCK_MONOTONIC, shared by all processes, so the parent subtracts
  the time it started this process to get the set-up time.
* ``load_s``, ``load_calls`` (with --trace): time in and calls of
  load_config during set-up, from the config-layer wrappers.
* ``maxrss_kb`` (with --op): peak resident set size after one operation.
"""

from __future__ import annotations

import time

import common

common.pin_threads()
common.use_source_tree()

import magnoncavity  # noqa: E402,F401  (the import whose cost set-up includes)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--op", action="store_true")
    parser.add_argument("--small", action="store_true")
    args = parser.parse_args()
    wl = workloads.get(args.workload)

    spans = tracer.Tracer(tracer.CONFIG_TARGETS, ())
    if args.trace:
        spans.install()
    ctx = wl.load(args.seed, args.small)
    t_ready = time.monotonic()
    spans.uninstall()

    _, durations, _, parents, _ = spans.arrays()
    report = {
        "t_ready": t_ready,
        "load_s": float(durations[parents < 0].sum()),
        "load_calls": int(durations.size),
    }
    if args.op:
        wl.op(wl.prepare(ctx, 0))
        report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(report))


if __name__ == "__main__":
    main()
