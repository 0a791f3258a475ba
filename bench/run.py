"""magnoncavity benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (map_csv, eta_map_8mode, fit_batch or walker_table, see
workloads.py) in this process, on one thread, and checks every output
against bench/golden.json. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the lines
before it give provenance and details, and a full record is written to
.bench_work/results/.

--trace 0 measures the end-to-end metrics. A closed loop with one caller
runs operations back to back for S seconds, after one warm-up operation.
Set-up time and peak memory come from fresh child interpreters
(setup_child.py), because imports are cached in-process.

Times are corrected for the speed the machine has at the moment. A shared
machine can run the same operation up to twice as slowly for tens of
seconds at a time, which no run length averages out. So a fixed reference
kernel that calls no magnoncavity code and does the same kind of work as
the workload (calibrate()) runs between operations, and each operation's
time is scaled by
CALIBRATION_REFERENCE_S / (mean of the kernel's times just before and
after it): the time the operation would take at the speed at which the
kernel takes CALIBRATION_REFERENCE_S. The raw times are kept in the
results record. A slowdown the program causes outside its operations,
such as a background thread, would also slow the kernel and be partly
hidden by this correction. Set-up times are not corrected: a kernel run
before and after a one-second child process tracks its speed worse than
the median of several set-ups does on its own.

--trace 1 measures the per-layer metrics. It runs a fixed list of
operations, each untraced and then traced (tracer.py), so its counts
repeat exactly for a seed, and reports the mean difference as the tracing
overhead. Per-layer times are raw, not corrected for machine speed.

The source tree (src/magnoncavity and configs/) must sit next to bench/;
without it the run exits with code 2 before printing a result.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback

import common

common.pin_threads()

import numpy as np  # noqa: E402
from scipy.optimize import brentq  # noqa: E402

SETUP_RUNS = 7
# About the time each calibration kernel takes on an uncontended 2-vCPU
# x86-64 Linux machine (Python 3.11, numpy 2.4); it fixes the unit of the
# corrected times.
CALIBRATION_REFERENCE_S = 0.005
CHILD_TIMEOUT_S = 150
TRACE_OPS = {"map_csv": 3, "eta_map_8mode": 3, "fit_batch": 12, "walker_table": 6}
# 8-parameter fits at 1e-2 noise in the traced run of a workload with a
# convergence probe (fit_batch; see workloads.FIT_NOISE_SIGMA)
PROBE_FITS = 40
TAIL_SAMPLES_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}

PER_LAYER_UNITS = {
    "import_s": "s",
    "config.load_s": "s",
    "config.calls": "count",
    "op_traced_s": "s",
    "trace.overhead_s": "s",
    "cli.serialize_s": "s",
    "cli.rows_out": "count",
    "cli.bytes_out": "B",
    "cli.bytes_per_s": "B/s",
    "scattering.kernel_s": "s",
    "scattering.denominator_calls": "count",
    "scattering.denominator_points_per_cell": "ratio",
    "model.susceptibility_calls": "count",
    "model.susceptibility_s": "s",
    "magnetostatics.mode_frequency_calls": "count",
    "magnetostatics.mode_frequency_s": "s",
    "magnetostatics.solve_calls": "count",
    "magnetostatics.solve_s": "s",
    "magnetostatics.characteristic_evals_per_solve": "ratio",
    "magnetostatics.brent_calls": "count",
    "magnetostatics.brent_accept_ratio": "ratio",
    "fitting.iterations": "count",
    "fitting.model_evals": "count",
    "fitting.model_evals_per_iter": "ratio",
    "fitting.jacobian_s": "s",
    "fitting.converged_ratio": "ratio",
    "fitting.noisy_unconverged_ratio": "ratio",
}


class Tally:
    """Checked results: attempted, failed (any outcome but OK) and wrong."""

    def __init__(self):
        self.attempted = self.failed = self.wrong = 0

    def add(self, outcomes) -> None:
        self.attempted += len(outcomes)
        self.failed += sum(o != "ok" for o in outcomes)
        self.wrong += sum(o == "wrong" for o in outcomes)


@dataclasses.dataclass(frozen=True)
class _Query:
    degree: int
    order: int

    def __post_init__(self):
        if self.order > self.degree:
            raise ValueError("order must not exceed degree")


def _residual(x: float, q: _Query) -> float:
    z = complex(1.0 + 1.0 / (x - 0.3)) ** 0.5
    previous, current = 1.0 + 0.0j, z
    for n in range(2, q.degree + 1):
        previous, current = current, ((2 * n - 1) * z * current - (n - 1) * previous) / n
    return ((q.degree + 1) + z * previous / current - q.order * x).real


def _python_work() -> None:
    for k in range(700):
        q = _Query(degree=3 + k % 3, order=1)
        try:
            brentq(_residual, 0.5, 3.0, args=(q,), xtol=1e-9)
        except ValueError:  # no sign change in the bracket
            pass


def _csv_work() -> None:
    writer = csv.writer(io.StringIO())
    for k in range(1600):
        x = k * 1.2345678901e-3
        writer.writerow([format(x, ".17g"), format(7.0 * x, ".17g"), format(x / 3.0, ".17g")])


def _numpy_work() -> None:
    z = np.linspace(0.0, 1.0, 1501) + 0.5j
    for _ in range(440):
        z = 1.0 / (z * z + 1.0) + 0.5j


# Reference kernels that call no magnoncavity code, one per kind of work
# the workloads do (each workload's ``calibration`` names its kind): a
# root solve in the interpreter (a Python residual with complex
# recurrences refined by brentq, small validated dataclasses), float
# formatting through csv.writer, and numpy complex arithmetic on
# spectrum-sized arrays. Each tracks the machine's speed for its kind of
# work more closely than a mixed kernel does.
CALIBRATION_KERNELS = {"python": _python_work, "csv": _csv_work, "numpy": _numpy_work}


def calibrate(kind: str) -> float:
    """Seconds taken by one run of the reference kernel for ``kind``."""
    started = time.perf_counter()
    CALIBRATION_KERNELS[kind]()
    return time.perf_counter() - started


def speed_factor(before: float, after: float) -> float:
    return CALIBRATION_REFERENCE_S / (0.5 * (before + after))


def setup_child(name: str, seed: int, trace: bool, run_op: bool, small: bool) -> dict:
    """Set-up time (and peak memory if ``run_op``) of one fresh interpreter."""
    command = [sys.executable, str(common.BENCH / "setup_child.py"), name, str(seed)]
    command += [flag for flag, on in (("--trace", trace), ("--op", run_op), ("--small", small)) if on]
    started = time.monotonic()
    proc = subprocess.run(
        command, cwd=common.ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed ({proc.returncode}):\n{proc.stderr}")
    report = json.loads(proc.stdout.splitlines()[-1])
    report["setup_s"] = report["t_ready"] - started
    return report


def run_op(wl, ctx, prepared, golden, tally: Tally, spans=None):
    """One operation, timed, then checked outside the timed region.

    Returns (seconds, output, whether every check passed)."""
    started = time.perf_counter()
    try:
        if spans is None:
            output = wl.op(prepared)
        else:
            with spans.operation():
                output = wl.op(prepared)
    except Exception:  # a crashing operation is a wrong result; the run goes on
        traceback.print_exc(file=sys.stderr)
        tally.add(["wrong"])
        return time.perf_counter() - started, None, False
    elapsed = time.perf_counter() - started
    outcomes = wl.check(ctx, prepared, output, golden)
    tally.add(outcomes)
    return elapsed, output, all(o == "ok" for o in outcomes)


def tail(durations: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) of the operation-time tail.

    The slowest operation time that has ten samples beyond it once a run
    has 100 operations. A shorter run keeps a tenth of its samples, rounded
    up, beyond it, so a run of 8 operations reports its second slowest:
    a run of second-long operations is too short for ten.
    """
    ordered = sorted(durations)
    n = len(ordered)
    beyond = min(TAIL_SAMPLES_BEYOND, math.ceil(n / 10), n - 1)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def timed_run(wl, ctx, golden, tally: Tally, seconds: float, setups: list[dict]) -> tuple[dict, dict]:
    run_op(wl, ctx, wl.prepare(ctx, 0), golden, tally)  # warm-up, checked but not timed
    raw, durations, rates, succeeded = [], [], [], []
    deadline = time.perf_counter() + seconds
    calibration = [calibrate(wl.calibration)]
    k = 1
    while not durations or time.perf_counter() < deadline:
        prepared = wl.prepare(ctx, k)
        elapsed, _, ok = run_op(wl, ctx, prepared, golden, tally)
        calibration.append(calibrate(wl.calibration))
        raw.append(elapsed)
        durations.append(elapsed * speed_factor(calibration[-2], calibration[-1]))
        rates.append(wl.items(prepared) / durations[-1])
        succeeded.append(ok)
        k += 1
    # timing figures describe the operations that succeeded; failures show
    # in success_rate (a fit that does not converge runs to the iteration
    # cap and would otherwise decide the tail by how many a run happens to get)
    if any(succeeded):
        durations = [d for d, ok in zip(durations, succeeded) if ok]
        rates = [r for r, ok in zip(rates, succeeded) if ok]
    tail_value, tail_percentile, tail_beyond = tail(durations)
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "op_p50_s": statistics.median(durations),
        "op_tail_s": tail_value,
        "items_per_s": statistics.median(rates),
        "peak_rss_mb": max(s["maxrss_kb"] for s in setups if "maxrss_kb" in s) / 1024.0,
        "success_rate": (tally.attempted - tally.failed) / tally.attempted,
    }
    details = {
        "operations": len(raw),
        "operations_timed": len(durations),
        "op_tail_percentile": tail_percentile,
        "op_tail_samples_beyond": tail_beyond,
        "error_rate": tally.failed / tally.attempted,
        "raw_op_p50_s": statistics.median(raw),
        "durations_s": durations,
        "raw_durations_s": raw,
        "setup_s_samples": [s["setup_s"] for s in setups],
        "calibration_s": calibration,
    }
    return metrics, details


def traced_run(
    wl, ctx, golden, tally: Tally, n_ops: int, setups: list[dict], trace_path, probe_fits: int = 0
) -> tuple[dict, dict]:
    import tracer

    ops = [wl.prepare(ctx, k) for k in range(n_ops)]
    run_op(wl, ctx, ops[0], golden, tally)  # warm-up
    spans = tracer.Tracer()
    untraced, traced, outputs, rows, written = [], [], [], 0, 0
    # each operation runs untraced and then traced, back to back, so that
    # a change in machine speed falls on both sides of the overhead
    for prepared in ops:
        untraced.append(run_op(wl, ctx, prepared, golden, tally)[0])
        spans.install()
        try:
            elapsed, output, _ = run_op(wl, ctx, prepared, golden, tally, spans)
        finally:
            spans.uninstall()
        if tracer.wrapped_targets():
            raise RuntimeError(f"wrappers left installed: {tracer.wrapped_targets()}")
        traced.append(elapsed)
        outputs.append(output)
        if hasattr(wl, "output_stats"):
            r, b = wl.output_stats(prepared)
            rows, written = rows + r, written + b

    fits = [result for output in outputs if isinstance(output, list) for result in output]
    metrics = tracer.layer_metrics(spans, n_ops, fits)
    serialize_s = metrics["cli.serialize_s"]
    metrics.update(
        {
            "import_s": statistics.median(s["setup_s"] - s["load_s"] for s in setups),
            "config.load_s": statistics.median(s["load_s"] for s in setups),
            "config.calls": statistics.median(s["load_calls"] for s in setups),
            "trace.overhead_s": statistics.fmean(traced) - statistics.fmean(untraced),
            "cli.rows_out": rows / n_ops,
            "cli.bytes_out": written / n_ops,
            "cli.bytes_per_s": written / n_ops / serialize_s if serialize_s else 0.0,
        }
    )
    # untraced, after the layer metrics: the probe's non-converged fits are
    # the quantity it measures, not failed operations; a converged fit with
    # a wrong estimate is still an error
    probed = probe_fits if hasattr(wl, "convergence_probe") else 0
    unconverged = 0
    if probed:
        outcomes = wl.convergence_probe(ctx, probed)
        tally.add([o for o in outcomes if o == "wrong"])
        unconverged = sum(o == "failed" for o in outcomes)
    metrics["fitting.noisy_unconverged_ratio"] = unconverged / probed if probed else 0.0
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    spans.write_tsv(trace_path)
    op_s = metrics["op_traced_s"]
    details = {
        "operations": n_ops,
        "untraced_op_s": statistics.fmean(untraced),
        "self_share_by_layer": {k: v / n_ops / op_s for k, v in tracer.self_time_by_layer(spans).items()},
        "spans": len(spans.names),
        "probe_fits_unconverged": [unconverged, probed],
        "span_file": str(trace_path.relative_to(common.ROOT)),
    }
    return {name: metrics[name] for name in PER_LAYER_UNITS}, details


def git_commit() -> str | None:
    if not (common.ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=common.ROOT, capture_output=True, text=True, timeout=30, check=False
    )
    return proc.stdout.strip() or None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(common.PACKAGE.rglob("*.py")):
        digest.update(path.relative_to(common.SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(name: str, seed: int, trace: bool) -> dict:
    import scipy
    import yaml

    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in common.THREAD_VARIABLES},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def run(name: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    """One benchmark run; returns the result record (see the module docstring)."""
    import workloads

    wl = workloads.get(name)
    setup_runs = 2 if small else SETUP_RUNS
    setups = [setup_child(name, seed, trace, not trace and k == 0, small) for k in range(setup_runs)]
    golden = None if small else workloads.load_golden()
    tally = Tally()
    tally.add(workloads.check_configs(golden))
    ctx = wl.load(seed, small)
    if trace:
        n_ops = 2 if small else TRACE_OPS[name]
        trace_path = common.WORK / "trace" / f"{name}.tsv"
        probe_fits = 2 if small else PROBE_FITS
        metrics, details = traced_run(wl, ctx, golden, tally, n_ops, setups, trace_path, probe_fits)
        units = PER_LAYER_UNITS
    else:
        metrics, details = timed_run(wl, ctx, golden, tally, seconds, setups)
        units = END_TO_END_UNITS
    return {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "details": details,
        "provenance": provenance(name, seed, trace),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="magnoncavity benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        common.require_source_tree()
    except common.SourceTreeMissing as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    common.use_source_tree()

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    results = common.WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    print("provenance " + json.dumps(result["provenance"]))
    for key, value in result["details"].items():
        if not isinstance(value, list):
            print(f"{key} {json.dumps(value)}")
    for key, metric in result["metrics"].items():
        print(f"{key} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
