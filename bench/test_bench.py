"""Self-tests of the benchmark at small size.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import common

common.pin_threads()
common.use_source_tree()

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SEED = 3
FAKE_SETUPS = [{"setup_s": 1.0, "load_s": 0.25, "load_calls": 1}]

# Counts that must repeat exactly from one traced run to the next.
EXACT = [name for name, unit in run.PER_LAYER_UNITS.items() if unit in ("count", "B", "ratio")]


def traced(name: str, n_ops: int = 2):
    wl = workloads.get(name)
    ctx = wl.load(SEED, small=True)
    tally = run.Tally()
    path = common.WORK / "small" / f"trace-{name}.tsv"
    metrics, details = run.traced_run(wl, ctx, None, tally, n_ops, FAKE_SETUPS, path, probe_fits=2)
    return metrics, details, tally


def benchmark_json() -> dict:
    return json.loads((common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_units_match_benchmark_json():
    spec = benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(trace):
    result = run.run("walker_table", SEED, 0.2, trace, small=True)
    units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert result["metrics"] == {
        name: {"value": result["metrics"][name]["value"], "unit": unit} for name, unit in units.items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_repeat_exactly(name):
    first, _, _ = traced(name)
    second, _, _ = traced(name)
    assert {k: first[k] for k in EXACT} == {k: second[k] for k in EXACT}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_layers_are_seen_where_expected(name):
    metrics, _, tally = traced(name)
    assert tally.wrong == 0
    expect = {
        "map_csv": ("cli.rows_out", "scattering.denominator_calls"),
        "eta_map_8mode": ("scattering.denominator_calls", "model.susceptibility_calls"),
        "fit_batch": ("fitting.model_evals", "fitting.iterations"),
        "walker_table": ("cli.rows_out", "magnetostatics.solve_calls", "magnetostatics.brent_calls"),
    }[name]
    assert all(metrics[k] > 0 for k in expect)
    if name == "eta_map_8mode":
        assert metrics["scattering.denominator_points_per_cell"] == 8.0
    if name == "map_csv":
        assert metrics["scattering.denominator_points_per_cell"] == 1.0


def test_self_times_add_up_to_each_operation():
    wl = workloads.get("map_csv")
    ctx = wl.load(SEED, small=True)
    spans = tracer.Tracer()
    spans.install()
    try:
        for k in range(2):
            with spans.operation():
                wl.op(wl.prepare(ctx, k))
    finally:
        spans.uninstall()
    names, durations, self_times, parents, _ = spans.arrays()
    root = list(range(len(names)))
    for k in range(len(names)):
        while parents[root[k]] >= 0:
            root[k] = parents[root[k]]
    ops = [k for k in range(len(names)) if names[k] == tracer.ROOT_SPAN]
    assert len(ops) == 2
    for op in ops:
        covered = sum(self_times[k] for k in range(len(names)) if root[k] == op)
        assert covered == pytest.approx(durations[op], rel=1e-9, abs=1e-12)


def test_wrappers_are_removed_after_a_traced_run():
    targets = [t[:2] for t in tracer.SPAN_TARGETS + tracer.COUNT_TARGETS]
    modules = {m: __import__(m, fromlist=["_"]) for m, _ in targets}
    before = {(m, a): getattr(modules[m], a) for m, a in targets}
    traced("walker_table", n_ops=1)
    assert tracer.wrapped_targets() == []
    assert all(getattr(modules[m], a) is before[(m, a)] for m, a in targets)


def test_tail_keeps_samples_beyond():
    assert run.tail([float(k) for k in range(200)]) == (189.0, 95.0, 10)
    assert run.tail([float(k) for k in range(40)]) == (35.0, 90.0, 4)
    assert run.tail([4.0, 1.0, 3.0, 2.0]) == (3.0, 75.0, 1)
    assert run.tail([2.0]) == (2.0, 100.0, 0)


def test_exits_nonzero_without_the_source_tree(tmp_path):
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(common.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "map_csv", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
