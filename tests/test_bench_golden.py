"""The benchmark's own workloads reproduce its golden record.

bench/run.py refuses a run whose outputs differ from bench/golden.json; these
tests make the same comparison, so a change of output bytes fails here too.
bench/ is only read.
"""

import ast
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import magnoncavity as mc
from magnoncavity.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"
GOLDEN = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))


def workloads_constant(name: str):
    """A module-level constant of bench/workloads.py, read without importing it."""
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == [name]:
            return ast.literal_eval(node.value)
    raise KeyError(name)


@pytest.mark.parametrize("name, command", [("map_csv", "map"), ("walker_table", "modes")])
def test_cli_workload_matches_the_golden_digest(tmp_path, name, command):
    out = tmp_path / f"{name}.csv"
    assert main([command, str(BENCH / "inputs" / f"{name}.yaml"), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[name]


def test_eta_map_matches_the_golden_sample():
    config = mc.load_config(BENCH / "inputs" / "eta_map_8mode.yaml")
    values = mc.sweep_map(config.system, config.field_grid.values(), config.frequency_grid.values(), "eta").values
    reference = GOLDEN["eta_map_8mode"]
    ref = np.asarray(reference["values"])
    got = values[np.ix_(reference["rows"], reference["columns"])]
    limit = workloads_constant("ETA_RTOL") * np.abs(ref) + workloads_constant("ETA_ATOL") * np.max(np.abs(ref))
    assert np.all(np.abs(got - ref) <= limit)
