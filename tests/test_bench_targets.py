"""The benchmark tracer wraps package functions by module and attribute name.

A rename or deletion of a traced function would otherwise surface only in a
traced benchmark run, as an AttributeError in the middle of it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = load_tracer()
TARGETS = [target[:2] for target in TRACER.SPAN_TARGETS + TRACER.COUNT_TARGETS]


@pytest.mark.parametrize("module_name, attr", TARGETS, ids=[f"{m}.{a}" for m, a in TARGETS])
def test_traced_target_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))
