"""The names the benchmark's tracer (perfbench/tracer.py) patches must exist.

The tracer wraps functions and methods by name from outside the package, so
deleting or renaming one of them would break ``perfbench/run.py --trace 1``
without failing any other test.
"""

from __future__ import annotations

import importlib.util
import sys
from dataclasses import fields
from pathlib import Path

import judgeval.cli  # noqa: F401  (imports every layer module, as the tracer does)
from judgeval.gateway import ChatResponse, Gateway, MockBackend

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_and_method_resolves():
    tracer = _load_tracer()
    for module_name, func_name, _span in tracer.FUNCTIONS:
        assert callable(getattr(sys.modules[module_name], func_name, None)), (
            f"{module_name}.{func_name}"
        )
    for module_name, class_name, method, _span in tracer.METHODS:
        cls = getattr(sys.modules[module_name], class_name, None)
        assert cls is not None, f"{module_name}.{class_name}"
        assert callable(getattr(cls, method, None)), f"{class_name}.{method}"


def test_gateway_exposes_what_the_tracer_reads(tmp_path):
    # the tracer wraps a fresh gateway's backoff sleep and reads the
    # ``cached`` flag of every response
    gateway = Gateway(MockBackend(seed=0), tmp_path / "cache.jsonl")
    assert callable(gateway._sleep)
    assert "cached" in {f.name for f in fields(ChatResponse)}
