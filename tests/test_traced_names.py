"""The benchmark's tracer finds every function it is told to wrap.

``bench/tracing.py`` wraps each ``(module, function)`` pair in ``TRACED``
with ``getattr``, so a renamed or removed function would crash a traced
benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _traced_pairs():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("module_name, function_name", _traced_pairs())
def test_traced_function_exists(module_name, function_name):
    module = importlib.import_module(f"beamtrack.{module_name}")
    assert callable(getattr(module, function_name, None))
