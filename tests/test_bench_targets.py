"""The functions the benchmark's tracer patches by name must keep existing.

bench/tracer.py wraps each of its TARGETS at every binding; a target that no
longer resolves breaks every traced benchmark pass, so it is checked here.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_tracer_target_resolves():
    if not TRACER.is_file():
        pytest.skip("the benchmark's tracer.py is not present")
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for name, module, attribute in tracer.TARGETS:
        holder, attr, original = tracer._resolve(module, attribute)
        assert callable(original), name
