"""The benchmark's per-layer tracer wraps ``oblivsim`` functions by name
(``benchmarks/tracing.py``). A rename in ``src/`` alone would break the
traced benchmark run while every other test stays green, so every name
it wraps is resolved here."""

from __future__ import annotations

import importlib.util
import inspect
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("oblivsim_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_benchmark_tracer_wraps_exists():
    tracing = load_tracing()
    names = [(owner, attr) for owner, attrs, _metric in tracing.TARGETS for attr in attrs]
    assert names
    for owner, attr in names:
        raw = inspect.getattr_static(owner, attr)
        assert isinstance(raw, (types.FunctionType, classmethod, staticmethod)), \
            f"{owner.__name__}.{attr}"
