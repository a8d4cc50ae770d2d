"""Names other code reaches into the package by must keep resolving."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import l0screen

_TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("_l0screen_bench_tracer", _TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return [(layer, fname) for layer, fname, _ in mod.TARGETS]


@pytest.mark.parametrize("name", l0screen.__all__)
def test_public_name_resolves(name):
    assert getattr(l0screen, name) is not None


def test_benchmark_tracer_targets_resolve():
    # the benchmark's tracer wraps each (layer, function) by attribute
    # lookup, so a rename here breaks every traced benchmark run
    missing = [f"{layer}.{fname}" for layer, fname in _tracer_targets()
               if not callable(getattr(importlib.import_module(f"l0screen.{layer}"), fname, None))]
    assert not missing
