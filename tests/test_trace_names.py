"""The benchmark tracer's span names must name live package functions.

``benchmarks/bench_trace.py`` wraps functions by name from outside the
package.  A name that no longer resolves would not fail the traced run: its
per-layer metrics would silently read 0.  This pins every traced name to the
package's public surface.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

TRACE_FILE = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_trace.py"


@pytest.fixture(scope="module")
def bench_trace():
    spec = importlib.util.spec_from_file_location("_bench_trace_names", TRACE_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_spans_are_public_functions_or_traced_methods(bench_trace):
    names = list(bench_trace.ITEM_SPANS) + list(bench_trace.SETUP_SPANS)
    assert names
    for name in names:
        layer, _, attr = name.partition(".")
        assert layer in bench_trace.LAYERS, name
        module = importlib.import_module(f"varcarleson.{layer}")
        if "." in attr:
            cls_name, method = attr.split(".")
            assert (cls_name, method) in bench_trace.METHODS.get(layer, ()), name
            assert method in vars(getattr(module, cls_name)), name
        else:
            assert attr in module.__all__, name
            assert callable(getattr(module, attr)), name


def test_traced_cli_functions_exist(bench_trace):
    cli = importlib.import_module("varcarleson.cli")
    assert bench_trace.CLI_FUNCTIONS
    for attr in bench_trace.CLI_FUNCTIONS:
        assert callable(getattr(cli, attr, None)), attr


def test_module_exports_resolve():
    # the tracer reads every traced layer's ``__all__`` with ``getattr``, so a
    # stale export left by a trim would crash every traced run
    package = importlib.import_module("varcarleson")
    modules = [package] + [
        importlib.import_module(f"varcarleson.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
    ]
    assert len(modules) > 1
    for module in modules:
        for attr in module.__all__:
            assert hasattr(module, attr), f"{module.__name__}.{attr}"
