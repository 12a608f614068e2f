"""Every function the benchmark tracer wraps must exist in freeprob.

`bench/tracing.py` looks its functions up by name when it installs; removing
or renaming one of them breaks the benchmark, not the library.  The tracer
module is loaded by path and only read.
"""

import importlib
import pathlib
import types

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    # compiled from its text, so nothing is imported from or written under bench/
    module = types.ModuleType("bench_tracing_read_only")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_traced_layers_resolve_to_callables():
    tracing = load_tracing()
    missing = [
        f"{module_name}.{name}"
        for module_name, names in tracing.LAYERS.values()
        for name in names
        if not callable(getattr(importlib.import_module(module_name), name, None))
    ]
    assert missing == []


def test_counted_functions_are_traced_callables():
    tracing = load_tracing()
    traced = {
        name: getattr(importlib.import_module(module_name), name, None)
        for module_name, names in tracing.LAYERS.values()
        for name in names
    }
    assert [name for name in tracing.COUNTERS if not callable(traced.get(name))] == []
