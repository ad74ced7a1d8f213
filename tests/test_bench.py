"""The benchmark's tracer still binds to the package.

``bench/tracer.py`` wraps the package's public functions by name, and
``bench/spec.py`` names the traced function each per-layer metric covers.
Deleting or renaming one of those functions breaks the traced benchmark;
these tests make it break tier-1 too.  ``bench/`` is read, never written:
its modules are imported without bytecode and dropped again afterwards.
"""

import functools
import importlib
import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench(monkeypatch):
    """``bench/`` on sys.path; yields an importer for its modules."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    loaded = []

    def load(name):
        assert name not in sys.modules, f"{name} shadows a loaded module"
        loaded.append(name)
        return importlib.import_module(name)
    yield load
    for name in loaded:
        sys.modules.pop(name, None)


def passthrough(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return fn(*args, **kwargs)
    return wrapper


def test_every_traced_function_can_be_wrapped(bench):
    tracer = bench("tracer")
    functions = tracer.traced_functions()
    wrappers = {name: passthrough(fn) for name, fn in functions.items()}
    with tracer.Patch(functions, wrappers) as patch:
        assert patch.replaced
    assert not patch.replaced


def test_every_covered_layer_names_a_traced_function(bench):
    tracer, spec = bench("tracer"), bench("spec")
    traced = set(tracer.traced_functions())
    covers = {row[-1] for row in spec.PER_LAYER} - {None}
    assert covers - traced == set()
