"""The benchmark's span tracer finds every function it wraps by name.

``bench/tracing.py`` looks its targets up with ``getattr``, so a rename in
the package would only show up as a failed traced benchmark run.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves(tracing):
    for mod_name, funcs in tracing.TRACED.values():
        module = importlib.import_module(mod_name)
        for name in funcs:
            assert callable(getattr(module, name, None)), f"{mod_name}.{name}"


def test_trace_path_takes_settings_fourth(tracing):
    # _trace_corrector reads the settings from args[3] of a positional call
    from flutterspec.continuation import ContinuationSettings, trace_path
    assert list(inspect.signature(trace_path).parameters)[3] == "settings"
    settings = ContinuationSettings(corrector="newton")
    assert tracing._trace_corrector((None, None, 1, settings), {}) == "newton"
