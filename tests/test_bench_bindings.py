"""Every function the benchmark tracer wraps still exists in the package.

perfbench/tracer.py wraps package functions by module and attribute
name, and skips a name it cannot resolve so that a benchmark run goes
on. A refactor that drops or renames such a name fails here instead of
silently losing a per-layer span.
"""

import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_binding_resolves():
    tracer = load_tracer()
    names = [(m, p) for m, p, _, _ in tracer.BINDINGS]
    names += [(m, p) for m, p, _ in tracer.COUNTED]
    unresolved = [f"{m}.{p}" for m, p in names if tracer._resolve(m, p) == (None, None)]
    assert unresolved == []
