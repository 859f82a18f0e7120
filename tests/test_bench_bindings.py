"""The benchmark tracer still sees the package.

perfbench/tracer.py wraps package functions by module and attribute
name, and skips a name it cannot resolve so that a benchmark run goes
on. A refactor that drops or renames such a name fails here instead of
silently losing a per-layer span. perfbench/selftest.py pins, in
MUST_FIRE, which spans each workload must fire; small stand-ins for the
workloads check those pins here in well under two seconds, where the
selftest takes minutes.
"""

import importlib.util
import io
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from orbitspectra import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# workload -> small CLI invocations that reach the same spans
STAND_INS = {
    "verify-lcr": (("verify-lcr", "--n", "4..5"),),
    "structure": (("quotient", "--n", "5"),),
    # as on the workload, one integral graph and one that is not: both
    # expand det(xI - D); lcr(5) then ranks all but its Perron value, and
    # the heptagon's residual factor leaves nothing to rank
    "rank-sweep": (
        ("spectrum", "--family", "lcr", "--n", "5"),
        ("spectrum", "--family", "cycle", "--n", "7"),
    ),
    "char-poly": (("spectrum", "--family", "cycle", "--n", "7", "--method", "char-poly"),),
}


def load_perfbench(name):
    """perfbench/<name>.py as a module, without leaving perfbench on sys.path
    or its sibling modules in sys.modules."""
    path, modules = list(sys.path), set(sys.modules)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
        for added in set(sys.modules) - modules:
            if Path(getattr(sys.modules[added], "__file__", None) or "").parent == PERFBENCH:
                del sys.modules[added]
    return module


def traced(tracer_module, argv):
    """(exit status, span name -> calls, names that fired) of one traced run."""
    tracer = tracer_module.Tracer()
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        with tracer.installed():
            status = cli.main(list(argv))
    calls = {name: row["calls"] for name, row in tracer.summary().items()}
    fired = {name for name, n in calls.items() if n}
    fired |= {name for name, value in tracer.counts.items() if value}
    assert tracer.unbound == []
    return status, calls, fired


def test_every_binding_resolves():
    tracer = load_perfbench("tracer")
    names = [(m, p) for m, p, _, _ in tracer.BINDINGS]
    names += [(m, p) for m, p, _ in tracer.COUNTED]
    unresolved = [f"{m}.{p}" for m, p in names if tracer._resolve(m, p) == (None, None)]
    assert unresolved == []


def test_every_pinned_span_fires_on_its_workload():
    tracer = load_perfbench("tracer")
    selftest = load_perfbench("selftest")
    assert set(STAND_INS) == set(selftest.WORKLOADS)
    start = time.monotonic()
    missing = []
    workload_calls = {}
    for workload, invocations in STAND_INS.items():
        fired = set()
        totals = workload_calls[workload] = Counter()
        for argv in invocations:
            status, calls, names = traced(tracer, argv)
            assert status == 0, argv
            fired |= names
            totals.update(calls)
        pinned = {name for name, on in selftest.MUST_FIRE.items() if workload in on}
        missing += [f"{workload}: {name}" for name in sorted(pinned - fired)]
    assert missing == []
    # verify-lcr --n 4..5, per n: the quotient's BFS from its 7 cell
    # representatives, one BFS from every vertex for D, one quotient and
    # one det(xI - Q)
    verify_calls = workload_calls["verify-lcr"]
    assert verify_calls["graphs.bfs"] == 4
    assert verify_calls["spectral.quotient"] == 2
    assert verify_calls["exactla.charpoly"] == 2
    # quotient --n 5: the quotient's one BFS from its 7 cell
    # representatives, and one quotient; D is never built
    structure_calls = workload_calls["structure"]
    assert structure_calls["graphs.bfs"] == 1
    assert structure_calls["spectral.quotient"] == 1
    assert time.monotonic() - start < 2.0
