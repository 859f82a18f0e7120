"""Every function in the package is reached by some command.

A fixed list of CLI invocations runs in-process under sys.settrace,
which records call events only. Every function and method defined in
src/orbitspectra must be entered by one of them; dunder methods are
exempt. A function that no command needs but a test does is named in
ALLOWED, with the test that needs it. A function that is in neither
fails here: delete it, or give it a caller.
"""

import inspect
import io
import os
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import orbitspectra
from orbitspectra import cli, exactla, graphs, perms, spectral

from test_bench_bindings import STAND_INS

MODULES = (cli, exactla, graphs, perms, spectral)
PACKAGE = Path(orbitspectra.__file__).resolve().parent

# reached by no command, each with the test that reaches it
ALLOWED = {
    # only a refutation reaches it; the test corrupts the closed form
    "cli._fail_line": "test_cli.py TestVerifyCommand",
}


def _invocations(tmp):
    """CLI argument lists: the benchmark stand-ins, the README's commands
    at small n, the families and formats they leave out, and input errors."""
    square = tmp / "square.edges"
    square.write_text("# a 4-cycle\np 4\ne 0 1\ne 1 2\ne 2 3\ne 3 0\n", encoding="utf-8")
    split = tmp / "split.edges"
    split.write_text("p 4\ne 0 1\ne 2 3\n", encoding="utf-8")
    malformed = tmp / "malformed.edges"
    malformed.write_text("p 3\ne 0 0\n", encoding="utf-8")
    hexagon = ("spectrum", "--family", "cycle", "--n", "6", "--method", "quotient-assisted")
    return [
        *(argv for invocations in STAND_INS.values() for argv in invocations),
        ("spectrum", "--family", "lcr", "--n", "5", "--format", "json"),
        ("spectrum", "--family", "line-johnson", "--n", "4", "--k", "2",
         "--method", "char-poly"),
        # lcr(6)'s 30 x 30 D is wide enough for Berkowitz's grouped mat-vec rows
        ("spectrum", "--family", "lcr", "--n", "6", "--method", "char-poly"),
        # lcr(7)'s 42 x 42 D is enough work for Berkowitz to fork a worker
        ("spectrum", "--family", "lcr", "--n", "7", "--method", "char-poly"),
        ("spectrum", "--input", str(square)),
        ("quotient", "--n", "4"),
        ("quotient", "--n", "4", "--format", "json"),
        ("scan", "--family", "crown", "--n", "3..4", "--format", "csv"),
        # lcr(3)'s two-point stabilizer is the identity group
        ("scan", "--family", "lcr", "--n", "3..4", "--method", "quotient-assisted",
         "--format", "json"),
        ("distances", "--family", "cycle", "--n", "6"),
        ("distances", "--family", "complete", "--n", "3", "--format", "json"),
        ("check-dr", "--family", "lcr", "--n", "4"),
        ("check-dr", "--family", "crown", "--n", "4", "--format", "json"),
        ("check-dr", "--family", "circulant", "--n", "6", "--connections", "1,2"),
        (*hexagon, "--stabilizer-gens", "(2 6)(3 5)", "--transitive-gens", "(1 2 3 4 5 6)"),
        ("spectrum", "--family", "cycle", "--n", "7", "--method", "quotient-assisted",
         "--stabilizer-gens", "(2 7)(3 6)(4 5)", "--transitive-gens", "(1 2 3 4 5 6 7)"),
        # input errors, exit 2
        ("spectrum", "--input", str(split)),
        ("spectrum", "--input", str(malformed)),
        (*hexagon, "--stabilizer-gens", "(2 6)(3 5)", "--transitive-gens", "(1 2)"),
        (*hexagon, "--stabilizer-gens", "(2 6)", "--transitive-gens", "(1 2 3 4 5 6)"),
    ]


def _defined_functions():
    """Code object -> 'module.qualname' for every function and method
    defined in the package's source files, dunder methods excluded."""
    found = {}

    def note(module, fn):
        code = getattr(fn, "__code__", None)
        if code is None or Path(code.co_filename).resolve().parent != PACKAGE:
            return
        if fn.__name__.startswith("__") and fn.__name__.endswith("__"):
            return
        found[code] = f"{module.__name__.rsplit('.', 1)[-1]}.{fn.__qualname__}"

    for module in MODULES:
        for obj in vars(module).values():
            if inspect.isfunction(obj):
                note(module, obj)
            elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                for attr in vars(obj).values():
                    if isinstance(attr, (classmethod, staticmethod)):
                        attr = attr.__func__
                    elif isinstance(attr, property):
                        attr = attr.fget
                    note(module, attr)
    return found


# Python 3.12+ warns on a fork beside numpy's idle BLAS thread
@pytest.mark.filterwarnings("ignore:This process .*multi-threaded:DeprecationWarning")
def test_every_function_is_reached_by_a_command(tmp_path, monkeypatch):
    # Berkowitz's split is entered on any machine: two usable CPUs, and a
    # worker may be forked, though numpy, once another test has imported
    # it, leaves an idle BLAS thread in this process
    may_fork = exactla._may_fork

    def may_fork_beside_blas():
        may_fork()  # entered all the same
        return True

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(exactla, "_may_fork", may_fork_beside_blas)
    defined = _defined_functions()
    assert set(ALLOWED) <= set(defined.values())
    invocations = _invocations(tmp_path)
    entered = set()

    def on_call(frame, event, arg):
        entered.add(frame.f_code)
        # no local trace function: line, return and exception events stay off

    previous = sys.gettrace()
    start = time.monotonic()
    statuses = []
    sys.settrace(on_call)
    try:
        for argv in invocations:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                statuses.append(cli.main(list(argv)))
    finally:
        sys.settrace(previous)
    elapsed = time.monotonic() - start

    expected = [0] * (len(invocations) - 4) + [2] * 4
    assert statuses == expected
    unreached = sorted(name for code, name in defined.items() if code not in entered)
    assert [name for name in unreached if name not in ALLOWED] == []
    assert elapsed < 1.0
