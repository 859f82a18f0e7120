#!/usr/bin/env python3
"""Self-test of the benchmark itself.

- The stored spectra still agree with numpy.linalg.eigvalsh.
- Every output check passes on real output and fails once its expectation
  is corrupted.
- Every named span fires on the workloads listed for it, and every count
  metric repeats exactly between two traced runs with the same seed.
- run.py exits non-zero, without a result line, in a directory that holds
  only BENCHMARK.json and perfbench/.

Usage, from the repository root (about two minutes):
    python3 perfbench/selftest.py [--seed N]
"""

import argparse
import copy
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import BINDINGS, COUNTED, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    check_quotient,
    check_spectrum,
    check_verify_lcr,
    load_expected,
    make_invocations,
)

# span or counter name -> workloads on which it must fire
MUST_FIRE = {
    "cli.main": WORKLOADS,
    "graphs.build": WORKLOADS,
    "graphs.bfs": WORKLOADS,
    "kernels.bfs": WORKLOADS,
    "perms.gens": ("verify-lcr", "structure"),
    "perms.orbits": ("verify-lcr", "structure"),
    "perms.transitivity": ("verify-lcr",),
    "perms.edge_checks": ("verify-lcr",),
    "spectral.verify_lcr": ("verify-lcr",),
    "spectral.is_distance_integral": ("rank-sweep", "char-poly"),
    "spectral.distance_spectrum": ("verify-lcr", "rank-sweep", "char-poly"),
    "spectral.closed_form": ("verify-lcr", "structure"),
    "spectral.quotient": ("verify-lcr", "structure"),
    "exactla.rank": ("verify-lcr", "rank-sweep"),
    "kernels.bareiss": ("verify-lcr", "rank-sweep"),
    "exactla.charpoly": ("verify-lcr", "rank-sweep", "char-poly"),
    "exactla.roots": ("verify-lcr", "rank-sweep", "char-poly"),
    "kernels.berkowitz": ("verify-lcr", "rank-sweep", "char-poly"),
    "exactla.intmatrix": WORKLOADS,
}


def corruptions(inv):
    """(label, corrupted copy of inv.expect) pairs the check must reject."""
    if inv.check is check_verify_lcr:
        top = max(inv.expect)
        bad = copy.deepcopy(inv.expect)
        bad[top][-1] += 1
        yield "Perron value", bad
        bad = copy.deepcopy(inv.expect)
        del bad[top]
        yield "n range", bad
    elif inv.check is check_quotient:
        bad = copy.deepcopy(inv.expect)
        bad["matrix"][6][6] += 1
        yield "quotient entry", bad
        bad = copy.deepcopy(inv.expect)
        bad["sizes"][1] += 1
        yield "cell size", bad
    elif inv.check is check_spectrum:
        bad = copy.deepcopy(inv.expect)
        bad["eigenvalues"][0][1] += 1
        yield "multiplicity", bad
        bad = copy.deepcopy(inv.expect)
        bad["residual"] = None if bad["residual"] else ["1", "0", "1"]
        yield "residual", bad
    else:
        raise AssertionError(f"no corruptions defined for {inv.check.__name__}")


def traced_counts(invocations):
    tracer = Tracer()
    result = run.inprocess_pass(invocations, tracer)
    metrics = run.layer_metrics(tracer, 0)
    counts = run.counts_only(metrics)
    fired = {name for name, row in tracer.summary().items() if row["calls"]}
    fired |= {name for name, value in tracer.counts.items() if value}
    return result, counts, fired, tracer


def check_workload(workload, seed, problems):
    workdir = run.WORK / f"selftest-{workload}"
    invocations = make_invocations(workload, seed, workdir)
    first, counts_a, fired, tracer = traced_counts(invocations)
    second, counts_b, _, _ = traced_counts(invocations)
    for row in first["invocations"] + second["invocations"]:
        if row["error"]:
            problems.append(f"{workload}: {' '.join(row['argv'])}: {row['error']}")
    if counts_a != counts_b:
        diff = {k: (counts_a[k], counts_b.get(k)) for k in counts_a if counts_a[k] != counts_b.get(k)}
        problems.append(f"{workload}: counts differ between two traced runs: {diff}")
    for name, workloads in MUST_FIRE.items():
        if workload in workloads and name not in fired:
            problems.append(f"{workload}: span or counter {name} did not fire")
    if tracer.unbound:
        problems.append(f"{workload}: bindings missing: {sorted(set(tracer.unbound))}")
    for inv, row in zip(invocations, first["invocations"]):
        for label, bad in corruptions(inv):
            if inv.check(row["stdout"], bad) is None:
                problems.append(f"{workload}: corrupted {label} was not caught")
    summary = tracer.summary()
    dominant = max(summary, key=lambda n: summary[n]["self_s"])
    print(
        f"{workload}: {first['wall_s']:.2f} s traced; largest self time in {dominant}; "
        f"bfs {counts_a['graphs.bfs_calls']}, rank {counts_a['exactla.rank_calls']}, "
        f"quotient {counts_a['spectral.quotient_calls']}, "
        f"char-poly {counts_a['exactla.charpoly_calls']} calls",
        file=sys.stderr,
    )
    shutil.rmtree(workdir, ignore_errors=True)


def check_bare_directory(problems):
    """run.py must refuse, without a result, where the package is absent."""
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "structure",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    import make_expected

    problems = []
    stored = load_expected()
    problems += [p for p in (make_expected.numpy_disagreement(n, stored[n]) for n in make_expected.GRAPHS) if p]
    declared = {s for _, _, s, _ in BINDINGS} | {c for _, _, c in COUNTED}
    problems += [f"no coverage rule for {name}" for name in sorted(declared - set(MUST_FIRE))]
    for workload in WORKLOADS:
        check_workload(workload, args.seed, problems)
    check_bare_directory(problems)
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    print("selftest: " + ("FAILED" if problems else "ok"), file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
