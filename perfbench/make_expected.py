#!/usr/bin/env python3
"""Compute and cross-check the spectra stored in expected.json.

Each graph's exact distance spectrum is computed with both exact methods
of the package (rank-sweep and char-poly), which must agree, and then
compared with numpy.linalg.eigvalsh on a distance matrix built by this
file's own BFS. Only spectra that pass both checks are written.

Usage, from the repository root (takes a few minutes):
    python3 perfbench/make_expected.py

selftest.py re-checks the stored file against eigvalsh.
"""

import argparse
import json
import sys
from collections import deque
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import EXPECTED_PATH, SPECTRUM_WORKLOADS, build_graph  # noqa: E402

GRAPHS = [name for pairs in SPECTRUM_WORKLOADS.values() for name, _ in pairs]


def distance_matrix(count, edges):
    adj = [[] for _ in range(count)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    rows = []
    for src in range(count):
        row = [-1] * count
        row[src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if row[w] < 0:
                    row[w] = row[u] + 1
                    queue.append(w)
        if min(row) < 0:
            raise ValueError("graph is disconnected")
        rows.append(row)
    return numpy.array(rows, dtype=float)


def numpy_disagreement(name, entry):
    """None if the stored spectrum matches eigvalsh, else a message."""
    count, edges = build_graph(name)
    if entry["order"] != count:
        return f"{name}: order {entry['order']} != {count} vertices"
    rest = numpy.linalg.eigvalsh(distance_matrix(count, edges))
    for value, mult in entry["eigenvalues"]:
        near = numpy.abs(rest - value) < 1e-6
        if int(near.sum()) != mult:
            return f"{name}: eigvalsh has {int(near.sum())} eigenvalues at {value}, not {mult}"
        rest = rest[~near]
    # the residual may have repeated factors, whose roots numpy.roots
    # resolves poorly; compare the monic polynomial of the remaining
    # eigenvalues instead
    want = [int(c) for c in reversed(entry["residual"] or ["1"])]
    if rest.size != len(want) - 1:
        return f"{name}: {rest.size} non-integer eigenvalues for a residual of degree {len(want) - 1}"
    got = numpy.poly(rest) if rest.size else numpy.ones(1)
    error = float(numpy.max(numpy.abs(got - want))) / max(abs(c) for c in want)
    if error > 1e-7:
        return f"{name}: residual differs from eigvalsh by {error:.3g} (relative)"
    return None


def exact_spectrum(name):
    from orbitspectra.graphs import Graph
    from orbitspectra.spectral import distance_spectrum

    count, edges = build_graph(name)
    g = Graph(count, edges)
    by_rank = distance_spectrum(g, "rank-sweep")
    by_poly = distance_spectrum(g, "char-poly")
    if by_rank != by_poly:
        raise SystemExit(f"{name}: rank-sweep {by_rank} != char-poly {by_poly}")
    residual = by_poly.residual
    return {
        "order": by_poly.order,
        "eigenvalues": [[v, m] for v, m in by_poly.integer_part],
        "residual": None if residual is None else [str(c) for c in residual.coefficients],
    }


def main():
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    stored = {}
    for name in GRAPHS:
        print(f"{name}: exact spectra ...", file=sys.stderr)
        stored[name] = exact_spectrum(name)
    problems = [p for p in (numpy_disagreement(n, stored[n]) for n in GRAPHS) if p]
    for p in problems:
        print(p, file=sys.stderr)
    if problems:
        return 1
    lines = [f" {json.dumps(name)}: {json.dumps(stored[name])}" for name in GRAPHS]
    EXPECTED_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"{len(GRAPHS)} spectra agree with eigvalsh", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
