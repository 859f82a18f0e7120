"""Benchmark workloads: seeded inputs, CLI invocations and output checks.

Graphs are generated here, independently of the package under test, and
written as vertex-relabelled edge lists; the program only ever sees the
``--input`` files. Each invocation carries the data its output is
checked against: closed forms for ``verify-lcr`` and ``quotient``, and
the spectra stored in ``expected.json`` for ``spectrum``.
"""

import json
import random
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

VERIFY_NS = tuple(range(4, 14))
QUOTIENT_N = 34

# workload -> (graph name, extra CLI arguments) for the spectrum workloads
SPECTRUM_WORKLOADS = {
    "rank-sweep": (("lcr-8", ()), ("line-johnson-6-2", ())),
    "char-poly": (
        ("lcr-10", ("--method", "char-poly")),
        ("line-johnson-7-2", ("--method", "char-poly")),
    ),
}
WORKLOADS = ("verify-lcr", "rank-sweep", "char-poly", "structure")


@dataclass(frozen=True)
class Invocation:
    """One CLI call: its arguments, a checker and the data it checks against."""

    argv: tuple
    check: object
    expect: object


# ---------------------------------------------------------------- graphs


def lcr_edges(n):
    """Line graph of the crown graph: ordered pairs (i, j), i != j,
    adjacent iff they agree in the first or in the second coordinate."""
    verts = [(i, j) for i in range(n) for j in range(n) if i != j]
    edges = [
        (a, b)
        for a, b in combinations(range(len(verts)), 2)
        if verts[a][0] == verts[b][0] or verts[a][1] == verts[b][1]
    ]
    return len(verts), edges


def line_johnson2_edges(n):
    """Line graph of the Johnson graph J(n, 2)."""
    points = list(combinations(range(n), 2))
    base = [
        (a, b)
        for a, b in combinations(range(len(points)), 2)
        if len(set(points[a]) & set(points[b])) == 1
    ]
    edges = [
        (x, y)
        for x, y in combinations(range(len(base)), 2)
        if set(base[x]) & set(base[y])
    ]
    return len(base), edges


def build_graph(name):
    """(vertex count, edge list) for a graph name such as 'lcr-8' or
    'line-johnson-6-2'."""
    if name.startswith("lcr-"):
        return lcr_edges(int(name[len("lcr-"):]))
    if name.startswith("line-johnson-"):
        n, k = (int(x) for x in name[len("line-johnson-"):].split("-"))
        if k != 2:
            raise ValueError(f"only k = 2 is generated, got {name}")
        return line_johnson2_edges(n)
    raise ValueError(f"unknown graph {name!r}")


def relabelled_edge_list(name, seed):
    """Edge-list text of the named graph under a seeded vertex relabelling,
    with edges listed in a seeded order and orientation."""
    count, edges = build_graph(name)
    rng = random.Random(f"{seed}/{name}")
    perm = list(range(count))
    rng.shuffle(perm)
    mapped = []
    for u, v in edges:
        a, b = perm[u], perm[v]
        mapped.append((a, b) if rng.random() < 0.5 else (b, a))
    rng.shuffle(mapped)
    lines = [f"p {count}"] + [f"e {a} {b}" for a, b in mapped]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- closed forms


def lcr_distinct(n):
    """Distinct distance eigenvalues of the crown line graph (the paper's set)."""
    return sorted({-n - 1, -n + 3, -1, 1, 2 * n * n - 4 * n + 3})


def lcr_quotient(n):
    """Closed-form 7x7 stabilizer-orbit quotient of the crown line graph,
    cells ordered by representatives (1,2) (1,3) (3,1) (2,1) (2,3) (3,2) (3,4)."""
    a, b, c = n - 2, n - 3, 2 * n - 5
    return [
        [0, a, 2 * a, 3, 2 * a, a, 2 * a * b],
        [1, b, c + 2, 2, c, 2 * a, b * c],
        [2, c + 2, b, 1, 2 * a, c, b * c],
        [3, 2 * a, a, 0, a, 2 * a, 2 * a * b],
        [2, c, 2 * a, 1, b, c + 2, b * c],
        [1, 2 * a, c, 2, c + 2, b, b * c],
        [2, c, c, 2, c, c, 2 * (n - 4) * a + 3],
    ]


def lcr_cell_sizes(n):
    return [1, n - 2, n - 2, 1, n - 2, n - 2, (n - 2) * (n - 3)]


# ---------------------------------------------------------------- checks


def check_verify_lcr(stdout, expect):
    """expect: {n: sorted distinct eigenvalues}. One PASS line per n."""
    lines = stdout.splitlines()
    if len(lines) != len(expect):
        return f"expected {len(expect)} lines, got {len(lines)}"
    for line, (n, values) in zip(lines, sorted(expect.items())):
        want = f"n={n}: PASS distinct eigenvalues " + " ".join(str(v) for v in values)
        if line != want:
            return f"got {line!r}, expected {want!r}"
    return None


def check_quotient(stdout, expect):
    """expect: {"n", "sizes", "matrix"}."""
    lines = stdout.splitlines()
    n, sizes, matrix = expect["n"], expect["sizes"], expect["matrix"]
    if len(lines) != 2 + len(sizes) + len(matrix):
        return f"unexpected line count {len(lines)}"
    if lines[0] != f"quotient matrix of lcr n={n} over the stabilizer orbits":
        return f"bad header {lines[0]!r}"
    got_sizes = [int(line.rsplit(" ", 1)[1]) for line in lines[1:1 + len(sizes)]]
    if got_sizes != sizes:
        return f"cell sizes {got_sizes}, expected {sizes}"
    rows = [[int(x) for x in line.split()] for line in lines[1 + len(sizes):-1]]
    if rows != matrix:
        return "quotient matrix differs from the closed form"
    if lines[-1] != "matches closed form: yes":
        return f"last line {lines[-1]!r}"
    return None


def parse_polynomial(text):
    """Coefficients, constant term first, of 'x^3 - 2*x + 7'-style text."""
    coeffs = {}
    for term in text.replace(" - ", " + -").split(" + "):
        sign = -1 if term.startswith("-") else 1
        term = term.lstrip("-")
        if "x" not in term:
            coef, power = int(term), 0
        else:
            head, _, tail = term.partition("x")
            coef = int(head.rstrip("*")) if head else 1
            power = int(tail[1:]) if tail else 1
        coeffs[power] = coeffs.get(power, 0) + sign * coef
    return [coeffs.get(k, 0) for k in range(max(coeffs) + 1)]


def check_spectrum(stdout, expect):
    """expect: {"order", "eigenvalues": [[v, m], ...], "residual": coeffs or None}."""
    lines = stdout.splitlines()
    fields = dict(line.split(": ", 1) for line in lines if ": " in line)
    if fields.get("order") != str(expect["order"]):
        return f"order {fields.get('order')!r}, expected {expect['order']}"
    pairs = [[int(v), int(m)] for v, m in (t.split("^") for t in fields.get("eigenvalues", "").split())]
    if pairs != expect["eigenvalues"]:
        return f"eigenvalues {pairs}, expected {expect['eigenvalues']}"
    residual = fields.get("residual")
    got_residual = parse_polynomial(residual) if residual else None
    want_residual = [int(c) for c in expect["residual"]] if expect["residual"] else None
    if got_residual != want_residual:
        return f"residual {residual!r} differs from the stored factor"
    verdict = "distance integral: yes" if want_residual is None else "NOT distance integral"
    if verdict not in lines:
        return f"missing verdict {verdict!r}"
    if fields.get("distinct", "").split() != [str(v) for v, _ in pairs]:
        return "distinct line disagrees with the eigenvalue line"
    return None


# ---------------------------------------------------------------- workloads


def load_expected():
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def make_invocations(workload, seed, workdir):
    """Write the workload's inputs for this seed under workdir and return
    its invocations, in the order one pass runs them."""
    if workload == "verify-lcr":
        expect = {n: lcr_distinct(n) for n in VERIFY_NS}
        argv = ("verify-lcr", "--n", f"{VERIFY_NS[0]}..{VERIFY_NS[-1]}")
        return [Invocation(argv, check_verify_lcr, expect)]
    if workload == "structure":
        n = QUOTIENT_N
        expect = {"n": n, "sizes": lcr_cell_sizes(n), "matrix": lcr_quotient(n)}
        return [Invocation(("quotient", "--n", str(n)), check_quotient, expect)]
    if workload not in SPECTRUM_WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    expected = load_expected()
    workdir.mkdir(parents=True, exist_ok=True)
    out = []
    for name, extra in SPECTRUM_WORKLOADS[workload]:
        path = workdir / f"{name}.edges"
        path.write_text(relabelled_edge_list(name, seed), encoding="utf-8")
        argv = ("spectrum", "--input", str(path)) + tuple(extra)
        out.append(Invocation(argv, check_spectrum, expected[name]))
    return out
