"""Shared fixtures: the test corpus and group actions for each family.

Each corpus entry carries a singleton-cell orbit partition (from an
explicit subgroup of automorphisms) and generators witnessing
vertex-transitivity, so the quotient-assisted method is applicable
everywhere and the three spectrum methods can be cross-validated.
"""

from collections import Counter, deque
from fractions import Fraction
from itertools import combinations
from math import gcd
from operator import itemgetter, mul

import pytest

from orbitspectra.exactla import IntMatrix, bareiss_echelon
from orbitspectra.graphs import (
    build_circulant,
    build_crown,
    build_cycle,
    build_johnson,
    build_lcr,
)
from orbitspectra.perms import (
    GeneratorSet,
    Permutation,
    lcr_automorphism_gens,
    lcr_stabilizer_gens,
    orbits,
)


def bfs_reference(n, adj):
    """All-pairs BFS by a queue from every source, -1 where unreachable:
    the oracle for graphs.bfs_all_pairs."""
    dist = []
    for src in range(n):
        row = [-1] * n
        row[src] = 0
        queue = deque((src,))
        while queue:
            u = queue.popleft()
            du = row[u] + 1
            for w in adj[u]:
                if row[w] < 0:
                    row[w] = du
                    queue.append(w)
        dist.append(tuple(row))
    return dist


def _totient(n):
    return sum(1 for j in range(1, n + 1) if gcd(j, n) == 1)


def _mobius(n):
    sign, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


def ramanujan_sum(q, k):
    """c_q(k), the sum of zeta_q^(jk) over the units j mod q, by von
    Sterneck's formula: mu(q/g) phi(q) / phi(q/g), g = gcd(q, k)."""
    m = q // gcd(q, k)
    return _mobius(m) * _totient(q) // _totient(m)


def circulant_spectrum(n, connections):
    """Distance spectrum of the connected circulant C(n, connections) with
    no matrix, as ascending (value, multiplicity) pairs, or None when it
    is not integral: the oracle for the spectrum methods on circulants.

    f(j), the distance from 0 to j, comes from one BFS over j +- s mod n.
    D is circulant with first row f, so its eigenvalues are
    lam_k = sum_j f(j) zeta^(jk), k = 0..n-1. They are integers iff f is
    constant on each class {j : gcd(j, n) = d} (So, "Integral circulant
    graphs", Discrete Math. 306, 2006). The class of d sums zeta^(jk) to
    the Ramanujan sum c_(n/d)(k), so lam_k = sum_(d | n) f_d c_(n/d)(k).
    """
    f = [0] + [-1] * (n - 1)
    level = [0]
    while level:
        succ = []
        for u in level:
            for w in {(u + s) % n for s in connections} | {(u - s) % n for s in connections}:
                if f[w] < 0:
                    f[w] = f[u] + 1
                    succ.append(w)
        level = succ
    classes = {}
    for j in range(1, n):
        classes.setdefault(gcd(j, n), set()).add(f[j])
    if any(len(values) > 1 for values in classes.values()):
        return None
    values = Counter(
        sum(f_d * ramanujan_sum(n // d, k) for d, (f_d,) in classes.items()) for k in range(n)
    )
    return sorted(values.items())


# the Mersenne prime 2^61 - 1, the modulus of charpoly_mod's cross-checks
SCREEN_PRIME = (1 << 61) - 1


def charpoly_mod(rows, p):
    """Characteristic polynomial of a square integer matrix modulo a prime p:
    the mod-p oracle for Berkowitz.

    Returns the monic coefficient list, constant term first. The matrix
    is brought to upper Hessenberg form by similarity mod p (pivot
    search, row/column swap, elimination with the matching column
    update), then the Hessenberg recurrence builds the leading principal
    characteristic polynomials p_1, ..., p_n (Cohen, *A Course in
    Computational Algebraic Number Theory*, 2.2.4): O(n^3) word-size
    operations, on a route that shares nothing with Berkowitz's.

    The elementary matrices I - u_i e_i e_m^T of one elimination step
    (i > m, one pivot row m) commute, and their product L leaves row m
    alone. So each step first applies every row update from the
    unchanged pivot row, then the column update of L^-1 in one pass over
    the rows, r[m] += sum_i u_i r[i], with the rows already updated: the
    same matrix L H L^-1 as one update pair per row.
    """
    n = len(rows)
    h = [[x % p for x in row] for row in rows]
    for m in range(1, n - 1):
        c = m - 1
        piv = next((i for i in range(m, n) if h[i][c]), None)
        if piv is None:
            continue
        if piv != m:
            h[piv], h[m] = h[m], h[piv]
            for row in h:
                row[piv], row[m] = row[m], row[piv]
        inv = pow(h[m][c], p - 2, p)
        hm = h[m]
        targets, factors = [m], [1]
        for i in range(m + 1, n):
            u = h[i][c] * inv % p
            if u:
                # row_i -= u row_m; row m itself is left as it was
                h[i] = [(a - u * b) % p for a, b in zip(h[i], hm)]
                targets.append(i)
                factors.append(u)
        if len(targets) > 1:
            # then column_m += sum of u_i column_i, in one pass over the rows
            gather = itemgetter(*targets)
            for row in h:
                row[m] = sum(map(mul, factors, gather(row))) % p
    # polys[k] is the characteristic polynomial of the leading k x k block
    polys = [[1]]
    for m in range(n):
        prev = polys[m]
        diag = h[m][m]
        new = [0] + prev
        for k, x in enumerate(prev):
            new[k] = (new[k] - diag * x) % p
        t = 1
        for i in range(m - 1, -1, -1):
            t = t * h[i + 1][i] % p
            if not t:
                break
            coef = h[i][m] * t % p
            if coef:
                for k, x in enumerate(polys[i]):
                    new[k] = (new[k] - coef * x) % p
        polys.append(new)
    return polys[n]


def det(m):
    """Exact determinant of a square IntMatrix: Bareiss's last pivot, up to
    the sign of its row swaps. The oracle for the constant term of
    char_poly."""
    if not m.is_square:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    r, sign, pivot_cols, ech = bareiss_echelon(m.entries)
    if r < n:
        return 0
    return sign * ech[n - 1][pivot_cols[-1]]


def rank(m):
    """Rank of an IntMatrix over the rationals, by bareiss_echelon."""
    if m.rows == 0 or m.cols == 0:
        return 0
    return bareiss_echelon(m.entries)[0]


def shift_diagonal(m, lam):
    """m - lam * I for a square IntMatrix m."""
    if not m.is_square:
        raise ValueError("diagonal shift of a non-square matrix")
    return IntMatrix(
        [
            [x - lam if i == j else x for j, x in enumerate(row)]
            for i, row in enumerate(m.entries)
        ]
    )


def fraction_rank(m):
    """Rank of an IntMatrix by textbook Gaussian elimination over Fractions:
    the oracle for exactla.rank and bareiss_echelon."""
    rows = [[Fraction(x) for x in row] for row in m.entries]
    r = 0
    for c in range(m.cols):
        pivot = next((i for i in range(r, m.rows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(m.rows):
            if i != r and rows[i][c]:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def _check_pair(n, p):
    i, j = p
    if not (1 <= i <= n and 1 <= j <= n) or i == j:
        raise ValueError(f"({i},{j}) is not a valid ordered pair over [1..{n}]")
    return i, j


def lcr_distance(n, a, b):
    """Closed-form distance between pair vertices of the crown line graph:
    the oracle for BFS on build_lcr(n).

    0 for equal pairs, 1 when the first or second coordinates agree,
    3 between (i, j) and (j, i), and 2 in every remaining case.
    """
    if n < 4:
        raise ValueError("closed-form distance defined for n >= 4")
    i, j = _check_pair(n, a)
    r, s = _check_pair(n, b)
    if (i, j) == (r, s):
        return 0
    if i == r or j == s:
        return 1
    if (r, s) == (j, i):
        return 3
    return 2


def is_isomorphism(g, h, mapping):
    """Check an explicit vertex bijection g -> h for edge preservation."""
    n = g.vertex_count
    if h.vertex_count != n or sorted(mapping) != list(range(n)):
        return False
    if len(g.edges()) != len(h.edges()):
        return False
    return all(h.has_edge(mapping[u], mapping[v]) for u, v in g.edges())


def quotient_reference(g, pi):
    """Cell sums of every row of g's distance matrix over pi, required to
    agree across each cell; the rows of the first members, as an IntMatrix.
    The full-scan oracle for spectral.quotient_matrix, which reads one row
    per cell."""
    sums = []
    for dv in bfs_reference(g.vertex_count, g.adjacency):
        row = [0] * pi.cell_count
        for w, dw in enumerate(dv):
            row[pi.cell_of[w]] += dw
        sums.append(row)
    for k, cell in enumerate(pi.cells):
        for v in cell[1:]:
            if sums[v] != sums[cell[0]]:
                raise ValueError(f"not equitable: cell {k} members {cell[0]} and {v} differ")
    return IntMatrix([sums[cell[0]] for cell in pi.cells])


def rotation_perm(n):
    return Permutation([(v + 1) % n for v in range(n)])


def reflection_perm(n):
    return Permutation([(-v) % n for v in range(n)])


def along_cycle(walk):
    """Vertex mapping onto build_cycle(len(walk)): walk[k] goes to k."""
    mapping = [None] * len(walk)
    for k, v in enumerate(walk):
        mapping[v] = k
    return mapping


def crown_sym_perm(n, alpha_images):
    """alpha in Sym([1..n]) acting simultaneously on both crown sides."""
    return Permutation(
        [alpha_images[v] for v in range(n)] + [n + alpha_images[v] for v in range(n)]
    )


def crown_side_swap(n):
    return Permutation([n + v for v in range(n)] + list(range(n)))


def crown_transitive_gens(n):
    swap01 = list(range(n))
    swap01[0], swap01[1] = 1, 0
    cyc = [(v + 1) % n for v in range(n)]
    return GeneratorSet.of(
        crown_sym_perm(n, swap01), crown_sym_perm(n, cyc), crown_side_swap(n)
    )


def crown_stabilizer_gens(n):
    """Stabilizer of the first left vertex: Sym of the remaining points."""
    swap12 = list(range(n))
    swap12[1], swap12[2] = 2, 1
    cyc = [0] + [1 + (v + 1) % (n - 1) for v in range(n - 1)]
    return GeneratorSet.of(crown_sym_perm(n, swap12), crown_sym_perm(n, cyc))


def johnson_vertices(n, k):
    # colex order, matching the builder's canonical vertex order
    return sorted(combinations(range(1, n + 1), k), key=lambda s: tuple(reversed(s)))


def johnson_induced_perm(n, k, alpha_images):
    verts = johnson_vertices(n, k)
    index = {s: t for t, s in enumerate(verts)}
    return Permutation(
        index[tuple(sorted(alpha_images[x - 1] + 1 for x in s))] for s in verts
    )


def johnson_transitive_gens(n, k):
    swap01 = list(range(n))
    swap01[0], swap01[1] = 1, 0
    cyc = [(v + 1) % n for v in range(n)]
    return GeneratorSet.of(
        johnson_induced_perm(n, k, swap01), johnson_induced_perm(n, k, cyc)
    )


def johnson_pair_stabilizer_gens(n):
    """Setwise stabilizer of {1,2} acting on the 2-subsets of [1..n]."""
    swap01 = list(range(n))
    swap01[0], swap01[1] = 1, 0
    swap23 = list(range(n))
    swap23[2], swap23[3] = 3, 2
    tail_cycle = [0, 1] + [2 + (v + 1) % (n - 2) for v in range(n - 2)]
    return GeneratorSet.of(
        johnson_induced_perm(n, 2, swap01),
        johnson_induced_perm(n, 2, swap23),
        johnson_induced_perm(n, 2, tail_cycle),
    )


def with_cell_indicators(a, pi):
    """A with the cell-indicator rows P^T of pi stacked under it.

    Its kernel is ker A meet ker P^T, so rank([A; P^T]) - rank(A) is the
    dimension of P^T(ker A): for A = D - lam I, the span of the cell sums
    of the lam-eigenvectors. It is 0 iff every one sums to 0 on every cell.
    """
    indicators = [
        tuple(1 if k == c else 0 for c in pi.cell_of) for k in range(pi.cell_count)
    ]
    return IntMatrix(a.entries + tuple(indicators))


def corpus_entries():
    """(name, graph, singleton-cell orbit partition, transitivity gens)."""
    entries = []
    for n in (4, 5, 6, 7):
        g = build_cycle(n)
        pi = orbits(GeneratorSet.of(reflection_perm(n)))
        entries.append((f"cycle({n})", g, pi, GeneratorSet.of(rotation_perm(n))))
    for n, conn in ((6, (1, 2)), (8, (1, 3)), (8, (1, 4)), (12, (1, 2, 3))):
        g = build_circulant(n, conn)
        pi = orbits(GeneratorSet.of(reflection_perm(n)))
        entries.append(
            (f"circulant({n},{conn})", g, pi, GeneratorSet.of(rotation_perm(n)))
        )
    for n in range(3, 9):
        g = build_crown(n)
        pi = orbits(crown_stabilizer_gens(n))
        entries.append((f"crown({n})", g, pi, crown_transitive_gens(n)))
    for n, k in ((4, 2), (5, 2), (6, 2), (5, 1)):
        g = build_johnson(n, k)
        if k == 2:
            pi = orbits(johnson_pair_stabilizer_gens(n))
        else:
            # stabilizer of the 1-subset {1}: permute the other points freely
            swap12 = list(range(n))
            swap12[1], swap12[2] = 2, 1
            tail_cycle = [0] + [1 + (v + 1) % (n - 1) for v in range(n - 1)]
            pi = orbits(
                GeneratorSet.of(
                    johnson_induced_perm(n, 1, swap12),
                    johnson_induced_perm(n, 1, tail_cycle),
                )
            )
        entries.append((f"johnson({n},{k})", g, pi, johnson_transitive_gens(n, k)))
    for n in (4, 5, 6):
        g = build_lcr(n)
        pi = orbits(lcr_stabilizer_gens(n))
        entries.append((f"lcr({n})", g, pi, lcr_automorphism_gens(n)))
    return entries


@pytest.fixture(scope="session")
def corpus():
    return corpus_entries()
