"""The three hot kernels, BFS, Bareiss and Berkowitz: hand-checked cases,
the bitset BFS against a queue, lazy Bareiss against the eager loop, and
guards on how each kernel works."""

import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitspectra.exactla import (
    IntMatrix,
    bareiss_echelon,
    berkowitz_charpoly,
)
from orbitspectra.graphs import (
    Graph,
    all_pairs_distances,
    bfs_all_pairs,
    build_cycle,
    build_johnson,
    build_lcr,
)

from conftest import bfs_reference, fraction_rank, shift_diagonal


def entry_products(rows):
    """Multiplications with a matrix entry as a factor in berkowitz_charpoly(rows).

    Each entry becomes an int subclass that counts its products; rows and
    their entries keep their container types.
    """
    tally = [0]

    class Entry(int):
        def __mul__(self, other):
            tally[0] += 1
            return int.__mul__(self, other)

        __rmul__ = __mul__

    berkowitz_charpoly(type(rows)(type(row)(map(Entry, row)) for row in rows))
    return tally[0]


def eager_bareiss(rows):
    """One-step Bareiss that rescales every row below the pivot at every
    step, pivoting on the first row with a nonzero entry: the oracle for
    bareiss_echelon's pivot columns and determinant."""
    a = [list(row) for row in rows]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    pivot_cols = []
    sign = 1
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        k = r
        while k < nrows and a[k][c] == 0:
            k += 1
        if k == nrows:
            continue
        if k != r:
            a[k], a[r] = a[r], a[k]
            sign = -sign
        arow = a[r]
        piv = arow[c]
        for i in range(r + 1, nrows):
            irow = a[i]
            head = irow[c]
            if head == 0:
                for j in range(c + 1, ncols):
                    irow[j] = (piv * irow[j]) // prev
            else:
                for j in range(c + 1, ncols):
                    irow[j] = (piv * irow[j] - head * arow[j]) // prev
                irow[c] = 0
        prev = piv
        pivot_cols.append(c)
        r += 1
    return r, sign, pivot_cols, a


def all_products(kernel, rows):
    """Every multiplication kernel(rows) makes: the entries become an int
    subclass whose *, - and // return the subclass, so the products of
    products are counted too."""
    tally = [0]

    class Entry(int):
        def __mul__(self, other):
            tally[0] += 1
            return Entry(int.__mul__(self, other))

        __rmul__ = __mul__

        def __sub__(self, other):
            return Entry(int.__sub__(self, other))

        def __rsub__(self, other):
            return Entry(int.__rsub__(self, other))

        def __floordiv__(self, other):
            return Entry(int.__floordiv__(self, other))

        def __rfloordiv__(self, other):
            return Entry(int.__rfloordiv__(self, other))

    kernel([list(map(Entry, row)) for row in rows])
    return tally[0]


def direct_products(n, symmetric):
    """entry_products of an n x n matrix, one product per entry in each dot
    product and mat-vec: at trailing width w, the dot products R C and
    R (M C) take w each (R C alone when w = 1), and each mat-vec takes
    w^2, with w // 2 mat-vecs on symmetric input and w - 1 otherwise."""
    total = 0
    for w in range(1, n):
        mat_vecs = w // 2 if symmetric else w - 1
        total += w * min(2, w) + mat_vecs * w * w
    return total


class CountedIterable:
    """A neighbour list that counts how often it is iterated."""

    def __init__(self, items):
        self.items = items
        self.passes = 0

    def __iter__(self):
        self.passes += 1
        return iter(self.items)


def clique(vertices):
    return [(u, v) for u in vertices for v in vertices if u < v]


def direction_graphs():
    """(name, graph) pairs that send bfs_all_pairs down each branch of its
    bottom-up levels and pre-filled rows."""
    # each source's commonest distance differs from the previous one's along
    # the path, so rows are pre-filled with a wrong guess
    path = [(v, v + 1) for v in range(29, 34)]
    yield "K30 and a pendant 5-path", Graph(35, clique(range(30)) + path)
    # pre-filled entries of the vertices a source never reaches become -1
    yield "K20 and an isolated vertex", Graph(21, clique(range(20)))
    yield "K12 and K8", Graph(20, clique(range(12)) + clique(range(12, 20)))
    # levels 2, 3 and 4 of every source go bottom-up
    yield "J(9,4)", build_johnson(9, 4)


@st.composite
def random_graphs(draw):
    """Graphs on 0..70 vertices: each vertex is isolated or in one of up to
    four components, and each pair inside a component is an edge with a
    drawn probability."""
    n = draw(st.integers(0, 70))
    component = draw(st.lists(st.integers(-1, 3), min_size=n, max_size=n))
    density = draw(st.floats(0.0, 1.0))
    rng = draw(st.randoms(use_true_random=False))
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if component[u] >= 0 and component[u] == component[v] and rng.random() < density
    ]
    return Graph(n, edges)


@st.composite
def elimination_matrices(draw):
    """Integer matrices of 1..8 rows and columns, square about half the
    time, with small, negative and +-2^70 entries. A row is drawn, late,
    and in half the matrices also zero or a combination of two earlier
    rows. A late row is zero in its first columns, so its entry in the
    pivot column stays zero for several steps and then becomes nonzero
    while the row is stale; being sparse, it is often the pivot row too.
    About half the examples bring a stale pivot row up to date, a quarter
    update a stale row, and about one in eight is square of full rank."""
    nrows = draw(st.integers(1, 8))
    ncols = draw(st.one_of(st.just(nrows), st.integers(1, 8)))
    entries = st.one_of(st.integers(-9, 9), st.sampled_from((2**70, -(2**70), 2**70 - 1)))
    kinds = ("drawn", "late")
    if draw(st.booleans()):
        kinds += ("zero", "combination")
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(kinds))
        if kind == "zero":
            row = [0] * ncols
        elif kind == "combination" and rows:
            x, y = draw(st.lists(st.sampled_from(rows), min_size=2, max_size=2))
            p, q = draw(st.lists(st.integers(-3, 3), min_size=2, max_size=2))
            row = [p * u + q * v for u, v in zip(x, y)]
        elif kind == "late":
            lead = draw(st.integers(1, ncols))
            row = [0] * lead + draw(st.lists(entries, min_size=ncols - lead, max_size=ncols - lead))
        else:
            row = draw(st.lists(entries, min_size=ncols, max_size=ncols))
        rows.append(row)
    return rows


class TestPureKernels:
    def test_bfs_marks_unreachable(self):
        dist = bfs_all_pairs(3, [[1], [0], []])
        assert dist[0] == (0, 1, -1)
        assert dist[2] == (-1, -1, 0)

    @given(random_graphs())
    @settings(max_examples=150, deadline=None)
    def test_bfs_equals_the_queue_on_random_graphs(self, g):
        assert bfs_all_pairs(g.vertex_count, g.adjacency) == bfs_reference(
            g.vertex_count, g.adjacency
        )

    @pytest.mark.parametrize("n", (1, 7, 8, 9, 63, 64, 65, 70))
    def test_bfs_equals_the_queue_across_byte_and_word_boundaries(self, n):
        # a path through every vertex but the last, which is isolated
        g = Graph(n, [(v, v + 1) for v in range(n - 2)])
        dist = bfs_all_pairs(n, g.adjacency)
        assert dist == bfs_reference(n, g.adjacency)
        assert dist[n - 1] == (-1,) * (n - 1) + (0,)

    def test_bfs_equals_the_queue_on_the_corpus(self, corpus):
        graphs = [(name, g) for name, g, _, _ in corpus] + list(direction_graphs())
        for name, g in graphs:
            n = g.vertex_count
            assert bfs_all_pairs(n, g.adjacency) == bfs_reference(n, g.adjacency), name

    @given(random_graphs(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_bfs_from_given_sources_returns_their_rows_in_order(self, g, data):
        # each row is pre-filled with the previous source's commonest
        # distance, so the order of the sources must not change a row
        n = g.vertex_count
        full = bfs_reference(n, g.adjacency)
        sources = data.draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=n))
        assert bfs_all_pairs(n, g.adjacency, sources) == [full[s] for s in sources]

    def test_bfs_from_sources_in_descending_and_shuffled_order(self, corpus):
        rng = random.Random(19)
        graphs = [(name, g) for name, g, _, _ in corpus] + list(direction_graphs())
        for name, g in graphs:
            n = g.vertex_count
            full = bfs_all_pairs(n, g.adjacency)
            shuffled = list(range(n))
            rng.shuffle(shuffled)
            for sources in (list(range(n - 1, -1, -1)), shuffled, shuffled[: n // 3]):
                rows = bfs_all_pairs(n, g.adjacency, sources)
                assert rows == [full[s] for s in sources], (name, sources)

    def test_bfs_reads_each_neighbour_list_once_and_keeps_to_its_rows(self):
        # a queue walks every list once per source: 380 passes each on lcr(20);
        # the masks and the bit table cost a few percent of the rows returned
        g = build_lcr(20)
        adj = [CountedIterable(a) for a in g.adjacency]
        tracemalloc.start()
        try:
            dist = bfs_all_pairs(g.vertex_count, adj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert max(a.passes for a in adj) <= 1
        rows = sys.getsizeof(dist) + sum(map(sys.getsizeof, dist))
        assert peak <= 1.10 * rows, (peak, rows)

    def test_bareiss_on_singular_matrix(self):
        r, sign, pivots, ech = bareiss_echelon([[1, 2], [2, 4]])
        assert r == 1
        assert pivots == [0]
        assert ech[1] == [0, 0]

    def test_bareiss_on_rows_that_go_stale(self):
        # row 2 is skipped at column 0 and updated at column 1 with its own
        # divisor 1, not the previous pivot 2; row 3 is skipped twice and
        # is then the sparsest candidate, so it pivots at column 2 once
        # brought up to date
        rows = [[2, 1, 1, 3], [4, 1, 3, 1], [0, 3, 1, 2], [0, 0, 5, 0]]
        r, sign, pivots, ech = bareiss_echelon(rows)
        assert (r, pivots) == (4, [0, 1, 2, 3])
        oracle = eager_bareiss(rows)
        assert sign * ech[3][3] == oracle[1] * oracle[3][3][3] == -130

    @given(elimination_matrices())
    @settings(max_examples=400, deadline=None)
    def test_bareiss_equals_the_eager_loop(self, rows):
        r, sign, pivots, ech = bareiss_echelon(rows)
        _, o_sign, o_pivots, o_ech = eager_bareiss(rows)
        assert r == fraction_rank(IntMatrix(rows))
        assert pivots == o_pivots
        n = len(rows)
        if r == n == len(rows[0]):
            assert sign * ech[-1][pivots[-1]] == o_sign * o_ech[-1][o_pivots[-1]]
        for k, c in enumerate(pivots):
            assert not any(ech[k][:c]), k
            assert all(ech[i][c] == 0 for i in range(k + 1, n)), k
        assert not any(map(any, ech[r:]))
        # exact divisions keep the echelon rows in the input's row space
        assert fraction_rank(IntMatrix(rows + ech)) == r

    def test_bareiss_scales_only_the_rows_it_updates(self):
        # lcr(10)'s D + I: 36 of its 90 rows go to zero and stay unscaled,
        # and sparse pivot rows fill in less; the eager loop rescales every
        # row at every step (0.66x measured)
        rows = shift_diagonal(all_pairs_distances(build_lcr(10)), -1).entries
        assert bareiss_echelon(rows)[0] == 54
        lazy = all_products(bareiss_echelon, rows)
        eager = all_products(eager_bareiss, rows)
        assert lazy <= 0.75 * eager, (lazy, eager)

    def test_berkowitz_on_companion_like_matrix(self):
        # det(xI - [[0,1],[1,0]]) = x^2 - 1
        assert berkowitz_charpoly([[0, 1], [1, 0]]) == [-1, 0, 1]

    def test_berkowitz_halves_the_mat_vecs_on_symmetric_input(self):
        # symmetric input reuses M^i C as the left vector; one changed entry
        # sends the same matrix down the general path, which pays for R M^i
        d = all_pairs_distances(build_lcr(5)).entries
        assert len(d) == 20
        changed = [list(row) for row in d]
        changed[0][1] += 1
        for container in (tuple, list):
            symmetric = entry_products(container(map(container, d)))
            general = entry_products(container(map(container, changed)))
            assert symmetric <= 0.6 * general, (container.__name__, symmetric, general)

    def test_berkowitz_takes_one_product_per_entry(self):
        # every mat-vec multiplies each entry of its block once, whatever
        # the rows hold: lcr(8)'s rows are mostly twos, cycle(9)'s hold
        # five values in nine entries, and a 12 x 12 matrix has distinct
        # entries and takes the general path
        d = all_pairs_distances(build_lcr(8)).entries
        assert entry_products(d) == direct_products(56, symmetric=True)
        cycle = all_pairs_distances(build_cycle(9)).entries
        assert entry_products(cycle) == direct_products(9, symmetric=True)
        distinct = tuple(tuple(12 * i + j + 1 for j in range(12)) for i in range(12))
        assert entry_products(distinct) == direct_products(12, symmetric=False)
