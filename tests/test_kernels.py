"""Hand-checked cases for the three hot kernels: BFS, Bareiss, Berkowitz."""

from orbitspectra.exactla import bareiss_echelon, berkowitz_charpoly
from orbitspectra.graphs import all_pairs_distances, bfs_all_pairs, build_lcr


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


class TestPureKernels:
    def test_bfs_marks_unreachable(self):
        dist = bfs_all_pairs(3, [[1], [0], []])
        assert dist[0] == (0, 1, -1)
        assert dist[2] == (-1, -1, 0)

    def test_bareiss_on_singular_matrix(self):
        r, sign, pivots, ech = bareiss_echelon([[1, 2], [2, 4]])
        assert r == 1
        assert pivots == [0]
        assert ech[1] == [0, 0]

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
