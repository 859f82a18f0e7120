"""Hand-checked cases for the three hot kernels: BFS, Bareiss, Berkowitz."""

from orbitspectra.exactla import bareiss_echelon, berkowitz_charpoly
from orbitspectra.graphs import bfs_all_pairs


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
