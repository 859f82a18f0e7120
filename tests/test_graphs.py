"""Graph builders, BFS distances, and structural predicates."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitspectra.graphs import (
    DisconnectedGraphError,
    Graph,
    all_pairs_distances,
    build_circulant,
    build_complete,
    build_crown,
    build_cycle,
    build_johnson,
    build_lcr,
    build_line_graph,
    is_distance_regular,
    pair_vertices,
)

from conftest import along_cycle, is_isomorphism, lcr_distance


class TestGraphType:
    def test_has_edge_agrees_with_edges(self):
        # vertex 4 is isolated; vertex 0's largest neighbour is 2, below 3 and 4
        g = Graph(5, [(0, 1), (0, 2), (1, 3), (2, 3)])
        edges = set(g.edges())
        for u in range(5):
            for v in range(5):
                assert g.has_edge(u, v) == ((min(u, v), max(u, v)) in edges)

    def test_adjacency_is_symmetric_and_sorted(self):
        g = Graph(4, [(2, 0), (0, 1), (3, 1)])
        adj = g.adjacency
        assert adj[0] == (1, 2)
        assert adj[1] == (0, 3)
        assert all(v in adj[u] for v in range(4) for u in adj[v])

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(2, [(1, 1)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(3, [(0, 1), (1, 0)])

    @pytest.mark.parametrize("edges", [[(2, 0), (1, 2), (2, 0)], [(2, 0), (1, 2), (0, 2)]])
    def test_duplicate_is_found_in_either_orientation(self, edges):
        with pytest.raises(ValueError, match=r"^duplicate edge \(0,2\)$"):
            Graph(4, edges)

    def test_self_loop_is_not_reported_as_a_duplicate(self):
        # (3, 3) puts 3 twice in row 3, as a duplicate would
        with pytest.raises(ValueError, match=r"^self-loop at vertex 3$"):
            Graph(5, [(0, 1), (3, 3), (1, 4)])

    @pytest.mark.parametrize(
        "edge", [(-1, 2), (2, -1), (-4, 1), (-9, -7), (1, 4), (4, 1), (9, 0)]
    )
    def test_rejects_endpoint_out_of_range(self, edge):
        # a negative endpoint must not wrap around to another vertex's row
        u, v = edge
        with pytest.raises(ValueError, match=rf"^edge \({u},{v}\) out of range$"):
            Graph(4, [(0, 1), edge, (2, 3)])

    def test_edges_are_read_once_from_a_stream(self):
        reads = []

        def stream():
            for e in [(0, 1), (2, 1), (3, 0), (1, 3)]:
                reads.append(e)
                yield e

        g = Graph(4, stream())
        assert reads == [(0, 1), (2, 1), (3, 0), (1, 3)]
        assert g.adjacency == ((1, 3), (0, 2, 3), (1,), (0, 1))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError, match="distinct"):
            Graph(2, [], labels=["a", "a"])

    def test_edges_round_trip(self):
        edges = [(0, 3), (1, 2), (0, 1)]
        g = Graph(4, edges)
        assert g.edges() == sorted(edges)
        assert len(g.edges()) == 3


class TestBuilders:
    def test_crown_order_and_regularity(self):
        g = build_crown(4)
        assert g.vertex_count == 8
        assert g.is_regular() == 3

    def test_crown_3_is_the_hexagon(self):
        # 1 - x2 - 3 - x1 - 2 - x3 - 1
        assert is_isomorphism(build_crown(3), build_cycle(6), along_cycle([0, 4, 2, 3, 1, 5]))

    def test_crown_rejects_small_n(self):
        with pytest.raises(ValueError, match="n >= 3"):
            build_crown(2)

    def test_crown_no_matching_edges(self):
        g = build_crown(5)
        for i in range(5):
            assert not g.has_edge(i, 5 + i)
            assert g.has_edge(i, 5 + (i + 1) % 5)

    def test_line_graph_of_crown_3_is_hexagon(self):
        # the crown's edges in the order the hexagon above traverses them
        lg = build_line_graph(build_crown(3))
        assert is_isomorphism(lg, build_cycle(6), along_cycle([0, 5, 4, 2, 3, 1]))

    def test_line_graph_of_triangle_is_triangle(self):
        k3 = build_complete(3)
        assert is_isomorphism(build_line_graph(k3), k3, [0, 1, 2])

    def test_line_graph_of_crown_4(self):
        g = build_line_graph(build_crown(4))
        assert g.vertex_count == 12
        assert g.is_regular() == 4

    def test_line_graph_of_edgeless_graph_is_empty(self):
        g = build_line_graph(Graph(3, []))
        assert g.vertex_count == 0

    def test_line_graph_labels_come_from_endpoints(self):
        g = build_line_graph(build_crown(3))
        assert "{1,x2}" in g.vertex_labels

    def test_lcr_shape(self):
        g = build_lcr(4)
        assert g.vertex_count == 12
        assert g.is_regular() == 4
        assert g.vertex_labels[0] == "(1,2)"

    def test_lcr_adjacency_rule(self):
        n = 5
        g = build_lcr(n)
        verts = pair_vertices(n)
        for a in range(len(verts)):
            i, j = verts[a]
            for b in range(len(verts)):
                r, s = verts[b]
                expected = a != b and (i == r or j == s)
                assert g.has_edge(a, b) == expected

    @pytest.mark.parametrize("n", range(3, 8))
    def test_lcr_isomorphic_to_line_of_crown(self, n):
        # explicit bijection: crown edge {i, xj} goes to the pair (i, j)
        lg = build_line_graph(build_crown(n))
        direct = build_lcr(n)
        index = {p: k for k, p in enumerate(pair_vertices(n))}
        mapping = []
        for u, v in build_crown(n).edges():
            i, j = u + 1, v - n + 1
            mapping.append(index[(i, j)])
        assert is_isomorphism(lg, direct, mapping)

    def test_lcr_3_is_hexagon(self):
        # (1,2) - (1,3) - (2,3) - (2,1) - (3,1) - (3,2) - (1,2)
        assert is_isomorphism(build_lcr(3), build_cycle(6), along_cycle([0, 1, 3, 2, 4, 5]))

    def test_johnson_6_2(self):
        g = build_johnson(6, 2)
        assert g.vertex_count == 15
        assert g.is_regular() == 8

    def test_johnson_k1_is_complete(self):
        g = build_johnson(5, 1)
        assert g.adjacency == build_complete(5).adjacency

    def test_johnson_4_2_is_octahedron(self):
        # complementary 2-subsets, the non-edges of J(4,2), go to antipodes
        octahedron = build_circulant(6, (1, 2))
        assert is_isomorphism(build_johnson(4, 2), octahedron, [0, 1, 2, 5, 4, 3])

    def test_johnson_rejects_bad_k(self):
        with pytest.raises(ValueError):
            build_johnson(4, 4)
        with pytest.raises(ValueError):
            build_johnson(4, 0)

    def test_cycles(self):
        assert build_cycle(6).is_regular() == 2
        assert all_pairs_distances(build_cycle(6)).max_entry() == 3
        assert len(build_cycle(3).edges()) == 3
        assert all_pairs_distances(build_cycle(4)).max_entry() == 2
        with pytest.raises(ValueError):
            build_cycle(2)

    def test_circulant_validation(self):
        with pytest.raises(ValueError, match="connection"):
            build_circulant(8, (5,))
        with pytest.raises(ValueError, match="nonempty"):
            build_circulant(8, ())


class TestDistances:
    def test_swapped_pair_at_distance_three(self):
        g = build_lcr(4)
        verts = pair_vertices(4)
        d = all_pairs_distances(g)
        assert d.entries[verts.index((1, 2))][verts.index((2, 1))] == 3

    def test_zero_diagonal(self):
        d = all_pairs_distances(build_crown(4))
        assert all(d.entries[v][v] == 0 for v in range(d.rows))

    @pytest.mark.parametrize("n", range(4, 9))
    def test_lcr_diameter_is_three(self, n):
        assert all_pairs_distances(build_lcr(n)).max_entry() == 3

    @pytest.mark.parametrize("n", range(4, 9))
    def test_lcr_distance_distribution(self, n):
        d = all_pairs_distances(build_lcr(n))
        expected = {1: 2 * n - 4, 2: (n - 1) * (n - 2), 3: 1}
        for v in range(d.rows):
            counts = {}
            for w in range(d.rows):
                if w != v:
                    counts[d.entries[v][w]] = counts.get(d.entries[v][w], 0) + 1
            assert counts == expected

    @pytest.mark.parametrize("n", range(4, 9))
    def test_lcr_constant_row_sum(self, n):
        d = all_pairs_distances(build_lcr(n))
        assert set(d.row_sums()) == {2 * n * n - 4 * n + 3}

    def test_disconnected_is_an_error_naming_vertices(self):
        two_triangles = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        with pytest.raises(DisconnectedGraphError, match="no path between"):
            all_pairs_distances(two_triangles)

    def test_rows_of_given_sources_on_a_disconnected_graph_are_an_error(self):
        # one row settles connectivity; the error names its source
        two_triangles = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        with pytest.raises(DisconnectedGraphError, match="between vertex 4 and 0") as info:
            all_pairs_distances(two_triangles, [4, 1])
        assert (info.value.u, info.value.v) == (4, 0)

    def test_distance_matrix_invariants_on_corpus(self, corpus):
        # symmetry and the triangle inequality, exhaustively
        for name, g, _, _ in corpus:
            if g.vertex_count > 200:
                continue
            d = all_pairs_distances(g)
            n = d.rows
            rows = d.entries
            for u in range(n):
                assert rows[u][u] == 0
                for v in range(u + 1, n):
                    assert rows[u][v] == rows[v][u] >= 1
            for u in range(n):
                for v in range(n):
                    duv = rows[u][v]
                    for w in range(n):
                        assert rows[u][w] <= duv + rows[v][w], name


class TestClosedFormDistance:
    def test_adjacent_when_a_coordinate_agrees(self):
        assert lcr_distance(4, (1, 2), (1, 3)) == 1

    def test_swap_is_at_distance_three(self):
        assert lcr_distance(4, (1, 3), (3, 1)) == 3

    def test_equal_pairs(self):
        assert lcr_distance(5, (2, 4), (2, 4)) == 0

    @pytest.mark.parametrize("n", range(4, 9))
    def test_agrees_with_bfs_everywhere(self, n):
        verts = pair_vertices(n)
        d = all_pairs_distances(build_lcr(n))
        for a, pa in enumerate(verts):
            for b, pb in enumerate(verts):
                assert lcr_distance(n, pa, pb) == d.entries[a][b]

    def test_rejects_bad_pairs(self):
        with pytest.raises(ValueError, match="valid ordered pair"):
            lcr_distance(4, (1, 1), (1, 2))
        with pytest.raises(ValueError, match="valid ordered pair"):
            lcr_distance(4, (1, 5), (1, 2))
        with pytest.raises(ValueError, match="n >= 4"):
            lcr_distance(3, (1, 2), (1, 3))


class TestDistanceRegularity:
    @pytest.mark.parametrize("n", range(4, 8))
    def test_lcr_is_not_distance_regular(self, n):
        result = is_distance_regular(build_lcr(n))
        assert not result.is_distance_regular
        dist, pair_a, counts_a, pair_b, counts_b = result.witness
        assert counts_a != counts_b
        # the witness pairs really are at the claimed common distance
        d = all_pairs_distances(build_lcr(n))
        (v, w), (v2, w2) = pair_a, pair_b
        assert d.entries[v][w] == d.entries[v2][w2] == dist

    @pytest.mark.parametrize("n", range(3, 8))
    def test_crown_is_distance_regular(self, n):
        result = is_distance_regular(build_crown(n))
        assert result.is_distance_regular
        b_arr, c_arr = result.intersection_array
        assert b_arr[0] == n - 1
        assert c_arr[-1] == n - 1

    def test_hexagon_is_distance_regular(self):
        result = is_distance_regular(build_cycle(6))
        assert result.is_distance_regular
        assert result.intersection_array == ((2, 1, 1), (1, 1, 2))


class TestIsomorphism:
    def test_rejects_wrong_mapping(self):
        g = build_cycle(5)
        assert not is_isomorphism(g, g, [1, 0, 2, 3, 4])
        assert is_isomorphism(g, g, [1, 2, 3, 4, 0])

    @given(
        st.sets(
            st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(
                lambda e: e[0] < e[1]
            ),
            max_size=12,
        ),
        st.permutations(range(7)),
    )
    @settings(max_examples=40, deadline=None)
    def test_relabeling_is_an_isomorphism(self, edges, relabel):
        g = Graph(7, sorted(edges))
        h = Graph(7, sorted((relabel[u], relabel[v]) for u, v in edges))
        assert is_isomorphism(g, h, relabel)
