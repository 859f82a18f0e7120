"""Permutations, actions on pair vertices, and orbit computation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitspectra.graphs import (
    all_pairs_distances,
    build_crown,
    build_cycle,
    build_lcr,
    pair_vertices,
)
from orbitspectra.perms import (
    GeneratorSet,
    OrbitPartition,
    Permutation,
    is_automorphism,
    is_vertex_transitive_under,
    lcr_automorphism_gens,
    lcr_stabilizer_gens,
    orbits,
    pair_action,
    parse_cycles,
    swap_action,
    symmetric_group_gens,
    two_point_stabilizer_gens,
)

perm_images = lambda n: st.permutations(range(n))


class TestPermutation:
    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation([0, 0, 1])

    def test_compose_applies_right_first(self):
        p = Permutation([1, 2, 0])
        q = Permutation([0, 2, 1])
        assert (p * q).images == tuple(p(q(v)) for v in range(3))

    def test_from_cycles(self):
        p = Permutation.from_cycles([[0, 1], [2, 3, 4]], 6)
        assert p.images == (1, 0, 3, 4, 2, 5)
        assert p.cycles() == [(0, 1), (2, 3, 4)]

    def test_from_cycles_rejects_repeats(self):
        with pytest.raises(ValueError, match="repeated"):
            Permutation.from_cycles([[0, 1], [1, 2]], 4)


class TestCycleParser:
    def test_parse(self):
        p = parse_cycles("(1 2)(3 4 5)", 6)
        assert p == Permutation.from_cycles([[0, 1], [2, 3, 4]], 6)

    def test_commas_allowed(self):
        assert parse_cycles("(1,2)", 3) == Permutation.from_cycles([[0, 1]], 3)

    def test_identity_spellings(self):
        assert parse_cycles("", 4) == Permutation.identity(4)
        assert parse_cycles("()", 4) == Permutation.identity(4)

    def test_malformed(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_cycles("(1 2", 4)
        with pytest.raises(ValueError, match="non-integer"):
            parse_cycles("(1 a)", 4)
        with pytest.raises(ValueError):
            parse_cycles("(0 1)", 4)  # points are 1-based

    @given(perm_images(7))
    def test_repr_parses_back(self, images):
        p = Permutation(images)
        text = repr(p)
        if "identity" in text:
            assert p == Permutation.identity(7)
        else:
            body = text[len("Permutation(") : -1]
            assert parse_cycles(body, 7) == p


class TestOrbits:
    def test_two_point_stabilizer_orbits_on_lcr4(self):
        pi = orbits(lcr_stabilizer_gens(4))
        verts = pair_vertices(4)
        cells = {frozenset(verts[v] for v in cell) for cell in pi.cells}
        assert cells == {
            frozenset({(1, 2)}),
            frozenset({(1, 3), (1, 4)}),
            frozenset({(3, 1), (4, 1)}),
            frozenset({(2, 1)}),
            frozenset({(2, 3), (2, 4)}),
            frozenset({(3, 2), (4, 2)}),
            frozenset({(3, 4), (4, 3)}),
        }

    @pytest.mark.parametrize("n", range(4, 8))
    def test_stabilizer_orbit_sizes(self, n):
        pi = orbits(lcr_stabilizer_gens(n))
        assert pi.cell_count == 7
        assert sum(len(c) for c in pi.cells) == n * (n - 1)
        assert sorted(len(c) for c in pi.cells) == sorted(
            (1, 1, n - 2, n - 2, n - 2, n - 2, (n - 2) * (n - 3))
        )

    def test_identity_generators_give_singletons(self):
        pi = orbits(GeneratorSet.of(Permutation.identity(5)))
        assert pi.cells == ((0,), (1,), (2,), (3,), (4,))

    def test_full_group_is_transitive_on_lcr5(self):
        pi = orbits(lcr_automorphism_gens(5))
        assert pi.cell_count == 1
        assert len(pi.cells[0]) == 20

    def test_cells_ordered_by_smallest_vertex(self):
        pi = orbits(lcr_stabilizer_gens(5))
        firsts = [cell[0] for cell in pi.cells]
        assert firsts == sorted(firsts)

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=20, deadline=None)
    def test_orbits_independent_of_generator_order(self, rng):
        gens = list(lcr_stabilizer_gens(5).generators) + [swap_action(5)]
        reference = orbits(GeneratorSet.of(*gens))
        rng.shuffle(gens)
        shuffled = orbits(GeneratorSet.of(*gens))
        # equal cells; each partition records its own generators, which == ignores
        assert shuffled == reference
        assert shuffled.cells == reference.cells
        assert shuffled.generators.generators == tuple(gens)

    def test_cells_closed_under_generators(self):
        gens = lcr_stabilizer_gens(6)
        pi = orbits(gens)
        for g in gens.generators:
            for cell in pi.cells:
                assert {g(v) for v in cell} == set(cell)

    def test_generators_are_recorded_and_carried(self):
        gens = lcr_stabilizer_gens(5)
        pi = orbits(gens)
        reordered = pi.reorder_by_representatives([c[0] for c in reversed(pi.cells)])
        assert pi.generators is gens and reordered.generators is gens
        assert OrbitPartition.from_cells(pi.cells).generators is None
        assert OrbitPartition.from_cells(pi.cells) == pi

    def test_partition_validation(self):
        with pytest.raises(ValueError, match="disjointly cover"):
            OrbitPartition.from_cells([(0, 1), (1, 2)])


class TestRecords:
    """GeneratorSet and OrbitPartition: immutable, compared by value."""

    def test_assignment_and_deletion_raise(self):
        gens = lcr_stabilizer_gens(5)
        pi = orbits(gens)
        for record, name in ((gens, "degree"), (gens, "generators"), (pi, "cells"),
                             (pi, "generators")):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            pi.extra = 1

    def test_equal_values_compare_and_hash_equal(self):
        a, b = lcr_stabilizer_gens(5), lcr_stabilizer_gens(5)
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != lcr_stabilizer_gens(6) and a != lcr_automorphism_gens(5)
        pa, pb = orbits(a), orbits(b)
        assert pa == pb and hash(pa) == hash(pb)
        assert pa != orbits(lcr_automorphism_gens(5))
        # equality is per class, as a tuple of the same fields is not a record
        assert a != (a.degree, a.generators) and pa != (pa.cells, pa.cell_of)

    def test_partition_equality_ignores_generators(self):
        gens = GeneratorSet.of(Permutation([1, 0, 2, 3]), Permutation([0, 1, 3, 2]))
        other = GeneratorSet.of(Permutation([1, 0, 3, 2]), Permutation([0, 1, 3, 2]))
        pi, rho = orbits(gens), orbits(other)
        assert pi.generators != rho.generators
        assert pi == rho and hash(pi) == hash(rho)
        assert pi == OrbitPartition.from_cells(pi.cells)
        assert "generators" not in repr(pi)

    def test_generator_set_built_directly_is_validated(self):
        with pytest.raises(ValueError, match="nonempty"):
            GeneratorSet(3, ())
        with pytest.raises(ValueError, match="degree 4 != declared degree 3"):
            GeneratorSet(3, (Permutation.identity(3), Permutation.identity(4)))
        gens = GeneratorSet(3, (Permutation([1, 2, 0]),))
        assert gens == GeneratorSet.of(Permutation([1, 2, 0]))
        assert repr(gens) == "GeneratorSet(degree=3, generators=(Permutation((1 2 3)),))"


class TestActions:
    def test_pair_action_of_identity(self):
        assert pair_action(Permutation.identity(4)) == Permutation.identity(12)

    def test_pair_action_of_transposition(self):
        alpha = parse_cycles("(1 2)", 4)
        act = pair_action(alpha)
        verts = pair_vertices(4)
        assert verts[act(verts.index((1, 3)))] == (2, 3)

    @given(perm_images(5), perm_images(5))
    @settings(max_examples=30, deadline=None)
    def test_pair_action_is_a_homomorphism(self, a_images, c_images):
        alpha, gamma = Permutation(a_images), Permutation(c_images)
        assert pair_action(alpha * gamma) == pair_action(alpha) * pair_action(gamma)

    def test_swap_action_is_an_involution(self):
        assert swap_action(4) * swap_action(4) == Permutation.identity(12)

    def test_swap_action_rule(self):
        verts = pair_vertices(4)
        act = swap_action(4)
        assert verts[act(verts.index((1, 2)))] == (2, 1)

    @given(perm_images(5))
    @settings(max_examples=30, deadline=None)
    def test_swap_commutes_with_pair_actions(self, images):
        alpha = Permutation(images)
        assert swap_action(5) * pair_action(alpha) == pair_action(alpha) * swap_action(5)


class TestAutomorphisms:
    @pytest.mark.parametrize("n", range(4, 7))
    def test_pair_actions_are_automorphisms(self, n):
        g = build_lcr(n)
        for alpha in symmetric_group_gens(n).generators:
            assert is_automorphism(g, pair_action(alpha))
        assert is_automorphism(g, swap_action(n))

    def test_arbitrary_transposition_is_not_an_automorphism(self):
        g = build_lcr(4)
        verts = pair_vertices(4)
        a, b = verts.index((1, 2)), verts.index((1, 3))
        images = list(range(12))
        images[a], images[b] = b, a
        assert not is_automorphism(g, Permutation(images))

    def test_degree_mismatch_is_an_error(self):
        with pytest.raises(ValueError, match="degree"):
            is_automorphism(build_cycle(5), Permutation.identity(4))

    def test_transitivity_checks(self):
        g4 = build_lcr(4)
        assert is_vertex_transitive_under(g4, lcr_automorphism_gens(4))
        assert not is_vertex_transitive_under(
            g4, GeneratorSet.of(Permutation.identity(12))
        )
        rotation = Permutation([(v + 1) % 6 for v in range(6)])
        assert is_vertex_transitive_under(build_cycle(6), GeneratorSet.of(rotation))

    def test_non_automorphism_generator_is_reported(self):
        g = build_cycle(6)
        bad = Permutation([1, 0, 2, 3, 4, 5])
        with pytest.raises(ValueError, match="generator #0"):
            is_vertex_transitive_under(g, GeneratorSet.of(bad))

    def test_automorphisms_preserve_distances(self, corpus):
        for name, g, _, gens in corpus:
            if g.vertex_count > 60:
                continue
            d = all_pairs_distances(g)
            for p in gens.generators:
                assert is_automorphism(g, p), name
                for u in range(g.vertex_count):
                    row = d.entries[u]
                    pu = p(u)
                    for v in range(g.vertex_count):
                        assert row[v] == d.entries[pu][p(v)], name


class TestGeneratorChoices:
    def test_symmetric_group_gens_shape(self):
        gens = symmetric_group_gens(5)
        assert gens.generators[0] == parse_cycles("(1 2)", 5)
        assert gens.generators[1] == parse_cycles("(1 2 3 4 5)", 5)

    def test_two_point_stabilizer_fixes_one_and_two(self):
        for n in (3, 4, 6):
            for g in two_point_stabilizer_gens(n).generators:
                assert g(0) == 0 and g(1) == 1
